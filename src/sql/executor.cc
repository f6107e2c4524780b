#include "sql/executor.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdlib>
#include <map>
#include <set>
#include <unordered_map>

#include "common/string_util.h"

namespace llmdm::sql {
namespace {

using common::Result;
using common::Status;
using data::ColumnType;
using data::Row;
using data::Value;

// A column of an intermediate relation, carrying its source qualifier
// (table alias) for name resolution.
struct BoundColumn {
  std::string qualifier;  // lower-cased alias/table name; may be empty
  std::string name;       // original column spelling
};

struct Relation {
  std::vector<BoundColumn> columns;
  std::vector<Row> rows;
};

// Expression evaluation context. `aggregates` is non-null only inside a
// grouped query, mapping aggregate expression text -> the group's value.
// `parent` chains to the enclosing query's context for correlated
// sub-queries.
struct EvalContext {
  const Relation* relation = nullptr;
  const Row* row = nullptr;
  const std::map<std::string, Value>* aggregates = nullptr;
  const EvalContext* parent = nullptr;
};

// Case-insensitive identifier match, without the two lower-cased copies a
// ToLower comparison would allocate on every column lookup.
bool NameEquals(std::string_view a, std::string_view b) {
  return a.size() == b.size() &&
         std::equal(a.begin(), a.end(), b.begin(),
                    [](unsigned char x, unsigned char y) {
                      return std::tolower(x) == std::tolower(y);
                    });
}

// SQL LIKE with % (any run) and _ (any one char), case-sensitive.
bool LikeMatch(std::string_view text, std::string_view pattern) {
  // Iterative two-pointer algorithm with backtracking on '%'.
  size_t t = 0, p = 0;
  size_t star_p = std::string_view::npos, star_t = 0;
  while (t < text.size()) {
    if (p < pattern.size() &&
        (pattern[p] == '_' || pattern[p] == text[t])) {
      ++p;
      ++t;
    } else if (p < pattern.size() && pattern[p] == '%') {
      star_p = p++;
      star_t = t;
    } else if (star_p != std::string_view::npos) {
      p = star_p + 1;
      t = ++star_t;
    } else {
      return false;
    }
  }
  while (p < pattern.size() && pattern[p] == '%') ++p;
  return p == pattern.size();
}

// Three-valued boolean: true / false / unknown(NULL).
enum class Tri { kFalse, kTrue, kNull };

Tri ValueToTri(const Value& v) {
  if (v.is_null()) return Tri::kNull;
  return v.AsBool() ? Tri::kTrue : Tri::kFalse;
}

bool RowLess(const Row& a, const Row& b) {
  for (size_t i = 0; i < a.size() && i < b.size(); ++i) {
    if (a[i] < b[i]) return true;
    if (b[i] < a[i]) return false;
  }
  return a.size() < b.size();
}

struct RowLessCmp {
  bool operator()(const Row& a, const Row& b) const { return RowLess(a, b); }
};

class Evaluator {
 public:
  explicit Evaluator(Catalog* catalog) : catalog_(catalog) {}

  Result<Relation> ExecSelect(const SelectStmt& select,
                              const EvalContext* outer);

  Result<Value> Eval(const Expr& expr, const EvalContext& ctx);

 private:
  Result<Relation> ExecSelectCore(const SelectStmt& select,
                                  const EvalContext* outer);
  Result<Relation> ApplySetOp(SetOp op, Relation lhs, Relation rhs);
  // Reads a base table; with a `where`, evaluates it against the catalog's
  // rows in place and copies only the rows that pass.
  Result<Relation> ScanBaseTable(const TableRef& ref, const Expr* where,
                                 const EvalContext* outer);
  Result<Relation> BuildTableRef(const TableRef& ref, const EvalContext* outer);
  Result<Relation> BuildFromClause(const SelectStmt& select,
                                   const EvalContext* outer);

  Result<Value> EvalColumnRef(const Expr& expr, const EvalContext& ctx);
  Result<Value> EvalBinary(const Expr& expr, const EvalContext& ctx);
  Result<Value> EvalFunction(const Expr& expr, const EvalContext& ctx);
  Result<Tri> EvalPredicate(const Expr& expr, const EvalContext& ctx);

  // The rows of a sub-query evaluated for the enclosing row `ctx`. The first
  // call for `sub` runs it once with no enclosing scope. If that succeeds, no
  // reference left the sub-query, so (evaluation being deterministic) its
  // rows are the same for every enclosing row: they are kept and returned by
  // reference from then on. If it fails, the sub-query is correlated (or
  // fails anyway): it runs per call against `ctx` into `*per_row`, which
  // gives the same rows and errors as running it per row always would.
  Result<const Relation*> RunSubquery(const SelectStmt& sub,
                                      const EvalContext& ctx,
                                      Relation* per_row);

  // Collects aggregate nodes (not descending into sub-queries).
  static void CollectAggregates(const Expr& expr,
                                std::vector<const Expr*>* out);

  Result<std::map<std::string, Value>> ComputeAggregates(
      const std::vector<const Expr*>& aggs, const Relation& src,
      const std::vector<size_t>& row_indices, const EvalContext* outer);

  struct SubqueryResult {
    bool correlated = false;  // the scope-free run failed
    Relation rel;             // its rows otherwise
  };

  Catalog* catalog_;
  // Keyed by sub-query node. Valid while the catalog does not change, so an
  // Evaluator must not outlive a write to a table its sub-queries read.
  std::unordered_map<const SelectStmt*, SubqueryResult> subqueries_;
};

// ---- scalar evaluation -------------------------------------------------------

Result<Value> Evaluator::EvalColumnRef(const Expr& expr,
                                       const EvalContext& ctx) {
  for (const EvalContext* c = &ctx; c != nullptr; c = c->parent) {
    if (c->relation == nullptr || c->row == nullptr) continue;
    int found = -1;
    int matches = 0;
    for (size_t i = 0; i < c->relation->columns.size(); ++i) {
      const BoundColumn& col = c->relation->columns[i];
      if (!NameEquals(col.name, expr.name)) continue;
      if (!expr.qualifier.empty() &&
          !NameEquals(col.qualifier, expr.qualifier))
        continue;
      found = static_cast<int>(i);
      ++matches;
    }
    if (matches > 1) {
      return Status::InvalidArgument("ambiguous column reference: " +
                                     expr.ToString());
    }
    if (matches == 1) return (*c->row)[static_cast<size_t>(found)];
  }
  return Status::NotFound("unknown column: " + expr.ToString());
}

Result<Value> Evaluator::EvalBinary(const Expr& expr, const EvalContext& ctx) {
  const std::string& op = expr.op;
  // Logical connectives need lazy NULL handling.
  if (op == "AND" || op == "OR") {
    LLMDM_ASSIGN_OR_RETURN(Value lv, Eval(*expr.args[0], ctx));
    Tri l = lv.is_null() ? Tri::kNull
                         : (lv.is_bool() ? ValueToTri(lv) : Tri::kNull);
    if (!lv.is_null() && !lv.is_bool()) {
      return Status::InvalidArgument("AND/OR requires boolean operands");
    }
    if (op == "AND" && l == Tri::kFalse) return Value::Bool(false);
    if (op == "OR" && l == Tri::kTrue) return Value::Bool(true);
    LLMDM_ASSIGN_OR_RETURN(Value rv, Eval(*expr.args[1], ctx));
    if (!rv.is_null() && !rv.is_bool()) {
      return Status::InvalidArgument("AND/OR requires boolean operands");
    }
    Tri r = ValueToTri(rv);
    if (op == "AND") {
      if (r == Tri::kFalse) return Value::Bool(false);
      if (l == Tri::kNull || r == Tri::kNull) return Value::Null();
      return Value::Bool(true);
    }
    if (r == Tri::kTrue) return Value::Bool(true);
    if (l == Tri::kNull || r == Tri::kNull) return Value::Null();
    return Value::Bool(false);
  }

  LLMDM_ASSIGN_OR_RETURN(Value l, Eval(*expr.args[0], ctx));
  LLMDM_ASSIGN_OR_RETURN(Value r, Eval(*expr.args[1], ctx));
  if (l.is_null() || r.is_null()) return Value::Null();

  // Comparisons.
  if (op == "=" || op == "<>" || op == "<" || op == "<=" || op == ">" ||
      op == ">=") {
    int cmp = 0;
    if (l.is_numeric() && r.is_numeric()) {
      double a = l.AsDouble(), b = r.AsDouble();
      cmp = (a < b) ? -1 : (a > b ? 1 : 0);
    } else if (l.is_text() && r.is_text()) {
      cmp = l.AsText().compare(r.AsText());
      cmp = (cmp < 0) ? -1 : (cmp > 0 ? 1 : 0);
    } else if (l.is_date() && r.is_date()) {
      cmp = (l.AsDate() < r.AsDate()) ? -1 : (r.AsDate() < l.AsDate() ? 1 : 0);
    } else if (l.is_bool() && r.is_bool()) {
      cmp = static_cast<int>(l.AsBool()) - static_cast<int>(r.AsBool());
    } else {
      return Status::InvalidArgument(common::StrFormat(
          "type mismatch in comparison: %s vs %s",
          std::string(data::ColumnTypeName(l.type())).c_str(),
          std::string(data::ColumnTypeName(r.type())).c_str()));
    }
    bool res = false;
    if (op == "=") res = cmp == 0;
    else if (op == "<>") res = cmp != 0;
    else if (op == "<") res = cmp < 0;
    else if (op == "<=") res = cmp <= 0;
    else if (op == ">") res = cmp > 0;
    else res = cmp >= 0;
    return Value::Bool(res);
  }

  // Arithmetic.
  if (op == "+" || op == "-" || op == "*" || op == "/" || op == "%") {
    if (!l.is_numeric() || !r.is_numeric()) {
      return Status::InvalidArgument("arithmetic requires numeric operands");
    }
    if (op == "/") {
      double denom = r.AsDouble();
      if (denom == 0.0) return Value::Null();  // SQL-style quiet divide-by-0
      return Value::Real(l.AsDouble() / denom);
    }
    if (op == "%") {
      if (!l.is_int() || !r.is_int()) {
        return Status::InvalidArgument("% requires integer operands");
      }
      if (r.AsInt() == 0) return Value::Null();
      return Value::Int(l.AsInt() % r.AsInt());
    }
    if (l.is_int() && r.is_int()) {
      int64_t a = l.AsInt(), b = r.AsInt();
      if (op == "+") return Value::Int(a + b);
      if (op == "-") return Value::Int(a - b);
      return Value::Int(a * b);
    }
    double a = l.AsDouble(), b = r.AsDouble();
    if (op == "+") return Value::Real(a + b);
    if (op == "-") return Value::Real(a - b);
    return Value::Real(a * b);
  }

  return Status::Unimplemented("unknown binary operator " + op);
}

Result<Value> Evaluator::EvalFunction(const Expr& expr,
                                      const EvalContext& ctx) {
  const std::string& fn = expr.op;
  std::vector<Value> args;
  args.reserve(expr.args.size());
  for (const auto& a : expr.args) {
    LLMDM_ASSIGN_OR_RETURN(Value v, Eval(*a, ctx));
    args.push_back(std::move(v));
  }
  auto arity = [&](size_t n) -> Status {
    if (args.size() != n) {
      return Status::InvalidArgument(common::StrFormat(
          "%s expects %zu argument(s), got %zu", fn.c_str(), n, args.size()));
    }
    return Status::Ok();
  };
  if (fn == "COALESCE") {
    for (const Value& v : args) {
      if (!v.is_null()) return v;
    }
    return Value::Null();
  }
  if (fn == "CONCAT") {
    std::string out;
    for (const Value& v : args) {
      if (!v.is_null()) out += v.ToString();
    }
    return Value::Text(std::move(out));
  }
  // Remaining functions are NULL-propagating.
  for (const Value& v : args) {
    if (v.is_null()) return Value::Null();
  }
  if (fn == "UPPER") {
    LLMDM_RETURN_IF_ERROR(arity(1));
    if (!args[0].is_text()) return Status::InvalidArgument("UPPER needs text");
    return Value::Text(common::ToUpper(args[0].AsText()));
  }
  if (fn == "LOWER") {
    LLMDM_RETURN_IF_ERROR(arity(1));
    if (!args[0].is_text()) return Status::InvalidArgument("LOWER needs text");
    return Value::Text(common::ToLower(args[0].AsText()));
  }
  if (fn == "LENGTH") {
    LLMDM_RETURN_IF_ERROR(arity(1));
    if (!args[0].is_text())
      return Status::InvalidArgument("LENGTH needs text");
    return Value::Int(static_cast<int64_t>(args[0].AsText().size()));
  }
  if (fn == "TRIM") {
    LLMDM_RETURN_IF_ERROR(arity(1));
    if (!args[0].is_text()) return Status::InvalidArgument("TRIM needs text");
    return Value::Text(std::string(common::Trim(args[0].AsText())));
  }
  if (fn == "ABS") {
    LLMDM_RETURN_IF_ERROR(arity(1));
    if (args[0].is_int()) return Value::Int(std::abs(args[0].AsInt()));
    if (args[0].is_double()) return Value::Real(std::abs(args[0].AsDouble()));
    return Status::InvalidArgument("ABS needs a number");
  }
  if (fn == "ROUND") {
    if (args.size() == 1) args.push_back(Value::Int(0));
    LLMDM_RETURN_IF_ERROR(arity(2));
    if (!args[0].is_numeric() || !args[1].is_int()) {
      return Status::InvalidArgument("ROUND(x, d) needs number, int");
    }
    double scale = std::pow(10.0, static_cast<double>(args[1].AsInt()));
    return Value::Real(std::round(args[0].AsDouble() * scale) / scale);
  }
  if (fn == "SUBSTR" || fn == "SUBSTRING") {
    if (args.size() != 2 && args.size() != 3) {
      return Status::InvalidArgument("SUBSTR(s, start [, len])");
    }
    if (!args[0].is_text() || !args[1].is_int()) {
      return Status::InvalidArgument("SUBSTR needs (text, int [, int])");
    }
    const std::string& s = args[0].AsText();
    int64_t start = args[1].AsInt();  // 1-based, SQL convention
    if (start < 1) start = 1;
    size_t from = static_cast<size_t>(start - 1);
    if (from >= s.size()) return Value::Text("");
    size_t len = s.size() - from;
    if (args.size() == 3) {
      if (!args[2].is_int())
        return Status::InvalidArgument("SUBSTR length must be int");
      int64_t want = args[2].AsInt();
      if (want < 0) want = 0;
      len = std::min(len, static_cast<size_t>(want));
    }
    return Value::Text(s.substr(from, len));
  }
  if (fn == "YEAR" || fn == "MONTH" || fn == "DAY") {
    LLMDM_RETURN_IF_ERROR(arity(1));
    if (!args[0].is_date())
      return Status::InvalidArgument(fn + " needs a date");
    const data::Date& d = args[0].AsDate();
    if (fn == "YEAR") return Value::Int(d.year);
    if (fn == "MONTH") return Value::Int(d.month);
    return Value::Int(d.day);
  }
  if (fn == "MOD") {
    LLMDM_RETURN_IF_ERROR(arity(2));
    if (!args[0].is_int() || !args[1].is_int() || args[1].AsInt() == 0) {
      return Status::InvalidArgument("MOD needs two ints, divisor nonzero");
    }
    return Value::Int(args[0].AsInt() % args[1].AsInt());
  }
  return Status::Unimplemented("unknown function " + fn);
}

Result<Value> Evaluator::Eval(const Expr& expr, const EvalContext& ctx) {
  switch (expr.kind) {
    case ExprKind::kLiteral:
      return expr.literal;
    case ExprKind::kColumnRef:
      return EvalColumnRef(expr, ctx);
    case ExprKind::kStar:
      return Status::InvalidArgument("'*' is not a scalar expression");
    case ExprKind::kUnary: {
      LLMDM_ASSIGN_OR_RETURN(Value v, Eval(*expr.args[0], ctx));
      if (expr.op == "NOT") {
        if (v.is_null()) return Value::Null();
        if (!v.is_bool())
          return Status::InvalidArgument("NOT requires a boolean");
        return Value::Bool(!v.AsBool());
      }
      // unary minus
      if (v.is_null()) return Value::Null();
      if (v.is_int()) return Value::Int(-v.AsInt());
      if (v.is_double()) return Value::Real(-v.AsDouble());
      return Status::InvalidArgument("unary '-' requires a number");
    }
    case ExprKind::kBinary:
      return EvalBinary(expr, ctx);
    case ExprKind::kFunction:
      return EvalFunction(expr, ctx);
    case ExprKind::kAggregate: {
      if (ctx.aggregates != nullptr) {
        auto it = ctx.aggregates->find(expr.ToString());
        if (it != ctx.aggregates->end()) return it->second;
      }
      if (ctx.parent != nullptr) {
        // A correlated sub-query can reference the outer group's aggregate.
        EvalContext probe = ctx;
        return Eval(expr, *probe.parent);
      }
      return Status::InvalidArgument(
          "aggregate used outside of an aggregating query: " +
          expr.ToString());
    }
    case ExprKind::kInList: {
      LLMDM_ASSIGN_OR_RETURN(Value needle, Eval(*expr.args[0], ctx));
      if (needle.is_null()) return Value::Null();
      bool saw_null = false;
      for (size_t i = 1; i < expr.args.size(); ++i) {
        LLMDM_ASSIGN_OR_RETURN(Value item, Eval(*expr.args[i], ctx));
        if (item.is_null()) {
          saw_null = true;
          continue;
        }
        if (item == needle) return Value::Bool(!expr.negated);
      }
      if (saw_null) return Value::Null();
      return Value::Bool(expr.negated);
    }
    case ExprKind::kInSubquery: {
      LLMDM_ASSIGN_OR_RETURN(Value needle, Eval(*expr.args[0], ctx));
      if (needle.is_null()) return Value::Null();
      Relation per_row;
      LLMDM_ASSIGN_OR_RETURN(const Relation* rel,
                             RunSubquery(*expr.subquery, ctx, &per_row));
      if (rel->columns.size() != 1) {
        return Status::InvalidArgument(
            "IN sub-query must return exactly one column");
      }
      bool saw_null = false;
      for (const Row& r : rel->rows) {
        if (r[0].is_null()) {
          saw_null = true;
          continue;
        }
        if (r[0] == needle) return Value::Bool(!expr.negated);
      }
      if (saw_null) return Value::Null();
      return Value::Bool(expr.negated);
    }
    case ExprKind::kExists: {
      Relation per_row;
      LLMDM_ASSIGN_OR_RETURN(const Relation* rel,
                             RunSubquery(*expr.subquery, ctx, &per_row));
      bool exists = !rel->rows.empty();
      return Value::Bool(expr.negated ? !exists : exists);
    }
    case ExprKind::kScalarSubquery: {
      Relation per_row;
      LLMDM_ASSIGN_OR_RETURN(const Relation* rel,
                             RunSubquery(*expr.subquery, ctx, &per_row));
      if (rel->columns.size() != 1) {
        return Status::InvalidArgument(
            "scalar sub-query must return exactly one column");
      }
      if (rel->rows.empty()) return Value::Null();
      if (rel->rows.size() > 1) {
        return Status::InvalidArgument(
            "scalar sub-query returned more than one row");
      }
      return rel->rows[0][0];
    }
    case ExprKind::kBetween: {
      LLMDM_ASSIGN_OR_RETURN(Value v, Eval(*expr.args[0], ctx));
      LLMDM_ASSIGN_OR_RETURN(Value lo, Eval(*expr.args[1], ctx));
      LLMDM_ASSIGN_OR_RETURN(Value hi, Eval(*expr.args[2], ctx));
      if (v.is_null() || lo.is_null() || hi.is_null()) return Value::Null();
      bool in_range = !(v < lo) && !(hi < v);
      return Value::Bool(expr.negated ? !in_range : in_range);
    }
    case ExprKind::kIsNull: {
      LLMDM_ASSIGN_OR_RETURN(Value v, Eval(*expr.args[0], ctx));
      bool is_null = v.is_null();
      return Value::Bool(expr.negated ? !is_null : is_null);
    }
    case ExprKind::kLike: {
      LLMDM_ASSIGN_OR_RETURN(Value v, Eval(*expr.args[0], ctx));
      LLMDM_ASSIGN_OR_RETURN(Value p, Eval(*expr.args[1], ctx));
      if (v.is_null() || p.is_null()) return Value::Null();
      if (!v.is_text() || !p.is_text()) {
        return Status::InvalidArgument("LIKE requires text operands");
      }
      bool match = LikeMatch(v.AsText(), p.AsText());
      return Value::Bool(expr.negated ? !match : match);
    }
    case ExprKind::kCase: {
      size_t n = expr.args.size();
      size_t pairs = expr.has_else ? (n - 1) / 2 : n / 2;
      for (size_t i = 0; i < pairs; ++i) {
        LLMDM_ASSIGN_OR_RETURN(Value cond, Eval(*expr.args[2 * i], ctx));
        if (!cond.is_null() && cond.is_bool() && cond.AsBool()) {
          return Eval(*expr.args[2 * i + 1], ctx);
        }
      }
      if (expr.has_else) return Eval(*expr.args[n - 1], ctx);
      return Value::Null();
    }
  }
  return Status::Internal("unhandled expression kind");
}

Result<Tri> Evaluator::EvalPredicate(const Expr& expr, const EvalContext& ctx) {
  LLMDM_ASSIGN_OR_RETURN(Value v, Eval(expr, ctx));
  if (v.is_null()) return Tri::kNull;
  if (!v.is_bool()) {
    return Status::InvalidArgument("predicate did not evaluate to a boolean");
  }
  return v.AsBool() ? Tri::kTrue : Tri::kFalse;
}

Result<const Relation*> Evaluator::RunSubquery(const SelectStmt& sub,
                                               const EvalContext& ctx,
                                               Relation* per_row) {
  auto it = subqueries_.find(&sub);
  if (it == subqueries_.end()) {
    Result<Relation> once = ExecSelect(sub, nullptr);
    SubqueryResult entry;
    entry.correlated = !once.ok();
    if (once.ok()) entry.rel = std::move(once).value();
    // Nested sub-queries may have added entries meanwhile; references into
    // an unordered_map survive that, iterators do not.
    it = subqueries_.emplace(&sub, std::move(entry)).first;
  }
  if (!it->second.correlated) return &it->second.rel;
  LLMDM_ASSIGN_OR_RETURN(*per_row, ExecSelect(sub, &ctx));
  return per_row;
}

// ---- FROM construction -------------------------------------------------------

Result<Relation> Evaluator::ScanBaseTable(const TableRef& ref,
                                          const Expr* where,
                                          const EvalContext* outer) {
  LLMDM_ASSIGN_OR_RETURN(const data::Table* table,
                         catalog_->GetTable(ref.table_name));
  Relation rel;
  std::string qual =
      common::ToLower(ref.alias.empty() ? ref.table_name : ref.alias);
  for (const auto& col : table->schema().columns()) {
    rel.columns.push_back(BoundColumn{qual, col.name});
  }
  if (where == nullptr) {
    rel.rows = table->rows();
    return rel;
  }
  // Predicates read only rel.columns and the current row, so the catalog's
  // row can stand in for a copy of it.
  for (const Row& r : table->rows()) {
    EvalContext ctx{&rel, &r, nullptr, outer};
    LLMDM_ASSIGN_OR_RETURN(Tri t, EvalPredicate(*where, ctx));
    if (t == Tri::kTrue) rel.rows.push_back(r);
  }
  return rel;
}

Result<Relation> Evaluator::BuildTableRef(const TableRef& ref,
                                          const EvalContext* outer) {
  switch (ref.kind) {
    case TableRef::Kind::kBase:
      return ScanBaseTable(ref, nullptr, outer);
    case TableRef::Kind::kSubquery: {
      LLMDM_ASSIGN_OR_RETURN(Relation rel, ExecSelect(*ref.subquery, outer));
      std::string qual = common::ToLower(ref.alias);
      for (auto& col : rel.columns) col.qualifier = qual;
      return rel;
    }
    case TableRef::Kind::kJoin: {
      LLMDM_ASSIGN_OR_RETURN(Relation left, BuildTableRef(*ref.left, outer));
      LLMDM_ASSIGN_OR_RETURN(Relation right, BuildTableRef(*ref.right, outer));
      Relation out;
      out.columns = left.columns;
      out.columns.insert(out.columns.end(), right.columns.begin(),
                         right.columns.end());
      Row null_right(right.columns.size(), Value::Null());
      for (const Row& lr : left.rows) {
        bool matched = false;
        for (const Row& rr : right.rows) {
          Row combined = lr;
          combined.insert(combined.end(), rr.begin(), rr.end());
          bool keep = true;
          if (ref.on != nullptr) {
            EvalContext ctx{&out, &combined, nullptr, outer};
            LLMDM_ASSIGN_OR_RETURN(Tri t, EvalPredicate(*ref.on, ctx));
            keep = (t == Tri::kTrue);
          }
          if (keep) {
            matched = true;
            out.rows.push_back(std::move(combined));
          }
        }
        if (!matched && ref.join_type == JoinType::kLeft) {
          Row combined = lr;
          combined.insert(combined.end(), null_right.begin(),
                          null_right.end());
          out.rows.push_back(std::move(combined));
        }
      }
      return out;
    }
  }
  return Status::Internal("unhandled table ref kind");
}

Result<Relation> Evaluator::BuildFromClause(const SelectStmt& select,
                                            const EvalContext* outer) {
  if (select.from.empty()) {
    Relation rel;
    rel.rows.push_back(Row{});
    return rel;
  }
  LLMDM_ASSIGN_OR_RETURN(Relation acc, BuildTableRef(*select.from[0], outer));
  for (size_t i = 1; i < select.from.size(); ++i) {
    LLMDM_ASSIGN_OR_RETURN(Relation next,
                           BuildTableRef(*select.from[i], outer));
    Relation combined;
    combined.columns = acc.columns;
    combined.columns.insert(combined.columns.end(), next.columns.begin(),
                            next.columns.end());
    for (const Row& a : acc.rows) {
      for (const Row& b : next.rows) {
        Row r = a;
        r.insert(r.end(), b.begin(), b.end());
        combined.rows.push_back(std::move(r));
      }
    }
    acc = std::move(combined);
  }
  return acc;
}

// ---- aggregation ---------------------------------------------------------------

void Evaluator::CollectAggregates(const Expr& expr,
                                  std::vector<const Expr*>* out) {
  if (expr.kind == ExprKind::kAggregate) {
    out->push_back(&expr);
    return;  // nested aggregates are invalid; the evaluator will complain
  }
  // Do not descend into sub-queries: their aggregates are theirs.
  if (expr.kind == ExprKind::kInSubquery || expr.kind == ExprKind::kExists ||
      expr.kind == ExprKind::kScalarSubquery) {
    return;
  }
  for (const auto& a : expr.args) CollectAggregates(*a, out);
}

Result<std::map<std::string, Value>> Evaluator::ComputeAggregates(
    const std::vector<const Expr*>& aggs, const Relation& src,
    const std::vector<size_t>& row_indices, const EvalContext* outer) {
  std::map<std::string, Value> out;
  for (const Expr* agg : aggs) {
    const std::string key = agg->ToString();
    if (out.count(key)) continue;
    const Expr& arg = *agg->args[0];
    bool arg_is_star = arg.kind == ExprKind::kStar;

    // Gather the argument values over the group's rows.
    std::vector<Value> values;
    values.reserve(row_indices.size());
    for (size_t idx : row_indices) {
      if (arg_is_star) {
        values.push_back(Value::Int(1));
        continue;
      }
      EvalContext ctx{&src, &src.rows[idx], nullptr, outer};
      LLMDM_ASSIGN_OR_RETURN(Value v, Eval(arg, ctx));
      values.push_back(std::move(v));
    }
    if (agg->distinct) {
      std::set<Row, RowLessCmp> seen;
      std::vector<Value> unique;
      for (const Value& v : values) {
        if (v.is_null()) continue;
        if (seen.insert(Row{v}).second) unique.push_back(v);
      }
      values = std::move(unique);
    }

    if (agg->op == "COUNT") {
      int64_t count = 0;
      for (const Value& v : values) {
        if (arg_is_star || !v.is_null()) ++count;
      }
      out.emplace(key, Value::Int(count));
      continue;
    }
    // SUM/AVG/MIN/MAX ignore NULLs; empty input yields NULL.
    std::vector<Value> present;
    for (const Value& v : values) {
      if (!v.is_null()) present.push_back(v);
    }
    if (present.empty()) {
      out.emplace(key, Value::Null());
      continue;
    }
    if (agg->op == "SUM" || agg->op == "AVG") {
      bool all_int = true;
      double sum = 0.0;
      int64_t isum = 0;
      for (const Value& v : present) {
        if (!v.is_numeric()) {
          return Status::InvalidArgument(agg->op + " requires numeric input");
        }
        if (!v.is_int()) all_int = false;
        sum += v.AsDouble();
        if (v.is_int()) isum += v.AsInt();
      }
      if (agg->op == "SUM") {
        out.emplace(key, all_int ? Value::Int(isum) : Value::Real(sum));
      } else {
        out.emplace(key, Value::Real(sum / static_cast<double>(present.size())));
      }
      continue;
    }
    if (agg->op == "MIN" || agg->op == "MAX") {
      Value best = present[0];
      for (size_t i = 1; i < present.size(); ++i) {
        bool less = present[i] < best;
        if ((agg->op == "MIN" && less) || (agg->op == "MAX" && best < present[i])) {
          best = present[i];
        }
      }
      out.emplace(key, best);
      continue;
    }
    return Status::Unimplemented("unknown aggregate " + agg->op);
  }
  return out;
}

// ---- SELECT core ----------------------------------------------------------------

Result<Relation> Evaluator::ExecSelectCore(const SelectStmt& select,
                                           const EvalContext* outer) {
  // WHERE. A lone base table is filtered while it is scanned.
  const bool scan_filtered = select.where != nullptr &&
                             select.from.size() == 1 &&
                             select.from[0]->kind == TableRef::Kind::kBase;
  LLMDM_ASSIGN_OR_RETURN(
      Relation src,
      scan_filtered
          ? ScanBaseTable(*select.from[0], select.where.get(), outer)
          : BuildFromClause(select, outer));
  if (select.where != nullptr && !scan_filtered) {
    std::vector<Row> kept;
    for (Row& r : src.rows) {
      EvalContext ctx{&src, &r, nullptr, outer};
      LLMDM_ASSIGN_OR_RETURN(Tri t, EvalPredicate(*select.where, ctx));
      if (t == Tri::kTrue) kept.push_back(std::move(r));
    }
    src.rows = std::move(kept);
  }

  // Locate aggregates in the output clauses.
  std::vector<const Expr*> aggs;
  for (const auto& item : select.items) CollectAggregates(*item.expr, &aggs);
  if (select.having) CollectAggregates(*select.having, &aggs);
  for (const auto& o : select.order_by) CollectAggregates(*o.expr, &aggs);
  const bool grouped = !select.group_by.empty() || !aggs.empty();

  // Expand the select list (stars -> concrete columns).
  struct OutputItem {
    const Expr* expr = nullptr;       // null for star-expanded columns
    size_t src_column = 0;            // star expansion source index
    std::string alias;
    BoundColumn out_col;
  };
  std::vector<OutputItem> outputs;
  for (const auto& item : select.items) {
    if (item.expr->kind == ExprKind::kStar) {
      if (grouped && select.group_by.empty()) {
        return Status::InvalidArgument(
            "SELECT * cannot be combined with aggregates");
      }
      std::string want = common::ToLower(item.expr->qualifier);
      bool any = false;
      for (size_t i = 0; i < src.columns.size(); ++i) {
        if (!want.empty() && src.columns[i].qualifier != want) continue;
        OutputItem out;
        out.src_column = i;
        out.out_col = src.columns[i];
        outputs.push_back(std::move(out));
        any = true;
      }
      if (!any && !want.empty()) {
        return Status::NotFound("no columns match " + item.expr->qualifier +
                                ".*");
      }
      continue;
    }
    OutputItem out;
    out.expr = item.expr.get();
    out.alias = item.alias;
    if (!item.alias.empty()) {
      out.out_col = BoundColumn{"", item.alias};
    } else if (item.expr->kind == ExprKind::kColumnRef) {
      out.out_col = BoundColumn{common::ToLower(item.expr->qualifier),
                                item.expr->name};
    } else {
      out.out_col = BoundColumn{"", item.expr->ToString()};
    }
    outputs.push_back(std::move(out));
  }

  Relation result;
  for (const auto& o : outputs) result.columns.push_back(o.out_col);

  // Order keys are computed alongside each output row, then stripped.
  std::vector<std::vector<Value>> order_keys;

  auto eval_order_keys =
      [&](const EvalContext& ctx,
          const Row& out_row) -> Result<std::vector<Value>> {
    std::vector<Value> keys;
    for (const auto& o : select.order_by) {
      // ORDER BY <ordinal>.
      if (o.expr->kind == ExprKind::kLiteral && o.expr->literal.is_int()) {
        int64_t ord = o.expr->literal.AsInt();
        if (ord < 1 || static_cast<size_t>(ord) > out_row.size()) {
          return Status::InvalidArgument("ORDER BY ordinal out of range");
        }
        keys.push_back(out_row[static_cast<size_t>(ord - 1)]);
        continue;
      }
      // ORDER BY <alias>.
      if (o.expr->kind == ExprKind::kColumnRef && o.expr->qualifier.empty()) {
        bool matched = false;
        for (size_t i = 0; i < outputs.size(); ++i) {
          if (!outputs[i].alias.empty() &&
              NameEquals(outputs[i].alias, o.expr->name)) {
            keys.push_back(out_row[i]);
            matched = true;
            break;
          }
        }
        if (matched) continue;
      }
      LLMDM_ASSIGN_OR_RETURN(Value v, Eval(*o.expr, ctx));
      keys.push_back(std::move(v));
    }
    return keys;
  };

  if (!grouped) {
    for (const Row& r : src.rows) {
      EvalContext ctx{&src, &r, nullptr, outer};
      Row out_row;
      out_row.reserve(outputs.size());
      for (const auto& o : outputs) {
        if (o.expr == nullptr) {
          out_row.push_back(r[o.src_column]);
        } else {
          LLMDM_ASSIGN_OR_RETURN(Value v, Eval(*o.expr, ctx));
          out_row.push_back(std::move(v));
        }
      }
      if (!select.order_by.empty()) {
        LLMDM_ASSIGN_OR_RETURN(std::vector<Value> keys,
                               eval_order_keys(ctx, out_row));
        order_keys.push_back(std::move(keys));
      }
      result.rows.push_back(std::move(out_row));
    }
  } else {
    // Group rows by the GROUP BY key.
    std::map<Row, std::vector<size_t>, RowLessCmp> groups;
    if (select.group_by.empty()) {
      // Single implicit group (possibly empty).
      std::vector<size_t> all(src.rows.size());
      for (size_t i = 0; i < all.size(); ++i) all[i] = i;
      groups.emplace(Row{}, std::move(all));
    } else {
      for (size_t i = 0; i < src.rows.size(); ++i) {
        EvalContext ctx{&src, &src.rows[i], nullptr, outer};
        Row key;
        for (const auto& g : select.group_by) {
          LLMDM_ASSIGN_OR_RETURN(Value v, Eval(*g, ctx));
          key.push_back(std::move(v));
        }
        groups[std::move(key)].push_back(i);
      }
    }
    // The empty implicit group (aggregates over no rows) has no row to
    // read bare columns from: they read NULL, as in SQLite.
    const Row null_row(src.columns.size(), Value::Null());
    for (const auto& [key, indices] : groups) {
      auto agg_result = ComputeAggregates(aggs, src, indices, outer);
      if (!agg_result.ok()) return agg_result.status();
      std::map<std::string, Value> agg_values = std::move(agg_result).value();
      const Row* rep = indices.empty() ? &null_row : &src.rows[indices[0]];
      EvalContext ctx{&src, rep, &agg_values, outer};
      if (select.having != nullptr) {
        LLMDM_ASSIGN_OR_RETURN(Tri t, EvalPredicate(*select.having, ctx));
        if (t != Tri::kTrue) continue;
      }
      Row out_row;
      out_row.reserve(outputs.size());
      for (const auto& o : outputs) {
        if (o.expr == nullptr) {
          out_row.push_back((*rep)[o.src_column]);
        } else {
          LLMDM_ASSIGN_OR_RETURN(Value v, Eval(*o.expr, ctx));
          out_row.push_back(std::move(v));
        }
      }
      if (!select.order_by.empty()) {
        LLMDM_ASSIGN_OR_RETURN(std::vector<Value> keys,
                               eval_order_keys(ctx, out_row));
        order_keys.push_back(std::move(keys));
      }
      result.rows.push_back(std::move(out_row));
    }
  }

  // DISTINCT before ORDER BY (SQL evaluates DISTINCT on the projected rows).
  if (select.distinct) {
    std::set<Row, RowLessCmp> seen;
    std::vector<Row> unique;
    std::vector<std::vector<Value>> unique_keys;
    for (size_t i = 0; i < result.rows.size(); ++i) {
      if (seen.insert(result.rows[i]).second) {
        unique.push_back(std::move(result.rows[i]));
        if (!order_keys.empty()) unique_keys.push_back(std::move(order_keys[i]));
      }
    }
    result.rows = std::move(unique);
    order_keys = std::move(unique_keys);
  }

  // ORDER BY.
  if (!select.order_by.empty()) {
    std::vector<size_t> perm(result.rows.size());
    for (size_t i = 0; i < perm.size(); ++i) perm[i] = i;
    std::stable_sort(perm.begin(), perm.end(), [&](size_t a, size_t b) {
      const auto& ka = order_keys[a];
      const auto& kb = order_keys[b];
      for (size_t i = 0; i < ka.size(); ++i) {
        bool desc = select.order_by[i].descending;
        if (ka[i] < kb[i]) return !desc;
        if (kb[i] < ka[i]) return desc;
      }
      return false;
    });
    std::vector<Row> sorted;
    sorted.reserve(result.rows.size());
    for (size_t idx : perm) sorted.push_back(std::move(result.rows[idx]));
    result.rows = std::move(sorted);
  }

  // LIMIT.
  if (select.limit >= 0 &&
      result.rows.size() > static_cast<size_t>(select.limit)) {
    result.rows.resize(static_cast<size_t>(select.limit));
  }
  return result;
}

Result<Relation> Evaluator::ExecSelect(const SelectStmt& select,
                                       const EvalContext* outer) {
  LLMDM_ASSIGN_OR_RETURN(Relation acc, ExecSelectCore(select, outer));
  // Fold the set-operation chain LEFT-associatively (the SQL standard):
  // A UNION B EXCEPT C means (A UNION B) EXCEPT C. The chain is stored as a
  // linked list via set_rhs, so each node contributes its own core relation.
  for (const SelectStmt* node = &select;
       node->set_op != SetOp::kNone && node->set_rhs != nullptr;
       node = node->set_rhs.get()) {
    LLMDM_ASSIGN_OR_RETURN(Relation rhs,
                           ExecSelectCore(*node->set_rhs, outer));
    LLMDM_ASSIGN_OR_RETURN(acc, ApplySetOp(node->set_op, std::move(acc),
                                           std::move(rhs)));
  }
  return acc;
}

Result<Relation> Evaluator::ApplySetOp(SetOp op, Relation lhs, Relation rhs) {
  if (lhs.columns.size() != rhs.columns.size()) {
    return Status::InvalidArgument(
        "set operation operands have different column counts");
  }
  Relation out;
  out.columns = lhs.columns;
  switch (op) {
    case SetOp::kUnionAll: {
      out.rows = std::move(lhs.rows);
      for (Row& r : rhs.rows) out.rows.push_back(std::move(r));
      break;
    }
    case SetOp::kUnion: {
      std::set<Row, RowLessCmp> seen;
      for (Row& r : lhs.rows) {
        if (seen.insert(r).second) out.rows.push_back(std::move(r));
      }
      for (Row& r : rhs.rows) {
        if (seen.insert(r).second) out.rows.push_back(std::move(r));
      }
      break;
    }
    case SetOp::kIntersect: {
      std::set<Row, RowLessCmp> right(rhs.rows.begin(), rhs.rows.end());
      std::set<Row, RowLessCmp> emitted;
      for (Row& r : lhs.rows) {
        if (right.count(r) && emitted.insert(r).second) {
          out.rows.push_back(std::move(r));
        }
      }
      break;
    }
    case SetOp::kExcept: {
      std::set<Row, RowLessCmp> right(rhs.rows.begin(), rhs.rows.end());
      std::set<Row, RowLessCmp> emitted;
      for (Row& r : lhs.rows) {
        if (!right.count(r) && emitted.insert(r).second) {
          out.rows.push_back(std::move(r));
        }
      }
      break;
    }
    case SetOp::kNone:
      break;
  }
  return out;
}

// Infers a column type from the values present (first non-null wins; mixed
// int/double widens to double).
ColumnType InferType(const std::vector<Row>& rows, size_t col) {
  ColumnType type = ColumnType::kNull;
  for (const Row& r : rows) {
    const Value& v = r[col];
    if (v.is_null()) continue;
    ColumnType vt = v.type();
    if (type == ColumnType::kNull) {
      type = vt;
    } else if (type != vt) {
      if ((type == ColumnType::kInt64 && vt == ColumnType::kDouble) ||
          (type == ColumnType::kDouble && vt == ColumnType::kInt64)) {
        type = ColumnType::kDouble;
      } else {
        return ColumnType::kText;  // heterogeneous: degrade to text-ish
      }
    }
  }
  return type == ColumnType::kNull ? ColumnType::kText : type;
}

data::Table RelationToTable(Relation rel, const std::string& name) {
  data::Schema schema;
  for (size_t c = 0; c < rel.columns.size(); ++c) {
    schema.AddColumn(data::Column{rel.columns[c].name,
                                  InferType(rel.rows, c), true});
  }
  data::Table table(name, std::move(schema));
  for (Row& r : rel.rows) {
    // Widen ints stored in double-typed columns for uniformity.
    for (size_t c = 0; c < r.size(); ++c) {
      if (table.schema().column(c).type == ColumnType::kDouble &&
          r[c].is_int()) {
        r[c] = Value::Real(static_cast<double>(r[c].AsInt()));
      }
    }
    table.AppendRowUnchecked(std::move(r));
  }
  return table;
}

}  // namespace

Result<data::Table> Executor::ExecuteSelect(const SelectStmt& select) {
  Evaluator evaluator(catalog_);
  LLMDM_ASSIGN_OR_RETURN(Relation rel, evaluator.ExecSelect(select, nullptr));
  return RelationToTable(std::move(rel), "result");
}

Result<ExecResult> Executor::Execute(const Statement& stmt) {
  // One Evaluator, and so one set of once-run sub-query results, per
  // statement. INSERT evaluates every incoming row before it appends any, and
  // DELETE swaps in the rebuilt table only at the end, so neither changes a
  // table while the evaluator reads it. UPDATE writes each row back before it
  // evaluates the next, so it takes a fresh Evaluator per row.
  Evaluator evaluator(catalog_);
  ExecResult result;
  switch (stmt.kind) {
    case StatementKind::kSelect: {
      LLMDM_ASSIGN_OR_RETURN(result.table, ExecuteSelect(*stmt.select));
      result.has_rows = true;
      result.affected_rows = static_cast<int64_t>(result.table.NumRows());
      return result;
    }
    case StatementKind::kCreateTable: {
      data::Schema schema(stmt.create_table->columns);
      LLMDM_RETURN_IF_ERROR(
          catalog_->CreateTable(stmt.create_table->table_name, schema));
      return result;
    }
    case StatementKind::kDropTable: {
      LLMDM_RETURN_IF_ERROR(catalog_->DropTable(stmt.drop_table->table_name,
                                                stmt.drop_table->if_exists));
      return result;
    }
    case StatementKind::kInsert: {
      const InsertStmt& ins = *stmt.insert;
      LLMDM_ASSIGN_OR_RETURN(data::Table * table,
                             catalog_->GetMutableTable(ins.table_name));
      // Resolve target column order.
      std::vector<size_t> target;
      if (ins.columns.empty()) {
        for (size_t i = 0; i < table->NumColumns(); ++i) target.push_back(i);
      } else {
        for (const std::string& c : ins.columns) {
          auto idx = table->schema().Find(c);
          if (!idx.has_value()) {
            return Status::NotFound("no column " + c + " in " +
                                    ins.table_name);
          }
          target.push_back(*idx);
        }
      }
      std::vector<Row> incoming;
      if (ins.select != nullptr) {
        LLMDM_ASSIGN_OR_RETURN(data::Table from_select,
                               ExecuteSelect(*ins.select));
        incoming = from_select.rows();
      } else {
        for (const auto& row_exprs : ins.rows) {
          Row r;
          for (const auto& e : row_exprs) {
            EvalContext empty{};
            LLMDM_ASSIGN_OR_RETURN(Value v, evaluator.Eval(*e, empty));
            r.push_back(std::move(v));
          }
          incoming.push_back(std::move(r));
        }
      }
      for (Row& r : incoming) {
        if (r.size() != target.size()) {
          return Status::InvalidArgument(common::StrFormat(
              "INSERT arity mismatch: %zu values for %zu columns", r.size(),
              target.size()));
        }
        Row full(table->NumColumns(), Value::Null());
        for (size_t i = 0; i < target.size(); ++i) {
          full[target[i]] = std::move(r[i]);
        }
        LLMDM_RETURN_IF_ERROR(table->AppendRow(std::move(full)));
        ++result.affected_rows;
      }
      return result;
    }
    case StatementKind::kUpdate: {
      const UpdateStmt& upd = *stmt.update;
      LLMDM_ASSIGN_OR_RETURN(data::Table * table,
                             catalog_->GetMutableTable(upd.table_name));
      // Bind assignment targets.
      std::vector<size_t> targets;
      for (const auto& [col, expr] : upd.assignments) {
        auto idx = table->schema().Find(col);
        if (!idx.has_value()) {
          return Status::NotFound("no column " + col + " in " +
                                  upd.table_name);
        }
        targets.push_back(*idx);
      }
      Relation rel;
      std::string qual = common::ToLower(upd.table_name);
      for (const auto& col : table->schema().columns()) {
        rel.columns.push_back(BoundColumn{qual, col.name});
      }
      for (size_t i = 0; i < table->NumRows(); ++i) {
        // A sub-query here sees the rows already updated.
        Evaluator row_evaluator(catalog_);
        const Row& current = table->row(i);
        EvalContext ctx{&rel, &current, nullptr, nullptr};
        if (upd.where != nullptr) {
          LLMDM_ASSIGN_OR_RETURN(Value cond,
                                 row_evaluator.Eval(*upd.where, ctx));
          if (cond.is_null() || !cond.is_bool() || !cond.AsBool()) continue;
        }
        Row updated = current;
        for (size_t a = 0; a < targets.size(); ++a) {
          LLMDM_ASSIGN_OR_RETURN(
              Value v, row_evaluator.Eval(*upd.assignments[a].second, ctx));
          updated[targets[a]] = std::move(v);
        }
        *table->mutable_row(i) = std::move(updated);
        ++result.affected_rows;
      }
      return result;
    }
    case StatementKind::kDelete: {
      const DeleteStmt& del = *stmt.del;
      LLMDM_ASSIGN_OR_RETURN(data::Table * table,
                             catalog_->GetMutableTable(del.table_name));
      Relation rel;
      std::string qual = common::ToLower(del.table_name);
      for (const auto& col : table->schema().columns()) {
        rel.columns.push_back(BoundColumn{qual, col.name});
      }
      data::Table rebuilt(table->name(), table->schema());
      for (size_t i = 0; i < table->NumRows(); ++i) {
        const Row& current = table->row(i);
        bool remove = true;
        if (del.where != nullptr) {
          EvalContext ctx{&rel, &current, nullptr, nullptr};
          LLMDM_ASSIGN_OR_RETURN(Value cond, evaluator.Eval(*del.where, ctx));
          remove = !cond.is_null() && cond.is_bool() && cond.AsBool();
        }
        if (remove) {
          ++result.affected_rows;
        } else {
          rebuilt.AppendRowUnchecked(current);
        }
      }
      *table = std::move(rebuilt);
      return result;
    }
    case StatementKind::kBegin:
    case StatementKind::kCommit:
    case StatementKind::kRollback:
      return Status::FailedPrecondition(
          "transaction control must go through sql::Database");
  }
  return Status::Internal("unhandled statement kind");
}

}  // namespace llmdm::sql
