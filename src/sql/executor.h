#ifndef LLMDM_SQL_EXECUTOR_H_
#define LLMDM_SQL_EXECUTOR_H_

#include <string>

#include "common/result.h"
#include "data/table.h"
#include "sql/ast.h"
#include "sql/catalog.h"

namespace llmdm::sql {

/// Result of executing one statement: a result set for SELECT, an affected-
/// row count for DML, nothing for DDL/transaction control.
struct ExecResult {
  data::Table table;        // SELECT output (empty schema otherwise)
  int64_t affected_rows = 0;
  bool has_rows = false;    // true iff `table` is meaningful
};

/// Materializing SQL executor over a Catalog. Supports the dialect produced
/// by sql::ParseStatement: SELECT with inner/left/cross joins, WHERE,
/// GROUP BY / HAVING, aggregates (COUNT/SUM/AVG/MIN/MAX [DISTINCT]),
/// ORDER BY (expressions, aliases or ordinals), LIMIT, DISTINCT, UNION /
/// UNION ALL / INTERSECT / EXCEPT, scalar/IN/EXISTS sub-queries (correlated
/// sub-queries resolve free columns through the enclosing scopes), CASE,
/// scalar functions; plus CREATE/DROP TABLE, INSERT (VALUES and SELECT),
/// UPDATE and DELETE. NULL follows SQL three-valued logic.
///
/// Sub-queries in expressions (IN, EXISTS, scalar) are first run once with
/// no enclosing scope. If that run succeeds, the sub-query references nothing
/// outside itself, and its rows are reused for every enclosing row of the
/// statement. If it fails, the sub-query is correlated (or fails anyway) and
/// runs once per enclosing row, as the results and errors of a per-row run
/// require. UPDATE writes each row back before it evaluates the next, so
/// there a sub-query runs at most once per target row and sees the rows
/// already updated. A lone base table in FROM is filtered by WHERE as it is
/// scanned; only the rows that pass are copied out of the catalog.
class Executor {
 public:
  explicit Executor(Catalog* catalog) : catalog_(catalog) {}

  /// Executes a parsed statement. Transaction-control statements are the
  /// Database facade's job and are rejected here.
  common::Result<ExecResult> Execute(const Statement& stmt);

  /// Executes a SELECT and returns the result table.
  common::Result<data::Table> ExecuteSelect(const SelectStmt& select);

 private:
  Catalog* catalog_;
};

}  // namespace llmdm::sql

#endif  // LLMDM_SQL_EXECUTOR_H_
