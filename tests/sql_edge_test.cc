// Deeper SQL-semantics coverage: the corners that distinguish a real engine
// from a demo — NULL propagation through joins, correlated sub-queries in
// several positions, grouped-query output rules, set-op chains, and the
// DML/DDL edges.
#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/string_util.h"
#include "data/nl2sql_workload.h"
#include "sql/database.h"
#include "sql/parser.h"

namespace llmdm::sql {
namespace {

using data::Value;

class SqlEdgeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Exec("CREATE TABLE dept (id INT, name TEXT)");
    Exec("CREATE TABLE emp (id INT, dept_id INT, name TEXT, salary INT, "
         "manager_id INT)");
    Exec("INSERT INTO dept VALUES (1, 'eng'), (2, 'sales'), (3, 'empty')");
    Exec("INSERT INTO emp VALUES "
         "(1, 1, 'ana', 100, NULL), (2, 1, 'bo', 80, 1), "
         "(3, 2, 'cy', 90, 1), (4, 2, 'dee', 70, 3), (5, NULL, 'eve', 60, 3)");
  }

  void Exec(const std::string& sql) {
    auto r = db_.Execute(sql);
    ASSERT_TRUE(r.ok()) << sql << " -> " << r.status().ToString();
  }
  data::Table Q(const std::string& sql) {
    auto r = db_.Query(sql);
    EXPECT_TRUE(r.ok()) << sql << " -> " << r.status().ToString();
    return r.ok() ? *r : data::Table{};
  }

  Database db_;
};

TEST_F(SqlEdgeTest, SelfJoinWithAliases) {
  auto t = Q("SELECT e.name, m.name FROM emp e JOIN emp m "
             "ON e.manager_id = m.id ORDER BY e.name");
  ASSERT_EQ(t.NumRows(), 4u);
  EXPECT_EQ(t.at(0, 0).AsText(), "bo");
  EXPECT_EQ(t.at(0, 1).AsText(), "ana");
}

TEST_F(SqlEdgeTest, LeftJoinAggregatesCountNullsCorrectly) {
  // COUNT(column) skips the NULL-padded side; empty dept counts 0.
  auto t = Q("SELECT d.name, COUNT(e.id) FROM dept d LEFT JOIN emp e "
             "ON d.id = e.dept_id GROUP BY d.name ORDER BY d.name");
  ASSERT_EQ(t.NumRows(), 3u);
  EXPECT_EQ(t.at(0, 0).AsText(), "empty");
  EXPECT_EQ(t.at(0, 1), Value::Int(0));
  EXPECT_EQ(t.at(1, 0).AsText(), "eng");
  EXPECT_EQ(t.at(1, 1), Value::Int(2));
}

TEST_F(SqlEdgeTest, NullJoinKeysNeverMatch) {
  // eve has NULL dept_id: inner join drops her.
  auto t = Q("SELECT COUNT(*) FROM emp e JOIN dept d ON e.dept_id = d.id");
  EXPECT_EQ(t.at(0, 0), Value::Int(4));
}

TEST_F(SqlEdgeTest, CorrelatedScalarSubqueryInSelectList) {
  auto t = Q("SELECT d.name, (SELECT MAX(salary) FROM emp e "
             "WHERE e.dept_id = d.id) FROM dept d ORDER BY d.name");
  ASSERT_EQ(t.NumRows(), 3u);
  EXPECT_TRUE(t.at(0, 1).is_null());              // empty dept -> NULL
  EXPECT_EQ(t.at(1, 1), Value::Int(100));         // eng
  EXPECT_EQ(t.at(2, 1), Value::Int(90));          // sales
}

TEST_F(SqlEdgeTest, CorrelatedSubqueryInWhere) {
  // Employees earning above their department's average.
  auto t = Q("SELECT name FROM emp e WHERE salary > (SELECT AVG(salary) "
             "FROM emp e2 WHERE e2.dept_id = e.dept_id) ORDER BY name");
  ASSERT_EQ(t.NumRows(), 2u);
  EXPECT_EQ(t.at(0, 0).AsText(), "ana");
  EXPECT_EQ(t.at(1, 0).AsText(), "cy");
}

TEST_F(SqlEdgeTest, NotInWithNullSubqueryIsEmpty) {
  // dept_id of eve is NULL -> NOT IN over a set containing NULL is never
  // TRUE (classic three-valued-logic trap).
  auto t = Q("SELECT name FROM dept WHERE id NOT IN "
             "(SELECT dept_id FROM emp)");
  EXPECT_EQ(t.NumRows(), 0u);
  // Filtering the NULLs restores the intuitive answer.
  auto t2 = Q("SELECT name FROM dept WHERE id NOT IN "
              "(SELECT dept_id FROM emp WHERE dept_id IS NOT NULL)");
  ASSERT_EQ(t2.NumRows(), 1u);
  EXPECT_EQ(t2.at(0, 0).AsText(), "empty");
}

TEST_F(SqlEdgeTest, MultiKeyOrderByMixedDirections) {
  auto t = Q("SELECT dept_id, name FROM emp WHERE dept_id IS NOT NULL "
             "ORDER BY dept_id DESC, name ASC");
  ASSERT_EQ(t.NumRows(), 4u);
  EXPECT_EQ(t.at(0, 1).AsText(), "cy");   // dept 2: cy < dee
  EXPECT_EQ(t.at(1, 1).AsText(), "dee");
  EXPECT_EQ(t.at(2, 1).AsText(), "ana");  // dept 1
}

TEST_F(SqlEdgeTest, HavingOnAggregateNotInSelect) {
  auto t = Q("SELECT dept_id FROM emp WHERE dept_id IS NOT NULL "
             "GROUP BY dept_id HAVING SUM(salary) > 170");
  ASSERT_EQ(t.NumRows(), 1u);
  EXPECT_EQ(t.at(0, 0), Value::Int(1));
}

TEST_F(SqlEdgeTest, GroupByExpression) {
  auto t = Q("SELECT salary / 50, COUNT(*) FROM emp GROUP BY salary / 50 "
             "ORDER BY 1");
  // salaries 60,70,80,90,100 -> 1.2,1.4,1.6,1.8,2.0 — five groups.
  EXPECT_EQ(t.NumRows(), 5u);
}

TEST_F(SqlEdgeTest, SetOpChainsLeftAssociative) {
  auto t = Q("SELECT id FROM emp WHERE id <= 2 UNION "
             "SELECT id FROM emp WHERE id = 3 EXCEPT "
             "SELECT id FROM emp WHERE id = 1");
  // ((1,2) U (3)) \ (1) = {2,3}
  ASSERT_EQ(t.NumRows(), 2u);
}

TEST_F(SqlEdgeTest, LimitZeroAndLimitBeyond) {
  EXPECT_EQ(Q("SELECT * FROM emp LIMIT 0").NumRows(), 0u);
  EXPECT_EQ(Q("SELECT * FROM emp LIMIT 99").NumRows(), 5u);
}

TEST_F(SqlEdgeTest, CaseWithoutElseYieldsNull) {
  auto t = Q("SELECT CASE WHEN salary > 95 THEN 'high' END FROM emp "
             "ORDER BY salary DESC");
  EXPECT_EQ(t.at(0, 0).AsText(), "high");
  EXPECT_TRUE(t.at(1, 0).is_null());
}

TEST_F(SqlEdgeTest, CrossJoinCardinality) {
  auto t = Q("SELECT COUNT(*) FROM dept CROSS JOIN emp");
  EXPECT_EQ(t.at(0, 0), Value::Int(15));
  auto implicit = Q("SELECT COUNT(*) FROM dept, emp");
  EXPECT_EQ(implicit.at(0, 0), Value::Int(15));
}

TEST_F(SqlEdgeTest, DistinctOnExpressions) {
  auto t = Q("SELECT DISTINCT dept_id FROM emp WHERE dept_id IS NOT NULL");
  EXPECT_EQ(t.NumRows(), 2u);
}

TEST_F(SqlEdgeTest, InsertColumnSubsetAndDefaults) {
  Exec("INSERT INTO emp (id, name) VALUES (9, 'zed')");
  auto t = Q("SELECT dept_id, salary FROM emp WHERE id = 9");
  EXPECT_TRUE(t.at(0, 0).is_null());
  EXPECT_TRUE(t.at(0, 1).is_null());
}

TEST_F(SqlEdgeTest, VarcharLengthAccepted) {
  Exec("CREATE TABLE v (s VARCHAR(32), n INTEGER)");
  Exec("INSERT INTO v VALUES ('hello', 1)");
  EXPECT_EQ(Q("SELECT s FROM v").at(0, 0).AsText(), "hello");
}

TEST_F(SqlEdgeTest, ExistsAndNotExistsCorrelated) {
  auto t = Q("SELECT name FROM dept d WHERE NOT EXISTS "
             "(SELECT 1 FROM emp e WHERE e.dept_id = d.id)");
  ASSERT_EQ(t.NumRows(), 1u);
  EXPECT_EQ(t.at(0, 0).AsText(), "empty");
}

TEST_F(SqlEdgeTest, UnionAllTypeWidening) {
  auto t = Q("SELECT salary FROM emp WHERE id = 1 UNION ALL "
             "SELECT salary / 2 FROM emp WHERE id = 1");
  ASSERT_EQ(t.NumRows(), 2u);
  // 100 (int) and 50.0 (double) coexist; schema degrades gracefully.
  EXPECT_EQ(t.at(0, 0).AsDouble() + t.at(1, 0).AsDouble(), 150.0);
}

TEST_F(SqlEdgeTest, DeleteEverythingThenReinsert) {
  Exec("DELETE FROM emp");
  EXPECT_EQ(Q("SELECT COUNT(*) FROM emp").at(0, 0), Value::Int(0));
  Exec("INSERT INTO emp VALUES (1, 1, 'new', 10, NULL)");
  EXPECT_EQ(Q("SELECT COUNT(*) FROM emp").at(0, 0), Value::Int(1));
}

TEST_F(SqlEdgeTest, UpdateAllRowsWithoutWhere) {
  auto r = db_.Execute("UPDATE emp SET salary = salary + 1");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->affected_rows, 5);
}

TEST_F(SqlEdgeTest, AggregateOfExpression) {
  auto t = Q("SELECT SUM(salary * 2), AVG(salary + 0.0) FROM emp");
  EXPECT_EQ(t.at(0, 0), Value::Int(800));
  EXPECT_DOUBLE_EQ(t.at(0, 1).AsDouble(), 80.0);
}

TEST_F(SqlEdgeTest, SubqueryInFromWithAggregates) {
  auto t = Q("SELECT MAX(team_total) FROM (SELECT dept_id, SUM(salary) AS "
             "team_total FROM emp WHERE dept_id IS NOT NULL GROUP BY "
             "dept_id) sums");
  EXPECT_EQ(t.at(0, 0), Value::Int(180));
}

TEST_F(SqlEdgeTest, QualifiedStarExpansion) {
  auto t = Q("SELECT e.* FROM emp e JOIN dept d ON e.dept_id = d.id "
             "WHERE d.name = 'eng'");
  EXPECT_EQ(t.NumColumns(), 5u);  // only emp's columns
  EXPECT_EQ(t.NumRows(), 2u);
}

TEST_F(SqlEdgeTest, ComparisonTypeMismatchIsAnError) {
  EXPECT_FALSE(db_.Query("SELECT * FROM emp WHERE name > 5").ok());
  EXPECT_FALSE(db_.Query("SELECT name + 'x' FROM emp").ok());
}

TEST_F(SqlEdgeTest, DropTableIfExists) {
  EXPECT_TRUE(db_.Execute("DROP TABLE IF EXISTS no_such_table").ok());
  EXPECT_FALSE(db_.Execute("DROP TABLE no_such_table").ok());
}

TEST_F(SqlEdgeTest, UpdateSubqueryReadsRowsAlreadyUpdated) {
  // UPDATE writes each row back before it evaluates the next, so the
  // sub-query's MAX sees the rows already raised: 1 < 3, then 2 < 11, then
  // 3 < 12. A sub-query result kept for the whole statement would stop at
  // 11, 12, 3.
  Exec("CREATE TABLE t (id INT, v INT)");
  Exec("INSERT INTO t VALUES (1, 1), (2, 2), (3, 3)");
  auto r = db_.Execute(
      "UPDATE t SET v = v + 10 WHERE v < (SELECT MAX(v) FROM t)");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->affected_rows, 3);
  auto t = Q("SELECT v FROM t ORDER BY id");
  ASSERT_EQ(t.NumRows(), 3u);
  EXPECT_EQ(t.at(0, 0), Value::Int(11));
  EXPECT_EQ(t.at(1, 0), Value::Int(12));
  EXPECT_EQ(t.at(2, 0), Value::Int(13));
}

TEST_F(SqlEdgeTest, NestedSubqueryCorrelatedOnlyWithMiddleQuery) {
  // The innermost query reads the middle query's `e`, never the outer
  // `dept`: the middle query is uncorrelated and runs once, while the
  // innermost runs per middle row. Top earners: ana (dept 1), cy (dept 2);
  // eve's NULL dept matches no e2 row.
  auto t = Q("SELECT name FROM dept WHERE id IN (SELECT e.dept_id FROM emp e "
             "WHERE e.salary = (SELECT MAX(e2.salary) FROM emp e2 "
             "WHERE e2.dept_id = e.dept_id)) ORDER BY name");
  ASSERT_EQ(t.NumRows(), 2u);
  EXPECT_EQ(t.at(0, 0).AsText(), "eng");
  EXPECT_EQ(t.at(1, 0).AsText(), "sales");
}

TEST_F(SqlEdgeTest, HavingSubqueryReadsOuterGroupAggregate) {
  // COUNT(*) inside the sub-query's WHERE is the outer group's count, so the
  // sub-query runs per group: groups of 2 (depts 1 and 2) map to 'sales';
  // the NULL group of 1 maps to 'eng' and is dropped.
  auto t = Q("SELECT dept_id, COUNT(*) FROM emp GROUP BY dept_id HAVING "
             "(SELECT name FROM dept WHERE dept.id = COUNT(*)) = 'sales' "
             "ORDER BY dept_id");
  ASSERT_EQ(t.NumRows(), 2u);
  EXPECT_EQ(t.at(0, 0), Value::Int(1));
  EXPECT_EQ(t.at(0, 1), Value::Int(2));
  EXPECT_EQ(t.at(1, 0), Value::Int(2));
  EXPECT_EQ(t.at(1, 1), Value::Int(2));
}

TEST_F(SqlEdgeTest, SubqueryWithUnknownColumnIsNotFound) {
  for (const char* sql :
       {"SELECT name FROM dept WHERE id IN (SELECT nope FROM emp)",
        "SELECT name FROM dept WHERE EXISTS (SELECT 1 FROM emp WHERE nope)",
        "SELECT (SELECT MAX(nope) FROM emp) FROM dept"}) {
    auto r = db_.Query(sql);
    ASSERT_FALSE(r.ok()) << sql;
    EXPECT_EQ(r.status().code(), common::StatusCode::kNotFound) << sql;
    EXPECT_EQ(r.status().message(), "unknown column: nope") << sql;
  }
}

TEST_F(SqlEdgeTest, BareColumnOfEmptyImplicitGroupIsNull) {
  // Aggregates over no rows still give one row; the bare column has no row
  // to come from and reads NULL (as in SQLite), instead of indexing past the
  // end of an empty row.
  Exec("CREATE TABLE empty_t (id INT, v INT)");
  auto t = Q("SELECT id, COUNT(*), MAX(v) FROM empty_t");
  ASSERT_EQ(t.NumRows(), 1u);
  EXPECT_TRUE(t.at(0, 0).is_null());
  EXPECT_EQ(t.at(0, 1), Value::Int(0));
  EXPECT_TRUE(t.at(0, 2).is_null());
}

// Every kind of gold SQL in the NL2SQL cache family (each combiner, with and
// without superlatives, across events and years, one year with no events)
// gives the same rows as the same SQL with each IN (SELECT ...) replaced by
// a literal list of that sub-query's own rows.
TEST(SqlSubqueryDifferentialTest, GoldSqlMatchesInlinedSubqueryRows) {
  Database db;
  common::Rng rng(20240706);
  ASSERT_TRUE(db.ExecuteScript(data::BuildStadiumDatabaseScript(
                                   6, {2013, 2014, 2015}, rng))
                  .ok());
  auto inline_subquery = [&](std::string sql,
                             const data::EventCondition& cond) {
    const std::string sub = cond.ToIdSubquery();
    auto rows = db.Query(sub);
    EXPECT_TRUE(rows.ok()) << sub;
    if (!rows.ok()) return sql;
    std::vector<std::string> ids;
    for (const auto& row : rows->rows()) ids.push_back(row[0].ToString());
    // An empty IN list does not parse: IN (NULL) is never true, and NOT IN
    // over an empty set always is.
    std::string in_list = ids.empty() ? "NULL" : common::Join(ids, ", ");
    sql = common::ReplaceAll(sql, "id NOT IN (" + sub + ")",
                             ids.empty() ? "1 = 1"
                                         : "id NOT IN (" + in_list + ")");
    return common::ReplaceAll(sql, "id IN (" + sub + ")",
                              "id IN (" + in_list + ")");
  };
  std::vector<data::EventCondition> conds;
  for (auto event : {data::EventKind::kConcert, data::EventKind::kSportsMeeting})
    for (int year : {2013, 2015, 2016})
      for (bool superlative : {false, true})
        conds.push_back(data::EventCondition{event, year, superlative});
  size_t checked = 0;
  for (const auto& first : conds) {
    std::vector<data::Nl2SqlQuery> queries;
    queries.push_back(data::Nl2SqlQuery{first, data::Combiner::kNone, {}});
    for (const auto& second : conds) {
      if (second == first) continue;
      for (auto combiner : {data::Combiner::kOr, data::Combiner::kAnd,
                            data::Combiner::kAndNot}) {
        queries.push_back(data::Nl2SqlQuery{first, combiner, second});
      }
    }
    for (const auto& q : queries) {
      const std::string gold = q.ToGoldSql();
      std::string inlined = inline_subquery(gold, q.first);
      if (q.second.has_value()) inlined = inline_subquery(inlined, *q.second);
      ASSERT_EQ(inlined.find("SELECT", 1), std::string::npos) << inlined;
      auto want = db.Query(inlined);
      auto got = db.Query(gold);
      ASSERT_TRUE(want.ok()) << inlined << " -> " << want.status().ToString();
      ASSERT_TRUE(got.ok()) << gold << " -> " << got.status().ToString();
      EXPECT_EQ(got->rows(), want->rows()) << gold << "\nvs\n" << inlined;
      ++checked;
    }
  }
  EXPECT_EQ(checked, 12u * (1 + 11 * 3));
}

}  // namespace
}  // namespace llmdm::sql
