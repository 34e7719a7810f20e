/**
 * @file
 * Tests for the SQL subset (src/sql): lexer, each Table III statement
 * form, error reporting, selectivity estimation, and execution of
 * parsed queries against the engine.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "engine/database.hh"
#include "engine/executor.hh"
#include "engine/plan.hh"
#include "nobench/generator.hh"
#include "nobench/queries.hh"
#include "sql/lexer.hh"
#include "sql/parser.hh"

namespace dvp::sql
{
namespace
{

using engine::CondOp;
using engine::QueryKind;

// ---------------------------------------------------------------------
// Lexer.
// ---------------------------------------------------------------------

TEST(Lexer, KeywordsAreCaseInsensitive)
{
    LexResult r = lex("select From wHeRe betWEEN");
    ASSERT_TRUE(r.ok);
    ASSERT_EQ(r.tokens.size(), 5u); // + End
    EXPECT_EQ(r.tokens[0].text, "SELECT");
    EXPECT_EQ(r.tokens[1].text, "FROM");
    EXPECT_EQ(r.tokens[2].text, "WHERE");
    EXPECT_EQ(r.tokens[3].text, "BETWEEN");
}

TEST(Lexer, IdentifiersKeepPathsAndIndices)
{
    LexResult r = lex("nested_obj.str nested_arr[3] sparse_110");
    ASSERT_TRUE(r.ok);
    EXPECT_EQ(r.tokens[0].text, "nested_obj.str");
    EXPECT_EQ(r.tokens[0].kind, TokKind::Ident);
    EXPECT_EQ(r.tokens[1].text, "nested_arr[3]");
    EXPECT_EQ(r.tokens[2].text, "sparse_110");
}

TEST(Lexer, NumbersAndNegatives)
{
    LexResult r = lex("42 -17");
    ASSERT_TRUE(r.ok);
    EXPECT_EQ(r.tokens[0].number, 42);
    EXPECT_EQ(r.tokens[1].number, -17);
}

TEST(Lexer, StringsWithBothQuotesAndEscapes)
{
    LexResult r = lex("'abc' \"def\" 'it''s'");
    ASSERT_TRUE(r.ok);
    EXPECT_EQ(r.tokens[0].text, "abc");
    EXPECT_EQ(r.tokens[1].text, "def");
    EXPECT_EQ(r.tokens[2].text, "it's");
}

TEST(Lexer, UnterminatedStringFails)
{
    LexResult r = lex("SELECT 'oops");
    EXPECT_FALSE(r.ok);
    EXPECT_NE(r.error.find("unterminated"), std::string::npos);
}

TEST(Lexer, RejectsStrayCharacters)
{
    EXPECT_FALSE(lex("SELECT @").ok);
}

// ---------------------------------------------------------------------
// Parser on a NoBench world.
// ---------------------------------------------------------------------

class SqlWorld : public ::testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        cfg.numDocs = 800;
        cfg.seed = 5150;
        data = new engine::DataSet(nobench::generateDataSet(cfg));
        db = new engine::Database(
            *data,
            layout::Layout::fixedSize(data->catalog.allAttrs(), 12),
            "sql");
    }
    static void
    TearDownTestSuite()
    {
        delete db;
        delete data;
        db = nullptr;
        data = nullptr;
    }

    engine::ResultSet
    run(const std::string &text)
    {
        ParseResult r = parse(text, *data);
        EXPECT_TRUE(r.ok) << r.error;
        engine::Executor exec(*db);
        return exec.run(r.query);
    }

    static nobench::Config cfg;
    static engine::DataSet *data;
    static engine::Database *db;
};

nobench::Config SqlWorld::cfg;
engine::DataSet *SqlWorld::data = nullptr;
engine::Database *SqlWorld::db = nullptr;

TEST_F(SqlWorld, ProjectionParses)
{
    ParseResult r = parse("SELECT str1, num FROM nobench_main", *data);
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_EQ(r.kind, StatementKind::Query);
    EXPECT_EQ(r.query.kind, QueryKind::Project);
    ASSERT_EQ(r.query.projected.size(), 2u);
    EXPECT_EQ(r.query.projected[0], data->catalog.find("str1"));
    EXPECT_EQ(r.table, "nobench_main");
    EXPECT_DOUBLE_EQ(estimateSelectivity(*data, r.query), 1.0);
}

TEST_F(SqlWorld, SelectStarWithEquality)
{
    ParseResult r = parse(
        "SELECT * FROM nobench_main WHERE str1 = 'str1_17'", *data);
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_TRUE(r.query.selectAll);
    EXPECT_EQ(r.query.kind, QueryKind::Select);
    EXPECT_EQ(r.query.cond.op, CondOp::Eq);

    engine::Executor exec(*db);
    engine::ResultSet rs = exec.run(r.query);
    ASSERT_EQ(rs.rowCount(), 1u);
    EXPECT_EQ(rs.oids[0], 17);
}

TEST_F(SqlWorld, BetweenParsesAndRuns)
{
    engine::ResultSet rs = run(
        "SELECT * FROM nobench_main WHERE num BETWEEN 0 AND 999999");
    EXPECT_EQ(rs.rowCount(), cfg.numDocs); // whole numeric range
}

TEST_F(SqlWorld, AnyMembershipExpandsArrayColumns)
{
    ParseResult r = parse(
        "SELECT sparse_330, num FROM nobench_main "
        "WHERE 'arr_7' = ANY nested_arr",
        *data);
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_EQ(r.query.cond.op, CondOp::AnyEq);
    EXPECT_EQ(r.query.cond.anyAttrs.size(), 9u);
}

TEST_F(SqlWorld, CountGroupByParses)
{
    ParseResult r = parse(
        "SELECT COUNT(*) FROM nobench_main WHERE num BETWEEN 0 AND "
        "499999 GROUP BY thousandth",
        *data);
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_EQ(r.query.kind, QueryKind::Aggregate);
    EXPECT_EQ(r.query.groupBy, data->catalog.find("thousandth"));

    engine::Executor exec(*db);
    engine::ResultSet rs = exec.run(r.query);
    int64_t total = 0;
    for (const auto &row : rs.rows)
        total += row[1];
    EXPECT_NEAR(static_cast<double>(total), cfg.numDocs / 2.0,
                cfg.numDocs * 0.1);
}

TEST_F(SqlWorld, JoinWithAliases)
{
    ParseResult r = parse(
        "SELECT * FROM nobench_main AS left INNER JOIN nobench_main "
        "AS right ON left.nested_obj.str = right.str1 "
        "WHERE left.num BETWEEN 0 AND 999999",
        *data);
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_EQ(r.query.kind, QueryKind::Join);
    EXPECT_EQ(r.query.joinLeftAttr,
              data->catalog.find("nested_obj.str"));
    EXPECT_EQ(r.query.joinRightAttr, data->catalog.find("str1"));

    engine::Executor exec(*db);
    // Every document's nested_obj.str names some str1 -> one pair per
    // doc (str1 values are unique).
    EXPECT_EQ(exec.run(r.query).rowCount(), cfg.numDocs);
}

TEST_F(SqlWorld, JoinAliasOrderSwapsWhenReversed)
{
    ParseResult r = parse(
        "SELECT * FROM t AS l INNER JOIN t AS r "
        "ON r.str1 = l.nested_obj.str WHERE l.num BETWEEN 0 AND 9",
        *data);
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_EQ(r.query.joinLeftAttr,
              data->catalog.find("nested_obj.str"));
    EXPECT_EQ(r.query.joinRightAttr, data->catalog.find("str1"));
}

TEST_F(SqlWorld, LoadStatement)
{
    ParseResult r = parse(
        "LOAD DATA LOCAL INFILE 'dump.json' REPLACE INTO TABLE "
        "nobench_main",
        *data);
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_EQ(r.kind, StatementKind::Load);
    EXPECT_EQ(r.loadFile, "dump.json");
    EXPECT_EQ(r.table, "nobench_main");
}

TEST_F(SqlWorld, ExplainWrapsSelect)
{
    ParseResult r = parse("EXPLAIN SELECT str1 FROM t", *data);
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_EQ(r.kind, StatementKind::Explain);
    EXPECT_EQ(r.query.kind, QueryKind::Project);
}

TEST_F(SqlWorld, UnknownColumnIsAllNullNotError)
{
    engine::ResultSet rs =
        run("SELECT ghost_column FROM nobench_main");
    EXPECT_EQ(rs.rowCount(), 0u); // projection of all-NULL column
}

TEST_F(SqlWorld, UnknownStringLiteralMatchesNothing)
{
    engine::ResultSet rs = run(
        "SELECT * FROM t WHERE str1 = 'never_ingested_value'");
    EXPECT_EQ(rs.rowCount(), 0u);
}

TEST_F(SqlWorld, TrailingSemicolonAccepted)
{
    EXPECT_TRUE(parse("SELECT num FROM t;", *data).ok);
}

TEST_F(SqlWorld, ErrorsNameTheOffset)
{
    ParseResult r = parse("SELECT FROM t", *data);
    EXPECT_FALSE(r.ok);
    EXPECT_NE(r.error.find("offset"), std::string::npos);

    EXPECT_FALSE(parse("SELECT a b FROM t", *data).ok);
    EXPECT_FALSE(parse("SELECT a FROM t WHERE", *data).ok);
    EXPECT_FALSE(parse("SELECT a FROM t WHERE x BETWEEN 1", *data).ok);
    EXPECT_FALSE(parse("SELECT a FROM t GROUP BY x", *data).ok);
    EXPECT_FALSE(parse("SELECT a FROM t extra", *data).ok);
    EXPECT_FALSE(parse("LOAD DATA INFILE 'f'", *data).ok);
}

TEST_F(SqlWorld, MatchesHandwrittenTemplateResults)
{
    // The SQL form of Q1 must equal the programmatic template.
    nobench::QuerySet qs(*data, cfg);
    Rng rng(8);
    engine::Query q1 = qs.instantiate(nobench::kQ1, rng);
    ParseResult r = parse("SELECT str1, num FROM nobench_main", *data);
    ASSERT_TRUE(r.ok);
    engine::Executor exec(*db);
    EXPECT_TRUE(exec.run(r.query).equals(exec.run(q1)));
}

// ---------------------------------------------------------------------
// Template round trips: SQL text -> Query -> bound plan -> digest,
// checked against hand-built Query objects with the same literals.
// ---------------------------------------------------------------------

TEST_F(SqlWorld, RoundTripsMatchHandBuiltTemplates)
{
    auto A = [&](const char *n) { return data->catalog.find(n); };
    auto S = [&](const std::string &v) {
        storage::StringId id = data->dict.lookup(v);
        if (id == storage::Dictionary::kMissing)
            return storage::encodeString(storage::Dictionary::kMissing -
                                         1);
        return storage::encodeString(id);
    };
    auto project = [&](const char *a, const char *b) {
        engine::Query q;
        q.kind = QueryKind::Project;
        q.projected = {A(a), A(b)};
        return q;
    };

    engine::Query q5;
    q5.kind = QueryKind::Select;
    q5.selectAll = true;
    q5.cond.op = CondOp::Eq;
    q5.cond.attr = A("str1");
    q5.cond.lo = S("str1_17");

    auto between = [&](const char *a, int64_t lo, int64_t hi) {
        engine::Query q;
        q.kind = QueryKind::Select;
        q.selectAll = true;
        q.cond.op = CondOp::Between;
        q.cond.attr = A(a);
        q.cond.lo = lo;
        q.cond.hi = hi;
        return q;
    };

    engine::Query q8;
    q8.kind = QueryKind::Select;
    q8.projected = {A("sparse_330"), A("num")};
    q8.cond.op = CondOp::AnyEq;
    for (int i = 0; i <= nobench::Config::kMaxArrLen; ++i)
        q8.cond.anyAttrs.push_back(
            A(("nested_arr[" + std::to_string(i) + "]").c_str()));
    q8.cond.lo = S("arr_7");

    engine::Query q9;
    q9.kind = QueryKind::Select;
    q9.selectAll = true;
    q9.cond.op = CondOp::Eq;
    q9.cond.attr = A("sparse_300");
    q9.cond.lo = S("sparse_val_3");

    engine::Query q10 = between("num", 0, 499999);
    q10.kind = QueryKind::Aggregate;
    q10.groupBy = A("thousandth");

    engine::Query q11 = between("num", 0, 999);
    q11.kind = QueryKind::Join;
    q11.joinLeftAttr = A("nested_obj.str");
    q11.joinRightAttr = A("str1");

    struct Case
    {
        const char *name;
        const char *sql;
        engine::Query q;
    };
    std::vector<Case> cases = {
        {"Q1", "SELECT str1, num FROM t", project("str1", "num")},
        {"Q2", "SELECT nested_obj.str, sparse_300 FROM t",
         project("nested_obj.str", "sparse_300")},
        {"Q3", "SELECT sparse_110, sparse_119 FROM t",
         project("sparse_110", "sparse_119")},
        {"Q4", "SELECT sparse_110, sparse_220 FROM t",
         project("sparse_110", "sparse_220")},
        {"Q5", "SELECT * FROM t WHERE str1 = 'str1_17'", q5},
        {"Q6", "SELECT * FROM t WHERE num BETWEEN 1000 AND 1999",
         between("num", 1000, 1999)},
        {"Q7", "SELECT * FROM t WHERE dyn1 BETWEEN 5000 AND 6999",
         between("dyn1", 5000, 6999)},
        {"Q8",
         "SELECT sparse_330, num FROM t WHERE 'arr_7' = ANY nested_arr",
         q8},
        {"Q9", "SELECT * FROM t WHERE sparse_300 = 'sparse_val_3'", q9},
        {"Q10",
         "SELECT COUNT(*) FROM t WHERE num BETWEEN 0 AND 499999 "
         "GROUP BY thousandth",
         q10},
        {"Q11",
         "SELECT * FROM t AS l INNER JOIN t AS r "
         "ON l.nested_obj.str = r.str1 WHERE l.num BETWEEN 0 AND 999",
         q11},
    };

    engine::Executor exec(*db);
    for (const Case &c : cases) {
        SCOPED_TRACE(c.name);
        ParseResult r = parse(c.sql, *data);
        ASSERT_TRUE(r.ok) << r.error;
        engine::PhysicalPlan parsed = engine::bindPlan(*db, r.query);
        engine::PhysicalPlan hand = engine::bindPlan(*db, c.q);

        if (c.q.kind == QueryKind::Aggregate) {
            // SQL binds COUNT(*) GROUP BY to the columns it reads; the
            // hand-built template keeps the paper's SELECT * sub-query
            // (§VI-B).  Same groups, counts and digest; fewer cells.
            engine::ResultSet got = exec.run(r.query);
            engine::ResultSet want = exec.run(c.q);
            EXPECT_FALSE(got.rows.empty());
            EXPECT_EQ(got.rows, want.rows);
            EXPECT_EQ(got.digest(), want.digest());

            ASSERT_FALSE(parsed.retrieve.selectAll);
            ASSERT_EQ(parsed.retrieve.groups.size(), 1u);
            ASSERT_EQ(parsed.retrieve.groups[0].cols.size(), 1u);
            EXPECT_EQ(parsed.retrieve.groups[0].cols[0].attr,
                      A("thousandth"));
            EXPECT_EQ(parsed.aggregate.groupCol, 0u);
            std::vector<storage::AttrId> read = {A("num"),
                                                 A("thousandth")};
            std::sort(read.begin(), read.end());
            EXPECT_EQ(r.query.accessedAttrs(data->catalog), read);
            EXPECT_NE(parsed.describe(*db).find("IndexRetrieve cols=1 "),
                      std::string::npos);

            EXPECT_TRUE(hand.retrieve.selectAll);
            nobench::QuerySet qs(*data, cfg);
            Rng rng(5);
            engine::Query paper = qs.instantiate(nobench::kQ10, rng);
            engine::PhysicalPlan paper_plan = engine::bindPlan(*db, paper);
            EXPECT_TRUE(paper_plan.retrieve.selectAll);
            EXPECT_NE(paper_plan.describe(*db).find("IndexRetrieve[*]"),
                      std::string::npos);
            continue;
        }

        // Same template signature and bound operators...
        EXPECT_EQ(parsed.signature, hand.signature);
        EXPECT_EQ(parsed.key, hand.key);
        EXPECT_EQ(parsed.describe(*db).substr(parsed.describe(*db)
                                                  .find('\n')),
                  hand.describe(*db).substr(hand.describe(*db)
                                                .find('\n')));

        // ...and bit-identical results.
        EXPECT_EQ(exec.run(r.query).digest(), exec.run(c.q).digest());
    }
}

TEST_F(SqlWorld, InsertRoundTripQ12)
{
    // SQL ingests via LOAD; the executable bulk insert (Q12) is built
    // programmatically and runs through the same plan surface.
    ParseResult r = parse(
        "LOAD DATA LOCAL INFILE 'new.json' REPLACE INTO TABLE t",
        *data);
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_EQ(r.kind, StatementKind::Load);

    nobench::Config small = cfg;
    small.numDocs = 40;
    engine::DataSet ds = nobench::generateDataSet(small);
    engine::Database local(
        ds, layout::Layout::fixedSize(ds.catalog.allAttrs(), 12),
        "sql");
    size_t before = local.docCount();

    Rng rng(41);
    std::vector<storage::Document> extra;
    for (int i = 0; i < 8; ++i) {
        ds.addObject(nobench::generateDoc(
            small, rng, static_cast<int64_t>(ds.docs.size())));
        extra.push_back(ds.docs.back());
    }
    nobench::QuerySet qs(ds, small);
    engine::Query q12 = qs.insertQuery(&extra);

    engine::PhysicalPlan plan = engine::bindPlan(local, q12);
    EXPECT_EQ(plan.kind, QueryKind::Insert);
    engine::Executor exec(local);
    exec.run(q12);
    EXPECT_EQ(local.docCount(), before + 8);
}

// ---------------------------------------------------------------------
// Error paths.
// ---------------------------------------------------------------------

TEST_F(SqlWorld, BetweenErrorPaths)
{
    ParseResult r =
        parse("SELECT * FROM t WHERE num BETWEEN 'a' AND 9", *data);
    EXPECT_FALSE(r.ok);
    EXPECT_NE(r.error.find("expected integer after BETWEEN"),
              std::string::npos);

    r = parse("SELECT * FROM t WHERE num BETWEEN 1 9", *data);
    EXPECT_FALSE(r.ok);
    EXPECT_NE(r.error.find("expected AND"), std::string::npos);

    r = parse("SELECT * FROM t WHERE num BETWEEN 1 AND 'z'", *data);
    EXPECT_FALSE(r.ok);
    EXPECT_NE(r.error.find("expected integer after AND"),
              std::string::npos);
}

TEST_F(SqlWorld, UnknownGroupByColumnIsAnError)
{
    // Unlike SELECT/WHERE columns (all-NULL semantics), an unknown
    // grouping column would panic the engine's aggregate invariant, so
    // the parser rejects it.
    ParseResult r =
        parse("SELECT COUNT(*) FROM t GROUP BY ghost", *data);
    EXPECT_FALSE(r.ok);
    EXPECT_NE(r.error.find("unknown GROUP BY column"),
              std::string::npos);

    r = parse("SELECT COUNT(*) FROM t", *data);
    EXPECT_FALSE(r.ok);
    EXPECT_NE(r.error.find("COUNT(*) requires GROUP BY"),
              std::string::npos);
}

TEST_F(SqlWorld, SelectivityEstimates)
{
    // Projection -> 1.
    ParseResult proj = parse("SELECT num FROM t", *data);
    EXPECT_DOUBLE_EQ(estimateSelectivity(*data, proj.query), 1.0);

    // Half-range BETWEEN -> ~0.5.
    ParseResult half = parse(
        "SELECT * FROM t WHERE num BETWEEN 0 AND 499999", *data);
    EXPECT_NEAR(estimateSelectivity(*data, half.query), 0.5, 0.1);

    // Never-matching literal -> floored at 1/n, not 0.
    ParseResult none =
        parse("SELECT * FROM t WHERE str1 = 'nope'", *data);
    double none_sel = estimateSelectivity(*data, none.query);
    EXPECT_GT(none_sel, 0.0);
    EXPECT_LE(none_sel, 1.0 / 700);
}

} // namespace
} // namespace dvp::sql
