/**
 * @file
 * Unit and property tests for the query engine (src/engine).
 *
 * The heart of this suite is the layout-invariance property: for every
 * NoBench query template, every vertical layout of the same DataSet
 * must return an identical result set and read the same logical cells
 * (checksum), per DESIGN.md invariant 2.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <limits>
#include <random>
#include <vector>

#include "engine/database.hh"
#include "engine/executor.hh"
#include "engine/query.hh"
#include "json/parser.hh"
#include "nobench/generator.hh"
#include "nobench/queries.hh"
#include "perf/memory_hierarchy.hh"

namespace dvp::engine
{
namespace
{

using layout::Layout;
using storage::AttrId;
using storage::kNullSlot;
using storage::Slot;

/** One result row as a vector (gtest prints and compares vectors). */
std::vector<Slot>
vec(ResultRows::Row row)
{
    return {row.begin(), row.end()};
}

/** The rows as a vector of vectors: the pre-flat representation. */
std::vector<std::vector<Slot>>
toVectors(const ResultRows &rows)
{
    std::vector<std::vector<Slot>> out;
    for (ResultRows::Row row : rows)
        out.push_back(vec(row));
    return out;
}

/** Flat rows from a vector of equal-width vectors. */
ResultRows
fromVectors(const std::vector<std::vector<Slot>> &rows)
{
    ResultRows out;
    for (const auto &row : rows)
        out.append(row);
    return out;
}

/** Tiny hand-built data set with known contents. */
class TinyDb : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        const char *docs[] = {
            R"({"a":1,"b":"x","c":10})",
            R"({"a":2,"c":20,"s1":"p"})",
            R"({"b":"y","d":true,"a":3})",
            R"({"a":4,"b":"x","c":40,"s1":"q"})",
            R"({"a":5,"c":50})",
        };
        for (const char *text : docs) {
            auto parsed = json::parse(text);
            ASSERT_TRUE(parsed.ok) << parsed.error;
            data.addObject(parsed.value);
        }
        a = data.catalog.find("a");
        b = data.catalog.find("b");
        c = data.catalog.find("c");
        d = data.catalog.find("d");
        s1 = data.catalog.find("s1");
        ASSERT_NE(a, storage::kNoAttr);
        ASSERT_NE(s1, storage::kNoAttr);
    }

    Slot
    str(const std::string &s) const
    {
        return storage::encodeString(data.dict.lookup(s));
    }

    DataSet data;
    AttrId a{}, b{}, c{}, d{}, s1{};
};

TEST_F(TinyDb, ProjectionSkipsAllNullRows)
{
    Database db(data, Layout::columnBased(data.catalog.allAttrs()),
                "col");
    Executor exec(db);
    Query q;
    q.kind = QueryKind::Project;
    q.projected = {s1};
    ResultSet rs = exec.run(q);
    ASSERT_EQ(rs.rowCount(), 2u); // only docs 1 and 3 have s1
    EXPECT_EQ(rs.oids, (std::vector<int64_t>{1, 3}));
    EXPECT_EQ(rs.rows[0][0], str("p"));
    EXPECT_EQ(rs.rows[1][0], str("q"));
}

TEST_F(TinyDb, ProjectionEmitsNullsForPartialRows)
{
    Database db(data, Layout::rowBased(data.catalog.allAttrs()), "row");
    Executor exec(db);
    Query q;
    q.kind = QueryKind::Project;
    q.projected = {b, c};
    ResultSet rs = exec.run(q);
    ASSERT_EQ(rs.rowCount(), 5u);
    // doc2 has b but no c.
    EXPECT_EQ(rs.rows[2][0], str("y"));
    EXPECT_TRUE(storage::isNull(rs.rows[2][1]));
}

TEST_F(TinyDb, SelectEqSingleRecord)
{
    Database db(data, Layout::fixedSize(data.catalog.allAttrs(), 2),
                "hy");
    Executor exec(db);
    Query q;
    q.kind = QueryKind::Select;
    q.selectAll = true;
    q.cond.op = CondOp::Eq;
    q.cond.attr = b;
    q.cond.lo = str("y");
    ResultSet rs = exec.run(q);
    ASSERT_EQ(rs.rowCount(), 1u);
    EXPECT_EQ(rs.oids[0], 2);
    EXPECT_EQ(rs.rows[0][a], 3);
    EXPECT_EQ(rs.rows[0][d], 1);
    EXPECT_TRUE(storage::isNull(rs.rows[0][c]));
}

TEST_F(TinyDb, SelectBetweenNumeric)
{
    Database db(data, Layout::columnBased(data.catalog.allAttrs()),
                "col");
    Executor exec(db);
    Query q;
    q.kind = QueryKind::Select;
    q.projected = {a, c};
    q.cond.op = CondOp::Between;
    q.cond.attr = c;
    q.cond.lo = 15;
    q.cond.hi = 45;
    ResultSet rs = exec.run(q);
    ASSERT_EQ(rs.rowCount(), 2u);
    EXPECT_EQ(rs.oids, (std::vector<int64_t>{1, 3}));
    EXPECT_EQ(vec(rs.rows[0]), (std::vector<Slot>{2, 20}));
    EXPECT_EQ(vec(rs.rows[1]), (std::vector<Slot>{4, 40}));
}

TEST_F(TinyDb, BetweenSkipsStringSlots)
{
    // Strings in a numeric range predicate never match (dyn typing).
    Database db(data, Layout::rowBased(data.catalog.allAttrs()), "row");
    Executor exec(db);
    Query q;
    q.kind = QueryKind::Select;
    q.projected = {b};
    q.cond.op = CondOp::Between;
    q.cond.attr = b; // b holds strings
    q.cond.lo = INT64_MIN + 1;
    q.cond.hi = INT64_MAX;
    EXPECT_EQ(exec.run(q).rowCount(), 0u);
}

TEST_F(TinyDb, SelectNoConditionReturnsEverything)
{
    Database db(data, Layout::fixedSize(data.catalog.allAttrs(), 3),
                "hy");
    Executor exec(db);
    Query q;
    q.kind = QueryKind::Select;
    q.selectAll = true;
    ResultSet rs = exec.run(q);
    EXPECT_EQ(rs.rowCount(), 5u);
}

TEST_F(TinyDb, AggregateCountsGroups)
{
    Database db(data, Layout::columnBased(data.catalog.allAttrs()),
                "col");
    Executor exec(db);
    Query q;
    q.kind = QueryKind::Aggregate;
    q.cond.op = CondOp::Between;
    q.cond.attr = a;
    q.cond.lo = 1;
    q.cond.hi = 4;
    q.groupBy = b;
    ResultSet rs = exec.run(q);
    // Groups among docs 0..3: b = "x" (docs 0, 3), "y" (doc 2),
    // NULL (doc 1).
    ASSERT_EQ(rs.rowCount(), 3u);
    std::map<Slot, Slot> groups;
    for (const auto &row : rs.rows)
        groups[row[0]] = row[1];
    EXPECT_EQ(groups[str("x")], 2);
    EXPECT_EQ(groups[str("y")], 1);
    EXPECT_EQ(groups[kNullSlot], 1);
}

TEST_F(TinyDb, AggregateRowsAscendByKey)
{
    // Group rows come back in ascending key order (NULL, the smallest
    // slot, first) on every layout, at every thread count.
    Query q;
    q.kind = QueryKind::Aggregate;
    q.groupBy = c;
    for (const Layout &l : {Layout::rowBased(data.catalog.allAttrs()),
                            Layout::columnBased(data.catalog.allAttrs())}) {
        Database db(data, l, "tiny");
        for (size_t threads : {1u, 4u}) {
            Executor exec(db, threads);
            exec.setMorselRows(1);
            ResultSet rs = exec.run(q);
            ResultRows want = fromVectors(
                {{kNullSlot, 1}, {10, 1}, {20, 1}, {40, 1}, {50, 1}});
            EXPECT_EQ(rs.rows, want); // doc 2 has no c: the NULL group
        }
    }
}

TEST_F(TinyDb, JoinMatchesPairs)
{
    // Self-join ON b = b is degenerate; instead join s1 against b by
    // adding a doc whose b equals an s1 value.
    auto parsed = json::parse(R"({"a":6,"b":"p"})");
    ASSERT_TRUE(parsed.ok);
    data.addObject(parsed.value);

    Database db(data, Layout::fixedSize(data.catalog.allAttrs(), 2),
                "hy");
    Executor exec(db);
    Query q;
    q.kind = QueryKind::Join;
    q.selectAll = true;
    q.joinLeftAttr = s1; // doc1 ("p"), doc3 ("q")
    q.joinRightAttr = b; // "x","y","x",... and the new "p"
    q.cond.op = CondOp::Between;
    q.cond.attr = a;
    q.cond.lo = 0;
    q.cond.hi = 100;
    ResultSet rs = exec.run(q);
    ASSERT_EQ(rs.rowCount(), 1u);
    EXPECT_EQ(vec(rs.rows[0]), (std::vector<Slot>{1, 5})); // s1 of 1 == b of 5
}

TEST_F(TinyDb, InsertAppendsToAllTables)
{
    Database db(data, Layout::columnBased(data.catalog.allAttrs()),
                "col");
    Executor exec(db);
    std::vector<storage::Document> payload;
    {
        auto parsed = json::parse(R"({"a":7,"c":70})");
        ASSERT_TRUE(parsed.ok);
        data.addObject(parsed.value);
        payload.push_back(data.docs.back());
    }
    Query q12;
    q12.kind = QueryKind::Insert;
    q12.insertDocs = &payload;
    exec.run(q12);

    Query probe;
    probe.kind = QueryKind::Select;
    probe.projected = {c};
    probe.cond.op = CondOp::Eq;
    probe.cond.attr = a;
    probe.cond.lo = 7;
    ResultSet rs = exec.run(probe);
    ASSERT_EQ(rs.rowCount(), 1u);
    EXPECT_EQ(rs.rows[0][0], 70);
}

TEST_F(TinyDb, UnknownConditionColumnYieldsEmpty)
{
    Database db(data, Layout::rowBased(data.catalog.allAttrs()), "row");
    Executor exec(db);
    Query q;
    q.kind = QueryKind::Select;
    q.selectAll = true;
    q.cond.op = CondOp::Eq;
    q.cond.attr = 9999; // never registered
    EXPECT_EQ(exec.run(q).rowCount(), 0u);
}

TEST(ResultSet, EqualsIsOrderInsensitive)
{
    ResultSet a, b;
    a.rows = fromVectors({{1, 2}, {3, 4}});
    b.rows = fromVectors({{3, 4}, {1, 2}});
    EXPECT_TRUE(a.equals(b));
    EXPECT_EQ(a.digest(), b.digest());
    b.rows.append({5, 6});
    EXPECT_FALSE(a.equals(b));
    EXPECT_NE(a.digest(), b.digest());
}

TEST(ResultSet, DigestDistinguishesCellChanges)
{
    ResultSet a, b;
    a.rows = fromVectors({{1, 2}});
    b.rows = fromVectors({{1, 3}});
    EXPECT_NE(a.digest(), b.digest());
}

/** The canonical form digest()/equals() are defined by: a sorted copy. */
std::vector<std::vector<Slot>>
canonicalCopy(const ResultSet &rs)
{
    std::vector<std::vector<Slot>> rows = toVectors(rs.rows);
    std::sort(rows.begin(), rows.end());
    return rows;
}

/** FNV-1a over the sorted copy: the digest's defining formula. */
uint64_t
referenceDigest(const ResultSet &rs)
{
    uint64_t h = 0xcbf29ce484222325ULL;
    auto mix = [&h](uint64_t v) {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (i * 8)) & 0xff;
            h *= 0x100000001b3ULL;
        }
    };
    for (const auto &row : canonicalCopy(rs)) {
        mix(0x9e3779b97f4a7c15ULL);
        for (Slot s : row)
            mix(static_cast<uint64_t>(s));
    }
    return h;
}

/**
 * A random result: @p n rows of @p width cells drawn from a small
 * value pool (nulls, negatives, string slots, large magnitudes), so
 * rows repeat and first cells tie often.
 */
ResultSet
randomResult(std::mt19937_64 &rng, size_t n, size_t width)
{
    const Slot pool[] = {kNullSlot, -7, -1, 0, 1, 2, 255, 256,
                         int64_t{1} << 40, storage::encodeString(0),
                         storage::encodeString(3),
                         std::numeric_limits<Slot>::max()};
    std::vector<std::vector<Slot>> rows(n, std::vector<Slot>(width));
    for (auto &row : rows)
        for (Slot &s : row)
            s = pool[rng() % std::size(pool)];
    ResultSet rs;
    rs.rows = fromVectors(rows);
    return rs;
}

TEST(ResultSet, DigestAndEqualsMatchTheSortedCopyOracle)
{
    std::mt19937_64 rng(20190324);
    std::vector<ResultSet> cases;
    cases.emplace_back(); // empty
    cases.push_back(randomResult(rng, 1, 2));
    for (int k = 0; k < 40; ++k)
        cases.push_back(randomResult(rng, 1 + rng() % 300,
                                     1 + rng() % 4));
    // select-* width: mostly-null catalog-wide rows.
    std::vector<std::vector<Slot>> wide =
        toVectors(randomResult(rng, 50, 1019).rows);
    for (auto &row : wide)
        for (size_t c = 0; c < row.size(); ++c)
            if (c % 17 != 0)
                row[c] = kNullSlot;
    cases.emplace_back().rows = fromVectors(wide);
    // Equal-width rows that tie on a NULL or repeated first cell (the
    // engine never emits ragged rows), and zero-width rows.
    cases.emplace_back().rows =
        fromVectors({{kNullSlot, 1}, {3, 0}, {3, kNullSlot},
                     {kNullSlot, kNullSlot}, {-2, 5}, {3, 0}});
    cases.emplace_back().rows = fromVectors({{}, {}, {}});

    for (size_t i = 0; i < cases.size(); ++i) {
        const ResultSet &rs = cases[i];
        EXPECT_EQ(rs.digest(), referenceDigest(rs)) << "case " << i;

        // Same rows in another order: equal, same digest.
        std::vector<std::vector<Slot>> order = toVectors(rs.rows);
        std::shuffle(order.begin(), order.end(), rng);
        ResultSet shuffled;
        shuffled.rows = fromVectors(order);
        EXPECT_TRUE(rs.equals(shuffled)) << "case " << i;
        EXPECT_EQ(shuffled.digest(), rs.digest()) << "case " << i;

        // Against every other case, equals() agrees with the oracle.
        for (size_t j = 0; j < cases.size(); ++j)
            EXPECT_EQ(rs.equals(cases[j]),
                      canonicalCopy(rs) == canonicalCopy(cases[j]))
                << "cases " << i << ", " << j;

        // One changed cell: unequal, and the digest follows the oracle.
        if (rs.rows.empty() || rs.rows.width() == 0)
            continue;
        order[0][0] = order[0][0] == 42 ? 43 : 42;
        ResultSet changed;
        changed.rows = fromVectors(order);
        EXPECT_FALSE(rs.equals(changed)) << "case " << i;
        EXPECT_EQ(changed.digest(), referenceDigest(changed))
            << "case " << i;
    }
}

TEST(ResultSet, TableStepEqualsTheBytewiseStepForEveryLowByte)
{
    // digest() folds NULL cells and row separators in with one lookup
    // and one multiply; it must equal the eight bytewise FNV-1a steps
    // whatever h's high bits are.
    std::mt19937_64 rng(7);
    constexpr uint64_t kNull = static_cast<uint64_t>(kNullSlot);
    for (uint64_t low = 0; low < 256; ++low) {
        for (int k = 0; k < 16; ++k) {
            uint64_t h = (k == 0 ? 0 : rng() & ~uint64_t{0xFF}) | low;
            EXPECT_EQ(fnvStepConst<kNull>(h), fnvStep(h, kNull))
                << "h " << h;
            EXPECT_EQ(fnvStepConst<kDigestRowSeparator>(h),
                      fnvStep(h, kDigestRowSeparator))
                << "h " << h;
        }
    }
    static_assert(fnvStepConst<kNull>(kFnvOffset) ==
                  fnvStep(kFnvOffset, kNull));
}

TEST(ResultRows, RowViewsOverOneFlatBuffer)
{
    ResultRows rows;
    EXPECT_TRUE(rows.empty());
    EXPECT_EQ(rows.begin(), rows.end());
    rows.reserve(4, 3);
    Slot *r0 = rows.appendRow(3); // NULL-filled
    r0[1] = 7;
    rows.append({1, 2, 3});
    rows.append(std::vector<Slot>{4, 5, 6});
    Slot *dropped = rows.appendRow(3);
    dropped[0] = 99;
    rows.popRow();

    ASSERT_EQ(rows.size(), 3u);
    EXPECT_EQ(rows.width(), 3u);
    EXPECT_EQ(rows.slots().size(), 9u);
    EXPECT_EQ(vec(rows[0]), (std::vector<Slot>{kNullSlot, 7, kNullSlot}));
    EXPECT_EQ(vec(rows[2]), (std::vector<Slot>{4, 5, 6}));

    // Random-access iteration, as perfbench's prefix check uses it.
    auto it = rows.begin();
    EXPECT_EQ(rows.end() - it, 3);
    EXPECT_EQ(vec(it[1]), (std::vector<Slot>{1, 2, 3}));
    EXPECT_EQ(vec(*(it + 2)), (std::vector<Slot>{4, 5, 6}));
    EXPECT_LT(it, it + 1);
    EXPECT_EQ(std::distance(rows.begin(), rows.end()), 3);
    static_assert(std::random_access_iterator<ResultRows::iterator>);

    ResultRows prefix;
    prefix.assign(rows.begin(), rows.begin() + 2);
    EXPECT_EQ(prefix.size(), 2u);
    EXPECT_EQ(prefix.width(), 3u);
    EXPECT_EQ(toVectors(prefix),
              (std::vector<std::vector<Slot>>{{kNullSlot, 7, kNullSlot},
                                              {1, 2, 3}}));
    prefix.assign(rows.begin(), rows.begin());
    EXPECT_TRUE(prefix.empty());

    // Appending whole sets, as the morsel merge does: an empty set
    // leaves the rows alone, a first set fixes the width.
    ResultRows merged;
    merged.append(ResultRows{});
    merged.append(rows);
    merged.append(ResultRows{});
    merged.append(rows);
    EXPECT_EQ(merged.size(), 6u);
    EXPECT_EQ(merged.width(), 3u);
    EXPECT_EQ(vec(merged[4]), (std::vector<Slot>{1, 2, 3}));
    ResultRows twoZeroWide = fromVectors({{}});
    twoZeroWide.append(fromVectors({{}}));
    EXPECT_EQ(twoZeroWide.size(), 2u);

    // Empty sets agree whatever width they were given; zero-width
    // rows still count.
    ResultRows none;
    EXPECT_EQ(prefix, none);
    EXPECT_EQ(none.begin() + 0, none.end());
    ResultRows zero = fromVectors({{}, {}});
    EXPECT_EQ(zero.size(), 2u);
    EXPECT_EQ(zero.width(), 0u);
    EXPECT_NE(zero, none);
    ResultSet empty;
    EXPECT_EQ(empty.digest(), kFnvOffset);
    EXPECT_TRUE(empty.equals(ResultSet{}));
}

// ---------------------------------------------------------------------
// Layout-invariance property over the NoBench workload.
// ---------------------------------------------------------------------

struct NoBenchWorld
{
    nobench::Config cfg;
    DataSet data;
    std::vector<Query> queries;       ///< one instance per template
    std::vector<ResultSet> reference; ///< row-layout results

    NoBenchWorld()
    {
        cfg.numDocs = 800;
        cfg.seed = 2024;
        data = nobench::generateDataSet(cfg);
        nobench::QuerySet qs(data, cfg);
        Rng rng(555);
        for (int t = 0; t < nobench::kNumTemplates; ++t)
            queries.push_back(qs.instantiate(t, rng));

        Database row(data, Layout::rowBased(data.catalog.allAttrs()),
                     "row");
        Executor exec(row);
        for (const auto &q : queries)
            reference.push_back(exec.run(q));
    }
};

NoBenchWorld &
world()
{
    static NoBenchWorld w;
    return w;
}

TEST(ResultSet, PrefixDigestsMatchTheVectorOracle)
{
    // perfbench checks a read that ran beside INSERTs against an
    // assign()-ed oid-order prefix of the reference rows.
    NoBenchWorld &w = world();
    for (const ResultSet &ref : w.reference) {
        std::vector<std::vector<Slot>> all = toVectors(ref.rows);
        for (size_t n : {size_t{0}, size_t{1}, ref.rows.size() / 3,
                         ref.rows.size()}) {
            if (n > ref.rows.size())
                continue;
            ResultSet prefix;
            prefix.rows.assign(ref.rows.begin(),
                               ref.rows.begin() +
                                   static_cast<ptrdiff_t>(n));
            ResultSet oracle;
            oracle.rows = fromVectors(
                {all.begin(), all.begin() + static_cast<ptrdiff_t>(n)});
            ASSERT_EQ(prefix.rows.size(), n);
            EXPECT_EQ(prefix.digest(), referenceDigest(oracle));
            EXPECT_EQ(toVectors(prefix.rows), toVectors(oracle.rows));
        }
    }
}

class LayoutInvariance
    : public ::testing::TestWithParam<std::tuple<const char *, int>>
{
  protected:
    static Layout
    makeLayout(const std::string &name, const DataSet &data)
    {
        auto attrs = data.catalog.allAttrs();
        if (name == "column")
            return Layout::columnBased(attrs);
        if (name == "hybrid8")
            return Layout::fixedSize(attrs, 8);
        if (name == "hybrid64")
            return Layout::fixedSize(attrs, 64);
        if (name == "hybrid200")
            return Layout::fixedSize(attrs, 200);
        return Layout::rowBased(attrs);
    }
};

TEST_P(LayoutInvariance, ResultsMatchRowLayout)
{
    auto [layout_name, qidx] = GetParam();
    NoBenchWorld &w = world();
    Database db(w.data, makeLayout(layout_name, w.data), layout_name);
    Executor exec(db);
    ResultSet rs = exec.run(w.queries[qidx]);
    const ResultSet &ref = w.reference[qidx];
    EXPECT_EQ(rs.rowCount(), ref.rowCount());
    EXPECT_TRUE(rs.equals(ref));
    EXPECT_EQ(rs.digest(), ref.digest());
    EXPECT_EQ(rs.checksum, ref.checksum);
}

INSTANTIATE_TEST_SUITE_P(
    AllLayoutsAllQueries, LayoutInvariance,
    ::testing::Combine(
        ::testing::Values("column", "hybrid8", "hybrid64", "hybrid200"),
        ::testing::Range(0, static_cast<int>(nobench::kNumTemplates))),
    [](const auto &info) {
        return std::string(std::get<0>(info.param)) + "_Q" +
               std::to_string(std::get<1>(info.param) + 1);
    });

TEST(TracedExecution, MatchesUntracedResults)
{
    NoBenchWorld &w = world();
    Database db(w.data, Layout::fixedSize(w.data.catalog.allAttrs(), 16),
                "hy16");
    Executor exec(db);
    perf::MemoryHierarchy mh;
    for (int t = 0; t < nobench::kNumTemplates; ++t) {
        ResultSet traced = exec.run(w.queries[t], mh);
        EXPECT_TRUE(traced.equals(w.reference[t])) << "Q" << t + 1;
        EXPECT_EQ(traced.checksum, w.reference[t].checksum);
    }
    EXPECT_GT(mh.counters().accesses, 0u);
}

TEST(TracedExecution, ScansTouchTableMemory)
{
    NoBenchWorld &w = world();
    Database db(w.data, Layout::rowBased(w.data.catalog.allAttrs()),
                "row");
    Executor exec(db);
    perf::MemoryHierarchy mh;
    exec.run(w.queries[nobench::kQ1], mh);
    // Q1 projects two columns from the full-width table: at least one
    // touch per record.
    EXPECT_GE(mh.counters().accesses, w.data.docs.size());
}

TEST(Database, TableIVStyleAccounting)
{
    NoBenchWorld &w = world();
    auto attrs = w.data.catalog.allAttrs();

    Database row(w.data, Layout::rowBased(attrs), "row");
    Database col(w.data, Layout::columnBased(attrs), "col");

    EXPECT_EQ(row.tableCount(), 1u);
    EXPECT_EQ(col.tableCount(), attrs.size());

    // The row layout materializes the NULLs sparse data implies; the
    // column layout stores none (sparse omission).
    EXPECT_GT(row.nullCells(), 0u);
    EXPECT_EQ(col.nullCells(), 0u);
    EXPECT_GT(row.storageBytes(), col.storageBytes());
    EXPECT_GT(row.buildSeconds(), 0.0);
}

TEST(Database, LocateFindsEveryAttribute)
{
    NoBenchWorld &w = world();
    Database db(w.data, Layout::fixedSize(w.data.catalog.allAttrs(), 7),
                "hy");
    for (AttrId a : w.data.catalog.allAttrs()) {
        AttrLoc loc = db.locate(a);
        ASSERT_GE(loc.table, 0);
        const auto &schema = db.table(loc.table).schema();
        EXPECT_EQ(schema[loc.col], a);
    }
    EXPECT_EQ(db.locate(99999).table, -1);
}

TEST(EdgeCases, SingleDocumentDatabase)
{
    DataSet data;
    auto parsed = json::parse(R"({"a":1,"b":"x"})");
    ASSERT_TRUE(parsed.ok);
    data.addObject(parsed.value);
    Database db(data, Layout::columnBased(data.catalog.allAttrs()),
                "one");
    Executor exec(db);

    Query q;
    q.kind = QueryKind::Select;
    q.selectAll = true;
    q.cond.op = CondOp::Eq;
    q.cond.attr = data.catalog.find("a");
    q.cond.lo = 1;
    EXPECT_EQ(exec.run(q).rowCount(), 1u);
    q.cond.lo = 2;
    EXPECT_EQ(exec.run(q).rowCount(), 0u);
}

TEST(EdgeCases, SelectAllProjectionEmitsEveryDocument)
{
    // Project with selectAll exercises the merge-scan-everything path.
    NoBenchWorld &w = world();
    Database db(w.data,
                Layout::fixedSize(w.data.catalog.allAttrs(), 33),
                "edge");
    Executor exec(db);
    Query q;
    q.kind = QueryKind::Project;
    q.selectAll = true;
    ResultSet rs = exec.run(q);
    EXPECT_EQ(rs.rowCount(), w.data.docs.size());
}

TEST(EdgeCases, BetweenWithEmptyRange)
{
    NoBenchWorld &w = world();
    Database db(w.data, Layout::rowBased(w.data.catalog.allAttrs()),
                "edge2");
    Executor exec(db);
    Query q;
    q.kind = QueryKind::Select;
    q.projected = {w.data.catalog.find("num")};
    q.cond.op = CondOp::Between;
    q.cond.attr = w.data.catalog.find("num");
    q.cond.lo = 10;
    q.cond.hi = 9; // lo > hi: matches nothing, must not trip anything
    EXPECT_EQ(exec.run(q).rowCount(), 0u);
}

TEST(EdgeCases, AggregateWithoutMatchesIsEmpty)
{
    NoBenchWorld &w = world();
    Database db(w.data, Layout::rowBased(w.data.catalog.allAttrs()),
                "edge3");
    Executor exec(db);
    Query q;
    q.kind = QueryKind::Aggregate;
    q.selectAll = true;
    q.cond.op = CondOp::Between;
    q.cond.attr = w.data.catalog.find("num");
    q.cond.lo = -100;
    q.cond.hi = -1; // generator never emits negatives
    q.groupBy = w.data.catalog.find("thousandth");
    EXPECT_EQ(exec.run(q).rowCount(), 0u);
}

TEST(EdgeCases, JoinWithNoLeftMatchesIsEmpty)
{
    NoBenchWorld &w = world();
    Database db(w.data, Layout::fixedSize(w.data.catalog.allAttrs(), 9),
                "edge4");
    Executor exec(db);
    Query q;
    q.kind = QueryKind::Join;
    q.selectAll = true;
    q.joinLeftAttr = w.data.catalog.find("nested_obj.str");
    q.joinRightAttr = w.data.catalog.find("str1");
    q.cond.op = CondOp::Between;
    q.cond.attr = w.data.catalog.find("num");
    q.cond.lo = -5;
    q.cond.hi = -1;
    EXPECT_EQ(exec.run(q).rowCount(), 0u);
}

} // namespace
} // namespace dvp::engine
