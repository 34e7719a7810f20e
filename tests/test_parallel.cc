/**
 * @file
 * Morsel-driven parallel execution tests.
 *
 * The contract under test (DESIGN.md "Threading model"): for every
 * NoBench query kind and every thread count, the parallel executor
 * returns the serial result bit-for-bit (same rows in the same order,
 * same oids, same checksum), and the traced overload's simulated
 * counters are independent of the thread knob because traced runs are
 * pinned to the serial path.  A final suite exercises the adaptive
 * engine with concurrent callers and a background repartition (the
 * TSan configuration of scripts/ci.sh makes that a race hunt).  The
 * GroupFold suite holds COUNT(*) GROUP BY to its Select sub-query
 * folded by hand, on every layout and thread count, and the SQL
 * COUNT(*), which reads only its grouping column, to the paper
 * template's SELECT * digest.  The JoinAndAnyEq suite holds the
 * timing path's `= ANY` kernels, sorted-build join and partition-split
 * SELECT * to the traced (SimTracer) loops they replace.
 *
 * Scale comes from DVP_TEST_DOCS (default 4000) so the ThreadSanitizer
 * build can dial it down without editing the test.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <map>
#include <thread>

#include "adaptive/adaptive_engine.hh"
#include "argo/argo_executor.hh"
#include "argo/argo_store.hh"
#include "dvp/partitioner.hh"
#include "engine/database.hh"
#include "engine/executor.hh"
#include "engine/query.hh"
#include "engine/query_stats.hh"
#include "hyrise/hyrise_layouter.hh"
#include "nobench/generator.hh"
#include "nobench/queries.hh"
#include "nobench/workload.hh"
#include "perf/memory_hierarchy.hh"
#include "sql/parser.hh"
#include "util/thread_pool.hh"

namespace dvp
{
namespace
{

using engine::Database;
using engine::DataSet;
using engine::Executor;
using engine::Query;
using engine::ResultSet;
using layout::Layout;

size_t
testDocs()
{
    if (const char *env = std::getenv("DVP_TEST_DOCS"))
        return std::strtoull(env, nullptr, 10);
    return 4000;
}

/** Shared world: data, queries, serial references on row and DVP. */
struct ParallelWorld
{
    nobench::Config cfg;
    DataSet data;
    std::vector<Query> queries;
    std::unique_ptr<Database> row;
    std::unique_ptr<Database> dvp;
    std::vector<ResultSet> row_ref; ///< serial reference per template
    std::vector<ResultSet> dvp_ref;

    ParallelWorld()
    {
        cfg.numDocs = testDocs();
        cfg.seed = 7331;
        data = nobench::generateDataSet(cfg);
        nobench::QuerySet qs(data, cfg);
        Rng rng(99);
        for (int t = 0; t < nobench::kNumTemplates; ++t)
            queries.push_back(qs.instantiate(t, rng));

        row = std::make_unique<Database>(
            data, Layout::rowBased(data.catalog.allAttrs()), "row");

        std::vector<Query> reps = nobench::representatives(
            qs, nobench::Mix::uniform(), rng);
        core::Partitioner partitioner(data, reps);
        dvp = std::make_unique<Database>(data, partitioner.run().layout,
                                         "DVP");

        Executor row_exec(*row);
        Executor dvp_exec(*dvp);
        for (const Query &q : queries) {
            row_ref.push_back(row_exec.run(q));
            dvp_ref.push_back(dvp_exec.run(q));
        }
    }
};

ParallelWorld &
world()
{
    static ParallelWorld w;
    return w;
}

void
expectSame(const ResultSet &got, const ResultSet &ref)
{
    EXPECT_EQ(got.rowCount(), ref.rowCount());
    EXPECT_EQ(got.checksum, ref.checksum);
    EXPECT_EQ(got.oids, ref.oids);
    EXPECT_EQ(got.rows, ref.rows); // bit-identical, not just equivalent
    EXPECT_EQ(got.digest(), ref.digest());
}

class MorselExecution : public ::testing::TestWithParam<int>
{
};

TEST_P(MorselExecution, RowLayoutMatchesSerialAtEveryThreadCount)
{
    ParallelWorld &w = world();
    const Query &q = w.queries[GetParam()];
    for (size_t threads : {1u, 2u, 4u, 8u}) {
        Executor exec(*w.row, threads);
        // Small morsels force many batches even at test scale.
        exec.setMorselRows(64);
        expectSame(exec.run(q), w.row_ref[GetParam()]);
    }
}

TEST_P(MorselExecution, DvpLayoutMatchesSerialAtEveryThreadCount)
{
    ParallelWorld &w = world();
    const Query &q = w.queries[GetParam()];
    for (size_t threads : {2u, 4u, 8u}) {
        Executor exec(*w.dvp, threads);
        exec.setMorselRows(64);
        expectSame(exec.run(q), w.dvp_ref[GetParam()]);
    }
}

TEST_P(MorselExecution, TracedCountersIndependentOfThreadKnob)
{
    // The simulation overload is pinned to the serial path, so an
    // executor configured with 8 threads must produce exactly the
    // 1-thread counters (DESIGN.md: simulated figures model one core).
    ParallelWorld &w = world();
    const Query &q = w.queries[GetParam()];

    perf::MemoryHierarchy mh_serial;
    Executor serial(*w.dvp, 1);
    ResultSet rs_serial = serial.run(q, mh_serial);

    perf::MemoryHierarchy mh_threaded;
    Executor threaded(*w.dvp, 8);
    threaded.setMorselRows(64);
    ResultSet rs_threaded = threaded.run(q, mh_threaded);

    expectSame(rs_threaded, rs_serial);
    auto a = mh_serial.counters();
    auto b = mh_threaded.counters();
    EXPECT_EQ(a.accesses, b.accesses);
    EXPECT_EQ(a.l1Misses, b.l1Misses);
    EXPECT_EQ(a.l2Misses, b.l2Misses);
    EXPECT_EQ(a.l3Misses, b.l3Misses);
    EXPECT_EQ(a.tlbMisses, b.tlbMisses);
}

INSTANTIATE_TEST_SUITE_P(
    AllQueries, MorselExecution,
    ::testing::Range(0, static_cast<int>(nobench::kNumTemplates)),
    [](const auto &info) {
        return "Q" + std::to_string(info.param + 1);
    });

TEST(MorselExecution, DefaultMorselSizeAlsoMatches)
{
    // The other tests shrink morsels to stress the merge; make sure
    // the production granularity agrees too.
    ParallelWorld &w = world();
    for (size_t qi = 0; qi < w.queries.size(); ++qi) {
        Executor exec(*w.dvp, 4);
        expectSame(exec.run(w.queries[qi]), w.dvp_ref[qi]);
    }
}

TEST(MorselExecution, ThreadCountAboveLaneCountClamps)
{
    ParallelWorld &w = world();
    Executor exec(*w.row, 1024); // far beyond the pool's lane count
    exec.setMorselRows(64);
    expectSame(exec.run(w.queries[nobench::kQ1]),
               w.row_ref[nobench::kQ1]);
}

TEST(MorselExecution, SmallScansStayOnTheCaller)
{
    // A column-predicate scan scatters only once the blocks its zone
    // maps keep hold a morsel of rows per lane.  With 1100-row morsels
    // at 3 lanes (3300 rows), Q5 (str1 = one value: one surviving
    // block) stays serial, with the serial block counters, while Q6
    // (num BETWEEN: no block skipped) still scatters.  (Q6's morsels
    // split blocks, so only its row counter is morsel-independent.)
    ParallelWorld &w = world();
    Database copy(w.data, w.row->layout(), "row");
    for (auto [qi, scatters] : {std::pair{nobench::kQ5, false},
                                std::pair{nobench::kQ6, true}}) {
        const Query &q = w.queries[qi];
        SCOPED_TRACE(q.name);
        engine::QueryStats serial, three;
        Executor one(copy, 1), par(copy, 3);
        one.setMorselRows(1100);
        par.setMorselRows(1100);
        expectSame(par.run(q, &three), one.run(q, &serial));
        EXPECT_EQ(three.morsels > 0, scatters && testDocs() >= 3300);
        EXPECT_EQ(three.rowsScanned, serial.rowsScanned);
        if (!scatters) {
            EXPECT_EQ(three.blocksScanned, serial.blocksScanned);
            EXPECT_EQ(three.blocksSkipped, serial.blocksSkipped);
        }
    }
}

// ---------------------------------------------------------------------
// COUNT(*) GROUP BY oracle: an aggregate must equal its Select
// sub-query folded by hand — the same rows in ascending key order and
// the same checksum — on every layout and thread count — and must
// trace exactly the sub-query's simulated memory accesses.  (The same
// aggregates over in-place-grown partitions: test_ingest.)
// ---------------------------------------------------------------------

/**
 * Q10 (SELECT *) and an explicit-list GROUP BY that omits the key,
 * both widened to match about half the documents so the retrieval
 * spans many morsels.
 */
std::vector<Query>
groupQueries(const ParallelWorld &w)
{
    Query q10 = w.queries[nobench::kQ10];
    q10.cond.lo = 0;
    q10.cond.hi = w.cfg.numRange / 2;
    Query listed = q10;
    listed.name = "Q10-list";
    listed.selectAll = false;
    listed.projected = {w.data.catalog.find("str1"),
                        w.data.catalog.find("num")};
    return {q10, listed};
}

/** The Select sub-query an aggregate runs first (paper §VI-B). */
Query
selectPart(const Query &q)
{
    Query sub = q;
    sub.kind = engine::QueryKind::Select;
    if (!sub.selectAll)
        sub.projected.push_back(q.groupBy);
    return sub;
}

/** COUNT(*) GROUP BY folded by hand from selectPart(q)'s rows. */
ResultSet
foldByHand(const Query &q, const ResultSet &selected)
{
    size_t col = q.selectAll ? q.groupBy : q.projected.size();
    std::map<storage::Slot, storage::Slot> counts;
    for (const auto &row : selected.rows)
        ++counts[col < row.size() ? row[col] : storage::kNullSlot];
    ResultSet rs;
    rs.checksum = selected.checksum;
    for (const auto &[key, n] : counts)
        rs.rows.append({key, n});
    return rs;
}

void
expectHandFold(const ResultSet &agg, const Query &q,
               const ResultSet &selected)
{
    ResultSet want = foldByHand(q, selected);
    EXPECT_GT(want.rowCount(), 1u); // a real fold, not one group
    EXPECT_EQ(agg.rows, want.rows); // same order, not just same set
    EXPECT_EQ(agg.checksum, want.checksum);
    EXPECT_TRUE(agg.oids.empty());
}

/** Every layout of the ParallelWorld data. */
struct GroupFoldWorld
{
    std::vector<std::pair<std::string, const Database *>> partitioned;
    std::unique_ptr<Database> column, hyrise;
    std::unique_ptr<argo::ArgoStore> argo1, argo3;

    GroupFoldWorld()
    {
        ParallelWorld &w = world();
        auto attrs = w.data.catalog.allAttrs();
        column = std::make_unique<Database>(
            w.data, Layout::columnBased(attrs), "column");
        nobench::QuerySet qs(w.data, w.cfg);
        Rng rng(11);
        hyrise::HyriseLayouter hl(
            w.data.catalog,
            nobench::representatives(qs, nobench::Mix::uniform(), rng),
            w.data.docs.size());
        hyrise = std::make_unique<Database>(w.data, *hl.run().layout,
                                            "Hyrise");
        partitioned = {{"row", w.row.get()},
                       {"column", column.get()},
                       {"DVP", w.dvp.get()},
                       {"Hyrise", hyrise.get()}};
        argo1 = std::make_unique<argo::ArgoStore>(w.data,
                                                  argo::Variant::Argo1);
        argo3 = std::make_unique<argo::ArgoStore>(w.data,
                                                  argo::Variant::Argo3);
    }
};

GroupFoldWorld &
groupWorld()
{
    static GroupFoldWorld g;
    return g;
}

TEST(GroupFold, PartitionedLayoutsMatchHandFoldAtEveryThreadCount)
{
    ParallelWorld &w = world();
    for (const auto &[name, db] : groupWorld().partitioned) {
        for (size_t threads : {1u, 2u, 4u}) {
            Executor exec(*const_cast<Database *>(db), threads);
            exec.setMorselRows(64);
            for (const Query &q : groupQueries(w)) {
                SCOPED_TRACE(name + " " + q.name + " threads=" +
                             std::to_string(threads));
                ResultSet sel = exec.run(selectPart(q));
                EXPECT_GT(sel.rowCount(), 4 * exec.morselRows());
                expectHandFold(exec.run(q), q, sel);
            }
        }
    }
}

TEST(GroupFold, ArgoStoresMatchHandFold)
{
    ParallelWorld &w = world();
    GroupFoldWorld &g = groupWorld();
    for (argo::ArgoStore *store : {g.argo1.get(), g.argo3.get()}) {
        argo::ArgoExecutor exec(*store);
        for (const Query &q : groupQueries(w)) {
            SCOPED_TRACE(q.name);
            ResultSet agg = exec.run(q);
            expectHandFold(agg, q, exec.run(selectPart(q)));
            // Argo reads the same logical cells as the partitions.
            Executor row(*w.row);
            EXPECT_EQ(agg.rows, row.run(q).rows);
        }
    }
}

TEST(GroupFold, SqlQ10DigestEqualsThePaperTemplateOnEveryLayout)
{
    // The SQL binder binds COUNT(*) GROUP BY to {thousandth} (num
    // enters through the WHERE clause); the paper template retrieves
    // SELECT *.  The digest contract: the same groups and counts on
    // every layout, thread count and compression setting.
    ParallelWorld &w = world();
    GroupFoldWorld &g = groupWorld();
    Query paper = groupQueries(w)[0];
    sql::ParseResult r = sql::parse(
        "SELECT COUNT(*) FROM t WHERE num BETWEEN " +
            std::to_string(paper.cond.lo) + " AND " +
            std::to_string(paper.cond.hi) + " GROUP BY thousandth",
        w.data);
    ASSERT_TRUE(r.ok) << r.error;
    ASSERT_FALSE(r.query.selectAll);
    ASSERT_EQ(r.query.projected,
              std::vector<storage::AttrId>{paper.groupBy});

    ResultSet want = Executor(*w.row).run(paper);
    EXPECT_GT(want.rowCount(), 1u);
    for (bool compress : {false, true}) {
        for (const auto &[name, db] : g.partitioned) {
            Database copy(w.data, db->layout(), name, nullptr, compress);
            ASSERT_EQ(copy.compressed(), compress);
            for (size_t threads : {1u, 4u}) {
                SCOPED_TRACE(name + (compress ? " compressed" : "") +
                             " threads=" + std::to_string(threads));
                Executor exec(copy, threads);
                exec.setMorselRows(64);
                ResultSet got = exec.run(r.query);
                EXPECT_EQ(got.rows, want.rows);
                EXPECT_EQ(got.digest(), want.digest());
            }
        }
    }
    for (argo::ArgoStore *store : {g.argo1.get(), g.argo3.get()}) {
        argo::ArgoExecutor exec(*store);
        ResultSet got = exec.run(r.query);
        EXPECT_EQ(got.rows, want.rows);
        EXPECT_EQ(got.digest(), want.digest());
    }
}

TEST(GroupFold, TracedCountersEqualTheSelectSubQuery)
{
    // The fold allocates no rows but must retrieve exactly what the
    // Select sub-query retrieves: the same simulated L1/L2/LLC/TLB
    // counters, access for access.
    ParallelWorld &w = world();
    GroupFoldWorld &g = groupWorld();
    auto expectSameCounters = [](const perf::MemoryHierarchy &agg,
                                 const perf::MemoryHierarchy &sel) {
        auto a = agg.counters();
        auto b = sel.counters();
        EXPECT_GT(a.accesses, 0u);
        EXPECT_EQ(a.accesses, b.accesses);
        EXPECT_EQ(a.l1Misses, b.l1Misses);
        EXPECT_EQ(a.l2Misses, b.l2Misses);
        EXPECT_EQ(a.l3Misses, b.l3Misses);
        EXPECT_EQ(a.tlbMisses, b.tlbMisses);
    };
    for (const Query &q : groupQueries(w)) {
        for (const auto &[name, db] : g.partitioned) {
            SCOPED_TRACE(name + " " + q.name);
            Executor exec(*const_cast<Database *>(db));
            perf::MemoryHierarchy mh_agg, mh_sel;
            ResultSet agg = exec.run(q, mh_agg);
            ResultSet sel = exec.run(selectPart(q), mh_sel);
            expectHandFold(agg, q, sel);
            expectSameCounters(mh_agg, mh_sel);
        }
        for (argo::ArgoStore *store : {g.argo1.get(), g.argo3.get()}) {
            SCOPED_TRACE(q.name);
            argo::ArgoExecutor exec(*store);
            perf::MemoryHierarchy mh_agg, mh_sel;
            ResultSet agg = exec.run(q, mh_agg);
            ResultSet sel = exec.run(selectPart(q), mh_sel);
            expectHandFold(agg, q, sel);
            expectSameCounters(mh_agg, mh_sel);
        }
    }
}

TEST(AdaptiveParallel, ConcurrentExecuteWithBackgroundRepartition)
{
    // Several caller threads issuing morsel-parallel queries while the
    // engine detects a workload change and swaps the database on a
    // background thread.  Correctness bar: every result matches the
    // serial reference for whatever layout the query ran on — which
    // the layout-invariance property reduces to "matches the row
    // reference".  Under TSan this doubles as the data-race test for
    // the snapshot/swap and stats paths.
    nobench::Config cfg;
    cfg.numDocs = std::min<size_t>(testDocs(), 1500);
    cfg.seed = 4242;
    DataSet data = nobench::generateDataSet(cfg);
    nobench::QuerySet qs(data, cfg);
    Rng rng(17);

    std::vector<Query> initial;
    for (int t = 0; t < 3; ++t)
        initial.push_back(qs.instantiate(t, rng));

    adaptive::Params prm;
    prm.window = 40;
    prm.changeThreshold = 0.3;
    prm.background = true;
    prm.threads = 4;
    adaptive::AdaptiveEngine eng(data, initial, prm);

    Database row(data, Layout::rowBased(data.catalog.allAttrs()),
                 "row");
    Executor row_exec(row);

    // Reference results for a shifted workload (drives the detector).
    std::vector<Query> shifted;
    for (int t = 0; t < nobench::kNumTemplates; ++t)
        shifted.push_back(qs.instantiateShifted(t, rng));
    std::vector<ResultSet> refs;
    for (const Query &q : shifted)
        refs.push_back(row_exec.run(q));

    // Trip the detector serially: one window of the original templates,
    // then one of the shifted ones.  Which queries share a window then
    // does not depend on how the callers interleave, so the detection
    // is deterministic and its background swap starts before them.
    for (size_t i = 0; i < prm.window; ++i)
        eng.execute(qs.instantiate(
            static_cast<int>(i % nobench::kNumTemplates), rng));
    for (size_t i = 0; i < prm.window; ++i)
        eng.execute(shifted[i % shifted.size()]);
    ASSERT_GE(eng.adaptation().changesDetected, 1u);

    constexpr int kCallers = 3;
    constexpr int kRounds = 30;
    std::vector<std::thread> callers;
    std::vector<int> failures(kCallers, 0);
    for (int c = 0; c < kCallers; ++c) {
        callers.emplace_back([&, c] {
            Rng crng(100 + c);
            for (int r = 0; r < kRounds; ++r) {
                size_t qi = crng.below(shifted.size());
                ResultSet rs = eng.execute(shifted[qi]);
                if (!rs.equals(refs[qi]))
                    ++failures[c];
            }
        });
    }
    for (auto &t : callers)
        t.join();
    eng.quiesce();

    for (int c = 0; c < kCallers; ++c)
        EXPECT_EQ(failures[c], 0) << "caller " << c;

    // Detections are recorded synchronously and never undone.
    EXPECT_GE(eng.adaptation().changesDetected, 1u);
}

// ---------------------------------------------------------------------
// `= ANY` and the self-join on the timing path: the batched ANY
// kernels, the sorted-build join with its cursor materialize and the
// partition-split SELECT * must return, slot for slot, what the traced
// row-at-a-time loops return; their work counters must not depend on
// the lane count.
// ---------------------------------------------------------------------

/**
 * Q8 and Q11 as templates and as SQL, a join whose build side repeats
 * keys, and an ANY in which one row matches two array columns.
 */
std::vector<Query>
joinAndAnyQueries(const ParallelWorld &w)
{
    const storage::Catalog &cat = w.data.catalog;
    std::vector<Query> out = {w.queries[nobench::kQ8],
                              w.queries[nobench::kQ11]};

    // The first document whose array holds one value twice; without
    // one (small DVP_TEST_DOCS) the ANY lists nested_arr[0] twice.
    Query twice = w.queries[nobench::kQ8];
    twice.name = "any-two-columns";
    bool found = false;
    for (const storage::Document &d : w.data.docs) {
        std::map<storage::Slot, int> seen;
        for (storage::AttrId a : twice.cond.anyAttrs) {
            storage::Slot s = d.slotOf(a);
            if (!storage::isNull(s) && ++seen[s] == 2) {
                twice.cond.lo = s;
                found = true;
            }
        }
        if (found)
            break;
    }
    if (!found) {
        twice.cond.anyAttrs.push_back(twice.cond.anyAttrs.front());
        twice.cond.lo = w.data.docs.front().slotOf(
            twice.cond.anyAttrs.front());
    }
    out.push_back(twice);

    Query dup = w.queries[nobench::kQ11];
    dup.name = "join-duplicate-keys";
    dup.joinLeftAttr = cat.find("thousandth");
    dup.joinRightAttr = cat.find("thousandth");
    dup.cond.lo = 0;
    dup.cond.hi = 99999;
    out.push_back(dup);

    // The SQL forms, on a literal the data holds.
    storage::Slot lit = w.queries[nobench::kQ8].cond.lo;
    for (const storage::Document &d : w.data.docs) {
        lit = d.slotOf(cat.find("nested_arr[0]"));
        if (!storage::isNull(lit))
            break;
    }
    const std::string arr =
        w.data.dict.text(storage::decodeString(lit));
    for (const std::string &text :
         {"SELECT sparse_330, num FROM t WHERE '" + arr +
              "' = ANY nested_arr",
          std::string("SELECT * FROM t AS l INNER JOIN t AS r "
                      "ON l.nested_obj.str = r.str1 "
                      "WHERE l.num BETWEEN 0 AND 199999")}) {
        sql::ParseResult r = sql::parse(text, w.data);
        EXPECT_TRUE(r.ok) << r.error;
        r.query.name = text;
        out.push_back(r.query);
    }
    return out;
}

/** The counters no lane count or morsel size may move. */
void
expectSameWork(const engine::QueryStats &got,
               const engine::QueryStats &ref)
{
    EXPECT_EQ(got.rowsScanned, ref.rowsScanned);
    EXPECT_EQ(got.partitionTouches, ref.partitionTouches);
    EXPECT_EQ(got.matches, ref.matches);
    EXPECT_EQ(got.rowsOut, ref.rowsOut);
    EXPECT_EQ(got.blocksScanned, ref.blocksScanned);
    EXPECT_EQ(got.blocksSkipped, ref.blocksSkipped);
    for (size_t i = 0; i < 4; ++i)
        EXPECT_EQ(got.compressedEval[i], ref.compressedEval[i]);
}

TEST(JoinAndAnyEq, TimingPathEqualsTheTracedLoopsOnEveryLayout)
{
    ParallelWorld &w = world();
    GroupFoldWorld &g = groupWorld();
    std::vector<Query> queries = joinAndAnyQueries(w);

    // The shapes the suite is about actually occur.
    ResultSet dup = Executor(*w.row).run(queries[3]);
    std::map<int64_t, int> per_right;
    for (auto row : dup.rows)
        ++per_right[row[1]];
    EXPECT_TRUE(std::any_of(per_right.begin(), per_right.end(),
                            [](const auto &e) { return e.second > 1; }));
    for (const Query &q : queries)
        EXPECT_GT(Executor(*w.row).run(q).rowCount(), 0u) << q.name;

    for (const auto &[name, db] : g.partitioned) {
        for (const Query &q : queries) {
            // The oracle: the traced loops on the plain layout.
            perf::MemoryHierarchy mh;
            ResultSet oracle =
                Executor(*const_cast<Database *>(db)).run(q, mh);
            for (bool compress : {false, true}) {
                Database copy(w.data, db->layout(), name, nullptr,
                              compress);
                for (size_t morsel : {size_t{64}, size_t{0}}) {
                    engine::QueryStats base;
                    for (size_t threads : {1u, 2u, 3u, 4u, 8u}) {
                        SCOPED_TRACE(name +
                                     (compress ? " compressed " : " ") +
                                     q.name + " morsel=" +
                                     std::to_string(morsel) +
                                     " threads=" +
                                     std::to_string(threads));
                        Executor exec(copy, threads);
                        exec.setMorselRows(morsel);
                        engine::QueryStats st;
                        expectSame(exec.run(q, &st), oracle);
                        if (threads == 1) {
                            base = st;
                            continue;
                        }
                        expectSameWork(st, base);
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// Flat result rows: morsel partials merge at prefix-sum offsets.
// ---------------------------------------------------------------------

TEST(FlatRows, MorselMergeIsSlotIdenticalOnEveryLayout)
{
    // Every template, every partitioned layout plain and compressed,
    // at 1/2/3/4/8 lanes with small morsels: the merged flat rows and
    // oids equal the layout's serial run slot for slot, and the serial
    // run equals the row layout's (rows come back in oid order).
    ParallelWorld &w = world();
    GroupFoldWorld &g = groupWorld();
    for (bool compress : {false, true}) {
        for (const auto &[name, db] : g.partitioned) {
            Database copy(w.data, db->layout(), name, nullptr, compress);
            for (size_t qi = 0; qi < w.queries.size(); ++qi) {
                const Query &q = w.queries[qi];
                SCOPED_TRACE(name + (compress ? " compressed " : " ") +
                             q.name);
                ResultSet serial = Executor(copy, 1).run(q);
                EXPECT_TRUE(serial.equals(w.row_ref[qi]));
                EXPECT_EQ(serial.oids, w.row_ref[qi].oids);
                for (size_t threads : {2u, 3u, 4u, 8u}) {
                    SCOPED_TRACE("threads=" + std::to_string(threads));
                    Executor exec(copy, threads);
                    exec.setMorselRows(64);
                    expectSame(exec.run(q), serial);
                }
            }
        }
    }
}

TEST(FlatRows, ArgoRowsMatchTheRowLayout)
{
    ParallelWorld &w = world();
    GroupFoldWorld &g = groupWorld();
    for (argo::ArgoStore *store : {g.argo1.get(), g.argo3.get()}) {
        argo::ArgoExecutor exec(*store);
        for (size_t qi = 0; qi < w.queries.size(); ++qi) {
            SCOPED_TRACE(w.queries[qi].name);
            ResultSet got = exec.run(w.queries[qi]);
            const ResultSet &ref = w.row_ref[qi];
            EXPECT_EQ(got.oids, ref.oids);
            EXPECT_TRUE(got.equals(ref));
            EXPECT_EQ(got.digest(), ref.digest());
            EXPECT_EQ(got.checksum, ref.checksum);
            if (!ref.rows.empty()) {
                EXPECT_EQ(got.rows.width(), ref.rows.width());
            }
        }
    }
}

TEST(FlatRows, EmptyResultsAndTheJoinWidth)
{
    ParallelWorld &w = world();
    for (size_t threads : {1u, 2u, 4u}) {
        Executor exec(*w.dvp, threads);
        exec.setMorselRows(64);
        SCOPED_TRACE("threads=" + std::to_string(threads));

        // A predicate no document satisfies: no rows, no oids.
        Query none = w.queries[5]; // Q6: num BETWEEN
        none.cond.lo = -2;
        none.cond.hi = -1;
        ResultSet empty = exec.run(none);
        EXPECT_TRUE(empty.rows.empty());
        EXPECT_TRUE(empty.oids.empty());
        EXPECT_EQ(empty.digest(), engine::kFnvOffset);

        // The join's l.* + r.* result is one [left oid, right oid]
        // row per matching pair.
        for (const Query &q : w.queries) {
            if (q.kind != engine::QueryKind::Join)
                continue;
            ResultSet rs = exec.run(q);
            ASSERT_FALSE(rs.rows.empty());
            EXPECT_EQ(rs.rows.width(), 2u);
            EXPECT_EQ(rs.rows.slots().size(), 2 * rs.rows.size());
        }
    }
}

} // namespace
} // namespace dvp
