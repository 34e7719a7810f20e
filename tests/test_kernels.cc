/**
 * @file
 * Vectorized scan-kernel tests (DESIGN.md §12).
 *
 * Four contracts:
 *  1. Kernel semantics — matchOne agrees with Condition::matches, the
 *     branch-free scalar kernels agree with matchOne (randomized over
 *     all ops x null densities x strides x batch-boundary offsets), and
 *     the AVX2 forms agree with the scalar forms slot-for-slot.  The
 *     NULL-sentinel edges (BETWEEN abutting INT64_MIN, an Eq literal
 *     with the sentinel bit pattern) never match in either form.
 *  2. Zone maps — Table::append maintains exact per-(block, column)
 *     min/max/null summaries under construction, Database::insert, and
 *     an adaptive repartition swap; zoneCanMatch never skips a block
 *     containing a match.
 *  3. Executor equivalence — with vectorization on, results are
 *     bit-identical to the row-at-a-time loop across thread counts,
 *     morsel sizes, and layouts, and the simulated counters (Fig. 6-7
 *     path) are exactly unchanged.
 *  4. Observability — block scan/skip counters reach the registry and
 *     the Prometheus export, and a clustered low-selectivity BETWEEN
 *     actually skips blocks.
 *
 * The whole binary runs twice in ctest: once with default dispatch and
 * once under DVP_FORCE_SCALAR=1 (test_kernels_scalar), so the executor
 * suites cover both dispatch outcomes end to end.
 */

#include <gtest/gtest.h>

#include <climits>
#include <cstdlib>
#include <vector>

#include "adaptive/adaptive_engine.hh"
#include "engine/database.hh"
#include "engine/executor.hh"
#include "engine/kernels.hh"
#include "engine/query.hh"
#include "nobench/generator.hh"
#include "nobench/queries.hh"
#include "nobench/workload.hh"
#include "obs/export.hh"
#include "obs/metrics.hh"
#include "storage/table.hh"
#include "storage/value.hh"
#include "util/arena.hh"
#include "util/random.hh"

namespace dvp
{
namespace
{

using engine::Condition;
using engine::CondOp;
using engine::Database;
using engine::DataSet;
using engine::Executor;
using engine::Query;
using engine::QueryKind;
using engine::ResultSet;
using layout::Layout;
using storage::kNullSlot;
using storage::kZoneRows;
using storage::Slot;
using storage::Table;
using storage::ZoneEntry;
namespace k = engine::kernels;

size_t
testDocs()
{
    if (const char *env = std::getenv("DVP_TEST_DOCS"))
        return std::strtoull(env, nullptr, 10);
    return 5000;
}

constexpr k::PredOp kAllOps[] = {
    k::PredOp::Eq,      k::PredOp::Ne,     k::PredOp::Lt,
    k::PredOp::Le,      k::PredOp::Gt,     k::PredOp::Ge,
    k::PredOp::Between, k::PredOp::StrEq,  k::PredOp::IsNull,
    k::PredOp::NotNull,
};

/** Random slot: numeric in a small range, string-tagged, or NULL. */
Slot
randomSlot(Rng &rng, double null_density, double string_density)
{
    double d = rng.uniform();
    if (d < null_density)
        return kNullSlot;
    if (d < null_density + string_density)
        return storage::encodeString(
            static_cast<storage::StringId>(rng.below(16)));
    // A narrow numeric domain (with negatives) keeps every op's match
    // probability far from 0 and 1.
    return rng.range(-8, 8);
}

/** Reference selection via matchOne (the single-slot semantics). */
std::vector<uint32_t>
oracleSel(const k::Pred &p, const Slot *col, size_t stride, size_t n)
{
    std::vector<uint32_t> out;
    for (size_t i = 0; i < n; ++i)
        if (k::matchOne(p, col[i * stride]))
            out.push_back(static_cast<uint32_t>(i));
    return out;
}

void
expectSelEq(const k::SelVec &sel, const std::vector<uint32_t> &ref,
            const char *what)
{
    ASSERT_EQ(sel.n, ref.size()) << what;
    for (uint32_t i = 0; i < sel.n; ++i)
        ASSERT_EQ(sel.idx[i], ref[i]) << what << " at " << i;
}

// ---------------------------------------------------------------------
// 1. Kernel semantics
// ---------------------------------------------------------------------

TEST(KernelSemantics, MatchOneAgreesWithConditionMatches)
{
    Rng rng(1);
    std::vector<Condition> conds;
    Condition eq;
    eq.op = CondOp::Eq;
    eq.lo = 3;
    conds.push_back(eq);
    Condition eq_str;
    eq_str.op = CondOp::Eq;
    eq_str.lo = storage::encodeString(5);
    conds.push_back(eq_str);
    Condition any;
    any.op = CondOp::AnyEq;
    any.lo = storage::encodeString(2);
    conds.push_back(any);
    Condition bt;
    bt.op = CondOp::Between;
    bt.lo = -2;
    bt.hi = 4;
    conds.push_back(bt);

    for (const Condition &c : conds) {
        k::Pred p = k::fromCondition(c);
        for (int i = 0; i < 20000; ++i) {
            Slot s = randomSlot(rng, 0.2, 0.2);
            ASSERT_EQ(k::matchOne(p, s), c.matches(s))
                << "op=" << static_cast<int>(c.op) << " slot=" << s;
        }
        // The sentinel and tag-boundary values themselves.
        for (Slot s : {kNullSlot, kNullSlot + 1, INT64_MAX, Slot{0},
                       storage::kStringTag, storage::encodeString(0)})
            ASSERT_EQ(k::matchOne(p, s), c.matches(s)) << "slot=" << s;
    }
}

TEST(KernelSemantics, FromConditionMapsStringEqToStrEq)
{
    Condition c;
    c.op = CondOp::Eq;
    c.lo = storage::encodeString(7);
    EXPECT_EQ(k::fromCondition(c).op, k::PredOp::StrEq);
    c.lo = 7;
    EXPECT_EQ(k::fromCondition(c).op, k::PredOp::Eq);
    c.op = CondOp::Between;
    c.hi = 9;
    EXPECT_EQ(k::fromCondition(c).op, k::PredOp::Between);
}

/** Literal pairs exercised per op (lo, hi; hi unused except Between). */
std::vector<std::pair<Slot, Slot>>
literalsFor(k::PredOp op, Rng &rng)
{
    std::vector<std::pair<Slot, Slot>> ls;
    for (int i = 0; i < 4; ++i) {
        Slot lo = rng.range(-8, 8);
        ls.emplace_back(lo, lo + static_cast<Slot>(rng.below(6)));
    }
    if (op == k::PredOp::StrEq)
        for (auto &[lo, hi] : ls)
            lo = hi = storage::encodeString(
                static_cast<storage::StringId>(lo & 15));
    // Edge literals: the sentinel bit pattern, abutting ranges, and
    // extreme bounds.
    ls.emplace_back(kNullSlot, kNullSlot);
    ls.emplace_back(kNullSlot, kNullSlot + 100);
    ls.emplace_back(INT64_MIN + 1, INT64_MAX);
    ls.emplace_back(INT64_MAX, INT64_MAX);
    return ls;
}

/** Batch lengths straddling vector-width and batch boundaries. */
const size_t kLens[] = {0, 1, 3, 4, 5, 7, 63, 64, 100, 2047, 2048};

TEST(KernelSemantics, ScalarKernelMatchesOracle)
{
    Rng rng(2);
    const double null_densities[] = {0.0, 0.1, 0.5, 1.0};
    for (k::PredOp op : kAllOps) {
        k::KernelFn fn = k::scalarKernel(op);
        ASSERT_NE(fn, nullptr);
        for (double nd : null_densities) {
            for (size_t stride : {size_t{1}, size_t{3}, size_t{9}}) {
                for (size_t n : kLens) {
                    std::vector<Slot> data(std::max<size_t>(n, 1) *
                                           stride);
                    for (Slot &s : data)
                        s = randomSlot(rng, nd, 0.2);
                    for (auto [lo, hi] : literalsFor(op, rng)) {
                        k::Pred p{op, lo, hi};
                        k::SelVec sel;
                        fn(data.data(), stride, n, lo, hi, sel);
                        expectSelEq(sel,
                                    oracleSel(p, data.data(), stride, n),
                                    k::predName(op));
                    }
                }
            }
        }
    }
}

TEST(KernelSemantics, SimdKernelMatchesScalarKernel)
{
    if (k::simdKernel(k::PredOp::Eq) == nullptr)
        GTEST_SKIP() << "no AVX2 on this machine";
    Rng rng(3);
    const double null_densities[] = {0.0, 0.1, 0.5, 1.0};
    for (k::PredOp op : kAllOps) {
        k::KernelFn scalar = k::scalarKernel(op);
        k::KernelFn simd = k::simdKernel(op);
        ASSERT_NE(simd, nullptr);
        for (double nd : null_densities) {
            for (size_t stride : {size_t{1}, size_t{3}, size_t{9}}) {
                for (size_t n : kLens) {
                    std::vector<Slot> data(std::max<size_t>(n, 1) *
                                           stride);
                    for (Slot &s : data)
                        s = randomSlot(rng, nd, 0.2);
                    for (auto [lo, hi] : literalsFor(op, rng)) {
                        k::SelVec a, b;
                        scalar(data.data(), stride, n, lo, hi, a);
                        simd(data.data(), stride, n, lo, hi, b);
                        ASSERT_EQ(a.n, b.n) << k::predName(op);
                        for (uint32_t i = 0; i < a.n; ++i)
                            ASSERT_EQ(a.idx[i], b.idx[i])
                                << k::predName(op) << " at " << i;
                    }
                }
            }
        }
    }
}

/** Run @p op over @p data in both forms; expect zero matches. */
void
expectNoMatchBothForms(k::PredOp op, Slot lo, Slot hi,
                       const std::vector<Slot> &data)
{
    k::SelVec sel;
    k::scalarKernel(op)(data.data(), 1, data.size(), lo, hi, sel);
    EXPECT_EQ(sel.n, 0u) << "scalar " << k::predName(op);
    if (k::KernelFn simd = k::simdKernel(op)) {
        simd(data.data(), 1, data.size(), lo, hi, sel);
        EXPECT_EQ(sel.n, 0u) << "avx2 " << k::predName(op);
    }
}

TEST(KernelSemantics, NullSentinelNeverMatches)
{
    // A column of nothing but NULLs (and one stray string).
    std::vector<Slot> nulls(100, kNullSlot);
    nulls[57] = storage::encodeString(3);

    // BETWEEN abutting the sentinel value: [INT64_MIN, x] contains the
    // sentinel bit pattern, yet NULL slots must not match.
    expectNoMatchBothForms(k::PredOp::Between, INT64_MIN,
                           INT64_MIN + 1000, nulls);
    // Unbounded-ish range covering the whole numeric domain: NULLs and
    // strings still excluded (the string makes sel.n 0 only because
    // range ops are numeric-only).
    std::vector<Slot> only_nulls(100, kNullSlot);
    expectNoMatchBothForms(k::PredOp::Between, INT64_MIN, INT64_MAX,
                           only_nulls);
    // An Eq literal with the sentinel bit pattern: compares equal
    // bitwise, must still never match (NULL != NULL in SQL terms).
    expectNoMatchBothForms(k::PredOp::Eq, kNullSlot, kNullSlot,
                           only_nulls);
    // Relational ops against the sentinel bit pattern as a literal.
    expectNoMatchBothForms(k::PredOp::Le, INT64_MIN + 10, 0, only_nulls);
    expectNoMatchBothForms(k::PredOp::Ge, INT64_MIN, 0, only_nulls);
    expectNoMatchBothForms(k::PredOp::Ne, 42, 0, only_nulls);

    // A double reinterpreted to the sentinel's bit pattern is the same
    // 8 bytes; the engine stores no such value, but a column holding
    // the pattern must behave as NULL, not as a number.
    static_assert(static_cast<Slot>(0x8000000000000000ull) == kNullSlot);
    std::vector<Slot> pattern(64,
                              static_cast<Slot>(0x8000000000000000ull));
    expectNoMatchBothForms(k::PredOp::Between, INT64_MIN, INT64_MAX,
                           pattern);
    expectNoMatchBothForms(k::PredOp::Lt, 0, 0, pattern);

    // IsNull is the one op the sentinel must match.
    k::SelVec sel;
    k::scalarKernel(k::PredOp::IsNull)(only_nulls.data(), 1,
                                       only_nulls.size(), 0, 0, sel);
    EXPECT_EQ(sel.n, only_nulls.size());
}

TEST(KernelSemantics, DispatchRespectsForceScalarOverride)
{
    const char *force = std::getenv("DVP_FORCE_SCALAR");
    bool forced = force != nullptr && force[0] != '\0' &&
                  force[0] != '0';
    if (forced) {
        EXPECT_FALSE(k::simdActive());
        EXPECT_STREQ(k::activeForm(), "scalar");
        EXPECT_EQ(k::kernel(k::PredOp::Eq),
                  k::scalarKernel(k::PredOp::Eq));
    } else if (k::simdKernel(k::PredOp::Eq) != nullptr) {
        EXPECT_TRUE(k::simdActive());
        EXPECT_STREQ(k::activeForm(), "avx2");
    }
}

// ---------------------------------------------------------------------
// 2. Zone maps
// ---------------------------------------------------------------------

/** Recompute the zone entries of @p t from its cells. */
std::vector<ZoneEntry>
referenceZones(const Table &t)
{
    std::vector<ZoneEntry> zones(t.blockCount() * t.attrCount());
    for (size_t r = 0; r < t.rows(); ++r) {
        for (size_t c = 0; c < t.attrCount(); ++c) {
            ZoneEntry &z = zones[(r / kZoneRows) * t.attrCount() + c];
            Slot s = t.cell(r, c);
            if (storage::isNull(s)) {
                ++z.nulls;
            } else {
                z.min = std::min(z.min, s);
                z.max = std::max(z.max, s);
                ++z.nonnull;
            }
        }
    }
    return zones;
}

void
expectZonesExact(const Table &t)
{
    std::vector<ZoneEntry> ref = referenceZones(t);
    ASSERT_EQ(t.blockCount(),
              (t.rows() + kZoneRows - 1) / kZoneRows);
    for (size_t b = 0; b < t.blockCount(); ++b) {
        for (size_t c = 0; c < t.attrCount(); ++c) {
            const ZoneEntry &got = t.zone(b, c);
            const ZoneEntry &want = ref[b * t.attrCount() + c];
            EXPECT_EQ(got.min, want.min)
                << t.name() << " block " << b << " col " << c;
            EXPECT_EQ(got.max, want.max)
                << t.name() << " block " << b << " col " << c;
            EXPECT_EQ(got.nonnull, want.nonnull)
                << t.name() << " block " << b << " col " << c;
            EXPECT_EQ(got.nulls, want.nulls)
                << t.name() << " block " << b << " col " << c;
        }
    }
}

TEST(ZoneMaps, MaintainedAcrossAppendsAndBlockBoundaries)
{
    Arena arena;
    Table t("zt", {0, 1, 2}, arena);
    Rng rng(4);
    size_t rows = 2 * kZoneRows + 321; // three blocks, last partial
    int64_t oid = 0;
    for (size_t r = 0; r < rows; ++r) {
        Slot v[3] = {randomSlot(rng, 0.3, 0.2),
                     randomSlot(rng, 0.3, 0.2),
                     randomSlot(rng, 0.3, 0.2)};
        // Occasional all-null rows are omitted by append (sparse
        // omission) and must not open or advance a zone block.
        t.append(oid++, std::span<const Slot>(v, 3));
    }
    EXPECT_GE(t.blockCount(), 2u);
    expectZonesExact(t);
}

TEST(ZoneMaps, AllNullColumnBlockHasEmptyRange)
{
    Arena arena;
    Table t("zn", {0, 1}, arena);
    for (int64_t oid = 0; oid < 100; ++oid) {
        Slot v[2] = {oid, kNullSlot}; // col 1 never set
        t.append(oid, std::span<const Slot>(v, 2));
    }
    const ZoneEntry &z = t.zone(0, 1);
    EXPECT_EQ(z.nonnull, 0u);
    EXPECT_EQ(z.nulls, 100u);
    EXPECT_GT(z.min, z.max); // empty range: initial sentinels
    // No predicate except IsNull can match this block.
    EXPECT_FALSE(k::zoneCanMatch(k::Pred{k::PredOp::Eq, 0, 0}, z));
    EXPECT_FALSE(
        k::zoneCanMatch(k::Pred{k::PredOp::Between, INT64_MIN,
                                INT64_MAX},
                        z));
    EXPECT_FALSE(k::zoneCanMatch(k::Pred{k::PredOp::NotNull, 0, 0}, z));
    EXPECT_TRUE(k::zoneCanMatch(k::Pred{k::PredOp::IsNull, 0, 0}, z));
}

TEST(ZoneMaps, ZoneCanMatchNeverSkipsAMatch)
{
    Rng rng(5);
    for (int round = 0; round < 200; ++round) {
        // A random block summary plus the slots it summarizes.
        size_t n = 1 + rng.below(64);
        std::vector<Slot> block(n);
        ZoneEntry z;
        for (Slot &s : block) {
            s = randomSlot(rng, 0.3, 0.3);
            if (storage::isNull(s)) {
                ++z.nulls;
            } else {
                z.min = std::min(z.min, s);
                z.max = std::max(z.max, s);
                ++z.nonnull;
            }
        }
        for (k::PredOp op : kAllOps) {
            for (auto [lo, hi] : literalsFor(op, rng)) {
                k::Pred p{op, lo, hi};
                bool any = false;
                for (Slot s : block)
                    any = any || k::matchOne(p, s);
                if (any) {
                    EXPECT_TRUE(k::zoneCanMatch(p, z))
                        << k::predName(op) << " lo=" << lo
                        << " hi=" << hi;
                }
            }
        }
    }
}

TEST(ZoneMaps, MaintainedUnderDatabaseInsert)
{
    nobench::Config cfg;
    cfg.numDocs = std::min<size_t>(testDocs(), 3000);
    cfg.seed = 11;
    DataSet data = nobench::generateDataSet(cfg);
    Database db(data, Layout::fixedSize(data.catalog.allAttrs(), 4),
                "hybrid4");

    // Construction-time zones.
    for (size_t ti = 0; ti < db.tableCount(); ++ti)
        expectZonesExact(db.table(ti));

    // Incremental insert across a block boundary.
    nobench::Config more = cfg;
    more.numDocs = cfg.numDocs + 600;
    more.seed = cfg.seed; // same stream: docs [numDocs, numDocs+600)
    DataSet extended = nobench::generateDataSet(more);
    for (size_t d = cfg.numDocs; d < more.numDocs; ++d)
        db.insert(extended.docs[d]);
    for (size_t ti = 0; ti < db.tableCount(); ++ti)
        expectZonesExact(db.table(ti));
}

TEST(ZoneMaps, FreshAfterAdaptiveRepartitionSwap)
{
    nobench::Config cfg;
    cfg.numDocs = std::min<size_t>(testDocs(), 1500);
    cfg.seed = 23;
    DataSet data = nobench::generateDataSet(cfg);
    nobench::QuerySet qs(data, cfg);
    Rng rng(29);

    std::vector<Query> initial;
    for (int t = 0; t < 3; ++t)
        initial.push_back(qs.instantiate(t, rng));

    adaptive::Params prm;
    prm.window = 20;
    prm.changeThreshold = 0.2;
    prm.background = false; // synchronous swap: deterministic
    adaptive::AdaptiveEngine eng(data, initial, prm);

    std::vector<Query> shifted;
    for (int t = 0; t < nobench::kNumTemplates; ++t)
        shifted.push_back(qs.instantiateShifted(t, rng));
    Rng pick(31);
    for (int r = 0;
         r < 200 && eng.adaptation().repartitions.load() == 0; ++r)
        eng.execute(shifted[pick.below(shifted.size())]);
    ASSERT_GE(eng.adaptation().repartitions.load(), 1u)
        << "shifted workload did not trigger a repartition";

    // The swapped-in tables were built fresh, so their zone maps must
    // be exact for every block of every partition.
    std::shared_ptr<Database> db = eng.snapshot();
    for (size_t ti = 0; ti < db->tableCount(); ++ti)
        expectZonesExact(db->table(ti));
}

// ---------------------------------------------------------------------
// 3. Executor equivalence
// ---------------------------------------------------------------------

/** Shared world: one data set, several layouts, NoBench queries. */
struct KernelWorld
{
    nobench::Config cfg;
    DataSet data;
    std::vector<Query> queries; ///< all 11 templates + clustered id scan
    std::vector<std::unique_ptr<Database>> dbs;

    KernelWorld()
    {
        cfg.numDocs = testDocs();
        cfg.seed = 4242;
        data = nobench::generateDataSet(cfg);
        nobench::QuerySet qs(data, cfg);
        Rng rng(7);
        for (int t = 0; t < nobench::kNumTemplates; ++t)
            queries.push_back(qs.instantiate(t, rng));
        queries.push_back(clusteredIdBetween());

        const std::vector<storage::AttrId> attrs =
            data.catalog.allAttrs();
        dbs.push_back(std::make_unique<Database>(
            data, Layout::rowBased(attrs), "row"));
        dbs.push_back(std::make_unique<Database>(
            data, Layout::columnBased(attrs), "column"));
        dbs.push_back(std::make_unique<Database>(
            data, Layout::fixedSize(attrs, 4), "hybrid4"));
    }

    /**
     * BETWEEN on `id`, which equals the oid and is therefore perfectly
     * clustered: zone maps prune every block outside the range.  The
     * range selects ~0.1% of documents.
     */
    Query
    clusteredIdBetween() const
    {
        Query q;
        q.name = "Qid";
        q.kind = QueryKind::Select;
        storage::AttrId id = data.catalog.find("id");
        storage::AttrId num = data.catalog.find("num");
        EXPECT_NE(id, storage::kNoAttr);
        EXPECT_NE(num, storage::kNoAttr);
        q.projected = {id, num};
        q.cond.op = CondOp::Between;
        q.cond.attr = id;
        q.cond.lo = 100;
        q.cond.hi = 100 + static_cast<Slot>(cfg.numDocs / 1000);
        q.selectivity = 0.001;
        return q;
    }
};

KernelWorld &
kworld()
{
    static KernelWorld w;
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

TEST(VectorizedExecutor, MatchesRowLoopAcrossLayoutsAndThreads)
{
    KernelWorld &w = kworld();
    for (const auto &db : w.dbs) {
        for (const Query &q : w.queries) {
            // The row-at-a-time loop is the oracle.
            Executor oracle(*db);
            oracle.setVectorized(false);
            ResultSet ref = oracle.run(q);

            for (size_t threads : {1u, 2u, 4u, 8u}) {
                Executor exec(*db, threads);
                ASSERT_TRUE(exec.vectorized());
                expectSame(exec.run(q), ref);

                // Block-unaligned morsels: sub-block kernel ranges.
                Executor small(*db, threads);
                small.setMorselRows(64);
                expectSame(small.run(q), ref);
            }
        }
    }
}

TEST(VectorizedExecutor, SimulatedCountersExactlyUnchanged)
{
    // The traced overload must ignore the vectorization knob entirely:
    // identical counters and results whether the executor has
    // vectorization on (default) or explicitly off.
    KernelWorld &w = kworld();
    auto &db = *w.dbs[0];
    for (const Query &q : w.queries) {
        perf::MemoryHierarchy mh_on;
        Executor on(db);
        on.setVectorized(true);
        ResultSet rs_on = on.run(q, mh_on);

        perf::MemoryHierarchy mh_off;
        Executor off(db);
        off.setVectorized(false);
        ResultSet rs_off = off.run(q, mh_off);

        expectSame(rs_on, rs_off);
        auto a = mh_on.counters();
        auto b = mh_off.counters();
        EXPECT_EQ(a.accesses, b.accesses) << q.name;
        EXPECT_EQ(a.l1Misses, b.l1Misses) << q.name;
        EXPECT_EQ(a.l2Misses, b.l2Misses) << q.name;
        EXPECT_EQ(a.l3Misses, b.l3Misses) << q.name;
        EXPECT_EQ(a.tlbMisses, b.tlbMisses) << q.name;
    }
}

// ---------------------------------------------------------------------
// 4. Observability
// ---------------------------------------------------------------------

TEST(BlockSkipping, ClusteredBetweenSkipsBlocksAndExportsCounters)
{
    KernelWorld &w = kworld();
    if (w.cfg.numDocs <= kZoneRows)
        GTEST_SKIP() << "needs more than one zone block";
    auto &db = *w.dbs[0]; // row layout: id column in the one table
    Query q = w.queries.back(); // the clustered id BETWEEN

    auto &reg = obs::Registry::global();
    uint64_t scanned0 = reg.counter("dvp_blocks_scanned_total").value();
    uint64_t skipped0 = reg.counter("dvp_blocks_skipped_total").value();
    std::string inv_name =
        std::string("dvp_kernel_invocations_total{kernel=\"between\","
                    "form=\"") +
        k::activeForm() + "\"}";
    uint64_t inv0 = reg.counter(inv_name).value();

    Executor exec(db);
    ResultSet rs = exec.run(q);
    EXPECT_GT(rs.rowCount(), 0u);

    uint64_t scanned =
        reg.counter("dvp_blocks_scanned_total").value() - scanned0;
    uint64_t skipped =
        reg.counter("dvp_blocks_skipped_total").value() - skipped0;
    uint64_t inv = reg.counter(inv_name).value() - inv0;

    // id == oid, so the 0.1% range lives in one block and every other
    // block is pruned by its zone map.
    EXPECT_GT(scanned, 0u);
    EXPECT_GT(skipped, 0u);
    EXPECT_EQ(scanned + skipped,
              (db.table(0).rows() + kZoneRows - 1) / kZoneRows);
    EXPECT_EQ(inv, scanned); // one kernel invocation per scanned block

    // All three counters surface in the Prometheus export.
    std::string prom = obs::exportPrometheus(reg);
    EXPECT_NE(prom.find("dvp_blocks_scanned_total"), std::string::npos);
    EXPECT_NE(prom.find("dvp_blocks_skipped_total"), std::string::npos);
    EXPECT_NE(prom.find("dvp_kernel_invocations_total"),
              std::string::npos);
}

TEST(BlockSkipping, RowsScannedIndependentOfThreadsAndMorsels)
{
    // The skip decision is per block, so dvp_rows_scanned_total for a
    // given query must not depend on how morsels partition the scan.
    KernelWorld &w = kworld();
    auto &db = *w.dbs[0];
    Query q = w.queries.back();
    auto &reg = obs::Registry::global();
    std::string name =
        "dvp_rows_scanned_total{layout=\"" + db.name() + "\"}";

    auto scanOnce = [&](size_t threads, size_t morsel) {
        uint64_t before = reg.counter(name).value();
        Executor exec(db, threads);
        if (morsel != 0)
            exec.setMorselRows(morsel);
        exec.run(q);
        return reg.counter(name).value() - before;
    };

    uint64_t serial = scanOnce(1, 0);
    EXPECT_EQ(scanOnce(4, 0), serial);
    EXPECT_EQ(scanOnce(4, 64), serial);
    EXPECT_EQ(scanOnce(8, 100), serial); // block-unaligned morsels
}

} // namespace
} // namespace dvp
