/**
 * @file
 * Compressed partition-block tests (DESIGN.md §14).
 *
 * Five contracts:
 *  1. Codec round-trip — compressColumn / decompressColumn / columnValue
 *     reproduce the input slots exactly across value domains (all-null,
 *     constant, small-range, wide, string-tagged, sorted) x null
 *     densities x row counts x strides, and the chosen format is never
 *     larger than the raw encoding.
 *  2. Scan-on-compressed — evalColBlock agrees with matchOne
 *     slot-for-slot for all ten predicate ops over every encoding and
 *     over unaligned sub-ranges, without decompressing on the Rle/Pack
 *     fast paths.
 *  3. Table equivalence — a compressed Table answers oid()/cell()/
 *     materializeRecord()/zone() exactly like the raw Table for the
 *     same appends, while bytesUsed() reports a smaller footprint for
 *     compressible data.
 *  4. Executor equivalence — with compression on, every NoBench query
 *     (plus IS [NOT] NULL and a clustered range) returns bit-identical
 *     results to the uncompressed oracle across layouts, thread counts,
 *     and morsel sizes, and compression survives an adaptive
 *     repartition swap.
 *  5. Observability — the dvp_partition_bytes / dvp_db_bytes gauges
 *     report the footprint, and the compressed-eval path counters tick.
 *
 * The binary runs twice in ctest: default dispatch and
 * DVP_FORCE_SCALAR=1 (test_compress_scalar), covering both kernel
 * dispatch outcomes on the compressed Raw/Decompress paths.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <climits>
#include <cstdlib>
#include <memory>
#include <set>
#include <vector>

#include "adaptive/adaptive_engine.hh"
#include "dvp/cost_model.hh"
#include "engine/database.hh"
#include "json/flatten.hh"
#include "json/value.hh"
#include "engine/executor.hh"
#include "engine/kernels.hh"
#include "engine/query.hh"
#include "nobench/generator.hh"
#include "nobench/queries.hh"
#include "obs/export.hh"
#include "obs/metrics.hh"
#include "sql/parser.hh"
#include "storage/compress.hh"
#include "storage/table.hh"
#include "storage/value.hh"
#include "util/arena.hh"
#include "util/random.hh"

namespace dvp
{
namespace
{

using engine::CondOp;
using engine::Database;
using engine::DataSet;
using engine::Executor;
using engine::Query;
using engine::QueryKind;
using engine::ResultSet;
using layout::Layout;
using storage::BlockFmt;
using storage::ColBlock;
using storage::compressColumn;
using storage::columnValue;
using storage::decompressColumn;
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

// ---------------------------------------------------------------------
// 1. Codec round-trip
// ---------------------------------------------------------------------

/** Value domains exercising each encoding and the fallbacks. */
enum class Domain
{
    AllNull,    ///< Rle, single run
    Constant,   ///< Rle, one value
    RunHeavy,   ///< Rle, long runs of few values
    SmallRange, ///< Pack, narrow frame
    Sorted,     ///< Pack, oid-like
    Strings,    ///< Pack or Raw, tagged slots
    Wide,       ///< Raw (range overflows the pack width)
    Mixed       ///< anything goes
};

constexpr Domain kDomains[] = {
    Domain::AllNull, Domain::Constant, Domain::RunHeavy,
    Domain::SmallRange, Domain::Sorted, Domain::Strings,
    Domain::Wide, Domain::Mixed,
};

std::vector<Slot>
makeColumn(Domain d, size_t n, double null_density, Rng &rng)
{
    std::vector<Slot> col(n);
    Slot run_val = 0;
    size_t run_left = 0;
    for (size_t i = 0; i < n; ++i) {
        if (d != Domain::AllNull && d != Domain::Constant &&
            rng.uniform() < null_density) {
            col[i] = kNullSlot;
            continue;
        }
        switch (d) {
          case Domain::AllNull:
            col[i] = kNullSlot;
            break;
          case Domain::Constant:
            col[i] = 42;
            break;
          case Domain::RunHeavy:
            if (run_left == 0) {
                run_val = rng.range(-3, 3);
                run_left = 1 + rng.below(200);
            }
            --run_left;
            col[i] = run_val;
            break;
          case Domain::SmallRange:
            col[i] = rng.range(-100, 100);
            break;
          case Domain::Sorted:
            col[i] = static_cast<Slot>(i * 3 + rng.below(2));
            break;
          case Domain::Strings:
            col[i] = storage::encodeString(
                static_cast<storage::StringId>(rng.below(32)));
            break;
          case Domain::Wide:
            col[i] = static_cast<Slot>(rng.next()) / 2;
            break;
          case Domain::Mixed: {
            double u = rng.uniform();
            if (u < 0.25)
                col[i] = storage::encodeString(
                    static_cast<storage::StringId>(rng.below(8)));
            else if (u < 0.5)
                col[i] = static_cast<Slot>(rng.next()) / 2;
            else
                col[i] = rng.range(-8, 8);
            break;
          }
        }
    }
    return col;
}

TEST(CompressCodec, RoundTripAcrossDomains)
{
    Rng rng(101);
    const size_t sizes[] = {1, 5, 64, 1000, kZoneRows - 1, kZoneRows};
    for (Domain d : kDomains) {
        for (double nulls : {0.0, 0.05, 0.5, 0.95}) {
            for (size_t n : sizes) {
                std::vector<Slot> col = makeColumn(d, n, nulls, rng);
                ColBlock cb = compressColumn(col.data(), 1, n);
                ASSERT_EQ(cb.rows, n);
                // Never larger than raw (the chooser's contract).
                EXPECT_LE(cb.payloadBytes(),
                          n * 8 + (cb.fmt == BlockFmt::Pack ? 8 : 0));

                std::vector<Slot> out(n, ~Slot{0});
                decompressColumn(cb, out.data());
                ASSERT_EQ(out, col)
                    << "domain=" << static_cast<int>(d)
                    << " nulls=" << nulls << " n=" << n
                    << " fmt=" << storage::fmtName(cb.fmt);

                // Random access agrees with bulk decode.
                for (int probes = 0; probes < 64; ++probes) {
                    size_t i = rng.below(n);
                    ASSERT_EQ(columnValue(cb, i), col[i]);
                }
            }
        }
    }
}

TEST(CompressCodec, StridedInputMatchesDense)
{
    Rng rng(103);
    const size_t n = kZoneRows;
    for (size_t stride : {size_t{2}, size_t{5}}) {
        std::vector<Slot> dense = makeColumn(Domain::Mixed, n, 0.3, rng);
        std::vector<Slot> strided(n * stride, -7);
        for (size_t i = 0; i < n; ++i)
            strided[i * stride] = dense[i];
        ColBlock a = compressColumn(dense.data(), 1, n);
        ColBlock b = compressColumn(strided.data(), stride, n);
        EXPECT_EQ(a.fmt, b.fmt);
        EXPECT_EQ(a.bytes, b.bytes);
    }
}

TEST(CompressCodec, FormatSelection)
{
    Rng rng(107);

    // All-null: one RLE run, a few bytes for 2048 rows.
    std::vector<Slot> nulls(kZoneRows, kNullSlot);
    ColBlock cn = compressColumn(nulls.data(), 1, kZoneRows);
    EXPECT_EQ(cn.fmt, BlockFmt::Rle);
    EXPECT_EQ(cn.runs, 1u);
    EXPECT_LE(cn.payloadBytes(), size_t{16});

    // Sorted oid-like: frame-of-reference pack, ~12 bits per row.
    std::vector<Slot> oids(kZoneRows);
    for (size_t i = 0; i < kZoneRows; ++i)
        oids[i] = static_cast<Slot>(1000000 + i * 2);
    ColBlock co = compressColumn(oids.data(), 1, kZoneRows);
    EXPECT_EQ(co.fmt, BlockFmt::Pack);
    EXPECT_LT(co.payloadBytes(), kZoneRows * 8 / 4);

    // Wide random 63-bit values: nothing beats raw.
    std::vector<Slot> wide = makeColumn(Domain::Wide, kZoneRows, 0, rng);
    ColBlock cw = compressColumn(wide.data(), 1, kZoneRows);
    EXPECT_EQ(cw.fmt, BlockFmt::Raw);
    EXPECT_EQ(cw.payloadBytes(), kZoneRows * 8);
}

TEST(CompressCodec, PackEdgeCases)
{
    // Range of exactly 2^56 - 2 still packs (codes need range + 1
    // values plus the NULL escape); one more falls back.
    {
        std::vector<Slot> col(kZoneRows, 0);
        col[1] = (Slot{1} << 56) - 2;
        ColBlock cb = compressColumn(col.data(), 1, kZoneRows);
        std::vector<Slot> out(kZoneRows);
        decompressColumn(cb, out.data());
        EXPECT_EQ(out, col);
    }
    {
        std::vector<Slot> col(kZoneRows, 0);
        col[1] = Slot{1} << 60;
        ColBlock cb = compressColumn(col.data(), 1, kZoneRows);
        EXPECT_NE(cb.fmt, BlockFmt::Pack);
        std::vector<Slot> out(kZoneRows);
        decompressColumn(cb, out.data());
        EXPECT_EQ(out, col);
    }
    // Negative frames round-trip (base is the signed minimum).
    {
        std::vector<Slot> col(kZoneRows);
        for (size_t i = 0; i < kZoneRows; ++i)
            col[i] = -5000 + static_cast<Slot>(i);
        col[7] = kNullSlot;
        ColBlock cb = compressColumn(col.data(), 1, kZoneRows);
        EXPECT_EQ(cb.fmt, BlockFmt::Pack);
        std::vector<Slot> out(kZoneRows);
        decompressColumn(cb, out.data());
        EXPECT_EQ(out, col);
    }
}

// ---------------------------------------------------------------------
// 2. Scan-on-compressed
// ---------------------------------------------------------------------

/** Zone summary of a slot span (what Table::append maintains). */
ZoneEntry
zoneOf(const std::vector<Slot> &col)
{
    ZoneEntry z;
    for (Slot s : col) {
        if (storage::isNull(s)) {
            ++z.nulls;
        } else {
            z.min = std::min(z.min, s);
            z.max = std::max(z.max, s);
            ++z.nonnull;
        }
    }
    return z;
}

/** Literals keeping every op's match rate away from 0 and 1. */
std::vector<std::pair<Slot, Slot>>
literalsFor(k::PredOp op, Rng &rng)
{
    switch (op) {
      case k::PredOp::Between:
        return {{-3, 3},
                {rng.range(-120, 0), rng.range(0, 120)},
                {INT64_MIN, INT64_MAX},
                {5, -5}}; // empty range
      case k::PredOp::StrEq:
        return {{storage::encodeString(
                     static_cast<storage::StringId>(rng.below(32))),
                 0}};
      case k::PredOp::IsNull:
      case k::PredOp::NotNull:
        return {{0, 0}};
      default:
        return {{rng.range(-100, 100), 0},
                {kNullSlot, 0},           // sentinel literal never matches
                {Slot{1} << 58, 0}};      // far outside every frame
    }
}

constexpr k::PredOp kAllOps[] = {
    k::PredOp::Eq,      k::PredOp::Ne,     k::PredOp::Lt,
    k::PredOp::Le,      k::PredOp::Gt,     k::PredOp::Ge,
    k::PredOp::Between, k::PredOp::StrEq,  k::PredOp::IsNull,
    k::PredOp::NotNull,
};

TEST(EvalColBlock, AgreesWithMatchOneEverywhere)
{
    Rng rng(211);
    std::vector<Slot> scratch(kZoneRows);
    k::SelVec sel;
    for (Domain d : kDomains) {
        for (double nulls : {0.0, 0.3, 0.9}) {
            std::vector<Slot> col =
                makeColumn(d, kZoneRows, nulls, rng);
            ColBlock cb = compressColumn(col.data(), 1, kZoneRows);
            ZoneEntry z = zoneOf(col);
            for (k::PredOp op : kAllOps) {
                for (auto [lo, hi] : literalsFor(op, rng)) {
                    k::Pred p{op, lo, hi};
                    // Full block plus unaligned sub-ranges.
                    const std::pair<size_t, size_t> ranges[] = {
                        {0, kZoneRows},
                        {0, 64},
                        {17, 1900},
                        {kZoneRows - 5, kZoneRows},
                    };
                    for (auto [i0, i1] : ranges) {
                        k::evalColBlock(cb, i0, i1, p, z,
                                        scratch.data(), sel);
                        std::vector<uint32_t> ref;
                        for (size_t i = i0; i < i1; ++i)
                            if (k::matchOne(p, col[i]))
                                ref.push_back(
                                    static_cast<uint32_t>(i - i0));
                        ASSERT_EQ(sel.n, ref.size())
                            << storage::fmtName(cb.fmt) << " "
                            << k::predName(op) << " lo=" << lo
                            << " hi=" << hi << " [" << i0 << ","
                            << i1 << ")";
                        for (uint32_t i = 0; i < sel.n; ++i)
                            ASSERT_EQ(sel.idx[i], ref[i]);
                    }
                }
            }
        }
    }
}

TEST(EvalColBlock, FastPathsAvoidDecompression)
{
    Rng rng(223);
    std::vector<Slot> scratch(kZoneRows);
    k::SelVec sel;

    // NULL-run RLE answers IsNull without materializing.
    std::vector<Slot> runs(kZoneRows, kNullSlot);
    for (size_t i = 500; i < 600; ++i)
        runs[i] = 1;
    ColBlock cr = compressColumn(runs.data(), 1, kZoneRows);
    ASSERT_EQ(cr.fmt, BlockFmt::Rle);
    EXPECT_EQ(k::evalColBlock(cr, 0, kZoneRows,
                              k::Pred{k::PredOp::IsNull, 0, 0},
                              zoneOf(runs), scratch.data(), sel),
              k::CompressedPath::RleRuns);
    EXPECT_EQ(sel.n, kZoneRows - 100);

    // Pack answers Eq and Between via translated codes when the zone
    // proves a string-free block.
    std::vector<Slot> ints(kZoneRows);
    for (size_t i = 0; i < kZoneRows; ++i)
        ints[i] = static_cast<Slot>(i % 500);
    ColBlock ci = compressColumn(ints.data(), 1, kZoneRows);
    ASSERT_EQ(ci.fmt, BlockFmt::Pack);
    EXPECT_EQ(k::evalColBlock(ci, 0, kZoneRows,
                              k::Pred{k::PredOp::Eq, 123, 0},
                              zoneOf(ints), scratch.data(), sel),
              k::CompressedPath::PackTranslate);
    EXPECT_EQ(k::evalColBlock(ci, 0, kZoneRows,
                              k::Pred{k::PredOp::Between, 10, 19},
                              zoneOf(ints), scratch.data(), sel),
              k::CompressedPath::PackTranslate);

    // A packed block that may hold strings must not take the
    // code-interval path for range ops (strings would leak into the
    // interval) — but equality still translates exactly.
    std::vector<Slot> tagged(kZoneRows);
    for (size_t i = 0; i < kZoneRows; ++i)
        tagged[i] = storage::encodeString(
            static_cast<storage::StringId>(i % 16));
    ColBlock ct = compressColumn(tagged.data(), 1, kZoneRows);
    if (ct.fmt == BlockFmt::Pack) {
        EXPECT_EQ(k::evalColBlock(ct, 0, kZoneRows,
                                  k::Pred{k::PredOp::Between, INT64_MIN,
                                          INT64_MAX},
                                  zoneOf(tagged), scratch.data(), sel),
                  k::CompressedPath::Decompress);
        EXPECT_EQ(sel.n, 0u); // strings never match a range op
    }
}

// ---------------------------------------------------------------------
// 3. Table equivalence
// ---------------------------------------------------------------------

TEST(CompressedTable, AccessorsMatchRawTable)
{
    Rng rng(307);
    Arena arena;
    Table raw("raw", {0, 1, 2}, arena);
    Table comp("comp", {0, 1, 2}, arena, /*compress=*/true);
    ASSERT_TRUE(comp.isCompressed());
    ASSERT_FALSE(raw.isCompressed());

    // ~3.5 blocks with oid gaps, strings, nulls, and a sorted column.
    int64_t oid = 0;
    size_t appended = 0;
    while (appended < kZoneRows * 3 + 700) {
        oid += 1 + static_cast<int64_t>(rng.below(3));
        Slot v[3];
        v[0] = rng.uniform() < 0.4
                   ? kNullSlot
                   : rng.range(-50, 50);
        v[1] = rng.uniform() < 0.2
                   ? kNullSlot
                   : storage::encodeString(
                         static_cast<storage::StringId>(rng.below(64)));
        v[2] = oid * 7; // clustered
        bool a = raw.append(oid, std::span<const Slot>(v, 3));
        bool b = comp.append(oid, std::span<const Slot>(v, 3));
        ASSERT_EQ(a, b);
        if (a)
            ++appended;
    }

    ASSERT_EQ(raw.rows(), comp.rows());
    ASSERT_EQ(comp.sealedRows(), (comp.rows() / kZoneRows) * kZoneRows);
    ASSERT_EQ(comp.sealedBlocks(), comp.rows() / kZoneRows);

    // Cell-exact equivalence, including across the sealed/tail border.
    std::vector<Slot> rec_raw(4), rec_comp(4);
    for (size_t r = 0; r < raw.rows(); ++r) {
        ASSERT_EQ(raw.oid(r), comp.oid(r)) << "row " << r;
        for (size_t c = 0; c < 3; ++c)
            ASSERT_EQ(raw.cell(r, c), comp.cell(r, c))
                << "row " << r << " col " << c;
        raw.materializeRecord(r, rec_raw.data());
        comp.materializeRecord(r, rec_comp.data());
        ASSERT_EQ(rec_raw, rec_comp) << "row " << r;
    }

    // The PK index and zone maps are unaffected by sealing.
    for (size_t r = 0; r < raw.rows(); r += 97) {
        int64_t o = raw.oid(r);
        EXPECT_EQ(comp.rowOf(o), static_cast<storage::RowIdx>(r));
        EXPECT_EQ(comp.lowerBound(o), r);
    }
    for (size_t b = 0; b < raw.blockCount(); ++b)
        for (size_t c = 0; c < 3; ++c) {
            const ZoneEntry &zr = raw.zone(b, c);
            const ZoneEntry &zc = comp.zone(b, c);
            EXPECT_EQ(zr.min, zc.min);
            EXPECT_EQ(zr.max, zc.max);
            EXPECT_EQ(zr.nonnull, zc.nonnull);
            EXPECT_EQ(zr.nulls, zc.nulls);
        }

    // Footprint: the sparse/clustered columns compress well; the raw
    // table pays 8 bytes a cell regardless.
    EXPECT_EQ(raw.bytesUsed(), raw.storageBytes());
    EXPECT_LT(comp.bytesUsed(), comp.storageBytes());

    // Per-column accounting sums to the whole.
    size_t sum = comp.columnBytesUsed(-1);
    for (int c = 0; c < 3; ++c)
        sum += comp.columnBytesUsed(c);
    size_t tail_pad =
        (comp.rows() - comp.sealedRows()) *
        (comp.strideSlots() - 4) * 8; // padding slots, if any
    EXPECT_EQ(sum + tail_pad, comp.bytesUsed());
}

// ---------------------------------------------------------------------
// 4. Executor equivalence
// ---------------------------------------------------------------------

/** One data set, three layouts, compressed + uncompressed twins. */
struct CompressWorld
{
    nobench::Config cfg;
    DataSet data;
    std::vector<Query> queries;
    std::vector<std::unique_ptr<Database>> plain; ///< oracle twins
    std::vector<std::unique_ptr<Database>> comp;  ///< compressed

    CompressWorld()
    {
        cfg.numDocs = testDocs();
        cfg.seed = 6464;
        data = nobench::generateDataSet(cfg);
        nobench::QuerySet qs(data, cfg);
        Rng rng(17);
        for (int t = 0; t < nobench::kNumTemplates; ++t)
            queries.push_back(qs.instantiate(t, rng));
        queries.push_back(nullQuery(false));
        queries.push_back(nullQuery(true));

        const std::vector<storage::AttrId> attrs =
            data.catalog.allAttrs();
        const struct
        {
            Layout layout;
            const char *name;
        } layouts[] = {
            {Layout::rowBased(attrs), "row"},
            {Layout::columnBased(attrs), "column"},
            {Layout::fixedSize(attrs, 4), "hybrid4"},
        };
        for (const auto &l : layouts) {
            plain.push_back(std::make_unique<Database>(
                data, l.layout, l.name));
            comp.push_back(std::make_unique<Database>(
                data, l.layout, std::string(l.name) + "+z", nullptr,
                true));
        }
    }

    /** IS [NOT] NULL on a sparse attribute (~1% dense). */
    Query
    nullQuery(bool not_null) const
    {
        Query q;
        q.name = not_null ? "Qnn" : "Qin";
        q.kind = QueryKind::Select;
        storage::AttrId sparse = data.catalog.find("sparse_107");
        storage::AttrId num = data.catalog.find("num");
        EXPECT_NE(sparse, storage::kNoAttr);
        EXPECT_NE(num, storage::kNoAttr);
        q.projected = {num};
        q.cond.op = not_null ? CondOp::NotNull : CondOp::IsNull;
        q.cond.attr = sparse;
        q.selectivity = not_null ? 0.01 : 0.99;
        return q;
    }
};

CompressWorld &
cworld()
{
    static CompressWorld w;
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

TEST(CompressedExecutor, MatchesUncompressedOracle)
{
    CompressWorld &w = cworld();
    for (size_t li = 0; li < w.plain.size(); ++li) {
        ASSERT_TRUE(w.comp[li]->compressed());
        ASSERT_FALSE(w.plain[li]->compressed());
        for (const Query &q : w.queries) {
            // The uncompressed row-at-a-time loop is the oracle.
            Executor oracle(*w.plain[li]);
            oracle.setVectorized(false);
            ResultSet ref = oracle.run(q);

            for (size_t threads : {1u, 2u, 4u, 8u}) {
                Executor exec(*w.comp[li], threads);
                expectSame(exec.run(q), ref);

                // Block-unaligned morsels: sub-block eval ranges.
                Executor small(*w.comp[li], threads);
                small.setMorselRows(64);
                expectSame(small.run(q), ref);

                // Non-vectorized compressed: the row loop decodes
                // through the compression-aware readers.
                Executor rowloop(*w.comp[li], threads);
                rowloop.setVectorized(false);
                expectSame(rowloop.run(q), ref);
            }
        }
    }
}

TEST(CompressedExecutor, FootprintShrinksAndCountersTick)
{
    CompressWorld &w = cworld();
    if (w.cfg.numDocs < kZoneRows * 2)
        GTEST_SKIP() << "too few docs to seal a block";

    // The NoBench store is dominated by ~1%-dense sparse columns (row
    // layout materializes their NULLs) and clustered ids: compression
    // must reclaim a multiple, not a margin (acceptance: >= 3x on the
    // row layout).
    size_t raw = w.plain[0]->storageBytes();
    size_t used = w.comp[0]->bytesUsed();
    EXPECT_EQ(w.plain[0]->bytesUsed(), raw);
    EXPECT_GE(raw, used * 3)
        << "row-layout footprint ratio " << double(raw) / double(used);

    uint64_t before = 0;
    auto &reg = obs::Registry::global();
    for (size_t p = 0; p < k::kCompressedPaths; ++p)
        before += reg.counter(std::string(
                                  "dvp_compressed_eval_total{path=\"") +
                              k::compressedPathName(
                                  static_cast<k::CompressedPath>(p)) +
                              "\"}")
                      .value();
    Executor exec(*w.comp[0]);
    exec.run(w.queries[4 % w.queries.size()]); // any predicate scan
    for (const Query &q : w.queries)
        exec.run(q);
    uint64_t after = 0;
    for (size_t p = 0; p < k::kCompressedPaths; ++p)
        after += reg.counter(std::string(
                                 "dvp_compressed_eval_total{path=\"") +
                             k::compressedPathName(
                                 static_cast<k::CompressedPath>(p)) +
                             "\"}")
                     .value();
    EXPECT_GT(after, before)
        << "no compressed-block evaluation was exercised";
}

TEST(CompressedAdaptive, SurvivesRepartitionSwap)
{
    nobench::Config cfg;
    cfg.numDocs = std::min<size_t>(testDocs(), 4096 + 512);
    cfg.seed = 77;
    if (cfg.numDocs < kZoneRows * 2)
        GTEST_SKIP() << "too few docs to seal a block";
    DataSet data = nobench::generateDataSet(cfg);
    nobench::QuerySet qs(data, cfg);
    Rng rng(79);

    std::vector<Query> initial;
    for (int t = 0; t < 3; ++t)
        initial.push_back(qs.instantiate(t, rng));

    adaptive::Params prm;
    prm.window = 20;
    prm.changeThreshold = 0.2;
    prm.background = false; // synchronous swap: deterministic
    prm.compress = true;
    adaptive::AdaptiveEngine eng(data, initial, prm);
    ASSERT_TRUE(eng.snapshot()->compressed());

    std::vector<Query> shifted;
    for (int t = 0; t < nobench::kNumTemplates; ++t)
        shifted.push_back(qs.instantiateShifted(t, rng));
    Rng pick(83);
    for (int r = 0;
         r < 200 && eng.adaptation().repartitions.load() == 0; ++r)
        eng.execute(shifted[pick.below(shifted.size())]);
    ASSERT_GE(eng.adaptation().repartitions.load(), 1u)
        << "shifted workload did not trigger a repartition";

    // The swapped-in database is still compressed, has sealed blocks,
    // and answers queries identically to an uncompressed twin built on
    // the swapped-in layout.
    std::shared_ptr<Database> db = eng.snapshot();
    ASSERT_TRUE(db->compressed());
    bool any_sealed = false;
    for (size_t t = 0; t < db->tableCount(); ++t)
        any_sealed = any_sealed || db->table(t).sealedRows() > 0;
    EXPECT_TRUE(any_sealed);
    EXPECT_LT(db->bytesUsed(), db->storageBytes());

    Database twin(data, db->layout(), "twin");
    for (const Query &q : shifted) {
        Executor a(*db), b(twin);
        expectSame(a.run(q), b.run(q));
    }
}

TEST(NullPredicates, SqlParsesAndMatchesDocScan)
{
    CompressWorld &w = cworld();
    storage::AttrId sparse = w.data.catalog.find("sparse_107");
    ASSERT_NE(sparse, storage::kNoAttr);

    sql::ParseResult isn = sql::parse(
        "SELECT num FROM nobench_main WHERE sparse_107 IS NULL",
        w.data);
    ASSERT_TRUE(isn.ok) << isn.error;
    EXPECT_EQ(isn.query.cond.op, CondOp::IsNull);
    EXPECT_EQ(isn.query.cond.attr, sparse);

    sql::ParseResult nn = sql::parse(
        "SELECT num FROM nobench_main WHERE sparse_107 IS NOT NULL",
        w.data);
    ASSERT_TRUE(nn.ok) << nn.error;
    EXPECT_EQ(nn.query.cond.op, CondOp::NotNull);

    EXPECT_FALSE(
        sql::parse("SELECT num FROM t WHERE sparse_107 IS 3", w.data)
            .ok);

    // Engine answers against the document-level truth: NOT NULL means
    // a non-null cell; IS NULL means present-but-null-or-missing.
    std::set<int64_t> not_null, present;
    for (const auto &doc : w.data.docs) {
        if (!storage::isNull(doc.slotOf(sparse)))
            not_null.insert(doc.oid);
        for (const auto &[a, s] : doc.attrs)
            if (!storage::isNull(s)) {
                present.insert(doc.oid);
                break;
            }
    }
    for (size_t li = 0; li < w.plain.size(); ++li) {
        for (Database *db : {w.plain[li].get(), w.comp[li].get()}) {
            Executor exec(*db);
            ResultSet rnn = exec.run(nn.query);
            ASSERT_EQ(rnn.oids.size(), not_null.size()) << db->name();
            for (int64_t o : rnn.oids)
                EXPECT_TRUE(not_null.count(o));

            ResultSet rin = exec.run(isn.query);
            ASSERT_EQ(rin.oids.size(),
                      present.size() - not_null.size())
                << db->name();
            for (int64_t o : rin.oids)
                EXPECT_TRUE(present.count(o) && !not_null.count(o));
        }
    }
}

TEST(NullPredicates, ZonePruningSkipsDecidedBlocks)
{
    // Hand-built store: attribute "b" is non-null only for the first
    // 100 objects, so every later block is all-null in b's column and
    // a NOT NULL scan must skip it via the zone nonnull count.
    DataSet data;
    for (size_t i = 0; i < kZoneRows * 3; ++i) {
        std::vector<json::FlatAttr> flat;
        flat.push_back({"a", json::JsonValue(static_cast<int64_t>(i))});
        if (i < 100)
            flat.push_back(
                {"b", json::JsonValue(static_cast<int64_t>(i * 2))});
        else if (i % 2 == 0)
            flat.push_back({"b", json::JsonValue()}); // explicit null
        data.addFlat(flat);
    }
    storage::AttrId b = data.catalog.find("b");
    ASSERT_NE(b, storage::kNoAttr);

    Database db(data, Layout::rowBased(data.catalog.allAttrs()), "row",
                nullptr, true);
    Query q;
    q.name = "Qb";
    q.kind = QueryKind::Select;
    q.projected = {b};
    q.cond.op = CondOp::NotNull;
    q.cond.attr = b;

    auto &reg = obs::Registry::global();
    uint64_t skipped = reg.counter("dvp_blocks_skipped_total").value();
    Executor exec(db);
    ResultSet rs = exec.run(q);
    EXPECT_EQ(rs.rowCount(), 100u);
    EXPECT_GE(reg.counter("dvp_blocks_skipped_total").value(),
              skipped + 2)
        << "all-null trailing blocks were not pruned";
}

// ---------------------------------------------------------------------
// 5. Observability
// ---------------------------------------------------------------------

TEST(Observability, FootprintGaugesPublished)
{
    CompressWorld &w = cworld();
    if (w.cfg.numDocs < kZoneRows * 2)
        GTEST_SKIP() << "too few docs to seal a block";
    auto &reg = obs::Registry::global();

    // Re-publish (construction already did once) and check both forms.
    w.comp[0]->publishFootprint();
    w.plain[0]->publishFootprint();
    std::string raw_name = "dvp_db_bytes{db=\"" + w.comp[0]->name() +
                           "\",form=\"raw\"}";
    std::string used_name = "dvp_db_bytes{db=\"" + w.comp[0]->name() +
                            "\",form=\"used\"}";
    ASSERT_TRUE(reg.contains(raw_name));
    ASSERT_TRUE(reg.contains(used_name));
    EXPECT_EQ(reg.gauge(raw_name).value(),
              static_cast<int64_t>(w.comp[0]->storageBytes()));
    EXPECT_EQ(reg.gauge(used_name).value(),
              static_cast<int64_t>(w.comp[0]->bytesUsed()));
    EXPECT_LT(reg.gauge(used_name).value(), reg.gauge(raw_name).value());

    // Per-partition gauges exist for partition 0 of each db.
    EXPECT_TRUE(reg.contains("dvp_partition_bytes{db=\"" +
                        w.comp[0]->name() +
                        "\",part=\"0\",form=\"used\"}"));

    // The exporter carries them.
    std::string prom = obs::exportPrometheus(reg);
    EXPECT_NE(prom.find("dvp_partition_bytes"), std::string::npos);
    EXPECT_NE(prom.find("dvp_db_bytes"), std::string::npos);
}

TEST(Observability, AttrBytesFeedTheCostModel)
{
    CompressWorld &w = cworld();
    std::vector<double> bytes = w.comp[1]->attrBytesPerDoc();
    ASSERT_FALSE(bytes.empty());

    storage::AttrId num = w.data.catalog.find("num");
    storage::AttrId sparse = w.data.catalog.find("sparse_107");
    ASSERT_NE(num, storage::kNoAttr);
    ASSERT_NE(sparse, storage::kNoAttr);
    // A dense wide column costs more per doc than a 1%-dense one.
    EXPECT_GT(bytes[num], bytes[sparse]);

    // memoryWeight = 0 keeps Eq. 9 untouched; a memory-weighted model
    // charges the column layout (duplicated oids) its full normalizer.
    core::CostParams cp;
    cp.memoryWeight = 0.5;
    cp.attrBytes = bytes;
    std::vector<Query> queries(w.queries.begin(), w.queries.begin() + 4);
    core::CostModel m(w.data.catalog, queries, cp);
    const std::vector<storage::AttrId> attrs = w.data.catalog.allAttrs();
    double mem_col = m.mem(Layout::columnBased(attrs));
    double mem_row = m.mem(Layout::rowBased(attrs));
    EXPECT_GT(m.memMax(), 0.0);
    EXPECT_LE(mem_col, m.memMax() * (1 + 1e-9));
    EXPECT_GE(mem_col, m.memMax() * (1 - 1e-9)); // column IS the max
    EXPECT_LT(mem_row, mem_col);

    core::CostParams off;
    core::CostModel m0(w.data.catalog, queries, off);
    Layout hybrid = Layout::fixedSize(attrs, 4);
    EXPECT_NEAR(m0.combine(m0.rac(hybrid), m0.cpc(hybrid)),
                m0.cost(hybrid), 1e-12);
}

} // namespace
} // namespace dvp
