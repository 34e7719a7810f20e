/**
 * @file
 * Compressed-block bench (DESIGN.md §14, EXPERIMENTS.md E13): what the
 * per-block compression layer (storage/compress.hh) buys and costs on
 * the NoBench data set at full scale.  Each layout is built twice over
 * the same DataSet — plain and compressed twin — so every number is a
 * like-for-like comparison.
 *
 * Three stages, human tables + (--json) NDJSON:
 *
 *  - footprint: raw record bytes vs compressed bytes held, per layout,
 *    plus the block-format mix (raw/rle/pack) the per-column chooser
 *    picked — the Fig-3-style memory story;
 *
 *  - scan: single-thread Select latency over representative predicate
 *    regimes (0.1% BETWEEN, sparse Eq, string Eq, IS NULL on a sparse
 *    attribute), plain vs compressed, labeled with the active kernel
 *    dispatch form;
 *
 *  - e2e: Q1-Q11 median latency on plain vs compressed twins with the
 *    harness thread count, reporting slowdown_pct per query and the
 *    mean — the acceptance gate is a small single-digit slowdown
 *    bought for a multiple-x footprint reduction.
 *
 * Every compressed run must produce a result digest-equal to its plain
 * twin; the bench aborts on any disagreement (a coarse differential
 * check at full data scale, mirroring tests/test_compress.cc).
 */

#include "harness.hh"

#include <array>

#include "engine/kernels.hh"
#include "storage/compress.hh"
#include "util/logging.hh"

namespace dvp::bench
{
namespace
{

using engine::CondOp;
using engine::Query;
namespace k = engine::kernels;

/** Sealed-column format counts across every table of @p db. */
std::array<size_t, storage::kBlockFmts>
formatMix(const engine::Database &db)
{
    std::array<size_t, storage::kBlockFmts> mix{};
    for (size_t t = 0; t < db.tableCount(); ++t) {
        const storage::Table &tab = db.table(t);
        for (size_t b = 0; b < tab.sealedBlocks(); ++b)
            for (size_t s = 0; s <= tab.schema().size(); ++s)
                ++mix[static_cast<size_t>(
                    tab.sealedColumn(b, s).fmt)];
    }
    return mix;
}

int
run(int argc, char **argv)
{
    Options opt = Options::parse(argc, argv, /*default_docs=*/100000);
    nobench::Config cfg = opt.nobenchConfig();
    engine::DataSet data = nobench::generateDataSet(cfg);
    nobench::QuerySet qs(data, cfg);
    auto attrs = data.catalog.allAttrs();

    struct Twin
    {
        std::string name;
        engine::Database plain;
        engine::Database comp;
    };
    std::vector<std::unique_ptr<Twin>> twins;
    inform("building row twins...");
    twins.push_back(std::unique_ptr<Twin>(new Twin{
        "row",
        {data, layout::Layout::rowBased(attrs), "row"},
        {data, layout::Layout::rowBased(attrs), "row.z",
         nullptr, /*compress=*/true}}));
    inform("building col twins...");
    twins.push_back(std::unique_ptr<Twin>(new Twin{
        "col",
        {data, layout::Layout::columnBased(attrs), "col"},
        {data, layout::Layout::columnBased(attrs), "col.z",
         nullptr, /*compress=*/true}}));

    JsonLog json(opt, "compression");

    // Stage 1: footprint + format mix.
    TablePrinter f({"Layout", "raw [MB]", "compressed [MB]", "ratio",
                    "raw blks", "rle blks", "pack blks"});
    for (const auto &tw : twins) {
        double raw = static_cast<double>(tw->plain.storageBytes());
        double used = static_cast<double>(tw->comp.bytesUsed());
        auto mix = formatMix(tw->comp);
        f.addRow({tw->name, fmt(raw / 1e6, 1), fmt(used / 1e6, 1),
                  fmt(raw / used, 2), std::to_string(mix[0]),
                  std::to_string(mix[1]), std::to_string(mix[2])});
        json.value(tw->name, "-", "bytes_raw", raw, "bytes");
        json.value(tw->name, "-", "bytes_compressed", used, "bytes");
        json.value(tw->name, "-", "footprint_ratio", raw / used);
        for (size_t i = 0; i < mix.size(); ++i)
            json.value(tw->name, "-",
                       std::string("blocks_") +
                           storage::fmtName(
                               static_cast<storage::BlockFmt>(i)),
                       static_cast<double>(mix[i]), "blocks");
    }
    emit(f,
         "Footprint, plain vs compressed twin (docs=" +
             std::to_string(opt.docs) + ")",
         opt.csv);

    // Stage 2: single-thread scans over the interesting predicate
    // regimes.  Select keeps the retrieve phase in the measurement so
    // sealed-record materialization is charged too.
    Rng rng(opt.seed + 50);
    std::vector<Query> scans;
    scans.push_back(qs.instantiate(nobench::kQ6, rng));
    scans.back().name = "between_0.1%(Q6)";
    scans.push_back(qs.instantiate(nobench::kQ9, rng));
    scans.back().name = "eq_sparse(Q9)";
    scans.push_back(qs.instantiate(nobench::kQ5, rng));
    scans.back().name = "eq_str(Q5)";
    Query isnull = qs.instantiate(nobench::kQ9, rng);
    isnull.name = "isnull_sparse";
    isnull.cond.op = CondOp::IsNull;
    isnull.projected = {data.catalog.find("num")};
    scans.push_back(isnull);

    TablePrinter s({"Layout", "Predicate", "plain [Mr/s]",
                    "compressed [Mr/s]", "x"});
    for (const auto &tw : twins) {
        for (const Query &q : scans) {
            engine::Executor plain(tw->plain, 1);
            engine::Executor comp(tw->comp, 1);
            engine::ResultSet ref = plain.run(q);
            engine::ResultSet got = comp.run(q);
            if (!got.equals(ref) || got.digest() != ref.digest())
                panic("compressed scan '%s' on %s disagrees with its "
                      "plain twin", q.name.c_str(), tw->name.c_str());
            double plain_s = timeMedian(opt.repeats,
                                        [&] { plain.run(q); });
            double comp_s = timeMedian(opt.repeats,
                                       [&] { comp.run(q); });
            double nrows = static_cast<double>(opt.docs);
            s.addRow({tw->name, q.name, fmt(nrows / plain_s / 1e6, 1),
                      fmt(nrows / comp_s / 1e6, 1),
                      fmt(plain_s / comp_s, 2)});
            json.value(tw->name, q.name, "scan_rows_per_sec_plain",
                       nrows / plain_s, "rows/s");
            json.value(tw->name, q.name,
                       "scan_rows_per_sec_compressed", nrows / comp_s,
                       "rows/s");
            json.value(tw->name, q.name, "scan_speedup",
                       plain_s / comp_s);
        }
    }
    emit(s,
         "Single-thread Select throughput, plain vs compressed "
         "(dispatch=" + std::string(k::activeForm()) + ")",
         opt.csv);

    // Stage 3: Q1-Q11 end to end with the harness thread count.
    TablePrinter e({"Layout", "Query", "plain [ms]", "compressed [ms]",
                    "slowdown %"});
    Rng qrng(opt.seed + 51);
    std::vector<Query> queries;
    for (int i = 0; i < nobench::kNumTemplates; ++i)
        queries.push_back(qs.instantiate(i, qrng));
    for (const auto &tw : twins) {
        double sum_pct = 0;
        for (const Query &q : queries) {
            engine::Executor plain(tw->plain, opt.threads);
            engine::Executor comp(tw->comp, opt.threads);
            engine::ResultSet ref = plain.run(q);
            engine::ResultSet got = comp.run(q);
            if (!got.equals(ref) || got.digest() != ref.digest())
                panic("compressed %s on %s disagrees with its plain "
                      "twin", q.name.c_str(), tw->name.c_str());
            double plain_s = timeMedian(opt.repeats,
                                        [&] { plain.run(q); });
            double comp_s = timeMedian(opt.repeats,
                                       [&] { comp.run(q); });
            double pct = (comp_s / plain_s - 1.0) * 100.0;
            sum_pct += pct;
            e.addRow({tw->name, q.name, fmt(plain_s * 1e3, 3),
                      fmt(comp_s * 1e3, 3), fmt(pct, 1)});
            json.record(tw->name + "/plain", q.name, plain_s);
            json.record(tw->name + "/comp", q.name, comp_s);
            json.value(tw->name, q.name, "slowdown_pct", pct, "%");
        }
        json.value(tw->name, "Q1-Q11", "mean_slowdown_pct",
                   sum_pct / static_cast<double>(queries.size()), "%");
    }
    emit(e,
         "End-to-end Q1-Q11, plain vs compressed (threads=" +
             std::to_string(opt.threads) +
             ", dispatch=" + k::activeForm() + ")",
         opt.csv);
    return 0;
}

} // namespace
} // namespace dvp::bench

int
main(int argc, char **argv)
{
    return dvp::bench::run(argc, argv);
}
