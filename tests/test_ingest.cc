/**
 * @file
 * Tests for live ingest (DESIGN.md §16): in-place appends to the live
 * partitions, singleton partitions for attributes the layout lacks,
 * the engine lock that orders ingest against queries and swaps, the
 * data-drift side of the change detector, the SQL INSERT surface, and
 * the wire-protocol write path with its allowInsert gate.
 *
 * The load-bearing invariant throughout: after every INSERT the engine
 * answers bit-identically to a fresh bulk build over the same
 * documents — at every thread count, plain and compressed, across new
 * attributes and across the append that seals a compressed block.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "adaptive/adaptive_engine.hh"
#include "client/client.hh"
#include "engine/executor.hh"
#include "json/parser.hh"
#include "nobench/generator.hh"
#include "nobench/queries.hh"
#include "server/server.hh"
#include "sql/run.hh"
#include "stats/change_detector.hh"

namespace dvp
{
namespace
{

using adaptive::AdaptiveEngine;
using adaptive::Params;

// ---------------------------------------------------------------------
// ChangeDetector: ingest-driven data drift.
// ---------------------------------------------------------------------

storage::Document
intDoc(int64_t oid, std::vector<std::pair<storage::AttrId, storage::Slot>>
                        attrs)
{
    storage::Document d;
    d.oid = oid;
    d.attrs = std::move(attrs);
    return d;
}

TEST(ChangeDetectorIngest, StableAttributeMixStaysQuiet)
{
    stats::ChangeDetector det(16, 0.5);
    for (int i = 0; i < 100; ++i)
        EXPECT_FALSE(det.observeIngest(intDoc(i, {{1, 1}, {2, 2}})));
    EXPECT_GE(det.dataWindowsCompleted(), 5u);
}

TEST(ChangeDetectorIngest, SparsenessShiftFires)
{
    stats::ChangeDetector det(16, 0.5);
    for (int i = 0; i < 32; ++i)
        EXPECT_FALSE(det.observeIngest(intDoc(i, {{1, 1}, {2, 2}})));
    bool fired = false;
    for (int i = 0; i < 32; ++i)
        fired |= det.observeIngest(intDoc(32 + i, {{8, 1}, {9, 2}}));
    EXPECT_TRUE(fired);
}

TEST(ChangeDetectorIngest, QueryAndDataWindowsAreIndependent)
{
    stats::ChangeDetector det(8, 0.5);
    engine::Query q;
    q.kind = engine::QueryKind::Project;
    q.projected = {1, 2};
    for (int i = 0; i < 16; ++i) {
        det.observe(q);
        det.observeIngest(intDoc(i, {{1, 1}}));
    }
    EXPECT_EQ(det.windowsCompleted(), 2u);
    EXPECT_EQ(det.dataWindowsCompleted(), 2u);
}

// ---------------------------------------------------------------------
// Engine fixture: one NoBench data set shared by every ingest test.
// ---------------------------------------------------------------------

/** Flattened document carrying two ingest-only integer attributes.
 * The values are deterministic functions of @p k, so the digest of a
 * scan over them is a pure function of how many are visible. */
std::vector<json::FlatAttr>
ingestDoc(int64_t k)
{
    char buf[96];
    std::snprintf(buf, sizeof(buf),
                  "{\"ingq\": %lld, \"ingv\": %lld}",
                  static_cast<long long>(k),
                  static_cast<long long>(k * 7 + 3));
    json::ParseResult r = json::parse(buf);
    EXPECT_TRUE(r.ok) << r.error;
    return json::flatten(r.value);
}

/** The scan used throughout: every ingested doc matches, none of the
 * NoBench base docs do. */
const char *kIngestScan =
    "SELECT ingq, ingv FROM t WHERE ingq BETWEEN 0 AND 100000000";

class IngestWorld : public ::testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        uint64_t docs = 800;
        if (const char *env = std::getenv("DVP_TEST_DOCS"))
            docs = std::strtoull(env, nullptr, 10);
        cfg.numDocs = docs;
        cfg.seed = 4242;
        data = new engine::DataSet(nobench::generateDataSet(cfg));
    }

    static void
    TearDownTestSuite()
    {
        delete data;
        data = nullptr;
    }

    /** A fresh engine over a copy of the shared data set. */
    struct World
    {
        engine::DataSet data;
        std::unique_ptr<AdaptiveEngine> engine;

        explicit World(Params prm = defaultParams())
            : data(*IngestWorld::data)
        {
            engine = std::make_unique<AdaptiveEngine>(
                data, std::vector<engine::Query>{}, prm);
        }
    };

    static Params
    defaultParams()
    {
        Params prm;
        prm.adapt = false;      // never a layout change
        prm.background = false; // deterministic inline repartitions
        return prm;
    }

    /**
     * Reference digests: a serial engine ingests docs one at a time;
     * expected[k] is the (digest, checksum, rows) of kIngestScan with
     * k ingested docs visible (1-based; index 0 unused).  Every
     * configuration under test must reproduce these exactly at the
     * same cut.
     */
    struct Expected
    {
        uint64_t digest = 0;
        uint64_t checksum = 0;
        size_t rows = 0;
    };

    static std::vector<Expected>
    referenceDigests(size_t k_max)
    {
        World ref;
        std::vector<Expected> expected(k_max + 1);
        for (size_t k = 1; k <= k_max; ++k) {
            ref.engine->ingest({ingestDoc(static_cast<int64_t>(k))});
            sql::RunResult r =
                sql::runStatement(*ref.engine, kIngestScan);
            EXPECT_TRUE(r.ok) << r.error;
            EXPECT_EQ(r.rows.rowCount(), k);
            expected[k] = {r.rows.digest(), r.rows.checksum,
                           r.rows.rowCount()};
        }
        return expected;
    }

    static nobench::Config cfg;
    static engine::DataSet *data;
};

nobench::Config IngestWorld::cfg;
engine::DataSet *IngestWorld::data = nullptr;

TEST_F(IngestWorld, IngestAcksCarryCountAndEpoch)
{
    World w;
    size_t base_docs = w.data.docs.size();
    adaptive::IngestAck one =
        w.engine->ingest({ingestDoc(1)});
    EXPECT_EQ(one.count, 1u);
    EXPECT_EQ(one.totalDocs, base_docs + 1);
    EXPECT_EQ(one.lastOid, static_cast<int64_t>(base_docs));

    adaptive::IngestAck batch =
        w.engine->ingest({ingestDoc(2), ingestDoc(3)});
    EXPECT_EQ(batch.count, 2u);
    EXPECT_EQ(batch.totalDocs, base_docs + 3);
    EXPECT_EQ(batch.lastOid, static_cast<int64_t>(base_docs + 2));
    EXPECT_EQ(batch.epoch, w.engine->snapshot()->epoch());
}

// ---------------------------------------------------------------------
// In-place appends answer like a fresh bulk build.
// ---------------------------------------------------------------------

/** What a query answered: the digest contract's three numbers. */
struct Answer
{
    uint64_t digest = 0;
    uint64_t checksum = 0;
    size_t rows = 0;

    explicit Answer(const engine::ResultSet &rs)
        : digest(rs.digest()), checksum(rs.checksum), rows(rs.rowCount())
    {
    }

    bool
    operator==(const Answer &o) const
    {
        return digest == o.digest && checksum == o.checksum &&
               rows == o.rows;
    }
};

/** Q1-Q11 plus the ingest scan, bound against @p data's catalog. */
std::vector<engine::Query>
checkQueries(const engine::DataSet &data, const nobench::Config &cfg)
{
    std::vector<engine::Query> qs;
    nobench::QuerySet set(data, cfg);
    Rng rng(31);
    for (int i = 0; i < nobench::kNumTemplates; ++i)
        qs.push_back(set.instantiate(i, rng));
    engine::Query scan;
    scan.name = "ingest-scan";
    scan.kind = engine::QueryKind::Select;
    scan.cond.op = engine::CondOp::Between;
    scan.cond.attr = data.catalog.find("ingq");
    scan.cond.lo = 0;
    scan.cond.hi = 100000000;
    scan.projected = {scan.cond.attr, data.catalog.find("ingv"),
                      data.catalog.find("ingw")};
    qs.push_back(scan);
    return qs;
}

/** Sealed compressed blocks across every table of @p db. */
size_t
sealedBlocks(const engine::Database &db)
{
    size_t n = 0;
    for (size_t t = 0; t < db.tableCount(); ++t)
        n += db.table(t).sealedBlocks();
    return n;
}

TEST_F(IngestWorld, InPlaceAppendsMatchAFreshBulkBuild)
{
    for (size_t threads : {1u, 2u, 4u, 8u}) {
        for (bool compress : {false, true}) {
            SCOPED_TRACE("threads=" + std::to_string(threads) +
                         " compress=" + std::to_string(compress));
            Params prm = defaultParams();
            prm.threads = threads;
            prm.compress = compress;
            prm.morselRows = 64; // small tables still morselize
            World w(prm);
            const uint64_t epoch = w.engine->snapshot()->epoch();
            const size_t tables0 = w.engine->snapshot()->tableCount();

            // The engine's answer must equal a serial executor over a
            // fresh bulk build of every document, under the engine's
            // (possibly grown) layout.
            auto check = [&](const std::string &step) {
                SCOPED_TRACE(step);
                std::shared_ptr<engine::Database> live =
                    w.engine->snapshot();
                engine::Database fresh(w.data, live->layout(), "fresh");
                engine::Executor ref(fresh);
                for (const engine::Query &q : checkQueries(w.data, cfg)) {
                    SCOPED_TRACE(q.name);
                    EXPECT_TRUE(Answer(w.engine->execute(q)) ==
                                Answer(ref.run(q)));
                }
            };

            // Single INSERTs; the first one introduces ingq/ingv.
            for (int64_t k = 1; k <= 6; ++k) {
                w.engine->ingest({ingestDoc(k)});
                check("insert " + std::to_string(k));
            }
            EXPECT_EQ(w.engine->snapshot()->tableCount(), tables0 + 2);

            // A batch that introduces another attribute mid-stream.
            std::vector<std::vector<json::FlatAttr>> batch;
            for (int64_t k = 7; k <= 9; ++k) {
                batch.push_back(ingestDoc(k));
                batch.back().push_back({"ingw", json::JsonValue(k * 11)});
            }
            w.engine->ingest(batch);
            check("new-attribute batch");
            EXPECT_EQ(w.engine->snapshot()->tableCount(), tables0 + 3);

            // A NoBench batch that carries the always-present tables
            // past the next 2048-row boundary: compressed tables seal
            // a block inside the append.
            size_t sealed0 = sealedBlocks(*w.engine->snapshot());
            size_t n = storage::kZoneRows -
                       w.data.docs.size() % storage::kZoneRows + 16;
            Rng rng(77);
            std::vector<std::vector<json::FlatAttr>> nb;
            for (size_t i = 0; i < n; ++i)
                nb.push_back(json::flatten(nobench::generateDoc(
                    cfg, rng,
                    static_cast<int64_t>(w.data.docs.size() + i))));
            w.engine->ingest(nb);
            if (compress) {
                EXPECT_GT(sealedBlocks(*w.engine->snapshot()), sealed0);
            }
            check("sealing batch");
            w.engine->ingest({ingestDoc(10)});
            check("insert after the seal");

            // Growth never swapped the database.
            EXPECT_EQ(w.engine->snapshot()->epoch(), epoch);
            EXPECT_EQ(w.engine->adaptation().repartitions.load(), 0u);
        }
    }
}

// Every ingested document carries an attribute no earlier one had,
// while shifting query mixes keep background repartitions running.  A
// document ingested while a swap's build runs must keep every cell:
// the swap gives attributes born during the build singleton partitions
// before it catches up, exactly as ingest would have.
TEST_F(IngestWorld, AttributesBornDuringARepartitionKeepTheirCells)
{
    Params prm = defaultParams();
    prm.adapt = true;
    prm.background = true;
    prm.window = 10;
    prm.changeThreshold = 0.4;
    World w(prm);
    // Bound before the writer starts: binding reads the live catalog.
    std::vector<engine::Query> mix;
    {
        nobench::QuerySet qs(w.data, cfg);
        Rng rng(5);
        for (int i = 0; i < 200; ++i)
            mix.push_back((i / 20) % 2 ? qs.instantiateShifted(i % 11, rng)
                                       : qs.instantiate(i % 3, rng));
    }

    constexpr int kDocs = 60;
    std::atomic<bool> done{false};
    std::thread writer([&] {
        for (int k = 0; k < kDocs; ++k) {
            char buf[64];
            std::snprintf(buf, sizeof(buf), "{\"born%d\": %d}", k, k);
            json::ParseResult r = json::parse(buf);
            w.engine->ingest({json::flatten(r.value)});
        }
        done.store(true, std::memory_order_release);
    });
    for (size_t i = 0; !done.load(std::memory_order_acquire) ||
                       i < mix.size();
         ++i)
        w.engine->execute(mix[i % mix.size()]);
    writer.join();
    w.engine->quiesce();
    EXPECT_GE(w.engine->adaptation().repartitions.load(), 1u);

    engine::Query born;
    born.name = "born";
    born.kind = engine::QueryKind::Project;
    for (int k = 0; k < kDocs; ++k)
        born.projected.push_back(
            w.data.catalog.find("born" + std::to_string(k)));
    std::vector<engine::Query> qv = checkQueries(w.data, cfg);
    qv.push_back(born);

    std::shared_ptr<engine::Database> live = w.engine->snapshot();
    EXPECT_EQ(live->layout().attrCount(), w.data.catalog.attrCount());
    engine::Database fresh(w.data, live->layout(), "fresh");
    engine::Executor ref(fresh);
    EXPECT_EQ(ref.run(born).rowCount(), static_cast<size_t>(kDocs));
    for (const engine::Query &q : qv) {
        SCOPED_TRACE(q.name);
        EXPECT_TRUE(Answer(w.engine->execute(q)) == Answer(ref.run(q)));
    }
    w.engine->quiesce();
}

// ---------------------------------------------------------------------
// Randomized concurrency: a writer appends while readers spin back to
// back (the writer-preferring engine lock must not starve it), and
// every reader result matches the reference digest for the number of
// documents it saw — a query never observes a half-appended batch.
// ---------------------------------------------------------------------

TEST_F(IngestWorld, ConcurrentInsertsAndQueriesStayConsistent)
{
    constexpr size_t kDocs = 40;
    std::vector<Expected> expected = referenceDigests(kDocs);

    for (size_t threads : {1u, 2u, 4u, 8u}) {
        Params prm = defaultParams();
        prm.threads = threads;
        World w(prm);

        // Seed one doc so the scan's attributes exist for parsing,
        // then share one parsed query across all reader threads.
        w.engine->ingest({ingestDoc(1)});
        engine::Query q;
        q.name = "ingest-scan";
        q.kind = engine::QueryKind::Select;
        q.cond.op = engine::CondOp::Between;
        q.cond.attr = w.data.catalog.find("ingq");
        ASSERT_NE(q.cond.attr, storage::kNoAttr);
        q.cond.lo = 0;
        q.cond.hi = 100000000;
        q.projected = {q.cond.attr, w.data.catalog.find("ingv")};

        std::atomic<bool> writer_done{false};
        std::atomic<int> failures{0};
        std::thread writer([&] {
            for (size_t k = 2; k <= kDocs; ++k)
                w.engine->ingest({ingestDoc(static_cast<int64_t>(k))});
            writer_done.store(true, std::memory_order_release);
        });

        constexpr int kReaders = 3;
        std::vector<std::thread> readers;
        for (int t = 0; t < kReaders; ++t) {
            readers.emplace_back([&] {
                bool saw_final = false;
                while (!saw_final) {
                    bool last =
                        writer_done.load(std::memory_order_acquire);
                    engine::ResultSet rs = w.engine->execute(q);
                    size_t k = rs.rowCount();
                    if (k < 1 || k > kDocs ||
                        rs.digest() != expected[k].digest ||
                        rs.checksum != expected[k].checksum) {
                        ++failures;
                        return;
                    }
                    if (last && k == kDocs)
                        saw_final = true;
                }
            });
        }
        writer.join();
        for (std::thread &t : readers)
            t.join();
        EXPECT_EQ(failures.load(), 0)
            << "threads=" << threads
            << ": a reader observed a cut whose digest does not match "
               "the serial reference";
        w.engine->quiesce();
    }
}

// ---------------------------------------------------------------------
// Wire protocol: INSERT round-trip and the allowInsert gate.
// ---------------------------------------------------------------------

TEST_F(IngestWorld, WireInsertRoundTrip)
{
    World w;
    server::Config scfg;
    scfg.allowInsert = true;
    server::Server srv(*w.engine, scfg);
    ASSERT_EQ(srv.start(), "");

    client::Client c;
    ASSERT_EQ(c.connect("127.0.0.1", srv.port(), "ingest-test"), "");
    size_t base_docs = w.data.docs.size();

    client::Result ins = c.query(
        "INSERT INTO nobench VALUES ('{\"ingq\": 1, \"ingv\": 10}')");
    ASSERT_TRUE(ins.ok) << ins.error;
    EXPECT_TRUE(ins.isMessage);
    EXPECT_NE(ins.message.find("INSERT 1"), std::string::npos);
    EXPECT_NE(ins.message.find(std::to_string(base_docs + 1)),
              std::string::npos);

    // Batch form: several tuples, one ack.
    client::Result batch = c.query(
        "INSERT INTO nobench VALUES ('{\"ingq\": 2, \"ingv\": 17}'), "
        "('{\"ingq\": 3, \"ingv\": 24}')");
    ASSERT_TRUE(batch.ok) << batch.error;
    EXPECT_NE(batch.message.find("INSERT 2"), std::string::npos);

    // The next read on the same connection sees all three documents,
    // and the frame digest matches an in-process run.
    client::Result sel = c.query(kIngestScan);
    ASSERT_TRUE(sel.ok) << sel.error;
    EXPECT_EQ(sel.rows.size(), 3u);
    sql::RunResult local = sql::runStatement(*w.engine, kIngestScan);
    ASSERT_TRUE(local.ok);
    EXPECT_EQ(sel.digest, local.rows.digest());
    EXPECT_EQ(sel.checksum, local.rows.checksum);

    // STATS counts the appended documents; the layout grew in place
    // (singleton partitions for ingq/ingv) without a swap.
    client::Stats st = c.stats();
    ASSERT_TRUE(st.ok) << st.error;
    EXPECT_EQ(st.get("docs"), base_docs + 3);
    EXPECT_EQ(st.get("layout_epoch"), w.engine->snapshot()->epoch());

    // Malformed JSON in the tuple is a typed parse error, and the
    // connection survives it.
    client::Result bad = c.query(
        "INSERT INTO nobench VALUES ('{\"ingq\": ')");
    EXPECT_FALSE(bad.ok);
    EXPECT_EQ(bad.errorCode, net::ErrorCode::Parse);
    client::Result again = c.query(kIngestScan);
    EXPECT_TRUE(again.ok) << again.error;

    c.close();
    srv.stop();
}

TEST_F(IngestWorld, WireInsertGatedWithoutAllowInsert)
{
    World w;
    server::Server srv(*w.engine, {}); // allowInsert defaults to off
    ASSERT_EQ(srv.start(), "");

    client::Client c;
    ASSERT_EQ(c.connect("127.0.0.1", srv.port(), "ingest-gate"), "");

    client::Result ins = c.query(
        "INSERT INTO nobench VALUES ('{\"ingq\": 1}')");
    EXPECT_FALSE(ins.ok);
    EXPECT_EQ(ins.errorCode, net::ErrorCode::ReadOnly);
    EXPECT_EQ(w.engine->snapshot()->docCount(), data->docs.size());

    // The rejection is per-statement: the session stays usable.
    client::Result sel = c.query("SELECT str1, num FROM t");
    EXPECT_TRUE(sel.ok) << sel.error;

    c.close();
    srv.stop();
}

} // namespace
} // namespace dvp
