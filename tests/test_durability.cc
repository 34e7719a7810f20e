/**
 * @file
 * Tests for the durability subsystem (src/durability): WAL framing,
 * segment roll + GC, torn-tail truncation at every byte offset of a
 * record, manifest CRC + atomic replacement under injected faults,
 * and end-to-end checkpoint/recover cycles through the adaptive
 * engine asserting prefix-consistent recovery with query digests
 * bit-identical to a never-crashed reference.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <thread>
#include <unistd.h>
#include <vector>

#include "adaptive/adaptive_engine.hh"
#include "durability/manager.hh"
#include "durability/manifest.hh"
#include "durability/wal.hh"
#include "json/flatten.hh"
#include "nobench/generator.hh"
#include "nobench/queries.hh"
#include "obs/metrics.hh"
#include "persist/snapshot.hh"
#include "sql/run.hh"
#include "util/codec.hh"
#include "util/durable_file.hh"
#include "util/fault.hh"
#include "util/random.hh"

namespace fs = std::filesystem;

namespace dvp::durability
{
namespace
{

/** Unique scratch directory, removed (with contents) on scope exit. */
struct TempDir
{
    std::string path;

    TempDir()
    {
        static std::atomic<uint64_t> counter{0};
        path = (fs::temp_directory_path() /
                ("dvp_dur_" + std::to_string(::getpid()) + "_" +
                 std::to_string(counter.fetch_add(1))))
                   .string();
        fs::remove_all(path);
        fs::create_directories(path);
    }
    ~TempDir()
    {
        std::error_code ec;
        fs::remove_all(path, ec);
    }
};

/** The one small document shape the byte-sweep tests ingest. */
json::JsonValue
tinyDoc(int64_t i)
{
    json::JsonValue doc = json::JsonValue::makeObject();
    doc.set("a", json::JsonValue(i));
    doc.set("s", json::JsonValue(std::string("v") +
                                 std::to_string(i % 7)));
    return doc;
}

/** Q1..Q11 digests, instantiated deterministically against @p data. */
std::vector<uint64_t>
elevenDigests(adaptive::AdaptiveEngine &eng,
              const engine::DataSet &data, const nobench::Config &cfg)
{
    nobench::QuerySet qs(data, cfg);
    Rng rng(4242);
    std::vector<uint64_t> out;
    for (int i = 0; i < nobench::kNumTemplates; ++i)
        out.push_back(eng.execute(qs.instantiate(i, rng)).digest());
    return out;
}

/** Digest of SQL Q10, which reads only its grouping column. */
uint64_t
sqlQ10Digest(adaptive::AdaptiveEngine &eng)
{
    sql::RunResult r = sql::runStatement(
        eng, "SELECT COUNT(*) FROM t WHERE num BETWEEN 0 AND 499999 "
             "GROUP BY thousandth");
    EXPECT_TRUE(r.ok) << r.error;
    EXPECT_GT(r.rows.rowCount(), 1u);
    return r.rows.digest();
}

adaptive::Params
quietParams()
{
    adaptive::Params p;
    p.background = false;
    p.adapt = false; // keep digest runs deterministic
    return p;
}

// ---------------------------------------------------------------------
// WAL
// ---------------------------------------------------------------------

TEST(Wal, ParseFsyncPolicy)
{
    FsyncPolicy p = FsyncPolicy::None;
    EXPECT_TRUE(parseFsyncPolicy("always", p));
    EXPECT_EQ(p, FsyncPolicy::Always);
    EXPECT_TRUE(parseFsyncPolicy("interval", p));
    EXPECT_EQ(p, FsyncPolicy::Interval);
    EXPECT_TRUE(parseFsyncPolicy("none", p));
    EXPECT_EQ(p, FsyncPolicy::None);
    EXPECT_FALSE(parseFsyncPolicy("sometimes", p));
    EXPECT_STREQ(fsyncPolicyName(FsyncPolicy::Always), "always");
}

TEST(Wal, AppendScanRoundTrip)
{
    TempDir dir;
    WalOptions opts;
    opts.policy = FsyncPolicy::None;
    Wal wal(dir.path, opts);
    ASSERT_EQ(wal.create(1), "");

    ASSERT_EQ(wal.append(RecordType::Ingest, "alpha"), 1u);
    ASSERT_EQ(wal.append(RecordType::Swap, "beta"), 2u);
    ASSERT_EQ(wal.append(RecordType::Ingest, ""), 3u);
    EXPECT_EQ(wal.appendedLsn(), 3u);
    EXPECT_EQ(wal.durableLsn(), 3u); // policy None: durable == appended

    SegmentScan scan =
        scanSegmentFile(dir.path + "/" + segmentFileName(1));
    ASSERT_EQ(scan.error, "");
    EXPECT_FALSE(scan.torn);
    ASSERT_EQ(scan.records.size(), 3u);
    EXPECT_EQ(scan.records[0].type, RecordType::Ingest);
    EXPECT_EQ(scan.records[0].lsn, 1u);
    EXPECT_EQ(scan.records[0].body, "alpha");
    EXPECT_EQ(scan.records[1].type, RecordType::Swap);
    EXPECT_EQ(scan.records[1].body, "beta");
    EXPECT_EQ(scan.records[2].body, "");
}

TEST(Wal, SegmentRollAndGc)
{
    TempDir dir;
    WalOptions opts;
    opts.policy = FsyncPolicy::None;
    opts.segmentBytes = 64; // roll after every record or two
    Wal wal(dir.path, opts);
    ASSERT_EQ(wal.create(1), "");

    std::string body(40, 'x');
    for (int i = 0; i < 10; ++i)
        ASSERT_NE(wal.append(RecordType::Ingest, body), 0u);
    std::vector<std::string> segs = wal.liveSegments();
    ASSERT_GT(segs.size(), 2u);

    // Everything up to LSN 10 is "checkpointed": all but the active
    // segment becomes garbage.
    size_t removed = wal.gcCoveredBy(10);
    EXPECT_EQ(removed, segs.size() - 1);
    EXPECT_EQ(wal.liveSegments().size(), 1u);
    // The survivors still scan clean and the WAL still appends.
    EXPECT_EQ(wal.append(RecordType::Ingest, body), 11u);

    // A target below the second segment's first LSN removes nothing.
    EXPECT_EQ(wal.gcCoveredBy(0), 0u);
}

TEST(Wal, TornTailDetectedAtEveryByteOffset)
{
    TempDir dir;
    WalOptions opts;
    opts.policy = FsyncPolicy::None;
    Wal wal(dir.path, opts);
    ASSERT_EQ(wal.create(1), "");
    ASSERT_EQ(wal.append(RecordType::Ingest, "first record"), 1u);
    ASSERT_EQ(wal.append(RecordType::Ingest, "second record"), 2u);
    ASSERT_EQ(wal.append(RecordType::Swap, "final record body"), 3u);

    std::string seg = dir.path + "/" + segmentFileName(1);
    std::ifstream in(seg, std::ios::binary);
    std::string full((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    in.close();
    const uint64_t frame3 =
        kRecordPrefixBytes + 9 + std::string("final record body").size();
    const uint64_t intact = full.size() - frame3;

    // Kill the write at every byte of the final record: the scan must
    // land exactly on the end of record 2, flagged torn unless the cut
    // is at a record boundary.
    for (uint64_t cut = intact; cut <= full.size(); ++cut) {
        std::string t = dir.path + "/torn";
        fs::remove(t);
        fs::copy_file(seg, t);
        fs::resize_file(t, cut);
        SegmentScan scan = scanSegmentFile(t);
        ASSERT_EQ(scan.error, "") << "cut at " << cut;
        ASSERT_EQ(scan.validBytes,
                  cut == full.size() ? full.size() : intact)
            << "cut at " << cut;
        EXPECT_EQ(scan.torn, cut != intact && cut != full.size())
            << "cut at " << cut;
        ASSERT_EQ(scan.records.size(), cut == full.size() ? 3u : 2u)
            << "cut at " << cut;
        if (!scan.records.empty()) {
            EXPECT_EQ(scan.records[0].body, "first record");
            EXPECT_EQ(scan.records[1].body, "second record");
        }
    }
}

TEST(Wal, FaultInjectedAppendThenContinueAt)
{
    // Crash a real append at every byte offset via the injector, then
    // recover the segment with continueAt and keep appending.
    const std::string body = "crash me";
    const uint64_t frame = kRecordPrefixBytes + 9 + body.size();

    for (uint64_t budget = 0; budget < frame; ++budget) {
        TempDir dir;
        WalOptions opts;
        opts.policy = FsyncPolicy::None;
        uint64_t intact;
        {
            Wal wal(dir.path, opts);
            ASSERT_EQ(wal.create(1), "");
            ASSERT_EQ(wal.append(RecordType::Ingest, "survivor"), 1u);
            SegmentScan pre = scanSegmentFile(
                dir.path + "/" + segmentFileName(1));
            intact = pre.validBytes;

            FaultInjector::global().arm(budget);
            EXPECT_EQ(wal.append(RecordType::Ingest, body), 0u)
                << "budget " << budget;
            FaultInjector::global().disarm();
            EXPECT_TRUE(wal.failed());
            // A failed WAL refuses everything after (latched).
            EXPECT_EQ(wal.append(RecordType::Ingest, "no"), 0u);
        }

        SegmentScan scan =
            scanSegmentFile(dir.path + "/" + segmentFileName(1));
        ASSERT_EQ(scan.error, "") << "budget " << budget;
        ASSERT_EQ(scan.records.size(), 1u) << "budget " << budget;
        EXPECT_EQ(scan.records[0].body, "survivor");
        EXPECT_EQ(scan.validBytes, intact);
        EXPECT_EQ(scan.torn, budget != 0);

        // Recovery path: truncate the torn tail, resume at LSN 2.
        Wal wal2(dir.path, opts);
        ASSERT_EQ(wal2.continueAt(segmentFileName(1), scan.validBytes,
                                  2),
                  "");
        ASSERT_EQ(wal2.append(RecordType::Ingest, "after crash"), 2u);
        SegmentScan post =
            scanSegmentFile(dir.path + "/" + segmentFileName(1));
        ASSERT_EQ(post.records.size(), 2u) << "budget " << budget;
        EXPECT_FALSE(post.torn);
        EXPECT_EQ(post.records[1].body, "after crash");
        EXPECT_EQ(post.records[1].lsn, 2u);
    }
}

TEST(Wal, NewerSegmentVersionIsNamedNotCorrupt)
{
    TempDir dir;
    {
        WalOptions opts;
        opts.policy = FsyncPolicy::None;
        Wal wal(dir.path, opts);
        ASSERT_EQ(wal.create(1), "");
        ASSERT_EQ(wal.append(RecordType::Ingest, "x"), 1u);
    }
    std::string path = dir.path + "/" + segmentFileName(1);
    std::string bytes;
    ASSERT_EQ(readWholeFile(path, bytes), "");

    bytes[6] = '2';
    ASSERT_EQ(atomicWriteFile(path, bytes, false), "");
    EXPECT_EQ(scanSegmentFile(path).error,
              "WAL segment format v2, this binary reads ≤ v1 ('" + path +
                  "')");

    bytes[6] = '1';
    bytes[0] = 'X';
    ASSERT_EQ(atomicWriteFile(path, bytes, false), "");
    EXPECT_EQ(scanSegmentFile(path).error,
              "bad segment header in '" + path + "'");
}

TEST(Wal, SegmentFormatPinnedByteForByte)
{
    // A segment holding one fixed Ingest record and one Swap record,
    // written through the Manager's own encoders, is pinned to the
    // byte.  The size and CRC-32 were taken from the encoders the
    // shared codec replaced, so a change means the WAL format moved.
    TempDir dir;
    Config dcfg;
    dcfg.dir = dir.path;
    dcfg.fsyncPolicy = FsyncPolicy::None;
    Manager mgr(dcfg);
    engine::DataSet data;
    RecoveryInfo info;
    ASSERT_EQ(mgr.open(data, info), "");

    std::vector<std::vector<json::FlatAttr>> docs{
        {{"a", json::JsonValue(int64_t{-7})},
         {"b", json::JsonValue(true)},
         {"c", json::JsonValue(2.5)}},
        {{"a", json::JsonValue()},
         {"b", json::JsonValue(false)},
         {"s", json::JsonValue(std::string("pinned"))}},
    };
    ASSERT_EQ(mgr.logIngest(Manager::encodeIngestBody(docs)), 1u);
    ASSERT_EQ(mgr.logSwap(layout::Layout({{0, 2}, {1, 3}}), 4, 2), 2u);

    std::string bytes;
    ASSERT_EQ(readWholeFile(dir.path + "/" + segmentFileName(1), bytes),
              "");
    EXPECT_EQ(bytes.size(), 168u);
    EXPECT_EQ(crc32(bytes.data(), bytes.size()), 2713208759u);
}

// ---------------------------------------------------------------------
// Manifest
// ---------------------------------------------------------------------

TEST(Manifest, RoundTripAndCrcReject)
{
    Manifest m;
    m.seq = 42;
    m.snapshotFile = "snapshot-00000000000000000007.snap";
    m.snapshotLsn = 7;
    m.epoch = 3;
    m.segments = {"wal-00000000000000000008.seg"};

    std::string bytes = encodeManifest(m);
    Manifest back;
    ASSERT_EQ(decodeManifest(bytes, back), "");
    EXPECT_EQ(back.seq, 42u);
    EXPECT_EQ(back.snapshotFile, m.snapshotFile);
    EXPECT_EQ(back.snapshotLsn, 7u);
    EXPECT_EQ(back.epoch, 3u);
    EXPECT_EQ(back.segments, m.segments);

    for (size_t i = 0; i < bytes.size(); ++i) {
        std::string bad = bytes;
        bad[i] ^= 0x40;
        Manifest junk;
        EXPECT_NE(decodeManifest(bad, junk), "") << "flip at " << i;
    }
    EXPECT_NE(decodeManifest(bytes.substr(0, bytes.size() - 1), back),
              "");
}

TEST(Manifest, FormatPinnedByteForByte)
{
    // Pinned like the WAL segment above: size and CRC-32 of a fixed
    // manifest, taken from the encoder the shared codec replaced.
    Manifest m;
    m.seq = 5;
    m.snapshotFile = "snapshot-00000000000000000042.snap";
    m.snapshotLsn = 42;
    m.epoch = 3;
    m.segments = {"wal-00000000000000000043.seg",
                  "wal-00000000000000000090.seg"};
    std::string bytes = encodeManifest(m);
    // The trailing CRC is left out: a CRC-32 over bytes that end in
    // their own CRC is the same constant for every input.
    EXPECT_EQ(bytes.size(), 142u);
    EXPECT_EQ(crc32(bytes.data(), bytes.size() - 4), 2700433032u);
}

TEST(Manifest, NewerVersionIsNamedNotCorrupt)
{
    Manifest m;
    m.seq = 1;
    std::string bytes = encodeManifest(m);
    Manifest back;
    std::string newer = bytes;
    newer[6] = '2';
    EXPECT_EQ(decodeManifest(newer, back),
              "manifest format v2, this binary reads ≤ v1");

    std::string foreign = bytes;
    foreign[2] = 'X';
    EXPECT_EQ(decodeManifest(foreign, back), "manifest: bad magic");
    std::string zero = bytes; // no version 0: not a manifest
    zero[6] = '0';
    EXPECT_EQ(decodeManifest(zero, back), "manifest: bad magic");
}

TEST(Manifest, AtomicReplaceSurvivesFaultAtEveryByte)
{
    TempDir dir;
    fs::create_directories(dir.path);
    Manifest oldm;
    oldm.seq = 1;
    ASSERT_EQ(storeManifest(dir.path, oldm), "");

    Manifest newm;
    newm.seq = 2;
    newm.snapshotFile = "snapshot-00000000000000000009.snap";
    newm.snapshotLsn = 9;
    const size_t total = encodeManifest(newm).size();

    // Kill the rewrite at every byte (including the pre-rename gate at
    // budget == total): the directory must always hold a valid
    // manifest — the old one until the rename, the new one after.
    for (size_t budget = 0; budget <= total + 1; ++budget) {
        FaultInjector::global().arm(budget);
        std::string err = storeManifest(dir.path, newm);
        FaultInjector::global().disarm();

        Manifest got;
        ASSERT_EQ(loadManifest(dir.path, got), "")
            << "budget " << budget;
        if (err.empty()) {
            EXPECT_EQ(got.seq, 2u) << "budget " << budget;
        } else {
            EXPECT_EQ(got.seq, 1u) << "budget " << budget;
        }
    }
}

// ---------------------------------------------------------------------
// Snapshot v2 meta
// ---------------------------------------------------------------------

TEST(SnapshotMeta, RoundTripThroughV2Image)
{
    nobench::Config cfg;
    cfg.numDocs = 50;
    cfg.seed = 11;
    engine::DataSet data = nobench::generateDataSet(cfg);

    persist::SnapshotMeta meta;
    meta.epoch = 7;
    meta.baseDocs = 40;
    meta.walLsn = 123;
    std::string bytes = persist::serialize(data, nullptr, &meta);
    persist::LoadResult r = persist::deserialize(bytes);
    ASSERT_TRUE(r.ok) << r.error;
    ASSERT_TRUE(r.meta.has_value());
    EXPECT_EQ(r.meta->epoch, 7u);
    EXPECT_EQ(r.meta->baseDocs, 40u);
    EXPECT_EQ(r.meta->walLsn, 123u);

    // baseDocs beyond the document count is structural corruption.
    meta.baseDocs = 51;
    r = persist::deserialize(persist::serialize(data, nullptr, &meta));
    EXPECT_FALSE(r.ok);
}

// ---------------------------------------------------------------------
// Manager end to end
// ---------------------------------------------------------------------

/** A durable engine over a fresh data directory seeded with NoBench. */
struct DurableWorld
{
    TempDir dir;
    nobench::Config cfg;
    engine::DataSet data;
    std::unique_ptr<Manager> mgr;
    std::unique_ptr<adaptive::AdaptiveEngine> engine;

    explicit DurableWorld(size_t docs, adaptive::Params params,
                          Config dcfg = {})
    {
        cfg.numDocs = docs;
        cfg.seed = 99;
        data = nobench::generateDataSet(cfg);
        dcfg.dir = dir.path;
        if (dcfg.fsyncPolicy == FsyncPolicy::Always)
            dcfg.fsyncPolicy = FsyncPolicy::None; // tests: no fsync wait
        mgr = std::make_unique<Manager>(dcfg);
        RecoveryInfo info;
        std::string err = mgr->open(data, info);
        EXPECT_EQ(err, "");
        EXPECT_FALSE(info.recovered);
        engine = std::make_unique<adaptive::AdaptiveEngine>(
            data, std::vector<engine::Query>{}, params);
        engine->setDurability(mgr.get());
        CheckpointResult ck = mgr->checkpointNow();
        EXPECT_TRUE(ck.ok) << ck.error;
    }
};

/** Checkpoints so far in this process (the registry is global). */
uint64_t
checkpointCount()
{
    return obs::Registry::global().counter("dvp_checkpoints_total").value();
}

/** Reopen @p dir and rebuild an engine exactly as dvpd boot does. */
struct RecoveredWorld
{
    engine::DataSet data;
    RecoveryInfo info;
    std::unique_ptr<Manager> mgr;
    std::unique_ptr<adaptive::AdaptiveEngine> engine;

    RecoveredWorld(const std::string &dir, adaptive::Params params)
    {
        Config dcfg;
        dcfg.dir = dir;
        dcfg.fsyncPolicy = FsyncPolicy::None;
        mgr = std::make_unique<Manager>(dcfg);
        std::string err = mgr->open(data, info);
        EXPECT_EQ(err, "");
        EXPECT_TRUE(info.recovered);
        if (info.layout) {
            adaptive::Restore r;
            r.layout = *info.layout;
            r.epoch = info.epoch;
            r.baseDocs = info.baseDocs;
            engine = adaptive::AdaptiveEngine::restore(
                data, std::move(r), params);
        } else {
            engine = std::make_unique<adaptive::AdaptiveEngine>(
                data, std::vector<engine::Query>{}, params);
        }
        engine->setDurability(mgr.get());
    }
};

TEST(Manager, FreshOpenRefusesStraySegments)
{
    TempDir dir;
    {
        WalOptions opts;
        opts.policy = FsyncPolicy::None;
        Wal wal(dir.path, opts);
        ASSERT_EQ(wal.create(1), "");
        ASSERT_EQ(wal.append(RecordType::Ingest, "x"), 1u);
    }
    fs::remove(dir.path + "/" + std::string(kManifestFile));

    Config dcfg;
    dcfg.dir = dir.path;
    Manager mgr(dcfg);
    engine::DataSet out;
    RecoveryInfo info;
    std::string err = mgr.open(out, info);
    EXPECT_NE(err.find("no manifest"), std::string::npos) << err;
}

TEST(Manager, OneOwnerPerDataDirectory)
{
    // Two Managers appending to one WAL segment would corrupt it: the
    // second opener must fail by name, and succeed once the first is
    // gone (the flock dies with its owner, so no stale lock remains).
    TempDir dir;
    Config dcfg;
    dcfg.dir = dir.path;
    dcfg.fsyncPolicy = FsyncPolicy::None;
    auto first = std::make_unique<Manager>(dcfg);
    engine::DataSet d1;
    RecoveryInfo i1;
    ASSERT_EQ(first->open(d1, i1), "");

    {
        Manager second(dcfg);
        engine::DataSet d2;
        RecoveryInfo i2;
        std::string err = second.open(d2, i2);
        EXPECT_NE(err.find("locked by another process"), std::string::npos)
            << err;
        EXPECT_TRUE(d2.docs.empty());
    }

    first.reset();
    Manager third(dcfg);
    engine::DataSet d3;
    RecoveryInfo i3;
    EXPECT_EQ(third.open(d3, i3), "");
    EXPECT_TRUE(i3.recovered);
}

TEST(Manager, OpenNamesANewerFormatAndFlagsCorruptMagic)
{
    // Recovery reads three formats: the manifest, then the snapshot it
    // names, then the WAL segments.  Each one written by a newer binary
    // stops open() with its name and version; a corrupt magic in each
    // keeps the corruption error.
    std::string dirpath;
    {
        DurableWorld w(60, quietParams());
        dirpath = w.dir.path;
        fs::rename(w.dir.path, w.dir.path + ".keep");
    }
    fs::rename(dirpath + ".keep", dirpath);

    auto file_starting = [&](const std::string &prefix) {
        for (const auto &ent : fs::directory_iterator(dirpath)) {
            std::string name = ent.path().filename().string();
            if (name.rfind(prefix, 0) == 0)
                return ent.path().string();
        }
        return std::string();
    };
    struct Format
    {
        std::string path;
        size_t versionByte;
        char newer;
        const char *named;
    };
    std::vector<Format> formats = {
        {dirpath + "/" + std::string(kManifestFile), 6, '2',
         "manifest format v2, this binary reads ≤ v1"},
        {file_starting("snapshot-"), 7, '3',
         "snapshot format v3, this binary reads ≤ v2"},
        {file_starting("wal-"), 6, '2',
         "WAL segment format v2, this binary reads ≤ v1"},
    };
    auto open_error = [&] {
        Config dcfg;
        dcfg.dir = dirpath;
        dcfg.fsyncPolicy = FsyncPolicy::None;
        Manager mgr(dcfg);
        engine::DataSet data;
        RecoveryInfo info;
        return mgr.open(data, info);
    };
    for (const Format &f : formats) {
        SCOPED_TRACE(f.path);
        std::string good;
        ASSERT_EQ(readWholeFile(f.path, good), "");

        std::string bytes = good;
        bytes[f.versionByte] = f.newer;
        ASSERT_EQ(atomicWriteFile(f.path, bytes, false), "");
        std::string err = open_error();
        EXPECT_NE(err.find(f.named), std::string::npos) << err;

        bytes = good;
        bytes[1] = 'X';
        ASSERT_EQ(atomicWriteFile(f.path, bytes, false), "");
        err = open_error();
        EXPECT_NE(err, "");
        EXPECT_EQ(err.find("format v"), std::string::npos) << err;

        ASSERT_EQ(atomicWriteFile(f.path, good, false), "");
    }
    EXPECT_EQ(open_error(), "");
    fs::remove_all(dirpath);
}

TEST(Manager, CheckpointRecoverBitIdenticalDigests)
{
    adaptive::Params params = quietParams();
    std::vector<uint64_t> before;
    uint64_t epoch_before, docs_before, sql_q10_before;
    std::string dirpath;
    nobench::Config ncfg;
    {
        DurableWorld w(300, params);
        dirpath = w.dir.path;
        ncfg = w.cfg;

        // Acked ingests beyond the checkpoint live only in the WAL.
        Rng rng(7);
        std::vector<std::vector<json::FlatAttr>> batch;
        for (int i = 0; i < 20; ++i)
            batch.push_back(
                json::flatten(nobench::generateDoc(w.cfg, rng, 300 + i)));
        adaptive::IngestAck ack = w.engine->ingest(batch);
        ASSERT_EQ(ack.walError, "");
        ASSERT_EQ(ack.totalDocs, 320u);

        before = elevenDigests(*w.engine, w.data, w.cfg);
        sql_q10_before = sqlQ10Digest(*w.engine);
        epoch_before = w.engine->snapshot()->epoch();
        docs_before = ack.totalDocs;
        // Keep the directory alive past the TempDir destructor by
        // renaming it out from under w before teardown.
        fs::rename(w.dir.path, w.dir.path + ".keep");
    }
    fs::rename(dirpath + ".keep", dirpath);

    RecoveredWorld r(dirpath, params);
    EXPECT_EQ(r.data.docs.size(), docs_before);
    EXPECT_EQ(r.info.snapshotDocs, 300u);
    EXPECT_EQ(r.info.replayedDocs, 20u);
    EXPECT_EQ(r.engine->snapshot()->epoch(), epoch_before);
    EXPECT_EQ(elevenDigests(*r.engine, r.data, ncfg), before);
    EXPECT_EQ(sqlQ10Digest(*r.engine), sql_q10_before);
    fs::remove_all(dirpath);
}

// INSERTs that introduce attributes the initial layout never had grow
// the live layout in place: each new attribute gets a singleton
// partition, with no swap and no new epoch.  A restart must come back
// to the same state whether the growth was captured by a checkpoint
// ("a"/"s": the snapshot's layout carries their partitions) or lives
// only in the WAL tail ("b": replay appends it the way ingest did):
// the same epoch, the same layout fingerprint, the same digests.
TEST(Manager, RestartAfterInPlaceGrowthRestoresEpochFingerprintDigests)
{
    adaptive::Params params = quietParams(); // no swap
    std::vector<uint64_t> before;
    uint64_t tiny_before, epoch_before, fingerprint_before;
    size_t tables_before;
    std::string dirpath;
    nobench::Config ncfg;

    auto tinyProject = [](adaptive::AdaptiveEngine &eng,
                          const engine::DataSet &data) {
        engine::Query q;
        q.kind = engine::QueryKind::Project;
        q.projected = {data.catalog.find("a"), data.catalog.find("s"),
                       data.catalog.find("b")};
        q.frequency = 1.0;
        return eng.execute(q).digest();
    };

    {
        DurableWorld w(120, params);
        dirpath = w.dir.path;
        ncfg = w.cfg;
        uint64_t epoch0 = w.engine->snapshot()->epoch();
        uint64_t fingerprint0 = w.engine->snapshot()->layoutFingerprint();

        // "a"/"s" exist in no NoBench doc: the layout grows two
        // singleton partitions and keeps its epoch.
        for (int i = 0; i < 3; ++i)
            ASSERT_EQ(
                w.engine->ingest({json::flatten(tinyDoc(i))}).walError, "");
        EXPECT_EQ(w.engine->snapshot()->epoch(), epoch0);
        EXPECT_NE(w.engine->snapshot()->layoutFingerprint(), fingerprint0);
        CheckpointResult ck = w.mgr->checkpointNow();
        ASSERT_TRUE(ck.ok) << ck.error;
        // Past the snapshot: one more acked ingest, adding "b".
        json::JsonValue doc = tinyDoc(3);
        doc.set("b", json::JsonValue(int64_t{42}));
        ASSERT_EQ(w.engine->ingest({json::flatten(doc)}).walError, "");

        before = elevenDigests(*w.engine, w.data, w.cfg);
        tiny_before = tinyProject(*w.engine, w.data);
        epoch_before = w.engine->snapshot()->epoch();
        fingerprint_before = w.engine->snapshot()->layoutFingerprint();
        tables_before = w.engine->snapshot()->tableCount();
        fs::rename(w.dir.path, w.dir.path + ".keep");
    }
    fs::rename(dirpath + ".keep", dirpath);

    RecoveredWorld r(dirpath, params);
    EXPECT_EQ(r.data.docs.size(), 124u);
    EXPECT_EQ(r.info.snapshotDocs, 123u);
    EXPECT_EQ(r.info.replayedDocs, 1u);
    EXPECT_EQ(r.engine->snapshot()->epoch(), epoch_before);
    EXPECT_EQ(r.engine->snapshot()->layoutFingerprint(),
              fingerprint_before);
    EXPECT_EQ(r.engine->snapshot()->tableCount(), tables_before);
    EXPECT_EQ(elevenDigests(*r.engine, r.data, ncfg), before);
    EXPECT_EQ(tinyProject(*r.engine, r.data), tiny_before);
    fs::remove_all(dirpath);
}

// A Swap record's CRC says nothing about its layout, so replay checks
// the layout the way the checkpoint image's is checked: one that
// repeats an attribute or names one past the catalog replayed so far
// is corrupt state, refused by name instead of aborted on or served.
TEST(Manager, RecoveryRefusesAnInvalidSwapLayout)
{
    // One Ingest record of tinyDoc ("a", "s"): a catalog of 2.
    constexpr uint32_t kCatalog = 2;
    auto swapBody = [](std::vector<std::vector<uint32_t>> parts) {
        Writer w;
        w.u64(1); // epoch
        w.u64(1); // baseDocs
        w.u32(static_cast<uint32_t>(parts.size()));
        for (const auto &part : parts) {
            w.u32(static_cast<uint32_t>(part.size()));
            for (uint32_t a : part)
                w.u32(a);
        }
        return w.take();
    };
    auto openWithSwap = [](const std::string &body, RecoveryInfo &info) {
        TempDir dir;
        Config dcfg;
        dcfg.dir = dir.path;
        dcfg.fsyncPolicy = FsyncPolicy::None;
        {
            Manager mgr(dcfg);
            engine::DataSet data;
            RecoveryInfo fresh;
            EXPECT_EQ(mgr.open(data, fresh), "");
            EXPECT_EQ(mgr.logIngest(Manager::encodeIngestBody(
                          {json::flatten(tinyDoc(1))})),
                      1u);
            EXPECT_EQ(mgr.wal()->append(RecordType::Swap, body), 2u);
        }
        Manager mgr(dcfg);
        engine::DataSet data;
        return mgr.open(data, info);
    };

    RecoveryInfo info;
    EXPECT_EQ(openWithSwap(swapBody({{0, 1}, {1}}), info),
              "corrupt Swap record at LSN 2");
    EXPECT_EQ(openWithSwap(swapBody({{0}, {1, kCatalog + 3}}), info),
              "corrupt Swap record at LSN 2");

    ASSERT_EQ(openWithSwap(swapBody({{1}, {0}}), info), "");
    ASSERT_TRUE(info.layout.has_value());
    EXPECT_TRUE(info.layout->equivalentTo(layout::Layout({{0}, {1}})));
    EXPECT_EQ(info.epoch, 1u);
    EXPECT_EQ(info.baseDocs, 1u);
}

TEST(Manager, RecoverAfterLayoutSwapRestoresEpochAndLayout)
{
    adaptive::Params params;
    params.background = false;
    params.adapt = true;
    params.window = 20;
    params.changeThreshold = 0.4;

    std::vector<uint64_t> before;
    uint64_t epoch_before, base_before, fingerprint_before;
    std::string dirpath;
    nobench::Config ncfg;
    {
        DurableWorld w(200, params);
        dirpath = w.dir.path;
        ncfg = w.cfg;
        uint64_t epoch0 = w.engine->snapshot()->epoch();

        Rng rng(8);
        std::vector<std::vector<json::FlatAttr>> batch;
        for (int i = 0; i < 40; ++i)
            batch.push_back(
                json::flatten(nobench::generateDoc(w.cfg, rng, 200 + i)));
        adaptive::IngestAck ack = w.engine->ingest(batch);
        ASSERT_EQ(ack.walError, "");

        // A workload shift trips the change detector: the synchronous
        // repartition swaps in a new epoch and logs a Swap record.
        nobench::QuerySet qs(w.data, w.cfg);
        Rng qrng(9);
        for (int i = 0; i < 3 * static_cast<int>(params.window); ++i)
            w.engine->execute(qs.instantiate(i % 3, qrng));
        for (int i = 0; i < 6 * static_cast<int>(params.window) &&
                        w.engine->adaptation().repartitions == 0;
             ++i)
            w.engine->execute(qs.instantiateShifted(
                i % nobench::kNumTemplates, qrng));
        ASSERT_GE(w.engine->adaptation().repartitions, 1u);
        std::shared_ptr<engine::Database> db = w.engine->snapshot();
        ASSERT_GT(db->epoch(), epoch0);
        epoch_before = db->epoch();
        base_before = db->docCount();
        fingerprint_before = db->layoutFingerprint();
        before = elevenDigests(*w.engine, w.data, w.cfg);
        // The digest run itself must not have swapped again.
        ASSERT_EQ(w.engine->snapshot()->epoch(), epoch_before);
        fs::rename(w.dir.path, w.dir.path + ".keep");
    }
    fs::rename(dirpath + ".keep", dirpath);

    RecoveredWorld r(dirpath, quietParams());
    ASSERT_TRUE(r.info.layout.has_value());
    EXPECT_EQ(r.info.epoch, epoch_before);
    EXPECT_EQ(r.info.baseDocs, base_before);
    std::shared_ptr<engine::Database> db = r.engine->snapshot();
    EXPECT_EQ(db->epoch(), epoch_before);
    EXPECT_EQ(db->docCount(), base_before);
    EXPECT_EQ(db->layoutFingerprint(), fingerprint_before);
    nobench::Config cfg = ncfg;
    EXPECT_EQ(elevenDigests(*r.engine, r.data, cfg), before);
    fs::remove_all(dirpath);
}

TEST(Manager, CrashInjectionPrefixConsistentAtEveryByte)
{
    // Sweep a crash across every byte of an ingest commit: whatever
    // the budget, recovery must land on a consistent prefix — every
    // *acked* batch present, digests identical to a never-crashed
    // reference fed the same prefix.
    adaptive::Params params = quietParams();
    nobench::Config ncfg;
    ncfg.numDocs = 60;
    ncfg.seed = 99;

    // Frame size of the batch we crash: prefix + type/lsn + body.
    std::vector<std::vector<json::FlatAttr>> crash_flat{
        json::flatten(tinyDoc(1000))};
    const uint64_t frame =
        kRecordPrefixBytes + 9 +
        Manager::encodeIngestBody(crash_flat).size();

    for (uint64_t budget = 0; budget <= frame; ++budget) {
        std::string dirpath;
        bool acked;
        {
            DurableWorld w(60, params);
            dirpath = w.dir.path;
            // Two clean batches after the seed checkpoint.
            for (int64_t b = 0; b < 2; ++b) {
                adaptive::IngestAck a =
                    w.engine->ingest({json::flatten(tinyDoc(100 + b))});
                ASSERT_EQ(a.walError, "");
            }
            FaultInjector::global().arm(budget);
            adaptive::IngestAck a =
                w.engine->ingest({json::flatten(tinyDoc(1000))});
            FaultInjector::global().disarm();
            acked = a.walError.empty();
            EXPECT_EQ(acked, budget >= frame) << "budget " << budget;
            fs::rename(w.dir.path, w.dir.path + ".keep");
        }
        fs::rename(dirpath + ".keep", dirpath);

        RecoveredWorld r(dirpath, params);
        size_t expect = 60 + 2 + (acked ? 1 : 0);
        ASSERT_EQ(r.data.docs.size(), expect) << "budget " << budget;

        // Never-crashed reference over the same prefix.
        engine::DataSet ref = nobench::generateDataSet(ncfg);
        for (int64_t b = 0; b < 2; ++b)
            ref.addFlat(json::flatten(tinyDoc(100 + b)));
        if (acked)
            ref.addFlat(json::flatten(tinyDoc(1000)));
        adaptive::AdaptiveEngine ref_eng(
            ref, std::vector<engine::Query>{}, params);
        EXPECT_EQ(elevenDigests(*r.engine, r.data, ncfg),
                  elevenDigests(ref_eng, ref, ncfg))
            << "budget " << budget;
        fs::remove_all(dirpath);
    }
}

TEST(Manager, CheckpointConcurrentWithQueriesAndIngest)
{
    adaptive::Params params;
    params.background = true;
    params.adapt = false;
    uint64_t checkpoints0 = checkpointCount();
    DurableWorld w(300, params);

    // Instantiate before the writer starts: a QuerySet reads the live
    // catalog, which ingest grows under the DataSet write lock.
    std::vector<std::vector<engine::Query>> work(3);
    {
        nobench::QuerySet qs(w.data, w.cfg);
        for (int t = 0; t < 3; ++t) {
            Rng rng(100 + t);
            for (int i = 0; i < 64; ++i)
                work[t].push_back(qs.instantiate(
                    static_cast<int>(rng.below(11)), rng));
        }
    }

    std::atomic<bool> stop{false};
    std::atomic<uint64_t> executed{0};
    std::vector<std::thread> readers;
    for (int t = 0; t < 3; ++t)
        readers.emplace_back([&, t] {
            for (size_t i = 0; !stop.load(std::memory_order_relaxed); ++i) {
                w.engine->execute(work[t][i % work[t].size()]);
                executed.fetch_add(1, std::memory_order_relaxed);
            }
        });
    std::thread writer([&] {
        int64_t oid = 5000;
        while (!stop.load(std::memory_order_relaxed)) {
            adaptive::IngestAck a =
                w.engine->ingest({json::flatten(tinyDoc(oid++))});
            ASSERT_EQ(a.walError, "");
        }
    });

    // Checkpoints run while queries and ingest hammer the engine;
    // serving never stalls beyond the cut copy.
    for (int i = 0; i < 5; ++i) {
        CheckpointResult ck = w.mgr->checkpointNow();
        ASSERT_TRUE(ck.ok) << ck.error;
    }
    stop.store(true);
    for (auto &th : readers)
        th.join();
    writer.join();
    EXPECT_GT(executed.load(), 0u);
    EXPECT_GE(checkpointCount() - checkpoints0, 6u); // seed + 5
}

TEST(Manager, SqlCheckpointStatement)
{
    adaptive::Params params = quietParams();

    // Without durability the statement maps to Unsupported.
    {
        nobench::Config cfg;
        cfg.numDocs = 30;
        engine::DataSet plain = nobench::generateDataSet(cfg);
        adaptive::AdaptiveEngine eng(
            plain, std::vector<engine::Query>{}, params);
        sql::RunResult r = sql::runStatement(eng, "CHECKPOINT");
        EXPECT_FALSE(r.ok);
        EXPECT_EQ(r.errorKind, sql::RunResult::Error::Unsupported);
    }

    uint64_t checkpoints0 = checkpointCount();
    DurableWorld w(30, params);
    sql::RunResult r = sql::runStatement(*w.engine, "CHECKPOINT;");
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_NE(r.message.find("CHECKPOINT (snapshot-"),
              std::string::npos)
        << r.message;
    EXPECT_EQ(checkpointCount() - checkpoints0, 2u); // seed + SQL
}

} // namespace
} // namespace dvp::durability
