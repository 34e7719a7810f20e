#include "durability/manager.hh"

#include <cerrno>
#include <cstring>
#include <fcntl.h>
#include <filesystem>
#include <sys/file.h>
#include <unistd.h>

#include "obs/metrics.hh"
#include "persist/snapshot.hh"
#include "util/codec.hh"
#include "util/durable_file.hh"
#include "util/logging.hh"
#include "util/timer.hh"

namespace fs = std::filesystem;

namespace dvp::durability
{

namespace
{

std::string
snapshotFileName(uint64_t lsn)
{
    char buf[48];
    std::snprintf(buf, sizeof buf, "snapshot-%020llu.snap",
                  static_cast<unsigned long long>(lsn));
    return buf;
}

bool
isSnapshotFile(const std::string &name)
{
    return name.size() == 34 && name.rfind("snapshot-", 0) == 0 &&
           name.compare(29, 5, ".snap") == 0;
}

/**
 * Swap record body: u64 epoch | u64 baseDocs | the layout, in the
 * layout codec the checkpoint image also uses (layout::encodeLayout).
 */
std::string
encodeSwapBody(const layout::Layout &layout, uint64_t epoch,
               uint64_t base_docs)
{
    Writer w;
    w.u64(epoch);
    w.u64(base_docs);
    layout::encodeLayout(w, layout);
    return w.take();
}

/**
 * Decode a Swap body over a catalog of @p catalog_size attributes:
 * the layout is checked the way the checkpoint image's is.
 */
bool
decodeSwapBody(const std::string &body, size_t catalog_size,
               layout::Layout &layout, uint64_t &epoch,
               uint64_t &base_docs)
{
    Reader r(body);
    epoch = r.u64();
    base_docs = r.u64();
    return layout::decodeLayout(r, catalog_size, layout).empty() &&
           r.exhausted();
}

} // namespace

// ---------------------------------------------------------------------
// Record body codecs
// ---------------------------------------------------------------------

std::string
Manager::encodeIngestBody(
    const std::vector<std::vector<json::FlatAttr>> &docs)
{
    Writer w;
    w.u32(static_cast<uint32_t>(docs.size()));
    for (const auto &doc : docs) {
        w.u32(static_cast<uint32_t>(doc.size()));
        for (const auto &attr : doc) {
            w.str(attr.path);
            const json::JsonValue &v = attr.value;
            switch (v.type()) {
              case json::Type::Null:
                w.u8(0);
                break;
              case json::Type::Bool:
                w.u8(v.asBool() ? 2 : 1);
                break;
              case json::Type::Int:
                w.u8(3);
                w.i64(v.asInt());
                break;
              case json::Type::Double: {
                w.u8(4);
                double d = v.asDouble();
                uint64_t bits;
                std::memcpy(&bits, &d, 8);
                w.u64(bits);
                break;
              }
              case json::Type::String:
                w.u8(5);
                w.str(v.asString());
                break;
              default:
                // flatten() never yields containers.
                panic("encodeIngestBody: non-scalar flat value");
            }
        }
    }
    return w.take();
}

bool
Manager::decodeIngestBody(const std::string &body,
                          std::vector<std::vector<json::FlatAttr>> &out)
{
    // A document takes at least 4 bytes and an attribute at least 5,
    // so no count sizes anything before the bytes left can hold it.
    Reader r(body);
    uint32_t ndocs = r.u32();
    if (ndocs > r.remaining() / 4)
        return false;
    out.clear();
    out.reserve(ndocs);
    for (uint32_t d = 0; d < ndocs && r.ok(); ++d) {
        uint32_t nattrs = r.u32();
        if (nattrs > r.remaining() / 5)
            return false;
        std::vector<json::FlatAttr> doc;
        doc.reserve(nattrs);
        for (uint32_t a = 0; a < nattrs && r.ok(); ++a) {
            json::FlatAttr attr;
            attr.path = r.str();
            uint8_t kind = r.u8();
            switch (kind) {
              case 0:
                break; // null
              case 1:
                attr.value = json::JsonValue(false);
                break;
              case 2:
                attr.value = json::JsonValue(true);
                break;
              case 3:
                attr.value = json::JsonValue(r.i64());
                break;
              case 4: {
                uint64_t bits = r.u64();
                double dv;
                std::memcpy(&dv, &bits, 8);
                attr.value = json::JsonValue(dv);
                break;
              }
              case 5:
                attr.value = json::JsonValue(r.str());
                break;
              default:
                return false;
            }
            doc.push_back(std::move(attr));
        }
        out.push_back(std::move(doc));
    }
    return r.exhausted();
}

// ---------------------------------------------------------------------
// Manager
// ---------------------------------------------------------------------

Manager::Manager(Config cfg) : cfg_(std::move(cfg))
{
    WalOptions wopts;
    wopts.policy = cfg_.fsyncPolicy;
    wopts.intervalMs = cfg_.fsyncIntervalMs;
    wopts.segmentBytes = cfg_.walSegmentBytes;
    wal_ = std::make_unique<Wal>(cfg_.dir, wopts);
}

Manager::~Manager()
{
    quiesce();
    wal_.reset(); // close the log before another process may own it
    if (lock_fd_ >= 0)
        ::close(lock_fd_);
}

void
Manager::setCutProvider(CutFn fn)
{
    cut_ = std::move(fn);
}

std::string
Manager::open(engine::DataSet &out, RecoveryInfo &info)
{
    Timer timer;
    std::error_code ec;
    fs::create_directories(cfg_.dir, ec);
    if (ec)
        return "create '" + cfg_.dir + "': " + ec.message();

    // One owner per directory: a second process appending to the same
    // WAL segment would corrupt it.  The flock dies with the process,
    // so a kill -9 never leaves a stale lock behind.
    const std::string lock_path = cfg_.dir + "/" + kLockFile;
    lock_fd_ = ::open(lock_path.c_str(), O_RDWR | O_CREAT | O_CLOEXEC,
                      0644);
    if (lock_fd_ < 0)
        return "open '" + lock_path + "': " + std::strerror(errno);
    if (::flock(lock_fd_, LOCK_EX | LOCK_NB) != 0) {
        int err = errno;
        ::close(lock_fd_);
        lock_fd_ = -1;
        if (err == EWOULDBLOCK)
            return "data directory '" + cfg_.dir +
                   "' is locked by another process (" + kLockFile + ")";
        return "flock '" + lock_path + "': " + std::strerror(err);
    }

    if (!fs::exists(cfg_.dir + "/" + kManifestFile)) {
        // Fresh directory.  Stray WAL segments with no manifest mean
        // someone deleted the recovery root — refuse to guess.
        if (!listSegmentFiles(cfg_.dir).empty())
            return "'" + cfg_.dir +
                   "' has WAL segments but no manifest";
        std::string err = wal_->create(1);
        if (!err.empty())
            return err;
        {
            std::lock_guard<std::mutex> mlock(manifest_mu_);
            manifest_.seq = 1;
            manifest_.snapshotFile.clear();
            manifest_.snapshotLsn = 0;
            manifest_.epoch = 0;
            manifest_.segments = wal_->liveSegments();
            err = storeManifest(cfg_.dir, manifest_);
        }
        if (!err.empty())
            return err;
        info.recovered = false;
        info.seconds = timer.seconds();
        return "";
    }

    Manifest m;
    std::string err = loadManifest(cfg_.dir, m);
    if (!err.empty())
        return err;

    uint64_t snapshot_lsn = 0;
    if (!m.snapshotFile.empty()) {
        persist::LoadResult lr =
            persist::load(cfg_.dir + "/" + m.snapshotFile);
        if (!lr.ok)
            return "snapshot '" + m.snapshotFile + "': " + lr.error;
        out = std::move(lr.data);
        info.layout = std::move(lr.layout);
        if (lr.meta) {
            info.epoch = lr.meta->epoch;
            info.baseDocs = lr.meta->baseDocs;
            snapshot_lsn = lr.meta->walLsn;
        } else {
            // Rev-1 image: everything in it is base.
            info.epoch = m.epoch;
            info.baseDocs = out.docs.size();
            snapshot_lsn = m.snapshotLsn;
        }
        info.snapshotDocs = out.docs.size();
    }
    info.lastLsn = snapshot_lsn;

    err = replaySegments(out, info, snapshot_lsn);
    if (!err.empty())
        return err;

    {
        std::lock_guard<std::mutex> mlock(manifest_mu_);
        manifest_ = std::move(m);
    }
    info.recovered = true;
    info.seconds = timer.seconds();
    DVP_GAUGE_SET("dvp_recovered_docs",
                  static_cast<int64_t>(out.docs.size()));
    DVP_GAUGE_SET("dvp_wal_replayed_records",
                  static_cast<int64_t>(info.replayedRecords));
    DVP_GAUGE_SET("dvp_recovery_ms",
                  static_cast<int64_t>(info.seconds * 1e3));
    DVP_HISTOGRAM_OBSERVE("dvp_wal_replay_ns",
                          static_cast<uint64_t>(info.seconds * 1e9));
    return "";
}

std::string
Manager::replaySegments(engine::DataSet &out, RecoveryInfo &info,
                        uint64_t snapshot_lsn)
{
    std::vector<std::string> names = listSegmentFiles(cfg_.dir);
    if (names.empty()) {
        // Manifest without segments (all GC'd and then crashed before
        // a fresh one was created): start a new segment after the
        // snapshot.
        return wal_->create(snapshot_lsn + 1);
    }

    uint64_t expected = snapshot_lsn + 1;
    for (size_t i = 0; i < names.size(); ++i) {
        const bool final_segment = i + 1 == names.size();
        SegmentScan scan = scanSegmentFile(cfg_.dir + "/" + names[i]);
        if (!scan.error.empty())
            return scan.error;
        if (scan.torn && !final_segment)
            return "corrupt WAL: torn record inside non-final "
                   "segment '" +
                   names[i] + "'";
        for (const WalRecord &rec : scan.records) {
            if (rec.lsn <= snapshot_lsn)
                continue; // folded into the snapshot already
            if (rec.lsn != expected)
                return "WAL gap: expected LSN " +
                       std::to_string(expected) + ", found " +
                       std::to_string(rec.lsn) + " in '" + names[i] +
                       "'";
            if (rec.type == RecordType::Ingest) {
                std::vector<std::vector<json::FlatAttr>> docs;
                if (!decodeIngestBody(rec.body, docs))
                    return "corrupt Ingest record at LSN " +
                           std::to_string(rec.lsn);
                for (const auto &doc : docs)
                    out.addFlat(doc);
                info.replayedDocs += docs.size();
            } else {
                layout::Layout l;
                uint64_t epoch = 0, base = 0;
                if (!decodeSwapBody(rec.body, out.catalog.attrCount(), l,
                                    epoch, base))
                    return "corrupt Swap record at LSN " +
                           std::to_string(rec.lsn);
                if (base > out.docs.size())
                    return "Swap record at LSN " +
                           std::to_string(rec.lsn) +
                           " references unreplayed documents";
                info.layout = std::move(l);
                info.epoch = epoch;
                info.baseDocs = base;
            }
            ++info.replayedRecords;
            info.lastLsn = rec.lsn;
            ++expected;
        }
        if (final_segment) {
            info.truncatedTail = scan.torn;
            if (scan.torn)
                inform("durability: truncating torn WAL tail in "
                       "'%s' at byte %llu",
                       names[i].c_str(),
                       static_cast<unsigned long long>(
                           scan.validBytes));
            return wal_->continueAt(names[i], scan.validBytes,
                                    expected);
        }
    }
    return ""; // unreachable: the loop always returns on the last name
}

uint64_t
Manager::logIngest(const std::string &body)
{
    return wal_->append(RecordType::Ingest, body);
}

uint64_t
Manager::logSwap(const layout::Layout &layout, uint64_t epoch,
                 uint64_t base_docs)
{
    return wal_->append(RecordType::Swap,
                        encodeSwapBody(layout, epoch, base_docs));
}

std::string
Manager::commit(uint64_t lsn)
{
    if (lsn == 0)
        return "WAL append failed";
    std::string err = wal_->sync(lsn);
    if (!err.empty())
        return err;
    maybeCheckpoint();
    return "";
}

CheckpointResult
Manager::checkpointNow()
{
    CheckpointResult res;
    if (!cut_) {
        res.error = "no checkpoint cut provider bound";
        return res;
    }
    std::lock_guard<std::mutex> lock(ckpt_mu_);
    Timer timer;

    // The cut is the only step that touches engine locks; everything
    // below runs on a private copy while serving continues.
    CheckpointCut cut = cut_();
    persist::SnapshotMeta meta;
    meta.epoch = cut.epoch;
    meta.baseDocs = cut.baseDocs;
    meta.walLsn = cut.walLsn;
    std::string image =
        persist::serialize(cut.data, &cut.layout, &meta);
    std::string file = snapshotFileName(cut.walLsn);
    std::string err = atomicWriteFile(cfg_.dir + "/" + file, image);
    if (!err.empty()) {
        res.error = err;
        return res;
    }

    {
        std::lock_guard<std::mutex> mlock(manifest_mu_);
        Manifest next = manifest_;
        ++next.seq;
        next.snapshotFile = file;
        next.snapshotLsn = cut.walLsn;
        next.epoch = cut.epoch;
        next.segments = wal_->liveSegments();
        err = storeManifest(cfg_.dir, next);
        if (err.empty())
            manifest_ = std::move(next);
    }
    if (!err.empty()) {
        res.error = err;
        return res;
    }

    // Only after the manifest swing is the old state garbage: WAL
    // segments the snapshot covers and superseded snapshot files.
    res.segmentsRemoved = wal_->gcCoveredBy(cut.walLsn);
    std::error_code ec;
    for (const auto &ent : fs::directory_iterator(cfg_.dir, ec)) {
        std::string name = ent.path().filename().string();
        if (isSnapshotFile(name) && name != file)
            fs::remove(ent.path(), ec);
    }

    wal_bytes_at_ckpt_.store(wal_->bytesAppended(),
                             std::memory_order_relaxed);
    res.ok = true;
    res.snapshotFile = file;
    res.docs = cut.data.docs.size();
    res.walLsn = cut.walLsn;
    res.bytes = image.size();
    res.seconds = timer.seconds();
    DVP_COUNTER_INC("dvp_checkpoints_total");
    DVP_GAUGE_SET("dvp_last_checkpoint_lsn",
                  static_cast<int64_t>(cut.walLsn));
    DVP_GAUGE_SET("dvp_last_checkpoint_docs",
                  static_cast<int64_t>(res.docs));
    DVP_HISTOGRAM_OBSERVE("dvp_checkpoint_ns",
                          static_cast<uint64_t>(res.seconds * 1e9));
    return res;
}

void
Manager::maybeCheckpoint()
{
    if (cfg_.checkpointWalBytes == 0 || !cut_)
        return;
    uint64_t grown =
        wal_->bytesAppended() -
        wal_bytes_at_ckpt_.load(std::memory_order_relaxed);
    if (grown < cfg_.checkpointWalBytes)
        return;
    if (ckpt_pending_.exchange(true))
        return; // one background checkpoint in flight is enough
    std::lock_guard<std::mutex> lock(worker_mu_);
    if (ckpt_worker_.joinable())
        ckpt_worker_.join(); // reap the previous (finished) worker
    ckpt_worker_ = std::thread([this] {
        CheckpointResult r = checkpointNow();
        if (!r.ok)
            warn("checkpoint failed: %s", r.error.c_str());
        else
            debug("checkpoint: %s (%llu docs, lsn %llu, %.3f s)",
                  r.snapshotFile.c_str(),
                  static_cast<unsigned long long>(r.docs),
                  static_cast<unsigned long long>(r.walLsn),
                  r.seconds);
        ckpt_pending_.store(false);
    });
}

void
Manager::quiesce()
{
    std::lock_guard<std::mutex> lock(worker_mu_);
    if (ckpt_worker_.joinable())
        ckpt_worker_.join();
}

} // namespace dvp::durability
