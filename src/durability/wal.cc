#include "durability/wal.hh"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fcntl.h>
#include <filesystem>
#include <unistd.h>

#include "obs/metrics.hh"
#include "util/codec.hh"
#include "util/durable_file.hh"
#include "util/fault.hh"
#include "util/logging.hh"

namespace fs = std::filesystem;

namespace dvp::durability
{

bool
parseFsyncPolicy(const std::string &text, FsyncPolicy &out)
{
    if (text == "always")
        out = FsyncPolicy::Always;
    else if (text == "interval")
        out = FsyncPolicy::Interval;
    else if (text == "none")
        out = FsyncPolicy::None;
    else
        return false;
    return true;
}

const char *
fsyncPolicyName(FsyncPolicy p)
{
    switch (p) {
      case FsyncPolicy::Always: return "always";
      case FsyncPolicy::Interval: return "interval";
      case FsyncPolicy::None: return "none";
    }
    return "?";
}

std::string
segmentFileName(uint64_t first_lsn)
{
    char buf[40];
    std::snprintf(buf, sizeof buf, "wal-%020llu.seg",
                  static_cast<unsigned long long>(first_lsn));
    return buf;
}

std::vector<std::string>
listSegmentFiles(const std::string &dir)
{
    std::vector<std::string> out;
    std::error_code ec;
    for (const auto &ent : fs::directory_iterator(dir, ec)) {
        std::string name = ent.path().filename().string();
        if (name.size() == 28 && name.rfind("wal-", 0) == 0 &&
            name.compare(24, 4, ".seg") == 0)
            out.push_back(name);
    }
    std::sort(out.begin(), out.end()); // zero-padded => LSN order
    return out;
}

SegmentScan
scanSegmentFile(const std::string &path)
{
    SegmentScan scan;
    std::string bytes;
    std::string err = readWholeFile(path, bytes);
    if (!err.empty()) {
        scan.error = err;
        return scan;
    }
    int version = formatVersion(bytes, "DVPWAL");
    if (version > kWalVersion) {
        scan.error = newerFormatError("WAL segment", version, kWalVersion) +
                     " ('" + path + "')";
        return scan;
    }
    if (bytes.size() < kSegmentHeaderBytes ||
        std::memcmp(bytes.data(), kWalMagic, 8) != 0) {
        scan.error = "bad segment header in '" + path + "'";
        return scan;
    }
    std::memcpy(&scan.firstLsn, bytes.data() + 8, 8);
    scan.validBytes = kSegmentHeaderBytes;

    size_t pos = kSegmentHeaderBytes;
    while (pos < bytes.size()) {
        if (bytes.size() - pos < kRecordPrefixBytes) {
            scan.torn = true;
            break;
        }
        uint32_t len = 0, crc = 0;
        std::memcpy(&len, bytes.data() + pos, 4);
        std::memcpy(&crc, bytes.data() + pos + 4, 4);
        if (len < 9 || bytes.size() - pos - kRecordPrefixBytes < len) {
            scan.torn = true;
            break;
        }
        const char *payload = bytes.data() + pos + kRecordPrefixBytes;
        if (crc32(payload, len) != crc) {
            scan.torn = true;
            break;
        }
        WalRecord rec;
        rec.type = static_cast<RecordType>(
            static_cast<uint8_t>(payload[0]));
        std::memcpy(&rec.lsn, payload + 1, 8);
        if (rec.type != RecordType::Ingest &&
            rec.type != RecordType::Swap) {
            scan.torn = true;
            break;
        }
        rec.body.assign(payload + 9, len - 9);
        scan.records.push_back(std::move(rec));
        pos += kRecordPrefixBytes + len;
        scan.validBytes = pos;
    }
    return scan;
}

// ---------------------------------------------------------------------
// Wal
// ---------------------------------------------------------------------

Wal::Wal(std::string dir, WalOptions opts)
    : dir_(std::move(dir)), opts_(opts)
{
}

Wal::~Wal()
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        stop_flusher_ = true;
    }
    flusher_cv_.notify_all();
    if (flusher_.joinable())
        flusher_.join();
    std::lock_guard<std::mutex> lock(mu_);
    if (fd_ >= 0)
        ::close(fd_);
}

std::string
Wal::create(uint64_t first_lsn)
{
    std::lock_guard<std::mutex> lock(mu_);
    next_lsn_.store(first_lsn, std::memory_order_release);
    durable_lsn_.store(first_lsn - 1, std::memory_order_release);
    std::string err = openSegmentLocked(first_lsn);
    if (err.empty())
        startFlusherIfNeeded();
    return err;
}

std::string
Wal::continueAt(const std::string &segment_basename,
                uint64_t valid_bytes, uint64_t next_lsn)
{
    std::lock_guard<std::mutex> lock(mu_);
    std::string path = dir_ + "/" + segment_basename;
    int fd = ::open(path.c_str(), O_WRONLY);
    if (fd < 0)
        return "open '" + path + "': " + std::strerror(errno);
    if (::ftruncate(fd, static_cast<off_t>(valid_bytes)) != 0) {
        std::string err =
            "ftruncate '" + path + "': " + std::strerror(errno);
        ::close(fd);
        return err;
    }
    if (::lseek(fd, 0, SEEK_END) < 0) {
        std::string err =
            "lseek '" + path + "': " + std::strerror(errno);
        ::close(fd);
        return err;
    }
    // The truncation must be durable before new records land after
    // it, or a crash could resurrect torn bytes beyond fresh ones.
    if (opts_.policy != FsyncPolicy::None && ::fsync(fd) != 0) {
        std::string err =
            "fsync '" + path + "': " + std::strerror(errno);
        ::close(fd);
        return err;
    }
    fd_ = fd;
    cur_segment_bytes_ = valid_bytes;

    uint64_t first = 0;
    segments_.clear();
    for (const auto &name : listSegmentFiles(dir_)) {
        first = std::strtoull(name.c_str() + 4, nullptr, 10);
        segments_.emplace_back(first, name);
    }
    if (segments_.empty() || segments_.back().second != segment_basename) {
        ::close(fd_);
        fd_ = -1;
        return "'" + segment_basename + "' is not the last WAL segment";
    }
    next_lsn_.store(next_lsn, std::memory_order_release);
    durable_lsn_.store(next_lsn - 1, std::memory_order_release);
    startFlusherIfNeeded();
    updateGauges();
    return "";
}

std::string
Wal::openSegmentLocked(uint64_t first_lsn)
{
    if (fd_ >= 0) {
        // Seal the outgoing segment so the roll itself cannot lose
        // acked records under policies that already synced them.
        if (opts_.policy != FsyncPolicy::None)
            ::fsync(fd_);
        ::close(fd_);
        fd_ = -1;
    }
    std::string name = segmentFileName(first_lsn);
    std::string path = dir_ + "/" + name;
    int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_EXCL, 0644);
    if (fd < 0)
        return "open '" + path + "': " + std::strerror(errno);
    std::string bytes;
    bytes.assign(kWalMagic, 8);
    uint64_t lsn_le = first_lsn;
    bytes.append(reinterpret_cast<const char *>(&lsn_le), 8);
    if (writeFully(fd, bytes.data(), bytes.size()) != bytes.size()) {
        ::close(fd);
        failed_.store(true, std::memory_order_release);
        return "short write of segment header '" + path + "'";
    }
    if (opts_.policy != FsyncPolicy::None) {
        if (::fsync(fd) != 0) {
            ::close(fd);
            return "fsync '" + path + "': " + std::strerror(errno);
        }
        std::string err = fsyncDir(dir_);
        if (!err.empty()) {
            ::close(fd);
            return err;
        }
    }
    fd_ = fd;
    cur_segment_bytes_ = kSegmentHeaderBytes;
    segments_.emplace_back(first_lsn, name);
    updateGauges();
    return "";
}

uint64_t
Wal::append(RecordType type, const std::string &body)
{
    std::lock_guard<std::mutex> lock(mu_);
    if (failed_.load(std::memory_order_acquire) || fd_ < 0)
        return 0;
    if (cur_segment_bytes_ >= opts_.segmentBytes) {
        std::string err =
            openSegmentLocked(next_lsn_.load(std::memory_order_acquire));
        if (!err.empty()) {
            failed_.store(true, std::memory_order_release);
            warn("wal: segment roll failed: %s", err.c_str());
            return 0;
        }
    }
    uint64_t lsn = next_lsn_.load(std::memory_order_acquire);
    Writer payload;
    payload.u8(static_cast<uint8_t>(type));
    payload.u64(lsn);
    std::string joined = payload.bytes() + body;
    Writer head;
    head.u32(static_cast<uint32_t>(joined.size()));
    head.u32(crc32(joined.data(), joined.size()));
    std::string frame = head.bytes() + joined;
    if (writeFully(fd_, frame.data(), frame.size()) != frame.size()) {
        failed_.store(true, std::memory_order_release);
        return 0;
    }
    cur_segment_bytes_ += frame.size();
    next_lsn_.store(lsn + 1, std::memory_order_release);
    bytes_appended_.fetch_add(frame.size(), std::memory_order_relaxed);
    if (opts_.policy == FsyncPolicy::None)
        durable_lsn_.store(lsn, std::memory_order_release);
    DVP_COUNTER_INC("dvp_wal_appends_total");
    DVP_COUNTER_ADD("dvp_wal_bytes_total", frame.size());
    updateGauges();
    return lsn;
}

std::string
Wal::fsyncLocked()
{
    if (fd_ < 0)
        return "wal not open";
    uint64_t appended = next_lsn_.load(std::memory_order_acquire) - 1;
    if (::fsync(fd_) != 0) {
        failed_.store(true, std::memory_order_release);
        return std::string("fsync: ") + std::strerror(errno);
    }
    durable_lsn_.store(appended, std::memory_order_release);
    DVP_COUNTER_INC("dvp_wal_fsyncs_total");
    return "";
}

std::string
Wal::sync(uint64_t lsn)
{
    if (failed_.load(std::memory_order_acquire))
        return "wal failed";
    if (opts_.policy != FsyncPolicy::Always)
        return ""; // Interval: flusher thread; None: never
    if (durable_lsn_.load(std::memory_order_acquire) >= lsn)
        return ""; // someone else's group commit covered us
    std::lock_guard<std::mutex> lock(mu_);
    if (durable_lsn_.load(std::memory_order_acquire) >= lsn)
        return "";
    return fsyncLocked();
}

void
Wal::flusherMain()
{
    std::unique_lock<std::mutex> lock(mu_);
    while (!stop_flusher_) {
        flusher_cv_.wait_for(
            lock, std::chrono::milliseconds(opts_.intervalMs));
        if (stop_flusher_)
            break;
        if (fd_ >= 0 &&
            durable_lsn_.load(std::memory_order_acquire) <
                next_lsn_.load(std::memory_order_acquire) - 1)
            fsyncLocked();
    }
}

void
Wal::startFlusherIfNeeded()
{
    if (opts_.policy == FsyncPolicy::Interval && !flusher_.joinable())
        flusher_ = std::thread([this] { flusherMain(); });
}

std::vector<std::string>
Wal::liveSegments() const
{
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<std::string> out;
    out.reserve(segments_.size());
    for (const auto &[lsn, name] : segments_)
        out.push_back(name);
    return out;
}

size_t
Wal::gcCoveredBy(uint64_t target)
{
    std::lock_guard<std::mutex> lock(mu_);
    size_t removed = 0;
    // Segment i holds LSNs [first(i), first(i+1) - 1]; it is covered
    // by a checkpoint at `target` iff first(i+1) <= target + 1.  The
    // last (active) segment has no successor and always survives.
    while (segments_.size() > 1 &&
           segments_[1].first <= target + 1) {
        std::string path = dir_ + "/" + segments_.front().second;
        if (::unlink(path.c_str()) != 0) {
            warn("wal: gc unlink '%s': %s", path.c_str(),
                 std::strerror(errno));
            break;
        }
        segments_.erase(segments_.begin());
        ++removed;
    }
    if (removed > 0 && opts_.policy != FsyncPolicy::None)
        fsyncDir(dir_);
    updateGauges();
    return removed;
}

void
Wal::updateGauges() const
{
    DVP_GAUGE_SET("dvp_wal_segments",
                  static_cast<int64_t>(segments_.size()));
    DVP_GAUGE_SET("dvp_wal_live_bytes",
                  static_cast<int64_t>(cur_segment_bytes_));
}

} // namespace dvp::durability
