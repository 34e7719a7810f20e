/**
 * @file
 * Segmented, CRC-framed append-only write-ahead log.
 *
 * The WAL is a sequence of records identified by a dense LSN (1, 2,
 * 3, ...), split across segment files named "wal-<firstLsn>.seg"
 * (firstLsn zero-padded to 20 digits so lexicographic order equals
 * LSN order).  Each segment starts with a 16-byte header:
 *
 *   offset  size  field
 *        0     8  magic "DVPWAL1\0"
 *        8     8  LSN of the first record in this segment
 *
 * followed by back-to-back records framed as:
 *
 *   offset  size  field
 *        0     4  len: bytes from `type` to end of body (9 + body)
 *        4     4  CRC-32 of the `len` bytes that follow
 *        8     1  record type (RecordType)
 *        9     8  LSN
 *       17   len-9  body (type-specific, see manager.hh)
 *
 * The CRC (same polynomial as the wire protocol) makes a torn tail
 * detectable: recovery scans records until the first short or
 * corrupted frame and truncates there.  Because appends are
 * sequential O_APPEND-free writes to a file that is never rewritten,
 * a crash leaves a prefix of the record stream — a bad record in the
 * *middle* of a segment therefore means real corruption, which
 * recovery refuses rather than repairs.
 *
 * Durability contract by fsync policy:
 *   always      sync(lsn) returns only after an fsync covering lsn
 *               (group commit: one fsync acknowledges every record
 *               appended before it).
 *   interval_ms a background flusher fsyncs on a timer; a crash can
 *               lose up to the interval's worth of acked records.
 *   none        no fsync is ever issued; the OS decides.  A crash
 *               loses the page cache, but recovery still lands on a
 *               consistent prefix.
 */

#ifndef DVP_DURABILITY_WAL_HH
#define DVP_DURABILITY_WAL_HH

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace dvp::durability
{

/** Magic bytes opening every WAL segment file. */
constexpr char kWalMagic[8] = {'D', 'V', 'P', 'W', 'A', 'L', '1', '\0'};
/** The segment format version this binary writes and reads. */
constexpr int kWalVersion = kWalMagic[6] - '0';

/** Segment header size: magic + first LSN. */
constexpr size_t kSegmentHeaderBytes = 16;

/** Record frame prefix: u32 len + u32 crc. */
constexpr size_t kRecordPrefixBytes = 8;

/** When to fsync the WAL (see the file comment). */
enum class FsyncPolicy { Always, Interval, None };

/** Parse "always" / "interval" / "none"; false on anything else. */
bool parseFsyncPolicy(const std::string &text, FsyncPolicy &out);

/** Human-readable policy name. */
const char *fsyncPolicyName(FsyncPolicy p);

/** WAL record types. */
enum class RecordType : uint8_t
{
    Ingest = 1, ///< one ingested document batch (logical flat docs)
    Swap = 2,   ///< a committed layout swap {epoch, baseDocs, layout}
};

/** One decoded WAL record. */
struct WalRecord
{
    RecordType type = RecordType::Ingest;
    uint64_t lsn = 0;
    std::string body;
};

/** Result of scanning one segment file (recovery + tests). */
struct SegmentScan
{
    std::vector<WalRecord> records;
    uint64_t firstLsn = 0;   ///< from the segment header
    uint64_t validBytes = 0; ///< through the last intact record
    bool torn = false;       ///< trailing partial/corrupt record
    std::string error;       ///< unreadable / bad header; empty = ok
};

/**
 * Read and validate every record of one segment file.  A short or
 * CRC-corrupt record terminates the scan with torn = true and
 * validBytes at the end of the last intact record; only an unreadable
 * file or bad header sets error.  A "DVPWAL<N>" header with N >
 * kWalVersion names the newer format instead of reporting corruption.
 */
SegmentScan scanSegmentFile(const std::string &path);

/** "wal-<firstLsn padded to 20>.seg". */
std::string segmentFileName(uint64_t first_lsn);

/**
 * WAL segment files in @p dir, sorted by first LSN.  Non-WAL files
 * are ignored.  Returns basenames.
 */
std::vector<std::string> listSegmentFiles(const std::string &dir);

/** Tuning knobs for a Wal. */
struct WalOptions
{
    FsyncPolicy policy = FsyncPolicy::Always;
    uint64_t intervalMs = 50;          ///< Interval policy timer
    uint64_t segmentBytes = 64u << 20; ///< roll threshold
};

/**
 * The append side of the log.  append() is serialized internally;
 * sync() implements group commit (see the file comment).  All write
 * errors — including injected faults — latch failed(): a failed WAL
 * never acknowledges another record, which keeps the "acked implies
 * recoverable" invariant trivially true.
 */
class Wal
{
  public:
    Wal(std::string dir, WalOptions opts);
    ~Wal();

    Wal(const Wal &) = delete;
    Wal &operator=(const Wal &) = delete;

    /**
     * Start a brand-new log: creates the first segment with
     * firstLsn = @p first_lsn.  @return error message or empty.
     */
    std::string create(uint64_t first_lsn);

    /**
     * Continue appending to existing segment @p segment_basename
     * after truncating it to @p valid_bytes (discarding a torn
     * tail); the next record gets @p next_lsn.
     */
    std::string continueAt(const std::string &segment_basename,
                           uint64_t valid_bytes, uint64_t next_lsn);

    /**
     * Append one record (rolling the segment first if the current
     * one is full).  @return the record's LSN, or 0 on failure.
     */
    uint64_t append(RecordType type, const std::string &body);

    /**
     * Make every record up to @p lsn durable per the fsync policy.
     * @return error message or empty (policy None / Interval return
     * immediately).
     */
    std::string sync(uint64_t lsn);

    /** LSN the next append will receive. */
    uint64_t nextLsn() const
    {
        return next_lsn_.load(std::memory_order_acquire);
    }

    /** Highest LSN fully appended (0 before the first). */
    uint64_t appendedLsn() const
    {
        return next_lsn_.load(std::memory_order_acquire) - 1;
    }

    /** Highest LSN known durable (== appended under policy None). */
    uint64_t durableLsn() const
    {
        return durable_lsn_.load(std::memory_order_acquire);
    }

    /** Latched true after any write error or injected fault. */
    bool failed() const
    {
        return failed_.load(std::memory_order_acquire);
    }

    /** Cumulative record bytes appended (checkpoint trigger input). */
    uint64_t bytesAppended() const
    {
        return bytes_appended_.load(std::memory_order_acquire);
    }

    /** Current segment basenames, sorted by first LSN. */
    std::vector<std::string> liveSegments() const;

    /**
     * Delete segments whose every record has LSN <= @p target (their
     * contents are covered by a checkpoint).  The active segment is
     * never deleted.  @return segments removed.
     */
    size_t gcCoveredBy(uint64_t target);

    FsyncPolicy policy() const { return opts_.policy; }

  private:
    /** Open a fresh segment starting at @p first_lsn (mu_ held). */
    std::string openSegmentLocked(uint64_t first_lsn);

    /** fsync the open fd and publish durable_lsn_ (mu_ held). */
    std::string fsyncLocked();

    void flusherMain();
    void startFlusherIfNeeded();
    void updateGauges() const;

    std::string dir_;
    WalOptions opts_;

    mutable std::mutex mu_;
    int fd_ = -1;
    uint64_t cur_segment_bytes_ = 0; ///< bytes in the open segment
    std::vector<std::pair<uint64_t, std::string>> segments_; // firstLsn, basename

    std::atomic<uint64_t> next_lsn_{1};
    std::atomic<uint64_t> durable_lsn_{0};
    std::atomic<uint64_t> bytes_appended_{0};
    std::atomic<bool> failed_{false};

    std::thread flusher_;
    std::condition_variable flusher_cv_;
    bool stop_flusher_ = false; ///< guarded by mu_
};

} // namespace dvp::durability

#endif // DVP_DURABILITY_WAL_HH
