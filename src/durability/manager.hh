/**
 * @file
 * Durability manager: owns one data directory and ties together the
 * WAL (wal.hh), the manifest (manifest.hh) and the persist snapshot
 * image into the classic recovery lifecycle:
 *
 *   startup   open(): load the manifest's snapshot, replay every WAL
 *             record newer than it (truncating a torn final record),
 *             and hand back the reconstructed DataSet plus the layout
 *             and epoch to resume serving with.
 *   serving   logIngest()/logSwap() append to the WAL under the
 *             engine's db_mutex (log-before-ack: the engine only
 *             acknowledges an INSERT after commit() returns, so under
 *             fsync=always every acked document survives kill -9).
 *   checkpoint checkpointNow() serializes a consistent cut — obtained
 *             from the engine's epoch snapshot machinery via the cut
 *             provider, so serving is never blocked beyond the
 *             existing swap pause — to "snapshot-<lsn>.snap" (temp +
 *             rename), atomically swings the manifest to it, then
 *             garbage-collects WAL segments and old snapshots the new
 *             manifest no longer references.
 *
 * WAL record bodies are *logical*: an Ingest record carries the
 * flattened documents (path + scalar per attribute, nulls included),
 * not physical slots.  Replaying them through DataSet::addFlat runs
 * the exact ingest code path, so attribute ids, dictionary ids and
 * oids are reassigned identically and a recovered process produces
 * bit-identical query digests.  A Swap record carries the committed
 * {epoch, baseDocs, layout} so recovery restores the adaptively
 * learned layout instead of re-deriving it.
 */

#ifndef DVP_DURABILITY_MANAGER_HH
#define DVP_DURABILITY_MANAGER_HH

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "durability/manifest.hh"
#include "durability/wal.hh"
#include "engine/database.hh"
#include "json/flatten.hh"
#include "layout/layout.hh"

namespace dvp::durability
{

/** Lock file every open Manager holds an exclusive flock on. */
inline constexpr const char *kLockFile = "LOCK";

/** Data-directory configuration. */
struct Config
{
    std::string dir;
    FsyncPolicy fsyncPolicy = FsyncPolicy::Always;
    uint64_t fsyncIntervalMs = 50;
    uint64_t walSegmentBytes = 64u << 20;
    /** Auto-checkpoint once this many WAL bytes accumulate; 0 = off. */
    uint64_t checkpointWalBytes = 64u << 20;
};

/** What open() found and did. */
struct RecoveryInfo
{
    bool recovered = false; ///< false: the directory was freshly made
    uint64_t snapshotDocs = 0;
    uint64_t replayedRecords = 0;
    uint64_t replayedDocs = 0;
    uint64_t lastLsn = 0; ///< highest LSN applied or folded
    bool truncatedTail = false;
    double seconds = 0;

    /** Committed layout state to resume with (from snapshot/swaps). */
    std::optional<layout::Layout> layout;
    uint64_t epoch = 0;
    uint64_t baseDocs = 0;
};

/**
 * A consistent view to checkpoint: a private copy of the data plus
 * the layout state and the WAL position it folds.  Produced by the
 * engine under its ingest lock (see AdaptiveEngine::checkpointCut).
 */
struct CheckpointCut
{
    engine::DataSet data;
    layout::Layout layout;
    uint64_t epoch = 0;
    uint64_t baseDocs = 0;
    uint64_t walLsn = 0;
};

/** Outcome of one checkpoint. */
struct CheckpointResult
{
    bool ok = false;
    std::string error;
    std::string snapshotFile;
    uint64_t docs = 0;
    uint64_t walLsn = 0;
    uint64_t bytes = 0;
    size_t segmentsRemoved = 0;
    double seconds = 0;
};

/** See the file comment. */
class Manager
{
  public:
    /** Provider of checkpoint cuts (bound to the adaptive engine). */
    using CutFn = std::function<CheckpointCut()>;

    explicit Manager(Config cfg);
    ~Manager();

    Manager(const Manager &) = delete;
    Manager &operator=(const Manager &) = delete;

    /**
     * Open (or create) the data directory.  On return @p out holds
     * every recovered document and @p info the layout/epoch state and
     * replay counts.  Before recovery the Manager takes an exclusive
     * flock on <dir>/LOCK and holds it until it is destroyed, so a
     * second opener of the same directory (in this process or another)
     * fails with a "locked by another process" error.  @return error
     * message or empty; recovery refuses corrupt state rather than
     * serving a guess.
     */
    std::string open(engine::DataSet &out, RecoveryInfo &info);

    /** Bind the checkpoint cut provider (after engine construction). */
    void setCutProvider(CutFn fn);

    /**
     * Append one Ingest record (caller holds the engine's db_mutex,
     * serializing it against swaps and other ingests).
     * @return the record's LSN, 0 on failure.
     */
    uint64_t logIngest(const std::string &body);

    /** Append one Swap record (same locking contract). */
    uint64_t logSwap(const layout::Layout &layout, uint64_t epoch,
                     uint64_t base_docs);

    /**
     * Make @p lsn durable per the fsync policy and kick the auto
     * checkpoint if the WAL grew past the threshold.  Called after
     * the ingest lock is released; the engine acks only when this
     * returns cleanly.  @return error message or empty.
     */
    std::string commit(uint64_t lsn);

    /**
     * Write a checkpoint from the cut provider right now (serialized
     * against concurrent checkpoints; serving continues meanwhile).
     */
    CheckpointResult checkpointNow();

    /** Start a background checkpoint if WAL growth crossed the bar. */
    void maybeCheckpoint();

    /** Wait for an in-flight background checkpoint to finish. */
    void quiesce();

    Wal *wal() { return wal_.get(); }
    const Config &config() const { return cfg_; }

    // -----------------------------------------------------------------
    // WAL record body codecs (public for tests and replay tooling).
    //
    // Ingest: u32 ndocs | ndocs x { u32 nattrs | nattrs x
    //         { str path, u8 kind, value } } where kind is 0 null,
    //         1 false, 2 true, 3 int (i64), 4 double (IEEE bits as
    //         u64), 5 string (str).
    // Swap:   u64 epoch | u64 baseDocs | u32 nparts | nparts x
    //         { u32 k, k x u32 attr }
    // -----------------------------------------------------------------

    static std::string
    encodeIngestBody(const std::vector<std::vector<json::FlatAttr>> &docs);
    static bool
    decodeIngestBody(const std::string &body,
                     std::vector<std::vector<json::FlatAttr>> &out);

    static std::string encodeSwapBody(const layout::Layout &layout,
                                      uint64_t epoch,
                                      uint64_t base_docs);
    static bool decodeSwapBody(const std::string &body,
                               layout::Layout &layout, uint64_t &epoch,
                               uint64_t &base_docs);

  private:
    std::string replaySegments(engine::DataSet &out, RecoveryInfo &info,
                               uint64_t snapshot_lsn);

    Config cfg_;
    int lock_fd_ = -1; ///< flock'd <dir>/LOCK; -1 before open()
    std::unique_ptr<Wal> wal_;
    CutFn cut_;

    std::mutex ckpt_mu_;            ///< serializes checkpoints
    std::mutex manifest_mu_;        ///< guards manifest_
    Manifest manifest_;             ///< last manifest written
    std::atomic<uint64_t> wal_bytes_at_ckpt_{0};
    std::atomic<bool> ckpt_pending_{false};
    std::thread ckpt_worker_;
    std::mutex worker_mu_; ///< guards ckpt_worker_ join/start
};

} // namespace dvp::durability

#endif // DVP_DURABILITY_MANAGER_HH
