/**
 * @file
 * The durability manifest: one small, CRC'd, atomically-replaced file
 * ("MANIFEST") that names the current snapshot and the WAL position
 * recovery resumes from.  It is the root of the recovery tree —
 * everything else in the data directory is reachable from it.
 *
 * Encoding (little-endian, net::Writer conventions):
 *
 *   8 bytes  magic "DVPMAN1\0"
 *   u64      seq            monotonically increasing rewrite count
 *   str      snapshotFile   basename, empty before the first checkpoint
 *   u64      snapshotLsn    highest LSN folded into the snapshot
 *   u64      epoch          layout epoch at the snapshot cut
 *   u32      n              WAL segment count at write time
 *   n x str  segment basenames (informational: recovery re-scans the
 *            directory, so a manifest never goes stale when segments
 *            roll between checkpoints)
 *   u32      CRC-32 of every preceding byte
 *
 * The manifest is always replaced via temp-file + rename + directory
 * fsync, so a crash mid-update leaves the previous manifest intact; a
 * CRC failure on load is treated as corruption, not as "empty".  A
 * "DVPMAN<N>" magic with N > 1 is a newer binary's manifest and fails
 * by name ("manifest format vN, this binary reads ≤ v1").
 */

#ifndef DVP_DURABILITY_MANIFEST_HH
#define DVP_DURABILITY_MANIFEST_HH

#include <cstdint>
#include <string>
#include <vector>

namespace dvp::durability
{

/** Basename of the manifest file inside a data directory. */
constexpr const char *kManifestFile = "MANIFEST";

/** Decoded manifest contents. */
struct Manifest
{
    uint64_t seq = 0;
    std::string snapshotFile; ///< empty: recover from WAL alone
    uint64_t snapshotLsn = 0; ///< replay records with LSN > this
    uint64_t epoch = 0;       ///< layout epoch at the snapshot cut
    std::vector<std::string> segments;
};

/** Serialize @p m (including the trailing CRC). */
std::string encodeManifest(const Manifest &m);

/** Decode + CRC-check @p bytes. @return error message or empty. */
std::string decodeManifest(const std::string &bytes, Manifest &out);

/** Load "<dir>/MANIFEST". @return error message or empty. */
std::string loadManifest(const std::string &dir, Manifest &out);

/**
 * Atomically replace "<dir>/MANIFEST" with @p m (temp + rename +
 * dir fsync).  @return error message or empty.
 */
std::string storeManifest(const std::string &dir, const Manifest &m);

} // namespace dvp::durability

#endif // DVP_DURABILITY_MANIFEST_HH
