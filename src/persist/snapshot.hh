/**
 * @file
 * Snapshot persistence: serialize a DataSet (catalog + dictionary +
 * documents) and optionally a Layout to a compact binary image, and
 * load it back.  A restored DataSet is bit-identical for query
 * purposes: attribute ids, dictionary ids and document slots are all
 * preserved, so saved layouts remain valid and result sets match.
 *
 * Format (little-endian, versioned).  Rev 2, the only rev written:
 *
 *   magic "DVPSNAP2" | u32 flags
 *   meta    : u64 epoch | u64 baseDocs | u64 walLsn
 *   catalog : u32 n | n x { str name, u8 type, u64 nonNullDocs }
 *             u64 docCount
 *   dict    : u32 n | n x str
 *   docs    : u64 n | n x { i64 oid, u32 k, k x { u32 attr, i64 slot } }
 *   layout  : u32 present | u32 p | p x { u32 k, k x u32 attr }
 *   u32 CRC-32 of every preceding byte
 *
 * Rev 1 ("DVPSNAP1") is the same without the meta block and trailing
 * CRC; deserialize still reads it (meta comes back empty).  A higher
 * rev digit fails with "snapshot format vN, this binary reads ≤ v2".
 * The meta block is what lets a durability checkpoint cut round-trip
 * exactly: baseDocs counts the docs the cut's layout held (recovery
 * bulk-builds docs[0, baseDocs) and appends the rest the way ingest
 * does), epoch is the layout epoch at the cut, and walLsn is the last
 * WAL record folded into the image.
 *
 * Strings are u32 length + bytes.  The bytes go through the shared
 * codec (util/codec.hh), the magic, version and CRC through the
 * Envelope the manifest also uses (util/durable_file.hh), and the
 * layout section through the layout codec the WAL's Swap record also
 * uses (layout::encodeLayout).  The writer buffers the whole image and
 * writes once; the reader validates sizes and fails cleanly on
 * truncated or corrupt input (never panics on bad files — user data).
 * save() replaces the target atomically (temp file + rename), so a
 * crash mid-save can no longer destroy the previous snapshot.
 */

#ifndef DVP_PERSIST_SNAPSHOT_HH
#define DVP_PERSIST_SNAPSHOT_HH

#include <optional>
#include <string>

#include "engine/database.hh"
#include "layout/layout.hh"

namespace dvp::persist
{

/** Durability metadata carried by rev-2 images (see file comment). */
struct SnapshotMeta
{
    uint64_t epoch = 0;    ///< layout epoch at the cut
    uint64_t baseDocs = 0; ///< docs[0, baseDocs) are in the partitions
    uint64_t walLsn = 0;   ///< last WAL LSN folded into this image
};

/** Outcome of a load. */
struct LoadResult
{
    bool ok = false;
    std::string error;

    engine::DataSet data;
    /** Saved layout, when the image contained one. */
    std::optional<layout::Layout> layout;
    /** Durability meta; empty for rev-1 images. */
    std::optional<SnapshotMeta> meta;
};

/**
 * Serialize @p data (and @p layout if non-null) into a byte string.
 * @p meta fills the rev-2 meta block; null writes an all-zero block.
 */
std::string serialize(const engine::DataSet &data,
                      const layout::Layout *layout = nullptr,
                      const SnapshotMeta *meta = nullptr);

/** Parse an image produced by serialize() (rev 1 or rev 2). */
LoadResult deserialize(const std::string &bytes);

/**
 * Write a snapshot to @p path via temp-file + rename (the old file
 * survives a crash mid-save) and fsync.
 * @return empty string on success, error message otherwise.
 */
std::string save(const std::string &path, const engine::DataSet &data,
                 const layout::Layout *layout = nullptr,
                 const SnapshotMeta *meta = nullptr);

/** Read a snapshot from @p path. */
LoadResult load(const std::string &path);

} // namespace dvp::persist

#endif // DVP_PERSIST_SNAPSHOT_HH
