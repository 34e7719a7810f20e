/**
 * @file
 * A partition table: the row-major "smaller table" of the paper.
 *
 * Record layout (8-byte slots):
 *
 *     [ object id | slot(attr 0) | ... | slot(attr k-1) | padding... ]
 *
 * The object id is replicated into every table (paper §IV) so partitions
 * can be scanned simultaneously by their sorted oid columns.  Objects
 * whose cells are all NULL for this table's attributes are omitted
 * entirely — that is the sparse-attribute memory saving DVP exploits —
 * so oid columns may have gaps.  Records are appended in increasing oid
 * order; rowOf() is a binary search over the oid column, which is the
 * engine's primary-key index.
 */

#ifndef DVP_STORAGE_TABLE_HH
#define DVP_STORAGE_TABLE_HH

#include <algorithm>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "storage/catalog.hh"
#include "storage/compress.hh"
#include "storage/value.hh"
#include "util/arena.hh"

namespace dvp::storage
{

/** Row index type; kNoRow means "object not present in this table". */
using RowIdx = int64_t;
constexpr RowIdx kNoRow = -1;

/**
 * Rows per zone-map block.  Also the scan kernels' batch size
 * (engine/kernels.hh) and the executor's default morsel granularity,
 * so block boundaries, kernel batches, and morsel boundaries coincide
 * by construction.
 */
constexpr size_t kZoneRows = 2048;

/**
 * Zone-map entry: a per-(block, column) summary maintained by append(),
 * consulted by scans to skip whole blocks before touching record data.
 *
 * min/max range over the *non-null* slots in raw slot order.  Raw order
 * is what keeps the skip test conservative for every predicate class:
 * string-tagged slots (bit 62 set, positive) sort far above every value
 * NoBench stores as a number, so a numeric range whose [lo, hi] misses
 * [min, max] provably matches nothing, while an equality probe compares
 * the encoded literal in the same order the cells are stored in.  The
 * NULL sentinel never enters min/max (it is counted in `nulls`
 * instead), so an all-null block reports nonnull == 0 and min > max.
 */
struct ZoneEntry
{
    Slot min = std::numeric_limits<Slot>::max();
    Slot max = std::numeric_limits<Slot>::min();
    uint32_t nonnull = 0; ///< stored non-null cells in the block
    uint32_t nulls = 0;   ///< stored NULL cells in the block
};

/** One vertical partition's storage. */
class Table
{
  public:
    /**
     * @param name      debugging name ("p3", "argo1", ...)
     * @param schema    attribute ids stored, in column order
     * @param arena     allocator implementing the cache-line shift policy
     * @param compress  seal every full kZoneRows block into per-column
     *                  compressed form (storage/compress.hh); only the
     *                  tail block stays in raw record storage.  Zone
     *                  maps, rowOf/lowerBound and the value accessors
     *                  oid()/cell() are unaffected; record() becomes
     *                  valid only for unsealed rows.
     */
    Table(std::string name, std::vector<AttrId> schema, Arena &arena,
          bool compress = false);

    Table(Table &&) noexcept = default;
    Table &operator=(Table &&) noexcept = default;

    /** Number of attribute columns (excluding the oid). */
    size_t attrCount() const { return schema_.size(); }

    /** The schema, in column order. */
    const std::vector<AttrId> &schema() const { return schema_; }

    /** Column index of @p attr, or -1 when not stored here. */
    int columnOf(AttrId attr) const;

    /**
     * Append a record for @p oid.
     * @param values one slot per schema attribute, in column order.
     * @return true when stored; false when skipped because every cell
     *         was NULL (sparse omission).
     * @pre oid is strictly greater than the last stored oid.
     */
    bool append(int64_t oid, std::span<const Slot> values);

    /** Number of stored records. */
    size_t rows() const { return nrows; }

    /** Record stride in bytes (payload plus any narrow padding). */
    size_t strideBytes() const { return stride_slots * 8; }

    /** Record stride in slots. */
    size_t strideSlots() const { return stride_slots; }

    /** Base address of record storage (for the perf tracer). */
    const uint8_t *base() const { return buf.data(); }

    /**
     * Pointer to the start (oid slot) of record @p row.
     * @pre row >= sealedRows() (always true when not compressed: the
     *      raw buffer holds only unsealed rows, at offset 0 for the
     *      uncompressed table).
     */
    const Slot *
    record(size_t row) const
    {
        return reinterpret_cast<const Slot *>(buf.data()) +
               (row - sealed_rows) * stride_slots;
    }

    /** Object id of record @p row (sealed rows decode on the fly). */
    int64_t
    oid(size_t row) const
    {
        if (row < sealed_rows)
            return sealedCell(row, 0);
        return record(row)[0];
    }

    /** Cell at (@p row, @p col). @pre col < attrCount() */
    Slot
    cell(size_t row, size_t col) const
    {
        if (row < sealed_rows)
            return sealedCell(row, 1 + col);
        return record(row)[1 + col];
    }

    /**
     * Row holding @p oid, or kNoRow.  Binary search over the sorted oid
     * column (the primary-key index of §IV).
     */
    RowIdx rowOf(int64_t oid) const;

    /**
     * First row whose oid is >= @p oid (cursor positioning for the
     * simultaneous merge scans).  May equal rows().
     */
    size_t lowerBound(int64_t oid) const;

    /** Bytes the stored rows would occupy uncompressed. */
    size_t storageBytes() const { return nrows * strideBytes(); }

    /**
     * Bytes the stored rows actually occupy: compressed payloads for
     * the sealed blocks plus raw storage for the tail.  Equal to
     * storageBytes() for an uncompressed table.  This is the footprint
     * the DVP cost model's memory term and the Fig-3-style reports
     * consume.
     */
    size_t bytesUsed() const;

    /**
     * bytesUsed() restricted to one column: @p col -1 addresses the
     * oid column, 0..attrCount()-1 the schema columns.  Tail rows
     * charge 8 bytes per cell.
     */
    size_t columnBytesUsed(int col) const;

    /** True when this table seals blocks into compressed form. */
    bool isCompressed() const { return compress_; }

    /** Rows living in sealed (compressed) blocks; 0 when raw. */
    size_t sealedRows() const { return sealed_rows; }

    /** Sealed block count (== sealedRows() / kZoneRows). */
    size_t sealedBlocks() const { return sealed_rows / kZoneRows; }

    /**
     * Sealed column data for (@p block, @p slot) where slot 0 is the
     * oid column and 1 + c addresses schema column c.
     * @pre block < sealedBlocks()
     */
    const ColBlock &
    sealedColumn(size_t block, size_t slot) const
    {
        return cblocks_[block * (1 + schema_.size()) + slot];
    }

    /**
     * Decode record @p row (oid + attribute cells) into @p out, which
     * must hold at least 1 + attrCount() slots.  Works for sealed and
     * unsealed rows alike; the executor uses it where it would hand
     * out a record pointer.
     */
    void materializeRecord(size_t row, Slot *out) const;

    /** Count of NULL cells stored (excludes omitted records). */
    uint64_t nullCells() const { return null_cells; }

    /** Zone-map blocks covering the stored rows (rows() / kZoneRows). */
    size_t
    blockCount() const
    {
        return (nrows + kZoneRows - 1) / kZoneRows;
    }

    /** Rows stored in block @p block. @pre block < blockCount() */
    size_t
    blockRows(size_t block) const
    {
        return std::min(kZoneRows, nrows - block * kZoneRows);
    }

    /**
     * Zone entry for (@p block, @p col).  Entries are built during
     * construction and maintained incrementally by append(), so they
     * are always exact for the stored rows; a repartition swap builds
     * fresh tables and therefore fresh zone maps.
     * @pre block < blockCount() && col < attrCount()
     */
    const ZoneEntry &
    zone(size_t block, size_t col) const
    {
        return zones_[block * schema_.size() + col];
    }

    /** True when the narrow-padding decision added padding. */
    bool padded() const { return stride_slots > 1 + schema_.size(); }

    const std::string &name() const { return name_; }

  private:
    void reserve(size_t want_rows);
    void sealTailBlock();

    /** Decode one sealed cell; slot 0 = oid, 1 + c = schema column c. */
    Slot
    sealedCell(size_t row, size_t slot) const
    {
        return columnValue(sealedColumn(row / kZoneRows, slot),
                           row % kZoneRows);
    }

    std::string name_;
    std::vector<AttrId> schema_;
    std::vector<int> colIndex; ///< dense AttrId -> column map (grown lazily)
    Arena *arena;
    AlignedBuffer buf;
    size_t stride_slots;
    size_t nrows = 0;
    size_t capacity = 0;
    uint64_t null_cells = 0;
    std::vector<ZoneEntry> zones_; ///< blockCount() x attrCount(), block-major
    bool compress_ = false;
    size_t sealed_rows = 0; ///< rows moved into cblocks_ (block multiple)
    std::vector<ColBlock> cblocks_; ///< sealedBlocks() x (1 + attrCount())
};

} // namespace dvp::storage

#endif // DVP_STORAGE_TABLE_HH
