/**
 * @file
 * DataSet and Database.
 *
 * A DataSet is the layout-independent part: the catalog, the string
 * dictionary, and the encoded documents.  A Database materializes one
 * DataSet under one Layout as a set of partition Tables, all allocated
 * through an Arena so the cache-collision-prevention address policy of
 * §IV applies.  Several Databases (row, column, DVP, ...) typically
 * share one DataSet so their query results are directly comparable.
 */

#ifndef DVP_ENGINE_DATABASE_HH
#define DVP_ENGINE_DATABASE_HH

#include <memory>
#include <string>
#include <vector>

#include "layout/layout.hh"
#include "storage/catalog.hh"
#include "storage/dictionary.hh"
#include "storage/encoder.hh"
#include "storage/table.hh"
#include "util/arena.hh"

namespace dvp::engine
{

/**
 * Layout-independent data: catalog + dictionary + encoded documents.
 *
 * A DataSet carries no lock.  Once an AdaptiveEngine serves it, every
 * writer (ingest, which grows the catalog, dictionary and docs) holds
 * the engine lock exclusive and every concurrent reader holds it
 * shared (AdaptiveEngine::read); before that, one thread owns it.
 */
struct DataSet
{
    storage::Catalog catalog;
    storage::Dictionary dict;
    std::vector<storage::Document> docs;

    /** Encode and append one JSON object; returns its oid. */
    int64_t addObject(const json::JsonValue &doc);

    /** Encode and append pre-flattened attributes; returns the oid. */
    int64_t addFlat(const std::vector<json::FlatAttr> &flat);
};

/** Location of an attribute inside a Database. */
struct AttrLoc
{
    int table = -1; ///< table index, -1 when the attr is not stored
    int col = -1;   ///< column within that table
};

/** One physical materialization of a DataSet under a Layout. */
class Database
{
  public:
    /**
     * Build tables for @p layout and populate them from @p data.
     * @param name engine name for reports ("DVP", "row", ...).
     * @param docs_override populate from this snapshot instead of
     *        data.docs (used by background repartitioning, which must
     *        not race the live document vector).
     * @param compress seal every full 2048-row block of every table
     *        into compressed column blocks (storage/compress.hh); the
     *        timing executor evaluates predicates on the compressed
     *        form.  Incompatible with the SimTracer path, which needs
     *        record pointers.
     */
    Database(const DataSet &data, layout::Layout layout, std::string name,
             const std::vector<storage::Document> *docs_override =
                 nullptr,
             bool compress = false);

    /** Number of documents inserted so far. */
    size_t docCount() const { return ndocs; }

    /** Append one more document to every partition table. */
    void insert(const storage::Document &doc);

    /**
     * Give every catalog attribute this layout lacks an empty singleton
     * partition, so later insert()s keep its cells.  Live ingest calls
     * this before appending a batch, and a repartition calls it on the
     * fresh database before catching up; insert() alone drops cells of
     * attributes outside the layout.  The epoch stays; the layout
     * fingerprint changes when a partition is added.
     */
    void coverCatalog();

    const layout::Layout &layout() const { return layout_; }
    const DataSet &data() const { return *data_; }
    const std::string &name() const { return name_; }

    /**
     * Layout epoch: a process-wide monotone stamp taken at
     * construction.  Every adaptive swap installs a freshly built
     * Database and therefore a new epoch, which is what keys — and
     * invalidates for free — cached physical plans (see plan_cache.hh).
     */
    uint64_t epoch() const { return epoch_; }

    /**
     * Replace this database's epoch with a durably recovered one and
     * lift the process-wide epoch source past it, so recovery restores
     * the exact pre-crash epoch and later swaps stay monotonic.  Call
     * before the database is shared (no synchronization).
     */
    void adoptEpoch(uint64_t epoch);

    /** Layout::fingerprint() of this database, computed once. */
    uint64_t layoutFingerprint() const { return layout_fingerprint_; }

    size_t tableCount() const { return tables_.size(); }
    const storage::Table &table(size_t i) const { return tables_[i]; }

    /** Where attribute @p a lives. */
    AttrLoc locate(storage::AttrId a) const;

    /** True when tables seal blocks into compressed columns. */
    bool compressed() const { return compress_; }

    /** Total record-storage bytes across tables. */
    size_t storageBytes() const;

    /**
     * Bytes actually held across tables: compressed payloads for
     * sealed blocks plus raw tail rows.  Equals storageBytes() for an
     * uncompressed database.  This is the Fig-3-style footprint the
     * cost model's memory term and the dvp_partition_bytes gauges
     * report.
     */
    size_t bytesUsed() const;

    /**
     * Publish dvp_partition_bytes{db=...,part=...,form="raw"|"used"}
     * gauges for every partition to the obs registry.  Called once per
     * build/swap, not per query.
     */
    void publishFootprint() const;

    /**
     * Measured stored bytes per document for every attribute — the
     * vector core::CostParams::attrBytes consumes, so the partitioner's
     * memory term can prefer layouts whose partitions compress well.
     * Uses compressed payload sizes when this database compresses.
     */
    std::vector<double> attrBytesPerDoc() const;

    /** Total NULL cells materialized across tables. */
    uint64_t nullCells() const;

    /** NULL bytes (cells x 8). */
    size_t nullBytes() const { return nullCells() * 8; }

    /** Seconds spent building + populating (Table IV's build time). */
    double buildSeconds() const { return build_seconds; }

  private:
    std::vector<storage::Slot> denseSlots(const storage::Document &doc)
        const;

    void addTable(const std::vector<storage::AttrId> &attrs);

    const DataSet *data_;
    layout::Layout layout_;
    std::string name_;
    Arena arena_;
    std::vector<storage::Table> tables_;
    std::vector<AttrLoc> locs_; ///< dense AttrId -> location
    size_t ndocs = 0;
    bool compress_ = false;
    double build_seconds = 0;
    uint64_t epoch_ = 0;
    uint64_t layout_fingerprint_ = 0;
};

} // namespace dvp::engine

#endif // DVP_ENGINE_DATABASE_HH
