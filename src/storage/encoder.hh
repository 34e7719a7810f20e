/**
 * @file
 * Document encoder: flattened JSON -> catalog-registered, dictionary-
 * encoded slot pairs.  This is the single ingest path shared by every
 * layout (row, column, hybrid, DVP, Hyrise, Argo), so all engines see
 * bit-identical values.
 */

#ifndef DVP_STORAGE_ENCODER_HH
#define DVP_STORAGE_ENCODER_HH

#include <utility>
#include <vector>

#include "json/flatten.hh"
#include "storage/catalog.hh"
#include "storage/dictionary.hh"
#include "storage/value.hh"

namespace dvp::storage
{

/** One encoded document: an oid plus (attribute, slot) pairs. */
struct Document
{
    int64_t oid = 0;
    /** Present attributes with encoded values, sorted by AttrId. */
    std::vector<std::pair<AttrId, Slot>> attrs;

    /** Slot for @p attr, or kNullSlot when absent (binary search). */
    Slot slotOf(AttrId attr) const;
};

/**
 * Stateful encoder: owns nothing, mutates the catalog (attribute
 * registration + presence statistics) and the dictionary (interning).
 */
class Encoder
{
  public:
    Encoder(Catalog &catalog, Dictionary &dict)
        : catalog(&catalog), dict(&dict)
    {
    }

    /**
     * Encode one flattened document, assigning the next oid.
     * JSON nulls are treated as absent (they encode no information the
     * engine can query); doubles are rounded to integers with a warning
     * (NoBench has none).
     */
    Document encode(const std::vector<json::FlatAttr> &flat);

    /** Oid that the next encode() will assign. */
    int64_t nextOid() const { return next_oid; }

  private:
    Catalog *catalog;
    Dictionary *dict;
    int64_t next_oid = 0;
};

} // namespace dvp::storage

#endif // DVP_STORAGE_ENCODER_HH
