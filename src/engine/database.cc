#include "engine/database.hh"

#include <atomic>

#include "obs/metrics.hh"
#include "util/logging.hh"
#include "util/timer.hh"

namespace dvp::engine
{

int64_t
DataSet::addObject(const json::JsonValue &doc)
{
    storage::Encoder enc(catalog, dict);
    // Not addFlat(json::flatten(doc)): that keeps the flattened copy
    // alive across the push_back, which moves later heap blocks and
    // with them the simulated cache counters (Figs 6-7).
    storage::Document d = enc.encode(json::flatten(doc));
    d.oid = static_cast<int64_t>(docs.size());
    docs.push_back(std::move(d));
    return docs.back().oid;
}

int64_t
DataSet::addFlat(const std::vector<json::FlatAttr> &flat)
{
    storage::Encoder enc(catalog, dict);
    storage::Document d = enc.encode(flat);
    d.oid = static_cast<int64_t>(docs.size());
    docs.push_back(std::move(d));
    return docs.back().oid;
}

/**
 * Process-wide epoch source (file scope so adoptEpoch can lift it
 * past a durably recovered epoch).
 */
static std::atomic<uint64_t> next_epoch{1};

Database::Database(const DataSet &data, layout::Layout layout,
                   std::string name,
                   const std::vector<storage::Document> *docs_override,
                   bool compress)
    : data_(&data), layout_(std::move(layout)), name_(std::move(name)),
      compress_(compress)
{
    epoch_ = next_epoch.fetch_add(1, std::memory_order_relaxed);

    Timer timer;
    layout_.validate();
    layout_fingerprint_ = layout_.fingerprint();

    tables_.reserve(layout_.partitionCount());
    size_t max_attr = 0;
    for (const auto &part : layout_.partitions())
        for (storage::AttrId a : part)
            max_attr = std::max<size_t>(max_attr, a);
    locs_.assign(max_attr + 1, AttrLoc{});
    for (const auto &attrs : layout_.partitions())
        addTable(attrs);

    const auto &docs = docs_override ? *docs_override : data.docs;
    for (const auto &doc : docs)
        insert(doc);

    build_seconds = timer.seconds();
    publishFootprint();
}

void
Database::adoptEpoch(uint64_t epoch)
{
    epoch_ = epoch;
    // Lift the process-wide source past the adopted value so the next
    // repartition's epoch stays strictly greater — plan-cache keys and
    // WAL Swap records rely on monotonicity.
    uint64_t cur = next_epoch.load(std::memory_order_relaxed);
    while (cur <= epoch &&
           !next_epoch.compare_exchange_weak(
               cur, epoch + 1, std::memory_order_relaxed)) {
    }
}

void
Database::addTable(const std::vector<storage::AttrId> &attrs)
{
    int p = static_cast<int>(tables_.size());
    tables_.emplace_back(name_ + ".p" + std::to_string(p), attrs, arena_,
                         compress_);
    for (size_t c = 0; c < attrs.size(); ++c) {
        if (attrs[c] >= locs_.size())
            locs_.resize(attrs[c] + 1, AttrLoc{});
        locs_[attrs[c]] = AttrLoc{p, static_cast<int>(c)};
    }
}

void
Database::coverCatalog()
{
    std::vector<std::vector<storage::AttrId>> parts;
    for (storage::AttrId a = 0; a < data_->catalog.attrCount(); ++a)
        if (layout_.partitionOf(a) == layout::kNoPart)
            parts.push_back({a});
    if (parts.empty())
        return;
    for (const auto &attrs : parts)
        addTable(attrs);
    parts.insert(parts.begin(), layout_.partitions().begin(),
                 layout_.partitions().end());
    layout_ = layout::Layout(std::move(parts));
    layout_fingerprint_ = layout_.fingerprint();
}

std::vector<storage::Slot>
Database::denseSlots(const storage::Document &doc) const
{
    std::vector<storage::Slot> dense(locs_.size(), storage::kNullSlot);
    for (const auto &[attr, slot] : doc.attrs) {
        if (attr < dense.size())
            dense[attr] = slot; // attrs outside the layout are dropped
    }
    return dense;
}

void
Database::insert(const storage::Document &doc)
{
    std::vector<storage::Slot> dense = denseSlots(doc);
    std::vector<storage::Slot> record;
    for (size_t p = 0; p < tables_.size(); ++p) {
        const auto &schema = tables_[p].schema();
        record.clear();
        record.reserve(schema.size());
        for (storage::AttrId a : schema)
            record.push_back(dense[a]);
        tables_[p].append(doc.oid, record);
    }
    ++ndocs;
}

AttrLoc
Database::locate(storage::AttrId a) const
{
    if (a >= locs_.size())
        return AttrLoc{};
    return locs_[a];
}

size_t
Database::storageBytes() const
{
    size_t total = 0;
    for (const auto &t : tables_)
        total += t.storageBytes();
    return total;
}

size_t
Database::bytesUsed() const
{
    size_t total = 0;
    for (const auto &t : tables_)
        total += t.bytesUsed();
    return total;
}

void
Database::publishFootprint() const
{
    auto &reg = obs::Registry::global();
    for (size_t p = 0; p < tables_.size(); ++p) {
        const storage::Table &t = tables_[p];
        std::string base = "dvp_partition_bytes{db=\"" + name_ +
                           "\",part=\"" + std::to_string(p) +
                           "\",form=";
        reg.gauge(base + "\"raw\"}")
            .set(static_cast<int64_t>(t.storageBytes()));
        reg.gauge(base + "\"used\"}")
            .set(static_cast<int64_t>(t.bytesUsed()));
    }
    reg.gauge("dvp_db_bytes{db=\"" + name_ + "\",form=\"raw\"}")
        .set(static_cast<int64_t>(storageBytes()));
    reg.gauge("dvp_db_bytes{db=\"" + name_ + "\",form=\"used\"}")
        .set(static_cast<int64_t>(bytesUsed()));
}

std::vector<double>
Database::attrBytesPerDoc() const
{
    std::vector<double> bytes(locs_.size(), 0.0);
    if (ndocs == 0)
        return bytes;
    for (const storage::Table &t : tables_) {
        const auto &schema = t.schema();
        for (size_t c = 0; c < schema.size(); ++c)
            bytes[schema[c]] =
                static_cast<double>(
                    t.columnBytesUsed(static_cast<int>(c))) /
                static_cast<double>(ndocs);
    }
    return bytes;
}

uint64_t
Database::nullCells() const
{
    uint64_t total = 0;
    for (const auto &t : tables_)
        total += t.nullCells();
    return total;
}

} // namespace dvp::engine
