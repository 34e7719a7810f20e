#include "storage/table.hh"

#include <algorithm>
#include <cstring>

#include "storage/padding.hh"
#include "util/logging.hh"

namespace dvp::storage
{

Table::Table(std::string name, std::vector<AttrId> schema, Arena &arena,
             bool compress)
    : name_(std::move(name)), schema_(std::move(schema)), arena(&arena),
      compress_(compress)
{
    invariant(!schema_.empty(), "a table needs at least one attribute");
    size_t payload = (1 + schema_.size()) * 8; // oid + attribute slots
    size_t stride = chooseStride(payload);
    stride_slots = stride / 8;

    AttrId max_id = *std::max_element(schema_.begin(), schema_.end());
    colIndex.assign(max_id + 1, -1);
    for (size_t c = 0; c < schema_.size(); ++c) {
        invariant(colIndex[schema_[c]] == -1,
                  "duplicate attribute in table schema");
        colIndex[schema_[c]] = static_cast<int>(c);
    }
}

int
Table::columnOf(AttrId attr) const
{
    if (attr >= colIndex.size())
        return -1;
    return colIndex[attr];
}

void
Table::reserve(size_t want_rows)
{
    // want_rows counts *unsealed* rows: a compressed table's buffer
    // holds only the tail block, so its capacity tops out at kZoneRows.
    if (want_rows <= capacity)
        return;
    size_t new_cap = std::max<size_t>(capacity * 2, 1024);
    new_cap = std::max(new_cap, want_rows);
    // Regrowth keeps the table's original cache-collision shift: a
    // fresh rotation slot here would migrate the table onto cache sets
    // another table already owns (and skew the rotation for future
    // tables) every time the insert path doubles capacity.
    AlignedBuffer bigger =
        buf.valid() ? arena->reallocate(new_cap * strideBytes(),
                                        buf.shift())
                    : arena->allocate(new_cap * strideBytes());
    size_t live = nrows - sealed_rows;
    if (live > 0) {
        invariant(bigger.shift() == buf.shift(),
                  "table regrowth must preserve the arena shift");
        std::memcpy(bigger.data(), buf.data(), live * strideBytes());
    }
    buf = std::move(bigger);
    capacity = new_cap;
}

bool
Table::append(int64_t oid, std::span<const Slot> values)
{
    invariant(values.size() == schema_.size(),
              "append arity must match the table schema");
    invariant(nrows == 0 || this->oid(nrows - 1) < oid,
              "oids must be appended in strictly increasing order");

    bool all_null = true;
    uint64_t nulls = 0;
    for (Slot s : values) {
        if (isNull(s))
            ++nulls;
        else
            all_null = false;
    }
    if (all_null)
        return false; // sparse omission: nothing to store for this object

    reserve(nrows - sealed_rows + 1);
    Slot *rec = const_cast<Slot *>(record(nrows));
    rec[0] = oid;
    std::memcpy(rec + 1, values.data(), values.size() * 8);
    // Zero any padding slots so full-record reads are deterministic.
    for (size_t s = 1 + values.size(); s < stride_slots; ++s)
        rec[s] = 0;

    // Zone maps grow with the rows they summarize: the first record of
    // a block opens one empty entry per column (min > max, zero
    // counts), and every stored cell folds into its column's entry.
    if (nrows % kZoneRows == 0)
        zones_.resize(zones_.size() + schema_.size());
    ZoneEntry *zrow =
        zones_.data() + (nrows / kZoneRows) * schema_.size();
    for (size_t c = 0; c < values.size(); ++c) {
        ZoneEntry &z = zrow[c];
        Slot s = values[c];
        if (isNull(s)) {
            ++z.nulls;
        } else {
            z.min = std::min(z.min, s);
            z.max = std::max(z.max, s);
            ++z.nonnull;
        }
    }

    ++nrows;
    null_cells += nulls;
    // Block boundary: the tail just filled a full zone block, so a
    // compressed table seals it (per-column encode + tail reset).
    if (compress_ && nrows % kZoneRows == 0)
        sealTailBlock();
    return true;
}

void
Table::sealTailBlock()
{
    invariant(nrows - sealed_rows == kZoneRows,
              "sealing needs exactly one full tail block");
    const Slot *rows0 = record(sealed_rows);
    for (size_t slot = 0; slot <= schema_.size(); ++slot)
        cblocks_.push_back(
            compressColumn(rows0 + slot, stride_slots, kZoneRows));
    // The raw buffer now holds no live rows; the next append overwrites
    // it from the start (record() maps rows relative to sealed_rows).
    sealed_rows = nrows;
}

size_t
Table::bytesUsed() const
{
    if (!compress_)
        return storageBytes();
    size_t total = (nrows - sealed_rows) * strideBytes();
    for (const ColBlock &cb : cblocks_)
        total += cb.payloadBytes();
    return total;
}

size_t
Table::columnBytesUsed(int col) const
{
    size_t slot = static_cast<size_t>(col + 1); // -1 -> oid column
    invariant(slot <= schema_.size(), "column out of range");
    size_t total = (nrows - sealed_rows) * 8;
    for (size_t b = 0; b < sealedBlocks(); ++b)
        total += sealedColumn(b, slot).payloadBytes();
    return total;
}

void
Table::materializeRecord(size_t row, Slot *out) const
{
    if (row >= sealed_rows) {
        std::memcpy(out, record(row), (1 + schema_.size()) * 8);
        return;
    }
    size_t block = row / kZoneRows, i = row % kZoneRows;
    // Software-pipelined decode: each column block owns its own
    // payload allocation, so a wide record is one cache miss per
    // column if the loads serialize.  Prefetching a fixed distance
    // ahead keeps a core's worth of misses in flight (the hardware
    // tracks ~10-16 outstanding) while the current column decodes —
    // issuing all prefetches up front would just overflow that window
    // and fall back to serialized misses for the tail.
    constexpr size_t kPrefetchDist = 16;
    const size_t nslots = schema_.size() + 1;
    auto touch = [&](size_t slot) {
        const ColBlock &cb = sealedColumn(block, slot);
        const uint8_t *p = cb.bytes.data();
        switch (cb.fmt) {
          case BlockFmt::Raw:
            __builtin_prefetch(p + i * 8);
            break;
          case BlockFmt::Rle:
            // The binary search lands mid-way through the run starts.
            __builtin_prefetch(p + size_t{cb.runs} * 8 +
                               (size_t{cb.runs} / 2) * 4);
            break;
          case BlockFmt::Pack:
            __builtin_prefetch(p + i * cb.width / 8);
            break;
        }
    };
    for (size_t slot = 0; slot < std::min(kPrefetchDist, nslots); ++slot)
        touch(slot);
    for (size_t slot = 0; slot < nslots; ++slot) {
        if (slot + kPrefetchDist < nslots)
            touch(slot + kPrefetchDist);
        out[slot] = columnValue(sealedColumn(block, slot), i);
    }
}

RowIdx
Table::rowOf(int64_t target) const
{
    size_t lo = lowerBound(target);
    if (lo < nrows && oid(lo) == target)
        return static_cast<RowIdx>(lo);
    return kNoRow;
}

size_t
Table::lowerBound(int64_t target) const
{
    size_t lo = 0, hi = nrows;
    while (lo < hi) {
        size_t mid = lo + (hi - lo) / 2;
        if (oid(mid) < target)
            lo = mid + 1;
        else
            hi = mid;
    }
    return lo;
}

} // namespace dvp::storage
