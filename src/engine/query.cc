#include "engine/query.hh"

#include <algorithm>
#include <array>
#include <numeric>
#include <set>

#include "util/logging.hh"

namespace dvp::engine
{

std::vector<AttrId>
Query::selectionPart(const storage::Catalog &catalog) const
{
    if (selectAll)
        return catalog.allAttrs();
    return projected;
}

std::vector<AttrId>
Query::conditionPart() const
{
    std::vector<AttrId> out;
    if (cond.op == CondOp::Eq || cond.op == CondOp::Between ||
        cond.op == CondOp::IsNull || cond.op == CondOp::NotNull)
        out.push_back(cond.attr);
    for (AttrId a : cond.anyAttrs)
        out.push_back(a);
    if (joinLeftAttr != storage::kNoAttr)
        out.push_back(joinLeftAttr);
    if (joinRightAttr != storage::kNoAttr)
        out.push_back(joinRightAttr);
    if (groupBy != storage::kNoAttr)
        out.push_back(groupBy);
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
    return out;
}

std::vector<AttrId>
Query::accessedAttrs(const storage::Catalog &catalog) const
{
    std::vector<AttrId> out = selectionPart(catalog);
    std::vector<AttrId> cp = conditionPart();
    out.insert(out.end(), cp.begin(), cp.end());
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
    return out;
}

uint64_t
resultCellDigest(AttrId attr, Slot s)
{
    uint64_t v = static_cast<uint64_t>(s) ^
                 (static_cast<uint64_t>(attr) * 0x9e3779b97f4a7c15ULL);
    v ^= v >> 33;
    v *= 0xff51afd7ed558ccdULL;
    v ^= v >> 33;
    return v;
}

namespace
{

/**
 * Row indices of @p rs in canonical (lexicographic) order; no row is
 * copied.  An LSD radix sort orders the rows by their first cell, then
 * each run of equal first cells is sorted by the full row comparison.
 * Equal rows are identical, so the order among them changes neither
 * the digest nor equality.
 */
std::vector<uint32_t>
canonicalOrder(const ResultSet &rs)
{
    const auto &rows = rs.rows;
    const size_t n = rows.size();
    // Key: the first cell with its sign bit flipped, so unsigned order
    // is Slot order.  An empty row gets the smallest key; the tie sort
    // puts it before the rows sharing that key.
    struct Keyed
    {
        uint64_t key;
        uint32_t row;
    };
    std::vector<Keyed> a(n), b(n);
    for (uint32_t i = 0; i < n; ++i) {
        uint64_t key = rows[i].empty()
                           ? 0
                           : static_cast<uint64_t>(rows[i][0]) ^
                                 (uint64_t{1} << 63);
        a[i] = {key, i};
    }
    for (int shift = 0; shift < 64; shift += 8) {
        std::array<size_t, 257> count{};
        for (const Keyed &k : a)
            ++count[((k.key >> shift) & 0xFF) + 1];
        if (std::ranges::find(count, n) != count.end())
            continue; // every key shares this byte: the pass is a no-op
        std::partial_sum(count.begin(), count.end(), count.begin());
        for (const Keyed &k : a)
            b[count[(k.key >> shift) & 0xFF]++] = k;
        a.swap(b);
    }
    std::vector<uint32_t> order(n);
    for (size_t lo = 0; lo < n;) {
        size_t hi = lo + 1;
        while (hi < n && a[hi].key == a[lo].key)
            ++hi;
        std::sort(a.begin() + lo, a.begin() + hi,
                  [&rows](const Keyed &x, const Keyed &y) {
                      return rows[x.row] < rows[y.row];
                  });
        for (; lo < hi; ++lo)
            order[lo] = a[lo].row;
    }
    return order;
}

} // namespace

bool
ResultSet::equals(const ResultSet &other) const
{
    if (rows.size() != other.rows.size())
        return false;
    std::vector<uint32_t> mine = canonicalOrder(*this);
    std::vector<uint32_t> theirs = canonicalOrder(other);
    for (size_t k = 0; k < mine.size(); ++k)
        if (rows[mine[k]] != other.rows[theirs[k]])
            return false;
    return true;
}

uint64_t
ResultSet::digest() const
{
    uint64_t h = 0xcbf29ce484222325ULL;
    auto mix = [&h](uint64_t v) {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (i * 8)) & 0xff;
            h *= 0x100000001b3ULL;
        }
    };
    for (uint32_t i : canonicalOrder(*this)) {
        mix(0x9e3779b97f4a7c15ULL); // row separator
        for (Slot s : rows[i])
            mix(static_cast<uint64_t>(s));
    }
    return h;
}

} // namespace dvp::engine
