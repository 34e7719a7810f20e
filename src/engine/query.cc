#include "engine/query.hh"

#include <algorithm>
#include <bit>
#include <set>
#include <utility>

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

void
ResultRows::adoptWidth(size_t width)
{
    if (count_ == 0)
        width_ = width;
    invariant(width == width_, "result rows must share one width");
}

void
ResultRows::assign(iterator first, iterator last)
{
    width_ = first.width;
    count_ = static_cast<size_t>(last - first);
    slots_.assign(first.base + first.idx * width_,
                  first.base + last.idx * width_);
}

void
ResultRows::append(const ResultRows &other)
{
    if (other.empty())
        return;
    adoptWidth(other.width_);
    slots_.insert(slots_.end(), other.slots_.begin(), other.slots_.end());
    count_ += other.count_;
}

namespace
{

/**
 * Row indices of @p rows in canonical (lexicographic) order; no row is
 * copied.  An LSD radix sort orders the rows by their first cell, then
 * each run of equal first cells longer than one row is sorted by the
 * full row comparison.  Equal rows are identical, so the order among
 * them changes neither the digest nor equality.
 */
std::vector<uint32_t>
canonicalOrder(const ResultRows &rows)
{
    const size_t n = rows.size();
    const size_t width = rows.width();
    const Slot *cells = rows.slots().data();
    // Key: the first cell with its sign bit flipped, so unsigned order
    // is Slot order; zero-width rows all share key 0.
    struct Keyed
    {
        uint64_t key;
        uint32_t row;
    };
    std::vector<Keyed> a(n), b(n);
    for (uint32_t i = 0; i < n; ++i) {
        uint64_t key =
            width == 0 ? 0
                       : static_cast<uint64_t>(cells[i * width]) ^
                             (uint64_t{1} << 63);
        a[i] = {key, i};
    }
    // Only the key bits that differ between rows need sorting: split
    // them into as few digits of at most 11 bits as cover them.
    uint64_t varies = 0;
    for (const Keyed &k : a)
        varies |= k.key ^ a[0].key;
    if (varies != 0) {
        const int lo = std::countr_zero(varies);
        const int bits = 64 - std::countl_zero(varies) - lo;
        const int passes = (bits + 10) / 11;
        const int digit = (bits + passes - 1) / passes;
        const uint64_t mask = (uint64_t{1} << digit) - 1;
        std::vector<uint32_t> count(size_t{1} << digit);
        for (int p = 0; p < passes; ++p) {
            const int shift = lo + p * digit;
            std::fill(count.begin(), count.end(), 0);
            for (const Keyed &k : a)
                ++count[(k.key >> shift) & mask];
            uint32_t at = 0;
            for (uint32_t &c : count)
                at += std::exchange(c, at);
            for (const Keyed &k : a)
                b[count[(k.key >> shift) & mask]++] = k;
            a.swap(b);
        }
    }
    std::vector<uint32_t> order(n);
    for (size_t lo = 0; lo < n;) {
        size_t hi = lo + 1;
        while (hi < n && a[hi].key == a[lo].key)
            ++hi;
        if (hi - lo > 1)
            std::sort(a.begin() + lo, a.begin() + hi,
                      [&rows](const Keyed &x, const Keyed &y) {
                          return std::ranges::lexicographical_compare(
                              rows[x.row], rows[y.row]);
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
    std::vector<uint32_t> mine = canonicalOrder(rows);
    std::vector<uint32_t> theirs = canonicalOrder(other.rows);
    for (size_t k = 0; k < mine.size(); ++k)
        if (!std::ranges::equal(rows[mine[k]], other.rows[theirs[k]]))
            return false;
    return true;
}

uint64_t
ResultSet::digest() const
{
    constexpr uint64_t kNull = static_cast<uint64_t>(storage::kNullSlot);
    const size_t width = rows.width();
    const Slot *cells = rows.slots().data();
    uint64_t h = kFnvOffset;
    for (uint32_t i : canonicalOrder(rows)) {
        h = fnvStepConst<kDigestRowSeparator>(h);
        for (const Slot *c = cells + i * width, *e = c + width; c != e;
             ++c)
            h = *c == storage::kNullSlot
                    ? fnvStepConst<kNull>(h)
                    : fnvStep(h, static_cast<uint64_t>(*c));
    }
    return h;
}

} // namespace dvp::engine
