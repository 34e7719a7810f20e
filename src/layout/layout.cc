#include "layout/layout.hh"

#include <algorithm>
#include <set>

#include "util/logging.hh"

namespace dvp::layout
{

Layout::Layout(std::vector<std::vector<AttrId>> partitions)
    : parts(std::move(partitions))
{
    rebuildIndex();
    validate();
}

Layout
Layout::rowBased(const std::vector<AttrId> &attrs)
{
    return Layout({attrs});
}

Layout
Layout::columnBased(const std::vector<AttrId> &attrs)
{
    std::vector<std::vector<AttrId>> parts;
    parts.reserve(attrs.size());
    for (AttrId a : attrs)
        parts.push_back({a});
    return Layout(std::move(parts));
}

Layout
Layout::fixedSize(const std::vector<AttrId> &attrs, size_t group_size)
{
    invariant(group_size > 0, "fixedSize layout needs group_size > 0");
    std::vector<std::vector<AttrId>> parts;
    for (size_t i = 0; i < attrs.size(); i += group_size) {
        size_t end = std::min(i + group_size, attrs.size());
        parts.emplace_back(attrs.begin() + i, attrs.begin() + end);
    }
    return Layout(std::move(parts));
}

void
Layout::rebuildIndex()
{
    nattrs = 0;
    AttrId max_id = 0;
    for (const auto &p : parts)
        for (AttrId a : p)
            max_id = std::max(max_id, a);
    attrToPart.assign(parts.empty() ? 0 : max_id + 1, kNoPart);
    for (PartIdx pi = 0; pi < parts.size(); ++pi) {
        for (AttrId a : parts[pi]) {
            invariant(attrToPart[a] == kNoPart,
                      "attribute assigned to two partitions");
            attrToPart[a] = pi;
            ++nattrs;
        }
    }
}

const std::vector<AttrId> &
Layout::partition(PartIdx p) const
{
    invariant(p < parts.size(), "partition index out of range");
    return parts[p];
}

PartIdx
Layout::partitionOf(AttrId attr) const
{
    if (attr >= attrToPart.size())
        return kNoPart;
    return attrToPart[attr];
}

std::vector<AttrId>
Layout::allAttrs() const
{
    std::vector<AttrId> out;
    out.reserve(nattrs);
    for (const auto &p : parts)
        out.insert(out.end(), p.begin(), p.end());
    return out;
}

PartIdx
Layout::moveAttr(AttrId attr, PartIdx target)
{
    PartIdx src = partitionOf(attr);
    invariant(src != kNoPart, "moveAttr: attribute not in layout");
    invariant(target <= parts.size(), "moveAttr: bad target partition");
    if (target == src)
        return src;

    if (target == parts.size())
        parts.emplace_back();
    auto &from = parts[src];
    from.erase(std::find(from.begin(), from.end(), attr));
    parts[target].push_back(attr);

    bool erased = from.empty();
    if (erased)
        parts.erase(parts.begin() + src);
    rebuildIndex();
    return partitionOf(attr);
}

bool
Layout::equivalentTo(const Layout &other) const
{
    auto canon = [](const Layout &l) {
        std::set<std::set<AttrId>> c;
        for (const auto &p : l.parts)
            c.emplace(p.begin(), p.end());
        return c;
    };
    return canon(*this) == canon(other);
}

namespace
{

/** splitmix64 finalizer; decorrelates ids before commutative sums. */
uint64_t
mix64(uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

} // namespace

uint64_t
Layout::fingerprint() const
{
    // Commutative sums at both levels mirror equivalentTo()'s
    // set-of-sets comparison: neither attribute order within a
    // partition nor partition order within the layout can change the
    // value, while the mix64 around each partition's sum keeps
    // {a,b}{c} distinct from {a}{b,c}.  Partitions are non-empty and
    // disjoint (validate), so the sets are never duplicated and the
    // sum behaves as a set union.
    uint64_t fp = 0x5bf03635d78c491dull;
    for (const auto &p : parts) {
        uint64_t ph = 0;
        for (AttrId a : p)
            ph += mix64(a);
        fp += mix64(ph + p.size());
    }
    return mix64(fp + parts.size());
}

std::string
Layout::describe() const
{
    std::string out;
    for (const auto &p : parts) {
        out += "{";
        for (size_t i = 0; i < p.size(); ++i) {
            if (i)
                out += ",";
            out += std::to_string(p[i]);
        }
        out += "}";
    }
    return out;
}

void
Layout::validate() const
{
    size_t seen = 0;
    std::set<AttrId> all;
    for (const auto &p : parts) {
        invariant(!p.empty(), "layout contains an empty partition");
        for (AttrId a : p) {
            invariant(all.insert(a).second,
                      "attribute appears in two partitions");
            ++seen;
        }
    }
    invariant(seen == nattrs, "layout attribute index out of sync");
}

void
encodeLayout(Writer &w, const Layout &layout)
{
    w.u32(static_cast<uint32_t>(layout.partitionCount()));
    for (const auto &part : layout.partitions()) {
        w.u32(static_cast<uint32_t>(part.size()));
        for (AttrId a : part)
            w.u32(a);
    }
}

std::string
decodeLayout(Reader &r, size_t catalog_size, Layout &out)
{
    // A partition takes at least its 4-byte size.
    uint32_t nparts = r.u32();
    if (!r.ok() || nparts > r.remaining() / 4)
        return "truncated layout";
    std::vector<std::vector<AttrId>> parts(nparts);
    std::vector<bool> seen(catalog_size, false);
    for (auto &attrs : parts) {
        uint32_t k = r.u32();
        if (!r.ok() || k > r.remaining() / 4)
            return "truncated layout";
        if (k == 0)
            return "corrupt layout: empty partition";
        attrs.resize(k);
        for (AttrId &a : attrs) {
            a = r.u32();
            if (a >= catalog_size || seen[a])
                return "corrupt layout: bad attribute";
            seen[a] = true;
        }
    }
    out = Layout(std::move(parts));
    return "";
}

} // namespace dvp::layout
