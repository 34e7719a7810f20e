#include "storage/dictionary.hh"

#include <utility>

#include "obs/metrics.hh"
#include "util/logging.hh"

namespace dvp::storage
{

Dictionary::Dictionary() : index(64, kEmpty)
{
}

Dictionary::~Dictionary()
{
    flushObs();
}

Dictionary::Dictionary(const Dictionary &other)
    : strings(other.strings), index(other.index)
{
    // Pending counts stay with `other`; it flushes its own probes.
}

Dictionary &
Dictionary::operator=(const Dictionary &other)
{
    if (this != &other) {
        flushObs();
        strings = other.strings;
        index = other.index;
    }
    return *this;
}

Dictionary::Dictionary(Dictionary &&other) noexcept
    : strings(std::move(other.strings)), index(std::move(other.index)),
      pending_probes(
          other.pending_probes.exchange(0, std::memory_order_relaxed)),
      pending_slots(
          other.pending_slots.exchange(0, std::memory_order_relaxed))
{
}

Dictionary &
Dictionary::operator=(Dictionary &&other) noexcept
{
    if (this != &other) {
        flushObs();
        strings = std::move(other.strings);
        index = std::move(other.index);
        pending_probes.store(
            other.pending_probes.exchange(0, std::memory_order_relaxed),
            std::memory_order_relaxed);
        pending_slots.store(
            other.pending_slots.exchange(0, std::memory_order_relaxed),
            std::memory_order_relaxed);
    }
    return *this;
}

void
Dictionary::flushObs() const
{
    uint64_t probes =
        pending_probes.exchange(0, std::memory_order_relaxed);
    uint64_t slots =
        pending_slots.exchange(0, std::memory_order_relaxed);
    if (probes == 0 && slots == 0)
        return;
    DVP_COUNTER_ADD("dvp_dict_probes_total", probes);
    DVP_COUNTER_ADD("dvp_dict_probe_slots_total", slots);
    DVP_GAUGE_SET("dvp_dict_entries",
                  static_cast<int64_t>(strings.size()));
}

uint64_t
Dictionary::hashBytes(std::string_view s)
{
    // FNV-1a, then a final mix so short keys spread across the table.
    uint64_t h = 0xcbf29ce484222325ULL;
    for (char c : s) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001b3ULL;
    }
    h ^= h >> 33;
    h *= 0xff51afd7ed558ccdULL;
    h ^= h >> 33;
    return h;
}

size_t
Dictionary::probe(std::string_view s, uint64_t hash) const
{
    size_t mask = index.size() - 1;
    size_t i = hash & mask;
    uint64_t slots = 1;
    while (index[i] != kEmpty && strings[index[i]] != s) {
        i = (i + 1) & mask;
        ++slots;
    }
    pending_probes.fetch_add(1, std::memory_order_relaxed);
    pending_slots.fetch_add(slots, std::memory_order_relaxed);
    return i;
}

void
Dictionary::grow()
{
    std::vector<uint32_t> old = std::move(index);
    index.assign(old.size() * 2, kEmpty);
    for (uint32_t id : old) {
        if (id == kEmpty)
            continue;
        size_t slot = probe(strings[id], hashBytes(strings[id]));
        index[slot] = id;
    }
}

StringId
Dictionary::intern(std::string_view s)
{
    size_t slot = probe(s, hashBytes(s));
    if (index[slot] != kEmpty)
        return index[slot];
    invariant(strings.size() < kMissing, "dictionary id space exhausted");
    auto id = static_cast<StringId>(strings.size());
    strings.emplace_back(s);
    index[slot] = id;
    // Keep load factor below 0.7.
    if (strings.size() * 10 >= index.size() * 7)
        grow();
    return id;
}

StringId
Dictionary::lookup(std::string_view s) const
{
    size_t slot = probe(s, hashBytes(s));
    return index[slot] == kEmpty ? kMissing : index[slot];
}

const std::string &
Dictionary::text(StringId id) const
{
    invariant(id < strings.size(), "dictionary id out of range");
    return strings[id];
}

size_t
Dictionary::memoryBytes() const
{
    size_t bytes = index.size() * sizeof(uint32_t);
    for (const auto &s : strings)
        bytes += s.size() + sizeof(std::string);
    return bytes;
}

} // namespace dvp::storage
