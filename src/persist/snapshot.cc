#include "persist/snapshot.hh"

#include <cstring>
#include <fstream>

#include "net/wire.hh"
#include "util/durable_file.hh"

namespace dvp::persist
{

namespace
{

constexpr char kMagic[8] = {'D', 'V', 'P', 'S', 'N', 'A', 'P', '1'};
constexpr char kMagic2[8] = {'D', 'V', 'P', 'S', 'N', 'A', 'P', '2'};
constexpr int kNewestRev = kMagic2[7] - '0'; ///< reads revs 1 and 2

/** Little-endian append-only writer. */
class Writer
{
  public:
    void
    u8(uint8_t v)
    {
        out.push_back(static_cast<char>(v));
    }

    void
    u32(uint32_t v)
    {
        for (int i = 0; i < 4; ++i)
            out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
    }

    void
    u64(uint64_t v)
    {
        for (int i = 0; i < 8; ++i)
            out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
    }

    void i64(int64_t v) { u64(static_cast<uint64_t>(v)); }

    void
    str(const std::string &s)
    {
        u32(static_cast<uint32_t>(s.size()));
        out.append(s);
    }

    std::string take() { return std::move(out); }

  private:
    std::string out;
};

/** Bounds-checked reader; sets an error instead of panicking. */
class Reader
{
  public:
    explicit Reader(const std::string &bytes)
        : data(bytes), end(bytes.size())
    {
    }

    /** Parse only the first @p limit bytes (rev 2 excludes the CRC). */
    Reader(const std::string &bytes, size_t limit)
        : data(bytes), end(limit)
    {
    }

    bool
    u8(uint8_t &v)
    {
        if (!need(1))
            return false;
        v = static_cast<uint8_t>(data[pos++]);
        return true;
    }

    bool
    u32(uint32_t &v)
    {
        if (!need(4))
            return false;
        v = 0;
        for (int i = 0; i < 4; ++i)
            v |= static_cast<uint32_t>(
                     static_cast<unsigned char>(data[pos + i]))
                 << (8 * i);
        pos += 4;
        return true;
    }

    bool
    u64(uint64_t &v)
    {
        if (!need(8))
            return false;
        v = 0;
        for (int i = 0; i < 8; ++i)
            v |= static_cast<uint64_t>(
                     static_cast<unsigned char>(data[pos + i]))
                 << (8 * i);
        pos += 8;
        return true;
    }

    bool
    i64(int64_t &v)
    {
        uint64_t raw;
        if (!u64(raw))
            return false;
        v = static_cast<int64_t>(raw);
        return true;
    }

    bool
    str(std::string &s)
    {
        uint32_t len;
        if (!u32(len) || !need(len))
            return false;
        s.assign(data, pos, len);
        pos += len;
        return true;
    }

    bool atEnd() const { return pos == end; }
    const std::string &error() const { return err; }

    bool
    fail(const std::string &msg)
    {
        if (err.empty())
            err = msg + " at offset " + std::to_string(pos);
        return false;
    }

  private:
    bool
    need(size_t n)
    {
        if (pos + n > end) {
            fail("truncated snapshot");
            return false;
        }
        return true;
    }

    const std::string &data;
    size_t end;
    size_t pos = 0;
    std::string err;
};

} // namespace

std::string
serialize(const engine::DataSet &data, const layout::Layout *layout,
          const SnapshotMeta *meta)
{
    Writer w;
    w.u64(*reinterpret_cast<const uint64_t *>(kMagic2));
    w.u32(0); // flags, reserved

    // Rev-2 meta block.
    SnapshotMeta m = meta ? *meta : SnapshotMeta{};
    w.u64(m.epoch);
    w.u64(m.baseDocs);
    w.u64(m.walLsn);

    // Catalog.
    const auto &cat = data.catalog;
    w.u32(static_cast<uint32_t>(cat.attrCount()));
    for (storage::AttrId a = 0; a < cat.attrCount(); ++a) {
        const storage::AttrInfo &info = cat.info(a);
        w.str(info.name);
        w.u8(static_cast<uint8_t>(info.type));
        w.u64(info.nonNullDocs);
    }
    w.u64(cat.docCount());

    // Dictionary (ids are dense in insertion order).
    w.u32(static_cast<uint32_t>(data.dict.size()));
    for (storage::StringId id = 0; id < data.dict.size(); ++id)
        w.str(data.dict.text(id));

    // Documents.
    w.u64(data.docs.size());
    for (const auto &doc : data.docs) {
        w.i64(doc.oid);
        w.u32(static_cast<uint32_t>(doc.attrs.size()));
        for (const auto &[attr, slot] : doc.attrs) {
            w.u32(attr);
            w.i64(slot);
        }
    }

    // Optional layout.
    if (layout) {
        w.u32(1);
        w.u32(static_cast<uint32_t>(layout->partitionCount()));
        for (const auto &part : layout->partitions()) {
            w.u32(static_cast<uint32_t>(part.size()));
            for (storage::AttrId a : part)
                w.u32(a);
        }
    } else {
        w.u32(0);
    }

    // Trailing integrity CRC over everything above.
    std::string out = w.take();
    uint32_t crc = net::crc32(out.data(), out.size());
    Writer tail;
    tail.u32(crc);
    out += tail.take();
    return out;
}

LoadResult
deserialize(const std::string &bytes)
{
    LoadResult out;
    int version = formatVersion(bytes, "DVPSNAP");
    if (version > kNewestRev) {
        out.error = newerFormatError("snapshot", version, kNewestRev);
        return out;
    }
    const bool rev2 =
        bytes.size() >= 8 && std::memcmp(bytes.data(), kMagic2, 8) == 0;
    size_t limit = bytes.size();
    if (rev2) {
        // Verify the trailing CRC before trusting any field.
        if (bytes.size() < 12) {
            out.error = "truncated snapshot";
            return out;
        }
        uint32_t stored = 0;
        std::memcpy(&stored, bytes.data() + bytes.size() - 4, 4);
        if (net::crc32(bytes.data(), bytes.size() - 4) != stored) {
            out.error = "snapshot CRC mismatch";
            return out;
        }
        limit = bytes.size() - 4;
    }
    Reader r(bytes, limit);
    auto fail = [&](const std::string &msg) {
        out.ok = false;
        out.error = r.error().empty() ? msg : r.error();
        // Move the captured result out: a copy would duplicate the
        // whole data set.
        return std::move(out);
    };

    uint64_t magic;
    uint32_t flags;
    if (!r.u64(magic) || !r.u32(flags))
        return fail("truncated header");
    if (!rev2 && std::memcmp(&magic, kMagic, 8) != 0)
        return fail("not a DVP snapshot (bad magic)");
    if (flags != 0)
        return fail("unsupported snapshot flags");

    if (rev2) {
        SnapshotMeta meta;
        if (!r.u64(meta.epoch) || !r.u64(meta.baseDocs) ||
            !r.u64(meta.walLsn))
            return fail("truncated meta block");
        out.meta = meta;
    }

    // Catalog.
    uint32_t nattrs;
    if (!r.u32(nattrs))
        return fail("truncated catalog");
    for (uint32_t i = 0; i < nattrs; ++i) {
        std::string name;
        uint8_t type;
        uint64_t non_null;
        if (!r.str(name) || !r.u8(type) || !r.u64(non_null))
            return fail("truncated catalog entry");
        if (type > static_cast<uint8_t>(storage::AttrType::Mixed))
            return fail("corrupt attribute type");
        storage::AttrId id = out.data.catalog.ensure(name);
        if (id != i)
            return fail("duplicate attribute name in catalog");
        out.data.catalog.restoreStats(
            id, static_cast<storage::AttrType>(type), non_null);
    }
    uint64_t doc_count;
    if (!r.u64(doc_count))
        return fail("truncated document count");
    out.data.catalog.restoreDocCount(doc_count);

    // Dictionary.
    uint32_t nstrings;
    if (!r.u32(nstrings))
        return fail("truncated dictionary");
    for (uint32_t i = 0; i < nstrings; ++i) {
        std::string s;
        if (!r.str(s))
            return fail("truncated dictionary entry");
        if (out.data.dict.intern(s) != i)
            return fail("duplicate dictionary entry");
    }

    // Documents.
    uint64_t ndocs;
    if (!r.u64(ndocs))
        return fail("truncated document section");
    out.data.docs.reserve(ndocs);
    int64_t prev_oid = INT64_MIN;
    for (uint64_t d = 0; d < ndocs; ++d) {
        storage::Document doc;
        uint32_t nslots;
        if (!r.i64(doc.oid) || !r.u32(nslots))
            return fail("truncated document");
        if (doc.oid <= prev_oid)
            return fail("documents out of oid order");
        prev_oid = doc.oid;
        doc.attrs.reserve(nslots);
        uint32_t prev_attr = 0;
        for (uint32_t k = 0; k < nslots; ++k) {
            uint32_t attr;
            int64_t slot;
            if (!r.u32(attr) || !r.i64(slot))
                return fail("truncated document slot");
            if (attr >= nattrs)
                return fail("document references unknown attribute");
            if (k > 0 && attr <= prev_attr)
                return fail("document slots out of attribute order");
            prev_attr = attr;
            if (storage::isStringSlot(slot) &&
                storage::decodeString(slot) >= nstrings)
                return fail("document references unknown string");
            doc.attrs.emplace_back(attr, slot);
        }
        out.data.docs.push_back(std::move(doc));
    }
    if (out.meta && out.meta->baseDocs > ndocs)
        return fail("meta baseDocs exceeds document count");

    // Optional layout.
    uint32_t has_layout;
    if (!r.u32(has_layout))
        return fail("truncated layout flag");
    if (has_layout == 1) {
        uint32_t nparts;
        if (!r.u32(nparts))
            return fail("truncated layout");
        std::vector<std::vector<storage::AttrId>> parts;
        std::vector<bool> seen(nattrs, false);
        parts.reserve(nparts);
        for (uint32_t p = 0; p < nparts; ++p) {
            uint32_t k;
            if (!r.u32(k))
                return fail("truncated partition");
            if (k == 0)
                return fail("corrupt layout: empty partition");
            std::vector<storage::AttrId> attrs;
            attrs.reserve(k);
            for (uint32_t i = 0; i < k; ++i) {
                uint32_t a;
                if (!r.u32(a))
                    return fail("truncated partition entry");
                if (a >= nattrs || seen[a])
                    return fail("corrupt layout: bad attribute");
                seen[a] = true;
                attrs.push_back(a);
            }
            parts.push_back(std::move(attrs));
        }
        // No full-coverage requirement: images written before ingest
        // grew the layout in place carry a layout covering a strict
        // subset of the catalog (only docs beyond baseDocs reference
        // the rest, and restore appends those the way ingest does,
        // covering the catalog first).
        out.layout = layout::Layout(std::move(parts));
    } else if (has_layout != 0) {
        return fail("corrupt layout flag");
    }

    if (!r.atEnd())
        return fail("trailing bytes after snapshot");
    out.ok = true;
    return out;
}

std::string
save(const std::string &path, const engine::DataSet &data,
     const layout::Layout *layout, const SnapshotMeta *meta)
{
    return atomicWriteFile(path, serialize(data, layout, meta));
}

LoadResult
load(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        LoadResult r;
        r.error = "cannot open '" + path + "'";
        return r;
    }
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    return deserialize(bytes);
}

} // namespace dvp::persist
