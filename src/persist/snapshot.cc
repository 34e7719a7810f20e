#include "persist/snapshot.hh"

#include "util/codec.hh"
#include "util/durable_file.hh"

namespace dvp::persist
{

namespace
{

/** Rev 2, the rev written; rev 1 ("DVPSNAP1") is read without it. */
constexpr Envelope kEnvelope{"snapshot",
                             "DVPSNAP",
                             2,
                             "not a DVP snapshot (bad magic)",
                             "truncated snapshot",
                             "snapshot CRC mismatch"};

} // namespace

std::string
serialize(const engine::DataSet &data, const layout::Layout *layout,
          const SnapshotMeta *meta)
{
    Writer w;
    kEnvelope.begin(w);
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
    w.u32(layout ? 1 : 0);
    if (layout)
        layout::encodeLayout(w, *layout);

    // Trailing integrity CRC over everything above.
    Envelope::seal(w);
    return w.take();
}

LoadResult
deserialize(const std::string &bytes)
{
    LoadResult out;
    const bool rev2 = formatVersion(bytes, "DVPSNAP") != 1;
    Reader r(nullptr, 0);
    if (rev2) {
        // Verify the trailing CRC before trusting any field.
        out.error = kEnvelope.open(bytes, r);
        if (!out.error.empty())
            return out;
    } else {
        r = Reader(bytes.data() + 8, bytes.size() - 8);
    }
    auto fail = [&](const std::string &msg) {
        out.ok = false;
        out.error = r.ok() ? msg
                           : "truncated snapshot at offset " +
                                 std::to_string(8 + r.offset());
        // Move the captured result out: a copy would duplicate the
        // whole data set.
        return std::move(out);
    };

    uint32_t flags = r.u32();
    if (!r.ok())
        return fail("truncated header");
    if (flags != 0)
        return fail("unsupported snapshot flags");

    if (rev2) {
        SnapshotMeta meta;
        meta.epoch = r.u64();
        meta.baseDocs = r.u64();
        meta.walLsn = r.u64();
        if (!r.ok())
            return fail("truncated meta block");
        out.meta = meta;
    }

    // Catalog.
    uint32_t nattrs = r.u32();
    for (uint32_t i = 0; i < nattrs && r.ok(); ++i) {
        std::string name = r.str();
        uint8_t type = r.u8();
        uint64_t non_null = r.u64();
        if (!r.ok())
            break;
        if (type > static_cast<uint8_t>(storage::AttrType::Mixed))
            return fail("corrupt attribute type");
        storage::AttrId id = out.data.catalog.ensure(name);
        if (id != i)
            return fail("duplicate attribute name in catalog");
        out.data.catalog.restoreStats(
            id, static_cast<storage::AttrType>(type), non_null);
    }
    uint64_t doc_count = r.u64();
    if (!r.ok())
        return fail("truncated catalog");
    out.data.catalog.restoreDocCount(doc_count);

    // Dictionary.
    uint32_t nstrings = r.u32();
    for (uint32_t i = 0; i < nstrings && r.ok(); ++i) {
        std::string s = r.str();
        if (r.ok() && out.data.dict.intern(s) != i)
            return fail("duplicate dictionary entry");
    }

    // Documents.  A document takes at least 12 bytes (oid and slot
    // count) and a slot exactly 12, so no count sizes anything before
    // the bytes left can hold it.
    uint64_t ndocs = r.u64();
    if (!r.ok() || ndocs > r.remaining() / 12)
        return fail("truncated document section");
    out.data.docs.reserve(ndocs);
    int64_t prev_oid = INT64_MIN;
    for (uint64_t d = 0; d < ndocs; ++d) {
        storage::Document doc;
        doc.oid = r.i64();
        uint32_t nslots = r.u32();
        if (!r.ok() || nslots > r.remaining() / 12)
            return fail("truncated document");
        if (doc.oid <= prev_oid)
            return fail("documents out of oid order");
        prev_oid = doc.oid;
        doc.attrs.reserve(nslots);
        uint32_t prev_attr = 0;
        for (uint32_t k = 0; k < nslots; ++k) {
            uint32_t attr = r.u32();
            int64_t slot = r.i64();
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

    // Optional layout.  No full-coverage requirement: images written
    // before ingest grew the layout in place carry a layout covering a
    // strict subset of the catalog (only docs beyond baseDocs
    // reference the rest, and restore appends those the way ingest
    // does, covering the catalog first).
    uint32_t has_layout = r.u32();
    if (!r.ok())
        return fail("truncated layout flag");
    if (has_layout == 1) {
        layout::Layout l;
        std::string err = layout::decodeLayout(r, nattrs, l);
        if (!err.empty())
            return fail(err);
        out.layout = std::move(l);
    } else if (has_layout != 0) {
        return fail("corrupt layout flag");
    }

    if (!r.exhausted())
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
    std::string bytes;
    std::string err = readWholeFile(path, bytes);
    if (!err.empty()) {
        LoadResult r;
        r.error = "cannot open snapshot: " + err;
        return r;
    }
    return deserialize(bytes);
}

} // namespace dvp::persist
