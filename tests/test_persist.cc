/**
 * @file
 * Tests for snapshot persistence (src/persist): round-trip fidelity
 * (catalog stats, dictionary ids, documents, layout), query-result
 * equality across a save/load cycle, and graceful rejection of
 * corrupt or truncated images.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>

#include "dvp/partitioner.hh"
#include "net/wire.hh"
#include "engine/database.hh"
#include "engine/executor.hh"
#include "nobench/generator.hh"
#include "nobench/queries.hh"
#include "nobench/workload.hh"
#include "persist/snapshot.hh"

namespace dvp::persist
{
namespace
{

struct PersistWorld
{
    nobench::Config cfg;
    engine::DataSet data;
    layout::Layout layout;

    PersistWorld()
    {
        cfg.numDocs = 400;
        cfg.seed = 777;
        data = nobench::generateDataSet(cfg);
        nobench::QuerySet qs(data, cfg);
        Rng rng(1);
        core::Partitioner p(
            data, nobench::representatives(qs, nobench::Mix::uniform(),
                                           rng));
        layout = p.run().layout;
    }
};

PersistWorld &
world()
{
    static PersistWorld w;
    return w;
}

TEST(Snapshot, RoundTripPreservesEverything)
{
    PersistWorld &w = world();
    std::string bytes = serialize(w.data, &w.layout);
    LoadResult r = deserialize(bytes);
    ASSERT_TRUE(r.ok) << r.error;

    // Catalog: names, ids, stats, doc count.
    ASSERT_EQ(r.data.catalog.attrCount(), w.data.catalog.attrCount());
    EXPECT_EQ(r.data.catalog.docCount(), w.data.catalog.docCount());
    for (storage::AttrId a = 0; a < w.data.catalog.attrCount(); ++a) {
        EXPECT_EQ(r.data.catalog.name(a), w.data.catalog.name(a));
        EXPECT_EQ(r.data.catalog.info(a).type,
                  w.data.catalog.info(a).type);
        EXPECT_DOUBLE_EQ(r.data.catalog.sparseness(a),
                         w.data.catalog.sparseness(a));
    }

    // Dictionary: ids stable.
    ASSERT_EQ(r.data.dict.size(), w.data.dict.size());
    for (storage::StringId id = 0; id < w.data.dict.size(); ++id)
        EXPECT_EQ(r.data.dict.text(id), w.data.dict.text(id));

    // Documents bit-identical.
    ASSERT_EQ(r.data.docs.size(), w.data.docs.size());
    for (size_t d = 0; d < w.data.docs.size(); ++d) {
        EXPECT_EQ(r.data.docs[d].oid, w.data.docs[d].oid);
        EXPECT_EQ(r.data.docs[d].attrs, w.data.docs[d].attrs);
    }

    // Layout preserved.
    ASSERT_TRUE(r.layout.has_value());
    EXPECT_TRUE(r.layout->equivalentTo(w.layout));
}

TEST(Snapshot, QueriesEqualAcrossReload)
{
    PersistWorld &w = world();
    LoadResult r = deserialize(serialize(w.data, &w.layout));
    ASSERT_TRUE(r.ok) << r.error;

    engine::Database before(w.data, w.layout, "before");
    engine::Database after(r.data, *r.layout, "after");
    engine::Executor exec_before(before);
    engine::Executor exec_after(after);

    nobench::QuerySet qs(w.data, w.cfg);
    Rng rng(2);
    for (int t = 0; t < nobench::kNumTemplates; ++t) {
        engine::Query q = qs.instantiate(t, rng);
        engine::ResultSet a = exec_before.run(q);
        engine::ResultSet b = exec_after.run(q);
        EXPECT_TRUE(a.equals(b)) << q.name;
        EXPECT_EQ(a.checksum, b.checksum) << q.name;
    }
}

TEST(Snapshot, LayoutIsOptional)
{
    PersistWorld &w = world();
    LoadResult r = deserialize(serialize(w.data));
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_FALSE(r.layout.has_value());
    EXPECT_EQ(r.data.docs.size(), w.data.docs.size());
}

TEST(Snapshot, FileRoundTrip)
{
    PersistWorld &w = world();
    std::string path = ::testing::TempDir() + "dvp_snapshot_test.bin";
    ASSERT_EQ(save(path, w.data, &w.layout), "");
    LoadResult r = load(path);
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_EQ(r.data.docs.size(), w.data.docs.size());
    ASSERT_TRUE(r.layout.has_value());
    EXPECT_TRUE(r.layout->equivalentTo(w.layout));
    std::remove(path.c_str());
}

TEST(Snapshot, LoadMissingFileFailsCleanly)
{
    LoadResult r = load("/nonexistent/path/snapshot.bin");
    EXPECT_FALSE(r.ok);
    EXPECT_NE(r.error.find("cannot open"), std::string::npos);
}

TEST(Snapshot, RejectsBadMagic)
{
    LoadResult r = deserialize("NOTASNAPxxxxxxxxxxxxxxxx");
    EXPECT_FALSE(r.ok);
    EXPECT_NE(r.error.find("magic"), std::string::npos);
}

TEST(Snapshot, NewerRevIsNamedNotCorrupt)
{
    // A snapshot from a newer binary names its rev; a corrupt magic
    // still reads as corruption.
    PersistWorld &w = world();
    std::string bytes = serialize(w.data, &w.layout);
    std::string newer = bytes;
    newer[7] = '3';
    LoadResult r = deserialize(newer);
    EXPECT_FALSE(r.ok);
    EXPECT_EQ(r.error, "snapshot format v3, this binary reads ≤ v2");

    std::string foreign = bytes;
    foreign[0] = 'X';
    r = deserialize(foreign);
    EXPECT_FALSE(r.ok);
    EXPECT_EQ(r.error.find("format v"), std::string::npos) << r.error;
}

TEST(Snapshot, RejectsEveryTruncation)
{
    // Property: truncating a valid image at any section boundary (and
    // a spread of interior points) must fail cleanly, never crash.
    PersistWorld &w = world();
    std::string bytes = serialize(w.data, &w.layout);
    for (size_t len = 0; len < bytes.size();
         len += std::max<size_t>(1, bytes.size() / 97)) {
        LoadResult r = deserialize(bytes.substr(0, len));
        EXPECT_FALSE(r.ok) << "accepted truncation at " << len;
        EXPECT_FALSE(r.error.empty());
    }
}

TEST(Snapshot, RejectsTrailingGarbage)
{
    // Rev-2 images carry a trailing CRC, so appended garbage is an
    // integrity failure before the decoder ever sees the body.
    PersistWorld &w = world();
    std::string bytes = serialize(w.data);
    bytes += "garbage";
    LoadResult r = deserialize(bytes);
    EXPECT_FALSE(r.ok);
    EXPECT_NE(r.error.find("CRC"), std::string::npos);
}

TEST(Snapshot, RejectsCorruptAttributeReference)
{
    // Flip a document's attribute id beyond the catalog: the loader
    // must refuse rather than produce a data set that panics later.
    engine::DataSet small;
    small.catalog.ensure("a");
    std::vector<json::FlatAttr> flat{{"a", json::JsonValue(1)}};
    small.addFlat(flat);
    std::string bytes = serialize(small);

    // The sole document slot's attr id is a u32 at a fixed offset from
    // the end: ... u64 ndocs | i64 oid | u32 nslots | u32 attr | i64
    // slot | u32 layout-flag | u32 crc.  Corrupt the attr field and
    // re-stamp the trailing CRC so the structural validator (not the
    // integrity check) is what rejects the image.
    size_t attr_off =
        bytes.size() - 4 /*crc*/ - 4 /*flag*/ - 8 /*slot*/ - 4;
    bytes[attr_off] = 0x7f;
    uint32_t crc = net::crc32(bytes.data(), bytes.size() - 4);
    std::memcpy(bytes.data() + bytes.size() - 4, &crc, 4);
    LoadResult r = deserialize(bytes);
    EXPECT_FALSE(r.ok);
    EXPECT_NE(r.error.find("unknown attribute"), std::string::npos);
}

TEST(Snapshot, EmptyDataSetRoundTrips)
{
    engine::DataSet empty;
    LoadResult r = deserialize(serialize(empty));
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_EQ(r.data.docs.size(), 0u);
    EXPECT_EQ(r.data.catalog.attrCount(), 0u);
}

} // namespace
} // namespace dvp::persist
