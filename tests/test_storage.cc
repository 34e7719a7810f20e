/**
 * @file
 * Unit tests for src/storage: slot encoding, dictionary, catalog,
 * encoder, padding model, Table behaviour (sparse omission, oid index).
 */

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "json/parser.hh"
#include "storage/catalog.hh"
#include "storage/dictionary.hh"
#include "storage/encoder.hh"
#include "storage/padding.hh"
#include "storage/table.hh"
#include "storage/value.hh"
#include "util/random.hh"

namespace dvp::storage
{
namespace
{

TEST(Value, EncodingPredicates)
{
    EXPECT_TRUE(isNull(kNullSlot));
    EXPECT_FALSE(isNull(0));
    Slot s = encodeString(42);
    EXPECT_TRUE(isStringSlot(s));
    EXPECT_FALSE(isNumericSlot(s));
    EXPECT_EQ(decodeString(s), 42u);
    EXPECT_TRUE(isNumericSlot(encodeInt(-5)));
    EXPECT_TRUE(isNumericSlot(encodeBool(true)));
    EXPECT_FALSE(isStringSlot(encodeInt(7)));
    EXPECT_FALSE(isStringSlot(kNullSlot));
    EXPECT_FALSE(isNumericSlot(kNullSlot));
}

TEST(Value, NegativeIntsAreNotStrings)
{
    // Negative numbers have the sign bit set; bit 62 alone must not
    // classify them as strings.
    EXPECT_TRUE(isNumericSlot(encodeInt(-1)));
    EXPECT_FALSE(isStringSlot(encodeInt(-1)));
}

TEST(Dictionary, InternIsIdempotent)
{
    Dictionary d;
    StringId a = d.intern("hello");
    StringId b = d.intern("world");
    EXPECT_NE(a, b);
    EXPECT_EQ(d.intern("hello"), a);
    EXPECT_EQ(d.size(), 2u);
    EXPECT_EQ(d.text(a), "hello");
    EXPECT_EQ(d.text(b), "world");
}

TEST(Dictionary, LookupDoesNotIntern)
{
    Dictionary d;
    EXPECT_EQ(d.lookup("nope"), Dictionary::kMissing);
    EXPECT_EQ(d.size(), 0u);
    StringId id = d.intern("yes");
    EXPECT_EQ(d.lookup("yes"), id);
}

TEST(Dictionary, SurvivesGrowth)
{
    Dictionary d;
    std::vector<StringId> ids;
    for (int i = 0; i < 5000; ++i)
        ids.push_back(d.intern("key_" + std::to_string(i)));
    EXPECT_EQ(d.size(), 5000u);
    for (int i = 0; i < 5000; ++i) {
        EXPECT_EQ(d.lookup("key_" + std::to_string(i)), ids[i]);
        EXPECT_EQ(d.text(ids[i]), "key_" + std::to_string(i));
    }
}

TEST(Dictionary, EmptyStringIsValid)
{
    Dictionary d;
    StringId id = d.intern("");
    EXPECT_EQ(d.lookup(""), id);
    EXPECT_EQ(d.text(id), "");
}

TEST(Dictionary, MemoryAccounting)
{
    Dictionary d;
    size_t before = d.memoryBytes();
    d.intern(std::string(1000, 'x'));
    EXPECT_GT(d.memoryBytes(), before + 999);
}

TEST(Catalog, EnsureAndFind)
{
    Catalog c;
    AttrId a = c.ensure("num");
    AttrId b = c.ensure("str1");
    EXPECT_NE(a, b);
    EXPECT_EQ(c.ensure("num"), a);
    EXPECT_EQ(c.find("num"), a);
    EXPECT_EQ(c.find("ghost"), kNoAttr);
    EXPECT_EQ(c.attrCount(), 2u);
    EXPECT_EQ(c.name(a), "num");
}

TEST(Catalog, SparsenessRatios)
{
    Catalog c;
    AttrId common = c.ensure("common");
    AttrId rare = c.ensure("rare");
    for (int i = 0; i < 100; ++i) {
        std::vector<AttrId> present{common};
        std::vector<AttrType> types{AttrType::Integer};
        if (i < 5) {
            present.push_back(rare);
            types.push_back(AttrType::String);
        }
        c.noteDocument(present, types);
    }
    EXPECT_DOUBLE_EQ(c.sparseness(common), 1.0);
    EXPECT_DOUBLE_EQ(c.sparseness(rare), 0.05);
    EXPECT_EQ(c.docCount(), 100u);
}

TEST(Catalog, EmptyDataSetSparsenessIsNeutral)
{
    Catalog c;
    AttrId a = c.ensure("a");
    EXPECT_DOUBLE_EQ(c.sparseness(a), 1.0);
}

TEST(Catalog, TypeTracking)
{
    Catalog c;
    AttrId dyn = c.ensure("dyn");
    c.noteDocument({dyn}, {AttrType::Integer});
    EXPECT_EQ(c.info(dyn).type, AttrType::Integer);
    c.noteDocument({dyn}, {AttrType::String});
    EXPECT_EQ(c.info(dyn).type, AttrType::Mixed);
}

TEST(Encoder, EncodesScalarsAndInterns)
{
    Catalog cat;
    Dictionary dict;
    Encoder enc(cat, dict);
    auto parsed = json::parse(R"({"s":"abc","n":7,"b":true})");
    ASSERT_TRUE(parsed.ok);
    Document doc = enc.encode(json::flatten(parsed.value));
    EXPECT_EQ(doc.oid, 0);
    ASSERT_EQ(doc.attrs.size(), 3u);
    EXPECT_EQ(doc.slotOf(cat.find("n")), 7);
    EXPECT_EQ(doc.slotOf(cat.find("b")), 1);
    Slot s = doc.slotOf(cat.find("s"));
    ASSERT_TRUE(isStringSlot(s));
    EXPECT_EQ(dict.text(decodeString(s)), "abc");
}

TEST(Encoder, SkipsJsonNulls)
{
    Catalog cat;
    Dictionary dict;
    Encoder enc(cat, dict);
    auto parsed = json::parse(R"({"a":null,"b":2})");
    ASSERT_TRUE(parsed.ok);
    Document doc = enc.encode(json::flatten(parsed.value));
    EXPECT_EQ(doc.attrs.size(), 1u);
    EXPECT_TRUE(isNull(doc.slotOf(cat.find("a"))));
}

TEST(Encoder, AssignsSequentialOids)
{
    Catalog cat;
    Dictionary dict;
    Encoder enc(cat, dict);
    auto parsed = json::parse(R"({"x":1})");
    ASSERT_TRUE(parsed.ok);
    EXPECT_EQ(enc.encode(json::flatten(parsed.value)).oid, 0);
    EXPECT_EQ(enc.encode(json::flatten(parsed.value)).oid, 1);
    EXPECT_EQ(enc.nextOid(), 2);
}

TEST(Encoder, SlotOfMissingAttrIsNull)
{
    Document d;
    d.attrs = {{3, 30}, {7, 70}};
    EXPECT_EQ(d.slotOf(3), 30);
    EXPECT_EQ(d.slotOf(7), 70);
    EXPECT_TRUE(isNull(d.slotOf(5)));
    EXPECT_TRUE(isNull(d.slotOf(100)));
}

TEST(Padding, Equation10)
{
    EXPECT_EQ(paddingSize(64), 0u);
    EXPECT_EQ(paddingSize(128), 0u);
    EXPECT_EQ(paddingSize(72), 56u); // CLS - 72 % 64
    EXPECT_EQ(paddingSize(8), 56u);
    EXPECT_EQ(paddingSize(100), 28u);
}

TEST(Padding, ProjectionModelAlignedStride)
{
    // 64-byte records, attribute at offset 0: exactly one line per rec.
    EXPECT_DOUBLE_EQ(projectionMissesPerRecord(64, 0, 8), 1.0);
    // 128-byte records: still one distinct line per record.
    EXPECT_DOUBLE_EQ(projectionMissesPerRecord(128, 0, 8), 1.0);
    // 8-byte slots on 8-byte-multiple strides never straddle, so the
    // column-scan misses equal distinct-lines / records exactly.
    EXPECT_DOUBLE_EQ(projectionMissesPerRecord(72, 0, 8), 1.0);
}

TEST(Padding, RecordSpanModel)
{
    // 64-byte aligned records span exactly one line.
    EXPECT_DOUBLE_EQ(avgRecordSpanLines(64, 64), 1.0);
    // 24-byte records: over the 192-byte period, records at offsets
    // 48 and 56 (mod 64) straddle a boundary -> 10 lines / 8 records.
    EXPECT_DOUBLE_EQ(avgRecordSpanLines(24, 24), 10.0 / 8.0);
    // 72-byte records always span exactly two lines (72 <= 128 and the
    // worst alignment 56+72 = 128 just fits).
    EXPECT_DOUBLE_EQ(avgRecordSpanLines(72, 72), 2.0);
    // Padding removes the straddle: 24-byte payload at 64-byte stride.
    EXPECT_DOUBLE_EQ(avgRecordSpanLines(64, 24), 1.0);
}

TEST(Padding, ChooseStridePadsWhenStraddlesVanish)
{
    // Sub-line payloads stay dense (several records per line).
    EXPECT_EQ(chooseStride(24), 24u);
    // 72-byte payload: 2.0 lines either way; stay unpadded (memory).
    EXPECT_EQ(chooseStride(72), 72u);
    // 88-byte payload: padding to 128 drops the expected record span
    // from 2.125 lines to 2.0.
    EXPECT_EQ(chooseStride(88), 128u);
}

TEST(Padding, SmallStrideSharesLines)
{
    // 8-byte records: 8 records share one line.
    EXPECT_DOUBLE_EQ(projectionMissesPerRecord(8, 0, 8), 1.0 / 8.0);
    // 16-byte records: 4 records share one line.
    EXPECT_DOUBLE_EQ(projectionMissesPerRecord(16, 0, 8), 1.0 / 4.0);
}

TEST(Padding, ChooseStrideNeverShrinks)
{
    for (size_t payload = 8; payload <= 1024; payload += 8) {
        size_t stride = chooseStride(payload);
        EXPECT_GE(stride, payload);
        EXPECT_TRUE(stride == payload ||
                    stride == payload + paddingSize(payload));
    }
}

TEST(Padding, AlignedPayloadsStayUnpadded)
{
    EXPECT_EQ(chooseStride(64), 64u);
    EXPECT_EQ(chooseStride(128), 128u);
    EXPECT_EQ(chooseStride(320), 320u);
}

class TableTest : public ::testing::Test
{
  protected:
    Arena arena;
};

TEST_F(TableTest, AppendAndRead)
{
    Table t("t", {0, 1, 2}, arena);
    Slot r0[] = {10, 11, 12};
    Slot r1[] = {20, kNullSlot, 22};
    EXPECT_TRUE(t.append(0, r0));
    EXPECT_TRUE(t.append(5, r1));
    ASSERT_EQ(t.rows(), 2u);
    EXPECT_EQ(t.oid(0), 0);
    EXPECT_EQ(t.oid(1), 5);
    EXPECT_EQ(t.cell(0, 2), 12);
    EXPECT_TRUE(isNull(t.cell(1, 1)));
    EXPECT_EQ(t.nullCells(), 1u);
}

TEST_F(TableTest, SparseOmission)
{
    Table t("t", {7}, arena);
    Slot null_only[] = {kNullSlot};
    Slot real[] = {42};
    EXPECT_FALSE(t.append(0, null_only));
    EXPECT_TRUE(t.append(1, real));
    EXPECT_FALSE(t.append(2, null_only));
    ASSERT_EQ(t.rows(), 1u);
    EXPECT_EQ(t.oid(0), 1);
    EXPECT_EQ(t.nullCells(), 0u);
}

TEST_F(TableTest, RowOfBinarySearch)
{
    Table t("t", {0}, arena);
    for (int64_t oid = 0; oid < 1000; oid += 3) {
        Slot v[] = {oid * 10};
        t.append(oid, v);
    }
    EXPECT_EQ(t.rowOf(0), 0);
    EXPECT_EQ(t.rowOf(3), 1);
    EXPECT_EQ(t.rowOf(999), 333);
    EXPECT_EQ(t.rowOf(1), kNoRow);
    EXPECT_EQ(t.rowOf(-5), kNoRow);
    EXPECT_EQ(t.rowOf(10000), kNoRow);
}

TEST_F(TableTest, LowerBoundSemantics)
{
    Table t("t", {0}, arena);
    for (int64_t oid : {2, 4, 8}) {
        Slot v[] = {1};
        t.append(oid, v);
    }
    EXPECT_EQ(t.lowerBound(0), 0u);
    EXPECT_EQ(t.lowerBound(2), 0u);
    EXPECT_EQ(t.lowerBound(3), 1u);
    EXPECT_EQ(t.lowerBound(8), 2u);
    EXPECT_EQ(t.lowerBound(9), 3u);
}

TEST_F(TableTest, GrowthPreservesData)
{
    Table t("t", {0, 1}, arena);
    for (int64_t oid = 0; oid < 10000; ++oid) {
        Slot v[] = {oid, oid * 2};
        t.append(oid, v);
    }
    ASSERT_EQ(t.rows(), 10000u);
    Rng rng(3);
    for (int i = 0; i < 200; ++i) {
        auto oid = static_cast<int64_t>(rng.below(10000));
        RowIdx row = t.rowOf(oid);
        ASSERT_NE(row, kNoRow);
        EXPECT_EQ(t.cell(static_cast<size_t>(row), 1), oid * 2);
    }
}

TEST_F(TableTest, ColumnOf)
{
    Table t("t", {5, 9, 2}, arena);
    EXPECT_EQ(t.columnOf(5), 0);
    EXPECT_EQ(t.columnOf(9), 1);
    EXPECT_EQ(t.columnOf(2), 2);
    EXPECT_EQ(t.columnOf(7), -1);
    EXPECT_EQ(t.columnOf(1000), -1);
}

TEST_F(TableTest, RegrowthPreservesCacheCollisionShift)
{
    // The arena staggers each table's base by one extra cache line so
    // co-scanned tables do not collide on cache sets.  Regrowth must
    // keep a table's original shift: before the fix, every capacity
    // doubling consumed a fresh rotation slot, silently migrating the
    // table onto another table's cache sets and skewing the rotation
    // for tables created later.
    constexpr size_t kTables = 16;
    std::vector<std::unique_ptr<Table>> tables;
    std::vector<size_t> born_offset;
    for (size_t i = 0; i < kTables; ++i) {
        tables.push_back(std::make_unique<Table>(
            "t" + std::to_string(i), std::vector<AttrId>{0}, arena));
        Slot v[] = {1};
        tables[i]->append(0, v);
        auto addr = reinterpret_cast<uintptr_t>(tables[i]->record(0));
        born_offset.push_back(addr % kPageSize);
    }

    // Many appends -> several regrowths per table (initial capacity is
    // 1024 rows), interleaved across tables like a real bulk build.
    for (int64_t oid = 1; oid < 20000; ++oid) {
        Slot v[] = {oid};
        for (auto &t : tables)
            t->append(oid, v);
    }

    std::set<size_t> offsets;
    for (size_t i = 0; i < kTables; ++i) {
        auto addr = reinterpret_cast<uintptr_t>(tables[i]->record(0));
        EXPECT_EQ(addr % kPageSize, born_offset[i]) << "table " << i;
        offsets.insert(addr % kPageSize);
    }
    // All 16 tables keep pairwise-distinct page offsets.
    EXPECT_EQ(offsets.size(), kTables);
}

TEST_F(TableTest, StrictlyIncreasingOidsEnforced)
{
    Table t("t", {0}, arena);
    Slot v[] = {1};
    t.append(5, v);
    EXPECT_DEATH(t.append(5, v), "strictly increasing");
    EXPECT_DEATH(t.append(3, v), "strictly increasing");
}

TEST_F(TableTest, PaddingDecisionApplied)
{
    // 8 attributes -> 72-byte payload with oid; check the decision is
    // consistent with the analytic model either way.
    Table t("p", {0, 1, 2, 3, 4, 5, 6, 7}, arena);
    EXPECT_EQ(t.strideBytes(), chooseStride(72));
    EXPECT_EQ(t.padded(), chooseStride(72) != 72u);
}

TEST_F(TableTest, PaddingSlotsAreZeroed)
{
    Table t("p", {0, 1, 2, 3, 4, 5, 6, 7}, arena);
    Slot v[] = {1, 2, 3, 4, 5, 6, 7, 8};
    t.append(0, v);
    const Slot *rec = t.record(0);
    for (size_t s = 9; s < t.strideSlots(); ++s)
        EXPECT_EQ(rec[s], 0);
}

TEST_F(TableTest, StorageBytesMatchesStride)
{
    // 24-byte payload: the padding decision keeps it unpadded.
    Table t("t", {0, 1}, arena);
    Slot v[] = {1, 2};
    t.append(0, v);
    t.append(1, v);
    EXPECT_EQ(t.storageBytes(), 2 * 24u);
}

} // namespace
} // namespace dvp::storage
