/**
 * @file
 * Tape-parser and parallel-load tests (DESIGN.md §17).
 *
 * Contracts:
 *  1. Differential identity — TapeParser::flatten agrees with DOM
 *     parse()+flatten() on verdict AND FlatAttr list for handcrafted
 *     edge cases (numbers, escapes, surrogates, NaN-adjacent text) and
 *     for a randomized fuzz corpus (valid generated documents plus
 *     mutations), under both index forms.
 *  2. Index equivalence — the AVX2 structural index is
 *     position-for-position identical to the scalar one.
 *  3. Explicit-stack depth — 100k-deep inputs error cleanly at the
 *     default cap in both parsers, the DOM parser clamps huge caller
 *     caps instead of overflowing the C stack, and the tape walker
 *     genuinely flattens 100k-deep input when its cap is raised.
 *  4. Duplicate keys — detected and answered through the DOM fallback
 *     with output identical to DOM flatten.
 *  5. Loader — parseLines-compatible error/line semantics, and
 *     parallel tape LOAD bit-identical to serial DOM LOAD: same
 *     documents, same query digests across row/column/DVP layouts.
 *
 * The whole binary runs twice in ctest (plain and DVP_FORCE_SCALAR=1),
 * so the Auto dispatch path is exercised in both outcomes.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "engine/database.hh"
#include "engine/executor.hh"
#include "engine/load.hh"
#include "engine/query.hh"
#include "json/flatten.hh"
#include "json/parser.hh"
#include "json/tape.hh"
#include "json/writer.hh"
#include "layout/layout.hh"
#include "nobench/generator.hh"
#include "nobench/queries.hh"
#include "obs/metrics.hh"
#include "util/random.hh"

namespace dvp
{
namespace
{

using engine::Database;
using engine::DataSet;
using engine::Executor;
using engine::LoadOptions;
using engine::LoadParser;
using engine::LoadStats;
using engine::Query;
using engine::ResultSet;
using json::FlatAttr;
using json::JsonValue;
using json::TapeForm;
using json::TapeParser;
using layout::Layout;

/** DOM oracle: verdict + flat list, matching the tape contract. */
struct OracleResult
{
    bool ok = false;
    std::vector<FlatAttr> flat;
};

OracleResult
domOracle(std::string_view doc, int max_depth = json::kTapeDefaultMaxDepth)
{
    OracleResult r;
    json::ParseResult res = json::parse(doc, max_depth);
    if (!res.ok || !res.value.isObject())
        return r;
    r.ok = true;
    r.flat = json::flatten(res.value);
    return r;
}

/** Assert one form of the tape parser matches the oracle on @p doc. */
void
expectMatchesOracle(TapeParser &tape, const std::string &doc)
{
    OracleResult ref = domOracle(doc);
    std::vector<FlatAttr> got;
    bool ok = tape.flatten(doc, got);
    ASSERT_EQ(ok, ref.ok) << "verdict mismatch on: " << doc
                          << (ok ? "" : " tape error: " + tape.error());
    if (!ok)
        return;
    ASSERT_EQ(got.size(), ref.flat.size()) << "attr count on: " << doc;
    for (size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].path, ref.flat[i].path) << "path " << i
                                                 << " on: " << doc;
        EXPECT_TRUE(got[i].value == ref.flat[i].value)
            << "value at " << got[i].path << " on: " << doc;
    }
}

/** Run the oracle comparison under every available index form. */
void
expectDifferential(const std::string &doc)
{
    TapeParser scalar;
    scalar.setForm(TapeForm::Scalar);
    expectMatchesOracle(scalar, doc);
    if (json::tapeSimdAvailable()) {
        TapeParser simd;
        simd.setForm(TapeForm::Simd);
        expectMatchesOracle(simd, doc);
    }
    TapeParser aut; // whatever dispatch (incl. DVP_FORCE_SCALAR) picked
    expectMatchesOracle(aut, doc);
}

// ---------------------------------------------------------------------
// 1. Differential identity: handcrafted cases
// ---------------------------------------------------------------------

TEST(TapeDifferential, BasicDocuments)
{
    expectDifferential(R"({})");
    expectDifferential(R"({"a":1})");
    expectDifferential(R"( { "a" : 1 , "b" : "x" } )");
    expectDifferential(R"({"a":{"b":{"c":true}},"d":[1,2,3]})");
    expectDifferential(R"({"a":[],"b":{},"c":null})");
    expectDifferential(R"({"arr":[[1,2],[3,[4,5]],{"k":"v"}]})");
    expectDifferential(R"({"a": [ ] , "b" : [ { } , [ ] ] })");
    expectDifferential("{\"a\":\t\n 1\r}");
    expectDifferential(R"({"":1})");            // empty key
    expectDifferential(R"({"":{"":2}})");
    expectDifferential(R"({"a.b":1,"a":{"b":2}})"); // ambiguous paths
}

TEST(TapeDifferential, NumberEdgeCases)
{
    expectDifferential(R"({"n":0})");
    expectDifferential(R"({"n":-0})");
    expectDifferential(R"({"n":007})");         // leading zeros accepted
    expectDifferential(R"({"n":-9223372036854775808})"); // INT64_MIN
    expectDifferential(R"({"n":9223372036854775807})");  // INT64_MAX
    expectDifferential(R"({"n":9223372036854775808})");  // overflow->double
    expectDifferential(R"({"n":123456789012345678901234567890})");
    expectDifferential(R"({"n":0.5})");
    expectDifferential(R"({"n":-0.0})");
    expectDifferential(R"({"n":1e3})");
    expectDifferential(R"({"n":1E+3})");
    expectDifferential(R"({"n":1.25e-2})");
    expectDifferential(R"({"n":1e999})");       // inf -> rejected
    expectDifferential(R"({"n":-1e999})");
    expectDifferential(R"({"n":1e-999})");      // underflow -> 0.0
    expectDifferential(R"({"n":1.})");          // rejected
    expectDifferential(R"({"n":.5})");          // rejected
    expectDifferential(R"({"n":1e})");          // rejected
    expectDifferential(R"({"n":1e+})");         // rejected
    expectDifferential(R"({"n":--1})");         // rejected
    expectDifferential(R"({"n":+1})");          // rejected
    expectDifferential(R"({"n":-})");           // rejected
    expectDifferential(R"({"n":1 2})");         // junk after number
    expectDifferential(R"({"n":0x10})");        // rejected
    expectDifferential(R"({"n":18446744073709551615})"); // > INT64, double
}

TEST(TapeDifferential, NaNAdjacentInputs)
{
    expectDifferential(R"({"n":NaN})");
    expectDifferential(R"({"n":nan})");
    expectDifferential(R"({"n":Infinity})");
    expectDifferential(R"({"n":-Infinity})");
    expectDifferential(R"({"n":inf})");
    expectDifferential(R"({"n":nul})");
    expectDifferential(R"({"n":nullx})");
    expectDifferential(R"({"n":truefalse})");
    expectDifferential(R"({"n":TRUE})");
}

TEST(TapeDifferential, StringsEscapesAndSurrogates)
{
    expectDifferential(R"({"s":""})");
    expectDifferential(R"({"s":"plain"})");
    expectDifferential(R"({"s":"a\"b"})");
    expectDifferential(R"({"s":"a\\"})");
    expectDifferential(R"({"s":"\\\""})");
    expectDifferential(R"({"s":"\/\b\f\n\r\t"})");
    expectDifferential(R"({"s":"Aé中"})");
    expectDifferential(R"({"s":"𝄞"})");     // surrogate pair
    expectDifferential(R"({"s":"𝄞!"})");
    expectDifferential(R"({"s":"\ud834"})");           // unpaired high
    expectDifferential(R"({"s":"\ud834A"})");     // bad low
    expectDifferential(R"({"s":"\udd1e"})");           // lone low
    expectDifferential(R"({"s":"\ud834\ud834"})");     // high + high
    expectDifferential(R"({"s":"\u12"})");             // short hex
    expectDifferential(R"({"s":"\uzzzz"})");           // bad hex
    expectDifferential(R"({"s":"\x41"})");             // bad escape
    expectDifferential("{\"s\":\"a\x01b\"}");          // raw control char
    expectDifferential("{\"s\":\"tab\tchar\"}");       // raw tab in string
    expectDifferential("{\"\\u0061\":1}");             // escaped key
    expectDifferential(R"({"k\"ey":1})");
    expectDifferential("{\"s\":\"caf\xc3\xa9\"}");     // raw UTF-8 passes
    // Escaped quotes and backslashes stressing the structural index
    // around 64-byte block boundaries.
    std::string long_esc = R"({"s":")";
    for (int i = 0; i < 40; ++i)
        long_esc += R"(\\\")";
    long_esc += R"(","t":1})";
    expectDifferential(long_esc);
}

TEST(TapeDifferential, StructuralErrors)
{
    expectDifferential("");
    expectDifferential("   ");
    expectDifferential(R"({)");
    expectDifferential(R"(})");
    expectDifferential(R"({"a":1)");
    expectDifferential(R"({"a":1}})");
    expectDifferential(R"({"a":1} )");
    expectDifferential(R"({"a":1}{"b":2})");
    expectDifferential(R"({"a" 1})");
    expectDifferential(R"({"a"::1})");
    expectDifferential(R"({"a":1,})");
    expectDifferential(R"({,"a":1})");
    expectDifferential(R"({"a":[1,]})");
    expectDifferential(R"({"a":[,1]})");
    expectDifferential(R"({"a":[1 2]})");
    expectDifferential(R"({"a":[1,2)})");
    expectDifferential(R"({"a":{"b":1])");
    expectDifferential(R"({"a")");
    expectDifferential(R"({"a":})");
    expectDifferential(R"({"a":"unterminated)");
    expectDifferential(R"({x:1})");
    expectDifferential(R"({"a":1 "b":2})");
    expectDifferential(R"({"a":1,,"b":2})");
    // Non-object roots: rejected by the ingest contract.
    expectDifferential(R"(1)");
    expectDifferential(R"("str")");
    expectDifferential(R"([1,2])");
    expectDifferential(R"(null)");
    expectDifferential(R"(true)");
}

// ---------------------------------------------------------------------
// 2. Structural-index equivalence (scalar vs AVX2)
// ---------------------------------------------------------------------

TEST(TapeIndex, SimdMatchesScalarPositionForPosition)
{
    if (!json::tapeSimdAvailable())
        GTEST_SKIP() << "no AVX2 on this machine";
    nobench::Config cfg;
    cfg.numDocs = 50;
    std::string lines = nobench::generateJsonLines(cfg, cfg.numDocs);
    std::vector<std::string> docs;
    size_t start = 0;
    while (start < lines.size()) {
        size_t nl = lines.find('\n', start);
        docs.push_back(lines.substr(start, nl - start));
        start = nl + 1;
    }
    // Adversarial strings for the block-wise escape fallback: quotes
    // and backslashes straddling 64-byte boundaries.
    Rng rng(99);
    for (int i = 0; i < 200; ++i) {
        std::string s = "{\"k\":\"";
        size_t n = rng.below(200);
        for (size_t k = 0; k < n; ++k) {
            switch (rng.below(6)) {
              case 0: s += "\\\\"; break;
              case 1: s += "\\\""; break;
              case 2: s += '"'; break; // may make it invalid: fine
              case 3: s += '{'; break;
              case 4: s += 'x'; break;
              default: s += ' '; break;
            }
        }
        s += "\"}";
        docs.push_back(s);
    }
    TapeParser scalar, simd;
    scalar.setForm(TapeForm::Scalar);
    simd.setForm(TapeForm::Simd);
    for (const std::string &doc : docs) {
        ASSERT_TRUE(scalar.index(doc));
        ASSERT_TRUE(simd.index(doc));
        ASSERT_EQ(scalar.structuralCount(), simd.structuralCount())
            << doc;
        for (size_t i = 0; i < scalar.structuralCount(); ++i)
            ASSERT_EQ(scalar.structurals()[i], simd.structurals()[i])
                << doc << " @" << i;
    }
}

// ---------------------------------------------------------------------
// 3. Deep nesting: explicit stack vs recursion
// ---------------------------------------------------------------------

std::string
deepDoc(size_t depth)
{
    std::string doc = R"({"a":)";
    doc.append(depth, '[');
    doc += '1';
    doc.append(depth, ']');
    doc += '}';
    return doc;
}

TEST(TapeDepth, HundredKDeepErrorsCleanlyAtDefaultCap)
{
    std::string doc = deepDoc(100000);
    // DOM parser: default cap, bounded recursion, clean error.
    json::ParseResult res = json::parse(doc);
    EXPECT_FALSE(res.ok);
    EXPECT_NE(res.error.find("depth"), std::string::npos);
    // DOM parser: a huge caller-supplied cap is clamped, not honored
    // into a stack overflow.
    res = json::parse(doc, 200000);
    EXPECT_FALSE(res.ok);
    EXPECT_NE(res.error.find("depth"), std::string::npos);
    // Tape walker: default cap, clean error.
    TapeParser tape;
    std::vector<FlatAttr> flat;
    EXPECT_FALSE(tape.flatten(doc, flat));
    EXPECT_NE(tape.error().find("depth"), std::string::npos);
}

TEST(TapeDepth, ExplicitStackFlattens100kDeepWhenCapRaised)
{
    const size_t kDepth = 100000;
    std::string doc = deepDoc(kDepth);
    TapeParser tape;
    tape.setMaxDepth(static_cast<int>(kDepth) + 10);
    std::vector<FlatAttr> flat;
    ASSERT_TRUE(tape.flatten(doc, flat)) << tape.error();
    ASSERT_EQ(flat.size(), 1u);
    EXPECT_TRUE(flat[0].value == JsonValue(static_cast<int64_t>(1)));
    // Path is "a[0][0]...[0]" with kDepth index steps.
    EXPECT_EQ(flat[0].path.size(), 1 + 3 * kDepth);
}

TEST(TapeDepth, DepthSemanticsMatchDomAtBoundary)
{
    // Value at nesting level k fails exactly when k > cap, as in the
    // DOM parser's parseValue entry check.
    for (int cap = 0; cap <= 3; ++cap) {
        for (int depth = 1; depth <= 4; ++depth) {
            std::string doc = R"({"a":)";
            for (int i = 1; i < depth; ++i)
                doc += R"({"a":)";
            doc += '1';
            doc.append(static_cast<size_t>(depth), '}');
            json::ParseResult res = json::parse(doc, cap);
            TapeParser tape;
            tape.setMaxDepth(cap);
            std::vector<FlatAttr> flat;
            bool tape_ok = tape.flatten(doc, flat);
            EXPECT_EQ(tape_ok, res.ok)
                << "cap=" << cap << " depth=" << depth;
        }
    }
}

// ---------------------------------------------------------------------
// 4. Duplicate keys: DOM fallback
// ---------------------------------------------------------------------

TEST(TapeDupKeys, FallbackMatchesDomExactly)
{
    const char *cases[] = {
        R"({"a":1,"a":2})",
        R"({"a":{"x":1},"a":{"y":2}})",  // subtree replacement
        R"({"a":1,"b":2,"a":3})",        // first position, last value
        R"({"o":{"k":1,"k":2},"t":3})",  // nested dup
        R"({"a":[{"k":1,"k":2}]})",
        "{\"\\u0061\":1,\"a\":2}",       // dup via escape spelling
        R"({"a":1,"a":})",               // dup then error
    };
    for (const char *doc : cases) {
        TapeParser tape;
        uint64_t before = tape.fallbacks();
        expectMatchesOracle(tape, doc);
        EXPECT_GT(tape.fallbacks(), before) << doc;
    }
    // No false fallback on distinct keys.
    TapeParser tape;
    std::vector<FlatAttr> flat;
    ASSERT_TRUE(tape.flatten(R"({"a":1,"b":{"a":2},"c":[{"a":3}]})",
                             flat));
    EXPECT_EQ(tape.fallbacks(), 0u);
}

// ---------------------------------------------------------------------
// 5. Differential fuzz
// ---------------------------------------------------------------------

/** Random JSON text generator emitting quirky-but-valid spellings. */
struct FuzzGen
{
    Rng rng;

    explicit FuzzGen(uint64_t seed) : rng(seed) {}

    std::string
    document()
    {
        std::string s = "{";
        size_t members = rng.below(5);
        for (size_t i = 0; i < members; ++i) {
            if (i != 0)
                s += ',';
            ws(s);
            key(s, i);
            ws(s);
            s += ':';
            value(s, 0);
        }
        ws(s);
        s += '}';
        return s;
    }

    void
    ws(std::string &s)
    {
        static const char *kWs[] = {"", "", " ", "  ", "\t", "\n", " \r "};
        s += kWs[rng.below(7)];
    }

    void
    key(std::string &s, size_t i)
    {
        // Unique keys per object level (dup keys tested separately);
        // the suffix keeps them distinct even with fancy spellings.
        s += '"';
        stringBody(s);
        s += "_k" + std::to_string(i) + '"';
    }

    void
    stringBody(std::string &s)
    {
        size_t n = rng.below(12);
        for (size_t i = 0; i < n; ++i) {
            switch (rng.below(12)) {
              case 0: s += "\\\\"; break;
              case 1: s += "\\\""; break;
              case 2: s += "\\n"; break;
              case 3: s += "\\u00e9"; break;
              case 4: s += "\\ud834\\udd1e"; break;
              case 5: s += "\\t"; break;
              case 6: s += "\\/"; break;
              case 7: s += "\xc3\xa9"; break; // raw UTF-8
              default:
                s += static_cast<char>('a' + rng.below(26));
                break;
            }
        }
    }

    void
    value(std::string &s, int depth)
    {
        ws(s);
        uint64_t pick = rng.below(depth >= 4 ? 7 : 10);
        switch (pick) {
          case 0: s += "null"; break;
          case 1: s += "true"; break;
          case 2: s += "false"; break;
          case 3: number(s); break;
          case 4: number(s); break;
          case 5:
            s += '"';
            stringBody(s);
            s += '"';
            break;
          case 6: number(s); break;
          case 7: { // array
            s += '[';
            size_t n = rng.below(4);
            for (size_t i = 0; i < n; ++i) {
                if (i != 0)
                    s += ',';
                value(s, depth + 1);
            }
            ws(s);
            s += ']';
            break;
          }
          default: { // object
            s += '{';
            size_t n = rng.below(4);
            for (size_t i = 0; i < n; ++i) {
                if (i != 0)
                    s += ',';
                ws(s);
                key(s, i);
                ws(s);
                s += ':';
                value(s, depth + 1);
            }
            ws(s);
            s += '}';
            break;
          }
        }
        ws(s);
    }

    void
    number(std::string &s)
    {
        switch (rng.below(8)) {
          case 0: s += std::to_string(rng.next() % 1000); break;
          case 1:
            s += '-';
            s += std::to_string(rng.next() % 1000);
            break;
          case 2: s += "0"; break;
          case 3: s += "00" + std::to_string(rng.below(100)); break;
          case 4:
            s += std::to_string(rng.next()); // up to 20 digits
            break;
          case 5:
            s += std::to_string(rng.below(100));
            s += '.';
            s += std::to_string(rng.below(1000));
            break;
          case 6:
            s += std::to_string(rng.below(100));
            s += rng.chance(0.5) ? "e" : "E";
            s += rng.chance(0.5) ? "+" : "-";
            s += std::to_string(rng.below(300));
            break;
          default:
            s += std::to_string(rng.below(10));
            s += '.';
            s += std::to_string(rng.below(10));
            s += 'e';
            s += std::to_string(rng.below(40));
            break;
        }
    }
};

TEST(TapeFuzz, ValidDocumentsMatchOracle)
{
    FuzzGen gen(20260808);
    for (int i = 0; i < 3000; ++i)
        expectDifferential(gen.document());
}

TEST(TapeFuzz, MutatedDocumentsMatchOracleVerdict)
{
    FuzzGen gen(4242);
    static const char kJunk[] = "{}[]:,\"\\0123456789eE.+-xntf \x01";
    for (int i = 0; i < 3000; ++i) {
        std::string doc = gen.document();
        // One random mutation: overwrite, insert, or truncate.
        switch (gen.rng.below(3)) {
          case 0:
            if (!doc.empty())
                doc[gen.rng.below(doc.size())] =
                    kJunk[gen.rng.below(sizeof(kJunk) - 1)];
            break;
          case 1:
            doc.insert(gen.rng.below(doc.size() + 1), 1,
                       kJunk[gen.rng.below(sizeof(kJunk) - 1)]);
            break;
          default:
            doc.resize(gen.rng.below(doc.size() + 1));
            break;
        }
        // Mutations can create duplicate keys only by mangling the
        // unique suffixes into equality, which the hash check routes
        // through the DOM anyway — output stays oracle-identical.
        expectDifferential(doc);
    }
}

// ---------------------------------------------------------------------
// 6. Loader semantics
// ---------------------------------------------------------------------

TEST(Loader, ErrorLineNumbersMatchParseLines)
{
    const std::string text = "{\"a\":1}\n"
                             "\n"
                             "  \n"
                             "{\"b\":2}\n"
                             "{broken\n"
                             "{\"c\":3}\n";
    // Oracle: parseLines keeps docs before the error and reports the
    // 1-based line number.
    std::string ref_err;
    auto ref_docs = json::parseLines(text, &ref_err);
    ASSERT_EQ(ref_docs.size(), 2u);
    ASSERT_EQ(ref_err.rfind("line 5:", 0), 0u) << ref_err;

    for (size_t threads : {1u, 4u}) {
        DataSet data;
        LoadOptions opt;
        opt.threads = threads;
        LoadStats stats;
        std::string err = engine::loadNdjson(data, text, opt, &stats);
        EXPECT_EQ(err.rfind("line 5:", 0), 0u) << err;
        EXPECT_EQ(data.docs.size(), 2u);
        EXPECT_EQ(stats.docs, 2u);
    }
}

TEST(Loader, EmptyAndBlankInputs)
{
    for (const std::string &text : {std::string(), std::string("\n\n  \n")}) {
        DataSet data;
        LoadOptions opt;
        std::string err = engine::loadNdjson(data, text, opt);
        EXPECT_EQ(err, "");
        EXPECT_EQ(data.docs.size(), 0u);
    }
}

TEST(Loader, DomParserOptionLoadsIdentically)
{
    nobench::Config cfg;
    cfg.numDocs = 200;
    std::string lines = nobench::generateJsonLines(cfg, cfg.numDocs);
    DataSet via_tape, via_dom;
    LoadOptions tape_opt;
    LoadOptions dom_opt;
    dom_opt.parser = LoadParser::Dom;
    ASSERT_EQ(engine::loadNdjson(via_tape, lines, tape_opt), "");
    ASSERT_EQ(engine::loadNdjson(via_dom, lines, dom_opt), "");
    ASSERT_EQ(via_tape.docs.size(), via_dom.docs.size());
    for (size_t i = 0; i < via_tape.docs.size(); ++i) {
        EXPECT_EQ(via_tape.docs[i].oid, via_dom.docs[i].oid);
        EXPECT_EQ(via_tape.docs[i].attrs, via_dom.docs[i].attrs);
    }
    EXPECT_EQ(via_tape.catalog.attrCount(), via_dom.catalog.attrCount());
}

// ---------------------------------------------------------------------
// 7. Parallel LOAD: bit-identical databases, digest-verified
// ---------------------------------------------------------------------

size_t
testDocs()
{
    if (const char *env = std::getenv("DVP_TEST_DOCS"))
        return std::strtoull(env, nullptr, 10);
    return 3000;
}

TEST(ParallelLoad, DigestsMatchSerialDomLoadAcrossLayouts)
{
    nobench::Config cfg;
    cfg.numDocs = testDocs();
    cfg.seed = 777;
    std::string lines = nobench::generateJsonLines(cfg, cfg.numDocs);

    // Reference: serial DOM load (the pre-tape ingestion pipeline).
    DataSet ref;
    nobench::registerCatalog(ref.catalog);
    LoadOptions ref_opt;
    ref_opt.parser = LoadParser::Dom;
    ASSERT_EQ(engine::loadNdjson(ref, lines, ref_opt), "");

    nobench::QuerySet qs(ref, cfg);
    Rng qrng(17);
    std::vector<Query> queries;
    for (int t = 0; t < nobench::kNumTemplates; ++t)
        queries.push_back(qs.instantiate(t, qrng));

    const std::vector<storage::AttrId> attrs = ref.catalog.allAttrs();
    const struct
    {
        Layout layout;
        const char *name;
    } layouts[] = {
        {Layout::rowBased(attrs), "row"},
        {Layout::columnBased(attrs), "column"},
        {Layout::fixedSize(attrs, 4), "dvp4"},
    };

    for (size_t threads : {1u, 2u, 8u}) {
        DataSet got;
        nobench::registerCatalog(got.catalog);
        LoadOptions opt;
        opt.threads = threads;
        ASSERT_EQ(engine::loadNdjson(got, lines, opt), "");

        // Document-level identity first (oids, attrs, slots).
        ASSERT_EQ(got.docs.size(), ref.docs.size());
        for (size_t i = 0; i < got.docs.size(); ++i) {
            ASSERT_EQ(got.docs[i].oid, ref.docs[i].oid);
            ASSERT_EQ(got.docs[i].attrs, ref.docs[i].attrs)
                << "doc " << i << " threads=" << threads;
        }
        ASSERT_EQ(got.catalog.attrCount(), ref.catalog.attrCount());

        // Then query-digest identity across layouts.
        for (const auto &l : layouts) {
            Database ref_db(ref, l.layout, l.name);
            Database got_db(got, l.layout, l.name);
            for (const Query &q : queries) {
                Executor ref_ex(ref_db);
                Executor got_ex(got_db);
                ResultSet want = ref_ex.run(q);
                ResultSet have = got_ex.run(q);
                EXPECT_EQ(have.rowCount(), want.rowCount());
                EXPECT_EQ(have.oids, want.oids);
                EXPECT_EQ(have.rows, want.rows);
                EXPECT_EQ(have.digest(), want.digest())
                    << l.name << " " << q.name
                    << " threads=" << threads;
            }
        }
    }
}

TEST(ParallelLoad, NdjsonGeneratorRoundTripIsBitIdentical)
{
    nobench::Config cfg;
    cfg.numDocs = 500;
    cfg.seed = 31;
    DataSet direct = nobench::generateDataSet(cfg);
    for (size_t threads : {1u, 4u}) {
        DataSet round = nobench::generateDataSetNdjson(cfg, threads);
        ASSERT_EQ(round.docs.size(), direct.docs.size());
        for (size_t i = 0; i < round.docs.size(); ++i) {
            ASSERT_EQ(round.docs[i].oid, direct.docs[i].oid);
            ASSERT_EQ(round.docs[i].attrs, direct.docs[i].attrs);
        }
        EXPECT_EQ(round.catalog.attrCount(), direct.catalog.attrCount());
    }
}

// ---------------------------------------------------------------------
// 8. Observability
// ---------------------------------------------------------------------

TEST(TapeObs, ParseCountersReachRegistry)
{
    nobench::Config cfg;
    cfg.numDocs = 64;
    std::string lines = nobench::generateJsonLines(cfg, cfg.numDocs);
    auto &reg = obs::Registry::global();
    std::string form_name =
        std::string("dvp_parsed_docs_total{form=\"tape_") +
        (json::tapeSimdActive() ? "avx2" : "scalar") + "\"}";
    uint64_t docs_before = reg.counter(form_name).value();
    uint64_t bytes_before = reg.counter("dvp_parse_bytes_total").value();

    DataSet data;
    LoadOptions opt;
    LoadStats stats;
    ASSERT_EQ(engine::loadNdjson(data, lines, opt, &stats), "");
    EXPECT_EQ(stats.docs, cfg.numDocs);
    EXPECT_GT(stats.bytes, 0u);

    EXPECT_EQ(reg.counter(form_name).value(), docs_before + cfg.numDocs);
    EXPECT_EQ(reg.counter("dvp_parse_bytes_total").value(),
              bytes_before + stats.bytes);
}

} // namespace
} // namespace dvp
