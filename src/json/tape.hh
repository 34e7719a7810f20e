/**
 * @file
 * DOM-free tape JSON parser: SIMD structural indexing plus a flattening
 * walk that emits FlatAttrs straight off the tape.
 *
 * The DOM path (parser.hh + flatten.hh) materializes a full JsonValue
 * tree per document and then rips it apart again; for the engine's
 * ingest workload — extract every (path, scalar) pair once — that tree
 * is pure overhead.  TapeParser replaces it with two stages:
 *
 *  1. Structural index ("the tape"): one pass over the raw bytes
 *     recording the positions of every structural character outside
 *     strings ({ } [ ] : , plus both quotes of every string).  The
 *     AVX2 form classifies 64 input bytes per step — per-character
 *     compares into 64-bit masks, a prefix-XOR over the quote mask for
 *     the in-string mask, bit-iteration emit — and falls back to the
 *     scalar state machine for any block containing a backslash, so
 *     escape handling stays in exactly one place.  Which form runs is
 *     decided once per process by the same cpuid + DVP_FORCE_SCALAR
 *     dispatch pattern as the scan kernels (engine/kernels.hh); both
 *     forms are independently callable for differential tests.
 *
 *  2. Flattening walk: an explicit-stack traversal of the tape that
 *     validates the document grammar and emits FlatAttr paths and
 *     typed scalars directly — no JsonValue tree is ever built, and
 *     the path buffer, frame stack, and output vector are reused
 *     across documents.  The explicit stack means nesting depth is a
 *     checked limit, not a C-stack crash: with the limit raised the
 *     walker handles 100k-deep inputs that would overflow any
 *     recursive parser.
 *
 * Semantics are differentially identical to DOM parse()+flatten():
 * the same accept/reject verdict and the same FlatAttr list for every
 * input (fuzz-tested in tests/test_json_tape.cc).  One case is
 * delegated rather than reimplemented: duplicate object keys (DOM
 * set() keeps first position, last value — a subtree replacement no
 * streaming emitter can reproduce), which the walker detects via
 * per-frame key hashes and answers by re-parsing through the DOM
 * slow path.  NoBench and every sane NDJSON source never hit it.
 */

#ifndef DVP_JSON_TAPE_HH
#define DVP_JSON_TAPE_HH

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "json/flatten.hh"

namespace dvp::json
{

/** Default nesting-depth limit; matches parse()'s default. */
constexpr int kTapeDefaultMaxDepth = 256;

/** Which structural-index form a TapeParser uses. */
enum class TapeForm : uint8_t
{
    Auto,   ///< process-wide dispatch (cpuid + DVP_FORCE_SCALAR)
    Scalar, ///< force the scalar state machine
    Simd    ///< force AVX2 (invalid where tapeSimdAvailable() is false)
};

/** True when this build/CPU has the AVX2 index form at all. */
bool tapeSimdAvailable();

/** True when TapeForm::Auto dispatches to the AVX2 form. */
bool tapeSimdActive();

/**
 * Reusable DOM-free flattener.  Not thread-safe; use one instance per
 * thread (the parallel loader keeps one per lane).  All scratch —
 * tape, path buffer, frame stack, key hashes — is retained across
 * documents, so a warmed parser allocates only for the emitted
 * FlatAttr strings themselves.
 */
class TapeParser
{
  public:
    TapeParser() = default;

    /** Select the index form (default Auto). */
    void setForm(TapeForm f) { form_ = f; }

    /**
     * Nesting-depth limit (default kTapeDefaultMaxDepth, the DOM
     * parser's default).  Unlike the DOM parser the walker's stack is
     * heap-allocated, so arbitrarily large limits are safe.
     */
    void setMaxDepth(int depth) { max_depth_ = depth; }

    /**
     * Flatten one JSON document into @p out (overwritten, capacity
     * reused).  Equivalent to parse(doc) + flatten(): @p out receives
     * the same attributes in the same order, and the verdict matches
     * (with "top-level value is not an object" also a reject, which
     * is what every ingest surface requires).  On false, error()
     * describes the failure.
     */
    bool flatten(std::string_view doc, std::vector<FlatAttr> &out);

    /**
     * Stage 1 only: build the structural index for @p doc.  Exposed
     * (with walk()) so benches can time the stages apart and tests
     * can compare the scalar and AVX2 indexes position-for-position.
     */
    bool index(std::string_view doc);

    /** Stage 2 only: flatten @p doc off the index built by index(). */
    bool walk(std::string_view doc, std::vector<FlatAttr> &out);

    /** Failure description after a false return. */
    const std::string &error() const { return error_; }

    /** Structural positions found by the last index(). */
    const uint32_t *structurals() const { return structs_.data(); }
    size_t structuralCount() const { return nstruct_; }

    /** Documents this parser answered via the DOM slow path. */
    uint64_t fallbacks() const { return fallbacks_; }

  private:
    /** One open container on the walk stack. */
    struct Frame
    {
        uint32_t pathLen; ///< path_ length of the container's prefix
        uint32_t keyBase; ///< first key_hashes_ slot of this object
        int32_t nextIdx;  ///< next array index, or -1 for objects
    };

    bool fail(const char *msg);
    bool indexScalar(const char *d, size_t len);
    bool indexSimd(const char *d, size_t len);
    bool walkImpl(std::string_view doc, std::vector<FlatAttr> &out,
                  bool &needDom);
    bool domFallback(std::string_view doc, std::vector<FlatAttr> &out);
    bool decodeString(const char *p, size_t n, std::string &dest);
    bool decodeAppend(const char *p, size_t n, std::string &dest);
    bool emitAtom(const char *p, size_t n, std::vector<FlatAttr> &out);
    FlatAttr &nextSlot(std::vector<FlatAttr> &out);

    TapeForm form_ = TapeForm::Auto;
    int max_depth_ = kTapeDefaultMaxDepth;

    std::vector<uint32_t> structs_; ///< structural positions (reused)
    size_t nstruct_ = 0;
    std::string path_;              ///< attribute path under build
    std::string numbuf_;            ///< number-token scratch
    std::vector<Frame> stack_;
    std::vector<uint64_t> key_hashes_; ///< per-frame duplicate check
    std::string error_;
    size_t out_n_ = 0;              ///< emitted attrs this document
    uint64_t fallbacks_ = 0;
};

/**
 * Count one parsed document (+ its bytes) in the obs registry:
 * dvp_parsed_docs_total{form="tape_avx2"|"tape_scalar"|"dom"} and
 * dvp_parse_bytes_total.  @p dom_fallback additionally counts
 * dvp_parse_fallbacks_total.  Static-cached handles; the hot-path
 * cost is two relaxed atomic adds.
 */
void countParsedDoc(bool simd_index, bool dom, size_t bytes,
                    bool dom_fallback = false);

/** Bulk form of countParsedDoc for per-chunk aggregation. */
void countParsedDocs(bool simd_index, bool dom, uint64_t docs,
                     uint64_t bytes, uint64_t fallbacks);

} // namespace dvp::json

#endif // DVP_JSON_TAPE_HH
