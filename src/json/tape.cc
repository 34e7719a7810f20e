#include "json/tape.hh"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <cstring>

#include "json/parser.hh"
#include "obs/metrics.hh"

#if defined(__x86_64__) || defined(__i386__)
#define DVP_TAPE_X86 1
#include <immintrin.h>
#else
#define DVP_TAPE_X86 0
#endif

namespace dvp::json
{

namespace
{

bool
cpuHasAvx2()
{
#if DVP_TAPE_X86
    // The index kernel also leans on BMI1/BMI2/POPCNT (tzcnt, blsr);
    // every AVX2 part ships them, but check rather than assume.
    return __builtin_cpu_supports("avx2") &&
           __builtin_cpu_supports("bmi") &&
           __builtin_cpu_supports("bmi2") &&
           __builtin_cpu_supports("popcnt");
#else
    return false;
#endif
}

/**
 * Form selection, decided once per process: AVX2 when the CPU has it,
 * unless DVP_FORCE_SCALAR is set non-empty/non-"0".  Same contract as
 * the scan-kernel dispatch in engine/kernels.cc.
 */
struct TapeDispatch
{
    bool simd;

    TapeDispatch()
    {
        simd = cpuHasAvx2();
        const char *force = std::getenv("DVP_FORCE_SCALAR");
        if (force != nullptr && force[0] != '\0' && force[0] != '0')
            simd = false;
    }
};

const TapeDispatch &
dispatch()
{
    static TapeDispatch d;
    return d;
}

bool
isWs(char c)
{
    return c == ' ' || c == '\t' || c == '\n' || c == '\r';
}

/** Branch-lean digit test (std::isdigit is an opaque locale call). */
bool
isDigit(char c)
{
    return static_cast<unsigned char>(c - '0') <= 9;
}

/**
 * The scalar structural-index state machine over d[from, to).  Also the
 * escape slow path of the AVX2 form: any 64-byte block containing a
 * backslash (or entered mid-escape) runs through here, so backslash
 * semantics live in exactly one place.
 */
void
scalarBlock(const char *d, size_t from, size_t to, bool &in_string,
            bool &escaped, uint32_t *out, size_t &n)
{
    for (size_t i = from; i < to; ++i) {
        char c = d[i];
        if (in_string) {
            if (escaped) {
                escaped = false;
            } else if (c == '\\') {
                escaped = true;
            } else if (c == '"') {
                in_string = false;
                out[n++] = static_cast<uint32_t>(i);
            }
            continue;
        }
        switch (c) {
          case '"':
            in_string = true;
            out[n++] = static_cast<uint32_t>(i);
            break;
          case '{': case '}': case '[': case ']': case ':': case ',':
            out[n++] = static_cast<uint32_t>(i);
            break;
          default:
            break;
        }
    }
}

#if DVP_TAPE_X86

#define DVP_TAPE_AVX2 __attribute__((target("avx2,bmi,bmi2,popcnt")))

/**
 * Nibble-LUT byte classification (the simdjson technique): two
 * shuffles and an AND give every byte a class bitmask — b0 ',',
 * b1 ':', b2 one of {}[], b3 '"', b4 '\\'.  Each bit's (low nibble,
 * high nibble) table pair intersects in exactly one character, so
 * there are no false positives.
 */
DVP_TAPE_AVX2 inline __m256i
classify256(__m256i x, __m256i lo_tbl, __m256i hi_tbl, __m256i nib)
{
    __m256i lo = _mm256_shuffle_epi8(lo_tbl, _mm256_and_si256(x, nib));
    __m256i hi = _mm256_shuffle_epi8(
        hi_tbl, _mm256_and_si256(_mm256_srli_epi16(x, 4), nib));
    return _mm256_and_si256(lo, hi);
}

/** 64-bit mask of bytes whose class intersects @p bits. */
DVP_TAPE_AVX2 inline uint64_t
classMask64(__m256i cl_lo, __m256i cl_hi, char bits)
{
    const __m256i m = _mm256_set1_epi8(bits);
    const __m256i z = _mm256_setzero_si256();
    auto ml = static_cast<uint32_t>(_mm256_movemask_epi8(
        _mm256_cmpeq_epi8(_mm256_and_si256(cl_lo, m), z)));
    auto mh = static_cast<uint32_t>(_mm256_movemask_epi8(
        _mm256_cmpeq_epi8(_mm256_and_si256(cl_hi, m), z)));
    return ~(static_cast<uint64_t>(ml) |
             (static_cast<uint64_t>(mh) << 32));
}

/** Inclusive prefix XOR: bit i of the result = parity of bits 0..i. */
inline uint64_t
prefixXor(uint64_t x)
{
    x ^= x << 1;
    x ^= x << 2;
    x ^= x << 4;
    x ^= x << 8;
    x ^= x << 16;
    x ^= x << 32;
    return x;
}

#endif // DVP_TAPE_X86

void
appendUtf8(std::string &s, uint32_t cp)
{
    if (cp < 0x80) {
        s += static_cast<char>(cp);
    } else if (cp < 0x800) {
        s += static_cast<char>(0xc0 | (cp >> 6));
        s += static_cast<char>(0x80 | (cp & 0x3f));
    } else if (cp < 0x10000) {
        s += static_cast<char>(0xe0 | (cp >> 12));
        s += static_cast<char>(0x80 | ((cp >> 6) & 0x3f));
        s += static_cast<char>(0x80 | (cp & 0x3f));
    } else {
        s += static_cast<char>(0xf0 | (cp >> 18));
        s += static_cast<char>(0x80 | ((cp >> 12) & 0x3f));
        s += static_cast<char>(0x80 | ((cp >> 6) & 0x3f));
        s += static_cast<char>(0x80 | (cp & 0x3f));
    }
}

/** Read exactly 4 hex digits from [p, end); advances p on success. */
bool
readHex4(const char *&p, const char *end, uint32_t &out)
{
    if (end - p < 4)
        return false;
    out = 0;
    for (int i = 0; i < 4; ++i) {
        char c = *p++;
        out <<= 4;
        if (c >= '0' && c <= '9')
            out |= static_cast<uint32_t>(c - '0');
        else if (c >= 'a' && c <= 'f')
            out |= static_cast<uint32_t>(c - 'a' + 10);
        else if (c >= 'A' && c <= 'F')
            out |= static_cast<uint32_t>(c - 'A' + 10);
        else
            return false;
    }
    return true;
}

uint64_t
fnv1a(const char *p, size_t n)
{
    uint64_t h = 1469598103934665603ull;
    for (size_t i = 0; i < n; ++i) {
        h ^= static_cast<unsigned char>(p[i]);
        h *= 1099511628211ull;
    }
    return h;
}

} // namespace

bool
tapeSimdAvailable()
{
    return cpuHasAvx2();
}

bool
tapeSimdActive()
{
    return dispatch().simd;
}

void
countParsedDocs(bool simd_index, bool dom, uint64_t docs, uint64_t bytes,
                uint64_t fallbacks)
{
    if (docs == 0 && bytes == 0 && fallbacks == 0)
        return;
    if (dom) {
        DVP_COUNTER_ADD("dvp_parsed_docs_total{form=\"dom\"}", docs);
    } else if (simd_index) {
        DVP_COUNTER_ADD("dvp_parsed_docs_total{form=\"tape_avx2\"}",
                        docs);
    } else {
        DVP_COUNTER_ADD("dvp_parsed_docs_total{form=\"tape_scalar\"}",
                        docs);
    }
    DVP_COUNTER_ADD("dvp_parse_bytes_total", bytes);
    if (fallbacks != 0)
        DVP_COUNTER_ADD("dvp_parse_fallbacks_total", fallbacks);
}

void
countParsedDoc(bool simd_index, bool dom, size_t bytes, bool dom_fallback)
{
    countParsedDocs(simd_index, dom, 1, bytes, dom_fallback ? 1 : 0);
}

bool
TapeParser::fail(const char *msg)
{
    error_ = msg;
    return false;
}

bool
TapeParser::indexScalar(const char *d, size_t len)
{
    uint32_t *out = structs_.data();
    size_t n = 0;
    bool in_string = false;
    bool escaped = false;
    scalarBlock(d, 0, len, in_string, escaped, out, n);
    nstruct_ = n;
    return true;
}

#if DVP_TAPE_X86

DVP_TAPE_AVX2 bool
TapeParser::indexSimd(const char *d, size_t len)
{
    uint32_t *out = structs_.data();
    size_t n = 0;
    bool in_string = false;
    bool escaped = false;

    // classify256 tables: lo[C] = ','|'\\' candidates, hi[2]/hi[5]
    // resolve which; see the classify256 doc comment for the scheme.
    const __m256i lo_tbl = _mm256_setr_epi8(
        0, 0, 0x08, 0, 0, 0, 0, 0, 0, 0, 0x02, 0x04, 0x11, 0x04, 0, 0,
        0, 0, 0x08, 0, 0, 0, 0, 0, 0, 0, 0x02, 0x04, 0x11, 0x04, 0,
        0);
    const __m256i hi_tbl = _mm256_setr_epi8(
        0, 0, 0x09, 0x02, 0, 0x14, 0, 0x04, 0, 0, 0, 0, 0, 0, 0, 0, 0,
        0, 0x09, 0x02, 0, 0x14, 0, 0x04, 0, 0, 0, 0, 0, 0, 0, 0);
    const __m256i nib = _mm256_set1_epi8(0x0f);

    size_t i = 0;
    for (; i + 64 <= len; i += 64) {
        __m256i x0 = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(d + i));
        __m256i x1 = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(d + i + 32));
        __m256i c0 = classify256(x0, lo_tbl, hi_tbl, nib);
        __m256i c1 = classify256(x1, lo_tbl, hi_tbl, nib);
        uint64_t bslash = classMask64(c0, c1, 0x10);
        if (bslash != 0 || escaped) {
            // Escapes present (or carried in): let the state machine
            // resolve them; the next clean block resumes SIMD.
            scalarBlock(d, i, i + 64, in_string, escaped, out, n);
            continue;
        }
        uint64_t quotes = classMask64(c0, c1, 0x08);
        uint64_t structural = classMask64(c0, c1, 0x07);
        // With no backslashes every quote toggles string state, so the
        // in-string mask is the prefix parity of the quote bits (carry
        // flips it when the block starts inside a string).  The mask
        // covers [open, close): the opening quote and interior bytes.
        uint64_t in_str = prefixXor(quotes);
        if (in_string)
            in_str = ~in_str;
        uint64_t emit = (structural & ~in_str) | quotes;
        in_string = (in_str >> 63) & 1;
        // Unconditional 4-wide extraction: tzcnt(0) is a defined 64,
        // so the overshoot lanes write garbage into the index slack
        // (structs_ reserves 8 spare slots) and n advances by the
        // true popcount.
        auto cnt = static_cast<unsigned>(_mm_popcnt_u64(emit));
        auto base = static_cast<uint32_t>(i);
        for (unsigned k = 0; k < cnt; k += 4) {
            out[n + k] =
                base + static_cast<uint32_t>(_tzcnt_u64(emit));
            emit = _blsr_u64(emit);
            out[n + k + 1] =
                base + static_cast<uint32_t>(_tzcnt_u64(emit));
            emit = _blsr_u64(emit);
            out[n + k + 2] =
                base + static_cast<uint32_t>(_tzcnt_u64(emit));
            emit = _blsr_u64(emit);
            out[n + k + 3] =
                base + static_cast<uint32_t>(_tzcnt_u64(emit));
            emit = _blsr_u64(emit);
        }
        n += cnt;
    }
    scalarBlock(d, i, len, in_string, escaped, out, n);
    nstruct_ = n;
    return true;
}

#else // !DVP_TAPE_X86

bool
TapeParser::indexSimd(const char *d, size_t len)
{
    return indexScalar(d, len);
}

#endif // DVP_TAPE_X86

bool
TapeParser::index(std::string_view doc)
{
    error_.clear();
    nstruct_ = 0;
    if (doc.size() > 0xffffffffull)
        return fail("document too large");
    // +8 slack: the SIMD extraction loop writes up to three garbage
    // slots past the true structural count (see indexSimd).
    if (structs_.size() < doc.size() + 8)
        structs_.resize(doc.size() + 8);
    bool simd = false;
    switch (form_) {
      case TapeForm::Scalar: simd = false; break;
      case TapeForm::Simd: simd = true; break;
      case TapeForm::Auto: simd = dispatch().simd; break;
    }
    return simd ? indexSimd(doc.data(), doc.size())
                : indexScalar(doc.data(), doc.size());
}

FlatAttr &
TapeParser::nextSlot(std::vector<FlatAttr> &out)
{
    if (out_n_ < out.size())
        return out[out_n_++];
    out.emplace_back();
    ++out_n_;
    return out.back();
}

bool
TapeParser::decodeString(const char *p, size_t n, std::string &dest)
{
    dest.clear();
    return decodeAppend(p, n, dest);
}

bool
TapeParser::decodeAppend(const char *p, size_t n, std::string &dest)
{
    const char *end = p + n;
    // Escape-free fast path: one vectorizable pass that also performs
    // the control-character check, then a single bulk append.
    bool esc = false;
    bool bad = false;
    for (const char *t = p; t < end; ++t) {
        esc |= *t == '\\';
        bad |= static_cast<unsigned char>(*t) < 0x20;
    }
    if (!esc) {
        if (bad)
            return fail("raw control character in string");
        dest.append(p, n);
        return true;
    }
    while (p < end) {
        // Bulk path: copy everything up to the next escape in one
        // append (the common case is a whole string with none).
        const char *bs = static_cast<const char *>(
            std::memchr(p, '\\', static_cast<size_t>(end - p)));
        const char *lim = bs != nullptr ? bs : end;
        // Branchless accumulate so the compiler can vectorize the
        // control-character scan (the DOM parser rejects them too).
        bool bad = false;
        for (const char *t = p; t < lim; ++t)
            bad |= static_cast<unsigned char>(*t) < 0x20;
        if (bad)
            return fail("raw control character in string");
        dest.append(p, static_cast<size_t>(lim - p));
        if (bs == nullptr)
            return true;
        // A backslash as the last content byte is impossible: it would
        // have escaped the closing quote in the structural index.
        p = bs + 1;
        char esc = *p++;
        switch (esc) {
          case '"': dest += '"'; break;
          case '\\': dest += '\\'; break;
          case '/': dest += '/'; break;
          case 'b': dest += '\b'; break;
          case 'f': dest += '\f'; break;
          case 'n': dest += '\n'; break;
          case 'r': dest += '\r'; break;
          case 't': dest += '\t'; break;
          case 'u': {
            uint32_t cp;
            if (!readHex4(p, end, cp))
                return fail("invalid \\u escape");
            if (cp >= 0xd800 && cp <= 0xdbff) {
                // High surrogate: a low surrogate must follow.
                if (end - p < 2 || p[0] != '\\' || p[1] != 'u')
                    return fail("unpaired high surrogate");
                p += 2;
                uint32_t lo;
                if (!readHex4(p, end, lo))
                    return fail("invalid \\u escape");
                if (lo < 0xdc00 || lo > 0xdfff)
                    return fail("invalid low surrogate");
                cp = 0x10000 + ((cp - 0xd800) << 10) + (lo - 0xdc00);
            } else if (cp >= 0xdc00 && cp <= 0xdfff) {
                return fail("unpaired low surrogate");
            }
            appendUtf8(dest, cp);
            break;
          }
          default:
            return fail("invalid escape character");
        }
    }
    return true;
}

bool
TapeParser::emitAtom(const char *p, size_t n, std::vector<FlatAttr> &out)
{
    // Literals: exact match only (the DOM parser's prefix-match cases
    // like "nullx" die on its follow-up delimiter check instead).
    // First-character dispatch keeps the memcmp calls off the number
    // path, which dominates real data.
    const char c0 = *p;
    if (c0 == 't' || c0 == 'f' || c0 == 'n') {
        if (n == 4 && std::memcmp(p, "true", 4) == 0) {
            FlatAttr &slot = nextSlot(out);
            slot.path.assign(path_);
            slot.value = JsonValue(true);
            return true;
        }
        if (n == 5 && std::memcmp(p, "false", 5) == 0) {
            FlatAttr &slot = nextSlot(out);
            slot.path.assign(path_);
            slot.value = JsonValue(false);
            return true;
        }
        if (n == 4 && std::memcmp(p, "null", 4) == 0) {
            FlatAttr &slot = nextSlot(out);
            slot.path.assign(path_);
            slot.value = JsonValue(nullptr);
            return true;
        }
    }

    // Number grammar, replicated from the DOM parser: optional '-',
    // digits (leading zeros accepted), optional fraction, optional
    // exponent — and nothing else in the atom.
    const char *q = p;
    const char *end = p + n;
    bool neg = false;
    if (q < end && *q == '-') {
        neg = true;
        ++q;
    }
    if (q == end || !isDigit(*q))
        return fail(neg ? "invalid number" : "invalid literal");
    const char *digits = q;
    while (q < end && isDigit(*q))
        ++q;
    const char *int_end = q;
    bool is_double = false;
    if (q < end && *q == '.') {
        is_double = true;
        ++q;
        if (q == end || !isDigit(*q))
            return fail("digit required after decimal point");
        while (q < end && isDigit(*q))
            ++q;
    }
    if (q < end && (*q == 'e' || *q == 'E')) {
        is_double = true;
        ++q;
        if (q < end && (*q == '+' || *q == '-'))
            ++q;
        if (q == end || !isDigit(*q))
            return fail("digit required in exponent");
        while (q < end && isDigit(*q))
            ++q;
    }
    if (q != end)
        return fail("unexpected character after number");

    if (!is_double) {
        if (int_end - digits <= 18) {
            // Fits int64 without overflow checks: accumulate directly.
            int64_t v = 0;
            for (const char *t = digits; t < int_end; ++t)
                v = v * 10 + (*t - '0');
            FlatAttr &slot = nextSlot(out);
            slot.path.assign(path_);
            slot.value = JsonValue(neg ? -v : v);
            return true;
        }
        numbuf_.assign(p, n);
        errno = 0;
        char *conv_end = nullptr;
        long long v = std::strtoll(numbuf_.c_str(), &conv_end, 10);
        if (errno != ERANGE && conv_end != nullptr && *conv_end == '\0') {
            FlatAttr &slot = nextSlot(out);
            slot.path.assign(path_);
            slot.value = JsonValue(static_cast<int64_t>(v));
            return true;
        }
        // Integer overflow: fall back to double, matching the DOM path.
    }
    numbuf_.assign(p, n);
    errno = 0;
    char *conv_end = nullptr;
    double d = std::strtod(numbuf_.c_str(), &conv_end);
    if (conv_end == nullptr || *conv_end != '\0' || !std::isfinite(d))
        return fail("number out of range");
    FlatAttr &slot = nextSlot(out);
    slot.path.assign(path_);
    slot.value = JsonValue(d);
    return true;
}

bool
TapeParser::walkImpl(std::string_view doc, std::vector<FlatAttr> &out,
                     bool &needDom)
{
    needDom = false;
    const char *d = doc.data();
    const size_t len = doc.size();
    const uint32_t *pos = structs_.data();
    const size_t n = nstruct_;

    size_t si = 0;     // next structural
    size_t cursor = 0; // next unconsumed byte
    path_.clear();
    stack_.clear();
    key_hashes_.clear();
    out_n_ = 0;

    auto wsOnly = [&](size_t from, size_t to) {
        for (size_t i = from; i < to; ++i)
            if (!isWs(d[i]))
                return false;
        return true;
    };
    auto popFrame = [&]() {
        const Frame &f = stack_.back();
        path_.resize(f.pathLen);
        key_hashes_.resize(f.keyBase);
        stack_.pop_back();
    };
    auto appendIndex = [&](int32_t idx) {
        // Manual itoa: snprintf costs more than the rest of the path
        // append put together, and indices are small non-negatives.
        char buf[14];
        char *e = buf + sizeof buf;
        char *w = e;
        *--w = ']';
        uint32_t v = static_cast<uint32_t>(idx);
        do {
            *--w = static_cast<char>('0' + v % 10);
            v /= 10;
        } while (v != 0);
        *--w = '[';
        path_.append(w, static_cast<size_t>(e - w));
    };

    enum State { kValue, kAfterValue, kMemberKey };
    State st = kValue;
    bool allow_close = false; // kMemberKey directly after '{'

    for (;;) {
        if (st == kValue) {
            // Same check the DOM parser makes at parseValue entry:
            // this value's nesting level is the open-container count.
            if (static_cast<int>(stack_.size()) > max_depth_)
                return fail("nesting depth limit exceeded");
            size_t atom_end = si < n ? pos[si] : len;
            size_t a = cursor;
            size_t b = atom_end;
            while (a < b && isWs(d[a]))
                ++a;
            while (b > a && isWs(d[b - 1]))
                --b;
            if (stack_.empty()) {
                // Root value: ingest requires an object (flatten()'s
                // precondition); reject everything else up front.
                if (a < b || si >= n || d[pos[si]] != '{') {
                    if (si >= n && a >= b)
                        return fail("unexpected end of document");
                    if (a >= b && (d[pos[si]] == '"' || d[pos[si]] == '['))
                        return fail(
                            "top-level JSON value is not an object");
                    if (a < b &&
                        (isDigit(d[a]) ||
                         d[a] == '-' || d[a] == 't' || d[a] == 'f' ||
                         d[a] == 'n'))
                        return fail(
                            "top-level JSON value is not an object");
                    return fail("unexpected character");
                }
            }
            if (a < b) {
                // Non-structural gap text: a number or literal atom.
                if (!emitAtom(d + a, b - a, out))
                    return false;
                cursor = atom_end;
                st = kAfterValue;
                continue;
            }
            if (si >= n)
                return fail("unexpected end of document");
            size_t p = pos[si];
            switch (d[p]) {
              case '{':
                stack_.push_back({static_cast<uint32_t>(path_.size()),
                                  static_cast<uint32_t>(key_hashes_.size()),
                                  -1});
                cursor = p + 1;
                ++si;
                st = kMemberKey;
                allow_close = true;
                continue;
              case '[': {
                stack_.push_back({static_cast<uint32_t>(path_.size()),
                                  static_cast<uint32_t>(key_hashes_.size()),
                                  0});
                cursor = p + 1;
                ++si;
                if (si < n && d[pos[si]] == ']' && wsOnly(cursor, pos[si])) {
                    // Empty array: contributes no attributes.
                    cursor = pos[si] + 1;
                    ++si;
                    popFrame();
                    st = kAfterValue;
                } else {
                    appendIndex(0);
                    stack_.back().nextIdx = 1;
                    st = kValue;
                }
                continue;
              }
              case '"': {
                // The next structural after an opening quote is always
                // that string's closing quote (everything between is
                // in-string and suppressed by the index).
                if (si + 1 >= n)
                    return fail("unterminated string");
                size_t close = pos[si + 1];
                if (d[close] != '"')
                    return fail("unterminated string");
                FlatAttr &slot = nextSlot(out);
                slot.path.assign(path_);
                // Decode straight into the slot's string: a reused
                // slot keeps its heap buffer doc after doc.
                if (!decodeString(d + p + 1, close - p - 1,
                                  slot.value.stringSlot()))
                    return false;
                cursor = close + 1;
                si += 2;
                st = kAfterValue;
                continue;
              }
              default:
                return fail("unexpected character");
            }
        }

        if (st == kAfterValue) {
            if (stack_.empty()) {
                if (si < n || !wsOnly(cursor, len))
                    return fail("trailing content after document");
                break; // success
            }
            if (si >= n)
                return fail("unexpected end of document");
            size_t p = pos[si];
            if (!wsOnly(cursor, p))
                return fail("unexpected character");
            char c = d[p];
            Frame &f = stack_.back();
            if (f.nextIdx < 0) {
                if (c == '}') {
                    cursor = p + 1;
                    ++si;
                    popFrame();
                } else if (c == ',') {
                    cursor = p + 1;
                    ++si;
                    st = kMemberKey;
                    allow_close = false;
                } else {
                    return fail("expected ',' or '}' in object");
                }
            } else {
                if (c == ']') {
                    cursor = p + 1;
                    ++si;
                    popFrame();
                } else if (c == ',') {
                    cursor = p + 1;
                    ++si;
                    path_.resize(f.pathLen);
                    appendIndex(f.nextIdx++);
                    st = kValue;
                } else {
                    return fail("expected ',' or ']' in array");
                }
            }
            continue;
        }

        // kMemberKey: expect a string key ('}' legal right after '{').
        if (si >= n)
            return fail("unterminated object");
        size_t p = pos[si];
        if (!wsOnly(cursor, p))
            return fail("expected string key");
        char c = d[p];
        if (c == '}' && allow_close) {
            cursor = p + 1;
            ++si;
            popFrame();
            st = kAfterValue;
            continue;
        }
        if (c != '"')
            return fail("expected string key");
        if (si + 1 >= n || d[pos[si + 1]] != '"')
            return fail("unterminated string");
        size_t close = pos[si + 1];
        // Decode the key straight onto the path prefix: one append
        // instead of scratch-buffer + copy.
        Frame &f = stack_.back();
        path_.resize(f.pathLen);
        if (!path_.empty())
            path_ += '.';
        size_t key_start = path_.size();
        if (!decodeAppend(d + p + 1, close - p - 1, path_))
            return false;
        // Duplicate keys mean last-wins overwrite at the first key's
        // position — a DOM mutation a streaming emitter cannot mimic.
        // Detect (conservatively, by hash) and let the DOM handle it.
        uint64_t h =
            fnv1a(path_.data() + key_start, path_.size() - key_start);
        for (size_t i = f.keyBase; i < key_hashes_.size(); ++i) {
            if (key_hashes_[i] == h) {
                needDom = true;
                return false;
            }
        }
        key_hashes_.push_back(h);
        cursor = close + 1;
        si += 2;
        if (si >= n)
            return fail("expected ':' after object key");
        size_t cp = pos[si];
        if (!wsOnly(cursor, cp) || d[cp] != ':')
            return fail("expected ':' after object key");
        cursor = cp + 1;
        ++si;
        st = kValue;
    }
    return true;
}

bool
TapeParser::domFallback(std::string_view doc, std::vector<FlatAttr> &out)
{
    ++fallbacks_;
    ParseResult res = parse(doc, max_depth_);
    if (!res.ok) {
        error_ = res.error;
        out.clear();
        return false;
    }
    if (!res.value.isObject()) {
        out.clear();
        return fail("top-level JSON value is not an object");
    }
    std::vector<FlatAttr> flat = json::flatten(res.value);
    out_n_ = 0;
    for (auto &fa : flat) {
        FlatAttr &slot = nextSlot(out);
        slot.path = std::move(fa.path);
        slot.value = std::move(fa.value);
    }
    out.resize(out_n_);
    return true;
}

bool
TapeParser::walk(std::string_view doc, std::vector<FlatAttr> &out)
{
    bool need_dom = false;
    if (walkImpl(doc, out, need_dom)) {
        out.resize(out_n_);
        return true;
    }
    if (need_dom)
        return domFallback(doc, out);
    out.clear();
    return false;
}

bool
TapeParser::flatten(std::string_view doc, std::vector<FlatAttr> &out)
{
    if (!index(doc)) {
        out.clear();
        return false;
    }
    return walk(doc, out);
}

} // namespace dvp::json
