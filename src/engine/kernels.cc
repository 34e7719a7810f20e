#include "engine/kernels.hh"

#include <cstdlib>

#include "obs/metrics.hh"
#include "util/logging.hh"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define DVP_KERNELS_X86 1
#include <immintrin.h>
#endif

namespace dvp::engine::kernels
{

using storage::kNullSlot;
using storage::Slot;

namespace
{

/** Bits 63..62 == 01: positive with the string tag (isStringSlot). */
constexpr bool
slotIsStr(Slot s)
{
    return (static_cast<uint64_t>(s) >> 62) == 1;
}

constexpr bool
slotIsNum(Slot s)
{
    return s != kNullSlot && !slotIsStr(s);
}

// ---------------------------------------------------------------------
// Predicate policies: one branch-free slot test per op, shared by the
// scalar kernels, the AVX2 tails, and matchOne (so every form agrees
// by construction).
// ---------------------------------------------------------------------

struct EqP
{
    static bool ok(Slot s, Slot lo, Slot) { return s != kNullSlot && s == lo; }
};
struct NeP
{
    static bool ok(Slot s, Slot lo, Slot) { return s != kNullSlot && s != lo; }
};
struct LtP
{
    static bool ok(Slot s, Slot lo, Slot) { return slotIsNum(s) && s < lo; }
};
struct LeP
{
    static bool ok(Slot s, Slot lo, Slot) { return slotIsNum(s) && s <= lo; }
};
struct GtP
{
    static bool ok(Slot s, Slot lo, Slot) { return slotIsNum(s) && s > lo; }
};
struct GeP
{
    static bool ok(Slot s, Slot lo, Slot) { return slotIsNum(s) && s >= lo; }
};
struct BetweenP
{
    static bool
    ok(Slot s, Slot lo, Slot hi)
    {
        return slotIsNum(s) && s >= lo && s <= hi;
    }
};
struct IsNullP
{
    static bool ok(Slot s, Slot, Slot) { return s == kNullSlot; }
};
struct NotNullP
{
    static bool ok(Slot s, Slot, Slot) { return s != kNullSlot; }
};

/**
 * Scalar form: the candidate index is stored unconditionally and the
 * output cursor advances by the match bit, so the loop carries no
 * data-dependent branch (the compiler lowers P::ok to setcc/cmov).
 */
template <class P>
void
scalarScan(const Slot *col, size_t stride, size_t n, Slot lo, Slot hi,
           SelVec &sel)
{
    invariant(n <= kBatchRows, "kernel batch exceeds kBatchRows");
    uint32_t k = 0;
    for (size_t i = 0; i < n; ++i) {
        Slot s = col[i * stride];
        sel.idx[k] = static_cast<uint32_t>(i);
        k += P::ok(s, lo, hi) ? 1u : 0u;
    }
    sel.n = k;
}

#ifdef DVP_KERNELS_X86

#define DVP_AVX2 __attribute__((target("avx2")))

/**
 * Lane-compaction LUT: kCompactLut[mask] lists the set bit positions of
 * the 4-bit movemask densely (unused tail entries are overwritten by
 * the next store).
 */
alignas(16) constexpr uint32_t kCompactLut[16][4] = {
    {0, 0, 0, 0}, {0, 0, 0, 0}, {1, 0, 0, 0}, {0, 1, 0, 0},
    {2, 0, 0, 0}, {0, 2, 0, 0}, {1, 2, 0, 0}, {0, 1, 2, 0},
    {3, 0, 0, 0}, {0, 3, 0, 0}, {1, 3, 0, 0}, {0, 1, 3, 0},
    {2, 3, 0, 0}, {0, 2, 3, 0}, {1, 2, 3, 0}, {0, 1, 2, 3}};

/** Load 4 consecutive stripe elements starting at element @p i. */
DVP_AVX2 inline __m256i
load4(const Slot *col, size_t stride, size_t i)
{
    if (stride == 1)
        return _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(col + i));
    const __m256i vidx = _mm256_setr_epi64x(
        0, static_cast<int64_t>(stride),
        static_cast<int64_t>(2 * stride),
        static_cast<int64_t>(3 * stride));
    return _mm256_i64gather_epi64(
        reinterpret_cast<const long long *>(col + i * stride), vidx, 8);
}

/** All-ones per matching lane -> dense indices appended to sel. */
DVP_AVX2 inline uint32_t
compact4(__m256i match, size_t i, uint32_t k, SelVec &sel)
{
    int bits = _mm256_movemask_pd(_mm256_castsi256_pd(match));
    __m128i lanes = _mm_add_epi32(
        _mm_set1_epi32(static_cast<int>(i)),
        _mm_load_si128(
            reinterpret_cast<const __m128i *>(kCompactLut[bits])));
    _mm_storeu_si128(reinterpret_cast<__m128i *>(&sel.idx[k]), lanes);
    return k + static_cast<uint32_t>(__builtin_popcount(
                   static_cast<unsigned>(bits)));
}

/** numeric(s): not the NULL sentinel and not string-tagged. */
DVP_AVX2 inline __m256i
numericMask(__m256i v, __m256i vnull, __m256i vone)
{
    __m256i is_null = _mm256_cmpeq_epi64(v, vnull);
    __m256i is_str =
        _mm256_cmpeq_epi64(_mm256_srli_epi64(v, 62), vone);
    return _mm256_andnot_si256(_mm256_or_si256(is_null, is_str),
                               _mm256_set1_epi64x(-1));
}

/*
 * One AVX2 kernel per op: 4-slot steps of load/gather, vector compare,
 * movemask + LUT compaction; the sub-4 tail reuses the scalar policy.
 * MASK sees v / vlo / vhi / vnull / vone / vall bound in scope.
 */
#define DVP_DEFINE_AVX2_KERNEL(NAME, POLICY, MASK)                      \
    DVP_AVX2 void NAME(const Slot *col, size_t stride, size_t n,        \
                       Slot lo, Slot hi, SelVec &sel)                   \
    {                                                                   \
        invariant(n <= kBatchRows, "kernel batch exceeds kBatchRows");  \
        const __m256i vlo = _mm256_set1_epi64x(lo);                     \
        const __m256i vhi = _mm256_set1_epi64x(hi);                     \
        const __m256i vnull = _mm256_set1_epi64x(kNullSlot);            \
        const __m256i vone = _mm256_set1_epi64x(1);                     \
        const __m256i vall = _mm256_set1_epi64x(-1);                    \
        (void)vlo;                                                      \
        (void)vhi;                                                      \
        (void)vone;                                                     \
        (void)vall;                                                     \
        uint32_t k = 0;                                                 \
        size_t i = 0;                                                   \
        for (; i + 4 <= n; i += 4) {                                    \
            __m256i v = load4(col, stride, i);                          \
            __m256i m = (MASK);                                         \
            k = compact4(m, i, k, sel);                                 \
        }                                                               \
        for (; i < n; ++i) {                                            \
            Slot s = col[i * stride];                                   \
            sel.idx[k] = static_cast<uint32_t>(i);                      \
            k += POLICY::ok(s, lo, hi) ? 1u : 0u;                       \
        }                                                               \
        sel.n = k;                                                      \
    }

DVP_DEFINE_AVX2_KERNEL(
    avx2Eq, EqP,
    _mm256_andnot_si256(_mm256_cmpeq_epi64(v, vnull),
                        _mm256_cmpeq_epi64(v, vlo)))
DVP_DEFINE_AVX2_KERNEL(
    avx2Ne, NeP,
    _mm256_andnot_si256(
        _mm256_cmpeq_epi64(v, vnull),
        _mm256_andnot_si256(_mm256_cmpeq_epi64(v, vlo), vall)))
DVP_DEFINE_AVX2_KERNEL(
    avx2Lt, LtP,
    _mm256_and_si256(_mm256_cmpgt_epi64(vlo, v),
                     numericMask(v, vnull, vone)))
DVP_DEFINE_AVX2_KERNEL(
    avx2Le, LeP,
    _mm256_andnot_si256(_mm256_cmpgt_epi64(v, vlo),
                        numericMask(v, vnull, vone)))
DVP_DEFINE_AVX2_KERNEL(
    avx2Gt, GtP,
    _mm256_and_si256(_mm256_cmpgt_epi64(v, vlo),
                     numericMask(v, vnull, vone)))
DVP_DEFINE_AVX2_KERNEL(
    avx2Ge, GeP,
    _mm256_andnot_si256(_mm256_cmpgt_epi64(vlo, v),
                        numericMask(v, vnull, vone)))
DVP_DEFINE_AVX2_KERNEL(
    avx2Between, BetweenP,
    _mm256_and_si256(
        _mm256_andnot_si256(
            _mm256_or_si256(_mm256_cmpgt_epi64(vlo, v),
                            _mm256_cmpgt_epi64(v, vhi)),
            vall),
        numericMask(v, vnull, vone)))
DVP_DEFINE_AVX2_KERNEL(avx2IsNull, IsNullP,
                       _mm256_cmpeq_epi64(v, vnull))
DVP_DEFINE_AVX2_KERNEL(
    avx2NotNull, NotNullP,
    _mm256_andnot_si256(_mm256_cmpeq_epi64(v, vnull), vall))

#undef DVP_DEFINE_AVX2_KERNEL

#endif // DVP_KERNELS_X86

constexpr KernelFn kScalar[kPredOps] = {
    scalarScan<EqP>,      // Eq
    scalarScan<NeP>,      // Ne
    scalarScan<LtP>,      // Lt
    scalarScan<LeP>,      // Le
    scalarScan<GtP>,      // Gt
    scalarScan<GeP>,      // Ge
    scalarScan<BetweenP>, // Between
    scalarScan<EqP>,      // StrEq: same compare as Eq
    scalarScan<IsNullP>,  // IsNull
    scalarScan<NotNullP>, // NotNull
};

#ifdef DVP_KERNELS_X86
constexpr KernelFn kAvx2[kPredOps] = {
    avx2Eq, avx2Ne,      avx2Lt, avx2Le,     avx2Gt,
    avx2Ge, avx2Between, avx2Eq, avx2IsNull, avx2NotNull,
};
#endif

/** True when the CPU reports AVX2 (independent of the env override). */
bool
cpuHasAvx2()
{
#ifdef DVP_KERNELS_X86
    return __builtin_cpu_supports("avx2") != 0;
#else
    return false;
#endif
}

/**
 * Dispatch decision, made once per process: the AVX2 forms when the
 * CPU supports them and DVP_FORCE_SCALAR is unset/empty/"0".
 */
struct Dispatch
{
    bool simd;

    Dispatch() : simd(cpuHasAvx2())
    {
        const char *force = std::getenv("DVP_FORCE_SCALAR");
        if (force != nullptr && force[0] != '\0' && force[0] != '0')
            simd = false;
    }
};

const Dispatch &
dispatch()
{
    static const Dispatch d;
    return d;
}

} // namespace

const char *
predName(PredOp op)
{
    switch (op) {
      case PredOp::Eq:
        return "eq";
      case PredOp::Ne:
        return "ne";
      case PredOp::Lt:
        return "lt";
      case PredOp::Le:
        return "le";
      case PredOp::Gt:
        return "gt";
      case PredOp::Ge:
        return "ge";
      case PredOp::Between:
        return "between";
      case PredOp::StrEq:
        return "str_eq";
      case PredOp::IsNull:
        return "is_null";
      case PredOp::NotNull:
        return "not_null";
    }
    return "?";
}

Pred
fromCondition(const Condition &c)
{
    switch (c.op) {
      case CondOp::Eq:
      case CondOp::AnyEq:
        return Pred{storage::isStringSlot(c.lo) ? PredOp::StrEq
                                                : PredOp::Eq,
                    c.lo, c.lo};
      case CondOp::Between:
        return Pred{PredOp::Between, c.lo, c.hi};
      case CondOp::IsNull:
        return Pred{PredOp::IsNull, 0, 0};
      case CondOp::NotNull:
        return Pred{PredOp::NotNull, 0, 0};
      case CondOp::None:
        break;
    }
    panic("fromCondition needs a predicate condition");
}

bool
matchOne(const Pred &p, Slot s)
{
    switch (p.op) {
      case PredOp::Eq:
      case PredOp::StrEq:
        return EqP::ok(s, p.lo, p.hi);
      case PredOp::Ne:
        return NeP::ok(s, p.lo, p.hi);
      case PredOp::Lt:
        return LtP::ok(s, p.lo, p.hi);
      case PredOp::Le:
        return LeP::ok(s, p.lo, p.hi);
      case PredOp::Gt:
        return GtP::ok(s, p.lo, p.hi);
      case PredOp::Ge:
        return GeP::ok(s, p.lo, p.hi);
      case PredOp::Between:
        return BetweenP::ok(s, p.lo, p.hi);
      case PredOp::IsNull:
        return IsNullP::ok(s, p.lo, p.hi);
      case PredOp::NotNull:
        return NotNullP::ok(s, p.lo, p.hi);
    }
    return false;
}

KernelFn
scalarKernel(PredOp op)
{
    return kScalar[static_cast<size_t>(op)];
}

KernelFn
simdKernel(PredOp op)
{
#ifdef DVP_KERNELS_X86
    if (cpuHasAvx2())
        return kAvx2[static_cast<size_t>(op)];
#endif
    (void)op;
    return nullptr;
}

KernelFn
kernel(PredOp op)
{
#ifdef DVP_KERNELS_X86
    if (dispatch().simd)
        return kAvx2[static_cast<size_t>(op)];
#endif
    return kScalar[static_cast<size_t>(op)];
}

bool
simdActive()
{
    return dispatch().simd;
}

const char *
activeForm()
{
    return dispatch().simd ? "avx2" : "scalar";
}

void
countInvocation(PredOp op, bool simd)
{
    // Handles resolved once per (op, form); hot path is one relaxed add.
    struct Handles
    {
        obs::Counter *c[kPredOps][2];

        Handles()
        {
            auto &reg = obs::Registry::global();
            for (size_t i = 0; i < kPredOps; ++i) {
                auto op_i = static_cast<PredOp>(i);
                for (int f = 0; f < 2; ++f) {
                    std::string name =
                        std::string("dvp_kernel_invocations_total{"
                                    "kernel=\"") +
                        predName(op_i) + "\",form=\"" +
                        (f != 0 ? "avx2" : "scalar") + "\"}";
                    c[i][f] = &reg.counter(name);
                }
            }
        }
    };
    static Handles h;
    h.c[static_cast<size_t>(op)][simd ? 1 : 0]->add(1);
}

bool
zoneCanMatch(const Pred &p, const storage::ZoneEntry &z)
{
    switch (p.op) {
      case PredOp::IsNull:
        return z.nulls > 0;
      case PredOp::NotNull:
        return z.nonnull > 0;
      case PredOp::Eq:
      case PredOp::StrEq:
        return z.nonnull > 0 && p.lo >= z.min && p.lo <= z.max;
      case PredOp::Ne:
        // Only an all-equal block can be skipped.
        return z.nonnull > 0 && !(z.min == z.max && z.min == p.lo);
      case PredOp::Lt:
        return z.nonnull > 0 && z.min < p.lo;
      case PredOp::Le:
        return z.nonnull > 0 && z.min <= p.lo;
      case PredOp::Gt:
        return z.nonnull > 0 && z.max > p.lo;
      case PredOp::Ge:
        return z.nonnull > 0 && z.max >= p.lo;
      case PredOp::Between:
        return z.nonnull > 0 && z.max >= p.lo && z.min <= p.hi;
    }
    return true;
}

const char *
compressedPathName(CompressedPath path)
{
    switch (path) {
      case CompressedPath::RleRuns:
        return "rle_runs";
      case CompressedPath::PackTranslate:
        return "pack_translate";
      case CompressedPath::RawKernel:
        return "raw_kernel";
      case CompressedPath::Decompress:
        return "decompress";
    }
    return "?";
}

void
countCompressedEval(CompressedPath path)
{
    struct Handles
    {
        obs::Counter *c[kCompressedPaths];

        Handles()
        {
            auto &reg = obs::Registry::global();
            for (size_t i = 0; i < kCompressedPaths; ++i)
                c[i] = &reg.counter(
                    std::string("dvp_compressed_eval_total{path=\"") +
                    compressedPathName(static_cast<CompressedPath>(i)) +
                    "\"}");
        }
    };
    static Handles h;
    h.c[static_cast<size_t>(path)]->add(1);
}

namespace
{

/** True when @p op needs value *order*, not just identity/nullness. */
bool
isRangeOp(PredOp op)
{
    switch (op) {
      case PredOp::Lt:
      case PredOp::Le:
      case PredOp::Gt:
      case PredOp::Ge:
      case PredOp::Between:
        return true;
      default:
        return false;
    }
}

/** Emit [a, b) (block-relative) into @p sel, rebased to @p i0. */
void
emitSpan(size_t a, size_t b, size_t i0, SelVec &sel)
{
    for (size_t i = a; i < b; ++i)
        sel.idx[sel.n++] = static_cast<uint32_t>(i - i0);
}

CompressedPath
evalRle(const storage::ColBlock &cb, size_t i0, size_t i1,
        const Pred &p, SelVec &sel)
{
    sel.n = 0;
    const uint8_t *values = cb.bytes.data();
    const uint8_t *starts = values + size_t{cb.runs} * 8;
    auto runStart = [&](size_t r) {
        uint32_t s;
        std::memcpy(&s, starts + r * 4, sizeof s);
        return size_t{s};
    };
    // First run overlapping i0: the last run starting at or before i0.
    size_t lo = 0, hi = cb.runs;
    while (hi - lo > 1) {
        size_t mid = lo + (hi - lo) / 2;
        if (runStart(mid) <= i0)
            lo = mid;
        else
            hi = mid;
    }
    for (size_t r = lo; r < cb.runs; ++r) {
        size_t s0 = runStart(r);
        if (s0 >= i1)
            break;
        size_t s1 = r + 1 < cb.runs ? runStart(r + 1) : cb.rows;
        Slot v = static_cast<Slot>(
            storage::loadU64(values + r * 8));
        if (matchOne(p, v))
            emitSpan(std::max(s0, i0), std::min(s1, i1), i0, sel);
    }
    return CompressedPath::RleRuns;
}

/**
 * Pack: reduce @p p to an interval (or exclusion) in code space.
 * Returns false when the op cannot be answered on codes (a range op
 * over a block that may hold string-tagged slots).
 */
bool
evalPack(const storage::ColBlock &cb, size_t i0, size_t i1,
         const Pred &p, const storage::ZoneEntry &z, SelVec &sel)
{
    // The code mapping code = v - base + 1 is monotone over *all*
    // slot values, but range predicates additionally exclude
    // string-tagged slots; only a zone-certified string-free block
    // makes the code interval exact for them.
    bool may_have_strings =
        z.nonnull > 0 && z.max >= storage::kStringTag;
    if (isRangeOp(p.op) && may_have_strings)
        return false;

    using I128 = __int128;
    const I128 base = cb.base;
    const I128 cmax =
        (I128{1} << cb.width) - 1; // codes are width-bit values
    auto codeOf = [&](Slot v) { return I128{v} - base + 1; };

    // Interval [clo, chi] in code space; Ne is the one exclusion case.
    I128 clo = 1, chi = cmax;
    uint64_t ne_code = ~uint64_t{0}; // sentinel: matches no stored code
    bool ne_mode = false;
    switch (p.op) {
      case PredOp::Eq:
      case PredOp::StrEq:
        clo = chi = codeOf(p.lo);
        break;
      case PredOp::Ne: {
        ne_mode = true;
        I128 t = codeOf(p.lo);
        if (t >= 1 && t <= cmax)
            ne_code = static_cast<uint64_t>(t);
        break;
      }
      case PredOp::IsNull:
        clo = chi = 0;
        break;
      case PredOp::NotNull:
        break; // [1, cmax]
      case PredOp::Lt:
        chi = codeOf(p.lo) - 1;
        break;
      case PredOp::Le:
        chi = codeOf(p.lo);
        break;
      case PredOp::Gt:
        clo = codeOf(p.lo) + 1;
        break;
      case PredOp::Ge:
        clo = codeOf(p.lo);
        break;
      case PredOp::Between:
        clo = codeOf(p.lo);
        chi = codeOf(p.hi);
        break;
    }

    uint32_t k = 0;
    if (ne_mode) {
        for (size_t i = i0; i < i1; ++i) {
            uint64_t code = storage::packedCode(cb, i);
            sel.idx[k] = static_cast<uint32_t>(i - i0);
            k += (code != 0 && code != ne_code) ? 1u : 0u;
        }
        sel.n = k;
        return true;
    }

    // Clamp to representable codes; value ops never admit the NULL
    // escape (IsNull pinned [0, 0] above and stays there).
    if (p.op != PredOp::IsNull)
        clo = std::max<I128>(clo, 1);
    chi = std::min<I128>(chi, cmax);
    if (clo > chi) {
        sel.n = 0;
        return true;
    }
    const uint64_t lo64 = static_cast<uint64_t>(clo);
    const uint64_t hi64 = static_cast<uint64_t>(chi);
    for (size_t i = i0; i < i1; ++i) {
        uint64_t code = storage::packedCode(cb, i);
        sel.idx[k] = static_cast<uint32_t>(i - i0);
        k += (code >= lo64 && code <= hi64) ? 1u : 0u;
    }
    sel.n = k;
    return true;
}

} // namespace

CompressedPath
evalColBlock(const storage::ColBlock &cb, size_t i0, size_t i1,
             const Pred &p, const storage::ZoneEntry &z, Slot *scratch,
             SelVec &sel)
{
    invariant(i0 <= i1 && i1 <= cb.rows,
              "evalColBlock range exceeds the block");
    switch (cb.fmt) {
      case storage::BlockFmt::Raw: {
        const Slot *col =
            reinterpret_cast<const Slot *>(cb.bytes.data());
        kernel(p.op)(col + i0, 1, i1 - i0, p.lo, p.hi, sel);
        countInvocation(p.op, simdActive());
        return CompressedPath::RawKernel;
      }
      case storage::BlockFmt::Rle:
        return evalRle(cb, i0, i1, p, sel);
      case storage::BlockFmt::Pack:
        if (evalPack(cb, i0, i1, p, z, sel))
            return CompressedPath::PackTranslate;
        break;
    }
    // Materialize the block into the lane's scratch, then the kernel.
    storage::decompressColumn(cb, scratch);
    kernel(p.op)(scratch + i0, 1, i1 - i0, p.lo, p.hi, sel);
    countInvocation(p.op, simdActive());
    return CompressedPath::Decompress;
}

} // namespace dvp::engine::kernels
