// Width-agnostic SIMD lane layer for the FFT, analysis-tail and mixer
// kernels: a tiny set of lane structs (load/store/broadcast/add/sub/mul over
// a register of `width` elements) with scalar, SSE2 (128-bit) and AVX2
// (256-bit) implementations, plus the runtime dispatch level.
//
// The kernels are written once as templates over a lane struct
// (fft_kernels_impl.hpp, tail_kernels_impl.hpp, tone_kernels_impl.hpp).
// Each level's kernel table (dsp/kernels.hpp) is built from them in its own
// translation unit -- kernels_scalar.cpp, kernels_sse2.cpp and
// kernels_avx2.cpp, the last one the only file compiled with -mavx2 -- and
// dsp::kernels() picks the table of active() on every call. Every lane
// performs exactly the same IEEE-754 operations per element -- no FMA, no
// reassociation -- so all dispatch levels produce bit-identical results
// (asserted by tests/test_fft.cpp, test_tail.cpp and test_hw.cpp).
//
// The lanes have internal linkage, and so has every template instantiated
// over one: each translation unit keeps its own copies. An implicit
// instantiation with external linkage is COMDAT, and the linker could keep
// a ScalarD or SseD copy built under -mavx2 -- VEX code that faults on a
// CPU without AVX2 -- for the levels below. For the same reason the
// kernels avoid out-of-line library templates over double (std::bit_cast,
// std::copy, numeric_limits), which an unoptimized build emits as COMDAT.
// A build without an ISA aliases that lane to the next one down
// (SseD = ScalarD, AvxD = SseD), which points its table at the lower level.
//
// The WITRACK_SIMD environment variable (scalar | sse2 | avx2) clamps the
// active level below the detected one for testing and triage; requests the
// hardware cannot honor fall back to the best supported level.
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <type_traits>

#if defined(__SSE2__) || defined(__AVX2__)
#include <immintrin.h>
#endif

namespace witrack::dsp::simd {

/// Dispatch levels, ordered: higher levels strictly require the lower
/// ones' ISA. kSse2 is the x86-64 baseline; non-x86 builds detect kScalar.
enum class Level : int {
    kScalar = 0,
    kSse2 = 1,
    kAvx2 = 2,
};

/// "scalar" / "sse2" / "avx2".
const char* to_string(Level level) noexcept;

/// Best level this CPU supports (queried once, constant thereafter).
Level detect() noexcept;

/// The level whose table dsp::kernels() returns: detect(), clamped down by
/// the WITRACK_SIMD environment variable (read once, on first use) or by
/// the most recent force() call. Never above detect().
Level active() noexcept;

/// Test hook: override the active level (clamped to detect() -- forcing a
/// level the hardware lacks selects the best supported one instead).
/// Returns the level actually activated.
Level force(Level level) noexcept;

// ------------------------------------------------------------------ lanes
//
// A lane struct provides:
//   elem              -- the element type (double)
//   reg               -- the register type holding `width` elems
//   width             -- elements per register
//   load / store      -- unaligned contiguous access
//   set1              -- broadcast one element to all positions
//   add / sub / mul   -- elementwise IEEE-754 arithmetic
//   div / sqrt        -- correctly-rounded IEEE-754 divide / square root
//   min / max         -- x86 minpd/maxpd semantics: min(a,b) = a < b ? a : b,
//                        max(a,b) = a > b ? a : b (second operand wins on
//                        equal or NaN), emulated exactly by the scalar lane
//   cmplt/cmple/cmpgt/cmpge -- ordered compares producing an all-ones /
//                        all-zeros bit mask per element (false for NaN)
//   and_ / or_ / andnot -- bitwise mask ops (andnot(a, b) = ~a & b)
//   blend             -- blend(mask, a, b): a where the mask is set, b
//                        elsewhere (full-width masks only)
//
// div and sqrt are correctly rounded by IEEE-754, the compares and bit ops
// are exact, and min/max share one tie/NaN rule across lanes -- so the new
// ops keep the cross-level bit-identity contract the arithmetic trio set.

namespace {  // internal linkage: see the header comment

/// Width-1 fallback lane; also the tail lane of every vector loop.
template <class T>
struct Scalar {
    using elem = T;
    using reg = T;
    using bits = std::conditional_t<sizeof(T) == 8, std::uint64_t, std::uint32_t>;
    static constexpr std::size_t width = 1;
    static reg load(const elem* p) noexcept { return *p; }
    static void store(elem* p, reg v) noexcept { *p = v; }
    static reg set1(elem v) noexcept { return v; }
    static reg add(reg a, reg b) noexcept { return a + b; }
    static reg sub(reg a, reg b) noexcept { return a - b; }
    static reg mul(reg a, reg b) noexcept { return a * b; }
    static reg div(reg a, reg b) noexcept { return a / b; }
    static reg sqrt(reg a) noexcept { return std::sqrt(a); }
    static reg min(reg a, reg b) noexcept { return a < b ? a : b; }
    static reg max(reg a, reg b) noexcept { return a > b ? a : b; }
    static reg cmplt(reg a, reg b) noexcept { return mask(a < b); }
    static reg cmple(reg a, reg b) noexcept { return mask(a <= b); }
    static reg cmpgt(reg a, reg b) noexcept { return mask(a > b); }
    static reg cmpge(reg a, reg b) noexcept { return mask(a >= b); }
    static reg and_(reg a, reg b) noexcept {
        return from_bits(to_bits(a) & to_bits(b));
    }
    static reg or_(reg a, reg b) noexcept {
        return from_bits(to_bits(a) | to_bits(b));
    }
    static reg andnot(reg a, reg b) noexcept {
        return from_bits(~to_bits(a) & to_bits(b));
    }
    static reg blend(reg m, reg a, reg b) noexcept {
        return or_(and_(m, a), andnot(m, b));
    }

  private:
    static bits to_bits(reg v) noexcept { return __builtin_bit_cast(bits, v); }
    static reg from_bits(bits v) noexcept { return __builtin_bit_cast(reg, v); }
    static reg mask(bool b) noexcept { return from_bits(b ? ~bits{0} : bits{0}); }
};

using ScalarD = Scalar<double>;

#if defined(__SSE2__)
struct SseD {
    using elem = double;
    using reg = __m128d;
    static constexpr std::size_t width = 2;
    static reg load(const elem* p) noexcept { return _mm_loadu_pd(p); }
    static void store(elem* p, reg v) noexcept { _mm_storeu_pd(p, v); }
    static reg set1(elem v) noexcept { return _mm_set1_pd(v); }
    static reg add(reg a, reg b) noexcept { return _mm_add_pd(a, b); }
    static reg sub(reg a, reg b) noexcept { return _mm_sub_pd(a, b); }
    static reg mul(reg a, reg b) noexcept { return _mm_mul_pd(a, b); }
    static reg div(reg a, reg b) noexcept { return _mm_div_pd(a, b); }
    static reg sqrt(reg a) noexcept { return _mm_sqrt_pd(a); }
    static reg min(reg a, reg b) noexcept { return _mm_min_pd(a, b); }
    static reg max(reg a, reg b) noexcept { return _mm_max_pd(a, b); }
    static reg cmplt(reg a, reg b) noexcept { return _mm_cmplt_pd(a, b); }
    static reg cmple(reg a, reg b) noexcept { return _mm_cmple_pd(a, b); }
    static reg cmpgt(reg a, reg b) noexcept { return _mm_cmpgt_pd(a, b); }
    static reg cmpge(reg a, reg b) noexcept { return _mm_cmpge_pd(a, b); }
    static reg and_(reg a, reg b) noexcept { return _mm_and_pd(a, b); }
    static reg or_(reg a, reg b) noexcept { return _mm_or_pd(a, b); }
    static reg andnot(reg a, reg b) noexcept { return _mm_andnot_pd(a, b); }
    static reg blend(reg m, reg a, reg b) noexcept {
        return or_(and_(m, a), andnot(m, b));
    }
};
#else
using SseD = ScalarD;
#endif  // __SSE2__

#if defined(__AVX2__)
struct AvxD {
    using elem = double;
    using reg = __m256d;
    static constexpr std::size_t width = 4;
    static reg load(const elem* p) noexcept { return _mm256_loadu_pd(p); }
    static void store(elem* p, reg v) noexcept { _mm256_storeu_pd(p, v); }
    static reg set1(elem v) noexcept { return _mm256_set1_pd(v); }
    static reg add(reg a, reg b) noexcept { return _mm256_add_pd(a, b); }
    static reg sub(reg a, reg b) noexcept { return _mm256_sub_pd(a, b); }
    static reg mul(reg a, reg b) noexcept { return _mm256_mul_pd(a, b); }
    static reg div(reg a, reg b) noexcept { return _mm256_div_pd(a, b); }
    static reg sqrt(reg a) noexcept { return _mm256_sqrt_pd(a); }
    static reg min(reg a, reg b) noexcept { return _mm256_min_pd(a, b); }
    static reg max(reg a, reg b) noexcept { return _mm256_max_pd(a, b); }
    static reg cmplt(reg a, reg b) noexcept {
        return _mm256_cmp_pd(a, b, _CMP_LT_OQ);
    }
    static reg cmple(reg a, reg b) noexcept {
        return _mm256_cmp_pd(a, b, _CMP_LE_OQ);
    }
    static reg cmpgt(reg a, reg b) noexcept {
        return _mm256_cmp_pd(a, b, _CMP_GT_OQ);
    }
    static reg cmpge(reg a, reg b) noexcept {
        return _mm256_cmp_pd(a, b, _CMP_GE_OQ);
    }
    static reg and_(reg a, reg b) noexcept { return _mm256_and_pd(a, b); }
    static reg or_(reg a, reg b) noexcept { return _mm256_or_pd(a, b); }
    static reg andnot(reg a, reg b) noexcept { return _mm256_andnot_pd(a, b); }
    static reg blend(reg m, reg a, reg b) noexcept {
        return or_(and_(m, a), andnot(m, b));
    }
};
#else
using AvxD = SseD;
#endif  // __AVX2__

/// Vector-main + scalar-tail driver: runs `body` over [0, count) with lane
/// L for the aligned span and the width-1 lane of the same element type
/// for the remainder. `body` is a generic lambda invoked as body<V>(i).
template <class L, class Body>
inline void lane_loop(std::size_t count, Body&& body) {
    using S = Scalar<typename L::elem>;
    std::size_t i = 0;
    if constexpr (L::width > 1) {
        for (; i + L::width <= count; i += L::width)
            body.template operator()<L>(i);
    }
    for (; i < count; ++i) body.template operator()<S>(i);
}

}  // namespace

}  // namespace witrack::dsp::simd
