// Lane-templated implementations of the analysis-tail kernels
// (tail_kernels.hpp), shared by every dispatch level. Same discipline as
// fft_kernels_impl.hpp: one template per kernel over the simd.hpp lane
// vocabulary, instantiated with its own lane only by each
// kernels_<level>.cpp (all built with -ffp-contract=off, so no level
// contracts a mul+add into an FMA) into that level's dsp::Kernels table.
//
// The elementwise kernels are bit-identical across levels because every
// op (sub, mul, add, correctly-rounded sqrt, exact compares and bit
// masks) is per-element. The reductions are bit-identical because they
// accumulate into a fixed logical layout of four slots -- slot s owns the
// elements with (i - start) % 4 == s, in index order -- whatever the
// register width (scalar runs four width-1 accumulators, SSE2 two
// two-wide, AVX2 one four-wide), and combine the slots with a fixed tree.
#pragma once

#include <cstddef>
#include <limits>

#include "dsp/simd.hpp"
#include "dsp/tail_kernels.hpp"

namespace witrack::dsp::tail::detail {

/// Logical accumulator width of the reductions: fixed so every dispatch
/// level performs the same per-slot accumulation sequence.
inline constexpr std::size_t kSlots = 4;

inline constexpr double kMinusInf = -std::numeric_limits<double>::infinity();

template <class L>
void run_diff_magnitude_t(const double* cur_re, const double* cur_im,
                          double* prev_re, double* prev_im, double* out,
                          std::size_t n) {
    simd::lane_loop<L>(n, [&]<class V>(std::size_t i) {
        const auto xr = V::load(cur_re + i);
        const auto xi = V::load(cur_im + i);
        const auto dr = V::sub(xr, V::load(prev_re + i));
        const auto di = V::sub(xi, V::load(prev_im + i));
        V::store(out + i,
                 V::sqrt(V::add(V::mul(dr, dr), V::mul(di, di))));
        V::store(prev_re + i, xr);
        V::store(prev_im + i, xi);
    });
}

template <class L>
void run_scaled_diff_magnitude_t(const double* cur_re, const double* cur_im,
                                 const double* ref_re, const double* ref_im,
                                 double scale, double* out, std::size_t n) {
    simd::lane_loop<L>(n, [&]<class V>(std::size_t i) {
        const auto s = V::set1(scale);
        const auto dr = V::sub(V::load(cur_re + i), V::mul(V::load(ref_re + i), s));
        const auto di = V::sub(V::load(cur_im + i), V::mul(V::load(ref_im + i), s));
        V::store(out + i,
                 V::sqrt(V::add(V::mul(dr, dr), V::mul(di, di))));
    });
}

template <class L>
Moments run_extent_moments_t(const double* v, std::size_t lo, std::size_t hi,
                             double threshold, double bin_m) {
    Moments result;
    if (lo >= hi) return result;
    static_assert(kSlots % L::width == 0);
    constexpr std::size_t R = kSlots / L::width;
    using reg = typename L::reg;
    using S = simd::Scalar<double>;

    const reg thr = L::set1(threshold);
    const reg bm = L::set1(bin_m);
    const reg step = L::set1(static_cast<double>(kSlots));
    double init[kSlots];
    for (std::size_t s = 0; s < kSlots; ++s)
        init[s] = static_cast<double>(lo + s);

    reg wsum[R], m1[R], m2[R], idx[R];
    for (std::size_t r = 0; r < R; ++r) {
        wsum[r] = L::set1(0.0);
        m1[r] = L::set1(0.0);
        m2[r] = L::set1(0.0);
        idx[r] = L::load(init + r * L::width);
    }

    std::size_t i = lo;
    for (; i + kSlots <= hi; i += kSlots) {
        for (std::size_t r = 0; r < R; ++r) {
            const reg x = L::load(v + i + r * L::width);
            // Exclusion is v < t, so NaN magnitudes stay included -- the
            // mask must be andnot(lt), not a cmpge.
            const reg w = L::andnot(L::cmplt(x, thr), L::mul(x, x));
            const reg d = L::mul(idx[r], bm);
            const reg wd = L::mul(w, d);
            wsum[r] = L::add(wsum[r], w);
            m1[r] = L::add(m1[r], wd);
            m2[r] = L::add(m2[r], L::mul(wd, d));
            idx[r] = L::add(idx[r], step);
        }
    }

    double sw[kSlots], s1[kSlots], s2[kSlots];
    for (std::size_t r = 0; r < R; ++r) {
        L::store(sw + r * L::width, wsum[r]);
        L::store(s1 + r * L::width, m1[r]);
        L::store(s2 + r * L::width, m2[r]);
    }

    // Tail (< kSlots elements), same masked-add formulation into the slot
    // the element would own; i - lo is a multiple of kSlots here.
    for (std::size_t t = 0; i + t < hi; ++t) {
        const std::size_t j = i + t;
        const double x = v[j];
        const double w = S::andnot(S::cmplt(x, threshold), x * x);
        const double d = static_cast<double>(j) * bin_m;
        const double wd = w * d;
        sw[t] += w;
        s1[t] += wd;
        s2[t] += wd * d;
    }

    result.w_sum = (sw[0] + sw[1]) + (sw[2] + sw[3]);
    result.m1 = (s1[0] + s1[1]) + (s1[2] + s1[3]);
    result.m2 = (s2[0] + s2[1]) + (s2[2] + s2[3]);
    return result;
}

template <class L>
std::size_t run_max_bin_t(const double* v, std::size_t n) {
    if (n == 0) return 0;
    static_assert(kSlots % L::width == 0);
    constexpr std::size_t R = kSlots / L::width;
    using reg = typename L::reg;
    using S = simd::Scalar<double>;

    reg best[R];
    for (std::size_t r = 0; r < R; ++r)
        best[r] = L::set1(kMinusInf);

    std::size_t i = 0;
    for (; i + kSlots <= n; i += kSlots)
        for (std::size_t r = 0; r < R; ++r)
            best[r] = L::max(best[r], L::load(v + i + r * L::width));

    double slots[kSlots];
    for (std::size_t r = 0; r < R; ++r)
        L::store(slots + r * L::width, best[r]);
    for (std::size_t t = 0; i + t < n; ++t)
        slots[t] = S::max(slots[t], v[i + t]);

    const double m =
        S::max(S::max(slots[0], slots[1]), S::max(slots[2], slots[3]));
    for (std::size_t j = 0; j < n; ++j)
        if (v[j] == m) return j;
    return 0;  // all-NaN band: no index compares equal
}

template <class L>
void run_peak_candidates_t(const double* v, std::size_t n, double threshold,
                           double* out) {
    if (n < 3) {
        for (std::size_t i = 0; i < n; ++i) out[i] = 0.0;
        return;
    }
    out[0] = 0.0;
    out[n - 1] = 0.0;
    // Interior predicate over i in [1, n-1); the unaligned neighbor loads
    // keep it a single streaming pass.
    simd::lane_loop<L>(n - 2, [&]<class V>(std::size_t k) {
        const std::size_t i = k + 1;
        const auto x = V::load(v + i);
        const auto above = // !(x < t): NaN stays a candidate for the
                           // rising test to reject, as in the scalar scan
            V::andnot(V::cmplt(x, V::set1(threshold)),
                      V::and_(V::cmpgt(x, V::load(v + i - 1)),
                              V::cmpge(x, V::load(v + i + 1))));
        V::store(out + i, V::and_(above, V::set1(1.0)));
    });
}

}  // namespace witrack::dsp::tail::detail
