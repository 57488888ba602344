// SIMD kernels for the post-FFT analysis tail (paper Sections 4.2-4.4):
// fused background-subtract + magnitude over SoA re/im planes, masked
// power-moment accumulation for the contour extent, the band max scan and
// the local-maximum candidate mask behind dsp::find_peaks.
//
// Same contract as the FFT kernel engine (fft_kernels.hpp): every dispatch
// level (scalar / SSE2 / AVX2, one dsp::Kernels table each) performs the
// same IEEE-754 operations per element, so all levels are bit-identical --
// asserted by tests/test_tail.cpp. The reductions (extent_moments,
// max_bin) keep a fixed logical width of four accumulator slots regardless
// of register width, with a fixed combine tree, so even the accumulation
// order is ISA-independent.
//
// The magnitude contract is sqrt(re^2 + im^2): squares and sum each round
// once and sqrt is correctly rounded, so the result sits within ~2.5 ulp
// of the mathematically exact magnitude (the accuracy-budget test gates
// this against std::abs/hypot) and, unlike hypot, vectorizes.
#pragma once

#include <cstddef>

namespace witrack::dsp::tail {

/// out[i] = sqrt((cur_re[i]-prev_re[i])^2 + (cur_im[i]-prev_im[i])^2),
/// then prev <- cur: one fused pass over the frame-diff background
/// subtraction (Section 4.2) including the history update.
void diff_magnitude(const double* cur_re, const double* cur_im,
                    double* prev_re, double* prev_im, double* out,
                    std::size_t n);

/// out[i] = sqrt((cur_re[i]-ref_re[i]*scale)^2 + (cur_im[i]-ref_im[i]*scale)^2):
/// the static-training mode's subtraction against the scaled learned mean.
void scaled_diff_magnitude(const double* cur_re, const double* cur_im,
                           const double* ref_re, const double* ref_im,
                           double scale, double* out, std::size_t n);

/// Masked power moments of v over [lo, hi): elements with v[i] < threshold
/// are excluded (NaN is included, matching the scalar `if (v < t) continue`
/// it replaces); included elements contribute w = v^2 at abscissa
/// d = i * bin_m into w_sum, m1 = sum(w*d) and m2 = sum(w*d*d).
struct Moments {
    double w_sum = 0.0;
    double m1 = 0.0;
    double m2 = 0.0;
};
Moments extent_moments(const double* v, std::size_t lo, std::size_t hi,
                       double threshold, double bin_m);

/// First index of the maximum of v[0..n) (the index a forward strict->
/// scan would keep). n == 0 returns 0.
std::size_t max_bin(const double* v, std::size_t n);

/// Local-maximum candidate mask: out[i] = 1.0 when v[i] clears the
/// threshold (NaN included, as above), rises strictly above v[i-1] and
/// does not fall into v[i+1] -- the find_peaks candidate predicate -- and
/// 0.0 otherwise. out[0] and out[n-1] are 0.0; n < 3 zero-fills. `out`
/// must hold n doubles.
void peak_candidates(const double* v, std::size_t n, double threshold,
                     double* out);

}  // namespace witrack::dsp::tail
