// Scalar instantiations of the analysis-tail kernels (plus the mixer's
// scalar tone-bank level) and the tail kernels' runtime dispatch (same
// structure as fft_kernels.cpp: per-ISA entry points live in their own
// translation units, simd::active() picks the level, and active() never
// exceeds detect(), so an ISA entry point is only reached on hardware that
// supports it).
#include "dsp/tail_kernels_impl.hpp"
#include "dsp/tone_kernels_impl.hpp"

namespace witrack::dsp::tail {

namespace detail {

// Scalar level: always available, and the tail lane of every vector loop.

void diff_magnitude_scalar(const double* cur_re, const double* cur_im,
                           double* prev_re, double* prev_im, double* out,
                           std::size_t n) {
    run_diff_magnitude_t<simd::ScalarD>(cur_re, cur_im, prev_re, prev_im, out, n);
}

void scaled_diff_magnitude_scalar(const double* cur_re, const double* cur_im,
                                  const double* ref_re, const double* ref_im,
                                  double scale, double* out, std::size_t n) {
    run_scaled_diff_magnitude_t<simd::ScalarD>(cur_re, cur_im, ref_re, ref_im,
                                               scale, out, n);
}

Moments extent_moments_scalar(const double* v, std::size_t lo, std::size_t hi,
                              double threshold, double bin_m) {
    return run_extent_moments_t<simd::ScalarD>(v, lo, hi, threshold, bin_m);
}

std::size_t max_bin_scalar(const double* v, std::size_t n) {
    return run_max_bin_t<simd::ScalarD>(v, n);
}

void peak_candidates_scalar(const double* v, std::size_t n, double threshold,
                            double* out) {
    run_peak_candidates_t<simd::ScalarD>(v, n, threshold, out);
}

}  // namespace detail

void diff_magnitude(const double* cur_re, const double* cur_im,
                    double* prev_re, double* prev_im, double* out,
                    std::size_t n) {
    switch (simd::active()) {
        case simd::Level::kAvx2:
            detail::diff_magnitude_avx2(cur_re, cur_im, prev_re, prev_im, out, n);
            return;
        case simd::Level::kSse2:
            detail::diff_magnitude_sse2(cur_re, cur_im, prev_re, prev_im, out, n);
            return;
        case simd::Level::kScalar: break;
    }
    detail::diff_magnitude_scalar(cur_re, cur_im, prev_re, prev_im, out, n);
}

void scaled_diff_magnitude(const double* cur_re, const double* cur_im,
                           const double* ref_re, const double* ref_im,
                           double scale, double* out, std::size_t n) {
    switch (simd::active()) {
        case simd::Level::kAvx2:
            detail::scaled_diff_magnitude_avx2(cur_re, cur_im, ref_re, ref_im,
                                               scale, out, n);
            return;
        case simd::Level::kSse2:
            detail::scaled_diff_magnitude_sse2(cur_re, cur_im, ref_re, ref_im,
                                               scale, out, n);
            return;
        case simd::Level::kScalar: break;
    }
    detail::scaled_diff_magnitude_scalar(cur_re, cur_im, ref_re, ref_im, scale,
                                         out, n);
}

Moments extent_moments(const double* v, std::size_t lo, std::size_t hi,
                       double threshold, double bin_m) {
    switch (simd::active()) {
        case simd::Level::kAvx2:
            return detail::extent_moments_avx2(v, lo, hi, threshold, bin_m);
        case simd::Level::kSse2:
            return detail::extent_moments_sse2(v, lo, hi, threshold, bin_m);
        case simd::Level::kScalar: break;
    }
    return detail::extent_moments_scalar(v, lo, hi, threshold, bin_m);
}

std::size_t max_bin(const double* v, std::size_t n) {
    switch (simd::active()) {
        case simd::Level::kAvx2: return detail::max_bin_avx2(v, n);
        case simd::Level::kSse2: return detail::max_bin_sse2(v, n);
        case simd::Level::kScalar: break;
    }
    return detail::max_bin_scalar(v, n);
}

void peak_candidates(const double* v, std::size_t n, double threshold,
                     double* out) {
    switch (simd::active()) {
        case simd::Level::kAvx2:
            detail::peak_candidates_avx2(v, n, threshold, out);
            return;
        case simd::Level::kSse2:
            detail::peak_candidates_sse2(v, n, threshold, out);
            return;
        case simd::Level::kScalar: break;
    }
    detail::peak_candidates_scalar(v, n, threshold, out);
}

}  // namespace witrack::dsp::tail

namespace witrack::dsp::tone {

// Scalar level: always available; its dispatch lives in hw/mixer.cpp.
void accumulate_scalar(const Tone* tones, std::size_t count, const double* ripple,
                       double* out, std::size_t n) {
    run_tones_t<simd::ScalarD>(tones, count, ripple, out, n);
}

}  // namespace witrack::dsp::tone
