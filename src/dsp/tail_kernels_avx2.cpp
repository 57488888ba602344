// AVX2 (256-bit) instantiations of the lane-templated analysis-tail
// kernels and of the mixer's tone-bank kernel (tone_kernels_impl.hpp).
// This is the only tail translation unit compiled with -mavx2
// (see CMakeLists.txt); runtime dispatch guards entry, and on builds
// without AVX2 support the entry points degrade to the SSE2 level so the
// symbols always link.
#include "dsp/tail_kernels_impl.hpp"
#include "dsp/tone_kernels_impl.hpp"

namespace witrack::dsp::tail::detail {

#if defined(__AVX2__)

void diff_magnitude_avx2(const double* cur_re, const double* cur_im,
                         double* prev_re, double* prev_im, double* out,
                         std::size_t n) {
    run_diff_magnitude_t<simd::AvxD>(cur_re, cur_im, prev_re, prev_im, out, n);
}

void scaled_diff_magnitude_avx2(const double* cur_re, const double* cur_im,
                                const double* ref_re, const double* ref_im,
                                double scale, double* out, std::size_t n) {
    run_scaled_diff_magnitude_t<simd::AvxD>(cur_re, cur_im, ref_re, ref_im,
                                            scale, out, n);
}

Moments extent_moments_avx2(const double* v, std::size_t lo, std::size_t hi,
                            double threshold, double bin_m) {
    return run_extent_moments_t<simd::AvxD>(v, lo, hi, threshold, bin_m);
}

std::size_t max_bin_avx2(const double* v, std::size_t n) {
    return run_max_bin_t<simd::AvxD>(v, n);
}

void peak_candidates_avx2(const double* v, std::size_t n, double threshold,
                          double* out) {
    run_peak_candidates_t<simd::AvxD>(v, n, threshold, out);
}

#else  // !__AVX2__

void diff_magnitude_avx2(const double* cur_re, const double* cur_im,
                         double* prev_re, double* prev_im, double* out,
                         std::size_t n) {
    diff_magnitude_sse2(cur_re, cur_im, prev_re, prev_im, out, n);
}

void scaled_diff_magnitude_avx2(const double* cur_re, const double* cur_im,
                                const double* ref_re, const double* ref_im,
                                double scale, double* out, std::size_t n) {
    scaled_diff_magnitude_sse2(cur_re, cur_im, ref_re, ref_im, scale, out, n);
}

Moments extent_moments_avx2(const double* v, std::size_t lo, std::size_t hi,
                            double threshold, double bin_m) {
    return extent_moments_sse2(v, lo, hi, threshold, bin_m);
}

std::size_t max_bin_avx2(const double* v, std::size_t n) {
    return max_bin_sse2(v, n);
}

void peak_candidates_avx2(const double* v, std::size_t n, double threshold,
                          double* out) {
    peak_candidates_sse2(v, n, threshold, out);
}

#endif  // __AVX2__

}  // namespace witrack::dsp::tail::detail

namespace witrack::dsp::tone {

void accumulate_avx2(const Tone* tones, std::size_t count, const double* ripple,
                     double* out, std::size_t n) {
#if defined(__AVX2__)
    run_tones_t<simd::AvxD>(tones, count, ripple, out, n);
#else
    accumulate_sse2(tones, count, ripple, out, n);
#endif
}

}  // namespace witrack::dsp::tone
