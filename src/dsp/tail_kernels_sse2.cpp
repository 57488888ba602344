// SSE2 (128-bit) instantiations of the lane-templated analysis-tail
// kernels and of the mixer's tone-bank kernel (tone_kernels_impl.hpp).
// Built with the library's baseline flags: SSE2 is guaranteed on x86-64, so
// this translation unit needs no extra -m options. On targets without SSE2
// the entry points degrade to the scalar level (dispatch never selects
// kSse2 there, but the symbols must still link).
#include "dsp/tail_kernels_impl.hpp"
#include "dsp/tone_kernels_impl.hpp"

namespace witrack::dsp::tail::detail {

#if defined(__SSE2__)

void diff_magnitude_sse2(const double* cur_re, const double* cur_im,
                         double* prev_re, double* prev_im, double* out,
                         std::size_t n) {
    run_diff_magnitude_t<simd::SseD>(cur_re, cur_im, prev_re, prev_im, out, n);
}

void scaled_diff_magnitude_sse2(const double* cur_re, const double* cur_im,
                                const double* ref_re, const double* ref_im,
                                double scale, double* out, std::size_t n) {
    run_scaled_diff_magnitude_t<simd::SseD>(cur_re, cur_im, ref_re, ref_im,
                                            scale, out, n);
}

Moments extent_moments_sse2(const double* v, std::size_t lo, std::size_t hi,
                            double threshold, double bin_m) {
    return run_extent_moments_t<simd::SseD>(v, lo, hi, threshold, bin_m);
}

std::size_t max_bin_sse2(const double* v, std::size_t n) {
    return run_max_bin_t<simd::SseD>(v, n);
}

void peak_candidates_sse2(const double* v, std::size_t n, double threshold,
                          double* out) {
    run_peak_candidates_t<simd::SseD>(v, n, threshold, out);
}

#else  // !__SSE2__

void diff_magnitude_sse2(const double* cur_re, const double* cur_im,
                         double* prev_re, double* prev_im, double* out,
                         std::size_t n) {
    diff_magnitude_scalar(cur_re, cur_im, prev_re, prev_im, out, n);
}

void scaled_diff_magnitude_sse2(const double* cur_re, const double* cur_im,
                                const double* ref_re, const double* ref_im,
                                double scale, double* out, std::size_t n) {
    scaled_diff_magnitude_scalar(cur_re, cur_im, ref_re, ref_im, scale, out, n);
}

Moments extent_moments_sse2(const double* v, std::size_t lo, std::size_t hi,
                            double threshold, double bin_m) {
    return extent_moments_scalar(v, lo, hi, threshold, bin_m);
}

std::size_t max_bin_sse2(const double* v, std::size_t n) {
    return max_bin_scalar(v, n);
}

void peak_candidates_sse2(const double* v, std::size_t n, double threshold,
                          double* out) {
    peak_candidates_scalar(v, n, threshold, out);
}

#endif  // __SSE2__

}  // namespace witrack::dsp::tail::detail

namespace witrack::dsp::tone {

void accumulate_sse2(const Tone* tones, std::size_t count, const double* ripple,
                     double* out, std::size_t n) {
#if defined(__SSE2__)
    run_tones_t<simd::SseD>(tones, count, ripple, out, n);
#else
    accumulate_scalar(tones, count, ripple, out, n);
#endif
}

}  // namespace witrack::dsp::tone
