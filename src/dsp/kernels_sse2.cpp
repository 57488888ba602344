// The SSE2 (128-bit) kernel table. Built with the library's baseline flags:
// SSE2 is the x86-64 baseline, so this file needs no -m option. A build
// without SSE2 aliases SseD to the scalar lane (simd.hpp).
#include "dsp/kernels.hpp"

#include "dsp/fft_kernels_impl.hpp"
#include "dsp/tail_kernels_impl.hpp"
#include "dsp/tone_kernels_impl.hpp"

namespace witrack::dsp {

constinit const Kernels kSse2Kernels = {
    .forward = &detail::run_forward_t<simd::SseD>,
    .inverse = &detail::run_inverse_t<simd::SseD>,
    .diff_magnitude = &tail::detail::run_diff_magnitude_t<simd::SseD>,
    .scaled_diff_magnitude = &tail::detail::run_scaled_diff_magnitude_t<simd::SseD>,
    .extent_moments = &tail::detail::run_extent_moments_t<simd::SseD>,
    .max_bin = &tail::detail::run_max_bin_t<simd::SseD>,
    .peak_candidates = &tail::detail::run_peak_candidates_t<simd::SseD>,
    .accumulate = &tone::run_tones_t<simd::SseD>,
};

}  // namespace witrack::dsp
