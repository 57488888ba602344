// The AVX2 (256-bit) kernel table: the only translation unit compiled with
// -mavx2 (x86 builds; see CMakeLists.txt). kernels() reaches it only after
// __builtin_cpu_supports("avx2") succeeded. It is also built with
// -ffp-contract=off, so no FMA is emitted and the level stays bit-identical
// to sse2 and scalar. A build without AVX2 aliases AvxD to SseD (simd.hpp).
#include "dsp/kernels.hpp"

#include "dsp/fft_kernels_impl.hpp"
#include "dsp/tail_kernels_impl.hpp"
#include "dsp/tone_kernels_impl.hpp"

namespace witrack::dsp {

constinit const Kernels kAvx2Kernels = {
    .forward = &detail::run_forward_t<simd::AvxD>,
    .inverse = &detail::run_inverse_t<simd::AvxD>,
    .diff_magnitude = &tail::detail::run_diff_magnitude_t<simd::AvxD>,
    .scaled_diff_magnitude = &tail::detail::run_scaled_diff_magnitude_t<simd::AvxD>,
    .extent_moments = &tail::detail::run_extent_moments_t<simd::AvxD>,
    .max_bin = &tail::detail::run_max_bin_t<simd::AvxD>,
    .peak_candidates = &tail::detail::run_peak_candidates_t<simd::AvxD>,
    .accumulate = &tone::run_tones_t<simd::AvxD>,
};

}  // namespace witrack::dsp
