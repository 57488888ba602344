// The scalar kernel table, built at the library's baseline flags, and
// kernels(): the one place outside simd.cpp that reads the dispatch level.
#include "dsp/kernels.hpp"

#include "dsp/fft_kernels_impl.hpp"
#include "dsp/tail_kernels_impl.hpp"
#include "dsp/tone_kernels_impl.hpp"

namespace witrack::dsp {

constinit const Kernels kScalarKernels = {
    .forward = &detail::run_forward_t<simd::ScalarD>,
    .inverse = &detail::run_inverse_t<simd::ScalarD>,
    .diff_magnitude = &tail::detail::run_diff_magnitude_t<simd::ScalarD>,
    .scaled_diff_magnitude = &tail::detail::run_scaled_diff_magnitude_t<simd::ScalarD>,
    .extent_moments = &tail::detail::run_extent_moments_t<simd::ScalarD>,
    .max_bin = &tail::detail::run_max_bin_t<simd::ScalarD>,
    .peak_candidates = &tail::detail::run_peak_candidates_t<simd::ScalarD>,
    .accumulate = &tone::run_tones_t<simd::ScalarD>,
};

const Kernels& kernels() noexcept {
    // Indexed by simd::Level. active() never exceeds detect(), so a vector
    // table is only reached on hardware that runs it.
    static constexpr const Kernels* kByLevel[] = {&kScalarKernels, &kSse2Kernels,
                                                  &kAvx2Kernels};
    return *kByLevel[static_cast<int>(simd::active())];
}

}  // namespace witrack::dsp
