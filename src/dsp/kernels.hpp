// The SIMD kernel table: one struct of function pointers per dispatch level
// for every lane-templated kernel -- the Pow2Kernel butterflies, the
// analysis-tail kernels and the dechirp mixer's tone bank.
//
// Each level's table is constinit and built in exactly one translation
// unit, from that level's lane only: kernels_scalar.cpp (baseline flags),
// kernels_sse2.cpp (baseline flags; SSE2 is the x86-64 baseline) and
// kernels_avx2.cpp (the only file built with -mavx2). kernels() is the one
// reader of simd::active() outside simd.cpp; the public entry points
// (Pow2Kernel::forward/forward_dense/inverse, tail::*,
// hw::DechirpMixer::synthesize) are one-line forwards through it.
#pragma once

#include <cstddef>

#include "dsp/tail_kernels.hpp"

namespace witrack::dsp {

class Pow2Kernel;

namespace tone {

/// One beat tone, fully resolved: the phasor at sample 0, its per-sample
/// rotation, the amplitude and the ripple scale (2*pi*A_r*tau; ignored
/// when the sweep has no ripple).
struct Tone {
    double re = 1.0;
    double im = 0.0;
    double rot_re = 1.0;
    double rot_im = 0.0;
    double amp = 0.0;
    double ripple_scale = 0.0;
};

}  // namespace tone

struct Kernels {
    /// Forward DFT reading only the input prefix [0, nzb); see
    /// Pow2Kernel::forward.
    void (*forward)(const Pow2Kernel& plan, double* xr, double* xi, double* wr,
                    double* wi, std::size_t nzb);
    void (*inverse)(const Pow2Kernel& plan, double* xr, double* xi, double* wr,
                    double* wi);
    // The analysis-tail kernels, documented in tail_kernels.hpp.
    void (*diff_magnitude)(const double* cur_re, const double* cur_im,
                           double* prev_re, double* prev_im, double* out,
                           std::size_t n);
    void (*scaled_diff_magnitude)(const double* cur_re, const double* cur_im,
                                  const double* ref_re, const double* ref_im,
                                  double scale, double* out, std::size_t n);
    tail::Moments (*extent_moments)(const double* v, std::size_t lo,
                                    std::size_t hi, double threshold,
                                    double bin_m);
    std::size_t (*max_bin)(const double* v, std::size_t n);
    void (*peak_candidates)(const double* v, std::size_t n, double threshold,
                            double* out);
    /// out[i] += the contribution of every tone, in tone order, for i in
    /// [0, n); a non-null `ripple` (n entries) selects the ripple variant.
    /// See tone_kernels_impl.hpp.
    void (*accumulate)(const tone::Tone* tones, std::size_t count,
                       const double* ripple, double* out, std::size_t n);
};

/// One table per level, each defined in its kernels_<level>.cpp.
extern const Kernels kScalarKernels;
extern const Kernels kSse2Kernels;
extern const Kernels kAvx2Kernels;

/// The table of simd::active(). The level is read on every call, so
/// simd::force() takes effect at once.
const Kernels& kernels() noexcept;

}  // namespace witrack::dsp
