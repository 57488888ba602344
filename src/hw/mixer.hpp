// Dechirping mixer: multiplies the received signal by the transmitted chirp
// and keeps the difference term, so each propagation path becomes a baseband
// beat tone at frequency slope * TOF (paper Eq. 1 and Fig. 7).
//
// The synthesis is analytic: for a linear sweep the beat phase of a path
// with delay tau is
//    phi(t) = 2*pi * (f0*tau + slope*tau*t - slope*tau^2/2) + path phase,
// and residual sweep nonlinearity adds the ripple term
//    delta(t) = 2*pi * A_r * tau * sin(2*pi*f_r*t + theta)
// (first order in the small ripple; see SweepLinearizer). Each tone is a
// complex phasor recurrence (one complex multiply per sample, renormalised
// every 512 samples). That recurrence is serial within a path, so the
// tone-bank kernel (dsp/tone_kernels_impl.hpp) runs four paths per pass
// across the SIMD lanes -- one AVX2 register, two SSE2 or four scalar --
// through the kernel table of the active level (dsp/kernels.hpp;
// WITRACK_SIMD caps it). Every path keeps its own arithmetic and each
// output sample adds the path contributions one at a time in path order,
// so the output is bit-identical to a path-at-a-time loop at every
// dispatch level.
#pragma once

#include <span>
#include <vector>

#include "common/constants.hpp"
#include "hw/pll.hpp"
#include "rf/path.hpp"

namespace witrack::hw {

class DechirpMixer {
  public:
    DechirpMixer(const witrack::FmcwParams& fmcw, SweepNonlinearity nonlinearity = {});

    /// Accumulate the baseband contribution of `paths` into `out`, which
    /// must have samples_per_sweep() elements. Accepts any contiguous
    /// buffer (e.g. a FrameBuffer sweep row).
    void synthesize(std::span<const witrack::rf::PropagationPath> paths,
                    std::span<double> out) const;

    /// Convenience: synthesize into a fresh zeroed buffer.
    std::vector<double> synthesize(
        std::span<const witrack::rf::PropagationPath> paths) const;

    const witrack::FmcwParams& params() const { return fmcw_; }
    const SweepNonlinearity& nonlinearity() const { return nonlinearity_; }

  private:
    witrack::FmcwParams fmcw_;
    SweepNonlinearity nonlinearity_;
    std::vector<double> ripple_table_;  // sin(2*pi*f_r*t_i + theta) per sample
};

}  // namespace witrack::hw
