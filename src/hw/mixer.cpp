#include "hw/mixer.hpp"

#include <cmath>
#include <stdexcept>

#include "dsp/kernels.hpp"

namespace witrack::hw {

using witrack::rf::PropagationPath;

DechirpMixer::DechirpMixer(const witrack::FmcwParams& fmcw, SweepNonlinearity nonlinearity)
    : fmcw_(fmcw), nonlinearity_(nonlinearity) {
    fmcw_.validate();
    if (!nonlinearity_.negligible()) {
        const std::size_t n = fmcw_.samples_per_sweep();
        ripple_table_.resize(n);
        for (std::size_t i = 0; i < n; ++i) {
            const double t = static_cast<double>(i) / fmcw_.sample_rate_hz;
            ripple_table_[i] =
                std::sin(2.0 * M_PI * nonlinearity_.ripple_frequency_hz * t +
                         nonlinearity_.phase_rad);
        }
    }
}

void DechirpMixer::synthesize(std::span<const PropagationPath> paths,
                              std::span<double> out) const {
    const std::size_t n = fmcw_.samples_per_sweep();
    if (out.size() != n) throw std::invalid_argument("DechirpMixer: bad buffer size");

    const double slope = fmcw_.slope();
    const double fs = fmcw_.sample_rate_hz;

    std::vector<dsp::tone::Tone> tones;
    tones.reserve(paths.size());
    for (const auto& path : paths) {
        if (path.amplitude <= 0.0) continue;
        const double tau = path.round_trip_m / kSpeedOfLight;
        const double beat_hz = slope * tau;
        // Phase at t = 0: carrier-delay term minus the residual video phase.
        const double phi0 = 2.0 * M_PI * (fmcw_.start_frequency_hz * tau -
                                          0.5 * slope * tau * tau) +
                            path.phase_rad;
        const double dphi = 2.0 * M_PI * beat_hz / fs;
        // cos(theta + delta) ~ cos(theta) - delta*sin(theta) with
        // delta(t) = 2*pi*A_r*tau*ripple(t); |delta| << 1 for realistic
        // PLL residuals.
        const double ripple_scale = 2.0 * M_PI * nonlinearity_.ripple_amplitude_hz * tau;
        tones.push_back({std::cos(phi0), std::sin(phi0), std::cos(dphi), std::sin(dphi),
                         path.amplitude, ripple_scale});
    }

    const double* ripple = ripple_table_.empty() ? nullptr : ripple_table_.data();
    dsp::kernels().accumulate(tones.data(), tones.size(), ripple, out.data(), n);
}

std::vector<double> DechirpMixer::synthesize(
    std::span<const PropagationPath> paths) const {
    std::vector<double> out(fmcw_.samples_per_sweep(), 0.0);
    synthesize(paths, out);
    return out;
}

}  // namespace witrack::hw
