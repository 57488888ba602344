// Physical constants and the FMCW radar parameter set used throughout
// WiTrack (paper Section 4.1 and Section 7).
#pragma once

#include <cmath>
#include <cstddef>
#include <stdexcept>

namespace witrack {

/// Speed of light in vacuum [m/s].
inline constexpr double kSpeedOfLight = 299'792'458.0;

/// Boltzmann constant [J/K], for the thermal noise floor kTB.
inline constexpr double kBoltzmann = 1.380649e-23;

/// Reference temperature for noise calculations [K].
inline constexpr double kReferenceTemperatureK = 290.0;

/// Parameters of the FMCW sweep and digitizer. Defaults follow the paper:
/// a 1.69 GHz sweep from 5.56 GHz to 7.25 GHz, 2.5 ms sweep period,
/// 0.75 mW transmit power, baseband sampled at 1 MS/s by the USRP LFRX-LF,
/// and 5 consecutive sweeps coherently averaged into one FFT frame.
struct FmcwParams {
    double start_frequency_hz = 5.56e9;
    double bandwidth_hz = 1.69e9;
    double sweep_duration_s = 2.5e-3;
    double sample_rate_hz = 1.0e6;
    double tx_power_w = 0.75e-3;
    std::size_t sweeps_per_frame = 5;

    /// Chirp slope [Hz/s]: the carrier advances this fast during a sweep.
    constexpr double slope() const { return bandwidth_hz / sweep_duration_s; }

    /// Number of baseband samples captured during one sweep.
    constexpr std::size_t samples_per_sweep() const {
        return static_cast<std::size_t>(sweep_duration_s * sample_rate_hz + 0.5);
    }

    /// Duration of one averaged FFT frame [s] (5 sweeps -> 12.5 ms).
    constexpr double frame_duration_s() const {
        return sweep_duration_s * static_cast<double>(sweeps_per_frame);
    }

    /// Frames produced per second (80 Hz with default parameters).
    constexpr double frame_rate_hz() const { return 1.0 / frame_duration_s(); }

    /// Centre frequency of the sweep [Hz].
    constexpr double center_frequency_hz() const {
        return start_frequency_hz + bandwidth_hz / 2.0;
    }

    /// Wavelength at the centre frequency [m].
    constexpr double center_wavelength_m() const {
        return kSpeedOfLight / center_frequency_hz();
    }

    /// FFT bin width [Hz]: one bin of an FFT taken over a full sweep.
    constexpr double fft_bin_hz() const { return 1.0 / sweep_duration_s; }

    /// Round-trip distance spanned by one FFT bin [m] (Eq. 4):
    /// distance = C * df / slope.
    constexpr double round_trip_bin_m() const {
        return kSpeedOfLight * fft_bin_hz() / slope();
    }

    /// One-way range resolution C/2B [m] (Eq. 3): 8.87 cm with defaults.
    constexpr double range_resolution_m() const {
        return kSpeedOfLight / (2.0 * bandwidth_hz);
    }

    /// Largest unambiguous round-trip distance [m], limited by the baseband
    /// Nyquist frequency: beat tones above fs/2 alias.
    constexpr double max_round_trip_m() const {
        return kSpeedOfLight * (sample_rate_hz / 2.0) / slope();
    }

    /// Beat frequency produced by a path with the given round-trip delay
    /// [Hz] (Eq. 1 rearranged: df = slope * TOF).
    constexpr double beat_frequency_hz(double round_trip_delay_s) const {
        return slope() * round_trip_delay_s;
    }

    /// Validate physical consistency; throws std::invalid_argument.
    void validate() const {
        // NaN passes every `<= 0` test below, so reject non-finite fields
        // first.
        if (!std::isfinite(start_frequency_hz) || !std::isfinite(bandwidth_hz) ||
            !std::isfinite(sweep_duration_s) || !std::isfinite(sample_rate_hz) ||
            !std::isfinite(tx_power_w))
            throw std::invalid_argument("FmcwParams: non-finite parameter");
        if (bandwidth_hz <= 0 || sweep_duration_s <= 0 || sample_rate_hz <= 0)
            throw std::invalid_argument("FmcwParams: non-positive sweep parameter");
        if (tx_power_w <= 0)
            throw std::invalid_argument("FmcwParams: non-positive transmit power");
        if (sweeps_per_frame == 0)
            throw std::invalid_argument("FmcwParams: sweeps_per_frame must be >= 1");
        // samples_per_sweep() casts to size_t: the count must be exact in a
        // double (so the cast is defined) before it is taken.
        if (!(sweep_duration_s * sample_rate_hz < 0x1p53))
            throw std::invalid_argument("FmcwParams: too many samples per sweep");
        if (samples_per_sweep() < 16)
            throw std::invalid_argument("FmcwParams: sweep too short for the sample rate");
    }
};

}  // namespace witrack
