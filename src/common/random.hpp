// Deterministic random number generation. Every stochastic component in the
// simulator draws from an explicitly seeded Rng so experiments reproduce
// bit-for-bit across runs.
#pragma once

#include <cmath>
#include <cstdint>
#include <random>

namespace witrack {

/// Seedable random source wrapping a 64-bit Mersenne Twister.
///
/// Components that need independent streams derive them with fork(), which
/// produces a generator decorrelated from (but deterministically derived
/// from) its parent.
class Rng {
  public:
    explicit Rng(std::uint64_t seed = 0x5eed'ca11'f00d'beefULL) : engine_(seed) {}

    /// Uniform double in [0, 1) from one 64-bit draw: the value libstdc++'s
    /// generate_canonical<double, 53> returns for this engine -- the draw
    /// rounded to double, scaled by 2^-64, clamped below 1 -- but converted
    /// without the branch on the draw's top bit that a plain uint64 -> double
    /// conversion costs: both 32-bit halves convert exactly, so the one
    /// rounding is the sum's.
    static double canonical(std::uint64_t bits) {
        const auto hi = static_cast<std::int64_t>(bits >> 32);
        const auto lo = static_cast<std::int64_t>(bits & 0xffff'ffffULL);
        const double x =
            (static_cast<double>(hi) * 0x1p32 + static_cast<double>(lo)) * 0x1p-64;
        return x >= 1.0 ? 0x1.fffffffffffffp-1 : x;  // nextafter(1, 0)
    }
    double canonical() { return canonical(engine_()); }

    /// Uniform double in [lo, hi); bit-identical to a fresh
    /// std::uniform_real_distribution<double>(lo, hi) under libstdc++.
    double uniform(double lo = 0.0, double hi = 1.0) {
        return canonical() * (hi - lo) + lo;
    }

    /// Gaussian with the given standard deviation: libstdc++'s
    /// normal_distribution polar method written out in its order (x, then
    /// y, reject r2 > 1 or r2 == 0), so the engine advances and the value
    /// rounds exactly as a fresh std::normal_distribution<double>(mean,
    /// stddev) would. The pair's second value (x * mult) is discarded, as
    /// the fresh distribution discarded it.
    double gaussian(double stddev = 1.0, double mean = 0.0) {
        double x, y, r2;
        do {
            x = 2.0 * canonical() - 1.0;
            y = 2.0 * canonical() - 1.0;
            r2 = x * x + y * y;
        } while (r2 > 1.0 || r2 == 0.0);
        const double mult = std::sqrt(-2 * std::log(r2) / r2);
        return y * mult * stddev + mean;
    }

    /// Rayleigh-distributed magnitude with the given scale parameter; used
    /// for Swerling-style radar-cross-section scintillation.
    double rayleigh(double sigma) {
        const double u = std::max(1e-12, uniform());
        return sigma * std::sqrt(-2.0 * std::log(u));
    }

    /// Exponential with the given mean.
    double exponential(double mean) {
        return std::exponential_distribution<double>(1.0 / mean)(engine_);
    }

    /// Uniform integer in [lo, hi] inclusive.
    int uniform_int(int lo, int hi) {
        return std::uniform_int_distribution<int>(lo, hi)(engine_);
    }

    /// Bernoulli trial.
    bool chance(double probability) { return uniform() < probability; }

    /// Derive an independent child generator. Mixes the label with splitmix64
    /// so fork(0) and fork(1) are decorrelated.
    Rng fork(std::uint64_t label) {
        std::uint64_t x = engine_() ^ (0x9e3779b97f4a7c15ULL + label);
        x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
        x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
        return Rng(x ^ (x >> 31));
    }

    std::mt19937_64& engine() { return engine_; }
    const std::mt19937_64& engine() const { return engine_; }

  private:
    std::mt19937_64 engine_;
};

}  // namespace witrack
