// Unit tests for src/common: FMCW parameter derivations (paper Eq. 1-4),
// unit conversions, the deterministic RNG and the framing CRC.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstring>
#include <random>
#include <vector>

#include "common/cli.hpp"
#include "common/constants.hpp"
#include "common/random.hpp"
#include "common/serialize.hpp"
#include "common/units.hpp"

namespace witrack {
namespace {

TEST(FmcwParams, PaperDefaultsMatchSection4) {
    FmcwParams p;
    EXPECT_DOUBLE_EQ(p.bandwidth_hz, 1.69e9);
    EXPECT_DOUBLE_EQ(p.sweep_duration_s, 2.5e-3);
    EXPECT_EQ(p.samples_per_sweep(), 2500u);
    EXPECT_EQ(p.sweeps_per_frame, 5u);
    EXPECT_NEAR(p.frame_duration_s(), 12.5e-3, 1e-12);
    EXPECT_NEAR(p.frame_rate_hz(), 80.0, 1e-9);
}

TEST(FmcwParams, RangeResolutionIsEightPointEightCentimeters) {
    // Eq. 3: resolution = C / 2B = 8.87 cm for B = 1.69 GHz.
    FmcwParams p;
    EXPECT_NEAR(p.range_resolution_m(), 0.0887, 0.0005);
}

TEST(FmcwParams, RoundTripBinIsTwiceTheResolution) {
    FmcwParams p;
    EXPECT_NEAR(p.round_trip_bin_m(), 2.0 * p.range_resolution_m(), 1e-9);
}

TEST(FmcwParams, SlopeMatchesBandwidthOverSweepTime) {
    FmcwParams p;
    EXPECT_NEAR(p.slope(), 1.69e9 / 2.5e-3, 1.0);
}

TEST(FmcwParams, BeatFrequencyFollowsEqOne) {
    // Eq. 1: TOF = df / slope. A 10 m round trip -> TOF = 33.36 ns.
    FmcwParams p;
    const double tof = 10.0 / kSpeedOfLight;
    const double beat = p.beat_frequency_hz(tof);
    EXPECT_NEAR(beat / p.slope(), tof, 1e-15);
}

TEST(FmcwParams, MaxRoundTripExceedsPaperSpectrogramRange) {
    // The paper's spectrograms (Fig. 3) display up to 30 m round trip; the
    // 1 MS/s digitizer must cover that unambiguously.
    FmcwParams p;
    EXPECT_GT(p.max_round_trip_m(), 30.0);
}

TEST(FmcwParams, ValidateRejectsBadConfigs) {
    FmcwParams p;
    p.bandwidth_hz = -1.0;
    EXPECT_THROW(p.validate(), std::invalid_argument);
    p = FmcwParams{};
    p.sweeps_per_frame = 0;
    EXPECT_THROW(p.validate(), std::invalid_argument);
    p = FmcwParams{};
    EXPECT_NO_THROW(p.validate());
}

TEST(Units, DbRoundTrip) {
    EXPECT_NEAR(from_db(to_db(123.456)), 123.456, 1e-9);
    EXPECT_NEAR(to_db(100.0), 20.0, 1e-12);
    EXPECT_NEAR(amplitude_to_db(10.0), 20.0, 1e-12);
}

TEST(Units, DbmWattRoundTrip) {
    EXPECT_NEAR(watt_to_dbm(0.75e-3), -1.2494, 1e-3);  // the paper's 0.75 mW
    EXPECT_NEAR(dbm_to_watt(watt_to_dbm(0.5)), 0.5, 1e-12);
}

TEST(Units, AngleConversions) {
    EXPECT_NEAR(deg_to_rad(180.0), M_PI, 1e-12);
    EXPECT_NEAR(rad_to_deg(M_PI / 2.0), 90.0, 1e-12);
    EXPECT_NEAR(wrap_angle(3.0 * M_PI), M_PI, 1e-9);
    EXPECT_NEAR(wrap_angle(-3.0 * M_PI), M_PI, 1e-9);
}

TEST(Rng, DeterministicForSameSeed) {
    Rng a(7), b(7);
    for (int i = 0; i < 100; ++i) EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
}

TEST(Rng, DifferentSeedsDiffer) {
    Rng a(7), b(8);
    int equal = 0;
    for (int i = 0; i < 100; ++i)
        if (a.uniform() == b.uniform()) ++equal;
    EXPECT_LT(equal, 5);
}

TEST(Rng, GaussianMoments) {
    Rng rng(123);
    double sum = 0.0, sum2 = 0.0;
    const int n = 200000;
    for (int i = 0; i < n; ++i) {
        const double v = rng.gaussian(2.0, 1.0);
        sum += v;
        sum2 += v * v;
    }
    const double mean = sum / n;
    const double var = sum2 / n - mean * mean;
    EXPECT_NEAR(mean, 1.0, 0.05);
    EXPECT_NEAR(var, 4.0, 0.1);
}

TEST(Rng, RayleighMean) {
    Rng rng(5);
    double sum = 0.0;
    const int n = 100000;
    for (int i = 0; i < n; ++i) sum += rng.rayleigh(1.0);
    EXPECT_NEAR(sum / n, std::sqrt(M_PI / 2.0), 0.02);
}

TEST(Rng, ForkedStreamsAreDecorrelated) {
    Rng parent(9);
    Rng a = parent.fork(0);
    Rng b = parent.fork(1);
    double corr = 0.0;
    const int n = 10000;
    for (int i = 0; i < n; ++i) corr += (a.uniform() - 0.5) * (b.uniform() - 0.5);
    EXPECT_NEAR(corr / n, 0.0, 0.01);
}

TEST(Rng, CanonicalConversionEdgeCases) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(Rng::canonical(0)),
              std::bit_cast<std::uint64_t>(0.0));
    EXPECT_EQ(Rng::canonical(std::uint64_t{1} << 63), 0.5);
    // 2^64-1 and 2^64-1024 both round to 2^64, i.e. 1.0: clamped below 1.
    const double below_one = std::nextafter(1.0, 0.0);
    EXPECT_EQ(Rng::canonical(~std::uint64_t{0}), below_one);
    EXPECT_EQ(Rng::canonical(~std::uint64_t{0} - 1023), below_one);
    EXPECT_EQ(Rng::canonical(~std::uint64_t{0} - 2047), below_one);  // exact
    EXPECT_EQ(Rng::canonical(~std::uint64_t{0} - 4095), 1.0 - 0x1p-52);
}

#if defined(__GLIBCXX__)

/// A "generator" that always returns one value: feeds a chosen 64-bit draw
/// into std::generate_canonical.
struct FixedBits {
    using result_type = std::uint64_t;
    static constexpr result_type min() { return 0; }
    static constexpr result_type max() { return ~result_type{0}; }
    result_type operator()() { return value; }
    result_type value;
};

TEST(Rng, CanonicalMatchesLibstdcxxGenerateCanonical) {
    std::vector<std::uint64_t> draws = {0,
                                        1,
                                        0xffff'ffffULL,
                                        std::uint64_t{1} << 32,
                                        (std::uint64_t{1} << 53) + 1,
                                        (std::uint64_t{1} << 63) - 1,
                                        std::uint64_t{1} << 63,
                                        (std::uint64_t{1} << 63) + 1,
                                        ~std::uint64_t{0} - 1024,
                                        ~std::uint64_t{0} - 1023,
                                        ~std::uint64_t{0}};
    std::mt19937_64 gen(42);
    for (int i = 0; i < 100000; ++i) draws.push_back(gen());
    for (const std::uint64_t u : draws) {
        FixedBits bits{u};
        const double expected = std::generate_canonical<double, 53>(bits);
        EXPECT_EQ(std::bit_cast<std::uint64_t>(Rng::canonical(u)),
                  std::bit_cast<std::uint64_t>(expected))
            << u;
    }
}

TEST(Rng, DrawsMatchFreshLibstdcxxDistributionsBitForBit) {
    // Rng::gaussian/uniform must consume the engine and round exactly like
    // a freshly constructed std::normal_distribution /
    // std::uniform_real_distribution on the same engine: the simulator's
    // frames and snapshots depend on that stream.
    constexpr std::size_t kDraws = 1'000'000;
    const double params[][2] = {{1.0, 0.0}, {2e-3, 0.0}, {0.37, -4.5}, {1e6, 3.0}};
    Rng rng(0xabcdef);
    std::mt19937_64 engine = rng.engine();
    std::vector<double> mine(kDraws), theirs(kDraws);
    for (std::size_t i = 0; i < kDraws; ++i) {
        const auto& [a, b] = params[i % 4];
        mine[i] = rng.gaussian(a, b);
        theirs[i] = std::normal_distribution<double>(b, a)(engine);
    }
    EXPECT_EQ(0, std::memcmp(mine.data(), theirs.data(), kDraws * sizeof(double)));
    EXPECT_TRUE(rng.engine() == engine);

    for (std::size_t i = 0; i < kDraws; ++i) {
        const auto& [a, b] = params[i % 4];
        const double lo = b;
        const double hi = b + a;
        mine[i] = rng.uniform(lo, hi);
        theirs[i] = std::uniform_real_distribution<double>(lo, hi)(engine);
    }
    EXPECT_EQ(0, std::memcmp(mine.data(), theirs.data(), kDraws * sizeof(double)));
    EXPECT_TRUE(rng.engine() == engine);
}

#endif  // __GLIBCXX__

/// Bytewise table CRC-32 (reflected 0xEDB88320): the reference the
/// slicing-by-8 implementation must agree with.
std::uint32_t bytewise_crc32(const unsigned char* p, std::size_t len, std::uint32_t crc) {
    crc = ~crc;
    for (std::size_t i = 0; i < len; ++i) {
        crc ^= p[i];
        for (int k = 0; k < 8; ++k) crc = (crc & 1u) ? 0xEDB88320u ^ (crc >> 1) : crc >> 1;
    }
    return ~crc;
}

TEST(Crc32, CheckValue) {
    EXPECT_EQ(common::crc32("123456789", 9), 0xCBF43926u);
    EXPECT_EQ(common::crc32(nullptr, 0), 0u);
}

TEST(Crc32, SlicingMatchesBytewiseAtEveryOffsetAndLength) {
    std::vector<unsigned char> buffer(16 + 100);
    std::mt19937_64 gen(7);
    for (auto& b : buffer) b = static_cast<unsigned char>(gen());
    for (std::size_t offset = 0; offset < 16; ++offset) {
        for (std::size_t len = 0; len <= 100; ++len) {
            const unsigned char* p = buffer.data() + offset;
            ASSERT_EQ(common::crc32(p, len), bytewise_crc32(p, len, 0))
                << "offset " << offset << " len " << len;
            // Chained through `crc`, split at every point: equal to one pass.
            const std::uint32_t whole = bytewise_crc32(p, len, 0x1234'5678u);
            for (std::size_t split = 0; split <= len; split += 7) {
                const std::uint32_t head = common::crc32(p, split, 0x1234'5678u);
                ASSERT_EQ(common::crc32(p + split, len - split, head), whole)
                    << "offset " << offset << " len " << len << " split " << split;
            }
        }
    }
}

TEST(Cli, ParsesKeyValueAndFlags) {
    const char* argv[] = {"prog", "--experiments", "17", "--csv", "/tmp/x.csv", "--quick"};
    CliArgs args(6, const_cast<char**>(argv));
    EXPECT_EQ(args.get_int("experiments", 0), 17);
    EXPECT_EQ(args.get("csv"), "/tmp/x.csv");
    EXPECT_TRUE(args.quick());
    EXPECT_FALSE(args.has("seconds"));
    EXPECT_EQ(args.get_int("seconds", 60), 60);
}

TEST(Cli, SeedDefaultsAndOverrides) {
    const char* argv[] = {"prog", "--seed", "1234"};
    CliArgs args(3, const_cast<char**>(argv));
    EXPECT_EQ(args.get_seed(), 1234u);
    CliArgs empty(0, nullptr);
    EXPECT_EQ(empty.get_seed(99), 99u);
}

TEST(Cli, ParseU64AcceptsOnlyPlainDigits) {
    std::uint64_t value = 7;
    EXPECT_TRUE(parse_u64("0", value));
    EXPECT_EQ(value, 0u);
    EXPECT_TRUE(parse_u64("18446744073709551615", value));
    EXPECT_EQ(value, UINT64_MAX);
    for (const char* bad : {"", "-1", "+1", " 1", "1 ", "12a", "0x10",
                            "18446744073709551616", "99999999999999999999"}) {
        value = 7;
        EXPECT_FALSE(parse_u64(bad, value)) << bad;
        EXPECT_EQ(value, 7u) << bad;  // untouched on failure
    }
}

}  // namespace
}  // namespace witrack
