/** @file Open-loop arrival process tests: determinism per seed,
 *  finite clamped draws, mean-rate sanity, and config validation
 *  (notably the rate=0 divide-by-zero and the bursty mean-preserving
 *  constraint). */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "common/logging.h"
#include "data/arrival.h"

namespace sp::data
{
namespace
{

std::vector<double>
drawTimes(const ArrivalConfig &config, uint64_t seed, size_t n)
{
    ArrivalProcess process(config, seed);
    std::vector<double> times;
    times.reserve(n);
    for (size_t i = 0; i < n; ++i)
        times.push_back(process.next());
    return times;
}

TEST(Arrival, KindNamesRoundTrip)
{
    for (ArrivalKind kind : {ArrivalKind::Poisson, ArrivalKind::Uniform,
                             ArrivalKind::Bursty})
        EXPECT_EQ(arrivalKindFromName(arrivalKindName(kind)), kind);
    EXPECT_THROW(arrivalKindFromName("lognormal"), FatalError);
}

TEST(Arrival, DeterministicPerSeedAndDisjointAcrossSeeds)
{
    ArrivalConfig config;
    config.rate = 1e6;
    const std::vector<double> a = drawTimes(config, 7, 256);
    const std::vector<double> b = drawTimes(config, 7, 256);
    EXPECT_EQ(a, b); // bit-identical replay
    const std::vector<double> c = drawTimes(config, 8, 256);
    EXPECT_NE(a, c);
}

TEST(Arrival, TimesAreFiniteAndStrictlyIncreasing)
{
    // The uniform draw is clamped to (0, 1]: -ln(u) is finite, so no
    // gap is ever infinite, and Poisson gaps are strictly positive.
    for (ArrivalKind kind : {ArrivalKind::Poisson, ArrivalKind::Uniform,
                             ArrivalKind::Bursty}) {
        ArrivalConfig config;
        config.kind = kind;
        config.rate = 1e6;
        const std::vector<double> times = drawTimes(config, 1234, 4096);
        double previous = 0.0;
        for (double t : times) {
            ASSERT_TRUE(std::isfinite(t));
            ASSERT_GT(t, previous);
            previous = t;
        }
    }
}

TEST(Arrival, PoissonMeanRateIsClose)
{
    ArrivalConfig config;
    config.rate = 1e6;
    const size_t n = 100000;
    const std::vector<double> times = drawTimes(config, 99, n);
    const double achieved = double(n) / times.back();
    // 100k exponential gaps: the sample mean is within a few percent
    // with overwhelming probability (and the draw is deterministic).
    EXPECT_NEAR(achieved / config.rate, 1.0, 0.05);
}

TEST(Arrival, UniformGapsAreExact)
{
    ArrivalConfig config;
    config.kind = ArrivalKind::Uniform;
    config.rate = 1000.0;
    const std::vector<double> times = drawTimes(config, 0, 10);
    for (size_t i = 0; i < times.size(); ++i)
        EXPECT_DOUBLE_EQ(times[i], double(i + 1) * 1e-3);
}

TEST(Arrival, BurstyPreservesMeanRate)
{
    ArrivalConfig config;
    config.kind = ArrivalKind::Bursty;
    config.rate = 1e6;
    config.burst_x = 8.0;
    config.burst_on_us = 500.0;
    config.burst_off_us = 4500.0;
    const size_t n = 200000;
    const std::vector<double> times = drawTimes(config, 42, n);
    const double achieved = double(n) / times.back();
    EXPECT_NEAR(achieved / config.rate, 1.0, 0.05);
}

TEST(Arrival, BurstySaturatedOffPhaseIsSilent)
{
    // burst_x * on == period puts all mass in the on-phase; the
    // off-phase rate is exactly zero and the process must jump the
    // clock to the next on-phase instead of dividing by zero.
    ArrivalConfig config;
    config.kind = ArrivalKind::Bursty;
    config.rate = 1e6;
    config.burst_x = 10.0;
    config.burst_on_us = 500.0;
    config.burst_off_us = 4500.0;
    const std::vector<double> times = drawTimes(config, 3, 20000);
    const double period = 5000e-6;
    const double on = 500e-6;
    size_t in_on_phase = 0;
    for (double t : times) {
        ASSERT_TRUE(std::isfinite(t));
        if (std::fmod(t, period) < on)
            ++in_on_phase;
    }
    // Essentially every arrival lands in an on-phase window; the rare
    // exception is a gap drawn near the phase edge overshooting it
    // (the rate is frozen at the draw's phase, never re-drawn at
    // zero).
    EXPECT_GT(double(in_on_phase) / double(times.size()), 0.95);
    // The burst still carries the full configured mean rate.
    EXPECT_NEAR(double(times.size()) / times.back() / config.rate, 1.0,
                0.05);
}

TEST(Arrival, RejectsNonPositiveOrNonFiniteRate)
{
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double inf = std::numeric_limits<double>::infinity();
    for (double rate : {0.0, -1.0, nan, inf}) {
        ArrivalConfig config;
        config.rate = rate;
        EXPECT_FALSE(config.validationError().empty()) << rate;
        EXPECT_THROW(ArrivalProcess(config, 1), FatalError) << rate;
    }
}

TEST(Arrival, RejectsImpossibleBurstShapes)
{
    ArrivalConfig config;
    config.kind = ArrivalKind::Bursty;
    config.rate = 1e6;

    config.burst_x = 0.5; // would make the off-phase the busy one
    EXPECT_FALSE(config.validationError().empty());
    config.burst_x = 8.0;

    config.burst_on_us = 0.0;
    EXPECT_FALSE(config.validationError().empty());
    config.burst_on_us = 500.0;

    config.burst_off_us = -1.0;
    EXPECT_FALSE(config.validationError().empty());
    config.burst_off_us = 4500.0;

    // burst_x * on > period: the mean-preserving off-rate would be
    // negative.
    config.burst_x = 11.0;
    EXPECT_FALSE(config.validationError().empty());
    config.burst_x = 10.0; // == period: exactly saturated is legal
    EXPECT_TRUE(config.validationError().empty());
}

TEST(Arrival, BurstKeysCheckedForEveryKind)
{
    // Regression: validation returned early for non-bursty kinds, so
    // a NaN or negative burst key passed, was ignored, and printed
    // into the system name.
    for (const ArrivalKind kind :
         {ArrivalKind::Poisson, ArrivalKind::Uniform}) {
        ArrivalConfig config;
        config.kind = kind;
        config.burst_x = std::nan("");
        EXPECT_FALSE(config.validationError().empty());
        config.burst_x = 8.0;
        config.burst_on_us = 0.0;
        EXPECT_FALSE(config.validationError().empty());
        config.burst_on_us = 500.0;
        config.burst_off_us = -1.0;
        EXPECT_FALSE(config.validationError().empty());
        // The period check only concerns the bursty off-phase.
        config.burst_off_us = 500.0;
        config.burst_x = 20.0;
        EXPECT_TRUE(config.validationError().empty());
    }
}

} // namespace
} // namespace sp::data
