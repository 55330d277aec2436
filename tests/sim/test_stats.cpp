/**
 * @file
 * Unit tests for counters, distributions, and RNG.
 */
#include <cmath>

#include <gtest/gtest.h>

#include "sim/rng.hpp"
#include "sim/stats.hpp"

namespace octo::sim {
namespace {

TEST(Counter, AddsAndTotals)
{
    Counter c;
    EXPECT_EQ(c.total(), 0u);
    c.add();
    c.add(41);
    EXPECT_EQ(c.total(), 42u);
}

TEST(Distribution, TracksMoments)
{
    Distribution d;
    for (double v : {1.0, 2.0, 3.0, 4.0})
        d.sample(v);
    EXPECT_EQ(d.count(), 4u);
    EXPECT_DOUBLE_EQ(d.mean(), 2.5);
    EXPECT_DOUBLE_EQ(d.min(), 1.0);
    EXPECT_DOUBLE_EQ(d.max(), 4.0);
}

TEST(Distribution, PercentilesOnUniformRamp)
{
    Distribution d;
    for (int i = 1; i <= 100; ++i)
        d.sample(i);
    EXPECT_NEAR(d.percentile(50), 50.5, 1.0);
    EXPECT_NEAR(d.percentile(90), 90.1, 1.0);
    EXPECT_NEAR(d.percentile(99), 99.0, 1.5);
    EXPECT_DOUBLE_EQ(d.percentile(0), 1.0);
    EXPECT_DOUBLE_EQ(d.percentile(100), 100.0);
}

TEST(Distribution, EmptyQueriesReturnNaN)
{
    Distribution d;
    EXPECT_TRUE(std::isnan(d.mean()));
    EXPECT_TRUE(std::isnan(d.min()));
    EXPECT_TRUE(std::isnan(d.max()));
    EXPECT_TRUE(std::isnan(d.percentile(50)));
    // ...and reset() returns a populated distribution to that state.
    d.sample(1.0);
    EXPECT_DOUBLE_EQ(d.percentile(50), 1.0);
    d.reset();
    EXPECT_TRUE(std::isnan(d.percentile(99)));
}

TEST(Distribution, ThinningKeepsApproximatePercentiles)
{
    Distribution d(1024); // force thinning
    for (int i = 0; i < 100000; ++i)
        d.sample(i % 1000);
    EXPECT_EQ(d.count(), 100000u);
    EXPECT_NEAR(d.percentile(50), 500, 50);
}

TEST(Rng, Deterministic)
{
    Rng a(7), b(7);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, UniformInRange)
{
    Rng r(1);
    for (int i = 0; i < 1000; ++i) {
        double u = r.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(Rng, BelowBounds)
{
    Rng r(2);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(r.below(17), 17u);
    EXPECT_EQ(r.below(0), 0u);
}

TEST(Rng, ExponentialHasRequestedMean)
{
    Rng r(3);
    double sum = 0;
    const int n = 200000;
    for (int i = 0; i < n; ++i)
        sum += r.exponential(50.0);
    EXPECT_NEAR(sum / n, 50.0, 1.0);
}

TEST(Rng, ChanceRespectsProbability)
{
    Rng r(4);
    int hits = 0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        hits += r.chance(0.25);
    EXPECT_NEAR(hits / double(n), 0.25, 0.01);
}

} // namespace
} // namespace octo::sim
