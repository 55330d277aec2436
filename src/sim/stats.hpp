/**
 * @file
 * Lightweight statistics for the simulator: counters and sample
 * distributions with percentile queries.
 */
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

namespace octo::sim {

/** Monotonic event/byte counter. */
class Counter
{
  public:
    void add(std::uint64_t n = 1) { value_ += n; }
    std::uint64_t total() const { return value_; }

  private:
    std::uint64_t value_ = 0;
};

/**
 * Sample distribution with percentile queries. Stores raw samples
 * (bounded by @p max_samples with uniform thinning) — experiment sample
 * counts are small enough that this beats maintaining bucketed sketches.
 */
class Distribution
{
  public:
    explicit Distribution(std::size_t max_samples = 1u << 20)
        : maxSamples_(max_samples)
    {
    }

    void
    sample(double v)
    {
        sum_ += v;
        min_ = std::min(min_, v);
        max_ = std::max(max_, v);
        if (samples_.size() >= maxSamples_) {
            // Thin: keep every other sample, double the stride.
            std::vector<double> kept;
            kept.reserve(samples_.size() / 2);
            for (std::size_t i = 0; i < samples_.size(); i += 2)
                kept.push_back(samples_[i]);
            samples_.swap(kept);
            stride_ *= 2;
        }
        if (count_++ % stride_ == 0)
            samples_.push_back(v);
    }

    std::uint64_t count() const { return count_; }

    // An empty distribution has no meaningful statistic: a silent 0
    // here has been mistaken for "zero latency". Empty queries return
    // NaN so they poison downstream math visibly.
    double mean() const { return count_ ? sum_ / count_ : nan(); }
    double min() const { return count_ ? min_ : nan(); }
    double max() const { return count_ ? max_ : nan(); }

    /** @param p Percentile in [0, 100]; NaN when no samples exist. */
    double
    percentile(double p) const
    {
        assert(p >= 0.0 && p <= 100.0);
        if (samples_.empty())
            return nan();
        std::vector<double> sorted(samples_);
        std::sort(sorted.begin(), sorted.end());
        const double rank = p / 100.0 * (sorted.size() - 1);
        const std::size_t lo = static_cast<std::size_t>(rank);
        const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
        const double frac = rank - lo;
        return sorted[lo] * (1 - frac) + sorted[hi] * frac;
    }

    void
    reset()
    {
        sum_ = 0;
        count_ = 0;
        min_ = std::numeric_limits<double>::infinity();
        max_ = -std::numeric_limits<double>::infinity();
        samples_.clear();
        stride_ = 1;
    }

  private:
    static double
    nan()
    {
        return std::numeric_limits<double>::quiet_NaN();
    }

    double sum_ = 0;
    std::uint64_t count_ = 0;
    double min_ = std::numeric_limits<double>::infinity();
    double max_ = -std::numeric_limits<double>::infinity();
    std::vector<double> samples_;
    std::size_t maxSamples_;
    std::uint64_t stride_ = 1;
};

/** Convert a byte count over a tick interval to Gb/s. */
inline double
toGbps(std::uint64_t bytes, std::int64_t ticks)
{
    if (ticks <= 0)
        return 0.0;
    // bytes*8 bits over ticks picoseconds => Gb/s = bits/ns.
    return static_cast<double>(bytes) * 8.0 * 1e3 /
           static_cast<double>(ticks);
}

/** Convert a byte count over a tick interval to GB/s. */
inline double
toGBps(std::uint64_t bytes, std::int64_t ticks)
{
    return toGbps(bytes, ticks) / 8.0;
}

} // namespace octo::sim
