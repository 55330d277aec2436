/**
 * @file
 * Tests for the metric registry: instrument identity (name + canonical
 * labels), callback instruments and freeze(), histogram percentile
 * bounds, and the exporters.
 */
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "obs/metrics.hpp"

namespace octo::obs {
namespace {

TEST(MetricRegistry, LabelOrderIsCanonicalized)
{
    MetricRegistry reg;
    Counter& a = reg.counter("frames", {{"dev", "nic0"}, {"q", "1"}});
    Counter& b = reg.counter("frames", {{"q", "1"}, {"dev", "nic0"}});
    EXPECT_EQ(&a, &b) << "label order must not create a new instrument";
    a.add(3);
    EXPECT_EQ(b.value(), 3u);
    EXPECT_EQ(reg.size(), 1u);
}

TEST(MetricRegistry, DistinctLabelsDistinctInstruments)
{
    MetricRegistry reg;
    Counter& a = reg.counter("frames", {{"q", "0"}});
    Counter& b = reg.counter("frames", {{"q", "1"}});
    EXPECT_NE(&a, &b);
    EXPECT_EQ(reg.size(), 2u);
}

TEST(MetricRegistry, ReRegistrationReturnsSameInstrument)
{
    MetricRegistry reg;
    Counter& a = reg.counter("x");
    a.add(7);
    Counter& b = reg.counter("x");
    EXPECT_EQ(&a, &b);
    EXPECT_EQ(b.value(), 7u);
}

TEST(MetricRegistry, FindMatchesKindAndLabels)
{
    MetricRegistry reg;
    reg.counter("hits", {{"dev", "d"}}).add(5);
    reg.gauge("weight", {{"pf", "0"}}).set(0.25);

    const Counter* c = reg.findCounter("hits", {{"dev", "d"}});
    ASSERT_NE(c, nullptr);
    EXPECT_EQ(c->value(), 5u);
    EXPECT_EQ(reg.findCounter("hits", {{"dev", "other"}}), nullptr);
    EXPECT_EQ(reg.findCounter("weight", {{"pf", "0"}}), nullptr)
        << "kind mismatch must not resolve";
    const Gauge* g = reg.findGauge("weight", {{"pf", "0"}});
    ASSERT_NE(g, nullptr);
    EXPECT_DOUBLE_EQ(g->value(), 0.25);
}

TEST(MetricRegistry, BaseLabelsStampSubsequentInstruments)
{
    MetricRegistry reg;
    reg.setBaseLabels({{"run", "ioctopus"}});
    reg.counter("bytes", {{"dev", "d"}}).add(9);
    reg.setBaseLabels({});

    EXPECT_EQ(reg.findCounter("bytes", {{"dev", "d"}}), nullptr)
        << "lookup must use the full stamped label set";
    const Counter* c =
        reg.findCounter("bytes", {{"dev", "d"}, {"run", "ioctopus"}});
    ASSERT_NE(c, nullptr);
    EXPECT_EQ(c->value(), 9u);
}

TEST(MetricRegistry, CallbackCounterMirrorsAndFreezes)
{
    MetricRegistry reg;
    std::uint64_t model = 0;
    double gmodel = 0;
    Counter& c = reg.counterFn("mirror", {}, [&] { return model; });
    Gauge& g = reg.gaugeFn("gmirror", {}, [&] { return gmodel; });

    model = 42;
    gmodel = 1.5;
    EXPECT_EQ(c.value(), 42u);
    EXPECT_DOUBLE_EQ(g.value(), 1.5);

    reg.freeze();
    // Post-freeze the instruments hold snapshots; mutating (or
    // destroying) the backing model no longer matters.
    model = 999;
    gmodel = -3.0;
    EXPECT_EQ(c.value(), 42u);
    EXPECT_DOUBLE_EQ(g.value(), 1.5);
}

TEST(MetricRegistry, SumCountersFiltersOnLabelSubset)
{
    MetricRegistry reg;
    reg.counter("b", {{"dev", "nic"}, {"pf", "0"}}).add(100);
    reg.counter("b", {{"dev", "nic"}, {"pf", "1"}}).add(23);
    reg.counter("b", {{"dev", "ssd"}, {"pf", "0"}}).add(1000);
    EXPECT_EQ(reg.sumCounters("b"), 1123u);
    EXPECT_EQ(reg.sumCounters("b", {{"dev", "nic"}}), 123u);
    EXPECT_EQ(reg.sumCounters("b", {{"dev", "nic"}, {"pf", "1"}}), 23u);
    EXPECT_EQ(reg.sumCounters("b", {{"dev", "gone"}}), 0u);
}

TEST(Histogram, ExactStatsAndZeroBucket)
{
    Histogram h;
    EXPECT_DOUBLE_EQ(h.percentile(50), 0.0);
    h.record(0.0);
    h.record(8.0);
    h.record(32.0);
    EXPECT_EQ(h.count(), 3u);
    EXPECT_DOUBLE_EQ(h.sum(), 40.0);
    EXPECT_DOUBLE_EQ(h.min(), 0.0);
    EXPECT_DOUBLE_EQ(h.max(), 32.0);
    EXPECT_EQ(h.zeroCount(), 1u);
}

TEST(Histogram, BulkRecordMatchesRepeatedSingleRecords)
{
    // Mixed values, including sub-unit and zero (the bulk-charged zero
    // buckets of parked pollers) and a sum that rounds when repeated.
    const std::vector<std::pair<double, std::uint64_t>> batches = {
        {0.0, 1000}, {7.0, 3}, {0.3, 5}, {1e9 + 0.1, 17}, {0.0, 1},
        {2.5, 0},    {0.1, 9}};
    MetricRegistry single;
    MetricRegistry bulk;
    Histogram& a = single.histogram("h", {{"k", "v"}});
    Histogram& b = bulk.histogram("h", {{"k", "v"}});
    for (const auto& [v, n] : batches) {
        for (std::uint64_t i = 0; i < n; ++i)
            a.record(v);
        b.record(v, n);
    }
    EXPECT_EQ(a.count(), b.count());
    EXPECT_EQ(a.zeroCount(), b.zeroCount());
    EXPECT_EQ(a.sum(), b.sum()); // bit-exact, not approximately
    EXPECT_EQ(a.min(), b.min());
    EXPECT_EQ(a.max(), b.max());
    for (int i = 0; i < Histogram::kBuckets; ++i)
        EXPECT_EQ(a.bucketCount(i), b.bucketCount(i)) << "bucket " << i;
    EXPECT_EQ(single.prometheusText(), bulk.prometheusText());
    EXPECT_EQ(a.count(), 1035u);
}

TEST(Histogram, PercentilesWithinBucketErrorBound)
{
    // Uniform 1..1000: the log buckets guarantee a relative error no
    // worse than the bucket ratio, 2^(1/4)-1 ~ 19%.
    Histogram h;
    for (int v = 1; v <= 1000; ++v)
        h.record(static_cast<double>(v));

    const struct
    {
        double p;
        double expect;
    } cases[] = {{50.0, 500.0}, {90.0, 900.0}, {99.0, 990.0}};
    for (const auto& c : cases) {
        const double got = h.percentile(c.p);
        EXPECT_GT(got, c.expect * 0.81) << "p" << c.p;
        EXPECT_LT(got, c.expect * 1.19) << "p" << c.p;
    }
    // p100 lands in the top bucket's geometric midpoint, clamped by the
    // observed max.
    EXPECT_GT(h.percentile(100), 1000.0 * 0.81);
    EXPECT_LE(h.percentile(100), 1000.0);
}

TEST(MetricRegistry, PrometheusExportIsDeterministic)
{
    MetricRegistry reg;
    reg.counter("zeta", {{"b", "2"}}).add(1);
    reg.counter("alpha", {{"a", "1"}}).add(2);
    reg.gauge("mid").set(0.5);
    reg.histogram("lat").record(10.0);

    const std::string text = reg.prometheusText();
    EXPECT_NE(text.find("alpha{a=\"1\"} 2"), std::string::npos) << text;
    EXPECT_NE(text.find("zeta{b=\"2\"} 1"), std::string::npos);
    EXPECT_NE(text.find("# TYPE alpha counter"), std::string::npos);
    EXPECT_NE(text.find("# TYPE mid gauge"), std::string::npos);
    EXPECT_NE(text.find("lat_count"), std::string::npos);
    EXPECT_LT(text.find("alpha"), text.find("zeta"))
        << "export must sort by identity";
    EXPECT_EQ(text, reg.prometheusText()) << "repeat export identical";
}

TEST(MetricRegistry, PrometheusHistogramBucketsRoundTrip)
{
    MetricRegistry reg;
    Histogram& h = reg.histogram("lat", {{"dev", "d"}});
    for (double v : {0.0, 3.0, 8.0, 8.5, 100.0, 5000.0})
        h.record(v);

    // Parse every lat_bucket{...,le="X"} line back out of the text.
    std::vector<std::pair<double, std::uint64_t>> buckets;
    std::istringstream in(reg.prometheusText());
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("lat_bucket", 0) != 0)
            continue;
        const auto le_pos = line.find("le=\"");
        ASSERT_NE(le_pos, std::string::npos) << line;
        const auto le_end = line.find('"', le_pos + 4);
        const std::string le =
            line.substr(le_pos + 4, le_end - le_pos - 4);
        const double upper =
            le == "+Inf" ? std::numeric_limits<double>::infinity()
                         : std::stod(le);
        const std::uint64_t cum =
            std::stoull(line.substr(line.rfind(' ') + 1));
        buckets.push_back({upper, cum});
    }
    ASSERT_GE(buckets.size(), 3u);

    // Uppers ascend and cumulative counts are monotone, ending at the
    // +Inf bucket whose count equals _count.
    for (std::size_t i = 1; i < buckets.size(); ++i) {
        EXPECT_GT(buckets[i].first, buckets[i - 1].first);
        EXPECT_GE(buckets[i].second, buckets[i - 1].second);
    }
    EXPECT_TRUE(std::isinf(buckets.back().first));
    EXPECT_EQ(buckets.back().second, h.count());
    // The zero/underflow bucket surfaces under le="1".
    EXPECT_DOUBLE_EQ(buckets.front().first, 1.0);
    EXPECT_EQ(buckets.front().second, h.zeroCount());

    // Round-trip a percentile: walking the parsed cumulative curve to
    // the median must bracket the live histogram's p50.
    const std::uint64_t half = (h.count() + 1) / 2;
    double lower = 0, median_upper = 0;
    for (const auto& [upper, cum] : buckets) {
        if (cum >= half) {
            median_upper = upper;
            break;
        }
        lower = upper;
    }
    EXPECT_GE(h.p50(), lower);
    EXPECT_LE(h.p50(), median_upper);
}

TEST(MetricRegistry, CsvExportListsEveryInstrument)
{
    MetricRegistry reg;
    reg.counter("c", {{"k", "v"}}).add(4);
    reg.histogram("h").record(2.0);

    std::FILE* f = std::tmpfile();
    ASSERT_NE(f, nullptr);
    reg.writeCsv(f);
    std::rewind(f);
    std::string all;
    char buf[256];
    while (std::fgets(buf, sizeof buf, f) != nullptr)
        all += buf;
    std::fclose(f);
    EXPECT_NE(all.find("c"), std::string::npos);
    EXPECT_NE(all.find("4"), std::string::npos);
    EXPECT_NE(all.find("h"), std::string::npos);
}

} // namespace
} // namespace octo::obs
