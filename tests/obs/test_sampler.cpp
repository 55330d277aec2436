/**
 * @file
 * Tests for the periodic telemetry sampler and the run report: sampling
 * cadence and rate math, the time axis, CSV export, counter-track JSON
 * shape, report determinism,
 * the read-only guarantee (simulated results are bit-identical with the
 * sampler on or off), and the end-to-end latency split between the
 * remote and IOctopus presets.
 */
#include <cstdio>
#include <stdexcept>
#include <string>

#include <gtest/gtest.h>

#include "core/testbed.hpp"
#include "obs/hub.hpp"
#include "obs/sampler.hpp"
#include "sim/simulator.hpp"
#include "sim/task.hpp"
#include "workloads/netperf.hpp"

namespace octo::obs {
namespace {

TEST(Sampler, CadenceAndRateMath)
{
    sim::Simulator sim;
    Hub hub;
    sim.setHub(&hub);
    Report report;
    const sim::Tick period = sim::fromUs(100);
    Sampler s(sim, hub, report, period);

    std::uint64_t bytes = 0;
    std::uint64_t events = 0;
    s.watchRate("r_gbps", [&] { return bytes; });
    s.watchRate("r_per_s", [&] { return events; },
                SampleUnit::PerSec);
    s.watchGauge("g", [] { return 2.5; });
    s.start();
    // Feed both cumulative probes a fixed delta per window, just
    // before each sampler tick.
    for (int i = 1; i <= 10; ++i)
        sim.schedule(period * i - sim::fromNs(1), [&] {
            bytes += 1250;
            events += 3;
        });
    sim.runUntil(sim::fromMs(1));

    EXPECT_EQ(s.sampleCount(), 10u);
    ASSERT_EQ(report.runs().size(), 1u);
    const RunData& run = report.runs().front();
    EXPECT_EQ(run.period, period);
    ASSERT_EQ(run.timesMs.size(), 10u);
    EXPECT_DOUBLE_EQ(run.timesMs.front(), 0.1);
    EXPECT_DOUBLE_EQ(run.timesMs.back(), 1.0);

    ASSERT_EQ(run.series.size(), 3u);
    for (const SeriesData& sd : run.series)
        ASSERT_EQ(sd.values.size(), 10u);
    for (std::size_t i = 0; i < 10; ++i) {
        // 1250 B per 100 us window = 0.1 Gb/s.
        EXPECT_DOUBLE_EQ(run.series[0].values[i], 0.1) << "window " << i;
        // 3 events per 100 us window = 30k/s.
        EXPECT_DOUBLE_EQ(run.series[1].values[i], 30000.0);
        EXPECT_DOUBLE_EQ(run.series[2].values[i], 2.5);
    }
}

// The per-run time series a Sampler writes into a Report: one value per
// window per watch, on a time axis of window ends.

TEST(TimeSeries, SamplesPerWindowDeltas)
{
    sim::Simulator sim;
    Hub hub;
    Report report;
    Sampler s(sim, hub, report, sim::fromMs(1));
    std::uint64_t counter = 0;
    // Generator adds 1000 bytes every 100 us, offset half a period so
    // increments never land on a sampling edge.
    auto gen = sim::spawn([&]() -> sim::Task<> {
        co_await sim::delay(sim, sim::fromUs(50));
        for (;;) {
            counter += 1000;
            co_await sim::delay(sim, sim::fromUs(100));
        }
    });

    s.watchRate("bytes", [&] { return counter; });
    s.start();
    sim.runUntil(sim::fromMs(10));

    ASSERT_EQ(s.sampleCount(), 10u);
    const SeriesData& sd = report.runs().front().series.front();
    ASSERT_EQ(sd.values.size(), 10u);
    // 10'000 B per 1 ms window = 0.08 Gb/s.
    for (std::size_t i = 0; i < sd.values.size(); ++i)
        EXPECT_DOUBLE_EQ(sd.values[i], 0.08) << "sample " << i;
}

TEST(TimeSeries, RateConversion)
{
    sim::Simulator sim;
    Hub hub;
    Report report;
    Sampler s(sim, hub, report, sim::fromMs(1));
    std::uint64_t counter = 0;
    s.watchRate("x", [&] { return counter; });
    s.start();
    sim.schedule(sim::fromUs(500), [&] { counter = 1'250'000; });
    sim.runUntil(sim::fromMs(1));
    ASSERT_EQ(s.sampleCount(), 1u);
    // 1.25 MB in 1 ms = 10 Gb/s.
    EXPECT_DOUBLE_EQ(report.runs().front().series[0].values[0], 10.0);
}

TEST(TimeSeries, MultipleProbesIndependent)
{
    sim::Simulator sim;
    Hub hub;
    Report report;
    Sampler s(sim, hub, report, sim::fromMs(1));
    std::uint64_t a = 0, b = 0;
    s.watchRate("a", [&] { return a; }, SampleUnit::PerSec);
    s.watchRate("b", [&] { return b; }, SampleUnit::PerSec);
    s.start();
    sim.schedule(sim::fromUs(100), [&] { a = 7; });
    sim.schedule(sim::fromUs(200), [&] { b = 11; });
    sim.runUntil(sim::fromMs(2));

    const RunData& run = report.runs().front();
    ASSERT_EQ(run.series.size(), 2u);
    // 7 and 11 events inside the first 1 ms window.
    EXPECT_DOUBLE_EQ(run.series[0].values[0], 7000.0);
    EXPECT_DOUBLE_EQ(run.series[1].values[0], 11000.0);
    EXPECT_DOUBLE_EQ(run.series[0].values[1], 0.0); // no further growth
    EXPECT_DOUBLE_EQ(run.series[1].values[1], 0.0);
}

TEST(TimeSeries, StartSnapshotExcludesHistory)
{
    sim::Simulator sim;
    Hub hub;
    Report report;
    Sampler s(sim, hub, report, sim::fromMs(1));
    std::uint64_t counter = 123456; // pre-existing traffic
    s.watchRate("x", [&] { return counter; });
    s.start();
    sim.runUntil(sim::fromMs(1));
    // Only growth after start() counts.
    EXPECT_DOUBLE_EQ(report.runs().front().series[0].values[0], 0.0);
}

TEST(TimeSeries, TimeAxis)
{
    sim::Simulator sim;
    sim.runUntil(sim::fromMs(5)); // start late
    Hub hub;
    Report report;
    Sampler s(sim, hub, report, sim::fromMs(2));
    std::uint64_t c = 0;
    s.watchRate("x", [&] { return c; });
    s.start();
    sim.runUntil(sim::fromMs(11));

    const RunData& run = report.runs().front();
    EXPECT_EQ(run.startAt, sim::fromMs(5));
    ASSERT_EQ(run.timesMs.size(), 3u);
    EXPECT_DOUBLE_EQ(run.timesMs[0], 7.0);
    EXPECT_DOUBLE_EQ(run.timesMs[2], 11.0);
}

TEST(TimeSeries, ProbeRegistration)
{
    sim::Simulator sim;
    Hub hub;
    Report report;
    Sampler s(sim, hub, report, sim::fromMs(1));
    std::uint64_t a = 0, b = 0;
    EXPECT_EQ(s.watchCount(), 0u);
    s.watchRate("pf0", [&] { return a; });
    s.watchRate("pf1", [&] { return b; });
    ASSERT_EQ(s.watchCount(), 2u);
    s.start();

    // start() opens one named series per watch, in watch order.
    const RunData& run = report.runs().front();
    ASSERT_EQ(run.series.size(), 2u);
    EXPECT_EQ(run.series[0].name, "pf0");
    EXPECT_EQ(run.series[1].name, "pf1");
    EXPECT_THROW(static_cast<void>(run.series.at(2)), std::out_of_range);
}

TEST(TimeSeries, CsvExportRoundTrip)
{
    sim::Simulator sim;
    Hub hub;
    hub.setRun("csv");
    Report report;
    Sampler s(sim, hub, report, sim::fromMs(1));
    std::uint64_t rx = 0, tx = 0;
    s.watchRate("rx", [&] { return rx; });
    s.watchRate("tx", [&] { return tx; });
    s.start();
    // 1.25 MB/ms = 10 Gb/s on rx in window 0; 2.5 MB/ms = 20 Gb/s on
    // tx in window 1.
    sim.schedule(sim::fromUs(500), [&] { rx = 1'250'000; });
    sim.schedule(sim::fromUs(1500), [&] { tx = 2'500'000; });
    sim.runUntil(sim::fromMs(2));
    ASSERT_EQ(s.sampleCount(), 2u);

    std::FILE* f = std::tmpfile();
    ASSERT_NE(f, nullptr);
    report.writeCsv(f);
    std::rewind(f);

    char header[128];
    ASSERT_NE(std::fgets(header, sizeof header, f), nullptr);
    EXPECT_STREQ(header, "run,series,unit,time_ms,value\n");

    // Parse each row back and compare against the in-memory series:
    // series-major, one row per sample, the unit spelled out.
    const RunData& run = report.runs().front();
    for (const SeriesData& sd : run.series) {
        for (std::size_t i = 0; i < run.timesMs.size(); ++i) {
            char run_name[16], series[16], unit[16];
            double t = 0, v = 0;
            ASSERT_EQ(std::fscanf(f, "%15[^,],%15[^,],%15[^,],%lf,%lf\n",
                                  run_name, series, unit, &t, &v),
                      5)
                << sd.name << " row " << i;
            EXPECT_STREQ(run_name, "csv");
            EXPECT_EQ(series, sd.name);
            EXPECT_STREQ(unit, sampleUnitName(sd.unit));
            EXPECT_NEAR(t, run.timesMs[i], 1e-3);
            EXPECT_NEAR(v, sd.values[i], 1e-3);
        }
    }
    EXPECT_EQ(std::fgetc(f), EOF); // no extra rows
    std::fclose(f);

    EXPECT_DOUBLE_EQ(run.series[0].values[0], 10.0);
    EXPECT_DOUBLE_EQ(run.series[1].values[1], 20.0);
}

TEST(TimeSeries, EventProbeUnitsExportPerSecond)
{
    sim::Simulator sim;
    Hub hub;
    hub.setRun("csv");
    Report report;
    Sampler s(sim, hub, report, sim::fromMs(1));
    std::uint64_t bytes = 0, events = 0;
    s.watchRate("rx", [&] { return bytes; });
    s.watchRate("steer", [&] { return events; }, SampleUnit::PerSec);
    s.start();
    const RunData& run = report.runs().front();
    ASSERT_EQ(run.series[0].unit, SampleUnit::Gbps);
    ASSERT_EQ(run.series[1].unit, SampleUnit::PerSec);
    // 1.25 MB and 500 events inside the 1 ms window.
    sim.schedule(sim::fromUs(500), [&] {
        bytes = 1'250'000;
        events = 500;
    });
    sim.runUntil(sim::fromMs(1));
    ASSERT_EQ(s.sampleCount(), 1u);
    EXPECT_DOUBLE_EQ(run.series[0].values[0], 10.0);
    // 500 events per ms = 500k events/s.
    EXPECT_DOUBLE_EQ(run.series[1].values[0], 500'000.0);

    std::FILE* f = std::tmpfile();
    ASSERT_NE(f, nullptr);
    report.writeCsv(f);
    std::rewind(f);
    char header[128];
    ASSERT_NE(std::fgets(header, sizeof header, f), nullptr);
    EXPECT_STREQ(header, "run,series,unit,time_ms,value\n");
    double t = 0, rx = 0, steer = 0;
    ASSERT_EQ(std::fscanf(f, "csv,rx,gbps,%lf,%lf\n", &t, &rx), 2);
    EXPECT_NEAR(t, 1.0, 1e-3);
    EXPECT_NEAR(rx, 10.0, 1e-3);
    ASSERT_EQ(std::fscanf(f, "csv,steer,per_s,%lf,%lf\n", &t, &steer), 2);
    EXPECT_NEAR(t, 1.0, 1e-3);
    EXPECT_NEAR(steer, 500'000.0, 1e-1);
    std::fclose(f);
}

TEST(Sampler, EmitsCounterTrackEvents)
{
    sim::Simulator sim;
    Hub hub;
    sim.setHub(&hub);
    hub.tracer().enable(kCatCounter);
    Report report;
    Sampler s(sim, hub, report, sim::fromUs(100));
    s.watchGauge("my_track", [] { return 3.25; });
    s.start();
    sim.runUntil(sim::fromUs(300));

    const std::string doc = hub.tracer().json();
    EXPECT_NE(doc.find("\"ph\":\"C\",\"name\":\"my_track\""),
              std::string::npos)
        << doc;
    EXPECT_NE(doc.find("\"args\":{\"value\":3.25}"), std::string::npos);
    // The tracks group under the run-prefixed telemetry process.
    EXPECT_NE(doc.find("telemetry"), std::string::npos);
    EXPECT_EQ(hub.tracer().eventCount(), 3u);
}

TEST(Sampler, MaskedOutCounterCategoryStillFillsReport)
{
    sim::Simulator sim;
    Hub hub;
    sim.setHub(&hub);
    hub.tracer().enable(kCatDma); // counters masked out
    Report report;
    Sampler s(sim, hub, report, sim::fromUs(100));
    s.watchGauge("g", [] { return 1.0; });
    s.start();
    sim.runUntil(sim::fromUs(500));

    EXPECT_EQ(hub.tracer().eventCount(), 0u);
    ASSERT_EQ(report.runs().size(), 1u);
    EXPECT_EQ(report.runs().front().series.front().values.size(), 5u);
}

/** One sampled 3 ms Ioctopus Rx run; returns the report JSON. */
std::string
sampledRunJson()
{
    Hub hub;
    hub.setRun("det");
    core::TestbedConfig cfg;
    cfg.mode = core::ServerMode::Ioctopus;
    cfg.hub = &hub;
    core::Testbed tb(cfg);
    auto server_t = tb.serverThread(tb.workNode(), 0);
    auto client_t = tb.clientThread(0);
    workloads::NetperfStream stream(tb, server_t, client_t, 16384,
                                    workloads::StreamDir::ServerRx);
    stream.start();

    Report report;
    Sampler s(tb.sim(), hub, report, sim::fromUs(500));
    s.watchRate("rx_gbps", [&] { return stream.bytesDelivered(); });
    s.start();
    tb.runFor(sim::fromMs(3));
    hub.metrics().freeze();
    return report.jsonText();
}

TEST(Sampler, ReportJsonIsDeterministicAndSchemaTagged)
{
    const std::string a = sampledRunJson();
    const std::string b = sampledRunJson();
    EXPECT_EQ(a, b) << "identical runs must export identical reports";
    EXPECT_NE(a.find("\"schema\":\"octo.report.v1\""),
              std::string::npos);
    EXPECT_NE(a.find("\"run\":\"det\""), std::string::npos);
    EXPECT_NE(a.find("\"name\":\"rx_gbps\""), std::string::npos);
    EXPECT_NE(a.find("\"unit\":\"gbps\""), std::string::npos);
}

/** Bytes delivered by a 5 ms Rx run, with or without full telemetry. */
std::uint64_t
runBytes(bool sampled)
{
    Hub hub;
    core::TestbedConfig cfg;
    cfg.mode = core::ServerMode::Ioctopus;
    if (sampled) {
        hub.tracer().enable(kCatAll);
        hub.setRun("sampled");
        cfg.hub = &hub;
    }
    core::Testbed tb(cfg);
    auto server_t = tb.serverThread(tb.workNode(), 0);
    auto client_t = tb.clientThread(0);
    workloads::NetperfStream stream(tb, server_t, client_t, 16384,
                                    workloads::StreamDir::ServerRx);
    stream.start();

    Report report;
    std::unique_ptr<Sampler> s;
    if (sampled) {
        s = std::make_unique<Sampler>(tb.sim(), hub, report,
                                      sim::fromUs(100));
        s->watchRate("rx_gbps", [&] { return stream.bytesDelivered(); });
        s->watchGauge("g", [] { return 1.0; });
        s->start();
    }
    tb.runFor(sim::fromMs(5));
    if (sampled)
        hub.metrics().freeze();
    return stream.bytesDelivered();
}

TEST(Sampler, SamplingDoesNotPerturbTheSimulation)
{
    const std::uint64_t off = runBytes(false);
    const std::uint64_t on = runBytes(true);
    EXPECT_GT(off, 0u);
    EXPECT_EQ(on, off)
        << "sampling is read-only: simulated results must be "
           "bit-identical with telemetry on or off";
}

/** p50/p99 of the e2e latency histogram after a 10 ms Rx run. */
std::pair<double, double>
e2eLatency(Hub& hub, core::ServerMode mode, const std::string& run)
{
    hub.setRun(run);
    core::TestbedConfig cfg;
    cfg.mode = mode;
    cfg.hub = &hub;
    core::Testbed tb(cfg);
    auto server_t = tb.serverThread(tb.workNode(), 0);
    auto client_t = tb.clientThread(0);
    workloads::NetperfStream stream(tb, server_t, client_t, 16384,
                                    workloads::StreamDir::ServerRx);
    stream.start();
    tb.runFor(sim::fromMs(10));
    hub.metrics().freeze();
    const Histogram* h = hub.metrics().findHistogram(
        "latency_e2e_ns", {{"dev", "octoNIC"}, {"run", run}});
    EXPECT_NE(h, nullptr);
    if (h == nullptr)
        return {0, 0};
    EXPECT_GT(h->count(), 100u);
    return {h->p50(), h->p99()};
}

TEST(Sampler, E2eLatencyRemoteExceedsIoctopus)
{
    Hub hub;
    const auto remote =
        e2eLatency(hub, core::ServerMode::Remote, "remote");
    const auto octo =
        e2eLatency(hub, core::ServerMode::Ioctopus, "ioctopus");
    // Windowed streams: the NUDMA preset moves fewer bytes through the
    // same socket window, so each byte waits longer end to end.
    EXPECT_GT(remote.first, octo.first)
        << "remote p50 must exceed ioctopus p50";
    EXPECT_GT(remote.second, octo.second)
        << "remote p99 must exceed ioctopus p99";
}

} // namespace
} // namespace octo::obs
