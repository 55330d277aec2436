/**
 * @file
 * Graceful-degradation timeline: four TCP Rx streams served through the
 * octoNIC's node-0 endpoint while a FaultPlan retrains that PF from x8
 * down to x2 mid-run and restores it later. The HealthMonitor notices
 * the bandwidth collapse and re-steers ~3/4 of the node-0 rings behind
 * the healthy remote PF (weighted steering, accepting NUDMA), then
 * brings them home through Probation once the link retrains back.
 *
 * The run is repeated without the monitor — the PR1 team driver only
 * reacts to hot-unplug events, so a *degraded-but-alive* PF silently
 * throttles everything behind it — and the degraded-window throughput
 * of both runs is compared.
 *
 * Output: a Fig. 14-style printed timeline of per-PF Gb/s plus the
 * monitor's steering weights, and `fault_degradation.csv` with every
 * 10 ms sample (CI runs this binary as a smoke test and checks the CSV
 * is non-empty).
 */
#include <benchmark/benchmark.h>

#include <vector>

#include "common.hpp"

using namespace octo;
using namespace octo::bench;

namespace {

constexpr int kStreams = 4;
constexpr sim::Tick kDegradeAt = sim::fromMs(300);
constexpr sim::Tick kRestoreAt = sim::fromMs(600);
constexpr sim::Tick kRunFor = sim::fromMs(1000);
constexpr sim::Tick kSample = sim::fromMs(10);

/** One timeline run; returns application bytes delivered inside the
 *  degraded window [degrade+10ms, restore). */
std::uint64_t
runTimeline(bool monitored, bool print, ObsSession* obs = nullptr)
{
    TestbedConfig cfg;
    cfg.mode = ServerMode::Ioctopus;
    cfg.faults.pcieWidthDegrade(kDegradeAt, 0, 2)
        .pcieRestore(kRestoreAt, 0);
    obsBegin(obs, cfg, monitored ? "monitored" : "unmonitored");
    // After obsBegin: the monitor is this run's comparison knob, not an
    // observability convenience, so the explicit setting must win.
    cfg.healthMonitor = monitored;
    Testbed tb(cfg);

    // The workload runs on node 0, so steering parks the rings behind
    // PF0 — the endpoint the plan retrains down to x2.
    std::vector<std::unique_ptr<workloads::NetperfStream>> streams;
    std::vector<os::ThreadCtx> sctx;
    std::vector<os::ThreadCtx> cctx;
    for (int i = 0; i < kStreams; ++i) {
        sctx.push_back(tb.serverThread(0, i));
        cctx.push_back(tb.clientThread(i));
    }
    for (int i = 0; i < kStreams; ++i) {
        streams.push_back(std::make_unique<workloads::NetperfStream>(
            tb, sctx[i], cctx[i], 64u << 10, workloads::StreamDir::ServerRx));
        streams.back()->start();
    }
    auto app_bytes = [&] {
        std::uint64_t total = 0;
        for (const auto& s : streams)
            total += s->bytesDelivered();
        return total;
    };

    // The timeline samples into a private hub and report, so the
    // ObsSession's exports do not carry it.
    obs::Hub series_hub;
    obs::Report series;
    obs::Sampler sampler(tb.sim(), series_hub, series, kSample);
    sampler.watchRate("pf0", [&] { return tb.serverNic().pfRxBytes(0); });
    sampler.watchRate("pf1", [&] { return tb.serverNic().pfRxBytes(1); });
    sampler.watchRate("app", app_bytes);
    sampler.start();
    // The sampled run shows the weight collapse and the probation
    // ramp directly as pfN_health_weight counter tracks.
    if (obs != nullptr)
        obs->startSampler(tb);

    // Step the run sample-by-sample so the monitor's (non-cumulative)
    // steering weights can be recorded alongside the byte probes.
    std::vector<std::vector<double>> weights;
    std::uint64_t degraded_bytes = 0;
    std::uint64_t mark = 0;
    for (sim::Tick t = 0; t < kRunFor; t += kSample) {
        tb.runFor(kSample);
        health::HealthMonitor* mon = tb.monitor();
        weights.push_back(mon != nullptr ? mon->weights()
                                         : std::vector<double>{});
        const sim::Tick now = tb.sim().now();
        if (now == kDegradeAt + kSample)
            mark = app_bytes();
        if (now == kRestoreAt)
            degraded_bytes = app_bytes() - mark;
    }

    const obs::RunData& run = series.runs().front();
    if (print) {
        std::printf("\n# octoNIC: PF0 retrained x8->x2 at 0.30 s, "
                    "restored at 0.60 s; %d Rx streams on node 0; "
                    "monitor %s; 10 ms samples\n",
                    kStreams, monitored ? "ON" : "OFF");
        std::printf("%-8s %8s %8s %8s %8s %8s %10s\n", "t[s]", "pf0",
                    "pf1", "app", "w0", "w1", "pf0-state");
        for (std::size_t i = 0; i < run.timesMs.size(); ++i) {
            const double t_ms = run.timesMs[i];
            const bool near_fault =
                (t_ms >= 290 && t_ms <= 370) ||
                (t_ms >= 590 && t_ms <= 690);
            if (static_cast<int>(t_ms) % 100 != 0 && !near_fault)
                continue;
            std::printf("%-8.2f", t_ms / 1000.0);
            for (const obs::SeriesData& s : run.series)
                std::printf(" %8.2f", s.values[i]);
            if (i < weights.size() && weights[i].size() >= 2)
                std::printf(" %8.1f %8.1f %10s", weights[i][0],
                            weights[i][1],
                            health::stateName(tb.monitor()->state(0)));
            std::printf("\n");
        }

        const auto& stack = tb.serverStack();
        std::printf("# resteers=%llu watchdog-fires=%llu",
                    static_cast<unsigned long long>(
                        stack.healthResteers()),
                    static_cast<unsigned long long>(
                        stack.steerWatchdogFires()));
        if (tb.monitor() != nullptr)
            std::printf(" verdicts=%llu samples=%llu",
                        static_cast<unsigned long long>(
                            tb.monitor()->verdicts()),
                        static_cast<unsigned long long>(
                            tb.monitor()->samples()));
        std::printf("\n");

        if (monitored) {
            std::FILE* csv = std::fopen("fault_degradation.csv", "w");
            if (csv != nullptr) {
                std::fprintf(csv,
                             "time_ms,pf0_gbps,pf1_gbps,app_gbps,"
                             "w0_gbps,w1_gbps\n");
                for (std::size_t i = 0; i < run.timesMs.size(); ++i) {
                    std::fprintf(csv, "%.3f", run.timesMs[i]);
                    for (const obs::SeriesData& s : run.series)
                        std::fprintf(csv, ",%.3f", s.values[i]);
                    if (i < weights.size() && weights[i].size() >= 2)
                        std::fprintf(csv, ",%.3f,%.3f", weights[i][0],
                                     weights[i][1]);
                    else
                        std::fprintf(csv, ",,");
                    std::fprintf(csv, "\n");
                }
                std::fclose(csv);
            }
        }
    }
    if (obs != nullptr)
        obs->endRun();
    return degraded_bytes;
}

} // namespace

int
main(int argc, char** argv)
{
    ObsSession obs(consumeObsFlags(argc, argv), "fault_degradation");
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();

    printHeader("Graceful degradation — weighted steering under a sick "
                "(not dead) PF",
                "(time series below)");
    const std::uint64_t with = runTimeline(true, true, &obs);
    const std::uint64_t without = runTimeline(false, true, &obs);

    const double window_s = sim::toMs(kRestoreAt - kDegradeAt - kSample) /
                            1000.0;
    std::printf("\n# degraded-window app throughput: monitored %.2f Gb/s "
                "vs unmonitored %.2f Gb/s (%.2fx)\n",
                static_cast<double>(with) * 8 / 1e9 / window_s,
                static_cast<double>(without) * 8 / 1e9 / window_s,
                without > 0 ? static_cast<double>(with) / without : 0.0);
    obs.finish();
    benchmark::Shutdown();
    return 0;
}
