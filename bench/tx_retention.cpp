/**
 * @file
 * Tx-retention timeline: four TCP *transmit* streams sourced on node 0
 * while a FaultPlan retrains PF0 from x8 down to x2 mid-run. On the Tx
 * path the health win flows through queueForCore(): once the monitor
 * down-weights the sick PF and drain-rebinds the node-0 rings behind
 * the healthy remote PF, the XPS pick hands every send a ring whose
 * DMA reads bypass the x2 link. The override column counts the direct
 * per-post XPS redirects — zero here, because with one ring per core
 * the rebind covers the whole job before any post needs overriding. A
 * final variant gives every core spare Tx-only rings (7 rings/core,
 * 8 senders), which de-aligns the monitor's per-group keepSlot verdict
 * from queueForCore's whole-device one and forces the per-post
 * override path to fire (asserted nonzero).
 *
 * The run repeats without the monitor — the plain driver keeps posting
 * on the core's home ring, so the degraded window throttles to the x2
 * rate — and the degraded-window application bytes of both runs are
 * compared.
 *
 * Output: a printed per-PF Tx timeline with the override rate, and
 * `tx_retention.csv` (10 ms samples; the override column is an
 * events-per-second series, exported with the `_per_s` suffix). With
 * `--trace`/OCTO_TRACE the monitored run also records steering/health
 * trace events into `tx_retention_trace.json` plus a Prometheus
 * snapshot in `tx_retention_metrics.prom`.
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

struct TxRunResult
{
    /** Application bytes delivered inside the degraded window
     *  [degrade+10ms, restore). */
    std::uint64_t degradedBytes = 0;
    /** Per-post XPS redirects (queueForCore disagreeing with the
     *  core's home ring). */
    std::uint64_t overrides = 0;
};

/** @p run as one row per sample: `time_ms`, then each series suffixed
 *  with its unit (`_gbps` or `_per_s`). */
void
writeWideCsv(std::FILE* out, const obs::RunData& run)
{
    std::fprintf(out, "time_ms");
    for (const obs::SeriesData& s : run.series)
        std::fprintf(out, ",%s_%s", s.name.c_str(),
                     obs::sampleUnitName(s.unit));
    std::fprintf(out, "\n");
    for (std::size_t i = 0; i < run.timesMs.size(); ++i) {
        std::fprintf(out, "%.3f", run.timesMs[i]);
        for (const obs::SeriesData& s : run.series)
            std::fprintf(out, ",%.3f", s.values[i]);
        std::fprintf(out, "\n");
    }
}

/** One timeline run. @p tx_rings > 1 gives every core spare Tx-only
 *  rings, making the per-core ring numbering diverge from the
 *  monitor's group slots — the per-post override path fires. */
TxRunResult
runTimeline(bool monitored, bool print, ObsSession* obs,
            const char* label, int tx_rings = 1, int streams = kStreams)
{
    TestbedConfig cfg;
    cfg.mode = ServerMode::Ioctopus;
    cfg.txRingsPerCore = tx_rings;
    cfg.faults.pcieWidthDegrade(kDegradeAt, 0, 2)
        .pcieRestore(kRestoreAt, 0);
    obsBegin(obs, cfg, label);
    // After obsBegin: the monitor is this run's comparison knob, not an
    // observability convenience, so the explicit setting must win.
    cfg.healthMonitor = monitored;
    Testbed tb(cfg);

    // The senders run on node 0, so XPS posts through PF0 — the
    // endpoint the plan retrains down to x2 — until the monitor's
    // weights make queueForCore pick a PF1 ring instead.
    std::vector<os::ThreadCtx> sctx;
    std::vector<os::ThreadCtx> cctx;
    for (int i = 0; i < streams; ++i) {
        sctx.push_back(tb.serverThread(0, i));
        cctx.push_back(tb.clientThread(i));
    }
    std::vector<std::unique_ptr<workloads::NetperfStream>> netperf;
    for (int i = 0; i < streams; ++i) {
        netperf.push_back(std::make_unique<workloads::NetperfStream>(
            tb, sctx[i], cctx[i], 64u << 10,
            workloads::StreamDir::ServerTx));
        netperf.back()->start();
    }
    auto app_bytes = [&] {
        std::uint64_t total = 0;
        for (const auto& s : netperf)
            total += s->bytesDelivered();
        return total;
    };

    // The timeline samples into a private hub and report, so the
    // ObsSession's exports do not carry it.
    obs::Hub series_hub;
    obs::Report series;
    obs::Sampler sampler(tb.sim(), series_hub, series, kSample);
    sampler.watchRate("pf0_tx",
                      [&] { return tb.serverNic().pfTxBytes(0); });
    sampler.watchRate("pf1_tx",
                      [&] { return tb.serverNic().pfTxBytes(1); });
    sampler.watchRate("app", app_bytes);
    sampler.watchRate("xps_override",
                      [&] { return tb.serverStack().txQueueOverrides(); },
                      obs::SampleUnit::PerSec);
    sampler.start();
    if (obs != nullptr)
        obs->startSampler(tb);

    std::uint64_t degraded_bytes = 0;
    std::uint64_t mark = 0;
    for (sim::Tick t = 0; t < kRunFor; t += kSample) {
        tb.runFor(kSample);
        const sim::Tick now = tb.sim().now();
        if (now == kDegradeAt + kSample)
            mark = app_bytes();
        if (now == kRestoreAt)
            degraded_bytes = app_bytes() - mark;
    }

    const obs::RunData& run = series.runs().front();
    if (print) {
        std::printf("\n# octoNIC: PF0 retrained x8->x2 at 0.30 s, "
                    "restored at 0.60 s; %d Tx streams from node 0; "
                    "monitor %s; 10 ms samples\n",
                    streams, monitored ? "ON" : "OFF");
        std::printf("%-8s %10s %10s %10s %14s\n", "t[s]", "pf0-tx",
                    "pf1-tx", "app", "override/s");
        for (std::size_t i = 0; i < run.timesMs.size(); ++i) {
            const double t_ms = run.timesMs[i];
            const bool near_fault =
                (t_ms >= 290 && t_ms <= 370) ||
                (t_ms >= 590 && t_ms <= 690);
            if (static_cast<int>(t_ms) % 100 != 0 && !near_fault)
                continue;
            std::printf("%-8.2f %10.2f %10.2f %10.2f %14.0f\n",
                        t_ms / 1000.0, run.series[0].values[i],
                        run.series[1].values[i], run.series[2].values[i],
                        run.series[3].values[i]);
        }
        std::printf("# tx-overrides=%llu resteers=%llu\n",
                    static_cast<unsigned long long>(
                        tb.serverStack().txQueueOverrides()),
                    static_cast<unsigned long long>(
                        tb.serverStack().healthResteers()));

        if (monitored) {
            if (std::FILE* csv = std::fopen("tx_retention.csv", "w")) {
                writeWideCsv(csv, run);
                std::fclose(csv);
            }
        }
    }

    if (obs != nullptr)
        obs->endRun();
    return TxRunResult{degraded_bytes,
                       tb.serverStack().txQueueOverrides()};
}

} // namespace

int
main(int argc, char** argv)
{
    ObsSession obs(consumeObsFlags(argc, argv), "tx_retention");
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();

    printHeader("Tx retention — health-aware XPS under a degraded PF",
                "(time series below)");
    const TxRunResult with =
        runTimeline(true, true, &obs, "monitored");
    const TxRunResult without =
        runTimeline(false, true, &obs, "plain");

    const double window_s =
        sim::toMs(kRestoreAt - kDegradeAt - kSample) / 1000.0;
    std::printf("\n# degraded-window app throughput: monitored %.2f Gb/s "
                "vs unmonitored %.2f Gb/s (%.2fx)\n",
                static_cast<double>(with.degradedBytes) * 8 / 1e9 /
                    window_s,
                static_cast<double>(without.degradedBytes) * 8 / 1e9 /
                    window_s,
                without.degradedBytes > 0
                    ? static_cast<double>(with.degradedBytes) /
                          without.degradedBytes
                    : 0.0);

    // Multi-ring variant: spare Tx-only rings de-align the monitor's
    // per-PF-group keepSlot verdict from queueForCore's whole-device
    // one, so some rings the monitor keeps home fail the per-post
    // check and individual sends get redirected — the counter the
    // single-ring runs leave at 0.
    const TxRunResult multi =
        runTimeline(true, false, &obs, "monitored-7rings", 7, 8);
    std::printf("# tx-overrides: 1 ring/core=%llu, 7 rings/core=%llu\n",
                static_cast<unsigned long long>(with.overrides),
                static_cast<unsigned long long>(multi.overrides));
    obs.finish();
    benchmark::Shutdown();
    if (multi.overrides == 0) {
        std::fprintf(stderr,
                     "FAIL: expected nonzero per-post XPS overrides "
                     "with 7 Tx rings per core\n");
        return 1;
    }
    return 0;
}
