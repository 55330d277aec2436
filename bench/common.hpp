/**
 * @file
 * Shared experiment runners for the figure-reproduction benchmarks.
 *
 * Each bench binary regenerates one table/figure from the paper's
 * evaluation (§5): it sweeps the paper's parameter, runs the simulated
 * testbed in the relevant server configurations, and reports the same
 * series the paper plots, as google-benchmark counters plus a printed
 * row table.
 */
#pragma once

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "accmon/monitor.hpp"
#include "accmon/scheme.hpp"
#include "core/testbed.hpp"
#include "obs/hub.hpp"
#include "obs/sampler.hpp"
#include "sim/stats.hpp"
#include "workloads/netperf.hpp"

namespace octo::bench {

using core::ServerMode;
using core::Testbed;
using core::TestbedConfig;
using sim::Tick;

/** Standard measurement window used by the throughput benches. */
constexpr Tick kWarmup = sim::fromMs(5);
constexpr Tick kWindow = sim::fromMs(25);

/** What the observability pass of a bench should record. */
struct ObsOptions
{
    bool trace = false;   ///< Perfetto trace (`<prefix>_trace.json`).
    bool metrics = false; ///< Metric snapshot (`.prom` + `.csv`).
    /** Sampler cadence; 0 keeps periodic sampling off. */
    Tick samplePeriod = 0;

    bool
    any() const
    {
        return trace || metrics || samplePeriod > 0;
    }
};

/**
 * Consume the observability flags from argv (google-benchmark rejects
 * flags it does not know, so this must run before
 * benchmark::Initialize): `--trace`, `--metrics`, `--sample-us N` (or
 * `--sample-us=N`). The OCTO_TRACE / OCTO_METRICS / OCTO_SAMPLE_US
 * environment variables are honored too. A trace implies the metric
 * snapshot (the PR-4 behaviour), and sampling without an explicit
 * `--trace` still records the counter tracks into the trace file.
 */
inline ObsOptions
consumeObsFlags(int& argc, char** argv)
{
    ObsOptions opt;
    int w = 1;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--trace") == 0) {
            opt.trace = true;
            continue;
        }
        if (std::strcmp(argv[i], "--metrics") == 0) {
            opt.metrics = true;
            continue;
        }
        if (std::strcmp(argv[i], "--sample-us") == 0 && i + 1 < argc) {
            opt.samplePeriod = sim::fromUs(std::atof(argv[++i]));
            continue;
        }
        if (std::strncmp(argv[i], "--sample-us=", 12) == 0) {
            opt.samplePeriod = sim::fromUs(std::atof(argv[i] + 12));
            continue;
        }
        argv[w++] = argv[i];
    }
    argc = w;
    const auto envOn = [](const char* name) {
        const char* env = std::getenv(name);
        return env != nullptr && env[0] != '\0' &&
               std::strcmp(env, "0") != 0;
    };
    if (envOn("OCTO_TRACE"))
        opt.trace = true;
    if (envOn("OCTO_METRICS"))
        opt.metrics = true;
    if (const char* env = std::getenv("OCTO_SAMPLE_US");
        env != nullptr && env[0] != '\0')
        opt.samplePeriod = sim::fromUs(std::atof(env));
    if (opt.trace)
        opt.metrics = true;
    if (opt.samplePeriod > 0)
        opt.trace = opt.metrics = true;
    return opt;
}

/** Back-compat shorthand: `--trace` / OCTO_TRACE only. */
inline bool
consumeTraceFlag(int& argc, char** argv)
{
    return consumeObsFlags(argc, argv).trace;
}

/**
 * One bench binary's observability pipeline: the shared Hub, the
 * accumulated Report, and (per run) a Sampler with the standard
 * testbed watch set. Inactive (all options off) it is a null object —
 * every call is a cheap no-op and the benches run exactly as before.
 *
 * Lifecycle per run (preset/pass):
 *
 *     ObsSession obs(consumeObsFlags(argc, argv), "fig06");
 *     ...
 *     obs.beginRun("ioctopus");        // BEFORE the Testbed: run label
 *     cfg.hub = obs.hub();             //   tags its instruments
 *     Testbed tb(cfg);
 *     obs.startSampler(tb);            // AFTER: watches read the models
 *     ... run ...
 *     obs.endRun();                    // BEFORE tb dies: stop + freeze
 *     ...
 *     obs.finish();                    // once: write all output files
 *
 * Run labels must be unique within a binary — instruments are keyed by
 * (name, labels incl. run), so a repeated label would alias two runs.
 */
class ObsSession
{
  public:
    ObsSession(ObsOptions opt, std::string prefix)
        : opt_(opt), prefix_(std::move(prefix))
    {
    }

    bool active() const { return opt_.any(); }
    explicit operator bool() const { return active(); }
    bool sampling() const { return opt_.samplePeriod > 0; }
    const ObsOptions& options() const { return opt_; }

    /** The hub for TestbedConfig.hub / sim.setHub; null when off. */
    obs::Hub* hub() { return active() ? &hub_ : nullptr; }

    obs::Report& report() { return report_; }

    /** Start a labeled run: tag instruments/pids and arm the tracer. */
    void
    beginRun(const std::string& run)
    {
        if (!active())
            return;
        hub_.setRun(run);
        if (opt_.trace)
            hub_.tracer().enable(obs::kCatAll);
    }

    /**
     * Attach the standard watch set for a testbed run and start
     * sampling: rx Gb/s, interconnect bytes + crossing rate, memory
     * bandwidth, per-PF DMA rates, and (when a HealthMonitor is
     * attached) per-PF weight/state. Null when sampling is off.
     */
    obs::Sampler*
    startSampler(Testbed& tb)
    {
        if (!sampling())
            return nullptr;
        sampler_ = std::make_unique<obs::Sampler>(
            tb.sim(), hub_, report_, opt_.samplePeriod);
        obs::Sampler& s = *sampler_;
        if (bypass::PollPlane* pl = tb.serverPoll()) {
            // Polled presets: delivery is whatever the ports harvested;
            // there is no NetStack to ask.
            s.watchRate("poll_rx_gbps",
                        [pl] { return pl->rxBytesTotal(); });
            s.watchRate("poll_tx_gbps",
                        [pl] { return pl->txBytesTotal(); });
        } else {
            os::NetStack* st = &tb.serverStack(0);
            s.watchRate("rx_gbps",
                        [st] { return st->rxBytesDelivered(); });
        }
        topo::Machine* m = &tb.server();
        s.watchRate("qpi_gbps", [m] { return m->qpiBytesTotal(); });
        s.watchRate("membw_gbps", [m] { return m->dramBytesTotal(); });
        obs::MetricRegistry* reg = &hub_.metrics();
        obs::Labels match = {{"host", "server"}};
        if (!hub_.run().empty())
            match.push_back({"run", hub_.run()});
        s.watchRate(
            "qpi_crossings_per_s",
            [reg, match] {
                return reg->sumCounters("qpi_crossings", match);
            },
            obs::SampleUnit::PerSec);
        nic::NicDevice* nic = &tb.serverNic();
        for (int p = 0; p < nic->functionCount(); ++p) {
            const std::string pf = "pf" + std::to_string(p);
            s.watchRate(pf + "_rx_gbps",
                        [nic, p] { return nic->pfRxBytes(p); });
            s.watchRate(pf + "_tx_gbps",
                        [nic, p] { return nic->pfTxBytes(p); });
        }
        if (health::HealthMonitor* mon = tb.monitor()) {
            for (int p = 0; p < nic->functionCount(); ++p) {
                const std::string pf = "pf" + std::to_string(p);
                s.watchGauge(pf + "_health_weight",
                             [mon, p] { return mon->weight(p); });
                s.watchGauge(pf + "_health_state", [mon, p] {
                    return static_cast<double>(
                        static_cast<int>(mon->state(p)));
                });
            }
        }
        // Opt-in (OCTO_SAMPLE_ACCMON=1): access-monitor self tracks —
        // live region count (gauge) and scheme-action rate. Off by
        // default so the standard report stays byte-comparable against
        // goldens.
        if (std::getenv("OCTO_SAMPLE_ACCMON") != nullptr) {
            if (const accmon::AccessMonitor* am = tb.accessMonitor()) {
                s.watchGauge("accmon_regions", [am] {
                    return static_cast<double>(
                        am->regions().regionCount());
                });
            }
            if (const accmon::SchemeEngine* se = tb.schemeEngine()) {
                s.watchRate(
                    "accmon_scheme_applied_per_s",
                    [se] { return se->appliedTotal(); },
                    obs::SampleUnit::PerSec);
            }
        }
        s.start();
        return &s;
    }

    /** Bare sampler for non-Testbed benches (NVMe); add watches and
     *  call ->start() yourself. Null when sampling is off. */
    obs::Sampler*
    makeSampler(sim::Simulator& sim)
    {
        if (!sampling())
            return nullptr;
        sampler_ =
            std::make_unique<obs::Sampler>(sim, hub_, report_,
                                           opt_.samplePeriod);
        return sampler_.get();
    }

    /**
     * Copy @p mon's interval snapshots into the current run's report
     * section (the `regions` block that bumps the document schema to
     * `octo.report.v2`). Call after the measurement window and before
     * endRun() tears the testbed down. No-op when sampling is off,
     * @p mon is null, or the monitor captured nothing.
     */
    void
    harvestAccmon(const accmon::AccessMonitor* mon)
    {
        if (!sampling() || mon == nullptr)
            return;
        obs::RunData* run = report_.lastRun();
        if (run == nullptr || mon->snapshots().empty())
            return;
        run->regionsDev = mon->dev();
        for (const accmon::RegionSnapshot& snap : mon->snapshots()) {
            obs::RegionSampleData out;
            out.timeMs = snap.timeMs;
            out.rows.reserve(snap.rows.size());
            for (const accmon::RegionRow& row : snap.rows) {
                obs::RegionRowData r;
                r.lo = row.lo;
                r.hi = row.hi;
                r.rateGbps = row.rateGbps;
                r.age = row.age;
                out.rows.push_back(r);
            }
            run->regionSamples.push_back(std::move(out));
        }
    }

    /** End the current run: the sampler dies (its task is scheduled on
     *  the run's simulator) and callback instruments freeze. MUST run
     *  before the run's Testbed/Simulator is destroyed. */
    void
    endRun()
    {
        if (!active())
            return;
        sampler_.reset();
        hub_.metrics().freeze();
    }

    /** Write every requested output file; prints what was written. */
    void
    finish()
    {
        if (!active())
            return;
        if (opt_.trace) {
            const std::string p = prefix_ + "_trace.json";
            hub_.tracer().writeFile(p);
            std::printf("# observability: wrote %s (%zu events, %llu "
                        "dropped)\n",
                        p.c_str(), hub_.tracer().eventCount(),
                        static_cast<unsigned long long>(
                            hub_.tracer().droppedEvents()));
        }
        if (opt_.metrics) {
            const std::string prom = prefix_ + "_metrics.prom";
            const std::string csv = prefix_ + "_metrics.csv";
            if (std::FILE* f = std::fopen(prom.c_str(), "w")) {
                hub_.metrics().writePrometheus(f);
                std::fclose(f);
            }
            if (std::FILE* f = std::fopen(csv.c_str(), "w")) {
                hub_.metrics().writeCsv(f);
                std::fclose(f);
            }
            std::printf("# observability: wrote %s + %s (%zu series)\n",
                        prom.c_str(), csv.c_str(),
                        hub_.metrics().size());
        }
        if (sampling()) {
            const std::string json = prefix_ + "_report.json";
            const std::string csv = prefix_ + "_report.csv";
            report_.writeJsonFile(json);
            report_.writeCsvFile(csv);
            std::size_t samples = 0;
            for (const auto& r : report_.runs())
                samples += r.timesMs.size();
            std::printf("# observability: wrote %s + %s (%zu runs, "
                        "%zu samples)\n",
                        json.c_str(), csv.c_str(),
                        report_.runs().size(), samples);
        }
    }

  private:
    ObsOptions opt_;
    std::string prefix_;
    obs::Hub hub_;
    obs::Report report_;
    std::unique_ptr<obs::Sampler> sampler_;
};

/**
 * Wire a config for an observability pass: label the run, attach the
 * hub, and — when sampling an Ioctopus config — attach the health
 * monitor so per-PF weight/state tracks exist even in healthy runs.
 * No-op when @p obs is null or inactive.
 */
inline void
obsBegin(ObsSession* obs, TestbedConfig& cfg, const std::string& run)
{
    if (obs == nullptr || !obs->active())
        return;
    obs->beginRun(run);
    cfg.hub = obs->hub();
    if (obs->sampling() && cfg.mode == ServerMode::Ioctopus)
        cfg.healthMonitor = true;
}

/** Snapshot-delta probe over a measurement window. */
class Probe
{
  public:
    Probe(Testbed& tb, const std::vector<topo::Core*>& cores,
          std::uint64_t app_bytes0)
        : tb_(tb), cores_(cores), bytes0_(app_bytes0),
          dram0_(tb.server().dramBytesTotal()),
          qpi0_(tb.server().qpiBytesTotal()), t0_(tb.sim().now())
    {
        for (auto* c : cores_)
            busy0_.push_back(c->busyTime());
    }

    /** Application throughput in Gb/s given the current byte count. */
    double
    gbps(std::uint64_t app_bytes) const
    {
        return sim::toGbps(app_bytes - bytes0_, elapsed());
    }

    /** Server memory bandwidth over the window, Gb/s. */
    double
    membwGbps() const
    {
        return sim::toGbps(tb_.server().dramBytesTotal() - dram0_,
                           elapsed());
    }

    /** Server interconnect traffic over the window, Gb/s. */
    double
    qpiGbps() const
    {
        return sim::toGbps(tb_.server().qpiBytesTotal() - qpi0_,
                           elapsed());
    }

    /** Aggregate busy fraction of the probed cores, in cores. */
    double
    cpuCores() const
    {
        Tick busy = 0;
        for (std::size_t i = 0; i < cores_.size(); ++i)
            busy += cores_[i]->busyTime() - busy0_[i];
        return static_cast<double>(busy) / elapsed();
    }

    Tick elapsed() const { return tb_.sim().now() - t0_; }

  private:
    Testbed& tb_;
    std::vector<topo::Core*> cores_;
    std::uint64_t bytes0_;
    std::uint64_t dram0_;
    std::uint64_t qpi0_;
    Tick t0_;
    std::vector<Tick> busy0_;
};

/** Result triple reported by the netperf stream figures. */
struct StreamResult
{
    double gbps = 0;
    double membwGbps = 0;
    double cpuCores = 0;
};

/**
 * Single-core netperf TCP_STREAM experiment (Figs. 6 and 7): app thread
 * and NIC interrupts share one server core. An active ObsSession runs
 * the full pipeline for the pass — run-labeled instruments, trace
 * spans, periodic counter tracks — and when sampling is on the health
 * monitor is attached (Ioctopus mode) so per-PF weight/state curves
 * exist even in healthy runs.
 */
inline StreamResult
runTcpStream(ServerMode mode, std::uint64_t msg_bytes,
             workloads::StreamDir dir, Tick warmup = kWarmup,
             Tick window = kWindow, ObsSession* obs = nullptr,
             const std::string& run_label = {})
{
    TestbedConfig cfg;
    cfg.mode = mode;
    obsBegin(obs, cfg,
             run_label.empty() ? core::modeName(mode) : run_label);
    Testbed tb(cfg);
    auto server_t = tb.serverThread(tb.workNode(), 0);
    auto client_t = tb.clientThread(0);
    workloads::NetperfStream stream(tb, server_t, client_t, msg_bytes,
                                    dir);
    stream.start();
    if (obs != nullptr)
        obs->startSampler(tb);

    tb.runFor(warmup);
    Probe probe(tb, {&server_t.core()}, stream.bytesDelivered());
    tb.runFor(window);
    StreamResult res{probe.gbps(stream.bytesDelivered()),
                     probe.membwGbps(), probe.cpuCores()};
    if (obs != nullptr)
        obs->endRun();
    return res;
}

/** Printf a header once per figure. */
inline void
printHeader(const std::string& title, const std::string& cols)
{
    std::printf("\n### %s\n%s\n", title.c_str(), cols.c_str());
}

} // namespace octo::bench
