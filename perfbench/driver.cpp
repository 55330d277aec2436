/**
 * @file
 * The simulator benchmark driver: one single-threaded process per
 * workload that builds each Testbed itself, drives the model through
 * the layers' public functions, and reports host-side cost.
 *
 *     perfbench_driver --workload W --seed N --seconds S --trace 0|1
 *                      [--out DIR]
 *
 * Closed loop: an iteration runs the workload's simulated runs one
 * after another, and the next iteration starts when the previous one
 * ends. The first iteration warms caches and the allocator and is not
 * timed; iterations then repeat until --seconds have elapsed (at
 * least kMinIterations). Every run's output is checked; a run whose
 * check fails is a failed op.
 *
 * --trace 0 prints the end-to-end metrics (medians over iterations).
 * --trace 1 is the separate traced pass: a reference iteration,
 * a traced iteration (sliced runFor, driver spans, per-layer counts),
 * the attach-delta pairs and the determinism checks; the spans go to
 * DIR/<workload>-seed<N>.trace.json (Chrome-trace JSON).
 *
 * The last stdout line is the result object:
 * {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
 */
#include <algorithm>
#include <chrono>
#include <cmath>
#include <coroutine>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "accmon/monitor.hpp"
#include "accmon/scheme.hpp"
#include "bypass/plane.hpp"
#include "chaos/campaign.hpp"
#include "chaos/oracle.hpp"
#include "core/testbed.hpp"
#include "obs/hub.hpp"
#include "obs/sampler.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"
#include "sim/sync.hpp"
#include "sim/task.hpp"
#include "workloads/netperf.hpp"

using namespace octo;
using core::ServerMode;
using core::Testbed;
using core::TestbedConfig;
using sim::Tick;

namespace {

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

constexpr int kMinIterations = 3;
/** Simulated slice of runFor in the traced pass (core.slice_ms_*). */
constexpr Tick kSlice = sim::fromMs(1);

// ------------------------------------------------------------- spans

/** Driver-side spans, kept in memory and written once as Chrome-trace
 *  JSON (open in ui.perfetto.dev). Inactive: every call is a no-op. */
class Spans
{
  public:
    explicit Spans(bool on) : on_(on), t0_(Clock::now()) {}

    class Scope
    {
      public:
        Scope(Spans* s, std::size_t idx) : s_(s), idx_(idx) {}
        ~Scope() { close(); }
        Scope(const Scope&) = delete;
        Scope& operator=(const Scope&) = delete;

        void
        close()
        {
            if (s_ != nullptr)
                s_->spans_[idx_].endUs = s_->nowUs();
            s_ = nullptr;
        }

      private:
        Spans* s_;
        std::size_t idx_;
    };

    Scope
    open(std::string name, std::string label = {})
    {
        if (!on_)
            return Scope(nullptr, 0);
        const double t = nowUs();
        spans_.push_back({std::move(name), std::move(label), t, t});
        return Scope(this, spans_.size() - 1);
    }

    bool
    write(const std::string& path) const
    {
        std::FILE* f = std::fopen(path.c_str(), "w");
        if (f == nullptr)
            return false;
        std::fprintf(f, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
        std::fprintf(f, "{\"name\": \"process_name\", \"ph\": \"M\", "
                        "\"pid\": 1, \"tid\": 1, \"args\": {\"name\": "
                        "\"perfbench driver\"}}");
        for (const Span& s : spans_) {
            std::fprintf(f,
                         ",\n{\"name\": \"%s\", \"cat\": \"perfbench\", "
                         "\"ph\": \"X\", \"pid\": 1, \"tid\": 1, "
                         "\"ts\": %.3f, \"dur\": %.3f, \"args\": "
                         "{\"label\": \"%s\"}}",
                         s.name.c_str(), s.beginUs, s.endUs - s.beginUs,
                         s.label.c_str());
        }
        std::fprintf(f, "\n]}\n");
        return std::fclose(f) == 0;
    }

    std::size_t size() const { return spans_.size(); }

  private:
    struct Span
    {
        std::string name;
        std::string label;
        double beginUs;
        double endUs;
    };

    double
    nowUs() const
    {
        return std::chrono::duration<double, std::micro>(Clock::now() -
                                                         t0_)
            .count();
    }

    bool on_;
    Clock::time_point t0_;
    std::vector<Span> spans_;
};

// ------------------------------------------------------------ digest

/** FNV-1a over the model's simulated outputs. Observers (hub, Sampler,
 *  access monitor without schemes) and event counts stay out of it, so
 *  attach/detach pairs and sliced vs single runFor must agree. */
class Digest
{
  public:
    void
    add(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            h_ ^= (v >> (8 * i)) & 0xFF;
            h_ *= 0x100000001B3ull;
        }
    }
    std::uint64_t value() const { return h_; }

  private:
    std::uint64_t h_ = 0xCBF29CE484222325ull;
};

// ------------------------------------------------------- layer counts

/** Per-layer counts of one iteration: summed over runs, or the max. */
struct Layers
{
    std::map<std::string, double> sum;
    std::map<std::string, double> max;

    void add(const std::string& k, double v) { sum[k] += v; }
    void
    peak(const std::string& k, double v)
    {
        max[k] = std::max(max[k], v);
    }
    double get(const std::string& k) const
    {
        if (auto it = sum.find(k); it != sum.end())
            return it->second;
        if (auto it = max.find(k); it != max.end())
            return it->second;
        return 0.0;
    }
};

/** Server-NIC Rx frame totals per queue. */
std::vector<std::uint64_t>
rxSnapshot(Testbed& tb)
{
    nic::NicDevice& dev = tb.serverNic();
    std::vector<std::uint64_t> v;
    for (int q = 0; q < dev.queueCount(); ++q)
        v.push_back(dev.queue(q).rxFrames.total());
    return v;
}

/** Server-NIC Rx frames since @p before (all frames when empty), and
 *  those whose queue's PF is on the ring's node at the window's end.
 *  Failover rebinds queues, so callers keep windows short where PFs
 *  change under the traffic. */
struct RxWindow
{
    std::uint64_t frames = 0;
    std::uint64_t local = 0;

    double
    localShare() const
    {
        return frames > 0 ? static_cast<double>(local) /
                                static_cast<double>(frames)
                          : 0.0;
    }

    RxWindow&
    operator+=(const RxWindow& o)
    {
        frames += o.frames;
        local += o.local;
        return *this;
    }
};

RxWindow
rxSince(Testbed& tb, const std::vector<std::uint64_t>& before = {})
{
    RxWindow r;
    nic::NicDevice& dev = tb.serverNic();
    for (int q = 0; q < dev.queueCount(); ++q) {
        const nic::NicQueue& nq = dev.queue(q);
        const std::size_t i = static_cast<std::size_t>(q);
        const std::uint64_t n =
            nq.rxFrames.total() - (i < before.size() ? before[i] : 0);
        r.frames += n;
        if (nq.pf->linkUp() && nq.pf->node() == nq.bufNode)
            r.local += n;
    }
    return r;
}

/** Every NetStack of both hosts (none under the -poll presets). */
std::vector<os::NetStack*>
stacks(Testbed& tb)
{
    std::vector<os::NetStack*> v;
    if (tb.serverPoll() != nullptr)
        return v;
    for (int i = 0; i < tb.serverStackCount(); ++i)
        v.push_back(&tb.serverStack(i));
    v.push_back(&tb.clientStack());
    return v;
}

std::vector<bypass::PollPlane*>
pollPlanes(Testbed& tb)
{
    std::vector<bypass::PollPlane*> v;
    if (tb.serverPoll() != nullptr)
        v.push_back(tb.serverPoll());
    if (tb.clientPoll() != nullptr)
        v.push_back(tb.clientPoll());
    return v;
}

/** Fold the model's simulated outputs into @p d. */
void
digestModel(Testbed& tb, Digest& d)
{
    d.add(static_cast<std::uint64_t>(tb.sim().now()));
    d.add(tb.server().qpiBytesTotal());
    d.add(tb.server().dramBytesTotal());
    d.add(tb.client().qpiBytesTotal());
    d.add(tb.client().dramBytesTotal());
    for (nic::NicDevice* dev : {&tb.serverNic(), &tb.clientNic()}) {
        for (int q = 0; q < dev->queueCount(); ++q) {
            d.add(dev->queue(q).rxFrames.total());
            d.add(dev->queue(q).txFrames.total());
        }
        for (int p = 0; p < dev->functionCount(); ++p) {
            d.add(dev->pfRxBytes(p));
            d.add(dev->pfTxBytes(p));
        }
        d.add(dev->rxDrops());
        d.add(dev->deadPfDrops());
        d.add(dev->grayRxDrops());
    }
    for (os::NetStack* st : stacks(tb)) {
        d.add(st->rxPacketsProcessed());
        d.add(st->rxBytesDelivered());
        d.add(st->lostFrames());
        d.add(st->retryReclaims());
        d.add(st->resteersPerformed());
        d.add(st->flowPlacements());
        d.add(st->pfFailovers());
    }
    for (bypass::PollPlane* pl : pollPlanes(tb)) {
        d.add(pl->rxFramesTotal());
        d.add(pl->txFramesTotal());
        d.add(pl->emptyPollsTotal());
        d.add(pl->lostFrames());
        d.add(pl->resteersPerformed());
        d.add(pl->flowPlacements());
    }
    if (const accmon::SchemeEngine* se = tb.schemeEngine()) {
        d.add(se->promotions());
        d.add(se->demotions());
        d.add(se->quotaDeferred());
    }
    if (const health::HealthMonitor* m = tb.monitor()) {
        d.add(m->samples());
        d.add(m->verdicts());
        d.add(m->probesSent());
    }
    if (const health::DifferentialProber* p = tb.prober()) {
        d.add(p->probesSent());
        d.add(p->demotions());
    }
}

/** Read every layer's counters off a finished run. */
void
collectLayers(Testbed& tb, Layers& L)
{
    sim::Simulator& s = tb.sim();
    L.add("sim.events", static_cast<double>(s.eventsProcessed()));
    std::uint64_t dev = 0;
    for (std::size_t i = 0; i < s.domains().size(); ++i) {
        if (s.domains()[i].device >= 0)
            dev += s.domainEvents(i);
    }
    L.add("sim.dev_events", static_cast<double>(dev));
    L.peak("sim.pool_slots", static_cast<double>(s.poolCapacity()));
    L.add("sim.pool_growths", static_cast<double>(s.poolGrowths()));
    L.add("sim.cold_callbacks", static_cast<double>(s.coldCallbacks()));

    for (os::NetStack* st : stacks(tb)) {
        L.add("os.rx_packets",
              static_cast<double>(st->rxPacketsProcessed()));
        L.add("os.lost_frames", static_cast<double>(st->lostFrames()));
        L.add("os.retry_reclaims",
              static_cast<double>(st->retryReclaims()));
    }
    for (bypass::PollPlane* pl : pollPlanes(tb)) {
        for (int p = 0; p < pl->portCount(); ++p) {
            const bypass::PollPort& port = pl->port(p);
            L.add("bypass.polls", static_cast<double>(port.polls()));
            L.add("bypass.empty_polls",
                  static_cast<double>(port.emptyPolls()));
            L.add("bypass.pending_refill",
                  static_cast<double>(port.pendingRefill()));
        }
    }

    L.add("topo.qpi_gb", static_cast<double>(tb.server().qpiBytesTotal()) /
                             1e9);
    L.add("topo.dram_gb",
          static_cast<double>(tb.server().dramBytesTotal()) / 1e9);
    L.add("nic.rx_frames", static_cast<double>(rxSince(tb).frames));
    L.add("nic.rx_drops", static_cast<double>(tb.serverNic().rxDrops()));

    if (const accmon::AccessMonitor* am = tb.accessMonitor()) {
        L.add("accmon.records", static_cast<double>(am->recordsSeen()));
        L.add("accmon.splits", static_cast<double>(am->splits()));
        L.add("accmon.merges", static_cast<double>(am->merges()));
        L.peak("accmon.regions",
               static_cast<double>(am->regions().regionCount()));
        L.add("accmon.overhead_ms",
              static_cast<double>(am->overheadNs()) / 1e6);
    }
    if (const accmon::SchemeEngine* se = tb.schemeEngine()) {
        L.add("steer.promotions", static_cast<double>(se->promotions()));
        L.add("steer.demotions", static_cast<double>(se->demotions()));
        L.add("steer.quota_deferred",
              static_cast<double>(se->quotaDeferred()));
    }
    if (bypass::PollPlane* pl = tb.serverPoll()) {
        L.add("steer.resteers",
              static_cast<double>(pl->resteersPerformed()));
        L.add("steer.placements",
              static_cast<double>(pl->flowPlacements()));
    } else {
        for (int i = 0; i < tb.serverStackCount(); ++i) {
            L.add("steer.resteers", static_cast<double>(
                                        tb.serverStack(i)
                                            .resteersPerformed()));
            L.add("steer.placements",
                  static_cast<double>(
                      tb.serverStack(i).flowPlacements()));
        }
    }
    if (const health::HealthMonitor* m = tb.monitor()) {
        L.add("health.samples", static_cast<double>(m->samples()));
        L.add("health.verdicts", static_cast<double>(m->verdicts()));
        L.add("health.probes_sent", static_cast<double>(m->probesSent()));
    }
    if (const health::DifferentialProber* p = tb.prober())
        L.add("health.probes_sent", static_cast<double>(p->probesSent()));

    const obs::DmaAccountant& acc = tb.serverNic().flows();
    L.peak("obs.flow_rows", static_cast<double>(acc.flowCount()));
    L.add("obs.flow_evictions", static_cast<double>(acc.evictions()));
}

// ------------------------------------------------------------- runs

/** Switches of one simulated run. Observers only: the model digest
 *  must not depend on telemetry or on the monitor without schemes. */
struct Knobs
{
    std::uint64_t seed = 1;
    bool traced = false;   ///< Sliced runFor, spans, layer counts.
    bool telemetry = true; ///< zipf: hub + Sampler + report export.
    bool accmon = true;    ///< zipf: access monitor attached.
    bool schemes = true;   ///< zipf: proactive schemes (needs accmon).
};

/** One simulated run's host cost, model outputs and check verdict. */
struct RunOut
{
    std::string label;
    double setupS = 0;
    double wallS = 0; ///< Warm-up + measurement (+ export), host s.
    double teardownS = 0;
    double exportS = 0;
    std::vector<double> sliceMs;
    std::uint64_t digest = 0;
    bool ok = true;
    std::string why;
    // Measurement-window model outputs.
    double gbps = 0;
    double membwGbps = 0;
    double qpiGbps = 0;
    RxWindow measuredRx; ///< Server-NIC Rx locality, measurement window.
    RxWindow slicedRx; ///< Traced: Rx locality summed per slice.
    Layers layers;

    void
    fail(const std::string& msg)
    {
        if (ok)
            why = msg;
        else
            why += "; " + msg;
        ok = false;
    }
};

/** Times a run's phases and records their spans. */
class Meter
{
  public:
    Meter(Spans& spans, const Knobs& k, RunOut& out)
        : spans_(spans), traced_(k.traced), out_(out),
          run_(spans.open("run", out.label))
    {
    }

    template <typename F>
    auto
    setup(F&& f)
    {
        auto s = spans_.open("setup", out_.label);
        const auto t0 = Clock::now();
        auto r = f();
        out_.setupS += secondsSince(t0);
        return r;
    }

    /** Simulate @p t more; traced runs step in kSlice slices. */
    void
    advance(Testbed& tb, Tick t, const char* phase)
    {
        auto s = spans_.open(phase, out_.label);
        const auto t0 = Clock::now();
        if (!traced_) {
            tb.runFor(t);
        } else {
            for (Tick done = 0; done < t; done += kSlice) {
                auto sl = spans_.open("slice", out_.label);
                const std::vector<std::uint64_t> rx0 = rxSnapshot(tb);
                const auto s0 = Clock::now();
                tb.runFor(std::min(kSlice, t - done));
                out_.sliceMs.push_back(secondsSince(s0) * 1e3);
                out_.slicedRx += rxSince(tb, rx0);
            }
        }
        out_.wallS += secondsSince(t0);
    }

    template <typename F>
    void
    exportPhase(F&& f)
    {
        auto s = spans_.open("export", out_.label);
        const auto t0 = Clock::now();
        f();
        const double dt = secondsSince(t0);
        out_.exportS += dt;
        out_.wallS += dt;
    }

    template <typename State>
    void
    teardown(std::unique_ptr<State>& st)
    {
        auto s = spans_.open("teardown", out_.label);
        const auto t0 = Clock::now();
        st.reset();
        out_.teardownS += secondsSince(t0);
    }

  private:
    Spans& spans_;
    bool traced_;
    RunOut& out_;
    Spans::Scope run_;
};

/** Model digest + (traced) layer counts; call before teardown. */
void
finishRun(Testbed& tb, const Knobs& k, RunOut& out, Digest& d)
{
    digestModel(tb, d);
    out.digest = d.value();
    if (k.traced)
        collectLayers(tb, out.layers);
}

// --------------------------------------------------------- tcp_stream

constexpr Tick kStreamWarmup = sim::fromMs(5);
constexpr Tick kStreamWindow = sim::fromMs(15);

struct StreamCase
{
    StreamCase(ServerMode mode, std::uint64_t msg,
               workloads::StreamDir dir)
        : tb(config(mode)), serverT(tb.serverThread(tb.workNode(), 0)),
          clientT(tb.clientThread(0)),
          stream(tb, serverT, clientT, msg, dir)
    {
        stream.start();
    }

    static TestbedConfig
    config(ServerMode mode)
    {
        TestbedConfig cfg;
        cfg.mode = mode;
        return cfg;
    }

    Testbed tb;
    os::ThreadCtx serverT;
    os::ThreadCtx clientT;
    workloads::NetperfStream stream;
};

RunOut
runStream(Spans& spans, const Knobs& k, ServerMode mode,
          std::uint64_t msg, workloads::StreamDir dir)
{
    RunOut out;
    out.label = std::string(core::modeName(mode)) + "/" +
                std::to_string(msg) + "B/" +
                (dir == workloads::StreamDir::ServerRx ? "rx" : "tx");
    Meter m(spans, k, out);
    auto st = m.setup(
        [&] { return std::make_unique<StreamCase>(mode, msg, dir); });
    Testbed& tb = st->tb;
    m.advance(tb, kStreamWarmup, "warmup");
    const std::uint64_t b0 = st->stream.bytesDelivered();
    const std::uint64_t dram0 = tb.server().dramBytesTotal();
    const std::uint64_t qpi0 = tb.server().qpiBytesTotal();
    const std::vector<std::uint64_t> rx0 = rxSnapshot(tb);
    m.advance(tb, kStreamWindow, "measure");
    out.gbps = sim::toGbps(st->stream.bytesDelivered() - b0,
                           kStreamWindow);
    out.membwGbps =
        sim::toGbps(tb.server().dramBytesTotal() - dram0, kStreamWindow);
    out.qpiGbps =
        sim::toGbps(tb.server().qpiBytesTotal() - qpi0, kStreamWindow);
    out.measuredRx = rxSince(tb, rx0);
    if (out.gbps <= 0.0)
        out.fail("no goodput");
    Digest d;
    d.add(st->stream.bytesDelivered());
    finishRun(tb, k, out, d);
    m.teardown(st);
    return out;
}

// --------------------------------------------------------------- zipf

constexpr std::uint32_t kPktBytes = 1500;
constexpr double kZipfSkew = 1.2;
constexpr int kZipfFlows = 100000;
constexpr int kZipfWorkers = 4;
constexpr int kZipfInflight = 256;
constexpr int kPollBurst = 4;
constexpr double kOfferedGbps = 60.0; ///< Paced aggregate offer.
constexpr double kZipfQpiGbps = 22.0;
constexpr Tick kZipfWarmup = sim::fromMs(5);
constexpr Tick kZipfWindow = sim::fromMs(5);
/** "Well above" reactive-only steering's ~52% local share; monitored
 *  runs measure 0.69-0.81 over seeds 1-16. */
constexpr double kMinMonitoredLocal = 0.60;

/** Zipf(s) ranks 0..n-1 via inverse-CDF binary search. */
class ZipfGen
{
  public:
    ZipfGen(double skew, int n) : cdf_(static_cast<std::size_t>(n))
    {
        double sum = 0.0;
        for (int i = 0; i < n; ++i) {
            sum += 1.0 / std::pow(static_cast<double>(i + 1), skew);
            cdf_[static_cast<std::size_t>(i)] = sum;
        }
        for (double& c : cdf_)
            c /= sum;
    }

    int
    sample(sim::Rng& rng) const
    {
        const double u = rng.uniform();
        const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
        return static_cast<int>(
            std::min<std::ptrdiff_t>(it - cdf_.begin(),
                                     static_cast<std::ptrdiff_t>(
                                         cdf_.size() - 1)));
    }

  private:
    std::vector<double> cdf_;
};

nic::FiveTuple
zipfFlow(int rank)
{
    nic::FiveTuple f;
    f.srcIp = Testbed::kClientIp + static_cast<std::uint32_t>(rank >> 16);
    f.dstIp = Testbed::kServerIp;
    f.srcPort = static_cast<std::uint16_t>(rank & 0xFFFF);
    f.dstPort = 5001;
    f.proto = nic::Proto::Udp;
    return f;
}

struct ZipfCase
{
    ZipfCase(bool poll, const Knobs& k)
        : tb(config(poll, k, k.telemetry ? &hub : nullptr)),
          zipf(kZipfSkew, kZipfFlows), rng(k.seed * 0x9E3779B97F4A7C15ull +
                                           0xD1B54A32D192ED03ull)
    {
        // Aggregate pacing: each worker posts every kZipfWorkers
        // packet-times (times the burst on the polled path).
        const Tick gap = static_cast<Tick>(
            sim::fromSec(kPktBytes * 8.0 / (kOfferedGbps * 1e9)) *
            kZipfWorkers * (poll ? kPollBurst : 1));
        for (int w = 0; w < kZipfWorkers; ++w)
            windows.push_back(
                std::make_unique<sim::Semaphore>(tb.sim(), kZipfInflight));
        if (poll) {
            for (int p = 0; p < tb.serverPoll()->portCount(); ++p)
                loops.push_back(sink(tb.serverPoll()->port(p)));
            for (int w = 0; w < kZipfWorkers; ++w)
                loops.push_back(pollWorker(tb.clientPoll()->port(w),
                                           *windows[w], gap));
        } else {
            for (int w = 0; w < kZipfWorkers; ++w)
                loops.push_back(
                    kernelWorker(tb.clientThread(w), *windows[w], gap));
        }
        if (k.telemetry)
            startSampler();
    }

    ~ZipfCase()
    {
        // The sampler's task lives on this testbed's simulator, and
        // callback instruments read the models: stop both first.
        sampler.reset();
        hub.metrics().freeze();
    }

    static TestbedConfig
    config(bool poll, const Knobs& k, obs::Hub* hub)
    {
        TestbedConfig cfg;
        cfg.mode = ServerMode::Remote;
        cfg.bypass = poll;
        cfg.cal.qpiGbps = kZipfQpiGbps;
        cfg.accessMonitor = k.accmon;
        cfg.accmonSchemes = k.accmon && k.schemes;
        cfg.hub = hub;
        return cfg;
    }

    void
    startSampler()
    {
        sampler = std::make_unique<obs::Sampler>(tb.sim(), hub, report,
                                                 sim::fromMs(1));
        obs::Sampler& s = *sampler;
        if (bypass::PollPlane* pl = tb.serverPoll()) {
            s.watchRate("poll_rx_gbps", [pl] { return pl->rxBytesTotal(); });
        } else {
            os::NetStack* st = &tb.serverStack(0);
            s.watchRate("rx_gbps", [st] { return st->rxBytesDelivered(); });
        }
        topo::Machine* m = &tb.server();
        s.watchRate("qpi_gbps", [m] { return m->qpiBytesTotal(); });
        s.watchRate("membw_gbps", [m] { return m->dramBytesTotal(); });
        nic::NicDevice* nic = &tb.serverNic();
        for (int p = 0; p < nic->functionCount(); ++p)
            s.watchRate("pf" + std::to_string(p) + "_rx_gbps",
                        [nic, p] { return nic->pfRxBytes(p); });
        const obs::DmaAccountant* acc = &nic->flows();
        s.watchGauge("flow_rows[nic]", [acc] {
            return static_cast<double>(acc->flowCount());
        });
        if (const accmon::AccessMonitor* am = tb.accessMonitor()) {
            s.watchGauge("accmon_regions", [am] {
                return static_cast<double>(am->regions().regionCount());
            });
        }
        s.start();
    }

    /** Copy the monitor's snapshots into the report (schema v2) and
     *  render the report and the metric registry. */
    std::size_t
    exportTelemetry()
    {
        if (const accmon::AccessMonitor* am = tb.accessMonitor();
            am != nullptr && report.lastRun() != nullptr) {
            obs::RunData* run = report.lastRun();
            run->regionsDev = am->dev();
            for (const accmon::RegionSnapshot& snap : am->snapshots()) {
                obs::RegionSampleData out;
                out.timeMs = snap.timeMs;
                for (const accmon::RegionRow& row : snap.rows)
                    out.rows.push_back(
                        {row.lo, row.hi, row.rateGbps,
                         static_cast<int>(row.age)});
                run->regionSamples.push_back(std::move(out));
            }
        }
        return report.jsonText().size() +
               hub.metrics().prometheusText().size();
    }

    sim::Task<>
    kernelWorker(os::ThreadCtx t, sim::Semaphore& inflight, Tick gap)
    {
        os::NetStack& st = tb.clientStack();
        for (;;) {
            co_await inflight.acquire();
            co_await st.rawPost(t, zipfFlow(zipf.sample(rng)), kPktBytes,
                                inflight);
            ++posted;
            co_await sim::delay(tb.sim(), gap);
        }
    }

    sim::Task<>
    pollWorker(bypass::PollPort& port, sim::Semaphore& inflight, Tick gap)
    {
        for (;;) {
            for (int i = 0; i < kPollBurst; ++i)
                co_await inflight.acquire();
            posted += static_cast<std::uint64_t>(co_await port.txBurst(
                zipfFlow(zipf.sample(rng)), kPktBytes, kPollBurst,
                &inflight));
            co_await port.harvestTx(2 * kPollBurst);
            co_await sim::delay(tb.sim(), gap);
        }
    }

    static sim::Task<>
    sink(bypass::PollPort& port)
    {
        std::vector<bypass::RxPacket> pkts(16);
        for (;;) {
            const int n = co_await port.rxBurst(
                pkts.data(), static_cast<int>(pkts.size()));
            for (int i = 0; i < n; ++i)
                port.freePacket(pkts[i]);
        }
    }

    // Hub and report outlive the testbed whose instruments they hold.
    obs::Hub hub;
    obs::Report report;
    Testbed tb;
    ZipfGen zipf;
    sim::Rng rng;
    std::uint64_t posted = 0; ///< Frames the client handed to the NIC.
    std::vector<std::unique_ptr<sim::Semaphore>> windows;
    std::vector<sim::Task<>> loops;
    std::unique_ptr<obs::Sampler> sampler;
};

RunOut
runZipf(Spans& spans, const Knobs& k, bool poll)
{
    RunOut out;
    out.label = std::string(poll ? "remote-poll" : "remote") +
                "/s1.2/100kflows" + (k.telemetry ? "" : "/no-obs") +
                (!k.accmon ? "/no-accmon" : !k.schemes ? "/no-schemes" : "");
    Meter m(spans, k, out);
    auto st = m.setup([&] { return std::make_unique<ZipfCase>(poll, k); });
    Testbed& tb = st->tb;
    m.advance(tb, kZipfWarmup, "warmup");
    const std::vector<std::uint64_t> rx0 = rxSnapshot(tb);
    const std::uint64_t qpi0 = tb.server().qpiBytesTotal();
    const std::uint64_t dram0 = tb.server().dramBytesTotal();
    m.advance(tb, kZipfWindow, "measure");
    const RxWindow win = rxSince(tb, rx0);
    out.gbps = static_cast<double>(win.frames) * kPktBytes * 8.0 /
               sim::toSec(kZipfWindow) / 1e9;
    out.qpiGbps =
        sim::toGbps(tb.server().qpiBytesTotal() - qpi0, kZipfWindow);
    out.membwGbps =
        sim::toGbps(tb.server().dramBytesTotal() - dram0, kZipfWindow);
    out.measuredRx = win;
    if (k.telemetry) {
        std::size_t bytes = 0;
        m.exportPhase([&] { bytes = st->exportTelemetry(); });
        if (bytes == 0)
            out.fail("empty telemetry export");
        if (k.traced) {
            out.layers.peak("obs.series",
                            static_cast<double>(st->hub.metrics().size()));
            out.layers.add("obs.samples", static_cast<double>(
                                              st->sampler->sampleCount()));
        }
    }
    // Checks: the server never receives more than the client sent, and
    // with schemes on the monitored local share is well above the
    // reactive-only ~52%.
    const std::uint64_t delivered = rxSince(tb).frames;
    if (delivered > st->posted)
        out.fail("delivered " + std::to_string(delivered) +
                 " frames > offered " + std::to_string(st->posted));
    if (out.gbps <= 0.0)
        out.fail("no goodput");
    if (k.accmon && k.schemes &&
        win.localShare() < kMinMonitoredLocal)
        out.fail("monitored local share " +
                 std::to_string(win.localShare()) + " < " +
                 std::to_string(kMinMonitoredLocal));
    Digest d;
    d.add(st->posted);
    finishRun(tb, k, out, d);
    m.teardown(st);
    return out;
}

// ------------------------------------------------------- chaos_storm

constexpr Tick kChaosWarmup = sim::fromMs(2);
constexpr Tick kStormHorizon = sim::fromMs(60);
constexpr Tick kStormWindow = sim::fromMs(10);
constexpr double kStormIntensity = 1.0;
constexpr int kChaosStreams = 4;
constexpr int kChaosBurst = 32;
constexpr int kChaosDepth = 256;
constexpr std::uint32_t kChaosFrame = 1024;

fault::FaultPlan
stormPlan(std::uint64_t seed)
{
    const TestbedConfig probe;
    chaos::StormSpec spec;
    spec.seed = seed;
    spec.horizon = kStormHorizon;
    spec.intensity = kStormIntensity;
    spec.targets = {2, probe.cal.nodes * probe.cal.coresPerNode, 0};
    spec.gray = true;
    return chaos::storm(spec);
}

TestbedConfig
chaosConfig(bool poll, const fault::FaultPlan& plan)
{
    TestbedConfig cfg;
    cfg.mode = ServerMode::Ioctopus;
    cfg.bypass = poll;
    cfg.faults = plan;
    cfg.healthMonitor = true;
    cfg.diffProber = true;
    cfg.prober.period = sim::fromMs(1);
    cfg.prober.probesPerRound = 2;
    return cfg;
}

chaos::OracleConfig
oracleConfig()
{
    chaos::OracleConfig cfg;
    cfg.period = sim::fromUs(500);
    cfg.abortOnViolation = false;
    return cfg;
}

/** A flow may legitimately stall while a PF is dead or gray. */
std::function<bool()>
sickPathExemption(Testbed& tb)
{
    return [&tb] {
        nic::NicDevice& nic = tb.serverNic();
        for (int p = 0; p < nic.functionCount(); ++p) {
            if (!nic.function(p).linkUp() || nic.function(p).grayFaulted())
                return true;
        }
        return false;
    };
}

/** Kernel half: kChaosStreams TCP Rx streams served by PF0. */
struct ChaosKernelCase
{
    explicit ChaosKernelCase(const fault::FaultPlan& plan)
        : tb(chaosConfig(false, plan)), oracle(tb.sim(), oracleConfig())
    {
        for (int i = 0; i < kChaosStreams; ++i) {
            serverT.push_back(tb.serverThread(0, i));
            clientT.push_back(tb.clientThread(i));
        }
        for (int i = 0; i < kChaosStreams; ++i) {
            streams.push_back(std::make_unique<workloads::NetperfStream>(
                tb, serverT[i], clientT[i], 64u << 10,
                workloads::StreamDir::ServerRx));
            streams.back()->start();
        }
        oracle.watchChurn(
            "resteers", [this] { return tb.serverStack().resteersPerformed(); },
            128);
        oracle.watchProgress("delivered", [this] { return delivered(); },
                             sim::fromMs(10), sickPathExemption(tb));
        oracle.start();
    }

    std::uint64_t
    delivered() const
    {
        std::uint64_t total = 0;
        for (const auto& s : streams)
            total += s->bytesDelivered();
        return total;
    }

    Testbed tb;
    chaos::Oracle oracle;
    std::vector<os::ThreadCtx> serverT;
    std::vector<os::ThreadCtx> clientT;
    std::vector<std::unique_ptr<workloads::NetperfStream>> streams;
};

/** Polled half: a busy burst producer into a polled sink. */
struct ChaosPollCase
{
    explicit ChaosPollCase(const fault::FaultPlan& plan)
        : tb(chaosConfig(true, plan)), oracle(tb.sim(), oracleConfig()),
          inflight(tb.sim(), kChaosDepth),
          tx(tb.serverPoll()->port(
              tb.server().coreOn(tb.workNode(), 0).id())),
          sinkPort(tb.clientPoll()->port(0))
    {
        flow.srcIp = Testbed::kServerIp;
        flow.dstIp = Testbed::kClientIp;
        flow.srcPort = 7000;
        flow.dstPort = 7001;
        flow.proto = nic::Proto::Udp;
        tb.clientPoll()->steerFlow(flow, 0);
        producer = sim::spawn([this]() -> sim::Task<> {
            for (;;) {
                int n = 0;
                while (n < kChaosBurst && inflight.tryAcquire())
                    ++n;
                if (n > 0)
                    co_await tx.txBurst(flow, kChaosFrame, n, &inflight);
                co_await tx.harvestTx(2 * kChaosBurst);
            }
        });
        sink = sim::spawn([this]() -> sim::Task<> {
            std::vector<bypass::RxPacket> pkts(kChaosBurst);
            for (;;) {
                const int n = co_await sinkPort.rxBurst(pkts.data(),
                                                        kChaosBurst);
                for (int i = 0; i < n; ++i)
                    sinkPort.freePacket(pkts[i]);
            }
        });
        const TestbedConfig& cfg = tb.config();
        oracle.watchMempool("server", tb.serverPoll()->mempool(),
                            cfg.cal.nodes);
        oracle.watchMempool("client", tb.clientPoll()->mempool(),
                            cfg.cal.nodes);
        oracle.addInvariant("tx_inflight_bounds", [this]() -> std::string {
            if (inflight.count() < 0 || inflight.count() > kChaosDepth)
                return "inflight credits " +
                       std::to_string(inflight.count()) + " outside [0, " +
                       std::to_string(kChaosDepth) + "]";
            return {};
        });
        oracle.watchChurn(
            "resteers", [this] { return tb.serverPoll()->resteersPerformed(); },
            128);
        oracle.watchProgress("delivered", [this] { return delivered(); },
                             sim::fromMs(10), sickPathExemption(tb));
        oracle.start();
    }

    std::uint64_t delivered() const { return sinkPort.rxFrames() * kChaosFrame; }

    Testbed tb;
    chaos::Oracle oracle;
    sim::Semaphore inflight;
    nic::FiveTuple flow;
    bypass::PollPort& tx;
    bypass::PollPort& sinkPort;
    sim::Task<> producer;
    sim::Task<> sink;
};

template <typename Case>
RunOut
runChaos(Spans& spans, const Knobs& k, const char* label)
{
    RunOut out;
    out.label = label;
    Meter m(spans, k, out);
    // The storm plan is the workload's generated input: set-up cost.
    auto st = m.setup(
        [&] { return std::make_unique<Case>(stormPlan(k.seed)); });
    Testbed& tb = st->tb;
    m.advance(tb, kChaosWarmup, "warmup");
    const std::uint64_t b0 = st->delivered();
    const std::uint64_t qpi0 = tb.server().qpiBytesTotal();
    const std::uint64_t dram0 = tb.server().dramBytesTotal();
    Digest d;
    // Storm windows: goodput must stay nonzero in every one. Rx
    // locality is classified per window, as failover rebinds queues.
    RxWindow rx;
    std::uint64_t prev = b0;
    int window = 0;
    for (Tick done = 0; done < kStormHorizon; done += kStormWindow) {
        const std::vector<std::uint64_t> rx0 = rxSnapshot(tb);
        m.advance(tb, kStormWindow, "measure");
        rx += rxSince(tb, rx0);
        const std::uint64_t now = st->delivered();
        d.add(now);
        if (now == prev)
            out.fail("zero goodput in storm window " +
                     std::to_string(window));
        prev = now;
        ++window;
    }
    out.gbps = sim::toGbps(st->delivered() - b0, kStormHorizon);
    out.qpiGbps =
        sim::toGbps(tb.server().qpiBytesTotal() - qpi0, kStormHorizon);
    out.membwGbps =
        sim::toGbps(tb.server().dramBytesTotal() - dram0, kStormHorizon);
    out.measuredRx = rx;
    if (st->oracle.violations() != 0) {
        out.fail(std::to_string(st->oracle.violations()) +
                 " oracle violations");
        for (const chaos::Violation& v : st->oracle.log())
            std::fprintf(stderr, "# oracle[%s]: %s at %.1f us: %s\n", label,
                         v.invariant.c_str(), sim::toUs(v.at),
                         v.snapshot.c_str());
    }
    if (k.traced) {
        out.layers.add("chaos.oracle_checks",
                       static_cast<double>(st->oracle.checks()));
        out.layers.add("chaos.oracle_violations",
                       static_cast<double>(st->oracle.violations()));
    }
    d.add(st->oracle.checks());
    d.add(st->oracle.violations());
    finishRun(tb, k, out, d);
    m.teardown(st);
    return out;
}

// ---------------------------------------------------------- workloads

struct Iteration
{
    std::vector<RunOut> runs;
    double setupS = 0;
    double wallS = 0;
    std::uint64_t digest = 0;
    int failed = 0;
};

/** tcp_stream cross-run checks (EXPERIMENTS.md Fig. 6 rows). */
void
checkStream(std::vector<RunOut>& runs)
{
    auto find = [&runs](const std::string& label) -> RunOut& {
        for (RunOut& r : runs)
            if (r.label == label)
                return r;
        std::fprintf(stderr, "perfbench: no run %s\n", label.c_str());
        std::exit(2);
    };
    for (const char* sz : {"64B", "16384B"}) {
        for (const char* dir : {"rx", "tx"}) {
            const std::string tail = std::string("/") + sz + "/" + dir;
            RunOut& ioct = find("ioctopus" + tail);
            const RunOut& local = find("local" + tail);
            // ioctopus == local: the NUDMA-free configurations match.
            if (std::fabs(ioct.gbps - local.gbps) > 0.01 * local.gbps)
                ioct.fail("ioctopus " + std::to_string(ioct.gbps) +
                          " Gb/s != local " + std::to_string(local.gbps));
        }
        RunOut& remote = find(std::string("remote/") + sz + "/rx");
        // Remote Rx pays ~3x its throughput in memory bandwidth (no
        // DDIO: DMA write, copy read, and the copy's write-allocate).
        const double ratio =
            remote.gbps > 0 ? remote.membwGbps / remote.gbps : 0.0;
        if (ratio < 2.5 || ratio > 3.5)
            remote.fail("remote membw/tput " + std::to_string(ratio) +
                        " not ~3x");
    }
    RunOut& ioct = find("ioctopus/16384B/rx");
    const RunOut& remote = find("remote/16384B/rx");
    if (ioct.gbps < 1.18 * remote.gbps)
        ioct.fail("ioct/remote at 16 KiB Rx " +
                  std::to_string(ioct.gbps / remote.gbps) + " < 1.18");
}

Iteration
runIteration(const std::string& workload, Spans& spans, const Knobs& k)
{
    auto span = spans.open("iteration", workload);
    Iteration it;
    if (workload == "tcp_stream") {
        // No random input: the seed is accepted and unused.
        for (ServerMode mode :
             {ServerMode::Local, ServerMode::Remote, ServerMode::Ioctopus})
            for (std::uint64_t msg : {64ull, 16384ull})
                for (workloads::StreamDir dir :
                     {workloads::StreamDir::ServerRx,
                      workloads::StreamDir::ServerTx})
                    it.runs.push_back(runStream(spans, k, mode, msg, dir));
        checkStream(it.runs);
    } else if (workload == "zipf_kernel" || workload == "zipf_poll") {
        it.runs.push_back(runZipf(spans, k, workload == "zipf_poll"));
    } else if (workload == "chaos_storm") {
        it.runs.push_back(runChaos<ChaosKernelCase>(spans, k, "ioctopus"));
        it.runs.push_back(runChaos<ChaosPollCase>(spans, k, "ioctopus-poll"));
    }
    Digest d;
    for (const RunOut& r : it.runs) {
        it.setupS += r.setupS;
        it.wallS += r.wallS;
        d.add(r.digest);
        if (!r.ok) {
            ++it.failed;
            std::fprintf(stderr, "# FAILED %s/%s: %s\n", workload.c_str(),
                         r.label.c_str(), r.why.c_str());
        }
    }
    it.digest = d.value();
    return it;
}

// ------------------------------------------------------- microkernel

/** Host ns per event of a hot-window schedule/dispatch loop timed
 *  directly on a bare Simulator (median of 5 reps of 1M events). */
double
microkernelNsPerEvent()
{
    std::vector<double> reps;
    for (int r = 0; r < 5; ++r) {
        sim::Simulator s;
        std::uint64_t left = 1000000;
        struct Chain
        {
            sim::Simulator& s;
            std::uint64_t& left;
            Tick d;
            void
            operator()() const
            {
                if (left == 0)
                    return;
                --left;
                s.scheduleIn(d, *this);
            }
        };
        for (int c = 0; c < 16; ++c)
            s.scheduleIn(c, Chain{s, left, static_cast<Tick>(c % 3)});
        const auto t0 = Clock::now();
        s.run();
        reps.push_back(secondsSince(t0) * 1e9 /
                       static_cast<double>(s.eventsProcessed()));
    }
    std::sort(reps.begin(), reps.end());
    return reps[reps.size() / 2];
}

// ------------------------------------------------------------ output

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Nearest-rank percentile. */
double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const auto rank = static_cast<std::size_t>(
        std::ceil(p / 100.0 * static_cast<double>(v.size())));
    return v[std::min(v.size() - 1, rank > 0 ? rank - 1 : 0)];
}

/** This process's peak resident set, MB. VmHWM is the high-water mark
 *  of the process's own address space; getrusage's ru_maxrss would
 *  also carry the launcher's peak across exec. */
double
peakRssMb()
{
    std::FILE* f = std::fopen("/proc/self/status", "r");
    if (f == nullptr)
        return 0.0;
    char line[256];
    double kb = 0.0;
    while (std::fgets(line, sizeof line, f) != nullptr) {
        if (std::strncmp(line, "VmHWM:", 6) == 0)
            kb = std::atof(line + 6);
    }
    std::fclose(f);
    return kb / 1024.0;
}

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

void
printResult(int attempted, int failed, const std::vector<Metric>& metrics)
{
    std::printf("{\"correct\": %s, \"attempted\": %d, \"failed\": %d, "
                "\"metrics\": {",
                failed == 0 ? "true" : "false", attempted, failed);
    for (std::size_t i = 0; i < metrics.size(); ++i)
        std::printf("%s\"%s\": {\"value\": %.9g, \"unit\": \"%s\"}",
                    i ? ", " : "", metrics[i].name.c_str(),
                    metrics[i].value, metrics[i].unit.c_str());
    std::printf("}}\n");
    std::fflush(stdout);
}

std::string
hex(std::uint64_t v)
{
    char buf[24];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

// ----------------------------------------------------------- passes

/**
 * Machine-speed reference: a small fixed coroutine discrete-event loop
 * (128 actors resumed from a binary heap of wake-up times, each
 * touching a 256 KiB state table) written here, so no change to the
 * simulator touches it. The host this runs on is shared and its speed
 * drifts by up to ~1.8x over seconds to minutes; the simulator's host
 * time drifts with it. Timing this loop between iterations and scaling
 * each iteration's host time to the loop's nominal time removes most
 * of that drift while keeping any change in the simulator's own cost.
 */
class SpeedReference
{
  public:
    /** The loop's time on the reference machine state, ms. */
    static constexpr double kNominalMs = 25.0;

    SpeedReference() : state_(std::size_t{1} << 15)
    {
        heap_.reserve(kActors);
    }

    /** Host ms for one pass of the loop. */
    double
    measureMs()
    {
        const auto t0 = Clock::now();
        now_ = 0;
        seq_ = 0;
        heap_.clear();
        std::vector<Actor> actors;
        for (int i = 0; i < kActors; ++i)
            actors.push_back(actor(static_cast<std::uint64_t>(i)));
        for (int n = 0; n < kEvents; ++n) {
            std::pop_heap(heap_.begin(), heap_.end(), std::greater<>());
            const Wake w = heap_.back();
            heap_.pop_back();
            now_ = w.t;
            w.h.resume();
        }
        for (Actor& a : actors)
            a.h.destroy();
        sink_ += state_[now_ & (state_.size() - 1)];
        return secondsSince(t0) * 1e3;
    }

    std::uint64_t sink() const { return sink_; }

  private:
    static constexpr int kActors = 128;
    static constexpr int kEvents = 600000;

    struct Wake
    {
        std::uint64_t t;
        std::uint64_t seq;
        std::coroutine_handle<> h;
        bool
        operator>(const Wake& o) const
        {
            return t != o.t ? t > o.t : seq > o.seq;
        }
    };

    /** An endless actor; destroyed while suspended. */
    struct Actor
    {
        struct promise_type
        {
            Actor
            get_return_object()
            {
                return {std::coroutine_handle<promise_type>::from_promise(
                    *this)};
            }
            std::suspend_never initial_suspend() { return {}; }
            std::suspend_always final_suspend() noexcept { return {}; }
            void return_void() {}
            void unhandled_exception() { std::terminate(); }
        };
        std::coroutine_handle<promise_type> h;
    };

    struct Sleep
    {
        SpeedReference& ref;
        std::uint64_t d;
        bool await_ready() const { return false; }
        void
        await_suspend(std::coroutine_handle<> h)
        {
            ref.heap_.push_back({ref.now_ + d, ref.seq_++, h});
            std::push_heap(ref.heap_.begin(), ref.heap_.end(),
                           std::greater<>());
        }
        void await_resume() {}
    };

    Actor
    actor(std::uint64_t id)
    {
        std::uint64_t x = 0x9E3779B97F4A7C15ull ^ id;
        for (;;) {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            state_[(x >> 7) & (state_.size() - 1)] += x;
            co_await Sleep{*this, x & 0xFFF};
        }
    }

    std::vector<Wake> heap_;
    std::vector<std::uint64_t> state_;
    std::uint64_t now_ = 0;
    std::uint64_t seq_ = 0;
    std::uint64_t sink_ = 0;
};

void
printSamples(const char* name, const std::vector<double>& v)
{
    std::printf("# samples %s=", name);
    for (double x : v)
        std::printf("%.6f ", x);
    std::printf("\n");
}

int
runE2E(const std::string& workload, const Knobs& k, double seconds)
{
    Spans off(false);
    int attempted = 0;
    int failed = 0;
    auto account = [&](const Iteration& it) {
        attempted += static_cast<int>(it.runs.size());
        failed += it.failed;
    };
    // Warm-up iteration: fills caches and the allocator; not timed.
    const Iteration first = runIteration(workload, off, k);
    account(first);
    // Abandoned model coroutines leak a little per testbed, so the peak
    // grows with the iteration count: read it at a fixed count.
    const double rss = peakRssMb();
    SpeedReference ref;
    std::vector<double> rawWall;
    std::vector<double> rawSetup;
    std::vector<double> refMs = {ref.measureMs()};
    const auto t0 = Clock::now();
    while (static_cast<int>(rawWall.size()) < kMinIterations ||
           secondsSince(t0) < seconds) {
        Iteration it = runIteration(workload, off, k);
        refMs.push_back(ref.measureMs());
        account(it);
        // Same seed, same inputs: every iteration's digest must match.
        if (it.digest != first.digest) {
            std::fprintf(stderr, "# FAILED %s: digest %s != first %s\n",
                         workload.c_str(), hex(it.digest).c_str(),
                         hex(first.digest).c_str());
            ++failed;
        }
        rawWall.push_back(it.wallS);
        rawSetup.push_back(it.setupS);
    }
    // Each iteration is scaled by the mean of the chain timings taken
    // just before and just after it.
    std::vector<double> wall;
    std::vector<double> setup;
    for (std::size_t i = 0; i < rawWall.size(); ++i) {
        const double scale = SpeedReference::kNominalMs /
                             (0.5 * (refMs[i] + refMs[i + 1]));
        wall.push_back(rawWall[i] * scale);
        setup.push_back(rawSetup[i] * scale);
    }
    std::printf("# workload=%s seed=%llu iterations=%zu runs_per_iteration="
                "%zu model_digest=%s reference_sink=%llu\n",
                workload.c_str(), static_cast<unsigned long long>(k.seed),
                wall.size(), first.runs.size(), hex(first.digest).c_str(),
                static_cast<unsigned long long>(ref.sink() & 0xFF));
    for (const RunOut& r : first.runs)
        std::printf("# model %-28s gbps=%.4f membw=%.4f qpi=%.4f "
                    "local=%.4f\n",
                    r.label.c_str(), r.gbps, r.membwGbps, r.qpiGbps,
                    r.measuredRx.localShare());
    printSamples("raw_wall_s", rawWall);
    printSamples("raw_setup_s", rawSetup);
    printSamples("reference_ms", refMs);
    printSamples("wall_s", wall);
    printSamples("setup_s", setup);
    std::printf("# raw medians: wall_s=%.6f setup_s=%.6f reference_ms=%.3f\n",
                median(rawWall), median(rawSetup), median(refMs));
    printResult(attempted, failed,
                {{"wall_s", median(wall), "s"},
                 {"setup_s", median(setup), "s"},
                 {"peak_rss_mb", rss, "MB"}});
    return 0;
}

constexpr int kAttachPairs = 3;

/** Median over kAttachPairs pairs (alternating which side runs first)
 *  of the wall ms with the observer attached minus without; the two
 *  sides of every pair must produce the same model digest. */
double
attachDelta(const std::string& name, Spans& spans, const Knobs& on,
            const Knobs& off, bool poll, int& attempted, int& failed)
{
    std::vector<double> deltas;
    for (int p = 0; p < kAttachPairs; ++p) {
        auto span = spans.open("attach_pair", name);
        const bool onFirst = p % 2 == 0;
        const RunOut x = runZipf(spans, onFirst ? on : off, poll);
        const RunOut y = runZipf(spans, onFirst ? off : on, poll);
        const RunOut& a = onFirst ? x : y;
        const RunOut& b = onFirst ? y : x;
        attempted += 2;
        failed += (a.ok ? 0 : 1) + (b.ok ? 0 : 1);
        if (a.digest != b.digest) {
            std::fprintf(stderr,
                         "# FAILED attach pair %s: digest %s != %s\n",
                         name.c_str(), hex(a.digest).c_str(),
                         hex(b.digest).c_str());
            ++failed;
        }
        deltas.push_back((a.wallS - b.wallS) * 1e3);
    }
    return median(deltas);
}

int
runTraced(const std::string& workload, const Knobs& k,
          const std::string& outDir)
{
    Spans spans(true);
    Spans off(false);
    int attempted = 0;
    int failed = 0;
    auto account = [&](const Iteration& it) {
        attempted += static_cast<int>(it.runs.size());
        failed += it.failed;
    };
    auto expect = [&](bool cond, const std::string& what) {
        if (!cond) {
            std::fprintf(stderr, "# FAILED determinism: %s\n", what.c_str());
            ++failed;
        }
    };
    auto wspan = spans.open("workload", workload);

    // Untraced reference, twice: same seed twice -> same digest; the
    // second (warm) one is the untraced wall for the overhead.
    const Iteration ref = runIteration(workload, off, k);
    const Iteration ref2 = runIteration(workload, off, k);
    account(ref);
    account(ref2);
    expect(ref.digest == ref2.digest, "same seed twice differs");

    Knobs tk = k;
    tk.traced = true;
    const Iteration tr = runIteration(workload, spans, tk);
    account(tr);
    expect(tr.digest == ref.digest,
           "sliced runFor digest " + hex(tr.digest) +
               " != single runFor " + hex(ref.digest));

    Layers L;
    RxWindow sliced;
    std::vector<double> slices;
    double teardown = 0;
    double exportS = 0;
    double gbps = 0;
    double qpi = 0;
    RxWindow measured;
    for (const RunOut& r : tr.runs) {
        for (const auto& [key, v] : r.layers.sum)
            L.add(key, v);
        for (const auto& [key, v] : r.layers.max)
            L.peak(key, v);
        slices.insert(slices.end(), r.sliceMs.begin(), r.sliceMs.end());
        sliced += r.slicedRx;
        teardown += r.teardownS;
        exportS += r.exportS;
        gbps += r.gbps;
        qpi += r.qpiGbps;
        measured += r.measuredRx;
    }
    const double nRuns = static_cast<double>(tr.runs.size());

    // Attach-delta pairs: detach one observer, keep everything else.
    double obsAttach = 0;
    double accmonAttach = 0;
    const bool zipf = workload == "zipf_kernel" || workload == "zipf_poll";
    if (zipf) {
        const bool poll = workload == "zipf_poll";
        Knobs noObs = k;
        noObs.telemetry = false;
        obsAttach = attachDelta("obs", spans, k, noObs, poll, attempted,
                                failed);
        Knobs monOn = k;
        monOn.schemes = false;
        Knobs monOff = monOn;
        monOff.accmon = false;
        accmonAttach = attachDelta("accmon", spans, monOn, monOff, poll,
                                   attempted, failed);
    }
    // A different seed must reach the generator.
    if (zipf || workload == "chaos_storm") {
        Knobs other = k;
        other.seed = k.seed + 1;
        const Iteration alt = runIteration(workload, off, other);
        account(alt);
        expect(alt.digest != ref.digest,
               "seed " + std::to_string(other.seed) +
                   " gives the same digest as seed " +
                   std::to_string(k.seed));
    }
    const double micro = microkernelNsPerEvent();
    wspan.close();

    const double events = L.get("sim.events");
    const double polls = L.get("bypass.polls");
    const double rxPackets = L.get("os.rx_packets");
    const double rxFrames = L.get("nic.rx_frames");
    std::vector<Metric> m = {
        {"core.setup_ms", tr.setupS * 1e3, "ms"},
        {"core.teardown_ms", teardown * 1e3, "ms"},
        {"core.slice_ms_p50", percentile(slices, 50), "ms"},
        {"core.slice_ms_p99", percentile(slices, 99), "ms"},
        {"sim.events", events, "count"},
        {"sim.host_ns_per_event", events > 0 ? tr.wallS * 1e9 / events : 0,
         "ns"},
        {"sim.dev_event_share",
         events > 0 ? L.get("sim.dev_events") / events : 0, "ratio"},
        {"sim.pool_slots", L.get("sim.pool_slots"), "count"},
        {"sim.pool_growths", L.get("sim.pool_growths"), "count"},
        {"sim.cold_callbacks", L.get("sim.cold_callbacks"), "count"},
        {"sim.microkernel_ns_per_event", micro, "ns"},
        {"os.rx_packets", rxPackets, "count"},
        {"os.host_ns_per_packet",
         rxPackets > 0 ? tr.wallS * 1e9 / rxPackets : 0, "ns"},
        {"os.lost_frames", L.get("os.lost_frames"), "count"},
        {"os.retry_reclaims", L.get("os.retry_reclaims"), "count"},
        {"bypass.polls", polls, "count"},
        {"bypass.empty_poll_share",
         polls > 0 ? L.get("bypass.empty_polls") / polls : 0, "ratio"},
        {"bypass.pending_refill", L.get("bypass.pending_refill"), "count"},
        {"topo.qpi_gb", L.get("topo.qpi_gb"), "GB"},
        {"topo.dram_gb", L.get("topo.dram_gb"), "GB"},
        {"nic.rx_frames", rxFrames, "count"},
        {"nic.rx_drops", L.get("nic.rx_drops"), "count"},
        {"pcie.dma_local_share", sliced.localShare(), "ratio"},
        {"accmon.records", L.get("accmon.records"), "count"},
        {"accmon.splits", L.get("accmon.splits"), "count"},
        {"accmon.merges", L.get("accmon.merges"), "count"},
        {"accmon.regions", L.get("accmon.regions"), "count"},
        {"accmon.overhead_ms", L.get("accmon.overhead_ms"), "ms"},
        {"accmon.attach_ms", accmonAttach, "ms"},
        {"steer.promotions", L.get("steer.promotions"), "count"},
        {"steer.demotions", L.get("steer.demotions"), "count"},
        {"steer.quota_deferred", L.get("steer.quota_deferred"), "count"},
        {"steer.resteers", L.get("steer.resteers"), "count"},
        {"steer.placements", L.get("steer.placements"), "count"},
        {"health.samples", L.get("health.samples"), "count"},
        {"health.verdicts", L.get("health.verdicts"), "count"},
        {"health.probes_sent", L.get("health.probes_sent"), "count"},
        {"chaos.oracle_checks", L.get("chaos.oracle_checks"), "count"},
        {"chaos.oracle_violations", L.get("chaos.oracle_violations"),
         "count"},
        {"obs.attach_ms", obsAttach, "ms"},
        {"obs.export_ms", exportS * 1e3, "ms"},
        {"obs.series", L.get("obs.series"), "count"},
        {"obs.flow_rows", L.get("obs.flow_rows"), "count"},
        {"obs.flow_evictions", L.get("obs.flow_evictions"), "count"},
        {"obs.samples", L.get("obs.samples"), "count"},
        {"model.goodput_gbps", gbps / nRuns, "Gb/s"},
        {"model.local_dma_share", measured.localShare(), "ratio"},
        {"model.qpi_gbps", qpi / nRuns, "Gb/s"},
        {"bench.trace_overhead_s", tr.wallS - ref2.wallS, "s"},
    };

    const std::string tracePath = outDir + "/" + workload + "-seed" +
                                  std::to_string(k.seed) + ".trace.json";
    if (!spans.write(tracePath)) {
        std::fprintf(stderr, "perfbench: cannot write %s\n",
                     tracePath.c_str());
        return 1;
    }
    std::printf("# workload=%s seed=%llu model_digest=%s traced_digest=%s "
                "spans=%zu trace=%s\n",
                workload.c_str(), static_cast<unsigned long long>(k.seed),
                hex(ref.digest).c_str(), hex(tr.digest).c_str(),
                spans.size(), tracePath.c_str());
    std::printf("# untraced wall_s=%.6f traced wall_s=%.6f\n", ref2.wallS,
                tr.wallS);
    printResult(attempted, failed, m);
    return 0;
}

[[noreturn]] void
usage(const char* msg)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench_driver --workload "
                 "{tcp_stream|zipf_kernel|zipf_poll|chaos_storm} --seed N "
                 "--seconds S --trace {0|1} [--out DIR]\n",
                 msg);
    std::exit(2);
}

} // namespace

int
main(int argc, char** argv)
{
#ifndef __OPTIMIZE__
    std::fprintf(stderr, "perfbench: refusing to measure a non-optimised "
                         "build (configure with -DCMAKE_BUILD_TYPE="
                         "RelWithDebInfo or Release)\n");
    return 3;
#endif
    std::string workload;
    std::string outDir = ".";
    Knobs k;
    double seconds = -1;
    int trace = -1;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string flag = argv[i];
        const char* v = argv[i + 1];
        if (flag == "--workload")
            workload = v;
        else if (flag == "--seed")
            k.seed = std::strtoull(v, nullptr, 10);
        else if (flag == "--seconds")
            seconds = std::atof(v);
        else if (flag == "--trace")
            trace = std::atoi(v);
        else if (flag == "--out")
            outDir = v;
        else
            usage(("unknown flag " + flag).c_str());
    }
    if (argc % 2 != 1)
        usage("flags take one value each");
    if (workload != "tcp_stream" && workload != "zipf_kernel" &&
        workload != "zipf_poll" && workload != "chaos_storm")
        usage("unknown workload");
    if (seconds <= 0 || (trace != 0 && trace != 1))
        usage("--seconds must be > 0 and --trace 0 or 1");
    return trace == 1 ? runTraced(workload, k, outDir)
                      : runE2E(workload, k, seconds);
}
