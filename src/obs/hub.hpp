/**
 * @file
 * The observability hub: one MetricRegistry + one Tracer, attached to a
 * sim::Simulator so every model component can reach them through the
 * simulator reference it already holds.
 *
 * Attachment is optional and must happen before components are
 * constructed (they register instruments and cache pointers in their
 * constructors): Testbed does it first thing when TestbedConfig.hub is
 * set; standalone tests call sim.setHub(&hub) themselves. With no hub
 * attached every instrument pointer stays null and every tracer lookup
 * returns null — the models run exactly as before, at zero cost.
 *
 * The hub also assigns trace pids: pidFor(name) hands out one stable
 * pid per distinct name (prefixed with the current run label, so two
 * testbed runs in one hub get separate Perfetto process groups) and
 * emits the process_name metadata on first use.
 */
#pragma once

#include <map>
#include <string>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/simulator.hpp"

namespace octo::obs {

class Hub
{
  public:
    Hub() = default;
    Hub(const Hub&) = delete;
    Hub& operator=(const Hub&) = delete;

    /** Built-in sketch capacity of flow attribution (flowTopK()). */
    static constexpr int kDefaultTopK = 64;

    MetricRegistry& metrics() { return metrics_; }
    Tracer& tracer() { return tracer_; }

    /** Top-K sketch capacity of every obs::DmaAccountant built against
     *  this hub afterwards: at most this many labeled flow rows per
     *  device, the rest folded into `~other`. */
    int flowTopK() const { return flowTopK_; }
    void setFlowTopK(int k) { flowTopK_ = k; }

    /**
     * Tag subsequently created metrics and pids with @p run (a preset
     * name like "ioctopus"). Benches running several configurations
     * against one hub call this before constructing each Testbed.
     */
    void
    setRun(const std::string& run)
    {
        run_ = run;
        Labels base;
        if (!run.empty())
            base.push_back({"run", run});
        metrics_.setBaseLabels(std::move(base));
    }

    const std::string& run() const { return run_; }

    /** Stable pid for a host/device name; names the Perfetto process
     *  group on first assignment. */
    int
    pidFor(const std::string& name)
    {
        const std::string full =
            run_.empty() ? name : run_ + "/" + name;
        auto it = pids_.find(full);
        if (it != pids_.end())
            return it->second;
        const int pid = nextPid_++;
        pids_.emplace(full, pid);
        tracer_.processName(pid, full);
        return pid;
    }

  private:
    MetricRegistry metrics_;
    Tracer tracer_;
    std::string run_;
    std::map<std::string, int> pids_;
    int nextPid_ = 1;
    int flowTopK_ = kDefaultTopK;
};

/** The hub attached to @p sim, or null. */
inline Hub*
hub(sim::Simulator& sim)
{
    return sim.hub();
}

/** The attached registry, or null when no hub is attached. */
inline MetricRegistry*
metrics(sim::Simulator& sim)
{
    Hub* h = sim.hub();
    return h != nullptr ? &h->metrics() : nullptr;
}

/**
 * The attached tracer iff it wants @p cat right now, else null — the
 * one-line guard used by every emit site:
 *
 *     if (auto* tr = obs::tracer(sim, obs::kCatDma))
 *         tr->complete(...);
 */
inline Tracer*
tracer(sim::Simulator& sim, TraceCat cat)
{
    Hub* h = sim.hub();
    if (h == nullptr || !h->tracer().wants(cat))
        return nullptr;
    return &h->tracer();
}

} // namespace octo::obs
