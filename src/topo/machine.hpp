/**
 * @file
 * NUMA machine model: cores, per-node DRAM and LLC, and the CPU
 * interconnect, with routed memory-transfer operations used by both CPUs
 * and DMA-capable devices.
 */
#pragma once

#include <cassert>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "mem/cache.hpp"
#include "sim/fair_pipe.hpp"
#include "sim/pipe.hpp"
#include "sim/simulator.hpp"
#include "sim/sync.hpp"
#include "sim/task.hpp"
#include "topo/calibration.hpp"

namespace octo::obs {
class Counter;
}

namespace octo::topo {

using sim::Task;
using sim::Tick;

/**
 * A CPU core: an exclusively-held execution resource with busy-time
 * accounting.
 *
 * The model is cooperative and non-preemptive: a software path (app
 * syscall section, softirq batch) acquires the core's mutex, performs
 * delays and memory waits, credits the elapsed time via addBusy(), and
 * releases. CPU utilization (paper figures' "cpu util [cores]") is
 * busyTime over the measurement window.
 */
class Core
{
  public:
    Core(sim::Simulator& sim, int id, int node)
        : sim_(sim), mutex_(sim, 1), id_(id), node_(node)
    {
    }

    int id() const { return id_; }
    int node() const { return node_; }

    sim::Semaphore& mutex() { return mutex_; }

    void addBusy(Tick t) { busy_ += t; }

    /** Busy time so far, after settling every lazy debtor. */
    Tick
    busyTime() const
    {
        for (const Debtor& d : debtors_)
            d.settle(d.ctx);
        return busy_;
    }

    /**
     * Register @p settle(@p ctx) as a lazy source of busy time: a
     * busy-poller parked on the poll grid charges its skipped polls
     * only when settled, so every busyTime() read settles it first.
     */
    void
    addBusyDebtor(void (*settle)(void*), void* ctx)
    {
        debtors_.push_back(Debtor{settle, ctx});
    }

    void
    removeBusyDebtor(void* ctx)
    {
        std::erase_if(debtors_,
                      [ctx](const Debtor& d) { return d.ctx == ctx; });
    }

    /** Acquire the core, execute @p t of work, release. */
    Task<>
    compute(Tick t)
    {
        co_await mutex_.acquire();
        co_await sim::delay(sim_, t);
        busy_ += t;
        mutex_.release();
    }

    sim::Simulator& sim() { return sim_; }

  private:
    sim::Simulator& sim_;
    sim::Semaphore mutex_;
    int id_;
    int node_;
    Tick busy_ = 0;

    struct Debtor
    {
        void (*settle)(void*);
        void* ctx;
    };
    std::vector<Debtor> debtors_;
};

/** Direction of a memory transfer relative to the memory node. */
enum class MemDir
{
    Read,  ///< Data flows from memory to the agent.
    Write, ///< Data flows from the agent to memory.
};

/**
 * A multi-socket machine: nodes (DRAM + LLC), cores, and the QPI/UPI
 * interconnect as per-direction bandwidth servers.
 */
class Machine
{
  public:
    Machine(sim::Simulator& sim, const Calibration& cal,
            std::string name = "host");

    sim::Simulator& sim() { return sim_; }
    const Calibration& cal() const { return cal_; }
    const std::string& name() const { return name_; }

    int nodes() const { return cal_.nodes; }
    int totalCores() const { return static_cast<int>(cores_.size()); }

    Core& core(int global_id) { return *cores_.at(global_id); }

    /** Core @p local on node @p node. */
    Core&
    coreOn(int node, int local)
    {
        return *cores_.at(node * cal_.coresPerNode + local);
    }

    mem::LlcModel& llc(int node) { return *llcs_.at(node); }
    sim::Pipe& dram(int node) { return *drams_.at(node); }

    /** Interconnect link carrying data from @p from to @p to. The
     *  interconnect arbitrates fairly per requester class, unlike the
     *  FIFO DRAM channels. */
    sim::FairPipe&
    qpi(int from, int to)
    {
        assert(from != to);
        return *links_.at(from * cal_.nodes + to);
    }

    /**
     * Streaming memory transfer of @p bytes between an agent (core or
     * I/O controller) on @p agent_node and DRAM on @p mem_node.
     *
     * Charges the DRAM channel of the memory's home node and, when the
     * nodes differ, the interconnect direction the data flows through.
     * Pipelined resources are modelled as overlapping: completion is the
     * later of the two reservations, plus leading-edge latency. Returns
     * the experienced latency.
     *
     * @param latency_scale Fraction of the leading-edge latency exposed
     *        to the caller. Streaming copies overlap misses with
     *        prefetch and out-of-order execution, so they pass < 1 for
     *        short transfers; dependent loads (completion-entry reads)
     *        use the default full exposure.
     * @param fair_class Interconnect arbitration class (one per
     *        hardware agent: core, PF, SSD port). Defaults to a
     *        per-agent-node class.
     */
    Task<Tick> memTransfer(int agent_node, int mem_node,
                           std::uint64_t bytes, MemDir dir,
                           double latency_scale = 1.0,
                           int fair_class = -1);

    /**
     * Cost of the CPU touching @p bytes that are resident at @p loc.
     * LLC-resident data costs only a fixed latency (streamed); DRAM data
     * runs a simulated memory transfer (and therefore sees interconnect
     * congestion). Returns experienced latency; caller charges it to the
     * core.
     */
    Task<Tick> cpuTouch(int cpu_node, int mem_node, std::uint64_t bytes,
                        mem::DataLoc loc);

    /** Total DRAM traffic (both directions), all nodes. */
    std::uint64_t dramBytesTotal() const;

    /** Total interconnect traffic, all links. */
    std::uint64_t qpiBytesTotal() const;

    // --------------------------------------------------- fault injection
    /**
     * Scale every interconnect link to @p scale of its calibrated rate
     * (link retraining to fewer/slower lanes under a correctable-error
     * storm). 1.0 restores nominal bandwidth.
     */
    void setQpiScale(double scale);

    /** Scale one directed link only. */
    void degradeQpiLink(int from, int to, double scale);

    double qpiScale() const { return qpiScale_; }
    std::uint64_t qpiDegradeEvents() const { return qpiDegradeEvents_; }

  private:
    sim::Simulator& sim_;
    Calibration cal_;
    std::string name_;

    std::vector<std::unique_ptr<Core>> cores_;
    std::vector<std::unique_ptr<mem::LlcModel>> llcs_;
    std::vector<std::unique_ptr<sim::Pipe>> drams_;
    std::vector<std::unique_ptr<sim::FairPipe>> links_;
    /** Per-link crossing counters (null without a hub); indexed like
     *  links_. Incremented once per memTransfer that traverses QPI. */
    std::vector<obs::Counter*> obQpiCross_;
    double qpiScale_ = 1.0;
    std::uint64_t qpiDegradeEvents_ = 0;
};

} // namespace octo::topo
