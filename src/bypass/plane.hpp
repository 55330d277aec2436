/**
 * @file
 * The kernel-bypass polled datapath (§6's composition claim, and the
 * gem5 kernel-bypass question from PAPERS.md): DPDK/XDP-style per-core
 * ports that busy-poll the NIC's completion rings directly.
 *
 * A PollPlane owns a set of PollPorts, one per participating core.
 * Each port wraps one NicQueue put into polled mode: no interrupts are
 * ever raised — completions accumulate in the very same rxCq/txCq
 * channels the softirq path drains, and the application harvests them
 * in bursts from its own coroutine (`rxBurst`/`harvestTx`). Packet
 * buffers come from a zero-copy Mempool homed per NUMA node; a
 * harvested packet's buffer belongs to the application until
 * `freePacket` returns it.
 *
 * What bypass removes is *software*: the softirq hop, GRO, protocol
 * and socket work, copies, syscalls, wakeups. What it cannot remove is
 * the NUDMA term — the CQE/payload lines the device wrote land wherever
 * the device's PF points, so a remote PF still costs a DRAM+QPI round
 * trip per descriptor read. With per-packet software cost collapsed
 * from ~1.5 us to tens of ns, that memory term *dominates*, which is
 * why the remote penalty survives bypass and PF steering still pays.
 *
 * The plane implements steer::SteerablePlane with the same queue-grain
 * telemetry and drain-then-rebind discipline as os::NetStack, so one
 * HealthMonitor judges polled queues exactly like interrupt-driven
 * ones. Rebinds are transparent to the poller: the port keeps
 * harvesting the same rings while their DMA moves behind another PF.
 */
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "bypass/mempool.hpp"
#include "nic/device.hpp"
#include "obs/dma.hpp"
#include "sim/sync.hpp"
#include "sim/task.hpp"
#include "steer/plane.hpp"
#include "topo/machine.hpp"

namespace octo::obs {
class Histogram;
}

namespace octo::bypass {

using sim::Task;
using sim::Tick;

/** Tunables of the polled datapath. */
struct BypassConfig
{
    /** Max descriptors harvested or posted per burst call. */
    int burst = 32;

    /** Mempool headroom beyond each port's ring fill: how many
     *  harvested buffers the application may hold before Rx-ring
     *  refills start failing. */
    int extraBufsPerPort = 1024;
};

/** One harvested packet: the frame plus its zero-copy buffer. The
 *  application owns the buffer until freePacket(). */
struct RxPacket
{
    nic::Frame frame;
    mem::DataLoc loc = mem::DataLoc::Dram; ///< Payload residency.
    int node = 0;                          ///< Buffer's home node.
};

class PollPlane;

/**
 * One core's polled queue pair. All entry points acquire the core's
 * mutex and charge it busy time — a busy-poll loop occupies its core
 * by construction, and the occupancy histogram records how full each
 * poll came back.
 */
class PollPort
{
  public:
    int qid() const { return qid_; }
    topo::Core& core() { return core_; }

    /**
     * Harvest up to @p max Rx completions into @p out. Pays the CQE
     * residency cost per descriptor (the NUDMA term) plus the polled
     * driver's per-frame bookkeeping; an empty poll pays one ring
     * probe. Each packet's e2e latency span (wire arrival -> return
     * from this burst) is recorded here. Returns frames harvested.
     *
     * Parking contract (DESIGN.md §9): a caller that re-enters in the
     * same dispatch as an empty return, doing nothing observable in
     * between (a busy-poll loop), may have its following empty polls
     * fast-forwarded. The port parks on the poll grid holding the core
     * mutex, and the call returns 0 at exactly the grid instant the
     * per-poll loop would have found work (or handed the mutex to a
     * waiter). Skipped polls are charged in bulk — polls(),
     * emptyPolls(), Core::busyTime() and the zero buckets of the burst
     * and occupancy histograms — before any read of those counters
     * and at the end of every run slice.
     */
    Task<int> rxBurst(RxPacket* out, int max);

    /**
     * Post @p count single-frame descriptors of @p bytes payload for
     * @p flow, then ring the doorbell once for the whole burst.
     * @p completion_sem (optional) is released per completion when the
     * port later harvests Tx. Returns descriptors posted.
     */
    Task<int> txBurst(const nic::FiveTuple& flow, std::uint32_t bytes,
                      int count, sim::Semaphore* completion_sem);

    /**
     * Post one message of @p bytes (the NIC segments to MTU on the
     * wire) from a buffer on @p skb_node resident at @p loc. Used by
     * RR-style request/response exchanges.
     */
    Task<> txMessage(const nic::FiveTuple& flow, std::uint32_t bytes,
                     int skb_node, mem::DataLoc loc, bool last_of_message,
                     sim::Semaphore* completion_sem);

    /** Reap up to @p max Tx completions, releasing their semaphores. */
    Task<int> harvestTx(int max);

    /** Return @p p's buffer to the mempool and refill the Rx ring. */
    void freePacket(const RxPacket& p);

    // ------------------------------------------------------- statistics
    std::uint64_t
    polls() const
    {
        settle();
        return polls_;
    }
    std::uint64_t
    emptyPolls() const
    {
        settle();
        return emptyPolls_;
    }
    std::uint64_t rxFrames() const { return rxFrames_.total(); }
    std::uint64_t rxBytes() const { return rxBytes_.total(); }
    std::uint64_t txFrames() const { return txFrames_.total(); }
    std::uint64_t txBytes() const { return txBytes_.total(); }
    std::uint64_t txReaped() const { return txReaped_; }

    /** Ring refills deferred because the pool was dry. */
    std::uint64_t pendingRefill() const { return pendingRefill_; }

    ~PollPort();
    PollPort(const PollPort&) = delete;
    PollPort& operator=(const PollPort&) = delete;

  private:
    friend class PollPlane;
    struct Park;

    PollPort(PollPlane& plane, int idx, topo::Core& core, int qid);

    /** Charge the polls skipped while parked so far. */
    void settle() const;

    /** Resume a parked poller at its next grid instant. */
    void wake();

    static void settleHook(void* port);
    static void wakeHook(void* port);

    /** Read one device-written CQE line: LLC hit, cache-to-cache
     *  forward, or DRAM miss behind the device's posted writes — the
     *  identical residency model the softirq pays. */
    Task<> cqeRead(mem::DataLoc cqe_loc, int buf_node);

    PollPlane& plane_;
    int idx_;
    int qid_;
    topo::Core& core_;

    std::unordered_map<nic::FiveTuple, std::uint64_t> txSeq_;
    std::uint64_t pendingRefill_ = 0;
    mutable std::uint64_t polls_ = 0;
    mutable std::uint64_t emptyPolls_ = 0;
    sim::GridPark park_;                     ///< Valid while parked.
    mutable std::uint64_t settledSteps_ = 0; ///< Parked polls charged.
    /// Dispatch that last returned an empty burst (eventsProcessed()).
    std::uint64_t idleDispatch_ = ~std::uint64_t{0};
    sim::Counter rxFrames_;
    sim::Counter rxBytes_;
    sim::Counter txFrames_;
    sim::Counter txBytes_;
    std::uint64_t txReaped_ = 0;
};

/** The polled datapath over one NIC. */
class PollPlane : public nic::NicSink, public steer::SteerablePlane
{
  public:
    PollPlane(topo::Machine& machine, nic::NicDevice& device,
              BypassConfig cfg = {});
    ~PollPlane() override;

    PollPlane(const PollPlane&) = delete;
    PollPlane& operator=(const PollPlane&) = delete;

    /**
     * Attach a port polling queue @p qid from @p core: puts the queue
     * in polled mode, carves its ring fill + headroom out of the
     * node's mempool arena, and fills the ring. Ports are dense; the
     * testbed adds one per core in core-id order.
     */
    PollPort& addPort(topo::Core& core, int qid);

    PollPort& port(int idx) { return *ports_.at(idx); }
    int portCount() const { return static_cast<int>(ports_.size()); }

    /** The port polling @p qid, or nullptr. */
    PollPort* portForQueue(int qid);

    /** Program the device flow table: @p flow -> @p port_idx's queue
     *  (the IOctoRFS rule; PF binding stays the queue's own). */
    void steerFlow(const nic::FiveTuple& flow, int port_idx);

    Mempool& mempool() { return pool_; }
    nic::NicDevice& device() { return device_; }
    const BypassConfig& config() const { return cfg_; }

    /** Delivery-grain flow attribution for harvested Rx traffic
     *  (bounded top-K sketch; rows keyed dev="<nic>.poll"). */
    const obs::DmaAccountant& flows() const { return flows_; }

    // ------------------------------------------------------- aggregates
    std::uint64_t rxBytesTotal() const;
    std::uint64_t txBytesTotal() const;
    std::uint64_t rxFramesTotal() const;
    std::uint64_t txFramesTotal() const;
    std::uint64_t emptyPollsTotal() const;
    std::uint64_t lostFrames() const { return lostFrames_; }
    std::uint64_t lostBytes() const { return lostBytes_; }
    std::uint64_t adminDrains() const { return adminDrains_; }
    std::uint64_t watchdogFires() const { return watchdogFires_; }

    // -------------------------------------------------------- NicSink
    /** Polled mode never raises interrupts; these stay unreachable
     *  (the device checks `polled` before raising). */
    void rxReady(int) override {}
    void txReady(int) override {}
    void pfStateChanged(int, bool) override {} // monitor owns verdicts
    void frameLost(const nic::FiveTuple& flow,
                   std::uint32_t bytes) override;
    void rxPolled(int qid) override;

    // ------------------------------------------------- SteerablePlane
    const char* planeName() const override { return "bypass"; }
    sim::Simulator& planeSim() override { return sim_; }
    int pfCount() const override { return device_.functionCount(); }
    int
    steerableQueueCount() const override
    {
        return device_.queueCount();
    }
    steer::EndpointTelemetry
    telemetry(const steer::Endpoint& ep) const override;
    void resteer(const steer::Endpoint& ep, int target_pf) override;
    void drain(const steer::Endpoint& ep) override;
    void setWeightedSteering(bool on) override { weighted_ = on; }
    void
    applyPfWeights(const std::vector<double>& weights) override
    {
        pfWeights_ = weights;
    }
    sim::Task<bool> probe(int pf) override;
    std::uint64_t resteersPerformed() const override { return resteers_; }

    // --------------------------- flow-grain placement (accmon schemes)
    /** Scheme-driven placement: a direct rule write (a bypass app owns
     *  its steering table — no kernel worker to model). */
    bool placeFlow(const nic::FiveTuple& flow, int qid) override;
    void unplaceFlow(const nic::FiveTuple& flow) override;
    bool queueDmaLocal(int qid) const override;

    /** Scheme-driven placeFlow() rules written. */
    std::uint64_t flowPlacements() const { return flowPlacements_; }

  private:
    friend class PollPort;

    void resteerQueue(int qid, int pf_idx);
    Task<> drainAndRebind(int qid, int pf_idx, std::uint64_t epoch);
    Task<bool> drainQueue(int qid);
    Task<> adminDrainTask(int qid);

    topo::Machine& machine_;
    nic::NicDevice& device_;
    BypassConfig cfg_;
    sim::Simulator& sim_;
    Mempool pool_;

    std::vector<std::unique_ptr<PollPort>> ports_;
    std::unordered_map<int, int> queuePort_;
    std::unordered_map<int, std::uint64_t> resteerEpoch_;
    bool weighted_ = false;
    std::vector<double> pfWeights_;

    std::uint64_t resteers_ = 0;
    std::uint64_t flowPlacements_ = 0;
    std::uint64_t adminDrains_ = 0;
    std::uint64_t watchdogFires_ = 0;
    std::uint64_t lostFrames_ = 0;
    std::uint64_t lostBytes_ = 0;

    obs::DmaAccountant flows_; ///< Flow-grain harvest attribution.

    obs::Histogram* obRxBurst_ = nullptr;
    obs::Histogram* obTxBurst_ = nullptr;
    obs::Histogram* obOccupancy_ = nullptr;
    obs::Histogram* obE2e_ = nullptr;
    int tracePid_ = 0;
};

} // namespace octo::bypass
