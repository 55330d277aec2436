/**
 * @file
 * The OS network stack model.
 *
 * One NetStack corresponds to one netdev (network interface). It owns the
 * socket demultiplexer, the XPS core-to-Tx-queue mapping, the softirq
 * (NAPI) receive/transmit-completion processing, and the ARFS plumbing
 * that reacts to thread migration — exactly the machinery the IOctopus
 * driver piggybacks on (paper §3.4, §4.2).
 *
 * In an IOctopus configuration a single NetStack spans queues bound to
 * PFs on *both* sockets (the team-device view); in standard
 * configurations each PF's netdev gets its own NetStack.
 */
#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "nic/device.hpp"
#include "os/socket.hpp"
#include "os/thread.hpp"
#include "sim/stats.hpp"
#include "sim/task.hpp"
#include "steer/plane.hpp"

namespace octo::os {

/** Tunables for one netdev's stack. */
struct StackConfig
{
    /** Sender flow-control window. Kept below Rx-ring capacity so that
     *  backpressure, not loss, bounds the stream (back-to-back link). */
    std::uint64_t windowBytes = 480u << 10;
    bool tso = true;
    /** Steering-rule expiry scan period (0 disables). A kernel worker
     *  periodically deletes rules for flows with no recent traffic
     *  (paper §4.2). */
    sim::Tick steerExpiry = 0;

    // -------------------------------------------------- fault tolerance
    /** Team-driver PF failover: when a member PF dies, its queues are
     *  rebound to a surviving PF (accepting NUDMA over an outage) and
     *  rebalanced back on recovery. The octoNIC treats its per-socket
     *  PFs "like a bonding device"; this is the bonding-style failover
     *  that view implies. */
    bool teamFailover = false;

    /** RTO-style retry worker period (0 disables): window credits held
     *  by frames lost in the device are reclaimed once a connection has
     *  been loss-quiet for this long, so in-flight descriptors on a
     *  dead PF are recovered instead of leaking. */
    sim::Tick retryTimeout = 0;

    /** Softirq watchdog: a lost interrupt's queue is polled after this
     *  delay (NAPI watchdog semantics), bounding IRQ-loss outages. */
    sim::Tick irqWatchdog = sim::fromUs(500);
};

/**
 * Per-netdev network stack: sockets, XPS, ARFS, softirq processing.
 *
 * Also the NIC's steering plane: queues and PFs are exposed to the
 * health monitor as steer::Endpoints, so per-queue verdicts move one
 * sick Rx ring while its siblings stay bound in place.
 */
class NetStack : public nic::NicSink, public steer::SteerablePlane
{
  public:
    NetStack(topo::Machine& machine, nic::NicDevice& device,
             StackConfig cfg = {});
    ~NetStack() override;

    NetStack(const NetStack&) = delete;
    NetStack& operator=(const NetStack&) = delete;

    topo::Machine& machine() { return machine_; }
    nic::NicDevice& device() { return device_; }
    const StackConfig& config() const { return cfg_; }

    // ------------------------------------------------------------ setup
    /** XPS: Tx (and ARFS target) queue used by threads on @p core_id. */
    void mapCoreToQueue(int core_id, int qid);

    /** Per-netdev XPS entry for multi-netdev (bonded/two-NIC) setups. */
    void mapCoreToQueueInDomain(int core_id, int domain, int qid);

    /**
     * Queue for @p core_id; with @p domain >= 0 the lookup is confined
     * to that netdev's map (a socket pinned to one member link).
     *
     * In weighted-steering mode the XPS pick is health-aware: when the
     * mapped queue is bound to a PF the monitor has down-weighted, a
     * deterministic share of cores (the same SplitMix64 spread the Rx
     * plane uses) posts to a queue behind the strongest PF instead —
     * preferring one whose IRQ core shares the sender's node.
     */
    int queueForCore(int core_id, int domain = -1) const;

    /** Assign @p qid to a steering domain (one per netdev). */
    void setQueueDomain(int qid, int domain) { qidDomain_[qid] = domain; }

    int
    queueDomain(int qid) const
    {
        auto it = qidDomain_.find(qid);
        return it != qidDomain_.end() ? it->second : -1;
    }

    /** Create a socket whose *incoming* traffic matches @p rx_flow. */
    Socket& createSocket(const nic::FiveTuple& rx_flow);

    Socket& createSocket(const nic::FiveTuple& rx_flow,
                         std::uint64_t window, bool tso);

    /** Connect two endpoints (one per host) into a full-duplex pair. */
    static void pair(Socket& a, Socket& b);

    // -------------------------------------------------------- data path
    /**
     * Blocking send of @p bytes on @p sock from thread @p t: syscall
     * cost, copy from user, TSO segmentation, XPS queue selection,
     * descriptor post + doorbell. Suspends on window backpressure.
     */
    sim::Task<> send(ThreadCtx& t, Socket& sock, std::uint64_t bytes,
                     bool last_of_message = true);

    /** Blocking receive of exactly @p bytes (stream semantics). */
    sim::Task<> recv(ThreadCtx& t, Socket& sock, std::uint64_t bytes);

    /**
     * pktgen-style raw transmit: no socket, no copy; one MTU-or-smaller
     * frame per call. @p inflight must have been acquired by the caller;
     * it is released when the Tx completion is reaped.
     */
    sim::Task<> rawPost(ThreadCtx& t, const nic::FiveTuple& flow,
                        std::uint32_t bytes, sim::Semaphore& inflight);

    // -------------------------------------------------- NicSink (IRQs)
    void rxReady(int qid) override;
    void txReady(int qid) override;
    void pfStateChanged(int pf_idx, bool up) override;
    void frameLost(const nic::FiveTuple& flow,
                   std::uint32_t bytes) override;

    // -------------------------------------------------- fault injection
    /** Delay every interrupt delivery by @p extra (0 disables). */
    void setIrqDelay(sim::Tick extra) { irqExtraDelay_ = extra; }

    /** Drop every @p n-th interrupt (0 disables); the queue is
     *  recovered by the softirq watchdog poll. */
    void setIrqDropEvery(int n) { irqDropEvery_ = n; }

    // --------------------------------------- health-driven re-steering
    /**
     * Weighted-steering mode: a HealthMonitor owns PF verdicts, so the
     * stack's own all-or-nothing hot-unplug failover stands down (the
     * monitor observes link loss as weight 0 and re-steers through the
     * same weighted path).
     */
    void setWeightedSteering(bool on) override { weightedSteering_ = on; }
    bool weightedSteering() const { return weightedSteering_; }

    // --------------------------------- steer::SteerablePlane interface
    const char* planeName() const override { return "net"; }
    sim::Simulator& planeSim() override { return sim_; }
    int pfCount() const override { return device_.functionCount(); }

    int
    steerableQueueCount() const override
    {
        return device_.queueCount();
    }

    steer::EndpointTelemetry
    telemetry(const steer::Endpoint& ep) const override;

    /** Queue endpoints re-steer alone (epoch-guarded drain/rebind); PF
     *  endpoints re-steer every queue currently bound to the PF. */
    void resteer(const steer::Endpoint& ep, int target_pf) override;

    /** Administrative drain: flush the endpoint's in-flight Rx backlog
     *  (watchdog-bounded) without touching any binding. */
    void drain(const steer::Endpoint& ep) override;

    /** Monitor-pushed per-PF weights consulted by queueForCore(). */
    void
    applyPfWeights(const std::vector<double>& weights) override
    {
        txPfWeights_ = weights;
    }

    std::uint64_t
    resteersPerformed() const override
    {
        return healthResteers_.total();
    }

    /**
     * Probation probe: post one tiny fast-path descriptor on a queue
     * bound to PF @p pf and wait (watchdog-bounded) for its completion
     * to come back clean — no socket, no real flow. The completion is
     * reaped by the normal Tx softirq; success means the descriptor
     * fetch, wire, and CQE write-back all worked through the recovered
     * endpoint.
     */
    sim::Task<bool> probe(int pf) override;

    /**
     * Re-steer queue @p qid's DMA behind PF @p pf_idx: issue the
     * firmware RPC, drain the in-flight completions of the old binding
     * (bounded by steer::kSteerWatchdog), then rebind. A newer re-steer for
     * the same queue supersedes an in-flight one (epoch check), so
     * verdict churn cannot interleave stale rebinds.
     */
    void resteerQueue(int qid, int pf_idx);

    // --------------------------- flow-grain placement (accmon schemes)
    /** Scheme-driven placement: program @p flow onto queue @p qid
     *  through the same asynchronous kernel-worker path ARFS updates
     *  use (update delay + old-queue drain), so proactive moves pay
     *  the reactive path's costs. */
    bool placeFlow(const nic::FiveTuple& flow, int qid) override;

    /** Drop the placement rule; the flow falls back to RSS. */
    void unplaceFlow(const nic::FiveTuple& flow) override;

    bool queueDmaLocal(int qid) const override;

    // ------------------------------------------------------- statistics
    std::uint64_t rxPacketsProcessed() const { return rxPackets_.total(); }
    std::uint64_t rxBytesDelivered() const
    {
        return rxBytesDelivered_.total();
    }
    std::uint64_t unmatchedFrames() const { return unmatched_; }
    std::uint64_t steeringUpdates() const { return steeringUpdates_; }
    std::uint64_t steeringExpiries() const { return steeringExpiries_; }

    /** Scheme-driven placeFlow() moves actually dispatched. */
    std::uint64_t flowPlacements() const { return flowPlacements_; }

    /** Queues failed over to a surviving PF / rebalanced back home. */
    std::uint64_t pfFailovers() const { return pfFailovers_.total(); }
    std::uint64_t pfRebalances() const { return pfRebalances_.total(); }

    /** Health-driven weighted queue re-steers (each resteerQueue call
     *  that actually rebound a queue). */
    std::uint64_t healthResteers() const { return healthResteers_.total(); }

    /** Tx posts redirected off a down-weighted PF by the health-aware
     *  XPS pick. */
    std::uint64_t
    txQueueOverrides() const
    {
        return txQueueOverrides_.total();
    }

    /** Administrative endpoint drains requested through the plane. */
    std::uint64_t adminDrains() const { return adminDrains_.total(); }

    /** Blocking driver operations cut short by the steering watchdog
     *  (stalled queue refused to drain in time). */
    std::uint64_t
    steerWatchdogFires() const
    {
        return steerWatchdogFires_.total();
    }

    /** Device-loss accounting (see Socket loss ledger). */
    std::uint64_t lostFrames() const { return lostFrames_.total(); }
    std::uint64_t lostBytes() const { return lostBytes_.total(); }
    std::uint64_t reclaimedBytes() const
    {
        return reclaimedBytes_.total();
    }
    std::uint64_t retryReclaims() const { return retryReclaims_.total(); }

    /** Interrupt-fault accounting. */
    std::uint64_t irqsDelayed() const { return irqsDelayed_.total(); }
    std::uint64_t irqsDropped() const { return irqsDropped_.total(); }
    std::uint64_t watchdogPolls() const { return watchdogPolls_.total(); }

  private:
    sim::Task<> softirqRx(int qid);
    sim::Task<> expiryWorker();
    sim::Task<> softirqTx(int qid);
    sim::Task<> retryWorker();

    /** Raw XPS table lookup (no health adjustment). The ARFS path uses
     *  this so flows return home with their threads after recovery
     *  instead of sticking to a once-degraded PF's queues. */
    int xpsLookup(int core_id, int domain) const;

    /** Fire-and-forget watchdog-bounded flush for an admin drain. */
    sim::Task<> adminDrainTask(int qid);

    /** Act on a PF death/recovery after the detection delay. */
    void applyPfEvent(int pf_idx, bool up);

    /** Drain queue @p qid's old binding (watchdog-bounded) and rebind
     *  it to @p pf_idx, unless superseded by epoch @p epoch moving on. */
    sim::Task<> drainAndRebind(int qid, int pf_idx, std::uint64_t epoch);

    /** Watchdog-bounded wait for @p qid's pre-snapshot Rx backlog to be
     *  reaped; true when drained, false when the watchdog fired. */
    sim::Task<bool> drainQueue(int qid);

    /** IRQ fault filter: true if the interrupt was dropped (a watchdog
     *  poll of @p qid has been scheduled); otherwise adds any
     *  configured extra delivery delay to @p delay. */
    bool irqFaultFilter(int qid, bool rx, sim::Tick& delay);

    /** ARFS callback path: the flow's consumer now runs on @p core. */
    void flowMoved(Socket& sock, topo::Core& core);

    /** Kernel-worker steering update: delay, drain, program the NIC. */
    sim::Task<> applySteer(nic::FiveTuple flow, int old_qid, int new_qid);

    /** Copy @p seg's payload into user memory on @p node; returns the
     *  time spent (caller charges the core). */
    sim::Task<sim::Tick> copySegIn(int node, const RxSeg& seg);

    topo::Machine& machine_;
    nic::NicDevice& device_;
    StackConfig cfg_;
    sim::Simulator& sim_;

    std::vector<int> xps_; ///< core id -> qid (-1 unmapped), dense:
                           ///< this sits on the per-segment Tx path.
    std::unordered_map<std::int64_t, int> xpsDomain_; ///< (domain,core)
    std::unordered_map<int, int> qidDomain_;
    std::unordered_map<nic::FiveTuple, Socket*> demux_;
    std::vector<std::unique_ptr<Socket>> sockets_;

    sim::Counter rxPackets_;
    sim::Counter rxBytesDelivered_;
    std::uint64_t unmatched_ = 0;
    std::uint64_t steeringUpdates_ = 0;
    std::uint64_t steeringExpiries_ = 0;
    std::uint64_t flowPlacements_ = 0;
    sim::Task<> expiry_;
    sim::Task<> retry_;

    // Fault state & recovery accounting.
    sim::Tick irqExtraDelay_ = 0;
    int irqDropEvery_ = 0;
    std::uint64_t irqSeen_ = 0;
    bool weightedSteering_ = false;
    std::vector<double> txPfWeights_;
    std::unordered_map<int, std::uint64_t> resteerEpoch_;
    sim::Counter pfFailovers_;
    sim::Counter pfRebalances_;
    sim::Counter healthResteers_;
    mutable sim::Counter txQueueOverrides_;
    sim::Counter adminDrains_;
    sim::Counter steerWatchdogFires_;
    sim::Counter lostFrames_;
    sim::Counter lostBytes_;
    sim::Counter reclaimedBytes_;
    sim::Counter retryReclaims_;
    sim::Counter irqsDelayed_;
    sim::Counter irqsDropped_;
    sim::Counter watchdogPolls_;

    // Observability (null / zero without an attached obs::Hub).
    obs::Histogram* obRxBatch_ = nullptr; ///< Frames per softirq drain.
    obs::Histogram* obE2e_ = nullptr; ///< Wire arrival -> recv(), ns.
    int tracePid_ = 0;
};

} // namespace octo::os
