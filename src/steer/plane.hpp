/**
 * @file
 * The steering plane: one interface between health monitoring and every
 * driver that can move DMA between PCIe endpoints.
 *
 * A SteerablePlane exposes a device's steerable units as Endpoints —
 * PFs and the queues homed behind them — with uniform telemetry
 * (link state, bandwidth fraction, error/stall counters) and two
 * actions: `resteer` (rebind an endpoint's DMA behind another PF) and
 * `drain` (evacuate its in-flight work without rebinding). The NIC team
 * driver (os::NetStack) and the multi-queue NVMe driver
 * (nvme::NvmeDriver) both implement it, so one HealthMonitor judges
 * NIC Rx rings and NVMe submission queues with the same state machine,
 * and future octoSSD/odirect paths plug in here instead of forking the
 * NetStack-specific plumbing.
 */
#pragma once

#include <cstdint>
#include <vector>

#include "nic/flow.hpp"
#include "sim/task.hpp"
#include "steer/endpoint.hpp"

namespace octo::sim {
class Simulator;
}

namespace octo::steer {

/**
 * One monitor sample of an endpoint's observable state. Counters are
 * cumulative — the consumer keeps its own baselines and feeds deltas to
 * its scoring machinery.
 */
struct EndpointTelemetry
{
    /** PF endpoints: operational link state. Queue endpoints inherit
     *  their current PF's link (a queue has no link of its own). */
    bool linkUp = true;

    /** PF: (operational lanes / nominal) x gen fraction. Queue: 1.0
     *  unless the queue's own datapath is impaired. */
    double bwFraction = 1.0;

    /** PF full-width full-gen bandwidth (steering-weight scale). */
    double nominalGbps = 0.0;

    /** Cumulative device errors attributable to this endpoint (AER
     *  counts, dead-endpoint drops/aborts, poisoned completions). */
    std::uint64_t errors = 0;

    /** Cumulative datapath-stall fault events on this endpoint. */
    std::uint64_t stalls = 0;

    /** Queue endpoints: the datapath is impaired *right now* (stalled
     *  completion ring, poisoned buffer pool). */
    bool impaired = false;

    /** Queue endpoints: current / setup-time PF binding. */
    int currentPf = -1;
    int homePf = -1;

    /** NUMA node the endpoint's DMA enters the topology at. */
    int node = -1;
};

/** Watchdog on every blocking driver operation (steering drain, queue
 *  evacuation before a rebind, probe): a stalled queue can delay a
 *  re-steer by at most this long; it can never wedge the driver. */
inline constexpr sim::Tick kSteerWatchdog = sim::fromMs(5);

/**
 * A driver whose DMA paths the health monitor may re-steer.
 *
 * Queue ids and PF ids are dense [0, count) ranges; every queue is
 * homed behind exactly one PF (its setup-time binding) and currently
 * bound to exactly one PF (which re-steering changes).
 */
class SteerablePlane
{
  public:
    virtual ~SteerablePlane() = default;

    /** Identity for logs/CSV columns. */
    virtual const char* planeName() const = 0;

    /** The simulator the plane's device lives in (monitor task spawn). */
    virtual sim::Simulator& planeSim() = 0;

    virtual int pfCount() const = 0;
    virtual int steerableQueueCount() const = 0;

    /** Telemetry snapshot for a PF or queue endpoint. */
    virtual EndpointTelemetry telemetry(const Endpoint& ep) const = 0;

    /**
     * Rebind @p ep's DMA behind PF @p target_pf. Queue endpoints move
     * alone; PF endpoints move every queue currently bound to the PF.
     * Implementations may apply asynchronously (drain-then-rebind with
     * an epoch guard), so the binding is observable only after the
     * driver's own settle delay.
     */
    virtual void resteer(const Endpoint& ep, int target_pf) = 0;

    /**
     * Evacuate @p ep's in-flight work (administrative drain) without
     * changing any binding. Bounded by the driver's own watchdogs.
     */
    virtual void drain(const Endpoint& ep) = 0;

    /** A monitor owns verdicts now: the driver's built-in
     *  all-or-nothing failover (if any) should stand down. */
    virtual void setWeightedSteering(bool on) { (void)on; }

    /**
     * Current per-PF steering weights, pushed by the monitor on every
     * verdict. Drivers may consult them on their transmit path (the
     * stack's health-aware XPS selection); the default ignores them.
     */
    virtual void applyPfWeights(const std::vector<double>& weights)
    {
        (void)weights;
    }

    /**
     * Send a tiny probe load through PF @p pf and report whether it
     * completed cleanly (probation-exit gate: the monitor calls this
     * before promoting a recovering PF so real flows never test a path
     * that only *looks* healthy). Implementations post control-path
     * traffic only; the default accepts unconditionally, preserving
     * pure clean-sample promotion for planes without a probe path.
     */
    virtual sim::Task<bool>
    probe(int pf)
    {
        (void)pf;
        co_return true;
    }

    /** Endpoint rebinds actually performed (not superseded/no-op). */
    virtual std::uint64_t resteersPerformed() const = 0;

    // -------------------------- flow-grain placement (accmon schemes)
    /**
     * Proactively pin @p flow's receive path to queue @p qid (an
     * access-monitor scheme promoting a hot flow to a DMA-local
     * queue). Implementations reuse their own steering machinery —
     * the kernel plane's asynchronous drain-then-program worker, the
     * bypass plane's direct rule write — so placement pays the same
     * model costs as reactive steering. Default: not supported.
     * @return false when the plane cannot place flows (or @p qid is
     * not a valid target).
     */
    virtual bool
    placeFlow(const nic::FiveTuple& flow, int qid)
    {
        (void)flow;
        (void)qid;
        return false;
    }

    /** Remove a placeFlow() rule; the flow falls back to RSS. */
    virtual void unplaceFlow(const nic::FiveTuple& flow) { (void)flow; }

    /** True when queue @p qid's DMA currently lands on the same NUMA
     *  node its buffers live on (the promote-target predicate). */
    virtual bool
    queueDmaLocal(int qid) const
    {
        (void)qid;
        return false;
    }
};

} // namespace octo::steer
