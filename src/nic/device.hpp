/**
 * @file
 * The NIC device model.
 *
 * A NicDevice exposes one or more PCIe physical functions (PFs), a set of
 * descriptor-ring queue pairs, steering tables, and one network port. Two
 * firmware personalities are modelled:
 *
 *  - **Standard**: each PF belongs to a distinct netdev with its own IP;
 *    the integrated multi-PF Ethernet switch (MPFS) demultiplexes frames
 *    to PFs by destination address, then per-PF ARFS picks the queue.
 *    This is the paper's baseline (Fig. 5a/5b).
 *
 *  - **Octo** (IOctopus firmware, §4.1): all PFs form a single logical
 *    device with one externally-visible address. The MPFS is modified to
 *    map frames to queues by flow 5-tuple (IOctoRFS); the queue's PF
 *    binding — installed by the driver as the PF local to the queue's
 *    node — determines which PCIe endpoint the DMA uses.
 *
 * In both personalities the flow-steering state is the same table; what
 * differs is how queues are bound to PFs and addresses, which the driver
 * layer (src/core) configures.
 */
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "nic/flow.hpp"
#include "nic/packet.hpp"
#include "nic/wire.hpp"
#include "obs/dma.hpp"
#include "pcie/function.hpp"
#include "sim/stats.hpp"
#include "sim/sync.hpp"
#include "sim/task.hpp"
#include "topo/machine.hpp"

namespace octo::accmon {
class AccessMonitor;
}

namespace octo::nic {

using sim::Task;
using sim::Tick;

/**
 * Host-side consumer of NIC interrupts (the OS network stack).
 * Callbacks fire from the event loop; implementations typically spawn a
 * softirq coroutine.
 */
class NicSink
{
  public:
    virtual ~NicSink() = default;
    virtual void rxReady(int qid) = 0;
    virtual void txReady(int qid) = 0;

    /** PF hot-unplug/re-probe notification (surprise removal, AER). The
     *  team driver reacts by re-steering queues; plain netdevs ignore
     *  it. */
    virtual void pfStateChanged(int pf_idx, bool up) { (void)pf_idx;
                                                       (void)up; }

    /** A completion landed on polled queue @p qid, which raises no
     *  interrupt: a busy-poller parked on its empty ring wakes here. */
    virtual void rxPolled(int qid) { (void)qid; }

    /** A frame of @p flow was lost inside the device (dead-PF Rx drop
     *  or aborted Tx descriptor). Drives the stack's retry/reclaim
     *  accounting. */
    virtual void frameLost(const FiveTuple& flow, std::uint32_t bytes)
    {
        (void)flow;
        (void)bytes;
    }
};

/** One queue pair: Rx ring + completion queue, Tx ring + completions. */
struct NicQueue
{
    NicQueue(sim::Simulator& sim, int id_, topo::Core* irq_core,
             pcie::PciFunction* pf_, int ring_entries)
        : id(id_), irqCore(irq_core), pf(pf_), homePf(pf_),
          bufNode(irq_core->node()), rxCq(sim, ring_entries),
          txRing(sim, ring_entries), txCq(sim, 4 * ring_entries),
          rxCredits(sim, ring_entries)
    {
    }

    int id;
    topo::Core* irqCore; ///< Core receiving this queue's interrupts.
    pcie::PciFunction* pf; ///< PCIe endpoint carrying this queue's DMA.
    pcie::PciFunction* homePf; ///< Binding installed at setup; failover
                               ///< rebinds pf and rebalances back here.
    sim::Tick stalledUntil = 0; ///< Queue-stall fault deadline.
    sim::Tick poisonedUntil = 0; ///< Buffer-poison fault deadline.
    std::uint64_t stallEvents = 0;  ///< Stall faults applied to this queue.
    std::uint64_t poisonEvents = 0; ///< Poison faults applied to this queue.
    int bufNode;         ///< Node holding ring + packet buffers (local
                         ///< to the consuming core, per XPS/ARFS).
    sim::Channel<RxCompletion> rxCq;
    sim::Channel<TxDesc> txRing;
    sim::Channel<TxCompletion> txCq;
    sim::Semaphore rxCredits;
    bool rxIrqArmed = true;
    bool txIrqArmed = true;
    sim::EventRef rxIrqEv; ///< Pre-allocated IRQ events: the armed
    sim::EventRef txIrqEv; ///< flags guarantee one outstanding raise,
                           ///< so each re-arm is a zero-setup schedule.
    bool polled = false; ///< Bypass mode: never raise interrupts; a
                         ///< busy-poll port harvests both CQs directly.
    sim::Counter rxFrames;
    sim::Counter txFrames;
    std::uint64_t rxReaped = 0; ///< Completions processed by softirq.
};

/** A classification domain: one netdev-visible address + its queues. */
struct NetdevView
{
    std::uint32_t ip;
    std::vector<int> qids;
};

/** The NIC device. */
class NicDevice
{
  public:
    NicDevice(topo::Machine& host, std::string name);
    ~NicDevice();

    NicDevice(const NicDevice&) = delete;
    NicDevice& operator=(const NicDevice&) = delete;

    topo::Machine& host() { return host_; }
    const std::string& name() const { return name_; }

    // ------------------------------------------------------------ setup
    /** Add a PCIe endpoint attached to @p node with @p lanes lanes. */
    pcie::PciFunction& addFunction(int node, int lanes);

    pcie::PciFunction& function(int idx) { return *pfs_.at(idx); }
    int functionCount() const { return static_cast<int>(pfs_.size()); }

    /**
     * Add a queue pair whose interrupts target @p irq_core and whose DMA
     * flows through @p pf. Ring and packet buffers live on the core's
     * node. Returns the queue id.
     */
    int addQueue(topo::Core& irq_core, pcie::PciFunction& pf,
                 int ring_entries = 512);

    NicQueue& queue(int qid) { return *queues_.at(qid); }
    int queueCount() const { return static_cast<int>(queues_.size()); }

    /** Register a netdev-visible address owning @p qids. */
    int addNetdev(std::uint32_t ip, std::vector<int> qids);

    /** Attach the single port to a wire. */
    void connect(Wire& wire) { wire_ = &wire; }

    void setSink(NicSink* sink) { sink_ = sink; }

    /** Attach a region-grain access monitor; every classified Rx frame
     *  is reported (offered demand, before drop checks). Null detaches. */
    void setAccessMonitor(accmon::AccessMonitor* mon) { accmon_ = mon; }

    /** Rx interrupt coalescing delay (0 disables coalescing). */
    void setRxCoalesce(Tick t) { rxCoalesce_ = t; }

    /**
     * Put queue @p qid in polled (kernel-bypass) mode: both interrupt
     * sources are masked permanently and stay masked across rearm
     * calls. Completions simply accumulate in the CQs until a
     * bypass::PollPort harvests them.
     */
    void setQueuePolled(int qid);

    /** Bonding/teaming (§2.5): with multiple netdevs registered under
     *  one address, the (simulated) switch hashes each unsteered flow
     *  to a member netdev — the static link aggregation that cannot
     *  follow a migrating thread. */
    void setBondMode(bool on) { bondMode_ = on; }
    bool bondMode() const { return bondMode_; }

    /** Enable IOctoSG: descriptors carrying a cross-node fragment hint
     *  are fetched through the PF local to each fragment (§3.3). */
    void setOctoSg(bool on) { octoSg_ = on; }
    bool octoSg() const { return octoSg_; }

    /** The PF attached to @p node, or PF0 when none is. */
    pcie::PciFunction& pfForNode(int node);

    /** The live PF attached to @p node; falls back to any live PF, or
     *  nullptr when every endpoint is down. Failover target choice. */
    pcie::PciFunction* pfForNodeAlive(int node);

    /** Start per-queue Tx engines. Call after all queues exist. */
    void start();

    // --------------------------------------------------- fault injection
    /**
     * PF surprise-removal (@p up false) or re-probe (@p up true): flips
     * the endpoint's link state and notifies the sink so the driver can
     * fail queues over / rebalance them back. Frames targeting a dead
     * PF's queues are dropped (Rx) or aborted with a synthetic error
     * completion (Tx) until the driver reacts.
     */
    void setPfLink(int idx, bool up);

    /** Rebind @p qid's DMA to @p pf (driver reprogramming the queue
     *  context behind a surviving endpoint). Ring and buffers stay
     *  put; only the PCIe path changes. */
    void rebindQueue(int qid, pcie::PciFunction& pf);

    /** Stall queue @p qid's datapath (firmware hiccup): Rx completions
     *  and Tx descriptor processing are deferred for @p duration. */
    void stallQueue(int qid, Tick duration);

    /**
     * Poison queue @p qid's buffer pool for @p duration (bad DMA
     * address / corrupted descriptors): completions keep flowing but
     * carry detectable per-queue errors, so the health plane can
     * evacuate the one sick queue while its siblings stay bound.
     */
    void poisonQueue(int qid, Tick duration);

    // --------------------------------------------------------- steering
    /**
     * Install or update a flow-steering rule (ARFS in standard firmware;
     * the IOctoRFS/MPFS composition in octo firmware). The caller (the
     * driver) models the asynchronous kernel-worker update delay.
     */
    void steerFlow(const FiveTuple& flow, int qid);

    /** Remove a steering rule (driver rule expiry, §4.2): the flow's
     *  next frames fall back to RSS until a new rule is installed. */
    void unsteerFlow(const FiveTuple& flow);

    /** Installed steering rules (expiry tests / table-pressure gauge). */
    std::size_t steeringRuleCount() const { return steering_.size(); }

    /** Queue a frame arriving for @p flow would be steered to now. */
    int classify(const FiveTuple& flow) const;

    /** "1.2.3.4:80>5.6.7.8:90" label for a flow (trace/metric rows). */
    static std::string flowLabel(const FiveTuple& f);

    /** Flow-grain DMA attribution (bounded top-K sketch; read-only). */
    const obs::DmaAccountant& flows() const { return flows_; }

    /** Map flows to tenant ids for exact tenant_dma_* rollup rows; a
     *  negative return (or no classifier) skips the rollup. Consulted
     *  only when attribution is active. */
    void
    setTenantClassifier(std::function<int(const FiveTuple&)> fn)
    {
        tenantOf_ = std::move(fn);
    }

    // -------------------------------------------------------- data path
    /**
     * Host posts a Tx descriptor; suspends while the ring is full.
     * The doorbell MMIO cost is charged by the caller. Hands back the
     * Tx ring's push awaiter directly, so the per-segment path spends
     * no intermediate coroutine frame; wakeup order through the ring
     * is the channel's own FIFO either way.
     */
    sim::Channel<TxDesc>::PushAwaiter
    postTx(int qid, TxDesc desc)
    {
        return queues_.at(qid)->txRing.push(std::move(desc));
    }

    /** Frame arriving from the wire (called by the peer device). */
    void acceptFrame(const Frame& f);

    /**
     * Re-arm the Rx interrupt for @p qid after a softirq drain; if new
     * completions raced in, the interrupt re-fires immediately.
     */
    void rearmRxIrq(int qid);

    /** Re-arm the Tx-completion interrupt for @p qid. */
    void rearmTxIrq(int qid);

    // ------------------------------------------------------- statistics
    std::uint64_t rxDrops() const { return rxDrops_; }

    /** Rx frames dropped because the target queue's PF was down. */
    std::uint64_t deadPfDrops() const { return deadPfDrops_; }

    /** Tx descriptors aborted (error completion) on a dead PF. */
    std::uint64_t txAborts() const { return txAborts_; }

    /** Ground-truth gray losses (Rx frames / probe completions
     *  silently swallowed by a gray PF). Test-only visibility: these
     *  are deliberately not exported as metrics and do not feed the
     *  per-PF health telemetry. */
    std::uint64_t grayRxDrops() const { return grayRxDrops_; }
    std::uint64_t grayCqDrops() const { return grayCqDrops_; }

    /** Queue-stall fault events applied. */
    std::uint64_t queueStallEvents() const { return queueStallEvents_; }

    /** Queue-poison fault events applied. */
    std::uint64_t queuePoisonEvents() const { return queuePoisonEvents_; }

    /** PF surprise-removal / re-probe event counts. */
    std::uint64_t pfKills() const { return pfKills_; }
    std::uint64_t pfRecoveries() const { return pfRecoveries_; }

    /** Cumulative DMA-write (device-to-host) bytes through PF @p idx —
     *  the per-PF throughput series of Fig. 14. */
    std::uint64_t pfRxBytes(int idx) const;

    /** Cumulative DMA-read (host-to-device) bytes through PF @p idx. */
    std::uint64_t pfTxBytes(int idx) const;

    // ------------------------------------------- per-PF health counters
    /** Rx frames dropped on PF @p idx because its link was down. */
    std::uint64_t
    pfDeadDrops(int idx) const
    {
        return pfStats_.at(idx).deadDrops;
    }

    /** Tx descriptors aborted on PF @p idx. */
    std::uint64_t
    pfTxAborts(int idx) const
    {
        return pfStats_.at(idx).txAborts;
    }

    /** Stall fault events applied to queues bound to PF @p idx. */
    std::uint64_t
    pfStallEvents(int idx) const
    {
        return pfStats_.at(idx).stallEvents;
    }

  private:
    /** Per-PF slice of the fault counters (the health monitor samples
     *  these to attribute sickness to an endpoint). */
    struct PfFaultStats
    {
        std::uint64_t deadDrops = 0;
        std::uint64_t txAborts = 0;
        std::uint64_t stallEvents = 0;
    };

    Task<> rxPath(Frame f);
    Task<> txEngine(int qid);
    Task<> txProcess(NicQueue& q, TxDesc d);
    void maybeRaiseRxIrq(NicQueue& q);
    void maybeRaiseTxIrq(NicQueue& q);
    Tick irqLatencyFor(const NicQueue& q) const;
    sim::Domain irqDomain(const NicQueue& q) const;

    topo::Machine& host_;
    std::string name_;
    sim::Simulator& sim_;
    int devId_ = -1; ///< Small id for Domain{node, device} tagging.

    std::vector<std::unique_ptr<pcie::PciFunction>> pfs_;
    std::vector<PfFaultStats> pfStats_;
    std::vector<std::unique_ptr<NicQueue>> queues_;
    std::vector<NetdevView> netdevs_;
    std::unordered_map<FiveTuple, int> steering_;

    Wire* wire_ = nullptr;
    NicSink* sink_ = nullptr;
    accmon::AccessMonitor* accmon_ = nullptr;
    bool octoSg_ = false;
    bool bondMode_ = false;
    Tick rxCoalesce_ = 0;
    Tick txIssueGap_ = sim::fromNs(15);

    std::vector<Task<>> engines_;
    std::uint64_t rxDrops_ = 0;
    std::uint64_t deadPfDrops_ = 0;
    std::uint64_t txAborts_ = 0;
    std::uint64_t grayRxDrops_ = 0;
    std::uint64_t grayCqDrops_ = 0;
    std::uint64_t queueStallEvents_ = 0;
    std::uint64_t queuePoisonEvents_ = 0;
    std::uint64_t pfKills_ = 0;
    std::uint64_t pfRecoveries_ = 0;

    obs::DmaAccountant flows_; ///< Flow-grain DMA attribution.
    std::function<int(const FiveTuple&)> tenantOf_;
    int tracePid_ = 0;
};

} // namespace octo::nic
