#include "bypass/plane.hpp"

#include <algorithm>
#include <cassert>

#include "obs/hub.hpp"

namespace octo::bypass {

using mem::DataLoc;
using sim::delay;
using sim::fromUs;

namespace {
/** Trace lane collecting per-packet e2e spans (same convention as the
 *  kernel stack's lane, so the two compare side by side in Perfetto). */
constexpr int kE2eTid = 999;
} // namespace

// ------------------------------------------------------------- PollPort

PollPort::PollPort(PollPlane& plane, int idx, topo::Core& core, int qid)
    : plane_(plane), idx_(idx), qid_(qid), core_(core)
{
    core_.addBusyDebtor(&settleHook, this);
}

PollPort::~PollPort()
{
    core_.removeBusyDebtor(this);
    if (park_.valid()) {
        // The frame stays parked for simulator teardown to reclaim.
        plane_.sim_.clearGridSettle(park_);
        core_.mutex().onContention(nullptr, nullptr);
    }
}

/** Suspends an idle rxBurst on the poll grid (Simulator::parkOnGrid),
 *  which always takes it: one grid step per skipped empty poll,
 *  holding the core mutex. */
struct PollPort::Park
{
    PollPort& port;

    bool await_ready() const noexcept { return false; }

    template <typename P>
    void
    await_suspend(std::coroutine_handle<P> h)
    {
        PollPlane& pl = port.plane_;
        port.park_ = pl.sim_.parkOnGrid(
            h, &h.promise(), pl.machine_.cal().bypassEmptyPoll,
            &PollPort::settleHook, &port);
        port.settledSteps_ = 0;
        port.core_.mutex().onContention(&PollPort::wakeHook, &port);
    }

    void await_resume() const noexcept {}
};

void
PollPort::settle() const
{
    if (!park_.valid())
        return;
    const std::uint64_t steps = plane_.sim_.gridSteps(park_);
    const std::uint64_t n = steps - settledSteps_;
    if (n == 0)
        return;
    settledSteps_ = steps;
    // Each skipped step finished one empty poll and started the next.
    polls_ += n;
    emptyPolls_ += n;
    core_.addBusy(static_cast<Tick>(n) *
                  plane_.machine_.cal().bypassEmptyPoll);
    if (plane_.obRxBurst_ != nullptr)
        plane_.obRxBurst_->record(0.0, n);
    if (plane_.obOccupancy_ != nullptr)
        plane_.obOccupancy_->record(0.0, n);
}

void
PollPort::wake()
{
    if (!park_.valid())
        return;
    settle();
    core_.mutex().onContention(nullptr, nullptr);
    const std::uint64_t steps = plane_.sim_.unparkFromGrid(park_);
    assert(steps == settledSteps_);
    (void)steps;
    settledSteps_ = 0;
}

void
PollPort::settleHook(void* port)
{
    static_cast<PollPort*>(port)->settle();
}

void
PollPort::wakeHook(void* port)
{
    static_cast<PollPort*>(port)->wake();
}

Task<>
PollPort::cqeRead(DataLoc cqe_loc, int buf_node)
{
    topo::Machine& m = plane_.machine_;
    const auto& cal = m.cal();
    nic::NicQueue& q = plane_.device_.queue(qid_);
    if (cqe_loc == DataLoc::Llc && buf_node == core_.node()) {
        co_await delay(core_.sim(), cal.llcLatency);
    } else if (cqe_loc == DataLoc::Llc) {
        co_await delay(core_.sim(), cal.qpiLatency + cal.llcLatency +
                                        cal.rxRemoteDescMiss);
    } else {
        // Device-posted line in DRAM: the dependent read serializes
        // behind the device's in-flight writes on the interconnect.
        // Bypass removes no part of this — it is pure memory system.
        const Tick backlog =
            q.pf->node() == core_.node()
                ? 0
                : std::min(m.qpi(q.pf->node(), core_.node()).backlog(),
                           cal.remoteMissWaitCap);
        m.dram(buf_node).reserve(64ull * cal.cqeLines);
        co_await delay(core_.sim(), cal.dramLatency + cal.qpiLatency +
                                        backlog + cal.rxRemoteDescMiss);
    }
}

Task<int>
PollPort::rxBurst(RxPacket* out, int max)
{
    PollPlane& pl = plane_;
    nic::NicQueue& q = pl.device_.queue(qid_);
    const auto& cal = pl.machine_.cal();
    max = std::clamp(max, 1, pl.cfg_.burst);

    Tick t0 = pl.sim_.now();
    co_await core_.mutex().acquire();
    int n = 0;
    std::uint64_t bytes = 0;
    while (n < max) {
        auto oc = q.rxCq.tryPop();
        if (!oc)
            break;
        const nic::RxCompletion& c = *oc;
        co_await cqeRead(c.cqeLoc, c.bufNode);
        co_await delay(pl.sim_, cal.bypassRxPerFrame);
        out[n].frame = c.frame;
        out[n].loc = c.dataLoc;
        out[n].node = c.bufNode;
        bytes += c.frame.payloadBytes;
        // The harvested buffer now belongs to the application; refill
        // the ring slot from the node arena (or owe it a refill).
        if (pl.pool_.tryAlloc(q.bufNode))
            q.rxCredits.release(1);
        else
            ++pendingRefill_;
        ++n;
    }
    ++polls_;
    if (n == 0) {
        ++emptyPolls_;
        // Back-to-back empty re-entry (the acquire above did not wait,
        // so nobody contends for the core): park instead of stepping.
        // We resume at the grid instant that finishes the poll which
        // discovers new work.
        if (idleDispatch_ == pl.sim_.eventsProcessed()) {
            co_await Park{*this};
            t0 = pl.sim_.now() - cal.bypassEmptyPoll;
        } else {
            co_await delay(pl.sim_, cal.bypassEmptyPoll);
        }
    }
    core_.addBusy(pl.sim_.now() - t0);
    core_.mutex().release();

    q.rxReaped += n;
    rxFrames_.add(static_cast<std::uint64_t>(n));
    rxBytes_.add(bytes);

    // Observation only below this line: no awaits, no model writes.
    const Tick now = pl.sim_.now();
    if (pl.flows_.active()) {
        // Attribute harvested payloads at delivery grain: locality is
        // the queue's PF vs the buffer node, DDIO outcome is the
        // payload residency the device's write left behind.
        for (int i = 0; i < n; ++i) {
            const nic::Frame& f = out[i].frame;
            pl.flows_.record(
                f.flow.hash(),
                [&f] { return nic::NicDevice::flowLabel(f.flow); },
                f.payloadBytes, q.pf->node() == out[i].node,
                out[i].loc == DataLoc::Llc);
        }
    }
    if (pl.obRxBurst_ != nullptr)
        pl.obRxBurst_->record(n);
    if (pl.obOccupancy_ != nullptr)
        pl.obOccupancy_->record(100.0 * n / pl.cfg_.burst);
    for (int i = 0; i < n; ++i) {
        const Tick arrived = out[i].frame.arrivedAt;
        if (pl.obE2e_ != nullptr)
            pl.obE2e_->record(sim::toNs(now - arrived));
        if (auto* tr = obs::tracer(pl.sim_, obs::kCatApp)) {
            tr->complete(obs::kCatApp, "e2e", pl.tracePid_, kE2eTid,
                         arrived, now,
                         {{"bytes", static_cast<std::uint64_t>(
                                        out[i].frame.payloadBytes)}});
        }
    }
    if (n > 0) {
        if (auto* tr = obs::tracer(pl.sim_, obs::kCatQueue)) {
            tr->complete(obs::kCatQueue, "poll_rx", pl.tracePid_, qid_,
                         t0, now, {{"frames", n}});
        }
    } else {
        idleDispatch_ = pl.sim_.eventsProcessed();
    }
    co_return n;
}

Task<int>
PollPort::txBurst(const nic::FiveTuple& flow, std::uint32_t bytes,
                  int count, sim::Semaphore* completion_sem)
{
    PollPlane& pl = plane_;
    const auto& cal = pl.machine_.cal();
    count = std::clamp(count, 1, pl.cfg_.burst);

    const Tick t0 = pl.sim_.now();
    co_await core_.mutex().acquire();
    std::uint64_t& seq = txSeq_[flow];
    for (int i = 0; i < count; ++i) {
        co_await delay(pl.sim_, cal.bypassTxPerFrame);
        nic::TxDesc d;
        d.flow = flow;
        d.bytes = bytes;
        d.skbNode = core_.node();
        d.loc = DataLoc::Llc;
        d.fastPath = true;
        d.completionSem = completion_sem;
        d.sentAt = pl.sim_.now();
        d.seqStart = seq;
        seq += (bytes + cal.mtu - 1) / cal.mtu;
        co_await pl.device_.postTx(qid_, d);
    }
    // One doorbell MMIO covers the whole burst — the batching win over
    // the kernel fast path's per-packet post.
    co_await delay(pl.sim_, cal.mmioCpuCost);
    core_.addBusy(pl.sim_.now() - t0);
    core_.mutex().release();

    txFrames_.add(static_cast<std::uint64_t>(count));
    txBytes_.add(static_cast<std::uint64_t>(count) * bytes);
    if (pl.obTxBurst_ != nullptr)
        pl.obTxBurst_->record(count);
    if (auto* tr = obs::tracer(pl.sim_, obs::kCatQueue)) {
        tr->complete(obs::kCatQueue, "poll_tx", pl.tracePid_, qid_, t0,
                     pl.sim_.now(), {{"frames", count}});
    }
    co_return count;
}

Task<>
PollPort::txMessage(const nic::FiveTuple& flow, std::uint32_t bytes,
                    int skb_node, DataLoc loc, bool last_of_message,
                    sim::Semaphore* completion_sem)
{
    PollPlane& pl = plane_;
    const auto& cal = pl.machine_.cal();

    const Tick t0 = pl.sim_.now();
    co_await core_.mutex().acquire();
    co_await delay(pl.sim_, cal.bypassTxPerFrame);
    nic::TxDesc d;
    d.flow = flow;
    d.bytes = bytes;
    d.skbNode = skb_node;
    d.loc = loc;
    d.fastPath = true;
    d.completionSem = completion_sem;
    d.sentAt = pl.sim_.now();
    d.lastOfMessage = last_of_message;
    std::uint64_t& seq = txSeq_[flow];
    d.seqStart = seq;
    seq += (bytes + cal.mtu - 1) / cal.mtu;
    co_await pl.device_.postTx(qid_, d);
    co_await delay(pl.sim_, cal.mmioCpuCost);
    core_.addBusy(pl.sim_.now() - t0);
    core_.mutex().release();

    txFrames_.add();
    txBytes_.add(bytes);
    if (pl.obTxBurst_ != nullptr)
        pl.obTxBurst_->record(1);
}

Task<int>
PollPort::harvestTx(int max)
{
    PollPlane& pl = plane_;
    nic::NicQueue& q = pl.device_.queue(qid_);
    const auto& cal = pl.machine_.cal();
    max = std::clamp(max, 1, pl.cfg_.burst);

    const Tick t0 = pl.sim_.now();
    co_await core_.mutex().acquire();
    int n = 0;
    while (n < max) {
        auto oc = q.txCq.tryPop();
        if (!oc)
            break;
        co_await cqeRead(oc->cqeLoc, q.bufNode);
        co_await delay(pl.sim_, cal.bypassTxCompletion);
        if (oc->desc.completionSem != nullptr)
            oc->desc.completionSem->release();
        ++n;
    }
    if (n == 0)
        co_await delay(pl.sim_, cal.bypassEmptyPoll);
    core_.addBusy(pl.sim_.now() - t0);
    core_.mutex().release();
    txReaped_ += n;
    co_return n;
}

void
PollPort::freePacket(const RxPacket& p)
{
    PollPlane& pl = plane_;
    nic::NicQueue& q = pl.device_.queue(qid_);
    pl.pool_.free(p.node);
    // Pay down ring refills that failed while the pool was dry.
    while (pendingRefill_ > 0 && pl.pool_.tryAlloc(q.bufNode)) {
        q.rxCredits.release(1);
        --pendingRefill_;
    }
}

// ------------------------------------------------------------ PollPlane

PollPlane::PollPlane(topo::Machine& machine, nic::NicDevice& device,
                     BypassConfig cfg)
    : machine_(machine), device_(device), cfg_(cfg), sim_(machine.sim()),
      pool_(machine.sim(), device.name() + ".pool"),
      flows_(obs::hub(machine.sim()), device.name() + ".poll")
{
    device_.setSink(this);
    if (obs::Hub* h = obs::hub(sim_)) {
        obs::MetricRegistry& reg = h->metrics();
        const obs::Labels l = {{"dev", device_.name()}};
        reg.counterFn("bypass_lost_bytes", l,
                      [this] { return lostBytes_; });
        reg.counterFn("bypass_resteers", l, [this] { return resteers_; });
        reg.counterFn("bypass_admin_drains", l,
                      [this] { return adminDrains_; });
        obRxBurst_ = &reg.histogram("bypass_rx_burst_frames", l);
        obTxBurst_ = &reg.histogram("bypass_tx_burst_frames", l);
        obOccupancy_ = &reg.histogram("bypass_poll_occupancy_pct", l);
        obE2e_ = &reg.histogram("latency_e2e_ns", l);
        tracePid_ = h->pidFor(device_.name() + ".bypass");
        h->tracer().threadName(tracePid_, kE2eTid, "e2e");
    }
}

PollPlane::~PollPlane() = default;

PollPort&
PollPlane::addPort(topo::Core& core, int qid)
{
    assert(queuePort_.find(qid) == queuePort_.end());
    device_.setQueuePolled(qid);
    nic::NicQueue& q = device_.queue(qid);

    // Carve this port's arena: the ring's initial fill plus headroom
    // for buffers the application holds, then commit the ring fill.
    const auto ring = static_cast<std::uint64_t>(q.rxCredits.count());
    pool_.addCapacity(q.bufNode,
                      ring + static_cast<std::uint64_t>(
                                 cfg_.extraBufsPerPort));
    for (std::uint64_t i = 0; i < ring; ++i) {
        const bool ok = pool_.tryAlloc(q.bufNode);
        assert(ok);
        (void)ok;
    }

    const int idx = static_cast<int>(ports_.size());
    ports_.push_back(std::unique_ptr<PollPort>(
        new PollPort(*this, idx, core, qid)));
    queuePort_[qid] = idx;
    if (obs::Hub* h = obs::hub(sim_)) {
        const obs::Labels l = {{"dev", device_.name()},
                               {"queue", std::to_string(qid)}};
        PollPort* p = ports_.back().get();
        h->metrics().counterFn("bypass_rx_frames", l,
                               [p] { return p->rxFrames_.total(); });
        h->metrics().counterFn("bypass_tx_frames", l,
                               [p] { return p->txFrames_.total(); });
        h->metrics().counterFn("bypass_empty_polls", l,
                               [p] { return p->emptyPolls(); });
        h->tracer().threadName(tracePid_, qid,
                               "q" + std::to_string(qid));
    }
    return *ports_.back();
}

PollPort*
PollPlane::portForQueue(int qid)
{
    const auto it = queuePort_.find(qid);
    return it == queuePort_.end() ? nullptr : ports_.at(it->second).get();
}

void
PollPlane::steerFlow(const nic::FiveTuple& flow, int port_idx)
{
    device_.steerFlow(flow, ports_.at(port_idx)->qid());
}

bool
PollPlane::placeFlow(const nic::FiveTuple& flow, int qid)
{
    if (qid < 0 || qid >= device_.queueCount())
        return false;
    if (portForQueue(qid) == nullptr)
        return false; // nobody polls that queue — frames would rot
    if (device_.classify(flow) == qid)
        return true;
    ++flowPlacements_;
    device_.steerFlow(flow, qid);
    return true;
}

void
PollPlane::unplaceFlow(const nic::FiveTuple& flow)
{
    device_.unsteerFlow(flow);
}

bool
PollPlane::queueDmaLocal(int qid) const
{
    const nic::NicQueue& q = device_.queue(qid);
    return q.pf->linkUp() && q.pf->node() == q.bufNode;
}

std::uint64_t
PollPlane::rxBytesTotal() const
{
    std::uint64_t s = 0;
    for (const auto& p : ports_)
        s += p->rxBytes_.total();
    return s;
}

std::uint64_t
PollPlane::txBytesTotal() const
{
    std::uint64_t s = 0;
    for (const auto& p : ports_)
        s += p->txBytes_.total();
    return s;
}

std::uint64_t
PollPlane::rxFramesTotal() const
{
    std::uint64_t s = 0;
    for (const auto& p : ports_)
        s += p->rxFrames_.total();
    return s;
}

std::uint64_t
PollPlane::txFramesTotal() const
{
    std::uint64_t s = 0;
    for (const auto& p : ports_)
        s += p->txFrames_.total();
    return s;
}

std::uint64_t
PollPlane::emptyPollsTotal() const
{
    std::uint64_t s = 0;
    for (const auto& p : ports_)
        s += p->emptyPolls();
    return s;
}

void
PollPlane::rxPolled(int qid)
{
    if (PollPort* p = portForQueue(qid))
        p->wake();
}

void
PollPlane::frameLost(const nic::FiveTuple& flow, std::uint32_t bytes)
{
    (void)flow;
    ++lostFrames_;
    lostBytes_ += bytes;
}

steer::EndpointTelemetry
PollPlane::telemetry(const steer::Endpoint& ep) const
{
    steer::EndpointTelemetry t;
    nic::NicDevice& dev = device_;
    if (ep.isPf()) {
        const pcie::PciFunction& pf = dev.function(ep.pf);
        t.linkUp = pf.linkUp();
        t.bwFraction = pf.bwFraction();
        t.nominalGbps = pf.nominalGbps();
        t.errors = pf.correctableErrors() + pf.uncorrectableErrors() +
                   dev.pfDeadDrops(ep.pf) + dev.pfTxAborts(ep.pf);
        t.stalls = 0; // queue grain judges stalls (as in the netstack)
        t.currentPf = ep.pf;
        t.homePf = ep.pf;
        t.node = pf.node();
        return t;
    }
    const nic::NicQueue& q = dev.queue(ep.queue);
    t.linkUp = q.pf->linkUp();
    t.impaired =
        q.stalledUntil > sim_.now() || q.poisonedUntil > sim_.now();
    t.bwFraction = t.impaired ? 0.0 : 1.0;
    t.nominalGbps = q.pf->nominalGbps();
    t.errors = q.poisonEvents;
    t.stalls = q.stallEvents;
    t.currentPf = q.pf->id();
    t.homePf = q.homePf->id();
    t.node = q.irqCore->node();
    return t;
}

void
PollPlane::resteer(const steer::Endpoint& ep, int target_pf)
{
    if (ep.isQueue()) {
        resteerQueue(ep.queue, target_pf);
        return;
    }
    for (int qid = 0; qid < device_.queueCount(); ++qid) {
        if (device_.queue(qid).pf->id() == ep.pf)
            resteerQueue(qid, target_pf);
    }
}

void
PollPlane::drain(const steer::Endpoint& ep)
{
    if (ep.isQueue()) {
        ++adminDrains_;
        adminDrainTask(ep.queue).detach();
        return;
    }
    for (int qid = 0; qid < device_.queueCount(); ++qid) {
        if (device_.queue(qid).pf->id() == ep.pf) {
            ++adminDrains_;
            adminDrainTask(qid).detach();
        }
    }
}

void
PollPlane::resteerQueue(int qid, int pf_idx)
{
    const std::uint64_t epoch = ++resteerEpoch_[qid];
    drainAndRebind(qid, pf_idx, epoch).detach();
}

Task<>
PollPlane::adminDrainTask(int qid)
{
    co_await drainQueue(qid);
}

Task<bool>
PollPlane::drainQueue(int qid)
{
    // Same evacuation discipline as the kernel stack: wait for the
    // completions already posted behind the old binding to be reaped
    // (here: harvested by the application's own poll loop), bounded by
    // the watchdog when the poller is wedged or absent.
    nic::NicQueue& q = device_.queue(qid);
    const std::uint64_t target = q.rxReaped + q.rxCq.size();
    const Tick deadline = sim_.now() + steer::kSteerWatchdog;
    while (q.rxReaped < target) {
        if (sim_.now() >= deadline) {
            ++watchdogFires_;
            co_return false;
        }
        co_await delay(sim_, fromUs(5));
    }
    co_return true;
}

Task<>
PollPlane::drainAndRebind(int qid, int pf_idx, std::uint64_t epoch)
{
    // Firmware RPC reprogramming the queue context; the poller keeps
    // harvesting throughout — only the DMA path moves.
    co_await delay(sim_, machine_.cal().arfsUpdateDelay);
    if (resteerEpoch_[qid] != epoch)
        co_return; // superseded by a newer verdict
    co_await drainQueue(qid);
    if (resteerEpoch_[qid] != epoch)
        co_return;
    pcie::PciFunction* pf = &device_.function(pf_idx);
    if (device_.queue(qid).pf == pf)
        co_return;
    const int old_pf = device_.queue(qid).pf->id();
    device_.rebindQueue(qid, *pf);
    ++resteers_;
    if (auto* tr = obs::tracer(sim_, obs::kCatSteer)) {
        tr->instant(obs::kCatSteer, "health_resteer", tracePid_, qid,
                    sim_.now(),
                    {{"qid", qid}, {"from_pf", old_pf},
                     {"to_pf", pf_idx}});
    }
}

sim::Task<bool>
PollPlane::probe(int pf_idx)
{
    // Post one tiny descriptor through a queue currently bound to the
    // PF under probation and self-harvest its completion: control-path
    // traffic only, no application flow is steered onto the endpoint
    // until the probe passes.
    int qid = -1;
    for (int q = 0; q < device_.queueCount(); ++q) {
        if (device_.queue(q).pf->id() == pf_idx) {
            qid = q;
            break;
        }
    }
    if (qid < 0 || !device_.function(pf_idx).linkUp())
        co_return false;
    const std::uint64_t aborts0 = device_.pfTxAborts(pf_idx);
    sim::Semaphore done(sim_, 0);
    nic::NicQueue& q = device_.queue(qid);
    nic::TxDesc d;
    d.flow.srcPort = 1; // unmatched control flow: peer discards it
    d.flow.dstPort = 1;
    d.bytes = 64;
    d.skbNode = q.bufNode;
    d.loc = DataLoc::Llc;
    d.fastPath = true;
    d.probe = true;
    d.completionSem = &done;
    d.sentAt = sim_.now();
    co_await device_.postTx(qid, d);
    const Tick deadline = sim_.now() + steer::kSteerWatchdog;
    while (!done.tryAcquire()) {
        if (sim_.now() >= deadline)
            co_return false;
        // Control-path harvest: release any completions (including
        // ours) so the probe resolves even on an otherwise idle port.
        while (auto oc = q.txCq.tryPop()) {
            if (oc->desc.completionSem != nullptr)
                oc->desc.completionSem->release();
        }
        co_await delay(sim_, fromUs(5));
    }
    co_return device_.pfTxAborts(pf_idx) == aborts0 &&
        device_.function(pf_idx).linkUp();
}

} // namespace octo::bypass
