#include "sim/simulator.hpp"

#include <algorithm>

#include "sim/task.hpp"

namespace octo::sim {

namespace {

/** Start of the enclosing level-0 slot window (256-tick aligned). */
constexpr Tick
windowStart(Tick when, int shift)
{
    return static_cast<Tick>(
        (static_cast<std::uint64_t>(when) >> shift) << shift);
}

} // namespace

Simulator::Simulator()
{
    level0_.head = std::make_unique<std::uint32_t[]>(kSlots);
    level1_.head = std::make_unique<std::uint32_t[]>(kSlots);
    std::fill_n(level0_.head.get(), kSlots, kNil);
    std::fill_n(level1_.head.get(), kSlots, kNil);
    domainTable_.fill(0xFF);
    domains_.push_back(Domain{}); // id 0: untagged
    domainCount_.push_back(0);
    domainTable_[static_cast<std::size_t>(domainKey(Domain{}))] = 0;
    addChunk();
    poolGrowths_ = 0; // the initial chunk is not a growth
}

/**
 * Teardown. Pending callbacks are destroyed without running. Pending
 * coroutine resumptions would leak their frames (the historical
 * behaviour the sanitizer leg had to suppress): a parked frame owns
 * its captures and locals and nothing else frees them. The pool lets
 * us do better — every detached frame (no Task owns it, see task.hpp)
 * whose resume is parked here is destroyed directly. This runs to a
 * fixpoint because destroying one frame can release (and thereby
 * detach) frames it owns. Remaining exceptions, documented: frames
 * still owned by a live Task object (that Task's destructor handles
 * them) and frames parked on sync-primitive wait queues
 * (Channel/Semaphore/Signal/Gate hold no timer event to find here).
 *
 * Grid-parked coroutines (parkOnGrid) are usually nested: a poll loop
 * awaits the burst call that parked. Their awaiter chain is walked up
 * to its root; when nothing owns the root, the chain is destroyed top
 * down, each destroy detaching the next frame's owner Task first.
 */
Simulator::~Simulator()
{
    tearingDown_ = true;
    bool progress = true;
    while (progress) {
        progress = false;
        for (std::uint32_t i = 0; i < gridMembers_.size(); ++i) {
            GridMember& m = gridMembers_[i];
            if (!m.live || m.promise == nullptr)
                continue;
            std::vector<std::coroutine_handle<>> frames{m.h};
            std::vector<detail::PromiseBase*> promises{m.promise};
            while (!promises.back()->detached &&
                   promises.back()->parent != nullptr) {
                frames.push_back(promises.back()->continuation);
                promises.push_back(promises.back()->parent);
            }
            if (!promises.back()->detached)
                continue; // a live Task still owns the chain
            m.live = false;
            --gridLive_;
            for (std::size_t j = frames.size(); j-- > 0;) {
                if (!promises[j]->detached)
                    break; // owned elsewhere: leave it, never double-free
                frames[j].destroy();
            }
            progress = true;
        }
        const auto cap = static_cast<std::uint32_t>(poolCapacity());
        for (std::uint32_t i = 0; i < cap; ++i) {
            EventSlot& s = slotAt(i);
            if ((s.kind & kKindMask) != kResume)
                continue;
            if (s.detached == nullptr || !*s.detached)
                continue;
            const std::coroutine_handle<> h = s.handle;
            freeSlot(i); // clear bookkeeping before the destroy
            --pending_;  // may detach further parked frames below
            h.destroy();
            progress = true;
        }
    }
    // Destroy remaining stored callables (never run).
    const auto cap = static_cast<std::uint32_t>(poolCapacity());
    for (std::uint32_t i = 0; i < cap; ++i) {
        EventSlot& s = slotAt(i);
        if ((s.kind & kKindMask) != kFree && s.destroy != nullptr) {
            s.destroy(s.buf);
            s.destroy = nullptr;
        }
    }
}

void
Simulator::addChunk()
{
    const auto base =
        static_cast<std::uint32_t>(chunks_.size() * kChunkSlots);
    chunks_.push_back(std::make_unique<EventSlot[]>(kChunkSlots));
    EventSlot* slots = chunks_.back().get();
    for (std::size_t i = 0; i < kChunkSlots; ++i) {
        slots[i].kind = kFree;
        slots[i].gen = 0;
        slots[i].invoke = nullptr;
        slots[i].destroy = nullptr;
        slots[i].handle = nullptr;
        slots[i].detached = nullptr;
        slots[i].next = (i + 1 < kChunkSlots)
                            ? base + static_cast<std::uint32_t>(i) + 1
                            : freeHead_;
    }
    freeHead_ = base;
    chunk0_ = chunks_.front().get();
    ++poolGrowths_;
}

int
Simulator::registerDomain(Domain d, int key)
{
    const int id = static_cast<int>(domains_.size());
    assert(id < 255 && "domain id space exhausted");
    domains_.push_back(d);
    domainCount_.push_back(0);
    domainTable_[static_cast<std::size_t>(key)] =
        static_cast<std::uint8_t>(id);
    return id;
}

/**
 * File a slot whose when/seq are already set into the pending set.
 * Events landing inside the level-0 window currently being dispatched
 * are placed straight into the in-flight batch at their sorted
 * position, so nested zero-delay scheduling — the softirq/DMA hot
 * path — never touches the wheel at all.
 */
void
Simulator::insertScheduled(std::uint32_t idx)
{
    ++pending_;
    EventSlot& s = slotAt(idx);
    assert(s.when >= now_);
    if (draining_ && s.when < drainWinEnd_) {
        sortedDrainInsert(idx);
        return;
    }
    wheelInsert(idx);
}

/** Place @p idx into the in-flight batch, keeping positions past
 *  drainPos_ sorted by (when, seq). New events usually carry the
 *  largest seq and land after every entry of the same tick; a resumed
 *  grid step (unparkFromGrid) carries an older rank and may not. */
void
Simulator::sortedDrainInsert(std::uint32_t idx)
{
    const EventSlot& s = slotAt(idx);
    std::size_t j = drain_.size();
    while (j > drainPos_ + 1) {
        const EventSlot& p = slotAt(drain_[j - 1]);
        if (p.when < s.when || (p.when == s.when && p.seq < s.seq))
            break;
        --j;
    }
    drain_.insert(drain_.begin() + static_cast<std::ptrdiff_t>(j),
                  idx);
}

void
Simulator::bucketInsert(Level& level, int slot, std::uint32_t idx)
{
    // LIFO push; the drain sort restores (when, seq) order.
    std::uint32_t& h = level.head[slot];
    if (h == kNil)
        level.mark(slot);
    slotAt(idx).next = h;
    h = idx;
}

void
Simulator::wheelInsert(std::uint32_t idx)
{
    EventSlot& s = slotAt(idx);
    const std::uint64_t x = static_cast<std::uint64_t>(s.when) ^
                            static_cast<std::uint64_t>(elapsed_);
    if (x < (std::uint64_t{1} << kL1Shift)) {
        bucketInsert(level0_, static_cast<int>(
                                  (static_cast<std::uint64_t>(s.when) >>
                                   kSlotShift) &
                                  (kSlots - 1)),
                     idx);
    } else if (x < (std::uint64_t{1} << kHorizonBits)) {
        bucketInsert(level1_, static_cast<int>(
                                  (static_cast<std::uint64_t>(s.when) >>
                                   kL1Shift) &
                                  (kSlots - 1)),
                     idx);
    } else {
        overflowPush(idx);
    }
}

void
Simulator::overflowPush(std::uint32_t idx)
{
    const auto later = [this](std::uint32_t a, std::uint32_t b) {
        const EventSlot& ea = slotAt(a);
        const EventSlot& eb = slotAt(b);
        return ea.when != eb.when ? ea.when > eb.when : ea.seq > eb.seq;
    };
    overflow_.push_back(idx);
    std::push_heap(overflow_.begin(), overflow_.end(), later);
}

std::uint32_t
Simulator::overflowPop()
{
    const auto later = [this](std::uint32_t a, std::uint32_t b) {
        const EventSlot& ea = slotAt(a);
        const EventSlot& eb = slotAt(b);
        return ea.when != eb.when ? ea.when > eb.when : ea.seq > eb.seq;
    };
    std::pop_heap(overflow_.begin(), overflow_.end(), later);
    const std::uint32_t idx = overflow_.back();
    overflow_.pop_back();
    return idx;
}

/**
 * Advance the wheel to the next pending deadline (if <= limit) and
 * pull that level-0 window's events into the drain batch, sorted by
 * (when, seq). Returns false — without advancing the wheel — when
 * nothing is due within the limit.
 *
 * Ordering argument (DESIGN.md §11): level-0 events agree with
 * elapsed_ on bits >= 24 of `when`, so they all precede every level-1
 * event (which differs somewhere in bits [24, 40)) and every overflow
 * event (bits >= 40). Level 0 therefore always holds the global
 * minimum when non-empty, then level 1, then the heap. Within a
 * level, occupied buckets never lie behind the current position
 * (pending deadlines are >= elapsed_ with equal block bits), so a
 * forward bitmap scan finds the earliest bucket.
 */
bool
Simulator::collectNext(Tick limit)
{
    for (;;) {
        // Admit overflow events the wheel can now represent.
        while (!overflow_.empty()) {
            const Tick when = slotAt(overflow_.front()).when;
            const std::uint64_t x =
                static_cast<std::uint64_t>(when) ^
                static_cast<std::uint64_t>(elapsed_);
            if (x >= (std::uint64_t{1} << kHorizonBits))
                break;
            wheelInsert(overflowPop());
        }

        if (!level0_.empty()) {
            const int cur = static_cast<int>(
                (static_cast<std::uint64_t>(elapsed_) >> kSlotShift) &
                (kSlots - 1));
            const int slot = level0_.next(cur);
            assert(slot >= 0);
            // Single pass: collect the bucket while finding its
            // earliest deadline (buckets are tiny: one 256-tick
            // window). Nothing is unlinked yet, so bailing out on
            // minWhen > limit leaves the bucket untouched.
            drain_.clear();
            Tick minWhen = slotAt(level0_.head[slot]).when;
            for (std::uint32_t c = level0_.head[slot]; c != kNil;
                 c = slotAt(c).next) {
                drain_.push_back(c);
                minWhen = std::min(minWhen, slotAt(c).when);
            }
            if (minWhen > limit) {
                drain_.clear();
                return false;
            }
            const Tick base = windowStart(minWhen, kSlotShift);
            if (base > elapsed_)
                elapsed_ = base;
            drainWinEnd_ = base + (Tick{1} << kSlotShift);
            level0_.head[slot] = kNil;
            level0_.clear(slot);
            if (drain_.size() > 1)
                sortDrain();
            return true;
        }

        if (!level1_.empty()) {
            const int cur = static_cast<int>(
                (static_cast<std::uint64_t>(elapsed_) >> kL1Shift) &
                (kSlots - 1));
            const int slot = level1_.next(cur);
            assert(slot >= 0);
            Tick minWhen = slotAt(level1_.head[slot]).when;
            for (std::uint32_t c = level1_.head[slot]; c != kNil;
                 c = slotAt(c).next)
                minWhen = std::min(minWhen, slotAt(c).when);
            // Cascade only once an event within the limit is proven:
            // elapsed_ must never pass a deadline that will not fire.
            if (minWhen > limit)
                return false;
            const Tick base = windowStart(minWhen, kL1Shift);
            if (base > elapsed_)
                elapsed_ = base;
            std::uint32_t cur2 = level1_.head[slot];
            level1_.head[slot] = kNil;
            level1_.clear(slot);
            while (cur2 != kNil) {
                const std::uint32_t nxt = slotAt(cur2).next;
                wheelInsert(cur2); // re-files into level 0
                cur2 = nxt;
            }
            continue;
        }

        if (overflow_.empty())
            return false;
        // Beyond-horizon gap: jump wheel time to the heap top (the
        // global minimum) so the admission loop can file it.
        const Tick when = slotAt(overflow_.front()).when;
        if (when > limit)
            return false;
        elapsed_ = when;
    }
}

/**
 * Sort the collected batch by (when, seq). Buckets are LIFO stacks, so
 * reversing first restores insertion order — for the dominant
 * same-tick burst (ascending seq) that is already sorted and the
 * insertion sort degenerates to one comparison per element. Cascaded
 * buckets can arrive genuinely shuffled; large ones take std::sort.
 */
void
Simulator::sortDrain()
{
    std::reverse(drain_.begin(), drain_.end());
    const auto before = [this](std::uint32_t a, std::uint32_t b) {
        const EventSlot& ea = slotAt(a);
        const EventSlot& eb = slotAt(b);
        return ea.when != eb.when ? ea.when < eb.when : ea.seq < eb.seq;
    };
    if (drain_.size() > 24) {
        std::sort(drain_.begin(), drain_.end(), before);
        return;
    }
    for (std::size_t i = 1; i < drain_.size(); ++i) {
        const std::uint32_t v = drain_[i];
        std::size_t j = i;
        while (j > 0 && before(v, drain_[j - 1])) {
            drain_[j] = drain_[j - 1];
            --j;
        }
        drain_[j] = v;
    }
}

/**
 * Fire the collected batch in (when, seq) order, stopping at @p limit
 * (a level-0 window spans 256 ticks and may straddle a runUntil
 * bound); events past the limit are re-filed into the wheel.
 */
std::uint64_t
Simulator::dispatchBatch(Tick limit)
{
    draining_ = true;
    std::uint64_t fired = 0;
    // drain_ may grow during iteration (same-window nested schedules).
    for (drainPos_ = 0; drainPos_ < drain_.size(); ++drainPos_) {
        const std::uint32_t idx = drain_[drainPos_];
        const Tick when = slotAt(idx).when;
        if (when > limit)
            break;
        now_ = when;
        if (when > elapsed_)
            elapsed_ = when;
        fire(idx);
        ++fired;
    }
    // Push any cut-off tail back into the wheel (it stays pending).
    for (std::size_t j = drainPos_; j < drain_.size(); ++j)
        wheelInsert(drain_[j]);
    drain_.clear();
    draining_ = false;
    return fired;
}

void
Simulator::fire(std::uint32_t idx)
{
    EventSlot& s = slotAt(idx);
    --pending_;
    ++processed_;
    ++domainCount_[s.domain];
    const std::uint8_t prevDomain = currentDomain_;
    currentDomain_ = s.domain;
    const std::uint32_t prevFiring = firing_;
    firing_ = idx;
    curSeq_ = s.seq;
    if (gridTracked_ != 0) [[unlikely]]
        gridLogAppend(s.when, s.seq);

    switch (s.kind & kKindMask) {
    case kResume: {
        const std::coroutine_handle<> h = s.handle;
        // Free before resuming: the coroutine's next delay reuses
        // this very slot — the zero-allocation steady state.
        freeSlot(idx);
        h.resume();
        break;
    }
    case kCallback:
        s.kind &= static_cast<std::uint8_t>(~kPendingBit);
        s.invoke(s.buf);
        freeSlot(idx);
        break;
    case kArmed:
        s.kind &= static_cast<std::uint8_t>(~kPendingBit);
        s.invoke(s.buf);
        break; // slot stays allocated for re-arming
    case kPeriodic:
        s.kind &= static_cast<std::uint8_t>(~kPendingBit);
        s.invoke(s.buf);
        if ((s.kind & kCancelBit) != 0) {
            // The callback cancelled its own cadence.
            freeSlot(idx);
            break;
        }
        // Drift-free: anchor to the scheduled time, not dispatch.
        s.when += s.period;
        s.seq = nextSeq();
        s.kind |= kPendingBit;
        insertScheduled(idx);
        break;
    default:
        assert(false && "firing a free slot");
        break;
    }

    firing_ = prevFiring;
    currentDomain_ = prevDomain;
    curSeq_ = std::numeric_limits<std::uint64_t>::max();
}

void
Simulator::schedule(Tick when, const EventRef& ev)
{
    assert(ev.valid());
    EventSlot& s = slotAt(ev.idx);
    assert(s.gen == ev.gen && "stale EventRef");
    assert((s.kind & kKindMask) == kArmed);
    assert((s.kind & kPendingBit) == 0 &&
           "EventRef already armed; cancel first");
    assert(when >= now_);
    s.when = when;
    s.seq = nextSeq();
    s.kind |= kPendingBit;
    s.kind &= static_cast<std::uint8_t>(~kCancelBit);
    insertScheduled(ev.idx);
}

bool
Simulator::pending(const EventRef& ev) const
{
    if (!ev.valid())
        return false;
    const EventSlot& s = slotAt(ev.idx);
    return s.gen == ev.gen && (s.kind & kPendingBit) != 0;
}

/** Exact removal of a pending slot from whichever structure currently
 *  holds it: the in-flight batch, a wheel bucket, or the overflow
 *  heap. */
bool
Simulator::removePending(std::uint32_t idx)
{
    EventSlot& s = slotAt(idx);
    if (draining_ && s.when < drainWinEnd_) {
        // Same-window pending slots during dispatch always live in
        // the batch (the whole level-0 bucket was collected into it);
        // un-fired entries sit past drainPos_.
        for (std::size_t j = drainPos_ + 1; j < drain_.size(); ++j) {
            if (drain_[j] == idx) {
                drain_.erase(drain_.begin() +
                             static_cast<std::ptrdiff_t>(j));
                --pending_;
                return true;
            }
        }
        return false;
    }
    const std::uint64_t x = static_cast<std::uint64_t>(s.when) ^
                            static_cast<std::uint64_t>(elapsed_);
    Level* level = nullptr;
    int slot = 0;
    if (x < (std::uint64_t{1} << kL1Shift)) {
        level = &level0_;
        slot = static_cast<int>(
            (static_cast<std::uint64_t>(s.when) >> kSlotShift) &
            (kSlots - 1));
    } else if (x < (std::uint64_t{1} << kHorizonBits)) {
        level = &level1_;
        slot = static_cast<int>(
            (static_cast<std::uint64_t>(s.when) >> kL1Shift) &
            (kSlots - 1));
    }
    if (level != nullptr) {
        std::uint32_t cur = level->head[slot];
        std::uint32_t prev = kNil;
        while (cur != kNil) {
            if (cur == idx) {
                const std::uint32_t nxt = slotAt(cur).next;
                if (prev == kNil)
                    level->head[slot] = nxt;
                else
                    slotAt(prev).next = nxt;
                if (level->head[slot] == kNil)
                    level->clear(slot);
                --pending_;
                return true;
            }
            prev = cur;
            cur = slotAt(cur).next;
        }
    }
    // Not in the wheel: it may sit in the overflow heap (including
    // events whose horizon bit cleared but that are not yet admitted).
    for (std::size_t i = 0; i < overflow_.size(); ++i) {
        if (overflow_[i] != idx)
            continue;
        overflow_[i] = overflow_.back();
        overflow_.pop_back();
        std::make_heap(overflow_.begin(), overflow_.end(),
                       [this](std::uint32_t a, std::uint32_t b) {
                           const EventSlot& ea = slotAt(a);
                           const EventSlot& eb = slotAt(b);
                           return ea.when != eb.when
                                      ? ea.when > eb.when
                                      : ea.seq > eb.seq;
                       });
        --pending_;
        return true;
    }
    return false;
}

bool
Simulator::cancel(const EventRef& ev)
{
    if (!ev.valid())
        return false;
    EventSlot& s = slotAt(ev.idx);
    if (s.gen != ev.gen)
        return false;
    const std::uint8_t kind = s.kind & kKindMask;
    if (kind == kPeriodic && firing_ == ev.idx) {
        // Self-cancel from inside the periodic callback: suppress the
        // re-arm in fire(); the slot is freed there.
        s.kind |= kCancelBit;
        return true;
    }
    if ((s.kind & kPendingBit) == 0)
        return false;
    if (!removePending(ev.idx))
        return false;
    s.kind &= static_cast<std::uint8_t>(~kPendingBit);
    if (kind == kPeriodic)
        freeSlot(ev.idx);
    return true;
}

void
Simulator::release(EventRef& ev)
{
    if (ev.valid()) {
        EventSlot& s = slotAt(ev.idx);
        if (s.gen == ev.gen && (s.kind & kKindMask) != kFree) {
            if ((s.kind & kPendingBit) != 0 && removePending(ev.idx))
                s.kind &= static_cast<std::uint8_t>(~kPendingBit);
            freeSlot(ev.idx);
        }
    }
    ev = EventRef{};
}

void
Simulator::runUntil(Tick t)
{
    while (collectNext(t))
        dispatchBatch(t);
    // Clamp: time never rewinds (a t < now_ call used to drag the
    // clock backwards and break the when >= now_ invariant).
    if (t > now_) {
        now_ = t;
        // Every pending event is > t here, so the wheel clock may
        // follow the wall clock without passing any deadline.
        if (t > elapsed_)
            elapsed_ = t;
    }
    endSlice(now_);
}

std::uint64_t
Simulator::run(Tick max_time)
{
    std::uint64_t n = 0;
    while (collectNext(max_time))
        n += dispatchBatch(max_time);
    if (gridLive_ != 0) {
        // Parked pollers never drain: like their stepped chains, they
        // carry the clock to their last grid step within the bound.
        Tick last = now_;
        for (GridMember& m : gridMembers_) {
            if (m.live) {
                last = std::max(
                    last, gridNextStep(m, max_time,
                                       std::numeric_limits<
                                           std::uint64_t>::max()) -
                              gridPeriod_);
            }
        }
        now_ = last;
        elapsed_ = std::max(elapsed_, now_);
        endSlice(now_);
    }
    return n;
}

// ------------------------------------------------------------- poll grid

GridPark
Simulator::parkOnGrid(std::coroutine_handle<> h,
                      detail::PromiseBase* promise, Tick period,
                      void (*settle)(void*), void* ctx)
{
    assert(period > 0);
    assert((gridTracked_ == 0 || period == gridPeriod_) &&
           "parked coroutines must share one grid period");
    gridPeriod_ = period;
    gridRetireStaleGhosts();
    const std::uint32_t phase = gridPhaseAt(now_ % period);
    std::size_t pos = 0;
    const std::uint64_t key = gridPlaceKey(gridPhases_[phase], pos);
    std::uint32_t idx;
    if (!gridFreeMembers_.empty()) {
        idx = gridFreeMembers_.back();
        gridFreeMembers_.pop_back();
    } else {
        idx = static_cast<std::uint32_t>(gridMembers_.size());
        gridMembers_.push_back(GridMember{});
    }
    GridMember& m = gridMembers_[idx];
    m.h = h;
    m.promise = promise;
    m.settle = settle;
    m.ctx = ctx;
    m.parkedAt = now_;
    // The skipped step would have been scheduled right here, so it
    // ranks just below the next real allocation.
    m.anchorWhen = now_ + period;
    m.anchorBase = seq_;
    m.key = key;
    m.phase = phase;
    m.domain = currentDomain_;
    m.live = true;
    std::vector<std::uint32_t>& list = gridPhases_[phase].members;
    list.insert(list.begin() + static_cast<std::ptrdiff_t>(pos), idx);
    if (gridTracked_ == 0) {
        gridLogHead_ = gridLog_.size();
        gridLog_.reserve(kGridTrimEvery);
    }
    ++gridLive_;
    ++gridTracked_;
    return GridPark{idx, m.gen};
}

std::uint64_t
Simulator::gridSteps(const GridPark& p) const
{
    assert(p.valid() && gridMembers_[p.idx].gen == p.gen);
    GridMember& m = gridMembers_[p.idx];
    const Tick next = gridNextStep(m, now_, curSeq_);
    return static_cast<std::uint64_t>((next - m.parkedAt) / gridPeriod_ -
                                      1);
}

std::uint64_t
Simulator::unparkFromGrid(GridPark& p)
{
    assert(p.valid() && gridMembers_[p.idx].gen == p.gen);
    GridMember& m = gridMembers_[p.idx];
    // The first step ranked after this point is the one that finds
    // the wake-up: resume there, at exactly its rank.
    const Tick when = gridNextStep(m, now_, curSeq_);
    GridWalk w(when);
    const std::uint64_t seq = gridSeqOf(m, gridBase(m, when, w));
    const std::uint32_t idx = allocSlot();
    EventSlot& s = slotAt(idx);
    s.when = when;
    s.seq = seq;
    s.period = 0;
    s.handle = m.h;
    s.detached = m.promise != nullptr ? &m.promise->detached : nullptr;
    s.invoke = nullptr;
    s.destroy = nullptr;
    s.kind = kResume | kPendingBit;
    s.domain = m.domain;
    // Keep ranking the resumed step's tick for later arrivals.
    m.live = false;
    m.resumeAt = when;
    m.resumeSlot = idx;
    m.settle = nullptr;
    ++m.gen;
    gridGhosts_.emplace_back(when, p.idx);
    std::push_heap(gridGhosts_.begin(), gridGhosts_.end(),
                   std::greater<>{});
    --gridLive_;
    p = GridPark{};
    insertScheduled(idx);
    return static_cast<std::uint64_t>((when - m.parkedAt) / gridPeriod_ -
                                      1);
}

void
Simulator::clearGridSettle(const GridPark& p)
{
    if (p.valid() && gridMembers_[p.idx].gen == p.gen)
        gridMembers_[p.idx].settle = nullptr;
}

void
Simulator::gridLogAppend(Tick when, std::uint64_t seq)
{
    gridLog_.push_back(GridEntry{when, seq, seq_});
    // Trim whenever the log fills its buffer, so that it grows only
    // while more than the entries a trim keeps are live.
    if (gridLog_.size() == gridLog_.capacity())
        gridTrim();
}

/** Retire ghosts whose tick is over, move every parked member's anchor
 *  up to its phase's last grid tick, and forget older entries. */
void
Simulator::gridTrim()
{
    gridRetireStaleGhosts();
    Tick keep = std::numeric_limits<Tick>::max();
    for (const std::uint32_t phase : gridPhaseIndex_) {
        const GridPhase& ph = gridPhases_[phase];
        // The step at `on` ranks after the one at on - period, which
        // dispatched before this point: its base is in the log.
        const Tick on = now_ - (now_ - ph.offset) % gridPeriod_;
        GridWalk w(on);
        for (const std::uint32_t i : ph.members) {
            GridMember& m = gridMembers_[i];
            // Ghosts rank from their anchors alone: no log needed.
            if (!m.live)
                continue;
            if (m.anchorWhen < on)
                gridBase(m, on, w);
            keep = std::min(keep, m.anchorWhen);
        }
    }
    if (gridTracked_ == 0) {
        gridLog_.clear();
        gridLogHead_ = 0;
        return;
    }
    while (gridLogHead_ < gridLog_.size() &&
           gridLog_[gridLogHead_].when < keep)
        ++gridLogHead_;
    // Nearly every entry is behind the head by now: dropping them
    // leaves room for about a buffer's worth of appends before the
    // next trim.
    if (gridLogHead_ * 2 > gridLog_.size()) {
        gridLog_.erase(gridLog_.begin(),
                       gridLog_.begin() +
                           static_cast<std::ptrdiff_t>(gridLogHead_));
        gridLogHead_ = 0;
    }
}

/** Index of the first live log entry dispatched at or after tick
 *  @p when. Queries almost always concern the last period, so the
 *  search gallops back from the tail before it bisects. */
std::size_t
Simulator::gridLogAt(Tick when) const
{
    std::size_t lo = gridLogHead_;
    std::size_t hi = gridLog_.size();
    for (std::size_t step = 1; hi > lo; step *= 2) {
        const std::size_t probe = hi - std::min(step, hi - lo);
        if (gridLog_[probe].when < when) {
            lo = probe + 1;
            break;
        }
        hi = probe;
    }
    return static_cast<std::size_t>(
        std::lower_bound(
            gridLog_.begin() + static_cast<std::ptrdiff_t>(lo),
            gridLog_.begin() + static_cast<std::ptrdiff_t>(hi), when,
            [](const GridEntry& e, Tick t) { return e.when < t; }) -
        gridLog_.begin());
}

/** The first dispatch ranked after position (@p when, @p seq), found
 *  from index @p at = gridLogAt(@p when). A slice-end marker (seq max)
 *  closes each tick it ends, so entries dispatched at that tick in the
 *  next slice are never reached. */
const Simulator::GridEntry&
Simulator::gridFirstAfter(std::size_t at, Tick when,
                          std::uint64_t seq) const
{
    while (at < gridLog_.size() && gridLog_[at].when == when &&
           gridLog_[at].seq < seq)
        ++at;
    assert(at < gridLog_.size() && "grid step ranked past the log");
    return gridLog_[at];
}

/**
 * Base of @p m's step at grid tick @p tick (>= its anchor). The base
 * of step g is the start of the first dispatch after step g - period.
 * When no dispatch falls exactly on tick g - period, that is simply
 * the first dispatch after the tick, whatever the step's own rank; so
 * only a run of grid ticks carrying same-tick dispatches needs the
 * chained computation, from the last tick without one. That walk
 * back does not depend on the member, so @p w shares it, and the log
 * search that starts the chain, among all members ranked at @p tick
 * in one pass.
 */
std::uint64_t
Simulator::gridBase(GridMember& m, Tick tick, GridWalk& w) const
{
    assert(tick >= m.anchorWhen && w.target == tick);
    if (tick == m.anchorWhen)
        return m.anchorBase;
    while (!w.done && w.low > m.anchorWhen) {
        const Tick prev = w.low - gridPeriod_;
        const std::size_t at = gridLogAt(prev);
        assert(at < gridLog_.size() && "grid step ranked past the log");
        if (gridLog_[at].when == prev) {
            w.low = prev;
            w.lowAt = at;
        } else {
            w.done = true;
            w.lowBase = gridLog_[at].start;
        }
    }
    Tick u = m.anchorWhen;
    std::uint64_t b = m.anchorBase;
    if (w.done && w.low > u) {
        u = w.low;
        b = w.lowBase;
    }
    for (; u < tick; u += gridPeriod_) {
        const std::size_t at = u == w.low ? w.lowAt : gridLogAt(u);
        b = gridFirstAfter(at, u, gridSeqOf(m, b)).start;
    }
    m.anchorWhen = tick;
    m.anchorBase = b;
    return b;
}

/** Whether @p m's step at its grid tick @p on ranks after position
 *  (@p on, @p seq). Steps below the anchor have run (its base is
 *  known because the step before it has); outside dispatch (seq max)
 *  so has every step at the current tick. */
bool
Simulator::gridStepAfter(GridMember& m, Tick on, std::uint64_t seq,
                         GridWalk& w) const
{
    if (on < m.anchorWhen ||
        seq == std::numeric_limits<std::uint64_t>::max())
        return false;
    return gridSeqOf(m, gridBase(m, on, w)) > seq;
}

/** First grid step of @p m ranked after position (@p when, @p seq). */
Tick
Simulator::gridNextStep(GridMember& m, Tick when,
                        std::uint64_t seq) const
{
    const Tick on = m.parkedAt + (when - m.parkedAt) / gridPeriod_ *
                                     gridPeriod_;
    if (on < when)
        return on + gridPeriod_;
    GridWalk w(on);
    return gridStepAfter(m, on, seq, w) ? on : on + gridPeriod_;
}

/** The phase of grid ticks congruent to @p offset, created if new. */
std::uint32_t
Simulator::gridPhaseAt(Tick offset)
{
    const auto it = std::lower_bound(
        gridPhaseIndex_.begin(), gridPhaseIndex_.end(), offset,
        [this](std::uint32_t ph, Tick off) {
            return gridPhases_[ph].offset < off;
        });
    if (it != gridPhaseIndex_.end() && gridPhases_[*it].offset == offset)
        return *it;
    std::uint32_t phase;
    if (!gridFreePhases_.empty()) {
        phase = gridFreePhases_.back();
        gridFreePhases_.pop_back();
    } else {
        phase = static_cast<std::uint32_t>(gridPhases_.size());
        gridPhases_.push_back(GridPhase{});
    }
    gridPhases_[phase].offset = offset;
    gridPhaseIndex_.insert(it, phase);
    return phase;
}

/** Return an empty phase to the pool; its member list keeps its
 *  capacity for the next phase. */
void
Simulator::gridReleasePhase(std::uint32_t phase)
{
    assert(gridPhases_[phase].members.empty());
    const auto it = std::lower_bound(
        gridPhaseIndex_.begin(), gridPhaseIndex_.end(),
        gridPhases_[phase].offset, [this](std::uint32_t ph, Tick off) {
            return gridPhases_[ph].offset < off;
        });
    assert(it != gridPhaseIndex_.end() && *it == phase);
    gridPhaseIndex_.erase(it);
    gridFreePhases_.push_back(phase);
}

/** Retire the ghosts whose tick is over, the only way a ghost leaves
 *  its phase: its resumed step has run and no later arrival ranks
 *  against it. Keeps phases and member slots from piling up. */
void
Simulator::gridRetireStaleGhosts()
{
    while (!gridGhosts_.empty() && gridGhosts_.front().first < now_) {
        std::pop_heap(gridGhosts_.begin(), gridGhosts_.end(),
                      std::greater<>{});
        const std::uint32_t idx = gridGhosts_.back().second;
        gridGhosts_.pop_back();
        const std::uint32_t phase = gridMembers_[idx].phase;
        std::vector<std::uint32_t>& list = gridPhases_[phase].members;
        const auto it = std::lower_bound(
            list.begin(), list.end(), gridMembers_[idx].key,
            [this](std::uint32_t i, std::uint64_t k) {
                return gridMembers_[i].key < k;
            });
        assert(it != list.end() && *it == idx);
        list.erase(it);
        --gridTracked_;
        gridFreeMembers_.push_back(idx);
        if (list.empty())
            gridReleasePhase(phase);
    }
}

/**
 * Order key for a coroutine parking now on @p ph, and its position
 * @p pos in the phase. Members of a phase are kept in true order, so
 * those whose step at this tick ranked before this point come first:
 * the parker slots in after them, found by bisection. A ghost ranks by
 * its resumed event at its own tick; earlier steps all preceded the
 * wake that ended them. Keys are spaced kGridKeyStep apart when
 * appended and halved when inserted; once a gap closes, the phase is
 * renumbered (gridRenumber), which leaves room in every gap.
 */
std::uint64_t
Simulator::gridPlaceKey(GridPhase& ph, std::size_t& pos)
{
    const std::vector<std::uint32_t>& list = ph.members;
    GridWalk w(now_);
    pos = static_cast<std::size_t>(
        std::partition_point(list.begin(), list.end(),
                             [&](std::uint32_t i) {
                                 return !gridStepAfter(gridMembers_[i],
                                                       now_, curSeq_, w);
                             }) -
        list.begin());
    // The key just below insertion point j, that of list[j - 1]; 0 and
    // kGridKeyEnd stand in below and above the list.
    const auto keyBelow = [&](std::size_t j) {
        return j == 0             ? 0
               : j > list.size() ? kGridKeyEnd
                                  : gridMembers_[list[j - 1]].key;
    };
    if (keyBelow(pos + 1) - keyBelow(pos) < 2)
        gridRenumber(ph);
    const std::uint64_t kl = keyBelow(pos);
    const std::uint64_t kh = keyBelow(pos + 1);
    assert(kh - kl >= 2 && "a renumbered phase has room in every gap");
    const std::uint64_t step = std::min(kGridKeyStep, (kh - kl) / 2);
    return kh == kGridKeyEnd ? kl + step
           : kl == 0         ? kh - step
                             : kl + (kh - kl) / 2;
}

/**
 * Spread the keys of every member of @p ph, ghosts included, evenly
 * over (0, kGridKeyEnd). Each parked member's base is first pinned at
 * its next step, so no rank is ever recomputed at a tick where the old
 * keys ordered it. A ghost's key is also part of its resumed step's
 * seq, and every stored copy moves with it: the seq of the pending
 * resume event, or, once that dispatched at this tick, its log entry
 * and curSeq_ if it is the dispatch in progress. Each key stays in its
 * seq gap and keeps its order there, so the wheel and the in-flight
 * batch stay sorted. Only called while parking on @p ph, so the
 * current tick is one of its grid ticks; no other phase has steps at
 * it.
 */
void
Simulator::gridRenumber(GridPhase& ph)
{
    const std::vector<std::uint32_t>& list = ph.members;
    GridWalk now(now_);
    GridWalk next(now_ + gridPeriod_);
    for (const std::uint32_t i : list) {
        GridMember& x = gridMembers_[i];
        if (x.live && !gridStepAfter(x, now_, curSeq_, now))
            gridBase(x, now_ + gridPeriod_, next);
    }
    // Ghosts that dispatched at this tick did so in true order, which
    // is list order, each with its own entry: one forward pass over the
    // log finds them all. Every ghost is classed by the old seqs.
    const std::uint64_t cur = curSeq_;
    std::size_t at = gridLogAt(now_);
    const std::uint64_t n = list.size();
    for (std::size_t j = 0; j < n; ++j) {
        GridMember& x = gridMembers_[list[j]];
        const std::uint64_t was = gridSeqOf(x, x.anchorBase);
        x.key = kGridKeyEnd * (j + 1) / (n + 1);
        if (x.live)
            continue;
        const std::uint64_t seq = gridSeqOf(x, x.anchorBase);
        if (x.resumeAt > now_ || was > cur) {
            EventSlot& s = slotAt(x.resumeSlot);
            assert((s.kind & kPendingBit) != 0 && s.seq == was);
            s.seq = seq;
            continue;
        }
        if (was == cur)
            curSeq_ = seq;
        while (at < gridLog_.size() && gridLog_[at].seq != was)
            ++at;
        // Trimmed away when no member ranks from this tick any more.
        if (at < gridLog_.size())
            gridLog_[at++].seq = seq;
    }
}

/** Close a runUntil/run slice at @p t: code between slices may
 *  schedule, so mark the log (every step up to tick t ranks before
 *  it), then let owners settle skipped steps for outside reads. */
void
Simulator::endSlice(Tick t)
{
    if (gridTracked_ == 0)
        return;
    gridLogAppend(t, std::numeric_limits<std::uint64_t>::max());
    for (const GridMember& m : gridMembers_) {
        if (m.live && m.settle != nullptr)
            m.settle(m.ctx);
    }
}

} // namespace octo::sim
