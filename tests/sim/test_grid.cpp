/**
 * @file
 * Poll-grid parking (Simulator::parkOnGrid): a parked coroutine's
 * skipped steps and its resume must rank exactly as the stepped
 * `delay(period)` chain they replace. Each test runs the same scenario
 * with a hand-written stepped chain as the reference.
 */

#include <coroutine>
#include <cstdint>
#include <functional>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "sim/simulator.hpp"
#include "sim/task.hpp"

namespace octo::sim {
namespace {

constexpr Tick kP = 25'000;

/** Parks the awaiting Task on the grid, which never refuses. */
struct ParkOnGrid
{
    Simulator& sim;
    GridPark* park;

    bool await_ready() const noexcept { return false; }

    template <typename P>
    void
    await_suspend(std::coroutine_handle<P> h)
    {
        *park = sim.parkOnGrid(h, &h.promise(), kP, nullptr, nullptr);
        EXPECT_TRUE(park->valid());
    }

    void await_resume() const noexcept {}
};

/** Events at grid instant @p g around a poller that discovers a flag
 *  set at that instant: @p parked selects parking over stepping. */
std::vector<std::string>
orderAtGridInstant(bool parked, Tick g)
{
    Simulator sim;
    std::vector<std::string> log;
    bool flag = false;
    GridPark park;
    auto poller = [&]() -> Task<> {
        co_await delay(sim, kP);
        if (parked) {
            co_await ParkOnGrid{sim, &park};
        } else {
            while (!flag)
                co_await delay(sim, kP);
        }
        log.push_back("poller@" + std::to_string(sim.now()));
    };
    Task<> t = poller();
    // Scheduled before the poll at g was (it is inserted at g - kP):
    sim.schedule(g, [&] {
        log.push_back("wake");
        flag = true;
        if (parked)
            sim.unparkFromGrid(park);
    });
    sim.schedule(g, [&] { log.push_back("early"); });
    // Scheduled after it: ranks behind the poll at g.
    sim.schedule(g - kP / 2,
                 [&] { sim.schedule(g, [&] { log.push_back("late"); }); });
    sim.runUntil(g + 4 * kP);
    EXPECT_TRUE(t.done());
    return log;
}

TEST(GridPark, ResumeRanksLikeTheSteppedChain)
{
    const Tick g = 40 * kP;
    const std::vector<std::string> stepped = orderAtGridInstant(false, g);
    ASSERT_EQ(stepped, (std::vector<std::string>{
                           "wake", "early", "poller@" + std::to_string(g),
                           "late"}));
    // The resumed step lands inside the batch already in flight, below
    // "late", which carries a larger seq.
    EXPECT_EQ(orderAtGridInstant(true, g), stepped);
}

/** @p n pollers on one grid phase, all woken at the same instants
 *  for @p cycles rounds; returns (poller, tick) in discovery order. */
std::vector<std::pair<int, Tick>>
phaseCycles(bool parked, int n, int cycles)
{
    Simulator sim;
    std::vector<std::pair<int, Tick>> log;
    std::vector<char> flag(static_cast<std::size_t>(n), 0);
    std::vector<GridPark> parks(static_cast<std::size_t>(n));
    auto poller = [&](int i) -> Task<> {
        for (;;) {
            co_await delay(sim, kP);
            if (parked) {
                co_await ParkOnGrid{sim, &parks[static_cast<std::size_t>(i)]};
            } else {
                while (!flag[static_cast<std::size_t>(i)])
                    co_await delay(sim, kP);
            }
            flag[static_cast<std::size_t>(i)] = 0;
            log.emplace_back(i, sim.now());
        }
    };
    std::vector<Task<>> tasks;
    for (int i = 0; i < n; ++i)
        tasks.push_back(poller(i));
    for (int c = 0; c < cycles; ++c) {
        sim.schedule((10 + 3 * c) * kP, [&] {
            // Wake in a scrambled order: the resumes must still rank
            // in the pollers' own order.
            for (int j = 0; j < n; ++j) {
                const int i = (j * 17 + 5) % n;
                flag[static_cast<std::size_t>(i)] = 1;
                if (parked && parks[static_cast<std::size_t>(i)].valid())
                    sim.unparkFromGrid(parks[static_cast<std::size_t>(i)]);
            }
        });
    }
    sim.runUntil((10 + 3 * cycles) * kP);
    return log;
}

TEST(GridPark, ManySamePhaseParkersKeepTheirOrderAcrossCycles)
{
    // Forty pollers re-park on one phase every cycle: far more appends
    // than the order-key gaps hold, so the phase is renumbered often.
    const auto stepped = phaseCycles(false, 40, 120);
    ASSERT_EQ(stepped.size(), 40u * 120u);
    EXPECT_EQ(phaseCycles(true, 40, 120), stepped);
}

TEST(GridPark, StepsCountAndRunCarriesTheClock)
{
    Simulator sim;
    GridPark park;
    auto poller = [&]() -> Task<> {
        co_await delay(sim, kP);
        co_await ParkOnGrid{sim, &park};
    };
    Task<> t = poller();
    sim.runUntil(kP);
    EXPECT_EQ(sim.gridSteps(park), 0u);
    sim.runUntil(10 * kP);
    EXPECT_EQ(sim.gridSteps(park), 9u) << "steps at 2kP..10kP";
    sim.runUntil(10 * kP + 1);
    EXPECT_EQ(sim.gridSteps(park), 9u);
    EXPECT_FALSE(sim.idle());
    // A stepped chain keeps the queue busy until the bound; so does a
    // parked one, and the clock ends on its last step.
    sim.run(20 * kP + 7);
    EXPECT_EQ(sim.now(), 20 * kP);
    EXPECT_EQ(sim.gridSteps(park), 19u);
    // A bound on the grid itself: the queue is empty, so nothing ranks
    // after the step at 30kP, which still counts.
    sim.run(30 * kP);
    EXPECT_EQ(sim.now(), 30 * kP);
    EXPECT_EQ(sim.gridSteps(park), 29u);
    sim.unparkFromGrid(park);
    sim.run(100 * kP);
    EXPECT_TRUE(t.done());
    EXPECT_EQ(sim.now(), 31 * kP);
    EXPECT_TRUE(sim.idle());
}

/** splitmix64 finalizer over (a, b): randomness that does not depend
 *  on the order in which the simulation asks for it. */
std::uint64_t
mix(std::uint64_t a, std::uint64_t b)
{
    std::uint64_t z = a * 0x9E3779B97F4A7C15ull + b + 0x632BE59BD9B4E019ull;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
}

/**
 * @p k pollers spread over @p phases grid phases (offsets kP/3 apart),
 * woken through flags that random events set. Events chain into
 * same-tick bursts, land exactly on grid ticks or fall anywhere; the
 * run is cut into runUntil slices at random ticks, between which more
 * events are scheduled and more pollers woken from outside dispatch.
 * A woken poller works for kP plus a random multiple of kP/3 before it
 * polls again, so it changes phase. @p parked parks idle pollers;
 * otherwise they step.
 */
class RandomGrid
{
  public:
    using Entry = std::tuple<char, int, Tick>;

    RandomGrid(bool parked, int k, int phases, std::uint64_t seed)
        : parked_(parked), k_(k), phases_(phases), seed_(seed),
          flag_(static_cast<std::size_t>(k), 0),
          parks_(static_cast<std::size_t>(k)),
          steps_(static_cast<std::size_t>(k), 0)
    {
    }

    void
    run()
    {
        for (int i = 0; i < k_; ++i)
            tasks_.push_back(poller(i));
        constexpr int kRoots = 240;
        constexpr Tick kHorizon = 600 * kP;
        for (int id = 0; id < kRoots; ++id) {
            const std::uint64_t r = mix(seed_, 1000 + id);
            Tick t = kP + static_cast<Tick>(r % kHorizon);
            if ((r >> 40) % 3 == 0)
                t = gridTick(t, static_cast<int>((r >> 44) % 3));
            sim_.schedule(t, [this, id] { event(id, 0); });
        }
        Tick t = 0;
        for (int slice = 0; t < kHorizon + 10 * kP; ++slice) {
            const std::uint64_t r = mix(seed_, 5000 + slice);
            t += 1 + static_cast<Tick>(r % (40 * kP));
            if ((r >> 40) % 4 == 0)
                t = gridTick(t, static_cast<int>((r >> 44) % 3));
            sim_.runUntil(t);
            for (int i = 0; i < k_; ++i)
                steps.push_back(stepsOf(i));
            if ((r >> 48) % 2 == 0)
                wake(static_cast<int>((r >> 52) % static_cast<unsigned>(k_)));
            const int id = 100000 + slice;
            sim_.schedule(t + static_cast<Tick>((r >> 20) % (3 * kP)),
                          [this, id] { event(id, 0); });
        }
        events = sim_.eventsProcessed();
    }

    std::vector<Entry> log;
    std::vector<std::uint64_t> steps; ///< Per poller, at every slice end.
    std::uint64_t events = 0;

  private:
    /** First tick >= @p t on grid phase @p j. */
    static Tick
    gridTick(Tick t, int j)
    {
        const Tick off = j * (kP / 3);
        return t + ((off - t) % kP + kP) % kP;
    }

    std::uint64_t
    stepsOf(int i) const
    {
        const GridPark& p = parks_[static_cast<std::size_t>(i)];
        return steps_[static_cast<std::size_t>(i)] +
               (parked_ && p.valid() ? sim_.gridSteps(p) : 0);
    }

    void
    wake(int i)
    {
        const auto u = static_cast<std::size_t>(i);
        flag_[u] = 1;
        if (parked_ && parks_[u].valid())
            steps_[u] += sim_.unparkFromGrid(parks_[u]);
    }

    void
    event(int id, int hop)
    {
        log.emplace_back('e', id * 8 + hop, sim_.now());
        const std::uint64_t r = mix(seed_, static_cast<std::uint64_t>(id) * 8 + hop);
        if (r % 2 == 0)
            wake(static_cast<int>((r >> 8) % static_cast<unsigned>(k_)));
        if (hop >= static_cast<int>((r >> 16) % 5))
            return;
        const Tick now = sim_.now();
        switch ((r >> 24) % 4) {
        case 0: // same-tick burst
            sim_.schedule(now, [this, id, hop] { event(id, hop + 1); });
            sim_.schedule(now, [this, id, hop] { event(id, hop + 2); });
            break;
        case 1: // exactly on a grid tick
            sim_.schedule(gridTick(now + 1 + static_cast<Tick>((r >> 32) % (2 * kP)),
                                   static_cast<int>((r >> 56) % 3)),
                          [this, id, hop] { event(id, hop + 1); });
            break;
        default:
            sim_.schedule(now + static_cast<Tick>((r >> 32) % (3 * kP)),
                          [this, id, hop] { event(id, hop + 1); });
            break;
        }
    }

    Task<>
    poller(int i)
    {
        const auto u = static_cast<std::size_t>(i);
        co_await delay(sim_, kP + (i % phases_) * (kP / 3));
        for (std::uint64_t cycle = 0;; ++cycle) {
            while (!flag_[u]) {
                if (parked_) {
                    co_await ParkOnGrid{sim_, &parks_[u]};
                    ++steps_[u]; // the resumed step found the flag
                    continue;
                }
                co_await delay(sim_, kP);
                ++steps_[u];
            }
            flag_[u] = 0;
            log.emplace_back('p', i, sim_.now());
            const std::uint64_t r = mix(seed_ ^ 0xABCDull, u * 4096 + cycle);
            co_await delay(sim_, kP + static_cast<Tick>(
                                          r % static_cast<unsigned>(phases_)) *
                                          (kP / 3));
        }
    }

    Simulator sim_;
    bool parked_;
    int k_;
    int phases_;
    std::uint64_t seed_;
    std::vector<char> flag_;
    std::vector<GridPark> parks_;
    std::vector<std::uint64_t> steps_;
    std::vector<Task<>> tasks_;
};

TEST(GridPark, RandomizedMatchesSteppedChain)
{
    for (const int k : {1, 8, 48}) {
        for (std::uint64_t seed = 1; seed <= 6; ++seed) {
            SCOPED_TRACE("k=" + std::to_string(k) +
                         " seed=" + std::to_string(seed));
            const int phases = 2 + static_cast<int>(seed % 2);
            RandomGrid stepped(false, k, phases, seed);
            stepped.run();
            RandomGrid parked(true, k, phases, seed);
            parked.run();
            ASSERT_GT(stepped.log.size(), 500u);
            EXPECT_LT(parked.events, stepped.events);
            EXPECT_EQ(parked.log, stepped.log);
            EXPECT_EQ(parked.steps, stepped.steps);
        }
    }
}

/**
 * Pollers on one grid phase (ticks k * kP), each polling its own flag.
 * Poller i steps `first` times, then polls until its flag is set,
 * parking on the grid when parked and stepping otherwise. It logs its
 * discovery (poller, tick) and runs onFind[i], if set, in the same
 * dispatch; if then[i] names another poller, it waits one more period
 * and wakes that one.
 */
class FlagPollers
{
  public:
    FlagPollers(bool parked, int n)
        : onFind(static_cast<std::size_t>(n)),
          then(static_cast<std::size_t>(n), -1), parked_(parked),
          flag_(static_cast<std::size_t>(n), 0),
          parks_(static_cast<std::size_t>(n))
    {
    }

    void add(int i, int first) { tasks_.push_back(poller(i, first)); }

    /** Set poller @p i's flag, resuming it if it is parked. */
    void
    wake(int i)
    {
        const auto u = static_cast<std::size_t>(i);
        flag_[u] = 1;
        if (parks_[u].valid())
            sim_.unparkFromGrid(parks_[u]);
    }

    /** At @p t, set the flag of each poller in @p wake and resume each
     *  parked one in @p nudge without setting its flag. */
    void
    at(Tick t, std::vector<int> wake, std::vector<int> nudge = {})
    {
        sim_.schedule(t, [this, wake, nudge] {
            for (const int i : wake)
                this->wake(i);
            for (const int i : nudge) {
                if (parked_)
                    sim_.unparkFromGrid(parks_[static_cast<std::size_t>(i)]);
            }
        });
    }

    /** Wakes every poller at @p end - 5kP + kP/2, runs to @p end and
     *  returns the discoveries in order. */
    std::vector<std::pair<int, Tick>>
    run(Tick end)
    {
        sim_.schedule(end - 5 * kP + kP / 2, [this] {
            for (std::size_t i = 0; i < flag_.size(); ++i)
                wake(static_cast<int>(i));
        });
        sim_.runUntil(end);
        for (const Task<>& t : tasks_)
            EXPECT_TRUE(t.done());
        return log_;
    }

    std::vector<std::function<void()>> onFind;
    std::vector<int> then;

  private:
    Task<>
    poller(int i, int first)
    {
        const auto u = static_cast<std::size_t>(i);
        for (int k = 0; k < first; ++k)
            co_await delay(sim_, kP);
        while (!flag_[u]) {
            if (parked_)
                co_await ParkOnGrid{sim_, &parks_[u]};
            else
                co_await delay(sim_, kP);
        }
        log_.emplace_back(i, sim_.now());
        if (onFind[u])
            onFind[u]();
        if (then[u] >= 0) {
            co_await delay(sim_, kP);
            wake(then[u]);
        }
    }

    Simulator sim_;
    bool parked_;
    std::vector<char> flag_;
    std::vector<GridPark> parks_;
    std::vector<std::pair<int, Tick>> log_;
    std::vector<Task<>> tasks_;
};

/**
 * The wedge: pollers 0 and 2..11 with adjacent order keys, and poller
 * 1 due between them at 20kP. Poller 0 parks first (key 1024) and
 * poller 12 after it (2048); pollers 11, 10, ..., 2 — true order
 * 2 < 3 < ... < 11 — each park just after poller 0, halving the gap
 * down to 1025 for poller 2 and 1026 for poller 3. Poller 1, stepping
 * from t = 0, ranks between pollers 0 and 2 at every tick and reaches
 * the grid at 20kP, where that gap is closed.
 */
void
addWedge(FlagPollers& f)
{
    f.add(0, 1);
    f.add(1, 20);
    for (int i = 2; i < 12; ++i)
        f.add(i, 14 - i);
    f.add(12, 2);
}

/** Pollers 0 and 2 resume at 20kP, where poller 1 parks after poller
 *  0's resume and before poller 2's: the renumber that makes room
 *  moves poller 2's pending resume event and poller 0's logged
 *  dispatch with their keys. */
std::vector<std::pair<int, Tick>>
wedgedPark(bool parked)
{
    FlagPollers f(parked, 13);
    addWedge(f);
    f.at(20 * kP - kP / 2, {0, 2});
    return f.run(40 * kP);
}

TEST(GridPark, WedgedParkParksLikeTheChain)
{
    const auto stepped = wedgedPark(false);
    ASSERT_EQ(stepped.size(), 13u);
    EXPECT_EQ(stepped[0], (std::pair<int, Tick>{0, 20 * kP}));
    EXPECT_EQ(stepped[1], (std::pair<int, Tick>{2, 20 * kP}));
    EXPECT_EQ(wedgedPark(true), stepped);
}

/**
 * The wedge's keys without poller 1, so that no park renumbers them
 * before 20kP. Poller 2 (key 1025) resumes at 20kP, and its resume
 * starts poller 13, which parks at once between it and poller 3
 * (1026), whose resume is next: the renumber that makes room lifts
 * poller 2's key, now the seq of the dispatch in progress, above
 * poller 3's old one. Poller 3's resume is still pending all the same;
 * unless its event moves with its key, poller 3 re-parks, inside that
 * resume, ahead of poller 13, and the final wake finds it first.
 */
std::vector<std::pair<int, Tick>>
parkAheadOfPendingGhost(bool parked)
{
    FlagPollers f(parked, 14);
    f.add(0, 1);
    for (int i = 2; i < 12; ++i)
        f.add(i, 14 - i);
    f.add(12, 2);
    f.onFind[2] = [&f] { f.add(13, 0); };
    f.at(20 * kP - kP / 2, {2}, {3});
    return f.run(40 * kP);
}

TEST(GridPark, ParkAheadOfAPendingGhostMovesItsResume)
{
    const auto stepped = parkAheadOfPendingGhost(false);
    ASSERT_EQ(stepped.size(), 13u);
    EXPECT_EQ(stepped[0], (std::pair<int, Tick>{2, 20 * kP}));
    EXPECT_EQ(parkAheadOfPendingGhost(true), stepped);
}

/**
 * Poller 3 resumes at 20kP after poller 1's park, and a period later
 * wakes poller 2, which shares its base and precedes it. The renumber
 * at poller 1's park lifts poller 2's key (1025) above poller 3's old
 * one (1026): unless poller 3's pending resume event moves with its
 * key, poller 2's step at 20kP ranks after that resume, and the wake
 * at 21kP finds poller 2 one period early.
 */
std::vector<std::pair<int, Tick>>
pendingResumeMoves(bool parked)
{
    FlagPollers f(parked, 13);
    addWedge(f);
    f.then[3] = 2;
    f.at(20 * kP - kP / 2, {3});
    return f.run(40 * kP);
}

TEST(GridPark, PendingResumeMovesWithItsKey)
{
    const auto stepped = pendingResumeMoves(false);
    ASSERT_EQ(stepped.size(), 13u);
    EXPECT_EQ(stepped[0], (std::pair<int, Tick>{3, 20 * kP}));
    EXPECT_EQ(stepped[1], (std::pair<int, Tick>{2, 22 * kP}));
    EXPECT_EQ(pendingResumeMoves(true), stepped);
}

/**
 * The tail: pollers 0..72 park on one phase, poller i after i + 1
 * steps, each after all the others, and all share one base from 74kP
 * on. Appends step the keys by 1024, then halve the gap to
 * kGridKeyEnd: pollers 70, 71 and 72 get keys 65531, 65533 and 65534.
 * Poller 73, stepping from t = 0, reaches the grid at 74kP after all
 * of them.
 */
void
addTail(FlagPollers& f)
{
    for (int i = 0; i < 74; ++i)
        f.add(i, i + 1);
}

/** Poller 72 resumes at 74kP, before poller 73 parks: no key is left
 *  above 65534 until the whole phase, the dispatched resume
 *  included, is renumbered. */
std::vector<std::pair<int, Tick>>
firedGhostAtLastKey(bool parked)
{
    FlagPollers f(parked, 74);
    addTail(f);
    f.at(74 * kP - kP / 2, {72});
    return f.run(84 * kP);
}

TEST(GridPark, FiredGhostAtTheLastKeyMakesRoom)
{
    const auto stepped = firedGhostAtLastKey(false);
    ASSERT_EQ(stepped.size(), 74u);
    EXPECT_EQ(stepped[0], (std::pair<int, Tick>{72, 74 * kP}));
    EXPECT_EQ(firedGhostAtLastKey(true), stepped);
}

/** Poller 72 is resumed without its flag and parks again inside its
 *  own resume dispatch, right after its resumed self: the renumber
 *  also moves the seq of the dispatch in progress. */
std::vector<std::pair<int, Tick>>
reparkInsideResume(bool parked)
{
    FlagPollers f(parked, 74);
    addTail(f);
    f.at(74 * kP - kP / 2, {}, {72});
    return f.run(84 * kP);
}

TEST(GridPark, ReparkInsideItsOwnResumeMakesRoom)
{
    const auto stepped = reparkInsideResume(false);
    ASSERT_EQ(stepped.size(), 74u);
    EXPECT_EQ(reparkInsideResume(true), stepped);
}

/**
 * Poller 70 resumes at 74kP and a period later wakes poller 72;
 * poller 71, resumed without its flag right after it, parks again
 * between its resumed self (65533) and poller 72 (65534). The renumber
 * drops poller 72's key below poller 70's old one (65531): unless the
 * log entry of poller 70's dispatched resume moves with its key,
 * poller 72's base at 75kP is taken from that resume, its step at 75kP
 * ranks before the wake, and it is found a period late.
 */
std::vector<std::pair<int, Tick>>
dispatchedResumeMoves(bool parked)
{
    FlagPollers f(parked, 74);
    addTail(f);
    f.then[70] = 72;
    f.at(74 * kP - kP / 2, {70}, {71});
    return f.run(84 * kP);
}

TEST(GridPark, DispatchedResumeMovesWithItsKey)
{
    const auto stepped = dispatchedResumeMoves(false);
    ASSERT_EQ(stepped.size(), 74u);
    EXPECT_EQ(stepped[0], (std::pair<int, Tick>{70, 74 * kP}));
    EXPECT_EQ(stepped[1], (std::pair<int, Tick>{72, 75 * kP}));
    EXPECT_EQ(dispatchedResumeMoves(true), stepped);
}

/**
 * Poller 71 resumes at 74kP and, in that dispatch, starts poller 74,
 * which parks at once between it (65533) and poller 72 (65534), and
 * then wakes poller 72, which is due after it at 74kP. The renumber
 * drops poller 72's key below poller 71's old one: unless the seq of
 * the dispatch in progress moves with poller 71's key, the wake takes
 * poller 72's step at 74kP for past and finds it a period late.
 */
std::vector<std::pair<int, Tick>>
dispatchInProgressMoves(bool parked)
{
    FlagPollers f(parked, 75);
    addTail(f);
    f.onFind[71] = [&f] {
        f.add(74, 0);
        f.wake(72);
    };
    f.at(74 * kP - kP / 2, {71});
    return f.run(84 * kP);
}

TEST(GridPark, DispatchInProgressMovesWithItsKey)
{
    const auto stepped = dispatchInProgressMoves(false);
    ASSERT_EQ(stepped.size(), 75u);
    EXPECT_EQ(stepped[0], (std::pair<int, Tick>{71, 74 * kP}));
    EXPECT_EQ(stepped[1], (std::pair<int, Tick>{72, 74 * kP}));
    EXPECT_EQ(dispatchInProgressMoves(true), stepped);
}

} // namespace
} // namespace octo::sim
