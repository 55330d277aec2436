/**
 * @file
 * Poll-grid parking (Simulator::parkOnGrid): a parked coroutine's
 * skipped steps and its resume must rank exactly as the stepped
 * `delay(period)` chain they replace. Each test runs the same scenario
 * with a hand-written stepped chain as the reference.
 */

#include <coroutine>
#include <cstdint>
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

struct ParkOnGrid
{
    Simulator& sim;
    GridPark* park;

    bool await_ready() const noexcept { return false; }

    void
    await_suspend(std::coroutine_handle<> h)
    {
        *park = sim.parkOnGrid(h, nullptr, kP, nullptr, nullptr);
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

/** Parks the awaiting Task like ParkOnGrid, but yields false without
 *  suspending when the grid refuses, as PollPort's Park does. */
struct ParkOrStep
{
    Simulator& sim;
    GridPark* park;
    bool parked = false;

    bool await_ready() const noexcept { return false; }

    template <typename P>
    bool
    await_suspend(std::coroutine_handle<P> h)
    {
        *park = sim.parkOnGrid(h, &h.promise(), kP, nullptr, nullptr);
        parked = park->valid();
        return parked;
    }

    bool await_resume() const noexcept { return parked; }
};

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
 * polls again, so it changes phase. @p parked parks idle pollers
 * (stepping once whenever the grid refuses); otherwise they step.
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
                if (parked_ && co_await ParkOrStep{sim_, &parks_[u]}) {
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
 * Builds the one configuration the grid refuses: a poller that must
 * rank between two resumed same-phase pollers whose order keys are
 * adjacent. Poller 0 parks first (key 1024) and poller 12 after it
 * (2048); pollers 11, 10, ..., 2 — true order 2 < 3 < ... < 11 — each
 * park just after poller 0, halving the gap down to 1025 for poller
 * 2. Pollers 0 and 2 are then woken; poller 1, whose true place is
 * between them, reaches the grid at their resume tick. Their keys
 * are fixed by their pending resumes, so not even a renumber makes
 * room: the park is refused and poller 1 steps instead. Returns each
 * poller's discovery (poller, tick) in order; @p refusals counts the
 * refused parks.
 */
std::vector<std::pair<int, Tick>>
wedgedPark(bool parked, int* refusals)
{
    constexpr int kN = 13;
    constexpr Tick kResume = 20 * kP;
    Simulator sim;
    std::vector<std::pair<int, Tick>> log;
    std::vector<char> flag(kN, 0);
    std::vector<GridPark> parks(kN);
    auto poller = [&](int i, int first) -> Task<> {
        const auto u = static_cast<std::size_t>(i);
        for (int k = 0; k < first; ++k)
            co_await delay(sim, kP);
        while (!flag[u]) {
            if (parked) {
                if (co_await ParkOrStep{sim, &parks[u]})
                    continue;
                ++*refusals;
            }
            co_await delay(sim, kP);
        }
        log.emplace_back(i, sim.now());
    };
    auto wake = [&](int i) {
        const auto u = static_cast<std::size_t>(i);
        flag[u] = 1;
        if (parked && parks[u].valid())
            sim.unparkFromGrid(parks[u]);
    };
    std::vector<Task<>> tasks;
    tasks.push_back(poller(0, 1));
    tasks.push_back(poller(1, static_cast<int>(kResume / kP)));
    for (int i = 2; i < 12; ++i)
        tasks.push_back(poller(i, 14 - i));
    tasks.push_back(poller(12, 2));
    sim.schedule(kResume - kP / 2, [&] {
        wake(0);
        wake(2);
    });
    sim.schedule(kResume + 10 * kP + kP / 2, [&] {
        for (int i = 0; i < kN; ++i)
            wake(i);
    });
    sim.runUntil(kResume + 20 * kP);
    for (const Task<>& t : tasks)
        EXPECT_TRUE(t.done());
    return log;
}

TEST(GridPark, WedgedParkIsRefusedAndStepsLikeTheChain)
{
    int refusals = 0;
    const auto stepped = wedgedPark(false, &refusals);
    ASSERT_EQ(stepped.size(), 13u);
    EXPECT_EQ(stepped[0], (std::pair<int, Tick>{0, 20 * kP}));
    EXPECT_EQ(stepped[1], (std::pair<int, Tick>{2, 20 * kP}));
    EXPECT_EQ(wedgedPark(true, &refusals), stepped);
    // Refused once at the resume tick; a period later both resumed
    // pollers are past, and poller 1 parks.
    EXPECT_EQ(refusals, 1);
}

} // namespace
} // namespace octo::sim
