/**
 * @file
 * Poll-grid parking (Simulator::parkOnGrid): a parked coroutine's
 * skipped steps and its resume must rank exactly as the stepped
 * `delay(period)` chain they replace. Each test runs the same scenario
 * with a hand-written stepped chain as the reference.
 */

#include <coroutine>
#include <string>
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

} // namespace
} // namespace octo::sim
