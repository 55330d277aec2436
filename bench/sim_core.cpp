/**
 * @file
 * Event-core microbenchmark: raw schedule/dispatch throughput of the
 * timer-wheel simulator, isolated from any model code.
 *
 * Scenarios:
 *  - hot_window:    zero/near-delay chains (the softirq/DMA shape) —
 *                   events land in the level-0 window being drained.
 *  - short_delays:  exponential-ish ns..us delays, all level 0.
 *  - mixed_horizon: delays spanning level 0, level 1, and the
 *                   overflow heap, exercising cascade and admission.
 *  - periodic:      many schedulePeriodic cadences firing together.
 *  - coroutine:     delay-loop resume path through pooled frames.
 *  - grid_park:     idle pollers parked on the poll grid while real
 *                   traffic runs, with a steady trickle of wakes and
 *                   re-parks (Simulator::parkOnGrid).
 *
 * Each benchmark reports events/sec ("ev_per_s"); the CI floor check
 * (tools/check_sim_core.py) pins a minimum on the hot paths so an
 * event-core regression fails the build rather than landing silently.
 */
#include <benchmark/benchmark.h>

#include <coroutine>
#include <cstdint>
#include <vector>

#include "sim/simulator.hpp"
#include "sim/task.hpp"
#include "sim/time.hpp"

namespace {

using octo::sim::EventRef;
using octo::sim::GridPark;
using octo::sim::Simulator;
using octo::sim::Task;
using octo::sim::Tick;

/** xorshift: cheap deterministic delay sequence (no <random> cost). */
struct Rng
{
    std::uint64_t s = 0x9E3779B97F4A7C15ull;
    std::uint64_t
    next()
    {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        return s;
    }
};

void
reportEvents(benchmark::State& state, std::uint64_t total_events)
{
    state.counters["ev_per_s"] = benchmark::Counter(
        static_cast<double>(total_events),
        benchmark::Counter::kIsRate);
}

/** Self-rescheduling callback chains with tiny delays: the dispatch
 *  fast path (sorted-drain insert, no wheel traffic). */
void
BM_HotWindow(benchmark::State& state)
{
    const int chains = static_cast<int>(state.range(0));
    constexpr std::uint64_t kEventsPerIter = 200000;
    std::uint64_t total = 0;
    for (auto _ : state) {
        Simulator sim;
        std::uint64_t left = kEventsPerIter;
        struct Chain
        {
            Simulator& sim;
            std::uint64_t& left;
            Tick d;
            void
            operator()() const
            {
                if (left == 0)
                    return;
                --left;
                sim.scheduleIn(d, *this);
            }
        };
        for (int c = 0; c < chains; ++c)
            sim.scheduleIn(c, Chain{sim, left, static_cast<Tick>(c % 3)});
        sim.run();
        total += sim.eventsProcessed();
    }
    reportEvents(state, total);
}
BENCHMARK(BM_HotWindow)->Arg(1)->Arg(16);

/** Short random delays: level-0 filings across many slots. */
void
BM_ShortDelays(benchmark::State& state)
{
    constexpr std::uint64_t kEventsPerIter = 200000;
    std::uint64_t total = 0;
    for (auto _ : state) {
        Simulator sim;
        Rng rng;
        std::uint64_t left = kEventsPerIter;
        struct Hop
        {
            Simulator& sim;
            std::uint64_t& left;
            Rng& rng;
            void
            operator()() const
            {
                if (left == 0)
                    return;
                --left;
                // 0..16383 ticks: always inside the level-0 horizon.
                sim.scheduleIn(
                    static_cast<Tick>(rng.next() & 0x3FFF), *this);
            }
        };
        for (int c = 0; c < 32; ++c)
            sim.scheduleIn(c, Hop{sim, left, rng});
        sim.run();
        total += sim.eventsProcessed();
    }
    reportEvents(state, total);
}
BENCHMARK(BM_ShortDelays);

/** Delays spanning all three tiers (level 0 / level 1 / overflow). */
void
BM_MixedHorizon(benchmark::State& state)
{
    constexpr std::uint64_t kEventsPerIter = 100000;
    std::uint64_t total = 0;
    for (auto _ : state) {
        Simulator sim;
        Rng rng;
        std::uint64_t left = kEventsPerIter;
        struct Hop
        {
            Simulator& sim;
            std::uint64_t& left;
            Rng& rng;
            void
            operator()() const
            {
                if (left == 0)
                    return;
                --left;
                const std::uint64_t r = rng.next();
                Tick d;
                switch (r & 7) {
                  case 0: // level 1 (beyond the 2^24 level-0 horizon)
                    d = static_cast<Tick>((r >> 8) & 0xFFFFFFFF) |
                        (Tick{1} << 25);
                    break;
                  case 1: // overflow heap (beyond the 2^40 horizon)
                    d = static_cast<Tick>((r >> 8) & 0xFFFF) |
                        (Tick{1} << 41);
                    break;
                  default: // level 0
                    d = static_cast<Tick>(r & 0xFFFFF);
                    break;
                }
                sim.scheduleIn(d, *this);
            }
        };
        for (int c = 0; c < 16; ++c)
            sim.scheduleIn(c, Hop{sim, left, rng});
        sim.run(Tick{1} << 62);
        total += sim.eventsProcessed();
    }
    reportEvents(state, total);
}
BENCHMARK(BM_MixedHorizon);

/** Many periodic cadences: the Sampler/HealthMonitor/poll-tick shape. */
void
BM_Periodic(benchmark::State& state)
{
    const int timers = static_cast<int>(state.range(0));
    constexpr std::uint64_t kTicksPerIter = 1u << 22;
    std::uint64_t total = 0;
    for (auto _ : state) {
        Simulator sim;
        std::uint64_t fired = 0;
        std::vector<EventRef> refs;
        refs.reserve(static_cast<std::size_t>(timers));
        for (int t = 0; t < timers; ++t) {
            refs.push_back(sim.schedulePeriodic(
                t + 1, 64 + (t % 1024), [&fired] { ++fired; }));
        }
        sim.runUntil(kTicksPerIter);
        for (EventRef& r : refs)
            sim.release(r);
        benchmark::DoNotOptimize(fired);
        total += sim.eventsProcessed();
    }
    reportEvents(state, total);
}
BENCHMARK(BM_Periodic)->Arg(64);

/** Coroutine delay loops: resume slots + pooled frames. */
void
BM_CoroutineResume(benchmark::State& state)
{
    constexpr std::uint64_t kEventsPerIter = 200000;
    std::uint64_t total = 0;
    for (auto _ : state) {
        Simulator sim;
        std::uint64_t left = kEventsPerIter;
        auto loop = [](Simulator& s, std::uint64_t& l) -> Task<> {
            Rng rng;
            while (l > 0) {
                --l;
                co_await octo::sim::delay(
                    s, static_cast<Tick>(rng.next() & 0xFFF));
            }
        };
        std::vector<Task<>> tasks;
        for (int c = 0; c < 16; ++c)
            tasks.push_back(loop(sim, left));
        sim.run();
        total += sim.eventsProcessed();
    }
    reportEvents(state, total);
}
BENCHMARK(BM_CoroutineResume);

constexpr Tick kGridPeriod = 25'000;

/** Parks the awaiting poller on the grid. */
struct GridParkAwait
{
    Simulator& sim;
    GridPark* park;

    bool await_ready() const noexcept { return false; }

    template <typename P>
    void
    await_suspend(std::coroutine_handle<P> h)
    {
        *park = sim.parkOnGrid(h, &h.promise(), kGridPeriod, nullptr,
                               nullptr);
    }

    void await_resume() const noexcept {}
};

/**
 * N pollers parked on the poll grid over four phases while chains of
 * real events run, about one per period; every fourth event
 * wakes one poller, which steps once and parks again. A woken poller
 * is back on the grid long before the next wake, so every N runs the
 * same mix of dispatches, parks and wakes. Per-park, per-wake and
 * per-dispatch grid cost must not grow with N: tools/check_sim_core.py
 * holds /64 to a fraction of /1.
 */
void
BM_GridPark(benchmark::State& state)
{
    const int pollers = static_cast<int>(state.range(0));
    constexpr Tick kPeriod = kGridPeriod;
    constexpr std::uint64_t kEventsPerIter = 200000;
    std::uint64_t total = 0;
    for (auto _ : state) {
        Simulator sim;
        std::vector<GridPark> parks(static_cast<std::size_t>(pollers));
        auto poller = [](Simulator& s, GridPark& park,
                         Tick offset) -> Task<> {
            co_await octo::sim::delay(s, kPeriod + offset);
            for (;;) {
                co_await GridParkAwait{s, &park};
                co_await octo::sim::delay(s, kPeriod);
            }
        };
        std::vector<Task<>> tasks;
        for (int i = 0; i < pollers; ++i) {
            tasks.push_back(poller(sim, parks[static_cast<std::size_t>(i)],
                                   (i % 4) * (kPeriod / 4)));
        }
        Rng rng;
        std::uint64_t left = kEventsPerIter;
        struct Traffic
        {
            Simulator& sim;
            std::vector<GridPark>& parks;
            std::uint64_t& left;
            Rng& rng;
            void
            operator()() const
            {
                if (left == 0)
                    return;
                --left;
                const std::uint64_t r = rng.next();
                if ((left & 3) == 0) {
                    GridPark& p = parks[r % parks.size()];
                    if (p.valid())
                        sim.unparkFromGrid(p);
                }
                sim.scheduleIn(static_cast<Tick>((r >> 16) % (4 * kPeriod)),
                               *this);
            }
        };
        for (int c = 0; c < 2; ++c)
            sim.scheduleIn(c, Traffic{sim, parks, left, rng});
        sim.run();
        total += sim.eventsProcessed();
    }
    reportEvents(state, total);
}
BENCHMARK(BM_GridPark)->Arg(1)->Arg(16)->Arg(64);

} // namespace

BENCHMARK_MAIN();
