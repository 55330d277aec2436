/**
 * @file
 * Idle-poll elision (DESIGN.md §9): a sink whose empty polls are
 * fast-forwarded on the poll grid must be indistinguishable from one
 * that steps every 25 ns empty poll. Every expected value below was
 * captured from the per-poll implementation (each empty poll a real
 * delay event) on the same scenarios; none is compared against a
 * switch, because there is none.
 */

#include <cstdint>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "common.hpp"
#include "obs/hub.hpp"
#include "obs/metrics.hpp"
#include "sim/simulator.hpp"

namespace octo::bypass {
namespace {

using core::Testbed;
using core::TestbedConfig;
using sim::Tick;

/** One empty poll: the grid pitch of a parked sink started at t=0. */
constexpr Tick kGrid = 25'000;

/** A bypass testbed with telemetry, two cores per node (four ports
 *  per side), and nothing running yet. */
struct Bed
{
    obs::Hub hub; // outlives the testbed whose instruments it holds
    std::unique_ptr<Testbed> tb;
    std::vector<sim::Task<>> tasks;

    Bed()
    {
        TestbedConfig cfg;
        cfg.bypass = true;
        cfg.cal.coresPerNode = 2;
        cfg.hub = &hub;
        tb = std::make_unique<Testbed>(cfg);
    }

    sim::Simulator& sim() { return tb->sim(); }
    PollPlane& plane() { return *tb->serverPoll(); }

    const obs::Histogram&
    histogram(const char* name)
    {
        const obs::Histogram* h = hub.metrics().findHistogram(
            name, {{"dev", tb->serverNic().name()}});
        EXPECT_NE(h, nullptr) << name;
        return *h;
    }
};

/** One harvested frame: which port, when, and its e2e latency. */
struct Harvest
{
    int port;
    Tick at;
    Tick e2e;

    friend bool
    operator==(const Harvest& a, const Harvest& b)
    {
        return a.port == b.port && a.at == b.at && a.e2e == b.e2e;
    }
};

void
PrintTo(const Harvest& h, std::ostream* os)
{
    *os << "{" << h.port << ", " << h.at << ", " << h.e2e << "}";
}

/** Busy-poll sink that logs every harvested frame. Nothing observable
 *  happens between an empty return and the next call. */
sim::Task<>
loggingSink(PollPort& port, int idx, std::vector<Harvest>* log)
{
    sim::Simulator& sim = port.core().sim();
    std::vector<RxPacket> pkts(16);
    for (;;) {
        const int n = co_await port.rxBurst(pkts.data(), 16);
        for (int i = 0; i < n; ++i) {
            log->push_back(Harvest{idx, sim.now(),
                                   sim.now() - pkts[i].frame.arrivedAt});
            port.freePacket(pkts[i]);
        }
    }
}

nic::Frame
frameOn(int src_port)
{
    nic::Frame f;
    f.flow = testFlow();
    f.flow.srcPort = static_cast<std::uint16_t>(src_port);
    f.payloadBytes = 64;
    return f;
}

/** Hand @p f to the server NIC off the wire at absolute tick @p at. */
void
arriveAt(Bed& bed, Tick at, const nic::Frame& f)
{
    Testbed* tb = bed.tb.get();
    bed.sim().schedule(at, [tb, f] { tb->serverNic().acceptFrame(f); });
}

// ---------------------------------------------------------------------
// (a) Idle sinks on every port under a sliced runFor: every bulk-charged
// counter is exact at every slice boundary, grid-aligned or not.
// ---------------------------------------------------------------------
TEST(IdleElision, IdleSinksChargeExactlyAtEverySliceBoundary)
{
    Bed bed;
    std::vector<Harvest> log;
    PollPlane& pl = bed.plane();
    for (int p = 0; p < pl.portCount(); ++p)
        bed.tasks.push_back(loggingSink(pl.port(p), p, &log));

    const std::vector<Tick> slices = {1,      24'999,   1,
                                      25'000, 7'310'123, 40 * kGrid,
                                      3,      1'000'001, 12'345};
    std::vector<std::uint64_t> polls, empties, busy, bursts, zeros;
    for (const Tick s : slices) {
        bed.tb->runFor(s);
        std::uint64_t p = 0;
        std::uint64_t e = 0;
        std::uint64_t b = 0;
        for (int i = 0; i < pl.portCount(); ++i) {
            p += pl.port(i).polls();
            e += pl.port(i).emptyPolls();
            b += static_cast<std::uint64_t>(
                pl.port(i).core().busyTime());
        }
        polls.push_back(p);
        empties.push_back(e);
        busy.push_back(b);
        bursts.push_back(bed.histogram("bypass_rx_burst_frames").count());
        zeros.push_back(
            bed.histogram("bypass_poll_occupancy_pct").zeroCount());
    }
    EXPECT_TRUE(log.empty());
    EXPECT_EQ(polls, (std::vector<std::uint64_t>{4, 8, 8, 12, 1180, 1340,
                                                 1340, 1500, 1500}));
    EXPECT_EQ(empties, polls) << "an idle sink polls only empty rings";
    EXPECT_EQ(busy, (std::vector<std::uint64_t>{
                        0, 100'000, 100'000, 200'000, 29'400'000,
                        33'400'000, 33'400'000, 37'400'000, 37'400'000}));
    EXPECT_EQ(bursts, (std::vector<std::uint64_t>{0, 4, 4, 8, 1176, 1336,
                                                  1336, 1496, 1496}));
    EXPECT_EQ(zeros, bursts);
    EXPECT_EQ(bed.sim().now(), Tick{9'372'473});
}

// ---------------------------------------------------------------------
// (b) A completion landing exactly on a parked sink's grid instant, and
// a tick either side: the harvest tick and e2e latency are exact. The
// arrivals bracket the tick whose completion write lands on the grid.
// ---------------------------------------------------------------------
TEST(IdleElision, CompletionOnAndBesideTheGridInstantHarvestsOnTime)
{
    constexpr Tick kArrive = 1'022'736;
    std::vector<Harvest> got;
    for (const Tick at : {kArrive - 2, kArrive - 1, kArrive, kArrive + 1}) {
        Bed bed;
        std::vector<Harvest> log;
        bed.plane().steerFlow(frameOn(7000).flow, 0);
        bed.tasks.push_back(loggingSink(bed.plane().port(0), 0, &log));
        arriveAt(bed, at, frameOn(7000));
        bed.tb->runFor(at + sim::fromUs(5));
        ASSERT_EQ(log.size(), 1u);
        got.push_back(log.front());
        EXPECT_EQ(bed.plane().port(0).polls(),
                  bed.plane().port(0).emptyPolls() + 1);
    }
    // Arrival kArrive is the first whose completion misses the grid
    // instant at 1.728 us: discovery slips one poll to 1.753 us.
    EXPECT_EQ(got, (std::vector<Harvest>{{0, 1'728'000, 705'266},
                                         {0, 1'728'000, 705'265},
                                         {0, 1'753'000, 730'264},
                                         {0, 1'753'000, 730'263}}));
}

// ---------------------------------------------------------------------
// (c) Two sinks on the same grid phase discover work at the same tick
// and harvest in the per-poll order.
// ---------------------------------------------------------------------
TEST(IdleElision, SamePhaseSinksHarvestInPerPollOrder)
{
    Bed bed;
    std::vector<Harvest> log;
    PollPlane& pl = bed.plane();
    pl.steerFlow(frameOn(7000).flow, 0);
    pl.steerFlow(frameOn(7002).flow, 1);
    for (int p = 0; p < 2; ++p)
        bed.tasks.push_back(loggingSink(pl.port(p), p, &log));
    for (const Tick at : {Tick{2'000'000}, Tick{2'000'000} + 7 * kGrid,
                          Tick{3'210'987}}) {
        arriveAt(bed, at, frameOn(7002));
        arriveAt(bed, at, frameOn(7000));
    }
    bed.tb->runFor(sim::fromUs(10));
    EXPECT_EQ(log, (std::vector<Harvest>{{0, 2'728'000, 728'000},
                                         {1, 2'728'000, 728'000},
                                         {1, 2'881'000, 706'000},
                                         {0, 2'906'000, 731'000},
                                         {0, 3'934'000, 723'013},
                                         {1, 3'934'000, 723'013}}));
    EXPECT_EQ(pl.port(0).polls(), 397u);
    EXPECT_EQ(pl.port(1).polls(), 397u);
}

// ---------------------------------------------------------------------
// (d) Another coroutine acquiring a parked sink's core gets it at the
// per-poll tick, on and off the grid; the sink carries on after.
// ---------------------------------------------------------------------
TEST(IdleElision, ContenderGetsTheParkedCoreAtThePerPollTick)
{
    Bed bed;
    std::vector<Harvest> log;
    PollPort& port = bed.plane().port(0);
    bed.tasks.push_back(loggingSink(port, 0, &log));
    std::vector<Tick> acquired;
    for (const Tick at : {Tick{1'000'000}, Tick{1'234'567}}) {
        bed.sim().schedule(at, [&bed, &port, &acquired] {
            bed.tasks.push_back(sim::spawn([&port, &acquired,
                                            &bed]() -> sim::Task<> {
                co_await port.core().mutex().acquire();
                acquired.push_back(bed.sim().now());
                co_await sim::delay(bed.sim(), sim::fromNs(100));
                port.core().mutex().release();
            }));
        });
    }
    bed.tb->runFor(sim::fromUs(3));
    EXPECT_EQ(acquired, (std::vector<Tick>{1'000'000, 1'250'000}));
    EXPECT_EQ(port.polls(), 113u);
    EXPECT_EQ(port.core().busyTime(), Tick{3'000'000});
}

// ---------------------------------------------------------------------
// (e) An event scheduled mid-park reads the bulk-charged counters and
// sees the per-poll values, including on a grid instant itself.
// ---------------------------------------------------------------------
TEST(IdleElision, MidParkReadsSeePerPollCounters)
{
    Bed bed;
    std::vector<Harvest> log;
    PollPort& port = bed.plane().port(0);
    bed.tasks.push_back(loggingSink(port, 0, &log));
    std::vector<std::uint64_t> reads;
    for (const Tick at : {Tick{1'000'000} - 1, Tick{1'000'000},
                          Tick{1'000'000} + 1, Tick{1'987'654}}) {
        bed.sim().schedule(at, [&port, &reads] {
            reads.push_back(port.emptyPolls());
            reads.push_back(port.polls());
            reads.push_back(
                static_cast<std::uint64_t>(port.core().busyTime()));
        });
    }
    bed.tb->runFor(sim::fromUs(2));
    // emptyPolls, polls, busy ps: the read at 1 us ranks before that
    // instant's poll, which was scheduled later.
    EXPECT_EQ(reads, (std::vector<std::uint64_t>{40, 40, 975'000,
                                                 40, 40, 975'000,
                                                 41, 41, 1'000'000,
                                                 80, 80, 1'975'000}));
}

// ---------------------------------------------------------------------
// (f) A detached sink parked on an empty ring is reclaimed when the
// testbed goes away: its frame (and everything it owns) is destroyed.
// ---------------------------------------------------------------------
TEST(IdleElision, DetachedParkedSinkIsReclaimedAtTeardown)
{
    int destroyed = 0;
    {
        Bed bed;
        struct Sentinel
        {
            int* count;
            ~Sentinel() { ++*count; }
        };
        PollPort& port = bed.plane().port(0);
        sim::spawn([&port, &destroyed]() -> sim::Task<> {
            const Sentinel guard{&destroyed};
            std::vector<RxPacket> pkts(8);
            for (;;) {
                const int n = co_await port.rxBurst(pkts.data(), 8);
                for (int i = 0; i < n; ++i)
                    port.freePacket(pkts[i]);
            }
        }).detach();
        bed.tb->runFor(sim::fromUs(1));
        EXPECT_EQ(destroyed, 0);
        EXPECT_GT(port.emptyPolls(), 1u);
    }
    EXPECT_EQ(destroyed, 1) << "parked detached sink leaked";
}

} // namespace
} // namespace octo::bypass
