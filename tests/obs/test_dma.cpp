/**
 * @file
 * Tests for DMA-locality accounting: the DmaAccountant row mechanics,
 * the per-preset locality split of a real testbed run, and the
 * zero-overhead-when-off guarantee (observability must not change the
 * simulation's results).
 */
#include <cstdint>
#include <memory>
#include <string>

#include <gtest/gtest.h>

#include "core/testbed.hpp"
#include "obs/dma.hpp"
#include "obs/hub.hpp"
#include "workloads/netperf.hpp"

namespace octo::obs {
namespace {

TEST(DmaAccountant, InertWithoutHub)
{
    DmaAccountant acc(nullptr, "nic0");
    EXPECT_FALSE(acc.active());
    int labeled = 0;
    acc.record(1, [&] { ++labeled; return std::string("f"); }, 4096,
               true, true);
    EXPECT_EQ(acc.flowCount(), 0u);
    EXPECT_EQ(labeled, 0) << "label formatting must stay off";
}

TEST(DmaAccountant, RowsSplitLocalityPerFlow)
{
    Hub hub;
    DmaAccountant acc(&hub, "nic0");
    ASSERT_TRUE(acc.active());
    int labeled = 0;
    const auto label_a = [&] { ++labeled; return std::string("a"); };
    acc.record(1, label_a, 1000, true, true);
    acc.record(1, label_a, 500, false, false);
    acc.record(2, [] { return std::string("b"); }, 64, false, true);

    EXPECT_EQ(acc.flowCount(), 2u);
    EXPECT_EQ(labeled, 1) << "label invoked only on first sight";

    MetricRegistry& reg = hub.metrics();
    const Labels a = {{"dev", "nic0"}, {"flow", "a"}};
    EXPECT_EQ(reg.findCounter("flow_dma_local_bytes", a)->value(), 1000u);
    EXPECT_EQ(reg.findCounter("flow_dma_remote_bytes", a)->value(), 500u);
    EXPECT_EQ(reg.findCounter("flow_interconnect_crossings", a)->value(),
              1u);
    EXPECT_EQ(reg.findCounter("flow_ddio_hits", a)->value(), 1u);
    EXPECT_EQ(reg.findCounter("flow_ddio_misses", a)->value(), 1u);
    EXPECT_EQ(reg.sumCounters("flow_dma_remote_bytes",
                              {{"dev", "nic0"}}),
              564u);
}

TEST(DmaAccountant, SetRunMidLifeKeepsRowsUnderAttachRun)
{
    // A run label set while an accountant is alive must not split its
    // rows: an eviction after setRun once left the evicted flow's row
    // under the old run and added its bytes to ~other as well.
    Hub hub;
    hub.setRun("A");
    DmaAccountant acc(&hub, "nic0", 2);
    const auto label = [](const char* f) {
        return [f] { return std::string(f); };
    };
    acc.record(1, label("a"), 100, true, true);
    acc.record(2, label("b"), 200, true, true);
    hub.setRun("B");
    acc.record(3, label("c"), 300, true, true);
    ASSERT_EQ(acc.evictions(), 1u);

    MetricRegistry& reg = hub.metrics();
    EXPECT_EQ(reg.sumCounters("flow_dma_local_bytes", {{"dev", "nic0"}}),
              600u);
    EXPECT_EQ(reg.sumCounters("flow_dma_local_bytes",
                              {{"dev", "nic0"}, {"run", "A"}}),
              600u);
    EXPECT_EQ(reg.findCounter("flow_dma_local_bytes",
                              {{"dev", "nic0"}, {"flow", "~other"},
                               {"run", "A"}})
                  ->value(),
              100u);
    EXPECT_EQ(reg.findCounter("flow_dma_local_bytes",
                              {{"dev", "nic0"}, {"flow", "a"}, {"run", "A"}}),
              nullptr);
}

TEST(DmaAccountant, TeardownLeavesRowsAsRegistryCounters)
{
    Hub hub;
    const Labels b = {{"dev", "nic0"}, {"flow", "b"}};
    {
        DmaAccountant acc(&hub, "nic0", 2);
        acc.record(1, [] { return std::string("a"); }, 100, true, true);
        acc.record(2, [] { return std::string("b"); }, 200, false, true);
        // A looked-up flow row is the accountant's live counter.
        const Counter* row = hub.metrics().findCounter(
            "flow_dma_remote_bytes", b);
        ASSERT_NE(row, nullptr);
        acc.record(2, [] { return std::string("b"); }, 50, false, true);
        EXPECT_EQ(row->value(), 250u);
        acc.record(3, [] { return std::string("c"); }, 300, true, true);
        hub.metrics().freeze();
    }
    const MetricRegistry& reg = hub.metrics();
    EXPECT_EQ(reg.findCounter("flow_dma_remote_bytes", b)->value(), 250u);
    EXPECT_EQ(reg.findCounter("flow_dma_local_bytes",
                              {{"dev", "nic0"}, {"flow", "~other"}})
                  ->value(),
              100u);
    EXPECT_EQ(reg.sumCounters("flow_dma_local_bytes") +
                  reg.sumCounters("flow_dma_remote_bytes"),
              650u);
}

TEST(DmaAccountant, OutlivesItsRegistry)
{
    auto hub = std::make_unique<Hub>();
    DmaAccountant acc(hub.get(), "nic0", 2);
    acc.record(1, [] { return std::string("a"); }, 100, true, true);
    hub->metrics().freeze();
    hub.reset(); // acc's teardown must not touch the dead registry
    EXPECT_EQ(acc.flowCount(), 1u);
}

struct LocalitySplit
{
    std::uint64_t local = 0;
    std::uint64_t remote = 0;
    std::uint64_t crossings = 0;
    std::uint64_t flowLocal = 0;
    std::uint64_t flowRemote = 0;
    std::uint64_t bytesDelivered = 0;
};

/** 2 ms Rx run of @p mode; locality split of the server NIC. */
LocalitySplit
runPreset(core::ServerMode mode, Hub* hub)
{
    core::TestbedConfig cfg;
    cfg.mode = mode;
    cfg.hub = hub;
    core::Testbed tb(cfg);
    auto server_t = tb.serverThread(tb.workNode(), 0);
    auto client_t = tb.clientThread(0);
    workloads::NetperfStream stream(tb, server_t, client_t, 16384,
                                    workloads::StreamDir::ServerRx);
    stream.start();
    tb.runFor(sim::fromMs(2));

    LocalitySplit s;
    s.bytesDelivered = stream.bytesDelivered();
    if (hub != nullptr) {
        MetricRegistry& reg = hub->metrics();
        const Labels nic = {{"dev", "octoNIC"}};
        s.local = reg.sumCounters("dma_local_bytes", nic);
        s.remote = reg.sumCounters("dma_remote_bytes", nic);
        s.crossings = reg.sumCounters("interconnect_crossings", nic);
        s.flowLocal = reg.sumCounters("flow_dma_local_bytes", nic);
        s.flowRemote = reg.sumCounters("flow_dma_remote_bytes", nic);
        reg.freeze();
    }
    return s;
}

TEST(DmaLocality, PresetsSeparateCleanly)
{
    Hub local_hub, remote_hub, ioct_hub;
    const LocalitySplit local =
        runPreset(core::ServerMode::Local, &local_hub);
    const LocalitySplit remote =
        runPreset(core::ServerMode::Remote, &remote_hub);
    const LocalitySplit ioct =
        runPreset(core::ServerMode::Ioctopus, &ioct_hub);

    // Local: workload on the NIC's socket — no remote DMA at all.
    EXPECT_GT(local.local, 0u);
    EXPECT_EQ(local.remote, 0u);
    EXPECT_EQ(local.crossings, 0u);

    // Remote: payload DMA targets the far socket; virtually all bytes
    // cross the interconnect (the residue is doorbell/descriptor-side
    // traffic on node 0).
    EXPECT_GT(remote.remote, 0u);
    EXPECT_GT(remote.crossings, 0u);
    EXPECT_GT(remote.remote, remote.local * 9)
        << "remote preset must be >90% remote bytes";

    // Ioctopus: the paper's thesis — same far-socket workload, zero
    // NUDMA.
    EXPECT_GT(ioct.local, 0u);
    EXPECT_EQ(ioct.remote, 0u);
    EXPECT_EQ(ioct.crossings, 0u);

    // Flow-grain attribution mirrors the PF-grain split's direction.
    EXPECT_EQ(local.flowRemote, 0u);
    EXPECT_EQ(ioct.flowRemote, 0u);
    EXPECT_GT(remote.flowRemote, 0u);
    EXPECT_GT(ioct.flowLocal, 0u);
}

TEST(DmaLocality, ObservabilityDoesNotPerturbResults)
{
    // Same run three ways: no hub, metrics only, metrics + full
    // tracing. Simulated outcomes must be bit-identical.
    Hub metrics_hub;
    Hub traced_hub;
    traced_hub.tracer().enable(kCatAll);

    const LocalitySplit off =
        runPreset(core::ServerMode::Ioctopus, nullptr);
    const LocalitySplit on =
        runPreset(core::ServerMode::Ioctopus, &metrics_hub);
    const LocalitySplit traced =
        runPreset(core::ServerMode::Ioctopus, &traced_hub);

    EXPECT_GT(off.bytesDelivered, 0u);
    EXPECT_EQ(off.bytesDelivered, on.bytesDelivered);
    EXPECT_EQ(off.bytesDelivered, traced.bytesDelivered);
    EXPECT_GT(traced_hub.tracer().eventCount(), 0u);
}

} // namespace
} // namespace octo::obs
