/**
 * @file
 * Tests for the bounded attribution substrate: Space-Saving sketch
 * invariants under a skewed key stream, deterministic eviction, the
 * DmaAccountant's ~other conservation law, and the guarantee that
 * bounding attribution does not perturb simulated results.
 */
#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/testbed.hpp"
#include "nvme/driver.hpp"
#include "obs/dma.hpp"
#include "obs/flow_sketch.hpp"
#include "obs/hub.hpp"
#include "sim/rng.hpp"
#include "workloads/netperf.hpp"

namespace octo::obs {
namespace {

/** "f<key>": the flow label these records carry. Built by appending,
 *  because GCC 12 at -O3 reports a false -Wrestrict overlap for
 *  `"f" + std::to_string(key)`. */
std::string
flowLabel(std::uint64_t key)
{
    std::string label = "f";
    label += std::to_string(key);
    return label;
}

struct NoPayload
{
};

using Sketch = SpaceSaving<NoPayload>;

/** Deterministic Zipf-ish key stream: key j drawn with probability
 *  proportional to 1/(j+1), over @p universe keys. */
std::vector<std::uint64_t>
zipfStream(std::size_t universe, std::size_t n, std::uint64_t seed)
{
    std::vector<double> cdf(universe);
    double acc = 0.0;
    for (std::size_t j = 0; j < universe; ++j) {
        acc += 1.0 / static_cast<double>(j + 1);
        cdf[j] = acc;
    }
    sim::Rng rng(seed);
    std::vector<std::uint64_t> keys;
    keys.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        const double u = rng.uniform() * acc;
        const auto it = std::lower_bound(cdf.begin(), cdf.end(), u);
        keys.push_back(static_cast<std::uint64_t>(
            it - cdf.begin()));
    }
    return keys;
}

TEST(SpaceSaving, ErrorBoundsUnderZipfianStream)
{
    constexpr std::size_t kK = 32;
    Sketch sk(kK);
    std::map<std::uint64_t, std::uint64_t> truth;
    Sketch::Outcome out;
    Sketch::Entry evicted;
    for (std::uint64_t key : zipfStream(4096, 200000, 0xBADC0DE)) {
        sk.update(key, 1, out, evicted);
        ++truth[key];
    }

    ASSERT_EQ(sk.size(), kK);
    const std::uint64_t min_w = sk.minWeight();
    for (const auto& e : sk.entries()) {
        const std::uint64_t t = truth[e.key];
        // Classic Space-Saving bounds: never undercount, and the
        // inherited error brackets the overcount.
        EXPECT_GE(e.weight, t) << "key " << e.key;
        EXPECT_LE(e.weight - e.error, t) << "key " << e.key;
    }
    // Residency guarantee: any key truly heavier than the minimum
    // resident weight must be resident.
    for (const auto& [key, count] : truth) {
        if (count > min_w) {
            EXPECT_NE(sk.find(key), nullptr)
                << "heavy hitter " << key << " (count " << count
                << " > min weight " << min_w << ") missing";
        }
    }
    // Weight conservation across arbitrary churn.
    EXPECT_EQ(sk.totalWeight(), 200000u);
}

TEST(SpaceSaving, EvictionIsDeterministic)
{
    const auto keys = zipfStream(512, 50000, 42);
    auto run = [&keys] {
        Sketch sk(16);
        Sketch::Outcome out;
        Sketch::Entry ev;
        std::vector<std::uint64_t> evicted_keys;
        for (std::uint64_t key : keys) {
            sk.update(key, 1, out, ev);
            if (out == Sketch::Outcome::Replaced)
                evicted_keys.push_back(ev.key);
        }
        std::vector<std::pair<std::uint64_t, std::uint64_t>> resident;
        for (const auto& e : sk.entries())
            resident.emplace_back(e.key, e.weight);
        return std::make_pair(evicted_keys, resident);
    };
    const auto a = run();
    const auto b = run();
    EXPECT_EQ(a.first, b.first) << "eviction sequence must be "
                                   "identical across identical runs";
    EXPECT_EQ(a.second, b.second);
    EXPECT_FALSE(a.first.empty());
}

TEST(DmaAccountant, OtherRowConservesBytesUnderChurn)
{
    Hub hub;
    constexpr int kK = 4;
    DmaAccountant acc(&hub, "nic0", kK);
    ASSERT_EQ(acc.topK(), kK);

    // Far more live keys than capacity; exact reference totals kept
    // alongside.
    std::uint64_t local_ref = 0, remote_ref = 0;
    sim::Rng rng(7);
    for (int i = 0; i < 5000; ++i) {
        const std::uint64_t key = rng.below(64);
        const std::uint64_t bytes = 64 + rng.below(1400);
        const bool local = rng.chance(0.5);
        acc.record(key, [key] { return flowLabel(key); },
                   bytes, local, local);
        (local ? local_ref : remote_ref) += bytes;
    }

    EXPECT_LE(acc.flowCount(), static_cast<std::size_t>(kK));
    EXPECT_GT(acc.evictions(), 0u) << "test must exercise churn";

    MetricRegistry& reg = hub.metrics();
    const Labels dev = {{"dev", "nic0"}};
    // Conservation: labeled rows + ~other account for every byte.
    EXPECT_EQ(reg.sumCounters("flow_dma_local_bytes", dev), local_ref);
    EXPECT_EQ(reg.sumCounters("flow_dma_remote_bytes", dev),
              remote_ref);

    // Registry holds at most K labeled rows plus ~other.
    int rows = 0;
    reg.forEach([&](const std::string& name, const Labels&,
                    MetricKind) {
        if (name == "flow_dma_local_bytes")
            ++rows;
    });
    EXPECT_LE(rows, kK + 1);
    EXPECT_GT(reg.sumCounters("flow_dma_local_bytes",
                              {{"dev", "nic0"}, {"flow", "~other"}}) +
                  reg.sumCounters("flow_dma_remote_bytes",
                                  {{"dev", "nic0"},
                                   {"flow", "~other"}}),
              0u)
        << "churn must have folded bytes into ~other";
}

TEST(DmaAccountant, TenantRollupRowsAreExact)
{
    Hub hub;
    DmaAccountant acc(&hub, "nic0", 2);
    // Two tenants, many flows — tenant rows never churn.
    std::uint64_t t0 = 0, t1 = 0;
    for (int i = 0; i < 100; ++i) {
        const int tenant = i % 2;
        const std::uint64_t bytes = 100 + i;
        acc.record(static_cast<std::uint64_t>(i),
                   [i] { return flowLabel(i); }, bytes,
                   true, true, tenant);
        (tenant == 0 ? t0 : t1) += bytes;
    }
    MetricRegistry& reg = hub.metrics();
    EXPECT_EQ(reg.sumCounters("tenant_dma_local_bytes",
                              {{"dev", "nic0"}, {"tenant", "0"}}),
              t0);
    EXPECT_EQ(reg.sumCounters("tenant_dma_local_bytes",
                              {{"dev", "nic0"}, {"tenant", "1"}}),
              t1);
    // And tenant totals equal flow totals (both saw every byte).
    EXPECT_EQ(reg.sumCounters("tenant_dma_local_bytes",
                              {{"dev", "nic0"}}),
              reg.sumCounters("flow_dma_local_bytes",
                              {{"dev", "nic0"}}));
}

TEST(DmaAccountant, MetaInstrumentsTrackSketchState)
{
    Hub hub;
    DmaAccountant acc(&hub, "nic0", 2);
    acc.record(1, [] { return std::string("a"); }, 10, true, true);
    acc.record(2, [] { return std::string("b"); }, 10, true, true);
    acc.record(3, [] { return std::string("c"); }, 10, true, true);

    MetricRegistry& reg = hub.metrics();
    const Labels dev = {{"dev", "nic0"}};
    EXPECT_EQ(reg.findGauge("flow_rows", dev)->value(), 2.0);
    EXPECT_EQ(reg.findGauge("flow_topk", dev)->value(), 2.0);
    EXPECT_EQ(reg.findCounter("flow_evictions_total", dev)->value(),
              1u);
    EXPECT_EQ(reg.findCounter("obs_attr_records_total", dev)->value(),
              3u);
    // Self-cost ns stays zero unless setSelfTimed opts in — wall time
    // must never leak into deterministic exports by default.
    EXPECT_EQ(acc.selfNs(), 0u);
    EXPECT_EQ(acc.selfRecords(), 3u);
}

/** 2 ms Rx run of the Ioctopus preset; returns delivered bytes. */
std::uint64_t
runIoctopus(Hub* hub)
{
    core::TestbedConfig cfg;
    cfg.mode = core::ServerMode::Ioctopus;
    cfg.hub = hub;
    core::Testbed tb(cfg);
    auto server_t = tb.serverThread(tb.workNode(), 0);
    auto client_t = tb.clientThread(0);
    workloads::NetperfStream stream(tb, server_t, client_t, 16384,
                                    workloads::StreamDir::ServerRx);
    stream.start();
    tb.runFor(sim::fromMs(2));
    const std::uint64_t delivered = stream.bytesDelivered();
    if (hub != nullptr)
        hub->metrics().freeze();
    return delivered;
}

TEST(DmaAccountant, SketchSizeDoesNotPerturbResults)
{
    // The same run with a tiny sketch (heavy eviction), a huge sketch
    // (old unbounded behavior), and no hub at all must produce
    // bit-identical simulated outcomes.
    Hub tiny_hub;
    tiny_hub.setFlowTopK(1);
    const std::uint64_t tiny = runIoctopus(&tiny_hub);
    Hub huge_hub;
    huge_hub.setFlowTopK(1048576);
    const std::uint64_t huge = runIoctopus(&huge_hub);
    const std::uint64_t off = runIoctopus(nullptr);

    EXPECT_GT(off, 0u);
    EXPECT_EQ(off, tiny);
    EXPECT_EQ(off, huge);
}

TEST(DmaAccountant, TopkAtFlowCountKeepsExactRows)
{
    // A capacity no smaller than the live-flow count never evicts: one
    // exact row per flow, no ~other folding — and conservation holds
    // trivially because nothing is ever displaced.
    constexpr int kFlows = 500;
    Hub hub;
    hub.setFlowTopK(kFlows);
    DmaAccountant acc(&hub, "nic0");
    EXPECT_EQ(acc.topK(), kFlows);

    std::uint64_t local_ref = 0, remote_ref = 0;
    sim::Rng rng(11);
    for (int i = 0; i < 5000; ++i) {
        const std::uint64_t key = rng.below(kFlows);
        const std::uint64_t bytes = 64 + rng.below(1400);
        const bool local = rng.chance(0.5);
        acc.record(key, [key] { return flowLabel(key); },
                   bytes, local, local);
        (local ? local_ref : remote_ref) += bytes;
    }

    // Every live key owns its own row; nothing churned.
    EXPECT_EQ(acc.flowCount(), static_cast<std::size_t>(kFlows));
    EXPECT_EQ(acc.evictions(), 0u);

    MetricRegistry& reg = hub.metrics();
    const Labels dev = {{"dev", "nic0"}};
    EXPECT_EQ(reg.sumCounters("flow_dma_local_bytes", dev), local_ref);
    EXPECT_EQ(reg.sumCounters("flow_dma_remote_bytes", dev),
              remote_ref);
    EXPECT_EQ(reg.sumCounters("flow_dma_local_bytes",
                              {{"dev", "nic0"}, {"flow", "~other"}}),
              0u)
        << "a sketch that never evicts must never fold into ~other";
    EXPECT_EQ(reg.findGauge("flow_rows", dev)->value(),
              static_cast<double>(kFlows));
    EXPECT_EQ(reg.findGauge("flow_topk", dev)->value(),
              static_cast<double>(kFlows));
}

/** Sketch capacity of the server NIC, poll-plane and NVMe accountants
 *  built against @p hub. */
std::vector<int>
accountantTopKs(Hub& hub)
{
    core::TestbedConfig cfg;
    cfg.mode = core::ServerMode::Ioctopus;
    cfg.bypass = true;
    cfg.hub = &hub;
    core::Testbed tb(cfg);
    nvme::NvmeDevice ssd(tb.server(), 0, 4, "ssd");
    nvme::NvmeDriver drv(ssd);
    std::vector<int> k = {tb.serverNic().flows().topK(),
                          tb.serverPoll()->flows().topK(),
                          drv.flows().topK()};
    hub.metrics().freeze();
    return k;
}

TEST(DmaAccountant, HubTopkReachesEveryAccountant)
{
    Hub defaults;
    EXPECT_EQ(defaults.flowTopK(), Hub::kDefaultTopK);
    EXPECT_EQ(accountantTopKs(defaults),
              std::vector<int>(3, Hub::kDefaultTopK));

    Hub set;
    set.setFlowTopK(7);
    EXPECT_EQ(accountantTopKs(set), std::vector<int>(3, 7));
}

TEST(DmaAccountant, FlowRowsMatchPfRowsOnTestbed)
{
    // Conservation at system grain: the NIC's flow-grain byte rows
    // (including ~other) must exactly equal its PF-grain rows, even
    // with a sketch small enough to churn.
    Hub hub;
    hub.setFlowTopK(2);
    runIoctopus(&hub);

    MetricRegistry& reg = hub.metrics();
    const Labels nic = {{"dev", "octoNIC"}};
    EXPECT_EQ(reg.sumCounters("flow_dma_local_bytes", nic),
              reg.sumCounters("dma_local_bytes", nic));
    EXPECT_EQ(reg.sumCounters("flow_dma_remote_bytes", nic),
              reg.sumCounters("dma_remote_bytes", nic));
}

} // namespace
} // namespace octo::obs
