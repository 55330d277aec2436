/**
 * @file
 * Byte-for-byte pin of the metrics export under flow-row churn: two
 * accountants sharing one run-labeled hub, fed a seeded Zipf stream
 * that keeps both sketches evicting, one of them destroyed before the
 * export. The Prometheus text and the CSV must match the committed
 * fixtures exactly — whatever the registry does internally to hold
 * the flow rows, what it writes out may not move.
 *
 * On a mismatch the actual output is written to the test's working
 * directory (dma_churn_metrics.actual.{prom,csv}) for diffing.
 */
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "obs/dma.hpp"
#include "obs/hub.hpp"
#include "sim/rng.hpp"

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

std::string
readFile(const std::string& path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

std::string
csvText(const MetricRegistry& reg)
{
    char* buf = nullptr;
    std::size_t len = 0;
    std::FILE* mem = open_memstream(&buf, &len);
    if (mem == nullptr)
        return {};
    reg.writeCsv(mem);
    std::fclose(mem);
    std::string s(buf, len);
    std::free(buf);
    return s;
}

/** Compare @p actual with the fixture tests/golden/<name>; on a
 *  mismatch leave the actual bytes in <stem>.actual.<ext>. */
void
expectGolden(const std::string& name, const std::string& actual)
{
    const std::string golden =
        readFile(std::string(OCTO_GOLDEN_DIR) + "/" + name);
    if (!golden.empty() && actual == golden)
        return;
    const std::size_t dot = name.rfind('.');
    const std::string out =
        name.substr(0, dot) + ".actual" + name.substr(dot);
    std::ofstream(out, std::ios::binary) << actual;
    ADD_FAILURE() << name << " differs from the fixture; actual "
                  << "output written to " << out;
}

/** One attribution record of the seeded churn stream. */
struct Rec
{
    std::uint64_t key;
    std::uint64_t bytes;
    bool local;
    bool ddioHit;
    int tenant;
};

/** Zipf(1.0) keys over @p universe, mixed locality and DDIO outcome,
 *  a tenant id on roughly a third of the records. */
std::vector<Rec>
churnStream(std::size_t universe, std::size_t n, std::uint64_t seed)
{
    std::vector<double> cdf(universe);
    double acc = 0.0;
    for (std::size_t j = 0; j < universe; ++j) {
        acc += 1.0 / static_cast<double>(j + 1);
        cdf[j] = acc;
    }
    sim::Rng rng(seed);
    std::vector<Rec> recs;
    recs.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        const double u = rng.uniform() * acc;
        const auto key = static_cast<std::uint64_t>(
            std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
        Rec r;
        r.key = key;
        r.bytes = 64 + rng.below(1460);
        r.local = rng.chance(0.6);
        r.ddioHit = rng.chance(0.7);
        r.tenant = rng.chance(0.33) ? static_cast<int>(key % 3) : -1;
        recs.push_back(r);
    }
    return recs;
}

void
feed(DmaAccountant& acc, const std::vector<Rec>& recs)
{
    for (const Rec& r : recs) {
        acc.record(r.key, [&r] { return flowLabel(r.key); },
                   r.bytes, r.local, r.ddioHit, r.tenant);
    }
}

TEST(DmaExport, ChurnedFlowRowsExportByteForByte)
{
    Hub hub;
    hub.setRun("r1");
    DmaAccountant nic0(&hub, "nic0", 8);
    auto nic1 = std::make_unique<DmaAccountant>(&hub, "nic1", 4);

    feed(nic0, churnStream(2000, 6000, 0xD11A));
    feed(*nic1, churnStream(2000, 6000, 0xC0FFEE));
    ASSERT_GT(nic0.evictions(), 0u);
    ASSERT_GT(nic1->evictions(), 0u);

    // nic1 goes away before the export (a testbed torn down while the
    // hub lives on); nic0 keeps recording after the freeze.
    hub.metrics().freeze();
    nic1.reset();
    feed(nic0, churnStream(2000, 2000, 0xBEEF));

    const MetricRegistry& reg = hub.metrics();
    expectGolden("dma_churn_metrics.prom", reg.prometheusText());
    expectGolden("dma_churn_metrics.csv", csvText(reg));
}

} // namespace
} // namespace octo::obs
