/**
 * @file
 * Telemetry-scale bench: attribution cost and resident state versus
 * live-flow count.
 *
 * The question this answers is the ROADMAP's million-flow one: what
 * does flow-grain DMA attribution cost when the number of live flows
 * outgrows any sane per-flow row budget? Three accountant
 * configurations run the identical record stream:
 *
 *   - sketch64 / sketch16: the bounded Space-Saving accountant at the
 *     production default K=64 and a small K=16
 *   - unbounded: K set far above the flow count, reproducing the old
 *     row-per-flow accountant exactly (admission always succeeds and
 *     the min-scan never runs)
 *
 * The stream is a churny skew: a hot set of kHotKeys flows carries
 * half the records (the heavy hitters the sketch must retain) while
 * the other half lands on an ever-advancing fresh-key front (the
 * short-lived tail that killed the unbounded design). Every record
 * also feeds an exact reference total, so the run re-verifies the
 * conservation law at full scale: labeled rows + ~other == reference,
 * regardless of K or churn.
 *
 * Per pass the bench reports wall ns/record (min over stream chunks,
 * filtering host noise out of the flatness comparison;
 * also cross-checked against the accountant's own self-cost timer,
 * turned on with setSelfTimed), resident sketch rows, registry label
 * rows, and evictions.
 * Acceptance (tools/check_obs_scale.py): bounded modes hold rows <=
 * K (+1 registry row for ~other) and flat ns/record across three
 * decades of flow count, while the unbounded mode's rows grow with
 * the flow count.
 *
 * Output: an `obs_scale.csv` table plus printed rows; exits nonzero
 * on any conservation or bound violation. OCTO_OBS_SCALE_QUICK=1
 * trims the sweep for CI.
 */
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "obs/dma.hpp"
#include "obs/hub.hpp"
#include "sim/rng.hpp"

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

using octo::obs::DmaAccountant;
using octo::obs::Hub;
using octo::obs::Labels;
using octo::obs::MetricRegistry;

constexpr std::uint64_t kHotKeys = 48;

struct PassResult
{
    std::string mode;
    int topK = 0;
    std::uint64_t flows = 0;
    std::uint64_t records = 0;
    double nsPerRecord = 0.0;
    std::uint64_t residentRows = 0;
    std::uint64_t labelRows = 0;
    std::uint64_t evictions = 0;
    std::uint64_t selfNs = 0;
    bool conserved = false;
};

std::uint64_t
nowNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/** Labeled flow_dma_local_bytes rows currently in the registry. */
std::uint64_t
labelRowCount(const MetricRegistry& reg)
{
    std::uint64_t rows = 0;
    reg.forEach([&rows](const std::string& name, const Labels&,
                        octo::obs::MetricKind) {
        if (name == "flow_dma_local_bytes")
            ++rows;
    });
    return rows;
}

/**
 * Drive @p records attribution calls against a fresh accountant with
 * sketch capacity @p top_k, over a universe of @p flows keys. Half the
 * records hit the hot set, half walk a fresh-key front spanning the
 * whole universe — admission-heavy churn, the sketch's worst case.
 */
PassResult
runPass(const std::string& mode, int top_k, std::uint64_t flows,
        std::uint64_t records)
{
    Hub hub;
    DmaAccountant acc(&hub, "bench", top_k);
    acc.setSelfTimed(true);

    octo::sim::Rng rng(0x0B5'5CA1Eull ^ flows);
    std::uint64_t local_ref = 0;
    std::uint64_t remote_ref = 0;
    std::uint64_t fresh = kHotKeys;

    // Cost is the *minimum* ns/record over fixed-size chunks of the
    // stream: the sketch reaches steady state (full + evicting) within
    // the first few hundred records, so every chunk does the same
    // algorithmic work and the min filters scheduler/other-process
    // noise out of the flatness comparison.
    constexpr std::uint64_t kChunks = 8;
    const std::uint64_t chunk = records / kChunks;
    double min_chunk_ns = 0.0;
    std::uint64_t chunk_t0 = nowNs();
    for (std::uint64_t i = 0; i < records; ++i) {
        std::uint64_t key;
        if (rng.chance(0.5)) {
            key = rng.below(kHotKeys);
        } else {
            key = fresh;
            fresh = fresh + 1 < flows ? fresh + 1 : kHotKeys;
        }
        const std::uint64_t bytes = 64 + rng.below(1460);
        const bool local = rng.chance(0.7);
        acc.record(key, [key] { return flowLabel(key); },
                   bytes, local, local);
        (local ? local_ref : remote_ref) += bytes;
        if ((i + 1) % chunk == 0) {
            const std::uint64_t now = nowNs();
            const double per_record =
                static_cast<double>(now - chunk_t0) /
                static_cast<double>(chunk);
            if (min_chunk_ns == 0.0 || per_record < min_chunk_ns)
                min_chunk_ns = per_record;
            chunk_t0 = now;
        }
    }

    const MetricRegistry& reg = hub.metrics();
    const Labels dev = {{"dev", "bench"}};
    const bool conserved =
        reg.sumCounters("flow_dma_local_bytes", dev) == local_ref &&
        reg.sumCounters("flow_dma_remote_bytes", dev) == remote_ref;

    PassResult r;
    r.mode = mode;
    r.topK = acc.topK();
    r.flows = flows;
    r.records = records;
    r.nsPerRecord = min_chunk_ns;
    r.residentRows = acc.flowCount();
    r.labelRows = labelRowCount(reg);
    r.evictions = acc.evictions();
    r.selfNs = acc.selfNs();
    r.conserved = conserved;
    return r;
}

} // namespace

int
main()
{
    const bool quick = std::getenv("OCTO_OBS_SCALE_QUICK") != nullptr;
    // Fixed record count per pass so ns/record averages stabilize:
    // cost flatness across flow counts is the claim under test, and a
    // shared denominator keeps the comparison honest.
    const std::uint64_t records = quick ? 1'000'000 : 4'000'000;
    std::vector<std::uint64_t> flow_counts = {1'000, 10'000, 100'000};
    if (!quick)
        flow_counts.push_back(1'000'000);

    std::printf("### obs_scale: %llu records/pass, hot set %llu "
                "flows, 50%% fresh-key churn\n",
                static_cast<unsigned long long>(records),
                static_cast<unsigned long long>(kHotKeys));
    std::printf("%-10s %6s %9s %12s %10s %10s %12s %10s %s\n", "mode",
                "topK", "flows", "ns/record", "resident", "rows",
                "evictions", "conserved", "self_ms");

    std::vector<PassResult> results;
    bool ok = true;
    for (std::uint64_t flows : flow_counts) {
        results.push_back(runPass("sketch64", 64, flows, records));
        results.push_back(runPass("sketch16", 16, flows, records));
        // Unbounded baseline: capacity above any flow count in the
        // sweep — the pre-sketch accountant's behavior, for cost and
        // row-growth comparison. Capped at 100k flows: beyond that the
        // row-per-flow registry alone is gigabytes, which is the
        // point — the bounded modes above run the full sweep.
        if (flows <= 100'000) {
            results.push_back(
                runPass("unbounded", 2'000'000, flows, records));
        } else {
            std::printf("# unbounded skipped at %llu flows "
                        "(row-per-flow registry would not fit)\n",
                        static_cast<unsigned long long>(flows));
        }
    }

    for (const PassResult& r : results) {
        std::printf("%-10s %6d %9llu %12.1f %10llu %10llu %12llu "
                    "%10s %.1f\n",
                    r.mode.c_str(), r.topK,
                    static_cast<unsigned long long>(r.flows),
                    r.nsPerRecord,
                    static_cast<unsigned long long>(r.residentRows),
                    static_cast<unsigned long long>(r.labelRows),
                    static_cast<unsigned long long>(r.evictions),
                    r.conserved ? "yes" : "NO",
                    static_cast<double>(r.selfNs) / 1e6);
        if (!r.conserved) {
            std::printf("FAIL: %s flows=%llu broke byte "
                        "conservation\n",
                        r.mode.c_str(),
                        static_cast<unsigned long long>(r.flows));
            ok = false;
        }
        if (r.mode != "unbounded" &&
            r.residentRows > static_cast<std::uint64_t>(r.topK)) {
            std::printf("FAIL: %s flows=%llu resident rows %llu > "
                        "K=%d\n",
                        r.mode.c_str(),
                        static_cast<unsigned long long>(r.flows),
                        static_cast<unsigned long long>(
                            r.residentRows),
                        r.topK);
            ok = false;
        }
    }

    if (std::FILE* f = std::fopen("obs_scale.csv", "w")) {
        std::fprintf(f, "mode,topk,flows,records,ns_per_record,"
                        "resident_rows,label_rows,evictions,self_ns,"
                        "conserved\n");
        for (const PassResult& r : results) {
            std::fprintf(
                f, "%s,%d,%llu,%llu,%.2f,%llu,%llu,%llu,%llu,%d\n",
                r.mode.c_str(), r.topK,
                static_cast<unsigned long long>(r.flows),
                static_cast<unsigned long long>(r.records),
                r.nsPerRecord,
                static_cast<unsigned long long>(r.residentRows),
                static_cast<unsigned long long>(r.labelRows),
                static_cast<unsigned long long>(r.evictions),
                static_cast<unsigned long long>(r.selfNs),
                r.conserved ? 1 : 0);
        }
        std::fclose(f);
        std::printf("# wrote obs_scale.csv (%zu passes)\n",
                    results.size());
    }
    return ok ? 0 : 1;
}
