/**
 * @file
 * DMA-locality accounting: per-flow / per-SQ attribution of the DMA
 * traffic already counted per-PF by pcie::PciFunction — bounded at
 * production flow counts.
 *
 * A DmaAccountant belongs to one device-side driver layer (the NIC
 * datapath, the NVMe driver, the bypass poll plane) — the layers that
 * know *which flow or submission queue* a DMA belongs to, which the
 * PCIe layer below cannot know.
 *
 * Attribution is a Space-Saving top-K heavy-hitter sketch
 * (obs::SpaceSaving, K = Hub::flowTopK(), default 64) per device: the
 * K heaviest flows own labeled rows {dev, flow} of five counters,
 * exported exactly as when every flow had a registry row —
 *
 *     flow_dma_local_bytes      payload bytes via a socket-local PF
 *     flow_dma_remote_bytes     payload bytes that crossed sockets
 *     flow_interconnect_crossings   DMA ops that traversed QPI/UPI
 *     flow_ddio_hits            DMAs served by the LLC (DDIO)
 *     flow_ddio_misses          DMAs that had to touch DRAM
 *
 * — while everything displaced from the sketch folds into one
 * conserved {dev, flow="~other"} row. The invariant the tests and
 * bench_obs_scale pin: sum over all flow rows *including* ~other of
 * the byte counters exactly equals the PF-grain dma_*_bytes totals,
 * at any instant, at any churn rate. Resident state is <= K rows per
 * device no matter how many flows live and die.
 *
 * The accountant keeps those rows itself, as a RowFamily the registry
 * reads when it exports: admitting or evicting a flow touches no
 * registry state, and record() is one sketch update plus plain adds.
 * The rows carry the base labels in force when the accountant was
 * built, and become plain registry counters when it is destroyed.
 *
 * Rollups: a record tagged with a tenant id additionally feeds exact
 * tenant_dma_* rows {dev, tenant} — bounded by the tenant count, never
 * sketched — so multi-tenant fairness work has per-tenant locality
 * observables from day one.
 *
 * Self-cost: records and evictions are counted (obs_attr_records_total,
 * flow_evictions_total, flow_rows gauge), and after setSelfTimed(true)
 * the attribution path times itself (wall ns into obs_attr_ns_total) —
 * the proof obligation that bounded attribution stays O(1) per record
 * at million-flow churn. Wall-clock never feeds simulated state, so
 * results stay bit-identical with telemetry on or off. Inert without a
 * hub: record() is a null check and nothing more, and the label
 * callable is never invoked for keys already resident.
 */
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>

#include "obs/flow_sketch.hpp"
#include "obs/hub.hpp"

namespace octo::obs {

class DmaAccountant
{
  public:
    /** @param hub  Null makes every record() a no-op.
     *  @param dev  Device label stamped on every flow row.
     *  @param top_k Sketch capacity; <= 0 takes the hub's flowTopK(). */
    DmaAccountant(Hub* hub, std::string dev, int top_k = 0)
        : reg_(hub != nullptr ? &hub->metrics() : nullptr),
          dev_(std::move(dev)),
          sketch_(static_cast<std::size_t>(
              top_k > 0 ? top_k
                        : (hub != nullptr ? hub->flowTopK()
                                          : Hub::kDefaultTopK)))
    {
        if (reg_ == nullptr)
            return;
        const Labels l = {{"dev", dev_}};
        reg_->gaugeFn("flow_rows", l, [this] {
            return static_cast<double>(flowCount());
        });
        reg_->counterFn("flow_evictions_total", l,
                        [this] { return sketch_.evictions(); });
        reg_->counterFn("obs_attr_records_total", l,
                        [this] { return records_; });
        reg_->counterFn("obs_attr_ns_total", l,
                        [this] { return selfNs_; });
        reg_->gaugeFn("flow_topk", l, [this] {
            return static_cast<double>(topK());
        });
        other_.label = "~other";
        rows_.emplace(*reg_,
                      std::vector<std::string>{
                          "flow_dma_local_bytes", "flow_dma_remote_bytes",
                          "flow_interconnect_crossings", "flow_ddio_hits",
                          "flow_ddio_misses"},
                      l, "flow",
                      [this](const RowFamily::RowFn& fn) { visit(fn); });
    }

    DmaAccountant(const DmaAccountant&) = delete;
    DmaAccountant& operator=(const DmaAccountant&) = delete;

    bool active() const { return reg_ != nullptr; }

    /**
     * Attribute one DMA of @p bytes to the flow identified by @p key.
     * @p label (any callable returning a flow string) is invoked only
     * when the key enters the sketch — flow formatting stays off the
     * steady-state hot path, and no closure object is materialized at
     * all on the inactive path. @p local: the PF and the memory share
     * a socket. @p ddio_hit: the LLC absorbed it. @p tenant >= 0
     * additionally feeds that tenant's exact rollup row.
     */
    template <typename LabelFn>
    void
    record(std::uint64_t key, LabelFn&& label, std::uint64_t bytes,
           bool local, bool ddio_hit, int tenant = -1)
    {
        if (reg_ == nullptr)
            return;
        const std::uint64_t t0 = timed_ ? nowNs() : 0;
        ++records_;

        Sketch::Outcome out;
        FlowCell& c = sketch_.update(key, bytes, out, displaced_);
        switch (out) {
          case Sketch::Outcome::Updated:
            break;
          case Sketch::Outcome::Replaced:
            fold(displaced_.payload);
            [[fallthrough]];
          case Sketch::Outcome::Admitted:
            c.label = label();
            break;
        }
        apply(c.c, bytes, local, ddio_hit);

        if (tenant >= 0)
            apply(tenantRow(tenant), bytes, local, ddio_hit);
        if (timed_)
            selfNs_ += nowNs() - t0;
    }

    /** Resident attribution rows: sketch occupancy (<= topK()). */
    std::size_t flowCount() const { return sketch_.size(); }

    /** Flows displaced from the sketch into the ~other row (always 0
     *  while the live-flow count stays within topK()). */
    std::uint64_t evictions() const { return sketch_.evictions(); }

    /** Sketch capacity. */
    int topK() const { return static_cast<int>(sketch_.capacity()); }

    /** Attribution calls accepted (both sketch and rollup paths). */
    std::uint64_t selfRecords() const { return records_; }

    /** Wall ns spent in record(); 0 unless setSelfTimed(true). */
    std::uint64_t selfNs() const { return selfNs_; }

    /** Turn the self-cost timer on or off. */
    void setSelfTimed(bool on) { timed_ = on; }

  private:
    /** Counter columns of one attribution row, in family name order. */
    enum Col
    {
        kLocal,
        kRemote,
        kCrossings,
        kDdioHits,
        kDdioMisses,
        kCols,
    };

    /** A tenant rollup row: registry counters. */
    using Row = std::array<Counter*, kCols>;

    /** One resident flow (or ~other): its label and exact counts. These
     *  are the exported rows themselves — the registry reads them
     *  through rows_ — so eviction can fold the full history into
     *  ~other. */
    struct FlowCell
    {
        std::string label;
        std::array<Counter, kCols> c;
    };

    using Sketch = SpaceSaving<FlowCell>;

    static std::uint64_t
    nowNs()
    {
        return static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now().time_since_epoch())
                .count());
    }

    static Counter& col(std::array<Counter, kCols>& r, Col i) { return r[i]; }
    static Counter& col(const Row& r, Col i) { return *r[i]; }

    template <typename R>
    static void
    apply(R& r, std::uint64_t bytes, bool local, bool ddio_hit)
    {
        if (local) {
            col(r, kLocal).add(bytes);
        } else {
            col(r, kRemote).add(bytes);
            col(r, kCrossings).add();
        }
        col(r, ddio_hit ? kDdioHits : kDdioMisses).add();
    }

    /**
     * Eviction: move the displaced flow's exact history into the
     * conserved ~other row; its own row leaves with it. The byte
     * totals summed over all flow rows are unchanged by construction —
     * conservation survives arbitrary churn.
     */
    void
    fold(const FlowCell& c)
    {
        for (int i = 0; i < kCols; ++i)
            other_.c[i].add(c.c[i].value());
    }

    /** Every exported flow row: resident flows, then ~other once
     *  something has been folded into it. */
    void
    visit(const RowFamily::RowFn& fn) const
    {
        for (std::size_t i = 0; i < sketch_.size(); ++i) {
            const FlowCell& c = sketch_.payload(i);
            fn(c.label, c.c.data());
        }
        if (sketch_.evictions() > 0)
            fn(other_.label, other_.c.data());
    }

    const Row&
    tenantRow(int tenant)
    {
        auto it = tenants_.find(tenant);
        if (it == tenants_.end()) {
            const Labels l = {{"dev", dev_},
                              {"tenant", std::to_string(tenant)}};
            Row r;
            r[kLocal] = &reg_->counter("tenant_dma_local_bytes", l);
            r[kRemote] = &reg_->counter("tenant_dma_remote_bytes", l);
            r[kCrossings] =
                &reg_->counter("tenant_interconnect_crossings", l);
            r[kDdioHits] = &reg_->counter("tenant_ddio_hits", l);
            r[kDdioMisses] = &reg_->counter("tenant_ddio_misses", l);
            it = tenants_.emplace(tenant, r).first;
        }
        return it->second;
    }

    MetricRegistry* reg_;
    std::string dev_;
    Sketch sketch_;
    FlowCell other_;
    Sketch::Entry displaced_; ///< update()'s hand-back slot.
    std::unordered_map<int, Row> tenants_;
    std::uint64_t records_ = 0;
    std::uint64_t selfNs_ = 0;
    bool timed_ = false;
    /** Last member: destroyed first, it materializes the rows above
     *  into the registry while they are still alive. */
    std::optional<RowFamily> rows_;
};

} // namespace octo::obs
