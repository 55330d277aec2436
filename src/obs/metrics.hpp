/**
 * @file
 * The metric registry: named, labeled instruments shared by every layer.
 *
 * Three instrument kinds cover the models' needs:
 *
 *  - **Counter**: a monotonically increasing u64 (bytes DMAed, frames
 *    steered, verdicts applied). A *callback* counter mirrors an
 *    existing cumulative model counter (a Pipe's totalBytes) without
 *    double bookkeeping.
 *  - **Gauge**: a point-in-time double (steering weight, bandwidth
 *    fraction), also available in callback form.
 *  - **Histogram**: log-bucketed distribution with p50/p90/p99 queries
 *    (DMA latencies, softirq batch sizes). Buckets grow geometrically —
 *    kSubBuckets per octave — so percentile error is bounded by the
 *    bucket ratio (~19% with 4 sub-buckets) across the full range.
 *
 * Instruments are identified by (name, labels); re-registering the same
 * identity returns the existing instrument, so call sites can register
 * eagerly at construction. The registry owns all instruments; pointers
 * stay valid for its lifetime (call sites cache them — the
 * zero-overhead-when-off discipline is a null check, not a map lookup).
 * The one exception is a RowFamily: counter rows whose owner keeps
 * them, read by the registry only when it exports.
 *
 * Snapshots export as Prometheus text (deterministic ordering) or CSV.
 */
#pragma once

#include <cstdint>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace octo::obs {

class MetricRegistry;

/** Label set: key/value pairs, canonicalized (sorted by key) by the
 *  registry so label order at the call site never matters. */
using Labels = std::vector<std::pair<std::string, std::string>>;

/** Monotonic counter; callback-backed when registered via counterFn. */
class Counter
{
  public:
    void add(std::uint64_t d = 1) { v_ += d; }

    std::uint64_t value() const { return fn_ ? fn_() : v_; }

  private:
    friend class MetricRegistry;
    std::uint64_t v_ = 0;
    std::function<std::uint64_t()> fn_;
};

/** Point-in-time value; callback-backed when registered via gaugeFn. */
class Gauge
{
  public:
    void set(double v) { v_ = v; }
    void add(double d) { v_ += d; }

    double value() const { return fn_ ? fn_() : v_; }

  private:
    friend class MetricRegistry;
    double v_ = 0;
    std::function<double()> fn_;
};

/**
 * Log-bucketed histogram over non-negative values.
 *
 * Bucket i covers [2^(i/kSubBuckets), 2^((i+1)/kSubBuckets)); zeros get
 * a dedicated bucket. Percentiles interpolate geometrically inside the
 * selected bucket, and exact min/max/sum/count ride alongside.
 */
class Histogram
{
  public:
    static constexpr int kSubBuckets = 4; ///< Buckets per octave.
    static constexpr int kBuckets = 64 * kSubBuckets;

    Histogram() : buckets_(kBuckets, 0) {}

    void record(double v);

    /** Record @p v @p n times: identical to n single records. */
    void record(double v, std::uint64_t n);

    std::uint64_t count() const { return count_; }
    double sum() const { return sum_; }
    double min() const { return count_ > 0 ? min_ : 0.0; }
    double max() const { return count_ > 0 ? max_ : 0.0; }
    double mean() const { return count_ > 0 ? sum_ / count_ : 0.0; }

    /** Value at percentile @p p in [0, 100]; 0 when empty. */
    double percentile(double p) const;

    double p50() const { return percentile(50.0); }
    double p90() const { return percentile(90.0); }
    double p99() const { return percentile(99.0); }

    /** Upper bound of bucket @p i (exporter support). */
    static double bucketUpper(int i);

    std::uint64_t zeroCount() const { return zero_; }
    std::uint64_t bucketCount(int i) const { return buckets_.at(i); }

  private:
    std::vector<std::uint64_t> buckets_;
    std::uint64_t zero_ = 0;
    std::uint64_t count_ = 0;
    double sum_ = 0;
    double min_ = 0;
    double max_ = 0;
};

/** Instrument kind tag (lookup and export). */
enum class MetricKind
{
    Counter,
    Gauge,
    Histogram,
};

/**
 * Counter rows kept by their owner instead of the registry.
 *
 * Every row of a family has one counter per family metric name; rows
 * share the family's fixed labels and differ in one varying label
 * (key = the row's value). The owner stores the counters and adds into
 * them directly, so creating or dropping a row costs no registry work
 * (DmaAccountant's churning flow rows). The registry reads the rows
 * when it exports, merged in key order with its stored instruments, in
 * writePrometheus, writeCsv, forEach, sumCounters, findCounter and
 * size(): an export cannot tell a family row from a registered counter.
 *
 * The fixed labels are stamped with the base labels in force at
 * construction, so every row stays under the run its owner attached
 * in. Destroying the family turns each row it still visits into a
 * plain registry counter (the hub outlives the model that owned the
 * rows), so it must be destroyed while those rows are alive: declare
 * it after them. A registry destroyed first detaches the family.
 */
class RowFamily
{
  public:
    /** Row visitor: the varying label's value and the row's counters,
     *  one per metric name in family order. */
    using RowFn =
        std::function<void(const std::string& value, const Counter* c)>;

    /** @param visit Calls its argument once per live row. */
    RowFamily(MetricRegistry& reg, std::vector<std::string> names,
              const Labels& fixed, std::string key,
              std::function<void(const RowFn&)> visit);
    ~RowFamily();
    RowFamily(const RowFamily&) = delete;
    RowFamily& operator=(const RowFamily&) = delete;

  private:
    friend class MetricRegistry;

    /** Canonical label set of the row whose varying label is @p value. */
    Labels rowLabels(const std::string& value) const;

    /** Index of @p name among the family's names, or -1. */
    int column(const std::string& name) const;

    MetricRegistry* reg_;
    std::vector<std::string> names_;
    Labels fixed_; ///< Canonical, base labels stamped at construction.
    std::string key_;
    std::function<void(const RowFn&)> visit_;
};

/**
 * The registry. One per obs::Hub; every layer registers into it.
 *
 * Base labels (setBaseLabels) are stamped onto instruments created
 * *after* the call — benches set {"run": preset} per pass so several
 * testbed runs land as distinct label sets in one export.
 */
class MetricRegistry
{
  public:
    MetricRegistry() = default;
    ~MetricRegistry();
    MetricRegistry(const MetricRegistry&) = delete;
    MetricRegistry& operator=(const MetricRegistry&) = delete;

    Counter& counter(const std::string& name, Labels labels = {});
    Counter& counterFn(const std::string& name, Labels labels,
                       std::function<std::uint64_t()> fn);
    Gauge& gauge(const std::string& name, Labels labels = {});
    Gauge& gaugeFn(const std::string& name, Labels labels,
                   std::function<double()> fn);
    Histogram& histogram(const std::string& name, Labels labels = {});

    /** Lookup without creating; null when absent or kind-mismatched.
     *  Matches against the full label set including any base labels
     *  that were active when the instrument was registered. */
    const Counter* findCounter(const std::string& name,
                               const Labels& labels = {}) const;
    const Gauge* findGauge(const std::string& name,
                           const Labels& labels = {}) const;
    const Histogram* findHistogram(const std::string& name,
                                   const Labels& labels = {}) const;

    /** Series count: stored instruments plus live family rows. */
    std::size_t size() const;

    /**
     * Snapshot every callback-backed counter/gauge into a plain stored
     * value and drop the callback. Call before destroying the model the
     * callbacks read from (benches: end of each testbed run) so a later
     * export never chases dangling pointers.
     */
    void freeze();

    /** Labels stamped onto subsequently registered instruments. */
    void setBaseLabels(Labels base) { base_ = std::move(base); }
    const Labels& baseLabels() const { return base_; }

    /** Prometheus text exposition (sorted, deterministic). */
    void writePrometheus(std::FILE* out) const;
    std::string prometheusText() const;

    /** CSV snapshot: name,labels,kind,value rows (histograms expand to
     *  count/sum/p50/p90/p99). */
    void writeCsv(std::FILE* out) const;

    /** Visit every instrument (sorted identity order). */
    void forEach(const std::function<void(const std::string& name,
                                          const Labels& labels,
                                          MetricKind kind)>& fn) const;

    /** Sum of every counter named @p name whose labels include all of
     *  @p match (acceptance queries: locality split per device). */
    std::uint64_t sumCounters(const std::string& name,
                              const Labels& match = {}) const;

  private:
    friend class RowFamily;

    struct Entry
    {
        std::string name;
        Labels labels;
        MetricKind kind;
        std::unique_ptr<Counter> c;
        std::unique_ptr<Gauge> g;
        std::unique_ptr<Histogram> h;
    };

    /** One exported series: a stored instrument, or a counter whose
     *  value sums every row with its identity. */
    struct Row
    {
        const std::string* name;
        const Labels* labels;
        MetricKind kind;
        std::uint64_t count; ///< Counter value.
        const Gauge* g;
        const Histogram* h;
    };

    /** Every series in key order, family rows merged in. */
    void visitRows(const std::function<void(const Row&)>& fn) const;

    /** The instrument (name, @p labels), created when absent; @p labels
     *  must already be stamped and canonical. */
    Entry& entry(const std::string& name, Labels labels, MetricKind kind);
    const Entry* find(const std::string& name, const Labels& labels,
                      MetricKind kind) const;

    /** Stamp base labels (keys not already present) and canonicalize —
     *  the identity transformation entry() applies at registration. */
    Labels stamped(Labels labels) const;

    static Labels canonical(Labels l);
    static std::string key(const std::string& name, const Labels& l);

    std::map<std::string, Entry> entries_;
    std::vector<RowFamily*> families_;
    Labels base_;
};

} // namespace octo::obs
