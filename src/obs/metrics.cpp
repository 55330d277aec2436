#include "obs/metrics.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdlib>

namespace octo::obs {

// --------------------------------------------------------------- Histogram

void
Histogram::record(double v)
{
    ++count_;
    sum_ += v;
    if (count_ == 1) {
        min_ = max_ = v;
    } else {
        min_ = std::min(min_, v);
        max_ = std::max(max_, v);
    }
    if (v < 1.0) {
        // Sub-unit values (including zero) share the underflow bucket;
        // the instruments record ticks/bytes/counts, where < 1 means
        // "effectively zero".
        ++zero_;
        return;
    }
    const int idx = static_cast<int>(std::floor(std::log2(v) *
                                                kSubBuckets));
    ++buckets_.at(std::clamp(idx, 0, kBuckets - 1));
}

void
Histogram::record(double v, std::uint64_t n)
{
    if (n == 0)
        return;
    if (count_ == 0) {
        min_ = max_ = v;
    } else {
        min_ = std::min(min_, v);
        max_ = std::max(max_, v);
    }
    count_ += n;
    // Repeated addition, not v * n: the sum must round exactly as n
    // single records would. Adding zero n times equals adding it once.
    for (std::uint64_t i = 0; i < (v == 0.0 ? 1 : n); ++i)
        sum_ += v;
    if (v < 1.0) {
        zero_ += n;
        return;
    }
    const int idx = static_cast<int>(std::floor(std::log2(v) *
                                                kSubBuckets));
    buckets_.at(std::clamp(idx, 0, kBuckets - 1)) += n;
}

double
Histogram::bucketUpper(int i)
{
    return std::exp2(static_cast<double>(i + 1) / kSubBuckets);
}

double
Histogram::percentile(double p) const
{
    if (count_ == 0)
        return 0.0;
    p = std::clamp(p, 0.0, 100.0);
    // Rank of the target observation (1-based, nearest-rank method).
    const auto rank = static_cast<std::uint64_t>(
        std::ceil(p / 100.0 * static_cast<double>(count_)));
    std::uint64_t seen = zero_;
    if (rank <= seen)
        return 0.0;
    for (int i = 0; i < kBuckets; ++i) {
        seen += buckets_[i];
        if (rank <= seen) {
            // Geometric midpoint of the bucket, clamped to the observed
            // extremes so single-bucket distributions stay exact-ish.
            const double lo = std::exp2(static_cast<double>(i) /
                                        kSubBuckets);
            const double hi = bucketUpper(i);
            return std::clamp(std::sqrt(lo * hi), min_, max_);
        }
    }
    return max_;
}

// -------------------------------------------------------------- RowFamily

RowFamily::RowFamily(MetricRegistry& reg, std::vector<std::string> names,
                     const Labels& fixed, std::string key,
                     std::function<void(const RowFn&)> visit)
    : reg_(&reg), names_(std::move(names)), fixed_(reg.stamped(fixed)),
      key_(std::move(key)), visit_(std::move(visit))
{
    reg_->families_.push_back(this);
}

RowFamily::~RowFamily()
{
    if (reg_ == nullptr)
        return;
    visit_([this](const std::string& value, const Counter* c) {
        const Labels l = rowLabels(value);
        for (std::size_t i = 0; i < names_.size(); ++i)
            reg_->entry(names_[i], l, MetricKind::Counter)
                .c->add(c[i].value());
    });
    auto& fams = reg_->families_;
    fams.erase(std::find(fams.begin(), fams.end(), this));
}

Labels
RowFamily::rowLabels(const std::string& value) const
{
    Labels l = fixed_;
    l.emplace_back(key_, value);
    return MetricRegistry::canonical(std::move(l));
}

int
RowFamily::column(const std::string& name) const
{
    const auto it = std::find(names_.begin(), names_.end(), name);
    return it == names_.end() ? -1
                              : static_cast<int>(it - names_.begin());
}

// --------------------------------------------------------- MetricRegistry

MetricRegistry::~MetricRegistry()
{
    for (RowFamily* f : families_)
        f->reg_ = nullptr;
}

Labels
MetricRegistry::canonical(Labels l)
{
    std::sort(l.begin(), l.end());
    return l;
}

std::string
MetricRegistry::key(const std::string& name, const Labels& l)
{
    std::string k = name;
    k += '{';
    for (const auto& [lk, lv] : l) {
        k += lk;
        k += '=';
        k += lv;
        k += ',';
    }
    k += '}';
    return k;
}

Labels
MetricRegistry::stamped(Labels labels) const
{
    for (const auto& b : base_) {
        const bool present =
            std::any_of(labels.begin(), labels.end(),
                        [&](const auto& p) { return p.first == b.first; });
        if (!present)
            labels.push_back(b);
    }
    return canonical(std::move(labels));
}

MetricRegistry::Entry&
MetricRegistry::entry(const std::string& name, Labels labels,
                      MetricKind kind)
{
    const std::string k = key(name, labels);
    auto it = entries_.find(k);
    if (it == entries_.end()) {
        Entry e;
        e.name = name;
        e.labels = labels;
        e.kind = kind;
        switch (kind) {
          case MetricKind::Counter:
            e.c = std::make_unique<Counter>();
            break;
          case MetricKind::Gauge:
            e.g = std::make_unique<Gauge>();
            break;
          case MetricKind::Histogram:
            e.h = std::make_unique<Histogram>();
            break;
        }
        it = entries_.emplace(k, std::move(e)).first;
    }
    assert(it->second.kind == kind && "metric re-registered as a "
                                      "different kind");
    return it->second;
}

Counter&
MetricRegistry::counter(const std::string& name, Labels labels)
{
    return *entry(name, stamped(std::move(labels)), MetricKind::Counter)
                .c;
}

Counter&
MetricRegistry::counterFn(const std::string& name, Labels labels,
                          std::function<std::uint64_t()> fn)
{
    Counter& c = counter(name, std::move(labels));
    c.fn_ = std::move(fn);
    return c;
}

Gauge&
MetricRegistry::gauge(const std::string& name, Labels labels)
{
    return *entry(name, stamped(std::move(labels)), MetricKind::Gauge).g;
}

Gauge&
MetricRegistry::gaugeFn(const std::string& name, Labels labels,
                        std::function<double()> fn)
{
    Gauge& g = gauge(name, std::move(labels));
    g.fn_ = std::move(fn);
    return g;
}

Histogram&
MetricRegistry::histogram(const std::string& name, Labels labels)
{
    return *entry(name, stamped(std::move(labels)),
                  MetricKind::Histogram)
                .h;
}

const MetricRegistry::Entry*
MetricRegistry::find(const std::string& name, const Labels& labels,
                     MetricKind kind) const
{
    auto it = entries_.find(key(name, canonical(labels)));
    if (it == entries_.end() || it->second.kind != kind)
        return nullptr;
    return &it->second;
}

const Counter*
MetricRegistry::findCounter(const std::string& name,
                            const Labels& labels) const
{
    if (const Entry* e = find(name, labels, MetricKind::Counter))
        return e->c.get();
    const Labels want = canonical(labels);
    for (const RowFamily* f : families_) {
        const int col = f->column(name);
        const auto kv = std::find_if(
            want.begin(), want.end(),
            [f](const auto& p) { return p.first == f->key_; });
        if (col < 0 || kv == want.end() || f->rowLabels(kv->second) != want)
            continue;
        const Counter* found = nullptr;
        f->visit_([&](const std::string& value, const Counter* c) {
            if (found == nullptr && value == kv->second)
                found = &c[col];
        });
        if (found != nullptr)
            return found;
    }
    return nullptr;
}

const Gauge*
MetricRegistry::findGauge(const std::string& name,
                          const Labels& labels) const
{
    const Entry* e = find(name, labels, MetricKind::Gauge);
    return e != nullptr ? e->g.get() : nullptr;
}

const Histogram*
MetricRegistry::findHistogram(const std::string& name,
                              const Labels& labels) const
{
    const Entry* e = find(name, labels, MetricKind::Histogram);
    return e != nullptr ? e->h.get() : nullptr;
}

namespace {

std::string
promLabels(const Labels& l, const char* extra_key = nullptr,
           const char* extra_val = nullptr)
{
    if (l.empty() && extra_key == nullptr)
        return {};
    std::string s = "{";
    bool first = true;
    for (const auto& [k, v] : l) {
        if (!first)
            s += ',';
        first = false;
        s += k;
        s += "=\"";
        s += v;
        s += '"';
    }
    if (extra_key != nullptr) {
        if (!first)
            s += ',';
        s += extra_key;
        s += "=\"";
        s += extra_val;
        s += '"';
    }
    s += '}';
    return s;
}

const char*
kindName(MetricKind k)
{
    switch (k) {
      case MetricKind::Counter:
        return "counter";
      case MetricKind::Gauge:
        return "gauge";
      case MetricKind::Histogram:
        return "histogram";
    }
    return "?";
}

} // namespace

std::size_t
MetricRegistry::size() const
{
    std::size_t n = entries_.size();
    for (const RowFamily* f : families_)
        f->visit_([&](const std::string&, const Counter*) {
            n += f->names_.size();
        });
    return n;
}

void
MetricRegistry::visitRows(const std::function<void(const Row&)>& fn) const
{
    // Family rows keyed exactly like entries_, so one sorted merge
    // yields the order the rows would have as registered counters.
    struct Loose
    {
        std::string key;
        const std::string* name;
        Labels labels;
        std::uint64_t value;
    };
    std::vector<Loose> loose;
    for (const RowFamily* f : families_) {
        f->visit_([&](const std::string& value, const Counter* c) {
            const Labels l = f->rowLabels(value);
            for (std::size_t i = 0; i < f->names_.size(); ++i)
                loose.push_back({key(f->names_[i], l), &f->names_[i], l,
                                 c[i].value()});
        });
    }
    std::sort(loose.begin(), loose.end(),
              [](const Loose& a, const Loose& b) { return a.key < b.key; });

    auto it = entries_.begin();
    std::size_t j = 0;
    while (it != entries_.end() || j < loose.size()) {
        if (j == loose.size() ||
            (it != entries_.end() && it->first < loose[j].key)) {
            const Entry& e = it->second;
            fn(Row{&e.name, &e.labels, e.kind,
                   e.kind == MetricKind::Counter ? e.c->value() : 0,
                   e.g.get(), e.h.get()});
            ++it;
            continue;
        }
        // Rows sharing an identity (a retired family's row and a live
        // one, or two live families) export as one summed counter.
        const Loose& r = loose[j];
        std::uint64_t v = 0;
        if (it != entries_.end() && it->first == r.key) {
            assert(it->second.kind == MetricKind::Counter);
            v += it->second.c->value();
            ++it;
        }
        for (; j < loose.size() && loose[j].key == r.key; ++j)
            v += loose[j].value;
        fn(Row{r.name, &r.labels, MetricKind::Counter, v, nullptr,
               nullptr});
    }
}

void
MetricRegistry::writePrometheus(std::FILE* out) const
{
    // Rows arrive sorted by full key, so all series of one metric name
    // are contiguous: one # TYPE line per name.
    std::string last_name;
    visitRows([&](const Row& r) {
        const std::string& name = *r.name;
        const Labels& labels = *r.labels;
        if (name != last_name) {
            std::fprintf(out, "# TYPE %s %s\n", name.c_str(),
                         kindName(r.kind));
            last_name = name;
        }
        switch (r.kind) {
          case MetricKind::Counter:
            std::fprintf(out, "%s%s %llu\n", name.c_str(),
                         promLabels(labels).c_str(),
                         static_cast<unsigned long long>(r.count));
            break;
          case MetricKind::Gauge:
            std::fprintf(out, "%s%s %.9g\n", name.c_str(),
                         promLabels(labels).c_str(), r.g->value());
            break;
          case MetricKind::Histogram: {
            const Histogram& h = *r.h;
            std::uint64_t cum = h.zeroCount();
            // The zero/underflow bucket surfaces under le="1".
            std::fprintf(out, "%s_bucket%s %llu\n", name.c_str(),
                         promLabels(labels, "le", "1").c_str(),
                         static_cast<unsigned long long>(cum));
            for (int i = 0; i < Histogram::kBuckets; ++i) {
                if (h.bucketCount(i) == 0)
                    continue;
                cum += h.bucketCount(i);
                char upper[32];
                std::snprintf(upper, sizeof upper, "%.9g",
                              Histogram::bucketUpper(i));
                std::fprintf(out, "%s_bucket%s %llu\n", name.c_str(),
                             promLabels(labels, "le", upper).c_str(),
                             static_cast<unsigned long long>(cum));
            }
            std::fprintf(out, "%s_bucket%s %llu\n", name.c_str(),
                         promLabels(labels, "le", "+Inf").c_str(),
                         static_cast<unsigned long long>(h.count()));
            std::fprintf(out, "%s_sum%s %.9g\n", name.c_str(),
                         promLabels(labels).c_str(), h.sum());
            std::fprintf(out, "%s_count%s %llu\n", name.c_str(),
                         promLabels(labels).c_str(),
                         static_cast<unsigned long long>(h.count()));
            break;
          }
        }
    });
}

std::string
MetricRegistry::prometheusText() const
{
    char* buf = nullptr;
    std::size_t len = 0;
    std::FILE* mem = open_memstream(&buf, &len);
    if (mem == nullptr)
        return {};
    writePrometheus(mem);
    std::fclose(mem);
    std::string s(buf, len);
    std::free(buf);
    return s;
}

void
MetricRegistry::freeze()
{
    for (auto& [k, e] : entries_) {
        if (e.kind == MetricKind::Counter && e.c->fn_) {
            e.c->v_ = e.c->fn_();
            e.c->fn_ = nullptr;
        } else if (e.kind == MetricKind::Gauge && e.g->fn_) {
            e.g->v_ = e.g->fn_();
            e.g->fn_ = nullptr;
        }
    }
}

void
MetricRegistry::writeCsv(std::FILE* out) const
{
    std::fprintf(out, "metric,labels,kind,value\n");
    visitRows([&](const Row& r) {
        const char* name = r.name->c_str();
        std::string ls;
        for (const auto& [lk, lv] : *r.labels) {
            if (!ls.empty())
                ls += ';';
            ls += lk;
            ls += '=';
            ls += lv;
        }
        switch (r.kind) {
          case MetricKind::Counter:
            std::fprintf(out, "%s,%s,counter,%llu\n", name, ls.c_str(),
                         static_cast<unsigned long long>(r.count));
            break;
          case MetricKind::Gauge:
            std::fprintf(out, "%s,%s,gauge,%.9g\n", name, ls.c_str(),
                         r.g->value());
            break;
          case MetricKind::Histogram:
            std::fprintf(out, "%s_count,%s,histogram,%llu\n", name,
                         ls.c_str(),
                         static_cast<unsigned long long>(r.h->count()));
            std::fprintf(out, "%s_sum,%s,histogram,%.9g\n", name,
                         ls.c_str(), r.h->sum());
            std::fprintf(out, "%s_p50,%s,histogram,%.9g\n", name,
                         ls.c_str(), r.h->p50());
            std::fprintf(out, "%s_p90,%s,histogram,%.9g\n", name,
                         ls.c_str(), r.h->p90());
            std::fprintf(out, "%s_p99,%s,histogram,%.9g\n", name,
                         ls.c_str(), r.h->p99());
            break;
        }
    });
}

void
MetricRegistry::forEach(
    const std::function<void(const std::string&, const Labels&,
                             MetricKind)>& fn) const
{
    visitRows([&fn](const Row& r) { fn(*r.name, *r.labels, r.kind); });
}

std::uint64_t
MetricRegistry::sumCounters(const std::string& name,
                            const Labels& match) const
{
    const auto has = [](const Labels& labels, const auto& m) {
        return std::any_of(labels.begin(), labels.end(),
                           [&](const auto& p) { return p == m; });
    };
    std::uint64_t total = 0;
    for (const auto& [k, e] : entries_) {
        if (e.name != name || e.kind != MetricKind::Counter)
            continue;
        if (std::all_of(match.begin(), match.end(),
                        [&](const auto& m) { return has(e.labels, m); }))
            total += e.c->value();
    }
    for (const RowFamily* f : families_) {
        const int col = f->column(name);
        if (col < 0)
            continue;
        // Fixed labels are shared by every row; a match on the varying
        // key selects rows by value.
        const std::string* want = nullptr;
        bool ok = true;
        for (const auto& m : match) {
            if (m.first == f->key_) {
                if (want != nullptr && *want != m.second)
                    ok = false;
                want = &m.second;
            } else if (!has(f->fixed_, m)) {
                ok = false;
            }
        }
        if (!ok)
            continue;
        f->visit_([&](const std::string& value, const Counter* c) {
            if (want == nullptr || value == *want)
                total += c[col].value();
        });
    }
    return total;
}

} // namespace octo::obs
