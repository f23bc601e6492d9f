#include "nexus/telemetry/metrics.hpp"

#include <algorithm>

#include "nexus/telemetry/json.hpp"

namespace nexus::telemetry {

double Histogram::percentile(double p) const noexcept {
  if (count_ == 0) return 0.0;
  p = std::clamp(p, 0.0, 100.0);
  if (p <= 0.0) return static_cast<double>(min());
  if (p >= 100.0) return static_cast<double>(max());
  const double target = p / 100.0 * static_cast<double>(count_);
  std::uint64_t cum = 0;
  for (int i = 0; i < kBuckets; ++i) {
    const std::uint64_t b = buckets_[static_cast<std::size_t>(i)];
    if (b == 0) continue;
    if (static_cast<double>(cum + b) >= target) {
      const double frac = (target - static_cast<double>(cum)) /
                          static_cast<double>(b);
      const double lo =
          std::max<double>(static_cast<double>(bucket_floor(i)),
                           static_cast<double>(min()));
      const double hi =
          std::min<double>(static_cast<double>(bucket_ceil(i)),
                           static_cast<double>(max()));
      return lo + frac * (hi - lo);
    }
    cum += b;
  }
  return static_cast<double>(max());
}

void Histogram::merge(const Histogram& o) noexcept {
  if (o.count_ == 0) return;
  for (int i = 0; i < kBuckets; ++i) {
    buckets_[static_cast<std::size_t>(i)] +=
        o.buckets_[static_cast<std::size_t>(i)];
  }
  if (count_ == 0 || o.min_ < min_) min_ = o.min_;
  if (o.max_ > max_) max_ = o.max_;
  count_ += o.count_;
  sum_ += o.sum_;
}

MethodMetrics& MetricsRegistry::method(std::uint32_t context,
                                       std::string_view name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto key = std::make_pair(context, std::string(name));
  auto it = methods_.find(key);
  if (it == methods_.end()) {
    it = methods_.emplace(std::move(key), std::make_unique<MethodMetrics>())
             .first;
  }
  return *it->second;
}

ContextMetrics& MetricsRegistry::context(std::uint32_t context) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = contexts_.find(context);
  if (it == contexts_.end()) {
    it = contexts_.emplace(context, std::make_unique<ContextMetrics>()).first;
  }
  return *it->second;
}

const MethodMetrics* MetricsRegistry::Snapshot::find_method(
    std::uint32_t context, std::string_view name) const {
  auto it = methods.find(std::make_pair(context, std::string(name)));
  return it == methods.end() ? nullptr : &it->second;
}

const ContextMetrics* MetricsRegistry::Snapshot::find_context(
    std::uint32_t context) const {
  auto it = contexts.find(context);
  return it == contexts.end() ? nullptr : &it->second;
}

namespace {
std::string hist_summary(std::string_view name, const Histogram& h) {
  if (h.count() == 0) return "";
  std::string out("    ");
  out += name;
  out += ": n=" + std::to_string(h.count()) +
         " mean=" + util::fmt_fixed(h.mean(), 1) +
         " p50=" + util::fmt_fixed(h.percentile(50), 1) +
         " p90=" + util::fmt_fixed(h.percentile(90), 1) +
         " p99=" + util::fmt_fixed(h.percentile(99), 1) +
         " p999=" + util::fmt_fixed(h.percentile(99.9), 1) +
         " min=" + std::to_string(h.min()) +
         " max=" + std::to_string(h.max()) + "\n";
  return out;
}

std::string hist_json(const Histogram& h) {
  std::string out = "{\"count\":" + std::to_string(h.count()) +
                    ",\"sum\":" + std::to_string(h.sum()) +
                    ",\"min\":" + std::to_string(h.min()) +
                    ",\"max\":" + std::to_string(h.max()) + ",\"buckets\":[";
  // Emit sparse [index, count] pairs: most of the 65 buckets are empty.
  bool first = true;
  for (int i = 0; i < Histogram::kBuckets; ++i) {
    if (h.bucket_count(i) == 0) continue;
    if (!first) out += ",";
    first = false;
    out += "[";
    out += std::to_string(i);
    out += ",";
    out += std::to_string(h.bucket_count(i));
    out += "]";
  }
  out += "]}";
  return out;
}

/// Each histogram is one summary row; a run of counters sharing a group is
/// one "group: label n ..." line, printed when any of them is nonzero.
void context_text(std::string& out, const ContextMetrics& cm) {
  std::string_view group;
  std::string line;
  bool any = false;
  auto end_line = [&] {
    if (any) out += line + "\n";
    group = {};
    any = false;
  };
  for (const auto& row : kContextRows) {
    if (row.hist != nullptr) {
      end_line();
      out += hist_summary(row.name, cm.*row.hist);
      continue;
    }
    if (row.group != group) {
      end_line();
      group = row.group;
      line = "    " + std::string(group) + ":";
    }
    const std::uint64_t v = cm.*row.counter;
    line += " " + std::string(row.label) + " " + std::to_string(v);
    any = any || v != 0;
  }
  end_line();
}

}  // namespace

MetricsRegistry::Snapshot MetricsRegistry::snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  Snapshot snap;
  for (const auto& [key, mm] : methods_) snap.methods[key] = *mm;
  for (const auto& [id, cm] : contexts_) snap.contexts[id] = *cm;
  return snap;
}

std::string MetricsRegistry::to_text() const {
  const Snapshot snap = snapshot();
  std::string out;
  std::uint32_t current = ~std::uint32_t{0};
  for (const auto& [key, mm] : snap.methods) {
    if (key.first != current) {
      current = key.first;
      out += "context " + std::to_string(current) + ":\n";
      if (const ContextMetrics* cm = snap.find_context(current)) {
        context_text(out, *cm);
      }
    }
    out += "  " + key.second + ":";
    for (const auto& row : util::kMethodCounterRows) {
      const std::uint64_t v = mm.counters.*row.field;
      if (v != 0) out += " " + std::string(row.name) + " " + std::to_string(v);
    }
    out += "\n";
    for (const auto& row : kMethodHistRows) {
      out += hist_summary(row.name, mm.*row.hist);
    }
  }
  return out;
}

std::string MetricsRegistry::to_json() const {
  const Snapshot snap = snapshot();
  std::string out = "{\"contexts\":[";
  bool first_ctx = true;
  for (const auto& [id, cm] : snap.contexts) {
    if (!first_ctx) out += ",";
    first_ctx = false;
    out += "{\"context\":" + std::to_string(id);
    for (const auto& row : kContextRows) {
      out += ",\"" + std::string(row.name) + "\":" +
             (row.hist != nullptr ? hist_json(cm.*row.hist)
                                  : std::to_string(cm.*row.counter));
    }
    out += "}";
  }
  out += "],\"methods\":[";
  bool first_m = true;
  for (const auto& [key, mm] : snap.methods) {
    if (!first_m) out += ",";
    first_m = false;
    out += "{\"context\":" + std::to_string(key.first) +
           ",\"method\":" + json_quote(key.second);
    for (const auto& row : util::kMethodCounterRows) {
      out += ",\"" + std::string(row.name) +
             "\":" + std::to_string(mm.counters.*row.field);
    }
    for (const auto& row : kMethodHistRows) {
      out += ",\"" + std::string(row.name) + "\":" + hist_json(mm.*row.hist);
    }
    out += "}";
  }
  out += "]}";
  return out;
}

namespace {

/// One Prometheus histogram family member: cumulative buckets keyed by each
/// occupied log2 bucket's inclusive upper bound, then the mandatory +Inf
/// bucket, _sum, and _count.  `labels` is the rendered label set without
/// braces, e.g. `context="0",method="tcp"`.
void prom_histogram(std::string& out, std::string_view family,
                    const std::string& labels, const Histogram& h) {
  std::uint64_t cum = 0;
  for (int i = 0; i < Histogram::kBuckets; ++i) {
    if (h.bucket_count(i) == 0) continue;
    cum += h.bucket_count(i);
    out += std::string(family) + "_bucket{" + labels +
           ",le=\"" + std::to_string(Histogram::bucket_ceil(i)) + "\"} " +
           std::to_string(cum) + "\n";
  }
  out += std::string(family) + "_bucket{" + labels + ",le=\"+Inf\"} " +
         std::to_string(h.count()) + "\n";
  out += std::string(family) + "_sum{" + labels + "} " +
         std::to_string(h.sum()) + "\n";
  out += std::string(family) + "_count{" + labels + "} " +
         std::to_string(h.count()) + "\n";
}

void prom_counter(std::string& out, std::string_view family,
                  const std::string& labels, std::uint64_t v) {
  out += std::string(family) + "{" + labels + "} " + std::to_string(v) + "\n";
}

void prom_type(std::string& out, std::string_view family,
               std::string_view type) {
  out += "# TYPE " + std::string(family) + " " + std::string(type) + "\n";
}

}  // namespace

std::string MetricsRegistry::to_prometheus() const {
  const Snapshot snap = snapshot();
  std::string out;

  // Context families: histograms declared first, then counters.
  for (const auto& row : kContextRows) {
    if (row.hist != nullptr) prom_type(out, row.prom, "histogram");
  }
  for (const auto& row : kContextRows) {
    if (row.counter != nullptr) prom_type(out, row.prom, "counter");
  }
  for (const auto& [id, cm] : snap.contexts) {
    const std::string labels = "context=\"" + std::to_string(id) + "\"";
    for (const auto& row : kContextRows) {
      if (row.hist != nullptr) {
        prom_histogram(out, row.prom, labels, cm.*row.hist);
      } else {
        prom_counter(out, row.prom, labels, cm.*row.counter);
      }
    }
  }

  // Method families: counters declared first, then histograms.
  for (const auto& row : util::kMethodCounterRows) {
    prom_type(out, row.prom, "counter");
  }
  for (const auto& row : kMethodHistRows) {
    prom_type(out, row.prom, "histogram");
  }
  for (const auto& [key, mm] : snap.methods) {
    const std::string labels = "context=\"" + std::to_string(key.first) +
                               "\",method=\"" + json_escape(key.second) +
                               "\"";
    for (const auto& row : util::kMethodCounterRows) {
      prom_counter(out, row.prom, labels, mm.counters.*row.field);
    }
    for (const auto& row : kMethodHistRows) {
      prom_histogram(out, row.prom, labels, mm.*row.hist);
    }
  }
  return out;
}

}  // namespace nexus::telemetry
