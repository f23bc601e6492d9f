// Metrics registry: per-context x per-method counters and log-scale
// histograms for the quantities the paper's figures are built from (RSR
// one-way time, handler run time, poll cadence, message sizes).
//
// The registry is owned by the Runtime; each CommModule's MethodCounters
// are rebound into it at module-registration time, so the registry is the
// single source of truth the enquiry interface (Runtime::describe,
// snapshot(), to_text/to_json) reads.  Histogram updates happen on the
// owning context's thread (sim contexts are serialized by the scheduler;
// realtime contexts update their own entries under the context lock);
// snapshot() may run concurrently and sees monotone, possibly slightly
// stale values.
#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>

#include "util/stats.hpp"

namespace nexus::telemetry {

/// Log2-bucketed histogram of non-negative integer samples (nanoseconds,
/// bytes, counts).  Bucket 0 holds exactly the value 0; bucket i >= 1 holds
/// [2^(i-1), 2^i - 1].  Constant size, O(1) add, no allocation.
class Histogram {
 public:
  static constexpr int kBuckets = 65;  // value 0 + one per bit of uint64

  static int bucket_index(std::uint64_t v) noexcept {
    return v == 0 ? 0 : std::bit_width(v);
  }
  /// Smallest value belonging to bucket i.
  static std::uint64_t bucket_floor(int i) noexcept {
    return i <= 0 ? 0 : std::uint64_t{1} << (i - 1);
  }
  /// Largest value belonging to bucket i.
  static std::uint64_t bucket_ceil(int i) noexcept {
    if (i <= 0) return 0;
    if (i >= 64) return ~std::uint64_t{0};
    return (std::uint64_t{1} << i) - 1;
  }

  void add(std::uint64_t v) noexcept {
    buckets_[static_cast<std::size_t>(bucket_index(v))] += 1;
    ++count_;
    sum_ += v;
    if (count_ == 1 || v < min_) min_ = v;
    if (v > max_) max_ = v;
  }

  std::uint64_t count() const noexcept { return count_; }
  std::uint64_t sum() const noexcept { return sum_; }
  std::uint64_t min() const noexcept { return count_ ? min_ : 0; }
  std::uint64_t max() const noexcept { return max_; }
  double mean() const noexcept {
    return count_ ? static_cast<double>(sum_) / static_cast<double>(count_)
                  : 0.0;
  }
  std::uint64_t bucket_count(int i) const noexcept {
    return (i >= 0 && i < kBuckets) ? buckets_[static_cast<std::size_t>(i)]
                                    : 0;
  }

  /// Approximate percentile (p in [0,100]): finds the bucket holding the
  /// target rank and interpolates linearly inside it.  Exact for min/max
  /// (clamped to the observed extremes); 0 for an empty histogram.
  double percentile(double p) const noexcept;

  void merge(const Histogram& o) noexcept;
  void reset() noexcept { *this = Histogram{}; }

 private:
  std::array<std::uint64_t, kBuckets> buckets_{};
  std::uint64_t count_ = 0;
  std::uint64_t sum_ = 0;
  std::uint64_t min_ = 0;
  std::uint64_t max_ = 0;
};

/// Everything tracked for one (context, method) pair.  The counters are
/// named in util::kMethodCounterRows, the histograms in kMethodHistRows.
struct MethodMetrics {
  util::MethodCounters counters;  ///< canonical storage; modules bind here
  Histogram send_bytes;           ///< wire bytes per send
  Histogram recv_bytes;           ///< wire bytes per received packet
  /// Reliability wrappers only: unacked window entries sampled at each
  /// accepted send (occupancy *after* the packet entered the window).
  Histogram window_occupancy;
};

/// Per-context quantities not attributable to a single method.  Every field
/// has one row in kContextRows.
struct ContextMetrics {
  Histogram rsr_oneway_ns;     ///< send clock -> dispatch clock, per RSR
  Histogram handler_ns;        ///< handler body run time (inclusive)
  Histogram poll_interval_ns;  ///< unified-poll cadence (see kPollSampleEvery)
  Histogram poll_batch;        ///< packets drained per hitting poll
  Histogram rsr_retries;       ///< extra send attempts per RSR that needed any
  // Failover-layer counters (always counted, like MethodCounters): method
  // declared dead + re-selection, first failure on a healthy pair, and
  // successful restore probe after quarantine.
  std::uint64_t failovers = 0;
  std::uint64_t suspects = 0;
  std::uint64_t restores = 0;
  // Adaptive-engine counters: payload-class method switches, descriptor-
  // table reranks, and active timing probes sent.
  std::uint64_t adapt_switches = 0;
  std::uint64_t adapt_reranks = 0;
  std::uint64_t adapt_probes = 0;
  // Robustness-layer counters (crash/restart fault domain, §14): peers
  // declared down / observed back up, RSRs drained into the dead-letter
  // queue, dead letters dropped on cap overflow or budget exhaustion,
  // dead letters successfully redelivered after rebirth, and rsr() calls
  // rejected outright (unknown peer or exhausted budget).
  std::uint64_t peer_deaths = 0;
  std::uint64_t peer_reborns = 0;
  std::uint64_t deadletters = 0;
  std::uint64_t deadletter_drops = 0;
  std::uint64_t deadletter_redeliveries = 0;
  std::uint64_t send_errors = 0;
  // RPC subsystem counters (src/proto/rpc, docs §15): calls issued, and
  // their non-Ok terminal outcomes; late/duplicate replies dropped at the
  // client; bulk chunks pulled by servers; bulk protocol errors (unknown /
  // out-of-range handle).
  std::uint64_t rpc_calls = 0;
  std::uint64_t rpc_deadline_exceeded = 0;
  std::uint64_t rpc_cancelled = 0;
  std::uint64_t rpc_rejected = 0;
  std::uint64_t rpc_peer_died = 0;
  std::uint64_t rpc_late_replies = 0;
  std::uint64_t rpc_bulk_pull_chunks = 0;
  std::uint64_t rpc_bulk_errors = 0;
  Histogram rpc_call_ns;    ///< client-observed call latency (Ok calls)
  Histogram rpc_bulk_mb_s;  ///< bulk pull throughput per transfer, MB/s
};

/// One counter or histogram member of S and the names the exporters print
/// for it.  Exactly one of `counter` / `hist` is set.
template <class S>
struct MetricRow {
  std::uint64_t S::*counter = nullptr;
  Histogram S::*hist = nullptr;
  std::string_view name;   ///< JSON key; to_text() label of a histogram
  std::string_view prom;   ///< Prometheus family
  std::string_view group;  ///< to_text() line a counter is printed on
  std::string_view label;  ///< the counter's label on that line
};

template <class S>
constexpr MetricRow<S> hist_row(Histogram S::*h, std::string_view name,
                                std::string_view prom) {
  return {nullptr, h, name, prom, {}, {}};
}

template <class S>
constexpr MetricRow<S> counter_row(std::uint64_t S::*c, std::string_view name,
                                   std::string_view prom,
                                   std::string_view group,
                                   std::string_view label) {
  return {c, nullptr, name, prom, group, label};
}

/// The only place a context metric is named.  to_text(), to_json() and
/// to_prometheus() iterate the rows in this order; consecutive counters of
/// one group share a to_text() line.  Adding a metric is one ContextMetrics
/// field plus one row here.
inline constexpr MetricRow<ContextMetrics> kContextRows[] = {
    hist_row(&ContextMetrics::rsr_oneway_ns, "rsr_oneway_ns",
             "nexus_rsr_oneway_ns"),
    hist_row(&ContextMetrics::handler_ns, "handler_ns", "nexus_handler_ns"),
    hist_row(&ContextMetrics::poll_interval_ns, "poll_interval_ns",
             "nexus_poll_interval_ns"),
    hist_row(&ContextMetrics::poll_batch, "poll_batch", "nexus_poll_batch"),
    hist_row(&ContextMetrics::rsr_retries, "rsr_retries",
             "nexus_rsr_retries"),
    counter_row(&ContextMetrics::failovers, "failovers",
                "nexus_failovers_total", "failover", "triggered"),
    counter_row(&ContextMetrics::suspects, "suspects", "nexus_suspects_total",
                "failover", "suspects"),
    counter_row(&ContextMetrics::restores, "restores", "nexus_restores_total",
                "failover", "restores"),
    counter_row(&ContextMetrics::adapt_switches, "adapt_switches",
                "nexus_adapt_switches_total", "adapt", "switches"),
    counter_row(&ContextMetrics::adapt_reranks, "adapt_reranks",
                "nexus_adapt_reranks_total", "adapt", "reranks"),
    counter_row(&ContextMetrics::adapt_probes, "adapt_probes",
                "nexus_adapt_probes_total", "adapt", "probes"),
    counter_row(&ContextMetrics::peer_deaths, "peer_deaths",
                "nexus_peer_deaths_total", "robust", "peer_deaths"),
    counter_row(&ContextMetrics::peer_reborns, "peer_reborns",
                "nexus_peer_reborns_total", "robust", "reborns"),
    counter_row(&ContextMetrics::deadletters, "deadletters",
                "nexus_deadletters_total", "robust", "deadletters"),
    counter_row(&ContextMetrics::deadletter_drops, "deadletter_drops",
                "nexus_deadletter_drops_total", "robust", "dl_drops"),
    counter_row(&ContextMetrics::deadletter_redeliveries,
                "deadletter_redeliveries",
                "nexus_deadletter_redeliveries_total", "robust",
                "dl_redelivered"),
    // "ctx_": the per-method family nexus_send_errors_total is a different
    // quantity with a different label set.
    counter_row(&ContextMetrics::send_errors, "send_errors",
                "nexus_ctx_send_errors_total", "robust", "send_errors"),
    counter_row(&ContextMetrics::rpc_calls, "rpc_calls",
                "nexus_rpc_calls_total", "rpc", "calls"),
    counter_row(&ContextMetrics::rpc_deadline_exceeded,
                "rpc_deadline_exceeded", "nexus_rpc_deadline_exceeded_total",
                "rpc", "deadline_exceeded"),
    counter_row(&ContextMetrics::rpc_cancelled, "rpc_cancelled",
                "nexus_rpc_cancelled_total", "rpc", "cancelled"),
    counter_row(&ContextMetrics::rpc_rejected, "rpc_rejected",
                "nexus_rpc_rejected_total", "rpc", "rejected"),
    counter_row(&ContextMetrics::rpc_peer_died, "rpc_peer_died",
                "nexus_rpc_peer_died_total", "rpc", "peer_died"),
    counter_row(&ContextMetrics::rpc_late_replies, "rpc_late_replies",
                "nexus_rpc_late_replies_total", "rpc", "late_replies"),
    counter_row(&ContextMetrics::rpc_bulk_pull_chunks, "rpc_bulk_pull_chunks",
                "nexus_rpc_bulk_pull_chunks_total", "rpc", "bulk_chunks"),
    counter_row(&ContextMetrics::rpc_bulk_errors, "rpc_bulk_errors",
                "nexus_rpc_bulk_errors_total", "rpc", "bulk_errors"),
    hist_row(&ContextMetrics::rpc_call_ns, "rpc_call_ns", "nexus_rpc_call_ns"),
    hist_row(&ContextMetrics::rpc_bulk_mb_s, "rpc_bulk_mb_s",
             "nexus_rpc_bulk_mb_s"),
};

/// The histograms of MethodMetrics; its counters are the rows of
/// util::kMethodCounterRows.
inline constexpr MetricRow<MethodMetrics> kMethodHistRows[] = {
    hist_row(&MethodMetrics::send_bytes, "send_bytes", "nexus_send_bytes"),
    hist_row(&MethodMetrics::recv_bytes, "recv_bytes", "nexus_recv_bytes"),
    hist_row(&MethodMetrics::window_occupancy, "window_occupancy",
             "nexus_window_occupancy"),
};

/// Poll intervals are sampled once per this many poll_once() iterations
/// (as the windowed mean over the stride) to keep the poll loop cheap.
inline constexpr std::uint64_t kPollSampleEvery = 16;

class MetricsRegistry {
 public:
  /// Histograms are skipped when disabled; MethodCounters always count
  /// (they are the seed's enquiry data and cost a few adds per event).
  bool enabled() const noexcept {
    return enabled_.load(std::memory_order_relaxed);
  }
  void enable(bool on = true) noexcept {
    enabled_.store(on, std::memory_order_relaxed);
  }

  /// Find-or-create; returned references stay valid for the registry's
  /// lifetime (entries are never removed).
  MethodMetrics& method(std::uint32_t context, std::string_view name);
  ContextMetrics& context(std::uint32_t context);

  struct Snapshot {
    std::map<std::pair<std::uint32_t, std::string>, MethodMetrics> methods;
    std::map<std::uint32_t, ContextMetrics> contexts;

    const MethodMetrics* find_method(std::uint32_t context,
                                     std::string_view name) const;
    const ContextMetrics* find_context(std::uint32_t context) const;
  };
  Snapshot snapshot() const;

  /// Human-readable dump of every metric (counters + histogram summaries
  /// with p50/p90/p99/p999 columns).
  std::string to_text() const;
  /// Machine-readable dump (one JSON object; histograms as bucket arrays).
  std::string to_json() const;
  /// Prometheus text exposition format (0.0.4): counters as *_total with
  /// context/method labels, histograms as cumulative *_bucket/_sum/_count
  /// series built from the log2 buckets.  Empty histograms still emit their
  /// +Inf bucket so scrape targets stay well-formed from the first sample.
  std::string to_prometheus() const;

 private:
  std::atomic<bool> enabled_{true};
  mutable std::mutex mutex_;  // guards the maps, not the entries
  std::map<std::pair<std::uint32_t, std::string>,
           std::unique_ptr<MethodMetrics>>
      methods_;
  std::map<std::uint32_t, std::unique_ptr<ContextMetrics>> contexts_;
};

}  // namespace nexus::telemetry
