// Streaming statistics and simple fixed-bin histograms.
//
// Used by the benchmark harnesses to report means/percentiles of one-way
// times and by the runtime's enquiry interface to expose per-method traffic
// counters.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace nexus::util {

/// Welford-style running mean/variance plus min/max.
class RunningStats {
 public:
  void add(double x) noexcept;
  void merge(const RunningStats& other) noexcept;
  void reset() noexcept { *this = RunningStats{}; }

  std::size_t count() const noexcept { return n_; }
  double mean() const noexcept { return n_ ? mean_ : 0.0; }
  double variance() const noexcept;
  double stddev() const noexcept;
  double min() const noexcept { return n_ ? min_ : 0.0; }
  double max() const noexcept { return n_ ? max_ : 0.0; }
  double sum() const noexcept { return sum_; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  double sum_ = 0.0;
};

/// Retains all samples; exact percentiles.  Fine for benchmark-scale counts.
class SampleSet {
 public:
  void add(double x) {
    samples_.push_back(x);
    sorted_ = false;
  }
  std::size_t count() const noexcept { return samples_.size(); }
  double mean() const noexcept;
  /// Exact percentile with linear interpolation between closest ranks
  /// (target rank = p/100 * (count-1)): percentile(0) is the minimum,
  /// percentile(100) the maximum, and a single-sample set returns that
  /// sample for every p.  Throws std::out_of_range on an empty set and
  /// std::invalid_argument when p is outside [0, 100] (including NaN).
  double percentile(double p) const;
  double min() const;
  double max() const;
  void reset() { samples_.clear(); }

 private:
  mutable std::vector<double> samples_;
  mutable bool sorted_ = false;
  void ensure_sorted() const;
};

/// Exponentially-weighted moving average with confidence/staleness decay.
///
/// The adaptive cost model (src/nexus/adapt/) uses one of these per
/// estimated quantity: `add(x, t)` folds a sample in with weight `alpha`
/// (the first sample seeds the mean exactly), and `confidence(t)` reports
/// how much the estimate should be trusted *right now* -- it rises towards
/// 1 as samples accumulate (by the same alpha schedule) and halves for
/// every `half_life` of virtual time since the last sample, so estimates
/// go stale instead of lying forever.  Time is whatever unit the caller
/// feeds in (the runtime uses virtual nanoseconds); there is no wall-clock
/// dependence, which keeps every consumer replayable.
class DecayingEwma {
 public:
  /// `alpha` in (0, 1]: weight of each new sample.  `half_life` <= 0
  /// disables staleness decay (confidence then depends on sample count
  /// only).
  explicit DecayingEwma(double alpha = 0.25, double half_life = 0.0) noexcept
      : alpha_(alpha), half_life_(half_life) {}

  void add(double x, double t) noexcept;
  void reset() noexcept;

  bool empty() const noexcept { return n_ == 0; }
  std::size_t count() const noexcept { return n_; }
  /// Current EWMA mean; 0 when no samples have been added.
  double value() const noexcept { return mean_; }
  /// Trust in value() at virtual time `t`, in [0, 1].  Before any sample:
  /// 0.  After n samples: 1-(1-alpha)^n, decayed by 2^-(dt/half_life)
  /// where dt is the time since the last sample (clamped at 0, so an
  /// out-of-order query never *raises* confidence).
  double confidence(double t) const noexcept;
  /// Virtual time of the most recent sample (0 when empty).
  double last_update() const noexcept { return last_; }

 private:
  double alpha_;
  double half_life_;
  double mean_ = 0.0;
  double weight_ = 0.0;  ///< 1-(1-alpha)^n, the undecayed confidence
  double last_ = 0.0;
  std::size_t n_ = 0;
};

/// Monotonically-labelled counter bundle used for enquiry functions.  Every
/// field has one row in kMethodCounterRows below.
struct MethodCounters {
  std::uint64_t sends = 0;
  std::uint64_t recvs = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t bytes_received = 0;
  std::uint64_t polls = 0;
  std::uint64_t poll_hits = 0;  ///< polls that found at least one message
  std::uint64_t send_errors = 0;   ///< sends that failed (transient or dead)
  std::uint64_t recv_corrupt = 0;  ///< received packets quarantined for
                                   ///< integrity failure (never dispatched)
  // Reliability-wrapper protocol counters (zero for plain transports).
  std::uint64_t rel_retransmits = 0;    ///< window entries resent on timeout
  std::uint64_t rel_dup_drops = 0;      ///< duplicate Data frames suppressed
  std::uint64_t rel_acks_sent = 0;      ///< standalone Ack frames emitted
  std::uint64_t rel_acks_received = 0;  ///< standalone Ack frames consumed
  std::uint64_t rel_epoch_rejects = 0;  ///< stale-incarnation Data frames and
                                        ///< ghost acks rejected

  void merge(const MethodCounters& o) noexcept;
};

/// One MethodCounters field and the names the exporters print for it.
struct MethodCounterRow {
  std::uint64_t MethodCounters::*field;
  std::string_view name;  ///< JSON key and to_text() label
  std::string_view prom;  ///< Prometheus counter family
};

/// The only place a method counter is named: merge() and every exporter
/// (telemetry/metrics.cpp) iterate this table, in this order, so adding a
/// counter is one field plus one row.
inline constexpr MethodCounterRow kMethodCounterRows[] = {
    {&MethodCounters::sends, "sends", "nexus_sends_total"},
    {&MethodCounters::recvs, "recvs", "nexus_recvs_total"},
    {&MethodCounters::bytes_sent, "bytes_sent", "nexus_bytes_sent_total"},
    {&MethodCounters::bytes_received, "bytes_received",
     "nexus_bytes_received_total"},
    {&MethodCounters::polls, "polls", "nexus_polls_total"},
    {&MethodCounters::poll_hits, "poll_hits", "nexus_poll_hits_total"},
    {&MethodCounters::send_errors, "send_errors", "nexus_send_errors_total"},
    {&MethodCounters::recv_corrupt, "recv_corrupt",
     "nexus_recv_corrupt_total"},
    {&MethodCounters::rel_retransmits, "rel_retransmits",
     "nexus_rel_retransmits_total"},
    {&MethodCounters::rel_dup_drops, "rel_dup_drops",
     "nexus_rel_dup_drops_total"},
    {&MethodCounters::rel_acks_sent, "rel_acks_sent",
     "nexus_rel_acks_sent_total"},
    {&MethodCounters::rel_acks_received, "rel_acks_received",
     "nexus_rel_acks_received_total"},
    {&MethodCounters::rel_epoch_rejects, "rel_epoch_rejects",
     "nexus_rel_epoch_rejects_total"},
};

inline void MethodCounters::merge(const MethodCounters& o) noexcept {
  for (const MethodCounterRow& r : kMethodCounterRows) {
    this->*r.field += o.*r.field;
  }
}

/// Format a double with fixed precision (helper for table printing).
std::string fmt_fixed(double v, int precision);

}  // namespace nexus::util
