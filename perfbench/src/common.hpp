// Shared pieces of the benchmark driver: arguments, the seeded generator,
// wall-clock and rusage sampling, percentiles, and the result record every
// workload fills in.
#pragma once

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace pb {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;  ///< length of the timed phase (summed over episodes)
  bool trace = false;     ///< per-layer spans, counters and probes
  bool tiny = false;      ///< smoke size: one short episode per workload
};

inline std::int64_t wall_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// splitmix64: the only randomness the benchmark uses; every workload's
/// op sequence is drawn from it up front.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : s_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (s_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, n).
  std::uint64_t below(std::uint64_t n) { return next() % n; }
  /// Index drawn with the given integer weights.
  std::size_t pick(const std::vector<unsigned>& weights) {
    unsigned total = 0;
    for (unsigned w : weights) total += w;
    auto r = static_cast<unsigned>(below(total));
    for (std::size_t i = 0; i < weights.size(); ++i) {
      if (r < weights[i]) return i;
      r -= weights[i];
    }
    return weights.size() - 1;
  }

 private:
  std::uint64_t s_;
};

/// Process-wide resource usage (all threads).
struct Usage {
  double user_s = 0.0;
  double sys_s = 0.0;
  long vcsw = 0;     ///< voluntary context switches (blocking hand-offs)
  long maxrss_kb = 0;

  static Usage now() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    Usage u;
    u.user_s = static_cast<double>(ru.ru_utime.tv_sec) +
               static_cast<double>(ru.ru_utime.tv_usec) * 1e-6;
    u.sys_s = static_cast<double>(ru.ru_stime.tv_sec) +
              static_cast<double>(ru.ru_stime.tv_usec) * 1e-6;
    u.vcsw = ru.ru_nvcsw;
    u.maxrss_kb = ru.ru_maxrss;
    return u;
  }
};

/// Linear-interpolated percentile, q in [0, 1].  Sorts `v` in place.
inline double percentile(std::vector<double>& v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

/// The highest percentile, up to p99, that still has at least ten samples
/// beyond it; never below the median.  Returns {value, quantile used}.
inline std::pair<double, double> tail_percentile(std::vector<double>& v) {
  const double n = static_cast<double>(v.size());
  const double q = std::clamp(n > 0 ? (n - 10.0) / n : 0.5, 0.5, 0.99);
  return {percentile(v, q), q};
}

/// Everything one workload run measured.  Timed-phase totals accumulate
/// over episodes; the end-to-end and per-layer metrics are derived from
/// them in main.cpp.
struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;  ///< ops issued in timed phases
  std::uint64_t failed = 0;     ///< ops that failed or failed a check
  std::uint64_t ops = 0;        ///< ops completed Ok in timed phases
  double timed_s = 0.0;         ///< wall seconds inside timed phases
  std::vector<double> setup_s;  ///< one per episode
  std::vector<double> lat_us;   ///< latency samples (workload-defined)
  std::string sample;           ///< what one latency sample is
  Usage cpu;                    ///< rusage deltas summed over timed phases
  std::uint64_t allocs = 0;     ///< heap allocations in timed phases
  std::vector<std::string> errors;
  /// Per-layer metrics filled by the workload (traced runs only).
  std::map<std::string, double> layer;

  void fail(std::string why) {
    correct = false;
    if (errors.size() < 8) errors.push_back(std::move(why));
  }
  void add_usage(const Usage& a, const Usage& b) {
    cpu.user_s += b.user_s - a.user_s;
    cpu.sys_s += b.sys_s - a.sys_s;
    cpu.vcsw += b.vcsw - a.vcsw;
  }
};

}  // namespace pb
