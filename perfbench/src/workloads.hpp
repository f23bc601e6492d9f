// The benchmark's workloads and the helpers they share: the timed-phase
// bracket and the enquiry-API counter snapshot.
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "common.hpp"
#include "cpu.hpp"
#include "ledger.hpp"
#include "nexus/runtime.hpp"

namespace pb {

void run_climate(const Args& args, Result& r);
void run_rsr_stream(const Args& args, Result& r);
void run_rt_stream(const Args& args, Result& r);
void run_rpc_lossy(const Args& args, Result& r);

/// simnet::Scheduler dispatch probe: wall ns per baton hand-off with
/// `procs` processes each yielding `yields` times.
double dispatch_probe_ns(int procs, int yields);

/// Brackets one episode's timed phase: wall time, rusage, allocations and
/// the ledger window all open and close together.
class TimedPhase {
 public:
  explicit TimedPhase(Result& r) : r_(r) {}
  void start() {
    u0_ = Usage::now();
    a0_ = alloc_count();
    Ledger::get().start();
    t0_ = wall_ns();
  }
  void stop() {
    const std::int64_t t1 = wall_ns();
    Ledger::get().stop();
    const double s = static_cast<double>(t1 - t0_) * 1e-9;
    r_.timed_s += s;
    r_.allocs += alloc_count() - a0_;
    r_.add_usage(u0_, Usage::now());
  }

 private:
  Result& r_;
  Usage u0_;
  std::uint64_t a0_ = 0;
  std::int64_t t0_ = 0;
};

/// Enquiry-API counters summed over every context of a runtime:
/// method_counters() per method, rsrs_delivered(), polling iterations,
/// and the telemetry registry's failover / RPC counters.
struct Counters {
  std::map<std::string, double> v;

  static Counters read(nexus::Runtime& rt);
  Counters operator-(const Counters& o) const;
  Counters& operator+=(const Counters& o);
  double operator[](const std::string& k) const {
    auto it = v.find(k);
    return it == v.end() ? 0.0 : it->second;
  }
  /// Per-op counter metrics into `layer` (nexus.*, rel.*, rpc counters).
  void emit(double ops, std::map<std::string, double>& layer) const;
};

}  // namespace pb
