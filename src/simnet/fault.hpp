// Deterministic fault-injection plans for the communication fabric.
//
// A FaultPlan is a list of rules, each scoping one fault kind (drop, delay,
// corrupt, blackhole) to a method name, a (source partition, destination
// partition) pair, and a virtual-time window.  Modules consult the plan at
// send time with the scheduler clock and a seeded util::Rng, so a given
// (plan, seed, workload) triple always produces the same fault sequence --
// the chaos tests replay failures exactly.
//
// Fault semantics (documented in docs/ARCHITECTURE.md §9):
//   Blackhole  the link is hard-down: the send fails with a *dead* verdict
//              (the transport analog of ECONNREFUSED / link down).
//   Drop       the packet is lost but the failure is detected at the
//              sender (a *transient* verdict), so retry is safe.
//   Delay      delivery succeeds; the arrival time is pushed back.
//   Corrupt    delivery succeeds but the packet is flagged corrupted; the
//              receiver's integrity check quarantines it before dispatch.
// Undetectable loss stays the business of the unreliable modules (udp's own
// drop model), which is exactly why they report reliable() == false.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "simnet/time.hpp"
#include "util/rng.hpp"

namespace nexus::simnet {

enum class FaultKind : std::uint8_t { Drop, Delay, Corrupt, Blackhole };

/// Whole-context failure schedule: the target context is *down* for the
/// half-open window [from, until) -- it stops polling, its mailboxes are
/// dropped, and every in-memory protocol state is lost.  At `until` the
/// context restarts with its incarnation epoch bumped by one.  Unlike link
/// rules, crash rules are pure functions of (context, partition, time): any
/// context can evaluate them against the immutable plan without drawing
/// from the fault rng, so asking whether a peer is down never perturbs the
/// seeded fault sequence.  A permanent death is a window whose
/// `until` lies beyond the workload's horizon.
struct CrashRule {
  /// Target context id; any context when < 0 (then `partition` scopes it).
  std::int64_t context = -1;
  /// Target partition; -1 = any (only consulted when context < 0).
  int partition = -1;
  Time from = 0;
  Time until = kInfinity;

  bool matches(std::uint32_t ctx, int part) const noexcept {
    if (context >= 0) return static_cast<std::uint32_t>(context) == ctx;
    return partition < 0 || partition == part;
  }
};

/// One scoped fault schedule.  Empty method / -1 partitions mean "any";
/// the window is half-open [from, until).
struct FaultRule {
  FaultKind kind = FaultKind::Drop;
  std::string method;
  int src_partition = -1;
  int dst_partition = -1;
  Time from = 0;
  Time until = kInfinity;
  /// Per-send probability for Drop/Corrupt; Blackhole and Delay always
  /// apply inside their window.
  double probability = 1.0;
  /// Extra latency for Delay rules.
  Time delay = 0;

  bool matches(std::string_view m, int src, int dst, Time now) const {
    return now >= from && now < until &&
           (method.empty() || method == m) &&
           (src_partition < 0 || src_partition == src) &&
           (dst_partition < 0 || dst_partition == dst);
  }
};

/// Combined outcome of every matching rule for one send attempt.  Dead
/// dominates transient; delays accumulate; corruption is sticky.
struct FaultVerdict {
  bool dead = false;
  bool transient = false;
  bool corrupt = false;
  Time extra_delay = 0;

  bool failed() const noexcept { return dead || transient; }
};

class FaultPlan {
 public:
  /// True when no *link* rules exist.  Crash rules live in a separate list
  /// (see has_crashes()) so the link-fault fast paths keep their guard.
  bool empty() const noexcept { return rules_.empty(); }
  std::size_t size() const noexcept { return rules_.size(); }
  const std::vector<FaultRule>& rules() const noexcept { return rules_; }

  bool has_crashes() const noexcept { return !crash_rules_.empty(); }
  const std::vector<CrashRule>& crash_rules() const noexcept {
    return crash_rules_;
  }

  FaultPlan& add(CrashRule rule) {
    crash_rules_.push_back(rule);
    return *this;
  }

  /// Kill context `ctx` for [from, until); it restarts at `until` with a
  /// bumped incarnation.  Leave `until` at kInfinity for a permanent death.
  FaultPlan& crash(std::uint32_t ctx, Time from, Time until = kInfinity) {
    CrashRule r;
    r.context = static_cast<std::int64_t>(ctx);
    r.from = from;
    r.until = until;
    return add(r);
  }

  /// Kill every context of `partition` for [from, until).
  FaultPlan& crash_partition(int partition, Time from,
                             Time until = kInfinity) {
    CrashRule r;
    r.partition = partition;
    r.from = from;
    r.until = until;
    return add(r);
  }

  /// Is (ctx, partition) inside any crash window at `now`?  Pure: no rng,
  /// so any context may ask about any other.
  bool crashed(std::uint32_t ctx, int partition, Time now) const noexcept {
    for (const CrashRule& r : crash_rules_) {
      if (r.matches(ctx, partition) && now >= r.from && now < r.until)
        return true;
    }
    return false;
  }

  /// Latest `until` among the crash windows covering `now` -- the instant
  /// the context restarts (kInfinity when it never does).
  Time crash_end(std::uint32_t ctx, int partition, Time now) const noexcept {
    Time end = now;
    for (const CrashRule& r : crash_rules_) {
      if (r.matches(ctx, partition) && now >= r.from && now < r.until &&
          r.until > end) {
        end = r.until;
      }
    }
    return end;
  }

  /// Incarnation epoch of (ctx, partition) at `now`: 1 (first life) plus
  /// one per crash window already fully behind it.  Deterministic, so the
  /// wire protocol can stamp it without coordination.
  std::uint32_t incarnation(std::uint32_t ctx, int partition,
                            Time now) const noexcept {
    std::uint32_t inc = 1;
    for (const CrashRule& r : crash_rules_) {
      if (r.matches(ctx, partition) && r.until != kInfinity && now >= r.until)
        ++inc;
    }
    return inc;
  }

  FaultPlan& add(FaultRule rule) {
    rules_.push_back(std::move(rule));
    return *this;
  }

  /// Hard-down window for `method` (all partition pairs unless narrowed via
  /// the returned rule): every send fails dead.
  FaultPlan& blackhole(std::string method, Time from, Time until = kInfinity) {
    FaultRule r;
    r.kind = FaultKind::Blackhole;
    r.method = std::move(method);
    r.from = from;
    r.until = until;
    return add(std::move(r));
  }

  /// Detected loss: each send fails transiently with probability `p`.
  FaultPlan& drop(std::string method, double p, Time from = 0,
                  Time until = kInfinity) {
    FaultRule r;
    r.kind = FaultKind::Drop;
    r.method = std::move(method);
    r.probability = p;
    r.from = from;
    r.until = until;
    return add(std::move(r));
  }

  /// Extra one-way latency inside the window.
  FaultPlan& delay(std::string method, Time extra, Time from = 0,
                   Time until = kInfinity) {
    FaultRule r;
    r.kind = FaultKind::Delay;
    r.method = std::move(method);
    r.delay = extra;
    r.from = from;
    r.until = until;
    return add(std::move(r));
  }

  /// Payload corruption (flagged, quarantined at the receiver) with
  /// probability `p`.
  FaultPlan& corrupt(std::string method, double p, Time from = 0,
                     Time until = kInfinity) {
    FaultRule r;
    r.kind = FaultKind::Corrupt;
    r.method = std::move(method);
    r.probability = p;
    r.from = from;
    r.until = until;
    return add(std::move(r));
  }

  /// Evaluate every rule against one send attempt.  Probabilistic rules
  /// draw from `rng` only while their window matches, keeping the stream
  /// of random numbers -- and therefore the whole simulation -- stable
  /// when windows move.
  FaultVerdict consult(std::string_view method, int src_partition,
                       int dst_partition, Time now, util::Rng& rng) const {
    FaultVerdict v;
    for (const FaultRule& r : rules_) {
      if (!r.matches(method, src_partition, dst_partition, now)) continue;
      switch (r.kind) {
        case FaultKind::Blackhole:
          v.dead = true;
          break;
        case FaultKind::Drop:
          if (rng.chance(r.probability)) v.transient = true;
          break;
        case FaultKind::Corrupt:
          if (rng.chance(r.probability)) v.corrupt = true;
          break;
        case FaultKind::Delay:
          v.extra_delay += r.delay;
          break;
      }
    }
    return v;
  }

 private:
  std::vector<FaultRule> rules_;
  std::vector<CrashRule> crash_rules_;
};

}  // namespace nexus::simnet
