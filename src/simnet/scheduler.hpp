// Conservative discrete-event scheduler for SimProcesses.
//
// Dispatch rule: fire all wake timers that are due, then hand the baton to
// the runnable process with the smallest virtual clock (least-recently
// dispatched among ties).  A dispatched process receives a *horizon* --
// min(clocks of other runnable processes that are strictly ahead, earliest
// pending timer) -- and may advance its clock freely below it without any
// scheduler interaction, which makes tight poll loops nearly free.
//
// Tie handling: processes whose clocks are exactly equal are unordered; the
// dispatched one may run ahead of an equal-clock peer by at most the
// scheduler's *tie window* before yielding, which guarantees both progress
// (no zero-advance livelock) and fairness (a spinning process cannot starve
// a runnable peer).  Events a process would have observed inside that
// window may be detected up to one window late -- bounded error mirroring
// the nondeterminism of real concurrent hardware.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <queue>
#include <string>
#include <vector>

#include "simnet/process.hpp"
#include "simnet/time.hpp"
#include "util/error.hpp"

namespace nexus::simnet {

/// Thrown when every live process is blocked and no timers are pending.
class DeadlockError : public util::Error {
 public:
  explicit DeadlockError(const std::string& what)
      : util::Error("simnet deadlock: " + what) {}
};

/// Thrown inside process threads when the scheduler shuts down early (e.g.
/// another process raised an exception); unwinds the user stack cleanly.
struct SimAborted {};

class Scheduler {
 public:
  Scheduler() = default;
  ~Scheduler();

  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// Create a process.  Its thread starts immediately but the user function
  /// does not run until run() dispatches it.
  SimProcess& spawn(std::string name, std::function<void()> fn);

  /// Run to completion of all processes.  Rethrows the first process
  /// exception; throws DeadlockError if everything blocks.
  void run();

  /// Schedule a wake for `proc` at virtual time `t`.  If the target is
  /// blocked when the timer fires, it becomes runnable with clock >= t.
  /// Callable from process threads (e.g. on message post) or from outside.
  void wake_at(SimProcess& proc, Time t);

  /// Earliest pending timer, or kInfinity.
  Time next_timer() const;

  /// Monotone fire frontier: every timer with when <= fired_until() has been
  /// popped (fired or dropped).  A caller that armed a timer at t can test
  /// `t > fired_until()` to learn whether it is still pending, which lets
  /// mailboxes skip arming duplicate wakes for traffic already covered by an
  /// earlier unfired timer.
  Time fired_until() const noexcept { return fired_until_; }

  SimProcess& process(std::size_t i) { return *procs_.at(i); }

  /// True once run() has finished or shutdown began.
  bool shutting_down() const noexcept { return shutdown_; }

  /// Maximum overrun past an equal-clock peer (must be > 0).
  void set_tie_window(Time w) { tie_window_ = w > 0 ? w : 1; }
  Time tie_window() const noexcept { return tie_window_; }

 private:
  friend class SimProcess;

  struct Timer {
    Time when;
    std::uint64_t seq;
    SimProcess* proc;
    bool operator>(const Timer& o) const {
      return when != o.when ? when > o.when : seq > o.seq;
    }
  };

  /// Fire all timers with when <= t (wakes blocked targets).
  void fire_timers_until(Time t);

  /// Horizon for a process about to be dispatched.
  Time horizon_for(const SimProcess& p) const;

  /// Resume all parked threads with the abort flag so they unwind.
  void shutdown();

  std::vector<std::unique_ptr<SimProcess>> procs_;
  std::priority_queue<Timer, std::vector<Timer>, std::greater<Timer>> timers_;
  std::uint64_t timer_seq_ = 0;
  Time fired_until_ = -kInfinity;
  std::uint64_t dispatch_seq_ = 0;
  Time tie_window_ = 50 * kUs;
  std::vector<std::uint64_t> last_dispatch_;  ///< per-process, for LRU ties
  bool shutdown_ = false;
  bool running_ = false;
};

}  // namespace nexus::simnet
