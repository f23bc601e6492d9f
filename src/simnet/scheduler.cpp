#include "simnet/scheduler.hpp"

#include <algorithm>
#include <cassert>

namespace nexus::simnet {

Scheduler::~Scheduler() { shutdown(); }

SimProcess& Scheduler::spawn(std::string name, std::function<void()> fn) {
  assert(!running_ && "spawn() is only valid before run()");
  const auto id = static_cast<std::uint32_t>(procs_.size());
  procs_.push_back(
      std::make_unique<SimProcess>(*this, id, std::move(name), std::move(fn)));
  last_dispatch_.push_back(0);
  return *procs_.back();
}

void Scheduler::wake_at(SimProcess& proc, Time t) {
  timers_.push(Timer{t, timer_seq_++, &proc});
  // If a running process schedules a wake for another process, clamp its own
  // horizon: the woken process may act (and send) from time t onward.
  if (SimProcess* cur = SimProcess::current(); cur != nullptr && cur != &proc) {
    cur->horizon_ = std::min(cur->horizon_, t);
  }
}

Time Scheduler::next_timer() const {
  return timers_.empty() ? kInfinity : timers_.top().when;
}

void Scheduler::fire_timers_until(Time t) {
  while (!timers_.empty() && timers_.top().when <= t) {
    Timer timer = timers_.top();
    timers_.pop();
    if (timer.proc->state() == SimProcess::State::Blocked) {
      timer.proc->wake(timer.when);
    }
    // Timers for runnable/running/finished processes are stale; drop them.
  }
  if (t > fired_until_) fired_until_ = t;
}

Time Scheduler::horizon_for(const SimProcess& p) const {
  Time h = next_timer();
  for (const auto& other : procs_) {
    if (other.get() == &p) continue;
    if (other->state() != SimProcess::State::Runnable) continue;
    if (other->clock_ > p.clock_) {
      h = std::min(h, other->clock_);
    } else {
      // Equal-clock peer: allow a bounded overrun so the dispatched process
      // makes progress but cannot starve the peer (see header).
      h = std::min(h, other->clock_ + tie_window_);
    }
  }
  return h;
}

void Scheduler::run() {
  running_ = true;
  while (true) {
    // Pick the runnable process with the smallest clock (LRU on ties).
    SimProcess* next = nullptr;
    for (const auto& p : procs_) {
      if (p->state() != SimProcess::State::Runnable) continue;
      if (next == nullptr || p->clock_ < next->clock_ ||
          (p->clock_ == next->clock_ &&
           last_dispatch_[p->id()] < last_dispatch_[next->id()])) {
        next = p.get();
      }
    }
    const Time tmin = next != nullptr ? next->clock_ : kInfinity;

    // Timers due at or before the dispatch time may wake blocked processes
    // with smaller clocks; fire them and re-evaluate.
    if (!timers_.empty() && timers_.top().when <= tmin) {
      fire_timers_until(timers_.top().when);
      continue;
    }

    if (next == nullptr) {
      bool any_blocked = false;
      std::string blocked;
      for (const auto& p : procs_) {
        if (p->state() != SimProcess::State::Blocked) continue;
        if (any_blocked) blocked += ", ";
        blocked += p->name();
        any_blocked = true;
      }
      if (any_blocked) {
        running_ = false;
        shutdown();
        throw DeadlockError(
            "all live processes blocked with no pending timers: " + blocked);
      }
      break;  // all processes finished
    }

    last_dispatch_[next->id()] = ++dispatch_seq_;
    next->resume(horizon_for(*next));

    if (next->error_) {
      std::exception_ptr err = next->error_;
      running_ = false;
      shutdown();
      std::rethrow_exception(err);
    }
  }
  running_ = false;
}

void Scheduler::shutdown() {
  if (shutdown_) return;
  shutdown_ = true;
  for (const auto& p : procs_) {
    if (p->state() != SimProcess::State::Finished) {
      p->abort_and_join();
    }
  }
}

}  // namespace nexus::simnet
