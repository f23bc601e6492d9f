// The fabric under the communication modules, and its two implementations.
//
// Fabric is the one small interface a communication module sees
// (docs/ARCHITECTURE.md §3.5): open an inbox, post a packet into another
// context's inbox after a modelled delay, poll, charge modelled CPU, plus
// the few cost-model inputs only the simulator has.  Each method is
// written once against it (proto/methods.hpp) and runs on either fabric.
//
// The simulated fabric owns one conservative scheduler, whose process i is
// context i, and, per context, a SimHost with one arrival-ordered mailbox
// per method.  The scheduler runs one process at a time, so a post writes
// straight into the destination mailbox.
//
// The realtime fabric owns, per context, a RtHost with one lock-free MPSC
// packet queue per method (single consumer = the context's polling engine or
// its blocking-poller thread, never both -- the handoff is serialized by
// thread create/join) and an activity channel for idle waits.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "nexus/clock.hpp"
#include "nexus/types.hpp"
#include "simnet/fault.hpp"
#include "simnet/mailbox.hpp"
#include "simnet/scheduler.hpp"
#include "simnet/topology.hpp"
#include "util/error.hpp"
#include "util/mpsc_queue.hpp"
#include "util/rng.hpp"

namespace nexus {

class CommModule;
class Context;

/// One method's receive queue on one context, opened with
/// Fabric::open_inbox.  Modules hold it as a handle and pass it back to the
/// fabric that opened it; only that fabric reads the queue behind it.
struct Inbox {
  explicit Inbox(ContextId owner_ctx) : owner(owner_ctx) {}
  Inbox(const Inbox&) = delete;
  Inbox& operator=(const Inbox&) = delete;

  const ContextId owner;  ///< the context that polls this inbox
};

/// What a communication module needs from the fabric it runs on.  The
/// simulated and realtime fabrics implement it; a method written against
/// it runs on both.
class Fabric {
 public:
  using McastMembers = std::vector<std::pair<ContextId, EndpointId>>;
  using McastMap = std::map<std::uint32_t, McastMembers>;

  /// Incast inputs of a tcp-class transfer into one inbox.
  struct Backlog {
    std::uint64_t packets = 0;          ///< queued, not yet polled
    std::uint64_t bytes_in_flight = 0;  ///< toward the inbox's owner
  };

  Fabric(simnet::Topology topology, bool simulated);
  virtual ~Fabric();

  Fabric(const Fabric&) = delete;
  Fabric& operator=(const Fabric&) = delete;

  const simnet::Topology& topology() const noexcept { return topology_; }
  bool simulated() const noexcept { return simulated_; }

  // ---- inboxes -----------------------------------------------------------

  /// Open context `ctx`'s inbox for `method`, or return the one already
  /// open.  Called by ctx's own modules while the runtime builds contexts.
  virtual Inbox& open_inbox(ContextId ctx, std::string_view method) = 0;
  /// The inbox `ctx` opened for `method`; MethodError if it has none.
  virtual Inbox& inbox(ContextId ctx, std::string_view method) = 0;

  /// Send `pkt` from `from` over method `via` into `to`, arriving `delay`
  /// after `from`'s clock.  Crash rules and faults are consulted first: a
  /// failed verdict records a Drop and returns without posting.  Otherwise
  /// the Enqueue event is recorded (tracer on; aux = the arrival time) and
  /// the packet is queued.  The realtime fabric ignores `delay`.
  virtual SendResult post(Context& from, const CommModule& via, Inbox& to,
                          Packet pkt, Time delay) = 0;
  /// One packet whose arrival time has been reached, if any.
  virtual std::optional<Packet> poll(Inbox& in) = 0;
  /// Earliest future arrival in `in` (simulated fabric only).
  virtual std::optional<Time> earliest_arrival(const Inbox& in) const = 0;
  /// Realtime only: block until a packet arrives in `in`; nullopt after
  /// shutdown(in).
  virtual std::optional<Packet> blocking_poll(Inbox&) { return std::nullopt; }
  virtual void shutdown(Inbox&) {}

  // ---- modelled costs ----------------------------------------------------
  //
  // Only the simulated fabric models costs.  The realtime fabric pays them
  // for real, and RtClock::advance sleeps, so there every modelled cost
  // reads 0 and the cost-model inputs are neutral.

  Time modelled(Time cost) const noexcept { return simulated_ ? cost : 0; }
  void charge(ContextClock& clock, Time cpu) const {
    if (simulated_) clock.advance(cpu);
  }
  /// Bandwidth divisor on mpl-class transfers into `to`: its owner's
  /// expensive polls interfere with the drain (1.0 = none).
  virtual double inbound_drag(const Inbox&) const { return 1.0; }
  /// Incast inputs of inbox `to`.
  virtual Backlog backlog(const Inbox&) const { return {}; }
  /// Account tcp bytes entering (> 0) or leaving (< 0) inbox `to`'s owner.
  virtual void add_in_flight(Inbox&, std::int64_t) {}
  /// The shared-memory node of context `ctx`: ctx / node_size on the
  /// simulated fabric; every realtime context is a thread of one process,
  /// so all share node 0.
  virtual std::uint32_t node_of(ContextId, std::uint32_t) const { return 0; }

  // ---- multicast ---------------------------------------------------------

  /// Join `ctx`/`ep` to `group`.  Copy-on-write: the writer builds a fresh
  /// snapshot under a mutex and publishes it with one atomic store; retired
  /// snapshots stay alive until the fabric dies, so a concurrent sender's
  /// snapshot pointer never dangles.
  void multicast_join(std::uint32_t group, ContextId ctx, EndpointId ep);

  /// Wait-free read of the current membership map.  The returned reference
  /// is to an immutable snapshot: valid for the fabric's lifetime, possibly
  /// stale by one join (exactly the semantics of a real network's
  /// propagation delay).
  const McastMap& multicast_snapshot() const {
    return *mcast_snapshot_.load(std::memory_order_acquire);
  }

  /// Record a Drop (aux = `peer`) or an Enqueue (aux = the arrival time,
  /// `delay` after now) of `pkt` sent by `from` over `via`.  The one shape
  /// of each event on both fabrics; Enqueue is sampled only while span
  /// tracing is on.
  static void note_drop(Context& from, const CommModule& via,
                        const Packet& pkt, std::uint64_t wire, ContextId peer);
  static void note_enqueue(Context& from, const CommModule& via,
                           const Packet& pkt, std::uint64_t wire, Time delay);

 private:
  simnet::Topology topology_;
  const bool simulated_;
  std::mutex mcast_write_mutex_;
  std::atomic<const McastMap*> mcast_snapshot_;
  std::vector<std::unique_ptr<McastMap>> mcast_retired_;
};

struct SimHost;

/// A simulated inbox: an arrival-ordered mailbox of its owner's process.
struct SimInbox final : Inbox {
  SimInbox(ContextId owner_ctx, SimHost& h, simnet::Scheduler& sched,
           simnet::SimProcess& proc)
      : Inbox(owner_ctx), host(&h), box(sched, proc) {}

  SimHost* host;
  simnet::Mailbox<Packet> box;
};

/// Per-context endpoint of the simulated fabric.
struct SimHost {
  simnet::SimProcess* proc = nullptr;
  std::map<std::string, SimInbox, std::less<>> boxes;
  /// Interference drag on inbound MPL-class transfers caused by this host's
  /// expensive polls (1.0 = none); see Context::update_interference().
  /// Written by the owning context and read by its senders.  The scheduler
  /// serializes them, so the relaxed atomic is no synchronization edge,
  /// only a scalar cost-model input.
  std::atomic<double> inbound_drag{1.0};
  /// Bytes currently in flight toward this host over the TCP-class method;
  /// maintained by the tcp module for the incast-collapse model.  Senders
  /// add and the receiver subtracts, relaxed for the same reason.
  std::atomic<std::uint64_t> tcp_inflight_bytes{0};

  simnet::Mailbox<Packet>& box(std::string_view method);
};

class SimFabric final : public Fabric {
 public:
  explicit SimFabric(simnet::Topology topology);
  ~SimFabric() override;

  // ---- Fabric ------------------------------------------------------------

  Inbox& open_inbox(ContextId ctx, std::string_view method) override;
  Inbox& inbox(ContextId ctx, std::string_view method) override;
  SendResult post(Context& from, const CommModule& via, Inbox& to,
                  Packet pkt, Time delay) override;
  std::optional<Packet> poll(Inbox& in) override {
    SimInbox& s = static_cast<SimInbox&>(in);
    return s.box.poll(s.host->proc->now());
  }
  std::optional<Time> earliest_arrival(const Inbox& in) const override {
    return static_cast<const SimInbox&>(in).box.earliest();
  }
  double inbound_drag(const Inbox& to) const override;
  Backlog backlog(const Inbox& to) const override;
  void add_in_flight(Inbox& to, std::int64_t bytes) override;
  std::uint32_t node_of(ContextId ctx,
                        std::uint32_t node_size) const override {
    return ctx / node_size;
  }

  /// The one scheduler; its process i runs context i.
  simnet::Scheduler& scheduler() noexcept { return scheduler_; }

  SimHost& host(ContextId id) { return *hosts_.at(id); }
  void add_host(std::unique_ptr<SimHost> h) { hosts_.push_back(std::move(h)); }

  // ---- fault injection ---------------------------------------------------

  /// Deterministic fault-injection plan every simulated module consults at
  /// send time.  Mutable between runs and mid-run (the scheduler serializes
  /// sim processes).
  void set_faults(simnet::FaultPlan plan, std::uint64_t seed);
  simnet::FaultPlan& faults() noexcept { return faults_; }
  const simnet::FaultPlan& faults() const noexcept { return faults_; }

 private:
  simnet::Scheduler scheduler_;
  std::vector<std::unique_ptr<SimHost>> hosts_;

  simnet::FaultPlan faults_;
  /// The rng behind probabilistic fault rules.
  util::Rng fault_rng_;
};

/// A realtime inbox: a lock-free MPSC queue plus its owner's activity
/// channel, notified on every post.
struct RtInbox final : Inbox {
  RtInbox(ContextId owner_ctx, RtActivity& act)
      : Inbox(owner_ctx), activity(&act) {}

  RtActivity* activity;
  util::MpscQueue<Packet> queue;
};

/// Per-context endpoint of the realtime fabric.  Each method queue has many
/// producers (sender threads) and exactly one consumer at a time: the
/// context's polling engine, or the method's dedicated blocking-poller
/// thread while one is installed (Context::set_blocking_poller disables the
/// engine entry before starting the thread and re-enables it after joining,
/// so the consumer role moves across a happens-before edge).
struct RtHost {
  std::shared_ptr<RtActivity> activity = std::make_shared<RtActivity>();
  std::map<std::string, RtInbox, std::less<>> queues;
};

class RtFabric final : public Fabric {
 public:
  explicit RtFabric(simnet::Topology topology)
      : Fabric(std::move(topology), /*simulated=*/false) {}

  // ---- Fabric ------------------------------------------------------------

  Inbox& open_inbox(ContextId ctx, std::string_view method) override;
  Inbox& inbox(ContextId ctx, std::string_view method) override;
  SendResult post(Context& from, const CommModule& via, Inbox& to,
                  Packet pkt, Time delay) override;
  std::optional<Packet> poll(Inbox& in) override {
    return static_cast<RtInbox&>(in).queue.try_pop();
  }
  std::optional<Time> earliest_arrival(const Inbox&) const override {
    return std::nullopt;
  }
  std::optional<Packet> blocking_poll(Inbox& in) override {
    return static_cast<RtInbox&>(in).queue.pop_wait();
  }
  void shutdown(Inbox& in) override { static_cast<RtInbox&>(in).queue.close(); }

  RtHost& host(ContextId id) { return *hosts_.at(id); }
  void add_host(std::unique_ptr<RtHost> h) { hosts_.push_back(std::move(h)); }

  /// Fault-injection hook for the realtime fabric: consulted by post()
  /// before queueing a packet.  Must be installed before run() (sends
  /// happen on context threads) and must itself be thread-safe.
  /// extra_delay verdicts are ignored -- real time cannot be scripted.
  using FaultHook = std::function<simnet::FaultVerdict(
      std::string_view method, ContextId src, ContextId dst)>;
  void set_fault_hook(FaultHook hook) { fault_hook_ = std::move(hook); }

 private:
  std::vector<std::unique_ptr<RtHost>> hosts_;
  FaultHook fault_hook_;
};

}  // namespace nexus
