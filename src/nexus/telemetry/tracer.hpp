// Bounded ring-buffer event tracer for the RSR lifecycle.
//
// One (trace, span) pair is allocated per RSR at send time and travels with
// the packet (Packet::trace / Packet::span): the trace id names the whole
// causal chain and never changes, while each forwarding hop opens a child
// span whose `parent` field points at the span it continues.  The send in
// one context and the dispatch in another are therefore linked even across
// relays, retries, and retransmits.  The tracer is
// runtime-off by default: every instrumented site pays exactly one relaxed
// atomic load (enabled()) on the hot path.  When enabled, record() claims a
// slot in a per-context-stripe ring (stripe = context % 16, each stripe its
// own mutex + ring) so realtime context threads never contend on one
// tracer lock; a global sequence counter stamped per event lets events()
// merge the stripes back into exact record order.  Stripe
// rings are allocated lazily at full capacity on a stripe's first event --
// an idle stripe costs nothing.  When a ring wraps, the oldest events of
// that stripe are overwritten and dropped() counts what was lost (no
// allocation after the first event, no unbounded growth).
//
// Exports: Chrome about://tracing JSON (spans become async begin/end pairs
// matched by id across contexts) and a compact text timeline for terminals.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "simnet/time.hpp"

namespace nexus::telemetry {

using Time = simnet::Time;
using SpanId = std::uint64_t;

/// Lifecycle stages of an RSR as seen by the instrumentation points.
enum class Phase : std::uint8_t {
  Send,         ///< context handed the packet to a method's send()
  Select,       ///< method selection ran for a link (first use)
  Enqueue,      ///< module posted the packet into the destination queue
  PollHit,      ///< a poll of a method found at least one packet
  Dispatch,     ///< handler invocation begins at the destination
  HandlerDone,  ///< handler invocation returned
  Forward,      ///< a forwarding node re-sent a packet toward its dst
  Drop,         ///< an unreliable method lost the packet
  Failover,     ///< health tracker declared a method dead; re-selecting
  Suspect,      ///< first failure observed on a healthy method/target pair
  Restore,      ///< a probe succeeded on a quarantined method; back in use
  Retransmit,   ///< a reliability wrapper resent a timed-out window entry
  Ack,          ///< a reliability wrapper emitted a standalone ack frame
  DupDrop,      ///< a reliability wrapper suppressed a duplicate data frame
  AdaptRerank,  ///< adaptive engine reordered a link's descriptor table
  AdaptSwitch,  ///< adaptive selector changed a payload class's method
  AdaptProbe,   ///< adaptive engine sent an active timing probe
  PeerDead,     ///< every method to a peer dead past grace; peer declared down
  PeerReborn,   ///< a send to a declared-dead peer succeeded (or the local
                ///< context itself reincarnated; aux = new epoch)
  Deadletter,   ///< an RSR drained into the dead-letter queue
  RpcCall,      ///< rpc client sent a request (aux = call id)
  RpcReply,     ///< rpc server sent (or client received) a reply
  RpcExpire,    ///< rpc call completed DeadlineExceeded locally
  RpcCancel,    ///< rpc call cancelled (client side or cancel frame seen)
  RpcReject,    ///< rpc admission control shed a request
  RpcPull,      ///< rpc server issued a bulk chunk pull
  RpcChunk,     ///< rpc bulk chunk arrived at the puller
  Custom,       ///< application-recorded marker
};

const char* phase_name(Phase p) noexcept;

/// One trace record.  Fixed-size (labels are interned to small ids) so the
/// ring is a flat array and recording never allocates.
struct Event {
  Time when = 0;             ///< context-local clock (virtual or wall), ns
  SpanId span = 0;           ///< RSR correlation id; 0 = not span-scoped
  std::uint32_t context = 0; ///< context that recorded the event
  Phase phase = Phase::Custom;
  std::uint16_t label = 0;   ///< interned name (method, handler, marker)
  std::uint64_t size = 0;    ///< wire or payload bytes, if meaningful
  std::uint64_t aux = 0;     ///< phase-specific: target/source context,
                             ///< scheduled arrival time, ...
  // Appended after the positional fields above so existing aggregate
  // initializers keep compiling; default 0 = "not causally scoped".
  SpanId parent = 0;         ///< span this event's span continues (forwarding)
  std::uint64_t trace = 0;   ///< causal chain id; constant across all hops
};

class Tracer {
 public:
  static constexpr std::size_t kDefaultCapacity = 1 << 16;

  explicit Tracer(std::size_t capacity = kDefaultCapacity);

  /// The one hot-path check: instrumented sites do nothing else when off.
  bool enabled() const noexcept {
    return enabled_.load(std::memory_order_relaxed);
  }
  void enable(bool on = true) noexcept {
    enabled_.store(on, std::memory_order_relaxed);
  }

  /// Resize the rings (drops recorded events).  Capacity is per stripe and
  /// clamped to >= 8: a single-context workload retains exactly `capacity`
  /// newest events, same as the pre-striping tracer.
  void set_capacity(std::size_t capacity);
  std::size_t capacity() const;

  /// Allocate a fresh span id (never returns 0).
  SpanId next_span() noexcept {
    return next_span_.fetch_add(1, std::memory_order_relaxed);
  }

  /// Allocate a fresh trace id (never returns 0).  One per RSR; every hop,
  /// retry, and retransmit of that RSR carries the same trace id.
  std::uint64_t next_trace() noexcept {
    return next_trace_.fetch_add(1, std::memory_order_relaxed);
  }

  /// Intern a label string, returning a stable small id.  Cold path: call
  /// once per distinct method/handler name, not per event.
  std::uint16_t intern(std::string_view label);
  /// Name for an interned id ("?" for unknown ids).
  std::string label_name(std::uint16_t id) const;

  void record(const Event& ev);
  /// Application-facing marker, e.g. phase boundaries of an experiment.
  void record_custom(Time when, std::uint32_t context, std::string_view what);

  /// Snapshot of retained events, oldest first.
  std::vector<Event> events() const;
  /// Total events ever recorded (including overwritten ones).
  std::uint64_t recorded() const;
  /// Events lost to ring wrap-around.
  std::uint64_t dropped() const;
  void clear();

  /// Chrome about://tracing JSON ({"traceEvents": [...]}).  Each event is an
  /// instant; span-carrying Send/Dispatch pairs additionally emit async
  /// begin/end records matched by span id across contexts (pids), Forward
  /// events close the parent span and open the child, and flow arrows
  /// (ph s/t/f, id = trace) connect the hops.  Top-level `otherData` carries
  /// `trace_recorded` / `trace_dropped` so ring overflow is visible in the
  /// artifact itself.
  std::string chrome_json() const;
  /// Compact human-readable timeline, time-ordered.
  std::string text_timeline() const;

 private:
  /// Contexts map to stripes round-robin; 16 stripes bound the worst-case
  /// lock contention regardless of world size.
  static constexpr std::size_t kStripes = 16;

  struct Stripe {
    mutable std::mutex mutex;
    std::vector<Event> ring;          ///< empty until the first event
    std::vector<std::uint64_t> seqs;  ///< global sequence per ring slot
    std::uint64_t head = 0;  ///< stripe total; next slot = head % ring.size()
    bool warned_wrap = false;
  };

  std::vector<std::string> labels_snapshot() const;

  std::atomic<bool> enabled_{false};
  std::atomic<SpanId> next_span_{1};
  std::atomic<std::uint64_t> next_trace_{1};
  std::atomic<std::uint64_t> seq_{0};  ///< global record order
  std::atomic<std::size_t> cap_{kDefaultCapacity};  ///< per-stripe slots
  mutable Stripe stripes_[kStripes];
  mutable std::mutex label_mutex_;  // guards labels_, label_ids_
  std::vector<std::string> labels_;
  std::map<std::string, std::uint16_t, std::less<>> label_ids_;
};

}  // namespace nexus::telemetry
