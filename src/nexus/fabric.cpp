#include "nexus/fabric.hpp"

#include <utility>

#include "nexus/context.hpp"

namespace nexus {

namespace {
// Salt separating the fault rng's stream from the other seeded models.
constexpr std::uint64_t kFaultRngSalt = 0xfa171fab71c5ull;

/// The inbox a host opened for `method`, or a MethodError.
template <typename Inboxes>
auto& existing(Inboxes& inboxes, std::string_view method) {
  auto it = inboxes.find(method);
  if (it == inboxes.end()) {
    throw util::MethodError("context has no inbox for method '" +
                            std::string(method) + "'");
  }
  return it->second;
}
}  // namespace

simnet::Mailbox<Packet>& SimHost::box(std::string_view method) {
  return existing(boxes, method).box;
}

Fabric::Fabric(simnet::Topology topology, bool simulated)
    : topology_(std::move(topology)), simulated_(simulated) {
  auto snapshot = std::make_unique<McastMap>();
  mcast_snapshot_.store(snapshot.get(), std::memory_order_release);
  mcast_retired_.push_back(std::move(snapshot));
}

Fabric::~Fabric() = default;

void Fabric::multicast_join(std::uint32_t group, ContextId ctx,
                            EndpointId ep) {
  std::lock_guard<std::mutex> lock(mcast_write_mutex_);
  auto next = std::make_unique<McastMap>(
      *mcast_snapshot_.load(std::memory_order_relaxed));
  (*next)[group].emplace_back(ctx, ep);
  mcast_snapshot_.store(next.get(), std::memory_order_release);
  mcast_retired_.push_back(std::move(next));
}

void Fabric::note_drop(Context& from, const CommModule& via,
                       const Packet& pkt, std::uint64_t wire,
                       ContextId peer) {
  if (!from.observing()) return;
  from.observe({from.now(), pkt.span, from.id(), telemetry::Phase::Drop,
                via.trace_label(), wire, peer, 0, pkt.trace});
}

void Fabric::note_enqueue(Context& from, const CommModule& via,
                          const Packet& pkt, std::uint64_t wire, Time delay) {
  // Enqueue is transport detail, not causal structure: it is sampled only
  // when span tracing is on, keeping the always-on flight path lean.
  if (!from.telemetry().tracer().enabled()) return;
  const Time now = from.now();
  from.observe({now, pkt.span, from.id(), telemetry::Phase::Enqueue,
                via.trace_label(), wire,
                static_cast<std::uint64_t>(now + delay), 0, pkt.trace});
}

SimFabric::SimFabric(simnet::Topology topology)
    : Fabric(std::move(topology), /*simulated=*/true) {
  set_faults({}, 0);
}

SimFabric::~SimFabric() = default;

Inbox& SimFabric::open_inbox(ContextId ctx, std::string_view method) {
  SimHost& h = host(ctx);
  return h.boxes
      .try_emplace(std::string(method), ctx, h, scheduler_, *h.proc)
      .first->second;
}

Inbox& SimFabric::inbox(ContextId ctx, std::string_view method) {
  return existing(host(ctx).boxes, method);
}

SendResult SimFabric::post(Context& from, const CommModule& via, Inbox& to,
                           Packet pkt, Time delay) {
  const ContextId dst = to.owner;
  const std::uint64_t wire = pkt.wire_size();
  const Time now = from.now();
  Time arrival = now + delay;
  // Crash rules (docs §14): a send toward a context inside its crash window
  // is the connection-refused analog -- a hard Dead verdict, independent of
  // the link-fault rules.  Crash predicates are pure functions of
  // (ctx, partition, time) and draw nothing from the fault rng.
  if (faults_.has_crashes() &&
      faults_.crashed(dst, topology().partition_of(dst), now)) {
    note_drop(from, via, pkt, wire, dst);
    return {DeliveryStatus::Dead, wire};
  }
  if (!faults_.empty()) {
    const simnet::FaultVerdict v = faults_.consult(
        via.name(), topology().partition_of(from.id()),
        topology().partition_of(dst), now, fault_rng_);
    if (v.failed()) {
      note_drop(from, via, pkt, wire, dst);
      return {v.dead ? DeliveryStatus::Dead : DeliveryStatus::Transient,
              wire};
    }
    if (v.corrupt) pkt.corrupted = true;
    arrival += v.extra_delay;
  }
  note_enqueue(from, via, pkt, wire, arrival - now);
  static_cast<SimInbox&>(to).box.post(arrival, std::move(pkt));
  return {DeliveryStatus::Ok, wire};
}

double SimFabric::inbound_drag(const Inbox& to) const {
  return static_cast<const SimInbox&>(to).host->inbound_drag.load(
      std::memory_order_relaxed);
}

Fabric::Backlog SimFabric::backlog(const Inbox& to) const {
  const SimInbox& s = static_cast<const SimInbox&>(to);
  return {s.box.pending(),
          s.host->tcp_inflight_bytes.load(std::memory_order_relaxed)};
}

void SimFabric::add_in_flight(Inbox& to, std::int64_t bytes) {
  std::atomic<std::uint64_t>& inflight =
      static_cast<SimInbox&>(to).host->tcp_inflight_bytes;
  if (bytes >= 0) {
    inflight.fetch_add(static_cast<std::uint64_t>(bytes),
                       std::memory_order_relaxed);
    return;
  }
  // Clamped subtract via CAS: concurrent senders may be adding, and the
  // counter must never wrap below zero.
  const auto out = static_cast<std::uint64_t>(-bytes);
  std::uint64_t cur = inflight.load(std::memory_order_relaxed);
  while (!inflight.compare_exchange_weak(cur, cur > out ? cur - out : 0,
                                         std::memory_order_relaxed)) {
  }
}

void SimFabric::set_faults(simnet::FaultPlan plan, std::uint64_t seed) {
  faults_ = std::move(plan);
  fault_rng_ = util::Rng(seed ^ kFaultRngSalt);
}

Inbox& RtFabric::open_inbox(ContextId ctx, std::string_view method) {
  RtHost& h = host(ctx);
  return h.queues.try_emplace(std::string(method), ctx, *h.activity)
      .first->second;
}

Inbox& RtFabric::inbox(ContextId ctx, std::string_view method) {
  return existing(host(ctx).queues, method);
}

SendResult RtFabric::post(Context& from, const CommModule& via, Inbox& to,
                          Packet pkt, Time /*delay*/) {
  const std::uint64_t wire = pkt.wire_size();
  if (fault_hook_) {
    const simnet::FaultVerdict v = fault_hook_(via.name(), from.id(), to.owner);
    if (v.failed()) {
      note_drop(from, via, pkt, wire, to.owner);
      return {v.dead ? DeliveryStatus::Dead : DeliveryStatus::Transient,
              wire};
    }
    if (v.corrupt) pkt.corrupted = true;
  }
  note_enqueue(from, via, pkt, wire, 0);
  RtInbox& in = static_cast<RtInbox&>(to);
  in.queue.push(std::move(pkt));
  in.activity->notify();
  return {DeliveryStatus::Ok, wire};
}

}  // namespace nexus
