#include "nexus/fabric.hpp"

#include <utility>

#include "nexus/context.hpp"

namespace nexus {

namespace {
// Pre-sharding fault-rng construction, preserved exactly for shard 0 so
// threads=1 runs draw the identical stream the single-threaded runtime did.
constexpr std::uint64_t kFaultRngSalt = 0xfa171fab71c5ull;
// Weyl constant decorrelating the additional shard streams.
constexpr std::uint64_t kShardStride = 0x9e3779b97f4a7c15ull;

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

/// Bridges a shard's scheduler to the fabric's cross-shard router: drains
/// the shard's inbound MPSC queue into local mailboxes at the top of every
/// scheduler iteration, and parks on the ShardGroup when the shard is
/// locally idle.
class SimFabric::ShardSource : public simnet::ExternalSource {
 public:
  ShardSource(SimFabric& fabric, std::size_t shard)
      : fabric_(fabric), shard_(shard) {}

  bool drain() override {
    auto& inbound = fabric_.shards_[shard_]->inbound;
    std::size_t n = 0;
    while (auto post = inbound.try_pop()) {
      post->box->post(post->arrival, std::move(post->pkt));
      ++n;
    }
    if (n != 0) fabric_.group_->note_drained(n);
    return n != 0;
  }

  simnet::ExternalIdle idle(bool /*locally_done*/) override {
    return fabric_.group_->park(shard_, [this] {
      return !fabric_.shards_[shard_]->inbound.empty();
    });
  }

 private:
  SimFabric& fabric_;
  const std::size_t shard_;
};

SimFabric::SimFabric(simnet::Topology topology)
    : Fabric(std::move(topology), /*simulated=*/true) {
  shards_.push_back(std::make_unique<Shard>());
  seed_fault_rngs();
}

SimFabric::~SimFabric() = default;

void SimFabric::init_shards(std::size_t n) {
  if (n == 0) n = 1;
  if (n == shards_.size()) return;
  if (!procs_by_ctx_.empty() || shards_[0]->scheduler.process_count() != 0) {
    throw util::Error("SimFabric::init_shards: processes already spawned");
  }
  shards_.clear();
  for (std::size_t i = 0; i < n; ++i) {
    shards_.push_back(std::make_unique<Shard>());
    shards_[i]->scheduler.set_shard_index(i);
  }
  if (n > 1) {
    group_ = std::make_unique<simnet::ShardGroup>(n);
    for (std::size_t i = 0; i < n; ++i) {
      shards_[i]->source = std::make_unique<ShardSource>(*this, i);
      shards_[i]->scheduler.set_external_source(shards_[i]->source.get());
    }
  } else {
    group_.reset();
  }
  seed_fault_rngs();
}

void SimFabric::register_process(ContextId id, simnet::SimProcess* proc) {
  if (procs_by_ctx_.size() <= id) procs_by_ctx_.resize(id + 1, nullptr);
  procs_by_ctx_[id] = proc;
}

simnet::SimProcess& SimFabric::process_of(ContextId id) {
  if (id >= procs_by_ctx_.size() || procs_by_ctx_[id] == nullptr) {
    throw util::Error("SimFabric: no process registered for context " +
                      std::to_string(id));
  }
  return *procs_by_ctx_[id];
}

void SimFabric::post_cross_shard(ContextId dst, simnet::Mailbox<Packet>& box,
                                 simnet::Time arrival, Packet pkt) {
  const std::size_t target = shard_of(dst);
  // Inflight accounting BEFORE the enqueue (termination-protocol contract:
  // the counter must cover the post for the whole window in which the
  // producing shard is provably unparked).
  group_->note_enqueue();
  shards_[target]->inbound.push(
      CrossShardPost{&box, arrival, std::move(pkt)});
  group_->wake(target);
}

Inbox& SimFabric::open_inbox(ContextId ctx, std::string_view method) {
  SimHost& h = host(ctx);
  return h.boxes
      .try_emplace(std::string(method), ctx, h, scheduler_for(ctx), *h.proc)
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
  // (ctx, partition, time), so any shard can evaluate them race-free.
  if (faults_.has_crashes() &&
      faults_.crashed(dst, topology().partition_of(dst), now)) {
    note_drop(from, via, pkt, wire, dst);
    return {DeliveryStatus::Dead, wire};
  }
  if (!faults_.empty()) {
    const simnet::FaultVerdict v = faults_.consult(
        via.name(), topology().partition_of(from.id()),
        topology().partition_of(dst), now, fault_rng_for(from.id()));
    if (v.failed()) {
      note_drop(from, via, pkt, wire, dst);
      return {v.dead ? DeliveryStatus::Dead : DeliveryStatus::Transient,
              wire};
    }
    if (v.corrupt) pkt.corrupted = true;
    arrival += v.extra_delay;
  }
  note_enqueue(from, via, pkt, wire, arrival - now);
  post_at(from.id(), dst, static_cast<SimInbox&>(to).box, arrival,
          std::move(pkt));
  return {DeliveryStatus::Ok, wire};
}

double SimFabric::inbound_drag(const Inbox& to) const {
  return static_cast<const SimInbox&>(to).host->inbound_drag.load(
      std::memory_order_relaxed);
}

Fabric::Backlog SimFabric::backlog(ContextId from, const Inbox& to) const {
  const SimInbox& s = static_cast<const SimInbox&>(to);
  // box.pending() is owned by the destination's home shard, so the queue
  // depth is visible to same-shard senders only (the per-shard congestion
  // view); in-flight bytes are an atomic every shard can read.
  return {same_shard(from, to.owner) ? s.box.pending() : 0,
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
  fault_seed_ = seed;
  seed_fault_rngs();
}

void SimFabric::seed_fault_rngs() {
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    shards_[i]->fault_rng =
        util::Rng(fault_seed_ ^ kFaultRngSalt ^ (kShardStride * i));
  }
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
