#include "proto/methods.hpp"

#include <algorithm>

#include "proto/codec.hpp"
#include "util/error.hpp"
#include "util/log.hpp"

namespace nexus::proto {

namespace {
LinkCosts tcp_class(const SimCostParams& c) {
  return {c.tcp_latency, c.tcp_poll_cost, c.tcp_send_cpu, c.tcp_mb_s};
}
LinkCosts udp_class(const SimCostParams& c) {
  return {c.udp_latency, c.udp_poll_cost, c.udp_send_cpu, c.udp_mb_s};
}
}  // namespace

MethodModule::MethodModule(Context& ctx, std::string name, LinkCosts costs,
                           int rank)
    : ctx_(&ctx),
      fabric_(&ctx.runtime().fabric()),
      name_(std::move(name)),
      costs_(costs),
      rank_(rank) {}

int MethodModule::my_partition() const {
  return fabric_->topology().partition_of(ctx_->id());
}

void MethodModule::initialize(Context& ctx) {
  inbox_ = &fabric_->open_inbox(ctx.id(), name_);
}

CommDescriptor MethodModule::local_descriptor() const {
  return CommDescriptor{name_, ctx_->id(), {}};
}

bool MethodModule::applicable(const CommDescriptor& remote) const {
  return remote.method == name_;
}

CommDescriptor MethodModule::descriptor_u32(std::uint32_t value) const {
  util::PackBuffer pb;
  pb.put_u32(value);
  return CommDescriptor{name_, ctx_->id(), pb.take()};
}

std::uint32_t MethodModule::data_u32(const CommDescriptor& d) {
  util::UnpackBuffer ub(d.data);
  return ub.get_u32();
}

std::unique_ptr<CommObject> MethodModule::connect(
    const CommDescriptor& remote) {
  return std::make_unique<Conn>(*this, remote, remote.context);
}

std::optional<Packet> MethodModule::poll() { return fabric_->poll(*inbox_); }

std::optional<Time> MethodModule::earliest_arrival() const {
  return fabric_->earliest_arrival(*inbox_);
}

std::optional<Packet> MethodModule::blocking_poll() {
  return fabric_->blocking_poll(*inbox_);
}

void MethodModule::shutdown_blocking() { fabric_->shutdown(*inbox_); }

SendResult MethodModule::send(CommObject& conn, Packet packet) {
  return transmit(route(static_cast<Conn&>(conn)), std::move(packet));
}

Time MethodModule::wire_delay(std::uint64_t wire, double bw_divisor) const {
  return costs_.latency + simnet::transfer_time(wire, costs_.mb_s / bw_divisor);
}

SendResult MethodModule::transmit(Inbox& to, Packet packet,
                                  double bw_divisor) {
  charge(costs_.send_cpu);
  const Time delay = wire_delay(packet.wire_size(), bw_divisor);
  return fabric_->post(*ctx_, *this, to, std::move(packet), delay);
}

// ---------------------------------------------------------------- local ---

LocalModule::LocalModule(Context& ctx)
    : MethodModule(ctx, "local",
                   LinkCosts{ctx.costs().local_latency,
                             ctx.costs().local_poll_cost,
                             ctx.costs().local_send_cpu,
                             ctx.costs().local_mb_s},
                   0) {}

bool LocalModule::applicable(const CommDescriptor& remote) const {
  return remote.method == name() && remote.context == ctx_->id();
}

// ------------------------------------------------------------------ shm ---

ShmModule::ShmModule(Context& ctx)
    : MethodModule(ctx, "shm",
                   LinkCosts{ctx.costs().shm_latency,
                             ctx.costs().shm_poll_cost,
                             ctx.costs().shm_send_cpu, ctx.costs().shm_mb_s},
                   1),
      node_size_(static_cast<std::uint32_t>(
          std::max<std::int64_t>(1, ctx.config().get_int("shm.node_size", 1)))) {}

CommDescriptor ShmModule::local_descriptor() const {
  return descriptor_u32(fabric_->node_of(ctx_->id(), node_size_));
}

bool ShmModule::applicable(const CommDescriptor& remote) const {
  return remote.method == name() &&
         data_u32(remote) == fabric_->node_of(ctx_->id(), node_size_);
}

// ------------------------------------------------------- myrinet / mpl ---

CommDescriptor PartitionModule::local_descriptor() const {
  // Paper §3.1: an MPL descriptor holds a node number and a session id
  // distinguishing SP partitions; the partition id plays both roles here.
  return descriptor_u32(static_cast<std::uint32_t>(my_partition()));
}

bool PartitionModule::applicable(const CommDescriptor& remote) const {
  return remote.method == name() &&
         static_cast<int>(data_u32(remote)) == my_partition();
}

MyrinetModule::MyrinetModule(Context& ctx)
    : PartitionModule(ctx, "myrinet",
                      LinkCosts{ctx.costs().myrinet_latency,
                                ctx.costs().myrinet_poll_cost,
                                ctx.costs().myrinet_send_cpu,
                                ctx.costs().myrinet_mb_s},
                      2) {}

MplModule::MplModule(Context& ctx)
    : PartitionModule(ctx, "mpl",
                      LinkCosts{ctx.costs().mpl_latency,
                                ctx.costs().mpl_poll_cost,
                                ctx.costs().mpl_send_cpu,
                                ctx.costs().mpl_mb_s},
                      3) {}

SendResult MplModule::send(CommObject& conn, Packet packet) {
  Inbox& to = route(static_cast<Conn&>(conn));
  // Kernel-call interference (paper §3.3): the receiver's TCP polling slows
  // the drain of this transfer; modelled as a bandwidth divisor.
  return transmit(to, std::move(packet), fabric_->inbound_drag(to));
}

// ------------------------------------------------------------------ tcp ---

TcpModule::TcpModule(Context& ctx)
    : MethodModule(ctx, "tcp", tcp_class(ctx.costs()), 6),
      incast_threshold_(ctx.costs().tcp_incast_threshold),
      incast_bytes_(ctx.costs().tcp_incast_bytes),
      incast_stall_(ctx.costs().tcp_incast_stall) {}

CommDescriptor TcpModule::local_descriptor() const {
  // The landing context differs from this context when the partition has a
  // forwarding node: external senders address the forwarder, which re-sends
  // over MPL (paper §3.3).
  ContextId landing = ctx_->id();
  if (auto fwd = ctx_->runtime().forwarder_of(ctx_->id())) landing = *fwd;
  return descriptor_u32(landing);
}

std::unique_ptr<CommObject> TcpModule::connect(const CommDescriptor& remote) {
  return std::make_unique<Conn>(*this, remote, data_u32(remote));
}

ContextId TcpModule::landing_context(const CommDescriptor& remote) const {
  return data_u32(remote);
}

SendResult TcpModule::send(CommObject& conn, Packet packet) {
  Inbox& to = route(static_cast<Conn&>(conn));
  charge(costs_.send_cpu);
  const std::uint64_t wire = packet.wire_size();
  Time delay = wire_delay(wire);
  if (incast_stall_ > 0) {
    // Incast model: a receiver with a deep queue and many bytes in flight
    // stalls each further transfer quadratically in the excess.
    const Fabric::Backlog load = fabric_->backlog(to);
    if (load.packets > incast_threshold_ &&
        load.bytes_in_flight > incast_bytes_) {
      const auto excess = static_cast<Time>(load.packets - incast_threshold_);
      delay += excess * excess * incast_stall_;
    }
  }
  const SendResult r =
      fabric_->post(*ctx_, *this, to, std::move(packet), delay);
  // A failed send never reached the destination's receive window, so it
  // must not contribute to the incast inflight accounting.
  if (r.ok()) fabric_->add_in_flight(to, static_cast<std::int64_t>(wire));
  return r;
}

std::optional<Packet> TcpModule::poll() {
  auto pkt = MethodModule::poll();
  if (pkt) {
    fabric_->add_in_flight(*inbox_,
                           -static_cast<std::int64_t>(pkt->wire_size()));
  }
  return pkt;
}

// ------------------------------------------------------------------ udp ---

UdpModule::UdpModule(Context& ctx)
    : MethodModule(ctx, "udp", udp_class(ctx.costs()), 5),
      rng_(ctx.runtime().options().seed ^ (0x9e37ull * (ctx.id() + 1))),
      drop_prob_(ctx.costs().udp_drop_prob),
      mtu_(ctx.costs().udp_mtu) {}

SendResult UdpModule::send(CommObject& conn, Packet packet) {
  if (packet.payload.size() > mtu_) {
    // Deterministic rejection, not an exception: oversized datagrams can
    // never cross this link, so the sender gets a Dead verdict it can feed
    // into the health/failover machinery (and a rel wrapper can escalate).
    util::log_debug("udp", "context " + std::to_string(ctx_->id()) +
                               " rejected a " +
                               std::to_string(packet.payload.size()) +
                               "-byte payload over the " +
                               std::to_string(mtu_) + "-byte MTU");
    const std::uint64_t wire = packet.wire_size();
    Fabric::note_drop(*ctx_, *this, packet, wire, packet.dst);
    return {DeliveryStatus::Dead, wire};
  }
  charge(costs_.send_cpu);
  const std::uint64_t wire = packet.wire_size();
  if (rng_.chance(drop_prob_)) {
    ++dropped_;
    util::log_debug("udp", "context " + std::to_string(ctx_->id()) +
                               " dropped a " + std::to_string(wire) +
                               "-byte datagram to context " +
                               std::to_string(packet.dst));
    Fabric::note_drop(*ctx_, *this, packet, wire, packet.dst);
    // Undetectable loss: it left the host and the network ate it.  The
    // sender sees Ok -- this is exactly why udp reports reliable()==false.
    return {DeliveryStatus::Ok, wire};
  }
  return fabric_->post(*ctx_, *this, route(static_cast<Conn&>(conn)),
                       std::move(packet), wire_delay(wire));
}

// ----------------------------------------------------------------- aal5 ---

Aal5Module::Aal5Module(Context& ctx)
    : MethodModule(ctx, "aal5",
                   LinkCosts{ctx.costs().aal5_latency,
                             ctx.costs().aal5_poll_cost,
                             ctx.costs().aal5_send_cpu,
                             ctx.costs().aal5_mb_s},
                   4) {}

// --------------------------------------------------------------- secure ---

SecureModule::SecureModule(Context& ctx)
    : MethodModule(ctx, "secure", tcp_class(ctx.costs()), 7),
      cpu_per_byte_(ctx.costs().secure_cpu_per_byte) {}

std::uint64_t SecureModule::pair_key(ContextId a, ContextId b) {
  const std::uint64_t lo = std::min(a, b), hi = std::max(a, b);
  return (hi << 32 | lo) * 0x9e3779b97f4a7c15ull + 0x7f4a7c15ull;
}

SendResult SecureModule::send(CommObject& conn, Packet packet) {
  charge(static_cast<Time>(packet.payload.size()) * cpu_per_byte_);
  // Transform methods replace the shared buffer rather than mutating it:
  // other aliases of the plaintext payload are unaffected.
  packet.payload = seal(packet.payload.span(), pair_key(packet.src, packet.dst));
  return MethodModule::send(conn, std::move(packet));
}

std::optional<Packet> SecureModule::poll() {
  auto pkt = MethodModule::poll();
  if (pkt) {
    pkt->payload = open(pkt->payload.span(), pair_key(pkt->src, pkt->dst));
    charge(static_cast<Time>(pkt->payload.size()) * cpu_per_byte_);
  }
  return pkt;
}

// ----------------------------------------------------------------- zrle ---

ZrleModule::ZrleModule(Context& ctx)
    : MethodModule(ctx, "zrle", tcp_class(ctx.costs()), 8),
      cpu_per_byte_(ctx.costs().compress_cpu_per_byte) {}

SendResult ZrleModule::send(CommObject& conn, Packet packet) {
  charge(static_cast<Time>(packet.payload.size()) * cpu_per_byte_);
  packet.payload = rle_encode(packet.payload.span());
  return MethodModule::send(conn, std::move(packet));
}

std::optional<Packet> ZrleModule::poll() {
  auto pkt = MethodModule::poll();
  if (pkt) {
    pkt->payload = rle_decode(pkt->payload.span());
    charge(static_cast<Time>(pkt->payload.size()) * cpu_per_byte_);
  }
  return pkt;
}

// ---------------------------------------------------------------- mcast ---

McastModule::McastModule(Context& ctx)
    : MethodModule(ctx, "mcast", udp_class(ctx.costs()), 9) {}

CommDescriptor McastModule::local_descriptor() const {
  // mcast descriptors are group-addressed and constructed via
  // multicast_startpoint(); the per-context descriptor only advertises that
  // the module is present.
  return descriptor_u32(0);
}

std::unique_ptr<CommObject> McastModule::connect(
    const CommDescriptor& remote) {
  return std::make_unique<Conn>(*this, remote, data_u32(remote));
}

SendResult McastModule::send(CommObject& conn, Packet packet) {
  const std::uint32_t group = static_cast<Conn&>(conn).landing();
  // Wait-free membership read: an immutable COW snapshot (possibly one
  // join stale, like a real network's propagation delay).
  const Fabric::McastMap& groups = fabric_->multicast_snapshot();
  auto it = groups.find(group);
  if (it == groups.end() || it->second.empty()) {
    throw util::MethodError("multicast group " + std::to_string(group) +
                            " has no members");
  }
  // One send cost regardless of fan-out: the "network" replicates.
  charge(costs_.send_cpu);
  const std::uint64_t wire = packet.wire_size();
  const Time delay = wire_delay(wire);
  for (const auto& [member, endpoint] : it->second) {
    Packet copy = packet;
    copy.dst = member;
    copy.endpoint = endpoint;
    // Per-member fault consultation; faulted members are silently skipped
    // (multicast is unreliable, so the sender never sees member failures).
    fabric_->post(*ctx_, *this, fabric_->inbox(member, name_),
                  std::move(copy), delay);
  }
  return {DeliveryStatus::Ok, wire};
}

void multicast_join(Context& ctx, std::uint32_t group, const Endpoint& ep) {
  if (ep.context_id() != ctx.id()) {
    throw util::UsageError("multicast_join: endpoint must be local");
  }
  ctx.runtime().fabric().multicast_join(group, ctx.id(), ep.id());
}

Startpoint multicast_startpoint(Context& ctx, std::uint32_t group) {
  if (ctx.module("mcast") == nullptr) {
    throw util::MethodError("context has no 'mcast' module loaded");
  }
  Startpoint sp;
  Startpoint::Link link;
  link.context = kMulticastBase + group;
  link.endpoint = 0;  // rewritten per member at send time
  util::PackBuffer data;
  data.put_u32(group);
  link.table = DescriptorTable(
      {CommDescriptor{"mcast", kMulticastBase + group, data.take()}});
  sp.links().push_back(std::move(link));
  return sp;
}

}  // namespace nexus::proto
