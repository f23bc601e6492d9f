// The built-in communication methods, each written once.
//
// A method owns its name, speed rank and LinkCosts, its descriptor and
// applicability rule, and its send/poll transform.  Everything that
// depends on the fabric -- inboxes, posting with faults and delay, modelled
// CPU and the simulator-only cost-model inputs -- sits behind nexus::Fabric
// (docs/ARCHITECTURE.md §3.5), so each class below runs on the simulated
// and the realtime fabric alike.  Modelled costs are calibrated to the
// paper's SP2 numbers (see nexus/costs.hpp) and read 0 on the realtime
// fabric, which pays them for real.
//
// Methods provided here:
//   local    intra-context delivery (message-driven even to self)
//   shm      shared memory between contexts on the same node
//            (simulated: node = context id / shm.node_size, resource db
//            key; realtime: every context is a thread of one process)
//   myrinet  SAN within a partition (alternative to mpl; simulated only)
//   mpl      IBM MPL analog: intra-partition only; subject to the
//            receiver's TCP-poll interference drag
//   tcp      works everywhere; supports forwarding via a landing context,
//            the incast model and blocking pollers
//   udp      unreliable datagrams: drop probability + MTU limit
//   aal5     ATM AAL5 analog: metropolitan link, cheaper than tcp
//            (simulated only)
//   secure   tcp-class wire + toy stream cipher/MAC, per-byte CPU both ends
//   zrle     tcp-class wire + RLE compression, per-byte CPU both ends
//   mcast    true multicast: one send fans out to a registered group
#pragma once

#include <string>

#include "nexus/context.hpp"
#include "nexus/costs.hpp"
#include "nexus/fabric.hpp"
#include "nexus/module.hpp"
#include "nexus/runtime.hpp"
#include "util/rng.hpp"

namespace nexus::proto {

/// Wire/CPU cost profile of one transport class.
struct LinkCosts {
  Time latency = 0;
  Time poll = 0;
  Time send_cpu = 0;
  double mb_s = 1.0;
};

/// A connection of any MethodModule: where packets land.  For direct
/// methods the landing context is the destination itself; for forwarded
/// tcp it is the partition's forwarding node; for multicast it is the group
/// id.
class Conn final : public CommObject {
 public:
  Conn(CommModule& m, CommDescriptor d, ContextId landing)
      : CommObject(m, std::move(d)), landing_(landing) {}
  ContextId landing() const noexcept { return landing_; }
  /// Deliver into `to` instead of the method's own inbox on the landing
  /// context (a wrapper that owns its inbox, e.g. rel+udp).
  void route_to(Inbox& to) noexcept { to_ = &to; }

 private:
  friend class MethodModule;
  ContextId landing_;
  // Destination inbox, resolved on first send and cached for the
  // connection's lifetime (inbox map nodes are stable).  Never set for
  // group-addressed (mcast) connections, where landing_ is a group id.
  Inbox* to_ = nullptr;
};

/// One communication method on either fabric.  The defaults describe a
/// method that reaches every context directly: an empty descriptor, one
/// modelled transfer per send, plain polls.
class MethodModule : public CommModule {
 public:
  MethodModule(Context& ctx, std::string name, LinkCosts costs, int rank);

  std::string_view name() const override { return name_; }
  void initialize(Context& ctx) override;
  CommDescriptor local_descriptor() const override;
  bool applicable(const CommDescriptor& remote) const override;
  std::unique_ptr<CommObject> connect(const CommDescriptor& remote) override;
  SendResult send(CommObject& conn, Packet packet) override;
  std::optional<Packet> poll() override;
  Time poll_cost() const override { return fabric_->modelled(costs_.poll); }
  std::optional<Time> earliest_arrival() const override;
  std::optional<Packet> blocking_poll() override;
  void shutdown_blocking() override;
  int speed_rank() const override { return rank_; }

 protected:
  Time now() const { return ctx_->now(); }
  int my_partition() const;
  /// A descriptor of this context carrying one u32 of method data.
  CommDescriptor descriptor_u32(std::uint32_t value) const;
  static std::uint32_t data_u32(const CommDescriptor& d);
  /// Destination inbox of a direct (context-addressed) connection.
  Inbox& route(Conn& conn) {
    if (conn.to_ == nullptr) {
      conn.to_ = &fabric_->inbox(conn.landing(), name_);
    }
    return *conn.to_;
  }
  /// Charge modelled CPU to this context (no-op on the realtime fabric).
  void charge(Time cpu) { fabric_->charge(ctx_->clock(), cpu); }
  /// Latency plus transfer time of `wire` bytes; `bw_divisor` > 1 slows
  /// the transfer (the interference drag).
  Time wire_delay(std::uint64_t wire, double bw_divisor = 1.0) const;
  /// Charge send CPU, then post one copy into `to` after the wire delay.
  SendResult transmit(Inbox& to, Packet packet, double bw_divisor = 1.0);

  Context* ctx_;
  Fabric* fabric_;
  std::string name_;
  LinkCosts costs_;
  int rank_;
  Inbox* inbox_ = nullptr;
};

class LocalModule final : public MethodModule {
 public:
  explicit LocalModule(Context& ctx);
  bool applicable(const CommDescriptor& remote) const override;
};

class ShmModule final : public MethodModule {
 public:
  explicit ShmModule(Context& ctx);
  CommDescriptor local_descriptor() const override;
  bool applicable(const CommDescriptor& remote) const override;

 private:
  std::uint32_t node_size_;
};

/// Methods that reach only the sender's own partition: the descriptor
/// carries the partition id.
class PartitionModule : public MethodModule {
 public:
  using MethodModule::MethodModule;
  CommDescriptor local_descriptor() const override;
  bool applicable(const CommDescriptor& remote) const override;
};

class MyrinetModule final : public PartitionModule {
 public:
  explicit MyrinetModule(Context& ctx);
};

class MplModule final : public PartitionModule {
 public:
  explicit MplModule(Context& ctx);
  /// Applies the destination's inbound interference drag.
  SendResult send(CommObject& conn, Packet packet) override;
};

class TcpModule final : public MethodModule {
 public:
  explicit TcpModule(Context& ctx);
  CommDescriptor local_descriptor() const override;
  std::unique_ptr<CommObject> connect(const CommDescriptor& remote) override;
  /// TCP descriptors carry an explicit landing context (the partition's
  /// forwarder when one is configured); expose it for the enquiry layer.
  ContextId landing_context(const CommDescriptor& remote) const override;
  /// Adds the incast-collapse stall when the receiver is overloaded.
  SendResult send(CommObject& conn, Packet packet) override;
  std::optional<Packet> poll() override;
  bool supports_blocking() const override { return true; }

 private:
  std::uint64_t incast_threshold_;
  std::uint64_t incast_bytes_;
  Time incast_stall_;
};

class UdpModule final : public MethodModule {
 public:
  explicit UdpModule(Context& ctx);
  SendResult send(CommObject& conn, Packet packet) override;
  bool reliable() const override { return false; }
  std::uint64_t dropped() const noexcept { return dropped_; }

 private:
  util::Rng rng_;
  double drop_prob_;
  std::uint64_t mtu_;
  std::uint64_t dropped_ = 0;
};

class Aal5Module final : public MethodModule {
 public:
  explicit Aal5Module(Context& ctx);
};

class SecureModule final : public MethodModule {
 public:
  explicit SecureModule(Context& ctx);
  SendResult send(CommObject& conn, Packet packet) override;
  std::optional<Packet> poll() override;

  /// Symmetric per-pair key (both ends derive the same value).
  static std::uint64_t pair_key(ContextId a, ContextId b);

 private:
  Time cpu_per_byte_;
};

class ZrleModule final : public MethodModule {
 public:
  explicit ZrleModule(Context& ctx);
  SendResult send(CommObject& conn, Packet packet) override;
  std::optional<Packet> poll() override;

 private:
  Time cpu_per_byte_;
};

/// Multicast group addressing: group g is represented in startpoint links
/// as the pseudo-context kMulticastBase + g.
inline constexpr ContextId kMulticastBase = kGroupContextBase;

class McastModule final : public MethodModule {
 public:
  explicit McastModule(Context& ctx);
  CommDescriptor local_descriptor() const override;
  std::unique_ptr<CommObject> connect(const CommDescriptor& remote) override;
  SendResult send(CommObject& conn, Packet packet) override;
  bool reliable() const override { return false; }  // rides the udp model
};

/// Register `ep` as a member of multicast group `group`.
void multicast_join(Context& ctx, std::uint32_t group, const Endpoint& ep);

/// A startpoint whose single link addresses multicast group `group`.
Startpoint multicast_startpoint(Context& ctx, std::uint32_t group);

}  // namespace nexus::proto
