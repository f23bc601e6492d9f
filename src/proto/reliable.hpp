// Reliability wrapper method: rel+<method> (paper §2.2/§5 -- "protocols
// and quality-of-service guarantees are just more methods").
//
// A ReliableModule layers exactly-once, in-order delivery over any
// unreliable CommModule (udp today; the registration helper is generic) and
// registers as a first-class method: it publishes its own descriptor
// (wrapping the inner one), passes the selector's reliable() gate, and
// ranks at the inner transport's speed -- so automatic selection picks
// rel+udp *ahead of* tcp wherever the cost model says datagrams are faster.
//
// Protocol (docs/ARCHITECTURE.md §10):
//   - per-(peer, direction) 64-bit sequence numbers on Data frames;
//   - a sliding send window (rel.window entries) retaining each un-acked
//     packet for retransmission;
//   - cumulative + selective acks piggybacked on reverse Data traffic,
//     with standalone Ack frames after rel.ack_every deliveries or a
//     rel.ack_delay_us idle timeout (and immediately on gaps/duplicates);
//   - RTT-estimated retransmission timeouts (Jacobson/Karels, Karn's rule)
//     with exponential backoff between rel.rto_min_us and rel.rto_max_us;
//   - retries past rel.max_retries latch the peer Dead: new sends return a
//     Dead verdict that drives the HealthTracker/failover machinery, while
//     the window keeps probing at the capped cadence so nothing already
//     accepted is ever abandoned (an ack clears the latch);
//   - receiver-side duplicate suppression and a bounded (rel.window)
//     reordering buffer;
//   - credit-based backpressure: a full window blocks the sender inside
//     the polling loop (rel.backpressure = block, default) or sheds with a
//     Transient verdict surfaced to the caller (rel.backpressure = shed).
//
// Wire format: Data/Ack frames ride the inner transport with the Packet's
// rel_* header fields (Packet::kRelHeaderBytes of modelled wire overhead);
// the receiving wrapper strips them before dispatch, so nothing downstream
// ever observes the protocol.
//
// Resource database keys (context-scopable): rel.window (32),
// rel.max_retries (12), rel.ack_every (8), rel.ack_delay_us (2000),
// rel.rto_initial_us (10000), rel.rto_min_us (2000), rel.rto_max_us
// (400000), rel.backpressure ("block" | "shed").
#pragma once

#include <cstdint>
#include <deque>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "nexus/context.hpp"
#include "nexus/fabric.hpp"
#include "nexus/module.hpp"
#include "nexus/runtime.hpp"

namespace nexus::proto {

/// Policy when the sliding send window is full.
enum class RelBackpressure : std::uint8_t {
  Block,  ///< poll inside send() until an ack frees a credit
  Shed,   ///< fail the send with a Transient verdict (caller owns recovery)
};

/// Thin connection object: protocol state lives in the module (keyed by
/// peer context), so failover eviction of cached connections never resets
/// sequence numbers or the in-flight window.
class RelConn final : public CommObject {
 public:
  RelConn(CommModule& m, CommDescriptor d, ContextId peer)
      : CommObject(m, std::move(d)), peer_(peer) {}
  ContextId peer() const noexcept { return peer_; }

 private:
  ContextId peer_;
};

class ReliableModule final : public CommModule {
 public:
  /// Wrap `inner` (an unreliable transport owned by this wrapper).  The
  /// method name becomes "rel+<inner name>".
  ReliableModule(Context& ctx, std::unique_ptr<CommModule> inner);

  std::string_view name() const override { return name_; }
  void initialize(Context& ctx) override;
  CommDescriptor local_descriptor() const override;
  bool applicable(const CommDescriptor& remote) const override;
  std::unique_ptr<CommObject> connect(const CommDescriptor& remote) override;
  SendResult send(CommObject& conn, Packet packet) override;
  std::optional<Packet> poll() override;
  Time poll_cost() const override { return inner_->poll_cost(); }
  std::optional<Time> earliest_arrival() const override;
  int speed_rank() const override { return inner_->speed_rank(); }
  bool reliable() const override { return true; }
  std::optional<std::string> wraps() const override { return inner_name_; }
  /// Crash/restart (docs §14): the in-flight window and per-peer stream
  /// state die with the process; the stable floors (the write-ahead-logged
  /// "acked only after commit" record) and the committed ready_ queue
  /// survive, which is what extends exactly-once across reincarnations.
  void on_crash_restart() override {
    send_states_.clear();
    recv_states_.clear();
    inner_->on_crash_restart();
  }

  // --- enquiry / test accessors ---
  CommModule& inner() noexcept { return *inner_; }
  std::uint64_t window_capacity() const noexcept { return window_; }
  RelBackpressure backpressure() const noexcept { return policy_; }
  /// Un-acked sequence count currently in flight toward `peer`.
  std::uint64_t in_flight(ContextId peer) const;
  /// Free window credits toward `peer` (chunk-pull hook: the RPC bulk
  /// plane clamps its outstanding pulls to this so it never drives the
  /// reliable window into backpressure).
  std::uint64_t free_credits(ContextId peer) const {
    const std::uint64_t used = in_flight(peer);
    return window_ > used ? window_ - used : 0;
  }

 private:
  static constexpr Time kNever = std::numeric_limits<Time>::max();

  /// One retained window entry (slot = seq % rel.window).
  struct SendEntry {
    Packet pkt;            ///< retained for retransmission (aliases payload)
    Time first_sent = 0;   ///< for Karn-filtered RTT samples
    Time deadline = 0;     ///< next retransmission time
    int retries = 0;
    bool acked = false;    ///< sacked out of order; slot frees when base passes
    bool live = false;
  };
  /// Sender-side protocol state toward one peer.
  struct SendState {
    std::unique_ptr<CommObject> conn;  ///< inner connection (wrapper-owned)
    std::vector<SendEntry> ring;       ///< fixed capacity: rel.window
    std::uint64_t base = 0;            ///< lowest un-acked sequence
    std::uint64_t next_seq = 0;
    double srtt_ns = 0.0;
    double rttvar_ns = 0.0;
    Time rto = 0;
    /// Lower bound on the earliest retransmission deadline of any live
    /// entry; timer passes skip the window scan until the clock reaches
    /// it.  Acks can leave it stale-low (the next scan re-tightens), which
    /// is safe for both service_timers() and earliest_arrival().
    Time next_timer = kNever;
    bool have_rtt = false;
    /// Max-retries escalation latch: new sends fail Dead (feeding
    /// failover) until any ack proves the peer reachable again.
    bool dead = false;
    /// Latest incarnation of the *receiver* observed on frames from it
    /// (0 = none yet).  Selective acks only prove a frame reached the
    /// reorder buffer of the life that sent them; when this bumps, every
    /// sacked-but-not-cumulatively-acked entry is un-sacked so it is
    /// retransmitted into the new life (docs §14).
    std::uint32_t peer_inc = 0;
  };
  /// Receiver-side protocol state from one peer.
  struct RecvState {
    std::uint64_t next_expected = 0;
    std::map<std::uint64_t, Packet> reorder;  ///< seq > next_expected only
    std::unique_ptr<CommObject> ack_conn;     ///< for standalone Ack frames
    std::uint64_t acks_owed = 0;
    Time ack_deadline = 0;  ///< 0 = delayed-ack timer not armed
    /// Sender incarnation this stream is locked onto (0 = not yet locked).
    /// Data stamped with an older epoch is rejected (rel_epoch_rejects);
    /// a newer epoch resets the stream at that epoch's stable floor.
    std::uint32_t epoch = 0;
  };

  CommDescriptor unwrap(const CommDescriptor& remote) const;
  SendState& send_state(ContextId peer, const CommDescriptor& inner_desc);
  RecvState& recv_state(ContextId peer);
  /// Point an inner connection's cached route at the *wrapper's* inbox on
  /// the landing host, so rel frames never mix with plain inner traffic.
  /// The inner transport is a MethodModule, so its connections are Conns.
  void point_at_rel_inbox(CommObject& conn) const;
  SendEntry& slot(SendState& st, std::uint64_t seq) {
    return st.ring[static_cast<std::size_t>(seq % window_)];
  }
  bool window_full(const SendState& st) const noexcept {
    return st.next_seq - st.base >= window_;
  }
  std::uint64_t sack_bits(const RecvState& rs) const;
  /// Fill rel_ack/rel_sack from the receive state toward `peer` (piggyback)
  /// and clear the delayed-ack debt it settles.
  void stamp_piggyback(ContextId peer, Packet& pkt);
  /// Apply the cumulative + selective ack fields of a frame from `peer`.
  void process_ack_fields(ContextId peer, const Packet& pkt);
  void rtt_sample(SendState& st, Time sample);
  /// Sequence/duplicate/reordering handling for one incoming Data frame.
  void handle_data(Packet pkt);
  /// Retransmit timed-out window entries and flush expired delayed acks.
  void service_timers();
  /// Emit a standalone Ack frame toward `peer` (builds the ack connection
  /// lazily from the peer's default table).
  void flush_ack(ContextId peer, RecvState& rs);
  /// Drain the wrapper inbox completely: acks are consumed, in-order data
  /// lands in ready_.
  void drain_inbox();
  /// inner_->send plus inner-layer counter upkeep (the wrapper drives the
  /// inner module directly, bypassing the context send path that normally
  /// does this accounting).
  SendResult inner_send(CommObject& conn, Packet pkt);
  Time now() const { return ctx_->now(); }

  Context* ctx_;
  std::string name_;
  std::string inner_name_;
  std::unique_ptr<CommModule> inner_;

  /// Protocol state keyed by peer context id; deliberately *not* stored on
  /// connection objects (Context::evict_connection destroys those on
  /// failover, and exactly-once needs the window to survive that).
  std::map<ContextId, SendState> send_states_;
  std::map<ContextId, RecvState> recv_states_;
  /// Write-ahead-logged delivery floor per (peer, sender incarnation):
  /// the next sequence this context has NOT yet committed from that
  /// stream.  Advanced at the instant a frame is committed into ready_
  /// (before any ack can mention it), and deliberately NOT cleared by
  /// on_crash_restart -- it is the stable-storage record that lets a
  /// reincarnated receiver dup-drop retransmissions of frames it already
  /// delivered in its previous life.
  std::map<std::pair<ContextId, std::uint32_t>, std::uint64_t> stable_floor_;
  /// In-order Data packets (rel header already stripped) awaiting dispatch.
  std::deque<Packet> ready_;

  // The wrapper's own inbox on this context's host.
  Fabric* fabric_ = nullptr;
  Inbox* inbox_ = nullptr;

  std::uint64_t window_ = 32;
  int max_retries_ = 12;
  std::uint64_t ack_every_ = 8;
  Time ack_delay_ = 0;
  Time rto_initial_ = 0;
  Time rto_min_ = 0;
  Time rto_max_ = 0;
  RelBackpressure policy_ = RelBackpressure::Block;
};

/// Register the "rel+<inner>" factory wrapping the registered transport
/// `inner` (created through the runtime's module registry, so overrides of
/// the inner factory are honoured).
void register_reliable_wrapper(ModuleRegistry& registry, std::string inner);

}  // namespace nexus::proto
