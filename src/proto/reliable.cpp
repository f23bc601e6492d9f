#include "proto/reliable.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "proto/methods.hpp"
#include "util/error.hpp"
#include "util/log.hpp"

namespace nexus::proto {

namespace {

/// Clear the protocol header so nothing downstream (dispatch, forwarding
/// hops, tracing) observes rel state that has already been consumed.
void strip_rel_header(Packet& pkt) {
  pkt.rel_kind = RelKind::None;
  pkt.rel_from = kNoContext;
  pkt.rel_seq = 0;
  pkt.rel_ack = 0;
  pkt.rel_sack = 0;
  pkt.rel_peer_inc = 0;
}

}  // namespace

ReliableModule::ReliableModule(Context& ctx, std::unique_ptr<CommModule> inner)
    : ctx_(&ctx), inner_(std::move(inner)) {
  if (inner_ == nullptr) {
    throw util::UsageError("reliability wrapper requires an inner transport");
  }
  inner_name_ = std::string(inner_->name());
  name_ = "rel+" + inner_name_;
}

void ReliableModule::initialize(Context& ctx) {
  ctx_ = &ctx;
  const util::ResourceDb& db = ctx.config();
  const std::uint32_t cid = ctx.id();
  window_ = static_cast<std::uint64_t>(
      std::max<std::int64_t>(1, db.get_scoped_int(cid, "rel.window", 32)));
  max_retries_ = static_cast<int>(
      std::max<std::int64_t>(0, db.get_scoped_int(cid, "rel.max_retries", 12)));
  ack_every_ = static_cast<std::uint64_t>(
      std::max<std::int64_t>(1, db.get_scoped_int(cid, "rel.ack_every", 8)));
  ack_delay_ = db.get_scoped_int(cid, "rel.ack_delay_us", 2000) * simnet::kUs;
  rto_initial_ =
      db.get_scoped_int(cid, "rel.rto_initial_us", 10000) * simnet::kUs;
  rto_min_ = db.get_scoped_int(cid, "rel.rto_min_us", 2000) * simnet::kUs;
  rto_max_ = db.get_scoped_int(cid, "rel.rto_max_us", 400000) * simnet::kUs;
  const std::string policy =
      db.get_scoped(cid, "rel.backpressure").value_or("block");
  if (policy == "block") {
    policy_ = RelBackpressure::Block;
  } else if (policy == "shed") {
    policy_ = RelBackpressure::Shed;
  } else {
    throw util::ConfigError("rel.backpressure must be 'block' or 'shed', got '" +
                            policy + "'");
  }

  inner_->initialize(ctx);
  // Rebind the inner transport into a layered registry row and trace label
  // ("rel+udp/udp") so enquiry output distinguishes wrapper-level RSR
  // traffic from the raw frames (data + retransmits + acks) underneath.
  telemetry::Telemetry& tele = ctx.runtime().telemetry();
  const std::string layered = name_ + "/" + inner_name_;
  inner_->bind_metrics(tele.metrics().method(cid, layered));
  inner_->set_trace_label(tele.tracer().intern(layered));

  // The wrapper owns its own inbox, keyed by the wrapper name: rel frames
  // never mix with plain inner traffic, and inner_->poll() is never called.
  fabric_ = &ctx.runtime().fabric();
  inbox_ = &fabric_->open_inbox(cid, name_);
}

CommDescriptor ReliableModule::local_descriptor() const {
  util::PackBuffer pb;
  inner_->local_descriptor().pack(pb);
  return CommDescriptor{name_, ctx_->id(), pb.take()};
}

CommDescriptor ReliableModule::unwrap(const CommDescriptor& remote) const {
  util::UnpackBuffer ub(remote.data);
  return CommDescriptor::unpack(ub);
}

bool ReliableModule::applicable(const CommDescriptor& remote) const {
  return remote.method == name_ && inner_->applicable(unwrap(remote));
}

std::unique_ptr<CommObject> ReliableModule::connect(
    const CommDescriptor& remote) {
  return std::make_unique<RelConn>(*this, remote, remote.context);
}

void ReliableModule::point_at_rel_inbox(CommObject& conn) const {
  Conn& c = static_cast<Conn&>(conn);
  c.route_to(fabric_->inbox(c.landing(), name_));
}

ReliableModule::SendState& ReliableModule::send_state(
    ContextId peer, const CommDescriptor& inner_desc) {
  auto it = send_states_.find(peer);
  if (it != send_states_.end()) return it->second;
  SendState st;
  st.conn = inner_->connect(inner_desc);
  point_at_rel_inbox(*st.conn);
  st.ring.resize(static_cast<std::size_t>(window_));
  st.rto = rto_initial_;
  return send_states_.emplace(peer, std::move(st)).first->second;
}

ReliableModule::RecvState& ReliableModule::recv_state(ContextId peer) {
  return recv_states_[peer];
}

std::uint64_t ReliableModule::in_flight(ContextId peer) const {
  auto it = send_states_.find(peer);
  return it == send_states_.end() ? 0
                                  : it->second.next_seq - it->second.base;
}

SendResult ReliableModule::inner_send(CommObject& conn, Packet pkt) {
  // The wrapper drives the inner module directly, bypassing the context
  // send path that normally maintains these counters.
  util::MethodCounters& c = inner_->counters();
  const SendResult r = inner_->send(conn, std::move(pkt));
  c.sends += 1;
  if (r.ok()) {
    c.bytes_sent += r.wire;
    if (ctx_->runtime().telemetry().metrics().enabled() &&
        inner_->metrics() != nullptr) {
      inner_->metrics()->send_bytes.add(r.wire);
    }
  } else {
    c.send_errors += 1;
  }
  return r;
}

std::uint64_t ReliableModule::sack_bits(const RecvState& rs) const {
  std::uint64_t bits = 0;
  for (const auto& [seq, pkt] : rs.reorder) {
    const std::uint64_t off = seq - rs.next_expected;  // always >= 1
    if (off >= 1 && off <= 64) bits |= std::uint64_t{1} << (off - 1);
  }
  return bits;
}

void ReliableModule::stamp_piggyback(ContextId peer, Packet& pkt) {
  pkt.rel_ack = 0;
  pkt.rel_sack = 0;
  pkt.rel_peer_inc = 0;  // no ack state carried unless a stream exists
  auto it = recv_states_.find(peer);
  if (it == recv_states_.end()) return;
  RecvState& rs = it->second;
  pkt.rel_ack = rs.next_expected;
  pkt.rel_sack = sack_bits(rs);
  // Which incarnation of the peer these ack fields describe: a restarted
  // peer rejects them as ghost acks instead of crediting its new window.
  pkt.rel_peer_inc = rs.epoch;
  // The reverse-traffic ack settles any delayed-ack debt toward this peer.
  rs.acks_owed = 0;
  rs.ack_deadline = 0;
}

void ReliableModule::rtt_sample(SendState& st, Time sample) {
  // Jacobson/Karels: srtt += err/8, rttvar += (|err| - rttvar)/4,
  // rto = srtt + 4*rttvar clamped to [rto_min, rto_max].
  const double s = static_cast<double>(sample);
  if (!st.have_rtt) {
    st.srtt_ns = s;
    st.rttvar_ns = s / 2.0;
    st.have_rtt = true;
  } else {
    const double err = s - st.srtt_ns;
    st.srtt_ns += err / 8.0;
    st.rttvar_ns += (std::abs(err) - st.rttvar_ns) / 4.0;
  }
  st.rto = std::clamp(static_cast<Time>(st.srtt_ns + 4.0 * st.rttvar_ns),
                      rto_min_, rto_max_);
}

void ReliableModule::process_ack_fields(ContextId peer, const Packet& pkt) {
  // Ghost-ack rejection (docs §14): ack fields describing a previous
  // incarnation of *this* context must not credit the new incarnation's
  // window -- sequence numbers restarted at zero, so the numeric ranges
  // collide.  rel_peer_inc == 0 means the frame carries no ack state.
  if (pkt.rel_peer_inc != 0 && pkt.rel_peer_inc != ctx_->incarnation()) {
    counters().rel_epoch_rejects += 1;
    return;
  }
  auto it = send_states_.find(peer);
  if (it == send_states_.end()) return;
  SendState& st = it->second;
  bool progress = false;
  const Time t = now();
  // Receiver-reincarnation handling (docs §14): a selective ack only proves
  // the frame reached the *reorder buffer* of the life that sent it, and
  // that buffer dies with the incarnation.  When the receiver's incarnation
  // bumps, un-sack everything still outstanding so it is retransmitted into
  // the new life (the stable floor dup-drops anything the old life had
  // actually committed).  Cumulative acks advance only past committed
  // frames, so they stay valid across lives: a stale-life ack may still
  // move the base, but its sack bits are ignored.
  bool sack_valid = true;
  if (pkt.incarnation != 0) {
    if (pkt.incarnation > st.peer_inc) {
      if (st.peer_inc != 0) {
        for (std::uint64_t seq = st.base; seq < st.next_seq; ++seq) {
          SendEntry& e = slot(st, seq);
          if (e.live && e.acked) {
            e.acked = false;
            e.deadline = t;  // retransmit on the next timer pass
          }
        }
        st.next_timer = t;
      }
      st.peer_inc = pkt.incarnation;
    } else if (pkt.incarnation < st.peer_inc) {
      sack_valid = false;
    }
  }
  // Cumulative: everything below rel_ack is delivered.
  while (st.base < pkt.rel_ack && st.base < st.next_seq) {
    SendEntry& e = slot(st, st.base);
    if (e.live) {
      // Karn's rule: only never-retransmitted entries yield RTT samples.
      if (!e.acked && e.retries == 0) {
        rtt_sample(st, t - e.first_sent);
        if (ctx_->adaptation_enabled()) {
          ctx_->cost_model().observe_rtt(name_hash(), peer, e.pkt.wire_size(),
                                         t - e.first_sent, t);
        }
      }
      e.live = false;
      e.acked = false;
      e.pkt = Packet{};
      progress = true;
    }
    ++st.base;
  }
  // Selective: bit i acknowledges sequence rel_ack + 1 + i.
  if (pkt.rel_sack != 0 && sack_valid) {
    for (int i = 0; i < 64; ++i) {
      if (((pkt.rel_sack >> i) & 1u) == 0) continue;
      const std::uint64_t seq = pkt.rel_ack + 1 + static_cast<std::uint64_t>(i);
      if (seq < st.base || seq >= st.next_seq) continue;
      SendEntry& e = slot(st, seq);
      if (e.live && !e.acked) {
        if (e.retries == 0) {
          rtt_sample(st, t - e.first_sent);
          if (ctx_->adaptation_enabled()) {
            ctx_->cost_model().observe_rtt(name_hash(), peer,
                                           e.pkt.wire_size(), t - e.first_sent,
                                           t);
          }
        }
        // The payload is retained: if the receiver reincarnates before the
        // base passes this entry, the sack is voided and the frame must be
        // retransmitted into the new life.
        e.acked = true;
        progress = true;
      }
    }
  }
  if (progress) {
    // Any acknowledged progress proves the peer reachable: clear the
    // escalation latch and shed the exponential backoff.
    st.dead = false;
    if (!st.have_rtt) st.rto = rto_initial_;
  }
}

void ReliableModule::flush_ack(ContextId peer, RecvState& rs) {
  if (rs.ack_conn == nullptr) {
    // Build the return path from the peer's default table.  A udp-only
    // table carries no raw inner descriptor, so unwrap the peer's own
    // rel+<method> entry first and fall back to a plain inner entry.
    const DescriptorTable& table = ctx_->runtime().table_of(peer);
    CommDescriptor inner_desc;
    if (auto idx = table.find(name_)) {
      inner_desc = unwrap(table.at(*idx));
    } else if (auto raw = table.find(inner_name_)) {
      inner_desc = table.at(*raw);
    } else {
      // No route back: cancel the debt so this does not retry per frame;
      // the sender's retransmission timers still guarantee delivery.
      util::log_debug(name_, "context " + std::to_string(ctx_->id()) +
                                 " has no ack route to context " +
                                 std::to_string(peer));
      rs.acks_owed = 0;
      rs.ack_deadline = 0;
      return;
    }
    rs.ack_conn = inner_->connect(inner_desc);
    point_at_rel_inbox(*rs.ack_conn);
  }
  Packet ack;
  ack.src = ctx_->id();
  ack.dst = peer;
  ack.rel_kind = RelKind::Ack;
  ack.rel_from = ctx_->id();
  ack.rel_ack = rs.next_expected;
  ack.rel_sack = sack_bits(rs);
  ack.incarnation = ctx_->incarnation();
  ack.rel_peer_inc = rs.epoch;  // which life of the peer this ack credits
  ack.sent_at = now();
  rs.acks_owed = 0;
  rs.ack_deadline = 0;
  counters().rel_acks_sent += 1;
  if (ctx_->observing()) {
    // Acks carry no span/trace: they are protocol chatter, not part of any
    // RSR's causal chain.
    ctx_->observe({now(), 0, ctx_->id(), telemetry::Phase::Ack, trace_label(),
                   ack.wire_size(), peer});
  }
  // Acks are fire-and-forget: a lost ack is repaired by the sender's
  // retransmission, which triggers a duplicate-driven re-ack here.
  inner_send(*rs.ack_conn, std::move(ack));
}

void ReliableModule::handle_data(Packet pkt) {
  const ContextId peer = pkt.rel_from;
  RecvState& rs = recv_state(peer);
  // Epoch handshake (docs §14).  Lock onto the sender's incarnation on
  // first contact; reject Data from an older incarnation outright (its
  // sequence numbers belong to a finished stream -- acking them would
  // corrupt the new window); a newer incarnation resets the stream at that
  // epoch's stable floor, discarding reorder buffers of the old life.
  const std::uint32_t inc = pkt.incarnation;
  if (rs.epoch == 0) {
    rs.epoch = inc;
    rs.next_expected = stable_floor_[{peer, inc}];
  } else if (inc < rs.epoch) {
    counters().rel_epoch_rejects += 1;
    if (ctx_->observing()) {
      ctx_->observe({now(), pkt.span, ctx_->id(), telemetry::Phase::DupDrop,
                     trace_label(), pkt.wire_size(), peer, 0, pkt.trace});
    }
    return;  // no ack: never credit a stale incarnation's window
  } else if (inc > rs.epoch) {
    rs.epoch = inc;
    rs.reorder.clear();
    rs.next_expected = stable_floor_[{peer, inc}];
  }
  process_ack_fields(peer, pkt);  // piggybacked ack state
  const std::uint64_t seq = pkt.rel_seq;
  if (seq < rs.next_expected || rs.reorder.count(seq) != 0) {
    // Duplicate (a retransmission raced the ack): suppress and immediately
    // re-ack so the sender resynchronizes without waiting out another RTO.
    counters().rel_dup_drops += 1;
    if (ctx_->observing()) {
      ctx_->observe({now(), pkt.span, ctx_->id(), telemetry::Phase::DupDrop,
                     trace_label(), pkt.wire_size(), peer, 0, pkt.trace});
    }
    flush_ack(peer, rs);
    return;
  }
  if (seq == rs.next_expected) {
    strip_rel_header(pkt);
    ready_.push_back(std::move(pkt));
    ++rs.next_expected;
    ++rs.acks_owed;
    // Drain the reordering buffer while it continues the run.
    auto it = rs.reorder.begin();
    while (it != rs.reorder.end() && it->first == rs.next_expected) {
      Packet buffered = std::move(it->second);
      strip_rel_header(buffered);
      ready_.push_back(std::move(buffered));
      ++rs.next_expected;
      ++rs.acks_owed;
      it = rs.reorder.erase(it);
    }
    // WAL commit point: the floor advances the instant frames land in
    // ready_, strictly before any ack can mention them.  A crash after the
    // ack therefore never loses a frame the sender has already freed.
    stable_floor_[{peer, rs.epoch}] = rs.next_expected;
    if (rs.acks_owed >= ack_every_) {
      flush_ack(peer, rs);
    } else if (rs.ack_deadline == 0) {
      rs.ack_deadline = now() + ack_delay_;
    }
    return;
  }
  // Gap: buffer out-of-order data (bounded by the window; anything beyond
  // is dropped and repaired by retransmission) and ack immediately so the
  // selective bits tell the sender exactly what is missing.
  if (rs.reorder.size() < window_) rs.reorder.emplace(seq, std::move(pkt));
  flush_ack(peer, rs);
}

void ReliableModule::drain_inbox() {
  while (auto pkt = fabric_->poll(*inbox_)) {
    // Inner-layer receive accounting: the frame crossed the inner wire.
    util::MethodCounters& ic = inner_->counters();
    ic.recvs += 1;
    ic.bytes_received += pkt->wire_size();
    if (pkt->corrupted) {
      // An integrity failure means no header field can be trusted; treat
      // the whole frame as loss and let retransmission repair it.
      counters().recv_corrupt += 1;
      continue;
    }
    switch (pkt->rel_kind) {
      case RelKind::Ack:
        counters().rel_acks_received += 1;
        process_ack_fields(pkt->rel_from, *pkt);
        break;
      case RelKind::Data:
        handle_data(std::move(*pkt));
        break;
      case RelKind::None:
        // Only rel frames are addressed to this inbox, but deliver rather
        // than drop if one ever appears.
        ready_.push_back(std::move(*pkt));
        break;
    }
  }
}

void ReliableModule::service_timers() {
  const Time t = now();
  for (auto& [peer, st] : send_states_) {
    // The watermark makes the fault-free fast path O(1): no live entry can
    // be due before it, so the window scan is skipped until the clock gets
    // there (micro_reliable measures this as the per-send wrapper tax).
    if (t < st.next_timer) continue;
    Time next = kNever;
    bool backed_off = false;
    for (std::uint64_t seq = st.base; seq < st.next_seq; ++seq) {
      SendEntry& e = slot(st, seq);
      if (!e.live || e.acked) continue;
      if (e.deadline > t) {
        if (e.deadline < next) next = e.deadline;
        continue;
      }
      if (!backed_off) {
        // One exponential backoff step per timeout event (not per entry),
        // capped; acked progress resets it via rtt_sample.
        st.rto = std::min(std::max<Time>(st.rto, rto_min_) * 2, rto_max_);
        backed_off = true;
      }
      if (e.retries >= max_retries_) {
        if (!st.dead) {
          st.dead = true;
          util::log_debug(
              name_, "context " + std::to_string(ctx_->id()) + " seq " +
                         std::to_string(seq) + " to context " +
                         std::to_string(peer) + " exceeded " +
                         std::to_string(max_retries_) +
                         " retries; escalating to failover");
          // First latch for this peer: preserve the flight rings before the
          // failover machinery churns them (no-op without NEXUS_FLIGHT_DIR).
          ctx_->dump_flight("rel-dead-latch");
        }
        // Keep probing at the capped cadence: accepted packets are never
        // abandoned, and a late ack clears the latch.
      }
      Packet copy = e.pkt;
      stamp_piggyback(peer, copy);  // refresh the piggybacked ack fields
      counters().rel_retransmits += 1;
      if (ctx_->observing()) {
        // A retransmit re-sends the SAME span under the same trace: the
        // receiver dedups by sequence number, so re-using the span keeps
        // the stitched trace free of duplicate dispatch spans.
        ctx_->observe({t, copy.span, ctx_->id(), telemetry::Phase::Retransmit,
                       trace_label(), copy.wire_size(), peer, 0, copy.trace});
      }
      const SendResult r = inner_send(*st.conn, std::move(copy));
      if (r.status == DeliveryStatus::Dead) st.dead = true;
      e.retries += 1;
      e.deadline = t + st.rto;
      if (e.deadline < next) next = e.deadline;
    }
    st.next_timer = next;
  }
  for (auto& [peer, rs] : recv_states_) {
    if (rs.ack_deadline != 0 && rs.ack_deadline <= t) flush_ack(peer, rs);
  }
}

SendResult ReliableModule::send(CommObject& conn, Packet packet) {
  RelConn& rc = static_cast<RelConn&>(conn);
  const ContextId peer = rc.peer();
  auto it = send_states_.find(peer);
  SendState& st = it != send_states_.end()
                      ? it->second
                      : send_state(peer, unwrap(rc.descriptor()));

  packet.rel_kind = RelKind::Data;  // header bytes count from here on
  const std::uint64_t wire = packet.wire_size();

  // Collect acks (and run retransmission/ack timers) before deciding on
  // window space -- reverse traffic may have freed credits already.
  drain_inbox();
  service_timers();

  if (st.dead) {
    // Escalated after max_retries: refuse new work with a Dead verdict so
    // the health tracker quarantines this method and fails over, while the
    // existing window keeps probing in service_timers().
    return {DeliveryStatus::Dead, wire};
  }

  if (window_full(st)) {
    if (policy_ == RelBackpressure::Shed) {
      // Credit-based shedding: surface a Transient verdict; the caller
      // (failover loop or application) owns the retry.
      return {DeliveryStatus::Transient, wire};
    }
    // Block: poll until an ack frees a credit (or the peer is declared
    // dead).  earliest_arrival() exposes the retransmit deadlines, so the
    // simulated engine can fast-forward instead of spinning.
    ctx_->wait([&] { return !window_full(st) || st.dead; });
    if (st.dead) return {DeliveryStatus::Dead, wire};
  }

  const std::uint64_t seq = st.next_seq++;
  SendEntry& e = slot(st, seq);
  packet.rel_from = ctx_->id();
  packet.rel_seq = seq;
  stamp_piggyback(peer, packet);
  e.pkt = packet;  // retained copy: SharedBytes refcount bump, no byte copy
  e.first_sent = now();
  e.deadline = now() + st.rto;
  e.retries = 0;
  e.acked = false;
  e.live = true;
  if (e.deadline < st.next_timer) st.next_timer = e.deadline;

  const SendResult r = inner_send(*st.conn, std::move(packet));
  if (r.status == DeliveryStatus::Dead) {
    // The inner transport rejected the initial transmit outright (MTU
    // overflow, blackholed link).  Roll the sequence back so no gap forms
    // and report Dead: recovery belongs to the failover layer.
    e.live = false;
    e.pkt = Packet{};
    --st.next_seq;
    return {DeliveryStatus::Dead, r.wire};
  }
  // Ok or Transient: the packet sits in the window and retransmission
  // repairs any loss -- the wrapper has accepted responsibility.
  if (ctx_->runtime().telemetry().metrics().enabled() && metrics() != nullptr) {
    metrics()->window_occupancy.add(st.next_seq - st.base);
  }
  return {DeliveryStatus::Ok, wire};
}

std::optional<Packet> ReliableModule::poll() {
  if (ready_.empty()) {
    drain_inbox();
    service_timers();
  }
  if (ready_.empty()) return std::nullopt;
  Packet pkt = std::move(ready_.front());
  ready_.pop_front();
  return pkt;
}

std::optional<Time> ReliableModule::earliest_arrival() const {
  std::optional<Time> t;
  const auto consider = [&t](Time v) {
    if (!t || v < *t) t = v;
  };
  if (!ready_.empty()) consider(now());
  if (auto a = fabric_->earliest_arrival(*inbox_)) consider(*a);
  for (const auto& [peer, st] : send_states_) {
    // next_timer is a lower bound on the true earliest deadline, which is
    // the safe direction here: waking early is a no-op poll, waking late
    // could stall a retransmission behind the fast-forward.
    if (st.base != st.next_seq && st.next_timer != kNever) {
      consider(st.next_timer);
    }
  }
  for (const auto& [peer, rs] : recv_states_) {
    if (rs.ack_deadline != 0) consider(rs.ack_deadline);
  }
  return t;
}

void register_reliable_wrapper(ModuleRegistry& registry, std::string inner) {
  registry.register_factory(
      "rel+" + inner,
      [inner](Context& ctx) -> std::unique_ptr<CommModule> {
        return std::make_unique<ReliableModule>(
            ctx, ctx.runtime().module_registry().create(inner, ctx));
      });
}

}  // namespace nexus::proto
