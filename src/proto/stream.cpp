#include "proto/stream.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace nexus::proto {

namespace {
// Fragment payload layout: [u64 stream][u32 index][u32 total][bytes chunk]
constexpr std::size_t kFragHeader = 8 + 4 + 4 + 4;  // incl. chunk length
}  // namespace

StreamModule::StreamModule(Context& ctx)
    : MethodModule(ctx, "stream",
                   LinkCosts{ctx.costs().tcp_latency,
                             ctx.costs().tcp_poll_cost,
                             ctx.costs().tcp_send_cpu, ctx.costs().tcp_mb_s},
                   10),
      mtu_(static_cast<std::uint64_t>(
          std::max<std::int64_t>(64, ctx.config().get_int("stream.mtu",
                                                          8192)))) {}

SendResult StreamModule::send(CommObject& conn, Packet packet) {
  Inbox& to = route(static_cast<Conn&>(conn));
  const std::uint64_t stream = next_stream_id_++;
  const std::uint64_t size = packet.payload.size();
  const auto total = static_cast<std::uint32_t>(
      size == 0 ? 1 : (size + mtu_ - 1) / mtu_);

  std::uint64_t wire_total = 0;
  Time arrival = now();
  for (std::uint32_t index = 0; index < total; ++index) {
    const std::uint64_t off = static_cast<std::uint64_t>(index) * mtu_;
    const std::uint64_t len = std::min(mtu_, size - off);
    util::PackBuffer frag(static_cast<std::size_t>(len) + kFragHeader);
    frag.put_u64(stream);
    frag.put_u32(index);
    frag.put_u32(total);
    frag.put_bytes(packet.payload.span().subspan(
        static_cast<std::size_t>(off), static_cast<std::size_t>(len)));

    Packet piece;
    piece.src = packet.src;
    piece.dst = packet.dst;
    piece.endpoint = packet.endpoint;
    piece.handler = packet.handler;
    piece.hops = packet.hops;
    piece.payload = frag.release();

    // Fragments pipeline: the sender pays CPU per fragment, and each
    // fragment's transfer follows the previous one on the wire.
    charge(costs_.send_cpu);
    const std::uint64_t wire = piece.wire_size();
    wire_total += wire;
    const Time depart = std::max(arrival, now());
    arrival = depart + simnet::transfer_time(wire, costs_.mb_s);
    const SendResult r = fabric_->post(*ctx_, *this, to, std::move(piece),
                                       arrival + costs_.latency - now());
    if (!r.ok()) {
      // A fault ate this fragment: the stream cannot complete, so surface
      // the failure (the receiver's partial assembly is abandoned; a retry
      // uses a fresh stream id and cannot be confused with it).
      return {r.status, wire_total};
    }
    ++fragments_sent_;
  }
  return {DeliveryStatus::Ok, wire_total};
}

std::optional<Packet> StreamModule::poll() {
  while (auto piece = MethodModule::poll()) {
    ++fragments_received_;
    util::UnpackBuffer ub(piece->payload.span());
    const std::uint64_t stream = ub.get_u64();
    const std::uint32_t index = ub.get_u32();
    const std::uint32_t total = ub.get_u32();
    util::ByteSpan chunk = ub.get_bytes_view();

    Assembly& as = assemblies_[{piece->src, stream}];
    if (as.total == 0) {
      as.total = total;
      as.header = *piece;
    }
    // One corrupt fragment poisons the whole message: the reassembled
    // packet keeps the flag so the receiving engine quarantines it.
    if (piece->corrupted) as.header.corrupted = true;
    if (as.total != total) {
      throw util::MethodError("stream: inconsistent fragment count");
    }
    // Same-pipe fragments arrive in order; guard anyway.
    if (index != as.received) {
      throw util::MethodError("stream: fragment out of order");
    }
    as.data.insert(as.data.end(), chunk.begin(), chunk.end());
    ++as.received;
    if (as.received == as.total) {
      Packet whole = std::move(as.header);
      whole.payload = std::move(as.data);
      assemblies_.erase({piece->src, stream});
      return whole;
    }
    // Partial stream: keep pulling fragments that are already here.
  }
  return std::nullopt;
}

}  // namespace nexus::proto
