// Streaming method (paper §6: "Streaming protocols ... are currently being
// investigated; preliminary design work suggests that they fit the
// framework well").
//
// The "stream" module carries arbitrarily large RSR payloads over an
// MTU-limited channel by fragmenting at the sender and reassembling inside
// the module at the receiver -- the delivered RSR is indistinguishable
// from a single-message method, demonstrating that a stream-oriented
// transport slots under the standard module interface without touching the
// core.  Fragments of one message travel a fixed-latency pipe, so they
// arrive in order; interleaved streams from different senders are
// reassembled independently.
//
// Resource database keys: stream.mtu (bytes per fragment, default 8192).
// Registered for the simulated fabric only, like myrinet and aal5: what it
// adds over tcp is a modelled cost (the fragment pipeline).
#pragma once

#include <map>

#include "proto/methods.hpp"

namespace nexus::proto {

class StreamModule final : public MethodModule {
 public:
  explicit StreamModule(Context& ctx);

  SendResult send(CommObject& conn, Packet packet) override;
  std::optional<Packet> poll() override;

  std::uint64_t fragments_sent() const noexcept { return fragments_sent_; }
  std::uint64_t fragments_received() const noexcept {
    return fragments_received_;
  }

 private:
  struct Assembly {
    std::uint32_t total = 0;
    std::uint32_t received = 0;
    util::Bytes data;
    Packet header;  ///< src/dst/endpoint/handler of the original message
  };

  std::uint64_t mtu_;
  std::uint64_t next_stream_id_ = 1;
  std::uint64_t fragments_sent_ = 0;
  std::uint64_t fragments_received_ = 0;
  /// In-progress reassemblies keyed by (source context, stream id).
  std::map<std::pair<ContextId, std::uint64_t>, Assembly> assemblies_;
};

}  // namespace nexus::proto
