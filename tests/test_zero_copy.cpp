// Zero-copy payload isolation: multicast links and forwarding hops alias
// one SharedBytes buffer, so a handler that "mutates" its received bytes
// (necessarily via a copy -- the shared buffer is immutable) must never
// affect what other recipients or downstream hops observe.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "nexus/runtime.hpp"
#include "proto/methods.hpp"

namespace {

using namespace nexus;

RuntimeOptions sim_opts(simnet::Topology topo,
                        std::vector<std::string> modules = {"local", "mpl",
                                                            "tcp"}) {
  RuntimeOptions opts;
  opts.fabric = RuntimeOptions::Fabric::Simulated;
  opts.topology = std::move(topo);
  opts.modules = std::move(modules);
  return opts;
}

util::Bytes test_payload() {
  util::Bytes b(64);
  for (std::size_t i = 0; i < b.size(); ++i) {
    b[i] = static_cast<util::Byte>(i * 7 + 1);
  }
  return b;
}

TEST(ZeroCopy, PacketCopiesAliasThePayload) {
  Packet pkt;
  pkt.payload = util::SharedBytes::copy_of(test_payload());
  Packet copy = pkt;
  EXPECT_TRUE(copy.payload.aliases(pkt.payload));
  EXPECT_EQ(copy.payload.data(), pkt.payload.data());
}

TEST(ZeroCopy, MulticastRecipientMutationIsIsolated) {
  // One multi-link RSR: every link aliases the sender's single buffer.
  // Context 1's handler scribbles over its (copied-out) bytes; contexts 2
  // and 3 must still observe the pristine payload.
  Runtime rt(sim_opts(simnet::Topology::single_partition(4)));
  const util::Bytes expected = test_payload();
  std::array<bool, 4> intact{true, true, true, true};

  rt.run([&](Context& ctx) {
    if (ctx.id() == 0) {
      Startpoint group;
      for (ContextId r = 1; r <= 3; ++r) {
        Startpoint one = ctx.world_startpoint(r);
        group.links().push_back(one.link(0));
      }
      util::PackBuffer pb;
      pb.put_bytes(expected);
      // release() moves the packed storage into the shared buffer; every
      // link's packet aliases it.
      ctx.rsr(group, "blob", pb.release());
      return;
    }
    std::uint64_t done = 0;
    ctx.register_handler("blob", [&](Context& c, Endpoint&,
                                     util::UnpackBuffer& ub) {
      util::Bytes mine = ub.get_bytes();
      intact[c.id()] = mine == expected;
      if (c.id() == 1) {
        // The only mutable access is a copy; trashing it must be local.
        for (auto& byte : mine) byte = 0xff;
      }
      ++done;
    });
    ctx.wait_count(done, 1);
  });

  EXPECT_TRUE(intact[1]);
  EXPECT_TRUE(intact[2]);
  EXPECT_TRUE(intact[3]);
}

TEST(ZeroCopy, ForwarderInFlightCopyUnaffectedByLocalHandler) {
  // Partition 0 = {0} (driver), partition 1 = {1, 2} with context 1 as the
  // forwarder.  A two-link RSR delivers the same buffer at context 1
  // (locally) and through context 1's forwarding path to context 2.  The
  // local handler at 1 corrupts its copy; the forwarded packet, which
  // aliases the same buffer while queued, must arrive at 2 pristine.
  RuntimeOptions opts = sim_opts(simnet::Topology::two_partitions(1, 2));
  opts.forwarders[1] = 1;
  Runtime rt(opts);
  const util::Bytes expected = test_payload();
  bool fwd_intact = false;
  bool local_intact = false;

  rt.run([&](Context& ctx) {
    if (ctx.id() == 0) {
      Startpoint both;
      Startpoint to1 = ctx.world_startpoint(1);
      Startpoint to2 = ctx.world_startpoint(2);
      both.links().push_back(to1.link(0));
      both.links().push_back(to2.link(0));
      util::PackBuffer pb;
      pb.put_bytes(expected);
      ctx.rsr(both, "blob", pb.release());
      return;
    }
    std::uint64_t done = 0;
    ctx.register_handler("blob", [&](Context& c, Endpoint&,
                                     util::UnpackBuffer& ub) {
      util::Bytes mine = ub.get_bytes();
      if (c.id() == 1) {
        local_intact = mine == expected;
        for (auto& byte : mine) byte = 0x00;
      } else {
        fwd_intact = mine == expected;
      }
      ++done;
    });
    ctx.wait_count(done, 1);
  });

  EXPECT_TRUE(local_intact);
  EXPECT_TRUE(fwd_intact);
}

TEST(ZeroCopy, RealtimeMulticastMembersSeePristinePayload) {
  // Same isolation contract on the thread fabric: the rt mcast module's
  // per-member packets alias one buffer across real concurrent queues.
  RuntimeOptions opts = sim_opts(simnet::Topology::single_partition(4),
                                 {"local", "mpl", "tcp", "mcast"});
  opts.fabric = RuntimeOptions::Fabric::Realtime;
  Runtime rt(opts);
  const util::Bytes expected = test_payload();
  std::atomic<int> pristine{0};
  std::atomic<int> joined{0};

  rt.run([&](Context& ctx) {
    if (ctx.id() == 0) {
      while (joined.load() < 3) std::this_thread::yield();
      Startpoint group = proto::multicast_startpoint(ctx, 5);
      util::PackBuffer pb;
      pb.put_bytes(expected);
      ctx.rsr(group, "blob", pb.release());
      return;
    }
    std::uint64_t done = 0;
    Endpoint& ep = ctx.create_endpoint();
    ctx.register_handler("blob", [&](Context&, Endpoint&,
                                     util::UnpackBuffer& ub) {
      util::Bytes mine = ub.get_bytes();
      if (mine == expected) pristine.fetch_add(1);
      for (auto& byte : mine) byte = 0xee;  // local copy only
      ++done;
    });
    proto::multicast_join(ctx, 5, ep);
    joined.fetch_add(1);
    ctx.wait_count(done, 1);
  });

  EXPECT_EQ(pristine.load(), 3);
}

}  // namespace
