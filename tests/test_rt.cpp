// Tests for the realtime (thread) fabric: the same Nexus semantics running
// on real std::threads with queue transports.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "nexus/runtime.hpp"
#include "proto/methods.hpp"

namespace {

using namespace nexus;

RuntimeOptions rt_opts(simnet::Topology topo) {
  RuntimeOptions opts;
  opts.fabric = RuntimeOptions::Fabric::Realtime;
  opts.topology = std::move(topo);
  opts.modules = {"local", "mpl", "tcp"};
  return opts;
}

TEST(Realtime, BasicRsrAcrossThreads) {
  Runtime rt(rt_opts(simnet::Topology::single_partition(2)));
  std::atomic<int> received{0};
  rt.run(std::vector<std::function<void(Context&)>>{
      [&](Context& ctx) {
        std::uint64_t done = 0;
        ctx.register_handler("hit",
                             [&](Context&, Endpoint&, util::UnpackBuffer&) {
                               received.fetch_add(1);
                               ++done;
                             });
        ctx.wait_count(done, 3);
      },
      [&](Context& ctx) {
        Startpoint sp = ctx.world_startpoint(0);
        for (int i = 0; i < 3; ++i) ctx.rsr(sp, "hit");
      }});
  EXPECT_EQ(received.load(), 3);
}

TEST(Realtime, PartitionRuleStillApplies) {
  Runtime rt(rt_opts(simnet::Topology::two_partitions(1, 1)));
  std::string method;
  rt.run(std::vector<std::function<void(Context&)>>{
      [&](Context& ctx) {
        std::uint64_t done = 0;
        ctx.register_handler("hit",
                             [&](Context&, Endpoint&, util::UnpackBuffer&) {
                               ++done;
                             });
        ctx.wait_count(done, 1);
      },
      [&](Context& ctx) {
        Startpoint sp = ctx.world_startpoint(0);
        ctx.rsr(sp, "hit");
        method = sp.selected_method();
      }});
  EXPECT_EQ(method, "tcp");  // mpl inapplicable across partitions
}

TEST(Realtime, PayloadsCrossIntact) {
  Runtime rt(rt_opts(simnet::Topology::single_partition(2)));
  std::string got;
  double value = 0.0;
  rt.run(std::vector<std::function<void(Context&)>>{
      [&](Context& ctx) {
        std::uint64_t done = 0;
        ctx.register_handler("data",
                             [&](Context&, Endpoint&,
                                 util::UnpackBuffer& ub) {
                               got = ub.get_string();
                               value = ub.get_f64();
                               ++done;
                             });
        ctx.wait_count(done, 1);
      },
      [&](Context& ctx) {
        util::PackBuffer pb;
        pb.put_string("realtime payload");
        pb.put_f64(6.25);
        Startpoint sp = ctx.world_startpoint(0);
        ctx.rsr(sp, "data", pb);
      }});
  EXPECT_EQ(got, "realtime payload");
  EXPECT_EQ(value, 6.25);
}

TEST(Realtime, StartpointTransferWorks) {
  Runtime rt(rt_opts(simnet::Topology::single_partition(2)));
  std::atomic<bool> replied{false};
  rt.run(std::vector<std::function<void(Context&)>>{
      [&](Context& ctx) {
        std::uint64_t done = 0;
        ctx.register_handler(
            "call-me-back", [&](Context& c, Endpoint&,
                                util::UnpackBuffer& ub) {
              Startpoint back = c.unpack_startpoint(ub);
              c.rsr(back, "reply");
              ++done;
            });
        ctx.wait_count(done, 1);
      },
      [&](Context& ctx) {
        std::uint64_t got = 0;
        ctx.register_handler("reply",
                             [&](Context&, Endpoint&, util::UnpackBuffer&) {
                               replied.store(true);
                               ++got;
                             });
        Startpoint to0 = ctx.world_startpoint(0);
        Startpoint back = ctx.startpoint_to(ctx.root_endpoint());
        util::PackBuffer pb;
        ctx.pack_startpoint(pb, back);
        ctx.rsr(to0, "call-me-back", pb);
        ctx.wait_count(got, 1);
      }});
  EXPECT_TRUE(replied.load());
}

TEST(Realtime, BlockingPollerDelivers) {
  Runtime rt(rt_opts(simnet::Topology::two_partitions(1, 1)));
  std::atomic<int> hits{0};
  rt.run(std::vector<std::function<void(Context&)>>{
      [&](Context& ctx) {
        std::uint64_t done = 0;
        ctx.register_handler("hit",
                             [&](Context&, Endpoint&, util::UnpackBuffer&) {
                               hits.fetch_add(1);
                               ++done;
                             });
        // Hand TCP to a real blocking thread; the engine stops polling it.
        ctx.set_blocking_poller("tcp", true);
        EXPECT_FALSE(ctx.poll_enabled("tcp"));
        ctx.wait_count(done, 5);
        ctx.set_blocking_poller("tcp", false);
        EXPECT_TRUE(ctx.poll_enabled("tcp"));
      },
      [&](Context& ctx) {
        Startpoint sp = ctx.world_startpoint(0);
        for (int i = 0; i < 5; ++i) ctx.rsr(sp, "hit");
      }});
  EXPECT_EQ(hits.load(), 5);
}

TEST(Realtime, ManyContextsManyMessages) {
  constexpr int kCtx = 6;
  constexpr int kEach = 50;
  Runtime rt(rt_opts(simnet::Topology::single_partition(kCtx)));
  std::atomic<int> total{0};
  rt.run([&](Context& ctx) {
    std::uint64_t mine = 0;
    ctx.register_handler("hit",
                         [&](Context&, Endpoint&, util::UnpackBuffer&) {
                           total.fetch_add(1);
                           ++mine;
                         });
    // Everyone sends to everyone else, then waits for its own share.
    for (ContextId t = 0; t < kCtx; ++t) {
      if (t == ctx.id()) continue;
      Startpoint sp = ctx.world_startpoint(t);
      for (int i = 0; i < kEach; ++i) ctx.rsr(sp, "hit");
    }
    ctx.wait_count(mine, static_cast<std::uint64_t>(kEach) * (kCtx - 1));
  });
  EXPECT_EQ(total.load(), kEach * kCtx * (kCtx - 1));
}

TEST(Realtime, ExceptionPropagatesFromContextThread) {
  Runtime rt(rt_opts(simnet::Topology::single_partition(2)));
  EXPECT_THROW(
      rt.run(std::vector<std::function<void(Context&)>>{
          [](Context&) { throw std::runtime_error("context failure"); },
          [](Context&) {}}),
      std::runtime_error);
}

TEST(Realtime, SimOnlyModulesRejected) {
  RuntimeOptions opts = rt_opts(simnet::Topology::single_partition(1));
  opts.modules = {"local", "myrinet"};  // myrinet has no realtime variant
  Runtime rt(opts);
  EXPECT_THROW(rt.run([](Context&) {}), util::MethodError);
}

TEST(Realtime, WrapperMethodsRoundtrip) {
  RuntimeOptions opts = rt_opts(simnet::Topology::two_partitions(1, 1));
  opts.modules = {"local", "mpl", "tcp", "secure", "zrle"};
  Runtime rt(opts);
  std::string via_secure, via_zrle;
  rt.run(std::vector<std::function<void(Context&)>>{
      [&](Context& ctx) {
        std::uint64_t done = 0;
        ctx.register_handler("s", [&](Context&, Endpoint&,
                                      util::UnpackBuffer& ub) {
          via_secure = ub.get_string();
          ++done;
        });
        ctx.register_handler("z", [&](Context&, Endpoint&,
                                      util::UnpackBuffer& ub) {
          via_zrle = ub.get_string();
          ++done;
        });
        ctx.wait_count(done, 2);
      },
      [&](Context& ctx) {
        Startpoint sec = ctx.world_startpoint(0);
        sec.force_method("secure");
        util::PackBuffer a;
        a.put_string("sealed-for-transit");
        ctx.rsr(sec, "s", a);

        Startpoint zip = ctx.world_startpoint(0);
        zip.force_method("zrle");
        util::PackBuffer b;
        b.put_string("compressed-for-transit");
        ctx.rsr(zip, "z", b);
      }});
  EXPECT_EQ(via_secure, "sealed-for-transit");
  EXPECT_EQ(via_zrle, "compressed-for-transit");
}

TEST(Realtime, MulticastFansOut) {
  RuntimeOptions opts = rt_opts(simnet::Topology::single_partition(4));
  opts.modules = {"local", "mpl", "tcp", "mcast"};
  Runtime rt(opts);
  std::atomic<int> hits{0};
  std::atomic<int> joined{0};
  rt.run([&](Context& ctx) {
    if (ctx.id() == 0) {
      while (joined.load() < 3) std::this_thread::yield();
      Startpoint group = nexus::proto::multicast_startpoint(ctx, 11);
      ctx.rsr(group, "update");
      return;
    }
    std::uint64_t done = 0;
    Endpoint& ep = ctx.create_endpoint();
    ctx.register_handler("update",
                         [&](Context&, Endpoint&, util::UnpackBuffer&) {
                           hits.fetch_add(1);
                           ++done;
                         });
    nexus::proto::multicast_join(ctx, 11, ep);
    joined.fetch_add(1);
    ctx.wait_count(done, 1);
  });
  EXPECT_EQ(hits.load(), 3);
}

TEST(Realtime, UdpDropsForReal) {
  RuntimeOptions opts = rt_opts(simnet::Topology::single_partition(2));
  opts.modules = {"local", "mpl", "tcp", "udp"};
  opts.costs.udp_drop_prob = 1.0;  // drop everything (deterministic)
  Runtime rt(opts);
  rt.run(std::vector<std::function<void(Context&)>>{
      [&](Context&) {},
      [&](Context& ctx) {
        Startpoint sp = ctx.world_startpoint(0);
        sp.force_method("udp");
        for (int i = 0; i < 5; ++i) ctx.rsr(sp, "void");
        auto* udp = dynamic_cast<nexus::proto::UdpModule*>(
            ctx.module("udp"));
        ASSERT_NE(udp, nullptr);
        EXPECT_EQ(udp->dropped(), 5u);
      }});
}

}  // namespace
