// Per-module behaviour tests and the module-extension path: registering a
// custom communication module and using it end to end (the paper's
// loadable-module story).
#include <gtest/gtest.h>

#include "nexus/runtime.hpp"
#include "proto/sim_modules.hpp"

namespace {

using namespace nexus;

RuntimeOptions opts_with(std::vector<std::string> modules,
                         simnet::Topology topo) {
  RuntimeOptions opts;
  opts.topology = std::move(topo);
  opts.modules = std::move(modules);
  return opts;
}

TEST(Modules, ShmApplicabilityFollowsNodeSize) {
  RuntimeOptions opts = opts_with({"local", "shm", "tcp"},
                                  simnet::Topology::single_partition(4));
  opts.db.set("shm.node_size", "2");  // nodes: {0,1} and {2,3}
  Runtime rt(opts);
  rt.run([&](Context& ctx) {
    if (ctx.id() != 0) return;
    CommModule* shm = ctx.module("shm");
    ASSERT_NE(shm, nullptr);
    EXPECT_TRUE(shm->applicable(
        ctx.runtime().table_of(1).at(*ctx.runtime().table_of(1).find("shm"))));
    EXPECT_FALSE(shm->applicable(
        ctx.runtime().table_of(2).at(*ctx.runtime().table_of(2).find("shm"))));
  });
}

TEST(Modules, ShmSelectedWithinNode) {
  RuntimeOptions opts = opts_with({"local", "shm", "mpl", "tcp"},
                                  simnet::Topology::single_partition(4));
  opts.db.set("shm.node_size", "2");
  Runtime rt(opts);
  rt.run([&](Context& ctx) {
    std::uint64_t done = 0;
    ctx.register_handler("noop",
                         [&](Context&, Endpoint&, util::UnpackBuffer&) {
                           ++done;
                         });
    if (ctx.id() == 1) {
      Startpoint same_node = ctx.world_startpoint(0);
      Startpoint other_node = ctx.world_startpoint(2);
      ctx.rsr(same_node, "noop");
      ctx.rsr(other_node, "noop");
      EXPECT_EQ(same_node.selected_method(), "shm");
      EXPECT_EQ(other_node.selected_method(), "mpl");
    } else if (ctx.id() == 0 || ctx.id() == 2) {
      ctx.wait_count(done, 1);
    }
  });
}

TEST(Modules, MyrinetPreferredOverMplInPartition) {
  Runtime rt(opts_with({"local", "myrinet", "mpl", "tcp"},
                       simnet::Topology::two_partitions(2, 1)));
  rt.run([&](Context& ctx) {
    std::uint64_t done = 0;
    ctx.register_handler("noop",
                         [&](Context&, Endpoint&, util::UnpackBuffer&) {
                           ++done;
                         });
    if (ctx.id() == 1) {
      Startpoint in_partition = ctx.world_startpoint(0);
      Startpoint across = ctx.world_startpoint(2);
      ctx.rsr(in_partition, "noop");
      ctx.rsr(across, "noop");
      EXPECT_EQ(in_partition.selected_method(), "myrinet");  // rank 2 < mpl 3
      EXPECT_EQ(across.selected_method(), "tcp");
    } else {
      ctx.wait_count(done, 1);
    }
  });
}

TEST(Modules, Aal5BeatsTcpWhenLoaded) {
  Runtime rt(opts_with({"local", "mpl", "aal5", "tcp"},
                       simnet::Topology::two_partitions(1, 1)));
  rt.run([&](Context& ctx) {
    std::uint64_t done = 0;
    ctx.register_handler("noop",
                         [&](Context&, Endpoint&, util::UnpackBuffer&) {
                           ++done;
                         });
    if (ctx.id() == 1) {
      Startpoint sp = ctx.world_startpoint(0);
      ctx.rsr(sp, "noop");
      EXPECT_EQ(sp.selected_method(), "aal5");  // faster metropolitan link
    } else {
      ctx.wait_count(done, 1);
    }
  });
}

TEST(Modules, SecureTamperDetectedOnDelivery) {
  // Corrupt a sealed payload in flight by poking the mailbox directly; the
  // receiving module must reject it.
  RuntimeOptions opts = opts_with({"local", "secure"},
                                  simnet::Topology::single_partition(2));
  Runtime rt(opts);
  EXPECT_THROW(
      rt.run([&](Context& ctx) {
        if (ctx.id() == 0) {
          std::uint64_t done = 0;
          ctx.register_handler("secret", [&](Context&, Endpoint&,
                                             util::UnpackBuffer&) { ++done; });
          ctx.wait_count(done, 1);
          return;
        }
        Startpoint sp = ctx.world_startpoint(0);
        sp.force_method("secure");
        util::PackBuffer pb;
        pb.put_string("attack at dawn");
        ctx.rsr(sp, "secret", pb);
        // Intercept in flight and flip a ciphertext bit.
        auto& box = ctx.runtime().sim()->host(0).box("secure");
        // (Test-only surgery: pull, corrupt, repost.)
        auto stolen = box.poll(simnet::kInfinity / 2);
        ASSERT_TRUE(stolen.has_value());
        // Payload buffers are immutable; tampering means replacing the
        // shared buffer with a corrupted copy.
        util::Bytes tampered = stolen->payload.to_bytes();
        tampered[3] ^= 0x40;
        stolen->payload = util::SharedBytes::copy_of(tampered);
        box.post(ctx.now() + simnet::kMs, std::move(*stolen));
      }),
      util::MethodError);
}

TEST(Modules, McastToEmptyGroupThrows) {
  Runtime rt(opts_with({"local", "mcast"},
                       simnet::Topology::single_partition(2)));
  EXPECT_THROW(rt.run([&](Context& ctx) {
                 if (ctx.id() != 0) return;
                 Startpoint sp = proto::multicast_startpoint(ctx, 99);
                 ctx.rsr(sp, "x");
               }),
               util::MethodError);
}

TEST(Modules, McastRequiresModuleLoaded) {
  // A context without the mcast module can neither build a group
  // startpoint nor join a group with a foreign endpoint.
  Runtime rt(opts_with({"local", "tcp"},
                       simnet::Topology::single_partition(2)));
  rt.run([&](Context& ctx) {
    if (ctx.id() != 0) return;
    EXPECT_THROW(proto::multicast_startpoint(ctx, 7), util::MethodError);
  });
}

TEST(Modules, SpeedRanksAreStrictlyOrdered) {
  Runtime rt(opts_with(
      {"local", "shm", "myrinet", "mpl", "aal5", "udp", "tcp", "secure",
       "zrle", "mcast"},
      simnet::Topology::single_partition(1)));
  rt.run([&](Context& ctx) {
    int prev = -1;
    for (const auto& d : ctx.local_table().entries()) {
      const int rank = ctx.module(d.method)->speed_rank();
      EXPECT_GT(rank, prev) << "table not fastest-first at " << d.method;
      prev = rank;
    }
  });
}

TEST(Modules, RegistryRejectsUnknownAndListsNames) {
  ModuleRegistry reg;
  EXPECT_FALSE(reg.has("carrier-pigeon"));
  EXPECT_TRUE(reg.names().empty());
  RuntimeOptions opts = opts_with({"local", "carrier-pigeon"},
                                  simnet::Topology::single_partition(1));
  Runtime rt(opts);
  EXPECT_THROW(rt.run([](Context&) {}), util::MethodError);
}

/// A user-defined module: "pigeon" -- slow, but reaches everywhere.  This
/// exercises the extension path the paper emphasizes: new methods slot in
/// without touching the core.
class PigeonModule final : public proto::SimModuleBase {
 public:
  explicit PigeonModule(Context& ctx)
      : SimModuleBase(ctx, "pigeon",
                      proto::LinkCosts{/*latency=*/50 * simnet::kMs,
                                       /*poll=*/5 * simnet::kUs,
                                       /*send_cpu=*/10 * simnet::kUs,
                                       /*mb_s=*/0.01},
                      /*rank=*/20) {}
  CommDescriptor local_descriptor() const override {
    return CommDescriptor{"pigeon", ctx_->id(), {}};
  }
  bool applicable(const CommDescriptor& remote) const override {
    return remote.method == "pigeon";
  }
};

TEST(Modules, CustomModuleEndToEnd) {
  RuntimeOptions opts = opts_with({"local", "pigeon"},
                                  simnet::Topology::two_partitions(1, 1));
  Runtime rt(opts);
  rt.module_registry().register_factory(
      "pigeon",
      [](Context& ctx) { return std::make_unique<PigeonModule>(ctx); });
  Time delivered = -1;
  rt.run(std::vector<std::function<void(Context&)>>{
      [&](Context& ctx) {
        std::uint64_t done = 0;
        ctx.register_handler("coo",
                             [&](Context& c, Endpoint&, util::UnpackBuffer&) {
                               delivered = c.now();
                               ++done;
                             });
        ctx.wait_count(done, 1);
      },
      [&](Context& ctx) {
        Startpoint sp = ctx.world_startpoint(0);
        ctx.rsr(sp, "coo");
        EXPECT_EQ(sp.selected_method(), "pigeon");
      }});
  EXPECT_GE(delivered, 50 * simnet::kMs);  // the pigeon took its time
}

TEST(Modules, UdpDropCounterExposed) {
  RuntimeOptions opts = opts_with({"local", "udp"},
                                  simnet::Topology::single_partition(2));
  opts.costs.udp_drop_prob = 1.0;  // drop everything
  Runtime rt(opts);
  rt.run([&](Context& ctx) {
    if (ctx.id() != 1) return;
    Startpoint sp = ctx.world_startpoint(0);
    for (int i = 0; i < 10; ++i) ctx.rsr(sp, "void");
    auto* udp = dynamic_cast<proto::UdpSimModule*>(ctx.module("udp"));
    ASSERT_NE(udp, nullptr);
    EXPECT_EQ(udp->dropped(), 10u);
  });
}

}  // namespace
