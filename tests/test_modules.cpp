// Per-module behaviour tests and the module-extension path: registering a
// custom communication module and using it end to end (the paper's
// loadable-module story).
#include <gtest/gtest.h>

#include "nexus/runtime.hpp"
#include "proto/methods.hpp"

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
class PigeonModule final : public proto::MethodModule {
 public:
  explicit PigeonModule(Context& ctx)
      : MethodModule(ctx, "pigeon",
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
  // Written once against the fabric interface, the pigeon flies on both.
  for (const auto fabric : {RuntimeOptions::Fabric::Simulated,
                            RuntimeOptions::Fabric::Realtime}) {
    SCOPED_TRACE(fabric == RuntimeOptions::Fabric::Simulated ? "sim" : "rt");
    RuntimeOptions opts = opts_with({"local", "pigeon"},
                                    simnet::Topology::two_partitions(1, 1));
    opts.fabric = fabric;
    Runtime rt(opts);
    rt.module_registry().register_factory(
        "pigeon",
        [](Context& ctx) { return std::make_unique<PigeonModule>(ctx); });
    Time delivered = -1;
    rt.run(std::vector<std::function<void(Context&)>>{
        [&](Context& ctx) {
          std::uint64_t done = 0;
          ctx.register_handler(
              "coo", [&](Context& c, Endpoint&, util::UnpackBuffer&) {
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
    EXPECT_GE(delivered, 0);
    if (fabric == RuntimeOptions::Fabric::Simulated) {
      EXPECT_GE(delivered, 50 * simnet::kMs);  // the pigeon took its time
    }
  }
}

/// What one fabric makes of the methods both fabrics provide, on
/// two_partitions(2, 2) with context 2 relaying tcp for partition 1 and
/// shm nodes of two contexts.
struct FabricView {
  static constexpr ContextId kWorld = 4;
  /// Per method, sender and target: the landing context of the target's
  /// descriptor if the sender's module finds it applicable, else -1.
  std::map<std::string, std::vector<std::int64_t>> reach;
  DeliveryStatus over_mtu_udp = DeliveryStatus::Ok;
};

FabricView view_of(RuntimeOptions::Fabric fabric) {
  const std::vector<std::string> methods = {"local", "shm",    "mpl",  "tcp",
                                            "udp",   "secure", "zrle", "mcast"};
  RuntimeOptions opts = opts_with(methods,
                                  simnet::Topology::two_partitions(2, 2));
  opts.fabric = fabric;
  opts.forwarders = {{1, 2}};
  opts.db.set("shm.node_size", "2");
  Runtime rt(opts);
  FabricView view;
  for (const auto& m : methods) {
    view.reach[m].assign(FabricView::kWorld * FabricView::kWorld, -1);
  }
  const auto descriptor = [&rt](ContextId to, const std::string& m) {
    const DescriptorTable& t = rt.table_of(to);
    return t.at(*t.find(m));
  };
  rt.run([&](Context& ctx) {
    // Each context fills only its own rows of the pre-sized matrices.
    for (const auto& m : methods) {
      std::vector<std::int64_t>& row = view.reach.find(m)->second;
      for (ContextId to = 0; to < FabricView::kWorld; ++to) {
        const CommDescriptor d = descriptor(to, m);
        if (ctx.module(m)->applicable(d)) {
          row[ctx.id() * FabricView::kWorld + to] =
              ctx.module(m)->landing_context(d);
        }
      }
    }
    if (ctx.id() != 1) return;
    CommModule& udp = *ctx.module("udp");
    auto conn = udp.connect(descriptor(0, "udp"));
    Packet p;
    p.src = 1;
    p.dst = 0;
    p.payload = util::SharedBytes::copy_of(
        util::Bytes(static_cast<std::size_t>(opts.costs.udp_mtu) + 1, 0));
    view.over_mtu_udp = udp.send(*conn, std::move(p)).status;
  });
  return view;
}

TEST(Modules, FabricParity) {
  const FabricView sim = view_of(RuntimeOptions::Fabric::Simulated);
  const FabricView rt = view_of(RuntimeOptions::Fabric::Realtime);
  for (const auto& [method, reach] : sim.reach) {
    if (method == "shm") continue;  // the node rule differs by design
    EXPECT_EQ(reach, rt.reach.at(method)) << method;
  }
  // shm: ctx / shm.node_size on sim; every realtime context shares a node.
  // tcp: targets in partition 1 land on its forwarder, context 2.
  const auto lands = [](bool applicable, ContextId at) -> std::int64_t {
    return applicable ? std::int64_t{at} : -1;
  };
  for (ContextId from = 0; from < FabricView::kWorld; ++from) {
    for (ContextId to = 0; to < FabricView::kWorld; ++to) {
      const std::size_t i = from * FabricView::kWorld + to;
      const bool same_half = from / 2 == to / 2;
      EXPECT_EQ(sim.reach.at("shm")[i], lands(same_half, to));
      EXPECT_EQ(rt.reach.at("shm")[i], lands(true, to));
      EXPECT_EQ(sim.reach.at("tcp")[i], lands(true, to < 2 ? to : 2));
      EXPECT_EQ(sim.reach.at("mpl")[i], lands(same_half, to));
      EXPECT_EQ(sim.reach.at("local")[i], lands(from == to, to));
    }
  }
  EXPECT_EQ(sim.over_mtu_udp, DeliveryStatus::Dead);
  EXPECT_EQ(rt.over_mtu_udp, DeliveryStatus::Dead);
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
    auto* udp = dynamic_cast<proto::UdpModule*>(ctx.module("udp"));
    ASSERT_NE(udp, nullptr);
    EXPECT_EQ(udp->dropped(), 10u);
  });
}

}  // namespace
