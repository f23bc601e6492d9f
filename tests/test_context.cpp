// Integration tests for the Nexus core on the simulated fabric: RSRs,
// method selection, startpoint transfer, multicast, forwarding.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "fixture_runtime.hpp"
#include "nexus/runtime.hpp"
#include "proto/methods.hpp"
#include "util/pack.hpp"

namespace {

using namespace nexus;
using simnet::kMs;
using simnet::kUs;
using nexus::testing::count_events;
using nexus::testing::run_mpmd;
using nexus::testing::sim_opts;

TEST(ContextRsr, BasicRequestReply) {
  Runtime rt(sim_opts(simnet::Topology::single_partition(2)));
  std::string received;
  Time recv_time = -1;

  run_mpmd(rt, {// context 0: serve one request
                [&](Context& ctx) {
                  std::uint64_t served = 0;
                  ctx.register_handler(
                      "greet", [&](Context&, Endpoint&,
                                   util::UnpackBuffer& ub) {
                        received = ub.get_string();
                        recv_time = ctx.now();
                        ++served;
                      });
                  ctx.wait_count(served, 1);
                },
                // context 1: send one RSR to context 0's root endpoint
                [&](Context& ctx) {
                  Startpoint sp = ctx.world_startpoint(0);
                  util::PackBuffer args;
                  args.put_string("hello from 1");
                  ctx.rsr(sp, "greet", args);
                  EXPECT_EQ(sp.selected_method(), "mpl");  // same partition
                }});

  EXPECT_EQ(received, "hello from 1");
  EXPECT_GT(recv_time, 0);
  // One-way cost must include at least the MPL latency.
  EXPECT_GE(recv_time, rt.options().costs.mpl_latency);
}

TEST(ContextRsr, CrossPartitionSelectsTcp) {
  Runtime rt(sim_opts(simnet::Topology::two_partitions(1, 1)));
  std::string method_used;
  run_mpmd(rt, {[&](Context& ctx) {
                  std::uint64_t served = 0;
                  ctx.register_handler("noop", [&](Context&, Endpoint&,
                                                   util::UnpackBuffer&) {
                    ++served;
                  });
                  ctx.wait_count(served, 1);
                },
                [&](Context& ctx) {
                  Startpoint sp = ctx.world_startpoint(0);
                  ctx.rsr(sp, "noop");
                  method_used = sp.selected_method();
                }});
  EXPECT_EQ(method_used, "tcp");
}

TEST(ContextRsr, SelfRsrUsesLocalMethod) {
  Runtime rt(sim_opts(simnet::Topology::single_partition(1)));
  rt.run([&](Context& ctx) {
    std::uint64_t count = 0;
    ctx.register_handler("self",
                         [&](Context&, Endpoint&, util::UnpackBuffer&) {
                           ++count;
                         });
    Startpoint sp = ctx.startpoint_to(ctx.root_endpoint());
    ctx.rsr(sp, "self");
    EXPECT_EQ(sp.selected_method(), "local");
    ctx.wait_count(count, 1);
  });
}

TEST(ContextRsr, UnboundStartpointThrows) {
  Runtime rt(sim_opts(simnet::Topology::single_partition(1)));
  rt.run([&](Context& ctx) {
    Startpoint sp;
    EXPECT_THROW(ctx.rsr(sp, "x"), util::UsageError);
  });
}

TEST(ContextRsr, UnknownHandlerDropsAndCountsAtReceiver) {
  // A sender naming a handler the receiver never registered is the
  // sender's protocol error, not a reason to fault the receiver: the RSR
  // is dropped and counted in send_errors (docs/ARCHITECTURE.md §15).
  Runtime rt(sim_opts(simnet::Topology::single_partition(1)));
  rt.run([&](Context& ctx) {
    Startpoint sp = ctx.startpoint_to(ctx.root_endpoint());
    EXPECT_EQ(ctx.rsr(sp, "never-registered"), DeliveryStatus::Ok);
    ctx.compute_with_polling(1 * kMs, 100 * kUs);  // let delivery happen
  });
  EXPECT_EQ(rt.telemetry().metrics().context(0).send_errors, 1u);
}

TEST(ContextRsr, MultiBindIsMulticast) {
  // One startpoint bound to two endpoints: each RSR reaches both (§2.2).
  Runtime rt(sim_opts(simnet::Topology::single_partition(3)));
  int hits0 = 0, hits1 = 0;
  util::PackBuffer sp_wire;

  run_mpmd(
      rt,
      {[&](Context& ctx) {
         std::uint64_t done = 0;
         ctx.register_handler("hit", [&](Context&, Endpoint&,
                                         util::UnpackBuffer&) {
           ++hits0;
           ++done;
         });
         ctx.wait_count(done, 1);
       },
       [&](Context& ctx) {
         std::uint64_t done = 0;
         ctx.register_handler("hit", [&](Context&, Endpoint&,
                                         util::UnpackBuffer&) {
           ++hits1;
           ++done;
         });
         ctx.wait_count(done, 1);
       },
       [&](Context& ctx) {
         // Build a two-link startpoint from two world startpoints' links.
         Startpoint a = ctx.world_startpoint(0);
         Startpoint b = ctx.world_startpoint(1);
         Startpoint both;
         both.links().push_back(a.link(0));
         both.links().push_back(b.link(0));
         ctx.rsr(both, "hit");
         EXPECT_EQ(both.link_count(), 2u);
       }});

  EXPECT_EQ(hits0, 1);
  EXPECT_EQ(hits1, 1);
}

TEST(ContextRsr, StartpointTransferAndUse) {
  // Figure 1/3 flow: context 0 creates an endpoint + startpoint, ships the
  // startpoint to context 1 inside an RSR payload; context 1 unpacks it and
  // uses it to reach the new endpoint (not the root).
  Runtime rt(sim_opts(simnet::Topology::single_partition(2)));
  std::string got;

  run_mpmd(
      rt,
      {[&](Context& ctx) {
         std::uint64_t done = 0;
         Endpoint& data_ep = ctx.create_endpoint();
         data_ep.set_local_address(std::string("the-object"));
         ctx.register_handler(
             "on-data", [&](Context&, Endpoint& ep, util::UnpackBuffer& ub) {
               got = *ep.local_as<std::string>() + "/" + ub.get_string();
               ++done;
             });
         // Hand the startpoint to context 1 via its root endpoint.
         std::uint64_t unused = 0;
         (void)unused;
         Startpoint to_peer = ctx.world_startpoint(1);
         Startpoint mine = ctx.startpoint_to(data_ep);
         util::PackBuffer pb;
         ctx.pack_startpoint(pb, mine);
         ctx.rsr(to_peer, "take-startpoint", pb);
         ctx.wait_count(done, 1);
       },
       [&](Context& ctx) {
         std::uint64_t done = 0;
         ctx.register_handler(
             "take-startpoint",
             [&](Context& c, Endpoint&, util::UnpackBuffer& ub) {
               Startpoint sp = c.unpack_startpoint(ub);
               EXPECT_EQ(sp.link(0).context, 0u);
               EXPECT_NE(sp.link(0).endpoint, 1u);  // not the root
               util::PackBuffer pb;
               pb.put_string("payload");
               c.rsr(sp, "on-data", pb);
               ++done;
             });
         ctx.wait_count(done, 1);
       }});

  EXPECT_EQ(got, "the-object/payload");
}

TEST(ContextRsr, LightweightStartpointIsSmaller) {
  Runtime rt(sim_opts(simnet::Topology::single_partition(2)));
  rt.run([&](Context& ctx) {
    if (ctx.id() != 0) return;
    // Default-table startpoint: packs without the table.
    Startpoint light = ctx.world_startpoint(1);
    util::PackBuffer pb_light;
    ctx.pack_startpoint(pb_light, light);

    // Edited table forces the full representation.
    Startpoint heavy = ctx.world_startpoint(1);
    heavy.table().prioritize("tcp");
    heavy.invalidate_selection();
    util::PackBuffer pb_heavy;
    ctx.pack_startpoint(pb_heavy, heavy);

    EXPECT_LT(pb_light.size(), pb_heavy.size());
    // The lightweight form must still unpack to the full default table.
    util::UnpackBuffer ub(pb_light.bytes());
    Startpoint again = ctx.unpack_startpoint(ub);
    EXPECT_EQ(again.table(), ctx.runtime().table_of(1));
  });
}

TEST(ContextRsr, ForcedMethodOverridesSelection) {
  Runtime rt(sim_opts(simnet::Topology::single_partition(2)));
  run_mpmd(rt, {[&](Context& ctx) {
                  std::uint64_t done = 0;
                  ctx.register_handler("noop", [&](Context&, Endpoint&,
                                                   util::UnpackBuffer&) {
                    ++done;
                  });
                  ctx.wait_count(done, 1);
                },
                [&](Context& ctx) {
                  Startpoint sp = ctx.world_startpoint(0);
                  sp.force_method("tcp");  // slower but legal anywhere
                  ctx.rsr(sp, "noop");
                  EXPECT_EQ(sp.selected_method(), "tcp");
                  // Switching back re-runs selection.
                  sp.clear_forced_method();
                  EXPECT_TRUE(sp.selected_method().empty());
                }});
}

TEST(ContextRsr, ForcedInapplicableMethodThrows) {
  Runtime rt(sim_opts(simnet::Topology::two_partitions(1, 1)));
  run_mpmd(rt, {[&](Context&) {},
                [&](Context& ctx) {
                  Startpoint sp = ctx.world_startpoint(0);
                  sp.force_method("mpl");  // different partition
                  EXPECT_THROW(ctx.rsr(sp, "x"), util::MethodError);
                  sp.force_method("nonexistent");
                  EXPECT_THROW(ctx.rsr(sp, "x"), util::MethodError);
                }});
}

TEST(ContextRsr, RemovingDescriptorChangesSelection) {
  // Manual control per §3.2: deleting the fast entry falls through to tcp.
  Runtime rt(sim_opts(simnet::Topology::single_partition(2)));
  run_mpmd(rt, {[&](Context& ctx) {
                  std::uint64_t done = 0;
                  ctx.register_handler("noop", [&](Context&, Endpoint&,
                                                   util::UnpackBuffer&) {
                    ++done;
                  });
                  ctx.wait_count(done, 1);
                },
                [&](Context& ctx) {
                  Startpoint sp = ctx.world_startpoint(0);
                  sp.table().remove("mpl");
                  sp.invalidate_selection();
                  ctx.rsr(sp, "noop");
                  EXPECT_EQ(sp.selected_method(), "tcp");
                }});
}

TEST(ContextRsr, SelectionLogRecordsDecisions) {
  Runtime rt(sim_opts(simnet::Topology::two_partitions(1, 1)));
  run_mpmd(rt, {[&](Context& ctx) {
                  std::uint64_t done = 0;
                  ctx.register_handler("noop", [&](Context&, Endpoint&,
                                                   util::UnpackBuffer&) {
                    ++done;
                  });
                  ctx.wait_count(done, 1);
                },
                [&](Context& ctx) {
                  Startpoint sp = ctx.world_startpoint(0);
                  ctx.rsr(sp, "noop");
                  ASSERT_EQ(ctx.selection_log().size(), 1u);
                  const auto& rec = ctx.selection_log()[0];
                  EXPECT_EQ(rec.target, 0u);
                  EXPECT_EQ(rec.method, "tcp");
                  EXPECT_FALSE(rec.reason.empty());
                }});
}

TEST(ContextRsr, SelectionLogIsABoundedRing) {
  // Alternating the forced method re-runs selection on every RSR; the log
  // keeps only the newest kSelectionLogCapacity decisions.
  constexpr std::size_t kCap = Context::kSelectionLogCapacity;
  constexpr std::size_t kRsrs = kCap + 44;
  auto method_of = [](std::size_t i) { return i % 2 ? "tcp" : "mpl"; };
  Runtime rt(sim_opts(simnet::Topology::single_partition(2)));
  run_mpmd(rt, {[&](Context& ctx) {
                  std::uint64_t done = 0;
                  ctx.register_handler("noop", [&](Context&, Endpoint&,
                                                   util::UnpackBuffer&) {
                    ++done;
                  });
                  ctx.wait_count(done, kRsrs);
                },
                [&](Context& ctx) {
                  Startpoint sp = ctx.world_startpoint(0);
                  for (std::size_t i = 0; i < kRsrs; ++i) {
                    sp.force_method(method_of(i));
                    ctx.rsr(sp, "noop");
                  }
                  const auto& log = ctx.selection_log();
                  ASSERT_EQ(log.size(), kCap);
                  EXPECT_EQ(log.back().method, method_of(kRsrs - 1));
                  EXPECT_GT(log.back().when, log[kCap - 2].when);
                  EXPECT_EQ(log.front().method, method_of(kRsrs - kCap));
                  EXPECT_EQ(log.back().reason, "forced by application");
                }});
}

TEST(ContextRsr, CommObjectsSharedAcrossStartpoints) {
  // Paper §3.1: communication objects are shared among startpoints that
  // reference the same context with the same method.
  Runtime rt(sim_opts(simnet::Topology::single_partition(2)));
  run_mpmd(rt, {[&](Context& ctx) {
                  std::uint64_t done = 0;
                  ctx.register_handler("noop", [&](Context&, Endpoint&,
                                                   util::UnpackBuffer&) {
                    ++done;
                  });
                  ctx.wait_count(done, 2);
                },
                [&](Context& ctx) {
                  Startpoint a = ctx.world_startpoint(0);
                  Startpoint b = ctx.world_startpoint(0);
                  ctx.rsr(a, "noop");
                  ctx.rsr(b, "noop");
                  EXPECT_EQ(a.link(0).conn.get(), b.link(0).conn.get());
                }});
}

TEST(ContextEndpoints, CreateDestroyLookup) {
  Runtime rt(sim_opts(simnet::Topology::single_partition(1)));
  rt.run([&](Context& ctx) {
    Endpoint& ep = ctx.create_endpoint();
    EXPECT_TRUE(ctx.has_endpoint(ep.id()));
    EXPECT_EQ(&ctx.endpoint(ep.id()), &ep);
    const EndpointId id = ep.id();
    ctx.destroy_endpoint(id);
    EXPECT_FALSE(ctx.has_endpoint(id));
    EXPECT_THROW(ctx.destroy_endpoint(id), util::UsageError);
    EXPECT_THROW(ctx.destroy_endpoint(1), util::UsageError);  // root
  });
}

TEST(ContextEnquiry, MethodsAndCounters) {
  Runtime rt(sim_opts(simnet::Topology::single_partition(2)));
  run_mpmd(rt, {[&](Context& ctx) {
                  std::uint64_t done = 0;
                  ctx.register_handler("noop", [&](Context&, Endpoint&,
                                                   util::UnpackBuffer&) {
                    ++done;
                  });
                  ctx.wait_count(done, 1);
                  EXPECT_GE(ctx.method_counters("mpl").recvs, 1u);
                  EXPECT_GE(ctx.method_counters("mpl").polls, 1u);
                },
                [&](Context& ctx) {
                  auto methods = ctx.methods();
                  EXPECT_EQ(methods.size(), 3u);
                  Startpoint sp = ctx.world_startpoint(0);
                  ctx.rsr(sp, "noop");
                  EXPECT_EQ(ctx.method_counters("mpl").sends, 1u);
                  EXPECT_GT(ctx.method_counters("mpl").bytes_sent, 0u);
                  EXPECT_THROW(ctx.method_counters("nope"),
                               util::MethodError);
                }});
}

TEST(Forwarding, RoutesViaForwarderAndDisablesTcpPolls) {
  // Two partitions of two; context 2 forwards for partition 1.  A TCP send
  // from partition 0 to context 3 must land at context 2 first and be
  // re-sent over MPL; context 3 never polls TCP.
  RuntimeOptions opts = sim_opts(simnet::Topology::two_partitions(2, 2));
  opts.forwarders[1] = 2;
  Runtime rt(opts);
  rt.telemetry().tracer().enable();

  run_mpmd(rt,
           {[&](Context& ctx) {
              Startpoint sp = ctx.world_startpoint(3);
              ctx.rsr(sp, "sink");
              EXPECT_EQ(sp.selected_method(), "tcp");
            },
            [&](Context&) {},
            [&](Context& ctx) {
              // The forwarder has no app work; it just polls.  Give it a
              // bounded servicing loop.
              for (int i = 0; i < 20000 && ctx.rsrs_delivered() == 0; ++i) {
                ctx.progress();
                if (ctx.now() > 10 * simnet::kSec) break;
              }
            },
            [&](Context& ctx) {
              EXPECT_FALSE(ctx.poll_enabled("tcp"));
              std::uint64_t done = 0;
              ctx.register_handler("sink", [&](Context&, Endpoint&,
                                               util::UnpackBuffer&) {
                ++done;
              });
              ctx.wait_count(done, 1);
              // Delivery came over MPL, not TCP.
              EXPECT_EQ(ctx.method_counters("tcp").recvs, 0u);
              EXPECT_GE(ctx.method_counters("mpl").recvs, 1u);
            }});

  EXPECT_GE(count_events(rt, telemetry::Phase::Forward, "mpl"), 1u);
}

TEST(Forwarding, MisconfiguredForwarderRejected) {
  RuntimeOptions opts = sim_opts(simnet::Topology::two_partitions(2, 2));
  opts.forwarders[1] = 0;  // context 0 is in partition 0
  EXPECT_THROW(Runtime rt(opts), util::UsageError);
}

TEST(Multicast, OneSendReachesAllGroupMembers) {
  RuntimeOptions opts = sim_opts(simnet::Topology::single_partition(4),
                                 {"local", "mpl", "tcp", "mcast"});
  Runtime rt(opts);
  std::array<int, 4> hits{0, 0, 0, 0};

  rt.run([&](Context& ctx) {
    if (ctx.id() == 0) {
      // Members join before the sender transmits; give them a head start.
      ctx.compute(100 * kUs);
      Startpoint group = nexus::proto::multicast_startpoint(ctx, 7);
      util::PackBuffer pb;
      pb.put_string("state-update");
      ctx.rsr(group, "update", pb);
      return;
    }
    std::uint64_t done = 0;
    Endpoint& ep = ctx.create_endpoint();
    ctx.register_handler("update",
                         [&](Context& c, Endpoint&, util::UnpackBuffer& ub) {
                           EXPECT_EQ(ub.get_string(), "state-update");
                           hits[c.id()]++;
                           ++done;
                         });
    nexus::proto::multicast_join(ctx, 7, ep);
    ctx.wait_count(done, 1);
  });

  EXPECT_EQ(hits[1], 1);
  EXPECT_EQ(hits[2], 1);
  EXPECT_EQ(hits[3], 1);
  // One logical send on the sender side.
  EXPECT_EQ(rt.context(0).method_counters("mcast").sends, 1u);
}

TEST(Udp, DropsAreLossyButBounded) {
  RuntimeOptions opts = sim_opts(simnet::Topology::single_partition(2),
                                 {"local", "udp"});
  opts.costs.udp_drop_prob = 0.3;
  opts.seed = 99;
  Runtime rt(opts);
  constexpr int kSends = 400;
  std::uint64_t received = 0;

  run_mpmd(rt, {[&](Context& ctx) {
                  ctx.register_handler("datagram",
                                       [&](Context&, Endpoint&,
                                           util::UnpackBuffer&) {
                                         ++received;
                                       });
                  // Drain for a bounded virtual interval.
                  const Time deadline = 5 * simnet::kSec;
                  while (ctx.now() < deadline && received < kSends) {
                    ctx.compute(1 * kMs);
                    ctx.progress();
                  }
                },
                [&](Context& ctx) {
                  Startpoint sp = ctx.world_startpoint(0);
                  for (int i = 0; i < kSends; ++i) ctx.rsr(sp, "datagram");
                }});

  // ~30% drop rate: expect between 50% and 90% delivered.
  EXPECT_GT(received, kSends / 2u);
  EXPECT_LT(received, static_cast<std::uint64_t>(kSends) * 9 / 10);
}

TEST(Udp, OversizedDatagramRejected) {
  RuntimeOptions opts = sim_opts(simnet::Topology::single_partition(2),
                                 {"local", "udp"});
  Runtime rt(opts);
  run_mpmd(rt, {[&](Context&) {},
                [&](Context& ctx) {
                  Startpoint sp = ctx.world_startpoint(0);
                  util::Bytes big(opts.costs.udp_mtu + 1, 0xff);
                  EXPECT_THROW(ctx.rsr(sp, "x", big), util::MethodError);
                }});
}

TEST(WrapperMethods, SecureRoundtripAndSharing) {
  RuntimeOptions opts = sim_opts(simnet::Topology::two_partitions(1, 1),
                                 {"local", "mpl", "secure", "tcp"});
  Runtime rt(opts);
  std::string got;
  run_mpmd(rt, {[&](Context& ctx) {
                  std::uint64_t done = 0;
                  ctx.register_handler("secret",
                                       [&](Context&, Endpoint&,
                                           util::UnpackBuffer& ub) {
                                         got = ub.get_string();
                                         ++done;
                                       });
                  ctx.wait_count(done, 1);
                },
                [&](Context& ctx) {
                  Startpoint sp = ctx.world_startpoint(0);
                  sp.force_method("secure");
                  util::PackBuffer pb;
                  pb.put_string("classified payload");
                  ctx.rsr(sp, "secret", pb);
                }});
  EXPECT_EQ(got, "classified payload");
}

TEST(WrapperMethods, CompressedRoundtrip) {
  RuntimeOptions opts = sim_opts(simnet::Topology::two_partitions(1, 1),
                                 {"local", "zrle", "tcp"});
  Runtime rt(opts);
  util::Bytes got;
  const util::Bytes original(4096, 0x42);  // highly compressible

  run_mpmd(rt, {[&](Context& ctx) {
                  std::uint64_t done = 0;
                  ctx.register_handler("blob",
                                       [&](Context&, Endpoint&,
                                           util::UnpackBuffer& ub) {
                                         got = ub.get_bytes();
                                         ++done;
                                       });
                  ctx.wait_count(done, 1);
                },
                [&](Context& ctx) {
                  Startpoint sp = ctx.world_startpoint(0);
                  sp.force_method("zrle");
                  util::PackBuffer pb;
                  pb.put_bytes(original);
                  ctx.rsr(sp, "blob", pb);
                  // Fewer bytes crossed the wire than the payload holds.
                  EXPECT_LT(ctx.method_counters("zrle").bytes_sent,
                            original.size());
                }});
  EXPECT_EQ(got, original);
}

}  // namespace
