// Robustness-plane tests (docs/ARCHITECTURE.md §14): crash-rule semantics,
// unknown-peer RSR verdicts, peer-death detection with the dead-letter
// queue, rebirth redelivery, forwarder drain, the deadlock diagnostic,
// handler-exception propagation and seed determinism under loss.
#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "fixture_runtime.hpp"
#include "nexus/runtime.hpp"
#include "simnet/fault.hpp"
#include "simnet/scheduler.hpp"
#include "util/error.hpp"

namespace {

using namespace nexus;
using nexus::testing::count_events;
using nexus::testing::opts_with;
using nexus::testing::register_counter;
using nexus::testing::run_mpmd;
using nexus::testing::sim_opts;
using simnet::kMs;
using simnet::kUs;

// ---------------------------------------------------------------------------
// Crash rules are pure functions of (context, partition, time).

TEST(FaultPlanCrash, WindowsAreHalfOpenAndScoped) {
  simnet::FaultPlan plan;
  plan.crash(1, 10 * kUs, 20 * kUs);
  plan.crash_partition(2, 30 * kUs, 40 * kUs);

  EXPECT_TRUE(plan.has_crashes());
  EXPECT_TRUE(plan.empty());  // no *link* rules: fast paths keep their guard

  // Context-scoped rule: half-open [from, until).
  EXPECT_FALSE(plan.crashed(1, 0, 9 * kUs));
  EXPECT_TRUE(plan.crashed(1, 0, 10 * kUs));
  EXPECT_TRUE(plan.crashed(1, 0, 19 * kUs));
  EXPECT_FALSE(plan.crashed(1, 0, 20 * kUs));
  EXPECT_FALSE(plan.crashed(0, 0, 15 * kUs));  // other contexts untouched

  // Partition-scoped rule hits every context of that partition, only them.
  EXPECT_TRUE(plan.crashed(5, 2, 35 * kUs));
  EXPECT_TRUE(plan.crashed(9, 2, 35 * kUs));
  EXPECT_FALSE(plan.crashed(5, 1, 35 * kUs));
}

TEST(FaultPlanCrash, CrashEndAndIncarnationAreDeterministic) {
  simnet::FaultPlan plan;
  plan.crash(3, 10 * kUs, 20 * kUs);
  plan.crash(3, 15 * kUs, 50 * kUs);  // overlapping: latest until wins

  EXPECT_EQ(plan.crash_end(3, 0, 16 * kUs), 50 * kUs);
  // Only windows covering `now` count; a later overlapping window extends
  // the outage when the restart check re-runs at 20us, not before.
  EXPECT_EQ(plan.crash_end(3, 0, 12 * kUs), 20 * kUs);
  // Outside every window, crash_end degenerates to `now`.
  EXPECT_EQ(plan.crash_end(3, 0, 60 * kUs), 60 * kUs);

  EXPECT_EQ(plan.incarnation(3, 0, 0), 1u);
  EXPECT_EQ(plan.incarnation(3, 0, 20 * kUs), 2u);  // first window behind it
  EXPECT_EQ(plan.incarnation(3, 0, 50 * kUs), 3u);
  EXPECT_EQ(plan.incarnation(7, 0, 60 * kUs), 1u);  // unscoped context

  // A permanent death (until = infinity) never counts as "behind".
  simnet::FaultPlan forever;
  forever.crash(1, 5 * kUs);
  EXPECT_TRUE(forever.crashed(1, 0, simnet::kInfinity - 1));
  EXPECT_EQ(forever.incarnation(1, 0, simnet::kInfinity - 1), 1u);
}

// ---------------------------------------------------------------------------
// Satellite: an RSR to an id that names no context (>= world size, below the
// multicast base) fails with a Dead verdict and a send_errors bump -- it
// must not throw and must not poison anything else.

TEST(UnknownPeer, RsrReturnsDeadOnSimulatedFabric) {
  RuntimeOptions opts = sim_opts(simnet::Topology::single_partition(2));
  Runtime rt(opts);

  run_mpmd(rt, {[&](Context& ctx) {
                  Startpoint sp = ctx.world_startpoint(42);  // nobody home
                  util::PackBuffer pb;
                  pb.put_u64(1);
                  EXPECT_EQ(ctx.rsr(sp, "ghost", pb), DeliveryStatus::Dead);
                  // The context is otherwise healthy: a real RSR still works.
                  Startpoint ok = ctx.world_startpoint(1);
                  EXPECT_EQ(ctx.rsr(ok, "real"), DeliveryStatus::Ok);
                },
                [&](Context& ctx) {
                  std::uint64_t done = 0;
                  register_counter(ctx, "real", done);
                  ctx.wait_count(done, 1);
                }});

  EXPECT_EQ(rt.telemetry().metrics().context(0).send_errors, 1u);
  EXPECT_EQ(rt.telemetry().metrics().context(1).send_errors, 0u);
}

TEST(UnknownPeer, RsrReturnsDeadOnRealtimeFabric) {
  RuntimeOptions opts;
  opts.fabric = RuntimeOptions::Fabric::Realtime;
  opts.topology = simnet::Topology::single_partition(2);
  opts.modules = {"local", "mpl", "tcp"};
  Runtime rt(opts);

  std::atomic<bool> checked{false};
  run_mpmd(rt, {[&](Context& ctx) {
                  Startpoint sp = ctx.world_startpoint(99);
                  EXPECT_EQ(ctx.rsr(sp, "ghost"), DeliveryStatus::Dead);
                  checked.store(true, std::memory_order_release);
                },
                [&](Context&) {}});

  EXPECT_TRUE(checked.load());
  EXPECT_EQ(rt.telemetry().metrics().context(0).send_errors, 1u);
}

// ---------------------------------------------------------------------------
// The deadlock diagnostic names the blocked contexts, so a hung run points
// at the stuck context immediately.

TEST(Deadlock, ErrorNamesBlockedContexts) {
  Runtime rt(sim_opts(simnet::Topology::single_partition(4)));
  std::uint64_t never = 0;
  try {
    rt.run([&](Context& ctx) {
      if (ctx.id() != 2) return;  // the other three finish at once
      register_counter(ctx, "ghost", never);
      ctx.wait_count(never, 1);  // no one ever sends
    });
    FAIL() << "expected simnet::DeadlockError";
  } catch (const simnet::DeadlockError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("ctx2"), std::string::npos) << msg;
  }
}

// A handler that throws on ctx 3 while every other context blocks in
// wait_count for a count that will now never arrive: Runtime::run unwinds
// the blocked contexts and rethrows the handler's exception.

TEST(Runtime, HandlerExceptionPropagatesWhileOthersBlock) {
  constexpr ContextId kWorld = 4;
  Runtime rt(sim_opts(simnet::Topology::single_partition(kWorld)));
  std::uint64_t done[kWorld] = {};
  EXPECT_THROW(
      rt.run([&](Context& ctx) {
        if (ctx.id() == 3) {
          ctx.register_handler("boom", [](Context&, Endpoint&,
                                          util::UnpackBuffer&) {
            throw std::runtime_error("handler failure");
          });
          ctx.wait_count(done[3], 1);  // never satisfied; the throw frees it
          return;
        }
        if (ctx.id() == 0) {
          Startpoint sp = ctx.world_startpoint(3);
          ctx.rsr(sp, "boom");
        }
        register_counter(ctx, "idle", done[ctx.id()]);
        ctx.wait_count(done[ctx.id()], 1);  // also never satisfied
      }),
      std::runtime_error);
}

// With a fixed seed, a lossy-udp workload delivers the exact same packet
// set on every run.

TEST(Runtime, SeedDeterministicUnderUdpLoss) {
  auto run_once = [&]() {
    RuntimeOptions opts = opts_with({"local", "udp"},
                                    simnet::Topology::single_partition(2));
    opts.costs.udp_drop_prob = 0.25;
    opts.seed = 1234;
    Runtime rt(opts);
    std::vector<std::uint32_t> delivered;
    run_mpmd(rt, {[&](Context& ctx) {
                    ctx.register_handler("u", [&](Context&, Endpoint&,
                                                  util::UnpackBuffer& ub) {
                      delivered.push_back(ub.get_u32());
                    });
                    // Lossy link: drain a bounded virtual interval instead
                    // of waiting for a count that may never arrive.
                    const Time deadline = 2 * simnet::kSec;
                    while (ctx.now() < deadline && delivered.size() < 200) {
                      ctx.compute(1 * simnet::kMs);
                      ctx.progress();
                    }
                  },
                  [&](Context& ctx) {
                    Startpoint sp = ctx.world_startpoint(0);
                    for (std::uint32_t i = 0; i < 200; ++i) {
                      util::PackBuffer pb;
                      pb.put_u32(i);
                      ctx.rsr(sp, "u", pb);
                    }
                  }});
    return delivered;
  };
  const std::vector<std::uint32_t> a = run_once();
  const std::vector<std::uint32_t> b = run_once();
  EXPECT_FALSE(a.empty());
  EXPECT_LT(a.size(), 200u);  // the lossy model really dropped some
  EXPECT_EQ(a, b);            // ...but identically on both runs
}

// ---------------------------------------------------------------------------
// Tentpole: peer-death detection drains failed RSRs into the bounded
// dead-letter queue; rebirth redelivers the retained letters exactly once.

TEST(PeerDeath, DeadLetterQueueCapsAndRedeliversOnRebirth) {
  RuntimeOptions opts =
      opts_with({"local", "udp"}, simnet::Topology::single_partition(2));
  // udp is hard-down for the first 5 ms: every send fails with a Dead
  // verdict, so with a dead-letter budget configured the RSRs park in the
  // queue instead of throwing.
  opts.faults.blackhole("udp", 0, 5 * kMs);
  opts.costs.udp_drop_prob = 0.0;  // no silent loss after the window
  opts.db.set("robust.retry_budget", "2");
  opts.db.set("robust.deadletter_cap", "4");
  opts.db.set("robust.peer_grace_ms", "0");  // declare death on first strike
  Runtime rt(opts);

  std::map<std::uint64_t, int> delivered;
  std::atomic<bool> done{false};
  std::uint64_t letters_at_peak = 0;
  bool dead_mid_window = false, alive_after = false;

  run_mpmd(
      rt,
      {[&](Context& ctx) {  // sender
         Startpoint sp = ctx.world_startpoint(1);
         // Six RSRs into the outage: all deadletter (Transient verdicts);
         // the cap of 4 evicts the two oldest.
         for (std::uint64_t i = 0; i < 6; ++i) {
           util::PackBuffer pb(16);
           pb.put_u64(i);
           EXPECT_EQ(ctx.rsr(sp, "pay", pb), DeliveryStatus::Transient);
         }
         dead_mid_window = ctx.is_peer_dead(1);
         letters_at_peak = ctx.deadletter_count();
         // Ride out the outage, then send one more: the first success is
         // the rebirth signal and flushes the retained letters.
         while (ctx.now() < 6 * kMs) ctx.compute_with_polling(1 * kMs, 250 * kUs);
         util::PackBuffer pb(16);
         pb.put_u64(6);
         EXPECT_EQ(ctx.rsr(sp, "pay", pb), DeliveryStatus::Ok);
         alive_after = !ctx.is_peer_dead(1);
         EXPECT_EQ(ctx.deadletter_count(), 0u);
         // Keep polling so the receiver's clock can drain everything.
         while (!done.load(std::memory_order_acquire) && ctx.now() < 100 * kMs) {
           ctx.compute_with_polling(1 * kMs, 250 * kUs);
         }
       },
       [&](Context& ctx) {  // receiver
         std::uint64_t got = 0;
         ctx.register_handler("pay",
                              [&](Context&, Endpoint&, util::UnpackBuffer& ub) {
                                ++delivered[ub.get_u64()];
                                ++got;
                              });
         while (got < 5 && ctx.now() < 100 * kMs) {
           ctx.compute_with_polling(1 * kMs, 250 * kUs);
         }
         done.store(true, std::memory_order_release);
       }});

  EXPECT_TRUE(dead_mid_window);
  EXPECT_TRUE(alive_after);
  EXPECT_EQ(letters_at_peak, 4u);  // capped

  // The two oldest letters (payloads 0, 1) were evicted by the cap; the
  // retained four plus the reviving RSR arrive exactly once each.
  for (std::uint64_t v = 0; v < 2; ++v) EXPECT_EQ(delivered[v], 0) << v;
  for (std::uint64_t v = 2; v < 7; ++v) EXPECT_EQ(delivered[v], 1) << v;

  const auto& m = rt.telemetry().metrics().context(0);
  EXPECT_EQ(m.peer_deaths, 1u);
  EXPECT_EQ(m.peer_reborns, 1u);
  EXPECT_EQ(m.deadletters, 6u);
  EXPECT_EQ(m.deadletter_drops, 2u);
  EXPECT_EQ(m.deadletter_redeliveries, 4u);

  // The new counters reach every export format.
  const std::string prom = rt.telemetry().metrics().to_prometheus();
  for (const char* name :
       {"nexus_peer_deaths_total", "nexus_peer_reborns_total",
        "nexus_deadletters_total", "nexus_deadletter_drops_total",
        "nexus_deadletter_redeliveries_total", "nexus_ctx_send_errors_total"}) {
    EXPECT_NE(prom.find(name), std::string::npos) << name;
  }
  const std::string json = rt.telemetry().metrics().to_json();
  EXPECT_NE(json.find("\"peer_deaths\":1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"deadletters\":6"), std::string::npos) << json;
}

// With no dead-letter budget configured (robust.retry_budget = 0, the
// default), exhaustion keeps the pre-robustness contract: MethodError.
TEST(PeerDeath, DefaultBudgetZeroStillThrowsOnExhaustion) {
  RuntimeOptions opts =
      opts_with({"local", "udp"}, simnet::Topology::single_partition(2));
  opts.faults.blackhole("udp", 0, 5 * kMs);
  Runtime rt(opts);

  run_mpmd(rt, {[&](Context& ctx) {
                  Startpoint sp = ctx.world_startpoint(1);
                  EXPECT_THROW(ctx.rsr(sp, "pay"), util::MethodError);
                  EXPECT_EQ(ctx.deadletter_count(), 0u);
                },
                [&](Context&) {}});
}

// ---------------------------------------------------------------------------
// Tentpole: graceful drain of a forwarding node -- relay duty is handed to
// a sibling, and traffic that still lands on the draining node is re-routed
// through that sibling instead of being sent onward directly.

TEST(Drain, ForwarderHandsRelayDutyToSibling) {
  // Partition 0 = {0, 1} clients; partition 1 = {2, 3, 4} with context 2
  // forwarding.  After context 2 drains toward sibling 3, cross-partition
  // traffic to 4 goes client -> 2 -> 3 -> 4.
  RuntimeOptions opts = sim_opts(simnet::Topology::two_partitions(2, 3));
  opts.forwarders[1] = 2;
  Runtime rt(opts);
  rt.telemetry().tracer().enable();

  std::atomic<int> phase{0};  // 0: pre-drain, 1: drained, 2: all sent
  std::atomic<int> delivered{0};

  run_mpmd(
      rt,
      {[&](Context& ctx) {  // client
         Startpoint sp = ctx.world_startpoint(4);
         ctx.rsr(sp, "tile");  // batch 1: relayed directly by the forwarder
         while (phase.load(std::memory_order_acquire) < 1 &&
                ctx.now() < 50 * kMs) {
           ctx.compute_with_polling(500 * kUs, 100 * kUs);
         }
         ctx.rsr(sp, "tile");  // batch 2: re-routed via the sibling
         phase.store(2, std::memory_order_release);
       },
       [&](Context&) {},
       [&](Context& ctx) {  // forwarder, drains mid-run
         while (delivered.load(std::memory_order_acquire) < 1 &&
                ctx.now() < 50 * kMs) {
           ctx.progress();
         }
         ctx.drain_forwarding(3);
         EXPECT_TRUE(ctx.draining());
         phase.store(1, std::memory_order_release);
         while (delivered.load(std::memory_order_acquire) < 2 &&
                ctx.now() < 50 * kMs) {
           ctx.progress();
         }
       },
       [&](Context& ctx) {  // sibling: relays on behalf of the drained node
         while (delivered.load(std::memory_order_acquire) < 2 &&
                ctx.now() < 50 * kMs) {
           ctx.progress();
         }
       },
       [&](Context& ctx) {  // destination
         std::uint64_t got = 0;
         ctx.register_handler("tile",
                              [&](Context&, Endpoint&, util::UnpackBuffer&) {
                                ++got;
                                delivered.fetch_add(1,
                                                    std::memory_order_release);
                              });
         while (got < 2 && ctx.now() < 50 * kMs) {
           ctx.compute_with_polling(500 * kUs, 100 * kUs);
         }
         EXPECT_EQ(got, 2u);
       }});

  EXPECT_EQ(delivered.load(), 2);
  // Batch 2 took an extra relay hop: the sibling forwarded traffic that was
  // not addressed to it.
  EXPECT_GE(rt.context(3).method_counters("mpl").recvs, 1u);
  EXPECT_GE(count_events(rt, telemetry::Phase::Forward, "mpl"), 2u);
}

// Draining toward a context that does not exist is a configuration error.
TEST(Drain, UnknownSiblingRejected) {
  RuntimeOptions opts = sim_opts(simnet::Topology::two_partitions(2, 2));
  opts.forwarders[1] = 2;
  Runtime rt(opts);

  run_mpmd(rt, {[&](Context&) {}, [&](Context&) {},
                [&](Context& ctx) {
                  EXPECT_THROW(ctx.drain_forwarding(77), util::UsageError);
                },
                [&](Context&) {}});
}

}  // namespace
