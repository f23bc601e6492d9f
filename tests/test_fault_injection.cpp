// Fault-plane mechanics: deterministic drop / delay / corrupt / blackhole
// schedules consulted by every simulated send, plus the realtime fault
// hook.  The failover policy on top is pinned by test_failover.cpp; this
// suite checks the faults themselves surface with the right DeliveryStatus,
// counters, and timing.
#include <gtest/gtest.h>

#include "fixture_runtime.hpp"
#include "nexus/runtime.hpp"

namespace {

using namespace nexus;
using nexus::testing::opts_with;
using nexus::testing::register_counter;
using simnet::kMs;
using simnet::kUs;

TEST(FaultInjection, BlackholeFailsForcedMethodDead) {
  // A blackholed method is hard-down: a *forced* send over it must throw
  // (failover is disabled while a method is forced) and the failure must be
  // visible in send_errors.
  RuntimeOptions opts = opts_with({"local", "tcp"},
                                  simnet::Topology::two_partitions(1, 1));
  opts.faults.blackhole("tcp", 0);
  Runtime rt(opts);
  std::uint64_t done = 0;
  rt.run([&](Context& ctx) {
    register_counter(ctx, "noop", done);
    if (ctx.id() != 1) return;  // nothing will ever arrive
    Startpoint sp = ctx.world_startpoint(0);
    sp.force_method("tcp");
    EXPECT_THROW(ctx.rsr(sp, "noop"), util::MethodError);
    EXPECT_GT(ctx.method_counters("tcp").send_errors, 0u);
  });
  EXPECT_EQ(done, 0u);
}

TEST(FaultInjection, ProbabilisticDropIsTransientAndRetriedToDelivery) {
  // Detected loss (drop) earns a transient verdict: the failover loop
  // retries on the same method until a send gets through, so the RSR is
  // delivered exactly once despite the lossy window.
  RuntimeOptions opts = opts_with({"local", "tcp"},
                                  simnet::Topology::two_partitions(1, 1));
  opts.faults.drop("tcp", 0.5);
  opts.seed = nexus::testing::test_seed();
  Runtime rt(opts);
  std::uint64_t done = 0;
  std::uint64_t errors = 0;
  rt.run([&](Context& ctx) {
    register_counter(ctx, "noop", done);
    if (ctx.id() != 1) {
      ctx.wait_count(done, 8);
      ctx.compute_with_polling(2 * kMs, 100 * kUs);
      return;
    }
    Startpoint sp = ctx.world_startpoint(0);
    for (int i = 0; i < 8; ++i) {
      ctx.rsr(sp, "noop");
      ctx.compute_with_polling(1 * kMs, 100 * kUs);
    }
    errors = ctx.method_counters("tcp").send_errors;
  });
  EXPECT_EQ(done, 8u);  // exactly once each: retries never duplicate
  EXPECT_GT(errors, 0u);  // and the lossy window really did bite
}

TEST(FaultInjection, DelayPushesArrivalBack) {
  constexpr Time kExtra = 5 * kMs;
  RuntimeOptions opts = opts_with({"local", "tcp"},
                                  simnet::Topology::two_partitions(1, 1));
  opts.faults.delay("tcp", kExtra, 0);
  Runtime rt(opts);
  Time sent_at = -1;
  Time arrived_at = -1;
  rt.run([&](Context& ctx) {
    std::uint64_t done = 0;
    ctx.register_handler("stamp",
                         [&](Context& c, Endpoint&, util::UnpackBuffer&) {
                           arrived_at = c.now();
                           ++done;
                         });
    if (ctx.id() != 1) {
      ctx.wait_count(done, 1);
      return;
    }
    Startpoint sp = ctx.world_startpoint(0);
    sent_at = ctx.now();
    ctx.rsr(sp, "stamp");
  });
  ASSERT_GE(arrived_at, 0);
  EXPECT_GE(arrived_at - sent_at, kExtra);
}

TEST(FaultInjection, CorruptPacketIsQuarantinedNotDispatched) {
  // Corruption is receiver-detected: the send succeeds, the packet arrives,
  // the integrity check quarantines it before dispatch.  recv_corrupt
  // counts it; the handler never runs.
  RuntimeOptions opts = opts_with({"local", "tcp"},
                                  simnet::Topology::two_partitions(1, 1));
  opts.faults.corrupt("tcp", 1.0);
  Runtime rt(opts);
  std::uint64_t done = 0;
  std::uint64_t quarantined = 0;
  rt.run([&](Context& ctx) {
    register_counter(ctx, "noop", done);
    if (ctx.id() != 1) {
      ctx.compute_with_polling(20 * kMs, 100 * kUs);
      quarantined = ctx.method_counters("tcp").recv_corrupt;
      return;
    }
    Startpoint sp = ctx.world_startpoint(0);
    ctx.rsr(sp, "noop");
    EXPECT_EQ(ctx.method_counters("tcp").send_errors, 0u);  // send saw Ok
    ctx.compute_with_polling(20 * kMs, 100 * kUs);
  });
  EXPECT_EQ(done, 0u);
  EXPECT_EQ(quarantined, 1u);
}

TEST(FaultInjection, SameSeedSameFaultSequence) {
  // The whole point of the fault plane: a (plan, seed, workload) triple
  // replays exactly.
  auto run_once = [](std::uint64_t seed) {
    RuntimeOptions opts = opts_with({"local", "tcp"},
                                    simnet::Topology::two_partitions(1, 1));
    opts.faults.drop("tcp", 0.4);
    opts.seed = seed;
    Runtime rt(opts);
    std::uint64_t done = 0;
    std::uint64_t errors = 0;
    rt.run([&](Context& ctx) {
      register_counter(ctx, "noop", done);
      if (ctx.id() != 1) {
        ctx.wait_count(done, 10);
        return;
      }
      Startpoint sp = ctx.world_startpoint(0);
      for (int i = 0; i < 10; ++i) {
        ctx.rsr(sp, "noop");
        ctx.compute_with_polling(1 * kMs, 100 * kUs);
      }
      errors = ctx.method_counters("tcp").send_errors;
    });
    return errors;
  };
  const std::uint64_t a = run_once(42);
  const std::uint64_t b = run_once(42);
  EXPECT_EQ(a, b);
}

TEST(FaultInjection, PartitionScopedRuleOnlyHitsMatchingPair) {
  // A drop rule scoped to (partition 1 -> partition 0) must not touch the
  // reverse direction.
  RuntimeOptions opts = opts_with({"local", "tcp"},
                                  simnet::Topology::two_partitions(1, 1));
  simnet::FaultRule r;
  r.kind = simnet::FaultKind::Blackhole;
  r.method = "tcp";
  r.src_partition = 1;
  r.dst_partition = 0;
  opts.faults.add(r);
  Runtime rt(opts);
  std::uint64_t at0 = 0;
  std::uint64_t at1 = 0;
  rt.run([&](Context& ctx) {
    if (ctx.id() == 0) {
      register_counter(ctx, "noop", at0);
      // 0 -> 1 is unaffected by the (1 -> 0)-scoped rule.
      Startpoint sp = ctx.world_startpoint(1);
      ctx.rsr(sp, "noop");
      ctx.compute_with_polling(20 * kMs, 100 * kUs);
    } else {
      register_counter(ctx, "noop", at1);
      ctx.wait_count(at1, 1);
      Startpoint sp = ctx.world_startpoint(0);
      sp.force_method("tcp");
      EXPECT_THROW(ctx.rsr(sp, "noop"), util::MethodError);
    }
  });
  EXPECT_EQ(at1, 1u);
  EXPECT_EQ(at0, 0u);
}

TEST(FaultInjection, RealtimeFaultHookTriggersFailover) {
  // The realtime fabric injects through a hook instead of a plan: kill shm
  // outright and the stream must fail over to tcp with nothing lost.
  RuntimeOptions opts = opts_with({"local", "shm", "tcp"},
                                  simnet::Topology::two_partitions(1, 1));
  opts.fabric = RuntimeOptions::Fabric::Realtime;
  Runtime rt(opts);
  rt.rt()->set_fault_hook(
      [](std::string_view method, ContextId, ContextId) {
        simnet::FaultVerdict v;
        if (method == "shm") v.dead = true;
        return v;
      });
  std::uint64_t done = 0;
  std::string used;
  rt.run([&](Context& ctx) {
    register_counter(ctx, "noop", done);
    if (ctx.id() != 1) {
      ctx.wait_count(done, 4);
      return;
    }
    Startpoint sp = ctx.world_startpoint(0);
    for (int i = 0; i < 4; ++i) ctx.rsr(sp, "noop");
    used = sp.selected_method();
    EXPECT_GT(ctx.method_counters("shm").send_errors, 0u);
  });
  EXPECT_EQ(done, 4u);
  EXPECT_EQ(used, "tcp");
}

}  // namespace
