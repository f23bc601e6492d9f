// Automatic method failover under injected faults: the health tracker's
// state machine, mid-stream failover with exactly-once delivery, backoff
// capping on a flapping link, restore after a partition heals, and the
// enquiry surfaces (selection log, explain_selection, health status).
#include <gtest/gtest.h>

#include <map>

#include "fixture_runtime.hpp"
#include "nexus/health.hpp"
#include "nexus/runtime.hpp"

namespace {

using namespace nexus;
using nexus::testing::opts_with;
using simnet::kMs;
using simnet::kUs;

/// Sender side of the canonical chaos stream: `count` sequence-numbered
/// RSRs, one every `interval`.
void send_stream(Context& ctx, Startpoint& sp, int count, Time interval) {
  for (int i = 0; i < count; ++i) {
    util::PackBuffer pb(16);
    pb.put_u64(static_cast<std::uint64_t>(i));
    ctx.rsr(sp, "seq", pb);
    ctx.compute_with_polling(interval, 100 * kUs);
  }
}

/// Receiver side: count deliveries per sequence number.
void recv_stream(Context& ctx, std::map<std::uint64_t, int>& per_seq,
                 std::uint64_t& total, int count) {
  ctx.register_handler("seq",
                       [&](Context&, Endpoint&, util::UnpackBuffer& ub) {
                         ++per_seq[ub.get_u64()];
                         ++total;
                       });
  ctx.wait_count(total, static_cast<std::uint64_t>(count));
  // Drain past the last delivery: a duplicate would land here and break
  // the per-sequence exactly-once assertions.
  ctx.compute_with_polling(5 * kMs, 100 * kUs);
}

TEST(HealthTrackerUnit, StateMachineTransitions) {
  HealthParams hp;
  hp.fail_threshold = 3;
  hp.backoff_initial = 10 * kMs;
  hp.backoff_multiplier = 2.0;
  hp.backoff_max = 40 * kMs;
  hp.backoff_jitter = 0.0;  // exact arithmetic below
  HealthTracker t(hp, /*seed=*/7);
  const std::uint32_t m = 1, dst = 9;

  EXPECT_TRUE(t.empty());
  EXPECT_TRUE(t.usable(m, dst, 0));
  EXPECT_EQ(t.status(m, dst, 0).state, MethodHealth::Healthy);

  // Two transient failures: Suspect, still selectable, action Retry.
  EXPECT_EQ(t.on_failure(m, dst, 0, /*hard=*/false),
            HealthTracker::FailAction::Retry);
  EXPECT_EQ(t.on_failure(m, dst, 0, false), HealthTracker::FailAction::Retry);
  EXPECT_EQ(t.status(m, dst, 0).state, MethodHealth::Suspect);
  EXPECT_TRUE(t.usable(m, dst, 0));
  EXPECT_FALSE(t.empty());

  // Third consecutive failure crosses the threshold: Dead, quarantined.
  EXPECT_EQ(t.on_failure(m, dst, 0, false),
            HealthTracker::FailAction::Failover);
  EXPECT_EQ(t.status(m, dst, 0).state, MethodHealth::Dead);
  EXPECT_FALSE(t.usable(m, dst, 5 * kMs));
  EXPECT_EQ(t.status(m, dst, 0).failovers, 1u);

  // Backoff expires: Probation, selectable again (the probe).
  EXPECT_TRUE(t.usable(m, dst, 10 * kMs));
  EXPECT_EQ(t.status(m, dst, 10 * kMs).state, MethodHealth::Probation);

  // Failed probe doubles the backoff from the probe time.
  t.on_failure(m, dst, 10 * kMs, false);
  EXPECT_FALSE(t.usable(m, dst, 10 * kMs + 19 * kMs));
  EXPECT_TRUE(t.usable(m, dst, 10 * kMs + 20 * kMs));

  // Two more failed probes pin the backoff at the cap (40ms, not 80ms).
  t.on_failure(m, dst, 30 * kMs, false);
  t.on_failure(m, dst, 70 * kMs, false);
  EXPECT_EQ(t.status(m, dst, 70 * kMs).backoff, 40 * kMs);

  // Successful probe restores.
  EXPECT_TRUE(t.on_success(m, dst));
  EXPECT_EQ(t.status(m, dst, 200 * kMs).state, MethodHealth::Healthy);
  EXPECT_EQ(t.status(m, dst, 200 * kMs).restores, 1u);

  // A hard (dead-verdict) failure quarantines immediately, no threshold.
  EXPECT_EQ(t.on_failure(m, dst, 200 * kMs, /*hard=*/true),
            HealthTracker::FailAction::Failover);
  EXPECT_EQ(t.status(m, dst, 200 * kMs).state, MethodHealth::Dead);
}

TEST(Failover, KillFastMethodMidStreamDeliversExactlyOnce) {
  // The ISSUE's headline scenario: aal5 (fast, preferred) dies mid-stream;
  // every message still arrives exactly once because the runtime fails the
  // link over to tcp automatically.
  RuntimeOptions opts = opts_with({"local", "aal5", "tcp"},
                                  simnet::Topology::two_partitions(1, 1));
  opts.faults.blackhole("aal5", /*from=*/500 * kMs);
  opts.seed = nexus::testing::test_seed();
  Runtime rt(opts);
  constexpr int kMsgs = 30;
  std::map<std::uint64_t, int> per_seq;
  std::uint64_t total = 0;
  rt.run([&](Context& ctx) {
    if (ctx.id() == 0) {
      recv_stream(ctx, per_seq, total, kMsgs);
      return;
    }
    Startpoint sp = ctx.world_startpoint(0);
    send_stream(ctx, sp, kMsgs, 50 * kMs);
    // Both substrates carried traffic: aal5 before the kill, tcp after.
    EXPECT_GT(ctx.method_counters("aal5").sends, 0u);
    EXPECT_GT(ctx.method_counters("tcp").sends, 0u);
    EXPECT_GT(ctx.method_counters("aal5").send_errors, 0u);
    EXPECT_EQ(sp.selected_method(), "tcp");
    EXPECT_GE(ctx.method_health("aal5", 0).failovers, 1u);
    // The failover is explained in the selection log.
    bool logged = false;
    for (const auto& rec : ctx.selection_log()) {
      if (rec.reason.find("failover") != std::string::npos) logged = true;
    }
    EXPECT_TRUE(logged);
  });
  ASSERT_EQ(total, static_cast<std::uint64_t>(kMsgs));
  for (int i = 0; i < kMsgs; ++i) {
    EXPECT_EQ(per_seq[static_cast<std::uint64_t>(i)], 1)
        << "sequence " << i << " not delivered exactly once";
  }
}

TEST(Failover, FlappingLinkBackoffCapsReprobeRate) {
  // aal5 is down for the whole run.  The exponential backoff must cap the
  // rate of restore probes: over ~5 simulated seconds the dead method sees
  // a bounded number of attempts, not one per message.
  RuntimeOptions opts = opts_with({"local", "aal5", "tcp"},
                                  simnet::Topology::two_partitions(1, 1));
  opts.faults.blackhole("aal5", 0);
  opts.seed = nexus::testing::test_seed();
  Runtime rt(opts);
  constexpr int kMsgs = 100;
  std::map<std::uint64_t, int> per_seq;
  std::uint64_t total = 0;
  rt.run([&](Context& ctx) {
    if (ctx.id() == 0) {
      recv_stream(ctx, per_seq, total, kMsgs);
      return;
    }
    Startpoint sp = ctx.world_startpoint(0);
    send_stream(ctx, sp, kMsgs, 50 * kMs);
    const std::uint64_t probes = ctx.method_counters("aal5").send_errors;
    // 100 sends over ~5s.  Backoff 20ms doubling to a 500ms cap admits the
    // initial failure plus a handful of doubling probes plus ~9 capped
    // probes; leave headroom for jitter but stay far below one probe per
    // message.
    EXPECT_GE(probes, 2u);
    EXPECT_LE(probes, 40u);
    EXPECT_EQ(sp.selected_method(), "tcp");
  });
  ASSERT_EQ(total, static_cast<std::uint64_t>(kMsgs));
  for (int i = 0; i < kMsgs; ++i) {
    EXPECT_EQ(per_seq[static_cast<std::uint64_t>(i)], 1);
  }
}

TEST(Failover, PartitionHealRestoresPreferredMethod) {
  // aal5 is blackholed for [200ms, 600ms) then heals.  Once the backoff
  // expires after the heal, the restore probe succeeds and selection moves
  // the link back to the faster method.
  RuntimeOptions opts = opts_with({"local", "aal5", "tcp"},
                                  simnet::Topology::two_partitions(1, 1));
  opts.faults.blackhole("aal5", 200 * kMs, 600 * kMs);
  opts.seed = nexus::testing::test_seed();
  Runtime rt(opts);
  constexpr int kMsgs = 30;
  std::map<std::uint64_t, int> per_seq;
  std::uint64_t total = 0;
  rt.run([&](Context& ctx) {
    if (ctx.id() == 0) {
      recv_stream(ctx, per_seq, total, kMsgs);
      return;
    }
    Startpoint sp = ctx.world_startpoint(0);
    send_stream(ctx, sp, kMsgs, 50 * kMs);  // stream runs to ~1.5s
    EXPECT_EQ(sp.selected_method(), "aal5");  // won back after the heal
    EXPECT_GE(ctx.method_health("aal5", 0).failovers, 1u);
    EXPECT_GE(ctx.method_health("aal5", 0).restores, 1u);
    EXPECT_EQ(ctx.method_health("aal5", 0).state, MethodHealth::Healthy);
  });
  ASSERT_EQ(total, static_cast<std::uint64_t>(kMsgs));
  for (int i = 0; i < kMsgs; ++i) {
    EXPECT_EQ(per_seq[static_cast<std::uint64_t>(i)], 1);
  }
}

TEST(Failover, ForcedMethodNeverFailsOverItThrows) {
  // force_method is an application contract: the runtime retries transient
  // failures but must not silently reroute.  When the forced method is
  // declared dead, the RSR throws instead.
  RuntimeOptions opts = opts_with({"local", "aal5", "tcp"},
                                  simnet::Topology::two_partitions(1, 1));
  opts.faults.drop("tcp", 1.0);
  Runtime rt(opts);
  rt.run([&](Context& ctx) {
    if (ctx.id() != 1) return;
    Startpoint sp = ctx.world_startpoint(0);
    sp.force_method("tcp");
    EXPECT_THROW(ctx.rsr(sp, "noop"), util::MethodError);
    // The threshold's worth of retries happened on the forced method; the
    // healthy alternative was never touched.
    EXPECT_GE(ctx.method_counters("tcp").send_errors,
              static_cast<std::uint64_t>(
                  ctx.runtime().options().health.fail_threshold));
    EXPECT_EQ(ctx.method_counters("aal5").sends, 0u);
  });
}

TEST(Failover, ExplainSelectionReportsQuarantine) {
  RuntimeOptions opts = opts_with({"local", "aal5", "tcp"},
                                  simnet::Topology::two_partitions(1, 1));
  opts.faults.blackhole("aal5", 0);
  Runtime rt(opts);
  std::uint64_t done = 0;
  rt.run([&](Context& ctx) {
    nexus::testing::register_counter(ctx, "noop", done);
    if (ctx.id() != 1) {
      ctx.wait_count(done, 1);
      return;
    }
    Startpoint sp = ctx.world_startpoint(0);
    ctx.rsr(sp, "noop");  // aal5 dies, link fails over to tcp
    telemetry::SelectionReport rep = ctx.explain_selection(sp);
    ASSERT_EQ(rep.links.size(), 1u);
    EXPECT_EQ(rep.links[0].winner, "tcp");
    bool quarantined_row = false;
    for (const auto& c : rep.links[0].candidates) {
      if (c.method == "aal5") {
        EXPECT_EQ(c.status, telemetry::CandidateStatus::Quarantined);
        EXPECT_NE(c.detail.find("quarantined"), std::string::npos);
        quarantined_row = true;
      }
    }
    EXPECT_TRUE(quarantined_row);
  });
  EXPECT_EQ(done, 1u);
}

TEST(Failover, AllMethodsQuarantinedProbesAndRecovers) {
  // Only tcp applies across the partitions and it drops everything for the
  // first 100ms.  The first RSR exhausts its retry budget and throws; after
  // the window and the backoff, the next RSR's probe succeeds and the
  // method is restored.
  RuntimeOptions opts = opts_with({"local", "tcp"},
                                  simnet::Topology::two_partitions(1, 1));
  opts.faults.drop("tcp", 1.0, /*from=*/0, /*until=*/100 * kMs);
  Runtime rt(opts);
  std::uint64_t done = 0;
  rt.run([&](Context& ctx) {
    nexus::testing::register_counter(ctx, "noop", done);
    if (ctx.id() != 1) {
      ctx.compute_with_polling(900 * kMs, 1 * kMs);
      return;
    }
    Startpoint sp = ctx.world_startpoint(0);
    EXPECT_THROW(ctx.rsr(sp, "noop"), util::MethodError);
    EXPECT_EQ(ctx.method_health("tcp", 0).state, MethodHealth::Dead);
    // Ride past the fault window and the (capped, jittered) backoff.
    ctx.compute_with_polling(700 * kMs, 1 * kMs);
    ctx.rsr(sp, "noop");  // the restore probe
    EXPECT_GE(ctx.method_health("tcp", 0).restores, 1u);
    EXPECT_EQ(ctx.method_health("tcp", 0).state, MethodHealth::Healthy);
  });
  EXPECT_EQ(done, 1u);
}

// ------------------------------------------------------------ forwarding ---
// Relayed traffic (paper §3.3): partitions {0,1} and {2,3}, with context 2
// forwarding for partition 1.  Context 0's RSRs to context 3 cross on tcp,
// land at context 2, and are re-sent over its best local method.

/// The relay world over `modules`.
RuntimeOptions relay_opts(std::vector<std::string> modules) {
  RuntimeOptions opts = nexus::testing::chaos_opts(
      std::move(modules), simnet::Topology::two_partitions(2, 2));
  opts.forwarders[1] = 2;
  return opts;
}

/// Context 0 of the relay world: `count` sequence-numbered RSRs to context
/// 3, one every 2 ms, then a "stop" to the forwarder (tcp lands on it).
void relay_source(Context& ctx, int count) {
  Startpoint to3 = ctx.world_startpoint(3);
  send_stream(ctx, to3, count, 2 * kMs);
  Startpoint to2 = ctx.world_startpoint(2);
  ctx.rsr(to2, "stop");
}

/// Context 2 of the relay world: serves relays until context 0's "stop".
void relay_forwarder(Context& ctx) {
  std::uint64_t stop = 0;
  nexus::testing::register_counter(ctx, "stop", stop);
  ctx.wait_count(stop, 1);
}

/// Forward events the forwarder recorded over `method` after `after`.
std::size_t relays_on(Runtime& rt, std::string_view method, Time after) {
  const telemetry::Tracer& tracer = rt.telemetry().tracer();
  std::size_t n = 0;
  for (const auto& ev : tracer.events()) {
    if (ev.phase == telemetry::Phase::Forward && ev.context == 2 &&
        ev.when > after && tracer.label_name(ev.label) == method) {
      ++n;
    }
  }
  return n;
}

TEST(Forwarding, RelayReturnsToPreferredMethodAfterOutage) {
  // docs/ARCHITECTURE.md §9.4: a link that failed over returns to the faster
  // method once its quarantine expires, and a relay is such a link.
  // myrinet is blackholed for [20ms, 60ms); the relay fails over to mpl and
  // must be back on myrinet well before the stream ends at ~200ms.
  RuntimeOptions opts = relay_opts({"local", "myrinet", "mpl", "tcp"});
  opts.faults.blackhole("myrinet", 20 * kMs, 60 * kMs);
  Runtime rt(opts);
  rt.telemetry().tracer().enable();
  constexpr int kMsgs = 100;
  std::map<std::uint64_t, int> per_seq;
  std::uint64_t total = 0;
  nexus::testing::run_mpmd(
      rt, {[&](Context& ctx) { relay_source(ctx, kMsgs); },
           [](Context&) {}, relay_forwarder,
           [&](Context& ctx) { recv_stream(ctx, per_seq, total, kMsgs); }});
  ASSERT_EQ(total, static_cast<std::uint64_t>(kMsgs));
  for (int i = 0; i < kMsgs; ++i) {
    EXPECT_EQ(per_seq[static_cast<std::uint64_t>(i)], 1);
  }
  EXPECT_GE(relays_on(rt, "mpl", 0), 1u);  // the outage moved the relay
  EXPECT_GE(relays_on(rt, "myrinet", 120 * kMs), 1u);  // and it came back
}

TEST(Forwarding, RelayFailsOverMidStreamExactlyOnce) {
  // The relay's preferred method dies for good mid-stream: every relayed
  // RSR still arrives exactly once, over the next method in the relay table.
  RuntimeOptions opts = relay_opts({"local", "myrinet", "mpl", "tcp"});
  opts.faults.blackhole("myrinet", /*from=*/20 * kMs);
  Runtime rt(opts);
  rt.telemetry().tracer().enable();
  constexpr int kMsgs = 60;
  std::map<std::uint64_t, int> per_seq;
  std::uint64_t total = 0;
  nexus::testing::run_mpmd(
      rt, {[&](Context& ctx) { relay_source(ctx, kMsgs); },
           [](Context&) {},
           [&](Context& ctx) {
             relay_forwarder(ctx);
             EXPECT_GT(ctx.method_counters("myrinet").send_errors, 0u);
             EXPECT_GE(ctx.method_health("myrinet", 3).failovers, 1u);
           },
           [&](Context& ctx) { recv_stream(ctx, per_seq, total, kMsgs); }});
  ASSERT_EQ(total, static_cast<std::uint64_t>(kMsgs));
  for (int i = 0; i < kMsgs; ++i) {
    EXPECT_EQ(per_seq[static_cast<std::uint64_t>(i)], 1)
        << "sequence " << i << " not delivered exactly once";
  }
  EXPECT_GE(relays_on(rt, "myrinet", 0), 1u);
  EXPECT_EQ(relays_on(rt, "myrinet", 20 * kMs), 0u);
  EXPECT_GE(relays_on(rt, "mpl", 20 * kMs), 1u);
}

TEST(Forwarding, RelayDropsWhenEveryMethodIsDead) {
  // Every method in the relay table is dead: mpl is blackholed, and tcp is
  // excluded because it lands back on the forwarder itself.  The forwarder
  // must neither throw nor stop: each relayed RSR is dropped, counted in
  // send_errors and recorded as a Drop, and the forwarder goes on serving.
  RuntimeOptions opts = relay_opts({"local", "mpl", "tcp"});
  opts.faults.blackhole("mpl", 0);
  Runtime rt(opts);
  rt.telemetry().tracer().enable();
  constexpr int kMsgs = 10;
  bool served_stop = false;
  nexus::testing::run_mpmd(rt, {[&](Context& ctx) { relay_source(ctx, kMsgs); },
                                [](Context&) {},
                                [&](Context& ctx) {
                                  relay_forwarder(ctx);
                                  served_stop = true;
                                },
                                [](Context&) {}});
  EXPECT_TRUE(served_stop);
  EXPECT_EQ(rt.telemetry().metrics().context(2).send_errors,
            static_cast<std::uint64_t>(kMsgs));
  // One Drop per relayed RSR from the forwarder itself.  Its record carries
  // no method label; the fabric's per-attempt blackhole drops do.
  std::size_t relay_drops = 0;
  for (const auto& ev : rt.telemetry().tracer().events()) {
    if (ev.phase == telemetry::Phase::Drop && ev.context == 2 &&
        ev.label == 0) {
      ++relay_drops;
    }
  }
  EXPECT_EQ(relay_drops, static_cast<std::size_t>(kMsgs));
  EXPECT_EQ(relays_on(rt, "mpl", 0), 0u);
}

}  // namespace
