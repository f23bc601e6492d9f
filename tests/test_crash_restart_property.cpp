// Crash/restart fault-domain tests (docs/ARCHITECTURE.md §14).
//
// Property: across many seeded random plans that kill and restart random
// non-root contexts -- stacked with udp drop storms and delay windows --
// every RSR the sender commits is delivered exactly once, even when the
// receiver reincarnates mid-window.  The root context (the sender) is never
// crashed, and every crash window is finite, so at least one survivor path
// eventually exists and the workload converges.
//
// Deterministic cases pin the epoch machinery the property relies on:
//   - ghost acks (acks describing a previous incarnation of the sender)
//     are rejected, with the rel_epoch_rejects counter asserted;
//   - stale Data frames from a dead incarnation are rejected at the
//     receiver instead of corrupting the new stream;
//   - a receiver that crashes mid-window comes back with a bumped epoch
//     and the write-ahead floor dup-drops retransmits of frames it already
//     delivered in its previous life.
#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <map>
#include <vector>

#include "fixture_runtime.hpp"
#include "nexus/runtime.hpp"
#include "proto/reliable.hpp"
#include "util/rng.hpp"

namespace {

using namespace nexus;
using nexus::testing::opts_with;
using nexus::testing::run_mpmd;
using simnet::kMs;
using simnet::kUs;

constexpr int kTrials = 200;
constexpr int kMsgs = 10;                ///< per receiver
constexpr Time kDeadline = 8000 * kMs;   ///< virtual-time give-up guard

simnet::FaultPlan random_crash_plan(util::Rng& rng, ContextId world) {
  simnet::FaultPlan plan;
  // Crash schedules: each non-root context gets up to two finite windows.
  for (ContextId c = 1; c < world; ++c) {
    if (!rng.chance(0.8)) continue;
    const Time from = rng.uniform(0, 80 * kMs);
    const Time until = from + rng.uniform(10 * kMs, 200 * kMs);
    plan.crash(c, from, until);
    if (rng.chance(0.3)) {
      const Time from2 = until + rng.uniform(5 * kMs, 80 * kMs);
      plan.crash(c, from2, from2 + rng.uniform(10 * kMs, 120 * kMs));
    }
  }
  // Link-level trouble on top, so crashes interleave with ordinary loss.
  if (rng.chance(0.5)) plan.drop("udp", 0.4 * rng.next_double());
  if (rng.chance(0.5)) {
    const Time from = rng.uniform(0, 200 * kMs);
    const Time until = from + rng.uniform(20 * kMs, 300 * kMs);
    if (rng.chance(0.5)) {
      plan.drop("udp", 0.6 * rng.next_double(), from, until);
    } else {
      plan.delay("udp", rng.uniform(0, 6 * kMs), from, until);
    }
  }
  // And sometimes a hard outage overlapping the crash schedule: a windowed
  // udp blackhole is the nastiest combination -- the wrapper's probes all
  // vanish while its peer may be mid-reincarnation.
  if (rng.chance(0.3)) {
    const Time from = rng.uniform(0, 150 * kMs);
    plan.blackhole("udp", from, from + rng.uniform(10 * kMs, 150 * kMs));
  }
  return plan;
}

void run_crash_trial(std::uint64_t seed) {
  util::Rng rng(seed);
  constexpr ContextId kWorld = 3;  // root sender + two crashing receivers

  // Half the trials carry a tcp survivor path next to rel+udp; the others
  // leave the wrapper alone in charge (delivery then rides retransmission
  // across the receiver's reincarnations).
  std::vector<std::string> modules = {"local", "rel+udp"};
  const bool with_tcp = rng.chance(0.5);
  if (with_tcp) modules.push_back("tcp");
  RuntimeOptions opts =
      opts_with(std::move(modules), simnet::Topology::single_partition(kWorld));
  opts.faults = random_crash_plan(rng, kWorld);
  opts.seed = seed;
  opts.costs.udp_drop_prob = 0.3 * rng.next_double();  // silent loss
  opts.db.set("rel.max_retries", "40");
  opts.db.set("rel.rto_initial_us", "5000");
  opts.db.set("rel.rto_min_us", "1000");
  opts.db.set("rel.rto_max_us", "100000");
  opts.db.set("rel.ack_delay_us", "500");
  Runtime rt(opts);

  // Per receiver: payload value -> delivery count.
  std::map<std::uint64_t, int> delivered[kWorld];
  bool sender_gave_up = false;
  // Receivers must outlive the sender's window drain: lost acks are only
  // repaired by retransmits while the receiving side still answers.
  std::atomic<bool> sender_drained{false};

  std::vector<std::function<void(Context&)>> fns;
  fns.push_back([&](Context& ctx) {  // root sender, never crashed
    std::vector<Startpoint> sps;
    for (ContextId r = 1; r < kWorld; ++r) {
      sps.push_back(ctx.world_startpoint(r));
    }
    for (int i = 0; i < kMsgs; ++i) {
      for (ContextId r = 1; r < kWorld; ++r) {
        util::PackBuffer pb(16);
        pb.put_u64((static_cast<std::uint64_t>(r) << 32) |
                   static_cast<std::uint64_t>(i));
        // A send into a crash window exhausts failover and throws (the
        // default robust.retry_budget = 0 contract); the message was never
        // accepted by any method, so retrying it cannot duplicate.  The
        // retry budget is an absolute virtual-time horizon, not a count:
        // after a crash ends, the wrapper's dead-latch only clears once a
        // probing retransmit's ack crosses the (possibly drop-stormed)
        // channel, which can take over a second of simulated time.
        bool sent = false;
        while (!sent && ctx.now() < kDeadline / 2) {
          try {
            ctx.rsr(sps[r - 1], "seq", pb);
            sent = true;
          } catch (const util::MethodError&) {
            ctx.compute_with_polling(60 * kMs, 1 * kMs);
          }
        }
        if (!sent) sender_gave_up = true;
      }
      ctx.compute_with_polling(2 * kMs, 500 * kUs);
    }
    // Service retransmission timers until every accepted packet is acked.
    auto* rel = dynamic_cast<proto::ReliableModule*>(ctx.module("rel+udp"));
    ASSERT_NE(rel, nullptr);
    auto in_flight_total = [&] {
      std::uint64_t n = 0;
      for (ContextId r = 1; r < kWorld; ++r) n += rel->in_flight(r);
      return n;
    };
    while (in_flight_total() > 0 && ctx.now() < kDeadline) {
      ctx.compute_with_polling(10 * kMs, 1 * kMs);
    }
    EXPECT_EQ(in_flight_total(), 0u) << "seed " << seed;
    sender_drained.store(true, std::memory_order_release);
  });
  for (ContextId r = 1; r < kWorld; ++r) {
    fns.push_back([&, r](Context& ctx) {  // crashing receiver
      std::uint64_t got = 0;
      ctx.register_handler("seq",
                           [&](Context&, Endpoint&, util::UnpackBuffer& ub) {
                             ++delivered[r][ub.get_u64()];
                             ++got;
                           });
      while (!sender_drained.load(std::memory_order_acquire) &&
             ctx.now() < kDeadline) {
        ctx.compute_with_polling(10 * kMs, 1 * kMs);
      }
      EXPECT_EQ(got, static_cast<std::uint64_t>(kMsgs))
          << "seed " << seed << " receiver " << r;
    });
  }
  rt.run(std::move(fns));

  ASSERT_FALSE(sender_gave_up)
      << "seed " << seed << ": sender exhausted its retry budget";
  for (ContextId r = 1; r < kWorld; ++r) {
    for (int i = 0; i < kMsgs; ++i) {
      const std::uint64_t key = (static_cast<std::uint64_t>(r) << 32) |
                                static_cast<std::uint64_t>(i);
      ASSERT_EQ(delivered[r][key], 1)
          << "seed " << seed << ": receiver " << r << " message " << i
          << " delivered " << delivered[r][key] << " times"
          << (with_tcp ? " (tcp survivor path)" : "");
    }
  }
}

TEST(CrashRestartProperty, RandomCrashPlansDeliverExactlyOnce) {
  const std::uint64_t base = nexus::testing::test_seed();
  for (int t = 0; t < kTrials; ++t) {
    std::uint64_t state = base ^ (0x51ed2701b8f6c34dull * (t + 1));
    const std::uint64_t seed = util::splitmix64(state);
    run_crash_trial(seed);
    if (::testing::Test::HasFatalFailure()) {
      FAIL() << "trial " << t << " (seed " << seed << ") failed";
    }
  }
}

// A delayed ack armed before the sender's crash flushes after its restart:
// it describes incarnation 1's window and must be rejected as a ghost ack
// (counter asserted), while the new incarnation's window starts clean and
// its own traffic is delivered exactly once.
TEST(CrashRestart, GhostAcksFromPreviousIncarnationRejected) {
  RuntimeOptions opts =
      opts_with({"local", "rel+udp"}, simnet::Topology::single_partition(2));
  opts.faults.crash(1, 5 * kMs, 12 * kMs);
  // No count-triggered acks; one delayed ack 15 ms after the first commit,
  // i.e. after the sender has already restarted.
  opts.db.set("rel.ack_every", "1000");
  opts.db.set("rel.ack_delay_us", "15000");
  opts.db.set("rel.rto_initial_us", "200000");  // no retransmits in-window
  Runtime rt(opts);

  std::map<std::uint64_t, int> delivered;
  std::uint64_t ghost_rejects = 0;
  std::atomic<bool> sender_drained{false};

  run_mpmd(rt, {[&](Context& ctx) {  // receiver
                  std::uint64_t got = 0;
                  ctx.register_handler(
                      "seq", [&](Context&, Endpoint&, util::UnpackBuffer& ub) {
                        ++delivered[ub.get_u64()];
                        ++got;
                      });
                  // Outlive the sender's drain: the phase-2 delayed ack has
                  // to flush before this side stops polling.
                  while (!sender_drained.load(std::memory_order_acquire) &&
                         ctx.now() < 500 * kMs) {
                    ctx.compute_with_polling(2 * kMs, 500 * kUs);
                  }
                  EXPECT_EQ(got, 6u);
                },
                [&](Context& ctx) {  // sender, crashed at 5 ms
                  Startpoint sp = ctx.world_startpoint(0);
                  for (std::uint64_t i = 0; i < 3; ++i) {
                    util::PackBuffer pb(16);
                    pb.put_u64(i);
                    ctx.rsr(sp, "seq", pb);
                  }
                  EXPECT_EQ(ctx.incarnation(), 1u);
                  // Poll through the crash window; restart bumps the epoch.
                  while (ctx.now() < 20 * kMs) {
                    ctx.compute_with_polling(1 * kMs, 250 * kUs);
                  }
                  EXPECT_EQ(ctx.incarnation(), 2u);
                  // Second life: a fresh window (sequences restart at 0).
                  for (std::uint64_t i = 100; i < 103; ++i) {
                    util::PackBuffer pb(16);
                    pb.put_u64(i);
                    ctx.rsr(sp, "seq", pb);
                  }
                  auto* rel = dynamic_cast<proto::ReliableModule*>(
                      ctx.module("rel+udp"));
                  ASSERT_NE(rel, nullptr);
                  while (rel->in_flight(0) > 0 && ctx.now() < 500 * kMs) {
                    ctx.compute_with_polling(2 * kMs, 500 * kUs);
                  }
                  EXPECT_EQ(rel->in_flight(0), 0u);
                  ghost_rejects =
                      ctx.method_counters("rel+udp").rel_epoch_rejects;
                  sender_drained.store(true, std::memory_order_release);
                }});

  // The 15 ms delayed ack (rel_ack = 3 for incarnation 1) arrived after the
  // restart and was provably rejected instead of crediting the new window.
  EXPECT_GE(ghost_rejects, 1u);
  for (const std::uint64_t v : {0ull, 1ull, 2ull, 100ull, 101ull, 102ull}) {
    EXPECT_EQ(delivered[v], 1) << "payload " << v;
  }
}

// A Data frame still in flight when its sender dies arrives after the
// receiver has locked onto the sender's next incarnation: it is rejected
// (counter asserted) and never delivered -- in-memory state of a dead
// incarnation is lost, not resurrected into the new stream.
TEST(CrashRestart, StaleDataFromDeadIncarnationRejected) {
  RuntimeOptions opts =
      opts_with({"local", "rel+udp"}, simnet::Topology::single_partition(2));
  // Frames sent in the first 2 ms take an extra 25 ms; the sender dies at
  // 3 ms and is back at 8 ms, so the delayed frame outlives its incarnation.
  opts.faults.delay("udp", 25 * kMs, 0, 2 * kMs);
  opts.faults.crash(1, 3 * kMs, 8 * kMs);
  opts.db.set("rel.rto_initial_us", "200000");  // the RTO never fires first
  Runtime rt(opts);

  std::map<std::uint64_t, int> delivered;
  std::uint64_t stale_rejects = 0;

  run_mpmd(rt, {[&](Context& ctx) {  // receiver
                  std::uint64_t got = 0;
                  ctx.register_handler(
                      "seq", [&](Context&, Endpoint&, util::UnpackBuffer& ub) {
                        ++delivered[ub.get_u64()];
                        ++got;
                      });
                  // Poll well past the stale frame's 25 ms arrival.
                  while (ctx.now() < 60 * kMs) {
                    ctx.compute_with_polling(2 * kMs, 500 * kUs);
                  }
                  EXPECT_EQ(got, 1u);
                  stale_rejects =
                      ctx.method_counters("rel+udp").rel_epoch_rejects;
                },
                [&](Context& ctx) {  // sender
                  Startpoint sp = ctx.world_startpoint(0);
                  util::PackBuffer pa(16);
                  pa.put_u64(7);  // delayed, then orphaned by the crash
                  ctx.rsr(sp, "seq", pa);
                  while (ctx.now() < 10 * kMs) {
                    ctx.compute_with_polling(1 * kMs, 250 * kUs);
                  }
                  EXPECT_EQ(ctx.incarnation(), 2u);
                  util::PackBuffer pb(16);
                  pb.put_u64(8);  // second life locks the receiver's epoch
                  ctx.rsr(sp, "seq", pb);
                  while (ctx.now() < 60 * kMs) {
                    ctx.compute_with_polling(2 * kMs, 500 * kUs);
                  }
                }});

  EXPECT_GE(stale_rejects, 1u);
  EXPECT_EQ(delivered[8], 1);
  EXPECT_EQ(delivered[7], 0)
      << "a dead incarnation's uncommitted frame must not be delivered";
}

// Receiver reincarnation mid-window: the sender keeps a full window in
// flight across the receiver's crash.  The write-ahead floor survives the
// restart, so retransmits of frames committed in the previous life are
// dup-dropped, frames purged with the old mailbox are retransmitted into
// the new life, and every sequence is delivered exactly once.
TEST(CrashRestart, ReceiverReincarnationMidWindowStaysExactlyOnce) {
  RuntimeOptions opts =
      opts_with({"local", "rel+udp"}, simnet::Topology::single_partition(2));
  opts.faults.crash(1, 4 * kMs, 9 * kMs);
  opts.faults.drop("udp", 0.4, 0, 6 * kMs);  // lose acks + data pre-crash
  opts.db.set("rel.max_retries", "40");
  opts.db.set("rel.rto_initial_us", "3000");
  opts.db.set("rel.rto_min_us", "1000");
  opts.db.set("rel.rto_max_us", "50000");
  opts.db.set("rel.ack_delay_us", "500");
  Runtime rt(opts);

  constexpr int kN = 10;
  std::map<std::uint64_t, int> delivered;
  std::uint32_t receiver_incarnation = 0;
  std::atomic<bool> sender_drained{false};

  run_mpmd(rt, {[&](Context& ctx) {  // root sender, never crashed
                  Startpoint sp = ctx.world_startpoint(1);
                  for (std::uint64_t i = 0; i < kN; ++i) {
                    util::PackBuffer pb(16);
                    pb.put_u64(i);
                    bool sent = false;
                    for (int a = 0; a < 10 && !sent; ++a) {
                      try {
                        ctx.rsr(sp, "seq", pb);
                        sent = true;
                      } catch (const util::MethodError&) {
                        ctx.compute_with_polling(10 * kMs, 1 * kMs);
                      }
                    }
                    ASSERT_TRUE(sent) << "message " << i;
                    ctx.compute_with_polling(1 * kMs, 250 * kUs);
                  }
                  auto* rel = dynamic_cast<proto::ReliableModule*>(
                      ctx.module("rel+udp"));
                  ASSERT_NE(rel, nullptr);
                  while (rel->in_flight(1) > 0 && ctx.now() < 2000 * kMs) {
                    ctx.compute_with_polling(5 * kMs, 1 * kMs);
                  }
                  EXPECT_EQ(rel->in_flight(1), 0u);
                  sender_drained.store(true, std::memory_order_release);
                },
                [&](Context& ctx) {  // receiver, crashed at 4 ms
                  std::uint64_t got = 0;
                  ctx.register_handler(
                      "seq", [&](Context&, Endpoint&, util::UnpackBuffer& ub) {
                        ++delivered[ub.get_u64()];
                        ++got;
                      });
                  while (!sender_drained.load(std::memory_order_acquire) &&
                         ctx.now() < 2000 * kMs) {
                    ctx.compute_with_polling(2 * kMs, 500 * kUs);
                  }
                  EXPECT_EQ(got, static_cast<std::uint64_t>(kN));
                  receiver_incarnation = ctx.incarnation();
                }});

  EXPECT_EQ(receiver_incarnation, 2u);
  for (std::uint64_t i = 0; i < kN; ++i) {
    ASSERT_EQ(delivered[i], 1)
        << "sequence " << i << " delivered " << delivered[i] << " times";
  }
}

}  // namespace
