// Thread-per-core sharded runtime: contexts are distributed round-robin
// across N scheduler shards, each driven by its own OS thread, with
// cross-shard packet posts routed through lock-free MPSC mailboxes
// (docs/ARCHITECTURE.md §13).
//
// These tests pin the contracts the sharding must preserve:
//   * option/env/db resolution and clamping of the shard count,
//   * delivery correctness across shard boundaries (unicast, multicast,
//     reliable exactly-once over lossy links),
//   * global termination + deadlock detection spanning all shards,
//   * exception propagation from a worker shard to Runtime::run,
//   * threads=1 staying bit-deterministic (same seed -> same outcome).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "fixture_runtime.hpp"
#include "nexus/runtime.hpp"
#include "proto/reliable.hpp"
#include "proto/methods.hpp"
#include "util/pack.hpp"

namespace {

using namespace nexus;
using nexus::testing::opts_with;
using nexus::testing::register_counter;
using nexus::testing::run_mpmd;
using nexus::testing::sim_opts;

// Scoped control of NEXUS_THREADS: the resolution test exercises every
// rung of the option > env > db > default ladder, so it must not inherit
// whatever the surrounding ctest invocation exported.
class ScopedThreadsEnv {
 public:
  ScopedThreadsEnv() {
    if (const char* v = std::getenv("NEXUS_THREADS")) saved_ = v;
    ::unsetenv("NEXUS_THREADS");
  }
  ~ScopedThreadsEnv() {
    if (saved_.has_value()) {
      ::setenv("NEXUS_THREADS", saved_->c_str(), 1);
    } else {
      ::unsetenv("NEXUS_THREADS");
    }
  }
  static void set(const char* v) { ::setenv("NEXUS_THREADS", v, 1); }
  static void clear() { ::unsetenv("NEXUS_THREADS"); }

 private:
  std::optional<std::string> saved_;
};

TEST(ShardedRuntime, ThreadsResolutionAndClamping) {
  ScopedThreadsEnv env_guard;
  // Explicit option wins and contexts are dealt round-robin over shards.
  {
    RuntimeOptions opts = sim_opts(simnet::Topology::single_partition(8));
    opts.threads = 4;
    Runtime rt(opts);
    EXPECT_EQ(rt.threads(), 4u);
    ASSERT_NE(rt.sim(), nullptr);
    EXPECT_EQ(rt.sim()->shard_count(), 4u);
    for (ContextId id = 0; id < 8; ++id) {
      EXPECT_EQ(rt.sim()->shard_of(id), id % 4);
    }
    EXPECT_TRUE(rt.sim()->same_shard(1, 5));
    EXPECT_FALSE(rt.sim()->same_shard(1, 2));
  }
  // More shards than contexts is clamped to the world size.
  {
    RuntimeOptions opts = sim_opts(simnet::Topology::single_partition(2));
    opts.threads = 16;
    Runtime rt(opts);
    EXPECT_EQ(rt.threads(), 2u);
  }
  // The runtime.threads database key is consulted when no option is set.
  {
    RuntimeOptions opts = sim_opts(simnet::Topology::single_partition(8));
    opts.db.set("runtime.threads", "3");
    Runtime rt(opts);
    EXPECT_EQ(rt.threads(), 3u);
  }
  // The NEXUS_THREADS environment override beats the database key.
  {
    ScopedThreadsEnv::set("2");
    RuntimeOptions opts = sim_opts(simnet::Topology::single_partition(8));
    opts.db.set("runtime.threads", "3");
    Runtime rt(opts);
    EXPECT_EQ(rt.threads(), 2u);
    ScopedThreadsEnv::clear();
  }
  // ...but an explicit option beats the environment.
  {
    ScopedThreadsEnv::set("8");
    RuntimeOptions opts = sim_opts(simnet::Topology::single_partition(8));
    opts.threads = 2;
    Runtime rt(opts);
    EXPECT_EQ(rt.threads(), 2u);
    ScopedThreadsEnv::clear();
  }
  // Default stays single-shard: the historical engine, bit for bit.
  {
    Runtime rt(sim_opts(simnet::Topology::single_partition(4)));
    EXPECT_EQ(rt.threads(), 1u);
    EXPECT_EQ(rt.sim()->shard_count(), 1u);
  }
}

// All-to-all unicast across four shards: every context sends a burst to
// every other context, so every packet with shard_of(src) != shard_of(dst)
// crosses the MPSC router.  Each counter is written only by its owning
// context (= its shard thread), so plain uint64s are race-free.
TEST(ShardedRuntime, CrossShardUnicastAllToAll) {
  constexpr ContextId kWorld = 8;
  constexpr std::uint64_t kBurst = 10;
  RuntimeOptions opts = sim_opts(simnet::Topology::single_partition(kWorld));
  opts.threads = 4;
  Runtime rt(opts);
  std::uint64_t done[kWorld] = {};

  rt.run([&](Context& ctx) {
    register_counter(ctx, "ping", done[ctx.id()]);
    for (ContextId peer = 0; peer < kWorld; ++peer) {
      if (peer == ctx.id()) continue;
      Startpoint sp = ctx.world_startpoint(peer);
      for (std::uint64_t i = 0; i < kBurst; ++i) {
        util::PackBuffer pb;
        pb.put_u32(static_cast<std::uint32_t>(i));
        ctx.rsr(sp, "ping", pb);
      }
    }
    ctx.wait_count(done[ctx.id()], (kWorld - 1) * kBurst);
  });

  for (ContextId id = 0; id < kWorld; ++id) {
    EXPECT_EQ(done[id], (kWorld - 1) * kBurst) << "context " << id;
  }
}

// Multicast with members on every shard.  Shard virtual clocks advance
// independently, so the sender cannot use a compute() head start (that only
// orders events within one shard); it instead waits for an explicit
// readiness RSR from every member -- which is itself a cross-shard
// causality check.
TEST(ShardedRuntime, CrossShardMulticastReachesEveryMember) {
  constexpr ContextId kWorld = 8;
  constexpr std::uint64_t kSends = 5;
  RuntimeOptions opts = opts_with({"local", "mpl", "tcp", "mcast"},
                                  simnet::Topology::single_partition(kWorld));
  opts.threads = 4;
  Runtime rt(opts);
  std::uint64_t got[kWorld] = {};

  rt.run([&](Context& ctx) {
    if (ctx.id() == 0) {
      std::uint64_t ready = 0;
      register_counter(ctx, "ready", ready);
      ctx.wait_count(ready, kWorld - 1);
      Startpoint group = proto::multicast_startpoint(ctx, 42);
      for (std::uint64_t i = 0; i < kSends; ++i) {
        util::PackBuffer pb;
        pb.put_u32(static_cast<std::uint32_t>(i));
        ctx.rsr(group, "update", pb);
      }
      return;
    }
    Endpoint& ep = ctx.create_endpoint();
    register_counter(ctx, "update", got[ctx.id()]);
    proto::multicast_join(ctx, 42, ep);
    Startpoint home = ctx.world_startpoint(0);
    ctx.rsr(home, "ready");
    ctx.wait_count(got[ctx.id()], kSends);
  });

  for (ContextId id = 1; id < kWorld; ++id) {
    EXPECT_EQ(got[id], kSends) << "member " << id;
  }
  EXPECT_EQ(rt.context(0).method_counters("mcast").sends, kSends);
}

// rel+udp across shard boundaries with a lossy link model: the sliding
// window retransmits over the MPSC router too, and delivery must stay
// exactly-once in-order no matter how shard clocks interleave.
//
// Shard virtual clocks are decoupled, so the single-shard reliable idiom
// (poll until a virtual deadline) does not transfer: one shard can burn
// its whole virtual budget in microseconds of wall time before another
// sends its first frame.  The threaded idiom is purely causal -- the
// receiver blocks on the delivery count (every dispatch also answers
// acks), and the senders keep servicing retransmission timers until the
// receiver announces completion through an atomic.  A wedged run is
// caught by the ctest timeout rather than a virtual deadline.
TEST(ShardedRuntime, ReliableExactlyOnceAcrossShards) {
  using simnet::kMs;
  constexpr ContextId kWorld = 4;
  constexpr std::uint32_t kSends = 30;
  RuntimeOptions opts = opts_with({"local", "rel+udp"},
                                  simnet::Topology::single_partition(kWorld));
  opts.threads = 4;
  opts.costs.udp_drop_prob = 0.2;
  opts.seed = 7;
  opts.db.set("rel.rto_initial_us", "3000");
  opts.db.set("rel.rto_min_us", "1000");
  opts.db.set("rel.ack_delay_us", "500");
  Runtime rt(opts);
  std::vector<std::vector<std::uint32_t>> seen(kWorld);
  std::atomic<bool> all_received{false};

  rt.run([&](Context& ctx) {
    if (ctx.id() == 0) {
      std::uint64_t total = 0;
      ctx.register_handler("item", [&](Context&, Endpoint&,
                                       util::UnpackBuffer& ub) {
        const std::uint32_t from = ub.get_u32();
        seen[from].push_back(ub.get_u32());
        ++total;
      });
      ctx.wait_count(total, (kWorld - 1) * kSends);
      all_received.store(true, std::memory_order_release);
      return;
    }
    Startpoint sp = ctx.world_startpoint(0);
    for (std::uint32_t i = 0; i < kSends; ++i) {
      util::PackBuffer pb;
      pb.put_u32(static_cast<std::uint32_t>(ctx.id()));
      pb.put_u32(i);
      ctx.rsr(sp, "item", pb);
      ctx.compute_with_polling(2 * kMs, 500 * simnet::kUs);
    }
    // Service retransmission timers until the receiver has everything;
    // frames lost to the drop model only arrive through these resends.
    while (!all_received.load(std::memory_order_acquire)) {
      ctx.compute_with_polling(5 * kMs, 1 * kMs);
    }
  });

  for (ContextId src = 1; src < kWorld; ++src) {
    ASSERT_EQ(seen[src].size(), kSends) << "sender " << src;
    for (std::uint32_t i = 0; i < kSends; ++i) {
      EXPECT_EQ(seen[src][i], i) << "sender " << src;  // in-order, no dups
    }
  }
}

// Identical workload at threads=1 and threads=4 must deliver identical
// counts: sharding changes interleaving, never semantics.
TEST(ShardedRuntime, DeliveryCountsMatchSingleShardRun) {
  constexpr ContextId kWorld = 6;
  constexpr std::uint64_t kBurst = 8;
  auto run_once = [&](unsigned threads) {
    RuntimeOptions opts = sim_opts(simnet::Topology::single_partition(kWorld));
    opts.threads = threads;
    Runtime rt(opts);
    std::uint64_t total[kWorld] = {};
    rt.run([&](Context& ctx) {
      register_counter(ctx, "n", total[ctx.id()]);
      Startpoint next = ctx.world_startpoint((ctx.id() + 1) % kWorld);
      Startpoint far = ctx.world_startpoint((ctx.id() + 3) % kWorld);
      for (std::uint64_t i = 0; i < kBurst; ++i) {
        ctx.rsr(next, "n");
        ctx.rsr(far, "n");
      }
      ctx.wait_count(total[ctx.id()], 2 * kBurst);
    });
    std::uint64_t sum = 0;
    for (ContextId id = 0; id < kWorld; ++id) sum += total[id];
    return sum;
  };
  EXPECT_EQ(run_once(1), run_once(4));
}

// A context blocked on a count that can never arrive must still be caught
// by deadlock detection when the blocked proc and the idle procs live on
// different shards: all shards park, global in-flight hits zero, and the
// shard owning the blocked proc reports it.
TEST(ShardedRuntime, DeadlockDetectedAcrossShards) {
  RuntimeOptions opts = sim_opts(simnet::Topology::single_partition(4));
  opts.threads = 4;
  Runtime rt(opts);
  std::uint64_t never = 0;
  EXPECT_THROW(rt.run([&](Context& ctx) {
                 if (ctx.id() != 2) return;  // three shards go idle
                 register_counter(ctx, "ghost", never);
                 ctx.wait_count(never, 1);   // no one ever sends
               }),
               simnet::DeadlockError);
}

// An exception thrown by a handler on a worker shard aborts the whole
// group -- including procs parked on other shards waiting for counts that
// will now never arrive -- and surfaces from Runtime::run on the caller.
TEST(ShardedRuntime, WorkerShardExceptionPropagates) {
  constexpr ContextId kWorld = 4;
  RuntimeOptions opts = sim_opts(simnet::Topology::single_partition(kWorld));
  opts.threads = 4;
  Runtime rt(opts);
  std::uint64_t done[kWorld] = {};
  EXPECT_THROW(
      rt.run([&](Context& ctx) {
        if (ctx.id() == 3) {
          ctx.register_handler("boom", [](Context&, Endpoint&,
                                          util::UnpackBuffer&) {
            throw std::runtime_error("handler failure on worker shard");
          });
          ctx.wait_count(done[3], 1);  // blocks forever; abort frees it
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

// threads=1 must stay deterministic: with a fixed seed, a lossy-udp
// workload delivers the exact same packet set on every run.
TEST(ShardedRuntime, SingleShardStaysSeedDeterministic) {
  auto run_once = [&]() {
    RuntimeOptions opts = opts_with({"local", "udp"},
                                    simnet::Topology::single_partition(2));
    opts.threads = 1;
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

}  // namespace
