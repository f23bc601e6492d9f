// Reliability as a selection criterion: automatic selection must never
// hand RSR traffic to an unreliable method while a reliable one applies.
#include <gtest/gtest.h>

#include "fixture_runtime.hpp"
#include "nexus/runtime.hpp"
#include "proto/methods.hpp"

namespace {

using namespace nexus;
using nexus::testing::opts_with;

TEST(Reliability, UdpNotAutoSelectedOverTcp) {
  // udp has a better speed rank than tcp, but is lossy; cross-partition
  // selection must pick tcp.
  Runtime rt(opts_with({"local", "mpl", "udp", "tcp"},
                       simnet::Topology::two_partitions(1, 1)));
  std::uint64_t done = 0;
  rt.run([&](Context& ctx) {
    nexus::testing::register_counter(ctx, "noop", done);
    if (ctx.id() != 1) {
      ctx.wait_count(done, 1);
      // Isolation check: keep draining well past the delivery -- a
      // duplicate (e.g. a retried send that was actually delivered) would
      // land here and fail the exact-count assertion below.
      ctx.compute_with_polling(2 * simnet::kMs, 100 * simnet::kUs);
      return;
    }
    Startpoint sp = ctx.world_startpoint(0);
    ctx.rsr(sp, "noop");
    EXPECT_EQ(sp.selected_method(), "tcp");
  });
  EXPECT_EQ(done, 1u);  // exactly once, no duplicates
}

TEST(Reliability, FallbackToUnreliableWhenNothingElseApplies) {
  // With only udp available across partitions, selection falls back to it
  // and says so in the enquiry log.
  RuntimeOptions opts = opts_with({"local", "mpl", "udp"},
                                  simnet::Topology::two_partitions(1, 1));
  opts.costs.udp_drop_prob = 0.0;
  Runtime rt(opts);
  std::uint64_t done = 0;
  rt.run([&](Context& ctx) {
    nexus::testing::register_counter(ctx, "noop", done);
    if (ctx.id() != 1) {
      ctx.wait_count(done, 1);
      ctx.compute_with_polling(2 * simnet::kMs, 100 * simnet::kUs);
      return;
    }
    Startpoint sp = ctx.world_startpoint(0);
    ctx.rsr(sp, "noop");
    EXPECT_EQ(sp.selected_method(), "udp");
    ASSERT_FALSE(ctx.selection_log().empty());
    EXPECT_NE(ctx.selection_log().back().reason.find("unreliable"),
              std::string::npos);
  });
  EXPECT_EQ(done, 1u);  // exactly once, no duplicates
}

TEST(Reliability, ForcedUnreliableMethodIsHonoured) {
  RuntimeOptions opts = opts_with({"local", "mpl", "udp", "tcp"},
                                  simnet::Topology::two_partitions(1, 1));
  opts.costs.udp_drop_prob = 0.0;
  Runtime rt(opts);
  std::uint64_t done = 0;
  rt.run([&](Context& ctx) {
    nexus::testing::register_counter(ctx, "noop", done);
    if (ctx.id() != 1) {
      ctx.wait_count(done, 1);
      ctx.compute_with_polling(2 * simnet::kMs, 100 * simnet::kUs);
      return;
    }
    Startpoint sp = ctx.world_startpoint(0);
    sp.force_method("udp");  // explicit application opt-in
    ctx.rsr(sp, "noop");
    EXPECT_EQ(sp.selected_method(), "udp");
  });
  EXPECT_EQ(done, 1u);  // exactly once, no duplicates
}

TEST(Reliability, QosAlsoPrefersReliable) {
  Runtime rt(opts_with({"local", "mpl", "udp", "tcp"},
                       simnet::Topology::two_partitions(1, 1)));
  rt.run([&](Context& ctx) {
    if (ctx.id() != 1) return;
    QosSelector sel;
    std::string reason;
    auto idx = sel.select(ctx.runtime().table_of(0), ctx, reason);
    ASSERT_TRUE(idx.has_value());
    EXPECT_EQ(ctx.runtime().table_of(0).at(*idx).method, "tcp");
  });
}

TEST(Reliability, RandomSelectorNeverPicksUnreliableWhenAvoidable) {
  Runtime rt(opts_with({"local", "mpl", "udp", "tcp"},
                       simnet::Topology::two_partitions(1, 1)));
  rt.run([&](Context& ctx) {
    if (ctx.id() != 1) return;
    RandomSelector sel(123);
    std::string reason;
    for (int i = 0; i < 100; ++i) {
      auto idx = sel.select(ctx.runtime().table_of(0), ctx, reason);
      ASSERT_TRUE(idx.has_value());
      EXPECT_EQ(ctx.runtime().table_of(0).at(*idx).method, "tcp");
    }
  });
}

TEST(Reliability, MulticastStillWorksAsOnlyEntry) {
  // The mcast pseudo-table has a single (unreliable) entry: the fallback
  // path must keep group sends working without explicit forcing.
  RuntimeOptions opts = opts_with({"local", "mcast", "tcp"},
                                  simnet::Topology::single_partition(2));
  Runtime rt(opts);
  int hits = 0;
  rt.run([&](Context& ctx) {
    if (ctx.id() == 1) {
      std::uint64_t done = 0;
      Endpoint& ep = ctx.create_endpoint();
      ctx.register_handler("update",
                           [&](Context&, Endpoint&, util::UnpackBuffer&) {
                             ++hits;
                             ++done;
                           });
      nexus::proto::multicast_join(ctx, 3, ep);
      ctx.wait_count(done, 1);
      ctx.compute_with_polling(2 * simnet::kMs, 100 * simnet::kUs);
    } else {
      ctx.compute(50 * simnet::kUs);  // let the member join
      Startpoint group = nexus::proto::multicast_startpoint(ctx, 3);
      ctx.rsr(group, "update");
    }
  });
  EXPECT_EQ(hits, 1);
}

}  // namespace
