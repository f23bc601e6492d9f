// Tracer integration: RSR lifecycle events recorded across a run.
#include <gtest/gtest.h>

#include "fixture_runtime.hpp"
#include "nexus/runtime.hpp"

namespace {

using namespace nexus;
using nexus::testing::count_events;
using telemetry::Phase;

TEST(Trace, DisabledByDefaultRecordsNothing) {
  RuntimeOptions opts;
  opts.topology = simnet::Topology::single_partition(2);
  Runtime rt(opts);
  rt.run([&](Context& ctx) {
    std::uint64_t done = 0;
    ctx.register_handler("x", [&](Context&, Endpoint&, util::UnpackBuffer&) {
      ++done;
    });
    if (ctx.id() == 1) {
      Startpoint sp = ctx.world_startpoint(0);
      ctx.rsr(sp, "x");
    } else {
      ctx.wait_count(done, 1);
    }
  });
  EXPECT_TRUE(rt.telemetry().tracer().events().empty());
}

TEST(Trace, SendAndDispatchRecordedInOrder) {
  RuntimeOptions opts;
  opts.topology = simnet::Topology::single_partition(2);
  Runtime rt(opts);
  rt.telemetry().tracer().enable();
  rt.run([&](Context& ctx) {
    std::uint64_t done = 0;
    ctx.register_handler("ev", [&](Context&, Endpoint&, util::UnpackBuffer&) {
      ++done;
    });
    if (ctx.id() == 1) {
      Startpoint sp = ctx.world_startpoint(0);
      for (int i = 0; i < 3; ++i) ctx.rsr(sp, "ev");
    } else {
      ctx.wait_count(done, 3);
    }
  });
  EXPECT_EQ(count_events(rt, Phase::Send, "mpl"), 3u);
  EXPECT_EQ(count_events(rt, Phase::Dispatch), 3u);
  // Every dispatch happens after its send (virtual timestamps monotone per
  // message; here simply: first send precedes first dispatch).
  Time first_send = -1, first_dispatch = -1;
  for (const auto& ev : rt.telemetry().tracer().events()) {
    if (ev.phase == Phase::Send && first_send < 0) first_send = ev.when;
    if (ev.phase == Phase::Dispatch && first_dispatch < 0) {
      first_dispatch = ev.when;
    }
  }
  EXPECT_GE(first_dispatch, first_send);
}

TEST(Trace, ForwardEventsCarryTheRelayMethod) {
  RuntimeOptions opts;
  opts.topology = simnet::Topology::two_partitions(2, 2);
  opts.forwarders[1] = 2;
  Runtime rt(opts);
  rt.telemetry().tracer().enable();
  rt.run(std::vector<std::function<void(Context&)>>{
      [&](Context& ctx) {
        Startpoint sp = ctx.world_startpoint(3);
        ctx.rsr(sp, "sink");
      },
      [](Context&) {},
      [&](Context& ctx) {  // forwarder services until the relay happened
        ctx.wait([&] {
          return ctx.method_counters("mpl").sends > 0;
        });
      },
      [&](Context& ctx) {
        std::uint64_t done = 0;
        ctx.register_handler("sink",
                             [&](Context&, Endpoint&, util::UnpackBuffer&) {
                               ++done;
                             });
        ctx.wait_count(done, 1);
      }});
  ASSERT_GE(count_events(rt, Phase::Forward), 1u);
  const telemetry::Tracer& tracer = rt.telemetry().tracer();
  for (const auto& ev : tracer.events()) {
    if (ev.phase == Phase::Forward) {
      // Relayed into the partition over mpl, by the forwarder.
      EXPECT_EQ(tracer.label_name(ev.label), "mpl");
      EXPECT_EQ(ev.context, 2u);
    }
  }
}

TEST(Describe, ReportsPollScheduleAndForwarders) {
  RuntimeOptions opts;
  opts.topology = simnet::Topology::two_partitions(2, 2);
  opts.forwarders[1] = 2;
  Runtime rt(opts);
  rt.run([&](Context& ctx) {
    if (ctx.id() == 0) ctx.set_skip_poll("tcp", 42);
  });
  const std::string report = rt.describe();
  EXPECT_NE(report.find("forwarder for partition 1: context 2"),
            std::string::npos);
  EXPECT_NE(report.find("[skip 42]"), std::string::npos);
  EXPECT_NE(report.find("[not polled]"), std::string::npos);  // ctx 3's tcp
}

}  // namespace
