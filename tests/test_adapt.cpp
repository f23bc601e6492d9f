// Adaptive transport engine (docs/ARCHITECTURE.md §11): online cost model,
// payload-aware crossover selection, live table reranking, and the enquiry
// integration.  Unit tests feed the model synthetically; the integration
// tests drive a two-method ping-pong workload and check the acceptance
// criteria of the subsystem (>=90% of small RSRs on the latency-optimal
// method and >=90% of large RSRs on the bandwidth-optimal one after
// warm-up, bounded method switches under injected delay noise, and model
// rows in explain_selection).
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "fixture_runtime.hpp"
#include "nexus/adapt/adaptive_selector.hpp"
#include "nexus/adapt/cost_model.hpp"
#include "nexus/runtime.hpp"
#include "nexus/telemetry/selection_report.hpp"

namespace {

using namespace nexus;
using nexus::testing::sim_opts;
using simnet::kMs;
using simnet::kUs;

// ----------------------------------------------------------------------
// CostModel unit tests (no runtime needed; all times synthetic).

TEST(CostModel, UnknownWithoutSamples) {
  adapt::CostModel m;
  const auto est = m.estimate(method_hash("tcp"), 0, 0);
  EXPECT_FALSE(est.known);
  EXPECT_FALSE(m.predict_ns(method_hash("tcp"), 0, 64, 0).has_value());
  EXPECT_EQ(m.samples(), 0u);
}

TEST(CostModel, SmallPacketsFeedLatency) {
  adapt::CostModel m;
  const std::uint64_t h = method_hash("tcp");
  for (int i = 0; i < 10; ++i) m.observe(h, 0, 64, 150 * kUs, i * kMs);
  const auto est = m.estimate(h, 0, 10 * kMs);
  EXPECT_TRUE(est.known);
  EXPECT_NEAR(est.latency_ns, 150.0e3, 1.0);
  EXPECT_EQ(est.bandwidth_mb_s, 0.0);  // unmeasured
  // Prediction falls back to the default bandwidth for the size term.
  const auto p = m.predict_ns(h, 0, 10000, 10 * kMs);
  ASSERT_TRUE(p.has_value());
  EXPECT_NEAR(*p, 150.0e3 + 10000.0 * 1.0e3 / m.params().default_mb_s, 1.0);
}

TEST(CostModel, LargePacketsFeedBandwidthOnceLatencyIsKnown) {
  adapt::CostModel m;
  const std::uint64_t h = method_hash("mpl");
  // Latency first (small packets), then large transfers at 200 MB/s:
  // oneway = latency + bytes/bw.
  for (int i = 0; i < 10; ++i) m.observe(h, 3, 64, 2500 * kUs, i * kMs);
  const std::uint64_t big = 1 << 16;
  const Time transfer = static_cast<Time>(big * 1.0e3 / 200.0);
  for (int i = 10; i < 20; ++i) {
    m.observe(h, 3, big, 2500 * kUs + transfer, i * kMs);
  }
  const auto est = m.estimate(h, 3, 20 * kMs);
  ASSERT_TRUE(est.known);
  EXPECT_NEAR(est.bandwidth_mb_s, 200.0, 10.0);
  const auto p = m.predict_ns(h, 3, big, 20 * kMs);
  ASSERT_TRUE(p.has_value());
  EXPECT_NEAR(*p, 2500.0e3 + big * 1.0e3 / est.bandwidth_mb_s, 1.0e3);
}

TEST(CostModel, ObserveRttRecordsHalfTheRoundTrip) {
  adapt::CostModel m;
  const std::uint64_t h = method_hash("rel+udp");
  for (int i = 0; i < 5; ++i) m.observe_rtt(h, 1, 100, 3 * kMs, i * kMs);
  const auto est = m.estimate(h, 1, 5 * kMs);
  ASSERT_TRUE(est.known);
  EXPECT_NEAR(est.latency_ns, 1.5e6, 1.0);
}

TEST(CostModel, StalenessDecaysEstimateBackToUnknown) {
  adapt::CostModelParams p;
  p.half_life = 100 * kMs;
  adapt::CostModel m(p);
  const std::uint64_t h = method_hash("tcp");
  for (int i = 0; i < 10; ++i) m.observe(h, 0, 64, 200 * kUs, i * kMs);
  EXPECT_TRUE(m.estimate(h, 0, 10 * kMs).known);
  // ~7 half-lives of silence: confidence < 1%, below min_confidence.
  EXPECT_FALSE(m.estimate(h, 0, 710 * kMs).known);
  EXPECT_FALSE(m.predict_ns(h, 0, 64, 710 * kMs).has_value());
  // One fresh sample revives it.
  m.observe(h, 0, 64, 210 * kUs, 710 * kMs);
  EXPECT_TRUE(m.estimate(h, 0, 710 * kMs).known);
}

TEST(CostModel, EchoSlotParksLatestAndEmptiesOnTake) {
  adapt::CostModel m;
  EXPECT_FALSE(m.take_echo(4).has_value());
  m.note_incoming(method_hash("tcp"), 4, 100, 1 * kMs);
  m.note_incoming(method_hash("mpl"), 4, 200, 2 * kMs);  // overwrites
  const auto e = m.take_echo(4);
  ASSERT_TRUE(e.has_value());
  EXPECT_EQ(e->method, method_hash("mpl"));
  EXPECT_EQ(e->bytes, 200u);
  EXPECT_EQ(e->oneway_ns, 2 * kMs);
  EXPECT_FALSE(m.take_echo(4).has_value());  // slot emptied
}

// ----------------------------------------------------------------------
// AdaptiveSelector policy tests: synthetic model feed inside a runtime.

/// Feed `n` latency samples for (method -> peer) into ctx's model, spaced
/// 1 ms apart ending at ctx.now().
void feed_latency(Context& ctx, const char* method, ContextId peer,
                  Time latency, int n = 12) {
  const std::uint64_t h = method_hash(method);
  for (int i = 0; i < n; ++i) {
    const Time t = ctx.now() - (n - 1 - i) * kMs;
    ctx.cost_model().observe(h, peer, 64, latency, t);
  }
}

/// Feed bandwidth samples (large packets at `mb_s`, on top of an existing
/// latency estimate).
void feed_bandwidth(Context& ctx, const char* method, ContextId peer,
                    double mb_s, int n = 12) {
  const std::uint64_t h = method_hash(method);
  const auto est = ctx.cost_model().estimate(h, peer, ctx.now());
  ASSERT_TRUE(est.known) << "feed latency before bandwidth";
  const std::uint64_t big = 1 << 16;
  const Time oneway = static_cast<Time>(est.latency_ns + big * 1.0e3 / mb_s);
  for (int i = 0; i < n; ++i) {
    const Time t = ctx.now() - (n - 1 - i) * kMs;
    ctx.cost_model().observe(h, peer, big, oneway, t);
  }
}

TEST(AdaptiveSelector, StaticTableOrderFallbackUntilModeled) {
  Runtime rt(sim_opts(simnet::Topology::single_partition(2)));
  rt.run([&](Context& ctx) {
    if (ctx.id() != 1) return;
    adapt::AdaptiveParams p;
    p.probe_interval = 0;  // no prober: pure policy test
    adapt::AdaptiveSelector sel(p);
    FirstApplicableSelector first;
    const DescriptorTable& table = ctx.runtime().table_of(0);
    std::string ra, rb;
    const auto a = sel.select(table, ctx, ra);
    const auto b = first.select(table, ctx, rb);
    ASSERT_TRUE(a.has_value());
    EXPECT_EQ(a, b);  // mirrors the paper's ordered scan until data exists
    EXPECT_NE(ra.find("static table-order fallback"), std::string::npos)
        << ra;
  });
}

TEST(AdaptiveSelector, CrossoverRoutesSmallAndLargePayloadsDifferently) {
  Runtime rt(sim_opts(simnet::Topology::single_partition(2)));
  rt.run([&](Context& ctx) {
    if (ctx.id() != 1) return;
    ctx.compute(100 * kMs);  // nonzero clock for sample timestamps
    // tcp: 150 us / 8 MB/s.  mpl: 2.5 ms / 200 MB/s.  Crossover ~20 KB.
    feed_latency(ctx, "tcp", 0, 150 * kUs);
    feed_bandwidth(ctx, "tcp", 0, 8.0);
    feed_latency(ctx, "mpl", 0, 2500 * kUs);
    feed_bandwidth(ctx, "mpl", 0, 200.0);

    adapt::AdaptiveParams p;
    p.probe_interval = 0;
    adapt::AdaptiveSelector sel(p);
    const DescriptorTable& table = ctx.runtime().table_of(0);
    std::string reason;
    const auto small = sel.select_sized(table, ctx, 64, reason);
    ASSERT_TRUE(small.has_value());
    EXPECT_EQ(table.at(*small).method, "tcp");
    EXPECT_NE(reason.find("crossover at"), std::string::npos) << reason;
    EXPECT_NE(reason.find("'tcp'"), std::string::npos) << reason;
    EXPECT_NE(reason.find("'mpl'"), std::string::npos) << reason;

    const auto large = sel.select_sized(table, ctx, 1 << 16, reason);
    ASSERT_TRUE(large.has_value());
    EXPECT_EQ(table.at(*large).method, "mpl");

    EXPECT_EQ(sel.dwell_state(0, "tcp"), "held-small");
    EXPECT_EQ(sel.dwell_state(0, "mpl"), "held-large");
  });
}

TEST(AdaptiveSelector, PeekIsSideEffectFree) {
  Runtime rt(sim_opts(simnet::Topology::single_partition(2)));
  rt.run([&](Context& ctx) {
    if (ctx.id() != 1) return;
    ctx.compute(100 * kMs);
    feed_latency(ctx, "tcp", 0, 150 * kUs);
    feed_latency(ctx, "mpl", 0, 2500 * kUs);
    adapt::AdaptiveSelector sel;  // default params: prober enabled
    const DescriptorTable& table = ctx.runtime().table_of(0);
    std::string reason;
    const auto p1 = sel.peek(table, ctx, reason);
    EXPECT_FALSE(reason.empty());  // peek always explains itself
    const auto p2 = sel.peek(table, ctx, reason);
    EXPECT_EQ(p1, p2);
    // No dwell state created, no probes fired, no switches counted.
    EXPECT_EQ(sel.dwell_state(0, "tcp"), "candidate");
    EXPECT_EQ(sel.probes(), 0u);
    EXPECT_EQ(sel.switches(), 0u);
    // And peek previews exactly what select() then decides.
    const auto s = sel.select(table, ctx, reason);
    EXPECT_EQ(p1, s);
  });
}

TEST(AdaptiveSelector, HysteresisHoldsIncumbentAgainstSmallImprovements) {
  Runtime rt(sim_opts(simnet::Topology::single_partition(2)));
  rt.run([&](Context& ctx) {
    if (ctx.id() != 1) return;
    ctx.compute(100 * kMs);
    adapt::AdaptiveParams p;
    p.probe_interval = 0;
    p.min_dwell = 1 * kMs;  // short dwell so the test drives re-evaluations
    adapt::AdaptiveSelector sel(p);
    const DescriptorTable& table = ctx.runtime().table_of(0);
    std::string reason;

    feed_latency(ctx, "mpl", 0, 1000 * kUs);
    auto idx = sel.select_sized(table, ctx, 64, reason);
    ASSERT_TRUE(idx.has_value());
    ASSERT_EQ(table.at(*idx).method, "mpl");

    // A 10% better challenger (< improve_frac 15%): the incumbent holds.
    feed_latency(ctx, "tcp", 0, 900 * kUs);
    ctx.compute(2 * kMs);  // past the dwell -> re-evaluates
    idx = sel.select_sized(table, ctx, 64, reason);
    ASSERT_TRUE(idx.has_value());
    EXPECT_EQ(table.at(*idx).method, "mpl");
    EXPECT_EQ(sel.switches(), 0u);

    // A 60% better challenger unseats it.
    feed_latency(ctx, "tcp", 0, 400 * kUs, 30);
    ctx.compute(2 * kMs);
    idx = sel.select_sized(table, ctx, 64, reason);
    ASSERT_TRUE(idx.has_value());
    EXPECT_EQ(table.at(*idx).method, "tcp");
    EXPECT_EQ(sel.switches(), 1u);
  });
}

// ----------------------------------------------------------------------
// Live table reranking.

TEST(AdaptEngine, RerankReordersLiveTableByModeledCost) {
  Runtime rt(sim_opts(simnet::Topology::single_partition(2)));
  rt.run([&](Context& ctx) {
    std::uint64_t done = 0;
    nexus::testing::register_counter(ctx, "noop", done);
    if (ctx.id() != 1) {
      ctx.wait_count(done, 1);
      return;
    }
    ctx.compute(100 * kMs);
    // Model says tcp beats mpl at the rerank reference size.
    feed_latency(ctx, "tcp", 0, 100 * kUs);
    feed_latency(ctx, "mpl", 0, 2000 * kUs);

    Startpoint sp = ctx.world_startpoint(0);
    ASSERT_EQ(sp.table().at(0).method, "local");  // static fastest-first
    EXPECT_TRUE(ctx.rerank(sp));
    // Modeled entries lead, measured-fastest first; unmodeled (local) sinks
    // to the back preserving relative order.
    EXPECT_EQ(sp.table().at(0).method, "tcp");
    EXPECT_EQ(sp.table().at(1).method, "mpl");
    EXPECT_EQ(sp.table().at(2).method, "local");
    // Idempotent: already in modeled order.
    EXPECT_FALSE(ctx.rerank(sp));
    // The default first-applicable policy now benefits from the new order.
    ctx.rsr(sp, "noop");
    EXPECT_EQ(sp.selected_method(), "tcp");
    // The rerank left an enquiry trail.
    bool logged = false;
    for (const auto& rec : ctx.selection_log()) {
      if (rec.reason.find("adapt.rerank") != std::string::npos) logged = true;
    }
    EXPECT_TRUE(logged);
  });
}

TEST(AdaptEngine, RerankIsANoOpWithoutModelData) {
  Runtime rt(sim_opts(simnet::Topology::single_partition(2)));
  rt.run([&](Context& ctx) {
    if (ctx.id() != 1) return;
    Startpoint sp = ctx.world_startpoint(0);
    const DescriptorTable before = sp.table();
    EXPECT_FALSE(ctx.rerank(sp));  // nothing modeled: tables untouched
    EXPECT_EQ(sp.table(), before);
  });
}

// ----------------------------------------------------------------------
// Passive measurement feeds.

TEST(AdaptEngine, ReliableLayerRttFeedsTheCostModel) {
  RuntimeOptions opts = sim_opts(simnet::Topology::single_partition(2),
                                 {"local", "rel+udp", "tcp"});
  opts.adaptive = true;
  opts.costs.udp_drop_prob = 0.0;
  Runtime rt(opts);
  rt.run([&](Context& ctx) {
    std::uint64_t done = 0;
    nexus::testing::register_counter(ctx, "noop", done);
    if (ctx.id() != 1) {
      ctx.wait_count(done, 5);
      return;
    }
    Startpoint sp = ctx.world_startpoint(0);
    for (int i = 0; i < 5; ++i) {
      ctx.rsr(sp, "noop");
      ctx.compute_with_polling(5 * kMs, 100 * kUs);  // let acks flow back
    }
    ASSERT_EQ(sp.selected_method(), "rel+udp");
    const auto est =
        ctx.cost_model().estimate(method_hash("rel+udp"), 0, ctx.now());
    EXPECT_TRUE(est.known) << "ack RTTs should have fed the model";
    EXPECT_GT(est.latency_ns, 0.0);
  });
}

TEST(AdaptEngine, TimingEchoFeedsSenderModelForRawMethods) {
  RuntimeOptions opts = sim_opts(simnet::Topology::single_partition(2));
  opts.adaptive = true;
  Runtime rt(opts);
  rt.run(std::vector<std::function<void(Context&)>>{
      [&](Context& ctx) {  // responder: pong each ping so echoes ride back
        std::uint64_t pings = 0;
        Startpoint back = ctx.world_startpoint(1);
        ctx.register_handler("ping",
                             [&](Context& c, Endpoint&, util::UnpackBuffer&) {
                               ++pings;
                               c.rsr(back, "pong");
                             });
        ctx.wait_count(pings, 5);
      },
      [&](Context& ctx) {  // driver
        std::uint64_t pongs = 0;
        nexus::testing::register_counter(ctx, "pong", pongs);
        Startpoint sp = ctx.world_startpoint(0);
        for (std::uint64_t i = 1; i <= 5; ++i) {
          ctx.rsr(sp, "ping");
          ctx.wait_count(pongs, i);
        }
        ASSERT_EQ(sp.selected_method(), "mpl");
        const auto est =
            ctx.cost_model().estimate(method_hash("mpl"), 0, ctx.now());
        EXPECT_TRUE(est.known)
            << "echoes on the pong traffic should have fed the model";
        // The sample is a real one-way time: at least the configured wire
        // latency, far below a round trip.
        EXPECT_GE(est.latency_ns,
                  static_cast<double>(ctx.costs().mpl_latency));
      }});
}

// ----------------------------------------------------------------------
// End-to-end two-method scenario (the subsystem's acceptance criteria).

struct ScenarioOutcome {
  int small_total = 0, small_on_tcp = 0;
  int large_total = 0, large_on_mpl = 0;
  std::uint64_t switches = 0;
  telemetry::SelectionReport report;
};

/// tcp = low latency / low bandwidth; mpl = high setup / high bandwidth.
RuntimeOptions two_method_opts() {
  RuntimeOptions opts = sim_opts(simnet::Topology::single_partition(2));
  opts.adaptive = true;
  // The crossover/hysteresis/switch-count assertions below depend on the
  // cost model learning the *configured* constants from timing echoes.
  opts.costs.tcp_latency = 150 * kUs;
  opts.costs.tcp_poll_cost = 20 * kUs;
  opts.costs.tcp_mb_s = 8.0;
  opts.costs.tcp_interference = 0;
  opts.costs.mpl_latency = 2500 * kUs;
  opts.costs.mpl_mb_s = 200.0;
  return opts;
}

/// Ping-pong workload alternating 64 B and 64 KB payloads; the pong reply
/// is what carries timing echoes back to the driver's cost model.
ScenarioOutcome run_two_method_scenario(RuntimeOptions opts, int warmup,
                                        int measure) {
  ScenarioOutcome out;
  const std::uint64_t total =
      static_cast<std::uint64_t>(warmup) + 2 * measure;
  Runtime rt(std::move(opts));
  rt.run(std::vector<std::function<void(Context&)>>{
      [&](Context& ctx) {  // responder
        std::uint64_t pings = 0;
        Startpoint back = ctx.world_startpoint(1);
        ctx.register_handler("ping",
                             [&](Context& c, Endpoint&, util::UnpackBuffer&) {
                               ++pings;
                               c.rsr(back, "pong");
                             });
        ctx.wait_count(pings, total);
      },
      [&](Context& ctx) {  // driver
        std::uint64_t pongs = 0;
        nexus::testing::register_counter(ctx, "pong", pongs);
        auto owned = std::make_unique<adapt::AdaptiveSelector>();
        adapt::AdaptiveSelector* sel = owned.get();
        ctx.set_selector(std::move(owned));
        Startpoint sp = ctx.world_startpoint(0);
        const util::Bytes small_b(64, 0x11);
        const util::Bytes large_b(1 << 16, 0x22);
        std::uint64_t sent = 0;
        auto ping = [&](bool large) {
          ctx.rsr(sp, "ping",
                  util::SharedBytes::copy_of(large ? large_b : small_b));
          ++sent;
          const std::string& m = sp.selected_method();
          if (sent > static_cast<std::uint64_t>(warmup)) {
            if (large) {
              ++out.large_total;
              out.large_on_mpl += (m == "mpl");
            } else {
              ++out.small_total;
              out.small_on_tcp += (m == "tcp");
            }
          }
          ctx.wait_count(pongs, sent);
        };
        for (std::uint64_t i = 0; i < total; ++i) ping(i % 2 == 1);
        out.switches = sel->switches();
        out.report = ctx.explain_selection(sp);
      }});
  return out;
}

TEST(AdaptEngine, RoutesSmallToLatencyWinnerAndLargeToBandwidthWinner) {
  const ScenarioOutcome out =
      run_two_method_scenario(two_method_opts(), /*warmup=*/40,
                              /*measure=*/50);
  ASSERT_EQ(out.small_total, 50);
  ASSERT_EQ(out.large_total, 50);
  // Acceptance: >=90% of each class on its modeled-optimal method.
  EXPECT_GE(out.small_on_tcp, 45)
      << "small RSRs on the latency-optimal method: " << out.small_on_tcp
      << "/50";
  EXPECT_GE(out.large_on_mpl, 45)
      << "large RSRs on the bandwidth-optimal method: " << out.large_on_mpl
      << "/50";
}

TEST(AdaptEngine, ExplainSelectionShowsModelRowsAndNamesTheCrossover) {
  const ScenarioOutcome out =
      run_two_method_scenario(two_method_opts(), /*warmup=*/40,
                              /*measure=*/20);
  ASSERT_EQ(out.report.selector, "adaptive");
  ASSERT_EQ(out.report.links.size(), 1u);
  const telemetry::LinkReport& lr = out.report.links[0];
  // The reason names the crossover decision and both class winners.
  EXPECT_NE(lr.reason.find("crossover at"), std::string::npos) << lr.reason;
  EXPECT_NE(lr.reason.find("'tcp'"), std::string::npos) << lr.reason;
  EXPECT_NE(lr.reason.find("'mpl'"), std::string::npos) << lr.reason;
  // Every candidate carries a modeled-cost row; the two live methods are
  // known with their dwell states, the inapplicable one reports no data.
  ASSERT_GE(lr.candidates.size(), 3u);
  for (const auto& c : lr.candidates) {
    ASSERT_TRUE(c.model.has_value()) << c.method;
    if (c.method == "tcp") {
      EXPECT_TRUE(c.model->known);
      EXPECT_GT(c.model->confidence, 0.5);
      // Measured one-way: wire latency plus software overheads and polling
      // delay -- anywhere near the configured 150 us, far below mpl's 2.5 ms.
      EXPECT_GT(c.model->latency_us, 50.0);
      EXPECT_LT(c.model->latency_us, 1500.0);
      EXPECT_EQ(c.model->dwell, "held-small");
    } else if (c.method == "mpl") {
      EXPECT_TRUE(c.model->known);
      EXPECT_EQ(c.model->dwell, "held-large");
    } else if (c.method == "local") {
      EXPECT_FALSE(c.model->known);
      EXPECT_EQ(c.model->dwell, "candidate");
    }
  }
  // The rendered report includes the model rows.
  const std::string text = out.report.to_text();
  EXPECT_NE(text.find("model:"), std::string::npos) << text;
  const std::string json = out.report.to_json();
  EXPECT_NE(json.find("\"model\""), std::string::npos);
}

TEST(AdaptEngine, SwitchesStayBoundedUnderInjectedDelayNoise) {
  // Noisy fabric: tcp latency jitters by injected delay windows.  With the
  // modeled gap between the methods far wider than the noise, hysteresis
  // must keep the per-class decisions stable (a handful of warm-up
  // switches, no flapping).
  RuntimeOptions opts = two_method_opts();
  opts.seed = nexus::testing::test_seed();
  for (int i = 0; i < 10; ++i) {
    const Time from = (30 + 60 * i) * kMs;
    opts.faults.delay("tcp", (i % 2 ? 300 : 80) * kUs, from, from + 30 * kMs);
  }
  const ScenarioOutcome out =
      run_two_method_scenario(std::move(opts), /*warmup=*/40, /*measure=*/60);
  // One warm-up switch per class is expected (static fallback -> modeled
  // winner); noise must not push the count past a small constant.
  EXPECT_LE(out.switches, 6u) << "selector flapped under delay noise";
  EXPECT_GE(out.small_on_tcp, 54);  // decisions stayed latency/bandwidth-
  EXPECT_GE(out.large_on_mpl, 54);  // optimal despite the jitter
}

}  // namespace
