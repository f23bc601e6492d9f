// Observability subsystem: span tracer, metrics registry, Chrome trace
// export, and the selection-explanation enquiry.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "nexus/runtime.hpp"
#include "nexus/telemetry/export.hpp"
#include "nexus/telemetry/stitch.hpp"
#include "nexus/telemetry/telemetry.hpp"
#include "proto/methods.hpp"

namespace {

using namespace nexus;
using telemetry::CandidateStatus;
using telemetry::Event;
using telemetry::Histogram;
using telemetry::Phase;
using telemetry::Tracer;

// --------------------------------------------------------------- helpers ---

/// Minimal structural JSON check: balanced containers, quotes terminated,
/// escapes legal.  Not a full parser, but catches truncation, stray commas
/// in container endings, and unescaped quotes.
bool json_well_formed(const std::string& s) {
  std::vector<char> stack;
  bool in_string = false;
  for (std::size_t i = 0; i < s.size(); ++i) {
    const char c = s[i];
    if (in_string) {
      if (c == '\\') {
        ++i;  // skip the escaped character
        if (i >= s.size()) return false;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    switch (c) {
      case '"': in_string = true; break;
      case '{': stack.push_back('}'); break;
      case '[': stack.push_back(']'); break;
      case '}':
      case ']':
        if (stack.empty() || stack.back() != c) return false;
        stack.pop_back();
        break;
      default: break;
    }
  }
  return !in_string && stack.empty();
}

/// Split the top-level objects of a JSON array body (crude brace matcher;
/// good enough for the tracer's own output, which never nests strings with
/// braces).
std::vector<std::string> array_objects(const std::string& json,
                                       const std::string& array_key) {
  std::vector<std::string> out;
  const auto start = json.find("\"" + array_key + "\":[");
  if (start == std::string::npos) return out;
  std::size_t i = json.find('[', start) + 1;
  int depth = 0;
  std::size_t obj_start = 0;
  bool in_string = false;
  for (; i < json.size(); ++i) {
    const char c = json[i];
    if (in_string) {
      if (c == '\\') ++i;
      else if (c == '"') in_string = false;
      continue;
    }
    if (c == '"') in_string = true;
    else if (c == '{') {
      if (depth == 0) obj_start = i;
      ++depth;
    } else if (c == '}') {
      --depth;
      if (depth == 0) out.push_back(json.substr(obj_start, i - obj_start + 1));
    } else if (c == ']' && depth == 0) {
      break;
    }
  }
  return out;
}

/// Run a one-shot RSR from context 1 to context 0 over the simulated
/// fabric and return the runtime for inspection.
std::unique_ptr<Runtime> run_one_rsr(bool tracing, bool metrics = true) {
  RuntimeOptions opts;
  opts.topology = simnet::Topology::single_partition(2);
  opts.modules = {"local", "mpl", "tcp"};
  opts.tracing = tracing;
  opts.metrics = metrics;
  auto rt = std::make_unique<Runtime>(opts);
  rt->run([&](Context& ctx) {
    std::uint64_t done = 0;
    ctx.register_handler("ev", [&](Context& c, Endpoint&,
                                   util::UnpackBuffer&) {
      c.compute(500);  // give the handler measurable (virtual) duration
      ++done;
    });
    if (ctx.id() == 1) {
      Startpoint sp = ctx.world_startpoint(0);
      ctx.rsr(sp, "ev");
    } else {
      ctx.wait_count(done, 1);
    }
  });
  return rt;
}

// ------------------------------------------------------------- histogram ---

TEST(Histogram, BucketBoundaries) {
  EXPECT_EQ(Histogram::bucket_index(0), 0);
  EXPECT_EQ(Histogram::bucket_index(1), 1);
  EXPECT_EQ(Histogram::bucket_index(2), 2);
  EXPECT_EQ(Histogram::bucket_index(3), 2);
  EXPECT_EQ(Histogram::bucket_index(4), 3);
  EXPECT_EQ(Histogram::bucket_index(~std::uint64_t{0}), 64);
  // floor/ceil are exactly the bucket edges, and both map back to i.
  for (int i = 0; i < Histogram::kBuckets; ++i) {
    EXPECT_EQ(Histogram::bucket_index(Histogram::bucket_floor(i)), i);
    EXPECT_EQ(Histogram::bucket_index(Histogram::bucket_ceil(i)), i);
  }
  // Adjacent buckets tile the value range with no gap or overlap.
  for (int i = 1; i < Histogram::kBuckets - 1; ++i) {
    EXPECT_EQ(Histogram::bucket_ceil(i) + 1, Histogram::bucket_floor(i + 1));
  }
}

TEST(Histogram, AddCountsAndPercentiles) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.percentile(50), 0.0);  // empty: defined as 0
  for (std::uint64_t v = 1; v <= 100; ++v) h.add(v);
  EXPECT_EQ(h.count(), 100u);
  EXPECT_EQ(h.min(), 1u);
  EXPECT_EQ(h.max(), 100u);
  EXPECT_DOUBLE_EQ(h.mean(), 50.5);
  EXPECT_DOUBLE_EQ(h.percentile(0), 1.0);
  EXPECT_DOUBLE_EQ(h.percentile(100), 100.0);
  // Log-bucketed: p50 is approximate, but must stay within the bucket
  // holding the true median.
  EXPECT_GE(h.percentile(50), 32.0);
  EXPECT_LE(h.percentile(50), 64.0);
  // Zero lands in its own bucket.
  Histogram z;
  z.add(0);
  EXPECT_EQ(z.bucket_count(0), 1u);
  EXPECT_DOUBLE_EQ(z.percentile(50), 0.0);
}

TEST(Histogram, MergeAccumulates) {
  Histogram a, b;
  a.add(10);
  b.add(1000);
  b.add(3);
  a.merge(b);
  EXPECT_EQ(a.count(), 3u);
  EXPECT_EQ(a.min(), 3u);
  EXPECT_EQ(a.max(), 1000u);
  EXPECT_EQ(a.sum(), 1013u);
}

// ---------------------------------------------------------------- tracer ---

TEST(TracerUnit, DisabledByDefault) {
  Tracer tr;
  EXPECT_FALSE(tr.enabled());
  tr.record_custom(1, 0, "marker");  // no-ops while disabled
  EXPECT_EQ(tr.recorded(), 0u);
}

TEST(TracerUnit, RingIsBoundedAndCountsDrops) {
  Tracer tr(8);
  tr.enable();
  for (std::uint64_t i = 0; i < 20; ++i) {
    tr.record(Event{static_cast<telemetry::Time>(i), i + 1, 0, Phase::Custom,
                    0, 0, 0});
  }
  EXPECT_EQ(tr.recorded(), 20u);
  EXPECT_EQ(tr.dropped(), 12u);
  const auto evs = tr.events();
  ASSERT_EQ(evs.size(), 8u);
  // Oldest events were overwritten; the snapshot is the newest 8, in order.
  EXPECT_EQ(evs.front().span, 13u);
  EXPECT_EQ(evs.back().span, 20u);
  tr.clear();
  EXPECT_EQ(tr.recorded(), 0u);
  EXPECT_TRUE(tr.events().empty());
}

TEST(TracerUnit, InternReturnsStableIds) {
  Tracer tr;
  const auto a = tr.intern("mpl");
  const auto b = tr.intern("tcp");
  EXPECT_NE(a, b);
  EXPECT_EQ(tr.intern("mpl"), a);
  EXPECT_EQ(tr.label_name(a), "mpl");
  EXPECT_EQ(tr.label_name(b), "tcp");
  EXPECT_EQ(tr.label_name(999), "?");
}

// ------------------------------------------------- runtime instrumentation ---

TEST(Telemetry, SpanLinksSendAndDispatchAcrossContexts) {
  auto rt = run_one_rsr(/*tracing=*/true);
  const auto evs = rt->telemetry().tracer().events();
  const Event* send = nullptr;
  const Event* dispatch = nullptr;
  const Event* enqueue = nullptr;
  const Event* poll_hit = nullptr;
  const Event* handler_done = nullptr;
  for (const Event& ev : evs) {
    if (ev.phase == Phase::Send) send = &ev;
    if (ev.phase == Phase::Dispatch) dispatch = &ev;
    if (ev.phase == Phase::Enqueue) enqueue = &ev;
    if (ev.phase == Phase::PollHit) poll_hit = &ev;
    if (ev.phase == Phase::HandlerDone) handler_done = &ev;
  }
  ASSERT_NE(send, nullptr);
  ASSERT_NE(dispatch, nullptr);
  ASSERT_NE(enqueue, nullptr);
  ASSERT_NE(poll_hit, nullptr);
  ASSERT_NE(handler_done, nullptr);
  // One span ties the whole lifecycle together, across two contexts.
  EXPECT_NE(send->span, 0u);
  EXPECT_EQ(send->context, 1u);
  EXPECT_EQ(dispatch->context, 0u);
  EXPECT_EQ(send->span, dispatch->span);
  EXPECT_EQ(send->span, enqueue->span);
  EXPECT_EQ(send->span, poll_hit->span);
  EXPECT_EQ(send->span, handler_done->span);
  EXPECT_GE(dispatch->when, send->when);
  // The send names the method; the dispatch names the handler.
  EXPECT_EQ(rt->telemetry().tracer().label_name(send->label), "mpl");
  EXPECT_EQ(rt->telemetry().tracer().label_name(dispatch->label), "ev");
  // The text timeline renders every phase.
  const std::string timeline = rt->telemetry().tracer().text_timeline();
  EXPECT_NE(timeline.find("send mpl"), std::string::npos);
  EXPECT_NE(timeline.find("dispatch ev"), std::string::npos);
}

TEST(Telemetry, TracingOffByDefaultRecordsNothing) {
  auto rt = run_one_rsr(/*tracing=*/false);
  EXPECT_EQ(rt->telemetry().tracer().recorded(), 0u);
  // Counters still run: they are the seed's enquiry data.
  const auto snap = rt->telemetry().metrics().snapshot();
  const auto* mpl = snap.find_method(1, "mpl");
  ASSERT_NE(mpl, nullptr);
  EXPECT_GE(mpl->counters.sends, 1u);
}

TEST(Telemetry, ChromeTraceFileLinksOneRsrAcrossTwoContexts) {
  auto rt = run_one_rsr(/*tracing=*/true);
  const std::string path = testing::TempDir() + "nexus_trace.json";
  rt->write_chrome_trace(path);

  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good());
  std::stringstream ss;
  ss << in.rdbuf();
  const std::string json = ss.str();
  std::remove(path.c_str());

  ASSERT_TRUE(json_well_formed(json));
  ASSERT_NE(json.find("\"traceEvents\":["), std::string::npos);

  const auto objects = array_objects(json, "traceEvents");
  ASSERT_FALSE(objects.empty());
  // The RSR's span becomes an async begin on the sending context and an
  // async end on the receiving context, matched by the same id.
  std::string begin_id, end_id;
  for (const std::string& obj : objects) {
    const bool is_begin = obj.find("\"ph\":\"b\"") != std::string::npos;
    const bool is_end = obj.find("\"ph\":\"e\"") != std::string::npos;
    if (!is_begin && !is_end) continue;
    const auto id_pos = obj.find("\"id\":");
    ASSERT_NE(id_pos, std::string::npos);
    const auto id_end = obj.find(',', id_pos);
    const std::string id = obj.substr(id_pos + 5, id_end - id_pos - 5);
    if (is_begin) {
      begin_id = id;
      EXPECT_NE(obj.find("\"pid\":1"), std::string::npos);  // sender
      EXPECT_NE(obj.find("\"cat\":\"rsr\""), std::string::npos);
    } else {
      end_id = id;
      EXPECT_NE(obj.find("\"pid\":0"), std::string::npos);  // receiver
      EXPECT_NE(obj.find("\"cat\":\"rsr\""), std::string::npos);
    }
  }
  ASSERT_FALSE(begin_id.empty());
  ASSERT_FALSE(end_id.empty());
  EXPECT_EQ(begin_id, end_id);
}

TEST(Telemetry, MetricsRegistryHistogramsAndJson) {
  auto rt = run_one_rsr(/*tracing=*/false);
  const auto snap = rt->telemetry().metrics().snapshot();

  const auto* mpl = snap.find_method(1, "mpl");
  ASSERT_NE(mpl, nullptr);
  EXPECT_GE(mpl->counters.sends, 1u);
  EXPECT_GE(mpl->send_bytes.count(), 1u);
  const auto* mpl_rx = snap.find_method(0, "mpl");
  ASSERT_NE(mpl_rx, nullptr);
  EXPECT_GE(mpl_rx->recv_bytes.count(), 1u);

  const auto* ctx0 = snap.find_context(0);
  ASSERT_NE(ctx0, nullptr);
  EXPECT_GE(ctx0->rsr_oneway_ns.count(), 1u);
  EXPECT_GT(ctx0->rsr_oneway_ns.max(), 0u);
  EXPECT_GE(ctx0->handler_ns.count(), 1u);
  EXPECT_GE(ctx0->handler_ns.max(), 500u);  // the handler computes 500 ns
  EXPECT_GE(ctx0->poll_batch.count(), 1u);

  const std::string json = rt->telemetry().metrics().to_json();
  EXPECT_TRUE(json_well_formed(json));
  EXPECT_NE(json.find("\"method\":\"mpl\""), std::string::npos);
  const std::string text = rt->telemetry().metrics().to_text();
  EXPECT_NE(text.find("rsr_oneway_ns"), std::string::npos);

  // Disabling metrics suppresses histograms but not counters.
  auto rt2 = run_one_rsr(/*tracing=*/false, /*metrics=*/false);
  const auto snap2 = rt2->telemetry().metrics().snapshot();
  const auto* c2 = snap2.find_context(0);
  if (c2 != nullptr) {
    EXPECT_EQ(c2->rsr_oneway_ns.count(), 0u);
  }
  const auto* m2 = snap2.find_method(1, "mpl");
  ASSERT_NE(m2, nullptr);
  EXPECT_GE(m2->counters.sends, 1u);
  EXPECT_EQ(m2->send_bytes.count(), 0u);
}

TEST(Telemetry, PollIntervalsAreSampled) {
  RuntimeOptions opts;
  opts.topology = simnet::Topology::single_partition(2);
  opts.modules = {"local", "mpl"};
  Runtime rt(opts);
  rt.run([&](Context& ctx) {
    // Plenty of iterations so the stride-16 sampler fires repeatedly.
    for (int i = 0; i < 20 * 16; ++i) ctx.progress();
  });
  const auto snap = rt.telemetry().metrics().snapshot();
  const auto* cm = snap.find_context(0);
  ASSERT_NE(cm, nullptr);
  EXPECT_GE(cm->poll_interval_ns.count(), 10u);
}

// ----------------------------------------------------- explain_selection ---

TEST(ExplainSelection, FastestFirstNamesWinnerAndRejections) {
  RuntimeOptions opts;
  opts.topology = simnet::Topology::single_partition(2);
  opts.modules = {"local", "mpl", "tcp"};
  Runtime rt(opts);
  telemetry::SelectionReport rep;
  rt.run([&](Context& ctx) {
    if (ctx.id() != 1) return;
    Startpoint sp = ctx.world_startpoint(0);
    rep = ctx.explain_selection(sp);
  });
  EXPECT_EQ(rep.selector, "first-applicable");
  ASSERT_EQ(rep.links.size(), 1u);
  const auto& link = rep.links[0];
  EXPECT_EQ(link.target, 0u);
  EXPECT_EQ(link.winner, "mpl");
  EXPECT_FALSE(link.forced);
  EXPECT_FALSE(link.forward_via.has_value());
  ASSERT_EQ(link.candidates.size(), 3u);  // fastest-first: local, mpl, tcp
  EXPECT_EQ(link.candidates[0].method, "local");
  EXPECT_EQ(link.candidates[0].status, CandidateStatus::NotApplicable);
  EXPECT_EQ(link.candidates[1].method, "mpl");
  EXPECT_EQ(link.candidates[1].status, CandidateStatus::Won);
  EXPECT_EQ(link.candidates[2].method, "tcp");
  EXPECT_EQ(link.candidates[2].status, CandidateStatus::RankedBehind);
  // Machine- and human-readable renderings agree on the winner.
  EXPECT_TRUE(json_well_formed(rep.to_json()));
  EXPECT_NE(rep.to_json().find("\"winner\":\"mpl\""), std::string::npos);
  EXPECT_NE(rep.to_text().find("mpl"), std::string::npos);
}

TEST(ExplainSelection, ForcedMethodOverridesThePolicy) {
  RuntimeOptions opts;
  opts.topology = simnet::Topology::single_partition(2);
  opts.modules = {"local", "mpl", "tcp"};
  Runtime rt(opts);
  telemetry::SelectionReport rep;
  rt.run([&](Context& ctx) {
    if (ctx.id() != 1) return;
    Startpoint sp = ctx.world_startpoint(0);
    sp.force_method("tcp");
    rep = ctx.explain_selection(sp);
  });
  ASSERT_EQ(rep.links.size(), 1u);
  const auto& link = rep.links[0];
  EXPECT_TRUE(link.forced);
  EXPECT_EQ(link.winner, "tcp");
  EXPECT_EQ(link.reason, "forced by application");
  for (const auto& c : link.candidates) {
    if (c.method == "tcp") {
      EXPECT_EQ(c.status, CandidateStatus::Won);
    } else {
      EXPECT_EQ(c.status, CandidateStatus::NotForced);
    }
  }
}

TEST(ExplainSelection, ForwardingRelayIsReported) {
  RuntimeOptions opts;
  opts.topology = simnet::Topology::two_partitions(2, 2);
  opts.forwarders[1] = 2;
  Runtime rt(opts);
  telemetry::SelectionReport rep;
  rt.run([&](Context& ctx) {
    if (ctx.id() != 0) return;
    Startpoint sp = ctx.world_startpoint(3);
    rep = ctx.explain_selection(sp);
  });
  ASSERT_EQ(rep.links.size(), 1u);
  const auto& link = rep.links[0];
  EXPECT_EQ(link.target, 3u);
  EXPECT_EQ(link.winner, "tcp");  // mpl cannot cross partitions
  ASSERT_TRUE(link.forward_via.has_value());
  EXPECT_EQ(*link.forward_via, 2u);  // packets land on partition 1's relay
  EXPECT_NE(rep.to_text().find("[forwarded via context 2]"),
            std::string::npos);
}

TEST(ExplainSelection, UnreliableMethodsReportedAsFallback) {
  RuntimeOptions opts;
  opts.topology = simnet::Topology::single_partition(2);
  opts.modules = {"mpl", "udp"};
  Runtime rt(opts);
  telemetry::SelectionReport rep;
  rt.run([&](Context& ctx) {
    if (ctx.id() != 1) return;
    Startpoint sp = ctx.world_startpoint(0);
    rep = ctx.explain_selection(sp);
  });
  ASSERT_EQ(rep.links.size(), 1u);
  EXPECT_EQ(rep.links[0].winner, "mpl");
  bool saw_udp = false;
  for (const auto& c : rep.links[0].candidates) {
    if (c.method == "udp") {
      saw_udp = true;
      EXPECT_EQ(c.status, CandidateStatus::UnreliableFallback);
    }
  }
  EXPECT_TRUE(saw_udp);
}

// --------------------------------------------------------- causal tracing ---

TEST(TracerUnit, SpanAndTraceIdsAreNonzeroAndMonotonic) {
  Tracer tr;
  const auto s1 = tr.next_span();
  const auto s2 = tr.next_span();
  const auto t1 = tr.next_trace();
  const auto t2 = tr.next_trace();
  EXPECT_NE(s1, 0u);
  EXPECT_NE(t1, 0u);
  EXPECT_LT(s1, s2);
  EXPECT_LT(t1, t2);
}

TEST(TracerUnit, ChromeJsonReportsRingOverflowDrops) {
  Tracer tr(8);
  tr.enable();
  for (std::uint64_t i = 0; i < 20; ++i) {
    tr.record(Event{static_cast<telemetry::Time>(i), i + 1, 0, Phase::Custom,
                    0, 0, 0});
  }
  const std::string json = tr.chrome_json();
  ASSERT_TRUE(json_well_formed(json));
  EXPECT_NE(json.find("\"trace_recorded\":20"), std::string::npos);
  EXPECT_NE(json.find("\"trace_dropped\":12"), std::string::npos);
}

// --------------------------------------------------------- flight recorder ---

TEST(FlightRecorderUnit, RingRetainsNewestAndCountsDrops) {
  telemetry::FlightRecorder fr(10);
  EXPECT_TRUE(fr.enabled());  // always on by default
  EXPECT_EQ(fr.capacity(), 16u);  // rounded up to a power of two
  for (std::uint64_t i = 0; i < 25; ++i) {
    fr.record(Event{static_cast<telemetry::Time>(i), i + 1, 0, Phase::Custom,
                    0, 0, 0});
  }
  EXPECT_EQ(fr.recorded(), 25u);
  EXPECT_EQ(fr.dropped(), 9u);
  const auto evs = fr.events();
  ASSERT_EQ(evs.size(), 16u);
  EXPECT_EQ(evs.front().span, 10u);  // oldest retained
  EXPECT_EQ(evs.back().span, 25u);   // newest
  fr.clear();
  EXPECT_EQ(fr.recorded(), 0u);
  EXPECT_TRUE(fr.events().empty());
}

TEST(FlightRecorderUnit, CapacityClampsToMinimumEight) {
  telemetry::FlightRecorder fr(1);
  EXPECT_EQ(fr.capacity(), 8u);
}

// ----------------------------------------------------------- trace stitch ---

TEST(StitchUnit, PhaseNamesRoundTrip) {
  using telemetry::phase_from_name;
  EXPECT_EQ(phase_from_name("send"), Phase::Send);
  EXPECT_EQ(phase_from_name("forward"), Phase::Forward);
  EXPECT_EQ(phase_from_name("retransmit"), Phase::Retransmit);
  EXPECT_EQ(phase_from_name("failover"), Phase::Failover);
  EXPECT_EQ(phase_from_name("no-such-phase"), Phase::Custom);
}

TEST(StitchUnit, RebuildsSpanTreeFromForwardEvents) {
  // Synthetic two-hop trace: root span 5 at context 0, Forward at context 2
  // opens child span 6, Dispatch at context 3 under span 6.
  std::vector<Event> evs;
  evs.push_back(Event{10, 5, 0, Phase::Send, 0, 64, 3, 0, 42});
  evs.push_back(Event{20, 6, 2, Phase::Forward, 0, 64, 3, 5, 42});
  evs.push_back(Event{30, 6, 3, Phase::Dispatch, 1, 64, 0, 0, 42});
  // A second, unrelated single-span trace.
  evs.push_back(Event{15, 9, 1, Phase::Send, 0, 8, 0, 0, 43});

  telemetry::TraceStitcher st;
  st.add_events(evs, {"mpl", "sink"});
  EXPECT_EQ(st.event_count(), 4u);
  const auto traces = st.traces();
  ASSERT_EQ(traces.size(), 2u);
  EXPECT_EQ(traces[0], 42u);
  EXPECT_EQ(traces[1], 43u);

  const auto spans = st.spans(42);
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].id, 5u);        // root first
  EXPECT_EQ(spans[0].parent, 0u);
  EXPECT_EQ(spans[0].context, 0u);
  EXPECT_EQ(spans[1].id, 6u);
  EXPECT_EQ(spans[1].parent, 5u);    // parent link from the Forward event
  EXPECT_EQ(spans[1].context, 2u);
  EXPECT_EQ(spans[1].events, 2u);    // Forward + Dispatch

  const std::string json = st.chrome_json();
  ASSERT_TRUE(json_well_formed(json));
  EXPECT_NE(json.find("\"stitched\":true"), std::string::npos);
}

// ---------------------------------------------------------- metrics export ---

TEST(MetricsText, HistogramRowsCarryPercentileColumns) {
  auto rt = run_one_rsr(/*tracing=*/false);
  const std::string text = rt->telemetry().metrics().to_text();
  EXPECT_NE(text.find(" p50="), std::string::npos);
  EXPECT_NE(text.find(" p90="), std::string::npos);
  EXPECT_NE(text.find(" p99="), std::string::npos);
  EXPECT_NE(text.find(" p999="), std::string::npos);
}

TEST(MetricsText, EmptyHistogramsAreOmittedNotRendered) {
  telemetry::MetricsRegistry reg;
  const std::string text = reg.to_text();
  EXPECT_EQ(text.find("p50="), std::string::npos);
}

TEST(MetricsText, PrometheusExpositionHasTypesAndInfBucket) {
  auto rt = run_one_rsr(/*tracing=*/false);
  const std::string prom = rt->telemetry().metrics().to_prometheus();
  EXPECT_NE(prom.find("# TYPE nexus_sends_total counter"), std::string::npos);
  EXPECT_NE(prom.find("# TYPE nexus_rsr_oneway_ns histogram"),
            std::string::npos);
  EXPECT_NE(prom.find("le=\"+Inf\""), std::string::npos);
  EXPECT_NE(prom.find("nexus_sends_total{context=\"1\",method=\"mpl\"}"),
            std::string::npos);

  // Every row of the context and method tables reaches the exposition as a
  // # TYPE line plus a sample line, so no counter can go missing from one
  // exporter while the others carry it.
  telemetry::MetricsRegistry reg;
  reg.context(0).failovers = 1;
  util::MethodCounters& rel = reg.method(0, "rel+udp").counters;
  rel.rel_acks_sent = 7;
  rel.rel_acks_received = 5;
  const std::string bare = reg.to_prometheus();
  auto expect_family = [&](std::string_view family, std::string_view type,
                           std::string_view sample) {
    EXPECT_NE(bare.find("# TYPE " + std::string(family) + " " +
                        std::string(type) + "\n"),
              std::string::npos)
        << family;
    EXPECT_NE(bare.find("\n" + std::string(family) + std::string(sample)),
              std::string::npos)
        << family;
  };
  for (const auto& row : telemetry::kContextRows) {
    if (row.counter != nullptr) {
      expect_family(row.prom, "counter", "{context=\"0\"} ");
    } else {
      expect_family(row.prom, "histogram", "_bucket{context=\"0\",le=");
    }
  }
  const std::string method_labels = "{context=\"0\",method=\"rel+udp\"";
  for (const auto& row : util::kMethodCounterRows) {
    expect_family(row.prom, "counter", method_labels + "} ");
  }
  for (const auto& row : telemetry::kMethodHistRows) {
    expect_family(row.prom, "histogram", "_bucket" + method_labels + ",le=");
  }
  EXPECT_NE(bare.find("# TYPE nexus_rel_acks_sent_total counter\n"),
            std::string::npos);
  EXPECT_NE(bare.find("# TYPE nexus_rel_acks_received_total counter\n"),
            std::string::npos);
  EXPECT_NE(bare.find("\nnexus_rel_acks_sent_total" + method_labels + "} 7\n"),
            std::string::npos);
  EXPECT_NE(
      bare.find("\nnexus_rel_acks_received_total" + method_labels + "} 5\n"),
      std::string::npos);
}

TEST(MetricsExporterUnit, WritesOneWellFormedJsonLinePerSample) {
  const std::string jsonl = testing::TempDir() + "nexus_export_unit.jsonl";
  const std::string prom = testing::TempDir() + "nexus_export_unit.prom";
  std::remove(jsonl.c_str());
  {
    telemetry::Telemetry tele;
    tele.metrics().context(0).failovers += 3;
    telemetry::MetricsExporter::Options eopts;
    eopts.jsonl_path = jsonl;
    eopts.prom_path = prom;
    eopts.interval = 1000;
    telemetry::MetricsExporter ex(&tele, eopts);
    ASSERT_TRUE(ex.active());
    ex.add_provider("answer", [] { return std::string("{\"n\":42}"); });
    ex.maybe_sample(10);  // first call is always due
    ex.maybe_sample(500);  // inside the interval: a no-op
    EXPECT_EQ(ex.samples_taken(), 1u);
    ex.maybe_sample(2000);  // past the deadline: fires again
    EXPECT_EQ(ex.samples_taken(), 2u);
  }
  std::ifstream in(jsonl);
  ASSERT_TRUE(in.good());
  std::string line;
  int lines = 0;
  while (std::getline(in, line)) {
    ++lines;
    EXPECT_TRUE(json_well_formed(line)) << line;
    EXPECT_NE(line.find("\"trace_dropped\":"), std::string::npos);
    EXPECT_NE(line.find("\"answer\":{\"n\":42}"), std::string::npos);
  }
  EXPECT_EQ(lines, 2);
  std::ifstream pin(prom);
  ASSERT_TRUE(pin.good());
  std::stringstream ps;
  ps << pin.rdbuf();
  EXPECT_NE(ps.str().find("nexus_failovers_total{context=\"0\"} 3"),
            std::string::npos);
  std::remove(jsonl.c_str());
  std::remove(prom.c_str());
}

TEST(MetricsExporterUnit, RuntimeExportsHealthAndCostModelProviders) {
  const std::string jsonl = testing::TempDir() + "nexus_export_rt.jsonl";
  std::remove(jsonl.c_str());
  {
    RuntimeOptions opts;
    opts.topology = simnet::Topology::single_partition(2);
    opts.modules = {"local", "mpl", "tcp"};
    opts.export_jsonl = jsonl;
    Runtime rt(opts);
    rt.run([&](Context& ctx) {
      std::uint64_t done = 0;
      ctx.register_handler("ev",
                           [&](Context&, Endpoint&, util::UnpackBuffer&) {
                             ++done;
                           });
      if (ctx.id() == 1) {
        Startpoint sp = ctx.world_startpoint(0);
        ctx.rsr(sp, "ev");
      } else {
        ctx.wait_count(done, 1);
      }
    });
    // The runtime takes a final sample at shutdown, so even a short run
    // leaves at least one line.
    ASSERT_GE(rt.exporter()->samples_taken(), 1u);
  }
  std::ifstream in(jsonl);
  ASSERT_TRUE(in.good());
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_TRUE(json_well_formed(line)) << line;
  EXPECT_NE(line.find("\"health\":"), std::string::npos);
  EXPECT_NE(line.find("\"cost_model\":"), std::string::npos);
  EXPECT_NE(line.find("\"metrics\":"), std::string::npos);
  std::remove(jsonl.c_str());
}

// ------------------------------------------------- environment overrides ---

TEST(TelemetryEnv, NexusTraceTurnsTracingOnAndOff) {
  RuntimeOptions opts;
  opts.topology = simnet::Topology::single_partition(1);
  opts.modules = {"local"};

  ::setenv("NEXUS_TRACE", "on", 1);
  {
    Runtime rt(opts);
    EXPECT_TRUE(rt.telemetry().tracer().enabled());
  }
  ::setenv("NEXUS_TRACE", "0", 1);
  {
    RuntimeOptions traced = opts;
    traced.tracing = true;  // env override wins over the option
    Runtime rt(traced);
    EXPECT_FALSE(rt.telemetry().tracer().enabled());
  }
  ::setenv("NEXUS_TRACE", "banana", 1);
  {
    Runtime rt(opts);  // unrecognized: warn, keep the option (off)
    EXPECT_FALSE(rt.telemetry().tracer().enabled());
  }
  ::unsetenv("NEXUS_TRACE");
}

TEST(TelemetryEnv, NexusFlightDirFillsUnsetOption) {
  RuntimeOptions opts;
  opts.topology = simnet::Topology::single_partition(1);
  opts.modules = {"local"};

  ::setenv("NEXUS_FLIGHT_DIR", "/tmp/nexus-env-flight", 1);
  {
    Runtime rt(opts);
    EXPECT_EQ(rt.telemetry().flight_dir(), "/tmp/nexus-env-flight");
  }
  {
    RuntimeOptions explicit_dir = opts;
    explicit_dir.flight_dir = "/tmp/nexus-opt-flight";
    Runtime rt(explicit_dir);  // an explicit option beats the environment
    EXPECT_EQ(rt.telemetry().flight_dir(), "/tmp/nexus-opt-flight");
  }
  ::unsetenv("NEXUS_FLIGHT_DIR");
}

TEST(TelemetryEnv, FlightRecordersAreOnByDefaultAndSizable) {
  RuntimeOptions opts;
  opts.topology = simnet::Topology::single_partition(2);
  opts.modules = {"local", "mpl"};
  opts.flight_capacity = 64;
  Runtime rt(opts);
  ASSERT_EQ(rt.telemetry().flight_count(), 2u);
  for (std::uint32_t c = 0; c < 2; ++c) {
    auto* fr = rt.telemetry().flight(c);
    ASSERT_NE(fr, nullptr);
    EXPECT_TRUE(fr->enabled());
    EXPECT_EQ(fr->capacity(), 64u);
  }
  RuntimeOptions off = opts;
  off.flight = false;
  Runtime rt2(off);
  auto* fr = rt2.telemetry().flight(0);
  ASSERT_NE(fr, nullptr);
  EXPECT_FALSE(fr->enabled());
}

}  // namespace
