// Reliability wrapper (rel+udp) behavior: selection preference and
// wrapper-stack enquiry, exactly-once in-order delivery over lossy
// datagrams (silent drops and detected faults, both fabrics), sliding-
// window backpressure in both policies, max-retries escalation into the
// failover layer, and the oversized-datagram MTU contract of the raw udp
// modules the wrapper builds on.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "fixture_runtime.hpp"
#include "nexus/runtime.hpp"
#include "proto/reliable.hpp"
#include "util/rng.hpp"

namespace {

using namespace nexus;
using nexus::testing::opts_with;
using simnet::kMs;
using simnet::kUs;

constexpr Time kDeadline = 8000 * kMs;

util::PackBuffer seq_payload(std::uint64_t i) {
  util::PackBuffer pb(16);
  pb.put_u64(i);
  return pb;
}

// ---------------------------------------------------------------------------
// Selection: rel+udp is reliable at udp's speed rank, so it must beat tcp,
// and the enquiry layer must render the wrapper stack.

TEST(Reliable, SelectionPrefersWrapperOverTcpAndExplainsStack) {
  RuntimeOptions opts = opts_with({"local", "rel+udp", "tcp"},
                                  simnet::Topology::two_partitions(1, 1));
  opts.costs.udp_drop_prob = 0.0;
  Runtime rt(opts);

  std::uint64_t got = 0;
  std::string selected;
  std::string explain_text;
  std::string explain_json;

  rt.run(std::vector<std::function<void(Context&)>>{
      [&](Context& ctx) {
        nexus::testing::register_counter(ctx, "ping", got);
        ctx.wait_count(got, 5);
      },
      [&](Context& ctx) {
        Startpoint sp = ctx.world_startpoint(0);
        for (int i = 0; i < 5; ++i) ctx.rsr(sp, "ping", seq_payload(i));
        selected = sp.selected_method();
        const telemetry::SelectionReport report = ctx.explain_selection(sp);
        explain_text = report.to_text();
        explain_json = report.to_json();
        ASSERT_EQ(report.links.size(), 1u);
        EXPECT_EQ(report.links[0].winner, "rel+udp");
        bool saw_wrapper = false;
        for (const auto& c : report.links[0].candidates) {
          if (c.method == "rel+udp") {
            saw_wrapper = true;
            EXPECT_EQ(c.wraps, "udp");
            EXPECT_EQ(c.status, telemetry::CandidateStatus::Won);
          }
          if (c.method == "tcp") {
            EXPECT_EQ(c.status, telemetry::CandidateStatus::RankedBehind);
          }
        }
        EXPECT_TRUE(saw_wrapper);
      }});

  EXPECT_EQ(got, 5u);
  EXPECT_EQ(selected, "rel+udp");
  EXPECT_NE(explain_text.find("[wraps udp]"), std::string::npos)
      << explain_text;
  EXPECT_NE(explain_json.find("\"wraps\":\"udp\""), std::string::npos)
      << explain_json;

  // The metrics registry carries both layers: the wrapper's RSR-level row
  // and the layered row for the raw frames underneath.
  const auto snap = rt.telemetry().metrics().snapshot();
  const auto* wrapper = snap.find_method(1, "rel+udp");
  const auto* inner = snap.find_method(1, "rel+udp/udp");
  ASSERT_NE(wrapper, nullptr);
  ASSERT_NE(inner, nullptr);
  EXPECT_EQ(wrapper->counters.sends, 5u);
  // Inner frames = data sends (plus any retransmits; none on a clean link).
  EXPECT_GE(inner->counters.sends, 5u);
  const std::string text = rt.telemetry().metrics().to_text();
  EXPECT_NE(text.find("rel+udp/udp"), std::string::npos) << text;
  EXPECT_NE(text.find("window_occupancy"), std::string::npos) << text;
}

// ---------------------------------------------------------------------------
// Exactly-once, in-order delivery over a transport that silently loses a
// third of all frames (udp's own drop model: the sender sees Ok).

TEST(Reliable, ExactlyOnceInOrderUnderSilentLoss) {
  constexpr int kMsgs = 60;
  RuntimeOptions opts =
      opts_with({"local", "rel+udp"}, simnet::Topology::single_partition(2));
  opts.costs.udp_drop_prob = 0.35;
  opts.seed = nexus::testing::test_seed();
  opts.db.set("rel.rto_initial_us", "3000");
  opts.db.set("rel.rto_min_us", "1000");
  opts.db.set("rel.ack_delay_us", "500");
  Runtime rt(opts);

  std::map<std::uint64_t, int> per_seq;
  std::vector<std::uint64_t> order;
  std::uint64_t total = 0;
  std::atomic<bool> sender_drained{false};

  rt.run(std::vector<std::function<void(Context&)>>{
      [&](Context& ctx) {
        ctx.register_handler("seq",
                             [&](Context&, Endpoint&, util::UnpackBuffer& ub) {
                               const std::uint64_t s = ub.get_u64();
                               ++per_seq[s];
                               order.push_back(s);
                               ++total;
                             });
        // Stay alive past the last delivery: retransmits of silently lost
        // *acks* need this side to keep answering until the sender's
        // window has drained.
        while (!sender_drained.load(std::memory_order_acquire) &&
               ctx.now() < kDeadline) {
          ctx.compute_with_polling(5 * kMs, 500 * kUs);
        }
      },
      [&](Context& ctx) {
        Startpoint sp = ctx.world_startpoint(0);
        for (int i = 0; i < kMsgs; ++i) {
          ctx.rsr(sp, "seq", seq_payload(i));
          ctx.compute_with_polling(2 * kMs, 500 * kUs);
        }
        // Keep servicing retransmission timers until the window drains.
        auto* rel = dynamic_cast<proto::ReliableModule*>(ctx.module("rel+udp"));
        ASSERT_NE(rel, nullptr);
        while (rel->in_flight(0) > 0 && ctx.now() < kDeadline) {
          ctx.compute_with_polling(5 * kMs, 1 * kMs);
        }
        EXPECT_EQ(rel->in_flight(0), 0u);
        sender_drained.store(true, std::memory_order_release);
      }});

  ASSERT_EQ(total, static_cast<std::uint64_t>(kMsgs));
  for (int i = 0; i < kMsgs; ++i) {
    ASSERT_EQ(per_seq[static_cast<std::uint64_t>(i)], 1)
        << "sequence " << i << " not delivered exactly once";
  }
  for (std::size_t i = 1; i < order.size(); ++i) {
    ASSERT_LT(order[i - 1], order[i]) << "out-of-order dispatch at " << i;
  }

  // A 35% loss rate must have exercised the retransmission machinery.
  const auto snap = rt.telemetry().metrics().snapshot();
  const auto* wrapper = snap.find_method(1, "rel+udp");
  ASSERT_NE(wrapper, nullptr);
  EXPECT_GT(wrapper->counters.rel_retransmits, 0u);
  EXPECT_EQ(wrapper->counters.sends, static_cast<std::uint64_t>(kMsgs));
  const std::string json = rt.telemetry().metrics().to_json();
  EXPECT_NE(json.find("\"rel_retransmits\""), std::string::npos);
  // The receiver must have acknowledged (standalone frames: reverse
  // traffic is ack-only here).
  const auto* receiver = snap.find_method(0, "rel+udp");
  ASSERT_NE(receiver, nullptr);
  EXPECT_GT(receiver->counters.rel_acks_sent, 0u);
}

// ---------------------------------------------------------------------------
// Block backpressure (default): a tiny window throttles a burst sender
// without ever surfacing a failure, and occupancy never exceeds the credit.

TEST(Reliable, BlockBackpressureCapsWindowOccupancy) {
  constexpr int kMsgs = 40;
  RuntimeOptions opts =
      opts_with({"local", "rel+udp"}, simnet::Topology::single_partition(2));
  opts.costs.udp_drop_prob = 0.0;
  opts.db.set("rel.window", "4");
  opts.db.set("rel.ack_every", "4");
  opts.db.set("rel.ack_delay_us", "500");
  Runtime rt(opts);

  std::uint64_t got = 0;
  rt.run(std::vector<std::function<void(Context&)>>{
      [&](Context& ctx) {
        nexus::testing::register_counter(ctx, "burst", got);
        ctx.wait_count(got, kMsgs);
      },
      [&](Context& ctx) {
        Startpoint sp = ctx.world_startpoint(0);
        for (int i = 0; i < kMsgs; ++i) {
          ctx.rsr(sp, "burst", seq_payload(i));  // no inter-send pacing
        }
      }});

  EXPECT_EQ(got, static_cast<std::uint64_t>(kMsgs));
  const auto snap = rt.telemetry().metrics().snapshot();
  const auto* wrapper = snap.find_method(1, "rel+udp");
  ASSERT_NE(wrapper, nullptr);
  EXPECT_EQ(wrapper->counters.send_errors, 0u);
  ASSERT_GT(wrapper->window_occupancy.count(), 0u);
  EXPECT_LE(wrapper->window_occupancy.max(), 4u);
}

// ---------------------------------------------------------------------------
// Shed backpressure: a full window surfaces Transient verdicts to the
// failover layer instead of blocking; the caller's retry delivers.

TEST(Reliable, ShedBackpressureSurfacesTransientAndRecovers) {
  constexpr int kMsgs = 12;
  RuntimeOptions opts =
      opts_with({"local", "rel+udp"}, simnet::Topology::single_partition(2));
  opts.costs.udp_drop_prob = 0.0;
  opts.db.set("rel.window", "2");
  opts.db.set("rel.backpressure", "shed");
  opts.db.set("rel.ack_every", "2");
  opts.db.set("rel.ack_delay_us", "500");
  Runtime rt(opts);

  std::map<std::uint64_t, int> per_seq;
  std::uint64_t total = 0;
  bool sender_gave_up = false;

  rt.run(std::vector<std::function<void(Context&)>>{
      [&](Context& ctx) {
        ctx.register_handler("shed",
                             [&](Context&, Endpoint&, util::UnpackBuffer& ub) {
                               ++per_seq[ub.get_u64()];
                               ++total;
                             });
        while (total < kMsgs && ctx.now() < kDeadline) {
          ctx.compute_with_polling(2 * kMs, 200 * kUs);
        }
        ctx.compute_with_polling(10 * kMs, 1 * kMs);
      },
      [&](Context& ctx) {
        Startpoint sp = ctx.world_startpoint(0);
        for (int i = 0; i < kMsgs; ++i) {
          bool sent = false;
          // A shed verdict can exhaust the failover loop's attempt budget
          // when the burst outruns the window; backing off to let acks
          // arrive cannot duplicate (a shed send was never transmitted).
          for (int attempt = 0; attempt < 6 && !sent; ++attempt) {
            try {
              ctx.rsr(sp, "shed", seq_payload(i));
              sent = true;
            } catch (const util::MethodError&) {
              ctx.compute_with_polling(20 * kMs, 1 * kMs);
            }
          }
          if (!sent) sender_gave_up = true;
        }
      }});

  ASSERT_FALSE(sender_gave_up);
  ASSERT_EQ(total, static_cast<std::uint64_t>(kMsgs));
  for (int i = 0; i < kMsgs; ++i) {
    ASSERT_EQ(per_seq[static_cast<std::uint64_t>(i)], 1) << "sequence " << i;
  }
  const auto snap = rt.telemetry().metrics().snapshot();
  const auto* wrapper = snap.find_method(1, "rel+udp");
  ASSERT_NE(wrapper, nullptr);
  EXPECT_GT(wrapper->counters.send_errors, 0u)
      << "a 2-credit window under a 12-message burst must have shed";
  ASSERT_GT(wrapper->window_occupancy.count(), 0u);
  EXPECT_LE(wrapper->window_occupancy.max(), 2u);
}

// ---------------------------------------------------------------------------
// Hard failure at the inner layer: a blackholed udp link makes the wrapper
// report Dead, and the health tracker quarantines *the wrapper* (layer-
// correct attribution) and fails over to tcp.

TEST(Reliable, InnerBlackholeFailsOverToTcp) {
  RuntimeOptions opts = opts_with({"local", "rel+udp", "tcp"},
                                  simnet::Topology::two_partitions(1, 1));
  opts.costs.udp_drop_prob = 0.0;
  opts.faults.blackhole("udp", 0, 500 * kMs);
  Runtime rt(opts);

  std::uint64_t got = 0;
  std::string selected;
  std::uint64_t wrapper_failures = 0;

  rt.run(std::vector<std::function<void(Context&)>>{
      [&](Context& ctx) {
        nexus::testing::register_counter(ctx, "ping", got);
        ctx.wait_count(got, 3);
      },
      [&](Context& ctx) {
        Startpoint sp = ctx.world_startpoint(0);
        for (int i = 0; i < 3; ++i) ctx.rsr(sp, "ping", seq_payload(i));
        selected = sp.selected_method();
        wrapper_failures = ctx.method_health("rel+udp", 0).failures;
      }});

  EXPECT_EQ(got, 3u);
  EXPECT_EQ(selected, "tcp");
  EXPECT_GE(wrapper_failures, 1u)
      << "health state must attribute the failure to the wrapper method";
}

// ---------------------------------------------------------------------------
// Soft failure escalation: when every frame is (detectably) dropped past
// the retry budget, the wrapper latches Dead for new work -- feeding the
// failover layer -- while the already-accepted packet keeps probing and is
// eventually delivered once the fault clears.  Exactly-once holds across
// the escalation.

TEST(Reliable, RetryExhaustionEscalatesThenDeliversAfterHeal) {
  constexpr int kMsgs = 6;
  RuntimeOptions opts = opts_with({"local", "rel+udp", "tcp"},
                                  simnet::Topology::two_partitions(1, 1));
  opts.costs.udp_drop_prob = 0.0;
  opts.faults.drop("udp", 1.0, 0, 150 * kMs);
  opts.db.set("rel.max_retries", "2");
  opts.db.set("rel.rto_initial_us", "2000");
  opts.db.set("rel.rto_max_us", "20000");
  Runtime rt(opts);

  std::map<std::uint64_t, int> per_seq;
  std::uint64_t total = 0;
  std::vector<std::string> methods;
  std::atomic<bool> sender_drained{false};

  rt.run(std::vector<std::function<void(Context&)>>{
      [&](Context& ctx) {
        ctx.register_handler("seq",
                             [&](Context&, Endpoint&, util::UnpackBuffer& ub) {
                               ++per_seq[ub.get_u64()];
                               ++total;
                             });
        while (!sender_drained.load(std::memory_order_acquire) &&
               ctx.now() < kDeadline) {
          ctx.compute_with_polling(5 * kMs, 500 * kUs);
        }
      },
      [&](Context& ctx) {
        Startpoint sp = ctx.world_startpoint(0);
        // Message 0 is accepted into the window while the drop storm rages.
        ctx.rsr(sp, "seq", seq_payload(0));
        methods.push_back(sp.selected_method());
        // Let the retry budget burn down so the wrapper latches Dead.
        ctx.compute_with_polling(30 * kMs, 1 * kMs);
        for (int i = 1; i < kMsgs; ++i) {
          ctx.rsr(sp, "seq", seq_payload(i));
          methods.push_back(sp.selected_method());
          ctx.compute_with_polling(5 * kMs, 1 * kMs);
        }
        // Past the fault window: the retained packet must drain.
        auto* rel = dynamic_cast<proto::ReliableModule*>(ctx.module("rel+udp"));
        ASSERT_NE(rel, nullptr);
        while (rel->in_flight(0) > 0 && ctx.now() < kDeadline) {
          ctx.compute_with_polling(10 * kMs, 1 * kMs);
        }
        EXPECT_EQ(rel->in_flight(0), 0u);
        sender_drained.store(true, std::memory_order_release);
      }});

  ASSERT_EQ(total, static_cast<std::uint64_t>(kMsgs));
  for (int i = 0; i < kMsgs; ++i) {
    ASSERT_EQ(per_seq[static_cast<std::uint64_t>(i)], 1) << "sequence " << i;
  }
  EXPECT_EQ(methods.front(), "rel+udp");
  bool failed_over = false;
  for (const auto& m : methods) {
    if (m == "tcp") failed_over = true;
  }
  EXPECT_TRUE(failed_over)
      << "the Dead latch must have pushed later sends onto tcp";
  const auto snap = rt.telemetry().metrics().snapshot();
  const auto* wrapper = snap.find_method(1, "rel+udp");
  ASSERT_NE(wrapper, nullptr);
  EXPECT_GT(wrapper->counters.rel_retransmits, 2u);
}

// ---------------------------------------------------------------------------
// MTU regression (both fabrics): oversized datagrams fail with a
// deterministic Dead verdict -- no exception -- so health/failover (or the
// wrapper) own the recovery.

TEST(Reliable, OversizedUdpSendFailsDeadSimulated) {
  RuntimeOptions opts =
      opts_with({"local", "udp"}, simnet::Topology::single_partition(2));
  opts.costs.udp_drop_prob = 0.0;
  Runtime rt(opts);

  rt.run(std::vector<std::function<void(Context&)>>{
      [](Context&) {},
      [&](Context& ctx) {
        CommModule* udp = ctx.module("udp");
        ASSERT_NE(udp, nullptr);
        const DescriptorTable& table = ctx.runtime().table_of(0);
        const auto idx = table.find("udp");
        ASSERT_TRUE(idx.has_value());
        auto conn = udp->connect(table.at(*idx));
        Packet big;
        big.src = ctx.id();
        big.dst = 0;
        big.payload = util::Bytes(ctx.costs().udp_mtu + 1, 0x5a);
        SendResult r{};
        ASSERT_NO_THROW(r = udp->send(*conn, std::move(big)));
        EXPECT_EQ(r.status, DeliveryStatus::Dead);
        Packet small;
        small.src = ctx.id();
        small.dst = 0;
        small.payload = util::Bytes(64, 0x5a);
        EXPECT_EQ(udp->send(*conn, std::move(small)).status,
                  DeliveryStatus::Ok);
      }});
}

TEST(Reliable, OversizedUdpSendFailsDeadRealtime) {
  RuntimeOptions opts =
      opts_with({"local", "udp"}, simnet::Topology::single_partition(2));
  opts.fabric = RuntimeOptions::Fabric::Realtime;
  opts.costs.udp_drop_prob = 0.0;
  Runtime rt(opts);

  rt.run(std::vector<std::function<void(Context&)>>{
      [](Context&) {},
      [&](Context& ctx) {
        CommModule* udp = ctx.module("udp");
        ASSERT_NE(udp, nullptr);
        const DescriptorTable& table = ctx.runtime().table_of(0);
        const auto idx = table.find("udp");
        ASSERT_TRUE(idx.has_value());
        auto conn = udp->connect(table.at(*idx));
        Packet big;
        big.src = ctx.id();
        big.dst = 0;
        big.payload = util::Bytes(ctx.costs().udp_mtu + 1, 0x5a);
        SendResult r{};
        ASSERT_NO_THROW(r = udp->send(*conn, std::move(big)));
        EXPECT_EQ(r.status, DeliveryStatus::Dead);
      }});
}

// The wrapper rolls its sequence counter back when the inner transport
// rejects the initial transmit, so the rejection leaves no gap in the
// stream: a following in-budget send is sequence-contiguous.

TEST(Reliable, WrapperRollsBackSequenceOnOversizedSend) {
  RuntimeOptions opts =
      opts_with({"local", "rel+udp"}, simnet::Topology::single_partition(2));
  opts.costs.udp_drop_prob = 0.0;
  Runtime rt(opts);

  rt.run(std::vector<std::function<void(Context&)>>{
      [](Context&) {},  // never polls: packets stay queued, nothing dispatches
      [&](Context& ctx) {
        auto* rel = dynamic_cast<proto::ReliableModule*>(ctx.module("rel+udp"));
        ASSERT_NE(rel, nullptr);
        const DescriptorTable& table = ctx.runtime().table_of(0);
        const auto idx = table.find("rel+udp");
        ASSERT_TRUE(idx.has_value());
        auto conn = rel->connect(table.at(*idx));
        Packet big;
        big.src = ctx.id();
        big.dst = 0;
        big.payload = util::Bytes(ctx.costs().udp_mtu + 1, 0x5a);
        EXPECT_EQ(rel->send(*conn, std::move(big)).status,
                  DeliveryStatus::Dead);
        EXPECT_EQ(rel->in_flight(0), 0u)
            << "a rejected initial transmit must not occupy the window";
        Packet small;
        small.src = ctx.id();
        small.dst = 0;
        small.payload = util::Bytes(64, 0x5a);
        EXPECT_EQ(rel->send(*conn, std::move(small)).status,
                  DeliveryStatus::Ok);
        EXPECT_EQ(rel->in_flight(0), 1u);
      }});
}

// ---------------------------------------------------------------------------
// Realtime fabric: exactly-once in-order delivery with a fault hook
// dropping 40% of udp frames (detected, transient).

TEST(Reliable, RtExactlyOnceInOrderUnderFaultHook) {
  constexpr int kMsgs = 30;
  RuntimeOptions opts =
      opts_with({"local", "rel+udp"}, simnet::Topology::single_partition(2));
  opts.fabric = RuntimeOptions::Fabric::Realtime;
  opts.costs.udp_drop_prob = 0.0;
  opts.db.set("rel.rto_initial_us", "2000");
  opts.db.set("rel.rto_min_us", "1000");
  opts.db.set("rel.ack_delay_us", "500");
  Runtime rt(opts);

  std::mutex rng_mutex;
  util::Rng rng(nexus::testing::test_seed());
  rt.rt()->set_fault_hook([&](std::string_view method, ContextId,
                              ContextId) -> simnet::FaultVerdict {
    simnet::FaultVerdict v;
    if (method == "udp") {
      std::lock_guard<std::mutex> lock(rng_mutex);
      if (rng.chance(0.4)) v.transient = true;
    }
    return v;
  });

  std::map<std::uint64_t, int> per_seq;
  std::vector<std::uint64_t> order;
  std::uint64_t total = 0;
  std::atomic<bool> sender_drained{false};

  rt.run(std::vector<std::function<void(Context&)>>{
      [&](Context& ctx) {
        ctx.register_handler("seq",
                             [&](Context&, Endpoint&, util::UnpackBuffer& ub) {
                               const std::uint64_t s = ub.get_u64();
                               ++per_seq[s];
                               order.push_back(s);
                               ++total;
                             });
        // Keep polling past the last delivery: dropped acks mean the
        // sender's window can only drain while this side still answers
        // retransmits.
        ctx.wait(
            [&] { return sender_drained.load(std::memory_order_acquire); });
      },
      [&](Context& ctx) {
        Startpoint sp = ctx.world_startpoint(0);
        for (int i = 0; i < kMsgs; ++i) ctx.rsr(sp, "seq", seq_payload(i));
        auto* rel = dynamic_cast<proto::ReliableModule*>(ctx.module("rel+udp"));
        ASSERT_NE(rel, nullptr);
        ctx.wait([&] { return rel->in_flight(0) == 0; });
        sender_drained.store(true, std::memory_order_release);
      }});

  ASSERT_EQ(total, static_cast<std::uint64_t>(kMsgs));
  for (int i = 0; i < kMsgs; ++i) {
    ASSERT_EQ(per_seq[static_cast<std::uint64_t>(i)], 1) << "sequence " << i;
  }
  for (std::size_t i = 1; i < order.size(); ++i) {
    ASSERT_LT(order[i - 1], order[i]) << "out-of-order dispatch at " << i;
  }
}

}  // namespace
