// RPC exactly-once completion property (docs/ARCHITECTURE.md §15).
//
// Across seeded random fault plans -- server crash/restart windows stacked
// with udp drop storms, delay windows, and blackholes -- every call a
// client issues reaches EXACTLY one terminal status from {Ok,
// DeadlineExceeded, Cancelled, PeerDied, Rejected, HandlerError,
// BulkError}: no call hangs (every trial's wait_all() converges inside the
// virtual-time bound because every call carries a deadline) and no reply
// is delivered twice (duplicates and post-terminal replies are dropped as
// late).  Ok replies must carry the correct echoed payload.
//
// The client (context 0) is never crashed; the two servers crash and
// restart mid-call, so calls resolve through the full spread of paths:
// normal replies, deadline expiry, fail-fast Dead verdicts, peer-death
// detection, admission control under the tiny rpc.max_inflight, bulk pulls
// that die mid-transfer, and cancellation racing all of the above.
#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "fixture_runtime.hpp"
#include "nexus/runtime.hpp"
#include "proto/rpc/rpc.hpp"
#include "util/rng.hpp"

namespace {

using namespace nexus;
using nexus::testing::opts_with;
using proto::rpc::BulkHandle;
using proto::rpc::CallContext;
using proto::rpc::CallId;
using proto::rpc::CallOptions;
using proto::rpc::CallResult;
using proto::rpc::CallStatus;
using proto::rpc::Client;
using proto::rpc::Server;
using simnet::kMs;
using simnet::kUs;

constexpr int kTrials = 200;
constexpr int kCalls = 6;                ///< per trial
constexpr Time kDeadline = 4000 * kMs;   ///< virtual-time give-up guard

simnet::FaultPlan random_plan(util::Rng& rng, ContextId world) {
  simnet::FaultPlan plan;
  for (ContextId c = 1; c < world; ++c) {
    if (!rng.chance(0.7)) continue;
    const Time from = rng.uniform(0, 40 * kMs);
    plan.crash(c, from, from + rng.uniform(5 * kMs, 120 * kMs));
  }
  if (rng.chance(0.5)) plan.drop("udp", 0.4 * rng.next_double());
  if (rng.chance(0.4)) {
    const Time from = rng.uniform(0, 80 * kMs);
    const Time until = from + rng.uniform(10 * kMs, 150 * kMs);
    if (rng.chance(0.5)) {
      plan.drop("udp", 0.6 * rng.next_double(), from, until);
    } else {
      plan.delay("udp", rng.uniform(0, 4 * kMs), from, until);
    }
  }
  if (rng.chance(0.25)) {
    const Time from = rng.uniform(0, 60 * kMs);
    plan.blackhole("udp", from, from + rng.uniform(10 * kMs, 80 * kMs));
  }
  return plan;
}

bool terminal_status(CallStatus s) {
  switch (s) {
    case CallStatus::Ok:
    case CallStatus::DeadlineExceeded:
    case CallStatus::Cancelled:
    case CallStatus::PeerDied:
    case CallStatus::Rejected:
    case CallStatus::HandlerError:
    case CallStatus::BulkError:
      return true;
    case CallStatus::Pending:
      return false;
  }
  return false;
}

void run_rpc_trial(std::uint64_t seed) {
  util::Rng rng(seed);
  constexpr ContextId kWorld = 3;  // client + two crashing servers

  std::vector<std::string> modules = {"local", "rel+udp"};
  if (rng.chance(0.5)) modules.push_back("tcp");
  RuntimeOptions opts =
      opts_with(std::move(modules), simnet::Topology::single_partition(kWorld));
  opts.faults = random_plan(rng, kWorld);
  opts.seed = seed;
  opts.costs.udp_drop_prob = 0.25 * rng.next_double();
  // A dead-letter budget on some trials parks failed requests instead of
  // failing them fast; redelivered requests after a rebirth produce replies
  // the client must drop as late once the deadline has resolved the call.
  if (rng.chance(0.4)) {
    opts.db.set("robust.retry_budget", "2");
    opts.db.set("robust.peer_grace_ms", "5");
  }
  opts.db.set("rel.max_retries", "25");
  opts.db.set("rel.rto_initial_us", "4000");
  opts.db.set("rel.rto_min_us", "1000");
  opts.db.set("rel.rto_max_us", "80000");
  opts.db.set("rel.ack_delay_us", "500");
  opts.db.set("rpc.max_inflight", "2");
  opts.db.set("rpc.queue_cap", rng.chance(0.5) ? "0" : "2");
  if (rng.chance(0.3)) opts.db.set("rpc.admission", "shed");
  Runtime rt(opts);

  std::atomic<bool> client_done{false};
  int completed = 0;

  std::vector<std::function<void(Context&)>> fns;
  fns.push_back([&](Context& ctx) {  // client, never crashed
    Client cl(ctx);
    const BulkHandle bulk =
        cl.register_bulk(util::SharedBytes(util::Bytes(3000, 0xc3)));
    std::map<CallId, std::uint64_t> expect;  // echoed payload per Ok call
    std::vector<CallId> ids;
    for (int i = 0; i < kCalls; ++i) {
      const ContextId server = rng.chance(0.5) ? 1 : 2;
      CallOptions copts;
      copts.timeout = rng.uniform(5 * kMs, 80 * kMs);  // never unbounded
      util::PackBuffer args(16);
      const std::uint64_t token = seed ^ (0x9e3779b97f4a7c15ull * (i + 1));
      args.put_u64(token);
      CallId id = 0;
      const double shape = rng.next_double();
      if (shape < 0.15) {
        id = cl.call(server, "nope", args, copts);  // unknown service
      } else if (shape < 0.35) {
        id = cl.call_bulk(server, "echo", args, bulk, copts);
        expect.emplace(id, token);
      } else {
        id = cl.call(server, "echo", args, copts);
        expect.emplace(id, token);
      }
      ids.push_back(id);
      if (rng.chance(0.2)) {
        cl.cancel(id);
        expect.erase(id);
      }
      if (rng.chance(0.6)) {
        ctx.compute_with_polling(rng.uniform(100 * kUs, 5 * kMs), 100 * kUs);
      }
    }
    cl.wait_all();
    ASSERT_EQ(cl.outstanding(), 0u) << "seed " << seed;
    for (const CallId id : ids) {
      ASSERT_TRUE(cl.done(id)) << "seed " << seed;
      const CallResult res = cl.take(id);
      ASSERT_TRUE(terminal_status(res.status))
          << "seed " << seed << " status "
          << proto::rpc::call_status_name(res.status);
      if (res.status == CallStatus::Ok && expect.count(id) != 0) {
        util::UnpackBuffer ub(res.payload.span());
        ASSERT_EQ(ub.get_u64(), expect[id])
            << "seed " << seed << ": Ok reply with wrong payload";
      }
      ++completed;
    }
    // take() consumed every id: a second take must refuse, proving a call
    // cannot complete (or be observed) twice.
    ASSERT_THROW(cl.take(ids.front()), util::UsageError);
    ASSERT_LT(ctx.now(), kDeadline) << "seed " << seed << ": trial hung";
    client_done.store(true, std::memory_order_release);
  });
  for (ContextId s = 1; s < kWorld; ++s) {
    fns.push_back([&](Context& ctx) {  // crashing server
      Server srv(ctx);
      srv.serve("echo", [](CallContext& cc) {
        auto ub = cc.args();
        util::PackBuffer pb(16);
        pb.put_u64(ub.get_u64());
        if (cc.has_bulk()) pb.put_u64(cc.bulk().size());
        cc.respond(pb);
      });
      while (!client_done.load(std::memory_order_acquire) &&
             ctx.now() < kDeadline) {
        if (!ctx.progress()) ctx.compute_with_polling(500 * kUs, 100 * kUs);
        srv.service();
      }
    });
  }
  rt.run(std::move(fns));

  ASSERT_EQ(completed, kCalls) << "seed " << seed;
}

TEST(RpcProperty, EveryCallCompletesExactlyOnceUnderChaos) {
  const std::uint64_t base = nexus::testing::test_seed();
  for (int t = 0; t < kTrials; ++t) {
    std::uint64_t state = base ^ (0xa076bcf7d4e89ull * (t + 1));
    const std::uint64_t seed = util::splitmix64(state);
    run_rpc_trial(seed);
    if (::testing::Test::HasFatalFailure()) {
      FAIL() << "trial " << t << " (seed " << seed << ") failed";
    }
  }
}

}  // namespace
