// Mercury-style RPC subsystem tests (docs/ARCHITECTURE.md §15).
//
// Deterministic cases for the call state machine (Ok, DeadlineExceeded,
// Cancelled, PeerDied, Rejected, HandlerError, BulkError), the pulled
// bulk-data plane (flow-controlled chunking, single-allocation reassembly,
// typed protocol errors for bad handles), admission control in both
// policies, and the observability contract (per-call traces, rpc.* counters
// in every export format, the explain_selection rpc row).
//
// Satellite: an RSR naming an unregistered handler is dropped and counted
// (send_errors) instead of faulting -- asserted on both fabrics.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "fixture_runtime.hpp"
#include "nexus/runtime.hpp"
#include "proto/rpc/rpc.hpp"

namespace {

using namespace nexus;
using nexus::testing::opts_with;
using nexus::testing::run_mpmd;
using proto::rpc::BulkHandle;
using proto::rpc::CallContext;
using proto::rpc::CallOptions;
using proto::rpc::CallResult;
using proto::rpc::CallStatus;
using proto::rpc::Client;
using proto::rpc::Server;
using simnet::kMs;
using simnet::kUs;

util::SharedBytes bytes_of(std::size_t n, std::uint8_t fill) {
  return util::SharedBytes(util::Bytes(n, fill));
}

/// Client/server pair over a lossless simulated fabric.  Tests that need
/// fault injection or rpc.* tuning mutate the returned options first.
RuntimeOptions rpc_opts() {
  RuntimeOptions opts =
      opts_with({"local", "tcp"}, simnet::Topology::single_partition(2));
  return opts;
}

/// The standard server body: construct a Server, register `services`, poll
/// until the client flips `done` (bounded in virtual time).
std::function<void(Context&)> server_fn(
    std::atomic<bool>& done,
    std::function<void(Server&)> services,
    std::function<void(Server&)> after = {}) {
  return [&done, services = std::move(services),
          after = std::move(after)](Context& ctx) {
    Server srv(ctx);
    services(srv);
    while (!done.load(std::memory_order_acquire) && ctx.now() < 2000 * kMs) {
      if (!ctx.progress()) ctx.compute_with_polling(200 * kUs, 50 * kUs);
      srv.service();
    }
    if (after) after(srv);
  };
}

TEST(Rpc, BasicCallReplyRoundTrip) {
  Runtime rt(rpc_opts());
  std::atomic<bool> done{false};
  CallResult res;

  run_mpmd(rt, {[&](Context& ctx) {  // client
                  Client cl(ctx);
                  util::PackBuffer args(8);
                  args.put_u64(21);
                  const auto id = cl.call(1, "double", args);
                  res = cl.wait(id);
                  done.store(true, std::memory_order_release);
                },
                server_fn(done, [](Server& srv) {
                  srv.serve("double", [](CallContext& cc) {
                    auto ub = cc.args();
                    util::PackBuffer pb(8);
                    pb.put_u64(ub.get_u64() * 2);
                    cc.respond(pb);
                  });
                })});

  ASSERT_EQ(res.status, CallStatus::Ok) << res.error;
  util::UnpackBuffer ub(res.payload.span());
  EXPECT_EQ(ub.get_u64(), 42u);
  EXPECT_EQ(rt.telemetry().metrics().context(0).rpc_calls, 1u);
  EXPECT_EQ(rt.telemetry().metrics().context(0).rpc_call_ns.count(), 1u);
}

TEST(Rpc, UnknownServiceCompletesHandlerError) {
  Runtime rt(rpc_opts());
  std::atomic<bool> done{false};
  CallResult res;

  run_mpmd(rt, {[&](Context& ctx) {
                  Client cl(ctx);
                  util::PackBuffer args(4);
                  const auto id = cl.call(1, "nope", args);
                  res = cl.wait(id);
                  done.store(true, std::memory_order_release);
                },
                server_fn(done, [](Server&) {})});  // no services registered

  EXPECT_EQ(res.status, CallStatus::HandlerError);
  EXPECT_NE(res.error.find("no such service"), std::string::npos) << res.error;
}

// Satellite: the peer context exists but runs no rpc Server at all, so the
// request RSR names a handler id the receiver never registered.  The packet
// is dropped and counted (send_errors) instead of faulting, and the
// client's deadline resolves the call.
TEST(Rpc, DeadlineExceededWhenPeerRunsNoServer) {
  Runtime rt(rpc_opts());
  std::atomic<bool> done{false};
  CallResult res;

  run_mpmd(rt, {[&](Context& ctx) {
                  Client cl(ctx);
                  util::PackBuffer args(4);
                  CallOptions opts;
                  opts.timeout = 5 * kMs;
                  const auto id = cl.call(1, "echo", args, opts);
                  res = cl.wait(id);
                  done.store(true, std::memory_order_release);
                },
                [&](Context& ctx) {  // no Server: "rpc.req" is unregistered
                  while (!done.load(std::memory_order_acquire) &&
                         ctx.now() < 2000 * kMs) {
                    if (!ctx.progress()) {
                      ctx.compute_with_polling(200 * kUs, 50 * kUs);
                    }
                  }
                }});

  EXPECT_EQ(res.status, CallStatus::DeadlineExceeded);
  EXPECT_EQ(rt.telemetry().metrics().context(0).rpc_deadline_exceeded, 1u);
  // The unregistered-handler drop was counted at the receiver.
  EXPECT_EQ(rt.telemetry().metrics().context(1).send_errors, 1u);
}

// Satellite, realtime fabric: same unregistered-handler contract on real
// threads -- dropped and counted, no fault.  The sender fences with a
// registered "ping" on the same ordered link so the receiver can tell when
// the ghost RSR has transited.
TEST(Rpc, UnknownHandlerDroppedAndCountedRealtime) {
  RuntimeOptions opts;
  opts.fabric = RuntimeOptions::Fabric::Realtime;
  opts.topology = simnet::Topology::single_partition(2);
  opts.modules = {"local", "mpl", "tcp"};
  Runtime rt(opts);
  std::uint64_t drops_seen = 0;

  run_mpmd(rt, {[&](Context& ctx) {  // receiver
                  std::uint64_t pings = 0;
                  nexus::testing::register_counter(ctx, "ping", pings);
                  ctx.wait_count(pings, 1);
                  // Delivery runs on this context's thread, so its own
                  // counter is safe to read here.
                  drops_seen = ctx.runtime()
                                   .telemetry()
                                   .metrics()
                                   .context(ctx.id())
                                   .send_errors;
                },
                [&](Context& ctx) {
                  Startpoint sp = ctx.world_startpoint(0);
                  ctx.rsr(sp, "ghost.handler.nobody.registered");
                  ctx.rsr(sp, "ping");
                }});

  EXPECT_EQ(drops_seen, 1u);
}

TEST(Rpc, CancelCompletesLocallyAndHandlerObservesIt) {
  Runtime rt(rpc_opts());
  std::atomic<bool> done{false};
  std::atomic<bool> entered{false};
  std::atomic<bool> handler_saw_cancel{false};
  CallResult res;

  run_mpmd(
      rt,
      {[&](Context& ctx) {  // client
         Client cl(ctx);
         util::PackBuffer args(4);
         CallOptions opts;
         opts.timeout = 500 * kMs;
         const auto id = cl.call(1, "spin", args, opts);
         while (!entered.load(std::memory_order_acquire) &&
                ctx.now() < 1000 * kMs) {
           if (!ctx.progress()) ctx.compute_with_polling(200 * kUs, 50 * kUs);
         }
         ASSERT_TRUE(entered.load(std::memory_order_acquire));
         cl.cancel(id);
         EXPECT_TRUE(cl.done(id));
         res = cl.take(id);
         // Keep polling until the server's late Cancelled reply arrives and
         // is dropped as late (never delivered twice).
         const auto& cm = rt.telemetry().metrics().context(0);
         while (cm.rpc_late_replies == 0 && ctx.now() < 1000 * kMs) {
           if (!ctx.progress()) ctx.compute_with_polling(200 * kUs, 50 * kUs);
         }
         done.store(true, std::memory_order_release);
       },
       server_fn(done, [&](Server& srv) {
         srv.serve("spin", [&](CallContext& cc) {
           entered.store(true, std::memory_order_release);
           // Long-running handler: poll and check for cancellation, the
           // documented cooperative idiom.
           while (!cc.cancelled() && cc.context().now() < 1000 * kMs) {
             cc.context().compute_with_polling(200 * kUs, 50 * kUs);
           }
           handler_saw_cancel.store(cc.cancelled(), std::memory_order_release);
         });
       })});

  EXPECT_EQ(res.status, CallStatus::Cancelled);
  EXPECT_TRUE(handler_saw_cancel.load());
  EXPECT_EQ(rt.telemetry().metrics().context(0).rpc_cancelled, 1u);
  EXPECT_EQ(rt.telemetry().metrics().context(0).rpc_late_replies, 1u);
}

TEST(Rpc, AdmissionShedRejectsConcurrentOverload) {
  RuntimeOptions opts = rpc_opts();
  opts.db.set("rpc.max_inflight", "1");
  opts.db.set("rpc.admission", "shed");
  Runtime rt(opts);
  std::atomic<bool> done{false};
  std::atomic<bool> entered{false};
  std::atomic<bool> release{false};
  CallResult r1, r2;
  Server::Stats stats;

  run_mpmd(
      rt,
      {[&](Context& ctx) {  // client
         Client cl(ctx);
         util::PackBuffer args(4);
         const auto id1 = cl.call(1, "spin", args);
         while (!entered.load(std::memory_order_acquire) &&
                ctx.now() < 1000 * kMs) {
           if (!ctx.progress()) ctx.compute_with_polling(200 * kUs, 50 * kUs);
         }
         // The slot is held: this call must be shed with a typed Rejected.
         const auto id2 = cl.call(1, "spin", args);
         r2 = cl.wait(id2);
         release.store(true, std::memory_order_release);
         r1 = cl.wait(id1);
         done.store(true, std::memory_order_release);
       },
       server_fn(
           done,
           [&](Server& srv) {
             srv.serve("spin", [&](CallContext& cc) {
               entered.store(true, std::memory_order_release);
               while (!release.load(std::memory_order_acquire) &&
                      cc.context().now() < 1000 * kMs) {
                 cc.context().compute_with_polling(200 * kUs, 50 * kUs);
               }
               util::PackBuffer pb(4);
               pb.put_u8(1);
               cc.respond(pb);
             });
           },
           [&](Server& srv) { stats = srv.stats(); })});

  EXPECT_EQ(r2.status, CallStatus::Rejected);
  EXPECT_NE(r2.error.find("shed"), std::string::npos) << r2.error;
  EXPECT_EQ(r1.status, CallStatus::Ok) << r1.error;
  EXPECT_EQ(stats.accepted, 1u);
  EXPECT_EQ(stats.rejected, 1u);
  EXPECT_EQ(rt.telemetry().metrics().context(1).rpc_rejected, 1u);
}

TEST(Rpc, AdmissionQueuePolicyParksThenRunsAndRejectsPastCap) {
  RuntimeOptions opts = rpc_opts();
  opts.db.set("rpc.max_inflight", "1");
  opts.db.set("rpc.queue_cap", "1");  // policy defaults to "queue"
  Runtime rt(opts);
  std::atomic<bool> done{false};
  std::atomic<bool> entered{false};
  std::atomic<bool> release{false};
  CallResult r1, r2, r3;
  Server::Stats stats;
  std::size_t depth_at_peak = 0;

  run_mpmd(
      rt,
      {[&](Context& ctx) {  // client
         Client cl(ctx);
         util::PackBuffer args(4);
         const auto id1 = cl.call(1, "spin", args);
         while (!entered.load(std::memory_order_acquire) &&
                ctx.now() < 1000 * kMs) {
           if (!ctx.progress()) ctx.compute_with_polling(200 * kUs, 50 * kUs);
         }
         const auto id2 = cl.call(1, "spin", args);  // parks in the queue
         const auto id3 = cl.call(1, "spin", args);  // queue full: rejected
         r3 = cl.wait(id3);
         release.store(true, std::memory_order_release);
         r1 = cl.wait(id1);
         r2 = cl.wait(id2);
         done.store(true, std::memory_order_release);
       },
       server_fn(
           done,
           [&](Server& srv) {
             srv.serve("spin", [&](CallContext& cc) {
               entered.store(true, std::memory_order_release);
               while (!release.load(std::memory_order_acquire) &&
                      cc.context().now() < 1000 * kMs) {
                 cc.context().compute_with_polling(200 * kUs, 50 * kUs);
               }
             });
           },
           [&](Server& srv) {
             stats = srv.stats();
             depth_at_peak = srv.queue_depth();  // drained by then
           })});

  EXPECT_EQ(r3.status, CallStatus::Rejected);
  EXPECT_NE(r3.error.find("queue full"), std::string::npos) << r3.error;
  EXPECT_EQ(r1.status, CallStatus::Ok);
  EXPECT_EQ(r2.status, CallStatus::Ok);
  EXPECT_EQ(stats.queued, 1u);
  EXPECT_EQ(stats.accepted, 2u);
  EXPECT_EQ(stats.rejected, 1u);
  EXPECT_EQ(depth_at_peak, 0u);
}

TEST(Rpc, BulkPullReassemblesWithOneAllocation) {
  constexpr std::size_t kSize = 100'000;  // 13 chunks at the 8192 default
  Runtime rt(rpc_opts());
  std::atomic<bool> done{false};
  CallResult res;
  std::uint64_t allocs = 0, transfers = 0;

  util::Bytes region(kSize);
  for (std::size_t i = 0; i < kSize; ++i) {
    region[i] = static_cast<std::uint8_t>(i * 131 + 7);
  }
  std::uint64_t expected_sum = 0;
  for (const std::uint8_t b : region) expected_sum += b;

  run_mpmd(
      rt,
      {[&](Context& ctx) {  // client owns the bulk region
         Client cl(ctx);
         const BulkHandle h =
             cl.register_bulk(util::SharedBytes(std::move(region)));
         ASSERT_TRUE(h.valid());
         ASSERT_EQ(h.size, kSize);
         util::PackBuffer args(4);
         const auto id = cl.call_bulk(1, "sum", args, h);
         res = cl.wait(id);
         cl.release_bulk(h);
         done.store(true, std::memory_order_release);
       },
       server_fn(
           done,
           [&](Server& srv) {
             srv.serve("sum", [](CallContext& cc) {
               ASSERT_TRUE(cc.has_bulk());
               std::uint64_t sum = 0;
               for (const std::uint8_t b : cc.bulk().span()) sum += b;
               util::PackBuffer pb(16);
               pb.put_u64(cc.bulk().size());
               pb.put_u64(sum);
               cc.respond(pb);
             });
           },
           [&](Server& srv) {
             allocs = srv.reassembly_allocs();
             transfers = srv.stats().bulk_transfers;
           })});

  ASSERT_EQ(res.status, CallStatus::Ok) << res.error;
  util::UnpackBuffer ub(res.payload.span());
  EXPECT_EQ(ub.get_u64(), static_cast<std::uint64_t>(kSize));
  EXPECT_EQ(ub.get_u64(), expected_sum);
  // Zero-copy acceptance gate: exactly one receive-side allocation per
  // transfer, regardless of chunk count.
  EXPECT_EQ(transfers, 1u);
  EXPECT_EQ(allocs, 1u);
  EXPECT_EQ(rt.telemetry().metrics().context(1).rpc_bulk_pull_chunks,
            (kSize + 8191) / 8192);
  EXPECT_EQ(rt.telemetry().metrics().context(1).rpc_bulk_mb_s.count(), 1u);
}

// Satellite: pulls naming a released handle or a window past the region's
// end get a typed protocol error frame, surfacing as BulkError.
TEST(Rpc, BulkErrorsAreTypedNotFaults) {
  Runtime rt(rpc_opts());
  std::atomic<bool> done{false};
  CallResult stale_res, range_res;
  std::uint64_t failures = 0;

  run_mpmd(
      rt,
      {[&](Context& ctx) {
         Client cl(ctx);
         util::PackBuffer args(4);
         // Released before the call: the server's pull must be refused.
         const BulkHandle stale = cl.register_bulk(bytes_of(12, 0x5a));
         cl.release_bulk(stale);
         stale_res = cl.wait(cl.call_bulk(1, "sum", args, stale));
         // Registered, but the descriptor lies about the size: the first
         // pull window runs past the region's end.
         const BulkHandle real = cl.register_bulk(bytes_of(5, 0x11));
         const BulkHandle lying{real.id, real.size + 64};
         range_res = cl.wait(cl.call_bulk(1, "sum", args, lying));
         done.store(true, std::memory_order_release);
       },
       server_fn(
           done,
           [&](Server& srv) {
             srv.serve("sum", [](CallContext& cc) {
               util::PackBuffer pb(8);
               pb.put_u64(cc.bulk().size());
               cc.respond(pb);
             });
           },
           [&](Server& srv) { failures = srv.stats().bulk_failures; })});

  EXPECT_EQ(stale_res.status, CallStatus::BulkError);
  EXPECT_NE(stale_res.error.find("unknown handle"), std::string::npos)
      << stale_res.error;
  EXPECT_EQ(range_res.status, CallStatus::BulkError);
  EXPECT_NE(range_res.error.find("out of range"), std::string::npos)
      << range_res.error;
  EXPECT_EQ(failures, 2u);
  // Both halves counted the protocol errors: the provider (client context)
  // when refusing, the puller (server context) when aborting.
  EXPECT_EQ(rt.telemetry().metrics().context(0).rpc_bulk_errors, 2u);
  EXPECT_EQ(rt.telemetry().metrics().context(1).rpc_bulk_errors, 2u);
}

TEST(Rpc, PeerDiedFailsFastOnDeadVerdict) {
  RuntimeOptions opts =
      opts_with({"local", "udp"}, simnet::Topology::single_partition(2));
  opts.faults.blackhole("udp", 0, 5 * kMs);  // every send fails hard
  Runtime rt(opts);
  CallResult res;

  run_mpmd(rt, {[&](Context& ctx) {
                  Client cl(ctx);
                  util::PackBuffer args(4);
                  const auto id = cl.call(1, "echo", args);
                  // Failover exhausted with no dead-letter budget: the call
                  // fails fast instead of hanging.
                  EXPECT_TRUE(cl.done(id));
                  res = cl.take(id);
                },
                [&](Context&) {}});

  EXPECT_EQ(res.status, CallStatus::PeerDied);
  EXPECT_EQ(rt.telemetry().metrics().context(0).rpc_peer_died, 1u);
}

// Satellite: explain_selection() gains an rpc row naming the method the
// last call to each peer rode.
TEST(Rpc, ExplainSelectionReportsLastCallMethod) {
  Runtime rt(rpc_opts());
  std::atomic<bool> done{false};
  std::string text, json;
  bool row_found = false;
  std::string row_method;

  run_mpmd(rt, {[&](Context& ctx) {
                  Client cl(ctx);
                  util::PackBuffer args(4);
                  cl.wait(cl.call(1, "echo", args));
                  Startpoint sp = ctx.world_startpoint(1);
                  const auto rep = ctx.explain_selection(sp);
                  for (const auto& row : rep.rpc) {
                    if (row.peer == 1) {
                      row_found = true;
                      row_method = row.method;
                    }
                  }
                  text = rep.to_text();
                  json = rep.to_json();
                  done.store(true, std::memory_order_release);
                },
                server_fn(done, [](Server& srv) {
                  srv.serve("echo", [](CallContext&) {});
                })});

  ASSERT_TRUE(row_found);
  EXPECT_EQ(row_method, "tcp");  // the only remote-capable method configured
  EXPECT_NE(text.find("rpc: last call"), std::string::npos) << text;
  EXPECT_NE(json.find("\"rpc\":"), std::string::npos) << json;
}

// A bulk call under tracing stitches request, pulls, chunks, and reply
// into one trace.
TEST(Rpc, TraceStitchesCallPullChunkReply) {
  RuntimeOptions opts = rpc_opts();
  opts.tracing = true;
  Runtime rt(opts);
  std::atomic<bool> done{false};

  run_mpmd(rt, {[&](Context& ctx) {
                  Client cl(ctx);
                  const BulkHandle h = cl.register_bulk(bytes_of(20000, 'x'));
                  util::PackBuffer args(4);
                  const auto res = cl.wait(cl.call_bulk(1, "sum", args, h));
                  EXPECT_EQ(res.status, CallStatus::Ok) << res.error;
                  done.store(true, std::memory_order_release);
                },
                server_fn(done, [](Server& srv) {
                  srv.serve("sum", [](CallContext& cc) {
                    util::PackBuffer pb(8);
                    pb.put_u64(cc.bulk().size());
                    cc.respond(pb);
                  });
                })});

  std::uint64_t call_trace = 0;
  for (const auto& ev : rt.telemetry().tracer().events()) {
    if (ev.phase == telemetry::Phase::RpcCall && ev.trace != 0) {
      call_trace = ev.trace;
    }
  }
  ASSERT_NE(call_trace, 0u);
  bool saw_pull = false, saw_chunk = false, saw_reply = false;
  for (const auto& ev : nexus::testing::events_of_trace(rt, call_trace)) {
    if (ev.phase == telemetry::Phase::RpcPull) saw_pull = true;
    if (ev.phase == telemetry::Phase::RpcChunk) saw_chunk = true;
    if (ev.phase == telemetry::Phase::RpcReply) saw_reply = true;
  }
  EXPECT_TRUE(saw_pull);
  EXPECT_TRUE(saw_chunk);
  EXPECT_TRUE(saw_reply);
}

TEST(Rpc, MetricsReachEveryExportFormat) {
  Runtime rt(rpc_opts());
  std::atomic<bool> done{false};

  run_mpmd(rt, {[&](Context& ctx) {
                  Client cl(ctx);
                  util::PackBuffer args(4);
                  cl.wait(cl.call(1, "echo", args));
                  CallOptions opts;
                  opts.timeout = 2 * kMs;
                  cl.wait(cl.call(1, "ghost.service.on.live.server", args));
                  done.store(true, std::memory_order_release);
                },
                server_fn(done, [](Server& srv) {
                  srv.serve("echo", [](CallContext&) {});
                })});

  const std::string text = rt.telemetry().metrics().to_text();
  EXPECT_NE(text.find("rpc: calls"), std::string::npos) << text;
  const std::string json = rt.telemetry().metrics().to_json();
  for (const char* field : {"\"rpc_calls\":", "\"rpc_deadline_exceeded\":",
                            "\"rpc_cancelled\":", "\"rpc_rejected\":",
                            "\"rpc_bulk_pull_chunks\":", "\"rpc_call_ns\":"}) {
    EXPECT_NE(json.find(field), std::string::npos) << field;
  }
  const std::string prom = rt.telemetry().metrics().to_prometheus();
  for (const char* name :
       {"nexus_rpc_calls_total", "nexus_rpc_deadline_exceeded_total",
        "nexus_rpc_rejected_total", "nexus_rpc_call_ns",
        "nexus_rpc_bulk_mb_s"}) {
    EXPECT_NE(prom.find(name), std::string::npos) << name;
  }
}

}  // namespace
