// Gateway drain-and-kill scenario (docs/ARCHITECTURE.md §14).
//
// A cluster partition sits behind a forwarding gateway: external TCP
// traffic lands on the gateway, which relays it over the internal MPL
// fabric (paper §3.3).  The gateway needs a kernel upgrade, so operations
// drains it -- drain_forwarding() hands its relay duty to a sibling node --
// and then kills it, modelled here as a FaultPlan crash rule.  Clients keep
// streaming image tiles throughout:
//
//   batch 1  (t ~ 0)     client -> tcp -> gateway -> mpl -> sink
//   batch 2  (t ~ 6 ms)  gateway draining: client -> tcp -> gateway
//                        -> mpl -> sibling -> mpl -> sink
//   batch 3  (t ~ 13 ms) gateway dead: tcp toward its landing host fails
//                        with a Dead verdict, the health tracker
//                        quarantines it, and the link fails over to the
//                        slower direct "secure" backup path -- no tile is
//                        lost.
//
// The client code never mentions the gateway, the sibling, or the backup
// path: every reroute is the runtime's decision (paper §2: "applications
// need to be able to switch among alternative communication substrates in
// the event of error").
#include <cstdio>

#include <atomic>
#include <functional>
#include <vector>

#include "nexus/runtime.hpp"

using namespace nexus;
using simnet::kMs;
using simnet::kUs;

int main() {
  constexpr int kClients = 2;
  constexpr int kBatches = 3;
  constexpr int kTilesPerBatch = 4;
  constexpr int kTotal = kClients * kBatches * kTilesPerBatch;

  RuntimeOptions opts;
  // Partition 0 = {0, 1} clients; partition 1 = {2, 3, 4} cluster with
  // context 2 forwarding, context 3 the drain sibling, context 4 the sink.
  opts.topology = simnet::Topology::two_partitions(2, 3);
  opts.forwarders[1] = 2;
  opts.modules = {"local", "mpl", "tcp", "secure"};
  // "secure" plays the direct backup here (an encrypted hop that bypasses
  // the gateway).  Its speed rank sits behind tcp's, so the table keeps
  // the tcp-via-gateway route first while the gateway lives; the backup
  // only carries traffic once tcp is quarantined.
  // The kill: the gateway goes down hard at 12 ms and stays down past the
  // whole workload.  (A finite window keeps the schedule restartable; the
  // incarnation it would come back with is 2.)
  opts.faults.crash(2, 12 * kMs, 5000 * kMs);

  Runtime rt(opts);
  rt.telemetry().tracer().enable();

  std::atomic<bool> drained{false};
  std::atomic<bool> all_done{false};
  std::atomic<int> tiles{0};
  std::uint32_t gateway_incarnation = 0;

  auto client = [&](Context& ctx) {
    Startpoint sp = ctx.world_startpoint(4);
    auto send_batch = [&](int batch) {
      for (int t = 0; t < kTilesPerBatch; ++t) {
        util::PackBuffer pb(16);
        pb.put_u64(static_cast<std::uint64_t>(ctx.id()) << 32 |
                   static_cast<std::uint64_t>(batch * kTilesPerBatch + t));
        // Failover is the runtime's job; the retry loop only covers the
        // moment every path is briefly quarantined at once.
        for (int attempt = 0; attempt < 20; ++attempt) {
          try {
            ctx.rsr(sp, "tile", pb);
            break;
          } catch (const util::MethodError&) {
            ctx.compute_with_polling(2 * kMs, 200 * kUs);
          }
        }
      }
    };
    send_batch(0);
    while (!drained.load(std::memory_order_acquire) && ctx.now() < 100 * kMs) {
      ctx.compute_with_polling(200 * kUs, 50 * kUs);
    }
    send_batch(1);  // gateway draining: relayed via the sibling
    while (ctx.now() < 13 * kMs) ctx.compute_with_polling(200 * kUs, 50 * kUs);
    send_batch(2);  // gateway dead: fails over to the direct backup path
    while (!all_done.load(std::memory_order_acquire) && ctx.now() < 300 * kMs) {
      ctx.compute_with_polling(1 * kMs, 200 * kUs);
    }
  };

  rt.run(std::vector<std::function<void(Context&)>>{
      client, client,
      [&](Context& ctx) {  // gateway
        while (ctx.now() < 6 * kMs) ctx.compute_with_polling(100 * kUs, 25 * kUs);
        ctx.drain_forwarding(3);  // hand relay duty to the sibling, flush
        std::printf("[gateway] drained toward sibling 3 at %.2f ms\n",
                    static_cast<double>(ctx.now()) / kMs);
        drained.store(true, std::memory_order_release);
        // Keep relaying batch 2 until the kill lands; the crash rule wipes
        // the context and parks it past the end of its window.
        while (ctx.now() < 20 * kMs) ctx.compute_with_polling(500 * kUs, 100 * kUs);
        gateway_incarnation = ctx.incarnation();
        std::printf("[gateway] back at %.2f ms as incarnation %u\n",
                    static_cast<double>(ctx.now()) / kMs, ctx.incarnation());
      },
      [&](Context& ctx) {  // drain sibling: relays whatever lands on it
        while (!all_done.load(std::memory_order_acquire) &&
               ctx.now() < 300 * kMs) {
          ctx.compute_with_polling(200 * kUs, 50 * kUs);
        }
      },
      [&](Context& ctx) {  // sink
        ctx.register_handler("tile",
                             [&](Context&, Endpoint&, util::UnpackBuffer& ub) {
                               (void)ub.get_u64();
                               tiles.fetch_add(1, std::memory_order_release);
                             });
        while (tiles.load(std::memory_order_acquire) < kTotal &&
               ctx.now() < 300 * kMs) {
          ctx.compute_with_polling(1 * kMs, 200 * kUs);
        }
        std::printf("[sink] %d/%d tiles (mpl recvs %llu, secure recvs %llu)\n",
                    tiles.load(), kTotal,
                    static_cast<unsigned long long>(
                        ctx.method_counters("mpl").recvs),
                    static_cast<unsigned long long>(
                        ctx.method_counters("secure").recvs));
        all_done.store(true, std::memory_order_release);
      }});

  const telemetry::Tracer& tracer = rt.telemetry().tracer();
  std::size_t forwards = 0;
  for (const auto& ev : tracer.events()) {
    if (ev.phase == telemetry::Phase::Forward &&
        tracer.label_name(ev.label) == "mpl") {
      ++forwards;
    }
  }
  std::printf("gateway incarnation %u, %llu mpl forward hops recorded\n",
              gateway_incarnation,
              static_cast<unsigned long long>(forwards));
  if (tiles.load() != kTotal) {
    std::printf("LOST TILES: %d of %d arrived\n", tiles.load(), kTotal);
    return 1;
  }
  std::printf("zero lost tiles across drain and kill\n");
  return 0;
}
