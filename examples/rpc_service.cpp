// Replicated RPC service behind a gateway tier (docs/ARCHITECTURE.md §15).
//
// Partition 0 holds two concurrent clients; partition 1 is a cluster of
// {gateway, replica A, replica B} reached through the gateway's forwarding
// relay (paper §3.3).  Each client issues a stream of deadline-bounded
// lookup calls alternating across the replicas, plus one bulk-described
// ingest call whose 64 KB payload the serving replica pulls in chunks.
//
// Mid-run, replica B is killed by an injected crash and stays down for the
// rest of the workload.  The point of the demo is what does NOT happen: no
// client hangs and no call vanishes.  Calls in flight toward the dead
// replica resolve fast with a typed status (DeadlineExceeded or PeerDied,
// depending on which detector fires first), and the client retries them on
// the surviving replica -- application-level failover layered on the
// runtime's method failover, exactly the multimethod story the paper tells.
//
// Exit status is 0 only if every call resolved to a terminal status and
// every retried call succeeded on the survivor.
#include <cstdio>

#include <atomic>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "nexus/runtime.hpp"
#include "proto/rpc/rpc.hpp"

using namespace nexus;
using proto::rpc::BulkHandle;
using proto::rpc::CallContext;
using proto::rpc::CallOptions;
using proto::rpc::CallResult;
using proto::rpc::CallStatus;
using proto::rpc::Client;
using proto::rpc::Server;
using simnet::kMs;
using simnet::kUs;

namespace {

constexpr ContextId kGateway = 2;
constexpr ContextId kReplicaA = 3;
constexpr ContextId kReplicaB = 4;
constexpr int kClients = 2;
constexpr int kCallsPerClient = 6;  // last one carries the bulk payload
constexpr Time kCallDeadline = 15 * kMs;
// The ingest call's 64 KB region is pulled chunk-by-chunk across the
// partition boundary (every chunk relayed by the gateway), so it gets a
// roomier deadline than the eager lookups.
constexpr Time kBulkDeadline = 120 * kMs;

}  // namespace

int main() {
  RuntimeOptions opts;
  opts.topology = simnet::Topology::two_partitions(2, 3);
  opts.forwarders[1] = kGateway;
  opts.modules = {"local", "mpl", "tcp"};
  // Replica B dies hard at 8 ms and stays down past the whole workload.
  opts.faults.crash(kReplicaB, 8 * kMs, 5000 * kMs);
  Runtime rt(opts);

  std::atomic<int> clients_done{0};
  std::atomic<int> unresolved{0};     // calls that never reached a terminal
  std::atomic<int> retry_failures{0}; // retries that still failed
  std::atomic<int> total_ok{0};
  std::atomic<int> total_retried{0};

  auto client = [&](Context& ctx) {
    Client cl(ctx);
    const BulkHandle bulk =
        cl.register_bulk(util::SharedBytes(util::Bytes(65536, 0xb7)));
    std::map<std::string, int> statuses;

    auto one_call = [&](ContextId replica, int i, bool with_bulk) {
      CallOptions copts;
      copts.timeout = with_bulk ? kBulkDeadline : kCallDeadline;
      util::PackBuffer args(16);
      args.put_u64(static_cast<std::uint64_t>(ctx.id()) << 32 |
                   static_cast<std::uint64_t>(i));
      const auto id = with_bulk
                          ? cl.call_bulk(replica, "ingest", args, bulk, copts)
                          : cl.call(replica, "lookup", args, copts);
      return cl.wait(id);
    };

    for (int i = 0; i < kCallsPerClient; ++i) {
      // Alternate replicas; the final call ships the bulk region.
      const bool with_bulk = i == kCallsPerClient - 1;
      const ContextId first = (i % 2 == 0) ? kReplicaA : kReplicaB;
      CallResult res = one_call(first, i, with_bulk);
      ++statuses[proto::rpc::call_status_name(res.status)];
      if (res.status == CallStatus::Pending) {
        unresolved.fetch_add(1);  // must never happen: wait() is terminal
        continue;
      }
      if (res.status != CallStatus::Ok) {
        // Typed failure: fail over to the surviving replica and try again.
        const ContextId other = first == kReplicaA ? kReplicaB : kReplicaA;
        std::printf("[client %u] call %d to ctx%u -> %s (%s); retrying on ctx%u\n",
                    ctx.id(), i, first,
                    proto::rpc::call_status_name(res.status),
                    res.error.c_str(), other);
        total_retried.fetch_add(1);
        CallResult again = one_call(other, i, with_bulk);
        if (again.status != CallStatus::Ok) {
          // The survivor must answer; two failures means a real outage.
          std::printf("[client %u] retry of call %d also failed: %s\n",
                      ctx.id(), i,
                      proto::rpc::call_status_name(again.status));
          retry_failures.fetch_add(1);
          continue;
        }
        total_ok.fetch_add(1);
        continue;
      }
      total_ok.fetch_add(1);
    }

    std::printf("[client %u] first-attempt statuses:", ctx.id());
    for (const auto& [name, n] : statuses) {
      std::printf(" %s=%d", name.c_str(), n);
    }
    std::printf("\n");
    clients_done.fetch_add(1, std::memory_order_release);
    // Stay alive a little: the survivor may still be pulling the other
    // client's bulk region from us.
    while (clients_done.load(std::memory_order_acquire) < kClients &&
           ctx.now() < 2000 * kMs) {
      ctx.compute_with_polling(500 * kUs, 100 * kUs);
    }
  };

  auto replica = [&](Context& ctx) {
    Server srv(ctx);
    std::uint64_t lookups = 0, ingested = 0;
    srv.serve("lookup", [&](CallContext& cc) {
      auto ub = cc.args();
      util::PackBuffer pb(16);
      pb.put_u64(ub.get_u64() ^ 0xfeedfacecafef00dull);
      cc.respond(pb);
      ++lookups;
    });
    srv.serve("ingest", [&](CallContext& cc) {
      ingested += cc.bulk().size();
      util::PackBuffer pb(8);
      pb.put_u64(cc.bulk().size());
      cc.respond(pb);
    });
    while (clients_done.load(std::memory_order_acquire) < kClients &&
           ctx.now() < 2000 * kMs) {
      if (!ctx.progress()) ctx.compute_with_polling(200 * kUs, 50 * kUs);
      srv.service();
    }
    std::printf("[replica %u] served %llu lookups, ingested %llu bulk bytes"
                " (incarnation %u)\n",
                ctx.id(), static_cast<unsigned long long>(lookups),
                static_cast<unsigned long long>(ingested), ctx.incarnation());
  };

  rt.run(std::vector<std::function<void(Context&)>>{
      client, client,
      [&](Context& ctx) {  // gateway: pure forwarding relay
        while (clients_done.load(std::memory_order_acquire) < kClients &&
               ctx.now() < 2000 * kMs) {
          ctx.compute_with_polling(200 * kUs, 50 * kUs);
        }
      },
      replica, replica});

  const int expected = kClients * kCallsPerClient;
  std::printf("%d/%d calls ok (%d failed over to the survivor), "
              "%d unresolved, %d failed retries\n",
              total_ok.load(), expected, total_retried.load(),
              unresolved.load(), retry_failures.load());
  if (unresolved.load() != 0 || retry_failures.load() != 0 ||
      total_ok.load() != expected) {
    std::printf("FAILURE: calls hung or were lost\n");
    return 1;
  }
  std::printf("no hangs, no lost calls: every failure was typed and retried\n");
  return 0;
}
