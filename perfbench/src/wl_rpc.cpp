// rpc_lossy: two closed-loop clients (partition 0) call one server
// (partition 1) over {local, mpl, tcp, rel+udp} at the shipped 1% undetected
// udp loss and sim_slack 0.  The seeded mix is 90% 16 B echo and 10% 64 KiB
// pulled-bulk calls, each with a 2 s (virtual) deadline.
//
// Op = one call ending Ok; latency sample = one call, issue to terminal
// status.  Check: every call reaches exactly one terminal status, and each
// Ok reply carries the echoed value or the bulk size.
//
// One episode (one Runtime) runs kCalls calls per client; episodes repeat
// until the timed budget is spent.  rpc.bulk_window is lowered from its
// shipped 4 to 2: at 4 a few 64 KiB pulls per run stall past their
// deadline (the cliff recorded in perfbench/NOTES.md).
#include <array>

#include "proto/rpc/rpc.hpp"
#include "workloads.hpp"

namespace pb {
namespace {

using nexus::Context;
using nexus::ContextId;
using nexus::proto::rpc::CallContext;
using nexus::proto::rpc::CallOptions;
using nexus::proto::rpc::CallResult;
using nexus::proto::rpc::CallStatus;
using nexus::proto::rpc::Client;
using nexus::proto::rpc::Server;

constexpr int kClients = 2;
constexpr ContextId kServer = 2;
constexpr int kCalls = 50;  // timed calls per client per episode
constexpr int kWarmup = 8;   // untimed calls per client per episode
constexpr std::uint64_t kBulkBytes = 65536;
constexpr nexus::Time kDeadline = 2 * nexus::simnet::kSec;

struct Call {
  bool bulk = false;
  std::uint64_t value = 0;  ///< echo argument
};

struct Totals {
  Hist wait_ns, echo_ns, bulk_ns;
  std::vector<double> virt_us;
  std::uint64_t ok = 0, deadline = 0, other = 0, bulk_calls = 0;
  Counters counters;
};

/// Poll (advancing virtual time through silences, as Client::wait does)
/// until another context flips shared state: ctx.wait() would park this
/// context forever, since no message announces the change.
template <class Pred>
void poll_until(Context& ctx, Pred done) {
  Span w(Layer::Wait);
  while (!done()) {
    if (!ctx.progress()) {
      ctx.compute_with_polling(50 * nexus::simnet::kUs, 50 * nexus::simnet::kUs);
    }
  }
}

std::uint64_t read_u64(const CallResult& res) {
  if (res.payload.size() < 8) return ~0ull;
  nexus::util::UnpackBuffer ub(res.payload.span());
  return ub.get_u64();
}

void episode(const std::array<std::vector<Call>, kClients>& plan,
             std::uint64_t seed, Result& r, Totals& tot) {
  const std::int64_t t_setup = wall_ns();
  nexus::RuntimeOptions opts;
  opts.topology = nexus::simnet::Topology::two_partitions(kClients, 1);
  opts.modules = {"local", "mpl", "tcp", "rel+udp"};
  // The shipped bulk window of 4 lets a 64 KiB pull stall past its
  // deadline (the cliff in NOTES.md); 2 keeps every call Ok.
  opts.db.set("rpc.bulk_window", "2");
  opts.seed = seed;
  nexus::Runtime rt(opts);
  TimedPhase phase(r);
  Counters c0;
  int ready = 0;
  bool started = false;
  int finished = 0;  // contexts run one at a time on the simulated fabric
  std::uint64_t terminal = 0;  // timed calls that reached a terminal status

  auto client = [&](Context& ctx) {
    Ledger::get().enroll();
    Client cl(ctx);
    const auto h = cl.register_bulk(nexus::util::SharedBytes(
        nexus::util::Bytes(kBulkBytes, static_cast<nexus::util::Byte>(ctx.id()))));
    const std::vector<Call>& calls = plan[ctx.id()];
    for (std::size_t i = 0; i < calls.size(); ++i) {
      const bool timed = i >= static_cast<std::size_t>(kWarmup);
      if (i == static_cast<std::size_t>(kWarmup)) {
        ++ready;
        poll_until(ctx, [&] { return ready == kClients; });
        if (!started) {  // the first client past the barrier opens the phase
          started = true;
          r.setup_s.push_back(static_cast<double>(wall_ns() - t_setup) * 1e-9);
          if (g_tracing) c0 = Counters::read(rt);
          phase.start();
        }
      }
      const Call& c = calls[i];
      nexus::util::PackBuffer args(16);
      args.put_u64(c.bulk ? kBulkBytes : c.value);
      args.put_u64(i);
      CallOptions copts;
      copts.timeout = kDeadline;
      const std::int64_t w0 = wall_ns();
      const nexus::Time v0 = ctx.now();
      nexus::proto::rpc::CallId id = 0;
      {
        Span s(Layer::RpcIssue);
        id = c.bulk ? cl.call_bulk(kServer, "bulk", args, h, copts)
                    : cl.call(kServer, "echo", args, copts);
      }
      Span ws(Layer::RpcWait, &ctx);
      const CallResult res = cl.wait(id);
      const std::int64_t wait_ns = ws.finish();
      if (!timed) continue;
      if (res.status != CallStatus::Pending) ++terminal;
      ++(res.status == CallStatus::Ok                 ? tot.ok
         : res.status == CallStatus::DeadlineExceeded ? tot.deadline
                                                      : tot.other);
      const std::int64_t ns = wall_ns() - w0;
      r.lat_us.push_back(static_cast<double>(ns) * 1e-3);
      ++r.attempted;
      const bool good = res.status == CallStatus::Ok &&
                        read_u64(res) == (c.bulk ? kBulkBytes : c.value);
      if (res.status == CallStatus::Ok && !good) {
        r.fail("call " + std::to_string(i) + ": wrong reply");
      }
      if (good) ++r.ops; else ++r.failed;
      if (g_tracing) {
        tot.wait_ns.add(static_cast<std::uint64_t>(wait_ns));
        (c.bulk ? tot.bulk_ns : tot.echo_ns).add(static_cast<std::uint64_t>(ns));
        tot.virt_us.push_back(static_cast<double>(ctx.now() - v0) * 1e-3);
        tot.bulk_calls += c.bulk ? 1 : 0;
      }
    }
    if (cl.outstanding() != 0) r.fail("calls left outstanding");
    if (++finished == kClients) {
      phase.stop();
      if (g_tracing) tot.counters += Counters::read(rt) - c0;
    }
    // Stay reachable until the other client is done: the server may still
    // be pulling or acking toward this context.
    poll_until(ctx, [&] { return finished == kClients; });
  };

  auto server = [&](Context& ctx) {
    Ledger::get().enroll();
    Server srv(ctx);
    srv.serve("echo", [](CallContext& cc) {
      Span s(Layer::RpcServerHandler);
      auto ub = cc.args();
      nexus::util::PackBuffer pb(8);
      pb.put_u64(ub.get_u64());
      cc.respond(pb);
    });
    srv.serve("bulk", [](CallContext& cc) {
      Span s(Layer::RpcServerHandler);
      nexus::util::PackBuffer pb(8);
      pb.put_u64(cc.bulk().size());
      cc.respond(pb);
    });
    while (finished < kClients) {
      {
        Span w(Layer::Wait);
        if (!ctx.progress()) {
          ctx.compute_with_polling(50 * nexus::simnet::kUs,
                                   50 * nexus::simnet::kUs);
        }
      }
      Span s(Layer::RpcServerService);
      srv.service();
    }
  };
  rt.run(std::vector<std::function<void(Context&)>>{client, client, server});

  std::uint64_t issued = 0;
  for (const auto& p : plan) issued += p.size() - kWarmup;
  if (terminal != issued) {
    r.fail("only " + std::to_string(terminal) + " of " +
           std::to_string(issued) + " calls reached a terminal status");
  }
}

}  // namespace

void run_rpc_lossy(const Args& args, Result& r) {
  r.sample = "one call, issue to terminal status";
  Rng rng(args.seed);
  Totals tot;
  const int calls = args.tiny ? kWarmup + 20 : kWarmup + kCalls;
  do {
    std::array<std::vector<Call>, kClients> plan;
    for (auto& p : plan) {
      for (int i = 0; i < calls; ++i) p.push_back({rng.below(10) == 0, rng.next()});
    }
    pin_to_quietest_cpu();
    episode(plan, args.seed, r, tot);
  } while (!args.tiny &&
           r.timed_s * (1.0 + 0.5 / static_cast<double>(r.setup_s.size())) <
               args.seconds);

  if (!g_tracing) return;
  const double n = static_cast<double>(r.attempted);
  const Ledger& led = Ledger::get();
  r.layer["rpc.issue_us"] = led.incl_ns(Layer::RpcIssue) / led.calls(Layer::RpcIssue) / 1e3;
  r.layer["rpc.wait_us_p50"] = tot.wait_ns.quantile(0.5) / 1e3;
  r.layer["rpc.wait_us_p99"] = tot.wait_ns.quantile(0.99) / 1e3;
  r.layer["rpc.echo_us_p50"] = tot.echo_ns.quantile(0.5) / 1e3;
  r.layer["rpc.bulk_us_p50"] = tot.bulk_ns.quantile(0.5) / 1e3;
  r.layer["rpc.server_handler_us"] =
      led.incl_ns(Layer::RpcServerHandler) / led.calls(Layer::RpcServerHandler) / 1e3;
  r.layer["rpc.server_service_us"] = led.incl_ns(Layer::RpcServerService) / n / 1e3;
  r.layer["rpc.call_virt_us_p50"] = percentile(tot.virt_us, 0.5);
  r.layer["rpc.call_virt_us_p99"] = percentile(tot.virt_us, 0.99);
  r.layer["rpc.status.ok"] = static_cast<double>(tot.ok) / n;
  r.layer["rpc.status.deadline_exceeded"] = static_cast<double>(tot.deadline) / n;
  r.layer["rpc.status.other"] = static_cast<double>(tot.other) / n;
  tot.counters.emit(static_cast<double>(r.ops), r.layer);
  r.layer["rpc.bulk_chunks_per_call"] =
      tot.bulk_calls > 0 ? tot.counters["rpc.bulk_chunks"] /
                               static_cast<double>(tot.bulk_calls)
                         : 0.0;
}

}  // namespace pb
