// rsr_stream / rt_stream: one driver streams a seeded mix of RSRs in fenced
// windows; each window ends with a mark RSR that every receiver acks.
//
//   rsr_stream  simulated fabric, two partitions {driver, 8 receivers} and
//               {gateway, far receiver}; unicast 16 B / 1 KiB / 64 KiB to a
//               seeded receiver, 8-way multicast 1 KiB (one startpoint with
//               eight links), and 1 KiB forwarded through the gateway.
//               Large sim_slack, as in bench/micro_rsr_hotpath, so contexts
//               drain long batches per scheduler hand-off.
//   rt_stream   realtime fabric, 3 contexts (driver + 2 receivers, one OS
//               thread each); unicast plus 2-way multicast, 512 RSRs per
//               window.  The receivers run SCHED_BATCH: on the one CPU the
//               process is pinned to, a receiver woken by the driver's send
//               then waits for the driver to block instead of preempting
//               it, so a window's latency no longer depends on how many of
//               its sends the kernel chose to preempt (the tail windows had
//               ~15 involuntary switches against ~5 for the median one).
//
// Op = one delivered data RSR; latency sample = one window (first send to
// last ack).  Check: every receiver saw exactly the message ids sent to it,
// each once.  One episode = one Runtime: warm-up windows, then timed ones.
#include <sched.h>

#include <algorithm>
#include <array>

#include "workloads.hpp"

namespace pb {
namespace {

using nexus::Context;
using nexus::ContextId;
using nexus::Startpoint;

enum Kind : std::uint8_t { U16, U1K, U64K, M8, M2, F1K, kKinds };
constexpr const char* kKindName[kKinds] = {"unicast_16", "unicast_1k",
                                           "unicast_64k", "mcast8_1k",
                                           "mcast2_1k", "forward_1k"};
constexpr std::size_t kKindBytes[kKinds] = {16, 1024, 65536, 1024, 1024, 1024};

struct Spec {
  bool realtime = false;  ///< realtime fabric, SCHED_BATCH receivers
  nexus::simnet::Topology topo = nexus::simnet::Topology::single_partition(2);
  std::map<int, ContextId> forwarders;
  std::vector<ContextId> near;  ///< unicast / multicast receivers
  ContextId far = nexus::kNoContext;      ///< forwarded-to receiver
  ContextId gateway = nexus::kNoContext;  ///< forwarding node
  std::array<unsigned, kKinds> weights{};
  int window = 128;  ///< data RSRs per window
  int warmup = 2;    ///< untimed windows per episode
  int windows = 1;   ///< timed windows per episode
};

struct Op {
  Kind kind;
  ContextId to;  ///< unicast target (unused for multicast / forward)
};

/// Per-receiver bookkeeping, touched only by that receiver's thread until
/// the run ends.
struct Receiver {
  std::vector<std::uint8_t> seen;  ///< by message id
  std::uint64_t got = 0;
  std::uint64_t dups = 0;
  std::uint64_t expected = 0;
};

std::vector<std::vector<Op>> generate(const Spec& s, Rng& rng) {
  std::vector<unsigned> w(s.weights.begin(), s.weights.end());
  std::vector<std::vector<Op>> out(static_cast<std::size_t>(s.warmup + s.windows));
  for (auto& win : out) {
    win.reserve(static_cast<std::size_t>(s.window));
    for (int i = 0; i < s.window; ++i) {
      const auto k = static_cast<Kind>(rng.pick(w));
      win.push_back({k, s.near[rng.below(s.near.size())]});
    }
  }
  return out;
}

struct Totals {
  std::array<Hist, kKinds> rsr_kind;
  Hist rsr_all;
  Counters counters;
};

void episode(const Spec& spec, const std::vector<std::vector<Op>>& plan,
             std::uint64_t seed, Result& r, Totals& tot) {
  const std::int64_t t_setup = wall_ns();
  nexus::RuntimeOptions opts;
  opts.topology = spec.topo;
  opts.forwarders = spec.forwarders;
  opts.seed = seed;
  if (spec.realtime) {
    opts.fabric = nexus::RuntimeOptions::Fabric::Realtime;
  } else {
    opts.sim_slack = 10 * nexus::simnet::kSec;
  }
  const std::size_t world = opts.topology.size();
  nexus::Runtime rt(opts);

  // Expected deliveries per receiver, message ids dense per episode.
  std::vector<Receiver> rx(world);
  std::vector<ContextId> all = spec.near;
  if (spec.far != nexus::kNoContext) all.push_back(spec.far);
  std::uint64_t msgs = 0;
  std::uint64_t timed_deliveries = 0;
  for (std::size_t w = 0; w < plan.size(); ++w) {
    for (const Op& op : plan[w]) {
      std::uint64_t n = 1;
      if (op.kind == M8 || op.kind == M2) {
        for (ContextId c : spec.near) ++rx[c].expected;
        n = spec.near.size();
      } else {
        ++rx[op.kind == F1K ? spec.far : op.to].expected;
      }
      if (w >= static_cast<std::size_t>(spec.warmup)) timed_deliveries += n;
      ++msgs;
    }
  }
  for (ContextId c : all) rx[c].seen.assign(msgs, 0);

  const nexus::HandlerId h_sink = Context::resolve_handler("sink");
  const nexus::HandlerId h_mark = Context::resolve_handler("mark");
  const nexus::HandlerId h_ack = Context::resolve_handler("ack");
  const nexus::HandlerId h_stop = Context::resolve_handler("stop");
  TimedPhase phase(r);

  std::vector<std::function<void(Context&)>> fns(world);
  fns[0] = [&](Context& ctx) {
    Ledger::get().enroll();
    std::vector<Startpoint> to(world);
    for (ContextId c : all) to[c] = ctx.world_startpoint(c);
    Startpoint group, everyone;
    for (ContextId c : spec.near) group.links().push_back(to[c].link(0));
    for (ContextId c : all) everyone.links().push_back(to[c].link(0));
    std::uint64_t acks = 0;
    ctx.register_handler("ack", [&](Context&, nexus::Endpoint&,
                                    nexus::util::UnpackBuffer&) {
      Span h(Layer::Handler);
      ++acks;
    });

    std::array<nexus::util::Bytes, kKinds> src;
    for (int k = 0; k < kKinds; ++k) src[k].assign(kKindBytes[k], 0xa5);
    std::vector<nexus::util::SharedBytes> payload(static_cast<std::size_t>(spec.window));
    std::uint64_t next_id = 0;
    std::uint64_t marks = 0;
    Counters c0;

    for (std::size_t w = 0; w < plan.size(); ++w) {
      const bool timed = w >= static_cast<std::size_t>(spec.warmup);
      if (w == static_cast<std::size_t>(spec.warmup)) {
        r.setup_s.push_back(static_cast<double>(wall_ns() - t_setup) * 1e-9);
        if (g_tracing && !spec.realtime) c0 = Counters::read(rt);
        phase.start();
      }
      const std::int64_t w0 = wall_ns();
      const std::vector<Op>& ops = plan[w];
      {
        Span s(Layer::Payload);
        for (std::size_t i = 0; i < ops.size(); ++i) {
          nexus::util::Bytes& b = src[ops[i].kind];
          const std::uint64_t id = next_id++;
          for (int j = 0; j < 8; ++j) {
            b[static_cast<std::size_t>(j)] =
                static_cast<nexus::util::Byte>(id >> (56 - 8 * j));
          }
          payload[i] = nexus::util::SharedBytes::copy_of(b);
        }
      }
      for (std::size_t i = 0; i < ops.size(); ++i) {
        const Op& op = ops[i];
        Startpoint& sp = op.kind == M8 || op.kind == M2 ? group
                         : op.kind == F1K               ? to[spec.far]
                                                        : to[op.to];
        Span s(Layer::Rsr);
        ctx.rsr(sp, h_sink, std::move(payload[i]));
        const std::int64_t ns = s.finish();
        if (g_tracing && timed) {
          tot.rsr_kind[op.kind].add(static_cast<std::uint64_t>(ns));
          tot.rsr_all.add(static_cast<std::uint64_t>(ns));
        }
      }
      {
        Span s(Layer::Rsr);
        ctx.rsr(everyone, h_mark);
      }
      ++marks;
      {
        Span s(Layer::Wait, &ctx);
        ctx.wait_count(acks, marks * all.size());
      }
      if (timed) r.lat_us.push_back(static_cast<double>(wall_ns() - w0) * 1e-3);
    }
    phase.stop();
    if (g_tracing && !spec.realtime) tot.counters += Counters::read(rt) - c0;
    for (ContextId c : all) ctx.rsr(to[c], h_stop);
    if (spec.gateway != nexus::kNoContext) {
      Startpoint gw = ctx.world_startpoint(spec.gateway);
      ctx.rsr(gw, h_stop);
    }
  };
  for (ContextId c : all) {
    fns[c] = [&, c](Context& ctx) {
      if (spec.realtime) {
        const sched_param batch{};
        sched_setscheduler(0, SCHED_BATCH, &batch);
      } else {
        Ledger::get().enroll();
      }
      Receiver& me = rx[c];
      Startpoint back = ctx.world_startpoint(0);
      bool stop = false;
      ctx.register_handler("sink", [&](Context&, nexus::Endpoint&,
                                       nexus::util::UnpackBuffer& ub) {
        Span h(Layer::Handler);
        const std::uint64_t id = ub.get_u64();
        if (id >= me.seen.size() || me.seen[id] != 0) {
          ++me.dups;
        } else {
          me.seen[id] = 1;
          ++me.got;
        }
      });
      ctx.register_handler("mark", [&](Context& cx, nexus::Endpoint&,
                                       nexus::util::UnpackBuffer&) {
        Span h(Layer::Handler);
        cx.rsr(back, h_ack);
      });
      ctx.register_handler("stop", [&](Context&, nexus::Endpoint&,
                                       nexus::util::UnpackBuffer&) {
        stop = true;
      });
      Span s(Layer::Wait);
      ctx.wait([&] { return stop; });
    };
  }
  if (spec.gateway != nexus::kNoContext) {
    fns[spec.gateway] = [&](Context& ctx) {
      Ledger::get().enroll();
      bool stop = false;
      ctx.register_handler("stop", [&](Context&, nexus::Endpoint&,
                                       nexus::util::UnpackBuffer&) {
        stop = true;
      });
      Span s(Layer::Wait);
      ctx.wait([&] { return stop; });
    };
  }
  rt.run(std::move(fns));
  if (g_tracing && spec.realtime) tot.counters += Counters::read(rt);

  // Every receiver saw exactly what was sent to it, each message once.
  std::uint64_t bad = 0;
  for (ContextId c : all) {
    const Receiver& x = rx[c];
    const std::uint64_t miss =
        x.expected > x.got ? x.expected - x.got : x.got - x.expected;
    if (miss + x.dups != 0) {
      r.fail("receiver " + std::to_string(c) + ": got " +
             std::to_string(x.got) + " of " + std::to_string(x.expected) +
             ", " + std::to_string(x.dups) + " duplicates");
    }
    bad += miss + x.dups;
  }
  bad = std::min(bad, timed_deliveries);
  r.attempted += timed_deliveries;
  r.failed += bad;
  r.ops += timed_deliveries - bad;
}

void run_stream(const Args& args, Spec spec, Result& r) {
  r.sample = "one window of " + std::to_string(spec.window) + " RSRs";
  Rng rng(args.seed);
  Totals tot;
  if (args.tiny) spec.windows = 20;
  do {
    const auto plan = generate(spec, rng);
    pin_to_quietest_cpu();
    episode(spec, plan, args.seed, r, tot);
  } while (!args.tiny &&
           r.timed_s * (1.0 + 0.5 / static_cast<double>(r.setup_s.size())) <
               args.seconds);

  if (!g_tracing) return;
  const double ops = static_cast<double>(r.ops);
  r.layer["nexus.rsr_ns_p50"] = tot.rsr_all.quantile(0.5);
  r.layer["nexus.rsr_ns_p99"] = tot.rsr_all.quantile(0.99);
  for (int k = 0; k < kKinds; ++k) {
    if (tot.rsr_kind[k].count() == 0) continue;
    r.layer[std::string("nexus.rsr_ns.") + kKindName[k]] =
        tot.rsr_kind[k].quantile(0.5);
  }
  const double denom =
      spec.realtime
          ? ops * static_cast<double>(spec.warmup + spec.windows) / spec.windows
          : ops;
  tot.counters.emit(denom, r.layer);
}

}  // namespace

void run_rsr_stream(const Args& args, Result& r) {
  Spec s;
  s.topo = nexus::simnet::Topology::two_partitions(9, 2);
  s.gateway = 9;
  s.far = 10;
  s.forwarders[1] = s.gateway;
  for (ContextId c = 1; c <= 8; ++c) s.near.push_back(c);
  s.weights = {40, 25, 5, 10, 0, 20};
  s.windows = 1500;
  run_stream(args, s, r);
}

void run_rt_stream(const Args& args, Result& r) {
  Spec s;
  s.realtime = true;
  s.topo = nexus::simnet::Topology::single_partition(3);
  s.near = {1, 2};
  s.weights = {45, 30, 5, 0, 20, 0};
  s.window = 512;
  s.windows = 375;
  run_stream(args, s, r);
}

}  // namespace pb
