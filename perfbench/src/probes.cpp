// Layer probes and enquiry-API counter snapshots shared by the workloads.
#include <string>

#include "simnet/process.hpp"
#include "simnet/scheduler.hpp"
#include "workloads.hpp"

namespace pb {

double dispatch_probe_ns(int procs, int yields) {
  nexus::simnet::Scheduler sched;
  for (int p = 0; p < procs; ++p) {
    sched.spawn("probe" + std::to_string(p), [yields] {
      nexus::simnet::SimProcess* me = nexus::simnet::SimProcess::current();
      for (int i = 0; i < yields; ++i) me->yield();
    });
  }
  const std::int64_t t0 = wall_ns();
  sched.run();
  const std::int64_t t1 = wall_ns();
  // One dispatch per yield plus the first and last hand-off per process.
  const double dispatches = static_cast<double>(procs) * (yields + 1);
  return static_cast<double>(t1 - t0) / dispatches;
}

namespace {
constexpr const char* kMethods[] = {"local", "mpl", "tcp", "rel+udp"};

std::string key_name(const char* method) {
  return std::string(method) == "rel+udp" ? "rel_udp" : method;
}
}  // namespace

Counters Counters::read(nexus::Runtime& rt) {
  Counters c;
  auto& metrics = rt.telemetry().metrics();
  for (nexus::ContextId id = 0; id < rt.world_size(); ++id) {
    nexus::Context& ctx = rt.context(id);
    for (const char* m : kMethods) {
      if (ctx.module(m) == nullptr) continue;
      const auto& mc = ctx.method_counters(m);
      const std::string k = key_name(m);
      c.v["sends." + k] += static_cast<double>(mc.sends);
      c.v["bytes." + k] += static_cast<double>(mc.bytes_sent);
      c.v["polls." + k] += static_cast<double>(mc.polls);
      c.v["send_errors"] += static_cast<double>(mc.send_errors);
      c.v["rel.retransmits"] += static_cast<double>(mc.rel_retransmits);
      c.v["rel.dup_drops"] += static_cast<double>(mc.rel_dup_drops);
      c.v["rel.acks"] += static_cast<double>(mc.rel_acks_sent);
    }
    c.v["delivered"] += static_cast<double>(ctx.rsrs_delivered());
    c.v["poll_iters"] += static_cast<double>(ctx.polling_engine().iterations());
    const auto& cm = metrics.context(id);
    c.v["failovers"] += static_cast<double>(cm.failovers);
    c.v["suspects"] += static_cast<double>(cm.suspects);
    c.v["rpc.late_replies"] += static_cast<double>(cm.rpc_late_replies);
    c.v["rpc.bulk_chunks"] += static_cast<double>(cm.rpc_bulk_pull_chunks);
  }
  return c;
}

Counters Counters::operator-(const Counters& o) const {
  Counters d = *this;
  for (const auto& [k, x] : o.v) d.v[k] -= x;
  return d;
}

Counters& Counters::operator+=(const Counters& o) {
  for (const auto& [k, x] : o.v) v[k] += x;
  return *this;
}

void Counters::emit(double ops, std::map<std::string, double>& layer) const {
  if (ops <= 0) return;
  const Counters& c = *this;
  for (const char* m : {"local", "mpl", "tcp", "rel_udp"}) {
    layer[std::string("nexus.sends_per_op.") + m] = c[std::string("sends.") + m] / ops;
  }
  for (const char* m : {"mpl", "tcp", "rel_udp"}) {
    layer[std::string("nexus.bytes_per_op.") + m] = c[std::string("bytes.") + m] / ops;
  }
  layer["nexus.polls_per_op.tcp"] = c["polls.tcp"] / ops;
  layer["nexus.send_errors_per_op"] = c["send_errors"] / ops;
  layer["nexus.delivered_per_op"] = c["delivered"] / ops;
  layer["nexus.poll_iters_per_op"] = c["poll_iters"] / ops;
  layer["nexus.failovers_per_op"] = c["failovers"] / ops;
  layer["nexus.suspects_per_op"] = c["suspects"] / ops;
  layer["rel.retransmits_per_op"] = c["rel.retransmits"] / ops;
  layer["rel.dup_drops_per_op"] = c["rel.dup_drops"] / ops;
  layer["rel.acks_per_op"] = c["rel.acks"] / ops;
  layer["rpc.late_replies"] = c["rpc.late_replies"];
}

}  // namespace pb
