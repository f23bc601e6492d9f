// nexus_bench: runs one benchmark workload in this process and prints its
// metrics as one JSON line.
//
//   nexus_bench --workload <climate|rsr_stream|rpc_lossy|rt_stream>
//               --seed <n> --seconds <s> --trace <0|1> [--tiny]
//
// --trace 0 prints the end-to-end metrics; --trace 1 turns on the
// benchmark's spans, allocation counting and layer probes and prints the
// per-layer metrics instead.  Both print ops_per_s as well.
// perfbench/run.py builds this binary, runs it (twice for --trace 1, to
// report the tracing overhead, trace.overhead) and checks it.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <vector>

#include "workloads.hpp"

namespace {

using pb::Result;

struct Metric {
  const char* name;
  const char* unit;
};

// Every per-layer metric, printed on every traced run (0 where a layer does
// not run on the workload).  Units name the clock: wall_* or virt_*.
const Metric kLayerMetrics[] = {
    {"simnet.handoffs_per_op", "count"},
    {"simnet.kernel_cpu_share", "ratio"},
    {"simnet.dispatch_ns", "wall_ns"},
    {"simnet.dispatch_ns_24proc", "wall_ns"},
    {"nexus.rsr_ns_p50", "wall_ns"},
    {"nexus.rsr_ns_p99", "wall_ns"},
    {"nexus.rsr_ns.unicast_16", "wall_ns"},
    {"nexus.rsr_ns.unicast_1k", "wall_ns"},
    {"nexus.rsr_ns.unicast_64k", "wall_ns"},
    {"nexus.rsr_ns.mcast8_1k", "wall_ns"},
    {"nexus.rsr_ns.mcast2_1k", "wall_ns"},
    {"nexus.rsr_ns.forward_1k", "wall_ns"},
    {"nexus.wait_ns_per_op", "wall_ns"},
    {"nexus.wait_virt_us_per_op", "virt_us"},
    {"nexus.handler_ns_per_op", "wall_ns"},
    {"nexus.handler_calls_per_op", "count"},
    {"nexus.poll_iters_per_op", "count"},
    {"nexus.sends_per_op.local", "count"},
    {"nexus.sends_per_op.mpl", "count"},
    {"nexus.sends_per_op.tcp", "count"},
    {"nexus.sends_per_op.rel_udp", "count"},
    {"nexus.bytes_per_op.mpl", "bytes"},
    {"nexus.bytes_per_op.tcp", "bytes"},
    {"nexus.bytes_per_op.rel_udp", "bytes"},
    {"nexus.polls_per_op.tcp", "count"},
    {"nexus.send_errors_per_op", "count"},
    {"nexus.delivered_per_op", "count"},
    {"nexus.failovers_per_op", "count"},
    {"nexus.suspects_per_op", "count"},
    {"climate.halo_exchange_ms", "wall_ms"},
    {"climate.update_ms", "wall_ms"},
    {"climate.transposes_ms", "wall_ms"},
    {"climate.charge_compute_ms", "wall_ms"},
    {"climate.couple_ms", "wall_ms"},
    {"climate.halo_exchange_virt_s", "virt_s"},
    {"climate.update_virt_s", "virt_s"},
    {"climate.transposes_virt_s", "virt_s"},
    {"climate.charge_compute_virt_s", "virt_s"},
    {"climate.couple_virt_s", "virt_s"},
    {"rpc.issue_us", "wall_us"},
    {"rpc.wait_us_p50", "wall_us"},
    {"rpc.wait_us_p99", "wall_us"},
    {"rpc.echo_us_p50", "wall_us"},
    {"rpc.bulk_us_p50", "wall_us"},
    {"rpc.server_handler_us", "wall_us"},
    {"rpc.server_service_us", "wall_us"},
    {"rpc.call_virt_us_p50", "virt_us"},
    {"rpc.call_virt_us_p99", "virt_us"},
    {"rpc.status.ok", "ratio"},
    {"rpc.status.deadline_exceeded", "ratio"},
    {"rpc.status.other", "ratio"},
    {"rpc.bulk_chunks_per_call", "count"},
    {"rpc.late_replies", "count"},
    {"rel.retransmits_per_op", "count"},
    {"rel.dup_drops_per_op", "count"},
    {"rel.acks_per_op", "count"},
    {"alloc.per_op", "count"},
    {"ledger.self_ns_per_op.rsr", "wall_ns"},
    {"ledger.self_ns_per_op.wait", "wall_ns"},
    {"ledger.self_ns_per_op.handler", "wall_ns"},
    {"ledger.self_ns_per_op.payload", "wall_ns"},
    {"ledger.self_ns_per_op.rpc_issue", "wall_ns"},
    {"ledger.self_ns_per_op.rpc_wait", "wall_ns"},
    {"ledger.self_ns_per_op.rpc_server_service", "wall_ns"},
    {"ledger.self_ns_per_op.rpc_server_handler", "wall_ns"},
    {"ledger.unattributed_share", "ratio"},
};

bool parse(int argc, char** argv, pb::Args& a) {
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    auto val = [&](const char*& out) {
      if (i + 1 >= argc) return false;
      out = argv[++i];
      return true;
    };
    const char* v = nullptr;
    if (k == "--tiny") {
      a.tiny = true;
    } else if (k == "--workload" && val(v)) {
      a.workload = v;
    } else if (k == "--seed" && val(v)) {
      a.seed = std::strtoull(v, nullptr, 10);
    } else if (k == "--seconds" && val(v)) {
      a.seconds = std::strtod(v, nullptr);
    } else if (k == "--trace" && val(v)) {
      a.trace = std::strcmp(v, "0") != 0;
    } else {
      return false;
    }
  }
  return !a.workload.empty() && a.seconds > 0;
}

void put(std::string& out, const char* name, double value, const char* unit) {
  char buf[256];
  std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                out.empty() ? "" : ", ", name, value, unit);
  out += buf;
}

/// Derive the layer metrics every workload shares (rusage, ledger, allocs)
/// and add them to the workload's own.
void finish_layers(Result& r) {
  const double ops = static_cast<double>(r.ops);
  const pb::Ledger& led = pb::Ledger::get();
  const double cpu = r.cpu.user_s + r.cpu.sys_s;
  r.layer["simnet.handoffs_per_op"] = static_cast<double>(r.cpu.vcsw) / ops;
  r.layer["simnet.kernel_cpu_share"] = cpu > 0 ? r.cpu.sys_s / cpu : 0.0;
  r.layer["alloc.per_op"] = static_cast<double>(r.allocs) / ops;
  r.layer["nexus.wait_ns_per_op"] = led.self_ns(pb::Layer::Wait) / ops;
  r.layer["nexus.wait_virt_us_per_op"] =
      led.virt_ns(pb::Layer::Wait) / ops / 1e3;
  // Handler bodies are leaf spans; inclusive time also covers the realtime
  // receivers, which stay out of the sweep.
  r.layer["nexus.handler_ns_per_op"] = led.incl_ns(pb::Layer::Handler) / ops;
  r.layer["nexus.handler_calls_per_op"] = led.calls(pb::Layer::Handler) / ops;
  for (pb::Layer l : {pb::Layer::Rsr, pb::Layer::Wait, pb::Layer::Handler,
                      pb::Layer::Payload,
                      pb::Layer::RpcIssue, pb::Layer::RpcWait,
                      pb::Layer::RpcServerService,
                      pb::Layer::RpcServerHandler}) {
    r.layer[std::string("ledger.self_ns_per_op.") + pb::layer_name(l)] =
        led.self_ns(l) / ops;
  }
  r.layer["ledger.unattributed_share"] =
      led.window_ns() > 0 ? led.unattributed_ns() / led.window_ns() : 0.0;
  // The dispatch probes run last, outside every timed phase.
  pb::pin_to_quietest_cpu();
  r.layer["simnet.dispatch_ns"] = pb::dispatch_probe_ns(2, 20000);
  pb::pin_to_quietest_cpu();
  r.layer["simnet.dispatch_ns_24proc"] = pb::dispatch_probe_ns(24, 1000);
}

}  // namespace

int main(int argc, char** argv) {
  pb::Args args;
  if (!parse(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: nexus_bench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> [--tiny]\n");
    return 2;
  }
  // Hermetic: the library reads these; the benchmark runs at defaults.
  for (const char* var :
       {"NEXUS_THREADS", "NEXUS_TRACE", "NEXUS_FLIGHT_DIR", "NEXUS_LOG"}) {
    unsetenv(var);
  }
  pb::remember_cpus();
  pb::g_tracing = args.trace;
  pb::count_allocs(args.trace);

  Result r;
  try {
    if (args.workload == "climate") {
      pb::run_climate(args, r);
    } else if (args.workload == "rsr_stream") {
      pb::run_rsr_stream(args, r);
    } else if (args.workload == "rt_stream") {
      pb::run_rt_stream(args, r);
    } else if (args.workload == "rpc_lossy") {
      pb::run_rpc_lossy(args, r);
    } else {
      std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
      return 2;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "workload %s threw: %s\n", args.workload.c_str(),
                 e.what());
    return 1;
  }
  pb::count_allocs(false);
  for (const auto& e : r.errors) std::fprintf(stderr, "check failed: %s\n", e.c_str());
  if (r.ops == 0 || r.timed_s <= 0 || r.setup_s.empty()) {
    std::fprintf(stderr, "workload %s completed no ops\n", args.workload.c_str());
    return 1;
  }

  const double ops = static_cast<double>(r.ops);
  std::vector<double> setups = r.setup_s;
  const double setup = pb::percentile(setups, 0.5);
  const auto tail = pb::tail_percentile(r.lat_us);
  const double p50 = pb::percentile(r.lat_us, 0.5);
  const double fail_rate =
      static_cast<double>(r.failed) / static_cast<double>(r.attempted);

  std::string m;
  put(m, "ops_per_s", ops / r.timed_s, "ops/s");
  if (args.trace) {
    finish_layers(r);
    for (const Metric& lm : kLayerMetrics) {
      auto it = r.layer.find(lm.name);
      put(m, lm.name, it == r.layer.end() ? 0.0 : it->second, lm.unit);
    }
  } else {
    put(m, "setup_s", setup, "s");
    put(m, "op_p50_us", p50, "us");
    put(m, "op_p99_us", tail.first, "us");
    put(m, "cpu_us_per_op", (r.cpu.user_s + r.cpu.sys_s) * 1e6 / ops, "us");
    put(m, "peak_rss_mb",
        static_cast<double>(pb::Usage::now().maxrss_kb) / 1024.0, "MiB");
    put(m, "ok_rate", 1.0 - fail_rate, "ratio");
  }
  // Context for a reader; the last line is the result.
  std::printf("# workload=%s seed=%llu ops=%llu timed_s=%.3f episodes=%zu "
              "samples=%zu (%s) tail_q=%.4f fail_rate=%.6f\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              static_cast<unsigned long long>(r.ops), r.timed_s,
              r.setup_s.size(), r.lat_us.size(), r.sample.c_str(), tail.second,
              fail_rate);
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              r.correct ? "true" : "false",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed), m.c_str());
  return 0;
}
