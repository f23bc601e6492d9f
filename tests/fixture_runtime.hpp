// Shared runtime-construction boilerplate for the Nexus test suites.
//
// Every suite that spins up a Runtime used to re-declare the same three
// helpers (an options builder, an MPMD wrapper, a counting handler); they
// live here now so the chaos/failover suites and the long-standing core
// suites agree on one idiom.  Deterministic randomized suites derive their
// seeds from test_seed(), which the CI chaos job varies via the
// NEXUS_TEST_SEED environment variable.
#pragma once

#include <algorithm>
#include <cstdlib>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "nexus/runtime.hpp"

namespace nexus::testing {

/// RuntimeOptions with a module set and topology (simulated fabric).
inline RuntimeOptions opts_with(std::vector<std::string> modules,
                                simnet::Topology topo) {
  RuntimeOptions opts;
  opts.topology = std::move(topo);
  opts.modules = std::move(modules);
  return opts;
}

/// Same, with the paper's default module set and arguments in the order the
/// integration suites historically used.
inline RuntimeOptions sim_opts(simnet::Topology topo,
                               std::vector<std::string> modules = {
                                   "local", "mpl", "tcp"}) {
  RuntimeOptions opts = opts_with(std::move(modules), std::move(topo));
  opts.fabric = RuntimeOptions::Fabric::Simulated;
  return opts;
}

/// MPMD helper: run one function per context.
inline void run_mpmd(Runtime& rt,
                     std::vector<std::function<void(Context&)>> fns) {
  rt.run(std::move(fns));
}

/// Register a handler that does nothing but bump `counter` (the standard
/// wait_count() idiom).  The counter must outlive the run.
inline void register_counter(Context& ctx, std::string_view name,
                             std::uint64_t& counter) {
  ctx.register_handler(name,
                       [&counter](Context&, Endpoint&, util::UnpackBuffer&) {
                         ++counter;
                       });
}

/// Base seed for randomized suites: NEXUS_TEST_SEED when set and non-zero
/// (the CI chaos job runs the fault/failover suites under ten distinct
/// values), 1 otherwise.  Every trial must derive deterministically from it.
inline std::uint64_t test_seed() {
  if (const char* env = std::getenv("NEXUS_TEST_SEED")) {
    const unsigned long long v = std::strtoull(env, nullptr, 10);
    if (v != 0) return static_cast<std::uint64_t>(v);
  }
  return 1;
}

/// Chaos-run options: like opts_with, but seeded from test_seed() so the
/// CI chaos job varies the stochastic models via NEXUS_TEST_SEED.
inline RuntimeOptions chaos_opts(std::vector<std::string> modules,
                                 simnet::Topology topo) {
  RuntimeOptions opts = opts_with(std::move(modules), std::move(topo));
  opts.seed = test_seed();
  return opts;
}

/// Distinct nonzero trace ids among the tracer's retained events, in first
/// -appearance order (the causal-propagation suites assert on these).
inline std::vector<std::uint64_t> trace_ids(Runtime& rt) {
  std::vector<std::uint64_t> out;
  for (const auto& ev : rt.telemetry().tracer().events()) {
    if (ev.trace != 0 &&
        std::find(out.begin(), out.end(), ev.trace) == out.end()) {
      out.push_back(ev.trace);
    }
  }
  return out;
}

/// Retained tracer events of `phase`; with a non-empty `label`, only those
/// whose interned label (method or handler name) matches it.
inline std::size_t count_events(Runtime& rt, telemetry::Phase phase,
                                std::string_view label = {}) {
  const telemetry::Tracer& tracer = rt.telemetry().tracer();
  std::size_t n = 0;
  for (const auto& ev : tracer.events()) {
    if (ev.phase == phase &&
        (label.empty() || tracer.label_name(ev.label) == label)) {
      ++n;
    }
  }
  return n;
}

/// Retained tracer events carrying `trace`, in recording order.
inline std::vector<telemetry::Event> events_of_trace(Runtime& rt,
                                                     std::uint64_t trace) {
  std::vector<telemetry::Event> out;
  for (const auto& ev : rt.telemetry().tracer().events()) {
    if (ev.trace == trace) out.push_back(ev);
  }
  return out;
}

}  // namespace nexus::testing
