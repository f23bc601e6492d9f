#include "nexus/runtime.hpp"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <thread>

#include "nexus/telemetry/export.hpp"
#include "nexus/telemetry/stitch.hpp"
#include "proto/register.hpp"
#include "util/error.hpp"
#include "util/log.hpp"

namespace nexus {

namespace {
/// Boolean-ish environment switch (NEXUS_TRACE); nullopt when unrecognized.
std::optional<bool> parse_env_switch(std::string_view v) {
  if (v == "1" || v == "on" || v == "true" || v == "yes") return true;
  if (v == "0" || v == "off" || v == "false" || v == "no") return false;
  return std::nullopt;
}
}  // namespace

Runtime::Runtime(RuntimeOptions opts) : opts_(std::move(opts)) {
  if (opts_.topology.size() == 0) {
    throw util::UsageError("runtime requires a non-empty topology");
  }
  for (const auto& [partition, fwd] : opts_.forwarders) {
    if (fwd >= opts_.topology.size()) {
      throw util::UsageError("forwarder context id out of range");
    }
    if (opts_.topology.partition_of(fwd) != partition) {
      throw util::UsageError(
          "a partition's forwarder must live in that partition");
    }
  }
  if (opts_.fabric == RuntimeOptions::Fabric::Simulated) {
    sim_ = std::make_unique<SimFabric>(opts_.topology);
    sim_->set_faults(opts_.faults, opts_.seed);
  } else {
    rt_ = std::make_unique<RtFabric>(opts_.topology);
    opts_.costs = SimCostParams::realtime(opts_.costs);
  }
  // Environment overrides, mirroring NEXUS_LOG in util/log.cpp: NEXUS_TRACE
  // toggles span tracing, NEXUS_FLIGHT_DIR arms flight dumping.  Options
  // set explicitly in code win for the flight dir (the env var only fills
  // an empty field); NEXUS_TRACE deliberately overrides options so a failing
  // run can be re-executed with tracing without a rebuild.
  if (const char* env = std::getenv("NEXUS_TRACE")) {
    if (auto on = parse_env_switch(env)) {
      opts_.tracing = *on;
    } else {
      std::fprintf(stderr,
                   "[WARN ] nexus: unrecognized NEXUS_TRACE value '%s' "
                   "(expected 1/0/on/off/true/false/yes/no)\n",
                   env);
    }
  }
  if (opts_.flight_dir.empty()) {
    if (const char* env = std::getenv("NEXUS_FLIGHT_DIR")) {
      opts_.flight_dir = env;
    }
  }
  telemetry_.tracer().set_capacity(opts_.trace_capacity);
  telemetry_.tracer().enable(opts_.tracing);
  telemetry_.metrics().enable(opts_.metrics);
  telemetry_.init_flights(static_cast<std::uint32_t>(world_size()),
                          opts_.flight_capacity, opts_.flight);
  telemetry_.set_flight_dir(opts_.flight_dir);

  telemetry::MetricsExporter::Options eopts;
  eopts.jsonl_path = opts_.export_jsonl;
  eopts.prom_path = opts_.export_prom;
  eopts.interval = opts_.export_interval;
  if (auto v = opts_.db.get("export.jsonl")) eopts.jsonl_path = *v;
  if (auto v = opts_.db.get("export.prom")) eopts.prom_path = *v;
  if (auto v = opts_.db.get("export.interval_ms")) {
    eopts.interval =
        static_cast<Time>(std::strtoull(v->c_str(), nullptr, 10)) *
        simnet::kMs;
  }
  if (!eopts.jsonl_path.empty() || !eopts.prom_path.empty()) {
    exporter_ =
        std::make_unique<telemetry::MetricsExporter>(&telemetry_, eopts);
    // Providers snapshot live per-context state; on the realtime fabric
    // these reads are unsynchronized best-effort views, same as describe().
    exporter_->add_provider("health", [this] {
      std::string out = "[";
      bool first = true;
      for (const auto& c : contexts_) {
        if (!c) continue;
        if (!first) out += ",";
        first = false;
        out += c->health_json();
      }
      return out += "]";
    });
    exporter_->add_provider("cost_model", [this] {
      std::string out = "[";
      bool first = true;
      for (const auto& c : contexts_) {
        if (!c) continue;
        if (!first) out += ",";
        first = false;
        out += c->cost_model_json();
      }
      return out += "]";
    });
  }
  rt_epoch_ = std::chrono::steady_clock::now();
  proto::register_builtin_modules(registry_);
}

Runtime::~Runtime() = default;

const DescriptorTable& Runtime::table_of(ContextId id) const {
  if (id >= tables_.size()) {
    throw util::UsageError("table_of: unknown context " + std::to_string(id));
  }
  return tables_[id];
}

std::optional<ContextId> Runtime::forwarder_of(ContextId target) const {
  const int partition = opts_.topology.partition_of(target);
  auto it = opts_.forwarders.find(partition);
  if (it == opts_.forwarders.end()) return std::nullopt;
  return it->second;
}

bool Runtime::is_forwarder(ContextId id) const {
  for (const auto& [partition, fwd] : opts_.forwarders) {
    if (fwd == id) return true;
  }
  return false;
}

Context& Runtime::context(ContextId id) {
  if (id >= contexts_.size() || !contexts_[id]) {
    throw util::UsageError("context " + std::to_string(id) +
                           " is not constructed (call run() first)");
  }
  return *contexts_[id];
}

void Runtime::write_chrome_trace(const std::string& path) const {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    throw util::UsageError("write_chrome_trace: cannot open '" + path + "'");
  }
  out << telemetry_.tracer().chrome_json();
}

void Runtime::write_stitched_trace(const std::string& path) const {
  telemetry::TraceStitcher stitcher;
  stitcher.add_tracer(telemetry_.tracer());
  if (!stitcher.write(path)) {
    throw util::UsageError("write_stitched_trace: cannot open '" + path +
                           "'");
  }
}

std::string Runtime::describe() const {
  // Counters come from a registry snapshot: modules bind their counters
  // into the registry, so this is the same data the enquiry dumps
  // (telemetry().metrics().to_text/to_json) report.
  const telemetry::MetricsRegistry::Snapshot snap =
      telemetry_.metrics().snapshot();
  std::string out;
  out += "runtime: " + std::to_string(world_size()) + " contexts, " +
         std::to_string(opts_.topology.partition_count()) + " partitions, " +
         (sim_ ? "simulated" : "realtime") + " fabric\n";
  for (const auto& [partition, fwd] : opts_.forwarders) {
    out += "  forwarder for partition " + std::to_string(partition) +
           ": context " + std::to_string(fwd) + "\n";
  }
  for (ContextId id = 0; id < contexts_.size(); ++id) {
    if (!contexts_[id]) continue;
    const Context& ctx = *contexts_[id];
    out += "context " + std::to_string(id) + " (partition " +
           std::to_string(opts_.topology.partition_of(id)) + "):\n";
    for (const std::string& m : ctx.methods()) {
      const telemetry::MethodMetrics* mm = snap.find_method(id, m);
      const util::MethodCounters c =
          mm != nullptr ? mm->counters : util::MethodCounters{};
      const PollingEngine& engine = ctx.polling_engine();
      out += "  " + m;
      if (!engine.enabled(m)) {
        out += " [not polled]";
      } else {
        const auto skip = engine.skip(m);
        if (skip > 1) out += " [skip " + std::to_string(skip) + "]";
        if (engine.blocking(m)) out += " [blocking poller]";
      }
      out += ": sent " + std::to_string(c.sends) + " msg/" +
             std::to_string(c.bytes_sent) + " B, recv " +
             std::to_string(c.recvs) + " msg/" +
             std::to_string(c.bytes_received) + " B, polls " +
             std::to_string(c.polls) + " (hits " +
             std::to_string(c.poll_hits) + ")\n";
    }
  }
  return out;
}

std::vector<std::string> Runtime::module_names_for(ContextId id) const {
  if (auto scoped = opts_.db.get_scoped(id, "nexus.modules")) {
    return util::split_list(*scoped);
  }
  return opts_.modules;
}

std::unique_ptr<Context> Runtime::make_context(ContextId id) {
  std::unique_ptr<ContextClock> clock;
  if (sim_) {
    clock = std::make_unique<SimClock>(*sim_->host(id).proc);
  } else {
    // All realtime clocks share the runtime's epoch so cross-context
    // timestamp differences (RSR one-way times) are meaningful.
    clock = std::make_unique<RtClock>(rt_epoch_, rt_->host(id).activity);
  }
  auto ctx = std::make_unique<Context>(*this, id, std::move(clock),
                                       opts_.costs);
  for (const std::string& name : module_names_for(id)) {
    ctx->add_module(registry_.create(name, *ctx));
  }
  return ctx;
}

void Runtime::build_contexts() {
  contexts_.resize(world_size());
  tables_.resize(world_size());
  for (ContextId id = 0; id < world_size(); ++id) {
    contexts_[id] = make_context(id);
  }
  // finalize after all contexts exist, so modules that need to inspect the
  // whole fabric (e.g. to resolve forwarders) can do so.
  for (ContextId id = 0; id < world_size(); ++id) {
    contexts_[id]->finalize_modules();
    tables_[id] = contexts_[id]->local_table();
  }
  // Forwarding: only the forwarder keeps polling TCP in a forwarded
  // partition; everyone else drops the expensive poll entirely.
  for (ContextId id = 0; id < world_size(); ++id) {
    Context& ctx = *contexts_[id];
    if (ctx.module("tcp") == nullptr) continue;
    if (forwarder_of(id).has_value() && !is_forwarder(id)) {
      ctx.set_poll_enabled("tcp", false);
    }
  }
  if (exporter_ != nullptr && exporter_->active()) {
    // Every polling loop offers to sample; the exporter's CAS elects one.
    for (auto& c : contexts_) {
      c->polling_engine().set_exporter(exporter_.get());
    }
  }
}

void Runtime::run(std::function<void(Context&)> fn) {
  std::vector<std::function<void(Context&)>> fns(world_size(), fn);
  run(std::move(fns));
}

void Runtime::run(std::vector<std::function<void(Context&)>> fns) {
  if (ran_) {
    throw util::UsageError("Runtime::run may only be called once");
  }
  if (fns.size() != world_size()) {
    throw util::UsageError("run: got " + std::to_string(fns.size()) +
                           " functions for a world of " +
                           std::to_string(world_size()));
  }
  ran_ = true;
  fns_ = std::move(fns);

  if (sim_) {
    simnet::Scheduler& sched = sim_->scheduler();
    for (ContextId id = 0; id < world_size(); ++id) {
      sched.spawn("ctx" + std::to_string(id), [this, id] {
        fns_[id](*contexts_[id]);
      }).set_horizon_slack(opts_.sim_slack);
    }
    for (ContextId id = 0; id < world_size(); ++id) {
      auto host = std::make_unique<SimHost>();
      host->proc = &sched.process(id);
      sim_->add_host(std::move(host));
    }
    build_contexts();
    try {
      sim_->scheduler().run();
    } catch (...) {
      // Preserve the last moments of every context before unwinding: the
      // flight dump is the post-mortem for whatever threw.
      telemetry_.dump_flight("unhandled-fault");
      throw;
    }
    if (exporter_ != nullptr && exporter_->active()) {
      // Final snapshot so short runs export at least one sample.
      exporter_->sample(contexts_[0]->now());
    }
    return;
  }

  for (ContextId id = 0; id < world_size(); ++id) {
    rt_->add_host(std::make_unique<RtHost>());
  }
  build_contexts();

  std::vector<std::thread> threads;
  std::vector<std::exception_ptr> errors(world_size());
  threads.reserve(world_size());
  for (ContextId id = 0; id < world_size(); ++id) {
    threads.emplace_back([this, id, &errors] {
      try {
        fns_[id](*contexts_[id]);
      } catch (...) {
        errors[id] = std::current_exception();
      }
    });
  }
  for (auto& t : threads) t.join();
  for (const auto& e : errors) {
    if (e) {
      telemetry_.dump_flight("unhandled-fault");
      std::rethrow_exception(e);
    }
  }
  if (exporter_ != nullptr && exporter_->active()) {
    exporter_->sample(contexts_[0]->now());
  }
}

}  // namespace nexus
