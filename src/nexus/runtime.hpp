// Runtime: owns contexts, the fabric, module factories, and configuration.
//
// The runtime is the process-level entry point.  It instantiates one
// Context per slot of the topology, wires the chosen fabric (simulated
// virtual-time or realtime threads), distributes the bootstrap descriptor
// tables (so contexts can build world startpoints), applies the forwarding
// configuration, and runs user functions to completion -- SPMD (one
// function everywhere) or MPMD (one per context).
#pragma once

#include <chrono>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "nexus/context.hpp"
#include "nexus/telemetry/telemetry.hpp"
#include "nexus/costs.hpp"
#include "nexus/descriptor.hpp"
#include "nexus/fabric.hpp"
#include "nexus/health.hpp"
#include "nexus/module.hpp"
#include "nexus/types.hpp"
#include "simnet/fault.hpp"
#include "simnet/topology.hpp"
#include "util/resource_db.hpp"

namespace nexus {

namespace telemetry {
class MetricsExporter;
}

struct RuntimeOptions {
  enum class Fabric { Simulated, Realtime };

  Fabric fabric = Fabric::Simulated;
  /// Defines the world size and partition structure.
  simnet::Topology topology = simnet::Topology::single_partition(2);
  /// Default communication module set, fastest-first preference implied by
  /// each module's speed_rank, not by this order.  Overridable via the
  /// resource database ("nexus.modules", "context.<id>.modules").
  std::vector<std::string> modules{"local", "mpl", "tcp"};
  util::ResourceDb db;
  SimCostParams costs;
  /// Forwarding configuration (paper §3.3): partition id -> context that
  /// receives all inter-partition TCP traffic for that partition.  When a
  /// partition has a forwarder, its other members stop polling TCP.
  std::map<int, ContextId> forwarders;
  /// Seed for stochastic models (UDP drops, fault rules, backoff jitter).
  std::uint64_t seed = 1;
  /// Simulated fabric only: deterministic fault-injection plan (drop /
  /// delay / corrupt / blackhole schedules) installed on the SimFabric
  /// before run(); see simnet/fault.hpp.  Realtime fabrics inject faults
  /// through RtFabric::set_fault_hook instead.
  simnet::FaultPlan faults;
  /// Failure-handling policy of the automatic failover layer (consecutive
  /// -failure threshold, quarantine backoff); see nexus/health.hpp.
  HealthParams health;
  /// Simulated fabric only: bounded conservatism relaxation (see
  /// simnet::SimProcess::set_horizon_slack).  0 = exact microsecond-level
  /// causality; tens of milliseconds are appropriate for the seconds-scale
  /// climate runs.
  simnet::Time sim_slack = 0;
  /// Span tracing of the RSR lifecycle (docs/ARCHITECTURE.md §7).  Off by
  /// default; when off, every instrumented site costs one branch.
  bool tracing = false;
  /// Ring capacity of the tracer (events; oldest overwritten on wrap).
  std::size_t trace_capacity = telemetry::Tracer::kDefaultCapacity;
  /// Histogram metrics (one-way times, handler times, poll cadence, sizes).
  /// The plain per-method counters always run regardless.
  bool metrics = true;
  /// Adaptive transport engine (docs/ARCHITECTURE.md §11): feed the online
  /// per-(peer, method) cost model from passive timings and periodically
  /// rerank link descriptor tables by modeled cost.  Also enabled by the
  /// `adapt.enabled` database key or by installing a payload-aware
  /// selector (adapt::AdaptiveSelector).
  bool adaptive = false;
  /// Always-on flight recorder (docs/ARCHITECTURE.md §12): a small
  /// lock-free ring of recent trace events per context, dumped for
  /// post-mortem when a reliability dead latch, a quarantine, or an
  /// unhandled fault fires.
  bool flight = true;
  /// Per-context flight ring capacity (events; oldest overwritten).
  std::size_t flight_capacity = telemetry::FlightRecorder::kDefaultCapacity;
  /// Directory flight dumps are written to (NEXUS_FLIGHT_DIR fills this
  /// when unset).  Empty disables dumping; recording still runs.
  std::string flight_dir;
  /// Metrics export sinks (docs/ARCHITECTURE.md §12.3): a JSON-lines time
  /// series and/or a Prometheus text file, sampled from the polling loops
  /// every export_interval ns of context time.  Also settable via the
  /// database keys export.jsonl / export.prom / export.interval_ms.  Both
  /// empty = no exporter and zero data-path cost.
  std::string export_jsonl;
  std::string export_prom;
  Time export_interval = 100 * simnet::kMs;
};

class Runtime {
 public:
  explicit Runtime(RuntimeOptions opts);
  ~Runtime();

  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  /// Register additional module factories before run().
  ModuleRegistry& module_registry() noexcept { return registry_; }

  /// SPMD: run `fn` in every context.
  void run(std::function<void(Context&)> fn);
  /// MPMD: one function per context (size must equal world size).
  void run(std::vector<std::function<void(Context&)>> fns);

  std::size_t world_size() const { return opts_.topology.size(); }
  const RuntimeOptions& options() const noexcept { return opts_; }
  const util::ResourceDb& db() const noexcept { return opts_.db; }
  const simnet::Topology& topology() const noexcept { return opts_.topology; }

  /// Default descriptor table of a context (available after run() started;
  /// used for bootstrap startpoints and the lightweight-startpoint check).
  const DescriptorTable& table_of(ContextId id) const;

  /// The forwarder for `target`'s partition, if forwarding is configured.
  std::optional<ContextId> forwarder_of(ContextId target) const;
  bool is_forwarder(ContextId id) const;

  SimFabric* sim() noexcept { return sim_.get(); }
  RtFabric* rt() noexcept { return rt_.get(); }
  /// Whichever of the two the runtime was built on: what modules send over.
  Fabric& fabric() noexcept {
    return sim_ ? static_cast<Fabric&>(*sim_) : *rt_;
  }

  /// The observability bundle: span tracer + metrics registry, shared by
  /// every context of this runtime.
  telemetry::Telemetry& telemetry() noexcept { return telemetry_; }
  const telemetry::Telemetry& telemetry() const noexcept { return telemetry_; }
  /// Write the tracer's Chrome about://tracing JSON to `path`.
  void write_chrome_trace(const std::string& path) const;
  /// Write the causally-stitched Chrome trace: tracer events run through
  /// the TraceStitcher so parent/child span links are resolved per trace.
  void write_stitched_trace(const std::string& path) const;
  /// The metrics exporter, when export sinks are configured (else null).
  telemetry::MetricsExporter* exporter() noexcept { return exporter_.get(); }

  /// Access to a context (valid during and after run(), until destruction).
  Context& context(ContextId id);

  /// Enquiry: a human-readable dump of the multimethod configuration --
  /// per-context module sets, poll schedules (skip/enabled/blocking),
  /// forwarders, and traffic counters.  Valid once run() has built the
  /// contexts.
  std::string describe() const;

 private:
  void build_contexts();
  std::unique_ptr<Context> make_context(ContextId id);
  std::vector<std::string> module_names_for(ContextId id) const;

  RuntimeOptions opts_;
  ModuleRegistry registry_;
  std::unique_ptr<SimFabric> sim_;
  std::unique_ptr<RtFabric> rt_;
  // Declared before contexts_: modules keep pointers into the registry, so
  // the bundle must outlive every context.
  telemetry::Telemetry telemetry_;
  std::unique_ptr<telemetry::MetricsExporter> exporter_;
  // Realtime fabric: one shared epoch for all context clocks, so timestamps
  // (and hence cross-context one-way latencies) are comparable.
  std::chrono::steady_clock::time_point rt_epoch_;
  std::vector<std::unique_ptr<Context>> contexts_;
  std::vector<DescriptorTable> tables_;
  std::vector<std::function<void(Context&)>> fns_;
  bool ran_ = false;
};

}  // namespace nexus
