// Communication modules, communication objects, and the module registry.
//
// A CommModule implements one communication method for one context.  The
// abstract interface is the C++ rendering of the paper's per-module
// *function table* (§3.1): communication-oriented functions (send/poll), an
// initialization hook, and functions for constructing communication
// descriptors and communication objects.  The ModuleRegistry plays the role
// of the paper's loadable-module mechanism: modules are registered under a
// name and instantiated per context from the resource database, command
// line, or API calls.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "nexus/descriptor.hpp"
#include "nexus/types.hpp"
#include "util/stats.hpp"

namespace nexus {

namespace telemetry {
struct MethodMetrics;
}

class Context;
class CommModule;

/// An active connection: the information of one communication descriptor, a
/// pointer back to its module (the function table), plus module-specific
/// live state added by subclasses (e.g. the simulated socket / mailbox
/// binding).  Communication objects are cached by the context and shared
/// among startpoints referencing the same (context, method) pair.
class CommObject {
 public:
  CommObject(CommModule& module, CommDescriptor descriptor)
      : module_(&module), descriptor_(std::move(descriptor)) {}
  virtual ~CommObject() = default;

  CommObject(const CommObject&) = delete;
  CommObject& operator=(const CommObject&) = delete;

  CommModule& module() const noexcept { return *module_; }
  const CommDescriptor& descriptor() const noexcept { return descriptor_; }

 private:
  CommModule* module_;
  CommDescriptor descriptor_;
};

/// Result of polling a module once.
struct PollOutcome {
  std::optional<Packet> packet;
};

/// One communication method, instantiated per context.
class CommModule {
 public:
  virtual ~CommModule() = default;

  /// Method name as it appears in descriptors ("local", "mpl", "tcp", ...).
  virtual std::string_view name() const = 0;

  /// Called once after the owning context is fully constructed.
  virtual void initialize(Context& ctx) { (void)ctx; }

  /// Called when the owning context crash-restarts under a FaultPlan crash
  /// rule: discard all in-memory protocol state (sequence windows, reorder
  /// buffers, partial handshakes).  State a module models as living on
  /// stable storage -- e.g. the reliable wrapper's committed-delivery log --
  /// may survive; counters are cumulative and are never reset.
  virtual void on_crash_restart() {}

  /// Descriptor telling remote contexts how to reach *this* context via
  /// this method.
  virtual CommDescriptor local_descriptor() const = 0;

  /// Whether this module, running in the local context, can use `remote` to
  /// reach its target (the paper's applicability test -- e.g. MPL requires
  /// both contexts in the same partition).
  virtual bool applicable(const CommDescriptor& remote) const = 0;

  /// Construct a communication object for a remote descriptor.  Only called
  /// when applicable(remote) is true.
  virtual std::unique_ptr<CommObject> connect(const CommDescriptor& remote) = 0;

  /// Transmit one RSR packet over an established connection.  Charges the
  /// sender's per-message software overhead to the caller's clock and
  /// returns the delivery verdict plus the number of bytes that crossed (or
  /// would have crossed) the wire -- which may differ from the packet's
  /// size for compressing/encrypting methods.  A non-Ok status means the
  /// packet was NOT delivered and the caller owns recovery (retry or
  /// failover); silent loss remains the province of unreliable methods,
  /// which return Ok for packets the network may still lose.
  virtual SendResult send(CommObject& conn, Packet packet) = 0;

  /// Check for one incoming packet.  Does NOT charge poll cost -- the
  /// polling engine does that, so skip_poll accounting stays in one place.
  virtual std::optional<Packet> poll() = 0;

  /// Virtual cost of one poll of this method (e.g. 15 us for an MPL probe,
  /// 100+ us for a TCP select).  On the realtime fabric modules report 0
  /// and pay the cost for real.
  virtual Time poll_cost() const = 0;

  /// Earliest arrival time of any queued-but-future message, if the module
  /// can know it (on the simulated fabric; the realtime one returns
  /// nullopt).
  /// Lets the polling engine fast-forward idle waits in virtual time.
  virtual std::optional<Time> earliest_arrival() const = 0;

  /// True if this method could instead be serviced by a dedicated blocking
  /// thread (paper §3.3, AIX 4.1 discussion): the polling engine may then
  /// remove it from the poll loop entirely.
  virtual bool supports_blocking() const { return false; }

  /// Realtime fabric only: block until a packet arrives; returns nullopt
  /// after shutdown_blocking().  Only meaningful when supports_blocking().
  virtual std::optional<Packet> blocking_poll() { return std::nullopt; }
  virtual void shutdown_blocking() {}

  /// Rough speed rank used to order descriptor tables fastest-first; lower
  /// is faster (local=0, shm=1, myrinet=2, mpl=3, tcp=6, ...).
  virtual int speed_rank() const = 0;

  /// Whether the method delivers every message (RSR semantics).  Automatic
  /// selection prefers reliable methods and only falls back to unreliable
  /// ones (udp, mcast) when nothing reliable applies; applications opt in
  /// explicitly via Startpoint::force_method for loss-tolerant data.
  virtual bool reliable() const { return true; }

  /// For protocol wrappers (rel+udp): the name of the inner transport this
  /// method layers over.  Plain transports return nullopt.  The enquiry
  /// interface uses this to render the wrapper stack so quarantine/restore
  /// events attribute to the right layer.
  virtual std::optional<std::string> wraps() const { return std::nullopt; }

  /// The context a packet sent with `remote` lands on first.  Differs from
  /// remote.context when the target's partition has a forwarding node
  /// (paper §3.3); the selection-explanation enquiry uses this to report
  /// the relay.
  virtual ContextId landing_context(const CommDescriptor& remote) const {
    return remote.context;
  }

  /// Traffic/poll counters for the enquiry interface.  Module-local by
  /// default; the owning context rebinds them into the runtime's
  /// MetricsRegistry (bind_metrics) so one registry holds every context's
  /// counters and histograms.
  util::MethodCounters& counters() noexcept { return *counters_; }
  const util::MethodCounters& counters() const noexcept { return *counters_; }

  /// Rebind this module's counters into registry-owned storage and attach
  /// the per-method histograms.  Any counts accumulated before the rebind
  /// are merged into the new storage.
  void bind_metrics(telemetry::MethodMetrics& mm) noexcept;
  telemetry::MethodMetrics* metrics() const noexcept { return metrics_; }

  /// Interned tracer label for this module's name (assigned by the owning
  /// context so trace records avoid string lookups).
  std::uint16_t trace_label() const noexcept { return trace_label_; }
  void set_trace_label(std::uint16_t label) noexcept { trace_label_ = label; }

  /// method_hash(name()), computed once and cached.  Stable across
  /// contexts (unlike interned ids / trace labels), which is what lets the
  /// adaptive timing echo name a method without shipping the string.
  std::uint64_t name_hash() const noexcept {
    if (name_hash_ == 0) name_hash_ = method_hash(name());
    return name_hash_;
  }

 private:
  util::MethodCounters own_counters_;
  util::MethodCounters* counters_ = &own_counters_;
  telemetry::MethodMetrics* metrics_ = nullptr;
  std::uint16_t trace_label_ = 0;
  mutable std::uint64_t name_hash_ = 0;
};

/// Factory registry, keyed by method name.  Standing in for the paper's
/// dynamically loadable modules: a module compiled anywhere in the program
/// registers a factory, and contexts instantiate by name at startup or
/// later ("loaded dynamically" via load()).
class ModuleRegistry {
 public:
  using Factory = std::function<std::unique_ptr<CommModule>(Context&)>;

  /// Process-global registry.
  static ModuleRegistry& global();

  void register_factory(std::string name, Factory factory);
  bool has(std::string_view name) const;
  std::unique_ptr<CommModule> create(std::string_view name, Context& ctx) const;
  std::vector<std::string> names() const;

 private:
  std::map<std::string, Factory, std::less<>> factories_;
};

}  // namespace nexus
