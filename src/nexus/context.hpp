// Context: one address space / virtual processor (paper §3).
//
// A context owns its endpoints, handler table, communication modules,
// polling engine, and communication-object cache, and exposes the single
// communication operation of the model: the asynchronous remote service
// request (RSR) applied to a startpoint.  Contexts are isolated from one
// another: everything that crosses between them travels as serialized
// bytes through the fabric's mailboxes/queues.
#pragma once

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "nexus/adapt/cost_model.hpp"
#include "nexus/clock.hpp"
#include "nexus/costs.hpp"
#include "nexus/descriptor.hpp"
#include "nexus/endpoint.hpp"
#include "nexus/handler.hpp"
#include "nexus/health.hpp"
#include "nexus/module.hpp"
#include "nexus/polling.hpp"
#include "nexus/selector.hpp"
#include "nexus/startpoint.hpp"
#include "nexus/telemetry/telemetry.hpp"
#include "nexus/types.hpp"
#include "simnet/fault.hpp"
#include "util/pack.hpp"
#include "util/resource_db.hpp"

namespace nexus {

class Runtime;

class Context {
 public:
  Context(Runtime& runtime, ContextId id, std::unique_ptr<ContextClock> clock,
          SimCostParams costs);
  ~Context();

  Context(const Context&) = delete;
  Context& operator=(const Context&) = delete;

  // --- identity & environment ---
  ContextId id() const noexcept { return id_; }
  Runtime& runtime() noexcept { return *runtime_; }
  std::size_t world_size() const;
  const util::ResourceDb& config() const;
  const SimCostParams& costs() const noexcept { return costs_; }

  // --- time ---
  Time now() const { return clock_->now(); }
  /// Charge `dt` of local computation (virtual in the simulated fabric).
  void compute(Time dt) { clock_->advance(dt); }
  /// Computation interleaved with polling: advances in `chunk`-sized slices
  /// with one unified poll between slices ("the polling function will be
  /// called at least every time a Nexus operation is performed" -- and the
  /// underlying message layer also polls during long computations).
  void compute_with_polling(Time total, Time chunk);

  // --- endpoints & handlers ---
  /// The root endpoint (id 1) every context owns; bootstrap startpoints
  /// from Runtime target it.
  Endpoint& root_endpoint() { return *root_; }
  Endpoint& create_endpoint();
  Endpoint& endpoint(EndpointId id);
  bool has_endpoint(EndpointId id) const;
  void destroy_endpoint(EndpointId id);
  HandlerId register_handler(std::string_view name, Handler fn,
                             HandlerKind kind = HandlerKind::NonThreaded);
  /// The wire id `name` dispatches to (the FNV-1a hash; stable across
  /// contexts).  Steady-state senders resolve once and use the
  /// rsr(sp, HandlerId, ...) overloads to skip per-call hashing.
  static HandlerId resolve_handler(std::string_view name) noexcept {
    return HandlerTable::id_of(name);
  }

  // --- startpoints & links ---
  /// Create an unbound startpoint.
  Startpoint create_startpoint() const { return Startpoint{}; }
  /// Bind a startpoint to a *local* endpoint, forming a communication link
  /// (append semantics: binding to several endpoints yields multicast).
  void bind(Startpoint& sp, const Endpoint& ep) const;
  /// Convenience: create + bind.
  Startpoint startpoint_to(const Endpoint& ep) const;
  /// Bootstrap: a startpoint linked to context `target`'s root endpoint.
  Startpoint world_startpoint(ContextId target) const;

  // --- the communication operation ---
  /// Asynchronous remote service request: ship `payload` to every endpoint
  /// linked to `sp` and invoke `handler` there.  The shared buffer is
  /// aliased (never copied) by every link of a multicast and by forwarding
  /// hops; see docs/ARCHITECTURE.md §8.
  ///
  /// Returns the worst per-link verdict: Ok when every link accepted the
  /// packet; Transient when at least one link's RSR drained into the
  /// dead-letter queue (robust.retry_budget > 0; it may still be delivered
  /// after the peer's rebirth); Dead when a link addressed an unknown /
  /// never-registered context (the RSR is counted in send_errors and
  /// dropped, never thrown from deep in the descriptor table).
  DeliveryStatus rsr(Startpoint& sp, HandlerId handler,
                     util::SharedBytes payload);
  DeliveryStatus rsr(Startpoint& sp, HandlerId handler,
                     const util::PackBuffer& args);
  /// Zero-payload RSR by pre-resolved handler id.
  DeliveryStatus rsr(Startpoint& sp, HandlerId handler);
  /// Name-based conveniences: hash the handler name per call.
  DeliveryStatus rsr(Startpoint& sp, std::string_view handler,
                     util::SharedBytes payload);
  DeliveryStatus rsr(Startpoint& sp, std::string_view handler,
                     util::Bytes payload);
  DeliveryStatus rsr(Startpoint& sp, std::string_view handler,
                     const util::PackBuffer& args);
  /// Zero-payload RSR.
  DeliveryStatus rsr(Startpoint& sp, std::string_view handler);
  /// RSR riding an existing causal trace: layered protocols (the RPC
  /// subsystem's request, bulk pull/chunk, and reply frames) pass the
  /// call's trace id so every hop stitches into one end-to-end trace.
  /// trace == 0 behaves exactly like rsr().
  DeliveryStatus rsr_traced(Startpoint& sp, HandlerId handler,
                            util::SharedBytes payload, std::uint64_t trace);
  DeliveryStatus rsr_traced(Startpoint& sp, HandlerId handler,
                            const util::PackBuffer& args, std::uint64_t trace);

  /// The packet currently being dispatched to a handler on this context
  /// (null outside handler dispatch).  Lets layered protocols alias the
  /// zero-copy payload and read the envelope (src, span, trace) without
  /// re-serializing it into the argument buffer.
  const Packet* inbound_packet() const noexcept { return inbound_pkt_; }

  /// Record the method the RPC layer's last call toward `peer` rode
  /// (surfaced as explain_selection()'s rpc rows).
  void note_rpc_method(ContextId peer, std::string_view method) {
    rpc_last_method_[peer] = std::string(method);
  }

  // --- startpoint transfer ---
  /// Serialize a startpoint for transfer to another context.  Applies the
  /// lightweight "default table" optimization when a link's table matches
  /// the runtime's default table for the target context (§3.1).
  void pack_startpoint(util::PackBuffer& pb, const Startpoint& sp) const;
  Startpoint unpack_startpoint(util::UnpackBuffer& ub) const;

  // --- progress ---
  /// One iteration of the unified polling function.
  bool progress() {
    maybe_crash();
    return engine_->poll_once();
  }
  /// Poll until done() is satisfied.
  void wait(const std::function<bool()>& done) {
    if (fault_plan_ != nullptr && fault_plan_->has_crashes()) {
      engine_->wait([this, &done] {
        maybe_crash();
        return done();
      });
      return;
    }
    engine_->wait(done);
  }
  /// Poll until `counter` reaches at least `target` (common RSR-counting
  /// idiom for request/reply protocols).
  void wait_count(const std::uint64_t& counter, std::uint64_t target);

  // --- method control ---
  void set_skip_poll(std::string_view method, std::uint64_t skip);
  std::uint64_t skip_poll(std::string_view method) const;
  void set_poll_enabled(std::string_view method, bool enabled);
  bool poll_enabled(std::string_view method) const;
  void set_adaptive_poll(std::string_view method, bool on,
                         std::uint64_t miss_threshold = 8,
                         std::uint64_t max_skip = 4096);
  /// Hand a method to a dedicated blocking poller (paper §3.3 AIX
  /// discussion).  Requires module->supports_blocking().
  void set_blocking_poller(std::string_view method, bool on);
  /// Install a selection policy.  Installing a payload-aware policy (e.g.
  /// adapt::AdaptiveSelector) also enables the adaptive engine's
  /// measurement plumbing.
  void set_selector(std::unique_ptr<MethodSelector> selector);
  MethodSelector& selector() noexcept { return *selector_; }

  // --- adaptive transport engine (docs/ARCHITECTURE.md §11) ---
  /// The online per-(peer, method) cost model.  Always constructed; only
  /// *fed* (echoes, RTT samples, probes) while adaptation_enabled().
  adapt::CostModel& cost_model() noexcept { return *cost_model_; }
  const adapt::CostModel& cost_model() const noexcept { return *cost_model_; }
  /// Whether the measurement plumbing (timing echoes, reliable-layer RTT
  /// feed, periodic table reranking) is active.  Enabled by
  /// RuntimeOptions::adaptive, the `adapt.enabled` database key, or
  /// installing a payload-aware selector.
  bool adaptation_enabled() const noexcept { return adapt_enabled_; }
  void enable_adaptation(bool on = true) { adapt_enabled_ = on; }
  /// Low-rate active prober: one tiny timed RSR to `d`'s context over `d`'s
  /// method (the peer replies, and the reply carries the timing echo back).
  /// Called by adapt::AdaptiveSelector for usable-but-unmeasured methods;
  /// also available to applications.  No-op when the descriptor is not
  /// usable from here.
  void probe_method(const CommDescriptor& d);
  /// Rewrite every link table of `sp` in modeled-cost order now (the
  /// manual form of the periodic live rerank).  Returns true if any link's
  /// order changed; changed links have their cached selection dropped.
  bool rerank(Startpoint& sp);
  /// Telemetry hook for adapt::AdaptiveSelector decision changes.
  void note_adapt_switch(std::string_view method, ContextId target,
                         std::string_view payload_class);

  // --- robustness: crash/restart fault domain (docs/ARCHITECTURE.md §14) ---
  /// This context's incarnation epoch: 1 at first life, bumped on every
  /// crash/restart scheduled by a FaultPlan crash rule.  Stamped into every
  /// outgoing packet so peers can reject stale-incarnation traffic.
  std::uint32_t incarnation() const noexcept { return incarnation_; }
  /// If a crash window covers the current clock, model the outage: wipe all
  /// in-memory communication state, sleep through to the window's end, wipe
  /// again (dropping traffic that landed mid-outage), and come back with a
  /// bumped incarnation.  One pointer + one vector-empty check when no
  /// crash rules exist, so the fault-free hot path is unchanged.
  void maybe_crash() {
    if (fault_plan_ == nullptr || !fault_plan_->has_crashes()) return;
    crash_check();
  }
  /// Has peer-death detection declared `peer` down (every applicable method
  /// Dead past robust.peer_grace_ms)?  Cleared on the first successful send
  /// to the peer (rebirth).
  bool is_peer_dead(ContextId peer) const {
    return dead_peers_.find(peer) != dead_peers_.end();
  }
  /// RSRs parked in the dead-letter queue awaiting peer rebirth.
  std::size_t deadletter_count() const noexcept { return deadletters_.size(); }
  /// Graceful drain of a forwarding node: stop accepting new relay work --
  /// packets to forward are re-routed via `sibling` instead of being sent
  /// onward directly -- and flush everything already in flight, so the node
  /// can be killed (e.g. under a FaultPlan crash rule) without stranding
  /// its clients' traffic.
  void drain_forwarding(ContextId sibling);
  bool draining() const noexcept { return draining_; }

  // --- enquiry interface (paper §2.1) ---
  std::vector<std::string> methods() const;
  CommModule* module(std::string_view name);
  const CommModule* module(std::string_view name) const;
  const util::MethodCounters& method_counters(std::string_view name) const;
  /// The newest selection decisions, oldest first: a ring of at most
  /// kSelectionLogCapacity records, so a long run with periodic reranks or
  /// failovers keeps constant memory.
  static constexpr std::size_t kSelectionLogCapacity = 256;
  const std::deque<SelectionRecord>& selection_log() const noexcept {
    return selection_log_;
  }
  /// Structured selection explanation: for every link of `sp`, report each
  /// descriptor considered, why it was (or would be) rejected, which wins,
  /// and whether the winner lands on a forwarding node.  Runs the active
  /// policy without creating connections or touching the selection log.
  telemetry::SelectionReport explain_selection(const Startpoint& sp);
  /// This context's own descriptor table, fastest-first (the table attached
  /// to startpoints created here).
  const DescriptorTable& local_table() const noexcept { return local_table_; }
  /// Failover health state (per-(method, target) failure history).
  const HealthTracker& health() const noexcept { return health_; }
  /// Selection gate used by the policies: module loaded, applicable, and
  /// not quarantined by the health tracker.
  bool method_usable(const CommDescriptor& d);
  /// The health gate alone (assumes the descriptor is otherwise usable).
  bool health_usable(const CommDescriptor& d);
  /// Health status of one (method, target) pair at the current clock.
  HealthTracker::Status method_health(std::string_view method,
                                      ContextId target);
  PollingEngine& polling_engine() noexcept { return *engine_; }
  const PollingEngine& polling_engine() const noexcept { return *engine_; }
  ContextClock& clock() noexcept { return *clock_; }
  std::uint64_t rsrs_sent() const noexcept { return rsrs_sent_; }
  std::uint64_t rsrs_delivered() const noexcept { return rsrs_delivered_; }

  // --- observability (docs/ARCHITECTURE.md §12) ---
  /// The runtime-owned observability bundle shared by all contexts.
  telemetry::Telemetry& telemetry() noexcept { return *tele_; }
  /// True when any event sink is live: the always-on flight recorder or the
  /// opt-in sampling tracer.  Instrumented sites allocate ids and build
  /// Event structs only behind this check, so the all-off cost stays one
  /// relaxed load per sink.
  bool observing() const noexcept {
    return (flight_ != nullptr && flight_->enabled()) ||
           tele_->tracer().enabled();
  }
  /// Record one lifecycle event into this context's flight ring (always on)
  /// and the tracer (when sampling is enabled).
  void observe(const telemetry::Event& ev) {
    if (flight_ != nullptr && flight_->enabled()) flight_->record(ev);
    if (tele_->tracer().enabled()) tele_->tracer().record(ev);
  }
  /// Trigger a flight-recorder dump (no-op unless a flight dir is set).
  void dump_flight(std::string_view reason) { tele_->dump_flight(reason); }
  /// Allocate a span / trace id for an RSR started (or forwarded) by this
  /// context.  The context id is folded into the high bits so ids are
  /// globally unique without touching shared atomic counters on the send
  /// hot path (contexts are single-writer; see FlightRecorder's contract).
  telemetry::SpanId next_span() noexcept {
    return (static_cast<std::uint64_t>(id_) + 1) << 40 | ++span_seq_;
  }
  std::uint64_t next_trace() noexcept {
    return (static_cast<std::uint64_t>(id_) + 1) << 40 | ++trace_seq_;
  }
  /// JSON snapshots for the metrics exporter's providers (docs §12.3):
  /// this context's health-tracker entries and cost-model estimates.
  std::string health_json() const;
  std::string cost_model_json() const;

  // --- runtime wiring (called by Runtime during construction) ---
  void add_module(std::unique_ptr<CommModule> m);
  void finalize_modules();
  /// Recompute the inbound interference drag after poll config changes.
  void update_interference();

 private:
  /// Small integer id for an interned method name (connection-cache keys).
  using MethodId = std::uint32_t;

  /// `via` is the module that polled the packet in (nullptr when unknown,
  /// e.g. loopback dispatch); the adaptive engine uses it to attribute
  /// one-way timing samples.
  void deliver(Packet pkt, CommModule* via = nullptr);
  /// Shared body of rsr() / rsr_traced(): `trace_override` != 0 reuses an
  /// existing causal chain instead of allocating a fresh trace id.
  DeliveryStatus rsr_impl(Startpoint& sp, HandlerId handler,
                          util::SharedBytes payload,
                          std::uint64_t trace_override);
  void forward(Packet pkt);
  /// Select (or keep) `link`'s connection.  `forced` names a method the
  /// application forced (null: the active policy decides).  Returns false,
  /// with the reason in `why`, when no method can be selected.
  bool ensure_connection(Startpoint::Link& link, const std::string* forced,
                         std::uint64_t payload_bytes, std::string& why);
  /// Periodic adaptive rerank of one link's table (docs §11); cheap check
  /// against Link::rerank_at when due in the future.
  void maybe_rerank(Startpoint::Link& link);
  /// Shared rerank-and-invalidate step for maybe_rerank / rerank().
  bool rerank_link(Startpoint::Link& link);
  void register_adapt_handlers();
  std::shared_ptr<CommObject> cached_connection(const CommDescriptor& d);
  MethodId intern_method(std::string_view name);
  /// A packet originating here for (`dst`, `endpoint`), carrying any timing
  /// echo pending for `dst` (docs §11).
  Packet outbound(ContextId dst, EndpointId endpoint, HandlerId h,
                  const util::SharedBytes& payload, telemetry::SpanId span,
                  std::uint64_t trace);
  /// The one call site of CommModule::send: ship `pkt` over `conn`, update
  /// the method's counters and send_bytes histogram, feed the health
  /// tracker's (method, `target`) entry, and record a `phase` event on
  /// delivery.  Returns whether the method accepted the packet; on failure
  /// `action` holds the health tracker's verdict.
  bool transmit(CommObject& conn, ContextId target, Packet pkt,
                telemetry::Phase phase, telemetry::SpanId parent,
                HealthTracker::FailAction& action);
  /// The send loop every link shares -- RSR links, relay links, rebirth
  /// probes and dead-letter redelivery: select, transmit, retry transient
  /// failures, evict + re-select dead methods, for at most `max_attempts`
  /// sends.  Each attempt charges `overhead` and sends a copy of `pkt`,
  /// stamped with the send time unless it carries one already (a relayed
  /// packet keeps its sender's).  Returns Ok on delivery; Transient when the
  /// attempts ran out (the connection is evicted); Dead when no method can
  /// be selected or a forced method was declared dead.  On failure `why`
  /// says what went wrong.
  DeliveryStatus send_with_failover(Startpoint::Link& link, const Packet& pkt,
                                    const std::string* forced,
                                    std::uint64_t max_attempts, Time overhead,
                                    telemetry::Phase phase,
                                    telemetry::SpanId parent,
                                    std::string& why);
  /// Attempt bound of a full failover walk over `link`'s table: every entry
  /// through its failure threshold, plus a few restore probes.  A healthy
  /// fabric exits on the first attempt.
  std::uint64_t failover_bound(const Startpoint::Link& link) const {
    return health_.params().fail_threshold * (link.table.size() + 1) + 8;
  }
  /// Drop a link's cached connection (and every cache entry sharing it) so
  /// the next attempt re-runs selection.
  void evict_connection(Startpoint::Link& link);
  /// Append to the selection log, evicting the oldest record when full.
  void log_selection(SelectionRecord rec) {
    if (selection_log_.size() == kSelectionLogCapacity) {
      selection_log_.pop_front();
    }
    selection_log_.push_back(std::move(rec));
  }
  /// When everything applicable is quarantined, probe the entry whose
  /// backoff expires soonest instead of failing the RSR.
  std::optional<std::size_t> quarantined_fallback(const DescriptorTable& table);
  /// Recompute Link::degraded/reprobe_at after a selection won at `winner`.
  void refresh_link_degradation(Startpoint::Link& link, std::size_t winner);
  /// Health-tracker bookkeeping of transmit().  Returns the action to take;
  /// updates telemetry counters and traces.
  HealthTracker::FailAction note_send_failure(MethodId mid, ContextId target,
                                              std::uint16_t trace_label,
                                              DeliveryStatus status,
                                              telemetry::SpanId span = 0,
                                              std::uint64_t trace = 0);
  void note_send_success(MethodId mid, ContextId target,
                         std::uint16_t trace_label,
                         telemetry::SpanId span = 0, std::uint64_t trace = 0);

  // --- robustness internals (docs/ARCHITECTURE.md §14) ---
  /// Out-of-line body of maybe_crash(): evaluates the crash rules against
  /// the current clock and models the outage + restart.
  void crash_check();
  /// Discard every piece of in-memory communication state and purge mailbox
  /// traffic arriving before `cutoff` (the restart instant).
  void wipe_comm_state(Time cutoff);
  /// One RSR parked for a dead peer, waiting for its rebirth.
  struct DeadLetter {
    ContextId target = kNoContext;
    EndpointId endpoint = 0;
    HandlerId handler = 0;
    util::SharedBytes payload;
    std::uint32_t budget = 0;  ///< redelivery attempts left
  };
  /// Park one RSR in the bounded dead-letter queue (oldest dropped on
  /// overflow).
  void deadletter(const Startpoint::Link& link, HandlerId h,
                  const util::SharedBytes& payload, telemetry::SpanId span,
                  std::uint64_t trace);
  /// After a Failover verdict: if every applicable method to `target` has
  /// been raw-Dead past the grace period, declare the peer down and evict
  /// everything cached about it.
  void maybe_declare_peer_dead(ContextId target);
  /// After a rebirth: resend `target`'s parked dead letters (budget
  /// permitting; re-parked on failure, dropped at budget exhaustion).
  void redeliver_deadletters(ContextId target);

  Runtime* runtime_;
  ContextId id_;
  std::unique_ptr<ContextClock> clock_;
  SimCostParams costs_;

  std::vector<std::unique_ptr<CommModule>> modules_;
  std::unique_ptr<PollingEngine> engine_;
  HandlerTable handlers_;
  std::map<EndpointId, std::unique_ptr<Endpoint>> endpoints_;
  Endpoint* root_ = nullptr;
  EndpointId next_endpoint_id_ = 1;

  std::unique_ptr<MethodSelector> selector_;
  /// Method names interned to dense ids so connection-cache keys carry no
  /// string construction or comparison on the hot path.
  std::map<std::string, MethodId, std::less<>> method_ids_;
  std::map<std::pair<MethodId, ContextId>, std::shared_ptr<CommObject>>
      connections_;
  /// Relay links of this context as a forwarding node, keyed by next hop.
  /// Each holds the hop's descriptor table minus the entries that land back
  /// here, and selects, fails over and restores like an RSR link.  Cleared
  /// when the selection policy or poll configuration changes.
  std::map<ContextId, Startpoint::Link> relay_links_;
  HealthTracker health_;
  std::deque<SelectionRecord> selection_log_;
  DescriptorTable local_table_;

  // Adaptive transport engine state (docs/ARCHITECTURE.md §11).
  std::unique_ptr<adapt::CostModel> cost_model_;
  bool adapt_enabled_ = false;
  Time adapt_rerank_interval_ = 0;       ///< 0 disables the periodic rerank
  std::uint64_t adapt_rerank_bytes_ = 1024;  ///< rerank reference payload

  // Robustness state (crash/restart fault domain, docs §14).
  /// The simulated fabric's fault plan, cached at finalize_modules() so the
  /// crash check costs one pointer test when no plan exists (null on the
  /// realtime fabric).  The plan object's address is stable across
  /// set_faults() calls.
  const simnet::FaultPlan* fault_plan_ = nullptr;
  int my_partition_ = -1;
  std::uint32_t incarnation_ = 1;
  /// Peers declared down by peer-death detection.
  std::set<ContextId> dead_peers_;
  std::deque<DeadLetter> deadletters_;
  std::uint32_t retry_budget_ = 0;     ///< robust.retry_budget (0 = DLQ off)
  std::size_t deadletter_cap_ = 64;    ///< robust.deadletter_cap
  Time peer_grace_ = 0;                ///< robust.peer_grace_ms
  bool draining_ = false;
  ContextId drain_sibling_ = kNoContext;

  /// Packet under dispatch (deliver() sets/restores it around the handler
  /// body; nested loopback dispatch restores the outer packet correctly).
  const Packet* inbound_pkt_ = nullptr;
  /// Last RPC call's selected method per peer (enquiry only; see
  /// note_rpc_method / explain_selection).
  std::map<ContextId, std::string> rpc_last_method_;

  std::uint64_t rsrs_sent_ = 0;
  std::uint64_t rsrs_delivered_ = 0;
  std::uint64_t span_seq_ = 0;   ///< low bits of next_span() (single-writer)
  std::uint64_t trace_seq_ = 0;  ///< low bits of next_trace()

  // Runtime-owned observability bundle (never null after construction).
  telemetry::Telemetry* tele_ = nullptr;
  telemetry::ContextMetrics* cmetrics_ = nullptr;
  /// This context's always-on flight recorder (may be null when the
  /// runtime disabled flights).
  telemetry::FlightRecorder* flight_ = nullptr;

  // Realtime blocking pollers: one thread per method handed off.
  struct BlockingPoller;
  std::vector<std::unique_ptr<BlockingPoller>> rt_pollers_;
  std::unique_ptr<std::recursive_mutex> rt_mutex_;  // guards comm state in rt fabric
};

}  // namespace nexus
