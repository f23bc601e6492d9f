#include "nexus/context.hpp"

#include <algorithm>
#include <cassert>
#include <mutex>

#include "nexus/adapt/adaptive_selector.hpp"
#include "nexus/adapt/reranker.hpp"
#include "nexus/runtime.hpp"
#include "nexus/telemetry/json.hpp"
#include "util/error.hpp"
#include "util/log.hpp"

namespace nexus {

namespace {
constexpr EndpointId kRootEndpointId = 1;
constexpr std::uint8_t kMaxForwardHops = 8;
}  // namespace

/// Realtime-only: dedicated thread servicing one method's blocking poll.
struct Context::BlockingPoller {
  Context* ctx;
  CommModule* module;
  std::thread thread;

  BlockingPoller(Context& c, CommModule& m) : ctx(&c), module(&m) {
    thread = std::thread([this] {
      while (auto pkt = module->blocking_poll()) {
        std::lock_guard<std::recursive_mutex> lock(*ctx->rt_mutex_);
        if (pkt->corrupted) {
          // Receiver-side quarantine: a fault rule damaged the packet in
          // flight; never dispatch it.
          module->counters().recv_corrupt += 1;
          continue;
        }
        module->counters().recvs += 1;
        module->counters().bytes_received += pkt->wire_size();
        ctx->deliver(std::move(*pkt), module);
      }
    });
  }

  ~BlockingPoller() {
    module->shutdown_blocking();
    if (thread.joinable()) thread.join();
  }
};

Context::Context(Runtime& runtime, ContextId id,
                 std::unique_ptr<ContextClock> clock, SimCostParams costs)
    : runtime_(&runtime), id_(id), clock_(std::move(clock)), costs_(costs) {
  engine_ = std::make_unique<PollingEngine>(
      *clock_,
      [this](Packet p, CommModule* via) { deliver(std::move(p), via); },
      costs_.poll_iteration_overhead, costs_.blocking_check_cost);
  tele_ = &runtime.telemetry();
  cmetrics_ = &tele_->metrics().context(id_);
  flight_ = tele_->flight(id_);
  engine_->attach_telemetry(*tele_, id_);
  selector_ = std::make_unique<FirstApplicableSelector>();
  // Per-context jitter stream: contexts probing the same dead method must
  // not re-probe in lock-step.
  health_ = HealthTracker(runtime.options().health,
                          runtime.options().seed ^ (0x48ea17ull * (id_ + 1)));
  if (!clock_->simulated()) {
    rt_mutex_ = std::make_unique<std::recursive_mutex>();
  }
  // Adaptive transport engine (docs/ARCHITECTURE.md §11): the cost model is
  // always constructed (enquiries may inspect it) but only fed while
  // adapt_enabled_; enablement comes from RuntimeOptions, the database, or
  // installing a payload-aware selector later.
  const util::ResourceDb& db = runtime.db();
  adapt::CostModelParams cmp;
  cmp.alpha = db.get_double("adapt.alpha", cmp.alpha);
  cmp.half_life =
      db.get_scoped_int(id_, "adapt.half_life_ms", 500) * 1'000'000;
  cmp.bw_floor_bytes = static_cast<std::uint64_t>(
      db.get_scoped_int(id_, "adapt.bw_floor_bytes", 2048));
  cmp.default_mb_s = db.get_double("adapt.default_mb_s", cmp.default_mb_s);
  cost_model_ = std::make_unique<adapt::CostModel>(cmp);
  adapt_enabled_ = runtime.options().adaptive || db.get_bool("adapt.enabled",
                                                             false);
  adapt_rerank_interval_ =
      db.get_scoped_int(id_, "adapt.rerank_ms", 200) * 1'000'000;
  adapt_rerank_bytes_ = static_cast<std::uint64_t>(
      db.get_scoped_int(id_, "adapt.rerank_bytes", 1024));
  // Robustness layer (docs §14): redelivery budget per dead-lettered RSR
  // (0 keeps the pre-robustness throw-on-exhaustion contract), dead-letter
  // queue bound, and the grace every applicable method must stay Dead for
  // before a peer is declared down.
  retry_budget_ = static_cast<std::uint32_t>(
      db.get_scoped_int(id_, "robust.retry_budget", 0));
  deadletter_cap_ = static_cast<std::size_t>(
      db.get_scoped_int(id_, "robust.deadletter_cap", 64));
  peer_grace_ = db.get_scoped_int(id_, "robust.peer_grace_ms", 200) *
                1'000'000;
  register_adapt_handlers();
  auto root = std::unique_ptr<Endpoint>(new Endpoint(id_, kRootEndpointId));
  root_ = root.get();
  endpoints_.emplace(kRootEndpointId, std::move(root));
  next_endpoint_id_ = kRootEndpointId + 1;
}

Context::~Context() = default;

std::size_t Context::world_size() const { return runtime_->world_size(); }

const util::ResourceDb& Context::config() const { return runtime_->db(); }

void Context::compute_with_polling(Time total, Time chunk) {
  if (chunk <= 0) {
    throw util::UsageError("compute_with_polling requires a positive chunk");
  }
  while (total > 0) {
    maybe_crash();
    const Time step = std::min(chunk, total);
    clock_->advance(step);
    total -= step;
    engine_->poll_once();
  }
}

Endpoint& Context::create_endpoint() {
  const EndpointId id = next_endpoint_id_++;
  auto ep = std::unique_ptr<Endpoint>(new Endpoint(id_, id));
  Endpoint& ref = *ep;
  endpoints_.emplace(id, std::move(ep));
  return ref;
}

Endpoint& Context::endpoint(EndpointId id) {
  auto it = endpoints_.find(id);
  if (it == endpoints_.end()) {
    throw util::UsageError("no endpoint with id " + std::to_string(id) +
                           " in context " + std::to_string(id_));
  }
  return *it->second;
}

bool Context::has_endpoint(EndpointId id) const {
  return endpoints_.contains(id);
}

void Context::destroy_endpoint(EndpointId id) {
  if (id == kRootEndpointId) {
    throw util::UsageError("the root endpoint cannot be destroyed");
  }
  if (endpoints_.erase(id) == 0) {
    throw util::UsageError("destroy_endpoint: no endpoint with id " +
                           std::to_string(id));
  }
}

HandlerId Context::register_handler(std::string_view name, Handler fn,
                                    HandlerKind kind) {
  const HandlerId id = handlers_.add(name, std::move(fn), kind);
  // Intern the telemetry label once at registration: the dispatch path can
  // then stamp events without ever touching the tracer's label mutex.
  if (HandlerTable::Entry* e = handlers_.find(id)) {
    e->trace_label = tele_->tracer().intern(name);
  }
  return id;
}

void Context::bind(Startpoint& sp, const Endpoint& ep) const {
  if (ep.context_id() != id_) {
    throw util::UsageError(
        "bind: startpoints are bound to local endpoints; ship the startpoint "
        "(not the endpoint) to remote contexts");
  }
  Startpoint::Link link;
  link.context = id_;
  link.endpoint = ep.id();
  link.table = local_table_;
  sp.links_.push_back(std::move(link));
}

Startpoint Context::startpoint_to(const Endpoint& ep) const {
  Startpoint sp;
  bind(sp, ep);
  return sp;
}

Startpoint Context::world_startpoint(ContextId target) const {
  Startpoint sp;
  Startpoint::Link link;
  link.context = target;
  link.endpoint = kRootEndpointId;
  // Unknown / never-registered targets get an empty table instead of a
  // throw from deep in the descriptor registry: the rsr() path reports them
  // as DeliveryStatus::Dead with a send_errors increment (both fabrics).
  if (target < runtime_->world_size()) {
    link.table = runtime_->table_of(target);
  }
  sp.links_.push_back(std::move(link));
  return sp;
}

Context::MethodId Context::intern_method(std::string_view name) {
  auto it = method_ids_.find(name);
  if (it != method_ids_.end()) return it->second;
  const MethodId id = static_cast<MethodId>(method_ids_.size());
  method_ids_.emplace(std::string(name), id);
  return id;
}

std::string Context::health_json() const {
  // Interned ids back to names for the export snapshot.
  std::vector<std::string_view> names(method_ids_.size());
  for (const auto& [name, mid] : method_ids_) names[mid] = name;
  std::string out = "{\"context\":" + std::to_string(id_) + ",\"entries\":[";
  bool first = true;
  health_.for_each(now(), [&](const HealthTracker::Key& key,
                              const HealthTracker::Status& s) {
    if (!first) out += ",";
    first = false;
    const std::string_view name =
        key.first < names.size() ? names[key.first] : std::string_view{};
    out += "{\"method\":" + telemetry::json_quote(name) +
           ",\"target\":" + std::to_string(key.second) + ",\"state\":\"" +
           method_health_name(s.state) +
           "\",\"failures\":" + std::to_string(s.failures) +
           ",\"failovers\":" + std::to_string(s.failovers) +
           ",\"restores\":" + std::to_string(s.restores) + "}";
  });
  out += "]}";
  return out;
}

std::string Context::cost_model_json() const {
  std::string out = "{\"context\":" + std::to_string(id_) + ",\"entries\":[";
  // The model keys methods by method_hash(name); resolve names from this
  // context's module set (unknown hashes render numerically).
  std::map<std::uint64_t, std::string_view> names;
  for (const auto& m : modules_) names.emplace(method_hash(m->name()),
                                               m->name());
  bool first = true;
  cost_model_->for_each(now(), [&](std::uint64_t method, ContextId peer,
                                   const adapt::CostEstimate& e) {
    if (!first) out += ",";
    first = false;
    out += "{\"method\":";
    auto it = names.find(method);
    out += it != names.end() ? telemetry::json_quote(it->second)
                             : std::to_string(method);
    out += ",\"peer\":" + std::to_string(peer);
    char buf[96];
    std::snprintf(buf, sizeof(buf),
                  ",\"known\":%s,\"latency_ns\":%.1f,\"bandwidth_mb_s\":%.2f,"
                  "\"confidence\":%.3f}",
                  e.known ? "true" : "false", e.latency_ns, e.bandwidth_mb_s,
                  e.latency_confidence);
    out += buf;
  });
  out += "]}";
  return out;
}

std::shared_ptr<CommObject> Context::cached_connection(
    const CommDescriptor& d) {
  const auto key = std::make_pair(intern_method(d.method), d.context);
  auto it = connections_.find(key);
  if (it != connections_.end()) return it->second;
  CommModule* m = module(d.method);
  if (m == nullptr) {
    throw util::MethodError("method '" + d.method +
                            "' is not loaded in context " +
                            std::to_string(id_));
  }
  auto conn = std::shared_ptr<CommObject>(m->connect(d));
  connections_.emplace(key, conn);
  return conn;
}

bool Context::method_usable(const CommDescriptor& d) {
  CommModule* m = module(d.method);
  if (m == nullptr || !m->applicable(d)) return false;
  return health_.empty() || health_usable(d);
}

bool Context::health_usable(const CommDescriptor& d) {
  return health_.usable(intern_method(d.method), d.context, now());
}

HealthTracker::Status Context::method_health(std::string_view method,
                                             ContextId target) {
  return health_.status(intern_method(method), target, now());
}

std::optional<std::size_t> Context::quarantined_fallback(
    const DescriptorTable& table) {
  // Everything applicable is quarantined.  Dropping the RSR would turn a
  // transient outage into data loss, so probe the entry whose backoff
  // expires soonest (least-recently-declared-dead) instead.
  std::optional<std::size_t> best;
  Time best_retry = 0;
  for (std::size_t i = 0; i < table.size(); ++i) {
    const CommDescriptor& d = table.at(i);
    CommModule* m = module(d.method);
    if (m == nullptr || !m->applicable(d)) continue;
    const Time retry =
        health_.status(intern_method(d.method), d.context, now()).retry_at;
    if (!best || retry < best_retry) {
      best = i;
      best_retry = retry;
    }
  }
  return best;
}

void Context::refresh_link_degradation(Startpoint::Link& link,
                                       std::size_t winner) {
  link.degraded = false;
  link.reprobe_at = 0;
  if (health_.empty()) return;
  for (std::size_t i = 0; i < link.table.size(); ++i) {
    if (i == winner) continue;
    const CommDescriptor& d = link.table.at(i);
    CommModule* m = module(d.method);
    if (m == nullptr || !m->applicable(d)) continue;
    if (health_usable(d)) continue;
    const Time retry =
        health_.status(intern_method(d.method), d.context, now()).retry_at;
    if (!link.degraded || retry < link.reprobe_at) {
      link.degraded = true;
      link.reprobe_at = retry;
    }
  }
}

void Context::evict_connection(Startpoint::Link& link) {
  if (const std::shared_ptr<CommObject> dead = link.conn) {
    // Purge every cache entry sharing the dead connection: the link-level
    // cache, the (method, context) connection cache, and any relay link that
    // would keep resurrecting it.
    std::erase_if(connections_, [&](const auto& kv) {
      return kv.second == dead;
    });
    for (auto& [hop, relay] : relay_links_) {
      if (relay.conn == dead) relay.clear_selection();
    }
  }
  link.clear_selection();
}

bool Context::ensure_connection(Startpoint::Link& link,
                                const std::string* forced,
                                std::uint64_t payload_bytes,
                                std::string& why) {
  if (adapt_enabled_) maybe_rerank(link);
  if (link.conn) {
    if (link.degraded && now() >= link.reprobe_at) {
      // A quarantined entry's backoff has expired: re-run selection so the
      // restored method can win the link back (the next send is its probe).
      // The existing connection stays in the cache -- if selection picks the
      // same method again, cached_connection returns it unchanged.
      link.clear_selection();
    } else if (selector_->payload_aware() && forced == nullptr) {
      // Payload-aware policies re-decide per RSR: the selector's cached
      // per-(peer, class) decision makes this a cheap check, and the link
      // only swaps connections when the class winner actually differs.
      std::string reason;
      const auto idx =
          selector_->select_sized(link.table, *this, payload_bytes, reason);
      if (idx) {
        const CommDescriptor& d = link.table.at(*idx);
        if (d.method == link.selected_method) return true;
        link.conn = cached_connection(d);
        link.selected_method = d.method;
        refresh_link_degradation(link, *idx);
        if (observing()) {
          observe({now(), 0, id_, telemetry::Phase::Select,
                   link.conn->module().trace_label(), *idx, link.context});
        }
        if (!reason.empty()) {
          log_selection(SelectionRecord{link.context, d.method,
                                        std::move(reason), now()});
        }
        return true;
      }
      // Nothing usable right now (e.g. everything quarantined): fall
      // through to the cold path's quarantined_fallback handling.
      link.conn.reset();
      link.selected_method.clear();
    } else {
      return true;
    }
  }
  std::string reason;
  std::optional<std::size_t> idx;
  if (forced != nullptr) {
    idx = link.table.find(*forced);
    if (!idx) {
      why = "forced method '" + *forced +
            "' is not in the link's descriptor table";
      return false;
    }
    CommModule* m = module(*forced);
    if (m == nullptr || !m->applicable(link.table.at(*idx))) {
      why = "forced method '" + *forced + "' is not applicable from context " +
            std::to_string(id_) + " to context " +
            std::to_string(link.context);
      return false;
    }
    reason = "forced by application";
  } else {
    idx = selector_->select_sized(link.table, *this, payload_bytes, reason);
    if (idx && reason.empty()) reason = "cached per-peer decision";
    if (!idx) {
      idx = quarantined_fallback(link.table);
      if (idx) {
        reason = "all applicable methods quarantined; probing the entry "
                 "whose backoff expires soonest";
      }
    }
    if (!idx) {
      why = "no applicable communication method from context " +
            std::to_string(id_) + " to context " +
            std::to_string(link.context);
      return false;
    }
  }
  const CommDescriptor& d = link.table.at(*idx);
  link.conn = cached_connection(d);
  link.selected_method = d.method;
  refresh_link_degradation(link, *idx);
  if (observing()) {
    observe({now(), 0, id_, telemetry::Phase::Select,
             link.conn->module().trace_label(), *idx, link.context});
  }
  log_selection(SelectionRecord{link.context, d.method, std::move(reason),
                                now()});
  return true;
}

Packet Context::outbound(ContextId dst, EndpointId endpoint, HandlerId h,
                         const util::SharedBytes& payload,
                         telemetry::SpanId span, std::uint64_t trace) {
  Packet pkt;
  pkt.src = id_;
  pkt.dst = dst;
  pkt.endpoint = endpoint;
  pkt.handler = h;
  pkt.payload = payload;  // aliases the caller's buffer: two atomic ops
  pkt.span = span;
  pkt.trace = trace;
  pkt.incarnation = incarnation_;
  if (adapt_enabled_) {
    // Piggyback any pending timing echo for this peer (docs §11): the
    // measurement the peer's model is waiting for rides home for free.
    if (auto e = cost_model_->take_echo(dst)) {
      pkt.adapt_method = e->method;
      pkt.adapt_bytes = e->bytes;
      pkt.adapt_oneway = e->oneway_ns;
    }
  }
  return pkt;
}

bool Context::transmit(CommObject& conn, ContextId target, Packet pkt,
                       telemetry::Phase phase, telemetry::SpanId parent,
                       HealthTracker::FailAction& action) {
  // Only the module is used after send(): a failure verdict may evict the
  // last owner of `conn` (peer death drops a relay link's selection).
  CommModule& m = conn.module();
  const telemetry::SpanId span = pkt.span;
  const std::uint64_t trace = pkt.trace;
  const ContextId dst = pkt.dst;
  const SendResult r = m.send(conn, std::move(pkt));
  m.counters().sends += 1;
  if (!r.ok()) {
    m.counters().send_errors += 1;
    action = note_send_failure(intern_method(m.name()), target,
                               m.trace_label(), r.status, span, trace);
    return false;
  }
  m.counters().bytes_sent += r.wire;
  if (tele_->metrics().enabled() && m.metrics() != nullptr) {
    m.metrics()->send_bytes.add(r.wire);
  }
  if (observing()) {
    observe({now(), span, id_, phase, m.trace_label(), r.wire, dst, parent,
             trace});
  }
  if (!health_.empty()) {
    note_send_success(intern_method(m.name()), target, m.trace_label(), span,
                      trace);
  }
  return true;
}

void Context::note_send_success(MethodId mid, ContextId target,
                                std::uint16_t trace_label,
                                telemetry::SpanId span, std::uint64_t trace) {
  const MethodHealth prev = health_.status(mid, target, now()).state;
  if (!health_.on_success(mid, target)) return;
  if (prev == MethodHealth::Dead || prev == MethodHealth::Probation) {
    // A restore probe succeeded: the quarantined method is back in use.
    ++cmetrics_->restores;
    if (observing()) {
      observe({now(), span, id_, telemetry::Phase::Restore, trace_label, 0,
               target, 0, trace});
    }
  }
  // Rebirth: any successful send to a declared-dead peer un-declares it and
  // drains its parked dead letters.
  if (!dead_peers_.empty() && dead_peers_.erase(target) != 0) {
    ++cmetrics_->peer_reborns;
    if (observing()) {
      observe({now(), span, id_, telemetry::Phase::PeerReborn, trace_label, 0,
               target, 0, trace});
    }
    redeliver_deadletters(target);
  }
}

HealthTracker::FailAction Context::note_send_failure(MethodId mid,
                                                     ContextId target,
                                                     std::uint16_t trace_label,
                                                     DeliveryStatus status,
                                                     telemetry::SpanId span,
                                                     std::uint64_t trace) {
  const MethodHealth prev = health_.status(mid, target, now()).state;
  const HealthTracker::FailAction action = health_.on_failure(
      mid, target, now(), /*hard=*/status == DeliveryStatus::Dead);
  if (prev == MethodHealth::Healthy) {
    ++cmetrics_->suspects;
    if (observing()) {
      observe({now(), span, id_, telemetry::Phase::Suspect, trace_label, 0,
               target, 0, trace});
    }
  }
  if (action == HealthTracker::FailAction::Failover) {
    ++cmetrics_->failovers;
    if (observing()) {
      observe({now(), span, id_, telemetry::Phase::Failover, trace_label, 0,
               target, 0, trace});
    }
    // A quarantine is one of the flight recorder's dump triggers: the
    // post-mortem should show what led up to the method being declared
    // dead.  No-op unless a flight dir is configured.
    tele_->dump_flight("quarantine");
    // Escalation: a quarantine may have been the last method standing.
    maybe_declare_peer_dead(target);
  }
  return action;
}

void Context::maybe_declare_peer_dead(ContextId target) {
  if (target == id_ || target >= world_size()) return;
  if (dead_peers_.find(target) != dead_peers_.end()) return;
  // Down only when EVERY applicable method to the peer has been raw-Dead
  // (no Probation derivation -- an expired backoff means "will probe", not
  // "recovered") continuously for at least the grace period.
  const DescriptorTable& table = runtime_->table_of(target);
  bool any_applicable = false;
  for (std::size_t i = 0; i < table.size(); ++i) {
    const CommDescriptor& d = table.at(i);
    CommModule* m = module(d.method);
    if (m == nullptr || !m->applicable(d)) continue;
    any_applicable = true;
    const HealthTracker::Status s =
        health_.raw_status(intern_method(d.method), d.context);
    if (s.state != MethodHealth::Dead || s.died_at == 0 ||
        s.died_at + peer_grace_ > now()) {
      return;
    }
  }
  if (!any_applicable) return;
  dead_peers_.insert(target);
  ++cmetrics_->peer_deaths;
  if (observing()) {
    observe({now(), 0, id_, telemetry::Phase::PeerDead, 0, 0, target});
  }
  // Peer death is a flight-recorder dump trigger: the post-mortem should
  // show the failure cascade that killed every method.
  tele_->dump_flight("peer-death");
  // Evict everything cached about the dead peer: connections, the relay
  // link's selection, and cost-model rows (measurements of its previous life
  // would poison selection for its next incarnation).  The relay link is
  // reset, not erased: this may run inside a relayed send over it.
  std::erase_if(connections_,
                [target](const auto& kv) { return kv.first.second == target; });
  if (auto relay = relay_links_.find(target); relay != relay_links_.end()) {
    relay->second.clear_selection();
  }
  cost_model_->evict_peer(target);
}

void Context::redeliver_deadletters(ContextId target) {
  if (deadletters_.empty()) return;
  std::deque<DeadLetter> mine;
  std::erase_if(deadletters_, [&](DeadLetter& dl) {
    if (dl.target != target) return false;
    mine.push_back(std::move(dl));
    return true;
  });
  for (DeadLetter& dl : mine) {
    if (dl.budget == 0) {
      ++cmetrics_->deadletter_drops;
      continue;
    }
    --dl.budget;
    Startpoint::Link link;
    link.context = dl.target;
    link.endpoint = dl.endpoint;
    link.table = runtime_->table_of(dl.target);
    const bool obs = observing();
    const telemetry::SpanId span = obs ? next_span() : 0;
    const std::uint64_t trace = obs ? next_trace() : 0;
    std::string why;
    if (send_with_failover(
            link, outbound(dl.target, dl.endpoint, dl.handler, dl.payload,
                           span, trace),
            nullptr, failover_bound(link), costs_.rsr_send_overhead,
            telemetry::Phase::Send, 0, why) == DeliveryStatus::Ok) {
      ++cmetrics_->deadletter_redeliveries;
    } else if (dl.budget == 0) {
      ++cmetrics_->deadletter_drops;
    } else if (deadletters_.size() >= deadletter_cap_) {
      ++cmetrics_->deadletter_drops;
    } else {
      deadletters_.push_back(std::move(dl));
    }
  }
}

DeliveryStatus Context::send_with_failover(
    Startpoint::Link& link, const Packet& pkt, const std::string* forced,
    std::uint64_t max_attempts, Time overhead, telemetry::Phase phase,
    telemetry::SpanId parent, std::string& why) {
  std::uint64_t failures = 0;
  for (;;) {
    if (!ensure_connection(link, forced, pkt.payload.size(), why)) {
      return DeliveryStatus::Dead;
    }
    const CommModule& m = link.conn->module();
    // Each attempt copies the packet (a SharedBytes refcount bump, no byte
    // copy) because send() consumes its argument even when delivery fails.
    Packet attempt = pkt;
    clock_->advance(overhead);
    if (pkt.sent_at == 0) attempt.sent_at = now();
    HealthTracker::FailAction action{};
    if (transmit(*link.conn, link.context, std::move(attempt), phase, parent,
                 action)) {
      if (failures > 0 && tele_->metrics().enabled()) {
        cmetrics_->rsr_retries.add(failures);
      }
      return DeliveryStatus::Ok;
    }
    ++failures;
    if (failures >= max_attempts) {
      why = "rsr to context " + std::to_string(link.context) + " failed " +
            std::to_string(failures) + " times across every applicable method";
      evict_connection(link);
      return DeliveryStatus::Transient;
    }
    if (forced != nullptr) {
      if (action == HealthTracker::FailAction::Failover) {
        why = "forced method '" + *forced + "' to context " +
              std::to_string(link.context) +
              " was declared dead (failover is disabled while a method is "
              "forced)";
        return DeliveryStatus::Dead;
      }
      continue;  // transient: retry the forced method
    }
    if (action == HealthTracker::FailAction::Retry) continue;
    // Failover: drop the dead connection and let selection pick the next
    // applicable method (the health gate now excludes the quarantined one).
    const auto failed =
        health_.status(intern_method(m.name()), link.context, now()).failures;
    log_selection(SelectionRecord{link.context, std::string(m.name()),
                                  "failover: method declared dead after " +
                                      std::to_string(failed) + " failures",
                                  now()});
    evict_connection(link);
  }
}

void Context::deadletter(const Startpoint::Link& link, HandlerId h,
                         const util::SharedBytes& payload,
                         telemetry::SpanId span, std::uint64_t trace) {
  if (deadletters_.size() >= deadletter_cap_) {
    deadletters_.pop_front();  // bounded queue: oldest letter is dropped
    ++cmetrics_->deadletter_drops;
  }
  deadletters_.push_back(
      DeadLetter{link.context, link.endpoint, h, payload, retry_budget_});
  ++cmetrics_->deadletters;
  if (observing()) {
    observe({now(), span, id_, telemetry::Phase::Deadletter, 0,
             payload.size(), link.context, 0, trace});
  }
}

DeliveryStatus Context::rsr(Startpoint& sp, HandlerId handler,
                            util::SharedBytes payload) {
  return rsr_impl(sp, handler, std::move(payload), 0);
}

DeliveryStatus Context::rsr_traced(Startpoint& sp, HandlerId handler,
                                   util::SharedBytes payload,
                                   std::uint64_t trace) {
  return rsr_impl(sp, handler, std::move(payload), trace);
}

DeliveryStatus Context::rsr_traced(Startpoint& sp, HandlerId handler,
                                   const util::PackBuffer& args,
                                   std::uint64_t trace) {
  return rsr_impl(sp, handler, util::SharedBytes::copy_of(args.bytes()),
                  trace);
}

DeliveryStatus Context::rsr_impl(Startpoint& sp, HandlerId handler,
                                 util::SharedBytes payload,
                                 std::uint64_t trace_override) {
  if (!sp.bound()) {
    throw util::UsageError("rsr on an unbound startpoint");
  }
  std::unique_lock<std::recursive_mutex> lock;
  if (rt_mutex_) lock = std::unique_lock<std::recursive_mutex>(*rt_mutex_);
  maybe_crash();

  ++rsrs_sent_;
  // One root span and one trace id per RSR: every link of a multicast shares
  // them, and forwarding nodes allocate child spans under the same trace, so
  // send and dispatch line up causally across contexts.  A caller-supplied
  // trace (the RPC layer) extends an existing causal chain instead.
  const bool obs = observing();
  const telemetry::SpanId span = obs ? next_span() : 0;
  const std::uint64_t trace =
      trace_override != 0 ? trace_override : (obs ? next_trace() : 0);
  const std::string* forced =
      sp.forced_method() ? &*sp.forced_method() : nullptr;
  DeliveryStatus worst = DeliveryStatus::Ok;
  std::string why;
  for (auto& link : sp.links_) {
    // Unknown / never-registered target: report Dead instead of throwing
    // from deep inside the descriptor registry (group pseudo-contexts at or
    // above kGroupContextBase are real multicast addresses, not errors).
    if (link.context >= world_size() && link.context < kGroupContextBase) {
      ++cmetrics_->send_errors;
      worst = DeliveryStatus::Dead;
      continue;
    }
    // A declared-dead peer gets one attempt with the real payload: the
    // rebirth probe.  Success runs the rebirth path (and this RSR is
    // delivered); failure just means "still dead" and parks the RSR.
    const bool rebirth_probe =
        retry_budget_ > 0 && is_peer_dead(link.context);
    const DeliveryStatus s = send_with_failover(
        link, outbound(link.context, link.endpoint, handler, payload, span,
                       trace),
        forced, rebirth_probe ? 1 : failover_bound(link),
        costs_.rsr_send_overhead, telemetry::Phase::Send, 0, why);
    if (s == DeliveryStatus::Ok) continue;
    // An unroutable RSR throws; so does an exhausted one without a
    // dead-letter budget (the pre-robustness contract every existing caller
    // relies on).  With a budget (docs §14) it is parked instead.
    if (!rebirth_probe && (s == DeliveryStatus::Dead || retry_budget_ == 0)) {
      throw util::MethodError(why);
    }
    deadletter(link, handler, payload, span, trace);
    if (worst == DeliveryStatus::Ok) worst = DeliveryStatus::Transient;
  }
  // Paper §3.3: the polling function is called at least every time a Nexus
  // operation is performed.
  engine_->poll_once();
  return worst;
}

DeliveryStatus Context::rsr(Startpoint& sp, HandlerId handler,
                            const util::PackBuffer& args) {
  return rsr(sp, handler, util::SharedBytes::copy_of(args.bytes()));
}

DeliveryStatus Context::rsr(Startpoint& sp, HandlerId handler) {
  return rsr(sp, handler, util::SharedBytes{});
}

DeliveryStatus Context::rsr(Startpoint& sp, std::string_view handler,
                            util::SharedBytes payload) {
  return rsr(sp, HandlerTable::id_of(handler), std::move(payload));
}

DeliveryStatus Context::rsr(Startpoint& sp, std::string_view handler,
                            util::Bytes payload) {
  return rsr(sp, HandlerTable::id_of(handler),
             util::SharedBytes(std::move(payload)));
}

DeliveryStatus Context::rsr(Startpoint& sp, std::string_view handler,
                            const util::PackBuffer& args) {
  return rsr(sp, HandlerTable::id_of(handler),
             util::SharedBytes::copy_of(args.bytes()));
}

DeliveryStatus Context::rsr(Startpoint& sp, std::string_view handler) {
  return rsr(sp, HandlerTable::id_of(handler), util::SharedBytes{});
}

void Context::crash_check() {
  const simnet::FaultPlan& plan = *fault_plan_;
  if (!plan.crashed(id_, my_partition_, now())) return;
  const Time end = plan.crash_end(id_, my_partition_, now());
  if (end == simnet::kInfinity) {
    // The virtual clock can never reach infinity; a permanently-dead
    // context is modelled with a finite `until` beyond the workload horizon.
    throw util::UsageError("crash window for context " + std::to_string(id_) +
                           " never ends; use a finite until");
  }
  // Model the outage: everything in memory is lost at the crash instant,
  // the context is silent until the window closes, and traffic that landed
  // mid-outage was addressed to a process that no longer exists -- wipe
  // once on the way down and once on the way back up.
  wipe_comm_state(end);
  clock_->advance(end - now());
  incarnation_ = plan.incarnation(id_, my_partition_, now());
  wipe_comm_state(end);
  if (observing()) {
    // Local reincarnation event; aux carries the new epoch.
    observe({now(), 0, id_, telemetry::Phase::PeerReborn, 0, 0,
             incarnation_});
  }
}

void Context::wipe_comm_state(Time cutoff) {
  if (SimFabric* f = runtime_->sim()) {
    // A crashed process's sockets are gone: drop everything that arrived
    // (or will arrive) before the restart instant.
    for (auto& [name, in] : f->host(id_).boxes) in.box.purge_before(cutoff);
  }
  connections_.clear();
  relay_links_.clear();
  // Fresh health history (the old incarnation's quarantines died with it),
  // on a jitter stream that differs per incarnation so reborn probers do
  // not replay their previous life's schedule.
  health_ = HealthTracker(
      runtime_->options().health,
      runtime_->options().seed ^ (0x48ea17ull * (id_ + 1)) ^
          (0x9e3779b97f4a7c15ull * incarnation_));
  cost_model_->clear();
  dead_peers_.clear();
  deadletters_.clear();
  for (auto& m : modules_) m->on_crash_restart();
}

void Context::drain_forwarding(ContextId sibling) {
  if (sibling >= world_size()) {
    throw util::UsageError("drain_forwarding: sibling " +
                           std::to_string(sibling) +
                           " is not a real context");
  }
  draining_ = true;
  drain_sibling_ = sibling;
  // Relay links send directly; drop them so every relayed packet from here
  // on is re-routed via the sibling.
  relay_links_.clear();
  // Flush everything already in our mailboxes before the caller kills us.
  while (engine_->poll_once()) {
  }
}

void Context::pack_startpoint(util::PackBuffer& pb,
                              const Startpoint& sp) const {
  const std::size_t before = pb.size();
  pb.put_u32(static_cast<std::uint32_t>(sp.links_.size()));
  for (const auto& link : sp.links_) {
    pb.put_u32(link.context);
    pb.put_u64(link.endpoint);
    // Lightweight startpoint optimization (§3.1): omit the table when it is
    // exactly the runtime's default table for the target context.  Group
    // pseudo-contexts (multicast) always carry their table.
    const bool lightweight =
        link.context < runtime_->world_size() &&
        link.table == runtime_->table_of(link.context);
    pb.put_bool(lightweight);
    if (!lightweight) link.table.pack(pb);
  }
  clock_->advance(static_cast<Time>(pb.size() - before) *
                  costs_.pack_cost_per_byte);
}

Startpoint Context::unpack_startpoint(util::UnpackBuffer& ub) const {
  Startpoint sp;
  const std::uint32_t n = ub.get_u32();
  for (std::uint32_t i = 0; i < n; ++i) {
    Startpoint::Link link;
    link.context = ub.get_u32();
    link.endpoint = ub.get_u64();
    const bool lightweight = ub.get_bool();
    link.table = lightweight ? runtime_->table_of(link.context)
                             : DescriptorTable::unpack(ub);
    sp.links_.push_back(std::move(link));
  }
  return sp;
}

void Context::wait_count(const std::uint64_t& counter, std::uint64_t target) {
  if (!rt_mutex_) {
    // Two captures fit std::function's inline buffer: no allocation.
    engine_->wait([&] { return counter >= target; });
    return;
  }
  // Realtime handlers bump the counter under rt_mutex_, possibly on a
  // blocking-poller thread, so the predicate reads it under the same lock.
  std::recursive_mutex& mutex = *rt_mutex_;
  engine_->wait([&] {
    std::lock_guard<std::recursive_mutex> lock(mutex);
    return counter >= target;
  });
}

void Context::deliver(Packet pkt, CommModule* via) {
  // On the realtime fabric, deliveries may come from the context's own
  // polling loop and from blocking-poller threads concurrently; the
  // recursive mutex serializes all mutation of endpoints, handlers, and
  // the connection cache (rsr() takes the same lock).
  std::unique_lock<std::recursive_mutex> lock;
  if (rt_mutex_) lock = std::unique_lock<std::recursive_mutex>(*rt_mutex_);
  if (pkt.dst != id_) {
    forward(std::move(pkt));
    return;
  }
  clock_->advance(costs_.dispatch_overhead);
  auto it = endpoints_.find(pkt.endpoint);
  if (it == endpoints_.end()) {
    throw util::UsageError("RSR addressed to unknown endpoint " +
                           std::to_string(pkt.endpoint) + " in context " +
                           std::to_string(id_));
  }
  Endpoint& ep = *it->second;
  if (!handlers_.contains(pkt.handler)) {
    // An RSR naming a handler this context never registered is a protocol
    // error of the *sender*, not a reason to fault the receiver: count it,
    // record a Drop, and move on (mirrors the unknown-peer contract of
    // rsr()).  HandlerTable::lookup still throws the typed HandlerError for
    // paths that want the exception.
    ++cmetrics_->send_errors;
    if (observing()) {
      observe({now(), pkt.span, id_, telemetry::Phase::Drop, 0,
               pkt.payload.size(), pkt.src, 0, pkt.trace});
    }
    return;
  }
  const HandlerTable::Entry& entry = handlers_.lookup(pkt.handler);
  if (entry.kind == HandlerKind::Threaded) {
    clock_->advance(costs_.threaded_handler_switch);
  }
  ep.deliveries_ += 1;
  ++rsrs_delivered_;
  const bool metrics_on = tele_->metrics().enabled();
  if (metrics_on && pkt.sent_at > 0 && now() >= pkt.sent_at) {
    cmetrics_->rsr_oneway_ns.add(static_cast<std::uint64_t>(now() -
                                                            pkt.sent_at));
  }
  if (adapt_enabled_ && pkt.src != id_ && pkt.src < world_size()) {
    // Consume a timing echo the peer piggybacked (a sample about *our*
    // traffic towards pkt.src), and measure this packet's own one-way time
    // for echoing back on the next send to pkt.src.  Forwarded packets
    // (hops > 0) are skipped: their timing mixes several methods.
    if (pkt.adapt_method != 0) {
      cost_model_->observe(pkt.adapt_method, pkt.src, pkt.adapt_bytes,
                           pkt.adapt_oneway, now());
    }
    if (via != nullptr && pkt.hops == 0 && pkt.sent_at > 0 &&
        now() >= pkt.sent_at) {
      cost_model_->note_incoming(via->name_hash(), pkt.src, pkt.wire_size(),
                                 now() - pkt.sent_at);
    }
  }
  const bool obs = observing();
  if (obs) {
    observe({now(), pkt.span, id_, telemetry::Phase::Dispatch,
             entry.trace_label, pkt.payload.size(), pkt.src, 0, pkt.trace});
  }
  const telemetry::SpanId span = pkt.span;
  const std::uint64_t trace = pkt.trace;
  const std::uint16_t handler_label = entry.trace_label;
  const Time handler_start = now();
  util::UnpackBuffer ub(pkt.payload.span());
  {
    // Expose the packet to the handler body (Context::inbound_packet) and
    // restore the outer packet afterwards: loopback dispatch nests.
    struct InboundGuard {
      const Packet** slot;
      const Packet* prev;
      ~InboundGuard() { *slot = prev; }
    } guard{&inbound_pkt_, inbound_pkt_};
    inbound_pkt_ = &pkt;
    entry.fn(*this, ep, ub);
  }
  const Time handler_end = now();
  const std::uint64_t handler_ns = static_cast<std::uint64_t>(
      handler_end > handler_start ? handler_end - handler_start : 0);
  if (metrics_on) cmetrics_->handler_ns.add(handler_ns);
  if (obs) {
    observe({handler_end, span, id_, telemetry::Phase::HandlerDone,
             handler_label, 0, handler_ns, 0, trace});
  }
}

void Context::forward(Packet pkt) {
  // This context is acting as a forwarding node (paper §3.3): re-send the
  // packet toward its true destination over the best local method.
  // A relay must never fault its own process over traffic it merely
  // carries: an undeliverable packet (hop bound hit, destination's methods
  // all dead -- e.g. a crash window) is dropped and counted like any other
  // sender-side protocol error, and the *sender's* detectors (deadlines,
  // peer death) report the loss.  Mirrors the unknown-handler contract in
  // deliver().
  auto drop_relayed = [&](const std::string& why) {
    ++cmetrics_->send_errors;
    if (observing()) {
      observe({now(), pkt.span, id_, telemetry::Phase::Drop, 0,
               pkt.payload.size(), pkt.dst, 0, pkt.trace});
    }
    util::log_warn("forward", "context " + std::to_string(id_) +
                                  " dropped a relayed packet to context " +
                                  std::to_string(pkt.dst) + " (" + why + ")");
  };
  if (++pkt.hops > kMaxForwardHops) {
    drop_relayed("hop bound");
    return;
  }
  clock_->advance(costs_.dispatch_overhead);
  // Causal tracing: each forwarding hop is a child span of the span the
  // packet arrived with, so a stitched trace shows the chain
  // root -> hop1 -> hop2 -> dispatch.  The packet is restamped with the
  // child span before re-sending; the trace id rides along unchanged.
  const telemetry::SpanId parent = pkt.span;
  if (observing() && parent != 0) pkt.span = next_span();
  // A draining forwarder hands its relay duty to the sibling: the packet's
  // next hop becomes the sibling (pkt.dst is untouched, so the sibling
  // forwards it onward; kMaxForwardHops bounds any mis-configured loop).
  const ContextId via = (draining_ && drain_sibling_ != kNoContext &&
                         drain_sibling_ != pkt.dst && drain_sibling_ != id_)
                            ? drain_sibling_
                            : pkt.dst;
  // The relay link to the next hop leaves out descriptors that land back on
  // this relay (the destination's tcp-class entry names its partition
  // forwarder -- us): when the direct methods die, failover must not pick
  // the route through ourselves and ping-pong the packet into the hop bound.
  auto [it, fresh] = relay_links_.try_emplace(via);
  Startpoint::Link& link = it->second;
  if (fresh) {
    std::vector<CommDescriptor> usable;
    for (const CommDescriptor& d : runtime_->table_of(via).entries()) {
      CommModule* m = module(d.method);
      if (m == nullptr || m->landing_context(d) != id_) usable.push_back(d);
    }
    link.context = via;
    link.table = DescriptorTable(std::move(usable));
  }
  // The packet keeps its sender's src, sent_at, incarnation and timing echo:
  // deliver() credits them to the original sender.  A relay charges no
  // rsr_send_overhead.
  std::string why;
  if (send_with_failover(link, pkt, nullptr, failover_bound(link), 0,
                         telemetry::Phase::Forward, parent,
                         why) != DeliveryStatus::Ok) {
    drop_relayed(why);
  }
}

void Context::set_skip_poll(std::string_view method, std::uint64_t skip) {
  engine_->set_skip(method, skip);
  update_interference();
}

std::uint64_t Context::skip_poll(std::string_view method) const {
  return engine_->skip(method);
}

void Context::set_poll_enabled(std::string_view method, bool enabled) {
  engine_->set_enabled(method, enabled);
  relay_links_.clear();
  update_interference();
}

bool Context::poll_enabled(std::string_view method) const {
  return engine_->enabled(method);
}

void Context::set_adaptive_poll(std::string_view method, bool on,
                                std::uint64_t miss_threshold,
                                std::uint64_t max_skip) {
  engine_->set_adaptive(method, on, miss_threshold, max_skip);
}

void Context::set_blocking_poller(std::string_view method, bool on) {
  if (clock_->simulated()) {
    engine_->set_blocking(method, on);
    update_interference();
    return;
  }
  CommModule* m = module(method);
  if (m == nullptr) {
    throw util::MethodError("set_blocking_poller: method '" +
                            std::string(method) + "' not loaded");
  }
  if (on) {
    if (!m->supports_blocking()) {
      throw util::MethodError("method '" + std::string(method) +
                              "' does not support a blocking poller");
    }
    engine_->set_enabled(method, false);
    rt_pollers_.push_back(std::make_unique<BlockingPoller>(*this, *m));
  } else {
    std::erase_if(rt_pollers_, [&](const std::unique_ptr<BlockingPoller>& p) {
      return p->module == m;
    });
    engine_->set_enabled(method, true);
  }
}

void Context::set_selector(std::unique_ptr<MethodSelector> selector) {
  if (!selector) throw util::UsageError("set_selector: null selector");
  selector_ = std::move(selector);
  relay_links_.clear();
  // A payload-aware policy is useless without measurements to act on, so
  // installing one switches the adaptive plumbing on.
  if (selector_->payload_aware()) adapt_enabled_ = true;
}

void Context::register_adapt_handlers() {
  // Reserved handlers backing the active prober (docs §11).  The probe
  // carries the prober's id; the reply is an ordinary RSR whose packet
  // brings the timing echo home (and whose own one-way time seeds the
  // peer's reverse-direction model).
  register_handler("adapt.probe",
                   [](Context& c, Endpoint&, util::UnpackBuffer& ub) {
                     const ContextId src = ub.get_u32();
                     if (src == c.id() || src >= c.world_size()) return;
                     Startpoint back = c.world_startpoint(src);
                     c.rsr(back, "adapt.probe.reply");
                   });
  register_handler("adapt.probe.reply",
                   [](Context&, Endpoint&, util::UnpackBuffer&) {});
}

void Context::probe_method(const CommDescriptor& d) {
  // Group pseudo-contexts and self-loops are never probed.
  if (d.context == id_ || d.context >= world_size()) return;
  CommModule* m = module(d.method);
  if (m == nullptr || !m->applicable(d)) return;
  util::PackBuffer pb;
  pb.put_u32(id_);
  Packet pkt = outbound(d.context, kRootEndpointId,
                        resolve_handler("adapt.probe"),
                        util::SharedBytes::copy_of(pb.bytes()), 0, 0);
  clock_->advance(costs_.rsr_send_overhead);
  pkt.sent_at = now();
  ++cmetrics_->adapt_probes;
  // A failed probe is a real delivery failure: it walks the method towards
  // quarantine exactly like an application send would, which is what keeps
  // a dead method from being re-probed at full rate.
  HealthTracker::FailAction action{};
  transmit(*cached_connection(d), d.context, std::move(pkt),
           telemetry::Phase::AdaptProbe, 0, action);
}

bool Context::rerank_link(Startpoint::Link& link) {
  if (link.context >= world_size()) return false;  // group tables keep
                                                   // their manual order
  if (!adapt::rerank_table(link.table, *cost_model_, link.context,
                           adapt_rerank_bytes_, now())) {
    return false;
  }
  ++cmetrics_->adapt_reranks;
  // The order change invalidates this link's cached selection; the global
  // connection cache keeps the objects, so re-selecting the same method is
  // free.
  link.clear_selection();
  if (observing()) {
    observe({now(), 0, id_, telemetry::Phase::AdaptRerank, 0,
             link.table.size(), link.context});
  }
  log_selection(SelectionRecord{
      link.context, link.table.at(0).method,
      "adapt.rerank: table reordered by modeled cost (measured fastest "
      "first)",
      now()});
  return true;
}

void Context::maybe_rerank(Startpoint::Link& link) {
  if (adapt_rerank_interval_ <= 0) return;
  const Time t = now();
  if (t < link.rerank_at) return;
  link.rerank_at = t + adapt_rerank_interval_;
  rerank_link(link);
}

bool Context::rerank(Startpoint& sp) {
  bool changed = false;
  for (auto& link : sp.links_) {
    if (rerank_link(link)) changed = true;
    if (adapt_rerank_interval_ > 0) {
      link.rerank_at = now() + adapt_rerank_interval_;
    }
  }
  return changed;
}

void Context::note_adapt_switch(std::string_view method, ContextId target,
                                std::string_view payload_class) {
  ++cmetrics_->adapt_switches;
  if (observing()) {
    observe({now(), 0, id_, telemetry::Phase::AdaptSwitch,
             tele_->tracer().intern(method), 0, target});
  }
  log_selection(SelectionRecord{
      target, std::string(method),
      "adapt.switch: " + std::string(payload_class) +
          "-payload class rerouted by modeled cost",
      now()});
}

std::vector<std::string> Context::methods() const {
  std::vector<std::string> out;
  out.reserve(modules_.size());
  for (const auto& m : modules_) out.emplace_back(m->name());
  return out;
}

CommModule* Context::module(std::string_view name) {
  for (const auto& m : modules_) {
    if (m->name() == name) return m.get();
  }
  return nullptr;
}

const CommModule* Context::module(std::string_view name) const {
  for (const auto& m : modules_) {
    if (m->name() == name) return m.get();
  }
  return nullptr;
}

const util::MethodCounters& Context::method_counters(
    std::string_view name) const {
  const CommModule* m = module(name);
  if (m == nullptr) {
    throw util::MethodError("method_counters: method '" + std::string(name) +
                            "' not loaded");
  }
  return m->counters();
}

telemetry::SelectionReport Context::explain_selection(const Startpoint& sp) {
  telemetry::SelectionReport rep;
  rep.selector = std::string(selector_->name());
  for (const auto& link : sp.links_) {
    telemetry::LinkReport lr;
    lr.target = link.context;
    lr.endpoint = link.endpoint;
    if (sp.forced_method()) {
      // A force_method override bypasses the policy entirely: the forced
      // entry either wins or nothing does.
      lr.forced = true;
      const std::string& method = *sp.forced_method();
      const auto forced_idx = link.table.find(method);
      for (std::size_t i = 0; i < link.table.size(); ++i) {
        const CommDescriptor& d = link.table.at(i);
        telemetry::Candidate c;
        c.position = i;
        c.method = d.method;
        if (CommModule* wm = module(d.method)) {
          if (auto inner = wm->wraps()) c.wraps = *inner;
        }
        if (forced_idx && i == *forced_idx) {
          CommModule* m = module(method);
          if (m == nullptr) {
            c.status = telemetry::CandidateStatus::NotLoaded;
            c.detail = "forced, but module '" + method +
                       "' is not loaded in this context";
          } else if (!m->applicable(d)) {
            c.status = telemetry::CandidateStatus::NotApplicable;
            c.detail = "forced, but the module reports the descriptor "
                       "unreachable from here";
          } else {
            c.status = telemetry::CandidateStatus::Won;
            c.detail = "forced by application";
            lr.winner = method;
          }
        } else {
          c.status = telemetry::CandidateStatus::NotForced;
          c.detail = "application forced '" + method + "'";
        }
        lr.candidates.push_back(std::move(c));
      }
      lr.reason = lr.winner.empty()
                      ? "forced method '" + method +
                            "' is not usable from this context"
                      : "forced by application";
    } else {
      selector_->explain(link.table, *this, lr);
    }
    if (adapt_enabled_) {
      // Per-candidate modeled-cost rows (docs §11): what the cost model
      // believes about each entry right now, plus the adaptive policy's
      // dwell state for it when that policy is installed.
      auto* as = dynamic_cast<adapt::AdaptiveSelector*>(selector_.get());
      for (auto& c : lr.candidates) {
        const adapt::CostEstimate est = cost_model_->estimate(
            method_hash(c.method), link.context, now());
        telemetry::Candidate::ModelRow row;
        row.known = est.known;
        row.latency_us = est.latency_ns / 1.0e3;
        row.bandwidth_mb_s = est.bandwidth_mb_s;
        row.confidence = est.latency_confidence;
        if (as != nullptr) row.dwell = as->dwell_state(link.context, c.method);
        c.model = row;
      }
    }
    // Forwarding detection (§3.3): does the winning descriptor land the
    // packet on a relay rather than the target itself?
    for (const auto& c : lr.candidates) {
      if (c.status != telemetry::CandidateStatus::Won) continue;
      CommModule* m = module(c.method);
      if (m != nullptr) {
        const ContextId land = m->landing_context(link.table.at(c.position));
        if (land != link.context) lr.forward_via = land;
      }
      break;
    }
    rep.links.push_back(std::move(lr));
  }
  for (const auto& [peer, method] : rpc_last_method_) {
    rep.rpc.push_back({peer, method});
  }
  return rep;
}

void Context::add_module(std::unique_ptr<CommModule> m) {
  if (module(m->name()) != nullptr) {
    throw util::UsageError("module '" + std::string(m->name()) +
                           "' added twice to context " + std::to_string(id_));
  }
  // Rebind the module's counters into the registry so the enquiry interface
  // and the module's own accounting share one set of numbers.
  m->bind_metrics(tele_->metrics().method(id_, m->name()));
  m->set_trace_label(tele_->tracer().intern(m->name()));
  modules_.push_back(std::move(m));
}

void Context::finalize_modules() {
  for (auto& m : modules_) m->initialize(*this);
  // Fastest-first ordering for both the polling loop and the local table.
  std::vector<CommModule*> order;
  order.reserve(modules_.size());
  for (auto& m : modules_) order.push_back(m.get());
  std::stable_sort(order.begin(), order.end(),
                   [](const CommModule* a, const CommModule* b) {
                     return a->speed_rank() < b->speed_rank();
                   });
  std::vector<CommDescriptor> descriptors;
  for (CommModule* m : order) {
    engine_->add_module(*m);
    descriptors.push_back(m->local_descriptor());
  }
  local_table_ = DescriptorTable(std::move(descriptors));

  // Per-method configuration from the resource database.
  const util::ResourceDb& db = runtime_->db();
  for (CommModule* m : order) {
    const std::string method(m->name());
    const auto skip = db.get_scoped_int(id_, method + ".skip_poll", 1);
    if (skip > 1) engine_->set_skip(method, static_cast<std::uint64_t>(skip));
    if (auto v = db.get_scoped(id_, method + ".poll_enabled")) {
      engine_->set_enabled(method, *v == "true" || *v == "1" || *v == "on" ||
                                       *v == "yes");
    }
  }
  // Robustness wiring (docs §14): cache the simulated fabric's fault plan
  // (stable address across set_faults) and this context's partition so
  // maybe_crash() costs one pointer test + one vector-empty check.
  if (SimFabric* f = runtime_->sim()) {
    my_partition_ = f->topology().partition_of(id_);
    fault_plan_ = &f->faults();
  }
  update_interference();
}

void Context::update_interference() {
  // Model of the §3.3 kernel-call interference: each expensive (TCP-class)
  // poll slows the drain of in-flight MPL-class transfers into this
  // context.  We express it as a bandwidth drag factor
  //   drag = 1 + interference / (skip * base_iteration + poll_cost)
  // where base_iteration is the cost of one poll-loop pass over the cheap
  // methods.  The MPL-class send path divides its bandwidth by the
  // receiver's drag.
  if (!clock_->simulated()) return;
  SimFabric* fabric = runtime_->sim();
  if (fabric == nullptr) return;

  double drag = 1.0;
  const CommModule* tcp = module("tcp");
  if (tcp != nullptr && engine_->enabled("tcp") && !engine_->blocking("tcp") &&
      costs_.tcp_interference > 0) {
    Time base = costs_.poll_iteration_overhead;
    for (const auto& m : modules_) {
      if (m->name() == "tcp") continue;
      if (engine_->enabled(m->name())) base += m->poll_cost();
    }
    const double denom =
        static_cast<double>(engine_->skip("tcp")) * static_cast<double>(base) +
        static_cast<double>(tcp->poll_cost());
    if (denom > 0) {
      drag += static_cast<double>(costs_.tcp_interference) / denom;
    }
  }
  fabric->host(id_).inbound_drag.store(drag, std::memory_order_relaxed);
}

}  // namespace nexus
