#include "nexus/telemetry/tracer.hpp"

#include <algorithm>

#include "nexus/telemetry/json.hpp"
#include "util/log.hpp"
#include "util/stats.hpp"

namespace nexus::telemetry {

const char* phase_name(Phase p) noexcept {
  switch (p) {
    case Phase::Send: return "send";
    case Phase::Select: return "select";
    case Phase::Enqueue: return "enqueue";
    case Phase::PollHit: return "poll_hit";
    case Phase::Dispatch: return "dispatch";
    case Phase::HandlerDone: return "handler_done";
    case Phase::Forward: return "forward";
    case Phase::Drop: return "drop";
    case Phase::Failover: return "failover";
    case Phase::Suspect: return "suspect";
    case Phase::Restore: return "restore";
    case Phase::Retransmit: return "retransmit";
    case Phase::Ack: return "ack";
    case Phase::DupDrop: return "dup_drop";
    case Phase::AdaptRerank: return "adapt.rerank";
    case Phase::AdaptSwitch: return "adapt.switch";
    case Phase::AdaptProbe: return "adapt.probe";
    case Phase::PeerDead: return "peer.dead";
    case Phase::PeerReborn: return "peer.reborn";
    case Phase::Deadletter: return "rsr.deadletter";
    case Phase::RpcCall: return "rpc.call";
    case Phase::RpcReply: return "rpc.reply";
    case Phase::RpcExpire: return "rpc.expire";
    case Phase::RpcCancel: return "rpc.cancel";
    case Phase::RpcReject: return "rpc.reject";
    case Phase::RpcPull: return "rpc.pull";
    case Phase::RpcChunk: return "rpc.chunk";
    case Phase::Custom: return "custom";
  }
  return "?";
}

Tracer::Tracer(std::size_t capacity) {
  cap_.store(std::max<std::size_t>(8, capacity), std::memory_order_relaxed);
  labels_.emplace_back("");  // id 0 = unnamed
}

void Tracer::set_capacity(std::size_t capacity) {
  cap_.store(std::max<std::size_t>(8, capacity), std::memory_order_relaxed);
  for (Stripe& s : stripes_) {
    std::lock_guard<std::mutex> lock(s.mutex);
    s.ring.clear();
    s.seqs.clear();
    s.head = 0;
    s.warned_wrap = false;
  }
}

std::size_t Tracer::capacity() const {
  return cap_.load(std::memory_order_relaxed);
}

std::uint16_t Tracer::intern(std::string_view label) {
  std::lock_guard<std::mutex> lock(label_mutex_);
  auto it = label_ids_.find(label);
  if (it != label_ids_.end()) return it->second;
  const auto id = static_cast<std::uint16_t>(labels_.size());
  labels_.emplace_back(label);
  label_ids_.emplace(std::string(label), id);
  return id;
}

std::string Tracer::label_name(std::uint16_t id) const {
  std::lock_guard<std::mutex> lock(label_mutex_);
  return id < labels_.size() ? labels_[id] : std::string("?");
}

void Tracer::record(const Event& ev) {
  Stripe& s = stripes_[ev.context % kStripes];
  const std::uint64_t seq = seq_.fetch_add(1, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(s.mutex);
  if (s.ring.empty()) {
    // First event of this stripe: allocate the full per-stripe ring (idle
    // stripes never pay).
    const std::size_t cap = cap_.load(std::memory_order_relaxed);
    s.ring.resize(cap);
    s.seqs.resize(cap);
  }
  const std::size_t slot =
      static_cast<std::size_t>(s.head % s.ring.size());
  s.ring[slot] = ev;
  s.seqs[slot] = seq;
  ++s.head;
  if (s.head == s.ring.size() + 1 && !s.warned_wrap) {
    s.warned_wrap = true;
    util::log_warn("telemetry", "trace ring wrapped after ", s.ring.size(),
                   " events; oldest events are being overwritten");
  }
}

void Tracer::record_custom(Time when, std::uint32_t context,
                           std::string_view what) {
  if (!enabled()) return;
  Event ev;
  ev.when = when;
  ev.context = context;
  ev.phase = Phase::Custom;
  ev.label = intern(what);
  record(ev);
}

std::vector<std::string> Tracer::labels_snapshot() const {
  std::lock_guard<std::mutex> lock(label_mutex_);
  return labels_;
}

std::vector<Event> Tracer::events() const {
  // Gather every stripe's retained (event, seq) pairs, then merge by the
  // global sequence: exact record order.
  std::vector<std::pair<std::uint64_t, Event>> tagged;
  for (const Stripe& s : stripes_) {
    std::lock_guard<std::mutex> lock(s.mutex);
    if (s.ring.empty()) continue;
    const std::size_t cap = s.ring.size();
    const auto n =
        static_cast<std::uint64_t>(std::min<std::uint64_t>(s.head, cap));
    for (std::uint64_t i = s.head - n; i < s.head; ++i) {
      tagged.emplace_back(s.seqs[i % cap], s.ring[i % cap]);
    }
  }
  std::sort(tagged.begin(), tagged.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  std::vector<Event> out;
  out.reserve(tagged.size());
  for (auto& [seq, ev] : tagged) out.push_back(ev);
  return out;
}

std::uint64_t Tracer::recorded() const {
  std::uint64_t total = 0;
  for (const Stripe& s : stripes_) {
    std::lock_guard<std::mutex> lock(s.mutex);
    total += s.head;
  }
  return total;
}

std::uint64_t Tracer::dropped() const {
  std::uint64_t lost = 0;
  for (const Stripe& s : stripes_) {
    std::lock_guard<std::mutex> lock(s.mutex);
    if (!s.ring.empty() && s.head > s.ring.size()) {
      lost += s.head - s.ring.size();
    }
  }
  return lost;
}

void Tracer::clear() {
  for (Stripe& s : stripes_) {
    std::lock_guard<std::mutex> lock(s.mutex);
    s.head = 0;
    s.warned_wrap = false;
  }
}

namespace {
/// Chrome trace timestamps are microseconds; ours are nanoseconds.
std::string chrome_ts(Time ns) {
  return util::fmt_fixed(static_cast<double>(ns) / 1000.0, 3);
}
}  // namespace

std::string Tracer::chrome_json() const {
  const std::vector<Event> evs = events();
  const std::vector<std::string> labels = labels_snapshot();
  const std::uint64_t total = recorded();
  const std::uint64_t lost = dropped();
  auto name_of = [&](const Event& ev) {
    std::string n = phase_name(ev.phase);
    if (ev.label != 0 && ev.label < labels.size()) {
      n += ":";
      n += labels[ev.label];
    }
    return n;
  };

  std::string out = "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
  bool first = true;
  auto emit = [&](const std::string& fields) {
    if (!first) out += ",";
    first = false;
    out += "{" + fields + "}";
  };
  for (const Event& ev : evs) {
    const std::string common =
        "\"ts\":" + chrome_ts(ev.when) +
        ",\"pid\":" + std::to_string(ev.context) + ",\"tid\":0";
    const std::string args = ",\"args\":{\"span\":" + std::to_string(ev.span) +
                             ",\"parent\":" + std::to_string(ev.parent) +
                             ",\"trace\":" + std::to_string(ev.trace) +
                             ",\"size\":" + std::to_string(ev.size) +
                             ",\"aux\":" + std::to_string(ev.aux) + "}";
    // Span-linked lifecycle: an async begin at the send, an end at each
    // dispatch.  Chrome matches begin/end by (cat, id) across processes,
    // which is exactly the cross-context linkage a span provides.  A
    // Forward event both ends the span it relays (parent) and begins the
    // child span stamped on the outgoing packet, so relayed RSRs render as
    // chained slices rather than one dangling begin.
    if (ev.span != 0 && ev.phase == Phase::Send) {
      emit("\"name\":" + json_quote(name_of(ev)) +
           ",\"cat\":\"rsr\",\"ph\":\"b\",\"id\":" + std::to_string(ev.span) +
           "," + common + args);
    } else if (ev.span != 0 && ev.phase == Phase::Dispatch) {
      emit("\"name\":" + json_quote(name_of(ev)) +
           ",\"cat\":\"rsr\",\"ph\":\"e\",\"id\":" + std::to_string(ev.span) +
           "," + common + args);
    } else if (ev.span != 0 && ev.parent != 0 && ev.span != ev.parent &&
               ev.phase == Phase::Forward) {
      emit("\"name\":" + json_quote(name_of(ev)) +
           ",\"cat\":\"rsr\",\"ph\":\"e\",\"id\":" + std::to_string(ev.parent) +
           "," + common + args);
      emit("\"name\":" + json_quote(name_of(ev)) +
           ",\"cat\":\"rsr\",\"ph\":\"b\",\"id\":" + std::to_string(ev.span) +
           "," + common + args);
    }
    // Flow arrows stitch the hops of one causal chain: start at the origin
    // send, step at each relay, finish at the dispatch.
    if (ev.trace != 0 && ev.phase == Phase::Send) {
      emit("\"name\":\"rsr_flow\",\"cat\":\"rsrflow\",\"ph\":\"s\",\"id\":" +
           std::to_string(ev.trace) + "," + common);
    } else if (ev.trace != 0 && ev.phase == Phase::Forward) {
      emit("\"name\":\"rsr_flow\",\"cat\":\"rsrflow\",\"ph\":\"t\",\"id\":" +
           std::to_string(ev.trace) + "," + common);
    } else if (ev.trace != 0 && ev.phase == Phase::Dispatch) {
      emit("\"name\":\"rsr_flow\",\"cat\":\"rsrflow\",\"ph\":\"f\",\"bp\":\"e\""
           ",\"id\":" + std::to_string(ev.trace) + "," + common);
    }
    emit("\"name\":" + json_quote(name_of(ev)) +
         ",\"cat\":\"nexus\",\"ph\":\"i\",\"s\":\"t\"," + common + args);
  }
  out += "],\"otherData\":{\"trace_recorded\":" + std::to_string(total) +
         ",\"trace_dropped\":" + std::to_string(lost) + "}}";
  return out;
}

std::string Tracer::text_timeline() const {
  std::vector<Event> evs = events();
  const std::vector<std::string> labels = labels_snapshot();
  std::stable_sort(evs.begin(), evs.end(),
                   [](const Event& a, const Event& b) { return a.when < b.when; });
  std::string out;
  for (const Event& ev : evs) {
    out += "t=" + util::fmt_fixed(static_cast<double>(ev.when) / 1000.0, 3) +
           "us ctx" + std::to_string(ev.context) + " " + phase_name(ev.phase);
    if (ev.label != 0 && ev.label < labels.size()) {
      out += " " + labels[ev.label];
    }
    if (ev.span != 0) out += " span=" + std::to_string(ev.span);
    if (ev.parent != 0) out += " parent=" + std::to_string(ev.parent);
    if (ev.trace != 0) out += " trace=" + std::to_string(ev.trace);
    if (ev.size != 0) out += " size=" + std::to_string(ev.size);
    if (ev.aux != 0) out += " aux=" + std::to_string(ev.aux);
    out += "\n";
  }
  return out;
}

}  // namespace nexus::telemetry
