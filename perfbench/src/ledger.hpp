// Benchmark-side tracing: spans around the calls the benchmark makes into
// each layer's public functions, and the layer ledger built from them.
//
// A span records its layer, wall start and wall end (steady_clock).  While a
// timed window is open, the ledger sweeps span events in the order they
// happen and charges each wall interval to the innermost open span of the
// thread that emitted the latest event.  On the single-shard simulated
// fabric exactly one context thread runs at a time (the scheduler passes a
// baton), so that thread is the one running and the sweep partitions the
// window exactly: sum of layer self times + unattributed = window wall.
// Time a context spends handing the baton on is charged to the span it was
// in when it parked (wait, charge_compute, ...).
//
// On the realtime fabric threads run concurrently; only the driver thread
// enrolls in the sweep there, so the ledger is the driver's own timeline,
// and other threads' spans add to inclusive totals only.
//
// Nothing is written out during a run: the sweep keeps per-layer sums, and
// span durations that need percentiles go into fixed-size histograms.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <deque>
#include <mutex>
#include <vector>

#include "common.hpp"
#include "nexus/context.hpp"

namespace pb {

enum class Layer : std::uint8_t {
  Rsr,               ///< nexus: Context::rsr
  Wait,              ///< nexus: wait_count / wait / progress
  Handler,           ///< nexus: the benchmark's own handler bodies
  Payload,           ///< benchmark: building RSR payloads
  RpcIssue,          ///< proto.rpc: Client::call / call_bulk
  RpcWait,           ///< proto.rpc: Client::wait
  RpcServerService,  ///< proto.rpc: Server::service
  RpcServerHandler,  ///< proto.rpc: the benchmark's service bodies
  Halo,              ///< climate: BandModel::halo_exchange
  Update,            ///< climate: BandModel::update
  Transposes,        ///< climate / minimpi: BandModel::transposes (alltoall)
  Compute,           ///< climate: BandModel::charge_compute
  Couple,            ///< climate / minimpi: coupling exchange + bcast
  kCount
};
inline constexpr std::size_t kLayers = static_cast<std::size_t>(Layer::kCount);

const char* layer_name(Layer l);

/// Set once before any Runtime exists; read-only afterwards.
extern bool g_tracing;
/// Heap allocations counted by the binary's operator new hook (counting is
/// on only in traced runs).
std::uint64_t alloc_count();
void count_allocs(bool on);

/// Log-linear histogram of non-negative integers (64 sub-buckets per power
/// of two, ~1.6% resolution), for span-duration percentiles.
class Hist {
 public:
  void add(std::uint64_t v);
  std::uint64_t count() const { return n_; }
  double quantile(double q) const;

 private:
  static constexpr int kSub = 64;
  std::array<std::uint64_t, 64 * kSub> b_{};
  std::uint64_t n_ = 0;
};

class Ledger {
 public:
  static Ledger& get();

  /// Calling thread's span events feed the sweep.  Call at the top of every
  /// simulated context's function, and only from the driver thread on the
  /// realtime fabric.
  void enroll();
  /// Open / close a timed window (caller must be enrolled).
  void start();
  void stop();

  void begin(Layer l, std::int64_t t);
  void end(Layer l, std::int64_t t, std::int64_t dur, std::int64_t virt);

  double self_ns(Layer l) const { return static_cast<double>(self_[idx(l)]); }
  double incl_ns(Layer l) const {
    return static_cast<double>(incl_[idx(l)].load(std::memory_order_relaxed));
  }
  double calls(Layer l) const {
    return static_cast<double>(calls_[idx(l)].load(std::memory_order_relaxed));
  }
  double virt_ns(Layer l) const {
    return static_cast<double>(virt_[idx(l)].load(std::memory_order_relaxed));
  }
  double window_ns() const { return static_cast<double>(window_); }
  double unattributed_ns() const { return static_cast<double>(unattributed_); }

 private:
  static std::size_t idx(Layer l) { return static_cast<std::size_t>(l); }
  std::vector<Layer>* my_stack() const;
  void attribute(std::int64_t t);

  std::mutex enroll_mu_;
  std::deque<std::vector<Layer>> stacks_;  ///< one per enrolled thread

  // Sweep state: touched only by enrolled threads, one at a time.
  std::vector<Layer>* last_stack_ = nullptr;
  std::int64_t last_t_ = 0;
  std::int64_t window_start_ = 0;
  bool active_ = false;
  std::array<std::int64_t, kLayers> self_{};
  std::int64_t window_ = 0;
  std::int64_t unattributed_ = 0;

  std::array<std::atomic<std::int64_t>, kLayers> incl_{};
  std::array<std::atomic<std::int64_t>, kLayers> calls_{};
  std::array<std::atomic<std::int64_t>, kLayers> virt_{};
};

/// RAII span.  With a context it also records the virtual time the call
/// took on that context's clock.
class Span {
 public:
  explicit Span(Layer l, const nexus::Context* ctx = nullptr) : l_(l) {
    if (!g_tracing) return;
    ctx_ = ctx;
    v0_ = ctx != nullptr ? ctx->now() : 0;
    t0_ = wall_ns();
    Ledger::get().begin(l_, t0_);
  }
  ~Span() { finish(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Close the span now; returns its wall duration in ns (0 untraced).
  std::int64_t finish() {
    if (!g_tracing || done_) return 0;
    done_ = true;
    const std::int64_t t = wall_ns();
    const std::int64_t v = ctx_ != nullptr ? ctx_->now() - v0_ : 0;
    Ledger::get().end(l_, t, t - t0_, v);
    return t - t0_;
  }

 private:
  Layer l_;
  const nexus::Context* ctx_ = nullptr;
  std::int64_t t0_ = 0;
  std::int64_t v0_ = 0;
  bool done_ = false;
};

}  // namespace pb
