#include "ledger.hpp"

#include <bit>
#include <cstdlib>
#include <new>

// ----------------------------------------------------------------------
// Counting allocator hook: every global new bumps one relaxed atomic while
// counting is on.  Frees are uncounted.
namespace {
std::atomic<std::uint64_t> g_allocs{0};
bool g_count = false;

void* counted_alloc(std::size_t n) {
  if (g_count) g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}

void* counted_aligned_alloc(std::size_t n, std::size_t align) {
  if (g_count) g_allocs.fetch_add(1, std::memory_order_relaxed);
  void* p = nullptr;
  if (posix_memalign(&p, align < sizeof(void*) ? sizeof(void*) : align,
                     n ? n : 1) != 0) {
    throw std::bad_alloc();
  }
  return p;
}
}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  if (g_count) g_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n ? n : 1);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  if (g_count) g_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n ? n : 1);
}
void* operator new(std::size_t n, std::align_val_t al) {
  return counted_aligned_alloc(n, static_cast<std::size_t>(al));
}
void* operator new[](std::size_t n, std::align_val_t al) {
  return counted_aligned_alloc(n, static_cast<std::size_t>(al));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

// ----------------------------------------------------------------------

namespace pb {

bool g_tracing = false;

std::uint64_t alloc_count() { return g_allocs.load(std::memory_order_relaxed); }
void count_allocs(bool on) { g_count = on; }

const char* layer_name(Layer l) {
  switch (l) {
    case Layer::Rsr: return "rsr";
    case Layer::Wait: return "wait";
    case Layer::Handler: return "handler";
    case Layer::Payload: return "payload";
    case Layer::RpcIssue: return "rpc_issue";
    case Layer::RpcWait: return "rpc_wait";
    case Layer::RpcServerService: return "rpc_server_service";
    case Layer::RpcServerHandler: return "rpc_server_handler";
    case Layer::Halo: return "halo_exchange";
    case Layer::Update: return "update";
    case Layer::Transposes: return "transposes";
    case Layer::Compute: return "charge_compute";
    case Layer::Couple: return "couple";
    case Layer::kCount: break;
  }
  return "?";
}

void Hist::add(std::uint64_t v) {
  ++n_;
  if (v < kSub) {
    ++b_[v];
    return;
  }
  const int msb = 63 - std::countl_zero(v);  // >= 6
  const int shift = msb - 6;
  const auto sub = static_cast<std::size_t>((v >> shift) & (kSub - 1));
  const auto bucket = static_cast<std::size_t>(shift + 1) * kSub + sub;
  ++b_[std::min(bucket, b_.size() - 1)];
}

double Hist::quantile(double q) const {
  if (n_ == 0) return 0.0;
  const auto rank = static_cast<std::uint64_t>(q * static_cast<double>(n_ - 1));
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < b_.size(); ++i) {
    seen += b_[i];
    if (seen > rank) {
      if (i < kSub) return static_cast<double>(i);
      const std::size_t shift = i / kSub - 1;
      const double lo = static_cast<double>((kSub + i % kSub) << shift);
      return lo + static_cast<double>(std::uint64_t{1} << shift) / 2.0;
    }
  }
  return 0.0;
}

namespace {
thread_local std::vector<Layer>* t_stack = nullptr;
}

Ledger& Ledger::get() {
  static Ledger ledger;
  return ledger;
}

std::vector<Layer>* Ledger::my_stack() const { return t_stack; }

void Ledger::enroll() {
  if (!g_tracing || t_stack != nullptr) return;
  std::lock_guard<std::mutex> lock(enroll_mu_);
  stacks_.emplace_back();
  t_stack = &stacks_.back();
}

void Ledger::attribute(std::int64_t t) {
  if (active_) {
    const std::int64_t dt = t - last_t_;
    if (last_stack_ != nullptr && !last_stack_->empty()) {
      self_[idx(last_stack_->back())] += dt;
    } else {
      unattributed_ += dt;
    }
  }
  last_t_ = t;
}

void Ledger::start() {
  if (!g_tracing) return;
  const std::int64_t t = wall_ns();
  last_t_ = t;
  window_start_ = t;
  last_stack_ = my_stack();
  active_ = true;
}

void Ledger::stop() {
  if (!g_tracing || !active_) return;
  const std::int64_t t = wall_ns();
  attribute(t);
  window_ += t - window_start_;
  active_ = false;
  last_stack_ = nullptr;
}

void Ledger::begin(Layer l, std::int64_t t) {
  std::vector<Layer>* mine = my_stack();
  if (mine == nullptr) return;
  attribute(t);
  last_stack_ = mine;
  mine->push_back(l);
}

void Ledger::end(Layer l, std::int64_t t, std::int64_t dur,
                 std::int64_t virt) {
  incl_[idx(l)].fetch_add(dur, std::memory_order_relaxed);
  calls_[idx(l)].fetch_add(1, std::memory_order_relaxed);
  virt_[idx(l)].fetch_add(virt, std::memory_order_relaxed);
  std::vector<Layer>* mine = my_stack();
  if (mine == nullptr) return;
  attribute(t);
  last_stack_ = mine;
  if (!mine->empty()) mine->pop_back();
}

}  // namespace pb
