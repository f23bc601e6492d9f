#include "cpu.hpp"

#include <sched.h>

#include <algorithm>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>
#include <vector>

#include "common.hpp"

namespace pb {
namespace {

cpu_set_t g_allowed;
bool g_have_allowed = false;

bool pin(int cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  return sched_setaffinity(0, sizeof(set), &set) == 0;
}

/// A random cyclic permutation over 1 MiB (Sattolo's shuffle), walked by
/// the memory half of the probe.
const std::vector<std::uint32_t>& chase_ring() {
  static const std::vector<std::uint32_t> ring = [] {
    std::vector<std::uint32_t> next(1u << 18);
    for (std::uint32_t i = 0; i < next.size(); ++i) next[i] = i;
    Rng rng(0x5eed);
    for (std::size_t i = next.size() - 1; i > 0; --i) {
      std::swap(next[i], next[rng.below(i)]);
    }
    return next;
  }();
  return ring;
}

/// Wall ns of the probe on the current CPU: condition-variable ping-pong
/// between two threads (the hand-off both fabrics live on) plus a
/// dependent walk through memory.
std::int64_t probe_ns() {
  const std::vector<std::uint32_t>& ring = chase_ring();
  const std::int64_t t0 = wall_ns();
  std::mutex m;
  std::condition_variable cv;
  int turn = 0;
  constexpr int kRounds = 100;
  std::thread peer([&] {  // inherits this thread's single-CPU affinity
    for (int i = 0; i < kRounds; ++i) {
      std::unique_lock<std::mutex> l(m);
      cv.wait(l, [&] { return turn == 1; });
      turn = 0;
      cv.notify_one();
    }
  });
  for (int i = 0; i < kRounds; ++i) {
    std::unique_lock<std::mutex> l(m);
    turn = 1;
    cv.notify_one();
    cv.wait(l, [&] { return turn == 0; });
  }
  peer.join();
  std::uint32_t p = 0;
  for (int i = 0; i < 50000; ++i) p = ring[p];
  volatile std::uint32_t sink = p;
  (void)sink;
  return wall_ns() - t0;
}

}  // namespace

void remember_cpus() {
  CPU_ZERO(&g_allowed);
  g_have_allowed = sched_getaffinity(0, sizeof(g_allowed), &g_allowed) == 0;
}

void pin_to_quietest_cpu() {
  if (!g_have_allowed) return;
  int best = -1;
  std::int64_t best_ns = 0;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &g_allowed) || !pin(cpu)) continue;
    std::int64_t ns = probe_ns();
    ns = std::min(ns, probe_ns());
    if (best < 0 || ns < best_ns) {
      best = cpu;
      best_ns = ns;
    }
  }
  if (best >= 0) pin(best);
}

}  // namespace pb
