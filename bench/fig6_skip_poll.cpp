// Figure 6 reproduction: two ping-pong programs run concurrently through a
// shared multimethod context -- one over MPL within a partition, one over
// TCP between partitions (Figure 5 configuration).  One-way times are
// reported as a function of the tcp skip_poll value, for 0-byte and 10 KB
// messages.
//
// Paper shape: MPL one-way time improves as skip_poll grows (fewer
// expensive selects in its poll loop); TCP one-way time degrades (longer
// detection delay); skip_poll around 20 improves MPL while barely touching
// TCP.
#include <cstdio>
#include <vector>

#include "bench_util.hpp"

namespace {

void run_sweep(std::size_t payload, int rounds) {
  std::printf("%10s %18s %18s\n", "skip_poll", "MPL one-way (us)",
              "TCP one-way (us)");
  for (std::uint64_t skip : {1ull, 2ull, 3ull, 5ull, 8ull, 12ull, 16ull,
                             20ull, 32ull, 50ull, 100ull}) {
    const bench::DualResult r = bench::dual_pingpong(skip, payload, rounds);
    std::printf("%10llu %18.1f %18.1f\n",
                static_cast<unsigned long long>(skip), r.mpl_one_way_us,
                r.tcp_one_way_us);
  }
}

}  // namespace

int main() {
  bench::print_header(
      "Figure 6 (left): dual concurrent ping-pong, zero-length messages\n"
      "paper shape: MPL improves with skip_poll, TCP degrades; skip ~20 is "
      "the sweet spot");
  run_sweep(0, 300);

  bench::print_header(
      "Figure 6 (right): dual concurrent ping-pong, 10 KB messages");
  run_sweep(10240, 150);
  return 0;
}
