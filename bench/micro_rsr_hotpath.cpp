// RSR hot-path microbenchmark: ns/RSR and allocations/RSR for unicast,
// 8-way multicast, and forwarded sends at payload sizes 16B..64KiB, plus
// two 8-context worlds: a unicast ring and a fully contended multicast.
//
// The conservative scheduler runs exactly one context at a time, so
// wall-clock time measured from the driver covers the full send -> fabric
// -> deliver path of every context involved.  The 8-context worlds measure
// aggregate wall time from outside the run.  Allocations are counted with a
// global operator new hook; the per-phase constant overhead (one mark RSR
// plus one ack per receiver) is amortized over the round count.
//
// Usage: micro_rsr_hotpath [rounds] [output.json]
//   rounds defaults to 20000 (64KiB cases use rounds/5); CI passes a small
//   count for the smoke job.  Results go to BENCH_rsr_hotpath.json.
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "proto/methods.hpp"
#include "simnet/topology.hpp"

// ----------------------------------------------------------------------
// Counting allocator hook: every global new (scalar, array, aligned,
// nothrow) bumps one relaxed atomic.  Frees are uncounted; we only care
// how many times the hot path hits the heap.
static std::atomic<std::uint64_t> g_allocs{0};

static void* counted_alloc(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}

static void* counted_aligned_alloc(std::size_t n, std::size_t align) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  void* p = nullptr;
  if (posix_memalign(&p, align < sizeof(void*) ? sizeof(void*) : align,
                     n ? n : 1) != 0) {
    throw std::bad_alloc();
  }
  return p;
}

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n ? n : 1);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
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

namespace {

using bench::Context;
using bench::Runtime;
using bench::RuntimeOptions;
using bench::Startpoint;
using nexus::ContextId;

enum class Pattern { Unicast, Mcast8, Forward };

const char* pattern_name(Pattern p) {
  switch (p) {
    case Pattern::Unicast: return "unicast";
    case Pattern::Mcast8: return "mcast8";
    case Pattern::Forward: return "forward";
  }
  return "?";
}

struct CaseResult {
  double ns_per_rsr = 0.0;
  double allocs_per_rsr = 0.0;
};

/// Run one (pattern, payload) case: a warmup phase (populates connection
/// caches, mailbox capacity, handler lookups) followed by a measured phase
/// of `rounds` RSRs.  Phases are fenced with a "mark" RSR that every
/// receiver acknowledges back to the driver.
CaseResult run_case(Pattern pattern, std::size_t payload_size, long rounds,
                    bool flight = true) {
  RuntimeOptions opts;
  opts.metrics = false;  // measure the data path, not the telemetry
  opts.flight = flight;  // the always-on recorder is part of the default path
  // Large conservatism slack: scheduler handoffs between simulated contexts
  // cost ~10us of wall time each and would otherwise swamp the data path
  // this benchmark measures.  With slack, each context drains long batches
  // per baton and the per-RSR figure reflects send/deliver CPU work.
  opts.sim_slack = 10 * nexus::simnet::kSec;
  ContextId driver_id = 0;
  std::vector<ContextId> receivers;
  switch (pattern) {
    case Pattern::Unicast:
      opts.topology = nexus::simnet::Topology::single_partition(2);
      driver_id = 1;
      receivers = {0};
      break;
    case Pattern::Mcast8:
      opts.topology = nexus::simnet::Topology::single_partition(9);
      driver_id = 0;
      for (ContextId c = 1; c <= 8; ++c) receivers.push_back(c);
      break;
    case Pattern::Forward:
      // Partition 0 = {0} (driver), partition 1 = {1, 2}; context 1 is the
      // forwarding node, so driver->2 tcp traffic lands on 1 and is re-sent.
      opts.topology = nexus::simnet::Topology::two_partitions(1, 2);
      opts.forwarders[1] = 1;
      driver_id = 0;
      receivers = {2};
      break;
  }
  const auto n_ctx = opts.topology.size();
  const std::uint64_t n_recv = receivers.size();
  const long warmup = rounds / 4 + 1;

  Runtime rt(std::move(opts));
  CaseResult result;

  std::vector<std::function<void(Context&)>> fns(n_ctx);
  fns[driver_id] = [&](Context& ctx) {
    Startpoint data_sp;
    for (ContextId r : receivers) {
      Startpoint one = ctx.world_startpoint(r);
      data_sp.links().push_back(one.link(0));
    }
    std::uint64_t acks = 0;
    ctx.register_handler("ack", [&](Context&, nexus::Endpoint&,
                                    nexus::util::UnpackBuffer&) { ++acks; });

    // Steady state: the handler id is resolved once, and each RSR performs
    // exactly one payload allocation (copy_of) which every link then
    // aliases.
    const nexus::util::Bytes src(payload_size, 0xa5);
    const nexus::HandlerId h_sink = nexus::Context::resolve_handler("sink");
    const nexus::HandlerId h_mark = nexus::Context::resolve_handler("mark");
    std::uint64_t marks = 0;
    auto phase = [&](long n) {
      for (long i = 0; i < n; ++i) {
        ctx.rsr(data_sp, h_sink, nexus::util::SharedBytes::copy_of(src));
      }
      ctx.rsr(data_sp, h_mark);
      ++marks;
      ctx.wait_count(acks, marks * n_recv);
    };

    phase(warmup);
    const auto t0 = std::chrono::steady_clock::now();
    const std::uint64_t a0 = g_allocs.load(std::memory_order_relaxed);
    phase(rounds);
    const std::uint64_t a1 = g_allocs.load(std::memory_order_relaxed);
    const auto t1 = std::chrono::steady_clock::now();

    result.ns_per_rsr =
        static_cast<double>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
                .count()) /
        static_cast<double>(rounds);
    result.allocs_per_rsr =
        static_cast<double>(a1 - a0) / static_cast<double>(rounds);

    if (pattern == Pattern::Forward) {
      Startpoint fwd = ctx.world_startpoint(1);
      ctx.rsr(fwd, "stop");
    }
  };
  for (ContextId r : receivers) {
    fns[r] = [&, r](Context& ctx) {
      (void)r;
      Startpoint back = ctx.world_startpoint(driver_id);
      std::uint64_t sunk = 0;
      std::uint64_t marks = 0;
      ctx.register_handler("sink", [&](Context&, nexus::Endpoint&,
                                       nexus::util::UnpackBuffer&) { ++sunk; });
      ctx.register_handler("mark",
                           [&](Context& c, nexus::Endpoint&,
                               nexus::util::UnpackBuffer&) {
                             ++marks;
                             c.rsr(back, "ack");
                           });
      ctx.wait_count(marks, 2);
    };
  }
  if (pattern == Pattern::Forward) {
    fns[1] = [&](Context& ctx) {
      bool stop = false;
      ctx.register_handler("stop", [&](Context&, nexus::Endpoint&,
                                       nexus::util::UnpackBuffer&) {
        stop = true;
      });
      ctx.wait([&] { return stop; });
    };
  }

  rt.run(std::move(fns));
  return result;
}

/// 8-context world case.
///
/// `Ring`: every context streams `rounds` RSRs to its clockwise neighbour.
/// `McastAll`: all 8 contexts join one group and every context multicasts
/// `rounds / 8` RSRs into it, contending on the COW membership snapshot and
/// all eight mailboxes at once.  Returns aggregate ns and allocs per
/// *delivered* RSR: each configuration is run twice, once with zero data
/// rounds (world construction, process spawn, the mcast join barrier) and
/// once with the real workload, and the calibration run's wall time and
/// allocation count are subtracted so the per-RSR figures are independent
/// of how many rounds amortize the fixed setup (the CI smoke job runs tiny
/// counts).
enum class WorldPattern { Ring, McastAll };

/// One full Runtime lifetime of the 8-context world; returns (wall ns,
/// allocs) for the whole run.
std::pair<std::uint64_t, std::uint64_t> run_world(
    WorldPattern pattern, const nexus::util::Bytes& src, long per_sender) {
  constexpr ContextId kWorld = 8;
  RuntimeOptions opts;
  opts.metrics = false;
  opts.flight = true;
  opts.sim_slack = 10 * nexus::simnet::kSec;
  opts.topology = nexus::simnet::Topology::single_partition(kWorld);
  if (pattern == WorldPattern::McastAll) {
    opts.modules = {"local", "mpl", "tcp", "mcast"};
  }
  // Deliveries per context: the ring receives its neighbour's stream; the
  // mcast world receives every member's stream (self included).
  const std::uint64_t per_recv =
      pattern == WorldPattern::Ring
          ? static_cast<std::uint64_t>(per_sender)
          : static_cast<std::uint64_t>(per_sender) * kWorld;

  Runtime rt(std::move(opts));
  std::uint64_t got[kWorld] = {};

  std::vector<std::function<void(Context&)>> fns(kWorld);
  for (ContextId id = 0; id < kWorld; ++id) {
    fns[id] = [&, id](Context& ctx) {
      const nexus::HandlerId h_sink = nexus::Context::resolve_handler("sink");
      ctx.register_handler("sink", [&](Context&, nexus::Endpoint&,
                                       nexus::util::UnpackBuffer&) {
        ++got[id];
      });
      if (pattern == WorldPattern::Ring) {
        Startpoint next = ctx.world_startpoint((id + 1) % kWorld);
        for (long i = 0; i < per_sender; ++i) {
          ctx.rsr(next, h_sink, nexus::util::SharedBytes::copy_of(src));
        }
      } else {
        // Join, then rendezvous through the "go" fan-out from context 0 so
        // no member multicasts into a half-built group.
        std::uint64_t go = 0;
        nexus::Endpoint& ep = ctx.create_endpoint();
        ctx.register_handler("go", [&](Context&, nexus::Endpoint&,
                                       nexus::util::UnpackBuffer&) { ++go; });
        nexus::proto::multicast_join(ctx, 1, ep);
        if (id == 0) {
          std::uint64_t joined = 0;
          ctx.register_handler("joined", [&](Context&, nexus::Endpoint&,
                                             nexus::util::UnpackBuffer&) {
            ++joined;
          });
          ctx.wait_count(joined, kWorld - 1);
          for (ContextId peer = 1; peer < kWorld; ++peer) {
            Startpoint sp = ctx.world_startpoint(peer);
            ctx.rsr(sp, "go");
          }
        } else {
          Startpoint home = ctx.world_startpoint(0);
          ctx.rsr(home, "joined");
          ctx.wait_count(go, 1);
        }
        Startpoint group = nexus::proto::multicast_startpoint(ctx, 1);
        for (long i = 0; i < per_sender; ++i) {
          ctx.rsr(group, h_sink, nexus::util::SharedBytes::copy_of(src));
        }
      }
      ctx.wait_count(got[id], per_recv);
    };
  }

  const auto t0 = std::chrono::steady_clock::now();
  const std::uint64_t a0 = g_allocs.load(std::memory_order_relaxed);
  rt.run(std::move(fns));
  const std::uint64_t a1 = g_allocs.load(std::memory_order_relaxed);
  const auto t1 = std::chrono::steady_clock::now();
  return {static_cast<std::uint64_t>(
              std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
                  .count()),
          a1 - a0};
}

CaseResult run_world_case(WorldPattern pattern, std::size_t payload_size,
                          long rounds) {
  constexpr long kWorld = 8;
  const nexus::util::Bytes src(payload_size, 0xa5);
  const long per_sender =
      pattern == WorldPattern::Ring ? rounds : std::max(rounds / kWorld, 1L);
  const std::uint64_t total_deliveries =
      pattern == WorldPattern::Ring
          ? static_cast<std::uint64_t>(per_sender) * kWorld
          : static_cast<std::uint64_t>(per_sender) * kWorld * kWorld;

  const auto calib = run_world(pattern, src, 0);
  const auto run = run_world(pattern, src, per_sender);
  const std::uint64_t ns = run.first > calib.first ? run.first - calib.first
                                                   : 0;
  const std::uint64_t allocs =
      run.second > calib.second ? run.second - calib.second : 0;

  CaseResult result;
  result.ns_per_rsr =
      static_cast<double>(ns) / static_cast<double>(total_deliveries);
  result.allocs_per_rsr =
      static_cast<double>(allocs) / static_cast<double>(total_deliveries);
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  long rounds = 20000;
  std::string out_path = "BENCH_rsr_hotpath.json";
  if (argc > 1) rounds = std::strtol(argv[1], nullptr, 10);
  if (argc > 2) out_path = argv[2];
  if (rounds <= 0) {
    std::fprintf(stderr, "invalid round count\n");
    return 1;
  }

  bench::print_header("micro_rsr_hotpath: ns/RSR and allocations/RSR");
  std::printf("rounds=%ld  git_rev=%s\n\n", rounds, bench::git_rev());
  std::printf("%-10s %10s %6s %14s %12s\n", "pattern", "payload", "links",
              "ns/RSR", "allocs/RSR");

  bench::JsonResultWriter writer("rsr_hotpath");
  const Pattern patterns[] = {Pattern::Unicast, Pattern::Mcast8,
                              Pattern::Forward};
  const std::size_t payloads[] = {16, 1024, 65536};
  for (Pattern p : patterns) {
    for (std::size_t bytes : payloads) {
      const long case_rounds =
          bytes >= 65536 ? std::max(rounds / 5, 100L) : rounds;
      CaseResult r = run_case(p, bytes, case_rounds);
      const int links = p == Pattern::Mcast8 ? 8 : 1;
      std::printf("%-10s %10zu %6d %14.1f %12.3f\n", pattern_name(p), bytes,
                  links, r.ns_per_rsr, r.allocs_per_rsr);
      writer.add(std::string(pattern_name(p)) + "/" + std::to_string(bytes),
                 {{"pattern", pattern_name(p)},
                  {"payload_bytes", std::to_string(bytes)},
                  {"links", std::to_string(links)},
                  {"rounds", std::to_string(case_rounds)},
                  {"flight", "1"}},
                 r.ns_per_rsr, r.allocs_per_rsr);
    }
  }

  // Flight-recorder-off unicast rows: the delta against unicast/<bytes>
  // above is the cost of the always-on recorder (budget: <= 10%).
  for (std::size_t bytes : payloads) {
    const long case_rounds =
        bytes >= 65536 ? std::max(rounds / 5, 100L) : rounds;
    CaseResult r =
        run_case(Pattern::Unicast, bytes, case_rounds, /*flight=*/false);
    std::printf("%-10s %10zu %6d %14.1f %12.3f\n", "uni_noflt", bytes, 1,
                r.ns_per_rsr, r.allocs_per_rsr);
    writer.add("unicast_noflight/" + std::to_string(bytes),
               {{"pattern", "unicast"},
                {"payload_bytes", std::to_string(bytes)},
                {"links", "1"},
                {"rounds", std::to_string(case_rounds)},
                {"flight", "0"}},
               r.ns_per_rsr, r.allocs_per_rsr);
  }

  // The 8-context worlds.  ns/RSR here is aggregate: wall time over all
  // deliveries.
  const struct {
    WorldPattern pattern;
    const char* name;
  } world_cases[] = {{WorldPattern::Ring, "ring8"},
                     {WorldPattern::McastAll, "mcast_contended"}};
  for (const auto& wc : world_cases) {
    const long case_rounds = std::max(rounds / 2, 100L);
    CaseResult r = run_world_case(wc.pattern, 1024, case_rounds);
    const int links = wc.pattern == WorldPattern::McastAll ? 8 : 1;
    std::printf("%-10s %10d %6d %14.1f %12.3f\n", wc.name, 1024, links,
                r.ns_per_rsr, r.allocs_per_rsr);
    writer.add(wc.name,
               {{"pattern", wc.name},
                {"payload_bytes", "1024"},
                {"rounds", std::to_string(case_rounds)},
                {"flight", "1"}},
               r.ns_per_rsr, r.allocs_per_rsr);
  }

  if (!writer.write(out_path)) {
    std::fprintf(stderr, "failed to write %s\n", out_path.c_str());
    return 1;
  }
  std::printf("\nwrote %s\n", out_path.c_str());
  return 0;
}
