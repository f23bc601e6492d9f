// climate: the Table 1 coupled model (16 atmosphere + 8 ocean ranks in two
// partitions) under Selective TCP, Forwarding and skip poll 1.  All TCP is
// left out: its steps cost ~4x the wall time of the others, so one round
// filled the budget and the rank-step latency mix split into two clusters
// whose percentiles jumped from run to run.
//
// The benchmark drives BandModel's public step functions itself, in
// climate::run_coupled's order, so each phase can be timed on both clocks.
// One episode = one policy on a fresh Runtime for kSteps atmosphere steps;
// a round runs the three policies in a seeded order, and rounds repeat
// until the timed budget is spent.  Op = one coupled atmosphere step;
// latency sample = one rank's wall time for one step (24 samples per op).
//
// Check: every episode's virtual s/step and start/end heat of both models
// are bit-identical to climate::run_coupled at the same policy and step
// count (run once per policy, untimed).
#include <algorithm>
#include <array>

#include "climate/coupled.hpp"
#include "util/pack.hpp"
#include "workloads.hpp"

namespace pb {
namespace {

using climate::BandModel;
using climate::Policy;
using minimpi::Comm;
using minimpi::World;
using nexus::Context;
using nexus::ContextId;

constexpr int kSteps = 2;  // one coupling exchange per episode
constexpr int kCouplingTag = 501;

struct Outcome {
  double seconds_per_step = 0.0;
  double atmo_heat_start = 0.0, atmo_heat_end = 0.0;
  double ocean_heat_start = 0.0, ocean_heat_end = 0.0;
};

nexus::util::Bytes pack_profile(const std::vector<double>& p) {
  nexus::util::PackBuffer pb(p.size() * 8 + 4);
  pb.put_f64_vector(p);
  return pb.take();
}

std::vector<double> unpack_profile(const nexus::util::Bytes& raw) {
  nexus::util::UnpackBuffer ub(raw);
  return ub.get_f64_vector();
}

/// One episode: run_coupled's configuration and step order, driven phase
/// by phase.  Fills `out` from the atmosphere/ocean leaders.
Outcome drive(const climate::CoupledConfig& cfg, Policy policy,
              std::uint64_t seed, Result& r, Counters& counters) {
  const std::int64_t t_setup = wall_ns();
  nexus::RuntimeOptions opts;
  opts.topology = nexus::simnet::Topology::two_partitions(
      static_cast<std::size_t>(cfg.atmo_ranks),
      static_cast<std::size_t>(cfg.ocean_ranks));
  opts.modules = {"local", "mpl", "tcp"};
  if (policy == Policy::Forwarding) {
    opts.forwarders[0] = 1;
    opts.forwarders[1] = static_cast<ContextId>(cfg.atmo_ranks) + 1;
  }
  opts.sim_slack = 40 * nexus::simnet::kMs;
  opts.seed = seed;

  nexus::Runtime rt(opts);
  Outcome out;
  TimedPhase phase(r);
  Counters c0;
  const int atmo_ranks = cfg.atmo_ranks;
  const auto ocean_leader = static_cast<ContextId>(atmo_ranks);

  rt.run([&](Context& ctx) {
    Ledger::get().enroll();
    World mpi(ctx);
    const bool is_atmo = static_cast<int>(ctx.id()) < atmo_ranks;
    Comm model = mpi.comm().split(is_atmo ? 0 : 1, static_cast<int>(mpi.rank()));
    const bool leader = model.rank() == 0;
    const int peer_leader = is_atmo ? static_cast<int>(ocean_leader) : 0;
    const bool selective = policy == Policy::SelectiveTcp;
    if (selective) ctx.set_poll_enabled("tcp", false);
    if (policy == Policy::SkipPoll) ctx.set_skip_poll("tcp", 1);

    BandModel m(ctx, model, is_atmo ? cfg.atmosphere : cfg.ocean, is_atmo);
    const double heat0 = m.global_sum();
    if (leader) (is_atmo ? out.atmo_heat_start : out.ocean_heat_start) = heat0;

    auto couple = [&] {
      Span s(Layer::Couple, &ctx);
      std::vector<double> mine = m.global_zonal_profile();
      nexus::util::Bytes peer_wire;
      if (leader) {
        if (selective) ctx.set_poll_enabled("tcp", true);
        peer_wire = mpi.comm().sendrecv(pack_profile(mine), peer_leader,
                                        kCouplingTag, peer_leader,
                                        kCouplingTag);
        if (selective) ctx.set_poll_enabled("tcp", false);
      }
      model.bcast(peer_wire, 0);
      m.set_coupled_profile(unpack_profile(peer_wire));
    };

    model.barrier();
    const bool driver = is_atmo && leader;
    if (driver) {
      r.setup_s.push_back(static_cast<double>(wall_ns() - t_setup) * 1e-9);
      if (g_tracing) c0 = Counters::read(rt);
      phase.start();
    }
    const nexus::Time t0 = ctx.now();
    for (int s = 0; s < cfg.timesteps; ++s) {
      const std::int64_t w0 = wall_ns();
      { Span sp(Layer::Halo, &ctx); m.halo_exchange(); }
      { Span sp(Layer::Update, &ctx); m.update(); }
      { Span sp(Layer::Transposes, &ctx); m.transposes(); }
      { Span sp(Layer::Compute, &ctx); m.charge_compute(); }
      if ((s + 1) % cfg.couple_every == 0) couple();
      r.lat_us.push_back(static_cast<double>(wall_ns() - w0) * 1e-3);
    }
    // run_coupled's clock stops after the closing heat allreduce.
    const double heat1 = m.global_sum();
    if (leader) (is_atmo ? out.atmo_heat_end : out.ocean_heat_end) = heat1;
    if (driver) {
      out.seconds_per_step =
          nexus::simnet::to_sec(ctx.now() - t0) / cfg.timesteps;
      phase.stop();
      if (g_tracing) counters += Counters::read(rt) - c0;
    }
  });
  return out;
}

}  // namespace

void run_climate(const Args& args, Result& r) {
  r.sample = "one rank's wall time for one coupled step";
  climate::CoupledConfig cfg;
  cfg.timesteps = kSteps;
  const std::array<Policy, 3> policies = {Policy::SelectiveTcp,
                                          Policy::Forwarding, Policy::SkipPoll};
  std::array<std::vector<Outcome>, 3> got;
  Rng rng(args.seed);
  Counters counters;
  int rounds = 0;

  do {
    std::array<std::size_t, 3> order = {0, 1, 2};
    for (std::size_t i = 2; i > 0; --i) std::swap(order[i], order[rng.below(i + 1)]);
    for (std::size_t p : order) {
      pin_to_quietest_cpu();
      got[p].push_back(drive(cfg, policies[p], args.seed, r, counters));
      r.attempted += kSteps;
    }
    ++rounds;
    // Stop when one more round would overshoot the budget by over half.
  } while (!args.tiny &&
           r.timed_s * (1.0 + 0.5 / static_cast<double>(rounds)) < args.seconds);

  // Reference: the library's own driver at the same policy and step count.
  for (std::size_t p = 0; p < policies.size(); ++p) {
    const climate::CoupledResult ref = climate::run_coupled(cfg, policies[p]);
    const std::string name = climate::policy_name(policies[p]);
    for (const Outcome& o : got[p]) {
      if (ref.seconds_per_step == o.seconds_per_step &&
          ref.atmo_heat_start == o.atmo_heat_start &&
          ref.atmo_heat_end == o.atmo_heat_end &&
          ref.ocean_heat_start == o.ocean_heat_start &&
          ref.ocean_heat_end == o.ocean_heat_end) {
        r.ops += kSteps;
        continue;
      }
      r.failed += kSteps;
      char buf[200];
      std::snprintf(buf, sizeof(buf),
                    "climate %s: virtual s/step %.17g vs run_coupled %.17g",
                    name.c_str(), o.seconds_per_step, ref.seconds_per_step);
      r.fail(buf);
    }
    std::printf("# climate %-26s %.6f virtual s/step (run_coupled %.6f)\n",
                name.c_str(), got[p].front().seconds_per_step,
                ref.seconds_per_step);
  }

  if (!g_tracing) return;
  const double n = static_cast<double>(r.attempted);
  const Ledger& led = Ledger::get();
  for (Layer l : {Layer::Halo, Layer::Update, Layer::Transposes,
                  Layer::Compute, Layer::Couple}) {
    const std::string base = std::string("climate.") + layer_name(l);
    r.layer[base + "_ms"] = led.self_ns(l) / n / 1e6;
    r.layer[base + "_virt_s"] = led.virt_ns(l) / n / 1e9;
  }
  counters.emit(n, r.layer);
}

}  // namespace pb
