// Golden virtual-time values: the paper's reproduced numbers pinned at full
// precision.  Every Table 1 row (seconds per step and atmosphere heat drift,
// with the same CoupledConfig as bench/table1_climate), one Figure 4 row and
// one Figure 6 row are compared exactly as doubles, so a change that moves
// the virtual clock by one nanosecond anywhere in the send, poll or dispatch
// path fails here instead of slipping through a `%.1f` diff of bench output.
//
// Each Table 1 row is its own test case so `ctest -j` runs them in parallel.
// The values are virtual time and independent of the host; a PR that moves
// them on purpose updates them here and says why in CHANGES.md.
#include <gtest/gtest.h>

#include <iomanip>

#include "bench_util.hpp"
#include "climate/coupled.hpp"

namespace {

using climate::Policy;

void expect_exact(double got, double want, const char* what) {
  EXPECT_EQ(got, want) << what << ": got " << std::setprecision(17) << got;
}

/// One bench/table1_climate row: rows 1-7 run 4 atmosphere steps, the
/// All-TCP row 2 (its steps are ~10x longer).
void expect_table1_row(Policy policy, std::uint64_t skip, int timesteps,
                       double seconds_per_step, double heat_drift) {
  climate::CoupledConfig cfg;
  cfg.timesteps = timesteps;
  const climate::CoupledResult r = climate::run_coupled(cfg, policy, skip);
  const double drift =
      (r.atmo_heat_end - r.atmo_heat_start) /
      (r.atmo_heat_start != 0.0 ? r.atmo_heat_start : 1.0);
  expect_exact(r.seconds_per_step, seconds_per_step, "seconds_per_step");
  expect_exact(drift, heat_drift, "atmosphere heat drift");
}

TEST(GoldenVirtualTime, Table1Row1SelectiveTcp) {
  expect_table1_row(Policy::SelectiveTcp, 1, 4, 103.64680043125,
                    1.2110965559786494e-07);
}

TEST(GoldenVirtualTime, Table1Row2Forwarder) {
  expect_table1_row(Policy::Forwarding, 1, 4, 107.84436864825,
                    1.2110965559786494e-07);
}

TEST(GoldenVirtualTime, Table1Row3SkipPoll1) {
  expect_table1_row(Policy::SkipPoll, 1, 4, 107.85431830825,
                    1.2110965559786494e-07);
}

TEST(GoldenVirtualTime, Table1Row4SkipPoll100) {
  expect_table1_row(Policy::SkipPoll, 100, 4, 103.689695384,
                    1.2110965559786494e-07);
}

TEST(GoldenVirtualTime, Table1Row5SkipPoll10000) {
  expect_table1_row(Policy::SkipPoll, 10000, 4, 103.647055936,
                    1.2110965559786494e-07);
}

TEST(GoldenVirtualTime, Table1Row6SkipPoll12000) {
  expect_table1_row(Policy::SkipPoll, 12000, 4, 103.64823137025,
                    1.2110965559786494e-07);
}

TEST(GoldenVirtualTime, Table1Row7SkipPoll13000) {
  expect_table1_row(Policy::SkipPoll, 13000, 4, 103.64820160975,
                    1.2110965559786494e-07);
}

TEST(GoldenVirtualTime, Table1Row8AllTcp) {
  expect_table1_row(Policy::AllTcp, 1, 2, 953.09184849999997,
                    -2.5911580786569385e-16);
}

/// bench/fig4_pingpong's zero-byte row of the small-message series (400
/// rounds): Nexus with MPL alone, and with MPL + TCP polling.
TEST(GoldenVirtualTime, Fig4ZeroByteRow) {
  auto opts = [](std::vector<std::string> modules) {
    nexus::RuntimeOptions o;
    o.topology = nexus::simnet::Topology::single_partition(2);
    o.modules = std::move(modules);
    return o;
  };
  expect_exact(bench::nexus_pingpong_us(opts({"local", "mpl"}), 0, 400,
                                        nullptr),
               84.353201249999998, "Nexus MPL one-way us");
  expect_exact(bench::nexus_pingpong_us(opts({"local", "mpl", "tcp"}), 0, 400,
                                        nullptr),
               203.25, "Nexus MPL+TCP one-way us");
}

/// bench/fig6_skip_poll's skip_poll = 20 row of the zero-length sweep (300
/// MPL rounds), the paper's sweet spot.
TEST(GoldenVirtualTime, Fig6SkipPoll20Row) {
  const bench::DualResult r = bench::dual_pingpong(20, 0, 300);
  expect_exact(r.mpl_one_way_us, 179.31416999999999, "MPL one-way us");
  expect_exact(r.tcp_one_way_us, 2335.0408541666666, "TCP one-way us");
}

}  // namespace
