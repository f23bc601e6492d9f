// Collaborative-environment communication mix (paper §2, "Network
// protocols" bullet): one shared virtual environment where
//
//   * bulky, loss-tolerant state updates go to the whole group over the
//     true-multicast method (one send, N deliveries), and
//   * critical control operations ("lock object", "commit") go point to
//     point over the reliable method, forced by the application.
//
// This demonstrates selecting the method by *what* is communicated, using
// one high-level abstraction (RSRs) for both.
#include <cstdio>

#include "nexus/runtime.hpp"
#include "proto/methods.hpp"

using namespace nexus;

namespace {
constexpr std::uint32_t kSceneGroup = 42;
constexpr int kParticipants = 5;  // context 0 is the presenter
constexpr int kUpdates = 50;
}  // namespace

int main() {
  RuntimeOptions opts;
  opts.topology = simnet::Topology::single_partition(1 + kParticipants);
  opts.modules = {"local", "mpl", "tcp", "udp", "mcast"};
  Runtime rt(opts);

  std::uint64_t updates_seen[1 + kParticipants] = {0};

  rt.run([&](Context& ctx) {
    if (ctx.id() == 0) {
      // Presenter: wait for everyone to join, then stream.
      std::uint64_t joined = 0;
      ctx.register_handler("joined",
                           [&](Context&, Endpoint&, util::UnpackBuffer&) {
                             ++joined;
                           });
      ctx.wait_count(joined, kParticipants);

      Startpoint scene = proto::multicast_startpoint(ctx, kSceneGroup);
      for (int u = 0; u < kUpdates; ++u) {
        util::PackBuffer state;
        state.put_i32(u);
        state.put_string("pose-matrix-update");
        ctx.rsr(scene, "scene-update", state);
        ctx.compute(20 * simnet::kMs);  // ~50 Hz update loop
      }
      // Critical operation: reliable, point-to-point, forced method.
      for (ContextId peer = 1; peer <= kParticipants; ++peer) {
        Startpoint control = ctx.world_startpoint(peer);
        control.force_method("tcp");
        util::PackBuffer commit;
        commit.put_string("commit-scene");
        ctx.rsr(control, "control", commit);
      }
      std::printf("[presenter] sent %d multicast updates as %llu sends "
                  "(loop-unicast would need %d)\n",
                  kUpdates,
                  static_cast<unsigned long long>(
                      ctx.method_counters("mcast").sends),
                  kUpdates * kParticipants);
      return;
    }

    // Participant: join the scene group, consume updates until commit.
    bool committed = false;
    Endpoint& scene_ep = ctx.create_endpoint();
    ctx.register_handler("scene-update",
                         [&](Context& c, Endpoint&, util::UnpackBuffer&) {
                           ++updates_seen[c.id()];
                         });
    ctx.register_handler("control",
                         [&](Context&, Endpoint&, util::UnpackBuffer& ub) {
                           if (ub.get_string() == "commit-scene") {
                             committed = true;
                           }
                         });
    proto::multicast_join(ctx, kSceneGroup, scene_ep);
    Startpoint presenter = ctx.world_startpoint(0);
    ctx.rsr(presenter, "joined");
    ctx.wait([&] { return committed; });
  });

  for (int p = 1; p <= kParticipants; ++p) {
    std::printf("[participant %d] received %llu scene updates, then the "
                "reliable commit\n",
                p, static_cast<unsigned long long>(updates_seen[p]));
  }
  return 0;
}
