#include "proto/register.hpp"

#include "nexus/context.hpp"
#include "proto/methods.hpp"
#include "proto/reliable.hpp"
#include "proto/stream.hpp"
#include "util/error.hpp"

namespace nexus::proto {

namespace {
template <typename M>
ModuleRegistry::Factory any_fabric() {
  return [](Context& ctx) -> std::unique_ptr<CommModule> {
    return std::make_unique<M>(ctx);
  };
}

/// Methods whose only content beyond tcp is a modelled cost, which the
/// realtime fabric does not have.
template <typename M>
ModuleRegistry::Factory sim_only(const char* name) {
  return [name](Context& ctx) -> std::unique_ptr<CommModule> {
    if (!ctx.runtime().fabric().simulated()) {
      throw util::MethodError(std::string("method '") + name +
                              "' is only available on the simulated fabric");
    }
    return std::make_unique<M>(ctx);
  };
}
}  // namespace

void register_builtin_modules(ModuleRegistry& registry) {
  registry.register_factory("local", any_fabric<LocalModule>());
  registry.register_factory("shm", any_fabric<ShmModule>());
  registry.register_factory("mpl", any_fabric<MplModule>());
  registry.register_factory("tcp", any_fabric<TcpModule>());
  registry.register_factory("udp", any_fabric<UdpModule>());
  registry.register_factory("secure", any_fabric<SecureModule>());
  registry.register_factory("zrle", any_fabric<ZrleModule>());
  registry.register_factory("mcast", any_fabric<McastModule>());
  registry.register_factory("myrinet", sim_only<MyrinetModule>("myrinet"));
  registry.register_factory("aal5", sim_only<Aal5Module>("aal5"));
  registry.register_factory("stream", sim_only<StreamModule>("stream"));
  // Reliability wrapper over the unreliable datagram transport: exactly-
  // once, in-order delivery at udp's speed rank (docs/ARCHITECTURE.md §10).
  register_reliable_wrapper(registry, "udp");
}

}  // namespace nexus::proto
