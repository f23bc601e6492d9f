// Registration of the built-in communication modules.
#pragma once

#include "nexus/module.hpp"

namespace nexus::proto {

/// Install factories for every built-in method name into `registry`.  Each
/// method is one class that runs on either fabric; myrinet, aal5 and stream
/// refuse the realtime fabric with a MethodError.  This is the analog of the
/// paper's "default set of modules defined when the Nexus library is
/// built"; additional modules can be registered on the same registry at any
/// time before Runtime::run() ("loaded dynamically").
void register_builtin_modules(ModuleRegistry& registry);

}  // namespace nexus::proto
