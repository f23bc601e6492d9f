// Communication startpoints (the send side of a communication link).
//
// A startpoint records, for each endpoint it is bound to, the target
// (context, endpoint) pair, the descriptor table describing every method
// usable to reach that context, and -- locally only -- the communication
// object currently selected.  Startpoints are ordinary copyable values;
// moving one to another context is done with Context::pack_startpoint /
// unpack_startpoint, which strips local connection state and (when
// possible) applies the lightweight "default table" optimization of §3.1.
//
// Binding a startpoint to more than one endpoint turns every RSR through it
// into a multicast (§2.2).
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "nexus/descriptor.hpp"
#include "nexus/module.hpp"
#include "nexus/types.hpp"

namespace nexus {

class Startpoint {
 public:
  /// One communication link: this startpoint to one endpoint.
  struct Link {
    ContextId context = kNoContext;
    EndpointId endpoint = 0;
    DescriptorTable table;

    // --- local (never serialized) selection state ---
    std::shared_ptr<CommObject> conn;
    std::string selected_method;
    // Failover: true when selection passed over an applicable entry that the
    // health tracker had quarantined, i.e. the current winner is not the
    // policy's first choice.  `reprobe_at` is the earliest retry time among
    // the skipped entries; once the clock passes it the next RSR re-runs
    // selection so a restored method can win back the link.
    bool degraded = false;
    Time reprobe_at = 0;
    /// Adaptive engine: next virtual time this link's table is due for a
    /// cost-model rerank (0 = rerank on first use when the engine is on).
    Time rerank_at = 0;

    /// Drop the cached selection so the next send re-runs method selection.
    void clear_selection() {
      conn.reset();
      selected_method.clear();
      degraded = false;
      reprobe_at = 0;
    }
  };

  Startpoint() = default;

  bool bound() const noexcept { return !links_.empty(); }
  std::size_t link_count() const noexcept { return links_.size(); }
  const std::vector<Link>& links() const noexcept { return links_; }
  std::vector<Link>& links() noexcept { return links_; }
  const Link& link(std::size_t i = 0) const { return links_.at(i); }
  Link& link(std::size_t i = 0) { return links_.at(i); }

  /// Manual selection override: subsequent RSRs must use `method` (for every
  /// link); throws at use time if the method is missing or inapplicable.
  void force_method(std::string method) {
    forced_ = std::move(method);
    invalidate_selection();
  }
  void clear_forced_method() {
    forced_.reset();
    invalidate_selection();
  }
  const std::optional<std::string>& forced_method() const noexcept {
    return forced_;
  }

  /// Drop cached connections so the next RSR re-runs method selection
  /// (required after editing a link's descriptor table).
  void invalidate_selection() {
    for (auto& l : links_) l.clear_selection();
  }

  /// Enquiry: the method currently selected for link `i` (empty until the
  /// first RSR or after invalidation).
  const std::string& selected_method(std::size_t i = 0) const {
    return links_.at(i).selected_method;
  }

  /// Descriptor table of link `i`, mutable for manual reordering
  /// (prioritize/remove/insert).  Call invalidate_selection() afterwards.
  DescriptorTable& table(std::size_t i = 0) { return links_.at(i).table; }
  const DescriptorTable& table(std::size_t i = 0) const {
    return links_.at(i).table;
  }

 private:
  friend class Context;
  std::vector<Link> links_;
  std::optional<std::string> forced_;
};

}  // namespace nexus
