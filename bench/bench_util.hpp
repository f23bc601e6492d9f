// Shared helpers for the paper-reproduction benchmark binaries.
#pragma once

#include <cstdio>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "nexus/runtime.hpp"
#include "util/stats.hpp"

namespace bench {

/// Git revision baked in by bench/CMakeLists.txt; "unknown" outside a git
/// checkout.
inline const char* git_rev() {
#ifdef BENCH_GIT_REV
  return BENCH_GIT_REV;
#else
  return "unknown";
#endif
}

/// Shared BENCH_*.json results writer.  Every micro benchmark funnels its
/// rows through this so successive perf PRs produce comparable artifacts:
///   {"bench": ..., "git_rev": ..., "results": [
///      {"name": ..., "params": {...}, "ns_per_op": ..., "allocs_per_op": ...}]}
/// allocs_per_op is omitted for benches that do not hook the allocator.
class JsonResultWriter {
 public:
  struct Row {
    std::string name;
    std::vector<std::pair<std::string, std::string>> params;
    double ns_per_op = 0.0;
    double allocs_per_op = -1.0;  ///< < 0 means "not measured"
  };

  explicit JsonResultWriter(std::string bench_name)
      : bench_(std::move(bench_name)) {}

  void add(std::string name,
           std::vector<std::pair<std::string, std::string>> params,
           double ns_per_op, double allocs_per_op = -1.0) {
    rows_.push_back(Row{std::move(name), std::move(params), ns_per_op,
                        allocs_per_op});
  }

  const std::vector<Row>& rows() const noexcept { return rows_; }

  /// Serialize all rows; returns false if the file cannot be written.
  bool write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "{\n  \"bench\": \"%s\",\n  \"git_rev\": \"%s\",\n",
                 escape(bench_).c_str(), escape(git_rev()).c_str());
    std::fprintf(f, "  \"results\": [");
    for (std::size_t i = 0; i < rows_.size(); ++i) {
      const Row& r = rows_[i];
      std::fprintf(f, "%s\n    {\"name\": \"%s\", \"params\": {",
                   i == 0 ? "" : ",", escape(r.name).c_str());
      for (std::size_t j = 0; j < r.params.size(); ++j) {
        std::fprintf(f, "%s\"%s\": \"%s\"", j == 0 ? "" : ", ",
                     escape(r.params[j].first).c_str(),
                     escape(r.params[j].second).c_str());
      }
      std::fprintf(f, "}, \"ns_per_op\": %.3f", r.ns_per_op);
      if (r.allocs_per_op >= 0) {
        std::fprintf(f, ", \"allocs_per_op\": %.4f", r.allocs_per_op);
      }
      std::fprintf(f, "}");
    }
    std::fprintf(f, "\n  ]\n}\n");
    std::fclose(f);
    return true;
  }

 private:
  static std::string escape(const std::string& s) {
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
      if (c == '"' || c == '\\') out.push_back('\\');
      if (c == '\n') {
        out += "\\n";
      } else {
        out.push_back(c);
      }
    }
    return out;
  }

  std::string bench_;
  std::vector<Row> rows_;
};

using nexus::Context;
using nexus::Runtime;
using nexus::RuntimeOptions;
using nexus::Startpoint;
using nexus::Time;

/// One-way time of a Nexus RSR ping-pong between contexts 0 (responder) and
/// 1 (driver), in virtual microseconds.  The reply startpoint is shipped
/// once in a setup RSR; timed pings carry only the payload, matching the
/// paper's microbenchmark.  `tune` runs in every context after module setup
/// (skip_poll etc.); pass nullptr for defaults.
inline double nexus_pingpong_us(RuntimeOptions opts, std::size_t payload,
                                int rounds,
                                const std::function<void(Context&)>& tune) {
  Runtime rt(std::move(opts));
  double one_way_us = 0.0;

  rt.run(std::vector<std::function<void(Context&)>>{
      [&](Context& ctx) {  // responder
        if (tune) tune(ctx);
        std::uint64_t served = 0;
        Startpoint reply;
        ctx.register_handler("setup",
                             [&](Context& c, nexus::Endpoint&,
                                 nexus::util::UnpackBuffer& ub) {
                               reply = c.unpack_startpoint(ub);
                             });
        ctx.register_handler(
            "ping", [&](Context& c, nexus::Endpoint&,
                        nexus::util::UnpackBuffer& ub) {
              c.rsr(reply, "pong", ub.get_bytes());
              ++served;
            });
        ctx.wait_count(served, static_cast<std::uint64_t>(rounds));
      },
      [&](Context& ctx) {  // driver
        if (tune) tune(ctx);
        std::uint64_t got = 0;
        ctx.register_handler("pong",
                             [&](Context&, nexus::Endpoint&,
                                 nexus::util::UnpackBuffer&) { ++got; });
        Startpoint to_responder = ctx.world_startpoint(0);
        {
          Startpoint back = ctx.startpoint_to(ctx.root_endpoint());
          nexus::util::PackBuffer pb;
          ctx.pack_startpoint(pb, back);
          ctx.rsr(to_responder, "setup", pb);
        }
        const nexus::util::Bytes data(payload, 0x5a);
        nexus::util::PackBuffer pb;
        pb.put_bytes(data);

        const Time t0 = ctx.now();
        for (int r = 0; r < rounds; ++r) {
          ctx.rsr(to_responder, "ping", pb);
          ctx.wait_count(got, static_cast<std::uint64_t>(r) + 1);
        }
        const Time elapsed = ctx.now() - t0;
        one_way_us = nexus::simnet::to_us(elapsed) / (2.0 * rounds);
      }});
  return one_way_us;
}

/// One row of Figure 6: one-way times of the two concurrent ping-pongs.
struct DualResult {
  double mpl_one_way_us = 0.0;
  double tcp_one_way_us = 0.0;
};

/// Figure 6's dual concurrent ping-pong: context 1 drives `mpl_rounds`
/// MPL round trips to context 0 while context 2, in the other partition,
/// ping-pongs with context 0 over TCP until halted; every context polls tcp
/// with `skip`.  One-way times are virtual microseconds.
inline DualResult dual_pingpong(std::uint64_t skip, std::size_t payload,
                                int mpl_rounds) {
  RuntimeOptions opts;
  // ctx0 and ctx1 share a partition (MPL pair); ctx2 sits in a second
  // partition and can reach ctx0 only via TCP.
  opts.topology = nexus::simnet::Topology::two_partitions(2, 1);
  opts.modules = {"local", "mpl", "tcp"};
  Runtime rt(opts);

  DualResult result;
  const nexus::util::Bytes data(payload, 0x7e);

  rt.run(std::vector<std::function<void(Context&)>>{
      // ctx0: the shared multimethod node; reflects both ping-pongs.
      [&](Context& ctx) {
        ctx.set_skip_poll("tcp", skip);
        Startpoint reply1, reply2;
        std::uint64_t stops = 0;
        ctx.register_handler("setup1",
                             [&](Context& c, nexus::Endpoint&,
                                 nexus::util::UnpackBuffer& ub) {
                               reply1 = c.unpack_startpoint(ub);
                             });
        ctx.register_handler("setup2",
                             [&](Context& c, nexus::Endpoint&,
                                 nexus::util::UnpackBuffer& ub) {
                               reply2 = c.unpack_startpoint(ub);
                             });
        ctx.register_handler("ping1",
                             [&](Context& c, nexus::Endpoint&,
                                 nexus::util::UnpackBuffer& ub) {
                               c.rsr(reply1, "pong", ub.get_bytes());
                             });
        ctx.register_handler("ping2",
                             [&](Context& c, nexus::Endpoint&,
                                 nexus::util::UnpackBuffer& ub) {
                               c.rsr(reply2, "pong", ub.get_bytes());
                             });
        ctx.register_handler("stop",
                             [&](Context&, nexus::Endpoint&,
                                 nexus::util::UnpackBuffer&) {
                               ++stops;
                             });
        ctx.wait_count(stops, 2);
      },
      // ctx1: drives the MPL ping-pong for a fixed number of roundtrips.
      [&](Context& ctx) {
        ctx.set_skip_poll("tcp", skip);
        std::uint64_t got = 0;
        ctx.register_handler("pong",
                             [&](Context&, nexus::Endpoint&,
                                 nexus::util::UnpackBuffer&) {
                               ++got;
                             });
        Startpoint to0 = ctx.world_startpoint(0);
        {
          Startpoint back = ctx.startpoint_to(ctx.root_endpoint());
          nexus::util::PackBuffer pb;
          ctx.pack_startpoint(pb, back);
          ctx.rsr(to0, "setup1", pb);
        }
        nexus::util::PackBuffer pb;
        pb.put_bytes(data);
        const Time t0 = ctx.now();
        for (int r = 0; r < mpl_rounds; ++r) {
          ctx.rsr(to0, "ping1", pb);
          ctx.wait_count(got, static_cast<std::uint64_t>(r) + 1);
        }
        result.mpl_one_way_us =
            nexus::simnet::to_us(ctx.now() - t0) / (2.0 * mpl_rounds);
        Startpoint to2 = ctx.world_startpoint(2);
        ctx.rsr(to2, "halt");
        ctx.rsr(to0, "stop");
      },
      // ctx2: drives the TCP ping-pong until halted.
      [&](Context& ctx) {
        ctx.set_skip_poll("tcp", skip);
        std::uint64_t got = 0;
        bool halted = false;
        ctx.register_handler("pong",
                             [&](Context&, nexus::Endpoint&,
                                 nexus::util::UnpackBuffer&) {
                               ++got;
                             });
        ctx.register_handler("halt",
                             [&](Context&, nexus::Endpoint&,
                                 nexus::util::UnpackBuffer&) {
                               halted = true;
                             });
        Startpoint to0 = ctx.world_startpoint(0);
        {
          Startpoint back = ctx.startpoint_to(ctx.root_endpoint());
          nexus::util::PackBuffer pb;
          ctx.pack_startpoint(pb, back);
          ctx.rsr(to0, "setup2", pb);
        }
        nexus::util::PackBuffer pb;
        pb.put_bytes(data);
        const Time t0 = ctx.now();
        std::uint64_t rounds = 0;
        while (!halted) {
          ctx.rsr(to0, "ping2", pb);
          ctx.wait_count(got, rounds + 1);
          ++rounds;
        }
        result.tcp_one_way_us = nexus::simnet::to_us(ctx.now() - t0) /
                                (2.0 * static_cast<double>(rounds));
        ctx.rsr(to0, "stop");
      }});
  return result;
}

inline void print_header(const std::string& title) {
  std::printf("\n==============================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("==============================================================\n");
}

}  // namespace bench
