// Tests for the streaming method (paper §6 future work): fragmentation,
// reassembly, interleaving, and cost behaviour.
#include <gtest/gtest.h>

#include "nexus/runtime.hpp"
#include "proto/stream.hpp"
#include "util/rng.hpp"

namespace {

using namespace nexus;

RuntimeOptions stream_opts(std::size_t n, std::int64_t mtu = 0) {
  RuntimeOptions opts;
  opts.topology = simnet::Topology::two_partitions(n - 1, 1);
  opts.modules = {"local", "mpl", "stream", "tcp"};
  if (mtu > 0) opts.db.set("stream.mtu", std::to_string(mtu));
  return opts;
}

proto::StreamModule* stream_of(Context& ctx) {
  return dynamic_cast<proto::StreamModule*>(ctx.module("stream"));
}

TEST(Stream, LargePayloadRoundtripIntact) {
  Runtime rt(stream_opts(2, 1024));
  util::Bytes got;
  util::Bytes original(100'000, 0);
  util::Rng rng(11);
  for (auto& b : original) b = static_cast<std::uint8_t>(rng.next());

  rt.run(std::vector<std::function<void(Context&)>>{
      [&](Context& ctx) {
        std::uint64_t done = 0;
        ctx.register_handler("blob",
                             [&](Context&, Endpoint&, util::UnpackBuffer& ub) {
                               got = ub.get_bytes();
                               ++done;
                             });
        ctx.wait_count(done, 1);
        // ~100000/1024 fragments plus the length-prefixed framing.
        EXPECT_GE(stream_of(ctx)->fragments_received(), 98u);
      },
      [&](Context& ctx) {
        Startpoint sp = ctx.world_startpoint(0);
        sp.force_method("stream");
        util::PackBuffer pb;
        pb.put_bytes(original);
        ctx.rsr(sp, "blob", pb);
        EXPECT_GE(stream_of(ctx)->fragments_sent(), 98u);
      }});
  EXPECT_EQ(got, original);
}

TEST(Stream, EmptyPayloadStillDelivers) {
  Runtime rt(stream_opts(2));
  rt.run(std::vector<std::function<void(Context&)>>{
      [&](Context& ctx) {
        std::uint64_t done = 0;
        ctx.register_handler("empty",
                             [&](Context&, Endpoint&, util::UnpackBuffer& ub) {
                               EXPECT_TRUE(ub.empty());
                               ++done;
                             });
        ctx.wait_count(done, 1);
      },
      [&](Context& ctx) {
        Startpoint sp = ctx.world_startpoint(0);
        sp.force_method("stream");
        ctx.rsr(sp, "empty");
        EXPECT_EQ(stream_of(ctx)->fragments_sent(), 1u);
      }});
}

TEST(Stream, SmallPayloadSingleFragment) {
  Runtime rt(stream_opts(2, 4096));
  rt.run(std::vector<std::function<void(Context&)>>{
      [&](Context& ctx) {
        std::uint64_t done = 0;
        ctx.register_handler("small",
                             [&](Context&, Endpoint&, util::UnpackBuffer&) {
                               ++done;
                             });
        ctx.wait_count(done, 1);
        EXPECT_EQ(stream_of(ctx)->fragments_received(), 1u);
      },
      [&](Context& ctx) {
        Startpoint sp = ctx.world_startpoint(0);
        sp.force_method("stream");
        ctx.rsr(sp, "small", util::Bytes(100, 0x1));
      }});
}

TEST(Stream, InterleavedSendersReassembleIndependently) {
  // Two senders stream different large payloads to one receiver; the
  // fragments interleave in the receiver's mailbox but each message must
  // come out whole and correct.
  RuntimeOptions opts;
  opts.topology = simnet::Topology::single_partition(3);
  opts.modules = {"local", "stream", "tcp"};
  opts.db.set("stream.mtu", "512");
  Runtime rt(opts);
  std::map<int, util::Bytes> received;

  auto payload_of = [](int sender) {
    return util::Bytes(20'000 + 1000 * static_cast<std::size_t>(sender),
                       static_cast<std::uint8_t>(0x10 * sender));
  };

  rt.run([&](Context& ctx) {
    if (ctx.id() == 0) {
      std::uint64_t done = 0;
      ctx.register_handler("blob",
                           [&](Context&, Endpoint&, util::UnpackBuffer& ub) {
                             const int sender = ub.get_i32();
                             received[sender] = ub.get_bytes();
                             ++done;
                           });
      ctx.wait_count(done, 2);
      return;
    }
    Startpoint sp = ctx.world_startpoint(0);
    sp.force_method("stream");
    util::PackBuffer pb;
    pb.put_i32(static_cast<int>(ctx.id()));
    pb.put_bytes(payload_of(static_cast<int>(ctx.id())));
    ctx.rsr(sp, "blob", pb);
  });

  ASSERT_EQ(received.size(), 2u);
  EXPECT_EQ(received[1], payload_of(1));
  EXPECT_EQ(received[2], payload_of(2));
}

TEST(Stream, BackToBackMessagesFromOneSenderStayOrdered) {
  Runtime rt(stream_opts(2, 256));
  std::vector<int> order;
  rt.run(std::vector<std::function<void(Context&)>>{
      [&](Context& ctx) {
        std::uint64_t done = 0;
        ctx.register_handler("seq",
                             [&](Context&, Endpoint&, util::UnpackBuffer& ub) {
                               order.push_back(ub.get_i32());
                               ++done;
                             });
        ctx.wait_count(done, 5);
      },
      [&](Context& ctx) {
        Startpoint sp = ctx.world_startpoint(0);
        sp.force_method("stream");
        for (int i = 0; i < 5; ++i) {
          util::PackBuffer pb;
          pb.put_i32(i);
          pb.put_bytes(util::Bytes(3000, static_cast<std::uint8_t>(i)));
          ctx.rsr(sp, "seq", pb);
        }
      }});
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Stream, TransferTimeScalesWithFragmentPipeline) {
  // A fragmented transfer must take at least the serialized wire time of
  // all fragments plus one latency (pipelined, not per-fragment latency).
  Runtime rt(stream_opts(2, 1024));
  Time delivered = -1;
  const std::size_t kBytes = 81920;  // 80 fragments
  rt.run(std::vector<std::function<void(Context&)>>{
      [&](Context& ctx) {
        std::uint64_t done = 0;
        ctx.register_handler("blob",
                             [&](Context& c, Endpoint&, util::UnpackBuffer&) {
                               delivered = c.now();
                               ++done;
                             });
        ctx.wait_count(done, 1);
      },
      [&](Context& ctx) {
        Startpoint sp = ctx.world_startpoint(0);
        sp.force_method("stream");
        ctx.rsr(sp, "blob", util::Bytes(kBytes, 0x9));
      }});
  RuntimeOptions ref;
  const Time min_wire =
      simnet::transfer_time(kBytes, ref.costs.tcp_mb_s) + ref.costs.tcp_latency;
  EXPECT_GE(delivered, min_wire);
  // And not absurdly slow: under 3x the ideal.
  EXPECT_LE(delivered, 3 * min_wire);
}

}  // namespace
