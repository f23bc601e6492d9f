// MpscQueue: the lock-free multi-producer single-consumer queue behind
// every realtime per-method packet queue.  The invariants pinned here are
// the ones the realtime fabric leans on:
// per-producer FIFO order, no loss and no duplication under contention,
// close() semantics (wake the consumer, deliver stragglers, then drain to
// nullopt), and the sleeper-flag handshake that makes pop_wait lossless.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <optional>
#include <thread>
#include <vector>

#include "util/mpsc_queue.hpp"

namespace {

using nexus::util::MpscQueue;

TEST(MpscQueue, StartsEmptyAndPopsNothing) {
  MpscQueue<int> q;
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(q.try_pop().has_value());
  EXPECT_FALSE(q.closed());
}

TEST(MpscQueue, SingleThreadFifo) {
  MpscQueue<int> q;
  for (int i = 0; i < 100; ++i) q.push(i);
  EXPECT_FALSE(q.empty());
  for (int i = 0; i < 100; ++i) {
    auto v = q.try_pop();
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, i);
  }
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(q.try_pop().has_value());
}

TEST(MpscQueue, MoveOnlyPayloads) {
  MpscQueue<std::unique_ptr<int>> q;
  q.push(std::make_unique<int>(41));
  q.push(std::make_unique<int>(42));
  auto a = q.try_pop();
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(**a, 41);
  auto b = q.try_pop();
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(**b, 42);
}

// Four producers push tagged sequences while the consumer spins on
// try_pop: every element must arrive exactly once, and elements of one
// producer must arrive in that producer's push order.
TEST(MpscQueue, ContendedNoLossNoDupPerProducerFifo) {
  constexpr std::uint64_t kProducers = 4;
  constexpr std::uint64_t kPerProducer = 50000;
  MpscQueue<std::uint64_t> q;
  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (std::uint64_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&q, p] {
      for (std::uint64_t i = 0; i < kPerProducer; ++i) {
        q.push(p << 32 | i);  // tag = producer id, payload = sequence
      }
    });
  }
  std::vector<std::uint64_t> next_expected(kProducers, 0);
  std::uint64_t received = 0;
  bool order_ok = true;
  while (received < kProducers * kPerProducer) {
    auto v = q.try_pop();
    if (!v.has_value()) continue;
    const std::uint64_t p = *v >> 32;
    const std::uint64_t seq = *v & 0xffffffffull;
    // Exactly-once + per-producer FIFO in one check: each producer's
    // sequence must be observed strictly in order with no gaps.
    if (seq != next_expected[p]) order_ok = false;
    next_expected[p] = seq + 1;
    ++received;
  }
  for (auto& t : producers) t.join();
  EXPECT_TRUE(order_ok);
  EXPECT_EQ(received, kProducers * kPerProducer);
  for (std::uint64_t p = 0; p < kProducers; ++p) {
    EXPECT_EQ(next_expected[p], kPerProducer);
  }
  EXPECT_TRUE(q.empty());
}

// Same contention, but the consumer blocks in pop_wait between items: the
// sleeper-flag Dekker handshake must never lose a wakeup (a lost one shows
// up as this test hanging, which the ctest timeout converts to a failure).
TEST(MpscQueue, BlockingConsumerLosesNoWakeups) {
  constexpr std::uint64_t kProducers = 4;
  constexpr std::uint64_t kPerProducer = 20000;
  MpscQueue<std::uint64_t> q;
  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (std::uint64_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&q, p] {
      for (std::uint64_t i = 0; i < kPerProducer; ++i) {
        q.push(p << 32 | i);
      }
    });
  }
  std::vector<std::uint64_t> next_expected(kProducers, 0);
  std::uint64_t received = 0;
  bool order_ok = true;
  while (received < kProducers * kPerProducer) {
    auto v = q.pop_wait();
    ASSERT_TRUE(v.has_value());  // never closed in this test
    const std::uint64_t p = *v >> 32;
    if ((*v & 0xffffffffull) != next_expected[p]) order_ok = false;
    next_expected[p] = (*v & 0xffffffffull) + 1;
    ++received;
  }
  for (auto& t : producers) t.join();
  EXPECT_TRUE(order_ok);
  EXPECT_EQ(received, kProducers * kPerProducer);
}

TEST(MpscQueue, CloseWakesBlockedConsumer) {
  MpscQueue<int> q;
  std::atomic<bool> got_nullopt{false};
  std::thread consumer([&] {
    auto v = q.pop_wait();
    if (!v.has_value()) got_nullopt.store(true);
  });
  // Give the consumer a moment to park, then close.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  q.close();
  consumer.join();
  EXPECT_TRUE(got_nullopt.load());
  EXPECT_TRUE(q.closed());
}

TEST(MpscQueue, CloseDeliversBufferedItemsFirst) {
  MpscQueue<int> q;
  q.push(1);
  q.push(2);
  q.close();
  auto a = q.pop_wait();
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(*a, 1);
  auto b = q.pop_wait();
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(*b, 2);
  EXPECT_FALSE(q.pop_wait().has_value());  // drained: now reports closed
}

TEST(MpscQueue, PushAfterCloseStillDelivered) {
  // The rt fabric may race a send against shutdown_blocking(); the queue
  // contract is that post-close pushes are not lost, they drain first.
  MpscQueue<int> q;
  q.close();
  q.push(7);
  auto v = q.pop_wait();
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, 7);
  EXPECT_FALSE(q.pop_wait().has_value());
}

TEST(MpscQueue, DestructorReleasesUndrainedItems) {
  // Leak-checked under ASan in CI: dropping a non-empty queue must free
  // every node and payload.
  auto q = std::make_unique<MpscQueue<std::unique_ptr<int>>>();
  for (int i = 0; i < 64; ++i) q->push(std::make_unique<int>(i));
  q.reset();
}

}  // namespace
