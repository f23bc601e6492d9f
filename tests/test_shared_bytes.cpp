// SharedBytes: the immutable ref-counted buffer underlying zero-copy RSR
// payloads.  These tests pin the ownership semantics the data path relies
// on: adopt moves storage, copy_of snapshots, views alias, and to_bytes is
// the only way out to mutable storage.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <thread>
#include <vector>

#include "util/pack.hpp"
#include "util/shared_bytes.hpp"

namespace {

using nexus::util::Byte;
using nexus::util::Bytes;
using nexus::util::ByteSpan;
using nexus::util::PackBuffer;
using nexus::util::SharedBytes;

TEST(SharedBytes, DefaultIsEmpty) {
  SharedBytes sb;
  EXPECT_TRUE(sb.empty());
  EXPECT_EQ(sb.size(), 0u);
  EXPECT_EQ(sb.use_count(), 0);
  EXPECT_TRUE(sb.span().empty());
}

TEST(SharedBytes, AdoptReusesVectorStorage) {
  Bytes b{1, 2, 3, 4};
  const Byte* raw = b.data();
  SharedBytes sb(std::move(b));
  ASSERT_EQ(sb.size(), 4u);
  // The vector's heap block was moved into the shared owner, not copied.
  EXPECT_EQ(sb.data(), raw);
  EXPECT_EQ(sb[2], 3);
}

TEST(SharedBytes, CopyOfSnapshotsSource) {
  Bytes src{10, 20, 30};
  SharedBytes sb = SharedBytes::copy_of(src);
  src[0] = 99;  // mutating the source must not affect the snapshot
  ASSERT_EQ(sb.size(), 3u);
  EXPECT_EQ(sb[0], 10);
  EXPECT_NE(sb.data(), src.data());
}

TEST(SharedBytes, CopiesAliasOneBuffer) {
  SharedBytes a = SharedBytes::copy_of(Bytes{5, 6, 7});
  SharedBytes b = a;
  SharedBytes c = b;
  EXPECT_TRUE(a.aliases(b));
  EXPECT_TRUE(a.aliases(c));
  EXPECT_EQ(a.data(), b.data());
  EXPECT_EQ(a.use_count(), 3);
  c = SharedBytes();
  EXPECT_EQ(a.use_count(), 2);
}

TEST(SharedBytes, ViewAliasesWithoutCopy) {
  SharedBytes whole = SharedBytes::copy_of(Bytes{0, 1, 2, 3, 4, 5});
  SharedBytes mid = whole.view(2, 3);
  ASSERT_EQ(mid.size(), 3u);
  EXPECT_EQ(mid.data(), whole.data() + 2);
  EXPECT_TRUE(mid.aliases(whole));
  EXPECT_EQ(mid[0], 2);
  EXPECT_THROW(whole.view(4, 3), nexus::util::UsageError);
}

TEST(SharedBytes, ViewKeepsBufferAlive) {
  SharedBytes mid;
  {
    SharedBytes whole = SharedBytes::copy_of(Bytes{7, 8, 9, 10});
    mid = whole.view(1, 2);
  }  // `whole` gone; the view still owns the block
  ASSERT_EQ(mid.size(), 2u);
  EXPECT_EQ(mid[0], 8);
  EXPECT_EQ(mid[1], 9);
  EXPECT_EQ(mid.use_count(), 1);
}

TEST(SharedBytes, ToBytesIsIndependentCopy) {
  SharedBytes sb = SharedBytes::copy_of(Bytes{1, 1, 2, 3});
  Bytes copy = sb.to_bytes();
  copy[0] = 42;
  EXPECT_EQ(sb[0], 1);
  EXPECT_NE(copy.data(), sb.data());
}

TEST(SharedBytes, PackBufferReleaseMovesStorage) {
  PackBuffer pb;
  pb.put_u32(0xabcd1234u);
  pb.put_string("payload");
  const std::size_t packed = pb.size();
  SharedBytes sb = pb.release();
  EXPECT_EQ(sb.size(), packed);
  EXPECT_EQ(pb.size(), 0u);  // buffer handed off, PackBuffer reusable
  EXPECT_EQ(sb.use_count(), 1);
  EXPECT_EQ(sb[0], 0xab);
}

// --- multi-threaded refcount stress (docs in shared_bytes.hpp header) ---
//
// The refcount contract -- relaxed increments, acq_rel decrements, last
// owner frees exactly once -- is what lets payloads cross realtime threads.
// These tests hammer it from several threads; run under TSan/ASan in CI
// they would flag any misordered release or double free.

TEST(SharedBytesMt, ConcurrentCopyAndDropStorm) {
  constexpr int kThreads = 4;
  constexpr int kIters = 20000;
  Bytes seed(64);
  for (std::size_t i = 0; i < seed.size(); ++i) {
    seed[i] = static_cast<Byte>(i * 7 + 1);
  }
  SharedBytes shared = SharedBytes::copy_of(seed);
  std::atomic<bool> corrupt{false};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kIters; ++i) {
        // Copy (relaxed increment), read through the copy, view-alias a
        // slice, then drop both (acq_rel decrements) every iteration.
        SharedBytes mine = shared;
        if (mine[static_cast<std::size_t>((i + t) % 64)] !=
            static_cast<Byte>(((i + t) % 64) * 7 + 1)) {
          corrupt.store(true);
        }
        SharedBytes slice = mine.view(static_cast<std::size_t>(i % 32), 16);
        if (slice[0] != static_cast<Byte>((i % 32) * 7 + 1)) {
          corrupt.store(true);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_FALSE(corrupt.load());
  EXPECT_EQ(shared.use_count(), 1);
  EXPECT_EQ(shared[63], static_cast<Byte>(63 * 7 + 1));
}

TEST(SharedBytesMt, LastOwnerOnAnotherThreadFrees) {
  // The producer creates buffers and hands the *only* reference to
  // consumers round-robin; the final decrement (and the free) then always
  // happens on a different thread than the allocation.  A missing release/
  // acquire pairing on the count would let the consumer read freed or
  // partially-visible bytes -- TSan catches it, and the content check
  // catches torn visibility even in plain builds.
  constexpr int kThreads = 4;
  constexpr int kPerThread = 5000;
  std::vector<std::vector<SharedBytes>> handoff(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    handoff[t].reserve(kPerThread);
    for (int i = 0; i < kPerThread; ++i) {
      Bytes b(32);
      for (std::size_t j = 0; j < b.size(); ++j) {
        b[j] = static_cast<Byte>(t + i + j);
      }
      handoff[t].push_back(SharedBytes(std::move(b)));
    }
  }
  std::atomic<int> bad{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        SharedBytes mine = std::move(handoff[t][static_cast<std::size_t>(i)]);
        for (std::size_t j = 0; j < mine.size(); ++j) {
          if (mine[j] != static_cast<Byte>(t + i + j)) {
            bad.fetch_add(1);
            break;
          }
        }
      }  // `mine` destroyed here: last owner, off-thread free
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(bad.load(), 0);
}

TEST(SharedBytesMt, ViewsOutliveSiblingsAcrossThreads) {
  constexpr int kThreads = 4;
  SharedBytes whole = SharedBytes::copy_of(Bytes{1, 2, 3, 4, 5, 6, 7, 8});
  std::vector<SharedBytes> views(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    views[static_cast<std::size_t>(t)] =
        whole.view(static_cast<std::size_t>(t), 4);
  }
  whole = SharedBytes();  // only the views keep the block alive now
  std::atomic<bool> corrupt{false};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      SharedBytes v = std::move(views[static_cast<std::size_t>(t)]);
      for (int i = 0; i < 10000; ++i) {
        if (v[0] != static_cast<Byte>(t + 1)) corrupt.store(true);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_FALSE(corrupt.load());
}

TEST(SharedBytes, EqualityComparesContents) {
  SharedBytes a = SharedBytes::copy_of(Bytes{1, 2, 3});
  SharedBytes b = SharedBytes::copy_of(Bytes{1, 2, 3});
  SharedBytes c = SharedBytes::copy_of(Bytes{1, 2, 4});
  EXPECT_FALSE(a.aliases(b));
  EXPECT_TRUE(a == b);
  EXPECT_FALSE(a == c);
  EXPECT_TRUE(SharedBytes() == SharedBytes());
}

}  // namespace
