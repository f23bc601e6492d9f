// Lock-free multi-producer single-consumer queue (Vyukov's algorithm).
//
// Producers enqueue with one atomic exchange on the head pointer plus one
// store to link the previous node -- wait-free, no CAS loop, no contention
// window beyond the exchange itself.  The single consumer pops by following
// the stub node's next pointer; it never touches the producers' head except
// to detect emptiness.  This backs every realtime per-method packet queue,
// each of which has exactly one consumer at a time.
//
// Consumer exclusivity is a *protocol* obligation, not an enforced one: the
// realtime fabric hands a queue from the polling engine to a blocking-poller
// thread only across a disable/enable + thread create/join boundary.
//
// Blocking: pop_wait() parks on a mutex/condvar only after publishing a
// sleeper flag and re-checking emptiness.  The producer's head exchange and
// the consumer's sleeper store are both seq_cst, so the classic Dekker
// argument rules out a lost wakeup: either the producer observes the
// sleeper flag (and notifies under the mutex), or the consumer's re-check
// observes the freshly exchanged head (and does not sleep).  No
// atomic_thread_fence is used anywhere -- ThreadSanitizer models seq_cst
// atomics exactly but historically ignores fences.
#pragma once

#include <atomic>
#include <condition_variable>
#include <mutex>
#include <optional>
#include <utility>

namespace nexus::util {

template <typename T>
class MpscQueue {
 public:
  MpscQueue() {
    Node* stub = new Node();
    head_.store(stub, std::memory_order_relaxed);
    tail_ = stub;
  }

  MpscQueue(const MpscQueue&) = delete;
  MpscQueue& operator=(const MpscQueue&) = delete;

  ~MpscQueue() {
    Node* n = tail_;
    while (n != nullptr) {
      Node* next = n->next.load(std::memory_order_relaxed);
      delete n;
      n = next;
    }
  }

  /// Multi-producer enqueue: one allocation, one exchange, one store.
  void push(T item) {
    Node* node = new Node(std::move(item));
    // seq_cst exchange: publishes the node into the producers' total order
    // and anchors the Dekker pairing with the consumer's sleeper flag (see
    // header comment).  On x86 the RMW is a full barrier anyway.
    Node* prev = head_.exchange(node, std::memory_order_seq_cst);
    prev->next.store(node, std::memory_order_release);
    if (sleeping_.load(std::memory_order_seq_cst)) {
      // Rare path: the consumer is parked (or committing to park while
      // holding the mutex, in which case this lock waits it out).
      std::lock_guard<std::mutex> lock(mutex_);
      cv_.notify_one();
    }
  }

  /// Single-consumer non-blocking pop.
  std::optional<T> try_pop() {
    Node* tail = tail_;
    Node* next = tail->next.load(std::memory_order_acquire);
    if (next == nullptr) return std::nullopt;
    std::optional<T> item(std::move(next->value));
    tail_ = next;
    delete tail;
    return item;
  }

  /// Single-consumer blocking pop; returns nullopt once closed and drained.
  std::optional<T> pop_wait() {
    for (;;) {
      if (auto item = try_pop()) return item;
      std::unique_lock<std::mutex> lock(mutex_);
      sleeping_.store(true, std::memory_order_seq_cst);
      // Dekker re-check: a push whose exchange predates our flag store is
      // now visible through head_ (seq_cst on both sides); a later push
      // sees the flag and will notify under the mutex we hold.
      if (!empty() || closed_.load(std::memory_order_seq_cst)) {
        sleeping_.store(false, std::memory_order_seq_cst);
        if (empty() && closed_.load(std::memory_order_seq_cst)) {
          return std::nullopt;
        }
        continue;
      }
      cv_.wait(lock, [&] {
        return !empty() || closed_.load(std::memory_order_seq_cst);
      });
      sleeping_.store(false, std::memory_order_seq_cst);
    }
  }

  /// Consumer-side emptiness: exact for the single consumer.  head_ != tail_
  /// also covers a producer that has exchanged head_ but not yet linked
  /// next (the link lands momentarily; try_pop would transiently miss it).
  bool empty() const {
    return head_.load(std::memory_order_seq_cst) == tail_;
  }

  /// Wake the blocked consumer; subsequent pop_wait on an empty queue
  /// returns nullopt.  Items pushed after close are still delivered to
  /// try_pop/pop_wait until the queue drains.
  void close() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      closed_.store(true, std::memory_order_seq_cst);
    }
    cv_.notify_all();
  }

  bool closed() const { return closed_.load(std::memory_order_seq_cst); }

 private:
  struct Node {
    Node() = default;
    explicit Node(T v) : value(std::move(v)) {}
    std::atomic<Node*> next{nullptr};
    T value{};
  };

  // Producers exchange head_; only the consumer reads tail_.  Separate
  // cache lines so the producers' RMW traffic does not bounce the
  // consumer's line.
  alignas(64) std::atomic<Node*> head_;
  alignas(64) Node* tail_;
  std::atomic<bool> sleeping_{false};
  std::atomic<bool> closed_{false};
  std::mutex mutex_;
  std::condition_variable cv_;
};

}  // namespace nexus::util
