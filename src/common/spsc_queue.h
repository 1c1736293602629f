#ifndef JISC_COMMON_SPSC_QUEUE_H_
#define JISC_COMMON_SPSC_QUEUE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <thread>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace jisc {

// Bounded single-producer / single-consumer ring buffer. The hot path
// (TryPush/TryPop) is lock-free: head and tail are published with
// release/acquire pairs, so exactly one producer thread and one consumer
// thread may use the queue concurrently. The parallel execution engine uses
// one per shard as the coordinator -> worker feed.
//
// The blocking wrappers (Push/Pop) implement backpressure: they spin
// briefly, then park on a condition variable with an untimed wait. The wake
// protocol loses no wakeups:
//   - a parking side takes mu_, registers in waiters_, issues a seq_cst
//     fence, and only then re-checks the ring before every wait;
//   - a publishing side moves its cursor, issues a seq_cst fence, and reads
//     waiters_; if anyone is parked it notifies while holding mu_.
// The two fences order "cursor moved" against "waiter registered": either
// the waiter's re-check sees the new cursor, or the publisher sees the
// waiter. In the latter case the waiter holds mu_ from registering until
// the wait releases it, so the publisher's notify under mu_ cannot fall
// between the waiter's last check and its wait. Publishing never notifies
// from inside a parked loop (which holds mu_ already): the parked loops
// publish first, leave the lock, then wake the other side.
//
// Shutdown/drain: Close() rejects further pushes and wakes waiters; Pop
// keeps draining buffered items and reports exhaustion only once the ring
// is empty.
//
// Concurrency contract (compiler-checked): the ring itself (buf_, head_,
// tail_, closed_, waiters_) is synchronized by the SPSC discipline plus
// atomics — no field is guarded by mu_. The mutex exists so parked loops
// have something to wait on and so a notify cannot slip past a waiter;
// the JISC_EXCLUDES annotations state to the compiler which entry points
// take it.
template <typename T>
class SpscQueue {
 public:
  // Capacity is rounded up to a power of two (minimum 2).
  explicit SpscQueue(size_t capacity) {
    size_t cap = 2;
    while (cap < capacity) cap <<= 1;
    buf_.resize(cap);
    mask_ = cap - 1;
  }

  SpscQueue(const SpscQueue&) = delete;
  SpscQueue& operator=(const SpscQueue&) = delete;

  // Producer side. False when full or closed (v is left intact when full).
  bool TryPush(T& v) JISC_EXCLUDES(mu_) {
    if (!Publish(v)) return false;
    Wake();
    return true;
  }

  // Consumer side. False when nothing is buffered.
  bool TryPop(T* out) JISC_EXCLUDES(mu_) {
    if (!Take(out)) return false;
    Wake();
    return true;
  }

  // Blocks while full (backpressure). False if the queue is closed.
  bool Push(T v) JISC_EXCLUDES(mu_) {
    for (int spin = 0; spin < kSpins; ++spin) {
      if (TryPush(v)) return true;
      if (closed_.load(std::memory_order_relaxed)) return false;
      std::this_thread::yield();
    }
    {
      MutexLock lk(&mu_);
      Park();
      while (!Publish(v)) {
        if (closed_.load(std::memory_order_relaxed)) {
          Unpark();
          return false;
        }
        cv_.Wait(&mu_);
      }
      Unpark();
    }
    Wake();
    return true;
  }

  // Blocks while empty and open. False when closed and fully drained.
  bool Pop(T* out) JISC_EXCLUDES(mu_) {
    for (int spin = 0; spin < kSpins; ++spin) {
      if (TryPop(out)) return true;
      if (closed_.load(std::memory_order_acquire)) {
        // Re-check: items pushed before Close() must still drain.
        return TryPop(out);
      }
      std::this_thread::yield();
    }
    bool popped = false;
    {
      MutexLock lk(&mu_);
      Park();
      for (;;) {
        popped = Take(out);
        if (popped) break;
        if (closed_.load(std::memory_order_acquire)) {
          popped = Take(out);
          break;
        }
        cv_.Wait(&mu_);
      }
      Unpark();
    }
    if (popped) Wake();
    return popped;
  }

  void Close() JISC_EXCLUDES(mu_) {
    closed_.store(true, std::memory_order_release);
    MutexLock lk(&mu_);
    cv_.NotifyAll();
  }

  bool closed() const { return closed_.load(std::memory_order_acquire); }

  // Approximate (racy) fill level; exact when both sides are quiescent.
  size_t SizeApprox() const {
    uint64_t head = head_.load(std::memory_order_acquire);
    uint64_t tail = tail_.load(std::memory_order_acquire);
    return static_cast<size_t>(tail - head);
  }

  // Number of Push/Pop calls currently in their parked loop (racy; lets
  // tests wait until a side has given up spinning).
  int parked() const { return waiters_.load(std::memory_order_acquire); }

  size_t capacity() const { return mask_ + 1; }

 private:
  static constexpr int kSpins = 128;

  // Ring moves without any wake-up. The parked loops call these with mu_
  // held; TryPush/TryPop wrap them with Wake().
  bool Publish(T& v) {
    if (closed_.load(std::memory_order_relaxed)) return false;
    uint64_t tail = tail_.load(std::memory_order_relaxed);
    uint64_t head = head_.load(std::memory_order_acquire);
    if (tail - head > mask_) return false;  // full
    buf_[tail & mask_] = std::move(v);
    tail_.store(tail + 1, std::memory_order_release);
    return true;
  }

  bool Take(T* out) {
    uint64_t head = head_.load(std::memory_order_relaxed);
    uint64_t tail = tail_.load(std::memory_order_acquire);
    if (head == tail) return false;  // empty
    *out = std::move(buf_[head & mask_]);
    head_.store(head + 1, std::memory_order_release);
    return true;
  }

  // Waiter side of the protocol: registration, then the fence, then (in the
  // caller's loop) the re-check of the ring.
  void Park() JISC_REQUIRES(mu_) {
    waiters_.fetch_add(1, std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_seq_cst);
  }

  void Unpark() JISC_REQUIRES(mu_) {
    waiters_.fetch_sub(1, std::memory_order_relaxed);
  }

  // Publisher side: the cursor store, then the fence, then the waiters_
  // read. The common case (nobody parked) costs the fence and one load.
  void Wake() JISC_EXCLUDES(mu_) {
    std::atomic_thread_fence(std::memory_order_seq_cst);
    if (waiters_.load(std::memory_order_relaxed) == 0) return;
    MutexLock lk(&mu_);
    cv_.NotifyAll();
  }

  std::vector<T> buf_;
  size_t mask_ = 1;
  alignas(64) std::atomic<uint64_t> head_{0};  // consumer cursor
  alignas(64) std::atomic<uint64_t> tail_{0};  // producer cursor
  std::atomic<bool> closed_{false};
  // Parking mutex: every shared field above is an atomic synchronized by
  // the SPSC protocol; mu_/cv_ exist only so the blocking wrappers can
  // sleep without missing a wake-up, hence no field is guarded by it.
  // jisc-verify: allow(unguarded-mutex) — parking-only, shared state is atomic
  Mutex mu_;
  CondVar cv_;
  std::atomic<int> waiters_{0};
};

}  // namespace jisc

#endif  // JISC_COMMON_SPSC_QUEUE_H_
