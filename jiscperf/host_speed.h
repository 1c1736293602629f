#ifndef JISCPERF_HOST_SPEED_H_
#define JISCPERF_HOST_SPEED_H_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <memory_resource>
#include <unordered_map>
#include <vector>

namespace jiscperf {

// How fast the host runs the calling thread right now, relative to a
// reference host. On a shared host, other tenants slow a core by up to half
// for seconds at a time, through its caches, its memory and its sibling
// hyperthread; the thread's CPU clock runs on meanwhile, so CPU time does not
// remove it. A reading times a fixed piece of work of the same kind as the
// engine's, and a stretch of engine work measured next to it is expressed at
// the reference host's speed: its rate divided by the reading, its times
// multiplied by it.
//
// The work is a 4-way equi-join over count windows of 10^4 tuples per
// stream, keys uniform over 10^4 (the `steady` shape): each tuple expires
// its stream's oldest, walks that one's combinations, then walks its own.
// It uses only the standard library and a fixed input, so no change to the
// engine changes it. Its containers allocate from an arena of their own: on
// the shared heap, their blocks, taken between the engine's, kept the heap
// from shrinking between passes, and each pass's measured memory growth fell
// round by round.
class HostSpeed {
 public:
  HostSpeed();

  // Runs kTuplesPerReading tuples of the join on the thread's CPU clock;
  // returns kReferenceNs / the time taken (1 = as fast as the reference
  // host, 0.5 = half as fast).
  double Measure();

  static constexpr int kTuplesPerReading = 2000;
  // Median time of one reading on the reference host, a 4-vCPU x86-64 KVM
  // guest on a Xeon, at a quiet time.
  static constexpr double kReferenceNs = 1.17e6;

 private:
  struct Item {
    int stream;
    uint64_t key;
    uint64_t seq;
  };
  void Admit(const Item& t);
  // Mixes every combination of `pivot` with live same-key tuples of the
  // other streams into sum_.
  void Walk(const Item& pivot);

  using List = std::pmr::deque<const Item*>;

  std::vector<Item> input_;
  size_t next_ = 0;
  std::unique_ptr<std::byte[]> arena_;
  std::pmr::monotonic_buffer_resource arena_resource_;
  std::pmr::unsynchronized_pool_resource pool_;
  std::pmr::vector<List> windows_;
  std::pmr::vector<std::pmr::unordered_map<uint64_t, List>> keys_;
  uint64_t sum_ = 0;
};

}  // namespace jiscperf

#endif  // JISCPERF_HOST_SPEED_H_
