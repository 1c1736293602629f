#ifndef JISC_OBS_HISTOGRAM_H_
#define JISC_OBS_HISTOGRAM_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>

namespace jisc {

// Lock-free fixed-bucket log-linear histogram for latency / service-time
// distributions (nanoseconds, entry counts, ...). The observability
// counterpart of Metrics::Counter: recording is a relaxed atomic increment,
// so the per-shard engines of the parallel executor can record into one
// shared instance (or into per-shard instances merged afterwards) without
// locks, and copying snapshots the current contents.
//
// Bucket scheme (HDR-style log-linear): each power-of-two range [2^e, 2^e+1)
// is split into 2^kSubBits = 16 linear sub-buckets, so every recorded value
// lands in a bucket whose width is at most value/16 — quantile queries are
// exact to within a 1/16 (6.25%) relative error, independent of magnitude.
// Values below 2^kSubBits have unit-width buckets (exact). Values at or
// above kMaxTracked (2^40: ~18 minutes in ns) land in a single overflow
// bucket; Quantile() reports kMaxTracked for quantiles that fall there, and
// overflow() exposes the count so callers can tell saturation from signal.
//
// Consistency contract (same as Metrics::Counter): individual cell reads
// are race-free, but reads of a histogram while writers are hot are not a
// cross-cell-consistent cut — count()/Quantile() on the live instance may
// disagree transiently by in-flight records. A copy is self-consistent in
// its bucket cells: its count() is the total of the cells it copied, so
// Quantile() of a copy with count() > 0 falls in a non-empty cell (its
// sum() and max() are read separately and may still lag or lead by
// in-flight records). Each cell is monotone, so the counts and quantiles
// of successive copies never move backwards due to the copy itself.
// Reset() is the one non-concurrent entry point: callers must quiesce
// writers first.
class Histogram {
 public:
  static constexpr int kSubBits = 4;                    // 16 sub-buckets
  static constexpr int kSubCount = 1 << kSubBits;
  static constexpr int kMaxExp = 40;                    // track < 2^40
  static constexpr uint64_t kMaxTracked = uint64_t{1} << kMaxExp;
  // Exponents kSubBits..kMaxExp-1 each contribute kSubCount buckets on top
  // of the kSubCount unit buckets, plus the overflow bucket.
  static constexpr int kBuckets =
      (kMaxExp - kSubBits) * kSubCount + kSubCount + 1;

  constexpr Histogram() = default;
  Histogram(const Histogram& o) { CopyFrom(o); }
  Histogram& operator=(const Histogram& o) {
    if (this != &o) CopyFrom(o);
    return *this;
  }

  // Thread-safe: relaxed atomic increments only.
  void Record(uint64_t value) {
    buckets_[BucketIndex(value)].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(value, std::memory_order_relaxed);
    uint64_t prev = max_.load(std::memory_order_relaxed);
    while (prev < value &&
           !max_.compare_exchange_weak(prev, value,
                                       std::memory_order_relaxed)) {
    }
  }

  // Thread-safe: adds `other`'s cells into this histogram cell by cell.
  // Associative and commutative over bucket contents, like Counter sums.
  void Merge(const Histogram& other);

  // Resets every cell to zero. NOT thread-safe: quiesce writers first.
  void Reset();

  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  uint64_t sum() const { return sum_.load(std::memory_order_relaxed); }
  uint64_t max() const { return max_.load(std::memory_order_relaxed); }
  uint64_t overflow() const {
    return buckets_[kBuckets - 1].load(std::memory_order_relaxed);
  }
  double mean() const {
    uint64_t n = count();
    return n == 0 ? 0.0 : static_cast<double>(sum()) / static_cast<double>(n);
  }

  // The smallest recorded-bucket upper bound covering quantile q (clamped
  // to [0, 1]): for a quantile landing on value v the result r satisfies
  // v <= r <= v + v/16 (r == kMaxTracked when it falls in the overflow
  // bucket; 0 when the histogram is empty).
  uint64_t Quantile(double q) const;

  uint64_t P50() const { return Quantile(0.50); }
  uint64_t P90() const { return Quantile(0.90); }
  uint64_t P99() const { return Quantile(0.99); }

  // "count=... p50=... p90=... p99=... max=..." one-liner for logs.
  std::string ToString() const;

  // Bucket geometry, exposed for tests and exporters.
  static int BucketIndex(uint64_t value) {
    if (value < kSubCount) return static_cast<int>(value);
    if (value >= kMaxTracked) return kBuckets - 1;
    int exp = 63 - CountLeadingZeros(value);
    int sub = static_cast<int>((value >> (exp - kSubBits)) & (kSubCount - 1));
    return (exp - kSubBits) * kSubCount + kSubCount + sub;
  }
  // Largest value mapping to bucket `index` (kMaxTracked for overflow).
  static uint64_t BucketUpperBound(int index);

  uint64_t bucket_count(int index) const {
    return buckets_[static_cast<size_t>(index)].load(
        std::memory_order_relaxed);
  }

 private:
  static int CountLeadingZeros(uint64_t v) { return __builtin_clzll(v); }
  void CopyFrom(const Histogram& o);

  std::atomic<uint64_t> buckets_[kBuckets] = {};
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_{0};
  std::atomic<uint64_t> max_{0};
};

}  // namespace jisc

#endif  // JISC_OBS_HISTOGRAM_H_
