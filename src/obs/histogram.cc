#include "obs/histogram.h"

#include <sstream>

namespace jisc {

void Histogram::Merge(const Histogram& other) {
  for (int i = 0; i < kBuckets; ++i) {
    uint64_t n = other.buckets_[i].load(std::memory_order_relaxed);
    if (n != 0) buckets_[i].fetch_add(n, std::memory_order_relaxed);
  }
  count_.fetch_add(other.count(), std::memory_order_relaxed);
  sum_.fetch_add(other.sum(), std::memory_order_relaxed);
  uint64_t omax = other.max();
  uint64_t prev = max_.load(std::memory_order_relaxed);
  while (prev < omax && !max_.compare_exchange_weak(
                            prev, omax, std::memory_order_relaxed)) {
  }
}

void Histogram::Reset() {
  for (int i = 0; i < kBuckets; ++i) {
    buckets_[i].store(0, std::memory_order_relaxed);
  }
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
  max_.store(0, std::memory_order_relaxed);
}

void Histogram::CopyFrom(const Histogram& o) {
  // The copy's count is the total of the cells it copied, not o.count_,
  // so the copy's count and quantiles agree even while o is recorded into.
  uint64_t total = 0;
  for (int i = 0; i < kBuckets; ++i) {
    uint64_t n = o.buckets_[i].load(std::memory_order_relaxed);
    buckets_[i].store(n, std::memory_order_relaxed);
    total += n;
  }
  count_.store(total, std::memory_order_relaxed);
  sum_.store(o.sum(), std::memory_order_relaxed);
  max_.store(o.max(), std::memory_order_relaxed);
}

uint64_t Histogram::BucketUpperBound(int index) {
  if (index < kSubCount) return static_cast<uint64_t>(index);
  if (index >= kBuckets - 1) return kMaxTracked;
  int rel = index - kSubCount;
  int exp = kSubBits + rel / kSubCount;
  int sub = rel % kSubCount;
  uint64_t width = uint64_t{1} << (exp - kSubBits);
  uint64_t lower = (uint64_t{1} << exp) +
                   static_cast<uint64_t>(sub) * width;
  return lower + width - 1;
}

uint64_t Histogram::Quantile(double q) const {
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  // Walk a bucket snapshot: with concurrent writers the walked total can
  // differ from count(), so the rank target is computed from the walked
  // total itself for a self-consistent answer.
  uint64_t cells[kBuckets];
  uint64_t total = 0;
  for (int i = 0; i < kBuckets; ++i) {
    cells[i] = buckets_[i].load(std::memory_order_relaxed);
    total += cells[i];
  }
  if (total == 0) return 0;
  // Rank of the q-quantile in a sorted sample of `total` values, 1-based:
  // ceil(q * total), clamped to [1, total] (q=0 -> the minimum).
  uint64_t target = static_cast<uint64_t>(q * static_cast<double>(total));
  if (static_cast<double>(target) < q * static_cast<double>(total)) ++target;
  if (target == 0) target = 1;
  if (target > total) target = total;
  uint64_t cumulative = 0;
  for (int i = 0; i < kBuckets; ++i) {
    cumulative += cells[i];
    if (cumulative >= target) return BucketUpperBound(i);
  }
  return kMaxTracked;  // unreachable: total > 0 covers the loop
}

std::string Histogram::ToString() const {
  std::ostringstream os;
  os << "count=" << count() << " p50=" << P50() << " p90=" << P90()
     << " p99=" << P99() << " max=" << max();
  if (overflow() != 0) os << " overflow=" << overflow();
  return os.str();
}

}  // namespace jisc
