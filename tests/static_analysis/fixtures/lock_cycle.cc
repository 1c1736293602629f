// Seeded violation [lock-order]: two functions acquire the same pair of
// locks in opposite orders — the static acquisition graph has the cycle
// a_ -> b_ -> a_.
#include "fixture_support.h"

namespace fix {

class LockCyclePair {
 public:
  void Forward() {
    MutexLock lk(&a_);
    MutexLock lk2(&b_);
    ++n_;
  }

  void Backward() {
    MutexLock lk(&b_);
    MutexLock lk2(&a_);
    --n_;
  }

 private:
  Mutex a_;
  Mutex b_;
  int n_ JISC_GUARDED_BY(a_) = 0;
};

}  // namespace fix
