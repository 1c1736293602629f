// Seeded violation [lock-order]: the reverse edge hides behind a call —
// Publish holds p_ and calls a helper that takes q_, while Drain holds q_
// and calls a helper that takes p_. Only interprocedural edge extraction
// sees the cycle.
#include "fixture_support.h"

namespace fix {

class LockCycleInterproc {
 public:
  void Publish() {
    MutexLock lk(&p_);
    InterprocTouchQ();
  }

  void Drain() {
    MutexLock lk(&q_);
    InterprocTouchP();
  }

 private:
  void InterprocTouchQ() {
    MutexLock lk(&q_);
    ++nq_;
  }
  void InterprocTouchP() {
    MutexLock lk(&p_);
    ++np_;
  }

  Mutex p_;
  Mutex q_;
  int np_ JISC_GUARDED_BY(p_) = 0;
  int nq_ JISC_GUARDED_BY(q_) = 0;
};

}  // namespace fix
