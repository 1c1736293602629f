// Clean near-miss [unguarded-mutex]: each class holding a Mutex names the
// state it guards — a plain field (JISC_GUARDED_BY) or a pointee
// (JISC_PT_GUARDED_BY).
#include "../fixture_support.h"

namespace fix {

class GuardedCache {
  Mutex mu_;
  int hits_ JISC_GUARDED_BY(mu_) = 0;
};

class PtGuardedSink {
  Mutex mu_;
  Histogram* downstream_ JISC_PT_GUARDED_BY(mu_) = nullptr;
};

}  // namespace fix
