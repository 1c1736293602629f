// Seeded violation [unguarded-mutex]: a raw std::mutex member is rejected
// even when a field names it — std::mutex carries no capability
// attributes, so the analysis cannot see through it.
#include <mutex>

#include "../fixture_support.h"

namespace fix {

class RawStdMutexCache {
  std::mutex mu_;
  int hits_ JISC_GUARDED_BY(mu_) = 0;
};

}  // namespace fix
