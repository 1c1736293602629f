// Seeded violation [unguarded-mutex]: a class holds a Mutex but names no
// field it guards, so -Wthread-safety checks nothing.
#include "../fixture_support.h"

namespace fix {

class UnguardedCache {
  Mutex mu_;
  int hits_ = 0;
};

}  // namespace fix
