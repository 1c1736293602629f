// Seeded violation [coordinator-only]: a worker loop calls a
// JISC_COORDINATOR_ONLY method directly — the single-hop case, kept
// alongside the transitive one in coord_transitive.cc.
#include "fixture_support.h"

namespace fix {

class CoordDirectExec {
 public:
  JISC_COORDINATOR_ONLY void Barrier() {}

  void WorkerLoop(int shard) {
    (void)shard;
    Barrier();
  }
};

}  // namespace fix
