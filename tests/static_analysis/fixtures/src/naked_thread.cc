// Seeded violation [naked-thread]: a src/ file outside the parallel engine
// constructs its own std::thread instead of routing work through
// ParallelExecutor.
#include <thread>

namespace fix {

void NakedThreadSpawn() {
  std::thread t([] {});
  t.join();
}

}  // namespace fix
