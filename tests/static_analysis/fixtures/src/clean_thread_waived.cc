// Clean near-miss [naked-thread]: the same std::thread, carrying a
// per-site waiver with a reason — reported as waived, not as a finding.
#include <thread>

namespace fix {

void WaivedThreadSpawn() {
  // jisc-verify: allow(naked-thread) — fixture: an owned monitoring thread
  std::thread t([] {});
  t.join();
}

}  // namespace fix
