// Seeded violation [determinism]: iteration over the open-addressing
// FlatMap, whose slot order is hash order, feeding deterministically-
// serialized bytes — the shape of OperatorState's bucket walk.
#include "fixture_support.h"

namespace fix {

class DetFlatMapState {
 public:
  void Export(ByteWriter& w) const {
    for (const auto& [key, count] : buckets_) {
      w.PutU64(static_cast<uint64_t>(key));
      w.PutU64(static_cast<uint64_t>(count));
    }
  }

 private:
  FlatMap<int> buckets_;
};

std::string SerializeDeterministic(const DetFlatMapState& st) {
  ByteWriter w;
  st.Export(w);
  return w.Take();
}

}  // namespace fix
