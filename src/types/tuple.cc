#include "types/tuple.h"

#include <algorithm>
#include <cstring>
#include <sstream>

namespace jisc {

std::vector<StreamId> StreamSet::ToVector() const {
  std::vector<StreamId> out;
  uint64_t b = bits_;
  while (b != 0) {
    int s = __builtin_ctzll(b);
    out.push_back(static_cast<StreamId>(s));
    b &= b - 1;
  }
  return out;
}

std::string StreamSet::ToString() const {
  std::ostringstream os;
  os << "{";
  bool first = true;
  for (StreamId s : ToVector()) {
    if (!first) os << ",";
    os << "S" << s;
    first = false;
  }
  os << "}";
  return os.str();
}

// Members start empty (size_ 0, inline), so construction is assignment.
Tuple::Tuple(const Tuple& other) { *this = other; }

Tuple::Tuple(Tuple&& other) noexcept { *this = std::move(other); }

Tuple& Tuple::operator=(const Tuple& other) {
  if (this == &other) return *this;
  std::memcpy(Resize(other.size_), other.data(),
              other.size_ * sizeof(BaseTuple));
  fresh_ = other.fresh_;
  streams_ = other.streams_;
  key_ = other.key_;
  birth_ = other.birth_;
  return *this;
}

Tuple& Tuple::operator=(Tuple&& other) noexcept {
  // Inline parts are copied (no allocation); a spilled array changes owner.
  if (this == &other || !other.spilled()) return *this = other;
  Release();
  heap_ = other.heap_;
  size_ = other.size_;
  other.size_ = 0;
  fresh_ = other.fresh_;
  streams_ = other.streams_;
  key_ = other.key_;
  birth_ = other.birth_;
  return *this;
}

void Tuple::Release() {
  if (spilled()) delete[] heap_;
  size_ = 0;
}

BaseTuple* Tuple::Resize(size_t n) {
  if (n > kInlineParts) {
    if (size_ != n) {
      Release();
      heap_ = new BaseTuple[n];
      size_ = static_cast<uint32_t>(n);
    }
    return heap_;
  }
  Release();
  size_ = static_cast<uint32_t>(n);
  return reinterpret_cast<BaseTuple*>(inline_);
}

Tuple Tuple::FromBase(const BaseTuple& base, Stamp birth, bool fresh) {
  Tuple t;
  *t.Resize(1) = base;
  t.streams_ = StreamSet::Single(base.stream);
  t.key_ = base.key;
  t.birth_ = birth;
  t.fresh_ = fresh;
  return t;
}

Tuple Tuple::Concat(const Tuple& a, const Tuple& b, Stamp birth, bool fresh) {
  JISC_DCHECK(!a.streams_.Intersects(b.streams_));
  Tuple t;
  // Merge the two part lists, both already sorted by stream id.
  const Parts ap = a.parts();
  const Parts bp = b.parts();
  std::merge(ap.begin(), ap.end(), bp.begin(), bp.end(),
             t.Resize(ap.size() + bp.size()),
             [](const BaseTuple& x, const BaseTuple& y) {
               return x.stream < y.stream;
             });
  t.streams_ = StreamSet::Union(a.streams_, b.streams_);
  t.key_ = t.data()[0].key;
  t.birth_ = birth;
  t.fresh_ = fresh;
  return t;
}

Tuple Tuple::FromParts(std::vector<BaseTuple> parts, Stamp birth) {
  JISC_CHECK(!parts.empty());
  std::sort(parts.begin(), parts.end(),
            [](const BaseTuple& a, const BaseTuple& b) {
              return a.stream < b.stream;
            });
  for (size_t i = 1; i < parts.size(); ++i) {
    JISC_CHECK(parts[i - 1].stream != parts[i].stream);
  }
  Tuple t;
  t.AssignSorted(parts.data(), parts.size(), birth);
  return t;
}

bool Tuple::ContainsSeq(Seq seq) const {
  for (const auto& p : parts()) {
    if (p.seq == seq) return true;
  }
  return false;
}

uint64_t Tuple::IdentityHash() const {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (const auto& p : parts()) h = HashCombine(h, p.seq);
  return h;
}

bool operator==(const Tuple& a, const Tuple& b) {
  if (a.size_ != b.size_) return false;
  const BaseTuple* ap = a.data();
  const BaseTuple* bp = b.data();
  for (size_t i = 0; i < a.size_; ++i) {
    if (ap[i].seq != bp[i].seq) return false;
  }
  return true;
}

std::string Tuple::ToString() const {
  std::ostringstream os;
  os << "[";
  bool first = true;
  for (const auto& p : parts()) {
    if (!first) os << " ";
    os << "S" << p.stream << "#" << p.seq << "(k=" << p.key << ")";
    first = false;
  }
  os << "]";
  return os.str();
}

}  // namespace jisc
