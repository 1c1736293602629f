#ifndef JISC_TYPES_TUPLE_H_
#define JISC_TYPES_TUPLE_H_

#include <cstddef>
#include <cstdint>
#include <new>
#include <string>
#include <vector>

#include "common/hash.h"
#include "common/logging.h"

namespace jisc {

// Identifies one input stream. The engine supports up to kMaxStreams streams
// per query (StreamSet is a 64-bit mask).
using StreamId = uint16_t;
inline constexpr int kMaxStreams = 64;

// The equi-join attribute value (the paper's "ID").
using JoinKey = int64_t;

// Globally unique arrival sequence number of a base tuple. Doubles as the
// tuple's identity for combination dedup and expiry.
using Seq = uint64_t;

// Global event stamp. Every external event (arrival, transition) gets one;
// all messages of that event's cascade carry it. State visibility is defined
// in terms of stamps, which makes the output independent of queue scheduling.
using Stamp = uint64_t;
inline constexpr Stamp kStampInfinity = ~0ULL;

// One tuple as produced by a source stream.
struct BaseTuple {
  StreamId stream = 0;
  JoinKey key = 0;
  int64_t payload = 0;
  Seq seq = 0;
  // Event time, used by time-based sliding windows (count-based windows
  // ignore it). Sources assign non-decreasing values.
  uint64_t ts = 0;

  friend bool operator==(const BaseTuple& a, const BaseTuple& b) {
    return a.seq == b.seq;
  }
};

// An immutable set of streams, the identity of an operator state ("RS",
// "RST", ...). Backed by a 64-bit mask.
class StreamSet {
 public:
  constexpr StreamSet() : bits_(0) {}
  constexpr explicit StreamSet(uint64_t bits) : bits_(bits) {}

  static StreamSet Single(StreamId s) {
    JISC_DCHECK(s < kMaxStreams);
    return StreamSet(1ULL << s);
  }

  static StreamSet Union(StreamSet a, StreamSet b) {
    return StreamSet(a.bits_ | b.bits_);
  }

  bool Contains(StreamId s) const { return (bits_ >> s) & 1ULL; }
  bool ContainsAll(StreamSet other) const {
    return (bits_ & other.bits_) == other.bits_;
  }
  bool Intersects(StreamSet other) const { return (bits_ & other.bits_) != 0; }
  bool empty() const { return bits_ == 0; }
  int size() const { return __builtin_popcountll(bits_); }
  uint64_t bits() const { return bits_; }

  // Streams in ascending id order.
  std::vector<StreamId> ToVector() const;

  // e.g. "{S0,S2,S5}".
  std::string ToString() const;

  friend bool operator==(StreamSet a, StreamSet b) {
    return a.bits_ == b.bits_;
  }
  friend bool operator<(StreamSet a, StreamSet b) { return a.bits_ < b.bits_; }

 private:
  uint64_t bits_;
};

struct StreamSetHash {
  size_t operator()(StreamSet s) const {
    return static_cast<size_t>(MixU64(s.bits()));
  }
};

// A tuple flowing through the pipeline: either a single base tuple or a join
// combination of several. Parts are kept sorted by stream id so that two
// combinations with the same base tuples compare equal regardless of the
// join order that produced them.
//
// Storage: up to kInlineParts parts live inside the object, so building a
// combination of up to four streams (FromBase, Concat) allocates nothing;
// wider combinations spill their parts to one heap array.
class Tuple {
 public:
  static constexpr size_t kInlineParts = 4;

  // Read-only contiguous view of a combination's parts, valid while the
  // tuple it came from is alive and unmodified.
  class Parts {
   public:
    Parts(const BaseTuple* data, size_t size) : data_(data), size_(size) {}
    const BaseTuple* begin() const { return data_; }
    const BaseTuple* end() const { return data_ + size_; }
    const BaseTuple* data() const { return data_; }
    size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }
    const BaseTuple& front() const { return data_[0]; }
    const BaseTuple& operator[](size_t i) const { return data_[i]; }

   private:
    const BaseTuple* data_;
    size_t size_;
  };

  Tuple() = default;
  Tuple(const Tuple& other);
  Tuple(Tuple&& other) noexcept;
  Tuple& operator=(const Tuple& other);
  Tuple& operator=(Tuple&& other) noexcept;
  ~Tuple() { Release(); }

  static Tuple FromBase(const BaseTuple& base, Stamp birth, bool fresh);

  // Joins two combinations over disjoint stream sets.
  // Freshness of the result: a combination is fresh iff the tuple that
  // drove its creation was fresh (callers pass it explicitly).
  static Tuple Concat(const Tuple& a, const Tuple& b, Stamp birth, bool fresh);

  // Rebuilds a combination from its base parts (checkpoint restore). Parts
  // must come from distinct streams; they are sorted internally.
  static Tuple FromParts(std::vector<BaseTuple> parts, Stamp birth);

  // Overwrites this tuple with `n` parts already sorted by distinct stream
  // ids (a state record's parts), reusing its storage. Not fresh. Inline:
  // state scans rebuild every entry they visit through it.
  void AssignSorted(const BaseTuple* parts, size_t n, Stamp birth) {
    BaseTuple* dst;
    if (n <= kInlineParts && !spilled()) {
      size_ = static_cast<uint32_t>(n);
      dst = std::launder(reinterpret_cast<BaseTuple*>(inline_));
    } else {
      dst = Resize(n);
    }
    uint64_t bits = 0;
    for (size_t i = 0; i < n; ++i) {
      dst[i] = parts[i];
      bits |= 1ULL << parts[i].stream;
    }
    streams_ = StreamSet(bits);
    key_ = n == 0 ? 0 : parts[0].key;
    birth_ = birth;
    fresh_ = false;
  }

  Parts parts() const { return Parts(data(), size_); }
  StreamSet streams() const { return streams_; }
  // The shared equi-join attribute value. For equi-join plans every part
  // carries the same key; for theta plans this is the key of the first part
  // (unused by the nested-loops path).
  JoinKey key() const { return key_; }
  Stamp birth() const { return birth_; }
  bool fresh() const { return fresh_; }
  void set_fresh(bool fresh) { fresh_ = fresh; }
  void set_birth(Stamp birth) { birth_ = birth; }

  bool ContainsSeq(Seq seq) const;

  // Identity of the combination: hash over the ordered part sequence
  // numbers. Used for duplicate elimination (Parallel Track sink, JISC
  // completion dedup, reference comparison).
  uint64_t IdentityHash() const;

  // Total order / equality on identity (part seqs in stream order).
  friend bool operator==(const Tuple& a, const Tuple& b);

  std::string ToString() const;

 private:
  bool spilled() const { return size_ > kInlineParts; }
  const BaseTuple* data() const {
    return spilled()
               ? heap_
               : std::launder(reinterpret_cast<const BaseTuple*>(inline_));
  }
  // Makes room for `n` parts (contents unspecified), keeping a spilled
  // array only if it has exactly that size; sets size_ to n.
  BaseTuple* Resize(size_t n);
  void Release();

  union {
    alignas(BaseTuple) unsigned char inline_[kInlineParts * sizeof(BaseTuple)];
    BaseTuple* heap_;  // when size_ > kInlineParts
  };
  uint32_t size_ = 0;
  bool fresh_ = true;
  StreamSet streams_;
  JoinKey key_ = 0;
  Stamp birth_ = 0;
};

struct TupleIdentityHash {
  size_t operator()(const Tuple& t) const {
    return static_cast<size_t>(t.IdentityHash());
  }
};

}  // namespace jisc

#endif  // JISC_TYPES_TUPLE_H_
