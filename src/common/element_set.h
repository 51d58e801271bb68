// ElementSet: a dynamic bitset over a fixed universe {0, ..., n-1}.
//
// Used as the set representation throughout the submodular-maximization and
// MQO code. Word-packed, value-semantic, and hashable so sets can key caches
// of cost-function evaluations.

#ifndef MQO_COMMON_ELEMENT_SET_H_
#define MQO_COMMON_ELEMENT_SET_H_

#include <cassert>
#include <cstdint>
#include <string>
#include <vector>

namespace mqo {

/// A subset of the universe {0, ..., universe_size-1}, stored as packed bits.
class ElementSet {
 public:
  ElementSet() : n_(0) {}

  /// Creates an empty subset of a universe with `universe_size` elements.
  explicit ElementSet(int universe_size)
      : n_(universe_size), words_((universe_size + 63) / 64, 0) {}

  /// Creates a subset of {0..universe_size-1} containing `members`.
  ElementSet(int universe_size, std::initializer_list<int> members)
      : ElementSet(universe_size) {
    for (int e : members) Add(e);
  }

  /// The full universe {0..universe_size-1}.
  static ElementSet Full(int universe_size) {
    ElementSet s(universe_size);
    for (auto& w : s.words_) w = ~uint64_t{0};
    s.ClearPadding();
    return s;
  }

  int universe_size() const { return n_; }

  bool Contains(int e) const {
    assert(e >= 0 && e < n_);
    return (words_[e >> 6] >> (e & 63)) & 1;
  }

  void Add(int e) {
    assert(e >= 0 && e < n_);
    words_[e >> 6] |= uint64_t{1} << (e & 63);
  }

  void Remove(int e) {
    assert(e >= 0 && e < n_);
    words_[e >> 6] &= ~(uint64_t{1} << (e & 63));
  }

  /// Number of elements in the set.
  int Size() const {
    int count = 0;
    for (uint64_t w : words_) count += __builtin_popcountll(w);
    return count;
  }

  bool Empty() const {
    for (uint64_t w : words_) {
      if (w != 0) return false;
    }
    return true;
  }

  /// Returns a copy with `e` added.
  ElementSet With(int e) const {
    ElementSet s = *this;
    s.Add(e);
    return s;
  }

  /// Returns a copy with `e` removed.
  ElementSet Without(int e) const {
    ElementSet s = *this;
    s.Remove(e);
    return s;
  }

  /// True iff this set is a subset of `other` (same universe required).
  bool IsSubsetOf(const ElementSet& other) const {
    assert(n_ == other.n_);
    for (size_t i = 0; i < words_.size(); ++i) {
      if (words_[i] & ~other.words_[i]) return false;
    }
    return true;
  }

  ElementSet Union(const ElementSet& other) const {
    assert(n_ == other.n_);
    ElementSet s = *this;
    for (size_t i = 0; i < words_.size(); ++i) s.words_[i] |= other.words_[i];
    return s;
  }

  ElementSet Intersect(const ElementSet& other) const {
    assert(n_ == other.n_);
    ElementSet s = *this;
    for (size_t i = 0; i < words_.size(); ++i) s.words_[i] &= other.words_[i];
    return s;
  }

  ElementSet Difference(const ElementSet& other) const {
    assert(n_ == other.n_);
    ElementSet s = *this;
    for (size_t i = 0; i < words_.size(); ++i) s.words_[i] &= ~other.words_[i];
    return s;
  }

  /// Calls `fn(e)` for every element, in ascending order.
  template <typename Fn>
  void ForEach(Fn fn) const {
    for (size_t wi = 0; wi < words_.size(); ++wi) {
      for (uint64_t w = words_[wi]; w != 0; w &= w - 1) {
        fn(static_cast<int>(wi) * 64 + __builtin_ctzll(w));
      }
    }
  }

  /// The one element in exactly one of this set and `other` (same universe
  /// required), or -1 when they differ in no element or in several.
  int OnlyDifference(const ElementSet& other) const {
    assert(n_ == other.n_);
    int found = -1;
    for (size_t i = 0; i < words_.size(); ++i) {
      const uint64_t x = words_[i] ^ other.words_[i];
      if (x == 0) continue;
      if (found >= 0 || (x & (x - 1)) != 0) return -1;
      found = static_cast<int>(i) * 64 + __builtin_ctzll(x);
    }
    return found;
  }

  /// Elements in ascending order.
  std::vector<int> ToVector() const;

  /// "{1, 4, 7}".
  std::string ToString() const;

  uint64_t Hash() const {
    uint64_t h = 1469598103934665603ull ^ static_cast<uint64_t>(n_);
    for (uint64_t w : words_) {
      h ^= w;
      h *= 1099511628211ull;
    }
    return h;
  }

  bool operator==(const ElementSet& other) const {
    return n_ == other.n_ && words_ == other.words_;
  }
  bool operator!=(const ElementSet& other) const { return !(*this == other); }

 private:
  void ClearPadding() {
    int rem = n_ & 63;
    if (rem != 0 && !words_.empty()) {
      words_.back() &= (uint64_t{1} << rem) - 1;
    }
  }

  int n_;
  std::vector<uint64_t> words_;
};

/// Hash functor for using ElementSet as an unordered_map key.
struct ElementSetHash {
  size_t operator()(const ElementSet& s) const {
    return static_cast<size_t>(s.Hash());
  }
};

}  // namespace mqo

#endif  // MQO_COMMON_ELEMENT_SET_H_
