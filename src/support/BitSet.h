//===- BitSet.h - Dense dynamic bitset -------------------------*- C++ -*-===//
//
// Part of the optabs project, a reproduction of "Finding Optimum
// Abstractions in Parametric Dataflow Analysis" (PLDI 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A fixed-universe dense bitset with the handful of operations the
/// points-to fixpoint and the abstraction representations need: set/test,
/// union-with (reporting change), population count, and iteration.
///
//===----------------------------------------------------------------------===//

#ifndef OPTABS_SUPPORT_BITSET_H
#define OPTABS_SUPPORT_BITSET_H

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace optabs {

/// Dense bitset over the universe [0, size()).
class BitSet {
public:
  BitSet() = default;
  explicit BitSet(size_t Universe) : NumBits(Universe) {
    Words.resize((Universe + 63) / 64, 0);
  }

  size_t size() const { return NumBits; }

  bool test(size_t I) const {
    assert(I < NumBits);
    return (Words[I >> 6] >> (I & 63)) & 1;
  }

  /// Bits [64 * WI, 64 * WI + 64) as one word, bit I of the set at bit
  /// I % 64. Bits at or beyond size() read as zero.
  uint64_t word(size_t WI) const {
    assert(WI < Words.size());
    return Words[WI];
  }

  void set(size_t I) {
    assert(I < NumBits);
    Words[I >> 6] |= uint64_t(1) << (I & 63);
  }

  void reset(size_t I) {
    assert(I < NumBits);
    Words[I >> 6] &= ~(uint64_t(1) << (I & 63));
  }

  void clear() {
    for (uint64_t &W : Words)
      W = 0;
  }

  /// this |= Other; returns true if any bit changed.
  bool unionWith(const BitSet &Other) {
    assert(NumBits == Other.NumBits && "universe mismatch");
    bool Changed = false;
    for (size_t I = 0; I < Words.size(); ++I) {
      uint64_t Merged = Words[I] | Other.Words[I];
      Changed |= Merged != Words[I];
      Words[I] = Merged;
    }
    return Changed;
  }

  bool any() const {
    for (uint64_t W : Words)
      if (W)
        return true;
    return false;
  }

  size_t count() const {
    size_t N = 0;
    for (uint64_t W : Words)
      N += static_cast<size_t>(__builtin_popcountll(W));
    return N;
  }

  /// Calls \p Fn(index) for every set bit, in increasing order.
  template <typename FnT> void forEach(FnT Fn) const {
    for (size_t WI = 0; WI < Words.size(); ++WI) {
      uint64_t W = Words[WI];
      while (W) {
        unsigned Bit = static_cast<unsigned>(__builtin_ctzll(W));
        Fn(WI * 64 + Bit);
        W &= W - 1;
      }
    }
  }

  friend bool operator==(const BitSet &A, const BitSet &B) {
    return A.NumBits == B.NumBits && A.Words == B.Words;
  }

private:
  size_t NumBits = 0;
  std::vector<uint64_t> Words;
};

} // namespace optabs

#endif // OPTABS_SUPPORT_BITSET_H
