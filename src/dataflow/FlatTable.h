//===- FlatTable.h - Open-addressing tables of 32-bit ids ------*- C++ -*-===//
//
// Part of the optabs project, a reproduction of "Finding Optimum
// Abstractions in Parametric Dataflow Analysis" (PLDI 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The forward engine's lookup tables. SlotIndex is a power-of-two array
/// of 32-bit entry ids probed linearly; the owner keeps the entries
/// themselves densely, in insertion order, and answers equality through a
/// callback, so a slot costs four bytes whatever the entry type.
/// FlatTable<V> is a uint64_t-keyed map on top of it (the tabulation);
/// StateInterner uses SlotIndex directly, keyed by the client's state
/// hash. TripleSet is the witness search's cycle check: a set of
/// statement/state triples with erase, reused across searches.
///
//===----------------------------------------------------------------------===//

#ifndef OPTABS_DATAFLOW_FLATTABLE_H
#define OPTABS_DATAFLOW_FLATTABLE_H

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace optabs {
namespace dataflow {

/// Open-addressed index of dense entry ids [0, Count). Holds at most half
/// as many ids as slots, so probes stay short.
class SlotIndex {
public:
  static constexpr uint32_t None = ~uint32_t(0);

  /// The id whose entry satisfies \p Eq among those filed under \p Hash,
  /// or None.
  template <typename EqFn> uint32_t find(uint64_t Hash, EqFn Eq) const {
    if (Slots.empty())
      return None;
    for (size_t I = mix(Hash) & mask();; I = (I + 1) & mask()) {
      uint32_t Id = Slots[I];
      if (Id == None || Eq(Id))
        return Id;
    }
  }

  /// Like find(), but on a miss files \p Count (the next dense id) under
  /// \p Hash and returns {Count, true}. \p HashOf(Id) rehashes existing
  /// entries when the index grows.
  template <typename EqFn, typename HashOfFn>
  std::pair<uint32_t, bool> insert(uint64_t Hash, uint32_t Count, EqFn Eq,
                                   HashOfFn HashOf) {
    if (!Slots.empty()) {
      size_t I = mix(Hash) & mask();
      for (; Slots[I] != None; I = (I + 1) & mask())
        if (Eq(Slots[I]))
          return {Slots[I], false};
      if (2 * (size_t(Count) + 1) <= Slots.size()) {
        Slots[I] = Count;
        return {Count, true};
      }
    }
    // Full (or never allocated): double and refile every id, then the new.
    std::vector<uint32_t> Grown(Slots.empty() ? 16 : 2 * Slots.size(), None);
    Slots.swap(Grown);
    for (uint32_t Id = 0; Id < Count; ++Id)
      Slots[emptySlotFor(HashOf(Id))] = Id;
    Slots[emptySlotFor(Hash)] = Count;
    return {Count, true};
  }

  /// Heap bytes of the slot array.
  size_t approxBytes() const { return Slots.capacity() * sizeof(uint32_t); }

private:
  size_t mask() const { return Slots.size() - 1; }

  /// Finalizer of MurmurHash3: client hashes need not mix their low bits.
  static uint64_t mix(uint64_t H) {
    H ^= H >> 33;
    H *= 0xff51afd7ed558ccdULL;
    return H ^ (H >> 33);
  }

  size_t emptySlotFor(uint64_t Hash) const {
    size_t I = mix(Hash) & mask();
    while (Slots[I] != None)
      I = (I + 1) & mask();
    return I;
  }

  std::vector<uint32_t> Slots;
};

/// A uint64_t-keyed map whose values sit densely in insertion order. An
/// insert may move every value: references and pointers into the table
/// stay valid only until the next insert, while dense indices are stable.
template <typename V> class FlatTable {
public:
  using Key = uint64_t;
  struct Entry {
    Key K;
    V Value;
  };

  const V *find(Key K) const {
    uint32_t Id = Index.find(K, [&](uint32_t I) { return Entries[I].K == K; });
    return Id == SlotIndex::None ? nullptr : &Entries[Id].Value;
  }

  /// The dense index of \p K's entry, adding \p Value under \p K when \p K
  /// is new (an existing entry keeps its value); the flag says whether it
  /// was added.
  std::pair<uint32_t, bool> insert(Key K, V Value = V{}) {
    auto Result = Index.insert(
        K, static_cast<uint32_t>(Entries.size()),
        [&](uint32_t I) { return Entries[I].K == K; },
        [&](uint32_t I) { return Entries[I].K; });
    if (Result.second)
      Entries.push_back({K, std::move(Value)});
    return Result;
  }

  V &at(uint32_t Idx) { return Entries[Idx].Value; }
  size_t size() const { return Entries.size(); }
  /// Every entry, in insertion order.
  const std::vector<Entry> &entries() const { return Entries; }

  /// Heap bytes of the entry array and the index (not of what the values
  /// own themselves).
  size_t approxBytes() const {
    return Entries.capacity() * sizeof(Entry) + Index.approxBytes();
  }

private:
  std::vector<Entry> Entries;
  SlotIndex Index;
};

/// A set of (uint32_t, uint32_t, uint32_t) triples that supports erase:
/// linear probing with backward-shift deletion, so no tombstones pile up.
/// clear() keeps the slot array, so a set reused across searches stops
/// allocating once it has reached its largest size. A first component of
/// ~0u is reserved to mark empty slots.
class TripleSet {
public:
  /// Adds (A, B, C); false when it was already present.
  bool insert(uint32_t A, uint32_t B, uint32_t C) {
    if (2 * (Count + 1) > Slots.size())
      grow();
    size_t I = home(A, B, C);
    for (; Slots[I].A != Empty; I = next(I))
      if (Slots[I].A == A && Slots[I].B == B && Slots[I].C == C)
        return false;
    Slots[I] = {A, B, C};
    ++Count;
    return true;
  }

  /// Removes (A, B, C), which must be present.
  void erase(uint32_t A, uint32_t B, uint32_t C) {
    size_t I = home(A, B, C);
    while (!(Slots[I].A == A && Slots[I].B == B && Slots[I].C == C))
      I = next(I);
    // Shift later members of the probe run back into the hole, each only
    // when the hole lies between its home slot and where it sits now.
    for (size_t J = next(I); Slots[J].A != Empty; J = next(J)) {
      size_t Home = home(Slots[J].A, Slots[J].B, Slots[J].C);
      if (((J - Home) & mask()) >= ((J - I) & mask())) {
        Slots[I] = Slots[J];
        I = J;
      }
    }
    Slots[I].A = Empty;
    --Count;
  }

  size_t size() const { return Count; }

  void clear() {
    if (Count == 0)
      return;
    for (Slot &S : Slots)
      S.A = Empty;
    Count = 0;
  }

private:
  static constexpr uint32_t Empty = ~uint32_t(0);
  struct Slot {
    uint32_t A = Empty, B = 0, C = 0;
  };

  size_t mask() const { return Slots.size() - 1; }
  size_t next(size_t I) const { return (I + 1) & mask(); }
  size_t home(uint32_t A, uint32_t B, uint32_t C) const {
    uint64_t X = ((uint64_t(A) << 32) | B) * 0x9e3779b97f4a7c15ULL;
    X ^= (uint64_t(C) + (X >> 29)) * 0xff51afd7ed558ccdULL;
    return static_cast<size_t>(X ^ (X >> 32)) & mask();
  }

  void grow() {
    std::vector<Slot> Old(Slots.empty() ? 16 : 2 * Slots.size());
    Old.swap(Slots);
    for (const Slot &S : Old) {
      if (S.A == Empty)
        continue;
      size_t I = home(S.A, S.B, S.C);
      while (Slots[I].A != Empty)
        I = next(I);
      Slots[I] = S;
    }
  }

  std::vector<Slot> Slots;
  size_t Count = 0;
};

} // namespace dataflow
} // namespace optabs

#endif // OPTABS_DATAFLOW_FLATTABLE_H
