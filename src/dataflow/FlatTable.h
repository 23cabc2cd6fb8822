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
/// FlatTable<V> is a uint64_t-keyed map on top of it (the tabulation and
/// transfer memos); StateInterner uses SlotIndex directly, keyed by the
/// client's state hash.
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

} // namespace dataflow
} // namespace optabs

#endif // OPTABS_DATAFLOW_FLATTABLE_H
