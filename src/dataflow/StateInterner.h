//===- StateInterner.h - Hash-consing of abstract states -------*- C++ -*-===//
//
// Part of the optabs project, a reproduction of "Finding Optimum
// Abstractions in Parametric Dataflow Analysis" (PLDI 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Interns abstract states to dense 32-bit ids so the disjunctive forward
/// analysis can represent sets of states as sorted id vectors and compare
/// states by id.
///
//===----------------------------------------------------------------------===//

#ifndef OPTABS_DATAFLOW_STATEINTERNER_H
#define OPTABS_DATAFLOW_STATEINTERNER_H

#include "dataflow/FlatTable.h"

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

namespace optabs {
namespace dataflow {

/// A dense id for an interned abstract state.
using StateId = uint32_t;

/// Hash-consing table: State -> StateId and back. States must be
/// equality-comparable; \p HashT hashes them. States holds the only copy
/// of each state; the index files ids under their state's hash, so finding
/// an existing state allocates nothing. Ids are dense and in first-intern
/// order.
template <typename State, typename HashT> class StateInterner {
public:
  StateId intern(const State &S) {
    auto [Id, Inserted] = Index.insert(
        Hash(S), static_cast<StateId>(States.size()),
        [&](StateId I) { return States[I] == S; },
        [&](StateId I) { return Hash(States[I]); });
    if (Inserted)
      States.push_back(S);
    return Id;
  }

  /// The id of \p S when it was interned, without interning it.
  std::optional<StateId> find(const State &S) const {
    StateId Id =
        Index.find(Hash(S), [&](StateId I) { return States[I] == S; });
    if (Id == SlotIndex::None)
      return std::nullopt;
    return Id;
  }

  const State &state(StateId Id) const {
    assert(Id < States.size());
    return States[Id];
  }

  size_t size() const { return States.size(); }

  /// Approximate heap footprint of the interned states: the single copy of
  /// each state in States plus one 32-bit index slot per slot. A footprint
  /// estimate for the cache resident-bytes gauge, not an exact accounting.
  size_t approxBytes() const {
    return States.capacity() * sizeof(State) + Index.approxBytes();
  }

private:
  std::vector<State> States;
  SlotIndex Index;
  [[no_unique_address]] HashT Hash;
};

} // namespace dataflow
} // namespace optabs

#endif // OPTABS_DATAFLOW_STATEINTERNER_H
