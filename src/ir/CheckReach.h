//===- CheckReach.h - Which statements can reach which checks --*- C++ -*-===//
//
// Part of the optabs project, a reproduction of "Finding Optimum
// Abstractions in Parametric Dataflow Analysis" (PLDI 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// For every statement and check site, one bit: can executing the
/// statement run the site's Check command, directly or through an Invoke?
/// Computed once per program, next to the liveness table, and shared by
/// every forward run over it. The witness search (dataflow/Forward.h)
/// reads it to skip subtrees that cannot end at the check it is looking
/// for: such a search never succeeds, so skipping it changes no trace.
///
/// A statement reaches check c when it is c's Check atom, when one of its
/// children reaches c, or when it invokes a procedure whose body reaches
/// c. Recursion makes this a fixpoint; statements are pooled
/// children-before-parents, so ascending sweeps settle it quickly.
///
//===----------------------------------------------------------------------===//

#ifndef OPTABS_IR_CHECKREACH_H
#define OPTABS_IR_CHECKREACH_H

#include "ir/Program.h"

#include <cstdint>
#include <vector>

namespace optabs {
namespace ir {

/// Statement-to-check reachability for one program. Immutable after
/// construction; safe to share across threads.
class CheckReach {
public:
  explicit CheckReach(const Program &P);

  /// True when some execution of \p S runs check site \p C's command.
  bool reaches(StmtId S, CheckId C) const {
    assert(S.index() < NumStmts && C.index() < NumChecks);
    return (Bits[size_t(S.index()) * Stride + C.index() / 64] >>
            (C.index() % 64)) &
           1;
  }

private:
  uint32_t NumStmts = 0;
  uint32_t NumChecks = 0;
  size_t Stride = 0; ///< 64-bit words per statement row
  std::vector<uint64_t> Bits;
};

} // namespace ir
} // namespace optabs

#endif // OPTABS_IR_CHECKREACH_H
