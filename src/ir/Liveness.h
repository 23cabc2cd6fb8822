//===- Liveness.h - Per-command live-variable sets -------------*- C++ -*-===//
//
// Part of the optabs project, a reproduction of "Finding Optimum
// Abstractions in Parametric Dataflow Analysis" (PLDI 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A classical backward live-variable analysis over the statement algebra,
/// computed once per program. The forward dataflow engine uses the result
/// to forget dead local variables from abstract states before interning
/// them (dataflow/Forward.h): states that differ only in dead variables
/// collapse to one interned id, shrinking the disjunctive state sets, the
/// tabulation, and every downstream trace.
///
/// The use/def table is the union over both client analyses (type-state,
/// thread-escape) of which variable components of the abstract state each
/// command reads and overwrites:
///
///   command        use                def
///   -------        ---                ---
///   assume         -                  -
///   new            -                  Dst
///   copy           Src                Dst
///   null           -                  Dst
///   load-global    -                  Dst
///   store-global   Src                -      (escape: every var may flip
///   load-field     Src (base)         Dst     to E via esc(), so nothing
///   store-field    Dst (base), Src    -       is treated as overwritten)
///   method-call    Dst (receiver)     -
///   check          Dst                -
///
/// Def must under-approximate "output independent of input" across every
/// client and parameter, so commands whose transfer can consult arbitrary
/// variables (the escape esc() closure on store-global/store-field) define
/// nothing. Globals, fields and type-state components are not variables and
/// are never pruned.
///
/// The fixpoint runs over the statement DAG: a statement shared by several
/// contexts accumulates the union of its contexts' live-out sets, and each
/// command's LiveOut is the union over all Atom occurrences - exactly the
/// "could any continuation still read v?" question pruning needs. Invoke
/// propagates live-out into the callee body and the body's live-in back to
/// the call site; Star feeds the body's live-in back into its own live-out.
///
//===----------------------------------------------------------------------===//

#ifndef OPTABS_IR_LIVENESS_H
#define OPTABS_IR_LIVENESS_H

#include "ir/Program.h"
#include "support/BitSet.h"

#include <vector>

namespace optabs {
namespace ir {

/// Per-command live-variable sets for one program. Immutable after
/// construction; safe to share across threads.
class CommandLiveness {
public:
  explicit CommandLiveness(const Program &P);

  /// Variables possibly read by some continuation after \p C executes, in
  /// any context in which \p C occurs. A variable outside this set may be
  /// soundly forgotten from the post-state of \p C.
  const BitSet &liveOut(CommandId C) const {
    assert(C.index() < CmdOut.size());
    return CmdOut[C.index()];
  }

  size_t numCommands() const { return CmdOut.size(); }

private:
  std::vector<BitSet> CmdOut;
};

} // namespace ir
} // namespace optabs

#endif // OPTABS_IR_LIVENESS_H
