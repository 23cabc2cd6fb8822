//===- CheckReach.cpp - Which statements can reach which checks ----------===//

#include "ir/CheckReach.h"

namespace optabs {
namespace ir {

CheckReach::CheckReach(const Program &P)
    : NumStmts(P.numStmts()), NumChecks(P.numChecks()),
      Stride((size_t(P.numChecks()) + 63) / 64) {
  Bits.assign(size_t(NumStmts) * Stride, 0);
  auto Row = [&](uint32_t S) { return Bits.data() + size_t(S) * Stride; };
  // Ors row Src into row Dst; true when Dst gained a bit.
  auto Absorb = [&](uint32_t Dst, uint32_t Src) {
    uint64_t *D = Row(Dst);
    const uint64_t *S = Row(Src);
    bool Changed = false;
    for (size_t W = 0; W < Stride; ++W) {
      uint64_t Old = D[W];
      D[W] |= S[W];
      Changed |= D[W] != Old;
    }
    return Changed;
  };
  for (uint32_t SI = 0; SI < NumStmts; ++SI) {
    const Stmt &S = P.stmt(StmtId(SI));
    if (S.Kind != StmtKind::Atom)
      continue;
    const Command &C = P.command(S.Cmd);
    if (C.Kind == CmdKind::Check)
      Row(SI)[C.Check.index() / 64] |= uint64_t(1) << (C.Check.index() % 64);
  }
  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (uint32_t SI = 0; SI < NumStmts; ++SI) {
      const Stmt &S = P.stmt(StmtId(SI));
      if (S.Kind == StmtKind::Atom) {
        const Command &C = P.command(S.Cmd);
        if (C.Kind == CmdKind::Invoke && C.Callee.isValid() &&
            P.proc(C.Callee).Body.isValid())
          Changed |= Absorb(SI, P.proc(C.Callee).Body.index());
        continue;
      }
      for (StmtId Child : S.Children)
        Changed |= Absorb(SI, Child.index());
    }
  }
}

} // namespace ir
} // namespace optabs
