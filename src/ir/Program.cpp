//===- Program.cpp - Programs of the mini-IR -------------------------------===//

#include "ir/Program.h"

namespace optabs {
namespace ir {

const char *cmdKindName(CmdKind K) {
  switch (K) {
  case CmdKind::Assume:
    return "assume";
  case CmdKind::New:
    return "new";
  case CmdKind::Copy:
    return "copy";
  case CmdKind::Null:
    return "null";
  case CmdKind::LoadGlobal:
    return "loadg";
  case CmdKind::StoreGlobal:
    return "storeg";
  case CmdKind::LoadField:
    return "load";
  case CmdKind::StoreField:
    return "store";
  case CmdKind::MethodCall:
    return "call";
  case CmdKind::Invoke:
    return "invoke";
  case CmdKind::Check:
    return "check";
  }
  return "?";
}

namespace {
/// Interns \p Name into \p Names / \p Index and returns its dense index.
uint32_t internName(const std::string &Name, std::vector<std::string> &Names,
                    std::unordered_map<std::string, uint32_t> &Index) {
  auto [It, Inserted] =
      Index.emplace(Name, static_cast<uint32_t>(Names.size()));
  if (Inserted)
    Names.push_back(Name);
  return It->second;
}
} // namespace

VarId Program::makeVar(const std::string &Name) {
  return VarId(internName(Name, VarNames, VarIndex));
}
GlobalId Program::makeGlobal(const std::string &Name) {
  return GlobalId(internName(Name, GlobalNames, GlobalIndex));
}
FieldId Program::makeField(const std::string &Name) {
  return FieldId(internName(Name, FieldNames, FieldIndex));
}
AllocId Program::makeAlloc(const std::string &Name) {
  return AllocId(internName(Name, AllocNames, AllocIndex));
}
MethodId Program::makeMethod(const std::string &Name) {
  return MethodId(internName(Name, MethodNames, MethodIndex));
}
SymbolId Program::makeSymbol(const std::string &Name) {
  return SymbolId(internName(Name, SymbolNames, SymbolIndex));
}

ProcId Program::makeProc(const std::string &Name) {
  auto [It, Inserted] =
      ProcIndex.emplace(Name, static_cast<uint32_t>(Procs.size()));
  if (Inserted)
    Procs.push_back(Procedure{Name, StmtId()});
  return ProcId(It->second);
}

namespace {
template <typename IdT>
IdT findIn(const std::unordered_map<std::string, uint32_t> &Index,
           const std::string &Name) {
  auto It = Index.find(Name);
  return It == Index.end() ? IdT() : IdT(It->second);
}
} // namespace

VarId Program::findVar(const std::string &Name) const {
  return findIn<VarId>(VarIndex, Name);
}
GlobalId Program::findGlobal(const std::string &Name) const {
  return findIn<GlobalId>(GlobalIndex, Name);
}
FieldId Program::findField(const std::string &Name) const {
  return findIn<FieldId>(FieldIndex, Name);
}
AllocId Program::findAlloc(const std::string &Name) const {
  return findIn<AllocId>(AllocIndex, Name);
}
ProcId Program::findProc(const std::string &Name) const {
  return findIn<ProcId>(ProcIndex, Name);
}
SymbolId Program::findSymbol(const std::string &Name) const {
  return findIn<SymbolId>(SymbolIndex, Name);
}

CommandId Program::addCommand(Command C) {
  CommandId Id(static_cast<uint32_t>(Commands.size()));
  Commands.push_back(C);
  return Id;
}

CommandId Program::cmdAssume() {
  Command C;
  C.Kind = CmdKind::Assume;
  return addCommand(C);
}

CommandId Program::cmdNew(VarId Dst, AllocId H) {
  assert(Dst.isValid() && H.isValid());
  Command C;
  C.Kind = CmdKind::New;
  C.Dst = Dst;
  C.Alloc = H;
  return addCommand(C);
}

CommandId Program::cmdCopy(VarId Dst, VarId Src) {
  assert(Dst.isValid() && Src.isValid());
  Command C;
  C.Kind = CmdKind::Copy;
  C.Dst = Dst;
  C.Src = Src;
  return addCommand(C);
}

CommandId Program::cmdNull(VarId Dst) {
  assert(Dst.isValid());
  Command C;
  C.Kind = CmdKind::Null;
  C.Dst = Dst;
  return addCommand(C);
}

CommandId Program::cmdLoadGlobal(VarId Dst, GlobalId G) {
  assert(Dst.isValid() && G.isValid());
  Command C;
  C.Kind = CmdKind::LoadGlobal;
  C.Dst = Dst;
  C.Global = G;
  return addCommand(C);
}

CommandId Program::cmdStoreGlobal(GlobalId G, VarId Src) {
  assert(G.isValid() && Src.isValid());
  Command C;
  C.Kind = CmdKind::StoreGlobal;
  C.Global = G;
  C.Src = Src;
  return addCommand(C);
}

CommandId Program::cmdLoadField(VarId Dst, VarId Base, FieldId F) {
  assert(Dst.isValid() && Base.isValid() && F.isValid());
  Command C;
  C.Kind = CmdKind::LoadField;
  C.Dst = Dst;
  C.Src = Base;
  C.Field = F;
  return addCommand(C);
}

CommandId Program::cmdStoreField(VarId Base, FieldId F, VarId Src) {
  assert(Base.isValid() && F.isValid() && Src.isValid());
  Command C;
  C.Kind = CmdKind::StoreField;
  C.Dst = Base;
  C.Field = F;
  C.Src = Src;
  return addCommand(C);
}

CommandId Program::cmdMethodCall(VarId Recv, MethodId M) {
  assert(Recv.isValid() && M.isValid());
  Command C;
  C.Kind = CmdKind::MethodCall;
  C.Dst = Recv;
  C.Method = M;
  return addCommand(C);
}

CommandId Program::cmdInvoke(ProcId Callee) {
  assert(Callee.isValid());
  Command C;
  C.Kind = CmdKind::Invoke;
  C.Callee = Callee;
  return addCommand(C);
}

CommandId Program::cmdCheck(VarId V, SymbolId Payload, ProcId Proc) {
  assert(V.isValid());
  CheckId Check(static_cast<uint32_t>(Checks.size()));
  Command C;
  C.Kind = CmdKind::Check;
  C.Dst = V;
  C.Check = Check;
  CommandId Cmd = addCommand(C);
  Checks.push_back(CheckSite{V, Payload, Proc, Cmd});
  return Cmd;
}

StmtId Program::stmtAtom(CommandId C) {
  StmtId Id(static_cast<uint32_t>(Stmts.size()));
  Stmt S;
  S.Kind = StmtKind::Atom;
  S.Cmd = C;
  Stmts.push_back(std::move(S));
  if (CmdAtoms.size() <= C.index())
    CmdAtoms.resize(C.index() + 1);
  assert(!CmdAtoms[C.index()].isValid() && "command already has an atom");
  CmdAtoms[C.index()] = Id;
  return Id;
}

StmtId Program::stmtSeq(std::vector<StmtId> Children) {
  StmtId Id(static_cast<uint32_t>(Stmts.size()));
  Stmt S;
  S.Kind = StmtKind::Seq;
  S.Children = std::move(Children);
  Stmts.push_back(std::move(S));
  return Id;
}

StmtId Program::stmtChoice(std::vector<StmtId> Children) {
  assert(!Children.empty() && "choice needs at least one branch");
  StmtId Id(static_cast<uint32_t>(Stmts.size()));
  Stmt S;
  S.Kind = StmtKind::Choice;
  S.Children = std::move(Children);
  Stmts.push_back(std::move(S));
  return Id;
}

StmtId Program::stmtStar(StmtId Body) {
  StmtId Id(static_cast<uint32_t>(Stmts.size()));
  Stmt S;
  S.Kind = StmtKind::Star;
  S.Children = {Body};
  Stmts.push_back(std::move(S));
  return Id;
}

StmtId Program::stmtSkip() { return stmtSeq({}); }

void Program::setProcBody(ProcId P, StmtId Body) {
  assert(P.index() < Procs.size());
  assert(!Procs[P.index()].Body.isValid() && "procedure body already set");
  Procs[P.index()].Body = Body;
}

} // namespace ir
} // namespace optabs
