//===- Program.h - Programs of the mini-IR ---------------------*- C++ -*-===//
//
// Part of the optabs project, a reproduction of "Finding Optimum
// Abstractions in Parametric Dataflow Analysis" (PLDI 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The Program class: pools of named entities (variables, globals, fields,
/// allocation sites, methods, procedures), a pool of atomic commands, and a
/// statement AST realizing the paper's statement algebra
///   s ::= a | s ; s' | s + s' | s*         (§3.1)
/// extended with procedures (each procedure has a body statement; Invoke
/// commands transfer to a callee). Programs are built through the mutating
/// builder API below or parsed from text (see Parser.h).
///
//===----------------------------------------------------------------------===//

#ifndef OPTABS_IR_PROGRAM_H
#define OPTABS_IR_PROGRAM_H

#include "ir/Command.h"
#include "ir/Ids.h"

#include <cassert>
#include <string>
#include <unordered_map>
#include <vector>

namespace optabs {
namespace ir {

enum class StmtKind : uint8_t {
  Atom,   ///< a single atomic command
  Seq,    ///< s1 ; s2 ; ... (n-ary for convenience; empty = skip)
  Choice, ///< s1 + s2 + ... (n-ary; must have >= 1 child)
  Star,   ///< s*  (exactly 1 child)
};

/// One statement AST node. Nodes live in the Program's pool and refer to
/// children by StmtId; sharing is allowed (the AST is a DAG).
struct Stmt {
  StmtKind Kind = StmtKind::Seq;
  CommandId Cmd;                ///< valid iff Kind == Atom
  std::vector<StmtId> Children; ///< Seq/Choice: any arity; Star: exactly 1
};

/// A procedure: a name and a body statement.
struct Procedure {
  std::string Name;
  StmtId Body;
};

/// A check (query) site: the queried variable plus a client-interpreted
/// symbol payload (e.g. the allowed type-state). Each check site appears as
/// exactly one Check command in the program.
struct CheckSite {
  VarId Var;
  SymbolId Payload;  ///< invalid for payload-less checks (escape queries)
  ProcId Proc;       ///< enclosing procedure (for diagnostics)
  CommandId Command; ///< the Check command anchoring this site
};

/// A whole program: entity tables, command pool, statement pool, procedures.
class Program {
public:
  //===--------------------------------------------------------------------===
  // Entity interning. Each returns the existing id when the name is known.
  //===--------------------------------------------------------------------===

  VarId makeVar(const std::string &Name);
  GlobalId makeGlobal(const std::string &Name);
  FieldId makeField(const std::string &Name);
  AllocId makeAlloc(const std::string &Name);
  MethodId makeMethod(const std::string &Name);
  ProcId makeProc(const std::string &Name);
  SymbolId makeSymbol(const std::string &Name);

  /// Looks up an existing entity by name; returns an invalid id if unknown.
  VarId findVar(const std::string &Name) const;
  GlobalId findGlobal(const std::string &Name) const;
  FieldId findField(const std::string &Name) const;
  AllocId findAlloc(const std::string &Name) const;
  ProcId findProc(const std::string &Name) const;
  SymbolId findSymbol(const std::string &Name) const;

  //===--------------------------------------------------------------------===
  // Command builders. Each appends a command and returns its id.
  //===--------------------------------------------------------------------===

  CommandId cmdAssume();
  CommandId cmdNew(VarId Dst, AllocId H);
  CommandId cmdCopy(VarId Dst, VarId Src);
  CommandId cmdNull(VarId Dst);
  CommandId cmdLoadGlobal(VarId Dst, GlobalId G);
  CommandId cmdStoreGlobal(GlobalId G, VarId Src);
  CommandId cmdLoadField(VarId Dst, VarId Base, FieldId F);
  CommandId cmdStoreField(VarId Base, FieldId F, VarId Src);
  CommandId cmdMethodCall(VarId Recv, MethodId M);
  CommandId cmdInvoke(ProcId Callee);
  /// Creates both the Check command and its CheckSite record. \p Proc is the
  /// enclosing procedure (used only for reporting).
  CommandId cmdCheck(VarId V, SymbolId Payload, ProcId Proc);

  //===--------------------------------------------------------------------===
  // Statement builders.
  //===--------------------------------------------------------------------===

  /// The atom statement of \p C. A command belongs to at most one atom
  /// (asserted), which the parser and the generator guarantee by making a
  /// fresh command for every atom.
  StmtId stmtAtom(CommandId C);
  StmtId stmtSeq(std::vector<StmtId> Children);
  StmtId stmtChoice(std::vector<StmtId> Children);
  StmtId stmtStar(StmtId Body);
  /// An empty statement (Seq with no children).
  StmtId stmtSkip();

  /// Sets the body of \p P. A procedure's body may be set exactly once.
  void setProcBody(ProcId P, StmtId Body);
  void setMain(ProcId P) { Main = P; }
  ProcId main() const { return Main; }

  //===--------------------------------------------------------------------===
  // Accessors.
  //===--------------------------------------------------------------------===

  const Command &command(CommandId C) const {
    assert(C.index() < Commands.size());
    return Commands[C.index()];
  }
  const Stmt &stmt(StmtId S) const {
    assert(S.index() < Stmts.size());
    return Stmts[S.index()];
  }
  /// The atom statement made for \p C by stmtAtom(); invalid when none
  /// was.
  StmtId atomOf(CommandId C) const {
    return C.index() < CmdAtoms.size() ? CmdAtoms[C.index()] : StmtId();
  }
  const Procedure &proc(ProcId P) const {
    assert(P.index() < Procs.size());
    return Procs[P.index()];
  }
  const CheckSite &checkSite(CheckId C) const {
    assert(C.index() < Checks.size());
    return Checks[C.index()];
  }

  uint32_t numVars() const { return static_cast<uint32_t>(VarNames.size()); }
  uint32_t numGlobals() const {
    return static_cast<uint32_t>(GlobalNames.size());
  }
  uint32_t numFields() const {
    return static_cast<uint32_t>(FieldNames.size());
  }
  uint32_t numAllocs() const {
    return static_cast<uint32_t>(AllocNames.size());
  }
  uint32_t numMethods() const {
    return static_cast<uint32_t>(MethodNames.size());
  }
  uint32_t numProcs() const { return static_cast<uint32_t>(Procs.size()); }
  uint32_t numCommands() const {
    return static_cast<uint32_t>(Commands.size());
  }
  uint32_t numStmts() const { return static_cast<uint32_t>(Stmts.size()); }
  uint32_t numChecks() const { return static_cast<uint32_t>(Checks.size()); }
  uint32_t numSymbols() const {
    return static_cast<uint32_t>(SymbolNames.size());
  }

  const std::string &varName(VarId V) const { return VarNames[V.index()]; }
  const std::string &globalName(GlobalId G) const {
    return GlobalNames[G.index()];
  }
  const std::string &fieldName(FieldId F) const {
    return FieldNames[F.index()];
  }
  const std::string &allocName(AllocId H) const {
    return AllocNames[H.index()];
  }
  const std::string &methodName(MethodId M) const {
    return MethodNames[M.index()];
  }
  const std::string &symbolName(SymbolId S) const {
    return SymbolNames[S.index()];
  }

private:
  CommandId addCommand(Command C);

  std::vector<std::string> VarNames, GlobalNames, FieldNames, AllocNames,
      MethodNames, SymbolNames;
  std::unordered_map<std::string, uint32_t> VarIndex, GlobalIndex, FieldIndex,
      AllocIndex, MethodIndex, ProcIndex, SymbolIndex;
  std::vector<Command> Commands;
  std::vector<Stmt> Stmts;
  std::vector<StmtId> CmdAtoms; ///< by command; see atomOf()
  std::vector<Procedure> Procs;
  std::vector<CheckSite> Checks;
  ProcId Main;
};

} // namespace ir
} // namespace optabs

#endif // OPTABS_IR_PROGRAM_H
