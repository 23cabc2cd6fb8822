//===- Generator.cpp - Synthetic benchmark generator --------------------------===//

#include "synth/Generator.h"

#include "support/Prng.h"

namespace optabs {
namespace synth {

using namespace ir;

namespace {

enum class UnitKind : uint8_t {
  TsChain,
  TsKill,
  EscLocal,
  EscEscape,
  EscHandoff,
  EscConfuser,
  EscConfuserEscaping,
  Noise,
};

/// Units that leave no abstract-state residue (variables nulled, no field
/// or global effects) may sit under loops and branches without multiplying
/// downstream states.
bool isResidueFree(UnitKind K) {
  return K == UnitKind::TsChain || K == UnitKind::TsKill ||
         K == UnitKind::EscConfuser;
}

/// \p Prefix followed by the decimal digits of \p N. Built by append:
/// GCC 12 raises a false -Wrestrict on `"literal" + std::string` at -O3.
std::string numbered(const char *Prefix, unsigned N) {
  std::string S(Prefix);
  S += std::to_string(N);
  return S;
}

class GeneratorImpl {
public:
  GeneratorImpl(Benchmark &B) : B(B), P(B.P), Rng(B.Config.Seed) {}

  void run() {
    const BenchConfig &C = B.Config;
    G = P.makeGlobal("g");
    Work = P.makeMethod("work");
    TsTag = P.makeSymbol("ts");
    EscTag = P.makeSymbol("esc");

    // Library procedures: noise only, shared by all application procs.
    std::vector<ProcId> Libs;
    for (unsigned I = 0; I < C.LibProcs; ++I) {
      ProcId Proc = P.makeProc(numbered("lib", I));
      CurProc = Proc;
      std::vector<StmtId> Body;
      for (unsigned U = 0; U < C.UnitsPerLibProc; ++U)
        Body.push_back(unitNoise());
      P.setProcBody(Proc, P.stmtSeq(std::move(Body)));
      Libs.push_back(Proc);
    }

    // Application procedures, chained main -> app0 -> app1 -> ... so that
    // queries sit at increasing call depth.
    std::vector<ProcId> Apps;
    for (unsigned I = 0; I < C.AppProcs; ++I)
      Apps.push_back(P.makeProc(numbered("app", I)));
    for (unsigned I = 0; I < C.AppProcs; ++I) {
      CurProc = Apps[I];
      std::vector<StmtId> Body;
      for (unsigned U = 0; U < C.UnitsPerAppProc; ++U) {
        UnitKind Kind = pickUnitKind(I * C.UnitsPerAppProc + U);
        StmtId Unit = emitUnit(Kind);
        Body.push_back(wrapUnit(Kind, Unit));
        if (!Libs.empty() && U < C.LibCallsPerProc)
          Body.push_back(P.stmtAtom(
              P.cmdInvoke(Libs[Rng.nextBelow(Libs.size())])));
      }
      if (I + 1 < C.AppProcs)
        Body.push_back(P.stmtAtom(P.cmdInvoke(Apps[I + 1])));
      P.setProcBody(Apps[I], P.stmtSeq(std::move(Body)));
    }

    ProcId Main = P.makeProc("main");
    CurProc = Main;
    P.setProcBody(Main, P.stmtSeq({P.stmtAtom(P.cmdInvoke(Apps[0]))}));
    P.setMain(Main);
  }

private:
  //===--- naming -----------------------------------------------------------===

  std::string uid() { return numbered("u", UnitCounter); }
  VarId var(const std::string &Suffix) {
    return P.makeVar(uid() + "_" + Suffix);
  }
  AllocId site(const std::string &Suffix) {
    return P.makeAlloc(uid() + "_" + Suffix);
  }
  FieldId field(const std::string &Suffix) {
    return P.makeField(uid() + "_" + Suffix);
  }

  //===--- statement helpers ------------------------------------------------===

  void emit(std::vector<StmtId> &Out, CommandId Cmd) {
    Out.push_back(P.stmtAtom(Cmd));
  }

  void tsCheck(std::vector<StmtId> &Out, VarId V) {
    emit(Out, P.cmdCheck(V, TsTag, CurProc));
    B.TsChecks.push_back(CheckId(P.numChecks() - 1));
  }

  void escCheck(std::vector<StmtId> &Out, VarId V) {
    emit(Out, P.cmdCheck(V, EscTag, CurProc));
    B.EscChecks.push_back(CheckId(P.numChecks() - 1));
  }

  void nullOut(std::vector<StmtId> &Out, const std::vector<VarId> &Vars) {
    for (VarId V : Vars)
      emit(Out, P.cmdNull(V));
  }

  //===--- unit selection ---------------------------------------------------===

  UnitKind pickUnitKind(unsigned Index) {
    // The first units cycle through the kinds so every benchmark exercises
    // each idiom; the rest are drawn with fixed weights.
    static const UnitKind All[] = {
        UnitKind::TsChain,     UnitKind::EscLocal,
        UnitKind::EscConfuser, UnitKind::TsKill,
        UnitKind::EscEscape,   UnitKind::EscHandoff,
        UnitKind::EscConfuserEscaping};
    constexpr unsigned NumAll = sizeof(All) / sizeof(All[0]);
    if (Index < NumAll)
      return All[Index];
    // Weights chosen so the proven/impossible/unresolved mix tracks
    // Figure 12: most type-state queries are unprovable under the stress
    // property, and thread-escape splits roughly 40/45/15.
    unsigned Roll = static_cast<unsigned>(Rng.nextBelow(100));
    if (Roll < 15)
      return UnitKind::TsChain;
    if (Roll < 40)
      return UnitKind::TsKill;
    if (Roll < 50)
      return UnitKind::EscLocal;
    if (Roll < 72)
      return UnitKind::EscEscape;
    if (Roll < 80)
      return UnitKind::EscHandoff;
    if (Roll < 88)
      return UnitKind::EscConfuser;
    if (Roll < 98)
      return UnitKind::EscConfuserEscaping;
    return UnitKind::Noise;
  }

  StmtId emitUnit(UnitKind Kind) {
    ++UnitCounter;
    switch (Kind) {
    case UnitKind::TsChain:
      return unitTsChain();
    case UnitKind::TsKill:
      return unitTsKill();
    case UnitKind::EscLocal:
      return unitEscLocal();
    case UnitKind::EscEscape:
      return unitEscEscape();
    case UnitKind::EscHandoff:
      return unitEscHandoff();
    case UnitKind::EscConfuser:
      return unitEscConfuser(/*Escaping=*/false);
    case UnitKind::EscConfuserEscaping:
      return unitEscConfuser(/*Escaping=*/true);
    case UnitKind::Noise:
      return unitNoise();
    }
    return P.stmtSkip();
  }

  StmtId wrapUnit(UnitKind Kind, StmtId Unit) {
    if (!isResidueFree(Kind))
      return Unit;
    unsigned Roll = static_cast<unsigned>(Rng.nextBelow(100));
    if (Roll < B.Config.LoopPercent)
      return P.stmtStar(Unit);
    if (Roll < B.Config.LoopPercent + B.Config.BranchPercent)
      return P.stmtChoice({Unit, P.stmtSkip()});
    return Unit;
  }

  //===--- idiom units ------------------------------------------------------===

  /// x0 = new h; x1 = x0; ...; calls through the chain ends. Proving the
  /// query at x_i requires tracking {x0..x_i}: cheapest size i+1. Larger
  /// benchmarks skew towards deep chains, which is what drives the large
  /// average abstraction sizes the paper reports for avrora (Table 3).
  StmtId unitTsChain() {
    unsigned Len;
    if (B.Config.TsChainMax >= 6 && Rng.chance(2, 5))
      Len = B.Config.TsChainMax / 2 +
            static_cast<unsigned>(
                Rng.nextBelow(B.Config.TsChainMax / 2 + 1));
    else
      Len = 1 + static_cast<unsigned>(Rng.nextBelow(B.Config.TsChainMax));
    AllocId H = site("h");
    std::vector<VarId> Xs;
    for (unsigned I = 0; I <= Len; ++I)
      Xs.push_back(var(numbered("x", I)));

    std::vector<StmtId> Out;
    emit(Out, P.cmdNew(Xs[0], H));
    for (unsigned I = 1; I <= Len; ++I)
      emit(Out, P.cmdCopy(Xs[I], Xs[I - 1]));
    if (Len >= 2) {
      VarId Mid = Xs[Len / 2];
      emit(Out, P.cmdMethodCall(Mid, Work));
      tsCheck(Out, Mid);
    }
    // Several calls through the chain's end: all these queries share one
    // cheapest abstraction (the whole chain), populating Table 4's groups.
    unsigned Calls = 1 + static_cast<unsigned>(Rng.nextBelow(3));
    for (unsigned I = 0; I < Calls; ++I) {
      emit(Out, P.cmdMethodCall(Xs[Len], Work));
      tsCheck(Out, Xs[Len]);
    }
    nullOut(Out, Xs);
    return P.stmtSeq(std::move(Out));
  }

  /// A call through a variable merged from two different objects: its
  /// must-alias set is empty under every abstraction, so the call errs and
  /// the query after it is impossible.
  StmtId unitTsKill() {
    AllocId H1 = site("h1"), H2 = site("h2");
    VarId X = var("x"), X2 = var("x2"), Y = var("y");
    std::vector<StmtId> Out;
    emit(Out, P.cmdNew(X, H1));
    emit(Out, P.cmdMethodCall(X, Work));
    tsCheck(Out, X); // provable with {x}
    emit(Out, P.cmdNew(X2, H2));
    Out.push_back(P.stmtChoice({P.stmtAtom(P.cmdCopy(Y, X)),
                                P.stmtAtom(P.cmdCopy(Y, X2))}));
    emit(Out, P.cmdMethodCall(Y, Work));
    tsCheck(Out, Y); // impossible for both sites
    // Downstream of the precision loss, every further call-site query on
    // these objects is unprovable too (the error state is absorbing).
    VarId Y2 = var("y2");
    for (unsigned I = 0; I < 2; ++I) {
      emit(Out, P.cmdCopy(Y2, Y));
      emit(Out, P.cmdMethodCall(Y2, Work));
      tsCheck(Out, Y2); // impossible for both sites
    }
    nullOut(Out, {X, X2, Y, Y2});
    return P.stmtSeq(std::move(Out));
  }

  /// An object that never escapes: the access on v needs 1 L-site, the
  /// access on the loaded u needs 2.
  StmtId unitEscLocal() {
    AllocId H1 = site("h1"), H2 = site("h2");
    FieldId F = field("f");
    VarId V = var("v"), W = var("w"), U = var("u");
    std::vector<StmtId> Out;
    emit(Out, P.cmdNew(V, H1));
    emit(Out, P.cmdNew(W, H2));
    // Repeated accesses to the same local object: all share the cheapest
    // abstraction {h1} (the paper's Table 4 reuse groups).
    unsigned Accesses = 2 + static_cast<unsigned>(Rng.nextBelow(5));
    for (unsigned I = 0; I < Accesses; ++I)
      escCheck(Out, V); // cost 1
    emit(Out, P.cmdStoreField(V, F, W));
    emit(Out, P.cmdLoadField(U, V, F));
    for (unsigned I = 0; I < 1 + Rng.nextBelow(2); ++I)
      escCheck(Out, U); // cost 2
    nullOut(Out, {V, W, U});
    return P.stmtSeq(std::move(Out));
  }

  /// An object published through the global: local before the store,
  /// escaping ever after - those queries are impossible.
  StmtId unitEscEscape() {
    AllocId H = site("h");
    VarId V = var("v"), T = var("t");
    std::vector<StmtId> Out;
    emit(Out, P.cmdNew(V, H));
    escCheck(Out, V); // cost 1
    emit(Out, P.cmdStoreGlobal(G, V));
    emit(Out, P.cmdLoadGlobal(T, G));
    escCheck(Out, T); // impossible
    escCheck(Out, V); // impossible
    // Every later access to the published object is unprovable as well.
    VarId T2 = var("t2");
    for (unsigned I = 0; I < 2; ++I) {
      emit(Out, P.cmdCopy(T2, T));
      escCheck(Out, T2); // impossible
    }
    nullOut(Out, {V, T, T2});
    return P.stmtSeq(std::move(Out));
  }

  /// A chain of objects linked through fields; the i-th load is provable
  /// with exactly i+1 L-sites.
  StmtId unitEscHandoff() {
    unsigned Len = 1 + static_cast<unsigned>(
                           Rng.nextBelow(B.Config.EscChainMax));
    std::vector<VarId> Vs, Us;
    std::vector<AllocId> Hs;
    std::vector<FieldId> Fs;
    for (unsigned I = 0; I <= Len; ++I) {
      Vs.push_back(var(numbered("v", I)));
      Hs.push_back(site(numbered("h", I)));
    }
    for (unsigned I = 1; I <= Len; ++I) {
      Us.push_back(var(numbered("uu", I)));
      Fs.push_back(field(numbered("f", I)));
    }
    std::vector<StmtId> Out;
    for (unsigned I = 0; I <= Len; ++I)
      emit(Out, P.cmdNew(Vs[I], Hs[I]));
    for (unsigned I = 1; I <= Len; ++I)
      emit(Out, P.cmdStoreField(Vs[I - 1], Fs[I - 1], Vs[I]));
    VarId Cur = Vs[0];
    for (unsigned I = 1; I <= Len; ++I) {
      emit(Out, P.cmdLoadField(Us[I - 1], Cur, Fs[I - 1]));
      escCheck(Out, Us[I - 1]); // cost I + 1
      Cur = Us[I - 1];
    }
    nullOut(Out, Vs);
    nullOut(Out, Us);
    return P.stmtSeq(std::move(Out));
  }

  /// An n-way allocation choice: every branch must be local, so the query
  /// needs all n sites mapped to L and TRACER spends roughly one iteration
  /// per site. The escaping variant stores the object into an escaped
  /// container afterwards, making the second query impossible (slowly so
  /// for small beam widths).
  StmtId unitEscConfuser(bool Escaping) {
    unsigned Ways = confuserWays();
    VarId V = var("v");
    std::vector<StmtId> Branches;
    for (unsigned I = 0; I < Ways; ++I)
      Branches.push_back(
          P.stmtAtom(P.cmdNew(V, site(numbered("h", I)))));
    std::vector<StmtId> Out;
    Out.push_back(P.stmtChoice(std::move(Branches)));
    escCheck(Out, V); // cost = Ways
    escCheck(Out, V); // second access: shares the cheapest abstraction
    std::vector<VarId> ToNull{V};
    if (Escaping) {
      VarId W = var("w");
      FieldId K = field("k");
      emit(Out, P.cmdLoadGlobal(W, G));
      emit(Out, P.cmdStoreField(W, K, V)); // escaped base: may esc()
      escCheck(Out, V);                    // impossible
      ToNull.push_back(W);
    }
    nullOut(Out, ToNull);
    return P.stmtSeq(std::move(Out));
  }

  /// Heavy-tailed width: mostly 1-2, occasionally up to the maximum, with
  /// one guaranteed maximal confuser per benchmark (pins Figure 14's max).
  unsigned confuserWays() {
    if (!EmittedMaxConfuser) {
      EmittedMaxConfuser = true;
      return std::max(1u, B.Config.ConfuserMaxWays);
    }
    // Occasionally a wide confuser (Figure 14's tail; beyond the iteration
    // budget these become Figure 12's unresolved queries), otherwise a
    // geometric tail concentrated on 1-2 sites.
    if (B.Config.ConfuserMaxWays >= 8 && Rng.chance(1, 5))
      return B.Config.ConfuserMaxWays / 2 +
             static_cast<unsigned>(Rng.nextBelow(B.Config.ConfuserMaxWays / 2));
    unsigned Ways = 1;
    while (Ways < B.Config.ConfuserMaxWays && Rng.chance(1, 2))
      ++Ways;
    return Ways;
  }

  /// Analyzed-but-unqueried code (the JDK analogue).
  StmtId unitNoise() {
    ++UnitCounter;
    AllocId H1 = site("h1"), H2 = site("h2");
    FieldId F = field("f");
    VarId A = var("a"), C = var("c"), D = var("d");
    std::vector<StmtId> Out;
    emit(Out, P.cmdNew(A, H1));
    emit(Out, P.cmdCopy(C, A));
    emit(Out, P.cmdMethodCall(C, Work));
    emit(Out, P.cmdStoreField(A, F, C));
    emit(Out, P.cmdLoadField(D, A, F));
    emit(Out, P.cmdNew(D, H2));
    Out.push_back(P.stmtChoice(
        {P.stmtAtom(P.cmdCopy(D, A)), P.stmtAtom(P.cmdNull(D))}));
    nullOut(Out, {A, C, D});
    return P.stmtSeq(std::move(Out));
  }

  Benchmark &B;
  Program &P;
  Prng Rng;
  GlobalId G;
  MethodId Work;
  SymbolId TsTag, EscTag;
  ProcId CurProc;
  unsigned UnitCounter = 0;
  bool EmittedMaxConfuser = false;
};

} // namespace

Benchmark generate(const BenchConfig &Config) {
  Benchmark B;
  B.Config = Config;
  GeneratorImpl(B).run();
  return B;
}

const std::vector<BenchConfig> &paperSuite() {
  static const std::vector<BenchConfig> Suite = [] {
    std::vector<BenchConfig> S;
    auto Add = [&S](const char *Name, const char *Desc, uint64_t Seed,
                    unsigned App, unsigned Lib, unsigned UnitsApp,
                    unsigned UnitsLib, unsigned TsChain, unsigned EscChain,
                    unsigned Confuser) {
      BenchConfig C;
      C.Name = Name;
      C.Description = Desc;
      C.Seed = Seed;
      C.AppProcs = App;
      C.LibProcs = Lib;
      C.UnitsPerAppProc = UnitsApp;
      C.UnitsPerLibProc = UnitsLib;
      C.TsChainMax = TsChain;
      C.EscChainMax = EscChain;
      C.ConfuserMaxWays = Confuser;
      S.push_back(std::move(C));
    };
    // Mirrors Table 1's relative sizes at laptop scale: tsp/elevator are
    // small, hedc/weblech medium, antlr/avrora/lusearch large, with avrora
    // the largest and the one with the deepest must-alias chains.
    Add("tsp", "Traveling Salesman implementation", 101, 5, 5, 3, 3, 2, 2,
        3);
    Add("elevator", "discrete event simulator", 102, 4, 5, 3, 3, 2, 1, 3);
    Add("hedc", "web crawler from ETH", 103, 8, 7, 4, 3, 3, 2, 5);
    Add("weblech", "website download/mirror tool", 104, 10, 7, 4, 3, 3, 3,
        8);
    Add("antlr", "a parser/translator generator", 105, 13, 8, 5, 4, 8, 3,
        30);
    Add("avrora", "microcontroller simulator/analyzer", 106, 18, 10, 5, 4,
        14, 3, 48);
    Add("lusearch", "text indexing and search tool", 107, 13, 8, 5, 4, 9, 3,
        36);
    return S;
  }();
  return Suite;
}

std::vector<BenchConfig> smallSuite() {
  const auto &All = paperSuite();
  return std::vector<BenchConfig>(All.begin(), All.begin() + 4);
}

} // namespace synth
} // namespace optabs
