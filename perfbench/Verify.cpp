//===- Verify.cpp - Independent checks of reported verdicts --------------===//

#include "Verify.h"

#include "dataflow/Forward.h"
#include "escape/Escape.h"
#include "ir/Parser.h"
#include "pointer/PointsTo.h"
#include "typestate/Typestate.h"

#include <algorithm>
#include <fstream>
#include <sstream>

namespace perfbench {

using namespace optabs;

std::optional<std::vector<std::string>> parseParamKey(const std::string &Key,
                                                      bool Typestate) {
  const std::string Open = Typestate ? "{" : "[L:";
  const std::string Close = Typestate ? "}" : "]";
  if (Key.size() < Open.size() + Close.size() || Key.rfind(Open, 0) != 0 ||
      Key.compare(Key.size() - Close.size(), Close.size(), Close) != 0)
    return std::nullopt;
  std::string Body =
      Key.substr(Open.size(), Key.size() - Open.size() - Close.size());
  std::vector<std::string> Names;
  if (Body.empty())
    return Names;
  size_t I = 0;
  for (;;) {
    size_t Comma = Body.find(',', I);
    std::string Name = Body.substr(I, Comma == std::string::npos
                                          ? std::string::npos
                                          : Comma - I);
    if (Name.empty())
      return std::nullopt;
    Names.push_back(std::move(Name));
    if (Comma == std::string::npos)
      return Names;
    I = Comma + 1;
  }
}

std::string textHash(const std::string &S) {
  uint64_t H = 0xcbf29ce484222325ULL;
  for (unsigned char C : S)
    H = (H ^ C) * 0x100000001b3ULL;
  char Buf[17];
  std::snprintf(Buf, sizeof(Buf), "%016llx", static_cast<unsigned long long>(H));
  return Buf;
}

//===----------------------------------------------------------------------===//
// ReferenceAnswers
//===----------------------------------------------------------------------===//

std::string ReferenceAnswers::key(const std::string &Program,
                                  const std::string &Text, bool Typestate,
                                  uint32_t Site, uint32_t Check) {
  return Program + "\t" + textHash(Text) + "\t" +
         (Typestate ? "typestate" : "escape") + "\t" + std::to_string(Site) +
         "\t" + std::to_string(Check);
}

bool ReferenceAnswers::load(const std::string &Path, std::string &Err) {
  std::ifstream In(Path);
  if (!In) {
    Err = "cannot read reference answers " + Path;
    return false;
  }
  std::string Line;
  size_t N = 0;
  while (std::getline(In, Line)) {
    ++N;
    if (Line.empty() || Line[0] == '#')
      continue;
    std::vector<std::string> F;
    std::istringstream LS(Line);
    std::string Field;
    while (std::getline(LS, Field, '\t'))
      F.push_back(Field);
    if (F.size() != 7 || F[6].find_first_not_of("0123456789") !=
                             std::string::npos || F[6].empty()) {
      Err = Path + ":" + std::to_string(N) + ": expected 7 tab-separated fields";
      return false;
    }
    Answers[F[0] + "\t" + F[1] + "\t" + F[2] + "\t" + F[3] + "\t" + F[4]] = {
        F[5], static_cast<uint32_t>(std::stoul(F[6]))};
  }
  return true;
}

const RefAnswer *ReferenceAnswers::find(const std::string &Key) const {
  auto It = Answers.find(Key);
  return It == Answers.end() ? nullptr : &It->second;
}

bool ReferenceAnswers::write(const std::string &Path, std::string &Err) const {
  std::ofstream Out(Path);
  if (!Out) {
    Err = "cannot write " + Path;
    return false;
  }
  Out << "# program\ttext-hash\tclient\tsite\tcheck\tverdict\tcost\n";
  for (const auto &[K, A] : Answers)
    Out << K << "\t" << A.Verdict << "\t" << A.Cost << "\n";
  return static_cast<bool>(Out);
}

//===----------------------------------------------------------------------===//
// Groups: one parsed program version + client (+ site) each
//===----------------------------------------------------------------------===//

struct Verifier::Group {
  virtual ~Group() = default;
  /// Whether the abstraction \p Bits proves \p Check (memoized per Bits).
  virtual bool proves(const std::vector<bool> &Bits, uint32_t Check,
                      uint64_t &ForwardRuns) = 0;
  /// The bit vector of named entities; nullopt on an unknown name.
  virtual std::optional<std::vector<bool>>
  bitsOf(const std::vector<std::string> &Names) const = 0;
  virtual uint32_t numBits() const = 0;

  ir::Program P;
  bool Parsed = false;
  std::string ParseError;
};

namespace {

template <typename Analysis> struct AnalysisGroup : Verifier::Group {
  std::unique_ptr<Analysis> A;
  /// Per abstraction: which checks it proves (one forward run answers
  /// every check, and enumerations revisit the same abstractions).
  std::map<std::vector<bool>, std::vector<bool>> Proven;

  bool proves(const std::vector<bool> &Bits, uint32_t Check,
              uint64_t &ForwardRuns) override {
    auto It = Proven.find(Bits);
    if (It == Proven.end()) {
      // No liveness pruning: the check stays independent of the engine's
      // dead-variable optimization.
      typename Analysis::Param Prm = A->paramFromBits(Bits);
      dataflow::ForwardAnalysis<Analysis> FA(P, *A, Prm);
      FA.run(A->initialState());
      ++ForwardRuns;
      std::vector<bool> ByCheck(P.numChecks(), true);
      for (uint32_t C = 0; C < P.numChecks(); ++C) {
        formula::Dnf NotQ = A->notQ(ir::CheckId(C));
        for (const auto &D : FA.statesAtCheck(ir::CheckId(C)))
          if (NotQ.eval([&](formula::AtomId At) {
                return A->evalAtom(At, Prm, D);
              })) {
            ByCheck[C] = false;
            break;
          }
      }
      It = Proven.emplace(Bits, std::move(ByCheck)).first;
    }
    return It->second[Check];
  }

  uint32_t numBits() const override { return A->numParamBits(); }
};

struct EscapeGroup : AnalysisGroup<escape::EscapeAnalysis> {
  std::optional<std::vector<bool>>
  bitsOf(const std::vector<std::string> &Names) const override {
    std::vector<bool> Bits(numBits(), false);
    for (const std::string &N : Names) {
      ir::AllocId H = P.findAlloc(N);
      if (!H.isValid())
        return std::nullopt;
      Bits[H.index()] = true;
    }
    return Bits;
  }
};

struct TypestateGroup : AnalysisGroup<typestate::TypestateAnalysis> {
  typestate::TypestateSpec Spec = typestate::TypestateSpec::stress();
  std::unique_ptr<pointer::PointsToResult> Pt;

  std::optional<std::vector<bool>>
  bitsOf(const std::vector<std::string> &Names) const override {
    std::vector<bool> Bits(numBits(), false);
    for (const std::string &N : Names) {
      ir::VarId V = P.findVar(N);
      if (!V.isValid())
        return std::nullopt;
      Bits[V.index()] = true;
    }
    return Bits;
  }
};

/// Number of subsets of an N-set with fewer than C elements, saturating
/// at \p Cap + 1.
uint64_t cheaperCount(uint32_t N, uint32_t C, uint64_t Cap) {
  uint64_t Total = 0, Binom = 1; // Binom = C(N, K)
  for (uint32_t K = 0; K < C && K <= N; ++K) {
    Total += Binom;
    if (Total > Cap)
      return Cap + 1;
    Binom = Binom * (N - K) / (K + 1);
    if (Binom > Cap)
      Binom = Cap + 1;
  }
  return Total;
}

/// Calls \p Visit on every subset of {0..N-1} with exactly K elements,
/// stopping early when it returns false.
template <typename Fn> bool forEachSubset(uint32_t N, uint32_t K, Fn Visit) {
  std::vector<uint32_t> Idx(K);
  for (uint32_t I = 0; I < K; ++I)
    Idx[I] = I;
  if (K > N)
    return true;
  for (;;) {
    std::vector<bool> Bits(N, false);
    for (uint32_t I : Idx)
      Bits[I] = true;
    if (!Visit(Bits))
      return false;
    int I = static_cast<int>(K) - 1;
    while (I >= 0 && Idx[I] == N - K + static_cast<uint32_t>(I))
      --I;
    if (I < 0)
      return true;
    ++Idx[I];
    for (uint32_t J = static_cast<uint32_t>(I) + 1; J < K; ++J)
      Idx[J] = Idx[J - 1] + 1;
  }
}

} // namespace

Verifier::Verifier(const ReferenceAnswers *Ref, uint64_t MaxWork)
    : Ref(Ref), MaxWork(MaxWork) {}

Verifier::~Verifier() = default;

Verifier::Group &Verifier::group(const std::string &Text, bool Typestate,
                                 uint32_t Site) {
  std::string Key = textHash(Text) + (Typestate ? "/ts/" : "/esc/") +
                    std::to_string(Typestate ? Site : 0);
  std::unique_ptr<Group> &G = Groups[Key];
  if (G)
    return *G;
  if (Typestate) {
    auto T = std::make_unique<TypestateGroup>();
    T->Parsed = ir::parseProgram(Text, T->P, T->ParseError);
    if (T->Parsed && Site < T->P.numAllocs()) {
      T->Pt = std::make_unique<pointer::PointsToResult>(
          pointer::runPointsTo(T->P));
      T->A = std::make_unique<typestate::TypestateAnalysis>(
          T->P, T->Spec, ir::AllocId(Site), *T->Pt);
    } else if (T->Parsed) {
      T->Parsed = false;
      T->ParseError = "site " + std::to_string(Site) + " out of range";
    }
    G = std::move(T);
  } else {
    auto E = std::make_unique<EscapeGroup>();
    E->Parsed = ir::parseProgram(Text, E->P, E->ParseError);
    if (E->Parsed)
      E->A = std::make_unique<escape::EscapeAnalysis>(E->P);
    G = std::move(E);
  }
  return *G;
}

void Verifier::wrong(const std::string &What) {
  ++Counts.Wrong;
  if (Counts.Problems.size() < 10)
    Counts.Problems.push_back(What);
}

bool Verifier::check(const std::string &Program, const std::string &Text,
                     bool Typestate, uint32_t Site, uint32_t Check,
                     const std::string &Verdict, uint32_t Cost,
                     const std::string &Param) {
  std::string RefKey =
      ReferenceAnswers::key(Program, Text, Typestate, Site, Check);
  std::string SeenKey = RefKey + "\t" + Verdict + "\t" +
                        std::to_string(Cost) + "\t" + Param;
  auto SeenIt = Seen.find(SeenKey);
  if (SeenIt != Seen.end()) {
    if (!SeenIt->second)
      ++Counts.Wrong;
    return SeenIt->second;
  }
  ++Counts.Checked;
  bool &Ok = Seen[SeenKey];
  Ok = false;
  std::string Where = Program + " " + (Typestate ? "typestate" : "escape") +
                      " check " + std::to_string(Check) +
                      (Typestate ? " site " + std::to_string(Site) : "");

  Group &G = group(Text, Typestate, Site);
  if (!G.Parsed) {
    wrong(Where + ": program does not parse here: " + G.ParseError);
    return false;
  }
  if (Check >= G.P.numChecks()) {
    wrong(Where + ": no such check");
    return false;
  }
  const RefAnswer *R = Ref ? Ref->find(RefKey) : nullptr;

  if (Verdict == "proven") {
    auto Names = parseParamKey(Param, Typestate);
    auto Bits = Names ? G.bitsOf(*Names) : std::nullopt;
    if (!Bits) {
      wrong(Where + ": unparseable parameter '" + Param + "'");
      return false;
    }
    uint32_t BitCost = 0;
    for (bool B : *Bits)
      BitCost += B;
    if (BitCost != Cost) {
      wrong(Where + ": cost " + std::to_string(Cost) + " but '" + Param +
            "' has " + std::to_string(BitCost) + " entities");
      return false;
    }
    if (!G.proves(*Bits, Check, Counts.ForwardRuns)) {
      wrong(Where + ": '" + Param + "' does not prove the check");
      return false;
    }
    uint64_t Cap = MaxWork / std::max<uint64_t>(1, G.P.numCommands());
    if (cheaperCount(G.numBits(), Cost, Cap) <= Cap) {
      for (uint32_t K = 0; K < Cost; ++K) {
        bool None = forEachSubset(G.numBits(), K, [&](const std::vector<bool> &B) {
          return !G.proves(B, Check, Counts.ForwardRuns);
        });
        if (!None) {
          wrong(Where + ": an abstraction of cost " + std::to_string(K) +
                " already proves it (reported " + std::to_string(Cost) + ")");
          return false;
        }
      }
      ++Counts.MinimalityEnumerated;
    } else if (R) {
      if (R->Verdict != "proven" || R->Cost != Cost) {
        wrong(Where + ": proven at cost " + std::to_string(Cost) +
              ", reference says " + R->Verdict + " at " +
              std::to_string(R->Cost));
        return false;
      }
      ++Counts.MinimalityByReference;
    } else {
      ++Counts.MinimalityUnchecked;
    }
  } else if (Verdict == "impossible") {
    if (G.proves(std::vector<bool>(G.numBits(), true), Check,
                 Counts.ForwardRuns)) {
      wrong(Where + ": reported impossible, but the most precise "
                    "abstraction proves it");
      return false;
    }
  } else if (Verdict == "unresolved") {
    if (R && R->Verdict != "unresolved") {
      wrong(Where + ": unresolved, reference says " + R->Verdict);
      return false;
    }
  } else {
    wrong(Where + ": unknown verdict '" + Verdict + "'");
    return false;
  }
  Ok = true;
  return true;
}

} // namespace perfbench
