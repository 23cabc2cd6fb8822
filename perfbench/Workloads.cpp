//===- Workloads.cpp - Seeded request scripts for the three workloads ----===//

#include "Workloads.h"

#include "ir/Parser.h"
#include "ir/Printer.h"
#include "pointer/PointsTo.h"
#include "synth/Generator.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <sstream>

namespace perfbench {

using optabs::Prng;

namespace {

constexpr unsigned NumTenants = 32;
constexpr unsigned BurstJobs = 8;

std::string printed(const optabs::ir::Program &P) {
  std::ostringstream OS;
  optabs::ir::printProgram(OS, P);
  return OS.str();
}

template <typename T> void shuffle(std::vector<T> &V, Prng &Rng) {
  for (size_t I = V.size(); I > 1; --I)
    std::swap(V[I - 1], V[Rng.nextBelow(I)]);
}

/// A figure-6-shape tenant: every procedure allocates an object, hands it
/// down a chain of field stores, and checks it, so the cheapest proving
/// abstraction maps every site of the chain to L. Tenant T has 10 + T % 9
/// procedures, half with chains of depth 1 and half of depth 2, and one in
/// eight publishes its chain to a global, which makes its check
/// impossible. The seed only shuffles which procedure gets which shape
/// and renames the sites, so each tenant's cost (and each shard's share
/// of it) is the same at every seed.
std::string tenantProgram(unsigned Tenant, Prng &Rng) {
  unsigned Procs = 10 + Tenant % 9;
  std::vector<std::pair<unsigned, bool>> Shapes; // (depth, publishes)
  for (unsigned I = 0; I < Procs; ++I)
    Shapes.emplace_back(1 + I % 2, I % 8 == 3);
  shuffle(Shapes, Rng);
  std::string T = "t" + std::to_string(Tenant) + "s" +
                  std::to_string(Rng.nextBelow(1000));
  std::string Text = "global g;\nproc main {\n";
  for (unsigned I = 1; I <= Procs; ++I)
    Text += "  call p" + std::to_string(I) + ";\n";
  Text += "}\n";
  for (unsigned I = 1; I <= Procs; ++I) {
    std::string N = std::to_string(I);
    auto [Depth, Publishes] = Shapes[I - 1];
    Text += "proc p" + N + " {\n";
    Text += "  u" + N + " = new ha" + N + T + ";\n";
    std::string Prev = "u" + N;
    for (unsigned D = 1; D <= Depth; ++D) {
      std::string V = "v" + N + "_" + std::to_string(D);
      Text += "  " + V + " = new hb" + N + "_" + std::to_string(D) + T + ";\n";
      Text += "  " + V + ".f = " + Prev + ";\n";
      Prev = V;
    }
    if (Publishes)
      Text += "  g = " + Prev + ";\n";
    Text += "  check(u" + N + ");\n";
    Text += "}\n";
  }
  return Text;
}

/// Lines of \p Text; the trailing newline of each is dropped.
std::vector<std::string> splitLines(const std::string &Text) {
  std::vector<std::string> Lines;
  std::istringstream IS(Text);
  std::string L;
  while (std::getline(IS, L))
    Lines.push_back(L);
  return Lines;
}

std::string joinLines(const std::vector<std::string> &Lines) {
  std::string Out;
  for (const std::string &L : Lines)
    Out += L + "\n";
  return Out;
}

bool isIdent(const std::string &S) {
  if (S.empty() || !(std::isalpha(static_cast<unsigned char>(S[0])) ||
                     S[0] == '_'))
    return false;
  for (char C : S)
    if (!(std::isalnum(static_cast<unsigned char>(C)) || C == '_'))
      return false;
  return true;
}

/// True for "  x.f = y;" and "  g = y;" with g a declared global: the
/// statements whose immediate repetition changes no analysis result and
/// interns no new entity (so the versions stay comparable).
bool isStore(const std::string &Line,
             const std::vector<std::string> &Globals) {
  size_t B = Line.find_first_not_of(' ');
  if (B == std::string::npos || Line.back() != ';')
    return false;
  std::string S = Line.substr(B, Line.size() - B - 1);
  size_t Eq = S.find(" = ");
  if (Eq == std::string::npos)
    return false;
  std::string Lhs = S.substr(0, Eq), Rhs = S.substr(Eq + 3);
  if (!isIdent(Rhs) || Rhs == "null")
    return false;
  size_t Dot = Lhs.find('.');
  if (Dot != std::string::npos)
    return isIdent(Lhs.substr(0, Dot)) && isIdent(Lhs.substr(Dot + 1));
  return std::find(Globals.begin(), Globals.end(), Lhs) != Globals.end();
}

} // namespace

std::string mainFirst(const std::string &Text) {
  std::vector<std::string> Lines = splitLines(Text);
  size_t Begin = Lines.size();
  for (size_t I = 0; I < Lines.size(); ++I)
    if (Lines[I] == "proc main {") {
      Begin = I;
      break;
    }
  if (Begin == Lines.size())
    return Text;
  size_t End = Begin;
  while (End < Lines.size() && Lines[End] != "}")
    ++End;
  if (End == Lines.size())
    return Text;
  size_t FirstProc = 0;
  while (FirstProc < Lines.size() && Lines[FirstProc].rfind("proc ", 0) != 0)
    ++FirstProc;
  std::vector<std::string> Main(Lines.begin() + Begin,
                                Lines.begin() + End + 1);
  Lines.erase(Lines.begin() + Begin, Lines.begin() + End + 1);
  Lines.insert(Lines.begin() + std::min(FirstProc, Lines.size()), Main.begin(),
               Main.end());
  return joinLines(Lines);
}

std::string duplicateOneStore(const std::string &Text, Prng &Rng) {
  std::vector<std::string> Lines = splitLines(Text);
  std::vector<std::string> Globals;
  // Procedure bodies as [first line, closing-brace line) ranges.
  std::vector<std::pair<size_t, size_t>> Procs;
  for (size_t I = 0; I < Lines.size(); ++I) {
    const std::string &L = Lines[I];
    if (L.rfind("global ", 0) == 0 && L.back() == ';')
      Globals.push_back(L.substr(7, L.size() - 8));
    if (L.rfind("proc ", 0) == 0) {
      size_t End = I + 1;
      while (End < Lines.size() && Lines[End] != "}")
        ++End;
      Procs.emplace_back(I + 1, End);
      I = End;
    }
  }
  std::vector<size_t> Candidates;
  for (size_t P = Procs.size(); P-- > 0 && Candidates.empty();)
    for (size_t I = Procs[P].first; I < Procs[P].second; ++I)
      if (isStore(Lines[I], Globals))
        Candidates.push_back(I);
  if (Candidates.empty())
    return Text;
  size_t At = Candidates[Rng.nextBelow(Candidates.size())];
  Lines.insert(Lines.begin() + At + 1, Lines[At]);
  return joinLines(Lines);
}

const std::vector<std::string> &Workload::names() {
  static const std::vector<std::string> Names = {"suite-cold", "tenants-hot",
                                                 "edit-requery"};
  return Names;
}

std::optional<Workload> Workload::make(const std::string &Name,
                                       uint64_t Seed) {
  // The unit-order stream is keyed by workload too, so two workloads at
  // one seed do not share a sequence.
  uint64_t Salt = 0;
  for (char C : Name)
    Salt = (Salt ^ static_cast<unsigned char>(C)) * 0x100000001b3ULL;
  Workload W(Name, Seed ^ Salt);
  if (Name == "suite-cold")
    W.buildSuiteCold();
  else if (Name == "tenants-hot")
    W.buildTenantsHot(Seed);
  else if (Name == "edit-requery")
    W.buildEditRequery();
  else
    return std::nullopt;
  return W;
}

void Workload::addProgram(std::string PName, std::string Text,
                          const std::vector<uint32_t> &EscChecks,
                          const std::vector<uint32_t> &TsChecks) {
  optabs::ir::Program P;
  std::string Err;
  bool Ok = optabs::ir::parseProgram(Text, P, Err);
  (void)Ok; // generated text always parses; the servers would say so too
  uint32_t Index = static_cast<uint32_t>(Programs.size());
  Programs.push_back({std::move(PName), std::move(Text)});
  std::vector<JobDef> ProgJobs;

  uint32_t Esc = static_cast<uint32_t>(Sessions.size());
  Sessions.push_back({Index, false});
  for (uint32_t C : EscChecks)
    ProgJobs.push_back({Esc, C, 0});
  if (!TsChecks.empty()) {
    // The harness's query plan: a type-state query is a (check, site)
    // pair for every site the checked variable may point to.
    uint32_t Ts = static_cast<uint32_t>(Sessions.size());
    Sessions.push_back({Index, true});
    optabs::pointer::PointsToResult Pt = optabs::pointer::runPointsTo(P);
    std::map<uint32_t, std::vector<uint32_t>> BySite;
    for (uint32_t C : TsChecks)
      Pt.pointsTo(P.checkSite(optabs::ir::CheckId(C)).Var)
          .forEach([&](size_t H) {
            BySite[static_cast<uint32_t>(H)].push_back(C);
          });
    for (const auto &[Site, Checks] : BySite)
      for (uint32_t C : Checks)
        ProgJobs.push_back({Ts, C, Site});
  }
  Jobs.push_back(std::move(ProgJobs));
}

void Workload::addSuiteProgram(const optabs::synth::BenchConfig &C,
                               bool MainFirst) {
  optabs::synth::Benchmark B = optabs::synth::generate(C);
  // The generator lists which checks each client queries: field accesses
  // for escape, method calls for type-state.
  std::vector<uint32_t> Esc, Ts;
  for (optabs::ir::CheckId Ch : B.EscChecks)
    Esc.push_back(Ch.index());
  for (optabs::ir::CheckId Ch : B.TsChecks)
    Ts.push_back(Ch.index());
  std::string Text = printed(B.P);
  addProgram(C.Name, MainFirst ? mainFirst(Text) : Text, Esc, Ts);
}

void Workload::buildSuiteCold() {
  // The programs are paperSuite()'s at every seed; the seed orders the
  // programs and the jobs. Re-seeding the generator moves the suite's
  // cost by +-20% from seed to seed, and which program holds the median
  // job, far beyond any bound the benchmark could keep.
  for (const optabs::synth::BenchConfig &C : optabs::synth::paperSuite())
    addSuiteProgram(C, false);
  CycleUnits = Programs.size();
  SlicesPer10s = 3; // one slice is one pass, ~10 s on 2 shards
}

void Workload::buildTenantsHot(uint64_t Seed) {
  Prng Gen(Seed * 0x9e3779b97f4a7c15ULL + 0x7e11a175ULL);
  for (unsigned T = 0; T < NumTenants; ++T) {
    char Name[8];
    std::snprintf(Name, sizeof(Name), "t%02u", T);
    std::string Text = tenantProgram(T, Gen);
    optabs::ir::Program P;
    std::string Err;
    optabs::ir::parseProgram(Text, P, Err);
    std::vector<uint32_t> All;
    for (uint32_t C = 0; C < P.numChecks(); ++C)
      All.push_back(C);
    addProgram(Name, std::move(Text), All, {});
  }
  CycleUnits = 1;
  SlicesPer10s = 8; // ~2 s per 1000 jobs
  TracedSlices = 2;
}

void Workload::buildEditRequery() {
  // tsp, hedc, weblech as in paperSuite(): their content stays fixed and
  // the seed picks the edits. Re-seeding them moves the cost of the dirty
  // checks (and with it every metric) by up to 5x from seed to seed.
  const auto &Suite = optabs::synth::paperSuite();
  for (size_t I : {size_t(0), size_t(2), size_t(3)})
    addSuiteProgram(Suite[I], true);
  for (const ProgramDef &P : Programs)
    CurrentText.push_back(P.Text);
  CacheDir = true;
  CycleUnits = Programs.size();
  SlicesPer10s = 30; // ~0.3 s per 1000 jobs; more slices steady the median
  TracedSlices = 10;
}

size_t Workload::timedSlices(double Seconds) const {
  double N = std::round(static_cast<double>(SlicesPer10s) * Seconds / 10.0);
  return std::max<size_t>(3, static_cast<size_t>(N));
}

Unit Workload::submits(const std::vector<JobDef> &Defs) {
  Unit U;
  for (const JobDef &D : Defs) {
    Step S;
    S.K = Step::Kind::Submit;
    S.Job = D;
    U.push_back(S);
  }
  return U;
}

std::vector<Unit> Workload::primingUnits() const {
  std::vector<Unit> Units;
  if (!CacheDir)
    return Units;
  for (uint32_t P = 0; P < Programs.size(); ++P) {
    Unit U = submits(Jobs[P]);
    U.push_back({Step::Kind::Drain, 0, {}, {}});
    U.push_back({Step::Kind::Persist, P, {}, {}});
    Units.push_back(std::move(U));
  }
  return Units;
}

std::vector<Unit> Workload::warmupUnits() const {
  std::vector<Unit> Units;
  if (Name != "tenants-hot")
    return Units;
  for (uint32_t P = 0; P < Programs.size(); ++P) {
    Unit U = submits(Jobs[P]);
    U.push_back({Step::Kind::Drain, 0, {}, {}});
    Units.push_back(std::move(U));
  }
  return Units;
}

Unit Workload::nextUnit() {
  size_t N = Drawn++;
  Unit U;
  if (Name == "suite-cold") {
    if (N % CycleUnits == 0) {
      Order.resize(Programs.size());
      for (uint32_t I = 0; I < Order.size(); ++I)
        Order[I] = I;
      shuffle(Order, Rng);
    }
    uint32_t P = Order[N % CycleUnits];
    std::vector<JobDef> J = Jobs[P];
    shuffle(J, Rng);
    U = submits(J);
    U.push_back({Step::Kind::Drain, 0, {}, {}});
    U.push_back({Step::Kind::Evict, P, {}, {}});
  } else if (Name == "tenants-hot") {
    for (unsigned I = 0; I < BurstJobs; ++I) {
      uint32_t P = static_cast<uint32_t>(Rng.nextBelow(Programs.size()));
      const std::vector<JobDef> &J = Jobs[P];
      Step S;
      S.K = Step::Kind::Submit;
      S.Job = J[Rng.nextBelow(J.size())];
      U.push_back(S);
    }
    U.push_back({Step::Kind::Drain, 0, {}, {}});
  } else {
    uint32_t P = static_cast<uint32_t>(N % Programs.size());
    // Every version is the original plus one repeated store, so the
    // program does not grow over a run; a new version always differs
    // from the one it replaces (when the procedure has two stores).
    std::string Next = duplicateOneStore(Programs[P].Text, Rng);
    for (int Try = 0; Try < 8 && Next == CurrentText[P]; ++Try)
      Next = duplicateOneStore(Programs[P].Text, Rng);
    CurrentText[P] = Next;
    U.push_back({Step::Kind::Register, P, CurrentText[P], {}});
    Unit Q = submits(Jobs[P]);
    U.insert(U.end(), Q.begin(), Q.end());
    U.push_back({Step::Kind::Drain, 0, {}, {}});
    U.push_back({Step::Kind::Persist, P, {}, {}});
  }
  return U;
}

} // namespace perfbench
