//===- Certificates.h - Independent verdict validation ---------*- C++ -*-===//
//
// Part of the optabs project, a reproduction of "Finding Optimum
// Abstractions in Parametric Dataflow Analysis" (PLDI 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Post-run certificate checking: every verdict TRACER emits is validated
/// by an independent computation that does not trust the CEGAR loop's
/// bookkeeping.
///
///   Proven p:     re-run the forward analysis under p and confirm no
///                 state at the check satisfies not(q); confirm the stored
///                 cost/param strings match p; replay the learned viable
///                 CNF through MinCostSat and confirm p is viable and that
///                 no strictly cheaper viable abstraction exists
///                 (minimality, Algorithm 1 line 8).
///   Impossible:   confirm the learned CNF really is unsatisfiable
///                 (line 6).
///   Eliminated:   sample N random abstractions the CNF rules out and
///                 confirm each one actually fails the query when run
///                 forward (soundness of the backward meta-analysis,
///                 Theorem 3: eliminated implies failing).
///
/// Certificate checking costs extra forward fixpoints (memoized across
/// queries), so it sits behind the --audit flag rather than always-on.
///
//===----------------------------------------------------------------------===//

#ifndef OPTABS_TRACER_CERTIFICATES_H
#define OPTABS_TRACER_CERTIFICATES_H

#include "dataflow/Forward.h"
#include "tracer/MinCostSat.h"
#include "tracer/QueryDriver.h"

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace optabs {
namespace tracer {

/// One failed certificate check.
struct CertificateIssue {
  size_t Query = 0;   ///< index into the outcome vector
  std::string Kind;   ///< stable identifier, e.g. "proof-refuted"
  std::string Detail; ///< human-readable explanation
};

struct CertificateOptions {
  /// Validate minimality of proven costs against the viable CNF. Disable
  /// for strategies that do not promise minimal abstractions (GreedyGrow).
  bool CheckMinimality = true;
  /// Eliminated abstractions spot-checked per query (Theorem 3 soundness).
  unsigned SampleEliminated = 4;
  /// Seed of the deterministic sampling PRNG.
  uint64_t Seed = 0x9e3779b97f4a7c15ULL;
};

struct CertificateReport {
  unsigned ProvenChecked = 0;
  unsigned ImpossibleChecked = 0;
  unsigned MinimalityChecked = 0;
  unsigned EliminatedSampled = 0;
  std::vector<CertificateIssue> Issues;

  bool ok() const { return Issues.empty(); }
};

/// Validates driver outcomes against the program. \p Analysis is the same
/// bundle QueryDriver is instantiated with.
template <typename Analysis> class CertificateChecker {
public:
  using Param = typename Analysis::Param;
  using State = typename Analysis::State;
  using Forward = dataflow::ForwardAnalysis<Analysis>;

  CertificateChecker(const ir::Program &P, const Analysis &A,
                     CertificateOptions Options = CertificateOptions())
      : P(P), A(A), Options(Options) {}

  /// Checks every outcome. \p ViableSets must be parallel to \p Outcomes
  /// (QueryDriver::finalViableSets()); an empty vector skips the CNF-based
  /// checks (minimality, impossibility, eliminated sampling) and validates
  /// proofs only.
  CertificateReport check(const std::vector<QueryOutcome> &Outcomes,
                          const std::vector<Cnf> &ViableSets) {
    CertificateReport Report;
    bool HaveViable = ViableSets.size() == Outcomes.size();
    for (size_t I = 0; I < Outcomes.size(); ++I) {
      const QueryOutcome &Out = Outcomes[I];
      switch (Out.V) {
      case Verdict::Proven:
        checkProven(I, Out, HaveViable ? &ViableSets[I] : nullptr, Report);
        break;
      case Verdict::Impossible:
        if (HaveViable)
          checkImpossible(I, ViableSets[I], Report);
        break;
      case Verdict::Unresolved:
        break; // no claim, nothing to certify
      }
      if (HaveViable && Out.V != Verdict::Impossible)
        sampleEliminated(I, Out, ViableSets[I], Report);
    }
    return Report;
  }

private:
  void checkProven(size_t I, const QueryOutcome &Out, const Cnf *Viable,
                   CertificateReport &Report) {
    ++Report.ProvenChecked;
    if (Out.CheapestBits.size() != A.numParamBits()) {
      Report.Issues.push_back(
          {I, "missing-witness",
           "proven verdict carries no abstraction bit-vector"});
      return;
    }
    Param Prm = A.paramFromBits(Out.CheapestBits);
    if (A.paramCost(Prm) != Out.CheapestCost)
      Report.Issues.push_back(
          {I, "cost-mismatch",
           "stored cost " + std::to_string(Out.CheapestCost) +
               " != recomputed cost " + std::to_string(A.paramCost(Prm))});
    if (A.paramToString(Prm) != Out.CheapestParam)
      Report.Issues.push_back(
          {I, "param-mismatch", "stored parameter string '" +
                                    Out.CheapestParam +
                                    "' does not decode from the witness"});
    if (failsQuery(Out.CheapestBits, Prm, Out.Check))
      Report.Issues.push_back(
          {I, "proof-refuted",
           "re-running the forward analysis under the proving abstraction "
           "reaches a failing state"});
    if (Viable && Options.CheckMinimality) {
      ++Report.MinimalityChecked;
      if (!Viable->eval(Out.CheapestBits))
        Report.Issues.push_back(
            {I, "proven-not-viable",
             "the proving abstraction violates the learned viable CNF"});
      auto Model = solveMinCost(*Viable, A.numParamBits());
      if (!Model)
        Report.Issues.push_back(
            {I, "minimality-unsat",
             "proven verdict but the learned viable set is empty"});
      else if (Model->Cost != Out.CheapestCost)
        Report.Issues.push_back(
            {I, "not-minimal",
             "viable CNF admits cost " + std::to_string(Model->Cost) +
                 " but the verdict claims " +
                 std::to_string(Out.CheapestCost)});
    }
  }

  void checkImpossible(size_t I, const Cnf &Viable,
                       CertificateReport &Report) {
    ++Report.ImpossibleChecked;
    if (auto Model = solveMinCost(Viable, A.numParamBits()))
      Report.Issues.push_back(
          {I, "impossible-refuted",
           "viable CNF still admits a model of cost " +
               std::to_string(Model->Cost)});
  }

  /// Theorem 3 spot check: abstractions the CNF rules out must genuinely
  /// fail the query. A viable sample teaches nothing and is skipped.
  void sampleEliminated(size_t I, const QueryOutcome &Out, const Cnf &Viable,
                        CertificateReport &Report) {
    if (Viable.size() == 0 || Options.SampleEliminated == 0)
      return;
    uint64_t Rng = Options.Seed ^ (0x2545f4914f6cdd1dULL * (I + 1));
    unsigned Bits = A.numParamBits();
    for (unsigned S = 0; S < Options.SampleEliminated; ++S) {
      std::vector<bool> Sample(Bits);
      for (unsigned B = 0; B < Bits; ++B)
        Sample[B] = (splitmix64(Rng) & 1) != 0;
      if (Viable.eval(Sample))
        continue; // not eliminated; nothing to certify
      ++Report.EliminatedSampled;
      Param Prm = A.paramFromBits(Sample);
      if (!failsQuery(Sample, Prm, Out.Check))
        Report.Issues.push_back(
            {I, "eliminated-viable",
             "abstraction " + A.paramToString(Prm) +
                 " was eliminated by the viable CNF but proves the query"});
    }
  }

  /// True iff some forward state at \p Check satisfies not(q) under the
  /// abstraction \p Prm. Forward runs are memoized across all checks.
  bool failsQuery(const std::vector<bool> &Bits, const Param &Prm,
                  ir::CheckId Check) {
    Forward &Run = forwardRun(Bits, Prm);
    formula::Dnf NotQ = A.notQ(Check);
    for (dataflow::StateId Id : Run.statesAtCheckIds(Check)) {
      bool IsFail = NotQ.eval([&](formula::AtomId Atom) {
        return A.evalAtom(Atom, Prm, Run.state(Id));
      });
      if (IsFail)
        return true;
    }
    return false;
  }

  Forward &forwardRun(const std::vector<bool> &Bits, const Param &Prm) {
    auto It = Runs.find(Bits);
    if (It != Runs.end())
      return *It->second;
    auto Run = std::make_unique<Forward>(P, A, Prm);
    Run->run(A.initialState());
    return *Runs.emplace(Bits, std::move(Run)).first->second;
  }

  static uint64_t splitmix64(uint64_t &X) {
    X += 0x9e3779b97f4a7c15ULL;
    uint64_t Z = X;
    Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebULL;
    return Z ^ (Z >> 31);
  }

  const ir::Program &P;
  const Analysis &A;
  CertificateOptions Options;
  std::map<std::vector<bool>, std::unique_ptr<Forward>> Runs;
};

/// Audit evidence folded over driver runs, with one "<label>: ..." note
/// per invariant violation and failed certificate.
struct AuditTally {
  size_t InvariantViolations = 0;
  unsigned CertificatesChecked = 0;
  unsigned CertificateFailures = 0;
  std::vector<std::string> AuditNotes;
};

/// Folds one driver run's invariant records into \p T and, under
/// Cfg.Audit.Enabled, its certificate checks. GreedyGrow never promises
/// minimal abstractions, so minimality goes unchecked under greedy-grow.
template <typename Analysis>
void auditRun(const ir::Program &P, const Analysis &A, const Config &Cfg,
              const QueryDriver<Analysis> &Driver,
              const std::vector<QueryOutcome> &Outcomes,
              const std::string &Label, AuditTally &T) {
  for (const support::InvariantViolation &V : Driver.stats().Violations)
    T.AuditNotes.push_back(Label + ": invariant violation [" + V.Check +
                           "] in " + V.Where + ": " + V.Message);
  T.InvariantViolations += Driver.stats().Violations.size();
  if (!Cfg.Audit.Enabled)
    return;
  CertificateOptions Options;
  Options.CheckMinimality = Cfg.Execution.Strategy != "greedy-grow";
  CertificateReport R = CertificateChecker<Analysis>(P, A, Options)
                            .check(Outcomes, Driver.finalViableSets());
  T.CertificatesChecked += R.ProvenChecked + R.ImpossibleChecked +
                           R.MinimalityChecked + R.EliminatedSampled;
  T.CertificateFailures += static_cast<unsigned>(R.Issues.size());
  for (const CertificateIssue &I : R.Issues)
    T.AuditNotes.push_back(Label + ": certificate failure [" + I.Kind +
                           "] query " + std::to_string(I.Query) + ": " +
                           I.Detail);
}

} // namespace tracer
} // namespace optabs

#endif // OPTABS_TRACER_CERTIFICATES_H
