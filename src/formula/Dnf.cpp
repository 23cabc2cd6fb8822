//===- Dnf.cpp - Literals, cubes and DNF formulas ---------------------------===//

#include "formula/Dnf.h"

#include "support/Budget.h"
#include "support/Invariants.h"
#include "support/Metrics.h"

#include <algorithm>

namespace optabs {
namespace formula {

std::optional<Cube> Cube::make(Lit *Lits, size_t N) {
  std::sort(Lits, Lits + N);
  N = static_cast<size_t>(std::unique(Lits, Lits + N) - Lits);
  // Complementary literals of one atom are adjacent after sorting.
  for (size_t I = 0; I + 1 < N; ++I)
    if (Lits[I].atom() == Lits[I + 1].atom())
      return std::nullopt;
  Cube C;
  C.Lits.assign(Lits, N);
  for (size_t I = 0; I < N; ++I)
    C.Sig |= sigBit(Lits[I].atom());
  return C;
}

std::optional<Cube> Cube::conjoin(const Cube &A, const Cube &B) {
  if (A.isTrue())
    return B;
  if (B.isTrue())
    return A;
  // No up-front reserve: the merged cube is often much shorter than the
  // two inputs together (shared literals, early contradiction), and
  // reserving their sum would put cubes that fit inline on the heap.
  Cube R;
  R.Sig = A.Sig | B.Sig;
  const Lit *PA = A.Lits.begin(), *EA = A.Lits.end();
  const Lit *PB = B.Lits.begin(), *EB = B.Lits.end();
  if ((A.Sig & B.Sig) == 0) {
    // Disjoint atom signatures: the cubes share no atom (equal atoms would
    // share a signature bit), so neither duplicates nor complementary pairs
    // can arise - a plain unchecked merge suffices.
    while (PA != EA && PB != EB)
      R.Lits.push_back(*PB < *PA ? *PB++ : *PA++);
  } else {
    while (PA != EA && PB != EB) {
      if (*PA == *PB) {
        R.Lits.push_back(*PA);
        ++PA;
        ++PB;
      } else if (PA->atom() == PB->atom()) {
        return std::nullopt; // a and !a: contradiction
      } else {
        R.Lits.push_back(*PB < *PA ? *PB++ : *PA++);
      }
    }
  }
  // Both inputs are sorted and duplicate-free, so the merged tail needs no
  // further checks.
  for (; PA != EA; ++PA)
    R.Lits.push_back(*PA);
  for (; PB != EB; ++PB)
    R.Lits.push_back(*PB);
  return R;
}

bool Cube::implies(const Cube &Other) const {
  // this => Other iff Other's literals are a subset of ours. An atom
  // present in Other but absent here shows up as a signature bit Other has
  // that we lack - reject on one word op before the literal scan.
  if ((Other.Sig & ~Sig) != 0 || Other.Lits.size() > Lits.size())
    return false;
  return std::includes(Lits.begin(), Lits.end(), Other.Lits.begin(),
                       Other.Lits.end());
}

void Dnf::sortBySize() {
  std::sort(Cubes.begin(), Cubes.end(), [](const Cube &A, const Cube &B) {
    if (A.size() != B.size())
      return A.size() < B.size();
    return A.literals() < B.literals();
  });
  Cubes.erase(std::unique(Cubes.begin(), Cubes.end()), Cubes.end());
}

void Dnf::simplify() {
  std::vector<Cube> Kept;
  for (Cube &Candidate : Cubes) {
    bool Subsumed = false;
    for (const Cube &Earlier : Kept) {
      if (Candidate.implies(Earlier)) {
        Subsumed = true;
        break;
      }
    }
    if (!Subsumed)
      Kept.push_back(std::move(Candidate));
  }
  Cubes = std::move(Kept);
}

void Dnf::dropK(unsigned K, const AtomEval &Eval,
                support::InvariantSink *Sink) {
  if (K < 1) {
    support::reportInvariant(Sink, "dropk-beam-width", "Dnf::dropK",
                             "beam width must be at least 1; formula left "
                             "unpruned");
    return;
  }
  if (Cubes.size() <= K)
    return;
  if (support::metricsEnabled()) {
    auto &Reg = support::MetricRegistry::global();
    static auto &Calls = Reg.counter("optabs_dnf_dropk_calls_total");
    static auto &Dropped = Reg.counter("optabs_dnf_dropk_cubes_dropped_total");
    Calls.add(1);
    Dropped.add(Cubes.size() - K);
  }
  bool HaveSatisfied = false;
  for (size_t I = 0; I < K; ++I) {
    if (Cubes[I].eval(Eval)) {
      HaveSatisfied = true;
      break;
    }
  }
  std::vector<Cube> Kept(Cubes.begin(), Cubes.begin() + K);
  if (!HaveSatisfied) {
    // A satisfied cube must be retained but none sits in the prefix: trade
    // the K-th cube for the shortest satisfied one beyond it (cubes are
    // sorted by size, so the first satisfied one is the shortest).
    Kept.pop_back();
    bool Found = false;
    for (size_t I = K - 1; I < Cubes.size(); ++I) {
      if (Cubes[I].eval(Eval)) {
        Kept.push_back(Cubes[I]);
        Found = true;
        break;
      }
    }
    if (!Found) {
      // Theorem 3's progress guarantee requires the current (p, d) to
      // satisfy the formula here. Keep the first K cubes - still a sound
      // under-approximation - and flag that progress is no longer
      // guaranteed so the driver can recover (it falls back to eliminating
      // the current abstraction explicitly).
      support::reportInvariant(
          Sink, "dropk-progress", "Dnf::dropK",
          "no disjunct of the " + std::to_string(Cubes.size()) +
              "-cube formula is satisfied by the current (p, d); Theorem 3 "
              "progress guarantee lost");
      Kept.push_back(Cubes[K - 1]);
    }
  }
  Cubes = std::move(Kept);
}

void Dnf::approx(unsigned K, const AtomEval &Eval,
                 support::InvariantSink *Sink) {
  sortBySize();
  simplify();
  if (K > 0 && Cubes.size() > K)
    dropK(K, Eval, Sink);
}

void Dnf::orWith(const Dnf &Other) {
  Cubes.insert(Cubes.end(), Other.Cubes.begin(), Other.Cubes.end());
}

void Dnf::productInto(Dnf &Result, const Dnf &A, const Dnf &B,
                      size_t SoftCap, const AtomEval &Eval,
                      support::InvariantSink *Sink,
                      support::BudgetGate *Gate) {
  assert(&Result != &A && &Result != &B);
  Result.Cubes.clear();
  if (support::faultsEnabled()) {
    // This site runs under the caller's gate (if any), so armed faults are
    // consulted by name here: Alloc throws from faultPoint itself;
    // Cancel/Invariant are realized against the gate when one exists.
    if (auto K = support::faultPoint("dnf.product"); K && Gate) {
      if (*K == support::FaultKind::Invariant)
        reportInvariant(Sink, "injected-fault", "dnf.product",
                        "fault injection: forced invariant breakage");
      Gate->exhaust(support::Resource::Cancelled);
    }
  }
  if (Gate) {
    // Charge the full cross-product size up front: the cost of this call is
    // |A| * |B| conjunctions whether or not they survive pruning, and the
    // count is schedule-independent, so a step budget trips here at the
    // same term on every NumThreads. An exhausted gate yields false — a
    // sound under-approximation, flagged to the caller via the gate itself.
    if (!Gate->charge(A.Cubes.size() * B.Cubes.size()))
      return;
  }
  // Reserve for the full cross product, clamped so a huge (soon-pruned)
  // product does not balloon the allocation.
  size_t Hint = A.Cubes.size() * B.Cubes.size();
  Result.Cubes.reserve(SoftCap > 0 ? std::min(Hint, SoftCap + 1) : Hint);
  for (const Cube &CA : A.Cubes) {
    for (const Cube &CB : B.Cubes) {
      if (auto C = Cube::conjoin(CA, CB))
        Result.Cubes.push_back(std::move(*C));
    }
  }
  if (support::metricsEnabled()) {
    auto &Reg = support::MetricRegistry::global();
    static auto &Calls = Reg.counter("optabs_dnf_product_calls_total");
    static auto &Cubes = Reg.histogram("optabs_dnf_product_cubes");
    Calls.add(1);
    Cubes.record(Result.Cubes.size());
  }
  if (SoftCap > 0 && Result.Cubes.size() > SoftCap) {
    // Sound mid-product pruning: keep the cap's worth of shortest cubes,
    // preferring a satisfied cube when one exists so the progress invariant
    // can be maintained downstream. Unlike dropK, no satisfied cube need
    // exist here: the product of a single source cube's substitution may
    // well be unsatisfied under the current (p, d) even though the overall
    // formula is satisfied.
    Result.sortBySize();
    Result.simplify();
    if (Result.Cubes.size() > SoftCap) {
      std::vector<Cube> Kept(Result.Cubes.begin(),
                             Result.Cubes.begin() + (SoftCap - 1));
      bool HaveSatisfied = false;
      for (const Cube &C : Kept) {
        if (C.eval(Eval)) {
          HaveSatisfied = true;
          break;
        }
      }
      size_t Extra = SoftCap - 1;
      for (size_t I = SoftCap - 1; !HaveSatisfied && I < Result.Cubes.size();
           ++I) {
        if (Result.Cubes[I].eval(Eval)) {
          Extra = I;
          HaveSatisfied = true;
        }
      }
      Kept.push_back(Result.Cubes[Extra]);
      // Retention invariant of the pruning path: whenever a satisfied cube
      // existed anywhere in the full product, the kept prefix must still
      // contain one - otherwise the downstream dropk progress guarantee is
      // silently broken mid-product.
      if (HaveSatisfied && !Kept.back().eval(Eval)) {
        bool KeptSatisfied = false;
        for (const Cube &C : Kept) {
          if (C.eval(Eval)) {
            KeptSatisfied = true;
            break;
          }
        }
        if (!KeptSatisfied)
          support::reportInvariant(
              Sink, "product-softcap-retention", "Dnf::product",
              "soft-cap pruning dropped every satisfied cube of a " +
                  std::to_string(Result.Cubes.size()) + "-cube product");
      }
      Result.Cubes = std::move(Kept);
    }
  }
}

std::string Dnf::toString(
    const std::function<std::string(AtomId)> &AtomName) const {
  if (isFalse())
    return "false";
  if (isTrue())
    return "true";
  std::string S;
  for (size_t I = 0; I < Cubes.size(); ++I) {
    if (I > 0)
      S += " \\/ ";
    const Cube &C = Cubes[I];
    if (C.isTrue()) {
      S += "true";
      continue;
    }
    if (C.size() > 1 && Cubes.size() > 1)
      S += "(";
    for (size_t J = 0; J < C.size(); ++J) {
      if (J > 0)
        S += " /\\ ";
      Lit L = C.literals()[J];
      if (L.isNeg())
        S += "!";
      S += AtomName(L.atom());
    }
    if (C.size() > 1 && Cubes.size() > 1)
      S += ")";
  }
  return S;
}

} // namespace formula
} // namespace optabs
