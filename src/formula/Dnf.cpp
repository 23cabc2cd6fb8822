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
  // Merge into scratch, then copy the result once: a result past the
  // inline capacity is allocated exactly once (growing it literal by
  // literal reallocated at 6, 12 and 24 literals), and a result that fits
  // inline, or a contradiction, touches no heap.
  constexpr size_t StackLits = 64;
  Lit Stack[StackLits];
  thread_local std::vector<Lit> Spill;
  Lit *Out = Stack;
  if (A.size() + B.size() > StackLits) {
    if (Spill.size() < A.size() + B.size())
      Spill.resize(A.size() + B.size());
    Out = Spill.data();
  }
  Lit *W = Out;
  const Lit *PA = A.Lits.begin(), *EA = A.Lits.end();
  const Lit *PB = B.Lits.begin(), *EB = B.Lits.end();
  if ((A.Sig & B.Sig) == 0) {
    // Disjoint atom signatures: the cubes share no atom (equal atoms would
    // share a signature bit), so neither duplicates nor complementary pairs
    // can arise - a plain unchecked merge suffices.
    while (PA != EA && PB != EB)
      *W++ = *PB < *PA ? *PB++ : *PA++;
  } else {
    while (PA != EA && PB != EB) {
      if (*PA == *PB) {
        *W++ = *PA;
        ++PA;
        ++PB;
      } else if (PA->atom() == PB->atom()) {
        return std::nullopt; // a and !a: contradiction
      } else {
        *W++ = *PB < *PA ? *PB++ : *PA++;
      }
    }
  }
  // Both inputs are sorted and duplicate-free, so the merged tail needs no
  // further checks.
  W = std::copy(PA, EA, W);
  W = std::copy(PB, EB, W);
  Cube R;
  R.Sig = A.Sig | B.Sig;
  R.Lits.assign(Out, static_cast<size_t>(W - Out));
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

bool Cube::contradicts(const Cube &Other) const {
  // A complementary pair shares its atom, hence a signature bit.
  if ((Sig & Other.Sig) == 0)
    return false;
  const Lit *PA = Lits.begin(), *EA = Lits.end();
  const Lit *PB = Other.Lits.begin(), *EB = Other.Lits.end();
  while (PA != EA && PB != EB) {
    if (*PA == *PB) {
      ++PA;
      ++PB;
    } else if (PA->atom() == PB->atom()) {
      return true;
    } else if (*PA < *PB) {
      ++PA;
    } else {
      ++PB;
    }
  }
  return false;
}

namespace {

/// A cube's sort key: its size, its literals in place, and its position.
/// Sorting these 16-byte keys instead of the 40-byte cubes moves less and
/// reads raw literal arrays without LitVec's inline/heap branch.
struct SortKey {
  uint32_t Size;
  uint32_t Index;
  const Lit *Lits;
};

/// Sorts [Lo, Hi), keys of one size whose literals before \p Depth are
/// equal, lexicographically from \p Depth on. A multikey (three-way
/// radix) quicksort: each partition reads one literal position, so the
/// long prefixes that cubes of one product share are not compared over
/// and over, as a comparison sort would.
void sortFromDepth(SortKey *Lo, SortKey *Hi, uint32_t Depth) {
  while (Hi - Lo > 1 && Depth < Lo->Size) {
    if (Hi - Lo < 12) {
      for (SortKey *I = Lo + 1; I < Hi; ++I) {
        SortKey Key = *I;
        SortKey *J = I;
        for (; J > Lo; --J) {
          const Lit *A = Key.Lits + Depth, *B = (J - 1)->Lits + Depth;
          const Lit *End = Key.Lits + Key.Size;
          while (A != End && *A == *B) {
            ++A;
            ++B;
          }
          if (A == End || !(*A < *B))
            break;
          *J = *(J - 1);
        }
        *J = Key;
      }
      return;
    }
    auto At = [Depth](const SortKey *K) { return K->Lits[Depth].raw(); };
    uint32_t X = At(Lo), Y = At(Lo + (Hi - Lo) / 2), Z = At(Hi - 1);
    uint32_t Pivot = std::max(std::min(X, Y), std::min(std::max(X, Y), Z));
    SortKey *Lt = Lo, *I = Lo, *Gt = Hi;
    while (I < Gt) {
      uint32_t V = At(I);
      if (V < Pivot)
        std::swap(*Lt++, *I++);
      else if (V > Pivot)
        std::swap(*I, *--Gt);
      else
        ++I;
    }
    sortFromDepth(Lo, Lt, Depth);
    sortFromDepth(Gt, Hi, Depth);
    Lo = Lt;
    Hi = Gt;
    ++Depth;
  }
}

} // namespace

void Dnf::sortBySize() {
  if (Cubes.size() < 2)
    return;
  // Keys that compare equal belong to equal cubes, so the unstable sort
  // yields the same sequence as sorting the cubes themselves.
  thread_local std::vector<SortKey> Keys;
  Keys.clear();
  for (size_t I = 0; I < Cubes.size(); ++I)
    Keys.push_back({static_cast<uint32_t>(Cubes[I].size()),
                    static_cast<uint32_t>(I), Cubes[I].literals().begin()});
  std::sort(Keys.begin(), Keys.end(),
            [](const SortKey &A, const SortKey &B) { return A.Size < B.Size; });
  for (size_t Begin = 0, End; Begin < Keys.size(); Begin = End) {
    End = Begin + 1;
    while (End < Keys.size() && Keys[End].Size == Keys[Begin].Size)
      ++End;
    sortFromDepth(Keys.data() + Begin, Keys.data() + End, 0);
  }
  // Position I takes the cube at Keys[I].Index. Apply that permutation in
  // place, one cycle at a time, marking each filled position done by
  // pointing its key at itself. The key's literal pointers are dead from
  // here on: moving a cube moves its inline literals.
  for (uint32_t I = 0; I < Keys.size(); ++I) {
    if (Keys[I].Index == I)
      continue;
    Cube Held = std::move(Cubes[I]);
    uint32_t J = I;
    for (;;) {
      uint32_t From = Keys[J].Index;
      Keys[J].Index = J;
      if (From == I) {
        Cubes[J] = std::move(Held);
        break;
      }
      Cubes[J] = std::move(Cubes[From]);
      J = From;
    }
  }
  Cubes.erase(std::unique(Cubes.begin(), Cubes.end()), Cubes.end());
}

bool Dnf::isSortedBySize() const {
  for (size_t I = 1; I < Cubes.size(); ++I) {
    const Cube &A = Cubes[I - 1], &B = Cubes[I];
    if (A.size() > B.size() ||
        (A.size() == B.size() && !(A.literals() < B.literals())))
      return false;
  }
  return true;
}

void Dnf::simplify() {
  size_t Kept = 0;
  for (size_t I = 0; I < Cubes.size(); ++I) {
    bool Subsumed = false;
    for (size_t J = 0; J < Kept; ++J) {
      if (Cubes[I].implies(Cubes[J])) {
        Subsumed = true;
        break;
      }
    }
    if (Subsumed)
      continue;
    if (Kept != I)
      Cubes[Kept] = std::move(Cubes[I]);
    ++Kept;
  }
  Cubes.erase(Cubes.begin() + Kept, Cubes.end());
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
  // Charge the full cross-product size up front: the cost of this call is
  // |A| * |B| conjunctions whether or not they survive pruning, and the
  // count is schedule-independent, so a step budget trips here at the same
  // term on every NumThreads. An exhausted gate yields false — a sound
  // under-approximation, flagged to the caller via the gate itself.
  if (!chargeProduct(A.Cubes.size() * B.Cubes.size(), Sink, Gate))
    return;
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

bool Dnf::chargeProduct(uint64_t Units, support::InvariantSink *Sink,
                        support::BudgetGate *Gate) {
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
  return !Gate || Gate->charge(Units);
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
