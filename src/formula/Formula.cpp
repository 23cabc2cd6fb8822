//===- Formula.cpp - Boolean formula trees -----------------------------------===//

#include "formula/Formula.h"

#include <algorithm>

namespace optabs {
namespace formula {

struct Formula::Node {
  Kind K = Kind::True;
  Lit L;
  std::vector<Formula> Kids;
};

namespace {
const std::shared_ptr<const Formula::Node> &trueNode() {
  static const auto N = std::make_shared<const Formula::Node>();
  return N;
}
const std::shared_ptr<const Formula::Node> &falseNode() {
  static const auto N = [] {
    auto M = std::make_shared<Formula::Node>();
    M->K = Formula::Kind::False;
    return std::shared_ptr<const Formula::Node>(std::move(M));
  }();
  return N;
}
} // namespace

Formula::Formula() : N(trueNode()) {}
Formula::Formula(std::shared_ptr<const Node> N) : N(std::move(N)) {}

Formula Formula::constant(bool B) {
  return Formula(B ? trueNode() : falseNode());
}

Formula Formula::lit(Lit L) {
  auto M = std::make_shared<Node>();
  M->K = Kind::Literal;
  M->L = L;
  return Formula(std::move(M));
}

Formula Formula::conj(std::vector<Formula> Fs) {
  std::vector<Formula> Kids;
  for (Formula &F : Fs) {
    if (F.isFalse())
      return constant(false);
    if (F.isTrue())
      continue;
    // Flatten nested conjunctions.
    if (F.kind() == Kind::And) {
      for (const Formula &Kid : F.children())
        Kids.push_back(Kid);
    } else {
      Kids.push_back(std::move(F));
    }
  }
  if (Kids.empty())
    return constant(true);
  if (Kids.size() == 1)
    return Kids[0];
  auto M = std::make_shared<Node>();
  M->K = Kind::And;
  M->Kids = std::move(Kids);
  return Formula(std::move(M));
}

Formula Formula::disj(std::vector<Formula> Fs) {
  std::vector<Formula> Kids;
  for (Formula &F : Fs) {
    if (F.isTrue())
      return constant(true);
    if (F.isFalse())
      continue;
    if (F.kind() == Kind::Or) {
      for (const Formula &Kid : F.children())
        Kids.push_back(Kid);
    } else {
      Kids.push_back(std::move(F));
    }
  }
  if (Kids.empty())
    return constant(false);
  if (Kids.size() == 1)
    return Kids[0];
  auto M = std::make_shared<Node>();
  M->K = Kind::Or;
  M->Kids = std::move(Kids);
  return Formula(std::move(M));
}

Formula Formula::negate(const Formula &F) {
  switch (F.kind()) {
  case Kind::True:
    return constant(false);
  case Kind::False:
    return constant(true);
  case Kind::Literal:
    return lit(F.literal().negate());
  case Kind::And: {
    std::vector<Formula> Kids;
    Kids.reserve(F.children().size());
    for (const Formula &Kid : F.children())
      Kids.push_back(negate(Kid));
    return disj(std::move(Kids));
  }
  case Kind::Or: {
    std::vector<Formula> Kids;
    Kids.reserve(F.children().size());
    for (const Formula &Kid : F.children())
      Kids.push_back(negate(Kid));
    return conj(std::move(Kids));
  }
  }
  return constant(true);
}

Formula Formula::ite(const Formula &C, const Formula &T, const Formula &E) {
  return disj({conj({C, T}), conj({negate(C), E})});
}

Formula::Kind Formula::kind() const { return N->K; }

Lit Formula::literal() const {
  assert(kind() == Kind::Literal);
  return N->L;
}

const std::vector<Formula> &Formula::children() const { return N->Kids; }

bool Formula::eval(const AtomEval &Eval) const {
  switch (kind()) {
  case Kind::True:
    return true;
  case Kind::False:
    return false;
  case Kind::Literal:
    return literal().eval(Eval);
  case Kind::And:
    for (const Formula &Kid : children())
      if (!Kid.eval(Eval))
        return false;
    return true;
  case Kind::Or:
    for (const Formula &Kid : children())
      if (Kid.eval(Eval))
        return true;
    return false;
  }
  return false;
}

Dnf Formula::toDnf() const {
  switch (kind()) {
  case Kind::True:
    return Dnf::constTrue();
  case Kind::False:
    return Dnf::constFalse();
  case Kind::Literal:
    return Dnf::singleLit(literal());
  case Kind::Or: {
    Dnf Result;
    for (const Formula &Kid : children())
      Result.orWith(Kid.toDnf());
    Result.sortBySize();
    Result.simplify();
    return Result;
  }
  case Kind::And: {
    // Subsumed cubes are dropped after every product, not just the last:
    // a cube a of one factor that contains a cube a' of the same factor
    // only yields products a/\b that contain a'/\b, so the minimal cubes
    // of the final product - what sortBySize + simplify keep, in their
    // canonical order - are the same, while the intermediate products
    // (negated case splits multiply out exponentially) stay small.
    Dnf Result = Dnf::constTrue();
    for (const Formula &Kid : children()) {
      Result = Dnf::product(Result, Kid.toDnf());
      Result.sortBySize();
      Result.simplify();
    }
    return Result;
  }
  }
  return Dnf::constFalse();
}

std::string Formula::toString(
    const std::function<std::string(AtomId)> &AtomName) const {
  switch (kind()) {
  case Kind::True:
    return "true";
  case Kind::False:
    return "false";
  case Kind::Literal: {
    Lit L = literal();
    return (L.isNeg() ? "!" : "") + AtomName(L.atom());
  }
  case Kind::And:
  case Kind::Or: {
    const char *Sep = kind() == Kind::And ? " /\\ " : " \\/ ";
    std::string S = "(";
    for (size_t I = 0; I < children().size(); ++I) {
      if (I > 0)
        S += Sep;
      S += children()[I].toString(AtomName);
    }
    return S + ")";
  }
  }
  return "?";
}

} // namespace formula
} // namespace optabs
