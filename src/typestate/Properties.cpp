//===- Properties.cpp - Canonical type-state properties -----------------------===//

#include "typestate/Properties.h"

#include <sstream>

namespace optabs {
namespace typestate {

using ir::MethodId;
using ir::Program;

TypestateSpec makeFileProperty(Program &P) {
  TypestateSpec Spec("closed");
  uint32_t Closed = 0;
  uint32_t Opened = Spec.addState("opened");
  MethodId Open = P.makeMethod("open");
  MethodId Close = P.makeMethod("close");
  Spec.addTransition(Open, Closed, Opened);
  Spec.addErrorTransition(Open, Opened);
  Spec.addTransition(Close, Opened, Closed);
  Spec.addErrorTransition(Close, Closed);
  return Spec;
}

TypestateSpec makeIteratorProperty(Program &P) {
  TypestateSpec Spec("unknown");
  uint32_t Unknown = 0;
  uint32_t Ready = Spec.addState("ready");
  MethodId HasNext = P.makeMethod("hasNext");
  MethodId Next = P.makeMethod("next");
  Spec.addTransition(HasNext, Unknown, Ready);
  Spec.addTransition(HasNext, Ready, Ready);
  Spec.addTransition(Next, Ready, Unknown);
  Spec.addErrorTransition(Next, Unknown);
  return Spec;
}

TypestateSpec makeSocketProperty(Program &P) {
  TypestateSpec Spec("fresh");
  uint32_t Fresh = 0;
  uint32_t Connected = Spec.addState("connected");
  uint32_t Closed = Spec.addState("closed");
  MethodId Connect = P.makeMethod("connect");
  MethodId Send = P.makeMethod("send");
  MethodId Recv = P.makeMethod("recv");
  MethodId Close = P.makeMethod("close");
  Spec.addTransition(Connect, Fresh, Connected);
  Spec.addErrorTransition(Connect, Connected);
  Spec.addErrorTransition(Connect, Closed);
  for (MethodId M : {Send, Recv}) {
    Spec.addTransition(M, Connected, Connected);
    Spec.addErrorTransition(M, Fresh);
    Spec.addErrorTransition(M, Closed);
  }
  Spec.addTransition(Close, Connected, Closed);
  Spec.addTransition(Close, Fresh, Closed);
  Spec.addErrorTransition(Close, Closed);
  return Spec;
}

TypestateSpec makeResourceProperty(Program &P) {
  TypestateSpec Spec("idle");
  uint32_t Idle = 0;
  uint32_t Held = Spec.addState("held");
  MethodId Acquire = P.makeMethod("acquire");
  MethodId Release = P.makeMethod("release");
  Spec.addTransition(Acquire, Idle, Held);
  Spec.addErrorTransition(Acquire, Held);
  Spec.addTransition(Release, Held, Idle);
  Spec.addErrorTransition(Release, Idle);
  return Spec;
}

namespace {

std::string trim(const std::string &S) {
  size_t B = S.find_first_not_of(" \t");
  size_t E = S.find_last_not_of(" \t");
  return B == std::string::npos ? std::string() : S.substr(B, E - B + 1);
}

} // namespace

bool parsePropertySpec(const std::string &Text, PropertySpec &Out,
                       std::string &Err) {
  std::vector<std::string> Clauses;
  std::stringstream SS(Text);
  std::string Clause;
  while (std::getline(SS, Clause, ';'))
    if (!trim(Clause).empty())
      Clauses.push_back(trim(Clause));
  if (Clauses.empty() || Clauses[0].rfind("init=", 0) != 0) {
    Err = "property must start with 'init=<state>'";
    return false;
  }
  Out.Init = trim(Clauses[0].substr(5));
  for (size_t I = 1; I < Clauses.size(); ++I) {
    size_t Colon = Clauses[I].find(':');
    if (Colon == std::string::npos) {
      Err = "expected 'method: from->to, ...' in '" + Clauses[I] + "'";
      return false;
    }
    std::string Method = trim(Clauses[I].substr(0, Colon));
    std::stringstream TS(Clauses[I].substr(Colon + 1));
    std::string Rule;
    while (std::getline(TS, Rule, ',')) {
      size_t Arrow = Rule.find("->");
      if (Arrow == std::string::npos) {
        Err = "expected 'from->to' in '" + Rule + "'";
        return false;
      }
      PropertySpec::Rule R;
      R.Method = Method;
      R.From = trim(Rule.substr(0, Arrow));
      std::string To = trim(Rule.substr(Arrow + 2));
      if (To == "ERR" || To == "err" || To == "error")
        R.Error = true;
      else
        R.To = To;
      Out.Rules.push_back(std::move(R));
    }
  }
  return true;
}

TypestateSpec materializeSpec(const PropertySpec &PS, Program &P) {
  TypestateSpec Spec(PS.Init);
  for (const PropertySpec::Rule &R : PS.Rules) {
    MethodId M = P.makeMethod(R.Method);
    uint32_t From = Spec.addState(R.From);
    if (R.Error)
      Spec.addErrorTransition(M, From);
    else
      Spec.addTransition(M, From, Spec.addState(R.To));
  }
  return Spec;
}

} // namespace typestate
} // namespace optabs
