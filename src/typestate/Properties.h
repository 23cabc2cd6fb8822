//===- Properties.h - Canonical type-state properties ----------*- C++ -*-===//
//
// Part of the optabs project, a reproduction of "Finding Optimum
// Abstractions in Parametric Dataflow Analysis" (PLDI 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small library of classic type-state properties (the kind Fink et
/// al.'s verifier - the paper's reference [7] - ships with), expressed as
/// TypestateSpec automata over a program's method names, plus the textual
/// property grammar the CLI and the analysis service accept. Each builder
/// interns the methods it needs into the program.
///
//===----------------------------------------------------------------------===//

#ifndef OPTABS_TYPESTATE_PROPERTIES_H
#define OPTABS_TYPESTATE_PROPERTIES_H

#include "typestate/Typestate.h"

#include <optional>
#include <string>
#include <vector>

namespace optabs {
namespace typestate {

/// File discipline (the paper's Figure 1): closed <-> opened via
/// open()/close(); re-opening or re-closing errs. Initial state "closed".
TypestateSpec makeFileProperty(ir::Program &P);

/// Iterator discipline: next() is only legal after hasNext(); calling
/// next() in the initial/consumed state errs. States: "unknown" (init),
/// "ready". hasNext: unknown->ready, ready->ready; next: ready->unknown,
/// unknown->ERR.
TypestateSpec makeIteratorProperty(ir::Program &P);

/// Socket discipline: connect() before send()/recv(), close() ends the
/// session; send/recv after close or before connect errs, double connect
/// errs. States: "fresh" (init), "connected", "closed".
TypestateSpec makeSocketProperty(ir::Program &P);

/// Resource handle: acquire() then release(), strictly alternating;
/// double acquire or release-without-acquire errs. States: "idle" (init),
/// "held".
TypestateSpec makeResourceProperty(ir::Program &P);

/// A property automaton in the "init=<state>; method: from->to, ...; ..."
/// syntax, parsed without touching any Program (method names stay
/// strings), so a syntax error can be reported before any program is
/// chosen or mutated.
struct PropertySpec {
  struct Rule {
    std::string Method;
    std::string From;
    std::string To; ///< empty when Error
    bool Error = false;
  };
  std::string Init;
  std::vector<Rule> Rules;
};

/// Parses \p Text into \p Out; on a syntax error returns false with
/// \p Err set. A target state spelled ERR, err or error is a type-state
/// error.
bool parsePropertySpec(const std::string &Text, PropertySpec &Out,
                       std::string &Err);

/// Builds the automaton of \p PS, interning its method names into \p P.
TypestateSpec materializeSpec(const PropertySpec &PS, ir::Program &P);

/// The automaton a client run names by \p Property: the §6 stress
/// property when it is empty, otherwise \p Property parsed and
/// materialized into \p P. Nullopt, with \p Err set, on a syntax error.
inline std::optional<TypestateSpec>
specFor(const std::string &Property, ir::Program &P, std::string &Err) {
  if (Property.empty())
    return TypestateSpec::stress();
  PropertySpec PS;
  if (!parsePropertySpec(Property, PS, Err))
    return std::nullopt;
  return materializeSpec(PS, P);
}

} // namespace typestate
} // namespace optabs

#endif // OPTABS_TYPESTATE_PROPERTIES_H
