//===- Clients.h - The analysis-client table -------------------*- C++ -*-===//
//
// Part of the optabs project, a reproduction of "Finding Optimum
// Abstractions in Parametric Dataflow Analysis" (PLDI 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one table of parametric analysis clients: a `ClientTraits<A>` entry
/// per client, listed once in `PerClient`. The CLI, the experiment harness
/// and the analysis service drive every client through its entry alone,
/// which plans a client's runs the same way for all three:
///
///   auto Ctx = T::context(Property, P, Err);   // per (program, property)
///   for (auto &[G, Checks] : T::groups(P, *Ctx, AllChecks))
///     run a QueryDriver<A> over Checks on T::analysis(P, *Ctx, G),
///     its event trace labelled T::traceLabel(G).
///
/// Header-only, so a tool uses it without linking the service library.
///
//===----------------------------------------------------------------------===//

#ifndef OPTABS_SERVICE_CLIENTS_H
#define OPTABS_SERVICE_CLIENTS_H

#include "escape/Escape.h"
#include "pointer/PointsTo.h"
#include "tracer/CachePersist.h"
#include "typestate/Properties.h"
#include "typestate/Typestate.h"

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <tuple>
#include <vector>

namespace optabs {
namespace service {

/// Checks by group, one driver run per group; groups ascend and each
/// keeps the input order of its checks.
using CheckGroups = std::map<uint32_t, std::vector<ir::CheckId>>;

/// Besides the run plan: the wire name (Noun in prose), whether a session
/// may carry a property, the state codec, the byte (SpillKind) tagging
/// sessions, batches, verdicts and spill files, whether a run is scoped to
/// a family (the last three shape snapshot and spill bytes), and the
/// strings a report prints (`title`, `groupName`: empty for one group).
///
/// A codec's load() after save() rebuilds a state that compares equal and
/// hashes identically, so re-interning saved states in id order
/// reproduces every StateId (what ForwardAnalysis::loadFrom verifies and
/// warm-restart verdict identity rests on).
template <typename A> struct ClientTraits;

template <> struct ClientTraits<escape::EscapeAnalysis> {
  using Analysis = escape::EscapeAnalysis;
  static constexpr const char *Name = "escape";
  static constexpr const char *Noun = "escape";
  static constexpr bool TakesProperty = false;
  /// A state is a byte vector of per-variable lattice values.
  struct Codec {
    void save(tracer::SnapshotWriter &W, const escape::EscState &S) const {
      W.bytes(S.Vals);
    }
    bool load(tracer::SnapshotReader &R, escape::EscState &S) const {
      return R.bytes(S.Vals);
    }
  };
  static constexpr uint8_t SpillKind = 0;
  /// One program-wide analysis: jobs batch and key at site 0, keys keep
  /// Family 0 and snapshot records carry no family field.
  static constexpr bool HasFamily = false;

  struct Context {};
  static bool checkProperty(const std::string &, std::string &) {
    return true;
  }
  static std::optional<Context> context(const std::string &, ir::Program &,
                                        std::string &) {
    return Context();
  }
  static uint32_t numGroups(const ir::Program &) { return 1; }
  static CheckGroups groups(const ir::Program &, const Context &,
                            const std::vector<ir::CheckId> &Checks) {
    return {{0, Checks}};
  }
  static std::unique_ptr<Analysis> analysis(const ir::Program &P,
                                            const Context &, uint32_t) {
    return std::make_unique<Analysis>(P);
  }
  static std::string traceLabel(uint32_t) { return Name; }
  static std::string title(const std::string &, size_t NumChecks) {
    return "thread-escape analysis, " + std::to_string(NumChecks) +
           " queries";
  }
  static std::string groupName(const ir::Program &, uint32_t) { return ""; }
};

template <> struct ClientTraits<typestate::TypestateAnalysis> {
  using Analysis = typestate::TypestateAnalysis;
  static constexpr const char *Name = "typestate";
  static constexpr const char *Noun = "type-state";
  static constexpr bool TakesProperty = true;
  /// A state is the Top flag, the automaton state and the per-variable
  /// abstract values.
  struct Codec {
    void save(tracer::SnapshotWriter &W, const typestate::AbsState &S) const {
      W.u8(S.Top ? 1 : 0);
      W.u32(S.Ts);
      W.u32(static_cast<uint32_t>(S.Vs.size()));
      for (uint32_t V : S.Vs)
        W.u32(V);
    }
    bool load(tracer::SnapshotReader &R, typestate::AbsState &S) const {
      uint8_t Top = 0;
      uint32_t Count = 0;
      if (!R.u8(Top))
        return false;
      if (Top > 1) {
        R.fail("AbsState top flag out of range");
        return false;
      }
      S.Top = Top == 1;
      if (!R.u32(S.Ts) || !R.u32(Count))
        return false;
      // Each value is a u32 still to be read; a count beyond the
      // remaining payload is provably truncated and must not size the
      // reserve.
      if (Count > R.remaining() / 4) {
        R.fail("AbsState value count exceeds the remaining payload");
        return false;
      }
      S.Vs.clear();
      S.Vs.reserve(Count);
      for (uint32_t I = 0; I < Count; ++I) {
        uint32_t V = 0;
        if (!R.u32(V))
          return false;
        S.Vs.push_back(V);
      }
      return true;
    }
  };
  static constexpr uint8_t SpillKind = 1;
  /// One analysis per tracked site: jobs batch per site, and keys fold
  /// (property family index << 32) | site.
  static constexpr bool HasFamily = true;

  /// The automaton - the §6 stress property when the property is empty -
  /// and the may-alias oracle every site's analysis reads.
  struct Context {
    typestate::TypestateSpec Spec;
    pointer::PointsToResult Pt;
  };
  /// Syntax only, so a session is refused before any program is touched.
  static bool checkProperty(const std::string &Property, std::string &Err) {
    typestate::PropertySpec PS;
    return Property.empty() ||
           typestate::parsePropertySpec(Property, PS, Err);
  }
  /// Materializes the automaton's method names into \p P.
  static std::optional<Context> context(const std::string &Property,
                                        ir::Program &P, std::string &Err) {
    typestate::PropertySpec PS;
    if (!Property.empty() &&
        !typestate::parsePropertySpec(Property, PS, Err))
      return std::nullopt;
    return Context{Property.empty() ? typestate::TypestateSpec::stress()
                                    : typestate::materializeSpec(PS, P),
                   pointer::runPointsTo(P)};
  }
  static uint32_t numGroups(const ir::Program &P) { return P.numAllocs(); }
  /// A (check, site) query for every site the check's receiver may point
  /// to (§6), grouped by site.
  static CheckGroups groups(const ir::Program &P, const Context &C,
                            const std::vector<ir::CheckId> &Checks) {
    CheckGroups BySite;
    for (ir::CheckId Check : Checks)
      C.Pt.pointsTo(P.checkSite(Check).Var).forEach([&](size_t H) {
        BySite[static_cast<uint32_t>(H)].push_back(Check);
      });
    return BySite;
  }
  static std::unique_ptr<Analysis> analysis(const ir::Program &P,
                                            const Context &C, uint32_t Site) {
    return std::make_unique<Analysis>(P, C.Spec, ir::AllocId(Site), C.Pt);
  }
  static std::string traceLabel(uint32_t Site) {
    return std::string(Name) + "/site=" + std::to_string(Site);
  }
  static std::string title(const std::string &Property, size_t) {
    return std::string("type-state analysis (") +
           (Property.empty() ? "stress property" : "property automaton") +
           ")";
  }
  static std::string groupName(const ir::Program &P, uint32_t Site) {
    return "site " + P.allocName(ir::AllocId(Site));
  }
};

/// One value per client, in snapshot order: the only list of clients.
template <template <typename> class T>
using PerClient =
    std::tuple<T<escape::EscapeAnalysis>, T<typestate::TypestateAnalysis>>;

/// Calls \p Fn on each client's traits, in snapshot order.
template <typename FnT> void forEachClient(FnT Fn) {
  std::apply([&](auto... T) { (Fn(T), ...); }, PerClient<ClientTraits>());
}

/// Calls \p Fn on the traits of the client named \p Name; false when the
/// table has no such client.
template <typename FnT> bool withClient(const std::string &Name, FnT Fn) {
  bool Found = false;
  forEachClient([&](auto T) {
    if (Name == T.Name) {
      Found = true;
      Fn(T);
    }
  });
  return Found;
}

/// The client names for an error message: "'escape' or 'typestate'".
inline std::string clientNames() {
  std::string Names;
  forEachClient([&](auto T) {
    Names += std::string(Names.empty() ? "'" : " or '") + T.Name + "'";
  });
  return Names;
}

} // namespace service
} // namespace optabs

#endif // OPTABS_SERVICE_CLIENTS_H
