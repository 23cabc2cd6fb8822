//===- PropertiesTest.cpp - Tests for the type-state property library ---------===//

#include "typestate/Properties.h"

#include "ir/Parser.h"
#include "pointer/PointsTo.h"
#include "tracer/QueryDriver.h"

#include "gtest/gtest.h"

namespace {

using namespace optabs;
using namespace optabs::ir;
using namespace optabs::typestate;
using tracer::Verdict;

Program parse(const char *Src) {
  Program P;
  std::string Error;
  bool Ok = parseProgram(Src, P, Error);
  EXPECT_TRUE(Ok) << Error;
  return P;
}

/// Runs TRACER for the query (check 0, site h1) under \p Spec.
tracer::QueryOutcome resolve(Program &P, const TypestateSpec &Spec) {
  pointer::PointsToResult Pt = pointer::runPointsTo(P);
  TypestateAnalysis A(P, Spec, P.findAlloc("h1"), Pt);
  tracer::QueryDriver<TypestateAnalysis> Driver(P, A);
  return Driver.run({CheckId(0)})[0];
}

TEST(FileProperty, Automaton) {
  Program P;
  TypestateSpec Spec = makeFileProperty(P);
  MethodId Open = P.makeMethod("open");
  MethodId Close = P.makeMethod("close");
  EXPECT_EQ(Spec.numStates(), 2u);
  EXPECT_EQ(Spec.apply(Open, 0), std::optional<uint32_t>(1));
  EXPECT_EQ(Spec.apply(Close, 0), std::nullopt);
  EXPECT_EQ(Spec.apply(Close, 1), std::optional<uint32_t>(0));
}

TEST(IteratorProperty, NextRequiresHasNext) {
  // Correct idiom: provable.
  Program Good = parse(R"(
    proc main {
      it = new h1;
      loop { it.hasNext(); it.next(); }
      it.hasNext();
      check(it, ready);
    }
  )");
  TypestateSpec Spec = makeIteratorProperty(Good);
  EXPECT_EQ(resolve(Good, Spec).V, Verdict::Proven);

  // next() without hasNext(): impossible.
  Program Bad = parse(R"(
    proc main {
      it = new h1;
      it.next();
      check(it, unknown);
    }
  )");
  TypestateSpec BadSpec = makeIteratorProperty(Bad);
  EXPECT_EQ(resolve(Bad, BadSpec).V, Verdict::Impossible);
}

TEST(SocketProperty, SendBeforeConnectErrs) {
  Program Good = parse(R"(
    proc main {
      s = new h1;
      s.connect();
      loop { s.send(); s.recv(); }
      s.close();
      check(s, closed);
    }
  )");
  TypestateSpec Spec = makeSocketProperty(Good);
  EXPECT_EQ(resolve(Good, Spec).V, Verdict::Proven);

  Program Bad = parse(R"(
    proc main {
      s = new h1;
      s.send();
      check(s, fresh);
    }
  )");
  TypestateSpec BadSpec = makeSocketProperty(Bad);
  EXPECT_EQ(resolve(Bad, BadSpec).V, Verdict::Impossible);
}

TEST(ResourceProperty, AlternationThroughAliases) {
  // The release goes through an alias: the proof must track both names.
  Program P = parse(R"(
    proc main {
      r = new h1;
      guard = r;
      r.acquire();
      guard.release();
      check(r, idle);
    }
  )");
  TypestateSpec Spec = makeResourceProperty(P);
  auto Out = resolve(P, Spec);
  EXPECT_EQ(Out.V, Verdict::Proven);
  EXPECT_EQ(Out.CheapestCost, 2u); // {r, guard}
}

TEST(ResourceProperty, DoubleAcquireImpossible) {
  Program P = parse(R"(
    proc main {
      r = new h1;
      r.acquire();
      if { r.acquire(); }
      check(r, held);
    }
  )");
  TypestateSpec Spec = makeResourceProperty(P);
  EXPECT_EQ(resolve(P, Spec).V, Verdict::Impossible);
}

TEST(Properties, UnrelatedMethodsKeepState) {
  Program P = parse(R"(
    proc main {
      s = new h1;
      s.connect();
      s.log();
      s.send();
      s.close();
      check(s, closed);
    }
  )");
  TypestateSpec Spec = makeSocketProperty(P);
  EXPECT_EQ(resolve(P, Spec).V, Verdict::Proven);
}

TEST(PropertyGrammar, ReportsEachSyntaxError) {
  struct Case {
    const char *Text;
    const char *Error;
  };
  const Case Cases[] = {
      {"", "property must start with 'init=<state>'"},
      {"open: closed->opened", "property must start with 'init=<state>'"},
      {"init=closed; open closed->opened",
       "expected 'method: from->to, ...' in 'open closed->opened'"},
      {"init=closed; open: closed=>opened",
       "expected 'from->to' in ' closed=>opened'"},
  };
  for (const Case &C : Cases) {
    PropertySpec PS;
    std::string Err;
    EXPECT_FALSE(parsePropertySpec(C.Text, PS, Err)) << C.Text;
    EXPECT_EQ(Err, C.Error) << C.Text;
  }
}

TEST(PropertyGrammar, EverySpellingOfErrIsTheErrorState) {
  for (const char *Err : {"ERR", "err", "error"}) {
    std::string Text = std::string("init=closed; open: closed->opened, "
                                   "opened->") +
                       Err + "; close: opened->closed";
    PropertySpec PS;
    std::string Why;
    ASSERT_TRUE(parsePropertySpec(Text, PS, Why)) << Why;
    EXPECT_EQ(PS.Init, "closed");
    ASSERT_EQ(PS.Rules.size(), 3u);
    EXPECT_TRUE(PS.Rules[1].Error) << Err;
    EXPECT_TRUE(PS.Rules[1].To.empty()) << Err;
    EXPECT_FALSE(PS.Rules[0].Error);

    // Materialized, the spelling behaves exactly like the file property.
    Program P;
    TypestateSpec Spec = materializeSpec(PS, P);
    MethodId Open = P.makeMethod("open");
    MethodId Close = P.makeMethod("close");
    EXPECT_EQ(Spec.numStates(), 2u);
    EXPECT_EQ(Spec.apply(Open, 0), std::optional<uint32_t>(1));
    EXPECT_EQ(Spec.apply(Open, 1), std::nullopt) << Err;
    EXPECT_EQ(Spec.apply(Close, 1), std::optional<uint32_t>(0));
  }
  // Any other target is an ordinary state name.
  PropertySpec PS;
  std::string Why;
  ASSERT_TRUE(parsePropertySpec("init=a; m: a->Error", PS, Why)) << Why;
  ASSERT_EQ(PS.Rules.size(), 1u);
  EXPECT_FALSE(PS.Rules[0].Error);
  EXPECT_EQ(PS.Rules[0].To, "Error");
}

} // namespace
