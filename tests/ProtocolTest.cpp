//===- ProtocolTest.cpp - Versioned JSONL schema tests ------------------------===//
//
// Both JSONL surfaces of the project - the CEGAR event trace
// (tracer/EventTrace.h, `"v":1`) and the optabs-serve request/response
// protocol (service/Protocol.h, `"v":1`) - are versioned, and their exact
// serialized forms are pinned by a golden file: a renamed, re-typed, or
// re-ordered field fails here instead of silently breaking downstream
// trace consumers. The flat-JSON request parser is exercised over its
// whole grammar, including everything it must reject.
//
//===----------------------------------------------------------------------===//

#include "escape/Escape.h"
#include "ir/Parser.h"
#include "service/Protocol.h"
#include "support/Prng.h"
#include "tracer/EventTrace.h"
#include "tracer/QueryDriver.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

using namespace optabs;
using tracer::JsonObject;

namespace {

#ifndef OPTABS_GOLDEN_DIR
#define OPTABS_GOLDEN_DIR "golden"
#endif

std::vector<std::string> readLines(const std::string &Path) {
  std::ifstream In(Path);
  EXPECT_TRUE(In.is_open()) << "cannot open " << Path;
  std::vector<std::string> Lines;
  std::string Line;
  while (std::getline(In, Line))
    Lines.push_back(Line);
  return Lines;
}

/// The production prefix every trace line carries (EventTraceWriter::event
/// builds it the same way).
JsonObject event(const char *Kind) {
  return tracer::eventPrefix(Kind, "golden");
}

/// One sample line per event kind and per protocol response form, with
/// fixed values, built exactly like the emitting code builds them (the
/// prefix and the verdict line by the production builders). The golden
/// file pins the serialized bytes.
std::vector<std::string> sampleSchemaLines() {
  std::vector<std::string> L;
  L.push_back(event("run_begin")
                  .field("queries", size_t(2))
                  .field("strategy", "tracer")
                  .field("k", 5u)
                  .field("threads", 1u)
                  .str());
  L.push_back(event("round_begin")
                  .field("round", 1u)
                  .field("unresolved", 2u)
                  .field("groups", size_t(1))
                  .str());
  L.push_back(event("choose")
                  .field("round", 1u)
                  .field("members", size_t(2))
                  .field("cost", uint32_t(1))
                  .field("bits", tracer::bitsToString({false, true, false}))
                  .field("viable_clauses", size_t(3))
                  .hexField("viable_sig", 0x1234)
                  .str());
  L.push_back(event("forward")
                  .field("round", 1u)
                  .field("bits", "010")
                  .field("cached", false)
                  .field("seconds", 0.25)
                  .str());
  L.push_back(event("step")
                  .field("round", 1u)
                  .field("query", uint32_t(0))
                  .field("kind", "backward")
                  .field("fail_states", size_t(1))
                  .field("traces", size_t(1))
                  .field("trace_lens", std::vector<size_t>{4, 7})
                  .field("max_cubes", size_t(2))
                  .hexField("learned_sig", 0xdeadbeef)
                  .str());
  // The verdict line comes from the one builder the driver and the
  // service's verdict replay share.
  tracer::QueryOutcome Verdict;
  Verdict.V = tracer::Verdict::Proven;
  Verdict.Iterations = 2;
  Verdict.CheapestCost = 1;
  Verdict.CheapestParam = "[L:h1]";
  Verdict.TraceRound = 2;
  Verdict.TraceForm = 2;
  L.push_back(tracer::verdictEvent("golden", 0, Verdict).str());
  L.push_back(event("round_end")
                  .field("round", 1u)
                  .field("unresolved", 1u)
                  .field("cache_hits", uint64_t(0))
                  .field("cache_misses", uint64_t(1))
                  .field("cache_evictions", uint64_t(0))
                  .field("seconds", 0.5)
                  .str());
  L.push_back(event("invariant_violation")
                  .field("check", uint32_t(0))
                  .field("where", "forward.postcheck")
                  .field("message", "fixpoint not inductive")
                  .str());
  L.push_back(event("budget_exhausted")
                  .field("round", 1u)
                  .field("query", uint32_t(0))
                  .field("resource", "steps")
                  .field("site", "forward.visit")
                  .str());
  L.push_back(event("degrade")
                  .field("round", 2u)
                  .field("rung", 1u)
                  .field("action", "evict_cache")
                  .field("trigger", "memory")
                  .field("resident_bytes", uint64_t(2048))
                  .field("budget_bytes", uint64_t(1024))
                  .field("evicted", size_t(3))
                  .str());
  L.push_back(event("run_end")
                  .field("rounds", 3u)
                  .field("forward_runs", 4u)
                  .field("backward_runs", 2u)
                  .field("solver_calls", 3u)
                  .field("violations", size_t(0))
                  .field("budget_exhausted", 1u)
                  .field("degradations", 1u)
                  .field("seconds", 1.5)
                  .str());
  // Service protocol response forms (service/Protocol.h).
  L.push_back(service::response(true).str());
  L.push_back(service::response(false).str());
  L.push_back(service::errorLine("submit", "unknown or closed session"));
  L.push_back(service::errorLine("", "not json"));
  // A job-result line as optabs-serve emits it after a drain.
  L.push_back(service::response(true)
                  .field("op", "result")
                  .field("job", uint64_t(1))
                  .field("session", uint64_t(1))
                  .field("status", "done")
                  .field("verdict", "proven")
                  .field("iterations", 3u)
                  .field("cost", uint32_t(2))
                  .field("param", "[L:h1,h2]")
                  .str());
  return L;
}

TEST(SchemaGoldenTest, SerializedFormsMatchGoldenFile) {
  std::vector<std::string> Want =
      readLines(std::string(OPTABS_GOLDEN_DIR) + "/schema_v1.golden");
  std::vector<std::string> Got = sampleSchemaLines();
  ASSERT_EQ(Want.size(), Got.size())
      << "schema sample count changed; regenerate the golden file "
         "deliberately and bump the schema version if a field changed";
  for (size_t I = 0; I < Want.size(); ++I)
    EXPECT_EQ(Want[I], Got[I]) << "line " << (I + 1);
}

TEST(SchemaGoldenTest, VersionsAreStillOne) {
  // Bumping either version is a deliberate act: it must come with a new
  // golden file and a schema note in DESIGN.md.
  EXPECT_EQ(tracer::EventSchemaVersion, 1);
  EXPECT_EQ(service::ProtocolVersion, 1);
}

TEST(JsonObjectTest, EscapesStringsPerRfc8259) {
  JsonObject O;
  O.field("s", std::string("a\"b\\c\nd\te\x01\r\x1f"));
  EXPECT_EQ(O.str(),
            "{\"s\":\"a\\\"b\\\\c\\nd\\te\\u0001\\r\\u001f\"}");
}

TEST(JsonObjectTest, FieldsKeepInsertionOrder) {
  JsonObject O;
  O.field("z", 1u).field("a", 2u).field("m", true);
  EXPECT_EQ(O.str(), "{\"z\":1,\"a\":2,\"m\":true}");
}

TEST(JsonObjectTest, NestsObjectsAndRendersEmptyOnes) {
  EXPECT_EQ(JsonObject().str(), "{}");
  JsonObject O;
  O.field("ph", "M").field("args", JsonObject().field("name", "main"));
  O.field("none", JsonObject());
  EXPECT_EQ(O.str(), "{\"ph\":\"M\",\"args\":{\"name\":\"main\"},"
                     "\"none\":{}}");
}

//===----------------------------------------------------------------------===//
// service::JsonLine - the request parser.
//===----------------------------------------------------------------------===//

service::JsonLine parseOk(const std::string &Text) {
  service::JsonLine L;
  std::string Err;
  EXPECT_TRUE(service::JsonLine::parse(Text, L, Err)) << Err;
  return L;
}

std::string parseErr(const std::string &Text) {
  service::JsonLine L;
  std::string Err;
  EXPECT_FALSE(service::JsonLine::parse(Text, L, Err)) << Text;
  return Err;
}

TEST(JsonLineTest, ParsesFlatObjects) {
  service::JsonLine L = parseOk(
      R"({"op":"submit","session":3,"priority":-2,"ok":true,"bad":false,)"
      R"("text":"a\nb\t\"q\" \\ A","f":1.5})");
  EXPECT_EQ(L.getString("op"), "submit");
  EXPECT_EQ(L.getUInt("session"), 3u);
  EXPECT_EQ(L.getInt32("priority"), -2);
  EXPECT_EQ(L.getString("text"), "a\nb\t\"q\" \\ A");
  EXPECT_TRUE(L.has("ok"));
  EXPECT_TRUE(L.has("f"));
  EXPECT_FALSE(L.has("missing"));
  service::JsonLine Empty = parseOk("{}");
  EXPECT_FALSE(Empty.has("op"));
}

TEST(JsonLineTest, AccessorsRejectTypeMismatches) {
  service::JsonLine L =
      parseOk(R"({"s":"five","n":5,"neg":-1,"d":2.5,"b":true})");
  EXPECT_EQ(L.getUInt("s"), std::nullopt);   // string where a uint goes
  EXPECT_EQ(L.getString("n"), std::nullopt); // number where a string goes
  EXPECT_EQ(L.getUInt("neg"), std::nullopt); // negative is not unsigned
  EXPECT_EQ(L.getUInt("d"), std::nullopt);   // doubles are not valid uints
  EXPECT_EQ(L.getUInt("b"), std::nullopt);   // bools are not numbers
  EXPECT_EQ(L.getInt32("neg"), -1);
  EXPECT_EQ(L.getUInt("n"), 5u);
}

TEST(JsonLineTest, IntegersOutsideTheirBoundReadAsAbsent) {
  // A 32-bit field must not narrow 2^32 to 0, and a 20-digit value must
  // not wrap modulo 2^64: both read as absent, like any other mismatch.
  service::JsonLine L = parseOk(
      R"({"wide":4294967296,"huge":18446744073709551616,)"
      R"("max32":4294967295,"max64":18446744073709551615,)"
      R"("lo":-2147483649,"hi":2147483648,"min32":-2147483648})");
  EXPECT_EQ(L.getUInt("wide", UINT32_MAX), std::nullopt);
  EXPECT_EQ(L.getUInt("huge", UINT32_MAX), std::nullopt);
  EXPECT_EQ(L.getUInt("huge"), std::nullopt);
  EXPECT_EQ(L.getUInt("wide"), 4294967296u);
  EXPECT_EQ(L.getUInt("max32", UINT32_MAX), 4294967295u);
  EXPECT_EQ(L.getUInt("max64"), UINT64_MAX);
  EXPECT_EQ(L.getInt32("lo"), std::nullopt);
  EXPECT_EQ(L.getInt32("hi"), std::nullopt);
  EXPECT_EQ(L.getInt32("huge"), std::nullopt);
  EXPECT_EQ(L.getInt32("min32"), INT32_MIN);
}

TEST(JsonLineTest, RejectsEverythingThatIsNotAFlatObject) {
  EXPECT_EQ(parseErr("this is not json"), "expected a JSON object");
  EXPECT_EQ(parseErr("[1,2]"), "expected a JSON object");
  EXPECT_EQ(parseErr(R"({"a":1} trailing)"),
            "trailing characters after object");
  EXPECT_NE(parseErr(R"({"a":"unterminated)").find("unterminated"),
            std::string::npos);
  EXPECT_NE(parseErr(R"({42:"key"})").find("string key"),
            std::string::npos);
  EXPECT_NE(parseErr(R"({"a" 1})").find("':'"), std::string::npos);
  EXPECT_NE(parseErr(R"({"a":})").find("value"), std::string::npos);
  EXPECT_NE(parseErr(R"({"a":1 "b":2})").find("','"), std::string::npos);
  // Nested structures are not protocol lines.
  EXPECT_NE(parseErr(R"({"a":{"b":1}})").size(), 0u);
  // \u escapes beyond ASCII and unknown escapes are rejected (non-ASCII
  // text travels as raw UTF-8 instead, which the parser passes through).
  EXPECT_NE(parseErr("{\"a\":\"\\u00ff\"}").size(), 0u);
  EXPECT_NE(parseErr("{\"a\":\"\\x41\"}").size(), 0u);
  service::JsonLine Utf8 = parseOk("{\"a\":\"\xc3\xbf\"}");
  EXPECT_EQ(Utf8.getString("a"), "\xc3\xbf");
}

TEST(JsonLineTest, AcceptsEveryRfc8259SingleCharEscape) {
  // \b and \f were missing from the escape table for a while, so protocol
  // strings produced by stricter JSON writers failed to parse. Pin the
  // full RFC 8259 set.
  service::JsonLine L =
      parseOk(R"({"s":"\"\\\/\b\f\n\r\t","u":"A\u000a\u007F"})");
  EXPECT_EQ(L.getString("s"), "\"\\/\b\f\n\r\t");
  EXPECT_EQ(L.getString("u"), "A\n\x7f");
}

TEST(JsonLineTest, ReportsTheExactEscapeDefect) {
  // A bad escape used to surface as "unterminated string value", sending
  // people hunting for a quote that was never the problem. The parser now
  // names the defect, where it sits (key vs value), and which key.
  EXPECT_EQ(parseErr(R"({"a":"bad\qescape"})"),
            "invalid escape '\\q' in string value for key 'a'");
  EXPECT_EQ(parseErr(R"({"bad\qkey":1})"),
            "invalid escape '\\q' in object key");
  EXPECT_EQ(parseErr(R"({"a":"\u00zz"})"),
            "non-hex digit 'z' in \\u escape in string value for key 'a'");
  EXPECT_EQ(parseErr(R"({"a":"\u00ff"})"),
            "\\u00ff is above 0x7f (send non-ASCII as raw UTF-8) in string "
            "value for key 'a'");
  EXPECT_EQ(parseErr(R"({"a":"\u0a)"),
            "truncated \\u escape (needs 4 hex digits) in string value for "
            "key 'a'");
  EXPECT_EQ(parseErr("{\"a\":\"trail\\"),
            "truncated escape at end of line in string value for key 'a'");
  // A plain missing close quote still reports as unterminated.
  EXPECT_EQ(parseErr(R"({"a":"unterminated)"),
            "unterminated string value for key 'a'");
}

TEST(JsonLineTest, RoundTripsThroughJsonObject) {
  // What the serve tool writes, the parser (a test client, effectively)
  // must read back unchanged - including every escaped character.
  std::string Tricky = "path\\with \"quotes\"\nand\ttabs";
  JsonObject O = service::response(true);
  O.field("op", "register-program").field("name", Tricky);
  O.field("epoch", uint64_t(7));
  service::JsonLine L = parseOk(O.str());
  EXPECT_EQ(L.getUInt("v"),
            static_cast<uint64_t>(service::ProtocolVersion));
  EXPECT_EQ(L.getString("name"), Tricky);
  EXPECT_EQ(L.getUInt("epoch"), 7u);
}

TEST(JsonLineTest, GetBoolReadsOnlyBooleans) {
  service::JsonLine L = parseOk(R"({"t":true,"f":false,"n":1,"s":"true"})");
  EXPECT_EQ(L.getBool("t"), true);
  EXPECT_EQ(L.getBool("f"), false);
  EXPECT_EQ(L.getBool("n"), std::nullopt); // numbers are not booleans
  EXPECT_EQ(L.getBool("s"), std::nullopt); // nor are spelled-out strings
  EXPECT_EQ(L.getBool("missing"), std::nullopt);
}

//===----------------------------------------------------------------------===//
// Property/fuzz tests: the parser fronts untrusted sockets (optabs-serve
// --listen), so no input may crash it, and every rejection must carry a
// structured, non-empty error. Deterministic PRNG - failures reproduce.
//===----------------------------------------------------------------------===//

/// The property every input must satisfy: parse() returns cleanly, and
/// when it rejects, it says why.
void expectParseTotal(const std::string &Text) {
  service::JsonLine L;
  std::string Err;
  if (!service::JsonLine::parse(Text, L, Err)) {
    EXPECT_FALSE(Err.empty()) << "silent rejection of: " << Text;
  }
}

TEST(JsonLineFuzzTest, RandomGarbageNeverCrashes) {
  Prng R(0xf00d0001);
  for (int Iter = 0; Iter < 4000; ++Iter) {
    std::string Text;
    size_t Len = R.nextBelow(64);
    for (size_t I = 0; I < Len; ++I)
      Text += static_cast<char>(R.nextBelow(256));
    expectParseTotal(Text);
  }
}

TEST(JsonLineFuzzTest, StructureHeavyGarbageNeverCrashes) {
  // Garbage drawn from JSON's own alphabet reaches much deeper into the
  // parser than uniform bytes do.
  static const char Alphabet[] = "{}[]\":,\\un0123456789.-eEtrufalse \t";
  Prng R(0xf00d0002);
  for (int Iter = 0; Iter < 4000; ++Iter) {
    std::string Text;
    size_t Len = R.nextBelow(48);
    for (size_t I = 0; I < Len; ++I)
      Text += Alphabet[R.nextBelow(sizeof(Alphabet) - 1)];
    expectParseTotal(Text);
  }
}

TEST(JsonLineFuzzTest, MutatedValidLinesNeverCrash) {
  // Start from real protocol lines and corrupt them: truncations,
  // byte flips, insertions, deletions. This is the shape of damage a
  // half-written socket line or a buggy client actually produces.
  const std::string Seeds[] = {
      R"({"op":"submit","session":3,"check":0,"priority":-2})",
      R"({"op":"register-program","name":"fig6","text":"proc main {\n}"})",
      R"({"op":"open-session","program":"fig6","client":"escape","k":1})",
      R"({"v":1,"ok":true,"op":"ping","uptime_s":0.25,"pending":0})",
      "{\"s\":\"\\\"\\\\\\/\\b\\f\\n\\r\\t\\u0041\"}",
  };
  Prng R(0xf00d0003);
  for (int Iter = 0; Iter < 6000; ++Iter) {
    std::string Text = Seeds[R.nextBelow(std::size(Seeds))];
    unsigned Mutations = 1 + R.nextBelow(4);
    for (unsigned M = 0; M < Mutations; ++M) {
      if (Text.empty())
        break;
      size_t Pos = R.nextBelow(Text.size());
      switch (R.nextBelow(4)) {
      case 0: // truncate
        Text.resize(Pos);
        break;
      case 1: // flip one byte
        Text[Pos] = static_cast<char>(R.nextBelow(256));
        break;
      case 2: // insert one byte
        Text.insert(Text.begin() + Pos,
                    static_cast<char>(R.nextBelow(256)));
        break;
      default: // delete one byte
        Text.erase(Text.begin() + Pos);
        break;
      }
    }
    expectParseTotal(Text);
  }
}

TEST(JsonLineFuzzTest, RandomLinesRoundTripThroughJsonObject) {
  // The constructive property: anything JsonObject can write, JsonLine
  // reads back value-identical - arbitrary bytes in strings included.
  Prng R(0xf00d0004);
  for (int Iter = 0; Iter < 2000; ++Iter) {
    std::string S;
    size_t Len = R.nextBelow(24);
    for (size_t I = 0; I < Len; ++I) {
      // Raw bytes, but keep multi-byte range out: the writer emits
      // non-ASCII as raw UTF-8, and random lone continuation bytes are
      // not valid UTF-8 the parser must accept.
      S += static_cast<char>(R.nextBelow(0x80));
    }
    uint64_t N = R.next() >> 11; // < 2^53: JSON-number safe
    bool B = R.chance(1, 2);
    JsonObject O;
    O.field("op", "fuzz").field("s", S).field("n", N).field("b", B);
    service::JsonLine L = parseOk(O.str());
    EXPECT_EQ(L.getString("s"), S);
    EXPECT_EQ(L.getUInt("n"), N);
    EXPECT_EQ(L.getBool("b"), B);
  }
}

//===----------------------------------------------------------------------===//
// Live event trace: schema stamped on every emitted line.
//===----------------------------------------------------------------------===//

TEST(EventTraceTest, EveryEmittedLineCarriesTheSchemaVersion) {
  const char *Text = "proc main {\n"
                     "  u = new h1;\n"
                     "  v = new h2;\n"
                     "  v.f = u;\n"
                     "  check(u);\n"
                     "}\n";
  ir::Program P;
  std::string Err;
  ASSERT_TRUE(ir::parseProgram(Text, P, Err)) << Err;

  std::string Path = "protocol_event_trace_smoke.jsonl";
  std::ofstream(Path, std::ios::trunc).close();
  escape::EscapeAnalysis A(P);
  Config Opts;
  Opts.Observability.EventTracePath = Path;
  Opts.Observability.EventTraceLabel = "smoke";
  tracer::QueryDriver<escape::EscapeAnalysis> Driver(P, A, Opts);
  Driver.run({ir::CheckId(0)});

  std::vector<std::string> Lines = readLines(Path);
  ASSERT_FALSE(Lines.empty());
  const std::string Prefix = "{\"v\":1,\"event\":\"";
  bool SawRunBegin = false, SawRunEnd = false;
  for (const std::string &Line : Lines) {
    EXPECT_EQ(Line.compare(0, Prefix.size(), Prefix), 0) << Line;
    EXPECT_NE(Line.find("\"label\":\"smoke\""), std::string::npos) << Line;
    SawRunBegin |= Line.find("\"event\":\"run_begin\"") != std::string::npos;
    SawRunEnd |= Line.find("\"event\":\"run_end\"") != std::string::npos;
  }
  EXPECT_TRUE(SawRunBegin);
  EXPECT_TRUE(SawRunEnd);
  std::remove(Path.c_str());
}

} // namespace
