//===- CachePersistTest.cpp - Persistent cache tier tests ---------------------===//
//
// The warm-restart contract: snapshots round-trip bitwise, damaged or
// stale snapshots are skipped with structured notes (never crash, never a
// wrong verdict), a second service sharing the cache directory comes up
// warm - answering the same queries with bitwise-identical verdicts and
// zero forward fixpoints - and spilled entries rehydrate from disk when a
// later query needs them.
//
//===----------------------------------------------------------------------===//

#include "escape/Escape.h"
#include "ir/Parser.h"
#include "pointer/PointsTo.h"
#include "service/AnalysisService.h"
#include "service/Clients.h"
#include "support/Config.h"
#include "tracer/CachePersist.h"
#include "tracer/QueryDriver.h"
#include "typestate/Properties.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <future>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <sys/stat.h>
#include <unistd.h>
#include <vector>

using namespace optabs;
using namespace optabs::ir;

namespace {

// Same program ServiceTest uses: u is reachable from v through a field,
// so its query needs a non-trivial abstraction (real forward runs, a real
// verdict store - the artifacts persistence must carry across restarts).
const char *EscapeProgram = R"(
proc main {
  u = new h1;
  v = new h2;
  w = new h3;
  v.f = u;
  check(u);
  check(v);
  check(w);
}
)";

// EscapeProgram with one extra store in main: comparable with the
// original (same procs, same check count) but main is dirty, so nothing
// persisted from the original may be served against it.
const char *EscapeProgramModified = R"(
proc main {
  u = new h1;
  v = new h2;
  w = new h3;
  v.f = u;
  w.f = v;
  check(u);
  check(v);
  check(w);
}
)";

void parseInto(const char *Text, Program &P) {
  std::string Err;
  ASSERT_TRUE(parseProgram(Text, P, Err)) << Err;
}

service::Session openOrDie(service::AnalysisService &Svc,
                           const service::SessionSpec &Spec) {
  std::string Err;
  service::Session S = Svc.openSession(Spec, Err);
  EXPECT_TRUE(S.valid()) << Err;
  return S;
}

std::vector<service::QueryResult>
collect(service::AnalysisService &Svc,
        std::vector<std::future<service::QueryResult>> &Futures) {
  Svc.drain();
  std::vector<service::QueryResult> Out;
  for (auto &F : Futures) {
    Out.push_back(F.get());
    EXPECT_EQ(Out.back().Status, service::JobStatus::Done)
        << Out.back().Error;
  }
  return Out;
}

void expectSameVerdict(const tracer::QueryOutcome &Want,
                       const service::QueryResult &Got) {
  EXPECT_EQ(Want.V, Got.V);
  EXPECT_EQ(Want.Iterations, Got.Iterations);
  EXPECT_EQ(Want.CheapestCost, Got.CheapestCost);
  EXPECT_EQ(Want.CheapestParam, Got.CheapestParam);
}

/// A fresh per-test cache directory under /tmp, removed on destruction.
/// mkdtemp picks a name no other directory has, so no earlier run's
/// snapshots can be read back here.
struct TempDir {
  std::string Path;
  explicit TempDir(const std::string &Tag)
      : Path("/tmp/optabs-persist-" + Tag + "-XXXXXX") {
    // An ASSERT cannot end the test from a constructor; the exception
    // does (gtest fails the test with this message), before anything is
    // written under a name that is not a fresh directory.
    if (!::mkdtemp(Path.data()))
      throw std::runtime_error("mkdtemp failed for " + Path);
  }
  ~TempDir() {
    // Best-effort: unlink every regular file, then the directory.
    std::string Cmd = "rm -rf '" + Path + "'";
    (void)::system(Cmd.c_str());
  }
};

std::string slurp(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  std::ostringstream SS;
  SS << In.rdbuf();
  return SS.str();
}

void dump(const std::string &Path, const std::string &Bytes) {
  std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
  Out.write(Bytes.data(), static_cast<std::streamsize>(Bytes.size()));
}

/// The one snapshot file a persist of program "p" writes into \p Dir, or
/// "" when none exists yet.
std::string onlySnapshotIn(const std::string &Dir) {
  std::string Found;
  std::string Cmd = "ls '" + Dir + "'";
  FILE *P = ::popen(Cmd.c_str(), "r");
  if (!P)
    return Found;
  char Buf[512];
  while (::fgets(Buf, sizeof(Buf), P)) {
    std::string Name(Buf);
    while (!Name.empty() && (Name.back() == '\n' || Name.back() == '\r'))
      Name.pop_back();
    if (Name.size() > 5 && Name.substr(Name.size() - 5) == ".snap")
      Found = Dir + "/" + Name;
  }
  ::pclose(P);
  return Found;
}

service::AnalysisService::Options warmOptions(const std::string &CacheDir,
                                              unsigned Threads = 1) {
  service::AnalysisService::Options O;
  O.Base.Execution.NumThreads = Threads;
  O.Base.Service.CacheDir = CacheDir;
  return O;
}

/// Registers EscapeProgram, answers all three checks, and returns the
/// results (submission order). With \p EventTracePath, the session's
/// batches (or verdict replays) append event-trace lines there.
std::vector<service::QueryResult>
answerAllChecks(service::AnalysisService &Svc, const char *Text,
                const std::string &EventTracePath = std::string()) {
  EXPECT_TRUE(Svc.registerProgram("p", Text).Ok);
  service::SessionSpec Spec;
  Spec.Program = "p";
  Spec.Client = "escape";
  Spec.SessionConfig.Observability.EventTracePath = EventTracePath;
  service::Session S = openOrDie(Svc, Spec);
  std::vector<std::future<service::QueryResult>> Futures;
  for (uint32_t C = 0; C < 3; ++C)
    Futures.push_back(S.submit({C, 0, 0}));
  return collect(Svc, Futures);
}

/// The "verdict" event lines of one event-trace file, with the
/// wall-clock "seconds" field zeroed (everything else is deterministic).
std::vector<std::string> verdictTraceLines(const std::string &Path) {
  std::vector<std::string> Out;
  std::ifstream In(Path);
  std::string L;
  while (std::getline(In, L)) {
    if (L.find("\"event\":\"verdict\"") == std::string::npos)
      continue;
    size_t At = L.find("\"seconds\":");
    if (At != std::string::npos) {
      size_t End = At + 10;
      while (End < L.size() && L[End] != ',' && L[End] != '}')
        ++End;
      L = L.substr(0, At + 10) + "0" + L.substr(End);
    }
    Out.push_back(L);
  }
  return Out;
}

//===----------------------------------------------------------------------===//
// Snapshot framing primitives
//===----------------------------------------------------------------------===//

TEST(CachePersistTest, SnapshotRoundTripPreservesEveryPrimitive) {
  TempDir Dir("roundtrip");
  std::string Path = Dir.Path + "/primitives.snap";

  tracer::SnapshotWriter W;
  W.u8(0xab);
  W.u32(0xdeadbeefu);
  W.u64(0x0123456789abcdefULL);
  W.str("hello snapshot");
  W.str(""); // empty strings must survive too
  W.bits({true, false, true, true, false});
  std::string Err;
  ASSERT_TRUE(W.commit(Path, Err)) << Err;

  tracer::SnapshotReader R;
  ASSERT_TRUE(R.open(Path)) << R.error();
  uint8_t B = 0;
  uint32_t U32 = 0;
  uint64_t U64 = 0;
  std::string S1, S2;
  std::vector<bool> Bits;
  EXPECT_TRUE(R.u8(B));
  EXPECT_EQ(B, 0xab);
  EXPECT_TRUE(R.u32(U32));
  EXPECT_EQ(U32, 0xdeadbeefu);
  EXPECT_TRUE(R.u64(U64));
  EXPECT_EQ(U64, 0x0123456789abcdefULL);
  EXPECT_TRUE(R.str(S1));
  EXPECT_EQ(S1, "hello snapshot");
  EXPECT_TRUE(R.str(S2));
  EXPECT_EQ(S2, "");
  EXPECT_TRUE(R.bits(Bits));
  EXPECT_EQ(Bits, (std::vector<bool>{true, false, true, true, false}));
  EXPECT_TRUE(R.atEnd());
  EXPECT_FALSE(R.failed());

  // No temp file survives a successful commit.
  EXPECT_EQ(onlySnapshotIn(Dir.Path), Path);
}

TEST(CachePersistTest, ReadingPastTheEndLatchesAStructuredError) {
  TempDir Dir("pastend");
  std::string Path = Dir.Path + "/short.snap";
  tracer::SnapshotWriter W;
  W.u32(7);
  std::string Err;
  ASSERT_TRUE(W.commit(Path, Err)) << Err;

  tracer::SnapshotReader R;
  ASSERT_TRUE(R.open(Path)) << R.error();
  uint32_t V = 0;
  EXPECT_TRUE(R.u32(V));
  uint64_t Missing = 0;
  EXPECT_FALSE(R.u64(Missing)); // only 4 payload bytes exist
  EXPECT_TRUE(R.failed());
  // The error names the file and the offset - the structured note the
  // service surfaces when it skips a damaged snapshot.
  EXPECT_NE(R.error().find("snapshot"), std::string::npos) << R.error();
  EXPECT_NE(R.error().find(Path), std::string::npos) << R.error();
  EXPECT_NE(R.error().find("offset"), std::string::npos) << R.error();
  // The latch holds: a later (otherwise valid) read still fails.
  uint8_t B = 0;
  EXPECT_FALSE(R.u8(B));
}

// The mutation corpus: every truncation of the file and a bit-flip at
// every byte must be rejected at open() - structured error, no crash,
// no partial parse ever visible to the caller.
TEST(CachePersistTest, TruncatedAndBitFlippedSnapshotsAreRejected) {
  TempDir Dir("mutate");
  std::string Good = Dir.Path + "/good.snap";
  tracer::SnapshotWriter W;
  W.str("payload under test");
  W.u64(42);
  W.bits({true, false, true});
  std::string Err;
  ASSERT_TRUE(W.commit(Good, Err)) << Err;

  std::string Bytes = slurp(Good);
  ASSERT_GT(Bytes.size(), 12u); // header alone is 12 bytes
  std::string Mutant = Dir.Path + "/mutant.snap";

  // Every truncation length, including 0 (empty file) and header-only.
  for (size_t Len = 0; Len < Bytes.size(); ++Len) {
    dump(Mutant, Bytes.substr(0, Len));
    tracer::SnapshotReader R;
    EXPECT_FALSE(R.open(Mutant)) << "truncation at " << Len << " accepted";
    EXPECT_FALSE(R.error().empty());
  }

  // A single flipped bit anywhere - magic, version, payload, or the
  // checksum trailer itself - fails the whole-file validation.
  for (size_t I = 0; I < Bytes.size(); ++I) {
    std::string Flipped = Bytes;
    Flipped[I] = static_cast<char>(Flipped[I] ^ 0x40);
    dump(Mutant, Flipped);
    tracer::SnapshotReader R;
    EXPECT_FALSE(R.open(Mutant)) << "bit flip at byte " << I << " accepted";
    EXPECT_NE(R.error().find("snapshot"), std::string::npos) << R.error();
  }

  // Trailing garbage shifts the checksum window off the real trailer.
  dump(Mutant, Bytes + std::string(3, '\0'));
  tracer::SnapshotReader R;
  EXPECT_FALSE(R.open(Mutant));

  // A missing file is a structured failure too, not a crash.
  tracer::SnapshotReader Missing;
  EXPECT_FALSE(Missing.open(Dir.Path + "/does-not-exist.snap"));
  EXPECT_FALSE(Missing.error().empty());
}

TEST(CachePersistTest, CommitIsAtomicOnFailure) {
  // Committing into a directory that does not exist fails cleanly: Err is
  // set and neither the final path nor a temp file appears.
  tracer::SnapshotWriter W;
  W.u32(1);
  std::string Err;
  EXPECT_FALSE(W.commit("/tmp/optabs-no-such-dir-xyzzy/x.snap", Err));
  EXPECT_FALSE(Err.empty());
}

//===----------------------------------------------------------------------===//
// Warm restart through a shared cache directory
//===----------------------------------------------------------------------===//

TEST(CachePersistTest, WarmRestartIsBitwiseIdenticalWithZeroForwardRuns) {
  for (unsigned Threads : {1u, 8u}) {
    TempDir Dir("warm-t" + std::to_string(Threads));

    // The cold oracle: a standalone driver run over all three queries.
    Program P;
    parseInto(EscapeProgram, P);
    escape::EscapeAnalysis A(P);
    Config Opts;
    Opts.Execution.NumThreads = Threads;
    tracer::QueryDriver<escape::EscapeAnalysis> Driver(P, A, Opts);
    std::vector<tracer::QueryOutcome> Want =
        Driver.run({CheckId(0), CheckId(1), CheckId(2)});

    // First life: answer everything, persist, note the work it took.
    // Both lives share one event-trace path: the options signature that
    // gates verdict replay covers the whole session config, paths
    // included, and the trace file is append-only - the warm life's
    // lines are the suffix.
    uint64_t ColdForwardRuns = 0;
    std::string Trace = Dir.Path + "/trace.jsonl";
    {
      service::AnalysisService Svc(warmOptions(Dir.Path, Threads));
      std::vector<service::QueryResult> Got =
          answerAllChecks(Svc, EscapeProgram, Trace);
      ASSERT_EQ(Got.size(), Want.size());
      for (size_t I = 0; I < Want.size(); ++I)
        expectSameVerdict(Want[I], Got[I]);
      ColdForwardRuns = Svc.stats().ForwardRuns;
      EXPECT_GT(ColdForwardRuns, 0u);

      service::CacheOpResult R = Svc.cacheOp("persist");
      ASSERT_TRUE(R.Ok) << R.Error;
      EXPECT_GT(R.RunsPersisted + R.VerdictsPersisted, 0u);
    }
    ASSERT_FALSE(onlySnapshotIn(Dir.Path).empty());
    std::vector<std::string> ColdLines = verdictTraceLines(Trace);
    ASSERT_EQ(ColdLines.size(), Want.size());

    // Second life: registering the same text auto-warms from the
    // snapshot, so the same queries replay stored verdicts - bitwise
    // identical, with zero forward fixpoints (strictly fewer than cold).
    {
      service::AnalysisService Svc(warmOptions(Dir.Path, Threads));
      std::vector<service::QueryResult> Got =
          answerAllChecks(Svc, EscapeProgram, Trace);
      ASSERT_EQ(Got.size(), Want.size());
      for (size_t I = 0; I < Want.size(); ++I)
        expectSameVerdict(Want[I], Got[I]);

      service::ServiceStats S = Svc.stats();
      EXPECT_EQ(S.ForwardRuns, 0u);
      EXPECT_LT(S.ForwardRuns, ColdForwardRuns);
      EXPECT_EQ(S.VerdictsReplayed, Want.size());
    }

    // The replayed verdicts also re-emit their event-trace verdict
    // lines (round, iterations, cost, param travel in the snapshot), so
    // a trace consumer cannot tell the warm service from the cold one.
    std::vector<std::string> AllLines = verdictTraceLines(Trace);
    ASSERT_EQ(AllLines.size(), 2 * Want.size());
    EXPECT_EQ(std::vector<std::string>(AllLines.begin() + Want.size(),
                                       AllLines.end()),
              ColdLines);
  }
}

TEST(CachePersistTest, ExplicitLoadSkipsEntriesAlreadyResident) {
  TempDir Dir("skip");
  service::AnalysisService Svc(warmOptions(Dir.Path));
  answerAllChecks(Svc, EscapeProgram);
  ASSERT_TRUE(Svc.cacheOp("persist").Ok);

  // Everything on disk is already live in this service, so an explicit
  // re-load loads nothing and counts every record as skipped (live
  // entries win; a load never clobbers newer in-memory state).
  service::CacheOpResult R = Svc.cacheOp("load");
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.RunsLoaded, 0u);
  EXPECT_EQ(R.VerdictsLoaded, 0u);
  EXPECT_GT(R.RunsSkipped + R.VerdictsSkipped, 0u);
}

TEST(CachePersistTest, PersistRequiresACacheDir) {
  service::AnalysisService Svc; // no Service.CacheDir configured
  ASSERT_TRUE(Svc.registerProgram("p", EscapeProgram).Ok);
  service::CacheOpResult R = Svc.cacheOp("persist");
  EXPECT_FALSE(R.Ok);
  EXPECT_FALSE(R.Error.empty());
  service::CacheOpResult L = Svc.cacheOp("load");
  EXPECT_FALSE(L.Ok);
  // stats works without any persistence configuration.
  EXPECT_TRUE(Svc.cacheOp("stats").Ok);
  // And an unknown action is a structured refusal.
  EXPECT_FALSE(Svc.cacheOp("defragment").Ok);
}

//===----------------------------------------------------------------------===//
// Stale and corrupt snapshots degrade to a cold start - never served
//===----------------------------------------------------------------------===//

TEST(CachePersistTest, StaleSnapshotEntriesAreSkippedNeverServed) {
  TempDir Dir("stale");
  {
    service::AnalysisService Svc(warmOptions(Dir.Path));
    answerAllChecks(Svc, EscapeProgram);
    ASSERT_TRUE(Svc.cacheOp("persist").Ok);
  }

  // The modified program's oracle (w.f = v makes v escape through w's
  // field the way u already did through v's).
  Program P;
  parseInto(EscapeProgramModified, P);
  escape::EscapeAnalysis A(P);
  Config Opts;
  tracer::QueryDriver<escape::EscapeAnalysis> Driver(P, A, Opts);
  std::vector<tracer::QueryOutcome> Want =
      Driver.run({CheckId(0), CheckId(1), CheckId(2)});

  // Register the *modified* text under the same name: the snapshot's
  // fingerprint diff marks main dirty, so nothing loads - and the
  // verdicts come out right because they are recomputed, not replayed.
  service::AnalysisService Svc(warmOptions(Dir.Path));
  std::vector<service::QueryResult> Got =
      answerAllChecks(Svc, EscapeProgramModified);
  ASSERT_EQ(Got.size(), Want.size());
  for (size_t I = 0; I < Want.size(); ++I)
    expectSameVerdict(Want[I], Got[I]);
  EXPECT_GT(Svc.stats().ForwardRuns, 0u); // really recomputed
  EXPECT_EQ(Svc.stats().VerdictsReplayed, 0u);

  // The explicit load reports the mismatch as skips with notes, not as
  // a failure - a stale snapshot is a cold start, not an error.
  service::CacheOpResult R = Svc.cacheOp("load");
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.RunsLoaded, 0u);
  EXPECT_EQ(R.VerdictsLoaded, 0u);
  EXPECT_FALSE(R.Notes.empty());
}

TEST(CachePersistTest, CorruptSnapshotIsSkippedWithANote) {
  TempDir Dir("corrupt");
  {
    service::AnalysisService Svc(warmOptions(Dir.Path));
    answerAllChecks(Svc, EscapeProgram);
    ASSERT_TRUE(Svc.cacheOp("persist").Ok);
  }
  std::string Snap = onlySnapshotIn(Dir.Path);
  ASSERT_FALSE(Snap.empty());
  std::string Bytes = slurp(Snap);
  ASSERT_GT(Bytes.size(), 20u);
  Bytes[Bytes.size() / 2] = static_cast<char>(Bytes[Bytes.size() / 2] ^ 0x01);
  dump(Snap, Bytes);

  // Register + query: the damaged snapshot degrades the warm start to a
  // cold one. Verdicts are still correct (recomputed), the service never
  // crashes, and the load op names the file in a note.
  Program P;
  parseInto(EscapeProgram, P);
  escape::EscapeAnalysis A(P);
  Config Opts;
  tracer::QueryDriver<escape::EscapeAnalysis> Driver(P, A, Opts);
  std::vector<tracer::QueryOutcome> Want =
      Driver.run({CheckId(0), CheckId(1), CheckId(2)});

  service::AnalysisService Svc(warmOptions(Dir.Path));
  std::vector<service::QueryResult> Got =
      answerAllChecks(Svc, EscapeProgram);
  ASSERT_EQ(Got.size(), Want.size());
  for (size_t I = 0; I < Want.size(); ++I)
    expectSameVerdict(Want[I], Got[I]);
  EXPECT_GT(Svc.stats().ForwardRuns, 0u);

  service::CacheOpResult R = Svc.cacheOp("load");
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.RunsLoaded + R.VerdictsLoaded, 0u);
  bool Named = false;
  for (const std::string &N : R.Notes)
    Named = Named || N.find("snapshot") != std::string::npos;
  EXPECT_TRUE(Named) << "no structured note names the damaged snapshot";
}

// Format version 2 dropped the viable CNF from stored verdicts, version 3
// the transfer memo and the round counter from run records, version 4
// packed escape states into words, and version 5 names a run's family by
// its property text. A well-formed file of an older version
// (valid magic and checksum) must be refused with the structured version
// note, and the service must start cold with exactly the verdicts of a
// fresh run.
TEST(CachePersistTest, OlderVersionSnapshotsAreRejectedAndStartCold) {
  for (uint8_t Version : {1, 2, 3, 4}) {
    SCOPED_TRACE("format version " + std::to_string(Version));
    TempDir Dir("v" + std::to_string(Version));
    {
      service::AnalysisService Svc(warmOptions(Dir.Path));
      answerAllChecks(Svc, EscapeProgram);
      ASSERT_TRUE(Svc.cacheOp("persist").Ok);
    }
    std::string Snap = onlySnapshotIn(Dir.Path);
    ASSERT_FALSE(Snap.empty());
    std::string Bytes = slurp(Snap);
    ASSERT_GT(Bytes.size(), 20u);
    // Header: 8 magic bytes, then the u32 LE version; trailer: the u64 LE
    // FNV-1a of everything before it.
    ASSERT_EQ(static_cast<uint8_t>(Bytes[8]), tracer::SnapshotFormatVersion);
    Bytes[8] = static_cast<char>(Version);
    size_t Body = Bytes.size() - 8;
    uint64_t Sum = tracer::snapshotHash(Bytes.data(), Body);
    for (int I = 0; I < 8; ++I)
      Bytes[Body + I] = static_cast<char>((Sum >> (8 * I)) & 0xff);
    dump(Snap, Bytes);

    Program P;
    parseInto(EscapeProgram, P);
    escape::EscapeAnalysis A(P);
    tracer::QueryDriver<escape::EscapeAnalysis> Driver(P, A);
    std::vector<tracer::QueryOutcome> Want =
        Driver.run({CheckId(0), CheckId(1), CheckId(2)});

    service::AnalysisService Svc(warmOptions(Dir.Path));
    std::vector<service::QueryResult> Got =
        answerAllChecks(Svc, EscapeProgram);
    ASSERT_EQ(Got.size(), Want.size());
    for (size_t I = 0; I < Want.size(); ++I)
      expectSameVerdict(Want[I], Got[I]);
    EXPECT_GT(Svc.stats().ForwardRuns, 0u);
    EXPECT_EQ(Svc.stats().VerdictsReplayed, 0u);

    service::CacheOpResult R = Svc.cacheOp("load");
    ASSERT_TRUE(R.Ok) << R.Error;
    EXPECT_EQ(R.RunsLoaded + R.VerdictsLoaded, 0u);
    std::string Note =
        "unsupported format version " + std::to_string(Version);
    bool Named = false;
    for (const std::string &N : R.Notes)
      Named = Named || N.find(Note) != std::string::npos;
    EXPECT_TRUE(Named) << "no note names the unsupported version";
  }
}

/// Rewrites the trailer checksum of snapshot bytes \p Bytes after an edit.
void resealSnapshot(std::string &Bytes) {
  size_t Body = Bytes.size() - 8;
  uint64_t Sum = tracer::snapshotHash(Bytes.data(), Body);
  for (int I = 0; I < 8; ++I)
    Bytes[Body + I] = static_cast<char>((Sum >> (8 * I)) & 0xff);
}

void putLe(std::string &Out, uint64_t V, int Bytes) {
  for (int I = 0; I < Bytes; ++I)
    Out.push_back(static_cast<char>((V >> (8 * I)) & 0xff));
}

/// One escape state record: location count, word count, words.
void writeEscRecord(tracer::SnapshotWriter &W, uint32_t Locs, uint32_t Count,
                    const std::vector<uint64_t> &Words) {
  W.u32(Locs);
  W.u32(Count);
  for (uint64_t X : Words)
    W.u64(X);
}

TEST(CachePersistTest, EscStateRecordsAreCheckedOnLoad) {
  TempDir Dir("escrecord");
  Program P;
  parseInto(EscapeProgram, P);
  escape::EscapeAnalysis A(P);
  using Esc = service::ClientTraits<escape::EscapeAnalysis>;
  const Esc::Codec Codec(A);
  ASSERT_EQ(A.numLocs(), 4u);

  struct Case {
    const char *Name;
    uint32_t Locs, Count;
    std::vector<uint64_t> Words;
    const char *Error; ///< null: the record loads
  };
  const Case Cases[] = {
      {"valid", 4, 1, {0x0000000000000098ULL}, nullptr},
      {"valid across words", 33, 2, {0x8000000000000001ULL, 0x2}, nullptr},
      {"0b11 slot", 4, 1, {0x000000000000000cULL}, "slot holds 0b11"},
      {"0b11 in a later word", 33, 2, {0, 0x3}, "slot holds 0b11"},
      {"padding bit", 4, 1, {0x0000000000000100ULL}, "padding bits"},
      {"padding past 33", 33, 2, {0, 0x4}, "padding bits"},
      {"short word count", 33, 1, {0}, "word count does not match"},
      {"long word count", 4, 2, {0, 0}, "word count does not match"},
      {"count past the payload", 4000, 125, {0}, "remaining payload"},
  };
  for (const Case &C : Cases) {
    SCOPED_TRACE(C.Name);
    std::string Path = Dir.Path + "/record.snap";
    tracer::SnapshotWriter W;
    writeEscRecord(W, C.Locs, C.Count, C.Words);
    std::string Err;
    ASSERT_TRUE(W.commit(Path, Err)) << Err;
    tracer::SnapshotReader R;
    ASSERT_TRUE(R.open(Path)) << R.error();
    escape::EscState S;
    if (!C.Error) {
      EXPECT_TRUE(Codec.load(R, S)) << R.error();
      EXPECT_EQ(S.Words, C.Words);
      EXPECT_TRUE(R.atEnd());
      continue;
    }
    EXPECT_FALSE(Codec.load(R, S));
    EXPECT_TRUE(R.failed());
    EXPECT_NE(R.error().find(C.Error), std::string::npos) << R.error();
    EXPECT_NE(R.error().find("at offset"), std::string::npos) << R.error();
  }

  // save() writes the analysis's location count and the state's words.
  escape::EscState S = A.initialState();
  S.setSlot(A.locOfField(P.findField("f")), escape::AbsVal::E);
  tracer::SnapshotWriter W;
  Codec.save(W, S);
  std::string Path = Dir.Path + "/saved.snap";
  std::string Err;
  ASSERT_TRUE(W.commit(Path, Err)) << Err;
  tracer::SnapshotReader R;
  ASSERT_TRUE(R.open(Path)) << R.error();
  uint32_t Locs = 0, Count = 0;
  uint64_t Word = 0;
  ASSERT_TRUE(R.u32(Locs) && R.u32(Count) && R.u64(Word));
  EXPECT_EQ(Locs, 4u);
  EXPECT_EQ(Count, 1u);
  EXPECT_EQ(Word, uint64_t(0x2) << 6); // location 3 holds E
  EXPECT_TRUE(R.atEnd());
}

// A correctly checksummed snapshot whose first escape state record is
// damaged - a 0b11 slot, a set padding bit, a short word count - is
// refused with the codec's structured note: no run loads, nothing
// crashes, and every verdict matches a fresh run.
TEST(CachePersistTest, DamagedEscStateRecordIsRefusedWithANote) {
  struct Damage {
    const char *Name;
    size_t Offset; ///< from the start of the record
    char Byte;
    const char *Note;
  };
  const Damage Damages[] = {
      {"0b11 slot", 8, 0x03, "slot holds 0b11"},
      {"padding bit", 9, 0x01, "padding bits"},
      {"short word count", 4, 0x00, "word count does not match"},
  };
  Program P;
  parseInto(EscapeProgram, P);
  escape::EscapeAnalysis A(P);
  tracer::QueryDriver<escape::EscapeAnalysis> Driver(P, A);
  std::vector<tracer::QueryOutcome> Want =
      Driver.run({CheckId(0), CheckId(1), CheckId(2)});
  // A run's first two states: the all-N initial state, then another one
  // word state. No other part of the snapshot has this shape.
  std::string Pattern;
  putLe(Pattern, A.numLocs(), 4);
  putLe(Pattern, 1, 4);
  putLe(Pattern, 0, 8);
  putLe(Pattern, A.numLocs(), 4);
  putLe(Pattern, 1, 4);

  for (const Damage &D : Damages) {
    SCOPED_TRACE(D.Name);
    TempDir Dir("escdamage");
    {
      service::AnalysisService Svc(warmOptions(Dir.Path));
      answerAllChecks(Svc, EscapeProgram);
      ASSERT_TRUE(Svc.cacheOp("persist").Ok);
    }
    std::string Snap = onlySnapshotIn(Dir.Path);
    ASSERT_FALSE(Snap.empty());
    std::string Bytes = slurp(Snap);
    size_t At = Bytes.find(Pattern);
    ASSERT_NE(At, std::string::npos);
    Bytes[At + D.Offset] = D.Byte;
    resealSnapshot(Bytes);
    dump(Snap, Bytes);

    service::AnalysisService Svc(warmOptions(Dir.Path));
    std::vector<service::QueryResult> Got =
        answerAllChecks(Svc, EscapeProgram);
    ASSERT_EQ(Got.size(), Want.size());
    for (size_t I = 0; I < Want.size(); ++I)
      expectSameVerdict(Want[I], Got[I]);

    service::CacheOpResult R = Svc.cacheOp("load");
    ASSERT_TRUE(R.Ok) << R.Error;
    EXPECT_EQ(R.RunsLoaded, 0u);
    bool Noted = false;
    for (const std::string &N : R.Notes)
      Noted = Noted || (N.find(D.Note) != std::string::npos &&
                        N.find("snapshot") != std::string::npos);
    EXPECT_TRUE(Noted) << "no structured note names the damaged record";
  }
}

// A run record names its client, property and site. In the escape
// section of a checksummed snapshot, a first record that claims the
// type-state client, or a property, is refused structurally: no run
// loads and the note names the record.
TEST(CachePersistTest, RunRecordKeyMustBelongToItsClientSection) {
  struct Damage {
    const char *Name;
    size_t Offset; ///< from the start of the record: client, property
    char Byte;
  };
  const Damage Damages[] = {{"type-state client byte", 0, 1},
                            {"non-empty property", 1, 1}};
  for (const Damage &D : Damages) {
    SCOPED_TRACE(D.Name);
    TempDir Dir("runkey");
    service::AnalysisService Svc(warmOptions(Dir.Path));
    answerAllChecks(Svc, EscapeProgram);
    ASSERT_TRUE(Svc.cacheOp("persist").Ok);
    std::string Snap = onlySnapshotIn(Dir.Path);
    ASSERT_FALSE(Snap.empty());

    // Walk the header, fingerprint and verdicts to the first run record.
    tracer::SnapshotReader R;
    ASSERT_TRUE(R.open(Snap)) << R.error();
    std::string Text;
    uint8_t B = 0;
    uint32_t N = 0, U = 0, NumVerdicts = 0, NumRuns = 0;
    uint64_t H = 0;
    ASSERT_TRUE(R.str(Text) && R.u32(N));
    for (uint32_t I = 0; I < N; ++I)
      ASSERT_TRUE(R.str(Text) && R.u64(H) && R.u64(H));
    for (int I = 0; I < 8; ++I)
      ASSERT_TRUE(R.u32(U));
    ASSERT_TRUE(R.u32(NumVerdicts));
    for (uint32_t I = 0; I < NumVerdicts; ++I)
      ASSERT_TRUE(R.u8(B) && R.str(Text) && R.u32(U) && R.str(Text) &&
                  R.u32(U) && R.u8(B) && R.u32(U) && R.u32(U) &&
                  R.str(Text) && R.u32(U) && R.u8(B));
    ASSERT_TRUE(R.u32(NumRuns));
    ASSERT_GT(NumRuns, 0u);
    std::string Bytes = slurp(Snap);
    ASSERT_EQ(Bytes[R.offset()], 0) << "the escape section comes first";
    Bytes[R.offset() + D.Offset] = D.Byte;
    resealSnapshot(Bytes);
    dump(Snap, Bytes);

    ASSERT_TRUE(Svc.cacheOp("evict").Ok);
    service::CacheOpResult L = Svc.cacheOp("load");
    ASSERT_TRUE(L.Ok) << L.Error;
    EXPECT_EQ(L.RunsLoaded, 0u);
    bool Noted = false;
    for (const std::string &Note : L.Notes)
      Noted = Noted || Note.find("does not belong to its client section") !=
                           std::string::npos;
    EXPECT_TRUE(Noted) << "no structured note names the run record";
  }
}

//===----------------------------------------------------------------------===//
// Spill-to-disk and rehydration
//===----------------------------------------------------------------------===//

TEST(CachePersistTest, SpilledRunsRehydrateFromDiskOnDemand) {
  TempDir Dir("spill");
  service::AnalysisService::Options O = warmOptions(Dir.Path);
  service::AnalysisService Svc(O);
  ASSERT_TRUE(Svc.registerProgram("p", EscapeProgram).Ok);
  service::SessionSpec Spec;
  Spec.Program = "p";
  Spec.Client = "escape";
  service::Session S = openOrDie(Svc, Spec);

  // Answer one check; its forward runs populate the cache.
  std::vector<std::future<service::QueryResult>> F1;
  F1.push_back(S.submit({0, 0, 0}));
  collect(Svc, F1);

  // Demote every unpinned run to a spill file.
  service::CacheOpResult Sp = Svc.cacheOp("spill");
  ASSERT_TRUE(Sp.Ok) << Sp.Error;
  EXPECT_GT(Sp.Spilled, 0u);
  EXPECT_GT(Sp.SpillWrites, 0u);

  // A *new* check shares forward runs with the first (the cache keys on
  // the abstraction, not the check), so answering it rehydrates spilled
  // runs instead of recomputing them.
  Program P;
  parseInto(EscapeProgram, P);
  escape::EscapeAnalysis A(P);
  Config Opts;
  tracer::QueryDriver<escape::EscapeAnalysis> Driver(P, A, Opts);
  std::vector<tracer::QueryOutcome> Want = Driver.run({CheckId(1)});
  ASSERT_EQ(Want.size(), 1u);

  std::vector<std::future<service::QueryResult>> F2;
  F2.push_back(S.submit({1, 0, 0}));
  std::vector<service::QueryResult> Got = collect(Svc, F2);
  ASSERT_EQ(Got.size(), 1u);
  expectSameVerdict(Want[0], Got[0]);

  service::CacheOpResult St = Svc.cacheOp("stats");
  ASSERT_TRUE(St.Ok);
  EXPECT_GT(St.SpillLoads, 0u) << "second check never touched the spill tier";
}

TEST(CachePersistTest, MemoryPressureSpillsInsteadOfEvicting) {
  TempDir Dir("pressure");

  // The oracle under the same (absurdly tight) memory budget: the
  // degradation ladder fires either way; with a cache dir armed its
  // first rung must spill, and spilling may never change a verdict.
  Program P;
  parseInto(EscapeProgram, P);
  escape::EscapeAnalysis A(P);
  Config Opts;
  Opts.Budgets.MemoryBudgetBytes = 1;
  tracer::QueryDriver<escape::EscapeAnalysis> Driver(P, A, Opts);
  std::vector<tracer::QueryOutcome> Want =
      Driver.run({CheckId(0), CheckId(1), CheckId(2)});

  service::AnalysisService Svc(warmOptions(Dir.Path));
  ASSERT_TRUE(Svc.registerProgram("p", EscapeProgram).Ok);
  service::SessionSpec Spec;
  Spec.Program = "p";
  Spec.Client = "escape";
  Spec.SessionConfig.Budgets.MemoryBudgetBytes = 1;
  service::Session S = openOrDie(Svc, Spec);
  std::vector<std::future<service::QueryResult>> Futures;
  for (uint32_t C = 0; C < 3; ++C)
    Futures.push_back(S.submit({C, 0, 0}));
  std::vector<service::QueryResult> Got = collect(Svc, Futures);
  ASSERT_EQ(Got.size(), Want.size());
  for (size_t I = 0; I < Want.size(); ++I)
    expectSameVerdict(Want[I], Got[I]);

  // The ladder demoted entries through the disk tier, not past it.
  service::CacheOpResult St = Svc.cacheOp("stats");
  ASSERT_TRUE(St.Ok);
  EXPECT_GT(St.SpillWrites, 0u)
      << "memory pressure evicted outright despite an armed spill tier";
}

TEST(CachePersistTest, EvictDropsEverythingWithoutSpilling) {
  TempDir Dir("evict");
  service::AnalysisService Svc(warmOptions(Dir.Path));
  answerAllChecks(Svc, EscapeProgram);

  service::CacheOpResult Before = Svc.cacheOp("stats");
  ASSERT_TRUE(Before.Ok);
  ASSERT_GT(Before.Entries, 0u);

  service::CacheOpResult Ev = Svc.cacheOp("evict");
  ASSERT_TRUE(Ev.Ok) << Ev.Error;
  EXPECT_GT(Ev.Evicted, 0u);
  EXPECT_EQ(Ev.Spilled, 0u);

  service::CacheOpResult After = Svc.cacheOp("stats");
  ASSERT_TRUE(After.Ok);
  EXPECT_EQ(After.Entries, 0u);
  EXPECT_EQ(After.SpillWrites, 0u); // evict never writes spill files
}

//===----------------------------------------------------------------------===//
// Freshness floors survive snapshot loads
//===----------------------------------------------------------------------===//

TEST(CachePersistTest, LoadedVerdictsDoNotUnshadowStaleMigratedRuns) {
  TempDir Dir("floors");

  // Oracles for both versions. The guard below keeps the test potent: if
  // the two versions ever stopped disagreeing, serving one's runs for the
  // other would become unobservable.
  Program P1, P2;
  parseInto(EscapeProgram, P1);
  parseInto(EscapeProgramModified, P2);
  escape::EscapeAnalysis A1(P1), A2(P2);
  Config Opts;
  tracer::QueryDriver<escape::EscapeAnalysis> D1(P1, A1, Opts);
  tracer::QueryDriver<escape::EscapeAnalysis> D2(P2, A2, Opts);
  std::vector<tracer::QueryOutcome> Want1 =
      D1.run({CheckId(0), CheckId(1), CheckId(2)});
  std::vector<tracer::QueryOutcome> Want2 =
      D2.run({CheckId(0), CheckId(1), CheckId(2)});
  ASSERT_EQ(Want1.size(), Want2.size());
  bool Differ = false;
  for (size_t I = 0; I < Want1.size(); ++I)
    Differ = Differ || Want1[I].V != Want2[I].V ||
             Want1[I].Iterations != Want2[I].Iterations ||
             Want1[I].CheapestCost != Want2[I].CheapestCost;
  ASSERT_TRUE(Differ) << "the two program versions must disagree somewhere";

  // A peer persists a snapshot of the *modified* version.
  {
    service::AnalysisService Peer(warmOptions(Dir.Path));
    answerAllChecks(Peer, EscapeProgramModified);
    ASSERT_TRUE(Peer.cacheOp("persist").Ok);
  }

  // This service computes forward runs against the original version, then
  // re-registers the modified text: main is dirty, so every check's
  // freshness floor rises and the migrated runs become stale (shadowed in
  // memory, never served). The re-registration auto-warm then loads the
  // peer's snapshot - its verdicts are exact for the live version, but
  // admitting them must not lower any floor.
  service::AnalysisService Svc(warmOptions(Dir.Path));
  answerAllChecks(Svc, EscapeProgram);
  ASSERT_TRUE(Svc.registerProgram("p", EscapeProgramModified).Ok);

  // A session under a *different* options signature (the event-trace path
  // is part of it) cannot replay the loaded verdicts, so the driver runs -
  // and the floors must still shadow the stale migrated runs. Served
  // stale, those runs would reproduce the original version's outcomes.
  service::SessionSpec Traced;
  Traced.Program = "p";
  Traced.Client = "escape";
  Traced.SessionConfig.Observability.EventTracePath =
      Dir.Path + "/other-sig.jsonl";
  service::Session S = openOrDie(Svc, Traced);
  std::vector<std::future<service::QueryResult>> F;
  for (uint32_t C = 0; C < 3; ++C)
    F.push_back(S.submit({C, 0, 0}));
  std::vector<service::QueryResult> Got = collect(Svc, F);
  ASSERT_EQ(Got.size(), Want2.size());
  for (size_t I = 0; I < Want2.size(); ++I)
    expectSameVerdict(Want2[I], Got[I]);
  EXPECT_EQ(Svc.stats().VerdictsReplayed, 0u);

  // The loaded verdicts still replay for a matching signature, within the
  // epoch that admitted them - warm restarts depend on it.
  service::SessionSpec Plain;
  Plain.Program = "p";
  Plain.Client = "escape";
  service::Session S2 = openOrDie(Svc, Plain);
  std::vector<std::future<service::QueryResult>> F2;
  for (uint32_t C = 0; C < 3; ++C)
    F2.push_back(S2.submit({C, 0, 0}));
  std::vector<service::QueryResult> Got2 = collect(Svc, F2);
  ASSERT_EQ(Got2.size(), Want2.size());
  for (size_t I = 0; I < Want2.size(); ++I)
    expectSameVerdict(Want2[I], Got2[I]);
  EXPECT_EQ(Svc.stats().VerdictsReplayed, Want2.size());
}

//===----------------------------------------------------------------------===//
// Persist is read-only on live analysis state
//===----------------------------------------------------------------------===//

TEST(CachePersistTest, PersistMergesWithoutMutatingLiveState) {
  TempDir Dir("mergero");
  {
    service::AnalysisService Svc(warmOptions(Dir.Path));
    answerAllChecks(Svc, EscapeProgram);
    ASSERT_TRUE(Svc.cacheOp("persist").Ok);
  }

  // A second service registers (auto-warming from the snapshot), then
  // evicts its caches. A persist now takes the merge path - the old
  // snapshot's runs are absent live - and must union them into the new
  // file WITHOUT resurrecting them in memory.
  service::AnalysisService Svc(warmOptions(Dir.Path));
  ASSERT_TRUE(Svc.registerProgram("p", EscapeProgram).Ok);
  ASSERT_TRUE(Svc.cacheOp("evict").Ok);
  service::CacheOpResult Before = Svc.cacheOp("stats");
  ASSERT_TRUE(Before.Ok);
  ASSERT_EQ(Before.Entries, 0u);

  service::CacheOpResult Pe = Svc.cacheOp("persist");
  ASSERT_TRUE(Pe.Ok) << Pe.Error;
  EXPECT_GT(Pe.RunsPersisted, 0u); // the union carried the on-disk runs
  EXPECT_EQ(Pe.RunsLoaded, 0u);    // ...without loading them live
  service::CacheOpResult After = Svc.cacheOp("stats");
  ASSERT_TRUE(After.Ok);
  EXPECT_EQ(After.Entries, 0u) << "persist refilled the live caches";

  // The union survives: a third service comes up warm off the merged
  // snapshot and answers the whole workload with zero fixpoints.
  Program P;
  parseInto(EscapeProgram, P);
  escape::EscapeAnalysis A(P);
  Config Opts;
  tracer::QueryDriver<escape::EscapeAnalysis> Driver(P, A, Opts);
  std::vector<tracer::QueryOutcome> Want =
      Driver.run({CheckId(0), CheckId(1), CheckId(2)});
  service::AnalysisService Warm(warmOptions(Dir.Path));
  std::vector<service::QueryResult> Got = answerAllChecks(Warm, EscapeProgram);
  ASSERT_EQ(Got.size(), Want.size());
  for (size_t I = 0; I < Want.size(); ++I)
    expectSameVerdict(Want[I], Got[I]);
  EXPECT_EQ(Warm.stats().ForwardRuns, 0u);
}

//===----------------------------------------------------------------------===//
// Claimed record counts are clamped against the payload
//===----------------------------------------------------------------------===//

TEST(CachePersistTest, HugeClaimedProcCountIsRejectedStructurally) {
  TempDir Dir("hugecount");
  service::AnalysisService Svc(warmOptions(Dir.Path));
  answerAllChecks(Svc, EscapeProgram);
  ASSERT_TRUE(Svc.cacheOp("persist").Ok);
  std::string Snap = onlySnapshotIn(Dir.Path);
  ASSERT_FALSE(Snap.empty());

  // A checksummed but crafted snapshot claiming ~4 billion procedure
  // records. The claim exceeds the remaining payload, so the load must
  // fail with a structured note - never size a multi-gigabyte loop.
  tracer::SnapshotWriter W;
  W.str("p");
  W.u32(0xffffffffu);
  std::string Err;
  ASSERT_TRUE(W.commit(Snap, Err)) << Err;

  service::CacheOpResult R = Svc.cacheOp("load");
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.RunsLoaded + R.VerdictsLoaded, 0u);
  bool Noted = false;
  for (const std::string &N : R.Notes)
    Noted = Noted || N.find("proc count") != std::string::npos;
  EXPECT_TRUE(Noted) << "no structured note names the bogus count";
}

TEST(CachePersistTest, AbsStateValueCountIsClampedToPayload) {
  TempDir Dir("codecclamp");
  std::string Path = Dir.Path + "/state.snap";
  tracer::SnapshotWriter W;
  W.u8(0);            // Top flag
  W.u32(3);           // automaton state
  W.u32(0xffffffffu); // claimed value count, nothing behind it
  std::string Err;
  ASSERT_TRUE(W.commit(Path, Err)) << Err;

  tracer::SnapshotReader R;
  ASSERT_TRUE(R.open(Path)) << R.error();
  typestate::AbsState S;
  using Ts = service::ClientTraits<typestate::TypestateAnalysis>;
  EXPECT_FALSE(Ts::Codec().load(R, S));
  EXPECT_TRUE(R.failed());
  EXPECT_NE(R.error().find("value count"), std::string::npos) << R.error();
}

//===----------------------------------------------------------------------===//
// The spill budget counts what is already on disk
//===----------------------------------------------------------------------===//

TEST(CachePersistTest, SpillBudgetCountsPreExistingFiles) {
  TempDir Dir("budget");
  {
    // First life: unlimited budget, leave real spill files behind.
    service::AnalysisService Svc(warmOptions(Dir.Path));
    answerAllChecks(Svc, EscapeProgram);
    service::CacheOpResult Sp = Svc.cacheOp("spill");
    ASSERT_TRUE(Sp.Ok) << Sp.Error;
    // At least two files, so every rewrite attempt below still carries a
    // nonzero charge from the *other* pre-existing files.
    ASSERT_GT(Sp.SpillWrites, 1u);
  }

  // Second life: a 1-byte budget. The pre-existing files already exceed
  // it (the directory scan charges them), so the first spill attempt
  // must fall back to plain eviction - restarting never resets the
  // budget.
  service::AnalysisService::Options O = warmOptions(Dir.Path);
  O.Base.Service.SpillBytes = 1;
  service::AnalysisService Svc(O);
  answerAllChecks(Svc, EscapeProgram);
  service::CacheOpResult Sp = Svc.cacheOp("spill");
  ASSERT_TRUE(Sp.Ok) << Sp.Error;
  EXPECT_EQ(Sp.Spilled, 0u) << "restart reset the spill budget";
  EXPECT_GT(Sp.Evicted, 0u);
}

//===----------------------------------------------------------------------===//
// Type-state runs: snapshot, spill, and a mixed-client snapshot after an edit
//===----------------------------------------------------------------------===//

// Two procedures with one tracked allocation site each. x's close goes
// through an alias, so the named file property needs both names tracked;
// p2 is parsed last, so an edit confined to it leaves check 0's footprint
// (main, p1) clean and dirties check 1's.
const char *TypestateProgram = "proc main {\n"
                               "  call p1;\n"
                               "  call p2;\n"
                               "}\n"
                               "proc p1 {\n"
                               "  x = new h1;\n"
                               "  y = x;\n"
                               "  x.open();\n"
                               "  y.close();\n"
                               "  check(x, closed);\n"
                               "}\n"
                               "proc p2 {\n"
                               "  f = new h2;\n"
                               "  g = f;\n"
                               "  f.open();\n"
                               "  check(g, opened);\n"
                               "}\n";

// TypestateProgram with p2's copy duplicated: comparable, p2 dirty.
std::string editP2(const std::string &Text) {
  std::string Out = Text;
  size_t At = Out.find("  f.open();");
  EXPECT_NE(At, std::string::npos);
  Out.insert(At, "  g = f;\n");
  return Out;
}

const char *FileProperty = "init=closed; open: closed->opened, opened->ERR; "
                           "close: opened->closed, closed->ERR";

/// The standalone type-state oracle: one driver per tracked site, as the
/// CLI runs the client, over every (check, site) pair whose receiver may
/// point to the site. \p Pairs receives the pairs in result order.
std::vector<tracer::QueryOutcome>
typestateOracle(const std::string &Text, bool Named,
                std::vector<std::pair<uint32_t, uint32_t>> &Pairs) {
  Program P;
  parseInto(Text.c_str(), P);
  typestate::TypestateSpec Spec = Named ? typestate::makeFileProperty(P)
                                        : typestate::TypestateSpec::stress();
  pointer::PointsToResult Pt = pointer::runPointsTo(P);
  std::vector<tracer::QueryOutcome> Want;
  Pairs.clear();
  for (uint32_t H = 0; H < P.numAllocs(); ++H) {
    std::vector<CheckId> Queries;
    for (uint32_t C = 0; C < P.numChecks(); ++C)
      if (Pt.mayPoint(P.checkSite(CheckId(C)).Var, AllocId(H)))
        Queries.push_back(CheckId(C));
    if (Queries.empty())
      continue;
    typestate::TypestateAnalysis A(P, Spec, AllocId(H), Pt);
    tracer::QueryDriver<typestate::TypestateAnalysis> Driver(P, A);
    for (const tracer::QueryOutcome &O : Driver.run(Queries))
      Want.push_back(O);
    for (CheckId C : Queries)
      Pairs.push_back({static_cast<uint32_t>(C.index()), H});
  }
  return Want;
}

/// Submits every (check, site) pair through a type-state session on "p"
/// and returns the results in submission order.
std::vector<service::QueryResult>
answerTypestate(service::AnalysisService &Svc, const std::string &Property,
                const std::vector<std::pair<uint32_t, uint32_t>> &Pairs,
                const Config &SessionConfig = Config()) {
  service::SessionSpec Spec;
  Spec.Program = "p";
  Spec.Client = "typestate";
  Spec.Property = Property;
  Spec.SessionConfig = SessionConfig;
  service::Session S = openOrDie(Svc, Spec);
  std::vector<std::future<service::QueryResult>> Futures;
  for (auto [Check, Site] : Pairs)
    Futures.push_back(S.submit({Check, Site, 0}));
  return collect(Svc, Futures);
}

/// Every result equals the oracle's outcome at the same position.
void expectOracle(const std::vector<tracer::QueryOutcome> &Want,
                  const std::vector<service::QueryResult> &Got) {
  ASSERT_EQ(Got.size(), Want.size());
  for (size_t I = 0; I < Want.size(); ++I)
    expectSameVerdict(Want[I], Got[I]);
}

TEST(CachePersistTest, TypestateWarmRestartLoadsEveryPersistedRun) {
  TempDir Dir("tswarm");
  std::vector<std::pair<uint32_t, uint32_t>> NamedPairs, StressPairs;
  std::vector<tracer::QueryOutcome> WantNamed =
      typestateOracle(TypestateProgram, true, NamedPairs);
  std::vector<tracer::QueryOutcome> WantStress =
      typestateOracle(TypestateProgram, false, StressPairs);
  std::set<uint32_t> Sites;
  for (auto [Check, Site] : NamedPairs)
    Sites.insert(Site);
  ASSERT_GE(Sites.size(), 2u) << "the test needs two tracked sites";

  // First life: both families answer cold, then persist.
  uint64_t Persisted = 0;
  {
    service::AnalysisService Svc(warmOptions(Dir.Path));
    ASSERT_TRUE(Svc.registerProgram("p", TypestateProgram).Ok);
    expectOracle(WantNamed, answerTypestate(Svc, FileProperty, NamedPairs));
    expectOracle(WantStress, answerTypestate(Svc, "", StressPairs));
    EXPECT_GT(Svc.stats().ForwardRuns, 0u);
    service::CacheOpResult R = Svc.cacheOp("persist");
    ASSERT_TRUE(R.Ok) << R.Error;
    EXPECT_EQ(R.RunsSkipped, 0u);
    EXPECT_EQ(R.VerdictsPersisted, NamedPairs.size() + StressPairs.size());
    Persisted = R.RunsPersisted;
    ASSERT_GT(Persisted, 0u);
  }

  // Second life: registration auto-warms every run; evicting and
  // re-loading them shows each persisted run resolves its family again.
  service::AnalysisService Svc(warmOptions(Dir.Path));
  ASSERT_TRUE(Svc.registerProgram("p", TypestateProgram).Ok);
  service::CacheOpResult St = Svc.cacheOp("stats");
  ASSERT_TRUE(St.Ok);
  EXPECT_EQ(St.Entries, Persisted);
  ASSERT_TRUE(Svc.cacheOp("evict").Ok);
  service::CacheOpResult L = Svc.cacheOp("load");
  ASSERT_TRUE(L.Ok) << L.Error;
  EXPECT_EQ(L.RunsLoaded, Persisted);
  EXPECT_EQ(L.RunsSkipped, 0u);
  EXPECT_TRUE(L.Notes.empty());

  // Same sessions: every verdict replays. A different options signature
  // cannot replay, so its driver runs - entirely on the loaded runs.
  expectOracle(WantNamed, answerTypestate(Svc, FileProperty, NamedPairs));
  expectOracle(WantStress, answerTypestate(Svc, "", StressPairs));
  EXPECT_EQ(Svc.stats().VerdictsReplayed,
            NamedPairs.size() + StressPairs.size());
  Config Other;
  Other.Execution.MaxItersPerQuery = 99;
  expectOracle(WantNamed,
               answerTypestate(Svc, FileProperty, NamedPairs, Other));
  expectOracle(WantStress, answerTypestate(Svc, "", StressPairs, Other));
  service::ServiceStats S = Svc.stats();
  EXPECT_EQ(S.ForwardRuns, 0u);
  EXPECT_GT(S.CacheHits, 0u);
}

TEST(CachePersistTest, SpilledTypestateRunsRehydrate) {
  TempDir Dir("tsspill");
  std::vector<std::pair<uint32_t, uint32_t>> Pairs;
  std::vector<tracer::QueryOutcome> Want =
      typestateOracle(TypestateProgram, true, Pairs);

  service::AnalysisService Svc(warmOptions(Dir.Path));
  ASSERT_TRUE(Svc.registerProgram("p", TypestateProgram).Ok);
  std::vector<service::QueryResult> Cold =
      answerTypestate(Svc, FileProperty, Pairs);
  ASSERT_EQ(Cold.size(), Want.size());
  uint64_t ColdForwardRuns = Svc.stats().ForwardRuns;

  service::CacheOpResult Sp = Svc.cacheOp("spill");
  ASSERT_TRUE(Sp.Ok) << Sp.Error;
  EXPECT_EQ(Sp.Spilled, ColdForwardRuns);
  EXPECT_EQ(Sp.Evicted, 0u);
  EXPECT_EQ(Sp.Entries, 0u);

  // A same-epoch re-query runs the driver again (only cross-epoch or
  // loaded verdicts replay); every run it needs comes back from disk.
  std::vector<service::QueryResult> Again =
      answerTypestate(Svc, FileProperty, Pairs);
  ASSERT_EQ(Again.size(), Want.size());
  for (size_t I = 0; I < Want.size(); ++I)
    expectSameVerdict(Want[I], Again[I]);
  EXPECT_EQ(Svc.stats().ForwardRuns, ColdForwardRuns);
  service::CacheOpResult St = Svc.cacheOp("stats");
  ASSERT_TRUE(St.Ok);
  EXPECT_GT(St.SpillLoads, 0u);
  EXPECT_EQ(St.SpillLoads, ColdForwardRuns);
}

// Two services that share a cache dir hand out family indices in their
// own first-use order, so each one's first property gets the same index.
// A spill file names its run by the property text: a peer's first session
// on another property must not rehydrate the first service's runs.
TEST(CachePersistTest, PeerSpillFilesOfAnotherPropertyAreNotServed) {
  TempDir Dir("tspeerspill");
  std::vector<std::pair<uint32_t, uint32_t>> NamedPairs, StressPairs;
  typestateOracle(TypestateProgram, true, NamedPairs);
  std::vector<tracer::QueryOutcome> Want =
      typestateOracle(TypestateProgram, false, StressPairs);

  service::AnalysisService First(warmOptions(Dir.Path));
  ASSERT_TRUE(First.registerProgram("p", TypestateProgram).Ok);
  answerTypestate(First, FileProperty, NamedPairs);
  service::CacheOpResult Sp = First.cacheOp("spill");
  ASSERT_TRUE(Sp.Ok) << Sp.Error;
  ASSERT_GT(Sp.Spilled, 0u);

  service::AnalysisService Peer(warmOptions(Dir.Path));
  ASSERT_TRUE(Peer.registerProgram("p", TypestateProgram).Ok);
  Config Other;
  Other.Execution.MaxItersPerQuery = 99;
  expectOracle(Want, answerTypestate(Peer, "", StressPairs, Other));
  EXPECT_GT(Peer.stats().ForwardRuns, 0u);
  service::CacheOpResult St = Peer.cacheOp("stats");
  ASSERT_TRUE(St.Ok);
  EXPECT_EQ(St.SpillLoads, 0u) << "a peer's spill file was served";
}

// The same index collision through a snapshot: the peer persists (merging
// the first service's snapshot on the side) while its own first property
// holds the index the snapshot's property had. The persist must change
// nothing live, so the peer's next session on that property computes its
// own runs instead of hitting the other property's.
TEST(CachePersistTest, PeerSnapshotMergeLeavesFamilyIndicesAlone) {
  TempDir Dir("tspeermerge");
  std::vector<std::pair<uint32_t, uint32_t>> NamedPairs, StressPairs;
  std::vector<tracer::QueryOutcome> WantNamed =
      typestateOracle(TypestateProgram, true, NamedPairs);
  std::vector<tracer::QueryOutcome> WantStress =
      typestateOracle(TypestateProgram, false, StressPairs);

  service::AnalysisService First(warmOptions(Dir.Path));
  service::AnalysisService Peer(warmOptions(Dir.Path));
  ASSERT_TRUE(First.registerProgram("p", TypestateProgram).Ok);
  ASSERT_TRUE(Peer.registerProgram("p", TypestateProgram).Ok);
  answerTypestate(Peer, FileProperty, NamedPairs);
  answerTypestate(First, "", StressPairs);
  ASSERT_TRUE(First.cacheOp("persist").Ok);

  service::CacheOpResult Before = Peer.cacheOp("stats");
  service::CacheOpResult Pe = Peer.cacheOp("persist");
  ASSERT_TRUE(Pe.Ok) << Pe.Error;
  EXPECT_EQ(Pe.RunsLoaded + Pe.VerdictsLoaded, 0u);
  EXPECT_GT(Pe.RunsPersisted, Before.Entries) << "the merge lost runs";
  EXPECT_EQ(Peer.cacheOp("stats").Entries, Before.Entries);

  Config Other;
  Other.Execution.MaxItersPerQuery = 99;
  uint64_t RunsBefore = Peer.stats().ForwardRuns;
  expectOracle(WantStress, answerTypestate(Peer, "", StressPairs, Other));
  EXPECT_GT(Peer.stats().ForwardRuns, RunsBefore);

  // The merged file serves both properties to a third service.
  service::AnalysisService Warm(warmOptions(Dir.Path));
  ASSERT_TRUE(Warm.registerProgram("p", TypestateProgram).Ok);
  expectOracle(WantNamed,
               answerTypestate(Warm, FileProperty, NamedPairs, Other));
  expectOracle(WantStress, answerTypestate(Warm, "", StressPairs, Other));
  EXPECT_EQ(Warm.stats().ForwardRuns, 0u);
}

TEST(CachePersistTest, MixedSnapshotAfterAnEditSkipsExactlyTheStaleParts) {
  TempDir Before("mixed-before"), After("mixed-after");
  std::vector<std::pair<uint32_t, uint32_t>> Pairs;
  typestateOracle(TypestateProgram, true, Pairs);
  ASSERT_EQ(Pairs.size(), 2u);

  // One snapshot holding escape runs, type-state runs and both clients'
  // verdicts for the original program.
  {
    service::AnalysisService Svc(warmOptions(Before.Path));
    ASSERT_TRUE(Svc.registerProgram("p", TypestateProgram).Ok);
    service::SessionSpec Spec;
    Spec.Program = "p";
    Spec.Client = "escape";
    service::Session S = openOrDie(Svc, Spec);
    std::vector<std::future<service::QueryResult>> Futures;
    for (uint32_t C = 0; C < 2; ++C)
      Futures.push_back(S.submit({C, 0, 0}));
    collect(Svc, Futures);
    answerTypestate(Svc, FileProperty, Pairs);
    service::CacheOpResult R = Svc.cacheOp("persist");
    ASSERT_TRUE(R.Ok) << R.Error;
    EXPECT_EQ(R.VerdictsPersisted, 4u);
    EXPECT_EQ(R.RunsPersisted, 7u);
  }

  // A service on the edited program, in a directory the snapshot reaches
  // only after registration (so the explicit load below is the first).
  std::string Edited = editP2(TypestateProgram);
  service::AnalysisService Svc(warmOptions(After.Path));
  ASSERT_TRUE(Svc.registerProgram("p", Edited).Ok);
  std::string Snap = onlySnapshotIn(Before.Path);
  ASSERT_FALSE(Snap.empty());
  dump(After.Path + Snap.substr(Before.Path.size()), slurp(Snap));

  // p2 changed: the two verdicts of check 1 are stale, the two of check 0
  // load; no forward run loads, and the type-state section stops at its
  // first run because its family cannot be resolved on a changed program.
  service::CacheOpResult L = Svc.cacheOp("load");
  ASSERT_TRUE(L.Ok) << L.Error;
  EXPECT_EQ(L.VerdictsLoaded, 2u);
  EXPECT_EQ(L.VerdictsSkipped, 2u);
  EXPECT_EQ(L.RunsLoaded, 0u);
  EXPECT_EQ(L.RunsSkipped, 7u);
  EXPECT_EQ(L.Notes,
            (std::vector<std::string>{
                "program 'p': skipped 2 stored verdict(s) whose check "
                "footprint changed since the snapshot",
                "program 'p': 1 procedure(s) changed since the snapshot; "
                "cached runs not loaded",
                "program 'p': remaining type-state runs not loaded (program "
                "changed since the snapshot)"}));

  // The clean verdicts replay and the stale ones recompute; every answer
  // matches a cold oracle on the edited program.
  std::vector<std::pair<uint32_t, uint32_t>> EditedPairs;
  std::vector<tracer::QueryOutcome> Want =
      typestateOracle(Edited, true, EditedPairs);
  ASSERT_EQ(EditedPairs, Pairs);
  std::vector<service::QueryResult> Got =
      answerTypestate(Svc, FileProperty, Pairs);
  ASSERT_EQ(Got.size(), Want.size());
  for (size_t I = 0; I < Want.size(); ++I)
    expectSameVerdict(Want[I], Got[I]);
  EXPECT_EQ(Svc.stats().VerdictsReplayed, 1u);
}

} // namespace
