//===- Workloads.h - Seeded request scripts for the three workloads -*- C++ -*-===//
//
// Each workload is a deterministic function of (name, seed): the programs
// it registers, the sessions it opens, and an endless sequence of request
// units (a unit is what the closed-loop client sends between two points
// where the timed loop may stop). The servers only ever see the protocol
// lines these steps turn into; the seed never reaches them.
//
//   suite-cold    the seven synth::paperSuite() programs with both clients;
//                 one unit submits every job of one program (in seeded
//                 order), drains, and evicts that program's forward-run
//                 cache, so every pass runs cold.
//   tenants-hot   32 figure-6-shape tenant programs (seeded layout and
//                 names, fixed sizes), one escape session each; after a
//                 warm-up pass every unit is a seeded 8-job burst across
//                 tenants followed by a drain.
//   edit-requery  tsp, hedc and weblech, started warm from a primed cache
//                 dir; every unit registers a new version (the original
//                 with one seeded store repeated), re-queries every job of
//                 that program, drains, and persists.
//
// Only tenants-hot re-generates program text from the seed, and keeps
// each tenant's size: content changes move the cost by more than any
// bound the benchmark could keep (README.md), so on the suite workloads
// the seed orders jobs and picks edits.
//
//===----------------------------------------------------------------------===//

#ifndef OPTABS_PERFBENCH_WORKLOADS_H
#define OPTABS_PERFBENCH_WORKLOADS_H

#include "support/Prng.h"
#include "synth/Generator.h"

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

/// The seed the reference answer file was recorded at.
inline constexpr uint64_t DefaultSeed = 1;
/// A seed never used while the benchmark was tuned; later claims are
/// re-checked on it (README.md).
inline constexpr uint64_t HeldOutSeed = 7;

/// Every session runs with the experiment harness's iteration cap.
inline constexpr unsigned MaxItersPerQuery = 32;

struct ProgramDef {
  std::string Name;
  std::string Text; ///< initial version
};

struct SessionDef {
  uint32_t Program = 0; ///< index into Workload::programs()
  bool Typestate = false;
};

/// One job as the client submits it: a session index, a check, and (for
/// type-state sessions) the tracked allocation site.
struct JobDef {
  uint32_t Session = 0;
  uint32_t Check = 0;
  uint32_t Site = 0;
};

struct Step {
  enum class Kind : uint8_t { Register, Submit, Drain, Persist, Evict };
  Kind K = Kind::Drain;
  uint32_t Program = 0; ///< Register / Persist / Evict
  std::string Text;     ///< Register: the program's new version
  JobDef Job;           ///< Submit
};

using Unit = std::vector<Step>;

class Workload {
public:
  /// The known workload names, in BENCHMARK.json order.
  static const std::vector<std::string> &names();

  /// Builds workload \p Name for \p Seed; nullopt for an unknown name.
  static std::optional<Workload> make(const std::string &Name, uint64_t Seed);

  const std::string &name() const { return Name; }
  const std::vector<ProgramDef> &programs() const { return Programs; }
  const std::vector<SessionDef> &sessions() const { return Sessions; }
  /// Every job of each program, in a fixed order (index: program).
  const std::vector<std::vector<JobDef>> &jobsByProgram() const {
    return Jobs;
  }

  /// Servers of this workload get a cache dir and start warm from it.
  bool usesCacheDir() const { return CacheDir; }

  /// Units run against a fresh server before set-up to fill the cache
  /// dir (edit-requery only); the server is then shut down.
  std::vector<Unit> primingUnits() const;

  /// Units run after set-up and before timing (tenants-hot's warm-up).
  std::vector<Unit> warmupUnits() const;

  /// The next unit of the endless timed sequence; deterministic in
  /// (name, seed) and the number of units drawn so far.
  Unit nextUnit();

  /// Units per cycle: the timed loop stops only at a cycle boundary, so
  /// every run measures the same job mix.
  size_t unitsPerCycle() const { return CycleUnits; }

  /// Timed slices (whole cycles, >= 1000 jobs each) for a run of nominal
  /// length \p Seconds: a fixed amount of work, not a time limit. The
  /// supervisor's per-drain cost grows with every job it has ever seen,
  /// so a run that did more work because it ran faster would also pay
  /// more per job; fixed work keeps runs of two builds comparable.
  size_t timedSlices(double Seconds) const;

  /// Slices the traced run replays on each rung of its ladder: about 3 to
  /// 10 s of serial work, so rung differences stand above the noise.
  size_t tracedSlices() const { return TracedSlices; }

private:
  Workload(std::string Name, uint64_t Seed) : Name(std::move(Name)), Rng(Seed) {}

  void buildSuiteCold();
  void buildTenantsHot(uint64_t Seed);
  void buildEditRequery();
  /// Adds a program plus its escape session (and a type-state session when
  /// \p TsChecks is non-empty), and plans its jobs: every escape check,
  /// and every (check, site) pair of \p TsChecks with a site from the
  /// checked variable's points-to set.
  void addProgram(std::string Name, std::string Text,
                  const std::vector<uint32_t> &EscChecks,
                  const std::vector<uint32_t> &TsChecks);
  /// addProgram for a generated suite benchmark with both clients.
  void addSuiteProgram(const optabs::synth::BenchConfig &C, bool MainFirst);
  static Unit submits(const std::vector<JobDef> &Defs);

  std::string Name;
  optabs::Prng Rng;
  std::vector<ProgramDef> Programs;
  std::vector<SessionDef> Sessions;
  std::vector<std::vector<JobDef>> Jobs;
  bool CacheDir = false;
  size_t CycleUnits = 1;
  size_t SlicesPer10s = 3; ///< timedSlices(10): about 10 s of work here
  size_t TracedSlices = 1;
  size_t Drawn = 0;
  std::vector<uint32_t> Order;          ///< suite-cold: current cycle order
  std::vector<std::string> CurrentText; ///< edit-requery: latest versions
};

/// The edit-requery edit: duplicates one field or global store of the last
/// procedure in \p Text that has one, so no other procedure's ids shift
/// and every edit dirties the same few checks. Deterministic in \p Rng;
/// returns the text unchanged when it has no eligible store.
std::string duplicateOneStore(const std::string &Text, optabs::Prng &Rng);

/// Moves "proc main" to the top of a printed program, so edits further
/// down leave main's ids (and with them every check footprint) unchanged.
std::string mainFirst(const std::string &Text);

} // namespace perfbench

#endif // OPTABS_PERFBENCH_WORKLOADS_H
