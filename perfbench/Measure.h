//===- Measure.h - Percentiles, /proc readers, and the ledger sum --*- C++ -*-===//
//
// The small, separately tested arithmetic of the serving-path benchmark:
// the percentile rule for latency samples, readers for the server
// processes' peak RSS and CPU time from /proc, and the ledger identity
// that splits the serial rung's wall time into named layers plus an
// explicit unattributed remainder.
//
//===----------------------------------------------------------------------===//

#ifndef OPTABS_PERFBENCH_MEASURE_H
#define OPTABS_PERFBENCH_MEASURE_H

#include <cstdint>
#include <optional>
#include <string>
#include <sys/types.h>
#include <utility>
#include <vector>

namespace perfbench {

/// Samples a percentile needs beyond it before it may be reported (the
/// choosing-metrics rule: report the highest percentile with at least ten
/// samples beyond it).
inline constexpr size_t MinTailSamples = 10;

/// Nearest-rank percentile of \p Samples (need not be sorted):
/// the value at rank ceil(Q * N), 1-based. Q in (0, 1]. 0 when empty.
double percentile(std::vector<double> Samples, double Q);

double median(std::vector<double> Samples);

/// Samples strictly above rank ceil(Q * N): how many lie beyond the
/// Q-percentile under the nearest-rank rule.
size_t samplesBeyond(size_t N, double Q);

/// Fewest samples for which the Q-percentile has MinTailSamples beyond it
/// (1000 for p99).
size_t samplesNeededFor(double Q);

/// VmHWM (peak resident set) in KiB from the text of /proc/PID/status.
std::optional<uint64_t> parseVmHwmKb(const std::string &StatusText);

/// utime + stime in clock ticks from the text of /proc/PID/stat. The
/// command name may contain spaces and parentheses, so fields are counted
/// from the last ')'.
std::optional<uint64_t> parseCpuTicks(const std::string &StatText);

/// The parent pid (field 4) from the text of /proc/PID/stat.
std::optional<pid_t> parseParentPid(const std::string &StatText);

/// Live readers over /proc; nullopt when the process is gone.
std::optional<uint64_t> readVmHwmKb(pid_t Pid);
std::optional<uint64_t> readCpuTicks(pid_t Pid);

/// \p Root and its direct children (the supervisor and its workers).
std::vector<pid_t> processTree(pid_t Root);

/// Clock ticks per second for readCpuTicks.
long ticksPerSecond();

/// One named layer of the ledger with its self time.
struct LayerTime {
  std::string Name;
  double Seconds = 0;
};

/// The ledger identity on the serial rung: \p RungSeconds is split into
/// the layers' self times plus an unattributed remainder that is reported,
/// never dropped.
struct LedgerSum {
  double AttributedSeconds = 0;
  double UnattributedSeconds = 0;
  double AttributedShare = 0; ///< attributed / rung, 0 for an empty rung
};

LedgerSum ledgerSum(double RungSeconds, const std::vector<LayerTime> &Layers);

} // namespace perfbench

#endif // OPTABS_PERFBENCH_MEASURE_H
