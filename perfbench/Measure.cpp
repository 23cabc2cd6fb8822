//===- Measure.cpp - Percentiles, /proc readers, and the ledger sum ------===//

#include "Measure.h"

#include <algorithm>
#include <cmath>
#include <dirent.h>
#include <fstream>
#include <sstream>
#include <unistd.h>

namespace perfbench {

namespace {

size_t nearestRank(size_t N, double Q) {
  double R = std::ceil(Q * static_cast<double>(N));
  size_t Rank = R < 1 ? 1 : static_cast<size_t>(R);
  return std::min(Rank, N);
}

std::string slurp(const std::string &Path) {
  std::ifstream In(Path);
  if (!In)
    return {};
  std::ostringstream OS;
  OS << In.rdbuf();
  return OS.str();
}

/// Whitespace-separated fields after the last ')' of a /proc/PID/stat
/// line: index 0 is field 3 (state).
std::vector<std::string> statFieldsAfterComm(const std::string &StatText) {
  std::vector<std::string> Fields;
  size_t Close = StatText.rfind(')');
  if (Close == std::string::npos)
    return Fields;
  std::istringstream IS(StatText.substr(Close + 1));
  std::string F;
  while (IS >> F)
    Fields.push_back(F);
  return Fields;
}

std::optional<uint64_t> parseUnsigned(const std::string &S) {
  if (S.empty() || S.find_first_not_of("0123456789") != std::string::npos)
    return std::nullopt;
  return std::stoull(S);
}

} // namespace

double percentile(std::vector<double> Samples, double Q) {
  if (Samples.empty())
    return 0;
  size_t Rank = nearestRank(Samples.size(), Q);
  std::nth_element(Samples.begin(), Samples.begin() + (Rank - 1),
                   Samples.end());
  return Samples[Rank - 1];
}

double median(std::vector<double> Samples) {
  if (Samples.empty())
    return 0;
  std::sort(Samples.begin(), Samples.end());
  size_t N = Samples.size();
  return N % 2 ? Samples[N / 2] : (Samples[N / 2 - 1] + Samples[N / 2]) / 2;
}

size_t samplesBeyond(size_t N, double Q) {
  return N == 0 ? 0 : N - nearestRank(N, Q);
}

size_t samplesNeededFor(double Q) {
  size_t N = 1;
  while (samplesBeyond(N, Q) < MinTailSamples)
    ++N;
  return N;
}

std::optional<uint64_t> parseVmHwmKb(const std::string &StatusText) {
  std::istringstream IS(StatusText);
  std::string Line;
  while (std::getline(IS, Line)) {
    if (Line.rfind("VmHWM:", 0) != 0)
      continue;
    std::istringstream LS(Line.substr(6));
    std::string Value, Unit;
    LS >> Value >> Unit;
    if (Unit != "kB")
      return std::nullopt;
    return parseUnsigned(Value);
  }
  return std::nullopt;
}

std::optional<uint64_t> parseCpuTicks(const std::string &StatText) {
  // utime and stime are fields 14 and 15; index 0 here is field 3.
  std::vector<std::string> F = statFieldsAfterComm(StatText);
  if (F.size() < 13)
    return std::nullopt;
  auto U = parseUnsigned(F[11]);
  auto S = parseUnsigned(F[12]);
  if (!U || !S)
    return std::nullopt;
  return *U + *S;
}

std::optional<pid_t> parseParentPid(const std::string &StatText) {
  std::vector<std::string> F = statFieldsAfterComm(StatText);
  if (F.size() < 2)
    return std::nullopt;
  auto P = parseUnsigned(F[1]);
  if (!P)
    return std::nullopt;
  return static_cast<pid_t>(*P);
}

std::optional<uint64_t> readVmHwmKb(pid_t Pid) {
  return parseVmHwmKb(slurp("/proc/" + std::to_string(Pid) + "/status"));
}

std::optional<uint64_t> readCpuTicks(pid_t Pid) {
  return parseCpuTicks(slurp("/proc/" + std::to_string(Pid) + "/stat"));
}

std::vector<pid_t> processTree(pid_t Root) {
  std::vector<pid_t> Out{Root};
  DIR *D = ::opendir("/proc");
  if (!D)
    return Out;
  while (dirent *E = ::readdir(D)) {
    auto Pid = parseUnsigned(E->d_name);
    if (!Pid)
      continue;
    auto Parent = parseParentPid(slurp("/proc/" + std::string(E->d_name) +
                                       "/stat"));
    if (Parent && *Parent == Root)
      Out.push_back(static_cast<pid_t>(*Pid));
  }
  ::closedir(D);
  std::sort(Out.begin() + 1, Out.end());
  return Out;
}

long ticksPerSecond() { return ::sysconf(_SC_CLK_TCK); }

LedgerSum ledgerSum(double RungSeconds, const std::vector<LayerTime> &Layers) {
  LedgerSum S;
  for (const LayerTime &L : Layers)
    S.AttributedSeconds += L.Seconds;
  S.UnattributedSeconds = RungSeconds - S.AttributedSeconds;
  S.AttributedShare = RungSeconds > 0 ? S.AttributedSeconds / RungSeconds : 0;
  return S;
}

} // namespace perfbench
