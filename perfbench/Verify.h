//===- Verify.h - Independent checks of reported verdicts --------*- C++ -*-===//
//
// Every verdict the servers report is checked outside the timed phase
// against answers computed here, not by another run of the driver:
//
//  * proven     - the reported parameter, parsed back from its key, must
//                 make a plain ForwardAnalysis prove the check, and its
//                 cost must be the reported cost;
//  * impossible - the most precise abstraction (every bit set) must fail;
//  * minimality - when the abstractions cheaper than the reported one are
//                 few (for the program's size), all of them are run and none may prove the check
//                 (the TracerTest::bruteForceOptimum style); otherwise the
//                 cost is compared with the reference answer file;
//  * unresolved - compared with the reference answer file when it has the
//                 check, accepted otherwise.
//
//===----------------------------------------------------------------------===//

#ifndef OPTABS_PERFBENCH_VERIFY_H
#define OPTABS_PERFBENCH_VERIFY_H

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

/// The entity names of a parameter key: "[L:h1,h2]" (escape: sites mapped
/// to L) or "{x,y}" (type-state: tracked variables). nullopt when \p Key
/// is not of the client's form.
std::optional<std::vector<std::string>> parseParamKey(const std::string &Key,
                                                      bool Typestate);

/// FNV-1a 64 of \p S, printed as 16 hex digits.
std::string textHash(const std::string &S);

/// One answer of the reference file.
struct RefAnswer {
  std::string Verdict;
  uint32_t Cost = 0;
};

/// The reference answer file: one line per job, tab-separated
///   program  text-hash  client  site  check  verdict  cost
/// where text-hash is textHash of the program text.
class ReferenceAnswers {
public:
  bool load(const std::string &Path, std::string &Err);
  static std::string key(const std::string &Program, const std::string &Text,
                         bool Typestate, uint32_t Site, uint32_t Check);
  const RefAnswer *find(const std::string &Key) const;
  void add(const std::string &Key, const RefAnswer &A) { Answers[Key] = A; }
  bool write(const std::string &Path, std::string &Err) const;
  size_t size() const { return Answers.size(); }

private:
  std::map<std::string, RefAnswer> Answers;
};

struct VerifyCounts {
  uint64_t Checked = 0;
  uint64_t Wrong = 0;
  uint64_t MinimalityEnumerated = 0;
  uint64_t MinimalityByReference = 0;
  uint64_t MinimalityUnchecked = 0;
  uint64_t ForwardRuns = 0;
  std::vector<std::string> Problems; ///< first few wrong answers, explained
};

class Verifier {
public:
  /// \p Ref may be null. A minimality check enumerates the cheaper
  /// abstractions only while their number times the program's command
  /// count stays within \p MaxWork.
  Verifier(const ReferenceAnswers *Ref, uint64_t MaxWork);
  ~Verifier();

  /// Checks one answer; false (with the reason in counts().Problems) when
  /// it is wrong. \p Text is the program the answer must hold for.
  bool check(const std::string &Program, const std::string &Text,
             bool Typestate, uint32_t Site, uint32_t Check,
             const std::string &Verdict, uint32_t Cost,
             const std::string &Param);

  const VerifyCounts &counts() const { return Counts; }

  /// One parsed program version with one client (and type-state site).
  struct Group;

private:
  Group &group(const std::string &Text, bool Typestate, uint32_t Site);
  void wrong(const std::string &What);

  const ReferenceAnswers *Ref;
  uint64_t MaxWork;
  VerifyCounts Counts;
  std::map<std::string, std::unique_ptr<Group>> Groups;
  /// Answers already checked: the key plus verdict/cost/param.
  std::map<std::string, bool> Seen;
};

} // namespace perfbench

#endif // OPTABS_PERFBENCH_VERIFY_H
