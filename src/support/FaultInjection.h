//===- FaultInjection.h - Deterministic fault injection for recovery tests ===//
//
// A tiny site registry that lets tests (and CI) force the rare failure paths
// the resource governor must survive: an allocation failure at a specific
// site, a forced cancellation, or an injected invariant breakage. Faults are
// armed either programmatically (FaultRegistry::global().arm(Spec, Err)) or
// through the OPTABS_FAULTS environment variable, using the spec grammar
//
//   SPEC  ::= ARM (';' ARM)*
//   ARM   ::= SITE ':' KIND ('@' N)?      // fire on the N-th hit (default 1)
//   KIND  ::= 'alloc' | 'cancel' | 'invariant'
//
// e.g. OPTABS_FAULTS="dnf.product:alloc@3;driver.schedule:cancel". Each arm
// fires exactly once. Sites are validated against knownSites() so a typo in
// a spec is an error, not a silent no-op.
//
// When nothing is armed the cost at every site is a single relaxed atomic
// load (same pattern as support::metricsEnabled()).
//
//===----------------------------------------------------------------------===//

#ifndef OPTABS_SUPPORT_FAULTINJECTION_H
#define OPTABS_SUPPORT_FAULTINJECTION_H

#include <atomic>
#include <cstdint>
#include <mutex>
#include <new>
#include <optional>
#include <string>
#include <vector>

namespace optabs::support {

enum class FaultKind : uint8_t {
  Alloc,     // simulate an allocation failure: faultPoint throws bad_alloc
  Cancel,    // simulate an external cancellation request
  Invariant, // simulate corrupted internal state (an invariant breakage)
};

/// Global flag mirroring "is at least one fault armed". Kept outside the
/// registry so faultPoint() can bail with one relaxed load in the (normal)
/// disarmed case without touching the registry mutex.
extern std::atomic<bool> FaultsArmed;

inline bool faultsEnabled() {
  return FaultsArmed.load(std::memory_order_relaxed);
}

/// Process-wide registry of armed faults. Self-initializes from the
/// OPTABS_FAULTS environment variable on first use.
class FaultRegistry {
public:
  static FaultRegistry &global();

  /// Parse and arm a spec (additive: existing arms stay). Returns false and
  /// fills Err on a malformed spec or an unknown site; in that case nothing
  /// from the spec is armed.
  bool arm(const std::string &Spec, std::string &Err);

  /// Remove every armed fault and reset hit counters.
  void disarm();

  /// Called from instrumented sites. Returns the fault kind if an arm for
  /// this site reaches its trigger count on this call (each arm fires
  /// exactly once), nullopt otherwise.
  std::optional<FaultKind> hit(const char *Site);

  /// Every site name a spec may reference.
  static const std::vector<std::string> &knownSites();

private:
  FaultRegistry();

  struct Arm {
    std::string Site;
    FaultKind Kind;
    uint64_t Nth = 1;  // fire when the site's hit count reaches Nth
    uint64_t Hits = 0; // hits observed so far
    bool Fired = false;
  };

  std::mutex Mutex;
  std::vector<Arm> Arms;
};

/// The per-site hook. Returns nullopt when no fault fires here. An armed
/// Alloc fault is realized directly (throws std::bad_alloc, exactly what a
/// failed allocation inside the site would do); Cancel and Invariant are
/// returned for the caller to realize against its own cancellation token /
/// invariant sink.
inline std::optional<FaultKind> faultPoint(const char *Site) {
  if (!faultsEnabled())
    return std::nullopt;
  auto K = FaultRegistry::global().hit(Site);
  if (K && *K == FaultKind::Alloc)
    throw std::bad_alloc();
  return K;
}

} // namespace optabs::support

#endif // OPTABS_SUPPORT_FAULTINJECTION_H
