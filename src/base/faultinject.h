// Deterministic, process-wide fault injection.
//
// Error paths are where hot-update machinery earns its safety claims, and
// they are exactly the paths ordinary tests never drive. Every fallible
// boundary in this codebase carries a named *fault site*:
//
//   ks::Status Machine::WriteBytes(...) {
//     KS_FAULT_POINT("kvm.write_bytes");
//     ...
//   }
//
// A site consults the process-wide plan and either returns ok (the normal
// case — one relaxed atomic load when nothing is armed) or a typed error
// Status that the call site propagates exactly like a real failure. Plans
// come from the KSPLICE_FAULTS environment variable, `ksplice_tool
// --faults=PLAN`, or the programmatic API, with the grammar
//
//   plan      := site_spec (',' site_spec)*
//   site_spec := site '=' mode ['@' error_code]
//   mode      := 'once'            fail the 1st hit, then heal
//              | 'nth:' N          fail exactly the Nth hit, then heal
//              | 'prob:' P         fail each hit with probability P (seeded)
//              | 'always'          fail every hit
//              | 'off'             disarm the site
//
// e.g. KSPLICE_FAULTS="kvm.write_bytes=nth:3,kcc.compile=prob:0.1@internal".
// Hit counts restart when a site is (re)armed. Each site draws its `prob:`
// decisions from its own splitmix64 stream, seeded from (SetSeed's seed,
// site name) and advanced only by that site's armed hits; re-arming a site
// keeps its stream. So a given (plan, seed, workload) triple always
// injects the same faults — chaos runs are reproducible from their seed
// alone — and a change in how often code passes one site moves only the
// decisions of plans that name it.
//
// Recovery code (rollback, unwind, compensation) must be exempt: a fault
// injected while *undoing* the effects of a previous fault would make the
// "failed operations leave no trace" invariant untestable. Such code holds
// a ScopedFaultSuppression for its extent; real kernels disable failpoints
// in their error-recovery sections for the same reason.
//
// Observability: "ksplice.fault.*" metrics count checks and injections
// (per process and per site) and each injection emits a trace span.

#ifndef KSPLICE_BASE_FAULTINJECT_H_
#define KSPLICE_BASE_FAULTINJECT_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "base/status.h"

namespace ks {

// How an armed site decides whether a given hit fails.
enum class FaultMode : uint8_t {
  kNth,          // fail exactly the Nth hit since arming, then heal
  kProbability,  // fail each hit independently with probability p
  kAlways,       // fail every hit
};

// Snapshot of one site's accounting (Stats()).
struct FaultSiteStats {
  std::string site;
  bool armed = false;
  uint64_t hits = 0;      // checks since the site was first seen
  uint64_t injected = 0;  // faults returned
};

class FaultInjector {
 public:
  static FaultInjector& Global();

  // Parses and arms a full plan (see grammar above); the one way to arm a
  // site. Sites already armed stay armed unless the plan re-specifies
  // them; re-arming restarts a site's count of hits since arming and keeps
  // its total hits and its stream. A parse error arms nothing and reports
  // the offending clause. On success, appends every site the plan names to
  // `*sites` when `sites` is non-null.
  ks::Status Configure(const std::string& plan,
                       std::vector<std::string>* sites = nullptr);
  void Disarm(const std::string& site);

  // Disarms every site, forgets all accounting and restores the default
  // seed.
  void Reset();

  // Seeds the streams behind `prob:` draws: restarts every known site's
  // stream from (seed, site name), and sites first seen later start from
  // the same seed.
  void SetSeed(uint64_t seed);

  // The injection point. Returns ok unless `site` is armed and its mode
  // fires for this hit. Hits are recorded (for any site, armed or not)
  // whenever at least one site is armed anywhere; with nothing armed this
  // is a single relaxed atomic load.
  ks::Status Check(const char* site);

  // Accounting.
  uint64_t Hits(const std::string& site) const;
  uint64_t Injected(const std::string& site) const;
  int ArmedCount() const;
  std::vector<FaultSiteStats> Stats() const;

 private:
  FaultInjector();

  struct SiteState {
    bool armed = false;
    FaultMode mode = FaultMode::kNth;
    uint64_t nth = 1;        // kNth: which hit fails
    double probability = 0;  // kProbability
    ErrorCode code = ErrorCode::kInternal;
    uint64_t armed_hits = 0;  // hits since last (re)arm
    uint64_t hits = 0;        // hits since first seen
    uint64_t injected = 0;
    uint64_t stream = 0;      // this site's splitmix64 state for `prob:`
  };

  // The site's state, created with its stream on first sight.
  SiteState& SiteLocked(const std::string& site);
  void RefreshEnabled();  // recomputes enabled_ + the sites_armed gauge

  mutable std::mutex mu_;
  std::map<std::string, SiteState> sites_;
  uint64_t seed_ = 0;
  std::atomic<bool> enabled_{false};  // any site armed (fast-path gate)
};

// Shorthand for FaultInjector::Global().
FaultInjector& Faults();

// The documented site catalog: every KS_FAULT_POINT name wired into the
// tree, in layer order. tests/chaos_test.cc iterates this list; a site
// wired into code but missing here (or vice versa) fails the harness.
const std::vector<std::string>& KnownFaultSites();

// Arms a plan for the guard's lifetime: Arm() configures it through
// FaultInjector::Configure, and the destructor disarms exactly the sites
// that plan named. Sites armed before the guard and not named by its plan
// stay armed.
class ScopedFaultPlan {
 public:
  ScopedFaultPlan() = default;
  ~ScopedFaultPlan();
  ScopedFaultPlan(const ScopedFaultPlan&) = delete;
  ScopedFaultPlan& operator=(const ScopedFaultPlan&) = delete;

  ks::Status Arm(const std::string& plan);

 private:
  std::vector<std::string> sites_;
};

// Disables injection on this thread for the guard's lifetime (nestable).
// Held by rollback/unwind/compensation code — see the header comment.
class ScopedFaultSuppression {
 public:
  ScopedFaultSuppression();
  ~ScopedFaultSuppression();
  ScopedFaultSuppression(const ScopedFaultSuppression&) = delete;
  ScopedFaultSuppression& operator=(const ScopedFaultSuppression&) = delete;

  // True if any guard is live on the calling thread.
  static bool Active();
};

}  // namespace ks

// Declares a fault site: consults the global plan and propagates the
// injected error. Works in any function returning ks::Status or
// ks::Result<T> (Status converts implicitly).
#define KS_FAULT_POINT(site) KS_RETURN_IF_ERROR(::ks::Faults().Check(site))

#endif  // KSPLICE_BASE_FAULTINJECT_H_
