#include "base/faultinject.h"

#include <cstdio>
#include <cstdlib>

#include "base/hash.h"
#include "base/logging.h"
#include "base/metrics.h"
#include "base/strings.h"
#include "base/trace.h"

namespace ks {

namespace {

thread_local int g_suppress_depth = 0;

constexpr uint64_t kDefaultSeed = 0x9e3779b97f4a7c15u;

double NextUnit(uint64_t* state) {
  return static_cast<double>(SplitMix64(state) >> 11) * 0x1.0p-53;
}

}  // namespace

ScopedFaultPlan::~ScopedFaultPlan() {
  for (const std::string& site : sites_) {
    Faults().Disarm(site);
  }
}

ks::Status ScopedFaultPlan::Arm(const std::string& plan) {
  return Faults().Configure(plan, &sites_);
}

ScopedFaultSuppression::ScopedFaultSuppression() { ++g_suppress_depth; }
ScopedFaultSuppression::~ScopedFaultSuppression() { --g_suppress_depth; }
bool ScopedFaultSuppression::Active() { return g_suppress_depth > 0; }

FaultInjector& FaultInjector::Global() {
  static FaultInjector* injector = new FaultInjector();
  return *injector;
}

FaultInjector& Faults() { return FaultInjector::Global(); }

FaultInjector::FaultInjector() : rng_state_(kDefaultSeed) {
  const char* plan = std::getenv("KSPLICE_FAULTS");
  if (plan != nullptr && plan[0] != '\0') {
    ks::Status st = Configure(plan);
    if (!st.ok()) {
      KS_LOG(kWarning) << "ignoring KSPLICE_FAULTS: " << st.ToString();
    }
  }
}

ks::Status FaultInjector::Configure(const std::string& plan,
                                   std::vector<std::string>* sites) {
  // Two passes: parse everything, then arm, so a bad clause arms nothing.
  struct Parsed {
    std::string site;
    SiteState state;
    bool disarm = false;
  };
  std::vector<Parsed> parsed;
  for (std::string_view clause : ks::Split(plan, ',')) {
    if (clause.empty()) {
      continue;
    }
    auto bad = [&clause](const char* why) {
      return ks::InvalidArgument(ks::StrPrintf(
          "fault plan clause '%.*s': %s", static_cast<int>(clause.size()),
          clause.data(), why));
    };
    size_t eq = clause.find('=');
    if (eq == std::string_view::npos || eq == 0) {
      return bad("expected site=mode");
    }
    Parsed p;
    p.site = std::string(clause.substr(0, eq));
    std::string_view mode = clause.substr(eq + 1);
    size_t at = mode.rfind('@');
    if (at != std::string_view::npos) {
      std::optional<ErrorCode> code = ErrorCodeFromName(mode.substr(at + 1));
      if (!code.has_value()) {
        return bad("unknown error code after '@'");
      }
      p.state.code = *code;
      mode = mode.substr(0, at);
    }
    if (mode == "off") {
      p.disarm = true;
    } else if (mode == "once") {
      p.state.mode = FaultMode::kNth;
      p.state.nth = 1;
    } else if (mode == "always") {
      p.state.mode = FaultMode::kAlways;
    } else if (mode.rfind("nth:", 0) == 0) {
      p.state.mode = FaultMode::kNth;
      unsigned long long n = 0;
      if (sscanf(std::string(mode.substr(4)).c_str(), "%llu", &n) != 1 ||
          n == 0) {
        return bad("nth: wants a positive integer");
      }
      p.state.nth = n;
    } else if (mode.rfind("prob:", 0) == 0) {
      p.state.mode = FaultMode::kProbability;
      double prob = -1;
      if (sscanf(std::string(mode.substr(5)).c_str(), "%lf", &prob) != 1 ||
          prob < 0.0 || prob > 1.0) {
        return bad("prob: wants a probability in [0,1]");
      }
      p.state.probability = prob;
    } else {
      return bad("unknown mode (want off|once|always|nth:N|prob:P)");
    }
    parsed.push_back(std::move(p));
  }
  std::lock_guard<std::mutex> lock(mu_);
  for (Parsed& p : parsed) {
    if (p.disarm) {
      sites_[p.site].armed = false;
    } else {
      p.state.armed = true;
      ArmLocked(p.site, p.state);
    }
    if (sites != nullptr) {
      sites->push_back(std::move(p.site));
    }
  }
  RefreshEnabled();
  return ks::OkStatus();
}

void FaultInjector::ArmLocked(const std::string& site, SiteState state) {
  SiteState& slot = sites_[site];
  state.hits = slot.hits;
  state.injected = slot.injected;
  state.armed_hits = 0;
  slot = state;
}

void FaultInjector::ArmNth(const std::string& site, uint64_t nth,
                           ErrorCode code) {
  std::lock_guard<std::mutex> lock(mu_);
  SiteState state;
  state.armed = true;
  state.mode = FaultMode::kNth;
  state.nth = nth == 0 ? 1 : nth;
  state.code = code;
  ArmLocked(site, state);
  RefreshEnabled();
}

void FaultInjector::ArmProbability(const std::string& site, double p,
                                   ErrorCode code) {
  std::lock_guard<std::mutex> lock(mu_);
  SiteState state;
  state.armed = true;
  state.mode = FaultMode::kProbability;
  state.probability = p;
  state.code = code;
  ArmLocked(site, state);
  RefreshEnabled();
}

void FaultInjector::ArmAlways(const std::string& site, ErrorCode code) {
  std::lock_guard<std::mutex> lock(mu_);
  SiteState state;
  state.armed = true;
  state.mode = FaultMode::kAlways;
  state.code = code;
  ArmLocked(site, state);
  RefreshEnabled();
}

void FaultInjector::Disarm(const std::string& site) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = sites_.find(site);
  if (it != sites_.end()) {
    it->second.armed = false;
  }
  RefreshEnabled();
}

void FaultInjector::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  sites_.clear();
  rng_state_ = kDefaultSeed;
  RefreshEnabled();
}

void FaultInjector::SetSeed(uint64_t seed) {
  std::lock_guard<std::mutex> lock(mu_);
  rng_state_ = seed ^ kDefaultSeed;
}

void FaultInjector::RefreshEnabled() {
  static ks::Gauge& armed_gauge =
      ks::Metrics().GetGauge("ksplice.fault.sites_armed");
  int armed = 0;
  for (const auto& [site, state] : sites_) {
    if (state.armed) {
      ++armed;
    }
  }
  armed_gauge.Set(armed);
  enabled_.store(armed > 0, std::memory_order_relaxed);
}

ks::Status FaultInjector::Check(const char* site) {
  if (!enabled_.load(std::memory_order_relaxed)) {
    return ks::OkStatus();
  }
  if (g_suppress_depth > 0) {
    return ks::OkStatus();
  }
  static ks::Counter& checks = ks::Metrics().GetCounter("ksplice.fault.checks");
  static ks::Counter& injected_total =
      ks::Metrics().GetCounter("ksplice.fault.injected");

  std::lock_guard<std::mutex> lock(mu_);
  checks.Add(1);
  SiteState& state = sites_[site];
  ++state.hits;
  if (!state.armed) {
    return ks::OkStatus();
  }
  ++state.armed_hits;
  bool fire = false;
  switch (state.mode) {
    case FaultMode::kNth:
      fire = state.armed_hits == state.nth;
      if (fire) {
        state.armed = false;  // heal after the one planned failure
        RefreshEnabled();
      }
      break;
    case FaultMode::kProbability:
      fire = NextUnit(&rng_state_) < state.probability;
      break;
    case FaultMode::kAlways:
      fire = true;
      break;
  }
  if (!fire) {
    return ks::OkStatus();
  }
  ++state.injected;
  injected_total.Add(1);
  ks::Metrics().GetCounter(std::string("ksplice.fault.injected.") + site)
      .Add(1);
  ks::TraceSpan span("ksplice.fault.inject");
  span.Annotate("site", site);
  span.Annotate("hit", state.hits);
  return ks::Status(
      state.code,
      ks::StrPrintf("injected fault at %s (hit %llu)", site,
                    static_cast<unsigned long long>(state.hits)));
}

uint64_t FaultInjector::Hits(const std::string& site) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = sites_.find(site);
  return it == sites_.end() ? 0 : it->second.hits;
}

uint64_t FaultInjector::Injected(const std::string& site) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = sites_.find(site);
  return it == sites_.end() ? 0 : it->second.injected;
}

int FaultInjector::ArmedCount() const {
  std::lock_guard<std::mutex> lock(mu_);
  int armed = 0;
  for (const auto& [site, state] : sites_) {
    if (state.armed) {
      ++armed;
    }
  }
  return armed;
}

std::vector<FaultSiteStats> FaultInjector::Stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<FaultSiteStats> out;
  for (const auto& [site, state] : sites_) {
    FaultSiteStats stats;
    stats.site = site;
    stats.armed = state.armed;
    stats.hits = state.hits;
    stats.injected = state.injected;
    out.push_back(std::move(stats));
  }
  return out;
}

const std::vector<std::string>& KnownFaultSites() {
  static const std::vector<std::string>* sites = new std::vector<std::string>{
      // kvm: the virtual machine's host-facing entry points.
      "kvm.load_module",    // primary module load (link + arena alloc)
      "kvm.load_blob",      // helper image accounting allocation
      "kvm.unload_module",  // single module unload
      "kvm.unload_group",   // transaction group unload
      "kvm.read_bytes",     // host reads (saving bytes under a trampoline)
      "kvm.write_bytes",    // host writes (splicing a trampoline)
      "kvm.write_word",     // host word pokes
      "kvm.stop_machine",   // rendezvous entry
      "kvm.host_kmalloc",   // host-driven guest heap allocation
      "kvm.call_function",  // hook invocation
      // kcc: the update-creation compiler.
      "kcc.compile",        // one unit compile
      "kcc.objcache.read",  // serving a cached entry
      "kcc.objcache.write", // persisting a computed entry
      // kelf: object parsing and linking.
      "kelf.objfile.parse",
      "kelf.link",
      // ksplice: package codec and the transaction stages.
      "ksplice.package.parse",
      "ksplice.txn.prepare",
      "ksplice.txn.match",
      "ksplice.txn.load",
      "ksplice.txn.pre_apply",
      "ksplice.txn.splice",   // per function, inside the stop window
      "ksplice.txn.commit",
      "ksplice.undo.restore", // per function, inside the undo stop window
      // ksplice watchdog: the post-apply safety net (watchdog.h).
      "ksplice.watchdog.sample",  // one health sampling pass
      "ksplice.watchdog.revert",  // per auto-revert attempt (first attempt
                                  // only under chaos: retries run
                                  // suppressed, exercising the backoff)
  };
  return *sites;
}

}  // namespace ks
