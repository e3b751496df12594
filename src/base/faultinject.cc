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

// A site's stream start: a function of (seed, site name) alone.
uint64_t StreamStart(uint64_t seed, std::string_view site) {
  uint64_t state = seed ^ Fnv1a64(site);
  return SplitMix64(&state);
}

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

FaultInjector::FaultInjector() {
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
    SiteState state;  // armed unless the clause is `off`
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
    p.state.armed = true;
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
      p.state.armed = false;
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
    SiteState& slot = SiteLocked(p.site);
    if (p.state.armed) {
      // Re-arming restarts the hit count since arming and keeps the rest.
      p.state.hits = slot.hits;
      p.state.injected = slot.injected;
      p.state.stream = slot.stream;
      slot = p.state;
    } else {
      slot.armed = false;
    }
    if (sites != nullptr) {
      sites->push_back(std::move(p.site));
    }
  }
  RefreshEnabled();
  return ks::OkStatus();
}

FaultInjector::SiteState& FaultInjector::SiteLocked(const std::string& site) {
  auto [it, inserted] = sites_.try_emplace(site);
  if (inserted) {
    it->second.stream = StreamStart(seed_, site);
  }
  return it->second;
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
  seed_ = 0;
  RefreshEnabled();
}

void FaultInjector::SetSeed(uint64_t seed) {
  std::lock_guard<std::mutex> lock(mu_);
  seed_ = seed;
  for (auto& [site, state] : sites_) {
    state.stream = StreamStart(seed, site);
  }
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
  SiteState& state = SiteLocked(site);
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
      fire = NextUnit(&state.stream) < state.probability;
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
      "kvm.read_bytes",     // host reads: bytes saved under a trampoline,
                            // and one in-place view per run-pre candidate
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
