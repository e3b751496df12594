#include "ksplice/rendezvous.h"

#include <algorithm>

#include "base/faultinject.h"
#include "base/hash.h"
#include "base/logging.h"
#include "base/metrics.h"
#include "base/strings.h"
#include "base/trace.h"

namespace ksplice {

namespace {

// Backoff step for retry number `retry` (1-based): base doubled per retry,
// capped, then jittered by ±jitter (deterministic under the seeded PRNG).
// Jitter desynchronizes repeated stop attempts from periodic guest work —
// a fixed step can phase-lock with a loop that re-enters the patched
// function at the same cadence and never find it quiescent.
uint64_t BackoffStep(const RendezvousOptions& options, int retry,
                     uint64_t* rng) {
  uint64_t step = options.backoff_base_ticks;
  for (int i = 1; i < retry && step < options.backoff_max_ticks; ++i) {
    step *= 2;
  }
  step = std::min(step, options.backoff_max_ticks);
  double jitter = std::clamp(options.backoff_jitter, 0.0, 1.0);
  if (jitter > 0.0) {
    double unit = static_cast<double>(ks::SplitMix64(rng) >> 11) * 0x1.0p-53;
    double factor = 1.0 + jitter * (2.0 * unit - 1.0);
    step = static_cast<uint64_t>(static_cast<double>(step) * factor);
  }
  return std::max<uint64_t>(step, 1);
}

void MergeBlockers(std::vector<QuiescenceBlocker>* into,
                   const std::vector<QuiescenceBlocker>& found) {
  for (const QuiescenceBlocker& blocker : found) {
    bool seen = false;
    for (const QuiescenceBlocker& have : *into) {
      if (have.tid == blocker.tid && have.pc == blocker.pc) {
        seen = true;
        break;
      }
    }
    if (!seen) {
      into->push_back(blocker);
    }
  }
}

std::string DescribeBlockers(const std::vector<QuiescenceBlocker>& blockers) {
  std::string out;
  size_t shown = std::min<size_t>(blockers.size(), 3);
  for (size_t i = 0; i < shown; ++i) {
    const QuiescenceBlocker& b = blockers[i];
    if (i != 0) {
      out += ", ";
    }
    out += ks::StrPrintf("thread %d at pc %s (%s %s)", b.tid,
                         ks::Hex32(b.pc).c_str(),
                         b.from_stack ? "stack word" : "pc in",
                         ks::Hex32(b.hit_address).c_str());
  }
  if (blockers.size() > shown) {
    out += ks::StrPrintf(" and %zu more", blockers.size() - shown);
  }
  return out;
}

}  // namespace

std::vector<QuiescenceBlocker> ThreadsIn(
    const kvm::Machine& machine,
    const std::vector<std::pair<uint32_t, uint32_t>>& ranges) {
  auto hit = [&ranges](uint32_t addr) {
    for (const auto& [begin, end] : ranges) {
      if (addr >= begin && addr < end) {
        return true;
      }
    }
    return false;
  };
  std::vector<QuiescenceBlocker> blockers;
  for (const kvm::ThreadInfo& thread : machine.Threads()) {
    if (thread.state == kvm::ThreadState::kFaulted) {
      continue;
    }
    QuiescenceBlocker blocker;
    blocker.tid = thread.tid;
    blocker.pc = thread.pc;
    if (hit(thread.pc)) {
      blocker.hit_address = thread.pc;
      blockers.push_back(blocker);
      continue;
    }
    // Conservative scan of every word of the kernel stack (§5.2): any
    // value that lands in a patched range is treated as a return address.
    for (uint32_t sp = thread.sp & ~3u; sp + 4 <= thread.stack_top;
         sp += 4) {
      ks::Result<uint32_t> word = machine.ReadWord(sp);
      if (word.ok() && hit(*word)) {
        blocker.hit_address = *word;
        blocker.from_stack = true;
        blockers.push_back(blocker);
        break;
      }
    }
  }
  return blockers;
}

ks::Status RunRendezvous(
    kvm::Machine& machine, const RendezvousOptions& options,
    const std::vector<std::pair<uint32_t, uint32_t>>& ranges,
    const std::function<ks::Status(kvm::Machine&)>& body, const char* what,
    StopWindow* window) {
  static ks::Counter& attempts_ctr =
      ks::Metrics().GetCounter("ksplice.rendezvous.attempts");
  static ks::Counter& retries_ctr =
      ks::Metrics().GetCounter("ksplice.rendezvous.retries");
  static ks::Counter& backoff_ctr =
      ks::Metrics().GetCounter("ksplice.rendezvous.backoff_ticks");
  static ks::Counter& blocked_ctr =
      ks::Metrics().GetCounter("ksplice.rendezvous.blocked_threads");
  static ks::Counter& exhausted_ctr =
      ks::Metrics().GetCounter("ksplice.rendezvous.exhausted");

  ks::TraceSpan span("ksplice.rendezvous");
  span.Annotate("what", what);

  *window = StopWindow{};
  uint64_t rng = options.backoff_seed ^ 0x243f6a8885a308d3u;
  int max_attempts = std::max(options.max_attempts, 1);
  for (int attempt = 1;; ++attempt) {
    window->attempts = attempt;
    attempts_ctr.Add(1);
    std::vector<QuiescenceBlocker> found;
    uint64_t stop_begin = ks::NowNs();
    ks::Status stopped = machine.StopMachine([&](kvm::Machine& m) {
      found = ThreadsIn(m, ranges);
      if (!found.empty()) {
        return ks::FailedPrecondition("patched code is in use");
      }
      return body(m);
    });
    if (stopped.ok()) {
      window->pause_ns = ks::NowNs() - stop_begin;
      // Registered by the first window that succeeds: a process whose
      // every window failed publishes neither.
      static ks::Counter& retries =
          ks::Metrics().GetCounter("ksplice.quiescence_retries");
      static ks::Histogram& pause =
          ks::Metrics().GetHistogram("ksplice.stop_pause_ns");
      retries.Add(static_cast<uint64_t>(window->quiescence_retries()));
      pause.Observe(window->pause_ns);
      span.Annotate("attempts", static_cast<uint64_t>(attempt));
      span.AddTicks(window->retry_ticks);
      return ks::OkStatus();
    }
    if (stopped.code() != ks::ErrorCode::kFailedPrecondition) {
      // The body's own failure — not a busy signal; no retry.
      return stopped;
    }
    blocked_ctr.Add(found.size());
    MergeBlockers(&window->blockers, found);
    bool over_deadline = options.deadline_ticks > 0 &&
                         window->retry_ticks >= options.deadline_ticks;
    if (attempt >= max_attempts || over_deadline) {
      exhausted_ctr.Add(1);
      span.Annotate("exhausted", static_cast<uint64_t>(1));
      return ks::ResourceExhausted(ks::StrPrintf(
          "%s: patched code still in use after %d attempt%s (%llu backoff "
          "ticks%s): %s",
          what, attempt, attempt == 1 ? "" : "s",
          static_cast<unsigned long long>(window->retry_ticks),
          over_deadline ? ", deadline reached" : "",
          DescribeBlockers(found.empty() ? window->blockers : found)
              .c_str()));
    }
    uint64_t step = BackoffStep(options, attempt, &rng);
    KS_LOG(kDebug) << what << " busy (attempt " << attempt << ", "
                   << found.size() << " blockers), backing off " << step
                   << " ticks";
    retries_ctr.Add(1);
    backoff_ctr.Add(step);
    window->retry_ticks += step;
    (void)machine.Advance(step);
  }
}

ks::Status WindowWriteLog::Write(uint32_t address,
                                 const std::vector<uint8_t>& bytes,
                                 std::vector<uint8_t>* old) {
  ks::Result<std::vector<uint8_t>> replaced = machine_.ReadBytes(
      address, static_cast<uint32_t>(bytes.size()));
  KS_RETURN_IF_ERROR(replaced.status());
  KS_RETURN_IF_ERROR(ks::Faults().Check(fault_site_));
  KS_RETURN_IF_ERROR(machine_.WriteBytes(address, bytes));
  if (old != nullptr) {
    *old = *replaced;
  }
  log_.emplace_back(address, std::move(replaced).value());
  return ks::OkStatus();
}

void WindowWriteLog::Unwind(const std::function<void()>& compensate) {
  ks::ScopedFaultSuppression suppress;
  for (auto it = log_.rbegin(); it != log_.rend(); ++it) {
    (void)machine_.WriteBytes(it->first, it->second);
  }
  compensate();
}

}  // namespace ksplice
