// The shared stop_machine rendezvous loop (§5.2).
//
// Apply and undo both need the same dance: stop the machine, check that no
// thread's pc (or conservatively-scanned stack word) lands in the code
// about to be patched, run a body inside the stop window, and — when the
// check says "busy" — let the machine make progress and try again. The
// paper prescribes retrying "after a short delay"; a fixed delay is either
// too short (wasted stop windows while a long syscall drains) or too long
// (update latency when the kernel went quiescent immediately), so the
// retry schedule here is exponential backoff with seeded jitter under two
// budgets: an attempt cap and an overall tick deadline.
//
// On exhaustion the caller gets ks::ResourceExhausted naming the threads
// and PCs that blocked quiescence on the final attempt; the same blocker
// records (union over every failed attempt) land in the StopWindow
// (report.h) that Apply/Undo reports share, so an operator can see why an
// update would not land.
//
// Observability: "ksplice.rendezvous.*" metrics (attempts, retries,
// backoff_ticks, blocked_threads, exhausted) and a trace span per call;
// each successful window adds to ksplice.quiescence_retries and
// ksplice.stop_pause_ns, for apply and undo alike.

#ifndef KSPLICE_KSPLICE_RENDEZVOUS_H_
#define KSPLICE_KSPLICE_RENDEZVOUS_H_

#include <functional>
#include <utility>
#include <vector>

#include "base/status.h"
#include "ksplice/report.h"
#include "kvm/machine.h"

namespace ksplice {

// Stop_machine retry policy shared by apply and undo (§5.2: "tries again
// after a short delay; if multiple such attempts are unsuccessful, Ksplice
// abandons the upgrade attempt"). Retries use exponential backoff with
// seeded jitter — the machine is advanced backoff_base_ticks before the
// first retry, twice that before the next, and so on up to
// backoff_max_ticks per retry — under two budgets: at most max_attempts
// stop windows, and at most deadline_ticks of total backoff. Exhausting
// either yields kResourceExhausted naming the blocking threads.
struct RendezvousOptions {
  int max_attempts = 10;
  uint64_t backoff_base_ticks = 10'000;  // first retry's advance
  uint64_t backoff_max_ticks = 200'000;  // per-retry cap
  double backoff_jitter = 0.25;          // ± fraction of each step
  uint64_t deadline_ticks = 2'000'000;   // total backoff budget (0 = none)
  uint64_t backoff_seed = 0;             // jitter PRNG seed (deterministic)
};

// Scans every live thread of `machine` for a pc or stack word inside one
// of `ranges` ([begin, end) pairs); returns one record per blocked thread
// (first offending address wins). Call only while the machine is stopped.
std::vector<QuiescenceBlocker> ThreadsIn(
    const kvm::Machine& machine,
    const std::vector<std::pair<uint32_t, uint32_t>>& ranges);

// Runs `body` under one stop_machine window once no live thread executes
// (or would return into) `ranges`, retrying with backoff per `options`.
// `what` names the operation for messages ("apply", "undo"). `window` is
// always filled, including on failure; a successful window is published
// as ksplice.quiescence_retries and ksplice.stop_pause_ns. Returns:
//  - ok: body ran and returned ok;
//  - kResourceExhausted: quiescence was never reached within the attempt
//    cap / tick deadline (message names a blocking thread + pc);
//  - anything else: the body's own error, passed through.
ks::Status RunRendezvous(
    kvm::Machine& machine, const RendezvousOptions& options,
    const std::vector<std::pair<uint32_t, uint32_t>>& ranges,
    const std::function<ks::Status(kvm::Machine&)>& body, const char* what,
    StopWindow* window);

// The write log of one stop-window body, shared by apply (splice) and undo
// (restore): all of the body's writes land, or none do. Write reads the
// bytes it replaces, checks the caller's fault site, writes, and logs the
// (address, old bytes) pair; Unwind writes the log back newest first.
class WindowWriteLog {
 public:
  WindowWriteLog(kvm::Machine& machine, const char* fault_site)
      : machine_(machine), fault_site_(fault_site) {}

  // Replaces the bytes at `address` with `bytes`; on success `*old`, when
  // given, holds the bytes that were there.
  ks::Status Write(uint32_t address, const std::vector<uint8_t>& bytes,
                   std::vector<uint8_t>* old = nullptr);

  // Puts every logged write back, newest first, then runs the caller's
  // hook compensation; both with fault injection suppressed, since the
  // rollback promise is what the injected faults probe.
  void Unwind(const std::function<void()>& compensate);

 private:
  kvm::Machine& machine_;
  const char* fault_site_;
  std::vector<std::pair<uint32_t, std::vector<uint8_t>>> log_;
};

}  // namespace ksplice

#endif  // KSPLICE_KSPLICE_RENDEZVOUS_H_
