// The evaluation corpus: a simulated kernel source tree and 64 security
// vulnerabilities modelled on the significant x86-32 Linux kernel
// vulnerabilities of May 2005 - May 2008 that the paper evaluates (§6.1).
//
// Each entry is keyed to a real CVE id from that interval. Where the paper
// names a CVE explicitly (the eight Table-1 entries needing custom code,
// the four with public exploit code, the "notesize" and dst_ca "debug"
// examples), the entry reproduces that CVE's *object-level
// characteristics*: whether it changes data initialization, adds a struct
// field, touches an inlined or `inline`-declared function, references an
// ambiguous local symbol, patches assembly, changes a signature, or
// involves static locals. The remaining entries fill out the paper's
// aggregate statistics (Figure 3's patch-length histogram; the 20/4/5
// inline/keyword/ambiguous counts; the ~2:1 escalation:disclosure split).
//
// The kernel tree is a miniature Linux: cred/uid management, prctl,
// coredump, /proc, exec, sysctl tables, vmsplice, sockets, netfilter,
// ipv4 options, dvb drivers with colliding `debug` statics, usb-serial,
// shm/msg IPC, an assembly syscall entry (the ia32entry.S analogue),
// plus string/alloc helpers small enough to be inlined into callers.
//
// Exploits are kernel threads (our "userspace"): each tries its attack
// and records (900, escalated) and/or (901, leaked_value); the evaluator
// judges success exactly as §6.2 does — exploit works before the update
// and stops working after, while a stress workload shows no corruption.

#ifndef KSPLICE_CORPUS_CORPUS_H_
#define KSPLICE_CORPUS_CORPUS_H_

#include <memory>
#include <string>
#include <vector>

#include "base/status.h"
#include "kcc/compile.h"
#include "kcc/objcache.h"
#include "kdiff/diff.h"
#include "ksplice/report.h"
#include "kvm/machine.h"

namespace corpus {

// The value of the kernel's guarded secret (info-disclosure target).
inline constexpr uint32_t kSecretWord = 193573;

// record() keys used by exploits and the stress workload.
inline constexpr uint32_t kKeyEscalated = 900;
inline constexpr uint32_t kKeyLeaked = 901;
inline constexpr uint32_t kKeyStress = 902;

enum class VulnClass {
  kPrivilegeEscalation,
  kInfoDisclosure,
};

// One textual edit applied to the kernel tree to build the fix.
struct Edit {
  std::string path;
  std::string from;  // first occurrence is replaced
  std::string to;
};

struct Vulnerability {
  std::string cve;         // e.g. "CVE-2006-2451"
  std::string summary;     // one-line description of the modelled flaw
  VulnClass vuln_class = VulnClass::kPrivilegeEscalation;
  std::vector<Edit> edits;        // the upstream fix
  std::string exploit_entry;      // kernel thread entry demonstrating it
  bool public_exploit = false;    // one of the four with exploit code §6.3
  bool checks_secret = false;     // success == leaked value (key 901)

  // Table 1: the fix changes persistent-data semantics and needs custom
  // code. `custom_edits` is the revised patch (hooks instead of data-init
  // changes); custom_code_lines is the paper's per-CVE count.
  bool needs_custom_code = false;
  std::vector<Edit> custom_edits;
  int custom_code_lines = 0;
  bool adds_struct_field = false;  // CVE-2005-2709 (shadow structs)

  // Ground-truth characteristics asserted by tests / reported by benches.
  bool touches_assembly = false;
  bool declared_inline = false;   // patched function says `inline`
  bool changes_signature = false;
  bool has_static_local = false;
};

// The simulated kernel source (deterministic; ~25 units).
const kdiff::SourceTree& KernelSource();

// All 64 vulnerabilities, ordered newest-to-oldest like the paper's list.
const std::vector<Vulnerability>& Vulnerabilities();

// The unified diff of the original fix for `vuln` (and the amended fix
// with ksplice hooks for Table-1 entries).
ks::Result<std::string> PatchFor(const Vulnerability& vuln);
ks::Result<std::string> AmendedPatchFor(const Vulnerability& vuln);

// Build options matching how corpus kernels "shipped" (monolithic text).
kcc::CompileOptions RunBuildOptions();

// Boots a fresh corpus kernel (release 0 below) and runs kernel_init.
ks::Result<std::unique_ptr<kvm::Machine>> BootKernel();

// ---------------------------------------------------------------------
// Kernel release line (the §6.2 methodology's 6 Debian + 8 vanilla
// kernels, miniaturized). Index 0 is the pristine corpus kernel; each
// later release applies one unrelated development edit to one subsystem,
// so a fleet of mixed releases exercises run-pre staleness detection:
// updates built from v1 source apply everywhere except on releases whose
// development touched the patched unit.

struct KernelVersion {
  std::string name;      // "v2.6.1"
  std::string dev_path;  // unit this release changed ("" for the first)
  std::string dev_from;  // first occurrence replaced
  std::string dev_to;
};

// The release line, oldest first.
const std::vector<KernelVersion>& KernelVersions();

// KernelSource() with release `index`'s development edit applied (each
// release's tree differs from v1 in exactly its own unit, so staleness of
// a v1-built update against release N is decided by N's unit alone).
ks::Result<kdiff::SourceTree> KernelSourceAt(size_t index);

// Boots a kernel of release `index % KernelVersions().size()` and calls
// kernel_init as a function, so the machine has spawned no thread.
// memory_bytes == 0 keeps BootKernel()'s default (24MB); fleets pass
// smaller machines (the image needs ~2.5MB). The linked image and its
// symbol table are cached per release, so booting N same-release nodes
// compiles and links once, and the nodes share one symbol table.
ks::Result<std::unique_ptr<kvm::Machine>> BootKernelVersion(
    size_t index, uint32_t memory_bytes = 0);

// Runs `vuln`'s exploit in `machine` as a fresh thread; true if the attack
// succeeded (escalation observed or the secret leaked).
ks::Result<bool> RunExploit(kvm::Machine& machine, const Vulnerability& vuln);

// Runs the POSIX-stress-style workload (§6.2 criterion 2); fails if any
// thread faults or the kernel panics.
ks::Status RunStress(kvm::Machine& machine, int rounds = 2);

// ---------------------------------------------------------------------
// Full §6 evaluation of one vulnerability.

struct EvalOutcome {
  std::string cve;
  int patch_lines = 0;           // Figure 3 x-axis
  bool needed_custom_code = false;
  int custom_code_lines = 0;
  bool create_ok = false;        // package built (original or amended)
  bool apply_ok = false;         // §6.2 criterion 1
  bool stress_ok = false;        // criterion 2
  bool exploit_before = false;   // criterion 3 (when an exploit exists)
  bool exploit_after = false;
  bool undo_ok = false;
  int targets = 0;               // functions replaced
  // §6.3 statistics.
  bool modified_inlined_function = false;
  bool declared_inline = false;
  bool references_ambiguous_symbol = false;
  bool touches_assembly = false;

  // Typed per-phase reports from the pipeline (report.h). Populated when
  // the corresponding phase ran; the applied report is for the update that
  // ended up in effect (the amended one on the Table-1 path).
  ksplice::CreateReport create_report;
  ksplice::ApplyReport apply_report;
  ksplice::UndoReport undo_report;  // only with EvalOptions::run_undo_check

  bool Success() const {
    return create_ok && apply_ok && stress_ok &&
           (exploit_before ? !exploit_after : true);
  }

  // One JSON object per corpus entry (headline sweep report files).
  std::string ToJson() const;
};

struct EvalOptions {
  bool run_stress = true;
  bool run_undo_check = false;
  int stress_rounds = 1;
};

// Boots a fresh kernel, runs the exploit, creates and applies the update
// (falling back to the amended patch for Table-1 entries), re-runs the
// exploit and the stress workload.
ks::Result<EvalOutcome> Evaluate(const Vulnerability& vuln,
                                 const EvalOptions& options = {});

// Process-wide content-addressed object cache shared by every Evaluate()
// call: the pre kernel's units are compiled once per process and identical
// post units are never recompiled across entries or repeated sweeps.
kcc::ObjectCache& SharedObjectCache();

// ---------------------------------------------------------------------
// Parallel sweep: the whole §6 evaluation over many entries at once.
// Only update *creation* and the per-entry simulated machines fan out;
// each entry applies its update inside its own machine, so apply-side
// semantics (stop_machine, quiescence) are untouched.

struct SweepOptions {
  EvalOptions eval;
  // Worker threads; 1 = serial, 0 = one per hardware thread.
  int jobs = 1;
};

// Evaluates every entry of `vulns` across `options.jobs` workers sharing
// SharedObjectCache(). Results come back in `vulns` order regardless of
// worker completion order and are identical to calling Evaluate serially.
std::vector<ks::Result<EvalOutcome>> EvaluateAll(
    const std::vector<Vulnerability>& vulns,
    const SweepOptions& options = {});

// §6.3 symbol census over the built kernel: how many symbols share names,
// and how many compilation units contain such a symbol.
struct SymbolCensus {
  int total_symbols = 0;
  int ambiguous_symbols = 0;   // symbols whose name binds more than once
  int total_units = 0;
  int units_with_ambiguous = 0;
};
ks::Result<SymbolCensus> CensusKernelSymbols();

}  // namespace corpus

#endif  // KSPLICE_CORPUS_CORPUS_H_
