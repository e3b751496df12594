// ksplice_tool: command-line front end mirroring the paper's §5 workflow
// over on-disk source trees.
//
//   ksplice_tool build   <srcdir>                       compile & report
//   ksplice_tool create  <srcdir> <patch> <out.kspl>    = ksplice-create
//   ksplice_tool lint    <pkg.kspl>                     static analysis
//   ksplice_tool inspect <pkg.kspl>                     show a package
//   ksplice_tool demo    <srcdir> <patch> [entry [arg]] boot + hot update
//   ksplice_tool apply   <srcdir> <pkg.kspl>...         boot + apply all
//                                                       packages in ONE
//                                                       rendezvous
//   ksplice_tool status  <srcdir> [pkg.kspl...]         applied-update
//                                                       stack table
//   ksplice_tool rollout [cve...]                       wave/canary rollout
//                                                       across a simulated
//                                                       fleet
//   ksplice_tool disasm  <srcdir> <unit>                disassemble a unit
//   ksplice_tool export-corpus <dir>                    write the 64-CVE
//                                                       corpus kernel +
//                                                       patches to disk
//
// Global flags (any subcommand): -j N (compile workers; apply and lint
// run on one thread), --trace[=FILE], --metrics=FILE, --faults=PLAN,
// --help. Some commands take their own flags (create --lint=MODE, lint
// --json[=FILE] --fail-on=SEV). `<command> --help` prints that command's
// own help, including its flags; an unknown flag, a bad flag value or a
// wrong argument count prints the same help on stderr and exits 2. Flags
// and commands are table-driven — adding one means adding a table row.
//
// Exit codes: 0 success, 1 the operation itself failed (bad package,
// apply error, lint findings at --fail-on), 2 usage error.
//
// Source trees on disk contain .kc (KC), .kvs (assembly), and .h files;
// paths are taken relative to <srcdir>.

#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <type_traits>

#include "base/faultinject.h"
#include "base/metrics.h"
#include "base/strings.h"
#include "base/trace.h"
#include "corpus/corpus.h"
#include "fleet/corpus_fleet.h"
#include "fleet/rollout.h"
#include "kanalyze/kanalyze.h"
#include "kcc/compile.h"
#include "kcc/objcache.h"
#include "kdiff/diff.h"
#include "ksplice/core.h"
#include "ksplice/create.h"
#include "ksplice/watchdog.h"
#include "kvm/machine.h"
#include "kvx/isa.h"

namespace {

namespace fs = std::filesystem;

ks::Result<std::string> ReadFile(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return ks::NotFound("cannot read " + path.string());
  }
  std::string contents((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  return contents;
}

ks::Status WriteFile(const fs::path& path, const std::string& contents) {
  if (path.has_parent_path()) {
    fs::create_directories(path.parent_path());
  }
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    return ks::Internal("cannot write " + path.string());
  }
  out << contents;
  return ks::OkStatus();
}

// Loads every .kc/.kvs/.h file under `dir` into a SourceTree.
ks::Result<kdiff::SourceTree> LoadTree(const std::string& dir) {
  kdiff::SourceTree tree;
  if (!fs::is_directory(dir)) {
    return ks::NotFound(dir + " is not a directory");
  }
  for (const fs::directory_entry& entry :
       fs::recursive_directory_iterator(dir)) {
    if (!entry.is_regular_file()) {
      continue;
    }
    std::string ext = entry.path().extension().string();
    if (ext != ".kc" && ext != ".kvs" && ext != ".h") {
      continue;
    }
    KS_ASSIGN_OR_RETURN(std::string contents, ReadFile(entry.path()));
    tree.Write(fs::relative(entry.path(), dir).generic_string(),
               std::move(contents));
  }
  if (tree.size() == 0) {
    return ks::NotFound("no .kc/.kvs/.h files under " + dir);
  }
  return tree;
}

// Reads and parses the package file at `path`. A parse error is prefixed
// with `context` when one is given; a read error names the path already.
ks::Result<ksplice::UpdatePackage> ReadPackage(
    const std::string& path, const std::string& context = "") {
  KS_ASSIGN_OR_RETURN(std::string raw, ReadFile(path));
  ks::Result<ksplice::UpdatePackage> package = ksplice::UpdatePackage::Parse(
      std::vector<uint8_t>(raw.begin(), raw.end()));
  if (!package.ok() && !context.empty()) {
    return ks::Status(package.status()).WithContext(context);
  }
  return package;
}

int Fail(const ks::Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

// Usage error inside a command handler: prints the message and the active
// command's help, and returns the usage exit code (2). Defined after the
// command table.
struct Command;
int UsageError(const std::string& message);

// ------------------------------------------------------- global options

struct GlobalOptions {
  int jobs = 1;          // -j N compile workers (0 = one per hw thread)
  std::string faults;    // --faults=PLAN (deterministic fault injection)
  bool trace = false;    // --trace[=FILE]
  std::string trace_file;    // empty => summary table on stderr at exit
  std::string metrics_file;  // --metrics=FILE: registry JSON at exit
  std::string build_date;    // --build-date=S: __DATE__ for this build
  std::string build_time;    // --build-time=S: __TIME__ for this build
  bool help = false;
};

GlobalOptions g_options;

// Per-command flag values (only the active command reads its own).
struct CommandOptions {
  std::string lint_mode;          // create --lint=off|warn|error
  bool json = false;              // lint --json[=FILE]
  std::string json_file;
  std::string fail_on = "error";  // lint --fail-on=note|warning|error
  // rollout flags.
  int nodes = 8;                  // --nodes=N fleet size
  double canary = 0.05;           // --canary=F canary fraction
  int wave = 4;                   // --wave=N post-canary wave size
  int max_in_flight = 4;          // --max-in-flight=N per-wave workers
  double abort_frac = 0.0;        // --abort-frac=F wave failure threshold
  int doom = 0;                   // --doom=K canary-fault the first K nodes
  std::string canary_fault = "ksplice.txn.pre_apply=always";
  uint64_t seed = 0;              // --seed=N rollout order + jitter seed
  // apply --watch / --force (the post-apply safety net, watchdog.h).
  uint64_t watch_ticks = 0;       // --watch[=TICKS] post-apply soak
  std::string watch_entry;        // --watch-entry=NAME workload to spawn
  bool force = false;             // --force re-apply a quarantined package
  // rollout --soak flags.
  uint64_t soak_ticks = 0;        // --soak[=TICKS] post-wave node soak
  uint64_t max_node_faults = 0;   // --max-node-faults=N watchdog tolerance
};

CommandOptions g_cmd;

// Parses a whole numeric flag value into *out. An empty value, trailing
// characters, a value out of T's range, a non-finite real, and any sign on
// an unsigned field are malformed: returns false and leaves *out as is.
template <typename T>
bool ParseNumber(const std::string& text, T* out) {
  T value{};
  const char* end = text.data() + text.size();
  auto [stop, error] = std::from_chars(text.data(), end, value);
  if (error != std::errc() || stop != end) {
    return false;
  }
  if constexpr (std::is_floating_point_v<T>) {
    if (!std::isfinite(value)) {
      return false;
    }
  }
  *out = value;
  return true;
}

// ParseNumber for a kOptional tick count: an absent value means `fallback`.
bool ParseTicks(const std::string& text, uint64_t fallback, uint64_t* out) {
  if (text.empty()) {
    *out = fallback;
    return true;
  }
  return ParseNumber(text, out);
}

// One flag. `arg` names the value in help text; kNone takes no
// value, kOptional accepts `--flag` or `--flag=V`, kRequired demands one.
// `apply` returns false when the value is malformed.
struct FlagSpec {
  const char* name;  // with leading dashes, e.g. "--trace"
  enum Arg { kNone, kOptional, kRequired } arg;
  const char* value_name;
  const char* help;
  bool (*apply)(const std::string& value);
};

const FlagSpec kFlags[] = {
    {"-j", FlagSpec::kRequired, "N",
     "compile with N worker threads (0 = all hardware threads); apply and "
     "lint run on one thread; output is byte-identical for every N",
     [](const std::string& v) {
       int jobs = 0;
       if (!ParseNumber(v, &jobs) || jobs < 0) {
         return false;
       }
       g_options.jobs = jobs;
       return true;
     }},
    {"--trace", FlagSpec::kOptional, "FILE",
     "record trace spans; write Chrome trace JSON to FILE, or print a "
     "summary table to stderr when no FILE is given",
     [](const std::string& v) {
       g_options.trace = true;
       g_options.trace_file = v;
       return true;
     }},
    {"--metrics", FlagSpec::kRequired, "FILE",
     "write the metrics registry (counters/gauges/histograms) as JSON to "
     "FILE at exit",
     [](const std::string& v) {
       g_options.metrics_file = v;
       return true;
     }},
    {"--faults", FlagSpec::kRequired, "PLAN",
     "arm deterministic fault injection before the command runs: "
     "site=mode[@code] clauses joined by commas, modes off, once, always, "
     "nth:N, prob:P (see base/faultinject.h; KSPLICE_FAULTS is the "
     "equivalent environment variable)",
     [](const std::string& v) {
       g_options.faults = v;
       return true;
     }},
    {"--build-date", FlagSpec::kRequired, "STR",
     "value of __DATE__ for every compile this command performs (default "
     "\"Jan  1 2026\"); .rodata.date sections match content-ignoring, so a "
     "package built at one date applies to a kernel built at another",
     [](const std::string& v) {
       g_options.build_date = v;
       return true;
     }},
    {"--build-time", FlagSpec::kRequired, "STR",
     "value of __TIME__ for every compile this command performs (default "
     "\"00:00:00\")",
     [](const std::string& v) {
       g_options.build_time = v;
       return true;
     }},
    {"--help", FlagSpec::kNone, nullptr, "show help and exit",
     [](const std::string&) {
       g_options.help = true;
       return true;
     }},
};

const FlagSpec kCreateFlags[] = {
    {"--lint", FlagSpec::kRequired, "MODE",
     "static-analysis gate: off, warn (default: record findings in the "
     "report) or error (refuse a package with error-severity findings)",
     [](const std::string& v) {
       g_cmd.lint_mode = v;
       return true;
     }},
};

const FlagSpec kApplyFlags[] = {
    {"--watch", FlagSpec::kOptional, "TICKS",
     "post-apply safety net: soak the machine for TICKS (default 200000) "
     "under the health watchdog; a fault attributed to an applied update "
     "auto-reverts it and quarantines the package, and the command exits 1",
     [](const std::string& v) {
       return ParseTicks(v, 200000, &g_cmd.watch_ticks);
     }},
    {"--watch-entry", FlagSpec::kRequired, "NAME",
     "workload entry spawned before the --watch soak so the patched code "
     "actually runs under load (default: soak whatever is runnable; corpus "
     "kernels ship stress_main)",
     [](const std::string& v) {
       g_cmd.watch_entry = v;
       return true;
     }},
    {"--force", FlagSpec::kNone, nullptr,
     "apply a quarantined package anyway, clearing its quarantine entry",
     [](const std::string&) {
       g_cmd.force = true;
       return true;
     }},
};

// Shared by every command that has a --json[=FILE] flag.
bool ApplyJsonFlag(const std::string& v) {
  g_cmd.json = true;
  g_cmd.json_file = v;
  return true;
}

const FlagSpec kStatusFlags[] = {
    {"--json", FlagSpec::kOptional, "FILE",
     "emit the status report as JSON (to FILE when given, else stdout) "
     "instead of the table",
     ApplyJsonFlag},
};

const FlagSpec kLintFlags[] = {
    {"--json", FlagSpec::kOptional, "FILE",
     "emit the lint report as JSON (to FILE when given, else stdout) "
     "instead of text",
     ApplyJsonFlag},
    {"--fail-on", FlagSpec::kRequired, "SEV",
     "exit 1 when any finding has severity SEV (note|warning|error) or "
     "higher (default: error)",
     [](const std::string& v) {
       g_cmd.fail_on = v;
       return true;
     }},
};

const FlagSpec kRolloutFlags[] = {
    {"--lint", FlagSpec::kRequired, "MODE",
     "pre-rollout static-analysis gate over every package: off, warn "
     "(print findings, proceed) or error (default: refuse to start the "
     "rollout when any package has error-severity findings)",
     [](const std::string& v) {
       g_cmd.lint_mode = v;
       return true;
     }},
    {"--nodes", FlagSpec::kRequired, "N",
     "fleet size: N machines round-robin across the corpus kernel release "
     "line (default 8)",
     [](const std::string& v) { return ParseNumber(v, &g_cmd.nodes); }},
    {"--canary", FlagSpec::kRequired, "F",
     "canary fraction: the first wave holds max(1, ceil(F * nodes)) nodes "
     "(default 0.05)",
     [](const std::string& v) { return ParseNumber(v, &g_cmd.canary); }},
    {"--wave", FlagSpec::kRequired, "N",
     "post-canary wave size (0 = the rest of the fleet at once; default 4)",
     [](const std::string& v) { return ParseNumber(v, &g_cmd.wave); }},
    {"--max-in-flight", FlagSpec::kRequired, "N",
     "concurrent node applies within a wave (default 4)",
     [](const std::string& v) {
       return ParseNumber(v, &g_cmd.max_in_flight);
     }},
    {"--abort-frac", FlagSpec::kRequired, "F",
     "abort the rollout (and roll every patched node back) when a wave's "
     "failed fraction exceeds F (default 0.0: any failure trips; stale "
     "skips never count)",
     [](const std::string& v) { return ParseNumber(v, &g_cmd.abort_frac); }},
    {"--doom", FlagSpec::kRequired, "K",
     "canary-failure drill: arm the --canary-fault plan and let it fire on "
     "the first K nodes in rollout order (everyone else applies "
     "fault-suppressed)",
     [](const std::string& v) { return ParseNumber(v, &g_cmd.doom); }},
    {"--canary-fault", FlagSpec::kRequired, "PLAN",
     "fault plan armed for the drill (faultinject grammar; default "
     "ksplice.txn.pre_apply=always)",
     [](const std::string& v) {
       g_cmd.canary_fault = v;
       return true;
     }},
    {"--seed", FlagSpec::kRequired, "N",
     "seeds the rollout order shuffle and per-node rendezvous jitter "
     "(0 = visit nodes in id order; default 0)",
     [](const std::string& v) { return ParseNumber(v, &g_cmd.seed); }},
    {"--soak", FlagSpec::kOptional, "TICKS",
     "post-wave soak: each freshly patched node runs the stress workload "
     "under the health watchdog for TICKS (default 200000); an attributed "
     "regression auto-reverts the node, counts toward --abort-frac, and on "
     "an abort the blamed packages are blacklisted fleet-wide",
     [](const std::string& v) {
       return ParseTicks(v, 200000, &g_cmd.soak_ticks);
     }},
    {"--max-node-faults", FlagSpec::kRequired, "N",
     "attributed faults a node tolerates during its soak before its "
     "auto-revert fires (default 0: any attributed fault is a regression)",
     [](const std::string& v) {
       return ParseNumber(v, &g_cmd.max_node_faults);
     }},
    {"--json", FlagSpec::kOptional, "FILE",
     "emit the rollout report as JSON (to FILE when given, else stdout) "
     "instead of the table",
     ApplyJsonFlag},
};

// Matches `arg` (argv token i) against `spec`, extracting a glued or
// following-token value. Advances *i when the value is the next token.
bool MatchFlag(const FlagSpec& spec, const std::vector<std::string>& args,
               size_t* i, std::string* value, bool* has_value) {
  const std::string& arg = args[*i];
  std::string name = spec.name;
  if (arg == name) {
    if (spec.arg == FlagSpec::kRequired && *i + 1 < args.size()) {
      // Value in the next argument ("-j 4").
      *value = args[++*i];
      *has_value = true;
    }
    return true;
  }
  if (ks::StartsWith(arg, name + "=")) {
    *value = arg.substr(name.size() + 1);
    *has_value = true;
    return true;
  }
  // Glued short-flag value, e.g. -j8.
  if (name.size() == 2 && name[0] == '-' && name[1] != '-' &&
      ks::StartsWith(arg, name) && arg.size() > 2) {
    *value = arg.substr(2);
    *has_value = true;
    return true;
  }
  return false;
}

// Consumes recognized flags from `args` (anywhere on the command line) —
// the global table plus the active command's `extra` table — leaving
// positional arguments in place. Returns an error for a malformed or
// unknown flag-looking argument.
ks::Status ParseFlags(std::vector<std::string>& args, const FlagSpec* extra,
                      size_t num_extra) {
  std::vector<std::string> rest;
  for (size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    if (arg.empty() || arg[0] != '-') {
      rest.push_back(arg);
      continue;
    }
    const FlagSpec* matched = nullptr;
    std::string value;
    bool has_value = false;
    for (const FlagSpec& spec : kFlags) {
      if (MatchFlag(spec, args, &i, &value, &has_value)) {
        matched = &spec;
        break;
      }
    }
    for (size_t e = 0; matched == nullptr && e < num_extra; ++e) {
      if (MatchFlag(extra[e], args, &i, &value, &has_value)) {
        matched = &extra[e];
      }
    }
    if (matched == nullptr) {
      return ks::InvalidArgument("unknown flag " + arg);
    }
    if (matched->arg == FlagSpec::kRequired && !has_value) {
      return ks::InvalidArgument(std::string(matched->name) +
                                 " requires a value");
    }
    if (matched->arg == FlagSpec::kNone && has_value) {
      return ks::InvalidArgument(std::string(matched->name) +
                                 " takes no value");
    }
    if (!matched->apply(value)) {
      return ks::InvalidArgument(ks::StrPrintf(
          "malformed value '%s' for %s", value.c_str(), matched->name));
    }
  }
  args = std::move(rest);
  return ks::OkStatus();
}

// The tool-lifetime object cache shared by every build in this process.
kcc::ObjectCache& ToolCache() {
  static kcc::ObjectCache* cache = new kcc::ObjectCache();
  return *cache;
}

kcc::CompileOptions DefaultBuild() {
  kcc::CompileOptions options;  // monolithic, like a shipped kernel
  options.jobs = g_options.jobs;
  options.cache = &ToolCache();
  if (!g_options.build_date.empty()) {
    options.build_date = g_options.build_date;
  }
  if (!g_options.build_time.empty()) {
    options.build_time = g_options.build_time;
  }
  return options;
}

// ------------------------------------------------------ report printing

// The one place --json[=FILE] output leaves the tool: stdout when no FILE
// was given, else the file. Returns the command exit code (0 unless the
// write failed).
int EmitJson(const std::string& json) {
  if (g_cmd.json_file.empty()) {
    std::printf("%s\n", json.c_str());
    return 0;
  }
  ks::Status written = WriteFile(g_cmd.json_file, json + "\n");
  return written.ok() ? 0 : Fail(written);
}

void PrintCreateReport(const ksplice::CreateReport& report) {
  std::printf("create report for %s:\n", report.id.c_str());
  std::printf(
      "  %u unit(s) rebuilt; cache %llu hit(s) / %llu miss(es); "
      "prepost %.2f ms of %.2f ms total\n",
      report.units_rebuilt,
      static_cast<unsigned long long>(report.cache_hits),
      static_cast<unsigned long long>(report.cache_misses),
      static_cast<double>(report.prepost_wall_ns) / 1e6,
      static_cast<double>(report.create_wall_ns) / 1e6);
  for (const ksplice::UnitReport& unit : report.units) {
    std::printf(
        "  %-24s %4u/%-4u sections changed, text %u -> %u bytes%s%s\n",
        unit.unit.c_str(), unit.sections_changed, unit.sections_compared,
        unit.pre_text_bytes, unit.post_text_bytes,
        unit.pre_cache_hit ? ", pre cached" : "",
        unit.post_cache_hit ? ", post cached" : "");
  }
  for (const ksplice::ChangedFunction& fn : report.changed_functions) {
    std::printf("  %-8s %s:%s (%u -> %u bytes)\n", fn.change.c_str(),
                fn.unit.c_str(), fn.symbol.c_str(), fn.pre_size,
                fn.post_size);
  }
}

void PrintLintReport(const ksplice::LintReport& report) {
  std::printf(
      "lint: %zu finding(s) — %zu error(s), %zu warning(s), %zu note(s); "
      "%llu function(s), %llu call edge(s), %llu block(s)\n",
      report.findings.size(), report.errors(),
      report.CountAtLeast(ksplice::LintSeverity::kWarning) - report.errors(),
      report.findings.size() -
          report.CountAtLeast(ksplice::LintSeverity::kWarning),
      static_cast<unsigned long long>(report.functions_scanned),
      static_cast<unsigned long long>(report.call_edges),
      static_cast<unsigned long long>(report.blocks_analyzed));
  for (const ksplice::LintFinding& finding : report.findings) {
    std::printf("  %s\n", finding.ToString().c_str());
  }
}

// "<pause> ms pause (<n> attempt(s), <n - 1> quiescence retries)".
std::string WindowText(const ksplice::StopWindow& window) {
  return ks::StrPrintf("%.3f ms pause (%d attempt(s), %d quiescence retr%s)",
                       static_cast<double>(window.pause_ns) / 1e6,
                       window.attempts, window.quiescence_retries(),
                       window.quiescence_retries() == 1 ? "y" : "ies");
}

void PrintApplyReport(const ksplice::ApplyReport& report) {
  std::printf("applied %s: %zu function(s) spliced in %s\n",
              report.id.c_str(), report.functions.size(),
              WindowText(report).c_str());
  std::printf(
      "  run-pre: %llu candidate(s), %llu byte(s) matched, %llu "
      "relocation inversions\n",
      static_cast<unsigned long long>(report.match.candidates_tried),
      static_cast<unsigned long long>(report.match.run_bytes_matched),
      static_cast<unsigned long long>(report.match.reloc_sites_inverted));
  std::printf(
      "  memory: primary %u byte(s), helper %llu byte(s)%s, trampolines "
      "%u byte(s)\n",
      report.primary_bytes,
      static_cast<unsigned long long>(report.helper_bytes),
      report.helper_retained ? " (retained)" : " (unloaded)",
      report.trampoline_bytes);
  for (const ksplice::SpliceRecord& fn : report.functions) {
    std::printf("  %s:%s @%08x -> %08x (%u -> %u bytes)\n",
                fn.unit.c_str(), fn.symbol.c_str(), fn.orig_address,
                fn.repl_address, fn.code_size, fn.repl_size);
  }
}

void PrintBatchApplyReport(const ksplice::BatchApplyReport& report) {
  std::printf(
      "applied %u package(s) in one rendezvous: %u function(s) spliced in "
      "%s\n",
      report.packages, report.functions_spliced, WindowText(report).c_str());
  std::printf("  stages:");
  for (const ksplice::StageTiming& stage : report.stages) {
    std::printf(" %s %.3fms", stage.stage.c_str(),
                static_cast<double>(stage.wall_ns) / 1e6);
  }
  std::printf("\n");
  for (const ksplice::ApplyReport& update : report.updates) {
    PrintApplyReport(update);
  }
}

void PrintStatusReport(const ksplice::StatusReport& report) {
  std::printf("%-24s %9s %7s %11s %12s %11s  %s\n", "update", "functions",
              "helper", "helper B", "primary B", "tramp B", "symbols");
  for (const ksplice::UpdateStatusRow& row : report.updates) {
    std::string symbols;
    for (const std::string& symbol : row.symbols) {
      symbols += (symbols.empty() ? "" : " ") + symbol;
    }
    std::printf("%-24s %9u %7s %11u %12u %11u  %s\n", row.id.c_str(),
                row.functions, row.helper_loaded ? "loaded" : "-",
                row.helper_bytes, row.primary_bytes, row.trampoline_bytes,
                symbols.c_str());
  }
  std::printf("%zu update(s) applied; module arena: %u byte(s) in use\n",
              report.updates.size(), report.arena_bytes_in_use);
  if (report.health.faults_total != 0 || report.health.panicked ||
      !report.quarantine.empty()) {
    std::printf(
        "health: %llu fault(s), %llu attributed, %llu extable fixup(s), "
        "%llu dropped log line(s)%s\n",
        static_cast<unsigned long long>(report.health.faults_total),
        static_cast<unsigned long long>(report.health.faults_attributed),
        static_cast<unsigned long long>(report.health.extable_fixups),
        static_cast<unsigned long long>(report.health.dropped_log_lines),
        report.health.panicked ? ", PANICKED" : "");
  }
  for (const ksplice::QuarantineEntry& entry : report.quarantine) {
    std::printf("quarantined: %s (hash %016llx): %s\n", entry.id.c_str(),
                static_cast<unsigned long long>(entry.package_hash),
                entry.evidence.c_str());
  }
}

// Runs the --watch soak over an already-applied core: spawns the
// workload (if any), soaks under the watchdog, and prints what happened.
// Returns 1 when the watchdog auto-reverted anything, else 0.
int RunWatch(ksplice::KspliceCore& core) {
  if (!g_cmd.watch_entry.empty()) {
    ks::Result<int> tid = core.machine()->SpawnNamed(g_cmd.watch_entry, 0);
    if (!tid.ok()) {
      return Fail(tid.status());
    }
  }
  ksplice::WatchdogOptions options;
  options.soak_ticks = g_cmd.watch_ticks;
  ksplice::HealthMonitor monitor(&core, options);
  ksplice::WatchdogReport soak = monitor.Soak();
  std::printf(
      "watchdog: %llu-tick soak, %llu sample(s): %llu fault(s), "
      "%llu attributed, %llu extable fixup(s)%s\n",
      static_cast<unsigned long long>(soak.window_ticks),
      static_cast<unsigned long long>(soak.samples),
      static_cast<unsigned long long>(soak.faults_seen),
      static_cast<unsigned long long>(soak.faults_attributed),
      static_cast<unsigned long long>(soak.extable_fixups),
      soak.panicked ? ", PANICKED" : "");
  for (const std::string& line : soak.unattributed) {
    std::printf("watchdog: unattributed: %s\n", line.c_str());
  }
  for (const ksplice::RevertReport& revert : soak.reverts) {
    std::printf(
        "watchdog: auto-revert %s after %d attempt(s): %s; "
        "quarantined hash %016llx (%s)\n",
        revert.id.c_str(), revert.attempts,
        revert.reverted ? "reverted" : ("FAILED: " + revert.error).c_str(),
        static_cast<unsigned long long>(revert.package_hash),
        revert.trigger.reason.c_str());
  }
  if (!soak.reverts.empty()) {
    PrintStatusReport(core.Status());
    return 1;
  }
  return 0;
}

// ---------------------------------------------------------------- build

int CmdBuild(const std::vector<std::string>& args) {
  ks::Result<kdiff::SourceTree> tree = LoadTree(args[0]);
  if (!tree.ok()) {
    return Fail(tree.status());
  }
  ks::Result<std::vector<kelf::ObjectFile>> objects =
      kcc::BuildTree(*tree, DefaultBuild());
  if (!objects.ok()) {
    return Fail(objects.status());
  }
  size_t text = 0;
  size_t symbols = 0;
  for (const kelf::ObjectFile& obj : *objects) {
    for (const kelf::Section& section : obj.sections()) {
      if (section.kind == kelf::SectionKind::kText) {
        text += section.bytes.size();
      }
    }
    symbols += obj.symbols().size();
  }
  std::printf("%zu units, %zu text bytes, %zu symbols\n", objects->size(),
              text, symbols);
  return 0;
}

// --------------------------------------------------------------- create

// Reads --lint=off|warn|error (create, rollout) into *mode, leaving it as
// is when the flag is absent. Returns the usage exit code for any other
// value, else 0.
int ParseLintFlag(ksplice::LintMode* mode) {
  const std::string& v = g_cmd.lint_mode;
  if (v == "off" || v == "warn" || v == "error") {
    *mode = v == "off"    ? ksplice::LintMode::kOff
            : v == "warn" ? ksplice::LintMode::kWarn
                          : ksplice::LintMode::kError;
  } else if (!v.empty()) {
    return UsageError("--lint=" + v + " is not off, warn or error");
  }
  return 0;
}

int CmdCreate(const std::vector<std::string>& args) {
  const std::string& out_path = args[2];
  ks::Result<kdiff::SourceTree> tree = LoadTree(args[0]);
  if (!tree.ok()) {
    return Fail(tree.status());
  }
  ks::Result<std::string> patch = ReadFile(args[1]);
  if (!patch.ok()) {
    return Fail(patch.status());
  }
  ksplice::CreateOptions options;
  options.compile = DefaultBuild();
  if (int rc = ParseLintFlag(&options.lint); rc != 0) {
    return rc;
  }
  ks::Result<ksplice::CreateResult> created =
      ksplice::CreateUpdate(*tree, *patch, options);
  if (!created.ok()) {
    return Fail(created.status());
  }
  std::vector<uint8_t> bytes = created->package.Serialize();
  ks::Status written = WriteFile(
      out_path, std::string(bytes.begin(), bytes.end()));
  if (!written.ok()) {
    return Fail(written);
  }
  // The typed report rides along as JSON so `inspect` can show how the
  // package came to be.
  (void)WriteFile(out_path + ".report.json",
                  created->report.ToJson() + "\n");
  std::printf("Ksplice update %s written to %s (%zu bytes, %zu targets)\n",
              created->package.id.c_str(), out_path.c_str(), bytes.size(),
              created->package.targets.size());
  PrintCreateReport(created->report);
  if (!created->report.lint.findings.empty()) {
    PrintLintReport(created->report.lint);
  }
  return 0;
}

// ----------------------------------------------------------------- lint

int CmdLint(const std::vector<std::string>& args) {
  ksplice::LintSeverity threshold;
  if (g_cmd.fail_on == "note") {
    threshold = ksplice::LintSeverity::kNote;
  } else if (g_cmd.fail_on == "warning") {
    threshold = ksplice::LintSeverity::kWarning;
  } else if (g_cmd.fail_on == "error") {
    threshold = ksplice::LintSeverity::kError;
  } else {
    return UsageError("--fail-on=" + g_cmd.fail_on +
                      " is not note, warning or error");
  }
  ks::Result<ksplice::UpdatePackage> pkg = ReadPackage(args[0]);
  if (!pkg.ok()) {
    return Fail(pkg.status());
  }
  kanalyze::AnalyzeOptions lint_options;
  lint_options.cache = &ToolCache();
  ks::Result<ksplice::LintReport> report =
      kanalyze::AnalyzePackage(*pkg, lint_options);
  if (!report.ok()) {
    return Fail(report.status());
  }
  if (g_cmd.json) {
    int rc = EmitJson(report->ToJson());
    if (rc != 0) {
      return rc;
    }
  } else {
    std::printf("lint report for %s:\n", report->id.c_str());
    PrintLintReport(*report);
  }
  return report->CountAtLeast(threshold) > 0 ? 1 : 0;
}

// -------------------------------------------------------------- inspect

int CmdInspect(const std::vector<std::string>& args) {
  const std::string& pkg_path = args[0];
  ks::Result<ksplice::UpdatePackage> pkg = ReadPackage(pkg_path);
  if (!pkg.ok()) {
    return Fail(pkg.status());
  }
  std::printf("update id : %s\n", pkg->id.c_str());
  std::printf("targets   : %zu\n", pkg->targets.size());
  for (const ksplice::Target& target : pkg->targets) {
    std::printf("  %s  (%s in %s)\n", target.symbol.c_str(),
                target.section.c_str(), target.unit.c_str());
  }
  std::printf("helper    : %zu unit(s)\n", pkg->helper_objects.size());
  for (const kelf::ObjectFile& obj : pkg->helper_objects) {
    std::printf("  %s: %zu sections, %zu symbols\n",
                obj.source_name().c_str(), obj.sections().size(),
                obj.symbols().size());
  }
  std::printf("primary   : %zu unit(s)\n", pkg->primary_objects.size());
  for (const kelf::ObjectFile& obj : pkg->primary_objects) {
    for (const kelf::Section& section : obj.sections()) {
      std::printf("  %s %s (%u bytes, %zu relocs)\n",
                  obj.source_name().c_str(), section.name.c_str(),
                  section.size(), section.relocs.size());
    }
  }
  // The create report, when the package was written by `create`.
  ks::Result<std::string> report = ReadFile(pkg_path + ".report.json");
  if (report.ok()) {
    std::printf("report    : %s", report->c_str());
  }
  return 0;
}

// ----------------------------------------------------------------- demo

int CmdDemo(const std::vector<std::string>& args) {
  std::string entry = args.size() >= 3 ? args[2] : "";
  uint32_t arg = args.size() == 4
                     ? static_cast<uint32_t>(std::atoi(args[3].c_str()))
                     : 0;
  ks::Result<kdiff::SourceTree> tree = LoadTree(args[0]);
  if (!tree.ok()) {
    return Fail(tree.status());
  }
  ks::Result<std::string> patch = ReadFile(args[1]);
  if (!patch.ok()) {
    return Fail(patch.status());
  }
  ks::Result<std::vector<kelf::ObjectFile>> objects =
      kcc::BuildTree(*tree, DefaultBuild());
  if (!objects.ok()) {
    return Fail(objects.status());
  }
  kvm::MachineConfig config;
  ks::Result<std::unique_ptr<kvm::Machine>> machine =
      kvm::Machine::Boot(std::move(objects).value(), config);
  if (!machine.ok()) {
    return Fail(machine.status());
  }
  // Kernels conventionally export a kernel_init entry; run it if present.
  if ((*machine)->GlobalSymbol("kernel_init").ok()) {
    ks::Result<int> init = (*machine)->SpawnNamed("kernel_init", 0);
    if (init.ok()) {
      (void)(*machine)->RunToCompletion();
      std::printf("ran kernel_init\n");
    }
  }
  auto run_entry = [&](const char* when) {
    if (entry.empty()) {
      return;
    }
    ks::Result<int> tid = (*machine)->SpawnNamed(entry, arg);
    if (!tid.ok()) {
      std::printf("%s: cannot run %s: %s\n", when, entry.c_str(),
                  tid.status().ToString().c_str());
      return;
    }
    (void)(*machine)->RunToCompletion();
    std::printf("%s: ran %s(%u); records:", when, entry.c_str(), arg);
    for (const auto& [key, value] : (*machine)->Records()) {
      std::printf(" (%u,%u)", key, value);
    }
    std::printf("\n");
    for (const std::string& line : (*machine)->PrintkLog()) {
      std::printf("%s: printk: %s\n", when, line.c_str());
    }
  };
  run_entry("before");

  ksplice::CreateOptions options;
  options.compile = DefaultBuild();
  ks::Result<ksplice::CreateResult> created =
      ksplice::CreateUpdate(*tree, *patch, options);
  if (!created.ok()) {
    return Fail(created.status());
  }
  PrintCreateReport(created->report);
  ksplice::KspliceCore core(machine->get());
  ks::Result<ksplice::ApplyReport> applied = core.Apply(created->package);
  if (!applied.ok()) {
    return Fail(applied.status());
  }
  PrintApplyReport(*applied);
  run_entry("after");
  return 0;
}

// -------------------------------------------------------- apply / status

ks::Result<std::unique_ptr<kvm::Machine>> BootDir(const std::string& dir) {
  KS_ASSIGN_OR_RETURN(kdiff::SourceTree tree, LoadTree(dir));
  KS_ASSIGN_OR_RETURN(std::vector<kelf::ObjectFile> objects,
                      kcc::BuildTree(tree, DefaultBuild()));
  kvm::MachineConfig config;
  return kvm::Machine::Boot(std::move(objects), config);
}

ks::Result<std::vector<ksplice::UpdatePackage>> LoadPackages(
    const std::vector<std::string>& paths) {
  std::vector<ksplice::UpdatePackage> packages;
  for (const std::string& path : paths) {
    KS_ASSIGN_OR_RETURN(ksplice::UpdatePackage package,
                        ReadPackage(path, "parsing " + path));
    packages.push_back(std::move(package));
  }
  return packages;
}

// Boots args[0] and applies every remaining argument as a package — all
// of them in one transaction with a single stop_machine rendezvous.
int CmdApply(const std::vector<std::string>& args) {
  ks::Result<std::unique_ptr<kvm::Machine>> machine = BootDir(args[0]);
  if (!machine.ok()) {
    return Fail(machine.status());
  }
  ks::Result<std::vector<ksplice::UpdatePackage>> packages = LoadPackages(
      std::vector<std::string>(args.begin() + 1, args.end()));
  if (!packages.ok()) {
    return Fail(packages.status());
  }
  ksplice::KspliceCore core(machine->get());
  ksplice::ApplyOptions options;
  options.force = g_cmd.force;
  ks::Result<ksplice::BatchApplyReport> applied =
      core.ApplyAll(*packages, options);
  if (!applied.ok()) {
    return Fail(applied.status());
  }
  PrintBatchApplyReport(*applied);
  PrintStatusReport(core.Status());
  if (g_cmd.watch_ticks != 0) {
    return RunWatch(core);
  }
  return 0;
}

// Boots args[0], applies any packages given after it, and prints the
// applied-update stack (the live analogue of Ksplice's /sys status).
int CmdStatus(const std::vector<std::string>& args) {
  ks::Result<std::unique_ptr<kvm::Machine>> machine = BootDir(args[0]);
  if (!machine.ok()) {
    return Fail(machine.status());
  }
  ks::Result<std::vector<ksplice::UpdatePackage>> packages = LoadPackages(
      std::vector<std::string>(args.begin() + 1, args.end()));
  if (!packages.ok()) {
    return Fail(packages.status());
  }
  ksplice::KspliceCore core(machine->get());
  if (!packages->empty()) {
    ks::Result<ksplice::BatchApplyReport> applied = core.ApplyAll(*packages);
    if (!applied.ok()) {
      return Fail(applied.status());
    }
  }
  ksplice::StatusReport report = core.Status();
  // An applied update with faults attributed to it is a live regression:
  // report it and exit 1 so scripts can gate on machine health.
  int health_rc = 0;
  for (const ksplice::UpdateStatusRow& row : report.updates) {
    if (row.attributed_faults > 0) {
      health_rc = 1;
    }
  }
  if (g_cmd.json) {
    int rc = EmitJson(report.ToJson());
    return rc != 0 ? rc : health_rc;
  }
  PrintStatusReport(report);
  return health_rc;
}

// -------------------------------------------------------------- rollout

// Builds one package per CVE argument from the v1 corpus source (the
// distro's single package for every installed kernel release).
ks::Result<std::vector<ksplice::UpdatePackage>> BuildCorpusPackages(
    const std::vector<std::string>& cves) {
  std::vector<ksplice::UpdatePackage> packages;
  for (const std::string& cve : cves) {
    const corpus::Vulnerability* vuln = nullptr;
    for (const corpus::Vulnerability& candidate :
         corpus::Vulnerabilities()) {
      if (candidate.cve == cve) {
        vuln = &candidate;
      }
    }
    if (vuln == nullptr) {
      return ks::NotFound("no corpus entry for " + cve);
    }
    KS_ASSIGN_OR_RETURN(std::string patch, corpus::PatchFor(*vuln));
    ksplice::CreateOptions options;
    options.compile = corpus::RunBuildOptions();
    options.compile.jobs = g_options.jobs;
    options.compile.cache = &ToolCache();
    options.id = vuln->cve;
    KS_ASSIGN_OR_RETURN(
        ksplice::CreateResult created,
        ksplice::CreateUpdate(corpus::KernelSource(), patch, options));
    packages.push_back(std::move(created.package));
  }
  return packages;
}

void PrintRolloutReport(const ksplice::RolloutReport& report) {
  std::printf("rollout %s over %u node(s): %s\n", report.id.c_str(),
              report.fleet_size,
              report.aborted ? "ABORTED (rolled back)" : "completed");
  std::printf("%5s %7s %6s %8s %8s %6s %7s %8s %9s\n", "wave", "canary",
              "nodes", "patched", "already", "stale", "failed", "reverted",
              "pause ms");
  for (const ksplice::RolloutWaveReport& wave : report.wave_reports) {
    std::printf("%5d %7s %6u %8u %8u %6u %7u %8u %9.3f%s\n", wave.wave,
                wave.canary ? "yes" : "-", wave.nodes, wave.patched,
                wave.already_applied, wave.skipped_stale, wave.failed,
                wave.auto_reverted,
                static_cast<double>(wave.max_pause_ns) / 1e6,
                wave.tripped ? "  << tripped" : "");
  }
  std::printf(
      "totals: %u patched, %u already applied, %u skipped stale, "
      "%u failed, %u auto-reverted, %u rolled back, %u not attempted\n",
      report.patched, report.already_applied, report.skipped_stale,
      report.failed, report.auto_reverted, report.rolled_back,
      report.not_attempted);
  for (const std::string& tag : report.blacklisted) {
    std::printf("blacklisted: %s\n", tag.c_str());
  }
  std::printf(
      "%.1f machines/sec; pause p50 %.3f ms, p99 %.3f ms, max %.3f ms\n",
      report.nodes_per_sec,
      static_cast<double>(report.pause_p50_ns) / 1e6,
      static_cast<double>(report.pause_p99_ns) / 1e6,
      static_cast<double>(report.pause_max_ns) / 1e6);
}

// Rolls package(s) — corpus CVEs and/or on-disk .kspl files — across a
// mixed-release fleet, after a static-analysis gate over every package.
// Exits 1 when the gate refuses, the rollout aborted, or any node failed.
int CmdRollout(const std::vector<std::string>& args) {
  if (g_cmd.nodes <= 0) {
    return UsageError("--nodes must be positive");
  }
  if (g_cmd.doom < 0 || g_cmd.doom > g_cmd.nodes) {
    return UsageError("--doom must be between 0 and --nodes");
  }
  if (g_cmd.wave < 0) {
    return UsageError("--wave must not be negative");
  }
  if (g_cmd.max_in_flight < 1) {
    return UsageError("--max-in-flight must be at least 1");
  }
  if (g_cmd.canary < 0.0 || g_cmd.canary > 1.0) {
    return UsageError("--canary must be between 0 and 1");
  }
  if (g_cmd.abort_frac < 0.0) {
    return UsageError("--abort-frac must not be negative");
  }
  ksplice::LintMode lint_mode = ksplice::LintMode::kError;
  if (int rc = ParseLintFlag(&lint_mode); rc != 0) {
    return rc;
  }
  std::vector<std::string> cves;
  std::vector<std::string> package_paths;
  for (const std::string& arg : args) {
    (ks::EndsWith(arg, ".kspl") ? package_paths : cves).push_back(arg);
  }
  if (cves.empty() && package_paths.empty()) {
    // Applies cleanly on every corpus release (mm/vmsplice drifted in
    // none of them), so the default rollout exercises the whole fleet.
    cves.push_back("CVE-2008-0600");
  }
  ks::Result<std::vector<ksplice::UpdatePackage>> packages =
      BuildCorpusPackages(cves);
  if (!packages.ok()) {
    return Fail(packages.status());
  }
  ks::Result<std::vector<ksplice::UpdatePackage>> loaded =
      LoadPackages(package_paths);
  if (!loaded.ok()) {
    return Fail(loaded.status());
  }
  for (ksplice::UpdatePackage& pkg : *loaded) {
    packages->push_back(std::move(pkg));
  }

  // The gate: a package that static analysis can condemn must be refused
  // before any node is touched.
  if (lint_mode != ksplice::LintMode::kOff) {
    kanalyze::AnalyzeOptions lint_options;
    lint_options.cache = &ToolCache();
    for (const ksplice::UpdatePackage& pkg : *packages) {
      ks::Result<ksplice::LintReport> lint =
          kanalyze::AnalyzePackage(pkg, lint_options);
      if (!lint.ok()) {
        return Fail(lint.status());
      }
      if (lint->errors() == 0) {
        continue;
      }
      std::fprintf(stderr,
                   "rollout: package %s has %zu error-severity lint "
                   "finding(s):\n",
                   lint->id.c_str(), lint->errors());
      for (const ksplice::LintFinding& finding : lint->findings) {
        if (finding.severity == ksplice::LintSeverity::kError) {
          std::fprintf(stderr, "  %s\n", finding.ToString().c_str());
        }
      }
      if (lint_mode == ksplice::LintMode::kError) {
        std::fprintf(stderr,
                     "rollout refused before touching any node "
                     "(--lint=warn to override)\n");
        return 1;
      }
    }
  }

  fleet::CorpusFleetOptions fleet_options;
  fleet_options.nodes = static_cast<size_t>(g_cmd.nodes);
  fleet_options.doomed = static_cast<size_t>(g_cmd.doom);
  fleet_options.seed = g_cmd.seed;
  ks::Result<fleet::Fleet> machines = fleet::MakeCorpusFleet(fleet_options);
  if (!machines.ok()) {
    return Fail(machines.status());
  }

  fleet::RolloutPlan plan;
  plan.canary_fraction = g_cmd.canary;
  plan.wave_size = static_cast<uint32_t>(g_cmd.wave);
  plan.max_in_flight = g_cmd.max_in_flight;
  plan.abort_failure_fraction = g_cmd.abort_frac;
  plan.seed = g_cmd.seed;
  if (g_cmd.doom > 0) {
    plan.canary_fault_plan = g_cmd.canary_fault;
  }
  plan.soak_ticks = g_cmd.soak_ticks;
  plan.max_faults_per_node = g_cmd.max_node_faults;
  if (plan.soak_ticks != 0) {
    plan.soak_entry = "stress_main";  // every corpus kernel ships it
  }
  ks::Result<ksplice::RolloutReport> report =
      fleet::RunRollout(*machines, *packages, plan);
  if (!report.ok()) {
    return Fail(report.status());
  }

  if (g_cmd.json) {
    int rc = EmitJson(report->ToJson());
    if (rc != 0) {
      return rc;
    }
  } else {
    PrintRolloutReport(*report);
  }
  return (report->aborted || report->failed > 0 ||
          report->auto_reverted > 0)
             ? 1
             : 0;
}

// --------------------------------------------------------------- disasm

int CmdDisasm(const std::vector<std::string>& args) {
  ks::Result<kdiff::SourceTree> tree = LoadTree(args[0]);
  if (!tree.ok()) {
    return Fail(tree.status());
  }
  kcc::CompileOptions options;
  options.function_sections = true;
  options.data_sections = true;
  ks::Result<kelf::ObjectFile> obj =
      kcc::CompileUnit(*tree, args[1], options);
  if (!obj.ok()) {
    return Fail(obj.status());
  }
  for (const kelf::Section& section : obj->sections()) {
    if (section.kind != kelf::SectionKind::kText) {
      continue;
    }
    std::printf("%s:\n%s", section.name.c_str(),
                kvx::Disassemble(section.bytes, 0).c_str());
    for (const kelf::Relocation& rel : section.relocs) {
      std::printf("  reloc +0x%04x %s %s%+d\n", rel.offset,
                  rel.type == kelf::RelocType::kAbs32 ? "abs32" : "pcrel32",
                  obj->symbols()[static_cast<size_t>(rel.symbol)].name.c_str(),
                  rel.addend);
    }
  }
  return 0;
}

// -------------------------------------------------------- export-corpus

int CmdExportCorpus(const std::vector<std::string>& args) {
  const std::string& dir = args[0];
  const kdiff::SourceTree& tree = corpus::KernelSource();
  for (const std::string& path : tree.Paths()) {
    ks::Status written =
        WriteFile(fs::path(dir) / "src" / path, *tree.Read(path));
    if (!written.ok()) {
      return Fail(written);
    }
  }
  int patches = 0;
  for (const corpus::Vulnerability& vuln : corpus::Vulnerabilities()) {
    ks::Result<std::string> patch = corpus::PatchFor(vuln);
    if (!patch.ok()) {
      return Fail(patch.status());
    }
    ks::Status written = WriteFile(
        fs::path(dir) / "patches" / (vuln.cve + ".patch"), *patch);
    if (!written.ok()) {
      return Fail(written);
    }
    ++patches;
    if (vuln.needs_custom_code) {
      ks::Result<std::string> amended = corpus::AmendedPatchFor(vuln);
      if (amended.ok()) {
        (void)WriteFile(
            fs::path(dir) / "patches" / (vuln.cve + ".custom.patch"),
            *amended);
      }
    }
  }
  std::printf("wrote %zu source files and %d patches under %s\n",
              tree.size(), patches, dir.c_str());
  std::printf("try: ksplice_tool demo %s/src %s/patches/CVE-2006-2451.patch "
              "xp_2006_2451\n",
              dir.c_str(), dir.c_str());
  return 0;
}

// -------------------------------------------------------- command table

struct Command {
  const char* name;
  const char* synopsis;   // positional arguments
  const char* summary;    // one line for the global help
  size_t min_args;
  size_t max_args;
  int (*handler)(const std::vector<std::string>& args);
  const char* help;       // extra detail for `<command> --help`
  // Command-specific flags, listed in the command's help and accepted
  // only when this command runs.
  const FlagSpec* flags = nullptr;
  size_t num_flags = 0;
};

const Command kCommands[] = {
    {"build", "<srcdir>", "compile a source tree and report its size", 1, 1,
     CmdBuild,
     "Compiles every .kc/.kvs unit under <srcdir> (monolithic, like a\n"
     "shipped kernel) and prints unit/text/symbol totals."},
    {"create", "<srcdir> <patch> <out.kspl>",
     "build an update package from a unified diff (ksplice-create)", 3, 3,
     CmdCreate,
     "Runs the pre-post double build and section diff, extracts changed\n"
     "code, and writes the package to <out.kspl> plus a typed\n"
     "<out.kspl>.report.json (per-unit compile/cache/diff statistics, the\n"
     "changed-function list and the kanalyze lint findings).",
     kCreateFlags, std::size(kCreateFlags)},
    {"lint", "<pkg.kspl>",
     "statically analyze a package for patch-safety hazards", 1, 1, CmdLint,
     "Runs the kanalyze passes — call graph, CFG/bytecode verification,\n"
     "pre-vs-post ABI/layout diff, quiescence risk — over <pkg.kspl> and\n"
     "prints the typed findings (rule id KSAxxx, severity, location, fix\n"
     "hint). Exits 1 when a finding meets --fail-on (default: error).",
     kLintFlags, std::size(kLintFlags)},
    {"inspect", "<pkg.kspl>", "show a package's targets and objects", 1, 1,
     CmdInspect,
     "Parses <pkg.kspl> and lists targets, helper and primary objects.\n"
     "When <pkg.kspl>.report.json exists (written by create), prints the\n"
     "create report too."},
    {"demo", "<srcdir> <patch> [entry [arg]]",
     "boot the tree, hot-apply the patch, compare behaviour", 2, 4, CmdDemo,
     "Boots the tree in the simulated kernel, optionally runs [entry]\n"
     "before and after, creates the update from <patch> and applies it\n"
     "live, printing the typed create and apply reports."},
    {"apply", "<srcdir> <pkg.kspl>...",
     "boot the tree and apply package(s) in one rendezvous", 2, 64,
     CmdApply,
     "Boots <srcdir> in the simulated kernel and applies every package in\n"
     "ONE transaction: a single combined quiescence check and stop_machine\n"
     "pause covers all of them, and any failure rolls the whole batch\n"
     "back. Prints the typed apply report(s) and the resulting update\n"
     "stack. Packages must target disjoint functions; stacked updates to\n"
     "the same function apply in separate transactions. --watch soaks the\n"
     "machine under the health watchdog afterwards: an attributed fault\n"
     "auto-reverts the update, quarantines the package (a re-apply then\n"
     "needs --force), and exits 1.",
     kApplyFlags, std::size(kApplyFlags)},
    {"status", "<srcdir> [pkg.kspl...]",
     "show the applied-update stack after applying package(s)", 1, 64,
     CmdStatus,
     "Boots <srcdir>, applies any packages given (one transaction, like\n"
     "apply), and prints one row per applied update: functions spliced,\n"
     "helper retention, module/trampoline bytes and patched symbols —\n"
     "the live analogue of Ksplice's /sys update status. The report also\n"
     "carries machine health (fault/fixup counts, per-update attributed\n"
     "faults) and the package quarantine; any update with attributed\n"
     "faults makes the command exit 1.",
     kStatusFlags, std::size(kStatusFlags)},
    {"rollout", "[cve|pkg.kspl ...]",
     "wave/canary rollout of update package(s) across a fleet", 0, 8,
     CmdRollout,
     "Boots --nodes machines spread round-robin across the corpus kernel\n"
     "release line, builds one package per CVE from the v1 source (default\n"
     "CVE-2008-0600) and loads any .kspl arguments from disk, then rolls\n"
     "the batch out canary wave first. Every package passes the --lint\n"
     "static-analysis gate before any node is touched: error-severity\n"
     "findings refuse the rollout (default --lint=error). A node on a\n"
     "release whose development touched the patched unit is skipped by\n"
     "run-pre matching (counted stale, not failed). When a wave's failed\n"
     "fraction exceeds --abort-frac the rollout aborts and every patched\n"
     "node is rolled back. --doom=K drills that path: the first K nodes in\n"
     "rollout order apply with the --canary-fault plan live. --soak runs\n"
     "each patched node under the health watchdog with the stress workload:\n"
     "attributed regressions auto-revert the node, count toward\n"
     "--abort-frac, and an abort blacklists the blamed packages. Exits 1\n"
     "when the gate refused, the rollout aborted, any node failed, or any\n"
     "node auto-reverted.",
     kRolloutFlags, std::size(kRolloutFlags)},
    {"disasm", "<srcdir> <unit>", "disassemble one compilation unit", 2, 2,
     CmdDisasm,
     "Compiles <unit> with -ffunction-sections and prints each text\n"
     "section's disassembly and relocations."},
    {"export-corpus", "<dir>",
     "write the 64-CVE corpus kernel + patches to disk", 1, 1,
     CmdExportCorpus,
     "Writes the corpus kernel source under <dir>/src and every CVE's fix\n"
     "(and amended Table-1 patch) under <dir>/patches."},
};

void PrintGlobalHelp() {
  std::fprintf(stderr, "usage: ksplice_tool [flags] <command> ...\n\n");
  std::fprintf(stderr, "commands:\n");
  for (const Command& cmd : kCommands) {
    std::fprintf(stderr, "  %-13s %-34s %s\n", cmd.name, cmd.synopsis,
                 cmd.summary);
  }
  std::fprintf(stderr, "\nflags:\n");
  for (const FlagSpec& spec : kFlags) {
    std::string name = spec.name;
    if (spec.arg == FlagSpec::kRequired) {
      name += std::string(" ") + spec.value_name;
    } else if (spec.arg == FlagSpec::kOptional) {
      name += std::string("[=") + spec.value_name + "]";
    }
    std::fprintf(stderr, "  %-18s %s\n", name.c_str(), spec.help);
  }
  std::fprintf(stderr,
               "\n`ksplice_tool <command> --help` describes one command.\n");
}

const Command* g_active_command = nullptr;

void PrintCommandHelp(const Command& cmd);

int UsageError(const std::string& message) {
  std::fprintf(stderr, "error: %s\n\n", message.c_str());
  if (g_active_command != nullptr) {
    PrintCommandHelp(*g_active_command);
  }
  return 2;
}

void PrintCommandHelp(const Command& cmd) {
  std::fprintf(stderr, "usage: ksplice_tool [flags] %s %s\n\n%s\n%s\n",
               cmd.name, cmd.synopsis, cmd.summary, cmd.help);
  if (cmd.num_flags > 0) {
    std::fprintf(stderr, "\nflags (in addition to the global ones):\n");
    for (size_t i = 0; i < cmd.num_flags; ++i) {
      const FlagSpec& spec = cmd.flags[i];
      std::string name = spec.name;
      if (spec.arg == FlagSpec::kRequired) {
        name += std::string("=") + spec.value_name;
      } else if (spec.arg == FlagSpec::kOptional) {
        name += std::string("[=") + spec.value_name + "]";
      }
      std::fprintf(stderr, "  %-18s %s\n", name.c_str(), spec.help);
    }
  }
}

// Finds the command named by the first positional-looking argument
// without consuming anything: flag tokens are skipped, as is the value
// token of a known value-in-next-argument flag. Returns nullptr when no
// argument names a command; *name gets the candidate (empty when the
// command line has no positional arguments at all).
const Command* LocateCommand(const std::vector<std::string>& args,
                             std::string* name) {
  name->clear();
  for (size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    if (!arg.empty() && arg[0] == '-') {
      // Skip a known flag's detached value so `-j 4 create ...` does not
      // mistake "4" for the command.
      auto skips_next = [&](const FlagSpec& spec) {
        return spec.arg == FlagSpec::kRequired && arg == spec.name;
      };
      bool skip = false;
      for (const FlagSpec& spec : kFlags) {
        skip = skip || skips_next(spec);
      }
      for (const Command& cmd : kCommands) {
        for (size_t f = 0; f < cmd.num_flags; ++f) {
          skip = skip || skips_next(cmd.flags[f]);
        }
      }
      if (skip) {
        ++i;
      }
      continue;
    }
    *name = arg;
    for (const Command& cmd : kCommands) {
      if (arg == cmd.name) {
        return &cmd;
      }
    }
    return nullptr;
  }
  return nullptr;
}

// Trace/metrics emission at exit, whatever the command did.
int Finish(int code) {
  if (g_options.trace) {
    if (g_options.trace_file.empty()) {
      std::fprintf(stderr, "%s", ks::TraceSummary().c_str());
    } else {
      ks::Status written = ks::WriteTraceJson(g_options.trace_file);
      if (!written.ok()) {
        std::fprintf(stderr, "trace write failed: %s\n",
                     written.ToString().c_str());
      }
    }
  }
  if (!g_options.metrics_file.empty()) {
    ks::Status written = ks::Metrics().WriteJson(g_options.metrics_file);
    if (!written.ok()) {
      std::fprintf(stderr, "metrics write failed: %s\n",
                   written.ToString().c_str());
    }
  }
  return code;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);
  // The command is located before flags are parsed so that a flag error
  // can print that command's own help (and accept its own flags).
  std::string command_name;
  const Command* command = LocateCommand(args, &command_name);
  if (command == nullptr && !command_name.empty()) {
    std::fprintf(stderr, "error: unknown command '%s'\n\n",
                 command_name.c_str());
    PrintGlobalHelp();
    return 2;
  }
  ks::Status parsed = ParseFlags(
      args, command != nullptr ? command->flags : nullptr,
      command != nullptr ? command->num_flags : 0);
  if (!parsed.ok()) {
    std::fprintf(stderr, "error: %s\n\n", parsed.ToString().c_str());
    if (command != nullptr) {
      PrintCommandHelp(*command);
    } else {
      PrintGlobalHelp();
    }
    return 2;
  }
  if (command == nullptr) {
    PrintGlobalHelp();
    return g_options.help ? 0 : 2;
  }
  if (g_options.help) {
    PrintCommandHelp(*command);
    return 0;
  }
  std::vector<std::string> positional(args.begin() + 1, args.end());
  if (positional.size() < command->min_args ||
      positional.size() > command->max_args) {
    std::fprintf(stderr,
                 "error: %s expects %zu..%zu argument(s), got %zu\n\n",
                 command->name, command->min_args, command->max_args,
                 positional.size());
    PrintCommandHelp(*command);
    return 2;
  }
  if (!g_options.faults.empty()) {
    ks::Status armed = ks::Faults().Configure(g_options.faults);
    if (!armed.ok()) {
      std::fprintf(stderr, "error: %s\n\n", armed.ToString().c_str());
      PrintGlobalHelp();
      return 2;
    }
  }
  if (g_options.trace) {
    ks::SetTraceEnabled(true);
  }
  g_active_command = command;
  return Finish(command->handler(positional));
}
