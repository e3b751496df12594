// bench_table1_custom_code: reproduces Table 1, "Patches that cannot be
// applied without new code" — the eight fixes that change the semantics
// of persistent data structures, with the amount of custom code each
// revised patch carries.
//
// For each entry this bench also *demonstrates* the classification: the
// original fix either fails ksplice-create's data gate, or applies yet
// leaves the exploit working (stale initialized state), which is exactly
// why a programmer must supply ksplice_apply custom code. Exits 1 unless
// there are 8 entries and every one falls in one of those two classes.

#include <cstdio>
#include <cstring>

#include "corpus/corpus.h"
#include "kdiff/diff.h"
#include "ksplice/core.h"
#include "ksplice/create.h"

namespace {

// Changed lines in the amended patch minus the original: the "new code".
int MeasuredNewLines(const corpus::Vulnerability& vuln) {
  ks::Result<std::string> original = corpus::PatchFor(vuln);
  ks::Result<std::string> amended = corpus::AmendedPatchFor(vuln);
  if (!original.ok() || !amended.ok()) {
    return -1;
  }
  ks::Result<kdiff::Patch> a = kdiff::ParseUnifiedDiff(*amended);
  if (!a.ok()) {
    return -1;
  }
  int added = 0;
  for (const kdiff::FilePatch& file : a->files) {
    for (const kdiff::Hunk& hunk : file.hunks) {
      for (const std::string& line : hunk.lines) {
        if (line[0] == '+') {
          ++added;
        }
      }
    }
  }
  return added;
}

}  // namespace

int main() {
  std::printf("=== Table 1: patches that cannot be applied without new "
              "code ===\n\n");
  std::printf("%-15s %-22s %10s %9s %-28s\n", "CVE", "reason",
              "paper-new", "ours-new", "why custom code is needed");

  constexpr const char* kRejected = "create rejects data change";
  constexpr const char* kSurvives = "applies, exploit survives";
  int count = 0;
  int misclassified = 0;
  int total_paper_lines = 0;
  for (const corpus::Vulnerability& vuln : corpus::Vulnerabilities()) {
    if (!vuln.needs_custom_code) {
      continue;
    }
    ++count;
    total_paper_lines += vuln.custom_code_lines;

    // Demonstrate why the original patch is insufficient.
    const char* why = "?";
    ksplice::CreateOptions create_options;
    create_options.compile = corpus::RunBuildOptions();
    create_options.id = vuln.cve;
    ks::Result<std::string> patch = corpus::PatchFor(vuln);
    if (patch.ok()) {
      ks::Result<ksplice::CreateResult> created = ksplice::CreateUpdate(
          corpus::KernelSource(), *patch, create_options);
      if (!created.ok() &&
          created.status().code() == ks::ErrorCode::kFailedPrecondition) {
        why = kRejected;
      } else if (created.ok()) {
        // Applies, but the live state stays wrong: exploit survives.
        ks::Result<std::unique_ptr<kvm::Machine>> machine =
            corpus::BootKernel();
        if (machine.ok()) {
          ksplice::KspliceCore core(machine->get());
          if (core.Apply(created->package).ok()) {
            ks::Result<bool> still =
                corpus::RunExploit(**machine, vuln);
            why = (still.ok() && *still) ? kSurvives
                                         : "applies (state-dependent)";
          }
        }
      }
    }
    std::printf("%-15s %-22s %9dl %8dl %-28s\n", vuln.cve.c_str(),
                vuln.adds_struct_field ? "adds field to struct"
                                       : "changes data init",
                vuln.custom_code_lines, MeasuredNewLines(vuln), why);
    if (std::strcmp(why, kRejected) != 0 && std::strcmp(why, kSurvives) != 0) {
      ++misclassified;
    }
  }
  std::printf("\n--- Shape check (measured vs paper) ---\n");
  std::printf("entries          : %d      (paper: 8)\n", count);
  std::printf("misclassified    : %d      (original patch neither refused "
              "nor leaving the exploit alive)\n",
              misclassified);
  std::printf("paper line total : %d    (34+10+1+1+14+4+20+48)\n",
              total_paper_lines);
  std::printf("paper line mean  : %.1f   (paper: ~17 per patch)\n",
              count > 0 ? static_cast<double>(total_paper_lines) / count
                        : 0.0);
  return count == 8 && misclassified == 0 ? 0 : 1;
}
