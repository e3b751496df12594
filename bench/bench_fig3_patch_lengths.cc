// bench_fig3_patch_lengths: reproduces Figure 3, "Number of patches by
// patch length" — the histogram of changed source lines across the 64
// security patches, in buckets of five with an overflow bucket.
//
// Paper shape: 35 of 64 patches within 5 lines, 53 within 15 lines, a
// long thin tail beyond. Exits 1 when a patch fails to generate or parse,
// or when fewer patches than the paper's fall within 5 or 15 lines.

#include <cstdio>
#include <vector>

#include "corpus/corpus.h"
#include "kdiff/diff.h"

int main() {
  std::vector<int> lengths;
  for (const corpus::Vulnerability& vuln : corpus::Vulnerabilities()) {
    ks::Result<std::string> patch = corpus::PatchFor(vuln);
    if (!patch.ok()) {
      std::printf("%s: patch generation failed: %s\n", vuln.cve.c_str(),
                  patch.status().ToString().c_str());
      return 1;
    }
    ks::Result<kdiff::Patch> parsed = kdiff::ParseUnifiedDiff(*patch);
    if (!parsed.ok()) {
      return 1;
    }
    lengths.push_back(parsed->ChangedLines());
  }

  std::printf("=== Figure 3: number of patches by patch length ===\n\n");
  constexpr int kBuckets = 16;  // 5-wide buckets to 80, then infinity
  int histogram[kBuckets + 1] = {0};
  for (int len : lengths) {
    int bucket = (len - 1) / 5;
    if (bucket >= kBuckets) {
      bucket = kBuckets;
    }
    histogram[bucket]++;
  }
  std::printf("%-10s %8s  histogram\n", "lines", "patches");
  for (int b = 0; b <= kBuckets; ++b) {
    if (histogram[b] == 0 && b != kBuckets) {
      continue;
    }
    char label[32];
    if (b == kBuckets) {
      std::snprintf(label, sizeof(label), ">%d", kBuckets * 5);
    } else {
      std::snprintf(label, sizeof(label), "%d-%d", b * 5 + 1, b * 5 + 5);
    }
    std::printf("%-10s %8d  ", label, histogram[b]);
    for (int i = 0; i < histogram[b]; ++i) {
      std::printf("#");
    }
    std::printf("\n");
  }

  int within5 = 0;
  int within15 = 0;
  for (int len : lengths) {
    if (len <= 5) {
      ++within5;
    }
    if (len <= 15) {
      ++within15;
    }
  }
  std::printf("\n--- Shape check (measured vs paper) ---\n");
  std::printf("patches within  5 lines : %2d / 64   (paper: 35)\n", within5);
  std::printf("patches within 15 lines : %2d / 64   (paper: 53)\n", within15);
  if (within5 < 35 || within15 < 53) {
    std::fprintf(stderr, "FAIL: fewer short patches than the paper's\n");
    return 1;
  }
  return 0;
}
