#!/bin/sh
# Race-checks the parallel update-creation pipeline: builds the tree with
# -fsanitize=thread and runs the concurrency test plus the SMP hooks test
# directly (TSAN aborts the process on the first data race). The kanalyze
# analyzer and parser fuzz tests run too: lint executes inside the
# (parallelized) create pipeline, so its metrics updates must stay clean.
# The runpre and transaction tests cover the matcher and the apply
# transaction, which run on the caller's thread but share the metrics
# registry and the fault injector with every other thread.
# The fleet test drives wave rollouts at max_in_flight 4 and 8, where
# worker threads share the fault injector, the metrics registry and each
# package's read-only PackagePlan (the pre side every node matches
# against), and each match holds its node's machine lock for its whole
# duration while it reads run code in place. Fleet nodes also share each release's symbol table read-only:
# every node booted from a release looks kernel symbols up in one
# immutable table, and only its own module overlay is written. The corpus
# test boots machines from the per-release linked image and symbol table
# that are built once and shared by every boot; the srcpatch test looks
# symbols up through the module overlay it edits; the kvm test covers boot
# itself, and the
# interpreter's per-host-thread run tables: it runs the stress pair on
# four virtual CPUs while the host thread splices and restores a function
# the pair calls under stop_machine.
set -e
cd "$(dirname "$0")/.."
cmake -B build-tsan -G Ninja -DKSPLICE_SANITIZE=thread
cmake --build build-tsan --target concurrency_test ksplice_hooks_smp_test \
  ksplice_txn_test kanalyze_test fuzz_negative_test chaos_test \
  runpre_test runpre_index_test fleet_test howto_test watchdog_test \
  kvm_test corpus_test srcpatch_test
for t in concurrency_test ksplice_hooks_smp_test ksplice_txn_test \
         kanalyze_test fuzz_negative_test chaos_test \
         runpre_test runpre_index_test fleet_test howto_test \
         watchdog_test kvm_test corpus_test srcpatch_test; do
  echo "== build-tsan/tests/$t =="
  "./build-tsan/tests/$t"
done
echo "TSAN CHECKS PASSED"
