#!/bin/sh
# Memory-checks the transactional apply/undo engine: builds the tree with
# -fsanitize=address,undefined and runs the tests that stress module
# load/unload churn (ASAN aborts on the first heap error). The transaction
# tests matter most here: every rollback path unloads a group of
# partially-initialized modules, and out-of-order undo rewrites records
# that point into other updates' arenas. The kvm and corpus tests cover
# boot from a shared linked image and symbol table, and the per-machine
# module symbol overlay; the srcpatch test looks symbols up through that
# overlay while it loads and unloads its modules. The kelf,
# summary and fuzz tests drive the shared byte codec (base/bytes.h), which
# parses untrusted .kspl bytes. The kcc, assembler and kcc property tests
# drive the assembler's raw byte buffers: fixed bytes appended per section,
# then spliced with relaxed branches, alignment fill and relocations. kcc
# tokens point into the preprocessed source, the include graph's file
# records point into a source tree's paths and contents, and a patched
# tree shares its untouched files with the original: the kcc, ksplice
# (pre-post builds) and kdiff tests catch a view that outlives its text.
#
# Guest memory is an anonymous mmap, not a heap allocation, so ASAN does
# not instrument accesses to it: every guest access is bounds-checked by
# kvm itself, and the PROT_NONE guard page mapped right after each image is
# what makes an unchecked host overrun fault instead of passing silently.
set -e
cd "$(dirname "$0")/.."
cmake -B build-asan -G Ninja -DKSPLICE_SANITIZE="address;undefined"
cmake --build build-asan --target ksplice_txn_test concurrency_test \
  ksplice_hooks_smp_test kanalyze_test fuzz_negative_test chaos_test \
  runpre_test runpre_index_test fleet_test howto_test watchdog_test \
  kvm_test corpus_test kelf_test kanalyze_summary_test srcpatch_test \
  kcc_test kvx_asm_test kcc_exec_property_test ksplice_test kdiff_test
for t in ksplice_txn_test concurrency_test ksplice_hooks_smp_test \
         kanalyze_test fuzz_negative_test chaos_test \
         runpre_test runpre_index_test fleet_test howto_test \
         watchdog_test kvm_test corpus_test kelf_test \
         kanalyze_summary_test srcpatch_test kcc_test kvx_asm_test \
         kcc_exec_property_test ksplice_test kdiff_test; do
  echo "== build-asan/tests/$t =="
  "./build-asan/tests/$t"
done
echo "ASAN CHECKS PASSED"
