#!/bin/sh
# Chaos soak: runs the fault-injection harness (tests/chaos_test) and the
# watchdog safety-net tests (tests/watchdog_test, whose seeded round arms
# the watchdog's own fault sites) under a list of fixed seeds plus one
# fresh time-derived seed, so every run also explores a new corner of the
# fault/op sequence space. Each seed is printed before its run; any
# failure reproduces exactly with
#   KSPLICE_CHAOS_SEED=<seed> build/tests/<test>
set -e
cd "$(dirname "$0")/.."
cmake -B build -G Ninja
cmake --build build --target chaos_test watchdog_test

FIXED_SEEDS="12648430 1 10 35 424242 987654321 281474976710655"
FRESH_SEED=$(date +%s)
for seed in $FIXED_SEEDS $FRESH_SEED; do
  echo "== chaos_test KSPLICE_CHAOS_SEED=$seed =="
  KSPLICE_CHAOS_SEED=$seed ./build/tests/chaos_test
  echo "== watchdog_test KSPLICE_CHAOS_SEED=$seed =="
  KSPLICE_CHAOS_SEED=$seed ./build/tests/watchdog_test
done
echo "CHAOS CHECKS PASSED (fixed seeds: $FIXED_SEEDS; fresh seed: $FRESH_SEED)"
