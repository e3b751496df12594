#!/bin/sh
# Chaos soak: runs the fault-injection harness (tests/chaos_test) and the
# watchdog safety-net tests (tests/watchdog_test, whose seeded round arms
# the watchdog's own fault sites) under a list of fixed seeds plus one
# fresh time-derived seed, so every run also explores a new corner of the
# fault/op sequence space. The fresh seed runs twice, and the check fails
# unless both runs print the same `[replay]` lines: a seed alone must
# reproduce a run. Each seed is printed before its run; any failure
# reproduces exactly with
#   KSPLICE_CHAOS_SEED=<seed> build/tests/<test>
set -e
cd "$(dirname "$0")/.."
cmake -B build -G Ninja
cmake --build build --target chaos_test watchdog_test

out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT

# run TEST SEED REPLAY_FILE: runs one harness under one seed and keeps its
# `[replay]` lines in REPLAY_FILE.
run() {
  echo "== $1 KSPLICE_CHAOS_SEED=$2 =="
  status=0
  KSPLICE_CHAOS_SEED=$2 "./build/tests/$1" > "$out/log" || status=$?
  cat "$out/log"
  [ "$status" -eq 0 ] || exit "$status"
  if ! grep '^\[replay\]' "$out/log" > "$3"; then
    echo "FAIL: $1 printed no [replay] lines"
    exit 1
  fi
}

FIXED_SEEDS="12648430 1 10 35 424242 987654321 281474976710655"
FRESH_SEED=$(date +%s)
for seed in $FIXED_SEEDS $FRESH_SEED; do
  run chaos_test "$seed" "$out/chaos.replay"
  run watchdog_test "$seed" "$out/watchdog.replay"
done
# The loop's last runs were the fresh seed's first.
run chaos_test "$FRESH_SEED" "$out/chaos.again"
run watchdog_test "$FRESH_SEED" "$out/watchdog.again"
for test in chaos watchdog; do
  if ! cmp -s "$out/$test.replay" "$out/$test.again"; then
    echo "FAIL: ${test}_test replays differ between two runs of seed $FRESH_SEED"
    diff "$out/$test.replay" "$out/$test.again" || true
    exit 1
  fi
done
echo "CHAOS CHECKS PASSED (fixed seeds: $FIXED_SEEDS; fresh seed: $FRESH_SEED, replayed twice)"
