#!/bin/sh
# Replay diff: runs tests/chaos_test and tests/watchdog_test from two build
# trees at every fixed seed of scripts/check_chaos.sh and compares their
# `[replay]` lines.
#
#   scripts/replay_diff.sh OLD_BUILD NEW_BUILD SITE...
#
# Each fault site draws from its own random stream, so a change that moves
# how often code passes some sites may move only the chaos rounds whose
# plan arms one of them. Every differing chaos round is printed with its
# plan and its diff. Exits 1 when a differing round's plan names none of
# the given SITEs, or when any watchdog_test replay line differs; 0
# otherwise. Both trees must already be built.
set -e
if [ "$#" -lt 3 ]; then
  echo "usage: $0 OLD_BUILD NEW_BUILD SITE..." >&2
  exit 2
fi
old=$1
new=$2
shift 2
root="$(dirname "$0")/.."
seeds=$(sed -n 's/^FIXED_SEEDS="\(.*\)"$/\1/p' "$root/scripts/check_chaos.sh")
if [ -z "$seeds" ]; then
  echo "no FIXED_SEEDS in scripts/check_chaos.sh" >&2
  exit 2
fi
for tree in "$old" "$new"; do
  for test in chaos_test watchdog_test; do
    if [ ! -x "$tree/tests/$test" ]; then
      echo "missing $tree/tests/$test (build it first)" >&2
      exit 2
    fi
  done
done

out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT

# replay TREE TEST SEED FILE: keeps one run's `[replay]` lines in FILE.
replay() {
  KSPLICE_CHAOS_SEED=$3 "$1/tests/$2" > "$out/log" 2>&1 || {
    echo "FAIL: $1/tests/$2 failed at KSPLICE_CHAOS_SEED=$3" >&2
    exit 1
  }
  grep '^\[replay\]' "$out/log" > "$4" || true
}

# One line per chaos round: the round's plan, a tab, then every replay
# line of the round joined by " | ".
rounds() {
  awk '
    / plan=/ {
      if (plan != "") print plan "\t" body
      plan = $0; sub(/^.* plan=/, "", plan); body = $0; next
    }
    { body = body " | " $0 }
    END { if (plan != "") print plan "\t" body }' "$1"
}

status=0
moved=0
for seed in $seeds; do
  replay "$old" chaos_test "$seed" "$out/old.chaos"
  replay "$new" chaos_test "$seed" "$out/new.chaos"
  rounds "$out/old.chaos" > "$out/old.rounds"
  rounds "$out/new.chaos" > "$out/new.rounds"
  if [ "$(wc -l < "$out/old.rounds")" -ne "$(wc -l < "$out/new.rounds")" ]; then
    echo "seed $seed: chaos_test ran a different number of rounds"
    status=1
  fi
  round=0
  while IFS="$(printf '\t')" read -r plan body; do
    round=$((round + 1))
    other=$(sed -n "${round}p" "$out/new.rounds" | cut -f2-)
    [ "$body" = "$other" ] && continue
    moved=$((moved + 1))
    named=no
    for site in "$@"; do
      case ",$plan" in *",$site="*) named=yes ;; esac
    done
    echo "seed $seed round $((round - 1)) differs; plan=$plan"
    echo "$body" | tr '|' '\n' | sed 's/^ *//' > "$out/old.round"
    echo "$other" | tr '|' '\n' | sed 's/^ *//' > "$out/new.round"
    diff "$out/old.round" "$out/new.round" | sed 's/^/    /' || true
    if [ "$named" = no ]; then
      echo "FAIL: the plan names none of: $*"
      status=1
    fi
  done < "$out/old.rounds"

  replay "$old" watchdog_test "$seed" "$out/old.watchdog"
  replay "$new" watchdog_test "$seed" "$out/new.watchdog"
  if ! cmp -s "$out/old.watchdog" "$out/new.watchdog"; then
    echo "FAIL: seed $seed: watchdog_test replay lines differ"
    diff "$out/old.watchdog" "$out/new.watchdog" | sed 's/^/    /' || true
    status=1
  fi
done
if [ "$status" -eq 0 ]; then
  echo "REPLAY DIFF OK: $moved chaos round(s) moved, each arming one of: $*"
fi
exit "$status"
