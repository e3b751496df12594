#!/bin/sh
# Full verification: configure, build, test, run every bench and example.
# Set SANITIZE to instrument the build, e.g.:
#   SANITIZE="address;undefined" scripts/check.sh
# (scripts/check_tsan.sh covers -fsanitize=thread separately.)
set -e
cd "$(dirname "$0")/.."
cmake -B build -G Ninja ${SANITIZE:+"-DKSPLICE_SANITIZE=$SANITIZE"}
# The bench loop below runs every build/bench/bench_* binary; drop them
# first so a bench deleted from the tree cannot run from an older build.
rm -f build/bench/bench_*
cmake --build build
ctest --test-dir build --output-on-failure
# perfbench/ is its own CMake project that compiles the program's libraries
# from src/, so nothing above builds it. Build and run each workload once so
# an API change that breaks the benchmark fails here; run.py exits nonzero
# on a build failure or when a run reports correct == false. Then gate on
# the work counters against the committed BENCH_<workload>.json baseline:
# any counter that moved fails the check (refresh the baseline when a
# change means to move one); wall time against the baseline only warns.
for w in cve_pipeline fleet_rollout busy_kernel; do
  echo "== perfbench $w =="
  python3 perfbench/run.py --workload "$w" --seed 1 --seconds 1 --trace 0 \
    >/dev/null
  python3 scripts/bench_compare.py "BENCH_$w.json" \
    ".bench_out/$w-seed1-trace0.json"
done
scripts/check_tidy.sh
for b in build/bench/bench_*; do echo "== $b =="; "$b"; done
for e in build/examples/quickstart build/examples/cve_prctl build/examples/shadow_struct build/examples/stacked_updates build/examples/fleet_update; do echo "== $e =="; "$e"; done

# Observability smoke: export the corpus, hot-apply one CVE fix under
# --trace/--metrics, and validate the emitted JSON files.
echo "== ksplice_tool observability smoke =="
obs_dir=$(mktemp -d)
trap 'rm -rf "$obs_dir"' EXIT
build/tools/ksplice_tool export-corpus "$obs_dir/corpus"
build/tools/ksplice_tool --trace="$obs_dir/trace.json" \
  --metrics="$obs_dir/metrics.json" \
  demo "$obs_dir/corpus/src" "$obs_dir/corpus/patches/CVE-2006-2451.patch" \
  xp_2006_2451
python3 - "$obs_dir" <<'EOF'
import json, sys
obs_dir = sys.argv[1]
trace = json.load(open(obs_dir + "/trace.json"))
names = {e["name"] for e in trace["traceEvents"]}
for span in ("create.update", "runpre.match_unit", "ksplice.apply"):
    assert span in names, f"missing trace span {span}: {sorted(names)}"
metrics = json.load(open(obs_dir + "/metrics.json"))
counters = metrics["counters"]
for key in ("kcc.units_compiled", "runpre.units_matched", "ksplice.applies"):
    assert counters.get(key, 0) > 0, f"counter {key} not populated: {counters}"
assert metrics["histograms"]["ksplice.stop_pause_ns"]["count"] > 0
print("trace + metrics JSON OK:",
      len(trace["traceEvents"]), "spans,", len(counters), "counters")
EOF

# Lint CLI smoke. What the analysis finds is pinned by ctests: the lint
# JSON of every corpus package, keys included
# (FormatPin.CorpusLintReportsAreStable), nonzero work counters
# (KanalyzeGolden.CleanPatchHasNoFindings,
# SummaryPackage.ColdThenWarmCacheCountsAreExact) and the KSA503
# lock-imbalance error (Semdiff.IntroducedLockImbalanceIsError).
# Checked here: exit codes (the prctl fix lints clean even at
# --fail-on=warning; a package that returns holding the big kernel lock
# exits 1), `lint --json` and the .report.json sidecar agreeing
# byte-for-byte on the findings array, and `rollout --lint` (the default)
# refusing that package before touching any node.
echo "== ksplice_tool lint smoke =="
build/tools/ksplice_tool create "$obs_dir/corpus/src" \
  "$obs_dir/corpus/patches/CVE-2006-2451.patch" "$obs_dir/prctl.kspl"
build/tools/ksplice_tool lint "$obs_dir/prctl.kspl"
build/tools/ksplice_tool lint --json="$obs_dir/prctl.lint.json" \
  --fail-on=warning "$obs_dir/prctl.kspl"
python3 - "$obs_dir" <<'EOF'
import difflib, pathlib, sys
obs = pathlib.Path(sys.argv[1])
pre = (obs / "corpus/src/kernel/sched.kc").read_text().splitlines(
    keepends=True)
post = []
for line in pre:
    post.append(line)
    if line.strip() == "void my_schedule() {":
        post.append("  lock_kernel();\n")
assert len(post) == len(pre) + 1, "my_schedule not found"
(obs / "doomed.patch").write_text("".join(difflib.unified_diff(
    pre, post, fromfile="a/kernel/sched.kc", tofile="b/kernel/sched.kc")))
EOF
build/tools/ksplice_tool create --lint=warn "$obs_dir/corpus/src" \
  "$obs_dir/doomed.patch" "$obs_dir/doomed.kspl"
rc=0; build/tools/ksplice_tool lint --json="$obs_dir/doomed.lint.json" \
  "$obs_dir/doomed.kspl" || rc=$?
test "$rc" -eq 1 || { echo "lint of doomed package exited $rc, want 1"; exit 1; }
python3 - "$obs_dir" <<'EOF'
import sys
obs = sys.argv[1]
def findings_raw(text):
    at = text.index('"findings":')
    start = text.index('[', at)
    depth = 0
    for j in range(start, len(text)):
        depth += text[j] == '['
        depth -= text[j] == ']'
        if depth == 0:
            return text[at:j + 1]
    raise AssertionError("unterminated findings array")
for name in ("prctl", "doomed"):
    lint_raw = open(f"{obs}/{name}.lint.json").read()
    side_raw = open(f"{obs}/{name}.kspl.report.json").read()
    assert findings_raw(lint_raw) == findings_raw(side_raw), \
        f"{name}: lint --json and sidecar disagree on the findings array"
print("lint OK: lint --json and sidecar findings byte-identical")
EOF
rc=0; build/tools/ksplice_tool rollout --nodes=2 "$obs_dir/doomed.kspl" \
  2>"$obs_dir/rollout-refused.err" || rc=$?
test "$rc" -eq 1 || { echo "doomed rollout exited $rc, want 1"; exit 1; }
grep -q "rollout refused before touching any node" \
  "$obs_dir/rollout-refused.err"

# Transaction smoke: batch-apply two CVE fixes with disjoint targets in
# ONE transaction and show the update stack. The metrics JSON proves the
# batch shared a single stop_machine rendezvous.
echo "== ksplice_tool batch apply + status smoke =="
build/tools/ksplice_tool create "$obs_dir/corpus/src" \
  "$obs_dir/corpus/patches/CVE-2005-0736.patch" "$obs_dir/epoll.kspl"
build/tools/ksplice_tool create "$obs_dir/corpus/src" \
  "$obs_dir/corpus/patches/CVE-2005-1263.patch" "$obs_dir/coredump.kspl"
build/tools/ksplice_tool --metrics="$obs_dir/batch-metrics.json" \
  apply "$obs_dir/corpus/src" "$obs_dir/epoll.kspl" "$obs_dir/coredump.kspl"
build/tools/ksplice_tool status --json="$obs_dir/status.json" \
  "$obs_dir/corpus/src" "$obs_dir/epoll.kspl" "$obs_dir/coredump.kspl"
python3 - "$obs_dir" <<'EOF'
import json, sys
obs_dir = sys.argv[1]
metrics = json.load(open(obs_dir + "/batch-metrics.json"))
counters = metrics["counters"]
assert counters.get("ksplice.batch_applies") == 1, counters
assert counters.get("ksplice.applies") == 2, counters
assert counters.get("kvm.stop_machine_calls") == 1, \
    f"2 packages must share ONE rendezvous: {counters}"
status = json.load(open(obs_dir + "/status.json"))
assert len(status["updates"]) == 2, status
assert status["arena_bytes_in_use"] > 0, status
health = status["health"]
assert health["faults_total"] == 0 and not health["panicked"], health
assert status["quarantine"] == [], status
print("batch JSON OK:", len(status["updates"]), "updates,",
      counters["kvm.stop_machine_calls"], "stop_machine call")
EOF

# Fault-injection smoke: a fault-injected apply through the tool — the
# injected failure must exit 1 and the fault and rendezvous metrics must
# show up in the --metrics JSON. The fixed-seed randomized chaos round is
# the ctest ChaosTest.RandomizedFaultCombinationsPreserveInvariants (its
# default seed is 0xC0FFEE); the multi-seed soak is scripts/check_chaos.sh.
echo "== fault-injection smoke =="
rc=0; build/tools/ksplice_tool --faults=kvm.write_bytes=always \
  --metrics="$obs_dir/fault-metrics.json" \
  apply "$obs_dir/corpus/src" "$obs_dir/prctl.kspl" \
  >/dev/null 2>&1 || rc=$?
test "$rc" -eq 1 || { echo "fault-injected apply exited $rc, want 1"; exit 1; }
python3 - "$obs_dir" <<'EOF'
import json, sys
metrics = json.load(open(sys.argv[1] + "/fault-metrics.json"))
counters = metrics["counters"]
for key in ("ksplice.fault.checks", "ksplice.fault.injected",
            "ksplice.fault.injected.kvm.write_bytes",
            "ksplice.rendezvous.attempts", "ksplice.txn_rollbacks"):
    assert counters.get(key, 0) > 0, f"counter {key} not populated: {counters}"
print("fault metrics OK:", counters["ksplice.fault.checks"], "checks,",
      counters["ksplice.fault.injected"], "injected")
EOF

# Flag-handling regression: usage errors (unknown flag, wrong argument
# count, bad flag value, bad fault plan) must exit 2 and print the right
# usage on stderr; a failed operation must exit 1.
echo "== ksplice_tool flag handling =="
if build/tools/ksplice_tool create --bogus a b c 2>"$obs_dir/err1"; then
  echo "unknown flag did not fail"; exit 1
fi
grep -q "usage: ksplice_tool .* create" "$obs_dir/err1"
if build/tools/ksplice_tool lint 2>"$obs_dir/err2"; then
  echo "missing argument did not fail"; exit 1
fi
grep -q "usage: ksplice_tool .* lint" "$obs_dir/err2"
rc=0; build/tools/ksplice_tool create --lint=bogus "$obs_dir/corpus/src" \
  "$obs_dir/corpus/patches/CVE-2006-2451.patch" "$obs_dir/unused.kspl" \
  2>"$obs_dir/err3" || rc=$?
test "$rc" -eq 2 || { echo "create --lint=bogus exited $rc, want 2"; exit 1; }
grep -q "usage: ksplice_tool .* create" "$obs_dir/err3"
rc=0; build/tools/ksplice_tool lint --fail-on=bogus "$obs_dir/prctl.kspl" \
  2>"$obs_dir/err4" || rc=$?
test "$rc" -eq 2 || { echo "lint --fail-on=bogus exited $rc, want 2"; exit 1; }
grep -q "usage: ksplice_tool .* lint" "$obs_dir/err4"
rc=0; build/tools/ksplice_tool --faults=bogus build "$obs_dir/corpus/src" \
  2>/dev/null || rc=$?
test "$rc" -eq 2 || { echo "--faults=bogus exited $rc, want 2"; exit 1; }
rc=0; build/tools/ksplice_tool rollout --canary=abc --wave=0 \
  2>"$obs_dir/err5" || rc=$?
test "$rc" -eq 2 || { echo "rollout --canary=abc exited $rc, want 2"; exit 1; }
grep -q "usage: ksplice_tool .* rollout" "$obs_dir/err5"
# Out-of-range rollout values are usage errors, caught before any build.
for flag in --wave=-1 --max-in-flight=0 --canary=1.5 --abort-frac=-1; do
  rc=0; build/tools/ksplice_tool rollout "$flag" 2>"$obs_dir/err7" || rc=$?
  test "$rc" -eq 2 || { echo "rollout $flag exited $rc, want 2"; exit 1; }
  grep -q "usage: ksplice_tool .* rollout" "$obs_dir/err7"
done
rc=0; build/tools/ksplice_tool -j -3 build "$obs_dir/corpus/src" \
  2>"$obs_dir/err6" || rc=$?
test "$rc" -eq 2 || { echo "-j -3 exited $rc, want 2"; exit 1; }
grep -q "usage: ksplice_tool .* build" "$obs_dir/err6"
rc=0; build/tools/ksplice_tool inspect "$obs_dir/no-such.kspl" \
  2>/dev/null || rc=$?
test "$rc" -eq 1 || { echo "inspect missing file exited $rc, want 1"; exit 1; }

# Fleet rollout smoke: a clean 8-node rollout must patch every non-stale
# node and exit 0; a drill with a doomed canary must trip the canary wave,
# roll every patched node back, and exit 1 — and the report JSON must say
# so (aborted, zero nodes left patched). A rollout with stale nodes must
# still parse: their errors carry run-pre's multi-line refusal.
echo "== ksplice_tool fleet rollout smoke =="
build/tools/ksplice_tool rollout --nodes=8 --wave=4 --max-in-flight=4 \
  --json="$obs_dir/rollout-clean.json"
build/tools/ksplice_tool rollout --nodes=8 --lint=off \
  --json="$obs_dir/rollout-stale.json" CVE-2005-2456
rc=0; build/tools/ksplice_tool rollout --nodes=8 --wave=4 --max-in-flight=4 \
  --canary=0.25 --doom=1 --json="$obs_dir/rollout-drill.json" || rc=$?
test "$rc" -eq 1 || { echo "doomed rollout exited $rc, want 1"; exit 1; }
python3 - "$obs_dir" <<'EOF'
import json, sys
obs_dir = sys.argv[1]
clean = json.load(open(obs_dir + "/rollout-clean.json"))
assert not clean["aborted"], clean
assert clean["failed"] == 0, clean
assert clean["patched"] + clean["skipped_stale"] == clean["fleet_size"], clean
drill = json.load(open(obs_dir + "/rollout-drill.json"))
assert drill["aborted"] and drill["tripped_wave"] == 0, drill
assert drill["patched"] == 0, f"nodes left patched after abort: {drill}"
assert drill["failed"] == 1 and drill["rolled_back"] == 1, drill
outcomes = {n["node"]: n["outcome"] for n in drill["nodes"]}
assert outcomes["node-000"] == "failed", outcomes
stale = json.load(open(obs_dir + "/rollout-stale.json"))
assert stale["skipped_stale"] > 0 and stale["failed"] == 0, stale
print("fleet rollout JSON OK:", clean["patched"], "patched clean;",
      "drill aborted at wave", drill["tripped_wave"], "with",
      drill["rolled_back"], "rolled back;", stale["skipped_stale"],
      "stale skipped")
EOF

# Watchdog safety-net smoke: a bad patch (BUG() armed in the replacement
# code) applies cleanly, then `apply --watch` must catch the regression
# under the spawned workload, auto-revert, quarantine, and exit 1; the
# same watched apply of a good patch must soak clean and exit 0; a
# soak-enabled fleet rollout of a healthy package must also exit 0.
echo "== watchdog safety-net smoke =="
mkdir -p "$obs_dir/watch/src/kern"
cat >"$obs_dir/watch/src/kern/watch.kc" <<'EOF'
int watch_state = 100;
int watch_guard = 9999;
int watch_op(int x) {
  int a = x + 1; int b = a + 2; int c = b + 3; int d = c + 4;
  if (x == watch_guard) {
    BUG();
  }
  return a + b + c + d + watch_state;
}
void watch_load(int n) {
  int i = n;
  while (i < 64) {
    record(11, watch_op(i));
    i = i + 1;
  }
}
EOF
python3 - "$obs_dir" <<'EOF'
import difflib, pathlib, sys
obs = pathlib.Path(sys.argv[1])
pre = (obs / "watch/src/kern/watch.kc").read_text().splitlines(keepends=True)
bad = [l.replace("x == watch_guard", "x >= 0") for l in pre]
good = [l.replace("int a = x + 1;", "int a = x + 10;") for l in pre]
assert bad != pre and good != pre, "patch anchors not found"
for name, post in (("bad", bad), ("good", good)):
    (obs / f"watch/{name}.patch").write_text("".join(difflib.unified_diff(
        pre, post, fromfile="a/kern/watch.kc", tofile="b/kern/watch.kc")))
EOF
build/tools/ksplice_tool create "$obs_dir/watch/src" \
  "$obs_dir/watch/bad.patch" "$obs_dir/watch/bad.kspl"
build/tools/ksplice_tool create "$obs_dir/watch/src" \
  "$obs_dir/watch/good.patch" "$obs_dir/watch/good.kspl"
rc=0; build/tools/ksplice_tool apply --watch --watch-entry=watch_load \
  "$obs_dir/watch/src" "$obs_dir/watch/bad.kspl" \
  >"$obs_dir/watch/bad.out" 2>&1 || rc=$?
test "$rc" -eq 1 || { echo "watched bad apply exited $rc, want 1"; exit 1; }
grep -q "watchdog: auto-revert" "$obs_dir/watch/bad.out"
grep -q "quarantined hash" "$obs_dir/watch/bad.out"
grep -q "0 update(s) applied" "$obs_dir/watch/bad.out"
build/tools/ksplice_tool apply --watch --watch-entry=watch_load \
  "$obs_dir/watch/src" "$obs_dir/watch/good.kspl" >"$obs_dir/watch/good.out"
grep -q "0 attributed" "$obs_dir/watch/good.out"
build/tools/ksplice_tool rollout --nodes=4 --wave=2 --max-in-flight=2 \
  --soak --json="$obs_dir/watch/rollout-soak.json"
python3 - "$obs_dir" <<'EOF'
import json, sys
report = json.load(open(sys.argv[1] + "/watch/rollout-soak.json"))
assert not report["aborted"] and report["auto_reverted"] == 0, report
assert report["blacklisted"] == [], report
print("watchdog smoke OK: bad patch auto-reverted + quarantined,",
      "good patch soaked clean,", report["patched"], "nodes soaked in fleet")
EOF

# Date-drift smoke: build a tiny kernel embedding __DATE__/__TIME__ and a
# try_load exception-table entry, then create the update with a DIFFERENT
# build timestamp. Byte-wise matching would refuse (the .rodata.date bytes
# differ); the structural matcher's content-ignoring date/time howto must
# apply it, and --metrics must show the per-howto counters.
echo "== date-drift structural matching smoke =="
mkdir -p "$obs_dir/drift/src/kern"
cat >"$obs_dir/drift/src/kern/banner.kc" <<'EOF'
int stamp_len = 0;
char *banner(int x) {
  stamp_len = x;
  return __DATE__;
}
int guarded(int p) {
  return try_load(p, 4095);
}
EOF
python3 - "$obs_dir" <<'EOF'
import difflib, pathlib, sys
obs = pathlib.Path(sys.argv[1])
pre = (obs / "drift/src/kern/banner.kc").read_text().splitlines(keepends=True)
post = [l.replace("stamp_len = x;", "stamp_len = x + 1;") for l in pre]
assert post != pre, "patch anchor not found"
(obs / "drift/banner.patch").write_text("".join(difflib.unified_diff(
    pre, post, fromfile="a/kern/banner.kc", tofile="b/kern/banner.kc")))
EOF
build/tools/ksplice_tool --build-date "Mar  3 2026" --build-time "09:41:00" \
  create "$obs_dir/drift/src" "$obs_dir/drift/banner.patch" \
  "$obs_dir/drift/drift.kspl"
build/tools/ksplice_tool --metrics="$obs_dir/drift-metrics.json" \
  apply "$obs_dir/drift/src" "$obs_dir/drift/drift.kspl"
python3 - "$obs_dir" <<'EOF'
import json, sys
metrics = json.load(open(sys.argv[1] + "/drift-metrics.json"))
counters = metrics["counters"]
assert counters.get("runpre.howto.date_time_sections_matched", 0) > 0, \
    f"date/time howto never matched content-ignoring: {counters}"
assert counters.get("ksplice.applies", 0) > 0, counters
print("date-drift smoke OK:",
      counters["runpre.howto.date_time_sections_matched"],
      "date/time section(s) matched content-ignoring;",
      counters.get("runpre.howto.extable_sections_matched", 0),
      "extable section(s) matched structurally")
EOF

echo "ALL CHECKS PASSED"
