#!/usr/bin/env python3
"""Compares two perfbench reports: work counters gate, wall time warns.

    python3 scripts/bench_compare.py BASE NEW

BASE and NEW are perfbench reports (the .bench_out/<workload>-seed<S>-
trace<T>.json files that perfbench/run.py writes, or a committed
BENCH_<workload>.json baseline) for the same workload and seed. Work
counters count work, not time, so they do not depend on the machine, the
run length or --trace: the script exits 1 when the work-counter digest or
any single counter differs, naming each difference. Wall-time numbers do
depend on the machine, so for each end-to-end metric that BENCHMARK.json
bounds it only prints a warning, and only when NEW is worse than BASE by
more than the bound. Exits 2 on unreadable or mismatched reports.
"""

import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as err:
        print("bench_compare: cannot read %s: %s" % (path, err),
              file=sys.stderr)
        sys.exit(2)


def counter_differences(base, new):
    """Lines describing every work-counter difference; empty when equal."""
    out = []
    base_wc, new_wc = base["work_counters"], new["work_counters"]
    if base_wc["digest"] != new_wc["digest"]:
        out.append("digest %s -> %s" % (base_wc["digest"], new_wc["digest"]))
    base_c, new_c = base_wc["counters"], new_wc["counters"]
    for name in sorted(set(base_c) | set(new_c)):
        if base_c.get(name) != new_c.get(name):
            out.append("%s: %s -> %s" % (name, base_c.get(name, "absent"),
                                         new_c.get(name, "absent")))
    return out


def wall_time_warnings(base, new):
    """Lines for each bounded end-to-end metric NEW regressed beyond."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bounds = json.load(f)["end_to_end"]
    base_m = {m["name"]: m["value"] for m in base["end_to_end"]}
    new_m = {m["name"]: m["value"] for m in new["end_to_end"]}
    out = []
    for spec in bounds:
        name = spec["name"]
        if name not in base_m or name not in new_m or base_m[name] == 0:
            continue
        change = (new_m[name] - base_m[name]) / base_m[name]
        worse = change if spec["better"] == "lower" else -change
        if worse > spec["bound"]:
            out.append("%s %.6g -> %.6g %s (%+.1f%%, bound %.0f%%)" % (
                name, base_m[name], new_m[name], spec["unit"], 100 * change,
                100 * spec["bound"]))
    return out


def main(argv):
    if len(argv) != 3:
        print("usage: bench_compare.py BASE NEW", file=sys.stderr)
        return 2
    base, new = load(argv[1]), load(argv[2])
    for key in ("workload", "seed"):
        if base.get(key) != new.get(key):
            print("bench_compare: %s differs: %s vs %s" % (
                key, base.get(key), new.get(key)), file=sys.stderr)
            return 2
    label = "%s seed %s" % (new["workload"], new["seed"])
    for line in wall_time_warnings(base, new):
        print("bench_compare: warning: %s: %s" % (label, line),
              file=sys.stderr)
    diffs = counter_differences(base, new)
    if diffs:
        print("bench_compare: %s: work counters differ from %s:" % (
            label, argv[1]), file=sys.stderr)
        for line in diffs:
            print("  " + line, file=sys.stderr)
        return 1
    print("bench_compare: %s: work counters match (digest %s)" % (
        label, new["work_counters"]["digest"]))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
