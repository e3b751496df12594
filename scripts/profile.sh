#!/bin/sh
# Profiles one perfbench workload with gprof and prints the top of the flat
# profile:
#
#   scripts/profile.sh busy_kernel 5
#
# WORKLOAD is cve_pipeline, fleet_rollout or busy_kernel; SECONDS (default
# 3) is the run length. perfbench is built with -pg into
# .bench_build/profile and linked -static: a dynamically linked -pg binary
# attributes no time to libc or libstdc++ (memcmp, malloc, string
# formatting), so its profile silently misses part of the run. The run's
# gmon.out and report stay in .bench_build/profile/out.
set -e
cd "$(dirname "$0")/.."
if [ $# -lt 1 ] || [ $# -gt 2 ]; then
  echo "usage: scripts/profile.sh WORKLOAD [SECONDS]" >&2
  exit 2
fi
workload=$1
seconds=${2:-3}
build=.bench_build/profile
mkdir -p .bench_build/tmp "$build/out"
export TMPDIR="$PWD/.bench_build/tmp"
cmake -S perfbench -B "$build" -G Ninja -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DCMAKE_CXX_FLAGS=-pg "-DCMAKE_EXE_LINKER_FLAGS=-pg -static" >&2
cmake --build "$build" --target lifecycle_bench >&2
# gprof writes gmon.out into the working directory.
(cd "$build/out" &&
  ../lifecycle_bench --workload "$workload" --seed 1 --seconds "$seconds" \
    --trace 0 --report-out report.json >/dev/null)
gprof -b -p "$build/lifecycle_bench" "$build/out/gmon.out" | head -n 25
