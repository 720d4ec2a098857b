#!/usr/bin/env bash
# Cache-miss harness for the Algorithm 1 DP kernels (DESIGN.md §8): runs
# FPTAS winner determination (one frontier sweep per subproblem) under
# `perf stat` once per kernel — the production columns kernel
# (single_task::solve_fptas) vs the oracle library's paper-literal scalar
# kernel (oracle::solve_fptas) — on the same instance, so the wall-clock
# speedup recorded in bench/results/memory_scaling.json can be read next to
# the LLC-miss reduction that produces it.
#
# Usage: scripts/perf_cachemiss.sh [BUILD_DIR] [N] [REPS]
#   BUILD_DIR  cmake build tree holding bench/memory_scaling (default: build)
#   N          instance size (default: 400 — the largest committed sweep)
#   REPS       best-of repetitions per kernel (default: 3)
#
# Degrades gracefully: on hosts without perf(1) (or without permission to
# read the hardware counters) it explains what is missing and exits 0, so CI
# and containers can run it unconditionally.
set -u

build_dir="${1:-build}"
n="${2:-400}"
reps="${3:-3}"
bin="${build_dir}/bench/memory_scaling"

if [ ! -x "${bin}" ]; then
  echo "perf_cachemiss: ${bin} not found — build it first:"
  echo "  cmake -B ${build_dir} -S . && cmake --build ${build_dir} --target memory_scaling"
  exit 0
fi

if ! command -v perf >/dev/null 2>&1; then
  echo "perf_cachemiss: perf(1) is not installed on this host — skipping the"
  echo "cache-miss measurement. The wall-clock comparison is still available:"
  echo "  ${bin} --dp-only columns ${n} ${reps}"
  echo "  ${bin} --dp-only oracle ${n} ${reps}"
  "${bin}" --dp-only columns "${n}" "${reps}"
  "${bin}" --dp-only oracle "${n}" "${reps}"
  exit 0
fi

events="cache-misses,cache-references,LLC-load-misses,LLC-loads,instructions,cycles"

# Some kernels/containers forbid hardware counters (perf_event_paranoid,
# missing PMU). Probe once and fall back to a clear message instead of a
# half-failed run.
if ! perf stat -e "${events}" -- true >/dev/null 2>&1; then
  echo "perf_cachemiss: perf cannot read hardware counters here (restricted"
  echo "perf_event_paranoid or no PMU in this container) — skipping. Re-run on"
  echo "a host with PMU access, e.g.: sudo sysctl kernel.perf_event_paranoid=1"
  exit 0
fi

for kernel in columns oracle; do
  echo "=== dp kernel: ${kernel} (n=${n}, best of ${reps}) ==="
  perf stat -e "${events}" -- "${bin}" --dp-only "${kernel}" "${n}" "${reps}"
done

echo "Compare LLC-load-misses between the two runs: the columns kernel's"
echo "contiguous (cost, contribution) lanes replace the oracle's pooled-state"
echo "indirection, which is where the wall-clock speedup comes from."
