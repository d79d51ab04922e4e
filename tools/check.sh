#!/usr/bin/env bash
# Concurrency-correctness driver: clang-tidy (when available) plus the
# sanitizer build/test matrices.  See docs/STATIC_ANALYSIS.md.
#
#   tools/check.sh            # everything
#   tools/check.sh tidy       # clang-tidy only
#   tools/check.sh asan       # AddressSanitizer+UBSan build, full ctest
#   tools/check.sh tsan       # ThreadSanitizer build, ctest -L tsan
#   tools/check.sh fault      # full fault matrix (-L fault) under both
#                             # sanitizers; see docs/TESTING.md
#   tools/check.sh recovery   # supervisor crash-recovery suite plus the
#                             # quick kill cells under both sanitizers;
#                             # see docs/RECOVERY.md
#   tools/check.sh cache      # client-cache coherence lane: cache_test
#                             # plus the cache fault/recovery cells under
#                             # both sanitizers; see docs/CACHING.md
#   tools/check.sh obs        # observability suite (-L obs) under ASan,
#                             # obs_test under TSan, plus the
#                             # bench_obs_overhead <5% regression gate;
#                             # see docs/OBSERVABILITY.md
#   tools/check.sh analyze    # repo-aware lints (tools/analyze/afs_lint.py):
#                             # nonblocking contexts, swallowed Status,
#                             # registry/doc cross-checks, guarded members;
#                             # fails on findings not in the baseline
#   tools/check.sh bench-smoke  # short Figure-6 + event-loop benchmark
#                             # pass, results combined into the untracked
#                             # build/bench-smoke.json;
#                             # fails if the obs <5% overhead gate, the
#                             # 10k-handle saturation gate, the shm-vs-
#                             # pipe >=2x throughput gate, the overload
#                             # column's gates, or the cache-hit <=1.5x
#                             # passive-read gate regress
#   tools/check.sh soak       # long-run overload lane (docs/OVERLOAD.md):
#                             # the optimized overload bench with its
#                             # gates, then the full fault matrix — which
#                             # includes the saturation suite — under TSan
#
# The fault lane reuses the asan/tsan build trees and is not part of the
# default quick suite: the full {strategy x site x kind} sweep spends real
# wall-clock on injected delays, so it runs when asked (or in CI's long
# lane), while the quick sweep of the same matrix stays in plain ctest.
#
# Clang-only stages (clang-tidy, -Wthread-safety) are skipped with a notice
# when the tools are not installed; the sanitizer lanes work with GCC.
set -euo pipefail

cd "$(dirname "$0")/.."
JOBS=${JOBS:-$(nproc)}
STAGE=${1:-all}

run_tidy() {
  if ! command -v clang-tidy >/dev/null 2>&1; then
    echo "== tidy: clang-tidy not found; skipping (install LLVM to enable)"
    return 0
  fi
  echo "== tidy: generating compile commands"
  cmake -B build-tidy -S . -DCMAKE_EXPORT_COMPILE_COMMANDS=ON >/dev/null
  echo "== tidy: running clang-tidy over src/"
  find src -name '*.cpp' -print0 |
    xargs -0 -P "$JOBS" -n 8 clang-tidy -p build-tidy --quiet
  echo "== tidy: clean"
}

run_sanitizer() {
  local name=$1 sanitize=$2 ctest_args=$3
  local dir="build-$name"
  echo "== $name: configuring ($sanitize)"
  cmake -B "$dir" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DAFS_SANITIZE="$sanitize" -DAFS_DEADLOCK_DEBUG=ON >/dev/null
  echo "== $name: building"
  cmake --build "$dir" -j "$JOBS" >/dev/null
  echo "== $name: testing ($ctest_args)"
  # shellcheck disable=SC2086  # ctest_args is intentionally word-split
  (cd "$dir" && ctest --output-on-failure -j "$JOBS" $ctest_args)
  echo "== $name: clean"
}

run_fault() {
  local lane sanitize dir
  for lane in asan tsan; do
    if [ "$lane" = asan ]; then
      sanitize="address;undefined"
    else
      sanitize="thread"
    fi
    dir="build-$lane"
    echo "== fault/$lane: configuring ($sanitize)"
    cmake -B "$dir" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
      -DAFS_SANITIZE="$sanitize" -DAFS_DEADLOCK_DEBUG=ON >/dev/null
    echo "== fault/$lane: building"
    cmake --build "$dir" -j "$JOBS" >/dev/null
    echo "== fault/$lane: full matrix (AFS_FAULT_MATRIX=full ctest -L fault)"
    (cd "$dir" && AFS_FAULT_MATRIX=full ctest --output-on-failure -L fault)
  done
  echo "== fault: clean"
}

run_recovery() {
  # The supervisor's crash matrix: SIGKILL cells that must end byte-identical
  # (recovery_test) plus the quick fault-matrix sweep's kill cells and the
  # shm ring conformance/fault suite, under both sanitizers.  Process
  # teardown, restart storms, and cross-process ring handoff are exactly
  # where ASan/TSan find lifetime and ordering bugs the plain build hides.
  local lane sanitize dir
  for lane in asan tsan; do
    if [ "$lane" = asan ]; then
      sanitize="address;undefined"
    else
      sanitize="thread"
    fi
    dir="build-$lane"
    echo "== recovery/$lane: configuring ($sanitize)"
    cmake -B "$dir" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
      -DAFS_SANITIZE="$sanitize" -DAFS_DEADLOCK_DEBUG=ON >/dev/null
    echo "== recovery/$lane: building"
    cmake --build "$dir" -j "$JOBS" >/dev/null
    echo "== recovery/$lane: crash suite (AFS_FAULT_MATRIX=quick)"
    (cd "$dir" &&
      AFS_FAULT_MATRIX=quick ctest --output-on-failure \
        -R 'recovery_test|fault_matrix_test|shm_ring_test')
  done
  echo "== recovery: clean"
}

run_cache() {
  # Client-cache coherence lane (docs/CACHING.md): the seeded lease
  # property suite (cache_test) under both sanitizers, plus the cache
  # fault-matrix cells and the crash-recovery cells — the write-behind
  # flush races the lease channel and the recall path, which is exactly
  # the surface TSan watches, and the kill cells are ASan territory.
  local lane sanitize dir
  for lane in asan tsan; do
    if [ "$lane" = asan ]; then
      sanitize="address;undefined"
    else
      sanitize="thread"
    fi
    dir="build-$lane"
    echo "== cache/$lane: configuring ($sanitize)"
    cmake -B "$dir" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
      -DAFS_SANITIZE="$sanitize" -DAFS_DEADLOCK_DEBUG=ON >/dev/null
    echo "== cache/$lane: building"
    cmake --build "$dir" -j "$JOBS" \
      --target cache_test fault_matrix_test recovery_test >/dev/null
    echo "== cache/$lane: coherence suite"
    (cd "$dir" && ctest --output-on-failure -R cache_test)
    echo "== cache/$lane: fault + recovery cells (AFS_FAULT_MATRIX=quick)"
    AFS_FAULT_MATRIX=quick "$dir"/tests/fault_matrix_test \
      --gtest_filter='CacheFaultMatrixTest.*'
    AFS_FAULT_MATRIX=quick "$dir"/tests/recovery_test \
      --gtest_filter='CacheRecoveryTest.*'
  done
  echo "== cache: clean"
}

run_obs() {
  # Observability lane: the obs-labelled suites (obs_test, trace_test)
  # under ASan+UBSan, the lock-free hammer (obs_test) under TSan — the
  # trace suite forks stream sentinels whose pump threads TSan cannot
  # follow — and the hand-timed <5% overhead gate on an optimized build.
  run_sanitizer asan "address;undefined" "-L obs"
  run_sanitizer tsan "thread" "-R obs_test"
  echo "== obs: building overhead gate (optimized)"
  cmake -B build -S . >/dev/null
  cmake --build build -j "$JOBS" --target bench_obs_overhead >/dev/null
  echo "== obs: bench_obs_overhead (<5% budget)"
  ./build/bench/bench_obs_overhead
  echo "== obs: clean"
}

run_analyze() {
  # Repo-aware static analysis (docs/STATIC_ANALYSIS.md): afs_lint's four
  # checks over the compile_commands.json TU list.  Exit is nonzero on any
  # finding not recorded (with a justification) in tools/analyze/baseline.json.
  echo "== analyze: generating compile commands"
  cmake -B build -S . >/dev/null
  echo "== analyze: running afs_lint"
  python3 tools/analyze/afs_lint.py --compdb build/compile_commands.json
  echo "== analyze: clean"
}

run_soak() {
  # Long-run overload soak (docs/OVERLOAD.md): the overload column of
  # bench_saturation on an optimized build — its own exit gates enforce
  # the shed/hint/p99/drain contract — then the full fault matrix under
  # TSan.  overload_test carries the fault label, so the TSan sweep runs
  # the saturation churn with injected faults: exactly where admission
  # release races and teardown leaks hide.
  echo "== soak: building optimized bench"
  cmake -B build -S . >/dev/null
  cmake --build build -j "$JOBS" --target bench_saturation >/dev/null
  echo "== soak: overload bench (shed + brownout columns, gated)"
  AFS_BENCH_SATURATION=overload ./build/bench/bench_saturation \
    >/tmp/afs-soak-overload.json
  echo "== soak: configuring TSan build"
  cmake -B build-tsan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DAFS_SANITIZE="thread" -DAFS_DEADLOCK_DEBUG=ON >/dev/null
  echo "== soak: building"
  cmake --build build-tsan -j "$JOBS" >/dev/null
  echo "== soak: cache coherence cells under TSan (AFS_FAULT_MATRIX=quick)"
  AFS_FAULT_MATRIX=quick build-tsan/tests/fault_matrix_test \
    --gtest_filter='CacheFaultMatrixTest.*'
  echo "== soak: full fault matrix under TSan (AFS_FAULT_MATRIX=full)"
  (cd build-tsan && AFS_FAULT_MATRIX=full ctest --output-on-failure -L fault)
  echo "== soak: clean"
}

run_bench_smoke() {
  # Short pass over the paper's Figure-6 benchmarks plus the event-loop
  # lane (open/close churn, the 10k-handle saturation sweep), the obs
  # overhead gate, and the overload column, combined into the untracked
  # build/bench-smoke.json (committed BENCH_PR*.json files are the history
  # it is compared against, never overwritten here).
  # Smoke numbers, not publishable ones: --benchmark_min_time is
  # deliberately tiny.  Five gates exit nonzero on regression: obs <5%,
  # saturation >= 10k handles, the shm data plane carrying >=2x the pipe
  # lane's throughput on the vectored 64 KiB batches
  # (docs/SHM_DATA_PLANE.md), the overload contract (sheds carry
  # hints, admitted p99 within gate, queue bytes drain; docs/OVERLOAD.md),
  # and the client cache serving hits within 1.5x of a passive ReadFile
  # (docs/CACHING.md).
  local out=build/bench-smoke.json bench
  echo "== bench-smoke: building benchmarks"
  cmake -B build -S . >/dev/null
  cmake --build build -j "$JOBS" --target \
    bench_fig6_disk bench_fig6_memory bench_fig6_remote \
    bench_loop_churn bench_saturation bench_obs_overhead >/dev/null
  echo "== bench-smoke: running Figure-6 + churn benchmarks"
  for bench in fig6_disk fig6_memory fig6_remote loop_churn; do
    ./build/bench/"bench_$bench" --benchmark_min_time=0.05s \
      --benchmark_format=json >"/tmp/afs-bench-$bench.json"
  done
  echo "== bench-smoke: running saturation sweep (quick gate: 10k handles)"
  ./build/bench/bench_saturation >/tmp/afs-bench-saturation.json
  echo "== bench-smoke: running overload column (gated; docs/OVERLOAD.md)"
  AFS_BENCH_SATURATION=overload ./build/bench/bench_saturation \
    >/tmp/afs-bench-overload.json
  echo "== bench-smoke: running obs overhead gate"
  ./build/bench/bench_obs_overhead >/tmp/afs-bench-obs.json
  python3 - "$out" <<'EOF'
import json, sys
combined = {"bench_min_time": "0.05s", "benchmarks": {}}
for name in ("fig6_disk", "fig6_memory", "fig6_remote", "loop_churn"):
    with open(f"/tmp/afs-bench-{name}.json") as f:
        report = json.load(f)
    combined["benchmarks"][name] = [
        {k: b[k] for k in ("name", "real_time", "cpu_time", "time_unit",
                           "bytes_per_second", "items_per_second")
         if k in b}
        for b in report.get("benchmarks", [])
    ]
with open("/tmp/afs-bench-saturation.json") as f:
    combined["saturation"] = json.load(f)
with open("/tmp/afs-bench-overload.json") as f:
    combined["overload"] = json.load(f)
with open("/tmp/afs-bench-obs.json") as f:
    combined["obs_overhead"] = json.load(f)

# Shm-vs-pipe gate: the ring must carry at least 2x the pipe lane's
# throughput on the vectored 64 KiB batches (8 x 8 KiB per round trip) —
# the series where the per-command frame is amortized and the payload
# bytes are what's measured.  The single-op 64 KiB column rides along as
# data but is not gated: on small hosts (this container has one CPU) the
# mandatory scheduler wakeup per round trip dominates a single op and
# compresses the ratio to ~1.4x regardless of how the payload travels.
def plane_time(series, label):
    suffix = f"{series}/{label}/8192"
    for b in combined["benchmarks"]["fig6_memory"]:
        if suffix in b["name"]:
            return b["real_time"]
    raise SystemExit(f"bench-smoke: missing {suffix} in fig6_memory output")

gate = {}
for series in ("Fig6c/ReadVec8", "Fig6c/WriteVec8"):
    shm = plane_time(series, "ProcessShm")
    pipe = plane_time(series, "ProcessPipe")
    gate[series] = {"shm_us": shm, "pipe_us": pipe,
                    "speedup": round(pipe / shm, 2)}
combined["shm_gate"] = gate
bad = [s for s, g in gate.items() if g["speedup"] < 2.0]
if bad:
    for s in bad:
        print(f"bench-smoke: FAIL shm>=2x pipe gate on {s}: "
              f"{gate[s]['speedup']}x", file=sys.stderr)
    raise SystemExit(1)
for s, g in gate.items():
    print(f"bench-smoke: shm gate {s}: {g['speedup']}x (>=2x required)")

# Client-cache gate (docs/CACHING.md): a lease-checked cache hit must stay
# within 1.5x of a passive ReadFile at the 2048-byte block size — the
# memcpy-dominated column where both sides are past their fixed costs.
# The miss-vs-uncached ratio at the one-block stride rides along as data.
def remote_time(label, arg):
    suffix = f"Fig6a/Read/{label}/{arg}"
    for b in combined["benchmarks"]["fig6_remote"]:
        if suffix in b["name"]:
            return b["real_time"]
    raise SystemExit(f"bench-smoke: missing {suffix} in fig6_remote output")

hit = remote_time("CacheHit", 2048)
passive = remote_time("Passive", 2048)
miss = remote_time("CacheMiss", 4096)
uncached = remote_time("Uncached", 4096)
combined["cache_gate"] = {
    "hit_us": hit, "passive_us": passive,
    "hit_vs_passive": round(hit / passive, 2),
    "miss_us": miss, "uncached_us": uncached,
    "miss_vs_uncached": round(miss / uncached, 2),
}
if hit > 1.5 * passive:
    print(f"bench-smoke: FAIL cache-hit gate: hit {hit:.2f}us vs passive "
          f"{passive:.2f}us ({hit / passive:.2f}x > 1.5x)", file=sys.stderr)
    raise SystemExit(1)
print(f"bench-smoke: cache gate hit/passive: "
      f"{combined['cache_gate']['hit_vs_passive']}x (<=1.5x required); "
      f"miss/uncached: {combined['cache_gate']['miss_vs_uncached']}x")

with open(sys.argv[1], "w") as f:
    json.dump(combined, f, indent=2)
    f.write("\n")
EOF
  echo "== bench-smoke: wrote $out"
}

# `all` runs every lane to completion — one broken lane must not mask the
# others — then prints a pass/fail table and exits nonzero if any failed.
LANE_NAMES=()
LANE_RESULTS=()
ANY_FAILED=0

run_lane() {
  local name=$1 rc=0
  shift
  # The subshell re-arms `set -e` so a lane still stops at its first error,
  # while the driver survives to run the remaining lanes.
  set +e
  (
    set -e
    "$@"
  )
  rc=$?
  set -e
  LANE_NAMES+=("$name")
  if [ "$rc" -eq 0 ]; then
    LANE_RESULTS+=(PASS)
  else
    LANE_RESULTS+=(FAIL)
    ANY_FAILED=1
  fi
}

case "$STAGE" in
  tidy) run_tidy ;;
  asan) run_sanitizer asan "address;undefined" "" ;;
  tsan) run_sanitizer tsan "thread" "-L tsan" ;;
  fault) run_fault ;;
  recovery) run_recovery ;;
  cache) run_cache ;;
  obs) run_obs ;;
  analyze) run_analyze ;;
  soak) run_soak ;;
  bench-smoke) run_bench_smoke ;;
  all)
    run_lane tidy run_tidy
    run_lane analyze run_analyze
    run_lane asan run_sanitizer asan "address;undefined" ""
    run_lane tsan run_sanitizer tsan "thread" "-L tsan"
    run_lane fault run_fault
    run_lane recovery run_recovery
    run_lane cache run_cache
    run_lane obs run_obs
    echo
    echo "== lane summary"
    printf '   %-10s %s\n' LANE RESULT
    for i in "${!LANE_NAMES[@]}"; do
      printf '   %-10s %s\n' "${LANE_NAMES[$i]}" "${LANE_RESULTS[$i]}"
    done
    exit "$ANY_FAILED"
    ;;
  *)
    echo "usage: tools/check.sh [tidy|asan|tsan|fault|recovery|obs|analyze|soak|bench-smoke|all]" >&2
    exit 2
    ;;
esac
