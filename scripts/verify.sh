#!/usr/bin/env bash
# Tier-1 verification: plain build (warnings are errors) + tests, every
# checked-in result file reproduced byte for byte (abl_large_n: the
# deterministic columns of its n=5000 rows), the perfbench seed-1 pins,
# perfbench's own unit tests and those of scripts/perfbench_pairs.py's
# acceptance rule, then the same suite under ASan/UBSan
# (second build dir, registered as the "sanitize" configuration), a JSON
# export smoke, and the threaded tests under TSan (third build dir).
#
# Usage: scripts/verify.sh [--with-bench] [--large-n-smoke]
#   --with-bench     additionally run the engine benchmark suite and refresh
#                    bench_results/BENCH_engine.json (plain build only; never
#                    benchmark a sanitized binary).
#   --large-n-smoke  additionally run one n=100k SSAF serial row through
#                    abl_large_n with an RSS budget assertion — proves the
#                    bulk-construction / CSR-index path stays within its
#                    memory envelope without waiting out the full sweep.
#
# Every run (with or without --with-bench) executes the bench suite once
# and gates it against the checked-in baseline via scripts/check_bench.py:
# a time or allocation regression beyond the tolerance band fails verify.
# The gate runs after every other stage (before the --with-bench refresh),
# so a failing gate does not keep the sanitizer, export and TSan stages
# from running.
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="$(nproc)"
WITH_BENCH=0
LARGE_N_SMOKE=0
for arg in "$@"; do
  case "$arg" in
    --with-bench) WITH_BENCH=1 ;;
    --large-n-smoke) LARGE_N_SMOKE=1 ;;
    *) echo "unknown flag: $arg" >&2; exit 2 ;;
  esac
done

echo "== header self-containment =="
# Every header must compile standalone (no hidden include-order coupling).
CXX_BIN="${CXX:-c++}"
find src -name '*.hpp' -print0 | sort -z | \
  xargs -0 -P "$JOBS" -I{} "$CXX_BIN" -std=c++20 -fsyntax-only -I src \
    -include {} -x c++ /dev/null || {
      echo "header self-containment check failed" >&2; exit 1; }

# Temporary space for the bench output, the reproduced results and the
# exported run report; removed on exit.
WORK="$(mktemp -d /tmp/rrnet_verify.XXXXXX)"
trap 'rm -rf "$WORK"' EXIT

echo "== plain build (-Werror) + ctest =="
cmake -B build -S . -DCMAKE_CXX_FLAGS=-Werror >/dev/null
cmake --build build -j "$JOBS"
ctest --test-dir build --output-on-failure -j "$JOBS"

echo "== result files reproduce =="
# Every checked-in figure and ablation CSV, and the Fig. 2 congestion maps,
# must come out of the current binaries byte for byte. abl_large_n is left
# out: its CSV carries wall-clock and RSS columns. The binaries write into
# their working directory, so they run in a temporary one.
REPRO_DIR="$WORK/repro"
mkdir -p "$REPRO_DIR"
run_in_repro() {
  local name="$1" binary="$2"
  if ! (cd "$REPRO_DIR" && "$binary" >"$name.log" 2>&1); then
    cat "$REPRO_DIR/$name.log" >&2
    echo "$name failed" >&2; exit 1
  fi
}
for csv in bench_results/*.csv; do
  name="$(basename "$csv" .csv)"
  [[ "$name" == abl_large_n ]] && continue
  run_in_repro "$name" "$PWD/build/bench/$name"
done
run_in_repro congestion_map "$PWD/build/examples/congestion_map"
for expected in bench_results/*.csv bench_results/*.pgm; do
  name="$(basename "$expected")"
  [[ "$name" == abl_large_n.csv ]] && continue
  cmp "$expected" "$REPRO_DIR/$name" || {
    echo "$name no longer reproduces $expected" >&2; exit 1; }
done
echo "result files reproduce byte for byte"

echo "== abl_large_n n=5000 rows reproduce =="
# abl_large_n.csv also carries wall-clock and RSS columns, so only the
# deterministic ones are compared: nodes, proto, events, delivery, delay_s
# and mac_pkts. At n = 5000 the per-sender receiver lists outgrow their
# byte budget, so this runs both the stored and the rebuilt-per-frame
# path, and the ssaf_rayleigh row is the one stochastic model at scale
# (~30 s).
LARGE_DIR="$WORK/large_n"
mkdir -p "$LARGE_DIR"
if ! (cd "$LARGE_DIR" && "$OLDPWD/build/bench/abl_large_n" --nodes 5000 \
        --progress false >run.log 2>&1); then
  cat "$LARGE_DIR/run.log" >&2
  echo "abl_large_n --nodes 5000 failed" >&2; exit 1
fi
grep '^5000\.' bench_results/abl_large_n.csv | cut -d, -f1,2,4,9,10,11 \
  >"$LARGE_DIR/want.csv"
grep '^5000\.' "$LARGE_DIR/abl_large_n.csv" | cut -d, -f1,2,4,9,10,11 \
  >"$LARGE_DIR/got.csv"
[[ -s "$LARGE_DIR/want.csv" ]] || { echo "no n=5000 rows checked in" >&2; exit 1; }
diff "$LARGE_DIR/want.csv" "$LARGE_DIR/got.csv" || {
  echo "abl_large_n n=5000 rows no longer reproduce" >&2; exit 1; }
echo "abl_large_n n=5000 rows reproduce"

echo "== perfbench pins (seed 1, traced) =="
# Bit-identity on the benchmark workloads: run.py checks every simulation
# and compares seed 1's first input with perfbench/pinned.json; its last
# stdout line must report "correct": true and "failed": 0.
for workload in flood_n100k rr_fig4 sweep_fig4; do
  if ! line="$(python3 perfbench/run.py --workload "$workload" --seed 1 \
                 --seconds 1 --trace 1 | tail -n 1)"; then
    echo "perfbench $workload did not run" >&2; exit 1
  fi
  python3 -c 'import json, sys
r = json.loads(sys.argv[1])
sys.exit(0 if r.get("correct") is True and r.get("failed") == 0 else 1)' \
    "$line" || { echo "perfbench $workload: $line" >&2; exit 1; }
  echo "perfbench $workload: pins hold, 0 failed"
done

echo "== perfbench unit tests =="
python3 -m unittest discover -s perfbench -p 'test_*.py'
# The paired A/B script's acceptance rule, on synthetic runs (no build).
python3 -m unittest discover -s scripts -p 'test_*.py'

if [[ "$LARGE_N_SMOKE" == 1 ]]; then
  echo "== large-n smoke (n=100k SSAF serial, RSS budget) =="
  # Budget: the n=100k SSAF row peaks around 1.1 GiB (node stacks + CSR
  # index + scheduler); 2048 MiB leaves headroom for allocator noise while
  # still catching an accidental duplicated index or growth-realloc storm.
  ./build/bench/abl_large_n --nodes 100000 --proto ssaf --rss-budget-mib 2048
fi

echo "== sanitize build (address;undefined;trace) + ctest =="
# Tracing is compiled IN here so the sanitizers sweep the tracer hot path
# and the trace-gated test assertions run at least once per verify.
cmake -B build-sanitize -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
      -DRRNET_TRACE=ON \
      "-DRRNET_SANITIZE=address;undefined" >/dev/null
cmake --build build-sanitize -j "$JOBS"
ASAN_OPTIONS=detect_leaks=1 UBSAN_OPTIONS=print_stacktrace=1 \
  ctest --test-dir build-sanitize --output-on-failure -j "$JOBS"

echo "== profiled run export (report.json + trace.json) =="
# The sanitize build has RRNET_TRACE=ON, so this short serial run captures
# real packet-lifecycle and handler-span records; both artifacts must be
# valid JSON.
./build-sanitize/bench/run_profiled --scenario fig1 --sim-end 6 \
  --report "$WORK/report.json" --trace "$WORK/trace.json"
python3 -m json.tool "$WORK/report.json" >/dev/null
python3 -m json.tool "$WORK/trace.json" >/dev/null

echo "== tsan build (thread) + threaded tests =="
# ThreadSanitizer cannot be combined with ASan/UBSan, so the one thread
# pool left in the simulator — run_replications, which Sweep::run and the
# figure binaries go through — gets its own build: sim_test (Replication.*,
# Sweep.*, the worker-failure rethrow) and obs_test's thread-count
# independent replication merge.
cmake -B build-tsan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
      -DRRNET_TRACE=ON \
      "-DRRNET_SANITIZE=thread" >/dev/null
cmake --build build-tsan -j "$JOBS" --target sim_test obs_test
TSAN_OPTIONS=halt_on_error=1 ./build-tsan/tests/sim_test \
  --gtest_filter='Replication.*:Sweep.*'
TSAN_OPTIONS=halt_on_error=1 ./build-tsan/tests/obs_test \
  --gtest_filter='ObsIntegration.ReplicationMergeIsThreadCountIndependent'

echo "== bench regression gate =="
# Last of the checks: timings on a shared machine can fail it, and every
# stage above still reports first. Its verdict decides the exit status.
# The gate only means something against a tracing-free binary: the checked-in
# baseline is measured with RRNET_TRACE off, and the telemetry layer's
# zero-overhead claim is exactly that the compiled-out build costs nothing.
grep -q "RRNET_TRACE:BOOL=OFF" build/CMakeCache.txt || {
  echo "bench gate requires RRNET_TRACE=OFF in build/ (reconfigure)" >&2
  exit 1
}
FRESH_BENCH="$WORK/bench.json"
taskset -c 0 ./build/bench/run_bench_suite "$FRESH_BENCH"
python3 scripts/check_bench.py "$FRESH_BENCH"

if [[ "$WITH_BENCH" == 1 ]]; then
  echo "== engine bench suite =="
  mkdir -p bench_results
  taskset -c 0 ./build/bench/run_bench_suite bench_results/BENCH_engine.json
fi

echo "verify OK"
