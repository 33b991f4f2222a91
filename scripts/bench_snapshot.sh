#!/usr/bin/env bash
# Regenerates the repo's perf-trajectory artifacts: runs every micro
# bench that declares a JSON name (MPID_BENCHMARK_MAIN_JSON) and writes
# canonical BENCH_<name>.json files at the repo root.
#
# This is the one supported way to refresh the repo-root snapshots.
# Running a bench by hand from some other directory drops its JSON
# wherever the cwd happens to be — which is exactly how the local
# set drifted from the benches that exist (micro_shuffle_pipeline gained
# a JSON name without its snapshot ever landing). The script passes
# --benchmark_out explicitly so the artifact always lands at the root,
# regardless of cwd, and fails if any declared bench is missing.
#
# Usage:
#   scripts/bench_snapshot.sh [build-dir]          refresh all snapshots
#   scripts/bench_snapshot.sh --check [build-dir]  regression gate
#
# --check reruns the two end-to-end micro benches whose hot paths the
# shuffle engine owns (micro_mpid, micro_kvtable) into a temp dir and
# diffs each benchmark's real_time against the committed BENCH_*.json
# baseline, failing on any >10% slowdown. The fresh run uses several
# repetitions and compares the per-benchmark MINIMUM — a single pass
# swings well past 10% on a busy machine, while the min is what the
# code can actually do. Meant for a local machine comparable to the
# one that produced the baselines — CI runners are too noisy to gate
# on wall-clock ratios (see ci.yml).
set -euo pipefail
cd "$(dirname "$0")/.."

MODE=snapshot
if [[ "${1:-}" == "--check" ]]; then
  MODE=check
  shift
fi
BUILD_DIR=${1:-build}

# The canonical list: keep in sync with MPID_BENCHMARK_MAIN_JSON uses.
BENCHES=(micro_mpid micro_shuffle_pipeline micro_kvtable micro_codec micro_threads micro_spill)
# Table benches that write their BENCH_<name>.json themselves (to cwd,
# which is the repo root here) and gate on their own exit code.
TABLE_BENCHES=(ext_node_agg ext_coded_shuffle ext_graph)
# The regression-gated subset: shuffle-engine hot paths, end to end.
CHECK_BENCHES=(micro_mpid micro_kvtable)
CHECK_TOLERANCE=1.10  # fail on >10% real_time regression
CHECK_REPETITIONS=5   # fresh run: best-of-N vs the baseline

run_bench() {
  local name=$1 out=$2
  shift 2
  local bin="$BUILD_DIR/bench/$name"
  if [[ ! -x "$bin" ]]; then
    echo "bench_snapshot: missing $bin" >&2
    exit 1
  fi
  echo "=== $name -> $out ==="
  "$bin" --benchmark_out="$out" --benchmark_out_format=json "$@"
}

if [[ "$MODE" == snapshot ]]; then
  cmake --build "$BUILD_DIR" --target "${BENCHES[@]}" "${TABLE_BENCHES[@]}" -j
  for name in "${BENCHES[@]}"; do
    run_bench "$name" "BENCH_$name.json"
  done
  for name in "${TABLE_BENCHES[@]}"; do
    echo "=== $name -> BENCH_$name.json ==="
    "$BUILD_DIR/bench/$name"
  done
  echo "Snapshot complete: ${BENCHES[*]/#/BENCH_} ${TABLE_BENCHES[*]/#/BENCH_}"
  exit 0
fi

# --check: fresh run vs committed baseline.
cmake --build "$BUILD_DIR" --target "${CHECK_BENCHES[@]}" -j
TMP_DIR=$(mktemp -d)
trap 'rm -rf "$TMP_DIR"' EXIT
fail=0
for name in "${CHECK_BENCHES[@]}"; do
  baseline="BENCH_$name.json"
  if [[ ! -f "$baseline" ]]; then
    echo "bench_snapshot --check: no baseline $baseline (run the snapshot mode first)" >&2
    exit 1
  fi
  run_bench "$name" "$TMP_DIR/$name.json" \
    "--benchmark_repetitions=$CHECK_REPETITIONS"
  python3 - "$baseline" "$TMP_DIR/$name.json" "$CHECK_TOLERANCE" <<'PY' || fail=1
import json, sys

baseline_path, fresh_path, tolerance = sys.argv[1], sys.argv[2], float(sys.argv[3])

units = {}  # name -> the row's own time_unit (ns, us, ms or s)

def times(path):
    """name -> min real_time over the run's repetitions."""
    with open(path) as f:
        doc = json.load(f)
    out = {}
    for b in doc.get("benchmarks", []):
        if b.get("run_type", "iteration") != "iteration":
            continue  # skip mean/median/stddev aggregate rows
        t = b["real_time"]
        name = b["name"]
        out[name] = min(out.get(name, t), t)
        units[name] = b.get("time_unit", "ns")
    return out

base, fresh = times(baseline_path), times(fresh_path)
regressions = []
for name, t in sorted(fresh.items()):
    ref = base.get(name)
    if ref is None or ref <= 0:
        print(f"  (new, no baseline) {name}")
        continue
    ratio = t / ref
    marker = "REGRESSION" if ratio > tolerance else "ok"
    print(f"  {marker:>10}  {name}: {ref:.1f} -> {t:.1f} {units[name]} "
          f"({ratio:.2f}x)")
    if ratio > tolerance:
        regressions.append(name)
missing = sorted(set(base) - set(fresh))
for name in missing:
    print(f"  MISSING: baseline benchmark {name} did not run")
if regressions or missing:
    print(f"{baseline_path}: {len(regressions)} regression(s), "
          f"{len(missing)} missing", file=sys.stderr)
    sys.exit(1)
PY
done
if [[ $fail -ne 0 ]]; then
  echo "bench_snapshot --check: FAILED (>10% regression vs committed baseline)" >&2
  exit 1
fi
echo "bench_snapshot --check: OK (within 10% of committed baselines)"
