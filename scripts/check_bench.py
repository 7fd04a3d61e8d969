#!/usr/bin/env python3
"""Gate engine-bench results against the checked-in baseline.

Usage: check_bench.py FRESH.json [BASELINE.json]

Compares a fresh run_bench_suite output against the committed baseline
(bench_results/BENCH_engine.json by default) and exits nonzero when any
benchmark regresses beyond the tolerance band:

  * ns_per_event may grow at most TIME_TOLERANCE (relative) — wall-clock
    noise on shared CI boxes is real, so the band is generous; a genuine
    data-structure regression overshoots it by multiples.
  * allocs_per_event may grow at most ALLOC_TOLERANCE (absolute) — alloc
    counts are deterministic, so the band only absorbs warmup rounding.

Scenario benchmarks additionally carry a "counters" object of deterministic
per-layer counters (drops, retries, control tx, ...). Counters present on
BOTH sides must match exactly: every change keeps the simulation's outputs
bit-identical or re-pins them, so any difference is a behaviour change —
say a retry storm from a broken backoff — even if the run is not slower.
Counters on only one side are ignored, so older baselines without counters
still gate on time/allocations alone.

Benchmarks present on only one side are reported but never fail the gate,
so adding a benchmark does not require lockstep baseline updates.

REQUIRED_COUNTERS must appear in every fresh scenario benchmark (any bench
that exports counters at all). This catches a counter being silently wired
out of the metric snapshot: `phy.tx_dropped_busy` started life as exactly
such a silent drop, so its presence is now load-bearing.
"""

import json
import sys
from pathlib import Path

TIME_TOLERANCE = 0.35     # +35% ns/event before we call it a regression
# +0.01 allocs/event absolute. The per-run construction churn
# (MetricRegistry map nodes, grid vector-of-vectors, Transmission regrowth)
# is pooled/flattened, so every scenario entry sits below 0.005 and a wider
# band could hide a multi-x jump.
ALLOC_TOLERANCE = 0.01
REQUIRED_COUNTERS = ("phy.tx_dropped_busy",)


def load(path):
    with open(path) as f:
        doc = json.load(f)
    if doc.get("schema") != "rrnet-bench-engine-v1":
        sys.exit(f"{path}: unexpected schema {doc.get('schema')!r}")
    return {b["name"]: b for b in doc["benchmarks"]}


def main(argv):
    if len(argv) < 2 or len(argv) > 3:
        sys.exit(__doc__)
    fresh_path = argv[1]
    baseline_path = (
        argv[2]
        if len(argv) == 3
        else Path(__file__).resolve().parent.parent
        / "bench_results"
        / "BENCH_engine.json"
    )
    fresh = load(fresh_path)
    baseline = load(baseline_path)

    failures = []
    for name, base in sorted(baseline.items()):
        got = fresh.get(name)
        if got is None:
            print(f"  [skip] {name}: missing from fresh run")
            continue
        base_ns = base["ns_per_event"]
        got_ns = got["ns_per_event"]
        ns_limit = base_ns * (1.0 + TIME_TOLERANCE)
        base_allocs = base["allocs_per_event"]
        got_allocs = got["allocs_per_event"]
        alloc_limit = base_allocs + ALLOC_TOLERANCE
        verdict = "ok"
        if got_ns > ns_limit:
            verdict = "REGRESSION(time)"
            failures.append(
                f"{name}: {got_ns:.1f} ns/ev exceeds {base_ns:.1f} "
                f"+{TIME_TOLERANCE:.0%} = {ns_limit:.1f}"
            )
        if got_allocs > alloc_limit:
            verdict = "REGRESSION(allocs)"
            failures.append(
                f"{name}: {got_allocs:.4f} allocs/ev exceeds "
                f"{base_allocs:.4f} +{ALLOC_TOLERANCE} = {alloc_limit:.4f}"
            )
        # Construction cost (ns/node), emitted by serial scenario benches.
        # Gated like ns_per_event when both sides carry it — the large-n
        # work moved scenario build from O(n log n)-with-realloc to bulk
        # passes, and this keeps that from silently regressing.
        base_setup = base.get("setup_ns_per_node")
        got_setup = got.get("setup_ns_per_node")
        if base_setup is not None and got_setup is not None:
            setup_limit = base_setup * (1.0 + TIME_TOLERANCE)
            if got_setup > setup_limit:
                verdict = "REGRESSION(setup)"
                failures.append(
                    f"{name}: setup {got_setup:.1f} ns/node exceeds "
                    f"{base_setup:.1f} +{TIME_TOLERANCE:.0%} = "
                    f"{setup_limit:.1f}"
                )
        base_counters = base.get("counters", {})
        got_counters = got.get("counters", {})
        if got_counters:
            for key in REQUIRED_COUNTERS:
                if key not in got_counters:
                    verdict = "MISSING(counter)"
                    failures.append(
                        f"{name}: required counter {key} absent from "
                        f"fresh run (metric wiring regressed?)"
                    )
        for key in sorted(set(base_counters) & set(got_counters)):
            b, g = base_counters[key], got_counters[key]
            if g != b:
                verdict = "REGRESSION(counter)"
                failures.append(
                    f"{name}: counter {key} = {g} differs from baseline {b}"
                )
        print(
            f"  [{verdict:>17}] {name}: {got_ns:8.1f} ns/ev "
            f"(base {base_ns:8.1f}), {got_allocs:.4f} allocs/ev "
            f"(base {base_allocs:.4f})"
        )
    for name in sorted(set(fresh) - set(baseline)):
        print(f"  [new] {name}: no baseline yet")

    if failures:
        print(f"\n{len(failures)} bench regression(s) vs {baseline_path}:")
        for f in failures:
            print(f"  - {f}")
        return 1
    print("\nbench gate: all benchmarks within tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
