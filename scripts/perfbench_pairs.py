#!/usr/bin/env python3
"""Paired A/B of the end-to-end benchmark: a revision against the working tree.

    python3 scripts/perfbench_pairs.py REV [--workloads W ...] [--pairs N]
                                           [--seed S]

Extracts REV's committed files (git archive) into a temporary directory
(TMPDIR is honoured), then runs `perfbench/run.py`, with its own run length,
at REV and in the working tree alternately: REV first on even pairs, the
working tree first on odd ones, so that drift in the machine's load hits
both sides alike. Each run builds its own tree into its checkout's
.bench_build/ the first time.

For each workload and each end-to-end metric of BENCHMARK.json it prints
both sides' medians and quartiles, the change's median over REV's, how
many pairs the change won and a verdict (see `verdict`); for each side, the
simulations attempted and failed. Nothing is written under perfbench/.
"""

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(tree, workload, seed):
    """One perfbench/run.py measurement; its last stdout line as a dict."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed)],
        cwd=tree, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        sys.exit(f"perfbench/run.py failed in {tree} ({workload})")
    return json.loads(lines[-1])


def spread(values):
    """(q1, median, q3) of the values."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def wins(rev, new, lower):
    """Pairs in which the change reads better than REV; ties count for neither."""
    return sum((b < a) if lower else (b > a) for a, b in zip(rev, new))


def verdict(rev, new, lower, bound):
    """Acceptance of one metric on one workload from paired runs.

    `rev[i]` and `new[i]` are pair i's readings; `lower` says lower is
    better; `bound` is the metric's BENCHMARK.json bound, a fraction of
    REV's median. In this order:
      gain        the change wins at least 90% of the pairs (ties count for
                  neither) and its median is better than REV's by more than
                  REV's interquartile range;
      worse       the change's median is worse than REV's by more than
                  `bound` times REV's median;
      unresolved  REV's interquartile range exceeds `bound` times its
                  median, unless every change run beats every REV run;
      same        otherwise.
    """
    r1, rm, r3 = spread(rev)
    _, cm, _ = spread(new)
    gain = (rm - cm) if lower else (cm - rm)
    if 10 * wins(rev, new, lower) >= 9 * len(rev) and gain > r3 - r1:
        return "gain"
    if -gain > bound * abs(rm):
        return "worse"
    beats_all = (max(new) < min(rev)) if lower else (min(new) > max(rev))
    if r3 - r1 > bound * abs(rm) and not beats_all:
        return "unresolved"
    return "same"


def report(workload, metrics, runs):
    print(f"== {workload}: {len(runs['rev'])} pairs ==")
    for side, label in (("rev", "REV"), ("change", "change")):
        attempted = sum(r["attempted"] for r in runs[side])
        failed = sum(r["failed"] for r in runs[side])
        correct = all(r["correct"] for r in runs[side])
        print(f"  {label:6s} attempted {attempted}, failed {failed}, "
              f"correct {correct}")
    print(f"  {'metric':18s} {'REV median [q1, q3]':>30s} "
          f"{'change median [q1, q3]':>30s} {'ratio':>7s} {'wins':>6s} "
          f"verdict")
    for metric in metrics:
        name = metric["name"]
        rev = [r["metrics"][name]["value"] for r in runs["rev"]]
        new = [r["metrics"][name]["value"] for r in runs["change"]]
        lower = metric["better"] == "lower"
        r1, rm, r3 = spread(rev)
        c1, cm, c3 = spread(new)
        ratio = cm / rm if rm else float("nan")
        print(f"  {name:18s} {f'{rm:.4g} [{r1:.4g}, {r3:.4g}]':>30s} "
              f"{f'{cm:.4g} [{c1:.4g}, {c3:.4g}]':>30s} {ratio:7.3f} "
              f"{wins(rev, new, lower):3d}/{len(rev)} "
              f"{verdict(rev, new, lower, metric['bound'])}")
    sys.stdout.flush()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("rev", help="git revision to compare against")
    parser.add_argument("--workloads", nargs="+",
                        help="default: every workload in BENCHMARK.json")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = bench["end_to_end"]
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]

    with tempfile.TemporaryDirectory(prefix="perfbench_pairs.") as tmp:
        rev_tree = Path(tmp) / "rev"
        rev_tree.mkdir()
        archive = subprocess.run(["git", "archive", args.rev], cwd=ROOT,
                                 capture_output=True, check=True).stdout
        subprocess.run(["tar", "-x", "-C", str(rev_tree)], input=archive,
                       check=True)
        trees = {"rev": rev_tree, "change": ROOT}
        for workload in workloads:
            runs = {"rev": [], "change": []}
            for pair in range(args.pairs):
                order = (("rev", "change") if pair % 2 == 0
                         else ("change", "rev"))
                for side in order:
                    result = run_once(trees[side], workload, args.seed)
                    runs[side].append(result)
                    value = result["metrics"]["run_us_per_frame"]["value"]
                    print(f"  [{workload} pair {pair} {side}] "
                          f"run_us_per_frame {value:.4g}", file=sys.stderr)
            report(workload, metrics, runs)
    return 0


if __name__ == "__main__":
    sys.exit(main())
