#!/usr/bin/env python3
"""End-to-end benchmark of the rrnet simulator.

    python3 perfbench/run.py --workload flood_n100k --seed 1 --seconds 35 --trace 0

Builds perfbench/ (the simulator sources come from ../src) into
.bench_build/perfbench, then starts one rrbench process per measurement
until --seconds have passed. Every simulation's output is checked. The last
line on stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones, from untraced
measurements of a fixed set of inputs derived from --seed: the median over
the inputs of each input's median. Run times are divided by the MAC frames
the simulations put on the air, so that inputs whose random pairs make
more traffic stay comparable.

With --trace 1 the metrics are the per-layer ones, all on the --seed input
itself: counts from each simulation's metric registry, layer probe timings,
and span timings from traced measurements alternated with untraced ones.
The spans are also written as a Chrome trace-event file (Perfetto loads
it) under .bench_build/traces/.

NOTES.md in this directory says why each workload and metric exists and
how steady they are. --write-pins regenerates pinned.json: the semantic
counts and sweep table that every measurement of the pinned seed must
reproduce exactly.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
RRBENCH = BUILD_DIR / "rrbench"
TRACE_DIR = ROOT / ".bench_build" / "traces"
PINS = HERE / "pinned.json"

RRBENCH_TIMEOUT_S = 120

# Simulations per measurement, the worker threads a measurement uses, and
# the inputs an untraced run measures in turn: as many as fit in 35 s once
# each. Every input is measured before any is repeated, and each input's
# median weighs the same, so a faster program measures the same inputs
# more often, not other inputs.
WORKLOADS = {
    "flood_n100k": {"simulations": 1, "threads": 1, "inputs": 8},
    "rr_fig4": {"simulations": 6, "threads": 1, "inputs": 6},
    "sweep_fig4": {"simulations": 12, "threads": 2, "inputs": 8},
}

END_TO_END_UNITS = {
    "run_us_per_frame": "us",
    "cpu_us_per_frame": "us",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
}

# Registry counters reported as they are.
LAYER_COUNTS = (
    "phy.transmissions", "phy.signals_arrived", "phy.drop_while_off",
    "mac.data_tx", "mac.ack_tx", "mac.retries", "mac.tx_dropped_radio_off",
    "net.tx_control", "net.dup_cache_hits", "election.armed",
    "arbiter.retransmits", "arbiter.gave_up",
)

PER_LAYER_UNITS = {
    "des.events": "count",
    "des.queue_peak": "count",
    "des.ns_per_event": "ns",
    "des.hold_ns": "ns",
    "des.hold_share": "ratio",
    "geom.place_s": "s",
    "geom.index_s": "s",
    "geom.query_ns": "ns",
    "phy.signals_per_tx": "count",
    "phy.decode_share": "ratio",
    "phy.below_sensitivity_share": "ratio",
    "phy.walk_ns_per_signal": "ns",
    "phy.walk_share": "ratio",
    "election.win_share": "ratio",
    "app.sent": "count",
    "app.delivered": "count",
    "obs.snapshot_s": "s",
    "sim.build_ns_per_node": "ns",
    "sim.teardown_s": "s",
    "pool.object_in_use_peak": "count",
    "sim.pool_busy_share": "ratio",
    "sim.series_s.aodv": "s",
    "sim.series_s.rr": "s",
    "bench.run_s": "s",
    "bench.frames": "count",
    "trace.overhead_share": "ratio",
    **{name: "count" for name in LAYER_COUNTS},
}

# Registry prefixes whose counts are the simulation's semantics, the stuff
# the figures are made of; des.* and pool.* describe the engine instead.
SEMANTIC_PREFIXES = ("phy.", "mac.", "net.", "election.", "arbiter.")

PHY_OUTCOMES = (
    "phy.rx_decoded",
    "phy.drop_collision",
    "phy.drop_rx_while_busy",
    "phy.drop_below_sensitivity",
    "phy.drop_while_off",
    "phy.drop_aborted_off",
)

# Sweep::table counter columns and the registry counter each one sums.
SWEEP_COUNTER_COLUMNS = {
    "ctrl_tx": "net.tx_control",
    "phy_drop_collision": "phy.drop_collision",
    "dup_hits": "net.dup_cache_hits",
    "elec_won": "election.won",
}
SWEEP_SERIES = ("aodv", "rr")
SWEEP_REPLICATIONS = 2


class BuildError(Exception):
    pass


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


# ------------------------------------------------------------------ build


def build():
    """Configure (once) and build rrbench; raise BuildError on failure."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise BuildError(f"simulator sources not found in {ROOT / 'src'}")
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    # The default target, so an edited CMakeLists.txt regenerates the build.
    steps.append(["cmake", "--build", str(BUILD_DIR), "-j", "2"])
    for cmd in steps:
        # Build logs go to stderr: stdout ends with the result line.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            raise BuildError("command failed: " + " ".join(cmd))


# ---------------------------------------------------------------- rrbench


def run_rrbench(workload, seed, *flags):
    """One rrbench process; returns (parsed output, None) or (None, reason)."""
    cmd = [str(RRBENCH), "--workload", workload, "--seed", str(seed), *flags]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RRBENCH_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, f"rrbench timed out after {RRBENCH_TIMEOUT_S} s"
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        return None, f"rrbench exited with {proc.returncode}: {tail[0]}"
    try:
        return json.loads(proc.stdout), None
    except json.JSONDecodeError as err:
        return None, f"rrbench output is not JSON: {err}"


def measure_for(workload, seed, seconds, round_flags, min_rounds):
    """Start rrbench processes round after round until another round would
    overrun `seconds`, with at least `min_rounds` rounds. `round_flags(k)`
    lists the extra flags of each process in round k. Returns every
    (output, error) in order."""
    results = []
    start = time.monotonic()
    rounds = 0
    while True:
        for flags in round_flags(rounds):
            results.append(run_rrbench(workload, seed, *flags))
        rounds += 1
        elapsed = time.monotonic() - start
        if rounds >= min_rounds and elapsed * (rounds + 1) / rounds > seconds:
            return results


# ---------------------------------------------------------------- checks


def semantic_counts(sim):
    counts = {k: v for k, v in sim["metrics"].items()
              if k.startswith(SEMANTIC_PREFIXES)}
    counts["app.sent"] = sim["sent"]
    counts["app.delivered"] = sim["delivered"]
    return counts


def simulation_problem(sim, pinned=None):
    """One-line reason this simulation's output is wrong, or None."""
    if sim["error"]:
        return "simulation threw: " + sim["error"]
    m = sim["metrics"]
    arrived = m.get("phy.signals_arrived", 0)
    # A reception still in progress at the horizon has no outcome yet.
    accounted = sum(m.get(k, 0) for k in PHY_OUTCOMES) + sim["rx_in_progress"]
    if accounted != arrived:
        return (f"PHY conservation: decoded + drops + receptions in progress = "
                f"{accounted}, arrivals = {arrived}")
    if sim["delivered"] > sim["sent"]:
        return f"delivered {sim['delivered']} > sent {sim['sent']}"
    won, armed = m.get("election.won", 0), m.get("election.armed", 0)
    if won > armed:
        return f"election.won {won} > election.armed {armed}"
    if m.get("des.events_executed") != sim["events_executed"]:
        return (f"des.events_executed {m.get('des.events_executed')} != "
                f"events executed {sim['events_executed']}")
    if pinned is not None:
        counts = semantic_counts(sim)
        for name in sorted(set(pinned) | set(counts)):
            if counts.get(name) != pinned.get(name):
                return f"{name} = {counts.get(name)}, pinned {pinned.get(name)}"
    return None


def sweep_point_problems(table, pinned=None, reference=None, replays=None):
    """{(series index, row): reason} for each wrong point of a sweep table.

    `pinned` and `reference` are tables the cells must equal; `replays` are
    the traced run's serial re-runs of every sweep job, in table order."""
    columns = table["columns"]
    problems = {}
    for s, series in enumerate(SWEEP_SERIES):
        own = [c for c, name in enumerate(columns) if name.startswith(series + "_")]
        for r, row in enumerate(table["rows"]):
            problem = None
            delivery = row[columns.index(series + "_delivery")]
            if delivery is None or not 0.0 <= delivery <= 1.0:
                problem = f"{series}_delivery {delivery} outside [0, 1]"
            for column in SWEEP_COUNTER_COLUMNS:
                value = row[columns.index(f"{series}_{column}")]
                if problem is None and (value is None or value < 0 or value != int(value)):
                    problem = f"{series}_{column} {value} is not a count"
            for name, other in (("pinned", pinned), ("first measurement", reference)):
                for c in [0] + own:
                    if problem is None and other is not None and row[c] != other["rows"][r][c]:
                        problem = f"row {r} {columns[c]} = {row[c]}, {name} {other['rows'][r][c]}"
            if problem is None and replays is not None:
                first = (s * len(table["rows"]) + r) * SWEEP_REPLICATIONS
                jobs = replays[first:first + SWEEP_REPLICATIONS]
                replayed = {column: sum(j["metrics"].get(metric, 0) for j in jobs)
                            for column, metric in SWEEP_COUNTER_COLUMNS.items()}
                replayed["mac_pkts"] = sum(j["mac_packets"] for j in jobs) / SWEEP_REPLICATIONS
                for column, value in replayed.items():
                    if problem is None and row[columns.index(f"{series}_{column}")] != value:
                        problem = f"row {r} {series}_{column} != {value} from its replayed runs"
            if problem is not None:
                problems[(s, r)] = problem
    return problems


def frames(workload, output):
    """MAC frames (ACKs included) the measurement's simulations put on the
    air: the unit of work end-to-end times are divided by."""
    if workload == "sweep_fig4":
        table = output["table"]
        columns = [table["columns"].index(f"{s}_mac_pkts") for s in SWEEP_SERIES]
        means = sum(row[c] for row in table["rows"] for c in columns)
        return round(means * SWEEP_REPLICATIONS)
    return sum(sim["mac_packets"] for sim in output["instances"])


def check_measurement(workload, output, pinned, reference):
    """(failed, reasons) for one measurement's simulations.

    `pinned` holds the pinned values when the input is the pinned seed;
    `reference` is the first good measurement of the same input, whose
    counts every later one must repeat exactly."""
    failed, reasons = output_problems(workload, output, pinned, reference)
    if frames(workload, output) <= 0:
        # Nothing to divide the run time by: the whole measurement failed.
        return WORKLOADS[workload]["simulations"], reasons + ["no MAC frame was transmitted"]
    return failed, reasons


def output_problems(workload, output, pinned, reference):
    """(failed, reasons) from the checks of each simulation's output."""
    sims = output["instances"]
    if workload == "sweep_fig4":
        failed_jobs, reasons = set(), []
        rows = len(output["table"]["rows"])
        points = sweep_point_problems(
            output["table"], pinned and pinned["table"],
            reference and reference["table"], sims or None)
        for (s, r), reason in points.items():
            first = (s * rows + r) * SWEEP_REPLICATIONS
            failed_jobs.update(range(first, first + SWEEP_REPLICATIONS))
            reasons.append(reason)
        for i, sim in enumerate(sims):
            reason = simulation_problem(sim)
            if reason:
                failed_jobs.add(i)
                reasons.append(f"replayed job {i}: {reason}")
        return len(failed_jobs), reasons
    expected = WORKLOADS[workload]["simulations"]
    if len(sims) != expected:
        return expected, [f"expected {expected} simulations, got {len(sims)}"]
    failed, reasons = 0, []
    for i, sim in enumerate(sims):
        reason = simulation_problem(sim, pinned and pinned["instances"][i])
        if reason is None and reference is not None and \
                sim["metrics"] != reference["instances"][i]["metrics"]:
            reason = "counts differ from the first measurement of this input"
        if reason:
            failed += 1
            reasons.append(f"simulation {i}: {reason}")
    return failed, reasons


def check_all(workload, seed, results, pins):
    """Check every measurement; returns (outputs, attempted, failed, reasons).
    A measurement whose process failed counts all its simulations failed."""
    per_measurement = WORKLOADS[workload]["simulations"]
    outputs, reasons, references = [], [], {}
    attempted = failed = 0
    for output, error in results:
        attempted += per_measurement
        if output is None:
            failed += per_measurement
            reasons.append(error)
            continue
        pinned = pins.get(workload) if seed == pins["seed"] and output["input"] == 0 else None
        n_failed, why = check_measurement(workload, output, pinned,
                                          references.get(output["input"]))
        failed += n_failed
        reasons += why
        outputs.append(output)
        if n_failed == 0:
            references.setdefault(output["input"], output)
    return outputs, attempted, failed, reasons


# ----------------------------------------------------------------- spans


def layer_of(name):
    return name.split(".", 1)[0]


def span_tree_problem(spans):
    """Reason the parent links do not form a tree of nested spans, or None."""
    for i, s in enumerate(spans):
        if s["end_ns"] < s["start_ns"]:
            return f"span {i} ({s['name']}) ends before it starts"
        p = s["parent"]
        if p == -1:
            continue
        if not 0 <= p < i:
            return f"span {i} ({s['name']}) has parent {p}, not an earlier span"
        if s["start_ns"] < spans[p]["start_ns"] or s["end_ns"] > spans[p]["end_ns"]:
            return f"span {i} ({s['name']}) is not inside its parent {p}"
    return None


def self_times_ns(spans):
    """Each span's duration minus the part of it its children cover."""
    children = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s["parent"] >= 0:
            children[s["parent"]].append(i)
    out = []
    for s, kids in zip(spans, children):
        start, end = s["start_ns"], s["end_ns"]
        covered, cursor = 0, start
        for a, b in sorted((spans[k]["start_ns"], spans[k]["end_ns"]) for k in kids):
            a, b = max(a, cursor), min(b, end)
            if b > a:
                covered += b - a
                cursor = b
        out.append(end - start - covered)
    return out


def layer_self_seconds(spans):
    totals = {}
    for s, t in zip(spans, self_times_ns(spans)):
        totals[layer_of(s["name"])] = totals.get(layer_of(s["name"]), 0.0) + t / 1e9
    return totals


def span_seconds(spans, name):
    return sum(s["end_ns"] - s["start_ns"] for s in spans if s["name"] == name) / 1e9


def chrome_trace(lanes, other_data):
    """Chrome trace-event JSON: one process lane per (label, spans)."""
    events = []
    for pid, (label, spans) in enumerate(lanes, 1):
        events.append({"name": "process_name", "ph": "M", "pid": pid, "tid": 1,
                       "args": {"name": label}})
        for i, s in enumerate(spans):
            events.append({
                "name": s["name"], "cat": layer_of(s["name"]), "ph": "X",
                "pid": pid, "tid": 1, "ts": s["start_ns"] / 1e3,
                "dur": (s["end_ns"] - s["start_ns"]) / 1e3,
                "args": {"span": i, "parent": s["parent"], **s["args"]},
            })
    return {"traceEvents": events, "displayTimeUnit": "ms", "otherData": other_data}


# ---------------------------------------------------------------- metrics


def ratio(a, b):
    return a / b if b else 0.0


def end_to_end_samples(workload, outputs):
    """{metric: {input: samples}}: one sample per measurement, and for
    set-up one per build of the measurement's simulations (see rrbench)."""
    samples = {name: {} for name in END_TO_END_UNITS}
    for o in outputs:
        per_frame = 1e6 / frames(workload, o)
        for name, values in (("run_us_per_frame", [o["run_s"] * per_frame]),
                             ("cpu_us_per_frame", [o["cpu_s"] * per_frame]),
                             ("setup_s", o["setup_s"]),
                             ("peak_rss_mib", [o["peak_rss_kib"] / 1024])):
            samples[name].setdefault(o["input"], []).extend(values)
    return samples


def input_medians(by_input):
    """Each input's median, in input order; every input weighs the same
    however often it was measured."""
    return [statistics.median(by_input[i]) for i in sorted(by_input)]


def per_layer_metrics(workload, untraced, traced, probes):
    """Per-layer metrics from the counts and spans of the first traced
    measurement, the probes, and untraced medians for the run time."""
    run_s = statistics.median(o["run_s"] for o in untraced)
    cpu_s = statistics.median(o["cpu_s"] for o in untraced)
    setup_s = statistics.median(s for o in untraced for s in o["setup_s"])
    sims, spans = traced[0]["instances"], traced[0]["spans"]

    def total(name):
        return sum(sim["metrics"].get(name, 0) for sim in sims)

    def peak(name):
        return max(sim["metrics"].get(name, 0) for sim in sims)

    events = total("des.events_executed")
    arrived = total("phy.signals_arrived")
    metrics = {
        "des.events": events,
        "des.queue_peak": peak("des.heap_high_water"),
        "des.ns_per_event": ratio(run_s * 1e9, events),
        "des.hold_ns": probes["hold_ns"],
        "des.hold_share": ratio(probes["hold_ns"] * events, run_s * 1e9),
        "geom.place_s": probes["place_s"],
        "geom.index_s": probes["index_s"],
        "geom.query_ns": probes["query_ns"],
        "phy.signals_per_tx": ratio(arrived, total("phy.transmissions")),
        "phy.decode_share": ratio(total("phy.rx_decoded"), arrived),
        "phy.below_sensitivity_share": ratio(total("phy.drop_below_sensitivity"), arrived),
        "phy.walk_ns_per_signal": probes["walk_ns_per_signal"],
        "phy.walk_share": ratio(probes["walk_ns_per_signal"] * arrived, run_s * 1e9),
        "election.win_share": ratio(total("election.won"), total("election.armed")),
        "app.sent": sum(sim["sent"] for sim in sims),
        "app.delivered": sum(sim["delivered"] for sim in sims),
        "obs.snapshot_s": span_seconds(spans, "obs.snapshot"),
        # A set-up sample builds every simulation of a measurement once.
        "sim.build_ns_per_node":
            setup_s * 1e9 / (sims[0]["nodes"] * WORKLOADS[workload]["simulations"]),
        "sim.teardown_s": span_seconds(spans, "sim.teardown"),
        "pool.object_in_use_peak": peak("pool.object_in_use_high_water"),
        "sim.pool_busy_share": ratio(cpu_s, WORKLOADS[workload]["threads"] * run_s),
        "sim.series_s.aodv": span_seconds(spans, "sim.series.aodv"),
        "sim.series_s.rr": span_seconds(spans, "sim.series.rr"),
        "bench.run_s": run_s,
        "bench.frames": frames(workload, traced[0]),
        "trace.overhead_share":
            ratio(statistics.median(o["run_s"] for o in traced), run_s) - 1.0,
    }
    metrics.update({name: total(name) for name in LAYER_COUNTS})
    return metrics


# ------------------------------------------------------------------- main


def result_line(correct, attempted, failed, metrics, units):
    return json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    })


def run_untraced(args, pins):
    inputs = WORKLOADS[args.workload]["inputs"]
    results = measure_for(args.workload, args.seed, args.seconds,
                          lambda k: [["--input", str(k % inputs)]], inputs)
    outputs, attempted, failed, reasons = check_all(args.workload, args.seed, results, pins)
    for reason in reasons:
        log("FAILED:", reason)
    if not outputs:
        log("perfbench: no measurement completed")
        return 1
    log(f"{args.workload} seed {args.seed}: {len(outputs)} measurements of {inputs} inputs")
    metrics = {}
    for name, by_input in end_to_end_samples(args.workload, outputs).items():
        medians = input_medians(by_input)
        metrics[name] = statistics.median(medians)
        q1, _, q3 = statistics.quantiles(medians, n=4) if len(medians) > 1 else medians * 3
        log(f"  {name:17s} median {metrics[name]:.6g}  input quartiles [{q1:.6g}, {q3:.6g}]")
    print(result_line(failed == 0, attempted, failed, metrics, END_TO_END_UNITS))
    return 0


def run_traced(args, pins):
    results = measure_for(args.workload, args.seed, args.seconds,
                          lambda k: [[], ["--traced"]], 2)
    outputs, attempted, failed, reasons = check_all(args.workload, args.seed, results, pins)
    traced = [o for o in outputs if o["spans"]]
    untraced = [o for o in outputs if not o["spans"]]
    if not traced or not untraced:
        for reason in reasons:
            log("FAILED:", reason)
        log("perfbench: no traced and untraced measurement pair completed")
        return 1
    peak = max(sim["metrics"]["des.heap_high_water"] for sim in traced[0]["instances"])
    probe_out, error = run_rrbench(args.workload, args.seed, "--probes",
                                   "--queue-peak", str(peak))
    if probe_out is None:
        log("perfbench: layer probes failed:", error)
        return 1
    lanes = [("traced measurement", traced[0]["spans"]), ("layer probes", probe_out["spans"])]
    for label, spans in lanes:
        problem = span_tree_problem(spans)
        if problem:
            reasons.append(f"{label}: {problem}")
    for reason in reasons:
        log("FAILED:", reason)

    metrics = per_layer_metrics(args.workload, untraced, traced, probe_out["probes"])
    self_s = {}
    for _, spans in lanes:
        for layer, seconds in layer_self_seconds(spans).items():
            self_s[layer] = self_s.get(layer, 0.0) + seconds
    TRACE_DIR.mkdir(parents=True, exist_ok=True)
    trace_path = TRACE_DIR / f"{args.workload}-seed{args.seed}.json"
    trace_path.write_text(json.dumps(chrome_trace(lanes, {
        "workload": args.workload, "seed": args.seed, "self_s": self_s,
        "trace.overhead_share": metrics["trace.overhead_share"],
    })))

    log(f"{args.workload} seed {args.seed}: {len(untraced)} untraced + "
        f"{len(traced)} traced measurements; spans in {trace_path}")
    for name, unit in PER_LAYER_UNITS.items():
        log(f"  {name:28s} {metrics[name]:>16.6g} {unit}")
    log("  layer self time (s): " +
        ", ".join(f"{k} {v:.4f}" for k, v in sorted(self_s.items())))
    log(f"  trace.overhead_share {metrics['trace.overhead_share']:+.4f}")
    print(result_line(failed == 0 and not reasons, attempted, failed, metrics,
                      PER_LAYER_UNITS))
    return 0


def write_pins():
    pins = {"seed": 1}
    for workload in WORKLOADS:
        output, error = run_rrbench(workload, pins["seed"])
        if output is None:
            log(f"perfbench: {workload}: {error}")
            return 1
        if workload == "sweep_fig4":
            pins[workload] = {"table": output["table"]}
        else:
            pins[workload] = {"instances": [semantic_counts(s) for s in output["instances"]]}
    PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    log(f"wrote {PINS}")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-pins", action="store_true",
                        help="rewrite pinned.json from the default seed")
    args = parser.parse_args(argv)
    if not args.write_pins and args.workload is None:
        parser.error("--workload is required")
    try:
        build()
    except BuildError as err:
        log("perfbench: build failed:", err)
        return 1
    if args.write_pins:
        return write_pins()
    pins = json.loads(PINS.read_text())
    return run_traced(args, pins) if args.trace else run_untraced(args, pins)


if __name__ == "__main__":
    sys.exit(main())
