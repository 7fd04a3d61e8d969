"""Tests of the benchmark's own logic.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

The checker, span and trace tests are pure Python. SweepThreadsTest builds
rrbench the way run.py does and runs the Fig. 4 sweep at 1 and 2 threads.
"""

import copy
import json
import unittest

import run


def simulation(**fields):
    """A consistent simulation record, as rrbench prints one."""
    sim = {
        "seed": 1, "nodes": 3, "setup_s": 0.1, "error": "", "sent": 10,
        "delivered": 9, "events_executed": 100, "mac_packets": 5, "rx_in_progress": 0,
        "metrics": {
            "des.events_executed": 100, "des.heap_high_water": 7,
            "phy.signals_arrived": 50, "phy.rx_decoded": 20,
            "phy.drop_collision": 5, "phy.drop_rx_while_busy": 5,
            "phy.drop_below_sensitivity": 15, "phy.drop_while_off": 4,
            "phy.drop_aborted_off": 1, "election.armed": 8, "election.won": 6,
            "mac.data_tx": 5,
        },
    }
    sim.update(fields)
    return sim


def measurement(*sims):
    return {"input": 0, "setup_s": [0.1], "run_s": 1.0, "cpu_s": 1.0,
            "peak_rss_kib": 1024, "instances": list(sims), "spans": []}


class CheckerTest(unittest.TestCase):
    def test_consistent_simulation_passes(self):
        sim = simulation()
        self.assertIsNone(run.simulation_problem(sim, run.semantic_counts(sim)))

    def test_invariant_violations_are_reported(self):
        cases = {
            "PHY conservation": ("metrics", "phy.rx_decoded", 21),
            "delivered": ("delivered", None, 11),
            "election.won": ("metrics", "election.won", 9),
            "des.events_executed": ("metrics", "des.events_executed", 99),
        }
        for expected, (field, key, value) in cases.items():
            sim = simulation()
            if key is None:
                sim[field] = value
            else:
                sim[field][key] = value
            with self.subTest(expected):
                self.assertIn(expected, run.simulation_problem(sim))

    def test_reception_in_progress_at_the_horizon_is_accounted(self):
        sim = simulation(rx_in_progress=2)
        sim["metrics"]["phy.rx_decoded"] -= 2
        self.assertIsNone(run.simulation_problem(sim))

    def test_tampered_count_fails_against_pins(self):
        pinned = run.semantic_counts(simulation())
        sim = simulation()
        sim["metrics"]["mac.data_tx"] += 1
        self.assertIsNone(run.simulation_problem(sim))
        self.assertIn("mac.data_tx", run.simulation_problem(sim, pinned))

    def test_failures_are_counted_not_raised(self):
        good = measurement(simulation())
        bad = measurement(simulation())
        bad["instances"][0]["metrics"]["phy.drop_collision"] += 1
        pins = {"seed": 1, "flood_n100k": {"instances": [run.semantic_counts(simulation())]}}
        results = [(good, None), (bad, None), (None, "rrbench exited with -11: crash")]
        kept, attempted, failed, reasons = run.check_all("flood_n100k", 1, results, pins)
        self.assertEqual((len(kept), attempted, failed), (2, 3, 2))
        self.assertEqual(len(reasons), 2)
        self.assertTrue(all("\n" not in r for r in reasons))

    def test_counts_must_repeat_across_measurements(self):
        first = measurement(simulation())
        second = measurement(simulation())
        second["instances"][0]["metrics"]["des.heap_high_water"] = 8
        _, _, failed, reasons = run.check_all(
            "flood_n100k", 2, [(first, None), (second, None)], {"seed": 1})
        self.assertEqual(failed, 1)
        self.assertIn("first measurement", reasons[0])

    def test_tampered_sweep_cell_fails_its_point(self):
        pinned = json.loads(run.PINS.read_text())["sweep_fig4"]
        output = measurement()
        output["table"] = copy.deepcopy(pinned["table"])
        self.assertEqual(run.check_measurement("sweep_fig4", output, pinned, None), (0, []))
        output["table"]["rows"][1][output["table"]["columns"].index("rr_ctrl_tx")] += 1
        failed, reasons = run.check_measurement("sweep_fig4", output, pinned, None)
        self.assertEqual(failed, run.SWEEP_REPLICATIONS)
        self.assertIn("rr_ctrl_tx", reasons[0])


class EndToEndTest(unittest.TestCase):
    def test_each_input_weighs_the_same_however_often_measured(self):
        outputs = []
        for value, inp in ((1.0, 0), (1.0, 0), (1.0, 0), (2.0, 1), (3.0, 2)):
            output = measurement(simulation())
            output.update(input=inp, run_s=value * 5e-6, setup_s=[value, value])
            outputs.append(output)
        samples = run.end_to_end_samples("flood_n100k", outputs)
        self.assertEqual(samples["setup_s"], {0: [1.0] * 6, 1: [2.0] * 2, 2: [3.0] * 2})
        self.assertEqual([round(m, 9) for m in run.input_medians(samples["run_us_per_frame"])],
                         [1.0, 2.0, 3.0])


def span(name, start, end, parent=-1):
    return {"name": name, "start_ns": start, "end_ns": end, "parent": parent, "args": {}}


class SpanTest(unittest.TestCase):
    SPANS = [
        span("sim.run", 0, 100),
        span("des.run_until", 10, 40, 0),
        span("phy.walk", 15, 20, 1),
        span("des.run_until", 30, 60, 0),  # overlaps its sibling
        span("obs.snapshot", 100, 130),
    ]

    def test_self_time_subtracts_the_union_of_children(self):
        self.assertEqual(run.self_times_ns(self.SPANS), [50, 25, 5, 30, 30])

    def test_layer_self_time_sums_spans_of_a_layer(self):
        totals = run.layer_self_seconds(self.SPANS)
        self.assertEqual({k: round(v * 1e9) for k, v in totals.items()},
                         {"sim": 50, "des": 55, "phy": 5, "obs": 30})

    def test_parent_links_must_form_a_tree_of_nested_spans(self):
        self.assertIsNone(run.span_tree_problem(self.SPANS))
        forward = copy.deepcopy(self.SPANS)
        forward[1]["parent"] = 3
        self.assertIn("not an earlier span", run.span_tree_problem(forward))
        outside = copy.deepcopy(self.SPANS)
        outside[2]["end_ns"] = 45
        self.assertIn("not inside its parent", run.span_tree_problem(outside))

    def test_chrome_trace_round_trips_as_json(self):
        trace = json.loads(json.dumps(run.chrome_trace(
            [("measurement", self.SPANS), ("probes", self.SPANS[:1])],
            {"trace.overhead_share": 0.01})))
        complete = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        self.assertEqual(len(complete), 6)
        self.assertEqual(complete[2]["args"]["parent"], 1)
        self.assertEqual(complete[2]["dur"], 0.005)  # microseconds
        self.assertEqual(trace["otherData"]["trace.overhead_share"], 0.01)


class ContractTest(unittest.TestCase):
    def test_benchmark_json_lists_the_metrics_run_py_prints(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        for key, units in (("end_to_end", run.END_TO_END_UNITS),
                           ("per_layer", run.PER_LAYER_UNITS)):
            listed = {m["name"]: m["unit"] for m in spec[key]}
            self.assertEqual(listed, units, key)
        self.assertEqual({w["name"] for w in spec["workloads"]}, set(run.WORKLOADS))


class SweepThreadsTest(unittest.TestCase):
    def test_sweep_table_is_thread_count_independent(self):
        run.build()
        pins = json.loads(run.PINS.read_text())
        tables = []
        for threads in (1, 2):
            output, error = run.run_rrbench("sweep_fig4", pins["seed"], "--threads", str(threads))
            self.assertIsNone(error)
            tables.append(output["table"])
        self.assertEqual(tables[0], tables[1])
        self.assertEqual(tables[0], pins["sweep_fig4"]["table"])


if __name__ == "__main__":
    unittest.main()
