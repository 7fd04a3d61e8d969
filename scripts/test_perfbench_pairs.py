"""Unit tests of scripts/perfbench_pairs.py's acceptance rule on synthetic
runs; nothing is built or run.

    python3 -m unittest discover -s scripts -p 'test_*.py'
"""

import importlib.util
import io
import unittest
from contextlib import redirect_stdout
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location(
    "perfbench_pairs", Path(__file__).resolve().parent / "perfbench_pairs.py")
pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(pairs)

# Ten REV readings with median 100 and quartiles [97.75, 102.25]: IQR 4.5.
REV = [96, 97, 98, 99, 100, 100, 101, 102, 103, 104]


class Verdict(unittest.TestCase):
    def test_gain_needs_nine_wins_in_ten_and_a_gap_beyond_the_iqr(self):
        new = [r - 10 for r in REV]
        self.assertEqual(pairs.verdict(REV, new, True, 0.25), "gain")
        # Eight wins of ten: the same gap is no gain.
        lost_two = new[:8] + [REV[8] + 1, REV[9] + 1]
        self.assertEqual(pairs.verdict(REV, lost_two, True, 0.25), "same")
        # Ten wins, but the medians differ by less than the IQR.
        small = [r - 2 for r in REV]
        self.assertEqual(pairs.verdict(REV, small, True, 0.25), "same")

    def test_ties_count_for_neither_side(self):
        new = [r - 10 for r in REV[:9]] + [REV[9]]
        self.assertEqual(pairs.wins(REV, new, True), 9)
        self.assertEqual(pairs.verdict(REV, new, True, 0.25), "gain")
        tied_two = [r - 10 for r in REV[:8]] + REV[8:]
        self.assertEqual(pairs.wins(REV, tied_two, True), 8)
        self.assertEqual(pairs.verdict(REV, tied_two, True, 0.25), "same")

    def test_higher_is_better_metrics_mirror_the_rule(self):
        up = [r + 10 for r in REV]
        self.assertEqual(pairs.verdict(REV, up, False, 0.25), "gain")
        self.assertEqual(pairs.verdict(REV, up, True, 0.05), "worse")
        down = [r - 10 for r in REV]
        self.assertEqual(pairs.verdict(REV, down, False, 0.05), "worse")

    def test_worse_is_a_median_beyond_the_bound(self):
        self.assertEqual(pairs.verdict(REV, [r + 20 for r in REV], True, 0.15),
                         "worse")
        self.assertEqual(pairs.verdict(REV, [r + 10 for r in REV], True, 0.15),
                         "same")

    def test_unresolved_when_rev_spreads_wider_than_the_bound(self):
        wide = [60, 70, 80, 90, 100, 100, 110, 120, 130, 140]
        # Quartiles [77.5, 122.5]: IQR 45 on a median of 100.
        self.assertEqual(pairs.verdict(wide, wide, True, 0.25), "unresolved")
        self.assertEqual(pairs.verdict(wide, [r - 1 for r in wide], True, 0.5),
                         "same")
        # Every change run beats every REV run: resolved, though the gap
        # (41) is inside the IQR; one run that does not leaves it open.
        self.assertEqual(pairs.verdict(wide, [59] * 10, True, 0.25), "same")
        self.assertEqual(pairs.verdict(wide, [59] * 9 + [61], True, 0.25),
                         "unresolved")
        self.assertEqual(pairs.verdict(wide, [50] * 10, True, 0.25), "gain")
        self.assertEqual(pairs.verdict(wide, [59] * 10, False, 0.25), "worse")

    def test_report_prints_a_verdict_per_metric(self):
        metrics = [{"name": "run_us_per_frame", "better": "lower",
                    "bound": 0.25},
                   {"name": "setup_s", "better": "lower", "bound": 0.25}]

        def run(frame_us, setup_s):
            return {"attempted": 3, "failed": 0, "correct": True,
                    "metrics": {"run_us_per_frame": {"value": frame_us},
                                "setup_s": {"value": setup_s}}}

        runs = {"rev": [run(r, 1.0) for r in REV],
                "change": [run(r - 10, 1.0) for r in REV]}
        out = io.StringIO()
        with redirect_stdout(out):
            pairs.report("w", metrics, runs)
        lines = out.getvalue().splitlines()
        self.assertTrue(lines[-2].split()[0] == "run_us_per_frame"
                        and lines[-2].endswith(" 10/10 gain"), lines[-2])
        self.assertTrue(lines[-1].split()[0] == "setup_s"
                        and lines[-1].endswith(" 0/10 same"), lines[-1])


if __name__ == "__main__":
    unittest.main()
