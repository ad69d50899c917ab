"""Self-test of the benchmark's tracer: on tiny configs its counts must match
closed forms, and with tracing off no library function may be wrapped.

Run from the repository root:  python3 perfbench/selftest.py
"""
from __future__ import annotations

import contextlib
import io
import math
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import shiftmetrics  # noqa: E402
from shiftmetrics import cli, estimators, measures, metrics, shiftspace  # noqa: E402

from tracer import Tracer, wrapped_functions  # noqa: E402

PARAMS = metrics.MetricParams(1.3, 1.3)


@contextlib.contextmanager
def traced():
    tracer = Tracer()
    tracer.install()
    try:
        yield tracer
    finally:
        tracer.uninstall()


def run_cli(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(argv)
    if rc != 0:
        raise AssertionError(f"{argv} exited with {rc}")
    return out.getvalue()


class ClosedForms(unittest.TestCase):
    def test_from_points_makes_n_choose_2_rho_calls(self):
        n = 9
        points = [shiftspace.sample_point(shiftspace.make_space(2), 12, s) for s in range(n)]
        with traced() as t:
            metrics.FiniteSample.from_points(points, PARAMS)
        m = t.metrics()
        self.assertEqual(m["metrics.rho.calls"], n * (n - 1) // 2)
        self.assertEqual(m["metrics.from_points.pairs"], n * (n - 1) // 2)
        self.assertEqual(t.stats[("metrics", "rho", "metrics")][0], n * (n - 1) // 2)
        self.assertEqual(t.stats[("metrics", "from_points", "bench")][0], 1)

    def test_average_over_typical_samples_k_points(self):
        k = 7
        mu = measures.BernoulliMeasure((0.3, 0.7))
        with traced() as t:
            estimators.average_over_typical(
                lambda p: estimators.brin_katok_local(mu, p, PARAMS, 0.9, range(2, 12, 2)),
                mu,
                40,
                n_points=k,
                seed=3,
            )
        m = t.metrics()
        self.assertEqual(m["measures.sample_typical.calls"], k)
        self.assertEqual(m["measures.sample_typical.symbols"], k * (2 * 40 + 1))
        self.assertEqual(m["estimators.average_over_typical.points"], k)
        self.assertEqual(m["estimators.per_point.calls"], k)

    def test_frink_metrize_counts_n_cubed(self):
        n = 11
        points = [shiftspace.sample_point(shiftspace.make_space(2), 20, s) for s in range(n)]
        sample = metrics.FiniteSample.from_points(points, PARAMS)
        with traced() as t:
            metrics.frink_metrize(sample)
        m = t.metrics()
        self.assertEqual(m["metrics.frink_metrize.n3"], n**3)
        self.assertEqual(t.stats[("metrics", "check_quasi_metric", "metrics")][0], 1)

    def test_self_times_add_up_to_outer_busy_time(self):
        with traced() as t:
            run_cli(["frink", "--n-samples", "2", "--sample-size", "12"])
        self_total = sum(st[2] for st in t.stats.values())
        outer = sum(st[1] for (_, _, caller), st in t.stats.items() if caller == "bench")
        self.assertTrue(math.isclose(self_total, outer, rel_tol=1e-9), (self_total, outer))

    def test_duplicate_inputs_are_counted_per_operation(self):
        # box_dimension counts every ladder length once and the CLI counts them again
        with traced() as t:
            run_cli(["dim", "--space", "full:2", "--j-min", "8", "--j-max", "12"])
            t.end_op()
        m = t.metrics()
        self.assertEqual(m["shiftspace.count_words.calls"], 2 * 5)
        self.assertEqual(m["shiftspace.count_words.dup_ratio"], 2.0)


class Wrapping(unittest.TestCase):
    def test_nothing_is_wrapped_with_tracing_off(self):
        self.assertEqual(wrapped_functions(), [])
        run_cli(["entropy", "--space", "full:2"])
        self.assertEqual(wrapped_functions(), [])

    def test_every_import_site_is_wrapped_and_restored(self):
        original = measures.sample_typical
        with traced():
            for site in (measures, estimators, cli, shiftmetrics):
                self.assertIsNot(site.sample_typical, original, site.__name__)
            self.assertIn("shiftmetrics.cli.count_words", wrapped_functions())
        self.assertEqual(wrapped_functions(), [])
        for site in (measures, estimators, cli, shiftmetrics):
            self.assertIs(site.sample_typical, original, site.__name__)

    def test_traced_reports_are_byte_identical(self):
        argv = ["frink", "--n-samples", "2", "--sample-size", "12", "--seed", "5"]
        plain = run_cli(argv)
        with traced():
            self.assertEqual(run_cli(argv), plain)


if __name__ == "__main__":
    unittest.main()
