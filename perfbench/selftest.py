"""Fast self-tests of the benchmark harness (about a second).

    python3 perfbench/selftest.py

They check the metric schema against BENCHMARK.json, that a tampered
verdict is counted as a failure, and that the tracer wraps every binding
of a layer function.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import re
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import golden  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
E2E = {m["name"] for m in SPEC["end_to_end"]}
LAYER = {m["name"] for m in SPEC["per_layer"]}


def _quiet_run(workload, trace, errors=()):
    """run.run with FakeRunner in place of run.Runner, output swallowed."""
    orig = run.Runner
    run.Runner = FakeRunner
    FakeRunner.errors = list(errors)
    try:
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            return run.run(HERE.parent, workload, 1, 0.0, trace)
    finally:
        run.Runner = orig
        FakeRunner.errors = []


def _verify_all_report():
    """A report shaped like a correct ``verify-all --q 8 --report``."""
    stages = [{"name": n, "passed": p, "elapsed_s": 0.5,
               "findings": dict(golden.VERIFY_ALL["findings"].get(n, {}))}
              for n, p in golden.VERIFY_ALL["stages"]]
    wits = [{"sigma_orders": o, "subgroup_order": 29120}
            for o in golden.WITNESS_SIGMA_ORDERS]
    return {"stages": stages,
            "rank4_report": {"witnesses_outside_restriction": wits}}


class FakeRunner:
    """Stands in for run.Runner: no processes, canned repetitions."""

    errors = []

    def __init__(self, root, work):
        pass

    def setup(self, workload):
        return 0.25

    def verify_all(self, traced=False):
        spans = [["groups.build_suzuki", 0.0, 1.0, -1, None],
                 ["kernels.suzuki_mask", 0.1, 0.4, 0, (100, 4)],
                 ["wilson.is_suzuki", 0.5, 0.9, 0, True]]
        return {"wall_s": 1.5, "cpu_s": 1.4, "rss_mb": 90.0,
                "process_wall_s": 1.6, "stages": {"group": 1.0},
                "spans": spans if traced else None,
                "errors": list(self.errors)}

    def body(self, workload, seconds, traced=False):
        rep = self.verify_all(traced)
        return [(rep, rep["errors"])]


class Schema(unittest.TestCase):
    def test_benchmark_json_names(self):
        self.assertEqual(set(SPEC), {"command", "paths", "run_seconds",
                                     "workloads", "end_to_end", "per_layer"})
        names = [w["name"] for w in SPEC["workloads"]]
        names += [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
        for name in names:
            self.assertRegex(name, NAME)
        self.assertEqual(len(names), len(set(names)))
        self.assertEqual([w["name"] for w in SPEC["workloads"]],
                         list(run.WORKLOADS))
        self.assertIn("setup_s", E2E)
        self.assertTrue(all(m["bound"] <= 0.25 for m in SPEC["end_to_end"]))

    def test_every_workload_emits_the_schema(self):
        for workload in run.WORKLOADS:
            for trace, expected in ((False, E2E), (True, LAYER)):
                res = _quiet_run(workload, trace)
                self.assertEqual(set(res["metrics"]), expected,
                                 (workload, trace))
                self.assertTrue(res["correct"])
                for metric in res["metrics"].values():
                    self.assertRegex(metric["unit"],
                                     r"^[A-Za-z0-9_/%.-]{1,16}$")

    def test_layer_metrics_self_time_and_counts(self):
        spans = FakeRunner(None, None).verify_all(traced=True)["spans"]
        m = tracer.layer_metrics(spans)
        self.assertAlmostEqual(m["groups.build_suzuki_s"][0], 0.3)
        self.assertAlmostEqual(m["kernels.suzuki_mask_s"][0], 0.3)
        self.assertEqual(m["kernels.suzuki_mask_rows"][0], 100)
        self.assertAlmostEqual(m["kernels.suzuki_mask_accept_ratio"][0], 0.04)
        self.assertEqual(m["wilson.is_suzuki_calls"][0], 1)


class Verdicts(unittest.TestCase):
    def test_golden_shapes_pass(self):
        self.assertEqual(golden.check_verify_all(3, _verify_all_report()), [])
        self.assertEqual(golden.check_rank4_walk(
            dict(golden.RANK4_WALK)), [])

    def test_tampered_verify_all(self):
        self.assertTrue(golden.check_verify_all(0, _verify_all_report()))
        rep = _verify_all_report()
        rep["stages"][3]["findings"]["scan_size"] = 8
        self.assertTrue(golden.check_verify_all(3, rep))
        rep = _verify_all_report()
        rep["stages"][3]["passed"] = True
        self.assertTrue(golden.check_verify_all(3, rep))
        self.assertTrue(golden.check_verify_all(3, None))

    def test_tampered_rank4_walk(self):
        self.assertTrue(golden.check_rank4_walk(
            dict(golden.RANK4_WALK, witnesses=31)))
        self.assertTrue(golden.check_rank4_walk(
            dict(golden.RANK4_WALK, witness_orders=[29120, 14])))
        self.assertTrue(golden.check_rank4_walk({}))

    def test_mismatch_counts_as_failed(self):
        for workload in run.WORKLOADS:
            res = _quiet_run(workload, False, errors=["a golden mismatch"])
            self.assertFalse(res["correct"], workload)
            self.assertEqual(res["failed"], 1, workload)
            self.assertEqual(res["attempted"], run.SETUP_REPS + 1, workload)


_INSTALL_PROBE = """
import json, szverify, tracer
from szverify import cli, groups, wilson
t = tracer.Tracer()
bindings = tracer.install(t)
ctx = cli.make_context(1)
groups.is_suzuki(ctx, tuple(ctx.iota))
wilson.is_suzuki(ctx, tuple(ctx.iota))
szverify.closure(ctx, [tuple(ctx.iota)], 10)
print(json.dumps({"bindings": bindings, "spans": [s[0] for s in t.spans]}))
"""


class Tracing(unittest.TestCase):
    def test_install_wraps_every_binding(self):
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(HERE), str(HERE.parent / "src")]))
        out = subprocess.run([sys.executable, "-c", _INSTALL_PROBE], env=env,
                             capture_output=True, text=True, timeout=120)
        self.assertEqual(out.returncode, 0, out.stderr)
        probe = json.loads(out.stdout)
        # groups, cli and the package re-bind some targets by name.
        self.assertGreater(probe["bindings"], len(tracer.TARGETS))
        names = probe["spans"]
        self.assertEqual(names.count("wilson.is_suzuki"), 2)
        for name in ("context.make_context", "groups.closure",
                     "kernels.row_action_table"):
            self.assertIn(name, names)


if __name__ == "__main__":
    unittest.main()
