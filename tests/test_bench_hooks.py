"""The benchmark under ``perfbench/`` hooks into szverify by name.

A rename of a traced layer function would otherwise surface only when
the benchmark's traced run fails; here it fails the test suite.  So
does a rank-4 walk whose summary leaves the benchmark's golden verdict.
"""
import importlib
import importlib.util
import subprocess
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", PERFBENCH / f"{name}.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_tracer_targets_resolve():
    tracer = _load("tracer")
    assert tracer.TARGETS
    for mod_name, fn_name in tracer.TARGETS:
        mod = importlib.import_module(f"szverify.{mod_name}")
        assert callable(getattr(mod, fn_name, None)), f"{mod_name}.{fn_name}"


def test_rank4_walk_matches_golden(ctx8, group8):
    """The benchmark's rank4_walk_q8 unit, checked as the benchmark
    checks it."""
    golden = _load("golden")
    workloads = _load("workloads")
    summary = workloads.rank4_walk(ctx8, group8)
    assert golden.check_rank4_walk(summary) == []


def test_perfbench_selftest_passes():
    out = subprocess.run([sys.executable, str(PERFBENCH / "selftest.py")],
                         cwd=PERFBENCH.parent, capture_output=True,
                         text=True, timeout=300)
    assert out.returncode == 0, out.stdout + out.stderr
