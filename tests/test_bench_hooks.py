"""The benchmark under ``perfbench/`` hooks into szverify by name.

A rename of a traced layer function would otherwise surface only when
the benchmark's traced run fails; here it fails the test suite.
"""
import importlib
import importlib.util
import subprocess
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_targets_resolve():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", PERFBENCH / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.TARGETS
    for mod_name, fn_name in tracer.TARGETS:
        mod = importlib.import_module(f"szverify.{mod_name}")
        assert callable(getattr(mod, fn_name, None)), f"{mod_name}.{fn_name}"


def test_perfbench_selftest_passes():
    out = subprocess.run([sys.executable, str(PERFBENCH / "selftest.py")],
                         cwd=PERFBENCH.parent, capture_output=True,
                         text=True, timeout=300)
    assert out.returncode == 0, out.stdout + out.stderr
