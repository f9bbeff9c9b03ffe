"""szverify benchmark: time to a correct verdict, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source tree; szverify is imported from its ``src``.
Each run first sets up SETUP_REPS times in fresh processes (set-up time is
the median), then repeats the workload's unit until the next one would
pass S seconds of measured time (one unit at minimum), checking every
unit against the golden verdict, and reports medians over the units.
``--trace 1`` adds one traced unit and reports per-layer metrics instead
of end-to-end ones.  The last line of standard output is the JSON result;
the lines before it record provenance and each unit.  The q = 8 inputs
are fixed by the program, so the seed is recorded but selects nothing.
See perfbench/README.md for the workloads and metrics.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import traceback
from pathlib import Path

import golden
import tracer

HERE = Path(__file__).resolve().parent
WORKER = HERE / "worker.py"

WORKLOADS = ("verify_all_q8", "rank4_walk_q8")
STAGES = ("field", "wilson", "group", "fixed-set", "involutions", "rank4")
SETUP_REPS = 5
DEADLINE_S = 170.0


class RunError(Exception):
    """A child process could not produce a measurement."""


class Runner:
    """Starts and reaps the child processes of one benchmark run."""

    def __init__(self, root: Path, work: Path):
        self.work = work
        self.deadline = time.monotonic() + DEADLINE_S
        env = dict(os.environ)
        env.pop("SUZUKI_CACHE_DIR", None)
        env["PYTHONPATH"] = str(root / "src")
        env["PYTHONDONTWRITEBYTECODE"] = "1"
        self.env = env
        self._count = 0

    def fresh_dir(self) -> Path:
        self._count += 1
        d = self.work / f"r{self._count}"
        d.mkdir()
        return d

    def spawn(self, argv, cwd: Path):
        """Run argv to completion: (exit, wall_s, cpu_s, rss_mb, output)."""
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise RunError("run deadline passed")
        self._count += 1
        log = cwd / f"out{self._count}.txt"
        with open(log, "w") as out:
            t0 = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *map(str, argv)],
                                    cwd=cwd, env=self.env, stdout=out,
                                    stderr=subprocess.STDOUT)
            timer = threading.Timer(remaining, proc.kill)
            timer.start()
            try:
                _, status, ru = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        if code < 0:
            raise RunError(f"{argv[:4]} killed by signal {-code}")
        return (code, wall, ru.ru_utime + ru.ru_stime, ru.ru_maxrss / 1024.0,
                log.read_text())

    def setup(self, workload) -> float:
        code, _, _, _, text = self.spawn([WORKER, "setup", workload],
                                         self.fresh_dir())
        if code != 0:
            raise RunError(f"set-up exited {code}: {text[-500:]}")
        return json.loads(text.strip().splitlines()[-1])["setup_s"]

    def cli(self, argv, cwd: Path, traced: bool):
        if not traced:
            return self.spawn(["-m", "szverify.cli", *argv], cwd) + (None,)
        out = cwd / f"trace-{argv[0]}.json"
        res = self.spawn([WORKER, "cli", out, "--", *argv], cwd)
        spans = json.loads(out.read_text())["spans"] if out.exists() else []
        return res + (spans,)

    def verify_all(self, traced=False) -> dict:
        """One cold ``verify-all --q 8`` process, checked against golden."""
        d = self.fresh_dir()
        report = d / "report.json"
        code, wall, cpu, rss, _, spans = self.cli(
            ["verify-all", "--q", "8", "--report", report], d, traced)
        rep_json = _read_json(report)
        return {"wall_s": wall, "cpu_s": cpu, "rss_mb": rss,
                "process_wall_s": wall, "spans": spans,
                "stages": _stage_seconds(rep_json),
                "errors": golden.check_verify_all(code, rep_json)}

    def body(self, workload, seconds, traced=False):
        """Units of an in-process workload in one worker: a list of
        (rep, errors) with rep None for the untimed warm-up unit."""
        d = self.fresh_dir()
        out = d / "body.json"
        code, _, _, rss, text = self.spawn(
            [WORKER, "body", workload, seconds, int(traced), out], d)
        body = _read_json(out)
        if code != 0 or body is None:
            raise RunError(f"{workload} worker exited {code}: {text[-500:]}")
        checks = [golden.check_rank4_walk(s) for s in body["summaries"]]
        warmups = len(checks) - len(body["units"])
        units = [(None, e) for e in checks[:warmups]]
        for (wall, cpu), errors in zip(body["units"], checks[warmups:]):
            units.append(({"wall_s": wall, "cpu_s": cpu, "rss_mb": rss,
                           "process_wall_s": body["setup_s"] + wall,
                           "spans": body["spans"], "stages": {},
                           "errors": errors}, errors))
        return units


def _read_json(path: Path):
    """The JSON object in ``path``, or None if it is missing or not one."""
    try:
        obj = json.loads(path.read_text())
    except (OSError, ValueError):
        return None
    return obj if isinstance(obj, dict) else None


def _stage_seconds(report):
    """``elapsed_s`` per stage name of a CLI --report file."""
    return {stage["name"]: stage["elapsed_s"]
            for stage in (report or {}).get("stages", [])}


def end_to_end_metrics(setups, reps):
    return {
        "wall_s": (statistics.median(r["wall_s"] for r in reps), "s"),
        "cpu_s": (statistics.median(r["cpu_s"] for r in reps), "s"),
        "peak_rss_mb": (max(r["rss_mb"] for r in reps), "MB"),
        "setup_s": (statistics.median(setups), "s"),
    }


def per_layer_metrics(reps, traced):
    """Layer figures from the traced unit; cli.stage.* and the overhead
    baseline from the untraced ones."""
    metrics = tracer.layer_metrics(traced["spans"] or [])
    self_total = sum(metrics[f"{name}_s"][0] for name in tracer.SPAN_NAMES)
    for stage in STAGES:
        vals = [r["stages"].get(stage, 0.0) for r in reps]
        metrics[f"cli.stage.{stage}_s"] = (statistics.median(vals), "s")
    trace_wall = traced["process_wall_s"]
    untraced_wall = statistics.median(r["process_wall_s"] for r in reps)
    metrics["trace.wall_s"] = (trace_wall, "s")
    metrics["trace.remainder_s"] = (trace_wall - self_total, "s")
    metrics["trace.overhead_s"] = (trace_wall - untraced_wall, "s")
    return metrics


def host_probe_s() -> float:
    """Seconds for a fixed pure-Python loop, to show how fast the host ran.

    CPU throughput of a shared host drifts by tens of percent over
    minutes; load average alone does not show it.
    """
    t0 = time.perf_counter()
    acc = 0
    for i in range(500_000):
        acc += i * i
    return time.perf_counter() - t0


def provenance(root: Path) -> dict:
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode())
        digest.update(path.read_bytes())
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                                capture_output=True, text=True,
                                timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {"git_commit": commit, "src_sha256": digest.hexdigest(),
            "python": platform.python_version(), "numpy": numpy_version,
            "nproc": os.cpu_count(),
            "pinned_cpu": sorted(os.sched_getaffinity(0)),
            "loadavg_start": os.getloadavg(),
            "host_probe_s_start": host_probe_s()}


def _attempt(errors, fn, *args):
    """fn(*args), or None if it produced no measurement; either way one
    entry is appended to ``errors``.  Output the golden checks cannot
    parse counts as a mismatch, with its traceback on stderr."""
    try:
        rep = fn(*args)
    except RunError as ex:
        errors.append([str(ex)])
        return None
    except (KeyError, TypeError, AttributeError, ValueError) as ex:
        traceback.print_exc()
        errors.append([f"unreadable output: {ex!r}"])
        return None
    errors.append(rep["errors"])
    return rep


def _measure(runner, workload, seconds, errors):
    """Untraced units until the next one would pass ``seconds`` of
    measured time, one at minimum; each appends to ``errors``."""
    if workload != "verify_all_q8":
        try:
            units = runner.body(workload, seconds)
        except RunError as ex:
            errors.append([str(ex)])
            return []
        errors.extend(e for _, e in units)
        return [rep for rep, _ in units if rep is not None]
    reps = []
    while not reps or (sum(r["wall_s"] for r in reps)
                       + statistics.median(r["wall_s"] for r in reps)
                       <= seconds):
        rep = _attempt(errors, runner.verify_all)
        if rep is None:
            break
        reps.append(rep)
    return reps


def _traced(runner, workload, errors):
    if workload == "verify_all_q8":
        return _attempt(errors, runner.verify_all, True)
    try:
        units = runner.body(workload, 0, True)
    except RunError as ex:
        errors.append([str(ex)])
        return None
    errors.extend(e for _, e in units)
    return units[-1][0]


def run(root: Path, workload: str, seed: int, seconds: float, trace: bool):
    work_root = root / ".perfbench_work"
    work_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=work_root))
    prov = provenance(root)
    errors, reps, setups, traced = [], [], [], None
    try:
        runner = Runner(root, work)
        for _ in range(SETUP_REPS):
            try:
                setups.append(runner.setup(workload))
                errors.append([])
            except RunError as ex:
                errors.append([str(ex)])
        if setups:
            reps = _measure(runner, workload, seconds, errors)
        if trace and reps:
            traced = _traced(runner, workload, errors)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    prov["loadavg_end"] = os.getloadavg()
    prov["host_probe_s_end"] = host_probe_s()
    if traced is not None:
        (work_root / f"trace-{workload}-{seed}.json").write_text(json.dumps(
            {"provenance": prov, "spans": traced["spans"]}))
    attempted = len(errors)
    failed = sum(1 for e in errors if e)
    print(json.dumps({"provenance": prov}))
    for i, rep in enumerate(reps + ([traced] if traced else [])):
        print(json.dumps({"rep": i, "traced": rep is traced,
                          "wall_s": rep["wall_s"], "cpu_s": rep["cpu_s"],
                          "rss_mb": rep["rss_mb"], "stages": rep["stages"],
                          "errors": rep["errors"]}))
    for e in errors:
        for msg in e:
            print(f"golden mismatch: {msg}", file=sys.stderr)
    print(json.dumps({"workload": workload, "seed": seed, "runs": len(reps),
                      "setup_runs": len(setups), "setup_s": setups,
                      "error_rate": failed / attempted}))
    if not reps or not setups or (trace and traced is None):
        metrics = {}
    elif trace:
        metrics = per_layer_metrics(reps, traced)
    else:
        metrics = end_to_end_metrics(setups, reps)
    return {"correct": failed == 0 and bool(metrics), "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u}
                        for k, (v, u) in metrics.items()}}


def _terminate(signum, _frame):
    """SIGTERM unwinds like an exception, so the running child is killed
    and reaped and the scratch directory removed."""
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    root = HERE.parent
    if not (root / "src" / "szverify" / "__init__.py").is_file():
        print(f"no szverify source tree under {root / 'src'}", file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, _terminate)
    # The host's vCPUs run at different speeds that drift apart by 10-25 %;
    # a process the scheduler happens to place on the slower one makes a
    # second mode in the timings.  Children inherit this pinning.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    result = run(root, args.workload, args.seed, args.seconds,
                 bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
