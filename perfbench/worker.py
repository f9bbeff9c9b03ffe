"""Child process of run.py, which itself never imports szverify.

    worker.py setup WORKLOAD            print {"setup_s": ...}
    worker.py body WORKLOAD SECONDS TRACE OUT
                                        set up, then time units of the
                                        in-process workload; write their
                                        timings, summaries and spans
    worker.py cli OUT -- ARGV...        traced ``szverify.cli.main(ARGV)``,
                                        write the exit code and spans

``src`` must be on PYTHONPATH.  Set-up time runs from before the import
of szverify to the end of ``workloads.setup``.
"""
from __future__ import annotations

import json
import statistics
import sys
import time


def _tracer(enabled):
    if not enabled:
        return None
    import tracer
    t = tracer.Tracer()
    tracer.install(t)
    return t


def cmd_setup(workload):
    t0 = time.perf_counter()
    import workloads
    workloads.setup(workload)
    print(json.dumps({"setup_s": time.perf_counter() - t0}))


def cmd_body(workload, seconds, trace, out):
    """Untraced: one warm-up unit, then units until the next one would
    pass ``seconds`` of measured time.  Traced: one unit after set-up,
    with set-up's spans kept."""
    t0 = time.perf_counter()
    t = _tracer(trace == "1")
    import workloads
    ctx, state = workloads.setup(workload)
    setup_s = time.perf_counter() - t0
    unit = workloads.UNITS[workload]
    summaries = [] if t else [unit(ctx, state)]
    units = []
    budget = float(seconds)
    while not units or (not t and sum(w for w, _ in units)
                        + statistics.median(w for w, _ in units) <= budget):
        w0, c0 = time.perf_counter(), time.process_time()
        summaries.append(unit(ctx, state))
        units.append((time.perf_counter() - w0, time.process_time() - c0))
    record = {"setup_s": setup_s, "units": units, "summaries": summaries,
              "spans": t.spans if t else None}
    with open(out, "w") as fh:
        json.dump(record, fh)


def cmd_cli(out, argv):
    t = _tracer(True)
    from szverify import cli
    code = cli.main(argv)
    with open(out, "w") as fh:
        json.dump({"exit": code, "spans": t.spans}, fh)
    return code


def main(argv):
    if argv[:1] == ["setup"] and len(argv) == 2:
        cmd_setup(argv[1])
    elif argv[:1] == ["body"] and len(argv) == 5:
        cmd_body(*argv[1:])
    elif argv[:1] == ["cli"] and len(argv) > 3 and argv[2] == "--":
        return cmd_cli(argv[1], argv[3:])
    else:
        print(__doc__, file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
