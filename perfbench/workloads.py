"""In-process workload: set-up and the timed unit that call szverify's API.

Imported only by worker processes, after ``src`` is on the path.  The
unit returns a JSON-ready summary that ``golden`` checks in the parent.
"""
from __future__ import annotations

from collections import Counter

import szverify
from szverify import triples as tr

# The full walk for the first w1 finds 448 generating triples in about
# 30 s; a unit of 32 takes about 2.3 s, so one run times many units and
# reports their median.
RANK4_WITNESSES = 32


def setup(workload):
    """The untimed preparation; returns the state the timed unit needs."""
    ctx = szverify.make_context(1)
    if workload == "rank4_walk_q8":
        return ctx, szverify.build_suzuki(ctx)
    return ctx, None


def rank4_walk(ctx, group):
    """search_rank4, walking w3 for the canonical first w1 until
    RANK4_WITNESSES generating triples are found.

    The walk is fixed by the group's canonical order, so it has no seed.
    """
    report = tr.search_rank4(ctx, group, witness_count=RANK4_WITNESSES)
    hist = Counter(",".join(map(str, w.sigma_orders))
                   for w in report.witnesses)
    return {
        "candidates": report.candidates,
        "successes": len(report.successes),
        "subgroup_orders": sorted({d.subgroup_order for d in report.details}),
        "all_solvable": all(d.solvable for d in report.details),
        "witnesses": len(report.witnesses),
        "witness_orders": sorted({w.subgroup_order
                                  for w in report.witnesses}),
        "witness_sigma_orders": dict(sorted(hist.items())),
    }


UNITS = {"rank4_walk_q8": rank4_walk}
