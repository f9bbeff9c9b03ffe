"""Golden verdicts: what a correct szverify reports on each workload.

Exit 3 is the correct verdict of ``verify-all --q 8``: the fixed-set scan
finds 456 members where the closed form lists 8, and three generating
triples lie outside the restricted search.  A run that exits 0 there is a
failure, not a fix.

Each ``check_*`` returns a list of mismatch messages; empty means correct.
"""
from __future__ import annotations

GROUP_FINDINGS = {"order": 29120, "expected": 29120, "sylow_filter": 64,
                  "spot_membership": True}
INVOLUTION_FINDINGS = {"count": 455, "expected": 455, "orbit_of_iota": 455,
                       "single_class": True}
WITNESS_SIGMA_ORDERS = [[7, 13, 5], [7, 7, 7], [7, 13, 13]]

VERIFY_ALL = {
    "exit": 3,
    "stages": [("field", True), ("wilson", True), ("group", True),
               ("fixed-set", False), ("involutions", True), ("rank4", False)],
    "findings": {
        "group": GROUP_FINDINGS,
        "fixed-set": {"closed_form_size": 8, "scan_size": 456,
                      "full_system_solutions": 8},
        "involutions": INVOLUTION_FINDINGS,
        "rank4": {"candidates": 49, "successes": 0,
                  "subgroup_orders": [2, 14], "all_solvable": True,
                  "generating_triples_outside_restriction": 3},
    },
}

# search_rank4 at q = 8 stopped after the first 32 of the 448 generating
# triples that the canonical first w1 has, with the histogram of their
# sigma orders ("o1,o2,o3" -> count).
RANK4_WALK = {
    "candidates": 49, "successes": 0, "subgroup_orders": [2, 14],
    "all_solvable": True, "witnesses": 32, "witness_orders": [29120],
    "witness_sigma_orders": {"7,13,13": 1, "7,13,5": 5, "7,13,7": 7,
                             "7,5,7": 4, "7,7,13": 4, "7,7,5": 4,
                             "7,7,7": 7},
}


def _compare(where, got, expected, out):
    for key, want in expected.items():
        have = got.get(key, "<missing>")
        if have != want:
            out.append(f"{where}.{key} = {have!r}, expected {want!r}")


def _stage_map(report):
    return {s.get("name"): s for s in (report or {}).get("stages", [])}


def check_verify_all(exit_code, report):
    out = []
    if exit_code != VERIFY_ALL["exit"]:
        out.append(f"verify-all exit {exit_code}, expected {VERIFY_ALL['exit']}")
    if report is None:
        return out + ["verify-all wrote no report"]
    stages = _stage_map(report)
    got = [(s.get("name"), s.get("passed")) for s in report.get("stages", [])]
    if got != VERIFY_ALL["stages"]:
        out.append(f"stages {got}, expected {VERIFY_ALL['stages']}")
    for name, expected in VERIFY_ALL["findings"].items():
        _compare(name, stages.get(name, {}).get("findings", {}), expected, out)
    _check_witnesses("rank4_report", report.get("rank4_report"), out)
    return out


def _check_witnesses(where, triples_report, out):
    wits = (triples_report or {}).get("witnesses_outside_restriction")
    if wits is None:
        out.append(f"{where} missing")
        return
    orders = [w.get("sigma_orders") for w in wits]
    if orders != WITNESS_SIGMA_ORDERS:
        out.append(f"{where} witness sigma orders {orders}, "
                   f"expected {WITNESS_SIGMA_ORDERS}")
    if any(w.get("subgroup_order") != 29120 for w in wits):
        out.append(f"{where} witness does not generate Sz(8)")


def check_rank4_walk(summary):
    out = []
    _compare("rank4_walk", summary, RANK4_WALK, out)
    return out
