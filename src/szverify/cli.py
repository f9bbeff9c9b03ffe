"""Batch driver for the verification stages.

Subcommands: field-selftest, build-group, enumerate-x, check-equations,
involutions, search-rank4, verify-all.

Exit status: 0 when every executed check passes; 2 for usage errors;
3 when a checked claim is contradicted by the computation (a theorem
finding, e.g. the fixed-set scan disagreeing with its closed form);
5 for internal verification failures, any defect the engine detects.
"""
from __future__ import annotations

import argparse
import json
import os
import random
import sys
import time
from dataclasses import dataclass
from functools import cached_property, partial
from pathlib import Path
from typing import List, Optional

import numpy as np

from . import fixed_set as fs
from . import groups as gr
from . import kernels as kn
from . import linalg4 as la
from . import triples as tr
from . import wilson as wl
from .context import make_context
from .errors import SzVerifyError

EXIT_PASS = 0
EXIT_USAGE = 2
EXIT_THEOREM = 3
EXIT_INTERNAL = 5

# The --q choices, each with its e (q = 2^(2e+1)).
_E_FOR_Q = {8: 1, 32: 2}


@dataclass
class StageResult:
    name: str
    passed: bool
    elapsed_s: float
    claim: str
    findings: dict

    def to_json_dict(self) -> dict:
        return {"name": self.name, "passed": self.passed,
                "elapsed_s": round(self.elapsed_s, 3), "claim": self.claim,
                "findings": self.findings}


def _print_stage(res: StageResult) -> None:
    mark = "PASS" if res.passed else "FAIL"
    print(f"[{res.name:<12}] {mark}  ({res.elapsed_s:6.2f}s)  {res.claim}")
    if not res.passed:
        for k, v in res.findings.items():
            print(f"    {k}: {v}")


class RunState:
    """What the stages of one subcommand share.

    ``group`` is the only place a subcommand gets Sz(q): it is built on
    first use, so in verify-all its build is timed inside the group
    stage.  ``stage`` runs, times and collects one stage of ``STAGES``.
    """

    def __init__(self, args):
        self.args = args
        self.ctx = make_context(_E_FOR_Q[args.q])
        self.results: List[StageResult] = []
        self.rank4: Optional[tr.TripleReport] = None

    @cached_property
    def group(self) -> gr.GroupSet:
        return gr.build_suzuki(self.ctx)

    def stage(self, name: str) -> StageResult:
        t0 = time.monotonic()
        passed, claim, findings = STAGES[name](self)
        res = StageResult(name, passed, time.monotonic() - t0, claim,
                          findings)
        self.results.append(res)
        return res

    def payload(self) -> dict:
        return {"schema": "szverify-run v1", "q": self.args.q,
                "stages": [r.to_json_dict() for r in self.results],
                "overall": all(r.passed for r in self.results)}


def _stage_field(state: RunState):
    ctx = state.ctx
    f = ctx.field
    q = ctx.q
    ok = 2 * ctx.t * ctx.t == q
    ok &= all(f.mul(a, b) == f.mul(b, a)
              for a in range(q) for b in range(q))
    ok &= all(f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
              for a in range(0, q, max(1, q // 8))
              for b in range(q) for c in range(q))
    ok &= all(f.mul(a, b ^ c) == (f.mul(a, b) ^ f.mul(a, c))
              for a in range(q) for b in range(q)
              for c in range(0, q, max(1, q // 8)))
    ok &= all(f.mul(a, f.inv(a)) == 1 for a in range(1, q))
    ok &= all(f.frobenius_t(a ^ b)
              == (f.frobenius_t(a) ^ f.frobenius_t(b))
              for a in range(q) for b in range(q))
    ok &= all(f.frobenius_t(f.mul(a, b))
              == f.mul(f.frobenius_t(a), f.frobenius_t(b))
              for a in range(q) for b in range(q))
    ok &= all(f.frobenius_t(f.frobenius_t(a)) == f.pow(a, q // 2)
              for a in range(1, q))
    return ok, (f"GF({q}) arithmetic exact; Frobenius twist t={ctx.t} "
                f"additive, multiplicative, with 2t^2 = q"), {"q": q}


def _stage_wilson(state: RunState):
    ctx = state.ctx
    f = ctx.field
    findings = {}
    basis = [la.basis_vec(i) for i in range(4)]
    table_ok = all(
        wl.bullet(ctx, basis[i], basis[j]) == wl.bullet(ctx, basis[j],
                                                        basis[i])
        for i in range(4) for j in range(4))
    nonzero = sum(any(wl.bullet(ctx, basis[i], basis[j]))
                  for i in range(4) for j in range(4))
    findings["nonzero_basis_products"] = nonzero
    rng = random.Random(7)
    semi_ok = True
    for _ in range(50):
        u = tuple(rng.randrange(ctx.q) for _ in range(4))
        v = tuple(rng.randrange(ctx.q) for _ in range(4))
        c = rng.randrange(1, ctx.q)
        lhs = wl.bullet(ctx, la.vec_scale(f, c, u), v)
        rhs = la.vec_scale(f, f.frobenius_t(c), wl.bullet(ctx, u, v))
        semi_ok &= lhs == rhs
    # One membership batch: the known members (identity, iota, the
    # torus), the transvection, then 100 random symplectic matrices.
    members = np.concatenate([kn.mats_to_entries([la.identity(), ctx.iota]),
                              fs.torus_elements(ctx)])
    randoms = wl.random_symplectics(
        ctx, [random.Random(1000 + k) for k in range(100)])
    mask = kn.suzuki_mask(ctx, np.concatenate(
        [members, kn.mats_to_entries([wl.e1_transvection(ctx)]), randoms]))
    members_ok = bool(mask[:len(members)].all())
    trans_rejected = not mask[len(members)]
    random_mask = mask[len(members) + 1:]
    rejected = int(len(randoms) - random_mask.sum())
    agree = ctx.q > 8 or np.array_equal(
        wl.bruteforce_mask(ctx, randoms[:10]), random_mask[:10])
    findings["random_symplectic_rejected"] = rejected
    ok = (table_ok and nonzero == 8 and semi_ok and members_ok
          and trans_rejected and rejected >= 90 and agree)
    return ok, ("membership test: symmetric 8-entry product table, "
                "twisted semilinearity, accepts the torus and iota, "
                "rejects transvections"), findings


def _stage_group(state: RunState):
    ctx = state.ctx
    expected = ctx.group_order
    group = state.group
    verified = int(kn.suzuki_mask(ctx, group.entries).sum())
    # "spot_membership" keeps its name for readers of the report; it
    # now says that every element passed.  build_suzuki raised unless
    # its Sylow filter kept exactly q^2 candidates.
    members_ok = verified == group.order
    findings = {"order": group.order, "expected": expected,
                "sylow_filter": ctx.sylow_order, "spot_membership": members_ok,
                "members_verified": verified}
    ok = group.order == expected and members_ok
    return ok, (f"Sz({ctx.q}) closes to order q^2(q^2+1)(q-1) = "
                f"{expected} from a q^2-element Sylow filter"), findings


def _scan_census(state: RunState):
    """The equation census of the symmetric fixed-set scan members, the
    system's domain, and the number of asymmetric members."""
    scan = state.group.fixed_points.reshape(-1, 4, 4)
    symmetric = (scan == scan.transpose(0, 2, 1)).all(axis=(1, 2))
    return (fs.equation_census(state.ctx, scan[symmetric]),
            int(len(scan) - symmetric.sum()))


def _stage_fixed_set(state: RunState):
    ctx = state.ctx
    result = fs.fixed_set_result(ctx, state.group)
    census, asymmetric = _scan_census(state)
    all_symmetric = not asymmetric
    findings = {
        "closed_form_size": len(result.closed_form),
        "scan_size": len(result.brute_force),
        "scan_size_is_involutions_plus_one":
            len(result.brute_force) == fs.expected_scan_size(ctx),
        "scan_all_symmetric": all_symmetric,
        "closed_form_satisfies_all_equations":
            census.closed_form_satisfied,
        "full_system_solutions": len(census.full_solutions),
        "full_system_solutions_equal_closed_form":
            census.solutions_match_closed_form,
        "equations_holding_on_every_scan_member":
            sorted(lab for lab, n in census.per_label.items()
                   if n == census.total) if all_symmetric else None,
    }
    return (result.equal and all_symmetric,
            ("the set {x : x iota x = iota} in Sz(q) equals {iota} union "
             f"the diagonal torus ({1 + (ctx.q - 1)} matrices)"), findings)


def _stage_involutions(state: RunState):
    ctx = state.ctx
    group = state.group
    invs = gr.involutions(group)
    expected = ctx.involution_count
    orbit = gr.conjugation_orbit(ctx, ctx.iota, group.generators)
    single = np.array_equal(orbit, invs)
    findings = {"count": len(invs), "expected": expected,
                "orbit_of_iota": len(orbit), "single_class": single}
    ok = len(invs) == expected and single
    return ok, (f"Sz({ctx.q}) has exactly (q^2+1)(q-1) = {expected} "
                "involutions forming a single conjugacy class"), findings


def _stage_rank4(state: RunState):
    """Also keeps the search's report as ``state.rank4``."""
    ctx = state.ctx
    report = state.rank4 = tr.search_rank4(ctx, state.group)
    inv_ok = tr.torus_inversion_check(ctx)
    comm_ok = tr.torus_commutation_check(ctx)
    findings = {
        "candidates": report.candidates,
        "successes": len(report.successes),
        "subgroup_orders": sorted({d.subgroup_order
                                   for d in report.details}),
        "all_solvable": all(d.solvable for d in report.details),
        "torus_inversion": inv_ok,
        "torus_commutation": comm_ok,
        "reduction_complete": report.reduction.fixed_set_equal,
        "generating_triples_outside_restriction": len(report.witnesses),
    }
    ok = report.certifies_nonexistence and inv_ok and comm_ok
    return ok, ("no generating triple with the three involution "
                "conditions exists (restricted search plus "
                "completeness audit)"), findings


# Each stage returns (passed, claim, findings).  verify-all runs them
# in this order.
STAGES = {
    "field": _stage_field,
    "wilson": _stage_wilson,
    "group": _stage_group,
    "fixed-set": _stage_fixed_set,
    "involutions": _stage_involutions,
    "rank4": _stage_rank4,
}


def _write_report(path: Optional[str], payload: dict) -> None:
    if path:
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")


def cmd_stage(name: str, args) -> int:
    """One stage alone: field-selftest, build-group and involutions."""
    state = RunState(args)
    res = state.stage(name)
    _print_stage(res)
    _write_report(args.report, state.payload())
    return EXIT_PASS if res.passed else EXIT_THEOREM


def cmd_enumerate_x(args) -> int:
    state = RunState(args)
    closed = fs.closed_form_X(state.ctx)
    payload = {"schema": "szverify-fixed-set v1", "q": args.q,
               "mode": args.mode}
    status = EXIT_PASS
    if args.mode in ("closed-form", "both"):
        print(f"closed form ({len(closed)} matrices):")
        for x in closed:
            print("  " + la.mat_to_hex(x))
        payload["closed_form"] = [la.mat_to_hex(x) for x in closed]
    if args.mode in ("scan", "both"):
        scan = state.group.fixed_points
        payload["scan_size"] = len(scan)
        payload["scan_sample"] = [la.mat_to_hex(x) for x in scan[:16]]
        print(f"scan: {len(scan)} matrices with x.iota.x = iota")
        if args.mode == "both":
            equal = np.array_equal(closed, scan)
            payload["equal"] = equal
            print(f"closed form == brute force: {str(equal).lower()}")
            if not equal:
                status = EXIT_THEOREM
    _write_report(args.report, payload)
    return status


def cmd_check_equations(args) -> int:
    state = RunState(args)
    census, asymmetric = _scan_census(state)
    print(f"scan members: {census.total}")
    if asymmetric:
        print(f"asymmetric scan members, outside the system: {asymmetric}")
    print(f"{'label':<6} {'satisfied':>9}  origin")
    for eq in fs.EQUATIONS:
        o = eq.origin
        if o.kind == "product":
            src = (f"product pair (e{o.i + 1}, e{o.j + 1}) coord {o.coord}"
                   + ("" if o.perpendicular else "  [not perpendicular]"))
        else:
            src = f"Gram position ({o.i + 1}, {o.j + 1})"
        print(f"{eq.label:<6} {census.per_label[eq.label]:>9}  {src}")
    print(f"full-system solutions: {len(census.full_solutions)} "
          f"(closed form size {len(census.closed_form)})")
    ok = (not asymmetric and census.closed_form_satisfied
          and census.solutions_match_closed_form)
    print("closed form satisfies every equation: "
          f"{str(census.closed_form_satisfied).lower()}")
    payload = {"schema": "szverify-equations-census v1", "q": args.q,
               "scan_members": census.total, "per_label": census.per_label,
               "full_system_solutions": len(census.full_solutions),
               "closed_form_satisfied": census.closed_form_satisfied,
               "solutions_match_closed_form":
                   census.solutions_match_closed_form}
    if asymmetric:
        payload["asymmetric_scan_members"] = asymmetric
    _write_report(args.report, payload)
    return EXIT_PASS if ok else EXIT_THEOREM


def cmd_search_rank4(args) -> int:
    state = RunState(args)
    res = state.stage("rank4")
    report = state.rank4
    print(f"candidates: {report.candidates}, successes: "
          f"{len(report.successes)}")
    _print_stage(res)
    if report.witnesses:
        print(f"restriction incomplete: {len(report.witnesses)} generating "
              "triple(s) satisfy every involution condition outside the "
              "restricted space, e.g.:")
        w = report.witnesses[0]
        for name, m in zip(("sigma1", "sigma2", "sigma3"), w.triple.mats()):
            print(f"  {name} = {la.mat_to_hex(m)}")
        print(f"  subgroup order {w.subgroup_order}, sigma orders "
              f"{list(w.sigma_orders)}")
    _write_report(args.report, report.to_json_dict())
    return EXIT_PASS if res.passed else EXIT_THEOREM


def cmd_verify_all(args) -> int:
    state = RunState(args)
    for name in STAGES:
        _print_stage(state.stage(name))
    payload = state.payload()
    print(f"overall: {'PASS' if payload['overall'] else 'FAIL'}")
    payload["rank4_report"] = state.rank4.to_json_dict()
    _write_report(args.report, payload)
    return EXIT_PASS if payload["overall"] else EXIT_THEOREM


def _add_common(p: argparse.ArgumentParser, mode: bool = False) -> None:
    p.add_argument("--q", type=int, choices=tuple(_E_FOR_Q), default=8)
    p.add_argument("--report", default=None)
    if mode:
        p.add_argument("--mode", choices=("closed-form", "scan", "both"),
                       default="both")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="szverify",
        description="Exact verification of Sz(q) membership, fixed-set and "
                    "generating-triple claims.")
    sub = parser.add_subparsers(dest="command", required=True)
    specs = (
        ("field-selftest", partial(cmd_stage, "field"), False),
        ("build-group", partial(cmd_stage, "group"), False),
        ("enumerate-x", cmd_enumerate_x, True),
        ("check-equations", cmd_check_equations, False),
        ("involutions", partial(cmd_stage, "involutions"), False),
        ("search-rank4", cmd_search_rank4, False),
        ("verify-all", cmd_verify_all, False),
    )
    for name, fn, mode in specs:
        p = sub.add_parser(name)
        _add_common(p, mode=mode)
        p.set_defaults(fn=fn)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    # before the first stage, so that no run ends on an unwritable report
    report = args.report and Path(args.report)
    if report and (report.is_dir() or not report.parent.is_dir()
                   or not os.access(report if report.exists()
                                    else report.parent, os.W_OK)):
        print("szverify: report path is a directory, its directory does "
              f"not exist, or it is not writable: {args.report}",
              file=sys.stderr)
        return EXIT_USAGE
    try:
        return args.fn(args)
    except SzVerifyError as ex:
        print(f"verification error: {ex}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
