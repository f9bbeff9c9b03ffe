"""Acceptance gate: nine numbered criteria, one test each.

Each test records its verdict with ``conftest.record_criterion`` before
asserting, so the terminal summary always prints one PASS/FAIL/SKIP line
per criterion.

Criteria 3 and 5 audit two steps of the nonexistence argument that the
computation refutes: the closed form of the fixed set, and the
certification that the restricted rank-4 search is exhaustive.  They
assert the refutation.  A PASS on them means the refutation was
reproduced, not that the claim holds, and their notes say so; never
turn them into a certification.  Each fails if its finding disappears:
criterion 3 if the scan and the closed form agree, criterion 5 if
``verify-all`` exits 0 or fails on a stage other than ``fixed-set`` and
``rank4``.  Criterion 8 asserts the same fixed-set refutation at q = 32
and is opt-in.  The analysis behind each criterion is in its docstring.
"""
import json
import os
import random
import time

import numpy as np
import pytest

import helpers as hp
from conftest import record_criterion
from szverify import cli
from szverify import fixed_set as fs
from szverify import groups as gr
from szverify import kernels as kn
from szverify import linalg4 as la
from szverify import triples as tr
from szverify import wilson as wl

SZ8_ORDER = 29120


def test_criterion_1_group_construction(ctx8):
    t0 = time.monotonic()
    group = gr.build_suzuki(ctx8)
    elapsed = time.monotonic() - t0
    filt = int(kn.suzuki_mask(ctx8, kn.sylow_candidates(ctx8)).sum())
    ok = group.order == SZ8_ORDER and filt == 64 and elapsed < 30.0
    record_criterion(1, ok,
                     f"order {group.order}, sylow filter {filt}, "
                     f"{elapsed:.1f}s")
    assert group.order == SZ8_ORDER == 8 ** 2 * (8 ** 2 + 1) * 7
    assert filt == 64
    assert elapsed < 30.0


def test_criterion_2_membership_soundness(ctx8, group8):
    mask = kn.suzuki_mask(ctx8, group8.entries)
    full_sweep = bool(mask.all()) and len(mask) == SZ8_ORDER
    scalar_ok = all(wl.is_suzuki(ctx8, g)
                    for g in hp.mats(hp.sample(group8, 100, seed=2)))

    rejected = 0
    trans = not wl.is_suzuki(ctx8, wl.e1_transvection(ctx8))
    for k in range(100):
        m = wl.random_symplectic(ctx8, random.Random(1000 + k))
        if not wl.is_suzuki(ctx8, m):
            rejected += 1

    members = hp.mats(hp.sample(group8, 40, seed=21))
    mats = members + [wl.random_symplectic(ctx8, random.Random(2000 + k))
                      for k in range(160)]
    oracle = wl.bruteforce_mask(ctx8, mats).tolist()
    agree = all(oracle[:len(members)]) and oracle == [
        wl.is_suzuki(ctx8, m) for m in mats]

    ok = full_sweep and scalar_ok and rejected == 100 and trans and agree
    record_criterion(2, ok,
                     f"29120/29120 accepted, {rejected}/100 non-members "
                     "rejected, oracle agreement on 200")
    assert full_sweep and scalar_ok
    assert rejected == 100 and trans
    assert agree


def test_criterion_3_fixed_set(ctx8, group8):
    """The closed form {iota} u torus of {x in Sz(8) : x iota x = iota}.

    The claim is refuted; this criterion asserts the refutation.  The
    condition x iota x = iota is equivalent to (x iota)^2 = I, so
    w -> w iota maps {involutions} u {I} one-to-one onto the fixed set:
    (q^2 + 1)(q - 1) + 1 = 456 members at q = 8, against the 8 of the
    closed form.  Every member is symmetric and satisfies the twelve
    equations that the membership identity licenses: ten twisted
    product equations on perpendicular basis pairs and two Gram-form
    equations.  The eight further equations, needed to cut the set down
    to the closed form, come from the non-perpendicular pairs (e1, e4)
    and (e2, e3), for which the identity gives no license; each fails
    on some scan members (they hold on 64 to 113 of the 456).  The full
    20-equation system does cut the scan to exactly the 8 closed-form
    matrices, so the algebra downstream of the unlicensed step is
    sound.  The system has 20 equations, not 22: the four perpendicular
    pairs give 16 coordinate slots, and 6 of them repeat earlier
    equations.
    """
    res = fs.fixed_set_result(ctx8, group8)
    census = fs.equation_census(ctx8, res.brute_force)
    closed = set(hp.mats(res.closed_form))
    scan = set(hp.mats(res.brute_force))
    licensed = [eq.label for eq in fs.EQUATIONS if eq.origin.perpendicular]
    unlicensed = [eq.label for eq in fs.EQUATIONS
                  if not eq.origin.perpendicular]
    n_closed = len(res.closed_form)
    n_scan = len(res.brute_force)
    symmetric = all(la.transpose(x) == x for x in hp.mats(res.brute_force))
    licensed_hold = census.total == n_scan and all(
        census.per_label[lab] == census.total for lab in licensed)
    unlicensed_fail = all(census.per_label[lab] < census.total
                          for lab in unlicensed)
    system_cuts = (census.closed_form_satisfied
                   and census.solutions_match_closed_form)
    ok = (n_scan == fs.expected_scan_size(ctx8) and not res.equal
          and closed < scan and symmetric and licensed_hold
          and unlicensed_fail and system_cuts)
    record_criterion(
        3, ok,
        ("claim REFUTED, not certified: " if ok
         else "refutation NOT reproduced: ")
        + f"the scan finds {n_scan} fixed-set "
        f"members = involutions + 1, the closed form lists {n_closed}; "
        f"the {len(licensed)} licensed equations hold on all {n_scan}, "
        f"each of the {len(unlicensed)} non-perpendicular ones fails on "
        "some")

    assert n_scan == fs.expected_scan_size(ctx8) == 456
    assert n_closed == 8
    assert not res.equal
    assert closed < scan
    assert symmetric
    assert len(licensed) == 12 and licensed_hold
    assert len(unlicensed) == 8 and unlicensed_fail
    assert system_cuts


def test_criterion_4_involution_class(ctx8, group8, involutions8):
    """(q^2 + 1)(q - 1) = 455 involutions in one conjugacy class.

    Count and class are taken on ``involutions8``, a whole-group
    kernels.involution_mask pass, which groups.involutions (read off
    the fixed-point scan) must equal.
    """
    invs = gr.involutions(group8)
    orbit = gr.conjugation_orbit(ctx8, ctx8.iota, group8.generators)
    single = np.array_equal(orbit, involutions8)
    same = np.array_equal(invs, involutions8)
    ok = len(involutions8) == 455 and same and single
    record_criterion(4, ok, f"{len(involutions8)} involutions, single class")
    assert len(involutions8) == 455 == (8 ** 2 + 1) * 7
    assert same
    assert single


def test_criterion_5_rank4_search(ctx8, group8, tmp_path):
    """The certification that no rank-4 generating triple exists.

    The certification is refuted; this criterion asserts the
    refutation.  The restricted search itself is clean: 49 candidate
    pairs, no generating triple, and every generated subgroup solvable
    of order dividing 14.  But exit 0 from ``verify-all`` would certify
    nonexistence, and that does not go through.  The reduction to the
    49-pair space rests on the fixed-set closed form, which the scan
    refutes (criterion 3), and the search finds 3 generating triples
    outside the restricted space.  Each has product exactly iota and
    meets all three involution conditions, with sigma orders (7, 13, 5),
    (7, 7, 7) and (7, 13, 13), and generates the whole group.  So
    ``verify-all`` reports FAIL on the fixed-set and rank4 stages, on
    those two only, and exits 3 by its status contract.  Exit 0 would
    require suppressing a computed counterexample.
    """
    f = ctx8.field
    ident = la.identity()
    t0 = time.monotonic()
    report = tr.search_rank4(ctx8, group8)
    rpt = tmp_path / "verify_all.json"
    rc = cli.main(["verify-all", "--q", "8", "--report", str(rpt)])
    elapsed = time.monotonic() - t0
    stages = (json.loads(rpt.read_text())["stages"] if rpt.is_file()
              else [])
    passed = {s["name"]: s["passed"] for s in stages}
    failing = {name for name, ok in passed.items() if not ok}

    def involution(m):
        return m != ident and la.mat_mul(f, m, m) == ident

    witnesses_ok = []
    for w in report.witnesses:
        s1, s2, s3 = w.triple.mats()
        s12, s23 = la.mat_mul(f, s1, s2), la.mat_mul(f, s2, s3)
        s123 = la.mat_mul(f, s12, s3)
        whole = hp.bfs_closure(ctx8, (s1, s2, s3))
        witnesses_ok.append(
            s123 == ctx8.iota and involution(s12) and involution(s23)
            and involution(s123) and len(whole) == SZ8_ORDER)

    orders = {d.subgroup_order for d in report.details}
    facts = (report.candidates == 49 and report.successes == ()
             and orders == {2, 14}
             and all(d.solvable for d in report.details)
             and elapsed < 120.0)
    refuted = (rc == cli.EXIT_THEOREM
               and list(passed) == list(cli.STAGES)
               and failing == {"fixed-set", "rank4"}
               and not report.certifies_nonexistence
               and len(witnesses_ok) == 3 and all(witnesses_ok))
    ok = facts and refuted
    record_criterion(
        5, ok,
        ("claim REFUTED, nonexistence not certified: " if ok
         else "refutation NOT reproduced: ")
        + f"verify-all exits {rc} "
        f"failing {sorted(failing)}; the {report.candidates} restricted "
        f"pairs give {len(report.successes)} generating triples, but "
        f"{len(report.witnesses)} generating "
        f"triples lie outside the restriction; {elapsed:.0f}s")

    assert report.candidates == 49
    assert report.successes == ()
    assert orders == {2, 14}
    assert all(d.solvable for d in report.details)
    assert all(14 % d.subgroup_order == 0 for d in report.details)
    assert elapsed < 120.0

    assert rc == cli.EXIT_THEOREM
    assert list(passed) == list(cli.STAGES)
    assert failing == {"fixed-set", "rank4"}
    assert not report.certifies_nonexistence
    assert len(witnesses_ok) == 3
    assert all(witnesses_ok)


def test_criterion_6_torus_mechanics(ctx8, ctx32):
    ok8 = tr.torus_inversion_check(ctx8) and tr.torus_commutation_check(ctx8)
    ok32 = (tr.torus_inversion_check(ctx32)
            and tr.torus_commutation_check(ctx32))
    record_criterion(6, ok8 and ok32,
                     "iota inverts, pairs commute; exhaustive at q=8 "
                     "and q=32")
    assert ok8 and ok32


def test_criterion_7_nonsolvability(ctx8, group8):
    series = gr.derived_series(ctx8, group8)
    solvable = gr.derived_series_solvable(ctx8, group8)
    ok = not solvable and series[1].order == group8.order
    record_criterion(7, ok, "derived subgroup is the whole group")
    assert not solvable
    assert [g.order for g in series] == [SZ8_ORDER, SZ8_ORDER]
    # contrast: the dihedral subgroup housing the restricted search is
    # solvable
    dih = gr.closure(ctx8, [fs.torus_elements(ctx8)[1], ctx8.iota],
                     ceiling=100)
    assert gr.derived_series_solvable(ctx8, dih)


def test_criterion_8_stretch_q32(ctx32):
    """The q = 32 pipeline: group order, fixed-set audit, restricted search.

    The fixed-set closed form is refuted here as at q = 8 (criterion 3),
    and this criterion asserts the refutation: the scan has
    (32^2 + 1)(32 - 1) + 1 = 31,776 members, against the 32 of the
    closed form.  Opt-in with SZVERIFY_STRETCH=1; it is not gating.
    """
    if not os.environ.get("SZVERIFY_STRETCH"):
        record_criterion(8, None,
                         "set SZVERIFY_STRETCH=1 to run the q=32 "
                         "pipeline; non-gating")
        pytest.skip("q=32 stretch run is opt-in (SZVERIFY_STRETCH=1)")

    t0 = time.monotonic()
    group = gr.build_suzuki(ctx32)
    order_ok = group.order == 32_537_600
    res = fs.fixed_set_result(ctx32, group)
    n_scan = len(res.brute_force)
    report = tr.search_rank4(ctx32, group)
    elapsed = time.monotonic() - t0
    budget_ok = elapsed < 7200.0
    ok = (order_ok and n_scan == fs.expected_scan_size(ctx32)
          and not res.equal and report.candidates == 961
          and report.successes == ())
    record_criterion(
        8, ok,
        ("fixed-set closed form REFUTED, not certified: " if ok
         else "refutation NOT reproduced: ")
        + f"order {group.order}, scan "
        f"{n_scan}, closed form {len(res.closed_form)}; "
        f"{report.candidates} pairs, {len(report.successes)} generating, "
        f"{elapsed:.0f}s" + ("" if budget_ok else " (over 2h budget)"))

    assert order_ok
    assert report.candidates == 961
    assert report.successes == ()
    if not budget_ok:
        print(f"budget exceeded: {elapsed:.0f}s > 7200s (reported, "
              "not failed)")
    assert n_scan == fs.expected_scan_size(ctx32) == 31_776
    assert not res.equal


def test_criterion_9_property_suites(ctx8, bullet_sweep8):
    f = ctx8.field
    field_ok = True
    for a in range(8):
        for b in range(8):
            field_ok &= f.mul(a, b) == f.mul(b, a)
            field_ok &= (f.frobenius_t(a ^ b)
                         == f.frobenius_t(a) ^ f.frobenius_t(b))
            field_ok &= (f.frobenius_t(f.mul(a, b))
                         == f.mul(f.frobenius_t(a), f.frobenius_t(b)))
            for c in range(8):
                field_ok &= (f.mul(f.mul(a, b), c)
                             == f.mul(a, f.mul(b, c)))
    field_ok &= all(f.mul(a, f.inv(a)) == 1 for a in range(1, 8))
    field_ok &= 2 * ctx8.t * ctx8.t == ctx8.q

    sym_ok, semi_ok = bullet_sweep8
    ok = field_ok and sym_ok and semi_ok
    record_criterion(9, ok,
                     "field axioms, twist, bullet symmetry and "
                     "semilinearity all exhaustive")
    assert field_ok
    assert sym_ok, "bullet symmetry failed somewhere in 16M pairs"
    assert semi_ok, "semilinearity failed somewhere in 134M triples"
