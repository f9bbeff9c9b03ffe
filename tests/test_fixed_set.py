import random

import numpy as np
import pytest

import helpers as hp
from szverify import fixed_set as fs
from szverify import groups as gr
from szverify import linalg4 as la
from szverify import wilson as wl
from szverify.errors import FieldRangeError, SingularMatrixError

# Satisfaction counts over the 456 scanned fixed-set members at q = 8,
# frozen from the first full census run.  The sound equations hold
# everywhere; the eight from non-perpendicular pairs do not.
FROZEN_COUNTS = {
    "S1": 456, "S2": 456, "S3": 456, "S4": 456, "S5": 456,
    "S6": 456, "S7": 456, "S8": 456, "S9": 456, "S10": 456,
    "S11": 113, "S12": 64, "S13": 64, "S14": 113,
    "S15": 113, "S16": 64, "S17": 64, "S18": 113,
    "P14": 456, "P23": 456,
}


def test_torus_element_shape(ctx8):
    f = ctx8.field
    for a, m in enumerate(hp.mats(fs.torus_elements(ctx8)), 1):
        assert m == la.diag(a, f.pow(a, 2 * ctx8.t + 1),
                            f.pow(a, -(2 * ctx8.t + 1)), f.inv(a))
        assert la.is_symplectic(f, m)
        assert wl.is_suzuki(ctx8, m)


def test_torus_is_cyclic_of_order_q_minus_1(ctx8):
    els = fs.torus_elements(ctx8)
    assert len(els) == 7
    assert len(set(hp.mats(els))) == 7
    g = gr.closure(ctx8, [fs.torus_elements(ctx8)[1]], ceiling=100)
    assert g.order == 7


def test_closed_form_members(ctx8, group8):
    closed = hp.mats(fs.closed_form_X(ctx8))
    assert len(closed) == 8
    assert ctx8.iota in closed
    for x in closed:
        assert x in group8
        assert hp.in_fixed_set(ctx8, x)
        assert la.transpose(x) == x


def test_scan_size_is_involution_count_plus_one(ctx8, group8,
                                                involutions8):
    scan = group8.fixed_points
    assert len(scan) == fs.expected_scan_size(ctx8) == 456
    assert len(scan) == len(involutions8) + 1


def test_scan_is_involutions_times_iota(ctx8, group8, involutions8):
    """w -> w . iota maps {involutions} union {I} bijectively onto the
    scan set: x iota x = iota iff (x iota)^2 = I.  The involutions come
    from kernels.involution_mask, not from the scan."""
    f = ctx8.field
    scan = set(hp.mats(group8.fixed_points))
    image = {la.mat_mul(f, w, ctx8.iota) for w in hp.mats(involutions8)}
    image.add(ctx8.iota)  # w = I
    assert image == scan
    # the walk order of triples.find_rank4_witnesses
    walk = sorted(la.mat_mul(f, x, ctx8.iota) for x in scan
                  if x not in (ctx8.iota, la.identity()))
    assert walk == [w for w in hp.mats(involutions8) if w != ctx8.iota]


def test_every_scan_member_symmetric(ctx8, group8):
    for x in hp.mats(group8.fixed_points):
        assert hp.symmetry_lemma_check(ctx8, x)


def test_symmetry_lemma_preconditions(ctx8):
    with pytest.raises(ValueError):
        hp.symmetry_lemma_check(ctx8, la.diag(1, 1, 1, 3))  # not symplectic
    with pytest.raises(ValueError):
        # symplectic but (x iota)^2 != I
        hp.symmetry_lemma_check(ctx8, wl.e1_transvection(ctx8))


def test_fixed_set_result_is_unequal(ctx8, group8):
    """The scan strictly contains the closed form: 456 vs 8 matrices."""
    res = fs.fixed_set_result(ctx8, group8)
    assert len(res.closed_form) == 8
    assert len(res.brute_force) == 456
    assert not res.equal
    assert set(hp.mats(res.closed_form)) < set(hp.mats(res.brute_force))


def test_equation_count_and_labels():
    assert len(fs.EQUATIONS) == 20
    labels = [eq.label for eq in fs.EQUATIONS]
    assert labels == [f"S{i}" for i in range(1, 19)] + ["P14", "P23"]
    assert len(set(labels)) == 20


def test_duplicate_coords_cover_perp_pairs():
    """4 perpendicular pairs x 4 coordinates = 16 slots: 10 distinct
    equations plus 6 coordinate repeats."""
    seen = {(eq.origin.i, eq.origin.j, eq.origin.coord)
            for eq in fs.EQUATIONS
            if eq.origin.kind == "product" and eq.origin.perpendicular}
    dup = set(hp.DUPLICATE_COORDS)
    assert not seen & dup
    for i, j in fs.PERP_PRODUCT_PAIRS:
        for coord in range(4):
            assert (i, j, coord) in seen or (i, j, coord) in dup
    labels = {eq.label for eq in fs.EQUATIONS}
    assert set(hp.DUPLICATE_COORDS.values()) <= labels


def test_nonperp_equations_cover_both_pairs():
    got = [(eq.origin.i, eq.origin.j, eq.origin.coord)
           for eq in fs.EQUATIONS if not eq.origin.perpendicular]
    want = [(i, j, c) for i, j in fs.NONPERP_PRODUCT_PAIRS for c in range(4)]
    assert got == want


def _render(terms):
    """An equation side written back from fixed_set.parse_side."""
    return " + ".join(" ".join(f"a{i + 1}{j + 1}{p}" for i, j, p in term)
                      or "1" for term in terms)


def test_parse_side_renders_every_text():
    for eq in fs.EQUATIONS:
        lhs, rhs = eq.text.split(" = ")
        assert (f"{_render(fs.parse_side(lhs))} = "
                f"{_render(fs.parse_side(rhs))}") == eq.text
    assert fs.parse_side("a12^2t a34 + 1 + a41^t a23^2") == (
        ((0, 1, "^2t"), (2, 3, "")), (), ((3, 0, "^t"), (1, 2, "^2")))


@pytest.mark.parametrize("side", ["a15", "a12^3", "b12", "a12 +  + a13",
                                  "a12 + ", "", "a12  a13", "1 a12"])
def test_parse_side_rejects(side):
    with pytest.raises(ValueError):
        fs.parse_side(side)


def _symmetric_non_members(ctx, n, seed):
    """n seeded random symmetric matrices outside the fixed set."""
    rng = random.Random(seed)
    out = []
    while len(out) < n:
        m = [[0] * 4 for _ in range(4)]
        for i in range(4):
            for j in range(i, 4):
                m[i][j] = m[j][i] = rng.randrange(ctx.q)
        x = tuple(v for row in m for v in row)
        if not hp.in_fixed_set(ctx, x):
            out.append(x)
    return out


def test_census_frozen_counts(ctx8, group8):
    census = fs.equation_census(ctx8, group8.fixed_points)
    assert census.total == 456
    assert census.per_label == FROZEN_COUNTS
    assert all(type(n) is int for n in census.per_label.values())
    assert census.closed_form_satisfied
    assert len(census.full_solutions) == 8
    assert census.solutions_match_closed_form
    # a Mat4 list of the same rows gives the same census
    again = fs.equation_census(ctx8, hp.mats(group8.fixed_points))
    assert (again.total, again.per_label, again.closed_form_satisfied) == (
        census.total, census.per_label, census.closed_form_satisfied)
    assert np.array_equal(again.full_solutions, census.full_solutions)
    assert np.array_equal(again.closed_form, census.closed_form)


def test_equation_residual_correspondence(ctx8, group8):
    """Each product equation is the stated coordinate of the product
    residual g(ei) . g(ej) + g(ei . ej), and each Gram equation the
    stated entry of x^T iota x against iota.  Checked on every scan
    member and on seeded symmetric non-members, for which S1-S10 and
    the Gram equations fail on some rows (all rows symmetric, so row and
    column action agree)."""
    f = ctx8.field
    scan = hp.mats(group8.fixed_points)
    others = _symmetric_non_members(ctx8, 300, seed=14)
    mats = scan + others
    masks = fs.equation_masks(ctx8, mats)
    for k, x in enumerate(mats):
        gram = la.mat_mul(f, la.mat_mul(f, la.transpose(x), ctx8.iota), x)
        for eq in fs.EQUATIONS:
            o = eq.origin
            if o.kind == "form":
                assert masks[eq.label][k] == (gram[4 * o.i + o.j] == 1)
                continue
            u, v = la.basis_vec(o.i), la.basis_vec(o.j)
            gu, gv = la.mat_vec(f, x, u), la.mat_vec(f, x, v)
            resid = la.vec_add(wl.bullet(ctx8, gu, gv),
                               la.mat_vec(f, x, wl.bullet(ctx8, u, v)))
            if o.perpendicular:
                assert resid == hp.wilson_residual(ctx8, x, u, v)
            assert masks[eq.label][k] == (resid[o.coord] == 0)
    for lab, mask in masks.items():
        assert 0 < mask[len(scan):].sum() < len(others), lab


def test_sound_equations_hold_on_iota_conjugates(ctx8, group8):
    """The 10 twisted and 2 Gram equations hold on every scan member,
    not only the closed form."""
    closed = set(hp.mats(fs.closed_form_X(ctx8)))
    off_closed = [x for x in hp.mats(group8.fixed_points) if x not in closed]
    masks = fs.equation_masks(ctx8, off_closed)
    for lab in [f"S{i}" for i in range(1, 11)] + ["P14", "P23"]:
        assert masks[lab].all()


def test_perturbed_identity_failing_labels(ctx8):
    """I with a14 = a41 = 1 is symmetric but fails exactly S1, S5, S6
    and the Gram equation P14 (frozen)."""
    x = list(la.identity())
    x[3] = x[12] = 1
    masks = fs.equation_masks(ctx8, [tuple(x)])
    assert [lab for lab, m in masks.items() if not m[0]] == [
        "S1", "S5", "S6", "P14"]


def test_eval_calls_each_side_once(ctx8, group8, monkeypatch):
    """One census call evaluates each side of each equation once, on one
    batch of the scan and the closed form, whatever the scan size."""
    calls = []
    side_values = fs._side_values

    def recorded(mul, powers, side, a):
        calls.append((side, len(a)))
        return side_values(mul, powers, side, a)

    monkeypatch.setattr(fs, "_side_values", recorded)
    sides = sorted(side for eq in fs.EQUATIONS
                   for side in eq.text.split(" = "))
    scan = group8.fixed_points
    for n in (0, 1, 57, len(scan)):
        calls.clear()
        fs.equation_census(ctx8, scan[:n])
        assert sorted(side for side, _ in calls) == sides
        assert {rows for _, rows in calls} == {n + 8}


def test_eval_rejects_asymmetric(ctx8):
    x = list(la.identity())
    x[3] = 1  # a14 set, a41 not
    with pytest.raises(ValueError):
        fs.equation_masks(ctx8, [tuple(x)])
    with pytest.raises(ValueError):
        fs.equation_census(ctx8, [tuple(x)])


def test_eval_rejects_entries_outside_field(ctx8):
    with pytest.raises(FieldRangeError):
        fs.equation_masks(ctx8, [la.diag(1, 1, 1, 8)])
    with pytest.raises(FieldRangeError):
        fs.equation_census(ctx8, np.full((1, 16), -1))


def test_proportional_rows_contradiction(ctx8):
    """A symmetric matrix with a24 != 0 whose second row is a multiple of
    the first is singular, so no invertible solution exists on that
    branch: the case split in the closed-form derivation."""
    f = ctx8.field
    for c in (1, 3, 7):
        a11, a13, a33, a34, a44 = 2, 5, 6, 4, 1
        a14 = 1
        a12 = f.mul(c, a11)
        a22 = f.mul(c, a12)
        a23 = f.mul(c, a13)
        a24 = f.mul(c, a14)
        assert a24 != 0
        x = (a11, a12, a13, a14,
             a12, a22, a23, a24,
             a13, a23, a33, a34,
             a14, a24, a34, a44)
        assert la.transpose(x) == x
        with pytest.raises(SingularMatrixError):
            la.invert(f, x)


def test_bivector_sum_invariant(ctx8):
    """bullet(g e1, g e4) + bullet(g e2, g e3) = 0 for every symplectic
    g, member or not: the two non-perpendicular pair products are never
    independent."""
    f = ctx8.field
    e = [la.basis_vec(i) for i in range(4)]
    for k in range(100):
        g = wl.random_symplectic(ctx8, random.Random(500 + k))
        s = la.vec_add(
            wl.bullet(ctx8, la.mat_vec(f, g, e[0]), la.mat_vec(f, g, e[3])),
            wl.bullet(ctx8, la.mat_vec(f, g, e[1]), la.mat_vec(f, g, e[2])))
        assert s == (0, 0, 0, 0)


def test_nonperp_preservers_are_dihedral(ctx8, group8):
    """Exactly 14 group elements kill bullet(g e1, g e4): the torus
    together with its iota coset, i.e. the dihedral subgroup in which
    the closed form lives.  Same 14 for the (e2, e3) product."""
    f = ctx8.field
    e = [la.basis_vec(i) for i in range(4)]
    dih = gr.closure(ctx8, [fs.torus_elements(ctx8)[1], ctx8.iota],
                     ceiling=100)
    n14 = []
    n23 = []
    for m in hp.mats(group8.entries):
        if wl.bullet(ctx8, la.mat_vec(f, m, e[0]),
                     la.mat_vec(f, m, e[3])) == (0, 0, 0, 0):
            n14.append(m)
        if wl.bullet(ctx8, la.mat_vec(f, m, e[1]),
                     la.mat_vec(f, m, e[2])) == (0, 0, 0, 0):
            n23.append(m)
    assert len(n14) == len(n23) == 14
    assert n14 == n23
    assert all(m in dih for m in n14)
