import numpy as np
import pytest

from szverify import fixed_set as fs
from szverify import groups as gr
from szverify import linalg4 as la
from szverify import wilson as wl
from szverify.errors import (BudgetExceededError, DepthLimitError,
                             VerificationError)

SZ8_ORDER = 29120


def dihedral_gens(ctx):
    # diag torus generator together with iota: a dihedral group of order
    # 2(q - 1)
    return [fs.torus_element(ctx, 2), ctx.iota]


def test_closure_trivial(ctx8):
    g = gr.closure(ctx8, [], ceiling=10)
    assert g.order == 1
    assert la.identity() in g


def test_closure_cyclic_torus(ctx8):
    g = gr.closure(ctx8, [fs.torus_element(ctx8, 2)], ceiling=100)
    assert g.order == 7
    assert all(m == la.diag(*[la.entry(m, i, i) for i in range(4)])
               for m in g)


def test_closure_dihedral(ctx8):
    g = gr.closure(ctx8, dihedral_gens(ctx8), ceiling=100)
    assert g.order == 14
    assert ctx8.iota in g


def test_closure_dihedral_q32(ctx32):
    g = gr.closure(ctx32, dihedral_gens(ctx32), ceiling=100)
    assert g.order == 62
    # the same group by a tuple-level breadth-first closure
    f = ctx32.field
    members = {la.identity()}
    frontier = [la.identity()]
    while frontier:
        frontier = [y for y in {la.mat_mul(f, x, s) for x in frontier
                                for s in dihedral_gens(ctx32)}
                    if y not in members]
        members.update(frontier)
    assert list(g) == sorted(members)
    assert all(m in g for m in members)
    assert wl.e1_transvection(ctx32) not in g


def test_groupset_requires_strictly_increasing_entries(ctx8):
    d = gr.closure(ctx8, dihedral_gens(ctx8), ceiling=100)
    ident = d.entries[:1]
    bad = [
        d.entries[::-1],
        np.concatenate([d.entries[:3], d.entries[2:]]),  # a duplicate row
        np.concatenate([ident, d.entries[::-1]]),
    ]
    for ents in bad:
        with pytest.raises(VerificationError):
            gr.GroupSet(ctx=ctx8, entries=ents, generators=d.generators)
    assert gr.GroupSet(ctx=ctx8, entries=d.entries.copy(),
                       generators=d.generators).order == 14


def _walk_triples(ctx, group, count):
    """The triples (iota w1, w1 w3 iota, iota w3) of the rank-4 witness
    walk: w1 the first involution other than iota, then ``count`` w3."""
    f = ctx.field
    iota = ctx.iota
    invs = [w for w in gr.involutions(group) if w != iota]
    w1 = invs[0]
    for w3 in invs[1:1 + count]:
        yield (la.mat_mul(f, iota, w1),
               la.mat_mul(f, w1, la.mat_mul(f, w3, iota)),
               la.mat_mul(f, iota, w3))


def test_subgroup_agrees_with_full_closure(ctx8, group8):
    generating = proper = 0
    for triple in _walk_triples(ctx8, group8, 40):
        sub = gr.subgroup(ctx8, triple, group8)
        full = gr.closure(ctx8, triple, SZ8_ORDER)
        assert sub.order == full.order
        if full.order == SZ8_ORDER:
            assert sub is group8
            generating += 1
        else:
            assert np.array_equal(sub.entries, full.entries)
            proper += 1
    assert generating and proper


def test_subgroup_of_index_two(ctx8):
    """A subgroup of exactly half the order is closed, not taken for
    the whole group."""
    d14 = gr.closure(ctx8, dihedral_gens(ctx8), ceiling=100)
    c7 = gr.subgroup(ctx8, [fs.torus_element(ctx8, 2)], d14)
    assert c7.order == 7
    assert gr.subgroup(ctx8, dihedral_gens(ctx8), d14) is d14


def test_subgroup_rejects_outside_generator(ctx8, group8):
    with pytest.raises(VerificationError):
        gr.subgroup(ctx8, [ctx8.iota, wl.e1_transvection(ctx8)], group8)


def test_closure_budget(ctx8):
    with pytest.raises(BudgetExceededError):
        gr.build_suzuki(ctx8, ceiling=500)


def test_build_suzuki_order_and_determinism(ctx8):
    assert gr.build_suzuki(ctx8).order == SZ8_ORDER


def test_group8_fixture_facts(ctx8, group8):
    assert group8.order == SZ8_ORDER
    assert group8.divides(SZ8_ORDER)
    assert not group8.divides(SZ8_ORDER + 1)
    assert la.identity() in group8
    assert ctx8.iota in group8
    assert gr.closure(ctx8, [], ceiling=1).element(0) == la.identity()


def test_membership_and_sampling(ctx8, group8):
    sample = group8.sample(25, seed=9)
    assert len(sample) == 25
    for m in sample:
        assert m in group8
        assert la.invert(ctx8.field, m) in group8
    # a symplectic outsider is not found
    assert wl.e1_transvection(ctx8) not in group8


def test_element_orders(ctx8, group8):
    assert gr.element_order(ctx8, la.identity()) == 1
    assert gr.element_order(ctx8, ctx8.iota) == 2
    assert gr.element_order(ctx8, fs.torus_element(ctx8, 2)) == 7
    for m in group8.sample(40, seed=10):
        assert SZ8_ORDER % gr.element_order(ctx8, m) == 0


def test_involutions_count(ctx8, group8):
    invs = gr.involutions(group8)
    assert len(invs) == 455
    f = ctx8.field
    for w in invs[:40]:
        assert w != la.identity()
        assert la.mat_mul(f, w, w) == la.identity()


def test_conjugation_orbit_single_class(ctx8, group8):
    orbit = gr.conjugation_orbit(ctx8, ctx8.iota, group8)
    invs = gr.involutions(group8)
    assert set(orbit) == set(invs)
    f = ctx8.field
    # transversal property, spot-checked
    items = sorted(orbit.items())[::37]
    for y, h in items:
        hi = la.invert(f, h)
        assert la.mat_mul(f, la.mat_mul(f, hi, ctx8.iota), h) == y


def test_derived_series_simple_group(ctx8, group8):
    series = gr.derived_series(ctx8, group8)
    assert [g.order for g in series] == [SZ8_ORDER, SZ8_ORDER]
    assert not gr.derived_series_solvable(ctx8, group8)


def test_derived_series_dihedral_solvable(ctx8):
    d = gr.closure(ctx8, dihedral_gens(ctx8), ceiling=100)
    series = gr.derived_series(ctx8, d)
    assert [g.order for g in series] == [14, 7, 1]
    assert gr.derived_series_solvable(ctx8, d)


def test_derived_series_depth_limit(ctx8):
    d = gr.closure(ctx8, dihedral_gens(ctx8), ceiling=100)
    with pytest.raises(DepthLimitError):
        gr.derived_series(ctx8, d, depth_limit=1)
