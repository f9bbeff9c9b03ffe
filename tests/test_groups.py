import hashlib

import numpy as np
import pytest

import helpers as hp
from szverify import fixed_set as fs
from szverify import groups as gr
from szverify import kernels as kn
from szverify import linalg4 as la
from szverify import wilson as wl
from szverify.errors import BudgetExceededError, VerificationError

SZ8_ORDER = 29120

# sha256 of the entries of Sz(8) as build_suzuki enumerates them, in
# canonical order: any change in the elements or their order shows here.
SZ8_SHA256 = \
    "a1e37752cba1ae82e4d5b6d8db56db0266c5c36bbdce91d202ca96e24bd9655d"


def dihedral_gens(ctx):
    # diag torus generator together with iota: a dihedral group of order
    # 2(q - 1)
    return [fs.torus_elements(ctx)[1], ctx.iota]


def test_closure_trivial(ctx8):
    g = gr.closure(ctx8, [], ceiling=10)
    assert g.order == 1
    assert la.identity() in g


def test_closure_cyclic_torus(ctx8):
    g = gr.closure(ctx8, [fs.torus_elements(ctx8)[1]], ceiling=100)
    assert g.order == 7
    assert all(m == la.diag(*[hp.entry(m, i, i) for i in range(4)])
               for m in hp.mats(g.entries))


def test_closure_dihedral(ctx8):
    g = gr.closure(ctx8, dihedral_gens(ctx8), ceiling=100)
    assert g.order == 14
    assert ctx8.iota in g


def tuple_bfs(ctx, gens):
    """The group generated by ``gens`` by a tuple-level breadth-first
    closure, and the number of levels that added elements."""
    f = ctx.field
    gens = hp.mats(gens)
    members = {la.identity()}
    frontier = [la.identity()]
    levels = 0
    while True:
        frontier = [y for y in {la.mat_mul(f, x, s) for x in frontier
                                for s in gens}
                    if y not in members]
        if not frontier:
            return members, levels
        members.update(frontier)
        levels += 1


def test_closure_dihedral_q32(ctx32):
    g = gr.closure(ctx32, dihedral_gens(ctx32), ceiling=100)
    assert g.order == 62
    members, _ = tuple_bfs(ctx32, dihedral_gens(ctx32))
    assert hp.mats(g.entries) == sorted(members)
    assert all(m in g for m in members)
    assert wl.e1_transvection(ctx32) not in g


def borel_gens(ctx):
    # a torus element and the 8th non-identity element of the sorted
    # Sylow filter: the Borel subgroup, order q^2(q - 1) = 448 at q = 8
    return [fs.torus_elements(ctx)[1],
            hp.mat_from_hex("1 1 0 0 0 1 0 0 0 1 1 1 1 1 0 1")]


def test_closure_borel_many_levels(ctx8):
    """A torus element and a Sylow element (the 8th non-identity one of
    the sorted Sylow filter) generate the Borel subgroup of order
    q^2(q - 1) = 448, the largest proper subgroup.  Its elements lie up
    to 11 levels from the identity, yet its base orbits are (7, 64), and
    a ceiling one short of their product refuses it before any element
    is made."""
    gens = borel_gens(ctx8)
    members, levels = tuple_bfs(ctx8, gens)
    assert (len(members), levels) == (448, 11)
    borel = gr.closure(ctx8, gens, ceiling=448)
    assert hp.mats(borel.entries) == sorted(members)
    assert borel.base_orbits == (7, 64)
    with pytest.raises(BudgetExceededError):
        gr.closure(ctx8, gens, ceiling=447)


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
            gr.GroupSet(ctx=ctx8, entries=ents, generators=d.generators,
                        base_points=d.base_points)
    # base orbits whose product is not the order
    o1, o2 = d.base_points
    assert d.base_orbits == (len(o1), len(o2)) == (14, 1)
    with pytest.raises(VerificationError):
        gr.GroupSet(ctx=ctx8, entries=d.entries.copy(),
                    generators=d.generators, base_points=(o1[:7], o2))
    assert gr.GroupSet(ctx=ctx8, entries=d.entries.copy(),
                       generators=d.generators,
                       base_points=d.base_points).order == 14


def test_entries_read_only(group8):
    # writes back the value it reads, so a failure leaves group8 intact
    with pytest.raises(ValueError):
        group8.entries[0, 0] = group8.entries[0, 0]


def test_fixed_points_cached_and_read_only(group8):
    fp = group8.fixed_points
    assert fp is group8.fixed_points
    assert len(fp) == 456
    with pytest.raises(ValueError):
        fp[0, 0] = fp[0, 0]


@pytest.mark.parametrize("ctx_name,kind", [("ctx8", "u"), ("ctx32", "V")])
def test_keys_cached_and_read_only(request, ctx_name, kind):
    """Packed uint64 keys at q = 8, 16-byte records at q = 32."""
    ctx = request.getfixturevalue(ctx_name)
    g = gr.closure(ctx, dihedral_gens(ctx), ceiling=100)
    keys = g.keys
    assert keys is g.keys
    assert keys.dtype.kind == kind
    assert np.array_equal(kn.key_entries(keys), g.entries)
    with pytest.raises(ValueError):
        keys[0] = keys[0]


@pytest.mark.parametrize("gens", [dihedral_gens, borel_gens],
                         ids=["d14", "borel"])
def test_fixed_points_of_closure_match_kernel(ctx8, gens):
    g = gr.closure(ctx8, gens(ctx8), ceiling=448)
    want = g.entries[kn.fixed_point_mask(ctx8, g.entries)]
    assert np.array_equal(g.fixed_points, want)


def test_involutions_match_kernel_oracle(ctx8, group8, involutions8):
    assert np.array_equal(gr.involutions(group8), involutions8)
    d14 = gr.closure(ctx8, dihedral_gens(ctx8), ceiling=100)
    mask = kn.involution_mask(ctx8, d14.entries)
    assert np.array_equal(gr.involutions(d14), d14.entries[mask])
    # the Borel subgroup lacks iota, so x -> x iota leaves it
    with pytest.raises(ValueError):
        gr.involutions(gr.closure(ctx8, borel_gens(ctx8), ceiling=448))


def _walk_triples(ctx, invs, count):
    """The triples (iota w1, w1 w3 iota, iota w3) of the rank-4 witness
    walk: w1 the first involution other than iota, then ``count`` w3;
    ``invs`` lists the involutions in canonical order."""
    f = ctx.field
    iota = ctx.iota
    invs = [w for w in hp.mats(invs) if w != iota]
    w1 = invs[0]
    for w3 in invs[1:1 + count]:
        yield (la.mat_mul(f, iota, w1),
               la.mat_mul(f, w1, la.mat_mul(f, w3, iota)),
               la.mat_mul(f, iota, w3))


def test_subgroup_agrees_with_full_closure(ctx8, group8, involutions8):
    """subgroup against the tests' breadth-first closure, on the first
    40 walk triples."""
    generating = proper = 0
    for triple in _walk_triples(ctx8, involutions8, 40):
        sub = gr.subgroup(ctx8, triple, group8)
        full = hp.bfs_closure(ctx8, triple)
        assert sub.order == len(full)
        if len(full) == SZ8_ORDER:
            assert sub is group8
            generating += 1
        else:
            assert np.array_equal(sub.entries, full)
            proper += 1
    assert generating and proper


def test_subgroup_of_index_two(ctx8):
    """A subgroup of exactly half the order is closed, not taken for
    the whole group."""
    d14 = gr.closure(ctx8, dihedral_gens(ctx8), ceiling=100)
    c7 = gr.subgroup(ctx8, [fs.torus_elements(ctx8)[1]], d14)
    assert c7.order == 7
    assert gr.subgroup(ctx8, dihedral_gens(ctx8), d14) is d14
    # the torus element scales e_2 by an element of order 7 and fixes no
    # other image, so its base orbits are 7 and 1: the exact order of
    # C7, half of |D14|
    assert c7.base_orbits == (7, 1)
    assert not gr.generates(ctx8, [fs.torus_elements(ctx8)[1]], d14)
    assert gr.generates(ctx8, dihedral_gens(ctx8), d14)


def numbering(ctx, bound=None):
    """The numbering of a base pass bounded by the base points
    ``bound`` of an enclosing group, or of an unbounded one."""
    return [gr._numbering(ctx, p)
            for p in bound or (np.arange(ctx.q ** 4),) * 2]


def base_points(ctx, gens, bound=None):
    """The base points (O1, O2) of the base pass on ``gens``, as a
    group built from them keeps them, bounded by ``bound``."""
    t1, _, t2, _ = gr._transversals(
        ctx, kn.row_action_table(ctx, gens)[None], numbering(ctx, bound))
    return gr._base_points(ctx, t1, t2)


def base_orbit_sizes(ctx, gens, bound=None):
    """(|O1|, |O2|) of the base pass on ``gens``, bounded by the base
    points ``bound``."""
    return tuple(map(len, base_points(ctx, gens, bound)))


def test_base_order_is_exact_on_build_generators(ctx8, group8):
    """|O1| |O2| = |G| on the generators build_suzuki closes: e_2 has
    (q^2+1)(q-1) = 455 images, and the Schreier elements move e_3 onto
    all q^2 = 64 images under its stabiliser, so (e_2, e_3) is a base.
    The tests' breadth-first closure finds the same 29,120 elements."""
    assert base_orbit_sizes(ctx8, group8.generators) == (455, 64)
    assert group8.base_orbits == (455, 64)
    assert gr.generates(ctx8, group8.generators, group8)
    assert np.array_equal(hp.bfs_closure(ctx8, group8.generators),
                          group8.entries)


def test_build_suzuki_q8_pinned(ctx8):
    assert hashlib.sha256(gr.build_suzuki(ctx8).entries.tobytes()) \
        .hexdigest() == SZ8_SHA256


@pytest.fixture(scope="module")
def seeds32(ctx32):
    """The seeds build_suzuki closes at q = 32, from the Sylow filter
    and iota, with no q = 32 group built."""
    return gr._suzuki_seeds(ctx32)[1]


def test_base_order_is_exact_at_q32(ctx32, seeds32):
    """The same at q = 32, 31,775 * 1,024, on the seeds."""
    o1, o2 = base_orbit_sizes(ctx32, seeds32)
    assert (o1, o2) == (31775, 1024)
    assert o1 * o2 == ctx32.group_order == 32537600


def word_pairs32(ctx32, seeds32, count):
    """``count`` seeded pairs of words of 2 to 8 letters in the q = 32
    seeds; the first 10 are those of
    test_bounded_base_order_is_exact_at_q32."""
    gens = seeds32
    rng = np.random.default_rng(32)
    pairs = []
    for _ in range(count):
        pair = []
        for _ in range(2):
            word = gens[rng.integers(len(gens), size=rng.integers(2, 9))]
            w = word[:1]
            for x in word[1:]:
                w = kn.mat_mul_pairs(ctx32, w, x)
            pair.append(kn.entries_to_mat(w[0]))
        pairs.append(pair)
    return pairs


def test_bounded_base_order_is_exact_at_q32(ctx32, seeds32):
    """On 10 seeded pairs of words in the q = 32 seeds, the base orbits
    bounded by the seeds' are the exact ones, for generating and proper
    subgroups alike."""
    bound = base_points(ctx32, seeds32)
    orders = []
    for pair in word_pairs32(ctx32, seeds32, 10):
        orbits = base_orbit_sizes(ctx32, pair, bound)
        assert orbits == base_orbit_sizes(ctx32, pair)
        orders.append(orbits[0] * orbits[1])
    assert orders.count(ctx32.group_order) == 6


def test_batched_base_orbits_at_q32(ctx32, seeds32):
    """The 20 seeded word pairs in batches of 4 owners: each owner's
    base orbits, bounded by the seeds', are those of its own unbounded
    pass."""
    base = numbering(ctx32, base_points(ctx32, seeds32))
    pairs = word_pairs32(ctx32, seeds32, 20)
    per = 4
    got = []
    for lo in range(0, len(pairs), per):
        batch = pairs[lo:lo + per]
        tables = kn.row_action_table(ctx32, batch).reshape(
            len(batch), 2, 4, ctx32.q)
        _, own1, _, own2 = gr._transversals(ctx32, tables, base)
        got += zip(np.bincount(own1, minlength=len(batch)).tolist(),
                   np.bincount(own2, minlength=len(batch)).tolist())
    assert got == [base_orbit_sizes(ctx32, pair) for pair in pairs]
    assert sum(a * b == ctx32.group_order for a, b in got) == 10


def test_generates_needs_both_base_orbits(ctx8):
    """The torus element d and the first two Sylow seeds, which lie in
    the Sylow centre Z, generate Z:C7 of order 56 with base orbits
    (7, 8).  <d> moves e_2 onto all 7 of its images there, yet fixes
    e_3 up to a scalar, so its full O1 does not make it the group: its
    O2 stays at 1 and its subgroup has order 7."""
    _, seeds = gr._suzuki_seeds(ctx8)
    d = fs.torus_elements(ctx8)[1]
    group = gr.closure(ctx8, np.concatenate([seeds[:2], [d]]), ceiling=100)
    assert (group.order, group.base_orbits) == (56, (7, 8))
    assert gr.subgroup(ctx8, [d], group).order == 7
    assert not gr.generates(ctx8, [d], group)
    assert gr.generates(ctx8, [d, seeds[0]], group)


def test_closure_refuses_a_group_with_a_nontrivial_base_stabiliser(ctx8):
    """closure reads |H| off the base (e_2, e_3), which needs the group
    to fix that pair by the identity alone.  <t> for the transvection t
    fixes rows e_2 and e_3, so its base orbits give 1 against order 2,
    and closure raises rather than return the identity alone."""
    t = wl.e1_transvection(ctx8)
    assert len(hp.bfs_closure(ctx8, [t])) == 2
    assert base_orbit_sizes(ctx8, [t]) == (1, 1)
    with pytest.raises(VerificationError):
        gr.closure(ctx8, [t], ceiling=10)


@pytest.mark.parametrize("v", [1, 2], ids=["e2", "e3"])
@pytest.mark.parametrize("edges_too", [True, False],
                         ids=["point-and-edges", "point"])
def test_a_short_orbit_raises_rather_than_shrink(ctx8, group8, monkeypatch,
                                                 v, edges_too):
    """An orbit routine that drops the last new point of the orbit of
    e_2 (or of e_3) makes closure and subgroup raise VerificationError
    rather than return a smaller group.  If it drops every edge into the
    point too, as if the search had missed it, the products of the
    transversals are not closed under the generators; otherwise an edge
    leaves the orbit."""
    orbit = gr._orbit

    def short(ctx, tables, owners, seed, numbering):
        trans, owner, edges = orbit(ctx, tables, owners, seed, numbering)
        if seed == v and len(trans) > 1:
            trans, owner = trans[:-1], owner[:-1]
            if edges_too:
                edges = edges[:, (edges[::2] < len(trans)).all(axis=0)]
        return trans, owner, edges
    monkeypatch.setattr(gr, "_orbit", short)
    for gens in (group8.generators, borel_gens(ctx8)):
        with pytest.raises(VerificationError):
            gr.closure(ctx8, gens, SZ8_ORDER)
        with pytest.raises(VerificationError):
            gr.subgroup(ctx8, gens, group8)


@pytest.mark.parametrize("orbit", [0, 1], ids=["O1", "O2"])
def test_an_orbit_point_outside_the_bounding_base_raises(ctx8, group8,
                                                          orbit):
    """A bounded pass numbers each orbit point by its place in the
    bounding group's base orbits.  Against a copy of Sz(8) whose stored
    O1 (or O2) has its last point swapped for a vector outside that
    orbit, the generators of Sz(8) reach the dropped point, which has no
    place, and subgroups raises VerificationError rather than count it
    in another's place."""
    points = list(group8.base_points)
    outside = np.setdiff1d(np.arange(ctx8.q ** 4), points[orbit])[-1]
    points[orbit] = np.append(points[orbit][:-1], outside)
    bad = gr.GroupSet(ctx=ctx8, entries=group8.entries,
                      generators=group8.generators,
                      base_points=tuple(points))
    assert bad.order == group8.order
    with pytest.raises(VerificationError, match="outside"):
        gr.subgroup(ctx8, group8.generators, bad)


@pytest.mark.parametrize("sets", [455, 70_000], ids=["uint16", "uint32"])
def test_spread_picks_the_edges_of_a_stable_int32_sort(sets):
    """_spread sorts its edge owners on the smallest unsigned type that
    holds every set number, and picks the positions that a stable sort
    of the int32 owners gives, with fewer and with more sets than a
    uint16 numbers.  Synthetic owners, no group built: each set has
    about 3 edges, and 50 sets about 40, more than _FIRST_EDGES."""
    rng = np.random.default_rng(sets)
    owner = rng.permutation(np.concatenate([
        rng.integers(0, sets, size=3 * sets),
        rng.integers(0, 50, size=2000)])).astype(np.int32)
    chosen = rng.random(sets) < 0.5
    by_set = np.split(np.argsort(owner, kind="stable"),
                      np.cumsum(np.bincount(owner, minlength=sets))[:-1])
    want = []
    for o in np.flatnonzero(chosen):
        take = min(gr._FIRST_EDGES, len(by_set[o]))
        want += [by_set[o][j * len(by_set[o]) // take] for j in range(take)]
    assert max(map(len, by_set)) > gr._FIRST_EDGES
    assert np.array_equal(gr._spread(owner, chosen), want)


def test_subgroup_rejects_outside_generator(ctx8, group8):
    gens = [ctx8.iota, wl.e1_transvection(ctx8)]
    with pytest.raises(VerificationError):
        gr.subgroup(ctx8, gens, group8)
    with pytest.raises(VerificationError):
        gr.generates(ctx8, gens, group8)


@pytest.mark.parametrize("ctx_name", ["ctx8", "ctx32"])
def test_subgroup_rejects_entries_outside_field(request, ctx_name, group8):
    """No matrix with an entry outside GF(q) is a member, at either key
    layout, so subgroup raises VerificationError for it."""
    ctx = request.getfixturevalue(ctx_name)
    group = group8 if ctx.q == 8 else gr.closure(ctx, dihedral_gens(ctx), 100)
    for v in (ctx.q, 16 if ctx.q == 8 else 2 * ctx.q, 255, 256, -1, 0.5):
        bad = la.identity()[:3] + (v,) + la.identity()[4:]
        assert bad not in group
        with pytest.raises(VerificationError):
            gr.subgroup(ctx, [ctx.iota, bad], group)


def test_closure_budget(ctx8):
    with pytest.raises(BudgetExceededError):
        gr.closure(ctx8, gr._suzuki_seeds(ctx8)[1], ceiling=500)


def test_build_suzuki_order_and_determinism(ctx8):
    assert gr.build_suzuki(ctx8).order == SZ8_ORDER


def test_build_suzuki_rejects_wrong_order(ctx8, monkeypatch):
    # seeds that close to a proper subgroup are an error, not a retry
    close = gr.closure
    monkeypatch.setattr(gr, "closure", lambda ctx, gens, ceiling:
                        close(ctx, gens[:1], ceiling))
    with pytest.raises(VerificationError, match="expected 29120"):
        gr.build_suzuki(ctx8)


def test_group8_fixture_facts(ctx8, group8):
    assert group8.order == SZ8_ORDER
    assert la.identity() in group8
    assert ctx8.iota in group8
    assert hp.mats(gr.closure(ctx8, [], ceiling=1).entries)[0] \
        == la.identity()


def test_membership_and_sampling(ctx8, group8):
    sample = hp.mats(hp.sample(group8, 25, seed=9))
    assert len(sample) == 25
    for m in sample:
        assert m in group8
        assert la.invert(ctx8.field, m) in group8
    # a symplectic outsider is not found
    assert wl.e1_transvection(ctx8) not in group8


def test_element_orders(ctx8, group8):
    assert gr.element_order(ctx8, la.identity()) == 1
    assert gr.element_order(ctx8, ctx8.iota) == 2
    d = hp.mats(fs.torus_elements(ctx8)[1])[0]
    assert gr.element_order(ctx8, d) == 7
    for m in hp.mats(hp.sample(group8, 40, seed=10)):
        assert SZ8_ORDER % gr.element_order(ctx8, m) == 0


def test_involutions_count(ctx8, group8):
    invs = gr.involutions(group8)
    assert len(invs) == 455 == ctx8.involution_count
    f = ctx8.field
    for w in hp.mats(invs):
        assert w != la.identity()
        assert la.mat_mul(f, w, w) == la.identity()


def test_conjugation_orbit_single_class(ctx8, group8):
    orbit = gr.conjugation_orbit(ctx8, ctx8.iota, group8.generators)
    invs = gr.involutions(group8)
    assert np.array_equal(orbit, invs)


def test_derived_series_simple_group(ctx8, group8):
    series = gr.derived_series(ctx8, group8)
    assert [g.order for g in series] == [SZ8_ORDER, SZ8_ORDER]
    assert not gr.derived_series_solvable(ctx8, group8)


def test_derived_series_dihedral_solvable(ctx8):
    d = gr.closure(ctx8, dihedral_gens(ctx8), ceiling=100)
    series = gr.derived_series(ctx8, d)
    assert [g.order for g in series] == [14, 7, 1]
    assert gr.derived_series_solvable(ctx8, d)


def test_derived_subgroup_of_sz8_is_the_group(ctx8, group8, monkeypatch):
    """Sz(8) is perfect, and its commutator pass is bounded by it, so
    the derived subgroup comes back as group8 itself (Lagrange), with
    no element multiplied out (_group) and no closure."""
    monkeypatch.setattr(gr, "_group", None)
    monkeypatch.setattr(gr, "closure", None)
    assert gr.derived_subgroup(ctx8, group8) is group8


def derived_oracle(ctx, h):
    """The breadth-first closure of all |H|^2 commutators (ba)^-1 ab by
    scalar products: normal by construction, so the derived subgroup."""
    f = ctx.field
    els = hp.mats(h.entries)
    comms = {la.mat_mul(f, la.invert(f, la.mat_mul(f, b, a)),
                        la.mat_mul(f, a, b)) for a in els for b in els}
    return hp.bfs_closure(ctx, sorted(comms))


def test_derived_subgroup_matches_oracle(ctx8, group8):
    """On D14 and on the subgroup of each of the 49 torus triples."""
    f = ctx8.field
    subs = [gr.closure(ctx8, dihedral_gens(ctx8), ceiling=100)]
    torus = hp.mats(fs.torus_elements(ctx8))
    for a in torus:
        for b in torus:
            triple = (la.invert(f, a),
                      la.mat_mul(f, a, la.mat_mul(f, ctx8.iota, b)),
                      la.invert(f, b))
            subs.append(gr.subgroup(ctx8, triple, group8))
    assert len(subs) == 50
    for h in subs:
        assert np.array_equal(gr.derived_subgroup(ctx8, h).entries,
                              derived_oracle(ctx8, h))


def test_conjugation_orbit_q32_from_seeds(ctx32, seeds32):
    """iota's conjugacy class in Sz(32), found from the build seeds with
    no element of the group enumerated: (q^2+1)(q-1) = 31,775
    involutions."""
    orbit = gr.conjugation_orbit(ctx32, ctx32.iota, seeds32)
    assert len(orbit) == 31775
    assert kn.involution_mask(ctx32, orbit).all()


def test_conjugation_orbit_q32_dihedral(ctx32):
    """Under D62, iota's orbit is the 31 reflections d^k iota."""
    f = ctx32.field
    d62 = gr.closure(ctx32, dihedral_gens(ctx32), ceiling=100)
    want = [m for m in hp.mats(d62.entries) if m != la.identity()
            and la.mat_mul(f, m, m) == la.identity()]
    orbit = gr.conjugation_orbit(ctx32, ctx32.iota, d62.generators)
    assert hp.mats(orbit) == want
    assert len(want) == 31
