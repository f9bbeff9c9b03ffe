import json

import numpy as np
import pytest

import helpers as hp
from szverify import fixed_set as fs
from szverify import groups as gr
from szverify import kernels as kn
from szverify import linalg4 as la
from szverify import triples as tr
from szverify import wilson as wl
from szverify.errors import VerificationError

# Frozen from the first full search run at q = 8.
EXPECTED_CANDIDATES = 49
EXPECTED_IOTA_REJECTIONS = 15
EXPECTED_WITNESSES = 3
EXPECTED_SIGMA_ORDERS = [(7, 13, 5), (7, 7, 7), (7, 13, 13)]


@pytest.fixture(scope="module")
def report(ctx8, group8):
    return tr.search_rank4(ctx8, group8)


def test_candidate_and_success_counts(report):
    assert report.q == 8
    assert report.group_order == 29120
    assert report.candidates == EXPECTED_CANDIDATES
    assert len(report.details) == EXPECTED_CANDIDATES
    assert report.successes == ()


def test_restricted_subgroups_all_small_and_solvable(report):
    orders = {d.subgroup_order for d in report.details}
    assert orders == {2, 14}
    assert all(d.solvable for d in report.details)
    assert all(d.subgroup_order < report.group_order
               for d in report.details)
    assert all(29120 % d.subgroup_order == 0 for d in report.details)


def test_reduction_status(report):
    red = report.reduction
    assert red.closed_form_size == 8
    assert red.scan_size == 456
    assert not red.fixed_set_equal
    assert red.iota_pairs_rejected == EXPECTED_IOTA_REJECTIONS
    assert red.membership_lemma_held


def test_witnesses_generate_whole_group(ctx8, group8, report):
    assert len(report.witnesses) == EXPECTED_WITNESSES
    assert [w.sigma_orders for w in report.witnesses] \
        == EXPECTED_SIGMA_ORDERS
    for w in report.witnesses:
        assert w.subgroup_order == group8.order
        conds = hp.involution_conditions(ctx8, w.triple)
        assert conds == (True, True, True)
        assert hp.triple_product(ctx8, w.triple) == ctx8.iota
        assert w.sigma1_inv_in_scan and w.sigma3_inv_in_scan
        # both inverses sit in the scanned fixed set, never both in the
        # closed form: the restricted search space cannot see them
        assert not (w.sigma1_inv_in_closed_form
                    and w.sigma3_inv_in_closed_form)
        assert hp.fixed_set_membership_lemma(ctx8, w.triple)


def test_no_certification(report):
    assert not report.certifies_nonexistence


def test_report_json_shape_and_determinism(ctx8, group8, report):
    d = report.to_json_dict()
    assert list(d)[0] == "schema"
    assert d["schema"] == "szverify-triples v1"
    assert d["candidates"] == EXPECTED_CANDIDATES
    assert d["successes"] == []
    assert len(d["details"]) == EXPECTED_CANDIDATES
    assert len(d["witnesses_outside_restriction"]) == EXPECTED_WITNESSES
    assert d["certifies_nonexistence"] is False
    again = tr.search_rank4(ctx8, group8).to_json_dict()
    assert json.dumps(d, sort_keys=False) == json.dumps(again,
                                                        sort_keys=False)


def test_pair_detail_rejection_reason(report):
    for d in report.details:
        j = d.to_json_dict(report.group_order)
        assert j["rejection_reason"] == "proper subgroup"
        assert j["subgroup_order"] in (2, 14)


def test_involution_conditions_negative(ctx8):
    trip = tr.ChiralTriple(ctx8.iota, ctx8.iota, ctx8.iota)
    conds = hp.involution_conditions(ctx8, trip)
    # product iota^3 = iota is an involution; both partial products are
    # the identity, which is not
    assert conds == (True, False, False)


def test_membership_lemma_preconditions(ctx8):
    trip = tr.ChiralTriple(la.identity(), la.identity(), ctx8.iota)
    # product is iota but partial product sigma1 sigma2 = I is not an
    # involution
    with pytest.raises(ValueError):
        hp.fixed_set_membership_lemma(ctx8, trip)
    trip2 = tr.ChiralTriple(ctx8.iota, ctx8.iota, ctx8.iota)
    with pytest.raises(ValueError):
        hp.fixed_set_membership_lemma(ctx8, trip2)


def test_torus_checks_q8(ctx8):
    assert tr.torus_inversion_check(ctx8)
    assert tr.torus_commutation_check(ctx8)


def test_torus_checks_q32(ctx32):
    """Exhaustive at q = 32 too: 31 torus elements, 961 ordered pairs."""
    assert tr.torus_inversion_check(ctx32)
    assert tr.torus_commutation_check(ctx32)


def test_witness_triples_from_fresh_search(ctx8, group8):
    ws = tr.find_rank4_witnesses(ctx8, group8, count=1)
    assert len(ws) == 1
    assert ws[0].subgroup_order == group8.order


def test_witness_walk_order(ctx8, group8, involutions8):
    """The walk builds (iota w1, w1 w3 iota, iota w3): w1 the first
    involution other than iota, then w3 in increasing canonical order.
    The involutions come from kernels.involution_mask."""
    f = ctx8.field
    iota = ctx8.iota
    ws = tr.find_rank4_witnesses(ctx8, group8, count=3)
    invs = [w for w in hp.mats(involutions8) if w != iota]
    w1 = invs[0]
    # position of each candidate triple in the walk, w3 increasing
    walk = {(la.mat_mul(f, iota, w1),
             la.mat_mul(f, w1, la.mat_mul(f, w3, iota)),
             la.mat_mul(f, iota, w3)): i for i, w3 in enumerate(invs[1:])}
    got = [w.triple.mats() for w in ws]
    assert len(got) == 3
    assert all(mats in walk for mats in got)
    steps = [walk[mats] for mats in got]
    assert steps == sorted(set(steps))


def test_walk_makes_no_scalar_inverse_or_order_calls(ctx8, group8,
                                                     monkeypatch):
    """search_rank4 with 32 witnesses runs its group algebra on the
    paired product kernels: before they existed it made 2,654 la.invert,
    6,486 la.mat_mul and 708 gr.element_order calls."""
    calls = {"invert": 0, "mat_mul": 0, "element_order": 0}
    for mod, name in ((la, "invert"), (la, "mat_mul"), (gr, "element_order")):
        def counted(*args, _name=name, _fn=getattr(mod, name)):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(mod, name, counted)
    report = tr.search_rank4(ctx8, group8, witness_count=32)
    assert len(report.witnesses) == 32
    assert calls == {"invert": 0, "mat_mul": 0, "element_order": 0}


def test_walk_closes_no_generating_triple(ctx8, group8, monkeypatch):
    """search_rank4 with 32 witnesses decides every generating triple
    by its base orbits, so no group it multiplies out is the whole
    group, and it takes the derived series once for each of the 2
    distinct torus subgroups (orders 2 and 14), not once per torus
    triple."""
    built = []
    series = []
    make, derived = gr._group, gr.derived_series

    def recorded_group(*args):
        out = make(*args)
        built.append(out.order)
        return out

    def recorded_series(ctx, group):
        series.append(group.order)
        return derived(ctx, group)
    monkeypatch.setattr(gr, "_group", recorded_group)
    monkeypatch.setattr(gr, "derived_series", recorded_series)
    report = tr.search_rank4(ctx8, group8, witness_count=32)
    assert len(report.witnesses) == 32
    assert built and max(built) < group8.order
    assert sorted(series) == [2, 14]


@pytest.fixture(scope="module")
def certificate_groups(ctx8, group8, involutions8):
    """The 1,408 groups of the generation certificate tests, as
    (kind, generators, order of groups.subgroup): the 453 walk triples
    with their facet groups <s1, s2> and vertex-figure groups <s2, s3>,
    and the 49 torus triples."""
    ws = involutions8[~hp.is_iota(ctx8, involutions8)]
    rev = ws.reshape(-1, 4, 4)[:, :, ::-1].reshape(-1, 16)
    torus = fs.torus_elements(ctx8)
    batches = {
        "walk": tr._checked_triples(ctx8, rev[:1], rev[1:])[0],
        "torus": tr._checked_triples(
            ctx8, np.repeat(torus, len(torus), axis=0),
            np.tile(torus, (len(torus), 1)))[0],
    }
    assert {n: len(b) for n, b in batches.items()} == {"walk": 453,
                                                        "torus": 49}
    parts = {"walk": {"triple": (0, 1, 2), "F": (0, 1), "V": (1, 2)},
             "torus": {"triple": (0, 1, 2)}}
    groups = []
    for name, sigmas in batches.items():
        for row in sigmas:
            for part, cols in parts[name].items():
                mats = [kn.entries_to_mat(row[c]) for c in cols]
                groups.append((f"{name} {part}", mats,
                               gr.subgroup(ctx8, mats, group8).order))
    return groups


def batch(sets):
    """Generator sets of 2 or 3 matrices as one (n, 3, 16) entries
    batch for groups.subgroups, each shorter set padded with repeats of
    its last matrix, which subgroups drops."""
    k = max(map(len, sets))
    return kn.mats_to_entries([list(g) + [g[-1]] * (k - len(g))
                               for g in sets]).reshape(len(sets), k, 16)


def test_generation_certificate_on_every_triple(ctx8, group8,
                                                certificate_groups):
    """subgroup against the tests' breadth-first closure on all 1,408
    groups.  Every proper subgroup must have the closure's elements,
    and every generating verdict on a seeded sample of 64 must close to
    all of G.  The generating counts are those the base orders gave
    before subgroup was built from them."""
    generating, proper = {}, 0
    whole = []
    for key, mats, order in certificate_groups:
        if order == group8.order:
            whole.append(mats)
        else:
            assert np.array_equal(gr.subgroup(ctx8, mats, group8).entries,
                                  hp.bfs_closure(ctx8, mats))
            proper += 1
        assert gr.generates(ctx8, mats, group8) == (order == group8.order)
        generating[key] = generating.get(key, 0) + (order == group8.order)
    assert generating == {"walk triple": 448, "walk F": 434, "walk V": 436,
                          "torus triple": 0}
    assert proper == 3 * 453 + 49 - 448 - 434 - 436 == 90
    rng = np.random.default_rng(1408)
    for i in rng.choice(len(whole), size=64, replace=False):
        assert len(hp.bfs_closure(ctx8, whole[i])) == group8.order


def test_second_batch_keeps_every_verdict(ctx8, group8, certificate_groups,
                                          monkeypatch):
    """With a first batch of one Schreier element, which cannot move e_3
    onto all 64 points of its orbit, O2 comes out short on every group
    with a full O1, and the second batch, every edge, decides it: each
    subgroup order stays the same, and the second batch reuses the
    edges of the one orbit of e_2 per owner.  (With the default batch,
    no group here takes the second batch.)  One subgroups call on all
    1,408 groups, so each owner's orbits are counted within its
    batch."""
    runs = []
    transversals, orbit = gr._transversals, gr._orbit

    def one_batch(ctx, tables, base):
        runs.append(np.zeros((2, len(tables)), dtype=int))
        return transversals(ctx, tables, base)

    def counted(ctx, tables, owners, v, numbering):
        runs[-1][v - 1, owners] += 1
        return orbit(ctx, tables, owners, v, numbering)
    monkeypatch.setattr(gr, "_FIRST_EDGES", 1)
    monkeypatch.setattr(gr, "_transversals", one_batch)
    monkeypatch.setattr(gr, "_orbit", counted)
    subs = gr.subgroups(ctx8, batch([m for _, m, _ in certificate_groups]),
                        group8)
    assert [h.order for h in subs] == [o for *_, o in certificate_groups]
    # one orbit of e_2 per owner; one orbit of e_3 per owner, and a
    # second one on every generating group, where the first batch left
    # O2 short
    e2, e3 = np.concatenate(runs, axis=1)
    assert len(e3) == len(certificate_groups)
    assert (e2 == 1).all()
    assert e3.min() == 1 and e3.max() == 2
    assert (e3 == 2).sum() == 448 + 434 + 436


def test_subgroups_agrees_with_subgroup_and_closure(ctx8, group8,
                                                    certificate_groups):
    """subgroups on all 1,408 groups in one call, row for row against
    subgroup (the batch of one) and the tests' breadth-first closure,
    with the comparisons of test_generation_certificate_on_every_triple:
    every proper subgroup has the closure's elements, and a seeded 64
    of the generating verdicts close to all of G."""
    mats = [m for _, m, _ in certificate_groups]
    subs = gr.subgroups(ctx8, batch(mats), group8)
    whole = []
    for sub, (_, gens, order) in zip(subs, certificate_groups):
        assert sub.order == order
        if sub is group8:
            whole.append(gens)
            continue
        assert order < group8.order
        assert np.array_equal(sub.entries, gr.subgroup(ctx8, gens,
                                                       group8).entries)
        assert np.array_equal(sub.entries, hp.bfs_closure(ctx8, gens))
    assert len(whole) == 448 + 434 + 436
    rng = np.random.default_rng(1408)
    for i in rng.choice(len(whole), size=64, replace=False):
        assert len(hp.bfs_closure(ctx8, whole[i])) == group8.order


def test_one_set_a_batch_keeps_every_answer(ctx8, group8,
                                            certificate_groups, monkeypatch):
    """The 1,408 groups one set a batch (a batch budget of one place)
    and all in one batch get the same orders, and the same answers
    share one object: the Lagrange rule reuses groups across batches as
    within one."""
    mats = batch([m for _, m, _ in certificate_groups])

    def classes(subs):
        first = {}
        return [first.setdefault(id(h), i) for i, h in enumerate(subs)]
    answers = []
    for visit in (1, len(mats) * group8.base_orbits[0]):
        monkeypatch.setattr(gr, "_VISIT", visit)
        answers.append(gr.subgroups(ctx8, mats, group8))
    one, whole = answers
    assert [h.order for h in one] == [h.order for h in whole] \
        == [o for *_, o in certificate_groups]
    assert classes(one) == classes(whole)
    assert all((a is group8) == (b is group8) for a, b in zip(one, whole))


def test_subgroups_follows_a_permuted_batch(ctx8, group8,
                                            certificate_groups):
    """Permuting the rows of a batch permutes the answers: each owner is
    answered from its own generators, whatever its place."""
    mats = batch([m for _, m, _ in certificate_groups])
    perm = np.random.default_rng(19).permutation(len(mats))
    subs = gr.subgroups(ctx8, mats, group8)
    moved = gr.subgroups(ctx8, mats[perm], group8)
    for i, sub in zip(perm, moved):
        assert (sub is group8) == (subs[i] is group8)
        assert np.array_equal(sub.entries, subs[i].entries)


def test_subgroups_answers_equal_subgroups_with_one_object(
        ctx8, group8, certificate_groups):
    """Equal proper subgroups come back as one object, so the 90 proper
    answers are as many objects as distinct element sets."""
    subs = gr.subgroups(ctx8, batch([m for _, m, _ in certificate_groups]),
                        group8)
    proper = [h for h in subs if h is not group8]
    assert len(proper) == 90
    distinct = {h.entries.tobytes() for h in proper}
    assert len({id(h) for h in proper}) == len(distinct)
    torus = [h for (kind, *_), h in zip(certificate_groups, subs)
             if kind == "torus triple"]
    assert len(torus) == 49 and len({id(h) for h in torus}) == 2


def test_torus_batch_looks_up_each_built_subgroup_once(
        ctx8, group8, certificate_groups, monkeypatch):
    """subgroups on the 49 torus triples builds 2 proper subgroups (of
    orders 2 and 14) and checks every later set with the orbits of each
    against it by one member_mask call, not one call per set (47 on one
    D14 before).  Calls inside _group, such as GroupSet's identity
    check, are not lookups."""
    torus = [m for kind, m, _ in certificate_groups if kind == "torus triple"]
    built, lookups, inside = [], [], []
    make, member_mask = gr._group, gr.GroupSet.member_mask

    def recorded_group(*args):
        inside.append(True)
        try:
            built.append(make(*args))
        finally:
            inside.pop()
        return built[-1]

    def counted(self, mats):
        if self is not group8 and not inside:
            lookups.append(id(self))
        return member_mask(self, mats)
    monkeypatch.setattr(gr, "_group", recorded_group)
    monkeypatch.setattr(gr.GroupSet, "member_mask", counted)
    subs = gr.subgroups(ctx8, batch(torus), group8)
    assert sorted(h.order for h in subs) == sorted(
        o for kind, _, o in certificate_groups if kind == "torus triple")
    assert sorted(h.order for h in built) == [2, 14]
    assert len(lookups) == len(set(lookups)) <= len(built)
    assert set(lookups) <= {id(h) for h in built}


def test_subgroups_rejects_a_batch_with_one_outside_generator(
        ctx8, group8, certificate_groups):
    """One generator outside the group, in the last set of a batch,
    makes the whole call raise."""
    mats = [m for _, m, _ in certificate_groups[:40]]
    outside = wl.e1_transvection(ctx8)
    assert outside not in group8
    mats[-1] = mats[-1] + [outside]
    with pytest.raises(VerificationError):
        gr.subgroups(ctx8, batch(mats), group8)


def test_walk_multiplies_out_few_schreier_elements(ctx8, group8, monkeypatch):
    """The 32-witness walk multiplies out 512 Schreier elements under
    subgroups, 16 for each of its 32 generating triples.  The 5 triples
    before them generate dihedral groups of order 14, which move e_2
    regularly, so none of their edges gives a nontrivial Schreier
    element.  Multiplying every edge, as the unbounded base order does,
    took 24,808 paired products."""
    assert group8.base_orbits == (455, 64)
    rows, inside = [], []
    subgroups, mat_mul_pairs = gr.subgroups, kn.mat_mul_pairs

    def traced_subgroups(*args):
        inside.append(True)
        try:
            return subgroups(*args)
        finally:
            inside.pop()

    def counted_products(ctx, a, b):
        out = mat_mul_pairs(ctx, a, b)
        if inside:
            rows.append(len(out))
        return out
    def counted_edges(ctx, tables, trans, owner, edges):
        formed.append(edges.shape[1])
        return schreier_tables(ctx, tables, trans, owner, edges)
    formed, schreier_tables = [], gr._schreier_tables
    monkeypatch.setattr(gr, "subgroups", traced_subgroups)
    monkeypatch.setattr(kn, "mat_mul_pairs", counted_products)
    monkeypatch.setattr(gr, "_schreier_tables", counted_edges)
    assert len(tr.find_rank4_witnesses(ctx8, group8, count=32)) == 32
    assert sum(rows) == 32 * 16
    # each edge product t_u s is formed only for the Schreier elements
    assert sum(formed) == 32 * 16


def test_search_makes_one_base_pass_per_call(ctx8, group8, monkeypatch):
    """search_rank4 with 32 witnesses runs one bounded base pass for the
    49 torus triples and one per chunk of the witness walk (32 triples,
    then the 5 that replace the 5 dihedral ones), and the passes of
    batches of one that the derived series of the 2 distinct torus
    subgroups make, each bounded by the term it takes the derived
    subgroup of: C2 to the trivial group, then D14 to C7 and C7 to the
    trivial group.  None is unbounded."""
    passes = []
    transversals = gr._transversals

    def counted(ctx, tables, base):
        passes.append((len(tables), base[0][1]))
        return transversals(ctx, tables, base)
    monkeypatch.setattr(gr, "_transversals", counted)
    report = tr.search_rank4(ctx8, group8, witness_count=32)
    assert len(report.witnesses) == 32
    assert passes == [(49, 455), (1, 2), (1, 14), (1, 7), (32, 455),
                      (5, 455)]
    assert (1, ctx8.q ** 4) not in passes


def test_walk_triples_match_scalar_construction(ctx8, involutions8):
    """The batch constructor on the 453 walk pairs (w1 iota, w3 iota)
    gives (iota w1, w1 w3 iota, iota w3), built here by scalar products;
    every row meets the involution conditions and the lemma."""
    f = ctx8.field
    iota = ctx8.iota
    invs = [w for w in hp.mats(involutions8) if w != iota]
    ws = kn.mats_to_entries(invs)
    rev = ws.reshape(-1, 4, 4)[:, :, ::-1].reshape(-1, 16)
    sigmas, meets, lemma = tr._checked_triples(ctx8, rev[:1], rev[1:])
    w1 = invs[0]
    want = [(la.mat_mul(f, iota, w1),
             la.mat_mul(f, w1, la.mat_mul(f, w3, iota)),
             la.mat_mul(f, iota, w3)) for w3 in invs[1:]]
    assert len(want) == 453
    assert [tuple(map(kn.entries_to_mat, row)) for row in sigmas] == want
    assert meets.shape == lemma.shape == (453,)
    assert meets.all() and lemma.all()


def test_batch_checks_match_scalar_oracle(ctx8, involutions8):
    """Involution conditions and lemma verdicts on mixed rows, against
    squaring and the fixed-set test by scalar products."""
    f = ctx8.field
    iota = ctx8.iota
    ident = la.identity()
    mats = ([iota, ident] + hp.mats(involutions8[:6])
            + hp.mats(fs.torus_elements(ctx8)[:3]))
    triples = [tr.ChiralTriple(a, b, c) for a in mats[:4] for b in mats
               for c in mats[2:7]]
    # walk triples (iota w1, w1 w3 iota, iota w3), which meet all three
    triples += [tr.ChiralTriple(la.mat_mul(f, iota, w1),
                                la.mat_mul(f, w1, la.mat_mul(f, w3, iota)),
                                la.mat_mul(f, iota, w3))
                for w1 in hp.mats(involutions8[:6])
                for w3 in hp.mats(involutions8[:6])]
    seen = set()
    lemma_rows = 0

    def inv2(p):
        return p != ident and la.mat_mul(f, p, p) == ident
    for t in triples:
        s1, s2, s3 = t.mats()
        s12 = la.mat_mul(f, s1, s2)
        s23 = la.mat_mul(f, s2, s3)
        want = (inv2(la.mat_mul(f, s12, s3)), inv2(s23), inv2(s12))
        assert hp.involution_conditions(ctx8, t) == want
        seen.add(want)
        if la.mat_mul(f, s12, s3) == iota and want[1] and want[2]:
            lemma_rows += 1
            assert hp.fixed_set_membership_lemma(ctx8, t) == (
                hp.in_fixed_set(ctx8, la.invert(f, s1))
                and hp.in_fixed_set(ctx8, la.invert(f, s3)))
    assert (True, True, True) in seen and len(seen) >= 5
    assert lemma_rows


def test_checked_triples_mark_iota_pairs_unmet(ctx8):
    """The 15 iota pairs (iota, x) and (x, iota) of the closed form fail
    an involution condition: the batch check marks each of them unmet,
    with a False lemma verdict, and leaves the refusal to its callers
    (the mutants of test_searches_refuse_a_wrong_involution_verdict)."""
    iota = kn.mats_to_entries([ctx8.iota])
    closed = fs.closed_form_X(ctx8)
    others = closed[~hp.is_iota(ctx8, closed)]
    s1_inv = np.concatenate([np.repeat(iota, len(closed), axis=0), others])
    s3_inv = np.concatenate([closed, np.repeat(iota, len(others), axis=0)])
    sigmas, meets, lemma = tr._checked_triples(ctx8, s1_inv, s3_inv)
    assert len(sigmas) == EXPECTED_IOTA_REJECTIONS
    assert not meets.any() and not lemma.any()


def test_checked_triples_refuse_a_failed_condition(ctx8, group8,
                                                   monkeypatch):
    """Both searches refuse a checked triple that fails an involution
    condition where they need it to meet them all: the walk, given a
    torus element of order 7 among its involutions, and the restricted
    search, given a closed form with one torus member swapped for a
    group element off the fixed set."""
    torus = fs.torus_elements(ctx8)
    d = torus[~kn.identity_mask(torus)][:1]
    assert kn.element_orders(ctx8, d).tolist() == [7]
    involutions = gr.involutions
    with monkeypatch.context() as m:
        m.setattr(gr, "involutions",
                  lambda group: np.concatenate([involutions(group), d]))
        with pytest.raises(VerificationError, match="walk triple failed"):
            tr.find_rank4_witnesses(ctx8, group8)

    closed = fs.closed_form_X(ctx8).copy()
    off = group8.entries[~kn.fixed_point_mask(ctx8, group8.entries)][0]
    closed[np.argmin(hp.is_iota(ctx8, closed))] = off
    monkeypatch.setattr(fs, "fixed_set_result", lambda ctx, group:
                        fs.FixedSetResult(closed, group.fixed_points))
    with pytest.raises(VerificationError, match="torus pair failed"):
        tr.search_rank4(ctx8, group8)


def test_closed_form_square_at_q32(ctx32):
    """One batch over the 32 x 32 ordered pairs of the closed form at
    q = 32, with no group built: exactly the 63 rows with iota fail an
    involution condition, and the other 961 meet them all and the
    membership lemma."""
    closed = fs.closed_form_X(ctx32)
    n = len(closed)
    assert n == 32
    sigmas, meets, lemma = tr._checked_triples(
        ctx32, np.repeat(closed, n, axis=0), np.tile(closed, (n, 1)))
    is_iota = hp.is_iota(ctx32, closed)
    with_iota = (is_iota[:, None] | is_iota[None, :]).reshape(-1)
    assert with_iota.sum() == 63
    assert np.array_equal(meets, ~with_iota)
    assert lemma[meets].all() and not lemma[with_iota].any()


@pytest.mark.parametrize("mutant", ["all meet", "first met row fails"])
def test_searches_refuse_a_wrong_involution_verdict(ctx8, group8,
                                                   monkeypatch, mutant):
    """With _involution_masks mutated, search_rank4 raises when an iota
    pair meets every condition or a torus pair fails one, and
    find_rank4_witnesses raises when a walk row fails one."""
    masks = tr._involution_masks

    def mutated(ctx, prods):
        m = masks(ctx, prods)
        if mutant == "all meet":
            m[:] = True
        else:
            m[m.all(axis=1).argmax(), 0] = False
        return m
    monkeypatch.setattr(tr, "_involution_masks", mutated)
    with pytest.raises(VerificationError, match="iota met every"):
        tr.search_rank4(ctx8, group8)
    if mutant == "first met row fails":
        with pytest.raises(VerificationError, match="walk triple failed"):
            tr.find_rank4_witnesses(ctx8, group8)


def test_checked_triples_refuse_a_product_other_than_iota(ctx8, involutions8,
                                                          monkeypatch):
    """Conjugating the walk triples by a torus element d keeps all three
    involution conditions but moves the product to d^-1 iota d = d^-2
    iota; the batch check raises on it rather than certify the lemma."""
    build = tr._triple_from_inverse_pair
    torus = fs.torus_elements(ctx8)
    d = torus[~kn.identity_mask(torus)][:1]
    d_inv = kn.invert_symplectic(ctx8, d)

    def conjugated(ctx, s1_inv, s3_inv):
        s = build(ctx, s1_inv, s3_inv).reshape(-1, 16)
        s = kn.mat_mul_pairs(ctx, d_inv, kn.mat_mul_pairs(ctx, s, d))
        return s.reshape(-1, 3, 16)
    monkeypatch.setattr(tr, "_triple_from_inverse_pair", conjugated)
    ws = involutions8[~hp.is_iota(ctx8, involutions8)][:4]
    rev = ws.reshape(-1, 4, 4)[:, :, ::-1].reshape(-1, 16)
    with pytest.raises(VerificationError, match="not iota"):
        tr._checked_triples(ctx8, rev[:1], rev[1:])
