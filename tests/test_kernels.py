import random

import numpy as np
import pytest

import helpers as hp
from szverify import fixed_set as fs
from szverify import kernels as kn
from szverify import linalg4 as la
from szverify import groups as gr
from szverify import wilson as wl
from szverify import triples as tr
from szverify.errors import (FieldRangeError, NotSymplecticError,
                              SzVerifyError)


def rand_mats(rng, n):
    return [tuple(rng.randrange(8) for _ in range(16)) for _ in range(n)]


def test_entries_round_trip(ctx8):
    rng = random.Random(31)
    mats = rand_mats(rng, 50)
    ents = kn.mats_to_entries(mats)
    assert ents.shape == (50, 16)
    for i, m in enumerate(mats):
        assert kn.entries_to_mat(ents[i]) == m


# What each API that hands out matrices returns, on Sz(8).
BOUNDARY = {
    "involutions": lambda ctx, g: gr.involutions(g),
    "conjugation_orbit":
        lambda ctx, g: gr.conjugation_orbit(ctx, ctx.iota, g.generators),
    "closed_form_X": lambda ctx, g: fs.closed_form_X(ctx),
    "fixed_set_result":
        lambda ctx, g: fs.fixed_set_result(ctx, g).brute_force,
    "equation_census":
        lambda ctx, g: fs.equation_census(ctx, g.fixed_points).full_solutions,
    "generators": lambda ctx, g: g.generators,
}


@pytest.mark.parametrize("name", sorted(BOUNDARY))
def test_matrices_cross_apis_as_entries(ctx8, group8, name):
    """Matrices leave groups and fixed_set as (n, 16) uint8 entries: each
    set in strictly increasing canonical (row-major lexicographic) order,
    checked against the tuple sort, and the generators read-only."""
    ents = BOUNDARY[name](ctx8, group8)
    assert isinstance(ents, np.ndarray) and ents.dtype == np.uint8
    assert ents.ndim == 2 and ents.shape[1] == 16 and len(ents)
    if name == "generators":
        assert not ents.flags.writeable
    else:
        assert hp.mats(ents) == sorted(set(hp.mats(ents)))


def test_key_round_trip(ctx8, ctx32):
    rng = random.Random(33)
    for ctx in (ctx8, ctx32):
        mats = [tuple(rng.randrange(ctx.q) for _ in range(16))
                for _ in range(200)]
        ents = kn.mats_to_entries(mats)
        assert np.array_equal(kn.key_entries(kn.entry_keys(ctx, ents)), ents)


def test_void_keys_dedup_matches_tuples(ctx8, ctx32):
    """Equal keys exactly for equal matrices, packed (q = 8) or record
    (q = 32)."""
    rng = random.Random(34)
    mats = rand_mats(rng, 100) * 3
    ents = kn.mats_to_entries(mats)
    for ctx in (ctx8, ctx32):
        assert len(np.unique(kn.entry_keys(ctx, ents))) == len(set(mats))


@pytest.mark.parametrize("ctx_name", ["ctx8", "ctx32"])
def test_sort_keys_are_canonical(request, ctx_name):
    ctx = request.getfixturevalue(ctx_name)
    q = ctx.q
    rng = random.Random(33)
    mats = [tuple(rng.randrange(q) for _ in range(16)) for _ in range(150)]
    # neighbours that differ in one entry, so every position breaks a tie
    mats += [m[:k] + ((m[k] + 1) % q,) + m[k + 1:]
             for k, m in zip(range(16), mats)]
    mats *= 2
    ekeys = kn.entry_keys(ctx, kn.mats_to_entries(mats))
    want = sorted(mats)
    assert [mats[i] for i in np.argsort(ekeys)] == want
    back = kn.key_entries(np.sort(ekeys))
    assert [kn.entries_to_mat(r) for r in back] == want
    assert len(np.unique(ekeys)) == len(set(mats))


def test_key_dtype_follows_q(ctx8, ctx32):
    ents = kn.mats_to_entries([la.identity()])
    assert kn.entry_keys(ctx8, ents).dtype == np.uint64
    rec = kn.entry_keys(ctx32, ents)
    assert rec.dtype.kind == "V" and rec.dtype.itemsize == 16


def test_keys_round_trip_all_of_sz8(ctx8, group8):
    keys = kn.entry_keys(ctx8, group8.entries)
    assert bool((keys[1:] > keys[:-1]).all())
    assert np.array_equal(kn.key_entries(keys), group8.entries)


def _record_and_packed_sorts_agree(ctx8, ctx32, ents):
    packed = kn.entry_keys(ctx8, ents)
    record = kn.entry_keys(ctx32, ents)
    assert np.array_equal(np.argsort(packed, kind="stable"),
                          np.argsort(record, kind="stable"))


def test_packed_sort_matches_record_sort_on_sz8(ctx8, ctx32, group8):
    perm = np.random.default_rng(41).permutation(group8.order)
    _record_and_packed_sorts_agree(ctx8, ctx32, group8.entries[perm])


def test_packed_sort_matches_record_sort_on_nibbles(ctx8, ctx32):
    """Random entries 0..15, the whole nibble range, with ties and
    one-entry neighbours."""
    rng = np.random.default_rng(42)
    ents = rng.integers(0, 16, (4000, 16), dtype=np.uint8)
    near = ents[:16].copy()
    near[np.arange(16), np.arange(16)] ^= 1
    _record_and_packed_sorts_agree(
        ctx8, ctx32, np.concatenate([ents, ents[:500], near]))


def test_packed_keys_refuse_wide_entries(ctx8):
    ents = kn.mats_to_entries([la.identity()])
    ents[0, 3] = 16
    with pytest.raises(ValueError):
        kn.entry_keys(ctx8, ents)


@pytest.mark.parametrize("ctx_name", ["ctx8", "ctx32"])
def test_row_action_table_matches_vec_mat(request, ctx_name):
    ctx = request.getfixturevalue(ctx_name)
    q = ctx.q
    rng = random.Random(36)
    gs = [wl.random_symplectic(ctx, rng) for _ in range(3)]
    tables = kn.row_action_table(ctx, gs)
    assert tables.shape == (3, 4, q)
    assert tables.dtype == np.uint32
    for g, table in zip(gs, tables):
        for _ in range(50):
            v = tuple(rng.randrange(q) for _ in range(4))
            row = np.bitwise_xor.reduce([table[i, v[i]] for i in range(4)])
            got = tuple(int(x) for x in np.array([row]).view(np.uint8))
            assert got == hp.vec_mat(ctx.field, v, g)


def test_row_action_batch_matches_mat_mul(ctx8):
    """The closure's product step: x g for a batch, for one table and
    for two tables from one batch call (the products come table by
    table)."""
    rng = random.Random(38)
    f = ctx8.field
    xs = rand_mats(rng, 30)
    g, h = (wl.random_symplectic(ctx8, rng) for _ in range(2))
    ents = kn.mats_to_entries(xs)
    tables = kn.row_action_table(ctx8, [g, h])
    want = [la.mat_mul(f, x, m) for m in (g, h) for x in xs]
    one = kn.row_action(kn.row_action_table(ctx8, [g]), ents)
    assert one.shape == (30, 16) and one.dtype == np.uint8
    assert [kn.entries_to_mat(r) for r in one] == want[:30]
    both = kn.row_action(tables, ents)
    assert [kn.entries_to_mat(r) for r in both] == want
    # row vectors, as the base orbits use them
    vecs = ents.reshape(-1, 4)
    got = kn.row_action(tables, vecs)
    assert got.shape == (2 * len(vecs), 4)
    assert [tuple(r) for r in got.tolist()] == [
        hp.vec_mat(f, tuple(v), m) for m in (g, h) for v in vecs.tolist()]


def test_symplectic_mask_matches_scalar(ctx8, ctx32):
    """symplectic_mask agrees with linalg4.is_symplectic row by row, and
    invert_symplectic refuses exactly the rows it rejects and inverts
    the others as linalg4.invert does."""
    for ctx in (ctx8, ctx32):
        _check_symplectic_rows(ctx)


def _check_symplectic_rows(ctx):
    rng = random.Random(39)
    rand = [tuple(rng.randrange(ctx.q) for _ in range(16))
            for _ in range(100)]
    syms = hp.mats(wl.random_symplectics(
        ctx, [random.Random(3900 + k) for k in range(20)]))
    # a zero row: singular, and so outside Sp4(q)
    singular = [m[:4 * (k % 4)] + (0,) * 4 + m[4 * (k % 4) + 4:]
                for k, m in enumerate(syms[:4] + rand[:4])]
    mats = rand + singular + syms + [wl.e1_transvection(ctx),
                                     la.identity(), ctx.iota]
    ents = kn.mats_to_entries(mats)
    mask = kn.symplectic_mask(ctx, ents)
    assert mask.tolist() == [la.is_symplectic(ctx.field, m) for m in mats]
    assert mask.sum() == len(syms) + 3
    for row in ents[~mask]:
        with pytest.raises(NotSymplecticError):
            kn.invert_symplectic(ctx, row[None])
    inv = kn.invert_symplectic(ctx, ents[mask])
    assert hp.mats(inv) == [la.invert(ctx.field, m)
                            for m, ok in zip(mats, mask) if ok]


def test_times_iota_matches_mat_mul(ctx8):
    rng = random.Random(41)
    mats = rand_mats(rng, 30) + [la.identity(), ctx8.iota]
    got = kn.times_iota(kn.mats_to_entries(mats))
    assert got.shape == (32, 16) and got.dtype == np.uint8
    assert hp.mats(got) == [la.mat_mul(ctx8.field, m, ctx8.iota)
                            for m in mats]


def test_involution_mask(ctx8):
    mats = [la.identity(), ctx8.iota, fs.torus_elements(ctx8)[2]]
    mask = kn.involution_mask(ctx8, kn.mats_to_entries(mats))
    assert list(mask) == [False, True, False]


def test_involution_mask_matches_scalar_squaring(ctx8, group8):
    """Over all of Sz(8), against squaring by linalg4.mat_mul."""
    f = ctx8.field
    mask = kn.involution_mask(ctx8, group8.entries)
    want = [x != la.identity() and la.mat_mul(f, x, x) == la.identity()
            for x in hp.mats(group8.entries)]
    assert mask.tolist() == want
    assert sum(want) == 455


def test_fixed_point_mask_matches_definition(ctx8):
    f = ctx8.field
    mats = [la.identity(), ctx8.iota, hp.mats(fs.torus_elements(ctx8)[4])[0],
            wl.e1_transvection(ctx8)]
    mask = kn.fixed_point_mask(ctx8, kn.mats_to_entries(mats))
    for i, m in enumerate(mats):
        want = la.mat_mul(f, la.mat_mul(f, m, ctx8.iota), m) == ctx8.iota
        assert bool(mask[i]) == want


def test_suzuki_mask_matches_scalar_predicate(ctx8):
    rng = random.Random(40)
    mats = [la.identity(), ctx8.iota, wl.e1_transvection(ctx8)]
    mats += hp.mats(fs.torus_elements(ctx8))
    mats += [wl.random_symplectic(ctx8, random.Random(4000 + k))
             for k in range(40)]
    mask = kn.suzuki_mask(ctx8, kn.mats_to_entries(mats))
    for i, m in enumerate(mats):
        assert bool(mask[i]) == wl.is_suzuki(ctx8, m)


def test_sylow_candidates_filter(ctx8):
    """The flag-adapted family contains exactly q^2 = 64 group elements,
    all of them symplectic by construction."""
    cand = kn.sylow_candidates(ctx8)
    assert len(cand) == 8 ** 4
    assert bool(kn.symplectic_mask(ctx8, cand).all())
    kept = kn.suzuki_mask(ctx8, cand)
    assert int(kept.sum()) == 64


def test_unitriangular_filter_is_degenerate(ctx8):
    """Lower-unitriangular matrices meeting the membership test: only the
    q central-looking ones, far short of a Sylow subgroup.  Kept as a
    frozen fact; the Sylow family above is the usable one."""
    cand = hp.unitriangular_candidates(ctx8)
    kept = kn.suzuki_mask(ctx8, cand)
    assert int(kept.sum()) == 8


def test_sylow32_candidates_shape(ctx32):
    cand = kn.sylow_candidates(ctx32)
    assert len(cand) == 32 ** 4
    assert bool(kn.symplectic_mask(ctx32, cand).all())


def _sz8_pairs(group8, n, seed):
    rng = np.random.default_rng(seed)
    return (group8.entries[rng.integers(0, group8.order, n)],
            group8.entries[rng.integers(0, group8.order, n)])


def _scalar_products(ctx, a, b):
    f = ctx.field
    return [la.mat_mul(f, kn.entries_to_mat(x), kn.entries_to_mat(y))
            for x, y in zip(a, b)]


def test_mat_mul_pairs_matches_mat_mul_on_sz8(ctx8, group8):
    """Row by row, and with a single row broadcast on either side."""
    a, b = _sz8_pairs(group8, 500, 51)
    got = kn.mat_mul_pairs(ctx8, a, b)
    assert got.shape == (500, 16) and got.dtype == np.uint8
    assert [kn.entries_to_mat(r) for r in got] == _scalar_products(ctx8, a, b)
    one = a[:1]
    left = kn.mat_mul_pairs(ctx8, one, b)
    assert [kn.entries_to_mat(r) for r in left] \
        == _scalar_products(ctx8, np.repeat(one, 500, axis=0), b)
    right = kn.mat_mul_pairs(ctx8, b, one)
    assert [kn.entries_to_mat(r) for r in right] \
        == _scalar_products(ctx8, b, np.repeat(one, 500, axis=0))


def test_mat_mul_pairs_matches_mat_mul_q32(ctx32):
    rng = np.random.default_rng(52)
    a = rng.integers(0, 32, (300, 16), dtype=np.uint8)
    b = rng.integers(0, 32, (300, 16), dtype=np.uint8)
    got = kn.mat_mul_pairs(ctx32, a, b)
    assert [kn.entries_to_mat(r) for r in got] \
        == _scalar_products(ctx32, a, b)


def test_mat_mul_pairs_refuses_unpaired_batches(ctx8):
    ents = np.zeros((3, 16), dtype=np.uint8)
    with pytest.raises(ValueError):
        kn.mat_mul_pairs(ctx8, ents, ents[:2])
    assert kn.mat_mul_pairs(ctx8, ents[:1], ents[:0]).shape == (0, 16)


def test_invert_symplectic_matches_invert_on_sz8(ctx8, group8):
    """All 29,120 elements against Gauss-Jordan elimination."""
    f = ctx8.field
    inv = kn.invert_symplectic(ctx8, group8.entries)
    assert [kn.entries_to_mat(r) for r in inv] \
        == [la.invert(f, x) for x in hp.mats(group8.entries)]


def test_invert_symplectic_matches_invert_q32(ctx32):
    rng = random.Random(53)
    mats = [wl.random_symplectic(ctx32, rng) for _ in range(60)]
    inv = kn.invert_symplectic(ctx32, kn.mats_to_entries(mats))
    assert [kn.entries_to_mat(r) for r in inv] \
        == [la.invert(ctx32.field, m) for m in mats]


@pytest.mark.parametrize("bad", [
    la.diag(1, 1, 1, 3),                        # invertible, not symplectic
    (0, 0, 0, 0) + la.identity()[4:],           # singular
], ids=["diag1113", "singular"])
def test_invert_symplectic_refuses_non_symplectic(ctx8, bad):
    """Checked on every row: one bad row among members still raises."""
    ents = kn.mats_to_entries([la.identity(), ctx8.iota, bad, la.identity()])
    with pytest.raises(NotSymplecticError):
        kn.invert_symplectic(ctx8, ents)
    assert issubclass(NotSymplecticError, SzVerifyError)


@pytest.mark.parametrize("v", [8, 256, -1])
def test_closure_refuses_entries_outside_field(ctx8, v):
    """As FieldRangeError, not a numpy cast error."""
    bad = la.identity()[:3] + (v,) + la.identity()[4:]
    with pytest.raises(FieldRangeError):
        gr.closure(ctx8, [ctx8.iota, bad], ceiling=10)
    assert issubclass(FieldRangeError, SzVerifyError)


@pytest.mark.parametrize("v", [9, 257, -1])
def test_paired_kernels_refuse_entries_outside_field(ctx8, v):
    """Checked before any cast: at q = 8, 0 * 9 would read mul[1][1]
    from the flat table, and 257 would wrap to 1 as uint8."""
    bad = np.array(la.identity(), dtype=np.int64)
    bad[3] = v
    zero = np.zeros(16, dtype=np.int64)
    for call in (lambda: kn.mat_mul_pairs(ctx8, zero, bad),
                 lambda: kn.mat_mul_pairs(ctx8, bad, zero),
                 lambda: kn.invert_symplectic(ctx8, bad),
                 lambda: kn.element_orders(ctx8, bad),
                 lambda: kn.fixed_point_mask(ctx8, bad)):
        with pytest.raises(FieldRangeError):
            call()
    trip = tr.ChiralTriple(ctx8.iota, tuple(bad.tolist()), ctx8.iota)
    with pytest.raises(FieldRangeError):
        hp.involution_conditions(ctx8, trip)


@pytest.mark.parametrize("v", [9, 257, -1, 0.5, np.nan])
def test_membership_masks_refuse_entries_outside_field(ctx8, v):
    """suzuki_mask and symplectic_mask, and so wilson.is_suzuki, check
    their entries before any table lookup: at q = 8 an entry 9 used to
    index past the 8-row tables (IndexError).  The all-pairs oracle and
    conjugation_orbit check theirs before the cast to uint8: an entry
    257 used to wrap to 1 in the oracle's int64 batch, and -1 or 257 in
    a tuple raised numpy's OverflowError.  A float batch with 0.5 or NaN
    is refused too: the cast used to truncate 0.5 to 0, and NaN passed
    the range check."""
    bad = np.array(la.identity(), dtype=np.asarray(v).dtype)
    bad[3] = v
    for call in (lambda: kn.suzuki_mask(ctx8, bad),
                 lambda: kn.symplectic_mask(ctx8, bad),
                 lambda: wl.is_suzuki(ctx8, tuple(bad.tolist())),
                 lambda: wl.bruteforce_mask(ctx8, bad),
                 lambda: wl.is_suzuki_bruteforce(ctx8, tuple(bad.tolist())),
                 lambda: gr.conjugation_orbit(ctx8, tuple(bad.tolist()),
                                              [ctx8.iota])):
        with pytest.raises(FieldRangeError):
            call()


def test_membership_masks_take_an_int64_batch(ctx8, group8):
    """An int64 batch, members and non-members, gets the masks of its
    uint8 batch; it used to fail on a uint8 in-place XOR."""
    rows = np.concatenate([group8.entries[:50], kn.mats_to_entries(
        [wl.e1_transvection(ctx8), la.diag(1, 1, 1, 3)])])
    for mask in (kn.suzuki_mask, kn.symplectic_mask):
        want = mask(ctx8, rows)
        assert np.array_equal(mask(ctx8, rows.astype(np.int64)), want)
    assert kn.suzuki_mask(ctx8, rows.astype(np.int64)).tolist() \
        == [True] * 50 + [False, False]


def test_element_orders_match_scalar_on_sz8(ctx8, group8):
    orders = kn.element_orders(ctx8, group8.entries)
    assert orders.tolist() == [gr.element_order(ctx8, x)
                               for x in hp.mats(group8.entries)]
    with pytest.raises(NotSymplecticError):
        kn.element_orders(ctx8, kn.mats_to_entries([la.diag(1, 1, 1, 3)]))


def test_element_orders_build_no_inverse(ctx8, group8, monkeypatch):
    """element_orders checks its batch with the Sp4(q) mask alone, and
    never builds an inverse of it."""
    sample = hp.sample(group8, 40, seed=12)
    want = [gr.element_order(ctx8, x) for x in hp.mats(sample)]

    def refuse(ctx, ents):
        raise AssertionError("element_orders built an inverse")
    monkeypatch.setattr(kn, "invert_symplectic", refuse)
    assert kn.element_orders(ctx8, sample).tolist() == want
