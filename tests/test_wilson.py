import random

import numpy as np
import pytest

import helpers as hp
import sweep_oracle as so
from conftest import all_vecs, bullet_np
from szverify import fixed_set as fs
from szverify import kernels as kn
from szverify import linalg4 as la
from szverify import wilson as wl
from szverify.errors import FieldRangeError

# e_i . e_j basis products, 0-based: the only nonzero entries.
FROZEN_TABLE = {
    (0, 1): 1, (1, 0): 1,
    (0, 2): 3, (2, 0): 3,
    (1, 3): 0, (3, 1): 0,
    (2, 3): 2, (3, 2): 2,
}


def test_basis_table_matches_frozen(ctx8):
    for i in range(4):
        for j in range(4):
            got = wl.bullet(ctx8, la.basis_vec(i), la.basis_vec(j))
            want = [0, 0, 0, 0]
            if (i, j) in FROZEN_TABLE:
                want[FROZEN_TABLE[i, j]] = 1
            assert got == tuple(want)


def test_bullet_commutative_sampled(ctx8):
    rng = random.Random(11)
    for _ in range(200):
        u = tuple(rng.randrange(8) for _ in range(4))
        v = tuple(rng.randrange(8) for _ in range(4))
        assert wl.bullet(ctx8, u, v) == wl.bullet(ctx8, v, u)


def test_bullet_biadditive_sampled(ctx8):
    rng = random.Random(12)
    for _ in range(200):
        u = tuple(rng.randrange(8) for _ in range(4))
        v = tuple(rng.randrange(8) for _ in range(4))
        w = tuple(rng.randrange(8) for _ in range(4))
        lhs = wl.bullet(ctx8, la.vec_add(u, w), v)
        rhs = la.vec_add(wl.bullet(ctx8, u, v), wl.bullet(ctx8, w, v))
        assert lhs == rhs


def test_semilinearity_exhaustive_q8(ctx8, bullet_sweep8):
    """(c u) . v == c^t (u . v) for every scalar c and every vector pair.

    4096 x 4096 pairs per scalar, vectorised in the session's
    bullet_sweep8, which criterion 9 reads too; the scalar bullet is
    checked against the vectorised one on a sample first.
    """
    mul, frob, _ = kn.field_tables(ctx8)
    vecs = all_vecs(8)
    rng = np.random.default_rng(13)
    sample = rng.integers(0, len(vecs), 64)
    for i in sample:
        for j in sample[:8]:
            got = bullet_np(mul, frob, vecs[i:i + 1], vecs[j:j + 1])[0]
            want = wl.bullet(ctx8, tuple(int(x) for x in vecs[i]),
                             tuple(int(x) for x in vecs[j]))
            assert tuple(int(x) for x in got) == want

    assert bullet_sweep8.semilinear


def test_oracle_pairs_are_all_perpendicular_pairs(ctx8):
    """The oracle's directly enumerated pairs, its blocks concatenated,
    are exactly the zeros of the full 4096 x 4096 form table, each once,
    and each carries its product u * v."""
    mul, frob, _ = kn.field_tables(ctx8)
    vecs = all_vecs(8)
    n = len(vecs)
    gram = np.zeros((n, n), dtype=np.uint8)
    for i in range(4):
        gram ^= mul[vecs[:, i][:, None], vecs[:, 3 - i][None, :]]
    want = np.flatnonzero(gram == 0)
    ui, vi, wi = (np.concatenate(col)
                  for col in zip(*wl._pair_blocks(ctx8)))
    assert np.array_equal(wl._vectors(ctx8), vecs)
    assert np.array_equal(np.sort(ui.astype(np.int64) * n + vi), want)
    assert np.array_equal(vecs[wi], bullet_np(mul, frob, vecs[ui], vecs[vi]))


def test_oracle_walk_ends_when_no_row_is_left(ctx8, group8, monkeypatch):
    """An accepted member takes every block of pairs, all 2,100,736 of
    them, the u = 0 block last; a batch of non-members stops after the
    block k = 0, where each of them fails, and never reaches the u = 0
    block, which every linear map passes.  No verdict shows a truncated
    walk: at q = 8 the pairs of block k = 0 already decide membership."""
    blocks = wl._pair_blocks
    seen = []

    def recording(ctx):
        for k, block in zip((0, 1, 2, 3, -1), blocks(ctx)):
            seen.append((k, len(block[0])))
            yield block

    monkeypatch.setattr(wl, "_pair_blocks", recording)
    assert wl.bruteforce_mask(ctx8, hp.sample(group8, 2, seed=33)).all()
    assert [k for k, _ in seen] == [0, 1, 2, 3, -1]
    assert sum(n for _, n in seen) == 2100736
    seen.clear()
    rngs = [random.Random(1000 + k) for k in range(10)]
    assert not wl.bruteforce_mask(ctx8,
                                  wl.random_symplectics(ctx8, rngs)).any()
    assert [k for k, _ in seen] == [0]


def test_oracle_batch_matches_one_row_calls(ctx8, group8):
    """Members, near-members g t (t the transvection), the zero matrix,
    a scaled member and random matrices, shuffled: the batch verdicts are
    the one-row verdicts, and the members are exactly the group's."""
    f = ctx8.field
    members = hp.mats(hp.sample(group8, 3, seed=31))
    rng = random.Random(32)
    mats = members + [la.mat_mul(f, g, wl.e1_transvection(ctx8))
                      for g in members]
    mats += [(0,) * 16, tuple(f.mul(3, v) for v in members[0])]
    mats += [tuple(rng.randrange(8) for _ in range(16)) for _ in range(3)]
    rng.shuffle(mats)
    mask = wl.bruteforce_mask(ctx8, mats)
    assert mask.tolist() == [wl.is_suzuki_bruteforce(ctx8, m) for m in mats]
    assert mask.tolist() == [m in group8 for m in mats]
    assert mask.sum() == 3
    assert wl.bruteforce_mask(ctx8, []).shape == (0,)
    with pytest.raises(FieldRangeError):
        wl.bruteforce_mask(ctx8, [(8,) + (0,) * 15])


def test_perp_basis_pairs_count(ctx8):
    assert len(so.PERP_BASIS_PAIRS) == 8
    for (i, j) in so.PERP_BASIS_PAIRS:
        assert la.form_f(ctx8.field, la.basis_vec(i), la.basis_vec(j)) == 0


def test_wilson_residual_rejects_nonperp(ctx8):
    u, v = la.basis_vec(0), la.basis_vec(3)
    with pytest.raises(ValueError):
        hp.wilson_residual(ctx8, la.identity(), u, v)


@pytest.mark.parametrize("ctx_name", ["ctx8", "ctx32"])
def test_diagonal_residuals_vanish(request, ctx_name):
    """R_ii = g e_i * g e_i + g(e_i * e_i) is zero for every matrix, on
    seeded random ones, symplectic or not: e_i * e_i = 0, and u * u = 0
    since the basis table is symmetric with a zero diagonal and the
    characteristic is 2.  So suzuki_mask leaves the diagonal pairs out."""
    ctx = request.getfixturevalue(ctx_name)
    rng = random.Random(41)
    mats = [tuple(rng.randrange(ctx.q) for _ in range(16))
            for _ in range(20)]
    mats += [wl.random_symplectic(ctx, random.Random(4100 + k))
             for k in range(20)]
    for g in mats:
        for i in range(4):
            e = la.basis_vec(i)
            assert hp.wilson_residual(ctx, g, e, e) == la.ZERO_VEC


def test_accepts_identity_iota_torus(ctx8):
    assert wl.is_suzuki(ctx8, la.identity())
    assert wl.is_suzuki(ctx8, ctx8.iota)
    for m in hp.mats(fs.torus_elements(ctx8)):
        assert wl.is_suzuki(ctx8, m)


def test_accepts_all_group_elements(ctx8, group8):
    """The membership test accepts every closure element, as a batch and
    on 200 single elements."""
    mask = kn.suzuki_mask(ctx8, group8.entries)
    assert len(mask) == group8.order
    assert bool(mask.all())
    for g in hp.mats(hp.sample(group8, 200, seed=5)):
        assert wl.is_suzuki(ctx8, g)


def test_rejects_constructed_nonmembers(ctx8):
    """100 random transvection products: symplectic, none in Sz(8)."""
    assert not wl.is_suzuki(ctx8, wl.e1_transvection(ctx8))
    n = 0
    for k in range(100):
        m = wl.random_symplectic(ctx8, random.Random(1000 + k))
        assert la.is_symplectic(ctx8.field, m)
        assert not wl.is_suzuki(ctx8, m)
        n += 1
    assert n == 100


def test_oracle_rejects_e1_transvection(ctx8):
    assert not wl.is_suzuki_bruteforce(ctx8, wl.e1_transvection(ctx8))


def test_oracle_refuses_large_q(ctx32):
    with pytest.raises(ValueError):
        wl.is_suzuki_bruteforce(ctx32, la.identity())
    with pytest.raises(ValueError):
        wl.bruteforce_mask(ctx32, [la.identity()])


def test_random_symplectic_is_symplectic(ctx8):
    for k in range(20):
        m = wl.random_symplectic(ctx8, random.Random(k))
        assert la.is_symplectic(ctx8.field, m)


def test_random_symplectics_match_scalar_chain(ctx8, ctx32):
    """The batched product chain gives, seed by seed, the matrices of the
    scalar linalg4 chain; a shared rng goes on the same way in one-row
    calls, and length 0 is the identity."""
    batch = wl.random_symplectics(
        ctx8, [random.Random(1000 + k) for k in range(100)])
    assert [kn.entries_to_mat(row) for row in batch] == [
        hp.random_symplectic_scalar(ctx8, random.Random(1000 + k))
        for k in range(100)]
    a, b = random.Random(5), random.Random(5)
    for ctx in (ctx8, ctx32):
        assert ([wl.random_symplectic(ctx, a) for _ in range(3)]
                == [hp.random_symplectic_scalar(ctx, b) for _ in range(3)])
    assert wl.random_symplectic(ctx8, a, length=0) == la.identity()
