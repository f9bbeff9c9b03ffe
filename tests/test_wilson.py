import random

import numpy as np
import pytest

import helpers as hp
from conftest import all_vecs, bullet_np
from szverify import fixed_set as fs
from szverify import kernels as kn
from szverify import linalg4 as la
from szverify import wilson as wl

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
    """The oracle's directly enumerated pairs are exactly the zeros of
    the full 4096 x 4096 form table, each once."""
    mul, _, _ = kn.field_tables(ctx8)
    vecs = all_vecs(8)
    n = len(vecs)
    gram = np.zeros((n, n), dtype=np.uint8)
    for i in range(4):
        gram ^= mul[vecs[:, i][:, None], vecs[:, 3 - i][None, :]]
    want = np.flatnonzero(gram == 0)
    _, _, oracle_vecs, ui, vi = wl._bruteforce_tables(ctx8)
    assert np.array_equal(oracle_vecs, vecs)
    assert np.array_equal(np.sort(ui.astype(np.int64) * n + vi), want)


def test_perp_basis_pairs_count(ctx8):
    assert len(wl.PERP_BASIS_PAIRS) == 8
    for (i, j) in wl.PERP_BASIS_PAIRS:
        assert la.form_f(ctx8.field, la.basis_vec(i), la.basis_vec(j)) == 0


def test_wilson_residual_rejects_nonperp(ctx8):
    u, v = la.basis_vec(0), la.basis_vec(3)
    with pytest.raises(ValueError):
        hp.wilson_residual(ctx8, la.identity(), u, v)


def test_accepts_identity_iota_torus(ctx8):
    assert wl.is_suzuki(ctx8, la.identity())
    assert wl.is_suzuki(ctx8, ctx8.iota)
    for a in range(1, 8):
        assert wl.is_suzuki(ctx8, fs.torus_element(ctx8, a))


def test_accepts_all_group_elements(ctx8, group8):
    """The membership test accepts every closure element, as a batch and
    on 200 single elements."""
    mask = kn.suzuki_mask(ctx8, group8.entries)
    assert len(mask) == group8.order
    assert bool(mask.all())
    for g in hp.sample(group8, 200, seed=5):
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


def test_random_symplectic_is_symplectic(ctx8):
    for k in range(20):
        m = wl.random_symplectic(ctx8, random.Random(k))
        assert la.is_symplectic(ctx8.field, m)
