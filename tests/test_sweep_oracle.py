"""The five-equation membership test against the reduced-sweep oracle.

``kernels.suzuki_mask`` (and ``wilson.is_suzuki``, the same test on one
matrix) must agree exactly with the sweep in ``sweep_oracle`` on every
candidate family the package filters, on the whole of Sz(8), and on
near-members: products of two members, alone or times a random
symplectic transvection or transvection product.  At q = 8 the
all-pairs brute force settles near-members and their neighbours too.
"""
import random

import numpy as np

import helpers as hp
import sweep_oracle as so
from szverify import fixed_set as fs
from szverify import kernels as kn
from szverify import linalg4 as la
from szverify import wilson as wl


def near_members(ctx, members, n, seed):
    """n symplectic matrices at or next to Sz(q), every third a member.

    Matrix k is a product a b of two random members, times nothing when
    k % 3 == 0, one random symplectic transvection when k % 3 == 1, and
    a random product of eight transvections when k % 3 == 2.
    """
    f = ctx.field
    rng = random.Random(seed)
    out = []
    for k in range(n):
        g = la.mat_mul(f, rng.choice(members), rng.choice(members))
        if k % 3 == 1:
            g = la.mat_mul(f, g, random_transvection(ctx, rng))
        elif k % 3 == 2:
            g = la.mat_mul(f, g, wl.random_symplectic(ctx, rng))
        out.append(g)
    return out


def random_transvection(ctx, rng):
    u = la.ZERO_VEC
    while u == la.ZERO_VEC:
        u = tuple(rng.randrange(ctx.q) for _ in range(4))
    return wl.symplectic_transvection(ctx.field, u, rng.randrange(1, ctx.q))


def assert_agree(ctx, ents):
    """The mask equals the oracle on every row; returns the mask."""
    mask = kn.suzuki_mask(ctx, ents)
    oracle = so.sweep_mask(ctx, ents)
    bad = np.flatnonzero(mask != oracle)
    assert not len(bad), (
        f"{len(bad)} disagreements, first {kn.entries_to_mat(ents[bad[0]])}")
    return mask


def test_sweep_pairs_layout(ctx8):
    us, vs, ws = so.sweep_pairs(ctx8)
    n_reps = (8 ** 4 - 1) // 7
    # 8 basis prefilter pairs, then 3 perp-basis vectors per rep
    assert len(us) == 8 + 3 * n_reps
    assert len(vs) == len(us) == len(ws)
    f = ctx8.field
    for k in range(0, len(us), 97):
        u = tuple(int(x) for x in us[k])
        v = tuple(int(x) for x in vs[k])
        assert la.form_f(f, u, v) == 0
        assert wl.bullet(ctx8, u, v) == tuple(int(x) for x in ws[k])


def test_projective_reps_count(ctx8):
    reps = so.projective_reps(ctx8)
    # (q^4 - 1) / (q - 1) projective points
    assert len(reps) == (8 ** 4 - 1) // 7


def test_agrees_on_sylow_candidates_q8(ctx8):
    assert assert_agree(ctx8, kn.sylow_candidates(ctx8)).sum() == 64


def test_agrees_on_unitriangular_candidates_q8(ctx8):
    assert assert_agree(ctx8, hp.unitriangular_candidates(ctx8)).sum() == 8


def test_agrees_on_whole_group_q8(ctx8, group8):
    assert assert_agree(ctx8, group8.entries).sum() == group8.order == 29120


def test_agrees_on_near_members_q8(ctx8, group8):
    members = hp.mats(hp.sample(group8, 60, seed=41))
    mats = near_members(ctx8, members, 240, seed=42)
    mask = assert_agree(ctx8, kn.mats_to_entries(mats))
    assert list(np.flatnonzero(mask)) == list(range(0, 240, 3))


def test_agrees_off_the_symplectic_group_q8(ctx8, group8):
    """Every residual vanishes on the zero matrix, so only the symplectic
    test rejects it; likewise for scaled members c g (c != 1) and random
    matrices, which are not symplectic."""
    f = ctx8.field
    members = hp.mats(hp.sample(group8, 20, seed=48))
    rng = random.Random(49)
    mats = [(0,) * 16]
    mats += [tuple(f.mul(c, v) for v in g) for g in members
             for c in range(2, 8)]
    mats += [tuple(rng.randrange(8) for _ in range(16)) for _ in range(100)]
    mask = assert_agree(ctx8, kn.mats_to_entries(mats))
    assert not mask.any()
    assert not wl.is_suzuki(ctx8, mats[0])
    assert not wl.is_suzuki_bruteforce(ctx8, mats[0])


def test_is_suzuki_matches_bruteforce_on_near_members_q8(ctx8, group8):
    """20 members a b and their neighbours a b t, t a transvection,
    through the all-pairs oracle in one batch."""
    f = ctx8.field
    rng = random.Random(43)
    members = hp.mats(hp.sample(group8, 40, seed=44))
    mats = []
    for k in range(20):
        g = la.mat_mul(f, members[2 * k], members[2 * k + 1])
        mats += [g, la.mat_mul(f, g, random_transvection(ctx8, rng))]
    want = [True, False] * 20
    assert [wl.is_suzuki(ctx8, m) for m in mats] == want
    assert wl.bruteforce_mask(ctx8, mats).tolist() == want


def test_agrees_at_q32(ctx32):
    """One oracle call, about 21 s: a seeded sample of 32,768 of the
    q^4 Sylow candidates plus 90 near-members built from the Sylow
    subgroup, the torus and iota."""
    f = ctx32.field
    cand = kn.sylow_candidates(ctx32)
    sylow = [kn.entries_to_mat(r) for r in cand[kn.suzuki_mask(ctx32, cand)]]
    assert len(sylow) == 32 * 32
    gens = sylow + hp.mats(fs.torus_elements(ctx32)) + [tuple(ctx32.iota)]
    rng = random.Random(45)
    members = []
    for _ in range(40):
        g = la.identity()
        for _ in range(4):
            g = la.mat_mul(f, g, rng.choice(gens))
        members.append(g)
    near = kn.mats_to_entries(near_members(ctx32, members, 90, seed=46))
    pick = np.random.default_rng(47).choice(len(cand), 32768, replace=False)
    mask = assert_agree(ctx32, np.concatenate([cand[np.sort(pick)], near]))
    assert mask[:32768].sum() == 30  # about 32768 / q^2 Sylow members
    assert list(np.flatnonzero(mask[32768:])) == list(range(0, 90, 3))
