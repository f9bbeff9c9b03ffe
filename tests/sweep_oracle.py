"""The reduced projective sweep: an independent membership oracle.

This is the membership test szverify used before the five-equation
basis-residual test in ``kernels.suzuki_mask`` replaced it.  It checks
the product condition g(u) * g(v) == g(u * v) directly on
3(q^3 + q^2 + q + 1) perpendicular pairs: the residual at (u, v) scales
by c^t when u is scaled by c and is additive in v, so u ranges over
projective representatives only and v over a basis of the hyperplane
perpendicular to u.  It shares the field tables, the symplectic test and
the scalar product ``wilson.bullet`` with the code it checks, and
nothing of the residual algebra.

On one core of a 2-vCPU host a call costs about 14 s on the 29,120
elements of Sz(8), and at q = 32 about 21 s for 32,768 candidates and
52 s for all q^4 Sylow candidates, so each test calls it at most once.
"""
from __future__ import annotations

from functools import lru_cache

import numpy as np

from szverify import kernels as kn
from szverify.context import SuzukiContext
from szverify.linalg4 import basis_vec
from szverify.wilson import bullet

# Unordered basis pairs (i, j) with f(e_i, e_j) = 0, i.e. i + j != 3.
PERP_BASIS_PAIRS = (
    (0, 0), (1, 1), (2, 2), (3, 3),
    (0, 1), (0, 2), (1, 3), (2, 3),
)

# Survivors are compacted after every this many pairs, so late pairs
# only touch live candidates.
_COMPACT_EVERY = 32


@lru_cache(maxsize=None)
def projective_reps(ctx: SuzukiContext):
    """One representative per projective point: first nonzero coordinate 1.

    Returns a list of (q^3 + q^2 + q + 1) vectors grouped by leading index.
    """
    reps = []
    q = ctx.q
    for k in range(4):
        free = 3 - k
        for code in range(q ** free):
            v = [0, 0, 0, 0]
            v[k] = 1
            c = code
            for pos in range(k + 1, 4):
                v[pos] = c % q
                c //= q
            reps.append(tuple(v))
    return reps


def perp_basis(ctx: SuzukiContext, u):
    """A basis of the hyperplane perpendicular to u (u != 0).

    With k the leading index of u, the vectors are e_j + (u_{3-j}/u_k) e_{3-k}
    for the three j != 3-k; each pairs to zero with u and they are
    independent because their e_j components are.
    """
    f = ctx.field
    k = next((i for i in range(4) if u[i]), None)
    if k is None:
        raise ValueError("zero vector has no perpendicular hyperplane basis")
    c = f.inv(u[k])
    out = []
    for j in range(4):
        if j == 3 - k:
            continue
        v = [0, 0, 0, 0]
        v[j] ^= 1
        v[3 - k] ^= f.mul(c, u[3 - j])
        out.append(tuple(v))
    return out


@lru_cache(maxsize=None)
def sweep_pairs(ctx: SuzukiContext):
    """Pair data for the sweep.

    Returns (U, V, W) uint8 arrays of shape (m, 4): projective
    representative, perpendicular-basis vector, and their product, with
    the eight pure basis pairs placed first so they act as a prefilter.
    """
    us, vs, ws = [], [], []
    for i, j in PERP_BASIS_PAIRS:
        u, v = basis_vec(i), basis_vec(j)
        us.append(u)
        vs.append(v)
        ws.append(bullet(ctx, u, v))
    for u in projective_reps(ctx):
        for v in perp_basis(ctx, u):
            us.append(u)
            vs.append(v)
            ws.append(bullet(ctx, u, v))
    return (np.array(us, dtype=np.uint8),
            np.array(vs, dtype=np.uint8),
            np.array(ws, dtype=np.uint8))


def _apply_fixed_vec(mul, x, vec):
    """x . vec for an (n, 4, 4) batch and one fixed 4-vector."""
    n = x.shape[0]
    cols = []
    for i in range(4):
        acc = np.zeros(n, dtype=np.uint8)
        for j in range(4):
            if vec[j]:
                acc ^= mul[x[:, i, j], vec[j]]
        cols.append(acc)
    return cols


def sweep_mask(ctx: SuzukiContext, ents: np.ndarray) -> np.ndarray:
    """Membership in Sz(q) for an (n, 16) batch, by the reduced sweep."""
    mul, frob, _ = kn.field_tables(ctx)
    result = kn.symplectic_mask(ctx, ents)
    alive = np.flatnonzero(result)
    x = ents.reshape(-1, 4, 4)[alive]
    U, V, W = sweep_pairs(ctx)
    pending = np.ones(len(alive), dtype=bool)
    for p in range(U.shape[0]):
        if not pending.any():
            break
        gu = frob[np.stack(_apply_fixed_vec(mul, x, U[p]), axis=1)]
        gv = frob[np.stack(_apply_fixed_vec(mul, x, V[p]), axis=1)]
        gw = _apply_fixed_vec(mul, x, W[p])
        ok = (mul[gu[:, 1], gv[:, 3]] ^ mul[gu[:, 3], gv[:, 1]]) == gw[0]
        ok &= (mul[gu[:, 0], gv[:, 1]] ^ mul[gu[:, 1], gv[:, 0]]) == gw[1]
        ok &= (mul[gu[:, 2], gv[:, 3]] ^ mul[gu[:, 3], gv[:, 2]]) == gw[2]
        ok &= (mul[gu[:, 0], gv[:, 2]] ^ mul[gu[:, 2], gv[:, 0]]) == gw[3]
        pending &= ok
        if p % _COMPACT_EVERY == _COMPACT_EVERY - 1:
            keep = np.flatnonzero(pending)
            if len(keep) < len(pending):
                x = x[keep]
                alive = alive[keep]
                pending = np.ones(len(keep), dtype=bool)
    result[:] = False
    result[alive[pending]] = True
    return result
