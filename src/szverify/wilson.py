"""Membership test for Sz(q) inside the symplectic group Sp4(q).

The test rests on a commutative product u * v on GF(q)^4, defined on
basis vectors by the table in the context and extended by

    u * v = sum_{i,j} u_i^t v_j^t (e_i * e_j)

where a -> a^t is the field twist.  A symplectic matrix g lies in Sz(q)
exactly when it respects this product on perpendicular pairs:
g(u) * g(v) == g(u * v) whenever f(u, v) = 0.

Five vector equations decide this.  Expanding u and v in the basis, and
using that the twist is additive and multiplicative, the residual is

    g(u) * g(v) + g(u * v) = sum_{i,j} (u_i v_j)^t R_ij,
    R_ij = g(e_i) * g(e_j) + g(e_i * e_j),

an additive map of the matrix M = u v^T that is t-semilinear in scalars.
The rank-1 matrices u v^T with f(u, v) = sum_i u_i v_{3-i} = 0 are closed
under scalars and span the hyperplane sum_i M_{i,3-i} = 0.  The
hyperplane holds all of them, and their span holds a basis of it: the
12 units E_ij = e_i e_j^T with i + j != 3, and the 3 sums
E_03 + E_{i,3-i} (i = 1, 2, 3), each (e_0 + e_i)(e_3 + e_{3-i})^T less
two units.  So the residual vanishes on every perpendicular pair iff it
vanishes on that basis.  As R is symmetric, that leaves R_ij = 0 on the
eight perpendicular basis pairs i <= j, i + j != 3, and R_03 = R_12
(R_03 + R_30 = 0 holds in characteristic 2).  The two antidiagonal
residuals need only agree; neither need vanish.  R_ii = 0 holds for
every g, as e_i * e_i = 0 and u * u = 0 (the basis table is symmetric
with a zero diagonal, and the characteristic is 2): R_01 = R_02 = R_13
= R_23 = 0 and R_03 = R_12 remain.

kernels.suzuki_mask evaluates the five equations over a batch and
is_suzuki runs it on one matrix.  The brute-force path stays as an
oracle with no shared logic beyond the field tables: bruteforce_mask
checks the product condition itself on all q^3(q^4 + q - 1) ordered
perpendicular pairs (2,100,736 at q = 8), and is_suzuki_bruteforce runs
it on one matrix.  It tables each row's action on the q^4 vectors once,
then walks the pairs in blocks: one block for each last nonzero
coordinate k = 0..3 of u, then u = 0 last, each built on first use and
kept.  Every linear map passes the u = 0 pairs (g(0) * g(v) = 0 =
g(0 * v)), so they come after every pair that can tell.  A row leaves
the batch at its first failing step, and the walk ends when no row is
left, so a batch of non-members builds and reads only the blocks it
needs (at q = 8 the 3,584 pairs of block k = 0), while every matrix the
oracle accepts has passed every pair.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from . import kernels as kn
from .context import SuzukiContext
from .field import BinaryField
from .linalg4 import (
    Mat4,
    Vec4,
    ZERO_VEC,
    basis_vec,
    identity,
    is_symplectic,
)


def bullet(ctx: SuzukiContext, u: Vec4, v: Vec4) -> Vec4:
    """The commutative product, straight from the extension formula."""
    f = ctx.field
    ut = tuple(f.frobenius_t(x) for x in u)
    vt = tuple(f.frobenius_t(x) for x in v)
    out = [0, 0, 0, 0]
    for i in range(4):
        if ut[i] == 0:
            continue
        for j in range(4):
            if vt[j] == 0:
                continue
            basis = ctx.bullet_basis[i][j]
            c = f.mul(ut[i], vt[j])
            for k in range(4):
                if basis[k]:
                    out[k] ^= c
    return tuple(out)


def is_suzuki(ctx: SuzukiContext, g: Mat4) -> bool:
    """Membership in Sz(q): the five-equation batch test on one matrix."""
    return bool(kn.suzuki_mask(ctx, [g])[0])


# Row x pair cells per step of the all-pairs oracle, so that its
# temporaries stay near 20 MB however many rows a batch has.
_CELLS = 1 << 20


@lru_cache(maxsize=None)
def _vectors(ctx: SuzukiContext) -> np.ndarray:
    """All q^4 vectors, (q^4, 4) uint8; coordinate j has weight q^(3-j)
    in a vector's index."""
    q = ctx.q
    idx = np.arange(q ** 4)
    return np.stack(
        [(idx // q ** 3) % q, (idx // q ** 2) % q, (idx // q) % q, idx % q],
        axis=1,
    ).astype(np.uint8)


def _twisted_product(mul, a, b):
    """The four coordinates of u * v from the twisted coordinates a of u
    and b of v: the basis table of the context written out."""
    return (mul[a[1], b[3]] ^ mul[a[3], b[1]],
            mul[a[0], b[1]] ^ mul[a[1], b[0]],
            mul[a[2], b[3]] ^ mul[a[3], b[2]],
            mul[a[0], b[2]] ^ mul[a[2], b[0]])


@lru_cache(maxsize=None)
def _pair_block(ctx: SuzukiContext, k: int):
    """One block of perpendicular ordered pairs, as uint16 vector indices
    (u, v, w) with w = u * v.

    Block k = -1 pairs u = 0 with every v.  Block k >= 0 holds the u whose
    last nonzero coordinate is k: for each w with w_{3-k} = 0, exactly one
    v = w + c e_{3-k} is perpendicular to u, with c = f(u, w) / u_k.
    """
    q = ctx.q
    mul, frob, inv = kn.field_tables(ctx)
    vecs = _vectors(ctx)
    if k < 0:
        ui = np.zeros(len(vecs), dtype=np.uint16)
        vi = np.arange(len(vecs), dtype=np.uint16)
    else:
        nonzero = vecs != 0
        us = np.flatnonzero(nonzero[:, k] & ~nonzero[:, k + 1:].any(axis=1))
        ws = np.flatnonzero(vecs[:, 3 - k] == 0)
        form = np.zeros((len(us), len(ws)), dtype=np.uint8)
        for i in range(4):
            form ^= mul[vecs[us, i][:, None], vecs[ws, 3 - i][None, :]]
        c = mul[inv[vecs[us, k]][:, None], form].astype(np.uint16)
        ui = np.repeat(us, len(ws)).astype(np.uint16)
        vi = (c * q ** k + ws.astype(np.uint16)).reshape(-1)
    tw = frob[vecs]
    uv = _twisted_product(mul, tw[ui].T, tw[vi].T)
    wi = uv[0].astype(np.uint16)
    for coord in uv[1:]:
        wi *= q
        wi += coord
    return ui, vi, wi


def _pair_blocks(ctx: SuzukiContext):
    """Every perpendicular ordered pair, once: the blocks k = 0..3 of
    _pair_block, then block u = 0, which no linear map fails.  Each block
    is built on first use."""
    for k in (0, 1, 2, 3, -1):
        yield _pair_block(ctx, k)


def bruteforce_mask(ctx: SuzukiContext, mats) -> np.ndarray:
    """Oracle: membership in Sz(q) for a batch of matrices (Mat4 tuples
    or (n, 16) entries), by the product condition g(u) * g(v) == g(u * v)
    on every perpendicular pair.

    No basis reduction and no prefilter: ~q^7 pairs, so this is only
    viable at q = 8.  Each row must pass the scalar symplectic test.  The
    action of each row on all q^4 vectors is tabled once; the pairs then
    come block by block from _pair_blocks, in steps of about _CELLS
    row x pair cells.  A row leaves the batch at its first failing step,
    and the walk ends when no row is left, so a member is checked on every
    pair.  Vectorised with numpy but structurally independent of the
    five-equation test.
    """
    if ctx.q > 8:
        raise ValueError("brute-force membership is ~q^7 pairs; q = 8 only")
    ents = kn.field_rows(ctx, mats)
    ok = np.array([is_symplectic(ctx.field, row) for row in ents.tolist()],
                  dtype=bool)
    live = np.flatnonzero(ok)
    if not len(live):
        return ok
    mul, frob, _ = kn.field_tables(ctx)
    vecs = _vectors(ctx)
    # img[i][r, x]: coordinate i of g(x), for row r and every vector x.
    g = ents[live].reshape(-1, 4, 4)
    img = []
    for i in range(4):
        acc = np.zeros((len(live), len(vecs)), dtype=np.uint8)
        for j in range(4):
            acc ^= mul[g[:, i, j][:, None], vecs[None, :, j]]
        img.append(acc)
    tw = [frob[c] for c in img]
    for ui, vi, wi in _pair_blocks(ctx):
        lo = 0
        while lo < len(ui):
            hi = lo + max(1, _CELLS // len(live))
            u, v, w = ui[lo:hi], vi[lo:hi], wi[lo:hi]
            lhs = _twisted_product(mul, [t[:, u] for t in tw],
                                   [t[:, v] for t in tw])
            good = lhs[0] == img[0][:, w]
            for i in range(1, 4):
                good &= lhs[i] == img[i][:, w]
            keep = good.all(axis=1)
            if not keep.all():
                ok[live[~keep]] = False
                live = live[keep]
                if not len(live):
                    return ok
                img = [c[keep] for c in img]
                tw = [c[keep] for c in tw]
            lo = hi
    return ok


def is_suzuki_bruteforce(ctx: SuzukiContext, g: Mat4) -> bool:
    """The all-pairs oracle on one matrix."""
    return bool(bruteforce_mask(ctx, [g])[0])


def symplectic_transvection(f: BinaryField, u: Vec4, lam: int) -> Mat4:
    """The map v -> v + lam f(v, u) u, as a matrix: I + lam u (iota u)^T."""
    out = list(identity())
    for i in range(4):
        for j in range(4):
            out[4 * i + j] ^= f.mul(lam, f.mul(u[i], u[3 - j]))
    return tuple(out)


def e1_transvection(ctx: SuzukiContext) -> Mat4:
    """I + E_14: symplectic, but outside Sz(q)."""
    return symplectic_transvection(ctx.field, basis_vec(0), 1)


def random_symplectics(ctx: SuzukiContext, rngs,
                       length: int = 8) -> np.ndarray:
    """Entries of one product of ``length`` random symplectic
    transvections per rng, as one batched product chain.

    Each rng draws, transvection by transvection, a nonzero u (redrawn
    while zero) and then lam, so one rng gives the same matrix however
    many others share the batch.
    """
    q = ctx.q
    mul, _, _ = kn.field_tables(ctx)
    draws = []
    for rng in rngs:
        for _ in range(length):
            u = ZERO_VEC
            while u == ZERO_VEC:
                u = tuple(rng.randrange(q) for _ in range(4))
            draws.append(u + (rng.randrange(1, q),))
    d = np.array(draws, dtype=np.uint8).reshape(len(rngs), length, 5)
    u, lam = d[..., :4], d[..., 4]
    # entry (i, j) of I + lam u (iota u)^T is delta_ij + lam u_i u_{3-j}
    steps = mul[mul[lam[..., None], u][..., :, None], u[..., None, ::-1]]
    steps ^= np.eye(4, dtype=np.uint8)
    g = kn.mats_to_entries([identity()] * len(rngs))
    for s in range(length):
        g = kn.mat_mul_pairs(ctx, g, steps[:, s].reshape(-1, 16))
    return g


def random_symplectic(ctx: SuzukiContext, rng, length: int = 8) -> Mat4:
    """Product of random symplectic transvections: random_symplectics on
    one rng."""
    return kn.entries_to_mat(random_symplectics(ctx, [rng], length)[0])
