"""Membership test for Sz(q) inside the symplectic group Sp4(q).

The test rests on a commutative product u * v on GF(q)^4, defined on
basis vectors by the table in the context and extended by

    u * v = sum_{i,j} u_i^t v_j^t (e_i * e_j)

where a -> a^t is the field twist.  A symplectic matrix g lies in Sz(q)
exactly when it respects this product on perpendicular pairs:
g(u) * g(v) == g(u * v) whenever f(u, v) = 0.

Nine vector equations decide this.  Expanding u and v in the basis, and
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
eight PERP_BASIS_PAIRS and R_03 = R_12 (R_03 + R_30 = 0 holds in
characteristic 2).  The two antidiagonal residuals need only agree;
neither need vanish.  The four diagonal equations R_ii = 0 hold for
every g, since u * u = 0 in characteristic 2.

kernels.suzuki_mask evaluates the nine equations over a batch and
is_suzuki runs it on one matrix.  The brute-force path stays as an
oracle with no shared logic beyond the field tables.
"""

from __future__ import annotations

import numpy as np

from . import kernels as kn
from .context import PERP_BASIS_PAIRS, SuzukiContext  # noqa: F401 (re-export)
from .field import BinaryField
from .linalg4 import (
    Mat4,
    Vec4,
    ZERO_VEC,
    basis_vec,
    identity,
    is_symplectic,
    mat_mul,
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
    """Membership in Sz(q): the nine-equation batch test on one matrix."""
    return bool(kn.suzuki_mask(ctx, kn.mats_to_entries([g]))[0])


_BRUTEFORCE_CACHE: dict = {}


def _bruteforce_tables(ctx: SuzukiContext):
    key = (ctx.q, ctx.field.modulus)
    hit = _BRUTEFORCE_CACHE.get(key)
    if hit is not None:
        return hit
    q = ctx.q
    mul, frob, inv = kn.field_tables(ctx)
    n = q ** 4
    idx = np.arange(n)
    vecs = np.stack(
        [(idx // q ** 3) % q, (idx // q ** 2) % q, (idx // q) % q, idx % q],
        axis=1,
    ).astype(np.uint8)

    # all perpendicular ordered pairs (u, v), f(u, v) = sum_i u_i v_{3-i}.
    # u = 0 pairs with every v.  Otherwise let k be the last nonzero
    # coordinate of u: for each w with w_{3-k} = 0, exactly one v = w +
    # c e_{3-k} is perpendicular to u, with c = f(u, w) / u_k.
    # Coordinate j of a vector has weight q^(3-j) in its index.  The
    # pairs are written in place as int32 to keep the peak memory low.
    nonzero = vecs != 0
    last = np.where(nonzero.any(axis=1),
                    3 - np.argmax(nonzero[:, ::-1], axis=1), -1)
    ui = np.zeros(n + (n - 1) * q ** 3, dtype=np.int32)
    vi = np.empty_like(ui)
    vi[:n] = idx
    lo = n
    for k in range(4):
        us = np.flatnonzero(last == k)
        ws = np.flatnonzero(vecs[:, 3 - k] == 0)
        form = np.zeros((len(us), len(ws)), dtype=np.uint8)
        for i in range(4):
            form ^= mul[vecs[us, i][:, None], vecs[ws, 3 - i][None, :]]
        hi = lo + form.size
        ui[lo:hi].reshape(form.shape)[:] = us[:, None]
        v = vi[lo:hi].reshape(form.shape)
        v[:] = mul[inv[vecs[us, k]][:, None], form]
        v *= q ** k
        v += ws
        lo = hi
    _BRUTEFORCE_CACHE[key] = (mul, frob, vecs, ui, vi)
    return _BRUTEFORCE_CACHE[key]


def is_suzuki_bruteforce(ctx: SuzukiContext, g: Mat4) -> bool:
    """Oracle: check the product condition on every perpendicular pair.

    No basis reduction and no prefilter; ~q^7 pairs, so this is only
    viable at q = 8.  Vectorised with numpy but structurally independent
    of the nine-equation test.
    """
    if ctx.q > 8:
        raise ValueError("brute-force membership is ~q^7 pairs; q = 8 only")
    f = ctx.field
    if not is_symplectic(f, g):
        return False
    mul, frob, vecs, ui, vi = _bruteforce_tables(ctx)

    gm = np.array(g, dtype=np.uint8).reshape(4, 4)

    def apply_g(w):
        cols = []
        for i in range(4):
            acc = np.zeros(len(w), dtype=np.uint8)
            for j in range(4):
                if gm[i, j]:
                    acc ^= mul[gm[i, j], w[:, j]]
            cols.append(acc)
        return np.stack(cols, axis=1)

    def bullet_np(a, b):
        at = frob[a]
        bt = frob[b]
        return np.stack(
            [
                mul[at[:, 1], bt[:, 3]] ^ mul[at[:, 3], bt[:, 1]],
                mul[at[:, 0], bt[:, 1]] ^ mul[at[:, 1], bt[:, 0]],
                mul[at[:, 2], bt[:, 3]] ^ mul[at[:, 3], bt[:, 2]],
                mul[at[:, 0], bt[:, 2]] ^ mul[at[:, 2], bt[:, 0]],
            ],
            axis=1,
        )

    chunk = 1 << 16
    for lo in range(0, len(ui), chunk):
        u = vecs[ui[lo:lo + chunk]]
        v = vecs[vi[lo:lo + chunk]]
        lhs = bullet_np(apply_g(u), apply_g(v))
        rhs = apply_g(bullet_np(u, v))
        if not np.array_equal(lhs, rhs):
            return False
    return True


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


def random_symplectic(ctx: SuzukiContext, rng, length: int = 8) -> Mat4:
    """Product of random symplectic transvections."""
    f = ctx.field
    g = identity()
    for _ in range(length):
        u = ZERO_VEC
        while u == ZERO_VEC:
            u = tuple(rng.randrange(ctx.q) for _ in range(4))
        lam = rng.randrange(1, ctx.q)
        g = mat_mul(f, g, symplectic_transvection(f, u, lam))
    return g
