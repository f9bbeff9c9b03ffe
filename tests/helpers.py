"""Test-only helpers that szverify itself never calls.

Each one is written out here, apart from the package, so that the
package holds only what its verdicts use.
"""
from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from szverify import kernels as kn
from szverify import linalg4 as la
from szverify import triples as tr
from szverify import wilson as wl
from szverify.context import SuzukiContext
from szverify.linalg4 import Mat4, Vec4

# The four perpendicular pairs of fixed_set.PERP_PRODUCT_PAIRS give 16
# coordinate equations but only 10 distinct ones; the remaining
# coordinates repeat earlier labels.  Keys are (i, j, coord) of the
# redundant coordinate.
DUPLICATE_COORDS: Dict[Tuple[int, int, int], str] = {
    (0, 2, 1): "S4",
    (1, 3, 1): "S1",
    (1, 3, 3): "S5",
    (3, 2, 0): "S9",
    (3, 2, 1): "S3",
    (3, 2, 3): "S6",
}


def entry(m: Mat4, i: int, j: int) -> int:
    return m[4 * i + j]


def vec_mat(f, u: Vec4, m: Mat4) -> Vec4:
    """Row vector times matrix."""
    out = [0, 0, 0, 0]
    for j in range(4):
        acc = 0
        for i in range(4):
            if u[i] and m[4 * i + j]:
                acc ^= f.mul(u[i], m[4 * i + j])
        out[j] = acc
    return tuple(out)


def mat_from_hex(s: str) -> Mat4:
    """Inverse of linalg4.mat_to_hex."""
    parts = s.split()
    if len(parts) != 16:
        raise ValueError(f"expected 16 hex fields, got {len(parts)}")
    return tuple(int(p, 16) for p in parts)


def is_iota(ctx: SuzukiContext, ents: np.ndarray) -> np.ndarray:
    """Which rows of an (n, 16) batch equal iota, entry by entry."""
    return (ents == np.array(ctx.iota, dtype=np.uint8)).all(axis=1)


def mats(ents) -> List[Mat4]:
    """The rows of an (n, 16) entries batch as a Mat4 list: the one place
    where the tests convert entries for the scalar linalg4 oracles."""
    return [tuple(row) for row in np.asarray(ents).reshape(-1, 16).tolist()]


def sample(group, k: int, seed: int = 0) -> np.ndarray:
    """``k`` distinct elements of ``group``, seeded, as (k, 16) entries
    in canonical order."""
    rng = np.random.default_rng(seed)
    idx = rng.choice(group.order, size=min(k, group.order), replace=False)
    return group.entries[np.sort(idx)]


def bfs_closure(ctx: SuzukiContext, generators) -> np.ndarray:
    """The group the generators generate, as canonically sorted (n, 16)
    entries, by a keyed breadth-first closure: the reference for
    groups.closure and groups.subgroup, which build groups from base
    orbits instead.

    The elements seen so far are kept as sorted keys
    (kernels.entry_keys), whose order is the canonical order.  Each
    level multiplies the frontier on the right by every generator and
    keeps the products not seen before, until a level adds nothing.
    """
    gens = list(dict.fromkeys(tuple(int(v) for v in g) for g in generators))
    tables = kn.row_action_table(ctx, gens)
    seen = kn.entry_keys(ctx, kn.mats_to_entries([la.identity()]))
    frontier = seen
    while gens and len(frontier):
        cand = np.sort(kn.entry_keys(
            ctx, kn.row_action(tables, kn.key_entries(frontier))))
        cand = cand[np.concatenate([[True], cand[1:] != cand[:-1]])]
        pos = np.searchsorted(seen, cand)
        frontier = cand[seen[np.minimum(pos, len(seen) - 1)] != cand]
        seen = np.sort(np.concatenate([seen, frontier]))
    return kn.key_entries(seen)


def wilson_residual(ctx: SuzukiContext, g: Mat4, u: Vec4, v: Vec4) -> Vec4:
    """g(u) * g(v) + g(u * v); zero for members on perpendicular pairs.

    Raises ValueError if f(u, v) != 0: the membership condition quantifies
    over perpendicular pairs only.
    """
    f = ctx.field
    if la.form_f(f, u, v) != 0:
        raise ValueError(f"pair is not perpendicular: {u}, {v}")
    gu = la.mat_vec(f, g, u)
    gv = la.mat_vec(f, g, v)
    return la.vec_add(wl.bullet(ctx, gu, gv),
                      la.mat_vec(f, g, wl.bullet(ctx, u, v)))


def in_fixed_set(ctx: SuzukiContext, x: Mat4) -> bool:
    """True iff x . iota . x = iota."""
    iota = tuple(ctx.iota)
    return la.mat_mul(ctx.field, la.mat_mul(ctx.field, x, iota), x) == iota


def triple_product(ctx: SuzukiContext, triple) -> Mat4:
    """sigma1 sigma2 sigma3 of a triples.ChiralTriple."""
    f = ctx.field
    return la.mat_mul(f, la.mat_mul(f, triple.sigma1, triple.sigma2),
                      triple.sigma3)


def _sigma_rows(triple) -> np.ndarray:
    """A triples.ChiralTriple as one (1, 3, 16) row, uncast: the kernels
    check its entries lie in GF(q) before they cast them."""
    return np.array(triple.mats()).reshape(1, 3, 16)


def involution_conditions(ctx: SuzukiContext,
                          triple) -> Tuple[bool, bool, bool]:
    """Orders of (s1 s2 s3, s2 s3, s1 s2) all equal to 2, by the batch
    checks that the rank-4 searches run, on one triple."""
    prods = tr._partial_products(ctx, _sigma_rows(triple))
    return tuple(bool(c) for c in tr._involution_masks(ctx, prods)[0])


def fixed_set_membership_lemma(ctx: SuzukiContext, triple) -> bool:
    """sigma1^-1 and sigma3^-1 both satisfy x . iota . x = iota.

    Preconditions: the product is exactly iota and the two partial
    products are involutions.  Under them the conclusion is a theorem,
    so this certifies rather than filters.  The sigmas must lie in
    Sp4(q), where kernels.invert_symplectic inverts them.  Raises
    ValueError if a precondition fails.
    """
    sigmas = _sigma_rows(triple)
    p123, p23, p12 = tr._partial_products(ctx, sigmas)
    if not is_iota(ctx, p123).all():
        raise ValueError("triple product must be iota")
    if not kn.involution_mask(ctx, np.concatenate([p12, p23])).all():
        raise ValueError("partial products must be involutions")
    return bool(tr._inverses_fixed_mask(ctx, sigmas)[0])


def random_symplectic_scalar(ctx: SuzukiContext, rng, length: int = 8) -> Mat4:
    """wilson.random_symplectic as a scalar linalg4 product chain: the
    reference for the batched chain of wilson.random_symplectics."""
    f = ctx.field
    g = la.identity()
    for _ in range(length):
        u = la.ZERO_VEC
        while u == la.ZERO_VEC:
            u = tuple(rng.randrange(ctx.q) for _ in range(4))
        lam = rng.randrange(1, ctx.q)
        g = la.mat_mul(f, g, wl.symplectic_transvection(f, u, lam))
    return g


def symmetry_lemma_check(ctx: SuzukiContext, x: Mat4) -> bool:
    """transpose(x) = x, for a symplectic member of the fixed set."""
    if not la.is_symplectic(ctx.field, x):
        raise ValueError("x is not symplectic")
    if not in_fixed_set(ctx, x):
        raise ValueError("x is not in the fixed set")
    return la.transpose(x) == tuple(x)


def unitriangular_candidates(ctx: SuzukiContext) -> np.ndarray:
    """All q^4 symplectic lower unitriangular matrices, as entries.

    Four free subdiagonal entries; the other two are forced by the form:
    with rows (1,0,0,0), (a,1,0,0), (b,c,1,0), (d,e,f,1) preservation of
    iota forces e = b + a*c and f = a.
    """
    mul, _, _ = kn.field_tables(ctx)
    q = ctx.q
    n = q ** 4
    idx = np.arange(n)
    a = (idx % q).astype(np.uint8)
    b = ((idx // q) % q).astype(np.uint8)
    c = ((idx // q ** 2) % q).astype(np.uint8)
    d = ((idx // q ** 3) % q).astype(np.uint8)
    ents = np.zeros((n, 16), dtype=np.uint8)
    ents[:, 0] = 1
    ents[:, 5] = 1
    ents[:, 10] = 1
    ents[:, 15] = 1
    ents[:, 4] = a
    ents[:, 8] = b
    ents[:, 9] = c
    ents[:, 12] = d
    ents[:, 13] = b ^ mul[a, c]
    ents[:, 14] = a
    return ents
