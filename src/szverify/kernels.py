"""Vectorised batch operations on 4x4 matrices.

The closure engine and the membership test work on numpy arrays rather
than tuples, in one layout: entries, (n, 16) uint8, row-major field
elements, same order as Mat4.  Sorting and searching go through one key
per matrix (entry_keys, inverted by key_entries) whose order is the
canonical (row-major lexicographic) order of the matrices: for q <= 16
the 16 entries as big-endian nibbles of a uint64, otherwise a 16-byte
record that compares bytewise.

Right multiplication by a fixed g acts on each row separately, and
linearly: r g = r_0 (row 0 of g) + ... + r_3 (row 3 of g).  So four
q-entry tables of 4-byte rows (row_action_table) turn a whole batch
product into four gathers and three XORs (row_action).

All tables are uint8-indexed, which caps the batch layer at field degree
7; group enumeration is only supported through q = 32 anyway.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .context import PERP_BASIS_PAIRS, SuzukiContext
from .linalg4 import Mat4

# The basis pairs whose residuals decide membership (see wilson): the
# eight perpendicular ones, then the two antidiagonal ones, which need
# only agree with each other.
_RESIDUAL_PAIRS = PERP_BASIS_PAIRS + ((0, 3), (1, 2))


@lru_cache(maxsize=None)
def field_tables(ctx: SuzukiContext):
    """(mul, frob, inv) as numpy uint8 lookup tables."""
    f = ctx.field
    if f.degree > 7:
        raise ValueError(f"batch kernels need degree <= 7, got {f.degree}")
    q = ctx.q
    mul = np.zeros((q, q), dtype=np.uint8)
    frob = np.zeros(q, dtype=np.uint8)
    inv = np.zeros(q, dtype=np.uint8)
    for a in range(q):
        frob[a] = f.frobenius_t(a)
        if a:
            inv[a] = f.inv(a)
        for b in range(q):
            mul[a, b] = f.mul(a, b)
    return mul, frob, inv


def mats_to_entries(mats) -> np.ndarray:
    return np.array(mats, dtype=np.uint8).reshape(-1, 16)


def entries_to_mat(row: np.ndarray) -> Mat4:
    return tuple(int(x) for x in row)


_RECORD = np.dtype((np.void, 16))


def entry_keys(ctx: SuzukiContext, ents: np.ndarray) -> np.ndarray:
    """Sort keys of an (n, 16) entries batch, one per matrix.

    For q <= 16 every entry fits a nibble, so the key is a uint64 with
    entry 0 in its top nibble and entry 15 in its bottom one; numpy
    sorts those natively.  A wider q (32 needs 80 bits) gets a zero-copy
    16-byte record view instead, which sorts through a generic byte
    compare.  Both orders are the canonical order.
    """
    ents = np.ascontiguousarray(ents, dtype=np.uint8).reshape(-1, 16)
    if ctx.q > 16:
        return ents.view(_RECORD).reshape(-1)
    if ents.size and ents.max() > 15:
        raise ValueError(f"entry {ents.max()} does not fit a nibble")
    pairs = ents[:, 0::2] << 4
    pairs |= ents[:, 1::2]
    return pairs.view(">u8").reshape(-1).astype(np.uint64)


def key_entries(keys: np.ndarray) -> np.ndarray:
    """The (n, 16) uint8 entries that entry_keys made ``keys`` from."""
    if keys.dtype == _RECORD:
        return keys.view(np.uint8).reshape(-1, 16)
    pairs = keys.astype(">u8").view(np.uint8).reshape(-1, 8)
    ents = np.empty((len(keys), 16), dtype=np.uint8)
    ents[:, 0::2] = pairs >> 4
    ents[:, 1::2] = pairs & 15
    return ents


def row_action_table(ctx: SuzukiContext, g: Mat4) -> np.ndarray:
    """(4, q) uint32: table[i, a] holds the four entries of a (row i of g).

    Native byte order, so the bytes of a table entry, in memory order,
    are the entries of that row.
    """
    mul, _, _ = field_tables(ctx)
    rows = mul[:, np.array(g, dtype=np.uint8).reshape(4, 4)]  # [a, i, j]
    return np.ascontiguousarray(rows.transpose(1, 0, 2)).view(np.uint32)[..., 0]


def row_action(tables: np.ndarray, ents: np.ndarray) -> np.ndarray:
    """Entries of x g for every x in ents, by the row_action_table of g.

    ``tables`` may stack the tables of k matrices, (k, 4, q); the
    products then come table by table, k n of them.
    """
    x = ents.reshape(-1, 4, 4)
    rows = np.take(tables[..., 0, :], x[:, :, 0], axis=-1)
    for i in range(1, 4):
        rows ^= np.take(tables[..., i, :], x[:, :, i], axis=-1)
    return rows.view(np.uint8).reshape(-1, 16)


def symplectic_mask(ctx: SuzukiContext, ents: np.ndarray) -> np.ndarray:
    """Which matrices satisfy x^T iota x == iota."""
    mul, _, _ = field_tables(ctx)
    x = ents.reshape(-1, 4, 4)
    ok = np.ones(x.shape[0], dtype=bool)
    for i in range(4):
        for j in range(i, 4):
            acc = np.zeros(x.shape[0], dtype=np.uint8)
            for k in range(4):
                acc ^= mul[x[:, k, i], x[:, 3 - k, j]]
            ok &= acc == (1 if i + j == 3 else 0)
    return ok


def fixed_point_mask(ctx: SuzukiContext, ents: np.ndarray) -> np.ndarray:
    """Which matrices satisfy x iota x == iota."""
    mul, _, _ = field_tables(ctx)
    x = ents.reshape(-1, 4, 4)
    ok = np.ones(x.shape[0], dtype=bool)
    for i in range(4):
        for j in range(4):
            acc = np.zeros(x.shape[0], dtype=np.uint8)
            for k in range(4):
                acc ^= mul[x[:, i, 3 - k], x[:, k, j]]
            ok &= acc == (1 if i + j == 3 else 0)
    return ok


def involution_mask(ctx: SuzukiContext, ents: np.ndarray) -> np.ndarray:
    """Which matrices square to the identity without being it.

    x iota is x with its columns reversed, and x^2 = I exactly when
    (x iota) iota (x iota) = iota, so the fixed-point test decides it.
    No szverify code calls it: groups.involutions reads the involutions
    off GroupSet.fixed_points, and the tests use this whole-group pass
    as the independent oracle for that list.
    """
    x = ents.reshape(-1, 4, 4)
    is_id = np.all(x == np.eye(4, dtype=np.uint8), axis=(1, 2))
    return fixed_point_mask(ctx, x[:, :, ::-1]) & ~is_id


def suzuki_mask(ctx: SuzukiContext, ents: np.ndarray) -> np.ndarray:
    """Membership in Sz(q) for an (n, 16) batch.

    With c_i = x e_i the columns of x, the basis residuals are
    R_ij = c_i * c_j + x(e_i * e_j).  A matrix is a member iff it is
    symplectic, R_ij = 0 on the eight PERP_BASIS_PAIRS, and
    R_03 = R_12; the wilson module docstring proves this.  Rows go in
    chunks so that the temporaries stay small for a whole Sz(32).
    """
    chunk = 1 << 16
    mul, frob, _ = field_tables(ctx)
    basis = ctx.bullet_basis
    # (p, r) pairs feeding coordinate k of a product: e_p * e_r has e_k
    terms = [[(p, r) for p in range(4) for r in range(4) if basis[p][r][k]]
             for k in range(4)]
    left = [i for i, _ in _RESIDUAL_PAIRS]
    right = [j for _, j in _RESIDUAL_PAIRS]
    npp = len(PERP_BASIS_PAIRS)
    ok = symplectic_mask(ctx, ents)
    x = ents.reshape(-1, 4, 4)
    for lo in range(0, x.shape[0], chunk):
        cols = x[lo:lo + chunk].transpose(0, 2, 1)  # cols[:, i] = x e_i
        tw = frob[cols]
        a, b = tw[:, left], tw[:, right]
        res = np.zeros(a.shape, dtype=np.uint8)
        for k in range(4):
            for p, r in terms[k]:
                res[:, :, k] ^= mul[a[:, :, p], b[:, :, r]]
        for n, (i, j) in enumerate(_RESIDUAL_PAIRS):
            for k in range(4):
                if basis[i][j][k]:
                    res[:, n] ^= cols[:, k]
        ok[lo:lo + chunk] &= ~res[:, :npp].any(axis=(1, 2))
        ok[lo:lo + chunk] &= (res[:, npp] == res[:, npp + 1]).all(axis=1)
    return ok


def unitriangular_candidates(ctx: SuzukiContext) -> np.ndarray:
    """All q^4 symplectic lower unitriangular matrices, as entries.

    Four free subdiagonal entries; the other two are forced by the form:
    with rows (1,0,0,0), (a,1,0,0), (b,c,1,0), (d,e,f,1) preservation of
    iota forces e = b + a*c and f = a.
    """
    mul, _, _ = field_tables(ctx)
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


def sylow_candidates(ctx: SuzukiContext) -> np.ndarray:
    """All q^4 symplectic matrices unitriangular on the (e2, e1, e3, e4) flag.

    Rows (1,p,0,0), (0,1,0,0), (c,d,1,e), (g,h,0,1); preservation of iota
    forces e = p and h = c + g*p.  Unlike the strictly lower unitriangular
    family, filtering this one by membership yields a full Sylow 2-subgroup
    of order q^2 rather than only its q-element centre.
    """
    mul, _, _ = field_tables(ctx)
    q = ctx.q
    n = q ** 4
    idx = np.arange(n)
    p = (idx % q).astype(np.uint8)
    c = ((idx // q) % q).astype(np.uint8)
    d = ((idx // q ** 2) % q).astype(np.uint8)
    g = ((idx // q ** 3) % q).astype(np.uint8)
    ents = np.zeros((n, 16), dtype=np.uint8)
    ents[:, 0] = 1
    ents[:, 5] = 1
    ents[:, 10] = 1
    ents[:, 15] = 1
    ents[:, 1] = p
    ents[:, 8] = c
    ents[:, 9] = d
    ents[:, 11] = p
    ents[:, 12] = g
    ents[:, 13] = c ^ mul[g, p]
    return ents
