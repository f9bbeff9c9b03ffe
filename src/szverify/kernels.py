"""Vectorised batch operations on 4x4 matrices.

Matrices cross the APIs of kernels, groups, fixed_set, triples and cli
in one format: entries, (n, 16) uint8, row-major field elements, same
order as Mat4.  Mat4 tuples stay in the scalar oracles (field, linalg4,
wilson, groups.element_order) and in the report dataclasses of triples,
which print them as hex; membership and the subgroup builders also take
any array-like of 16 entries per matrix.  Sorting and searching go
through one key per matrix (entry_keys, inverted by key_entries) whose
order is the canonical (row-major lexicographic) order of the matrices:
for q <= 16 the 16 entries as big-endian nibbles of a uint64, otherwise
a 16-byte record that compares bytewise.

Right multiplication by a fixed g acts on each row separately, and
linearly: r g = r_0 (row 0 of g) + ... + r_3 (row 3 of g).  So four
q-entry tables of 4-byte rows (row_action_table) turn a whole batch
product into four gathers and three XORs (row_action), also when each
row has matrices of its own, as the rows of a batch of orbits do
(their tables laid out once by owner_tables).
Products of paired batches, x_i y_i with a different y per row, go
through the flat multiplication table instead (mat_mul_pairs).  Element
orders and three masks are built on it, the masks as one chunked test
of a paired product against a fixed matrix: Sp4(q), which the batch
inverse runs; x iota x = iota, through x iota (times_iota); and
involutions.  Each of these checks that its entries lie in GF(q)
before any cast (field_rows).

All tables are uint8-indexed, which caps the batch layer at field degree
7; group enumeration is only supported through q = 32 anyway.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Optional

import numpy as np

from .context import IOTA, SuzukiContext
from .errors import FieldRangeError, NotSymplecticError, SzVerifyError
from .linalg4 import Mat4

# The basis pairs whose residuals decide membership (see wilson): the
# four perpendicular ones off the diagonal (R_ii vanishes for every
# matrix), then the two antidiagonal ones, which need only agree.
_RESIDUAL_PAIRS = ((0, 1), (0, 2), (1, 3), (2, 3), (0, 3), (1, 2))

# Rows per step of the batch kernels, so that their temporaries stay
# small for a whole Sz(32): a paired product gathers through intp
# indices, 128 bytes a row, so 4,096 rows keep each step near 1 MB.
_CHUNK = 1 << 12

_IDENTITY = np.eye(4, dtype=np.uint8).reshape(16)
_IOTA = np.array(IOTA, dtype=np.uint8)


@lru_cache(maxsize=None)
def field_tables(ctx: SuzukiContext):
    """(mul, frob, inv) as numpy uint8 lookup tables."""
    f = ctx.field
    if f.degree > 7:
        raise ValueError(f"batch kernels need degree <= 7, got {f.degree}")
    return tuple(np.array(table, dtype=np.uint8)
                 for table in (f.mul_table, f.frob_table, f.inv_table))


def mats_to_entries(mats) -> np.ndarray:
    return np.array(mats, dtype=np.uint8).reshape(-1, 16)


def entries_to_mat(row: np.ndarray) -> Mat4:
    return tuple(row.tolist())


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


def row_action_table(ctx: SuzukiContext, mats) -> np.ndarray:
    """(k, 4, q) uint32 for k matrices g: table[g, i, a] holds the four
    entries of a (row i of g), all from one gather.

    Native byte order, so the bytes of a table entry, in memory order,
    are the entries of that row.
    """
    mul, _, _ = field_tables(ctx)
    g = field_rows(ctx, mats).reshape(-1, 4, 4)
    rows = mul[:, g]  # [a, g, i, j]
    return np.ascontiguousarray(
        rows.transpose(1, 2, 0, 3)).view(np.uint32)[..., 0]


def owner_tables(tables: np.ndarray) -> np.ndarray:
    """The (m, k, 4, q) row_action_tables of k matrices for each of m
    owners, laid out once as row_action's owner mode reads them, (k, 4,
    m, q) and contiguous, so that each call reshapes them for free."""
    return np.ascontiguousarray(tables.transpose(1, 2, 0, 3))


def row_action(tables: np.ndarray, ents: np.ndarray,
               owner: Optional[np.ndarray] = None) -> np.ndarray:
    """Entries of x g for every x in ents and g in the row_action_table
    ``tables``, (k, 4, q).

    ``ents`` holds matrices, (n, 16), or row vectors, (n, 4); each row of
    4 entries is acted on alone, so the result has the width of ``ents``.
    The products come table by table, k n of them: row g n + x holds x g.

    With ``owner``, ``tables`` holds the tables of k matrices for each
    of m owners as owner_tables lays them out, (k, 4, m, q), and each x
    is multiplied by the k of its own, ``owner[x]``: row g n + x holds x
    times matrix g of that owner.  The owners' tables lie side by side,
    q entries each, so each gather still serves all k tables at once.
    """
    x = ents.reshape(-1, 4)
    if owner is not None:
        k, _, m, q = tables.shape
        tables = tables.reshape(k, 4, m * q)
        x = x + np.repeat(owner * q, ents.shape[-1] // 4)[:, None]
    rows = np.take(tables[..., 0, :], x[:, 0], axis=-1)
    for i in range(1, 4):
        rows ^= np.take(tables[..., i, :], x[:, i], axis=-1)
    return rows.view(np.uint8).reshape(-1, ents.shape[-1])


def identity_mask(ents: np.ndarray) -> np.ndarray:
    """Which rows of an (n, 16) batch are the identity."""
    return (ents.reshape(-1, 16) == _IDENTITY).all(axis=1)


def field_mask(ctx: SuzukiContext, x: np.ndarray) -> np.ndarray:
    """Which entries of ``x`` lie in GF(q), the integers 0 to q - 1; a
    value that is not an integer (0.5, NaN) does not."""
    if x.dtype == np.uint8:
        return x < ctx.q
    return (x >= 0) & (x < ctx.q) & (x % 1 == 0)


def field_rows(ctx: SuzukiContext, ents) -> np.ndarray:
    """A batch as (n, 16) uint8 entries, each checked to lie in GF(q)
    (field_mask) before the cast, so no entry wraps or truncates into
    the field; raises FieldRangeError otherwise."""
    x = np.asarray(ents)
    if not field_mask(ctx, x).all():
        raise FieldRangeError(f"an entry lies outside GF({ctx.q})")
    return x.astype(np.uint8, copy=False).reshape(-1, 16)


def mat_mul_pairs(ctx: SuzukiContext, a: np.ndarray,
                  b: np.ndarray) -> np.ndarray:
    """Entries of x_i y_i for the rows x_i of ``a`` and y_i of ``b``.

    A batch of one row broadcasts against the other batch.  Entry (i, j)
    is the XOR over k of x_ik y_kj, each product one gather from the
    flattened multiplication table at x_ik q + y_kj.
    """
    return _mul_pairs(ctx, field_rows(ctx, a), field_rows(ctx, b))


def _mul_pairs(ctx: SuzukiContext, a: np.ndarray,
               b: np.ndarray) -> np.ndarray:
    """mat_mul_pairs on uint8 batches already checked by field_rows."""
    q = ctx.q
    flat = field_tables(ctx)[0].reshape(-1)
    x = a.reshape(-1, 4, 4)
    y = b.reshape(-1, 4, 4)
    n = max(len(x), len(y)) if len(x) and len(y) else 0
    if len(x) not in (1, n) or len(y) not in (1, n):
        raise ValueError(f"cannot pair {len(x)} rows with {len(y)}")
    out = np.empty((n, 4, 4), dtype=np.uint8)
    for lo in range(0, n, _CHUNK):
        xs = x if len(x) == 1 else x[lo:lo + _CHUNK]
        ys = y if len(y) == 1 else y[lo:lo + _CHUNK]
        xq = xs.astype(np.uint16) * q
        acc = flat.take(xq[:, :, :1] + ys[:, :1, :])
        for k in range(1, 4):
            acc ^= flat.take(xq[:, :, k:k + 1] + ys[:, k:k + 1, :])
        out[lo:lo + len(acc)] = acc
    return out.reshape(-1, 16)


def _symplectic_rows(ctx: SuzukiContext, ents) -> np.ndarray:
    """field_rows of a batch, every row checked by symplectic_mask: the
    first rejected row (singular or not) raises NotSymplecticError."""
    x = field_rows(ctx, ents)
    bad = ~symplectic_mask(ctx, x)
    if bad.any():
        row = entries_to_mat(x[bad.argmax()])
        raise NotSymplecticError(f"matrix is not in Sp4({ctx.q}): {row}")
    return x


def invert_symplectic(ctx: SuzukiContext, ents: np.ndarray) -> np.ndarray:
    """Entries of x^-1 = iota x^T iota, one gather, for every x of an
    (n, 16) batch in Sp4(q).  A row outside Sp4(q) raises
    NotSymplecticError (_symplectic_rows) rather than return a wrong
    inverse, and an entry outside GF(q) raises FieldRangeError.
    """
    x = _symplectic_rows(ctx, ents)
    inv = _iota_transposed(x.reshape(-1, 4, 4))
    return np.ascontiguousarray(inv).reshape(-1, 16)


def element_orders(ctx: SuzukiContext, ents: np.ndarray) -> np.ndarray:
    """Least k >= 1 with x^k = I, for every x of a batch in Sp4(q).

    Each step multiplies the powers not yet the identity by their own x.
    The rows are checked in Sp4(q) first (_symplectic_rows), and an
    element of GL4(q) has order below q^4, so the loop ends.
    """
    x = _symplectic_rows(ctx, ents)
    orders = np.zeros(len(x), dtype=np.int64)
    live = np.arange(len(x))
    power = x
    k = 1
    while True:
        done = identity_mask(power)
        orders[live[done]] = k
        live, power = live[~done], power[~done]
        if not len(live):
            return orders
        if k >= ctx.q ** 4:
            raise SzVerifyError(f"element order exceeds q^4 = {ctx.q ** 4}")
        power = _mul_pairs(ctx, power, x[live])
        k += 1


def times_iota(ents) -> np.ndarray:
    """Entries of x iota, x with its columns reversed, for every row x."""
    return np.asarray(ents).reshape(-1, 4, 4)[:, :, ::-1].reshape(-1, 16)


def _iota_transposed(x: np.ndarray) -> np.ndarray:
    """iota x^T iota, entry (i, j) x[3 - j][3 - i], as an (n, 4, 4) view."""
    return x[:, ::-1, ::-1].transpose(0, 2, 1)


def _products_equal(ctx: SuzukiContext, ents, pair,
                    target: np.ndarray) -> np.ndarray:
    """Which rows x have a b == target (16 uint8 entries), (a, b) =
    pair(xs) for each _CHUNK-row step xs, so that no product or copy of a
    whole Sz(32) is made; field_rows checks the entries first."""
    x = field_rows(ctx, ents).reshape(-1, 4, 4)
    ok = np.empty(len(x), dtype=bool)
    for lo in range(0, len(x), _CHUNK):
        prod = _mul_pairs(ctx, *pair(x[lo:lo + _CHUNK]))
        ok[lo:lo + _CHUNK] = (prod == target).all(axis=1)
    return ok


def symplectic_mask(ctx: SuzukiContext, ents) -> np.ndarray:
    """Which matrices lie in Sp4(q): x (iota x^T iota) == I.  Then
    iota x^T iota = x^-1, so x^T iota x = iota (iota^2 = I): the form is
    preserved.  invert_symplectic returns that inverse."""
    return _products_equal(ctx, ents, lambda x: (x, _iota_transposed(x)),
                           _IDENTITY)


def fixed_point_mask(ctx: SuzukiContext, ents) -> np.ndarray:
    """Which matrices satisfy x iota x == iota: one paired product
    (x iota) x per row."""
    return _products_equal(ctx, ents, lambda x: (times_iota(x), x), _IOTA)


def involution_mask(ctx: SuzukiContext, ents: np.ndarray) -> np.ndarray:
    """Which matrices square to the identity without being it.

    The rank-4 searches check their partial products with it.  No
    whole-group pass is made: groups.involutions reads the group's
    involutions off GroupSet.fixed_points, and the tests use this mask
    on the whole group as the independent oracle for that list.
    """
    return (_products_equal(ctx, ents, lambda x: (x, x), _IDENTITY)
            & ~identity_mask(ents))


def suzuki_mask(ctx: SuzukiContext, ents: np.ndarray) -> np.ndarray:
    """Membership in Sz(q) for an (n, 16) batch.

    With c_i = x e_i the columns of x, the basis residuals are
    R_ij = c_i * c_j + x(e_i * e_j).  A matrix is a member iff it is
    symplectic and meets the five equations R_01 = R_02 = R_13 = R_23 = 0
    and R_03 = R_12; the wilson module docstring proves this.  Rows go in
    chunks so that the temporaries stay small for a whole Sz(32).  An
    entry outside GF(q) raises FieldRangeError (field_rows).
    """
    ents = field_rows(ctx, ents)
    mul, frob, _ = field_tables(ctx)
    basis = ctx.bullet_basis
    # (p, r) pairs feeding coordinate k of a product: e_p * e_r has e_k
    terms = [[(p, r) for p in range(4) for r in range(4) if basis[p][r][k]]
             for k in range(4)]
    left = [i for i, _ in _RESIDUAL_PAIRS]
    right = [j for _, j in _RESIDUAL_PAIRS]
    ok = symplectic_mask(ctx, ents)
    x = ents.reshape(-1, 4, 4)
    for lo in range(0, x.shape[0], _CHUNK):
        cols = x[lo:lo + _CHUNK].transpose(0, 2, 1)  # cols[:, i] = x e_i
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
        ok[lo:lo + _CHUNK] &= ~res[:, :4].any(axis=(1, 2))
        ok[lo:lo + _CHUNK] &= (res[:, 4] == res[:, 5]).all(axis=1)
    return ok


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
