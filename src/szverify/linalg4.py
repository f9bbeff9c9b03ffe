"""Exact 4x4 linear algebra over GF(q).

Matrices are flat row-major 16-tuples of field elements (ints); vectors
are 4-tuples.  Everything is value-semantics and hashable so matrices can
live in sets and dictionaries.  All operations take the field explicitly,
matching the style of the scalar field layer.
"""

from __future__ import annotations

from .errors import SingularMatrixError
from .field import BinaryField

Mat4 = tuple
Vec4 = tuple

ZERO_VEC = (0, 0, 0, 0)


def identity() -> Mat4:
    return (1, 0, 0, 0,
            0, 1, 0, 0,
            0, 0, 1, 0,
            0, 0, 0, 1)


def diag(a: int, b: int, c: int, d: int) -> Mat4:
    return (a, 0, 0, 0,
            0, b, 0, 0,
            0, 0, c, 0,
            0, 0, 0, d)


def basis_vec(i: int) -> Vec4:
    v = [0, 0, 0, 0]
    v[i] = 1
    return tuple(v)


def transpose(m: Mat4) -> Mat4:
    return tuple(m[4 * j + i] for i in range(4) for j in range(4))


def vec_add(u: Vec4, v: Vec4) -> Vec4:
    return tuple(x ^ y for x, y in zip(u, v))


def vec_scale(f: BinaryField, c: int, u: Vec4) -> Vec4:
    return tuple(f.mul(c, x) for x in u)


def mat_mul(f: BinaryField, a: Mat4, b: Mat4) -> Mat4:
    out = [0] * 16
    for i in range(4):
        for k in range(4):
            aik = a[4 * i + k]
            if aik == 0:
                continue
            for j in range(4):
                bkj = b[4 * k + j]
                if bkj:
                    out[4 * i + j] ^= f.mul(aik, bkj)
    return tuple(out)


def mat_vec(f: BinaryField, m: Mat4, u: Vec4) -> Vec4:
    out = [0, 0, 0, 0]
    for i in range(4):
        acc = 0
        for j in range(4):
            mij = m[4 * i + j]
            if mij and u[j]:
                acc ^= f.mul(mij, u[j])
        out[i] = acc
    return tuple(out)


def form_f(f: BinaryField, u: Vec4, v: Vec4) -> int:
    """The alternating form f(u, v) = u . (iota v): pairs coordinate i
    with coordinate 3 - i.  Symmetric in characteristic 2."""
    acc = 0
    for i in range(4):
        if u[i] and v[3 - i]:
            acc ^= f.mul(u[i], v[3 - i])
    return acc


def is_symplectic(f: BinaryField, m: Mat4) -> bool:
    """True iff m preserves the form, i.e. m^T iota m == iota."""
    for i in range(4):
        for j in range(i, 4):
            acc = 0
            for k in range(4):
                if m[4 * k + i] and m[4 * (3 - k) + j]:
                    acc ^= f.mul(m[4 * k + i], m[4 * (3 - k) + j])
            if acc != (1 if i + j == 3 else 0):
                return False
    return True


def invert(f: BinaryField, m: Mat4) -> Mat4:
    """Inverse by Gauss-Jordan elimination; raises SingularMatrixError."""
    a = [list(m[4 * i:4 * i + 4]) for i in range(4)]
    b = [[1 if i == j else 0 for j in range(4)] for i in range(4)]
    for col in range(4):
        pivot = next((r for r in range(col, 4) if a[r][col]), None)
        if pivot is None:
            raise SingularMatrixError(f"matrix has no inverse: {m}")
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            b[col], b[pivot] = b[pivot], b[col]
        pinv = f.inv(a[col][col])
        a[col] = [f.mul(pinv, x) for x in a[col]]
        b[col] = [f.mul(pinv, x) for x in b[col]]
        for r in range(4):
            if r != col and a[r][col]:
                c = a[r][col]
                a[r] = [x ^ f.mul(c, y) for x, y in zip(a[r], a[col])]
                b[r] = [x ^ f.mul(c, y) for x, y in zip(b[r], b[col])]
    return tuple(b[i][j] for i in range(4) for j in range(4))


def mat_to_hex(m: Mat4) -> str:
    """16 lowercase hex fields, space separated, row major."""
    return " ".join(format(x, "x") for x in m)

