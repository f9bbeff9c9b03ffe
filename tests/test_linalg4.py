import random

import pytest

import helpers as hp
from szverify import linalg4 as la
from szverify.context import make_context
from szverify.errors import SingularMatrixError

ctx = make_context(1)
f = ctx.field


def rand_mat(rng):
    return tuple(rng.randrange(8) for _ in range(16))


def test_identity_and_diag():
    assert la.identity() == la.diag(1, 1, 1, 1)
    d = la.diag(3, 5, 2, 7)
    assert hp.entry(d, 0, 0) == 3
    assert hp.entry(d, 2, 2) == 2
    assert hp.entry(d, 0, 1) == 0


def test_transpose_involutive():
    rng = random.Random(1)
    for _ in range(20):
        m = rand_mat(rng)
        assert la.transpose(la.transpose(m)) == m


def test_mat_mul_identity_and_associativity():
    rng = random.Random(2)
    for _ in range(20):
        a, b, c = rand_mat(rng), rand_mat(rng), rand_mat(rng)
        assert la.mat_mul(f, a, la.identity()) == a
        assert la.mat_mul(f, la.identity(), a) == a
        assert la.mat_mul(f, la.mat_mul(f, a, b), c) \
            == la.mat_mul(f, a, la.mat_mul(f, b, c))


def test_mat_vec_agrees_with_mat_mul():
    rng = random.Random(3)
    for _ in range(20):
        a, b = rand_mat(rng), rand_mat(rng)
        for i in range(4):
            col = tuple(hp.entry(b, r, i) for r in range(4))
            prod = la.mat_vec(f, a, col)
            full = la.mat_mul(f, a, b)
            assert prod == tuple(hp.entry(full, r, i) for r in range(4))


def test_vec_mat_is_row_action():
    rng = random.Random(4)
    for _ in range(20):
        m = rand_mat(rng)
        for i in range(4):
            got = hp.vec_mat(f, la.basis_vec(i), m)
            assert got == tuple(m[4 * i + j] for j in range(4))


def test_form_alternating_and_bilinear():
    rng = random.Random(5)
    for _ in range(50):
        u = tuple(rng.randrange(8) for _ in range(4))
        v = tuple(rng.randrange(8) for _ in range(4))
        w = tuple(rng.randrange(8) for _ in range(4))
        assert la.form_f(f, u, u) == 0
        assert la.form_f(f, u, v) == la.form_f(f, v, u)  # char 2
        assert la.form_f(f, la.vec_add(u, w), v) \
            == la.form_f(f, u, v) ^ la.form_f(f, w, v)
    assert la.form_f(f, la.basis_vec(0), la.basis_vec(3)) == 1
    assert la.form_f(f, la.basis_vec(0), la.basis_vec(1)) == 0


def test_iota_is_symplectic_involution():
    iota = ctx.iota
    assert la.is_symplectic(f, iota)
    assert la.mat_mul(f, iota, iota) == la.identity()


def test_invert_round_trip():
    rng = random.Random(6)
    n = 0
    while n < 20:
        m = rand_mat(rng)
        try:
            mi = la.invert(f, m)
        except SingularMatrixError:
            continue
        n += 1
        assert la.mat_mul(f, m, mi) == la.identity()
        assert la.mat_mul(f, mi, m) == la.identity()


def test_invert_singular_raises():
    zero_row = (0, 0, 0, 0) + (1, 2, 3, 4, 5, 6, 7, 1, 2, 3, 4, 5)
    with pytest.raises(SingularMatrixError):
        la.invert(f, zero_row)
    # rank 1: all rows equal
    m = (1, 2, 3, 4) * 4
    with pytest.raises(SingularMatrixError):
        la.invert(f, m)


def test_hex_round_trip():
    rng = random.Random(7)
    for _ in range(10):
        m = rand_mat(rng)
        s = la.mat_to_hex(m)
        assert hp.mat_from_hex(s) == m
        assert len(s.split()) == 16


def test_mat_from_hex_rejects_garbage():
    with pytest.raises(ValueError):
        hp.mat_from_hex("1 2 3")
    with pytest.raises(ValueError):
        hp.mat_from_hex(" ".join(["zz"] * 16))
