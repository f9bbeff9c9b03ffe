import dataclasses

import pytest

from szverify.context import (MODULI, _check_context, make_context,
                              validate_modulus)
from szverify.errors import SingularMatrixError, SzVerifyError
from szverify.field import BinaryField, TwistedField, clmul, polymod

# Frozen from an independent polynomial-arithmetic oracle (GF(8) with
# modulus x^3 + x + 1).
GF8_MUL_FACTS = [(4, 2, 3), (2, 2, 4), (5, 5, 7), (7, 6, 4)]
GF8_INV_FACTS = [(1, 1), (2, 5), (3, 6), (4, 7)]
GF8_POW_FACTS = [(2, 5, 7), (3, 7, 1), (5, 0, 1)]


def test_clmul_is_carryless():
    assert clmul(0b101, 0b11) == 0b1111
    assert clmul(0, 7) == 0
    assert clmul(1, 9) == 9


def test_polymod():
    assert polymod(0b1011, 0b1011) == 0
    assert polymod(0b100, 0b1011) == 0b100


@pytest.mark.parametrize("a,b,c", GF8_MUL_FACTS)
def test_gf8_mul_oracle(a, b, c):
    f = BinaryField(MODULI[3])
    assert f.mul(a, b) == c


@pytest.mark.parametrize("a,ai", GF8_INV_FACTS)
def test_gf8_inv_oracle(a, ai):
    f = BinaryField(MODULI[3])
    assert f.inv(a) == ai
    assert f.mul(a, ai) == 1


@pytest.mark.parametrize("a,k,r", GF8_POW_FACTS)
def test_gf8_pow_oracle(a, k, r):
    assert BinaryField(MODULI[3]).pow(a, k) == r


def test_field_axioms_exhaustive_q8():
    f = BinaryField(MODULI[3])
    els = list(f.elements())
    assert els == list(range(8))
    for a in els:
        assert f.add(a, 0) == a
        assert f.add(a, a) == 0
        assert f.mul(a, 1) == a
        for b in els:
            assert f.add(a, b) == f.add(b, a)
            assert f.mul(a, b) == f.mul(b, a)
            for c in els:
                assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
                assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b),
                                                      f.mul(a, c))


def test_inverse_exhaustive():
    for deg in (3, 5):
        f = BinaryField(MODULI[deg])
        for a in f.nonzero():
            assert f.mul(a, f.inv(a)) == 1
    with pytest.raises(SingularMatrixError):
        BinaryField(MODULI[3]).inv(0)


@pytest.mark.parametrize("e", [1, 2])
def test_frobenius_twist(e):
    f = TwistedField(MODULI[2 * e + 1], e)
    assert f.t == 2 ** e
    assert 2 * f.t * f.t == f.q
    assert f.frobenius_t(0) == 0
    assert f.frobenius_t(1) == 1
    for a in f.elements():
        for b in f.elements():
            assert f.frobenius_t(f.add(a, b)) == f.add(f.frobenius_t(a),
                                                       f.frobenius_t(b))
            assert f.frobenius_t(f.mul(a, b)) == f.mul(f.frobenius_t(a),
                                                       f.frobenius_t(b))
    # the twist composed with itself is squaring iterated e times short
    # of a full Frobenius orbit: a^(t^2) = a^(q/2)
    for a in f.nonzero():
        assert f.frobenius_t(f.frobenius_t(a)) == f.pow(a, f.q // 2)


def test_twist_is_automorphism_square_root():
    # t o t = (a -> a^2) composed 2e times; doubling once more gives a^q = a
    f = TwistedField(MODULI[3], 1)
    for a in f.elements():
        tt = f.frobenius_t(f.frobenius_t(a))
        assert f.sqr(tt) == a


def test_moduli_table_irreducible():
    for deg, poly in MODULI.items():
        assert poly.bit_length() - 1 == deg
        assert validate_modulus(poly)
    assert not validate_modulus(0b1111)  # (x+1)(x^2+x+1)


def test_make_context_rejects_bad_e():
    with pytest.raises(ValueError):
        make_context(0)
    with pytest.raises(ValueError):
        make_context(5)  # q = 2^11: no modulus, no untabled field
    with pytest.raises(ValueError):
        make_context(7)


@pytest.mark.parametrize("change", [
    {"t": 4},
    {"iota": (1,) + (0,) * 15},
    {"bullet_basis": tuple(tuple((1, 1, 1, 1) for _ in range(4))
                           for _ in range(4))},
])
def test_corrupt_context_detected(ctx8, change):
    """An inconsistent context raises SzVerifyError, not an assert that
    python -O would drop."""
    with pytest.raises(SzVerifyError, match="corrupt"):
        _check_context(dataclasses.replace(ctx8, **change))


def test_corrupt_modulus_table_detected(monkeypatch):
    monkeypatch.setitem(MODULI, 3, 0b1111)  # (x+1)(x^2+x+1)
    with pytest.raises(SzVerifyError):
        make_context(1)
