import dataclasses

import pytest

from szverify import groups as gr
from szverify.context import MODULI, SuzukiContext, make_context
from szverify.errors import SingularMatrixError, SzVerifyError
from szverify.field import (BinaryField, TwistedField, clmul, polymod,
                            validate_modulus)

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
    f = TwistedField(MODULI[2 * e + 1])
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
    f = TwistedField(MODULI[3])
    for a in f.elements():
        tt = f.frobenius_t(f.frobenius_t(a))
        assert f.sqr(tt) == a


def test_moduli_table_irreducible():
    for deg, poly in MODULI.items():
        assert poly.bit_length() - 1 == deg
        assert validate_modulus(poly)
    assert not validate_modulus(0b1111)  # (x+1)(x^2+x+1)
    with pytest.raises(ValueError):
        BinaryField(-0b1011)  # its bit pattern has no polynomial


def test_make_context_rejects_bad_e():
    with pytest.raises(ValueError):
        make_context(0)
    with pytest.raises(ValueError):
        make_context(5)  # q = 2^11: no modulus, no untabled field
    with pytest.raises(ValueError):
        make_context(7)


@pytest.mark.parametrize("e", sorted((d - 1) // 2 for d in MODULI))
def test_context_parameters_derive_from_the_field(e):
    """q and t are read from the field: q = 2^(2e+1), t = 2^e, 2t^2 = q."""
    ctx = make_context(e)
    assert ctx.q == 2 ** (2 * e + 1)
    assert ctx.t == 2 ** e
    assert 2 * ctx.t * ctx.t == ctx.q


def test_twisted_field_refuses_an_even_degree():
    assert validate_modulus(0b10011)  # x^4 + x + 1, irreducible
    with pytest.raises(ValueError):
        TwistedField(0b10011)


@pytest.mark.parametrize("change", [
    {"t": 4},
    {"iota": (1,) + (0,) * 15},
    {"bullet_basis": tuple(tuple((1, 1, 1, 1) for _ in range(4))
                           for _ in range(4))},
])
def test_corrupt_context_detected(ctx8, change):
    """An inconsistent context cannot be built: t is read from the field
    and iota and the product table are class constants, so replacing
    any of them raises TypeError.  The constants keep the invariants a
    context relies on: 2 t^2 = q, iota is the antidiagonal identity, and
    the product table is symmetric with exactly eight nonzero entries."""
    with pytest.raises(TypeError):
        dataclasses.replace(ctx8, **change)
    pairs = [(i, j) for i in range(4) for j in range(4)]
    basis = ctx8.bullet_basis
    assert 2 * ctx8.t * ctx8.t == ctx8.q
    assert ctx8.iota == tuple(int(i + j == 3) for i, j in pairs)
    assert all(basis[i][j] == basis[j][i] for i, j in pairs)
    assert sum(any(basis[i][j]) for i, j in pairs) == 8


def test_context_is_its_field(ctx8):
    """The field is the one constructor input, a reducible modulus is
    refused where the field is made, and a context on the other
    irreducible cubic builds Sz(8)."""
    assert [f.name for f in dataclasses.fields(ctx8)] == ["field"]
    for reducible in (0b1001, 0b1111):  # x^3 + 1, (x+1)(x^2+x+1)
        with pytest.raises(SzVerifyError):
            TwistedField(reducible)
    group = gr.build_suzuki(SuzukiContext(TwistedField(0b1101)))
    assert group.order == 29_120
    assert group.base_orbits == (455, 64)
    assert len(gr.involutions(group)) == 455


def test_corrupt_modulus_table_detected(monkeypatch):
    monkeypatch.setitem(MODULI, 3, 0b1111)  # (x+1)(x^2+x+1)
    with pytest.raises(SzVerifyError):
        make_context(1)
