"""Shared parameters for one Suzuki group Sz(q).

A context bundles everything downstream code needs for a fixed
q = 2^(2e+1): the twisted field, the 4x4 antidiagonal involution iota
(the Gram matrix of the symplectic form, equal to its own inverse), and
the multiplication table of the commutative bilinear-after-twist product
on basis vectors.  Contexts are immutable; build one with make_context.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

from .errors import SzVerifyError
from .field import BinaryField, TwistedField, clmul, polymod

# Defining polynomials, keyed by degree 2e+1.  The group is enumerated
# only at q = 8 and 32; degrees 7 and 9 (q = 128 and 512) give contexts
# for scalar arithmetic.  Every field here is small enough to be tabled.
MODULI = {
    3: 0b1011,            # x^3 + x + 1
    5: 0b100101,          # x^5 + x^2 + 1
    7: 0b10000011,        # x^7 + x + 1
    9: 0b1000010001,      # x^9 + x^4 + 1
}

IOTA = (
    0, 0, 0, 1,
    0, 0, 1, 0,
    0, 1, 0, 0,
    1, 0, 0, 0,
)

# Unordered basis pairs (i, j) with f(e_i, e_j) = 0, i.e. i + j != 3.
PERP_BASIS_PAIRS = (
    (0, 0), (1, 1), (2, 2), (3, 3),
    (0, 1), (0, 2), (1, 3), (2, 3),
)

# Nonzero entries of the basis product table: (i, j) -> k means
# e_i * e_j = e_k, with 0-based indices.  The table is symmetric.
_BULLET_NONZERO = {
    (0, 1): 1, (1, 0): 1,
    (0, 2): 3, (2, 0): 3,
    (1, 3): 0, (3, 1): 0,
    (2, 3): 2, (3, 2): 2,
}


def _basis_products():
    """The table as basis_products[i][j] = e_i * e_j, a 0/1 4-tuple."""
    return tuple(tuple(tuple(int(_BULLET_NONZERO.get((i, j)) == k)
                             for k in range(4)) for j in range(4))
                 for i in range(4))


def validate_modulus(poly: int) -> bool:
    """True iff poly is irreducible over GF(2) with degree in 2..13.

    Checked by trial division against every polynomial of strictly lower
    degree at least 1.  Degrees outside the supported band raise.
    """
    degree = poly.bit_length() - 1
    if not 2 <= degree <= 13:
        raise ValueError(f"degree {degree} outside supported range 2..13")
    for d in range(1, degree):
        for divisor in range(1 << d, 1 << (d + 1)):
            if polymod(poly, divisor) == 0:
                return False
    return True


@dataclass(frozen=True, eq=False)
class SuzukiContext:
    """Immutable parameter pack for one Sz(q).  Hash is identity."""

    e: int
    q: int
    t: int
    modulus: int
    field: TwistedField = dc_field(repr=False)
    iota: tuple = dc_field(default=IOTA, repr=False)
    bullet_basis: tuple = dc_field(default_factory=_basis_products, repr=False)

    def __str__(self):
        return f"Sz({self.q})"

    @property
    def group_order(self) -> int:
        q = self.q
        return q * q * (q * q + 1) * (q - 1)

    @property
    def sylow_order(self) -> int:
        return self.q * self.q

    @property
    def involution_count(self) -> int:
        q = self.q
        return (q * q + 1) * (q - 1)


def make_context(e: int) -> SuzukiContext:
    """Build the context for q = 2^(2e+1).

    Rejects e < 1 (Sz(2) is not simple and is out of scope) and any e
    whose field degree has no entry in MODULI.
    """
    if e < 1:
        raise ValueError(f"e must be >= 1, got {e}")
    degree = 2 * e + 1
    if degree not in MODULI:
        raise ValueError(f"no modulus on record for degree {degree} (e={e})")
    modulus = MODULI[degree]
    if not validate_modulus(modulus):
        raise SzVerifyError(f"modulus table corrupt: {bin(modulus)} is reducible")
    fld = TwistedField(modulus, e)
    ctx = SuzukiContext(e=e, q=fld.q, t=fld.t, modulus=modulus, field=fld)
    _check_context(ctx)
    return ctx


def _check_context(ctx: SuzukiContext) -> None:
    """Raises SzVerifyError unless 2 t^2 = q, iota is the antidiagonal
    identity (its own inverse), and the basis product table is
    symmetric with exactly eight nonzero entries."""
    pairs = [(i, j) for i in range(4) for j in range(4)]
    basis = ctx.bullet_basis
    if not (2 * ctx.t * ctx.t == ctx.q
            and ctx.iota == tuple(int(i + j == 3) for i, j in pairs)
            and all(basis[i][j] == basis[j][i] for i, j in pairs)
            and sum(any(basis[i][j]) for i, j in pairs) == 8):
        raise SzVerifyError(f"context of Sz({ctx.q}) is corrupt")
