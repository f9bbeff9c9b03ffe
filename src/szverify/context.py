"""Shared parameters for one Suzuki group Sz(q).

A context is its twisted field GF(q), q = 2^(2e+1), and reads q and the
twist exponent t from it.  Two constants of every Sz(q) sit beside the
field: the 4x4 antidiagonal involution iota (the Gram matrix of the
symplectic form, equal to its own inverse), and the multiplication table
of the commutative bilinear-after-twist product on basis vectors.
Contexts are immutable.  make_context(e) builds one on the modulus on
record for e; SuzukiContext(TwistedField(modulus)) builds one on any
other irreducible modulus of odd degree, and the field refuses the rest.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

from .field import TwistedField

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


@dataclass(frozen=True, eq=False)
class SuzukiContext:
    """Immutable parameter pack for one Sz(q).  Hash is identity."""

    field: TwistedField
    iota: ClassVar[tuple] = IOTA
    bullet_basis: ClassVar[tuple] = _basis_products()

    def __str__(self):
        return f"Sz({self.q})"

    @property
    def q(self) -> int:
        return self.field.q

    @property
    def t(self) -> int:
        return self.field.t

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
    """Build the context for q = 2^(2e+1) on MODULI[2e + 1].

    Rejects any e whose field degree has no entry in MODULI, e < 1
    among them (Sz(2) is not simple and is out of scope).
    """
    degree = 2 * e + 1
    if degree not in MODULI:
        raise ValueError(f"no modulus on record for degree {degree} (e={e})")
    return SuzukiContext(TwistedField(MODULI[degree]))
