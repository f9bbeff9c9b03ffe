"""Arithmetic in GF(2^m) with field elements represented as plain ints.

An element is the bit pattern of its polynomial over GF(2): bit i is the
coefficient of x^i, so 0b110 stands for x^2 + x.  Addition is xor.
Multiplication reduces modulo a fixed irreducible polynomial, given in the
same encoding (0b1011 is x^3 + x + 1).  A field refuses a reducible
modulus when it is built (``validate_modulus``), so every BinaryField is
a field.

Full multiplication, inverse and twist tables are built eagerly, which
is cheap for every field in ``context.MODULI`` (q <= 512).  Inverses come
from a^(q-2) by square and multiply, never from the extended Euclidean
algorithm.
"""

from __future__ import annotations

from .errors import SingularMatrixError, SzVerifyError


def clmul(a: int, b: int) -> int:
    """Carry-less product of two polynomial bit patterns (no reduction)."""
    acc = 0
    while b:
        if b & 1:
            acc ^= a
        a <<= 1
        b >>= 1
    return acc


def polymod(a: int, m: int) -> int:
    """Remainder of polynomial a modulo polynomial m over GF(2)."""
    dm = m.bit_length() - 1
    while a.bit_length() - 1 >= dm and a:
        a ^= m << (a.bit_length() - 1 - dm)
    return a


def validate_modulus(poly: int) -> bool:
    """True iff poly is irreducible over GF(2) with degree in 2..13.

    Checked by trial division against every polynomial of strictly lower
    degree at least 1.  A negative poly, or a degree outside the
    supported band, raises.
    """
    degree = poly.bit_length() - 1
    if poly < 0 or not 2 <= degree <= 13:
        raise ValueError(f"{poly} is negative or its degree {degree} is "
                         "outside the supported range 2..13")
    for d in range(1, degree):
        for divisor in range(1 << d, 1 << (d + 1)):
            if polymod(poly, divisor) == 0:
                return False
    return True


class BinaryField:
    """GF(2^degree) defined by an irreducible modulus polynomial.

    Parameters
    ----------
    modulus : int
        Bit pattern of the defining polynomial.  Its degree sets the field
        size q = 2 ** degree.  A reducible modulus raises SzVerifyError,
        and a degree outside 2..13 raises ValueError.

    ``mul_table[a][b]`` and ``inv_table[a]`` hold the products and
    inverses (``inv_table[0]`` is 0); ``kernels.field_tables`` reads them.
    """

    def __init__(self, modulus: int):
        if not validate_modulus(modulus):
            raise SzVerifyError(f"modulus {bin(modulus)} is reducible")
        self.modulus = modulus
        self.degree = modulus.bit_length() - 1
        self.q = 1 << self.degree
        self.mul_table = [
            [polymod(clmul(a, b), modulus) for b in range(self.q)]
            for a in range(self.q)
        ]
        self.inv_table = [0] + [self.pow(a, self.q - 2)
                                for a in range(1, self.q)]

    def __repr__(self):
        return (f"{type(self).__name__}(degree={self.degree}, "
                f"modulus={bin(self.modulus)})")

    def add(self, a: int, b: int) -> int:
        return a ^ b

    def mul(self, a: int, b: int) -> int:
        return self.mul_table[a][b]

    def sqr(self, a: int) -> int:
        return self.mul(a, a)

    def pow(self, a: int, k: int) -> int:
        """a ** k; negative k inverts first.  pow(a, 0) is 1."""
        if k < 0:
            a = self.inv(a)
            k = -k
        acc = 1
        while k:
            if k & 1:
                acc = self.mul(acc, a)
            a = self.mul(a, a)
            k >>= 1
        return acc

    def inv(self, a: int) -> int:
        if a == 0:
            raise SingularMatrixError("0 has no inverse")
        return self.inv_table[a]

    def elements(self):
        return range(self.q)

    def nonzero(self):
        return range(1, self.q)


class TwistedField(BinaryField):
    """GF(q) for q = 2^(2e+1), carrying the twist map a -> a^(2^e).

    e is read from the modulus, of odd degree 2e + 1; an even degree
    raises ValueError.  The twist exponent 2^e is written t and satisfies
    2 * t * t == q.  Applying the twist twice gives a^(t*t) = a^(q/2), so
    one further squaring returns a: the twist is a square root of the
    squaring map.  ``frob_table[a]`` holds a^t.
    """

    def __init__(self, modulus: int):
        degree = modulus.bit_length() - 1
        if degree % 2 == 0:
            raise ValueError(f"degree {degree} is even, not 2e+1")
        super().__init__(modulus)
        e = degree // 2
        self.t = 1 << e
        self.frob_table = list(range(self.q))
        for _ in range(e):
            self.frob_table = [self.sqr(a) for a in self.frob_table]

    def frobenius_t(self, a: int) -> int:
        """The twist a -> a^t = a^(2^e), tabled from e successive squarings."""
        return self.frob_table[a]
