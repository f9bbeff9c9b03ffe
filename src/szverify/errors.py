"""Exception types shared across the package."""


class SzVerifyError(Exception):
    """Base class for errors raised by this package."""


class BudgetExceededError(SzVerifyError):
    """An enumeration grew past its operation ceiling."""

    def __init__(self, spent, ceiling):
        super().__init__(f"operation budget exceeded: {spent} > {ceiling}")
        self.spent = spent
        self.ceiling = ceiling


class SingularMatrixError(SzVerifyError):
    """A matrix expected to be invertible is singular."""


class FieldRangeError(SzVerifyError):
    """A matrix entry lies outside GF(q)."""


class NotSymplecticError(SzVerifyError):
    """A matrix expected in Sp4(q) does not preserve the form."""


class VerificationError(SzVerifyError):
    """A check that the underlying theorems guarantee must pass has failed.

    Raised only for genuine contradictions (e.g. an element of the group
    failing a property the whole group provably has), never for bad input.
    """
