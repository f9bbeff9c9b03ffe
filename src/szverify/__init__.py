"""Exact-arithmetic verification of structural claims about Sz(q).

The package enumerates the Suzuki group inside Sp4(q) for q = 8 (and,
with more patience, q = 32), checks the twisted-product membership
characterisation, audits the fixed-set equation system, and searches for
generating triples subject to three involution conditions.
"""
from .context import SuzukiContext, make_context
from .errors import (BudgetExceededError, SingularMatrixError, SzVerifyError,
                     VerificationError)
from .field import BinaryField, TwistedField
from .groups import GroupSet, build_suzuki, closure
from .wilson import bullet, is_suzuki

__version__ = "0.1.0"

__all__ = [
    "BinaryField", "BudgetExceededError", "GroupSet",
    "SingularMatrixError", "SuzukiContext", "SzVerifyError", "TwistedField",
    "VerificationError", "build_suzuki", "bullet", "closure",
    "is_suzuki", "make_context", "__version__",
]
