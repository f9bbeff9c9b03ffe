"""The set X = {x in Sz(q) : x.iota.x = iota}.

Provides the claimed closed form ({iota} union the diagonal torus), the
exhaustive scan over an enumerated group, and the equation system that
the closed form was derived from, with each equation tagged by the
basis-vector product or Gram-matrix position it encodes.

The two realisations disagree: the scan finds every symmetric member of
the group (the condition x.iota.x = iota is equivalent to (x.iota)^2 = I,
so the scan size is #involutions + 1), of which the closed form is only
a small subset.  ``fixed_set_result`` reports both sides; see README.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

from . import kernels as kn
from . import linalg4 as la
from .context import SuzukiContext
from .linalg4 import Mat4

# Basis pairs whose products generate the displayed equations.  The
# first four are perpendicular (f(e_i, e_j) = 0); the last two are not,
# and the equations derived from them are the ones the reduced
# membership test never imposes.
PERP_PRODUCT_PAIRS = ((0, 1), (0, 2), (1, 3), (3, 2))
NONPERP_PRODUCT_PAIRS = ((0, 3), (1, 2))


@dataclass(frozen=True)
class EquationOrigin:
    """Where an equation comes from.

    kind "product": coordinate ``coord`` of bullet(x e_i, x e_j) against
    x(e_i . e_j); ``detwisted`` marks equations printed with the common
    Frobenius twist cancelled.  kind "form": entry (i, j) of x.iota.x.
    """

    kind: str
    i: int
    j: int
    coord: int = -1
    perpendicular: bool = True
    detwisted: bool = False


@dataclass(frozen=True)
class Equation:
    label: str
    text: str
    origin: EquationOrigin
    lhs: Callable
    rhs: Callable


def _entries(x: Mat4) -> Dict[Tuple[int, int], int]:
    return {(i + 1, j + 1): x[4 * i + j] for i in range(4) for j in range(4)}


def _product_eq(label, text, i, j, coord, lhs, rhs, perp=True, detw=False):
    return Equation(label, text,
                    EquationOrigin("product", i, j, coord, perp, detw),
                    lhs, rhs)


def _form_eq(label, text, i, j, lhs):
    return Equation(label, text, EquationOrigin("form", i, j), lhs,
                    lambda f, a: 1)


EQUATIONS: Tuple[Equation, ...] = (
    _product_eq("S1", "a12^t a24^t + a14^t a22^t = a12", 0, 1, 0,
                lambda f, a: f.mul(f.frobenius_t(a[1, 2]), f.frobenius_t(a[2, 4]))
                ^ f.mul(f.frobenius_t(a[1, 4]), f.frobenius_t(a[2, 2])),
                lambda f, a: a[1, 2]),
    _product_eq("S2", "a11^t a22^t + a12^2t = a22", 0, 1, 1,
                lambda f, a: f.mul(f.frobenius_t(a[1, 1]), f.frobenius_t(a[2, 2]))
                ^ f.frobenius_t(f.mul(a[1, 2], a[1, 2])),
                lambda f, a: a[2, 2]),
    _product_eq("S3", "a13^t a24^t + a14^t a23^t = a23", 0, 1, 2,
                lambda f, a: f.mul(f.frobenius_t(a[1, 3]), f.frobenius_t(a[2, 4]))
                ^ f.mul(f.frobenius_t(a[1, 4]), f.frobenius_t(a[2, 3])),
                lambda f, a: a[2, 3]),
    _product_eq("S4", "a11^t a23^t + a13^t a12^t = a24", 0, 1, 3,
                lambda f, a: f.mul(f.frobenius_t(a[1, 1]), f.frobenius_t(a[2, 3]))
                ^ f.mul(f.frobenius_t(a[1, 3]), f.frobenius_t(a[1, 2])),
                lambda f, a: a[2, 4]),
    _product_eq("S5", "a12^t a34^t + a14^t a23^t = a14", 0, 2, 0,
                lambda f, a: f.mul(f.frobenius_t(a[1, 2]), f.frobenius_t(a[3, 4]))
                ^ f.mul(f.frobenius_t(a[1, 4]), f.frobenius_t(a[2, 3])),
                lambda f, a: a[1, 4]),
    _product_eq("S6", "a13^t a34^t + a14^t a33^t = a34", 0, 2, 2,
                lambda f, a: f.mul(f.frobenius_t(a[1, 3]), f.frobenius_t(a[3, 4]))
                ^ f.mul(f.frobenius_t(a[1, 4]), f.frobenius_t(a[3, 3])),
                lambda f, a: a[3, 4]),
    _product_eq("S7", "a11^t a33^t + a13^2t = a44", 0, 2, 3,
                lambda f, a: f.mul(f.frobenius_t(a[1, 1]), f.frobenius_t(a[3, 3]))
                ^ f.frobenius_t(f.mul(a[1, 3], a[1, 3])),
                lambda f, a: a[4, 4]),
    _product_eq("S8", "a22^t a44^t + a24^2t = a11", 1, 3, 0,
                lambda f, a: f.mul(f.frobenius_t(a[2, 2]), f.frobenius_t(a[4, 4]))
                ^ f.frobenius_t(f.mul(a[2, 4], a[2, 4])),
                lambda f, a: a[1, 1]),
    _product_eq("S9", "a23^t a44^t + a24^t a34^t = a13", 1, 3, 2,
                lambda f, a: f.mul(f.frobenius_t(a[2, 3]), f.frobenius_t(a[4, 4]))
                ^ f.mul(f.frobenius_t(a[2, 4]), f.frobenius_t(a[3, 4])),
                lambda f, a: a[1, 3]),
    _product_eq("S10", "a33^t a44^t + a34^2t = a33", 3, 2, 2,
                lambda f, a: f.mul(f.frobenius_t(a[3, 3]), f.frobenius_t(a[4, 4]))
                ^ f.frobenius_t(f.mul(a[3, 4], a[3, 4])),
                lambda f, a: a[3, 3]),
    _product_eq("S11", "a14 a24 = a12 a44", 0, 3, 0,
                lambda f, a: f.mul(a[1, 4], a[2, 4]),
                lambda f, a: f.mul(a[1, 2], a[4, 4]), perp=False, detw=True),
    _product_eq("S12", "a12 a14 = a11 a24", 0, 3, 1,
                lambda f, a: f.mul(a[1, 2], a[1, 4]),
                lambda f, a: f.mul(a[1, 1], a[2, 4]), perp=False, detw=True),
    _product_eq("S13", "a13 a44 = a14 a34", 0, 3, 2,
                lambda f, a: f.mul(a[1, 3], a[4, 4]),
                lambda f, a: f.mul(a[1, 4], a[3, 4]), perp=False, detw=True),
    _product_eq("S14", "a11 a34 = a13 a14", 0, 3, 3,
                lambda f, a: f.mul(a[1, 1], a[3, 4]),
                lambda f, a: f.mul(a[1, 3], a[1, 4]), perp=False, detw=True),
    _product_eq("S15", "a22 a34 = a24 a23", 1, 2, 0,
                lambda f, a: f.mul(a[2, 2], a[3, 4]),
                lambda f, a: f.mul(a[2, 4], a[2, 3]), perp=False, detw=True),
    _product_eq("S16", "a22 a13 = a12 a23", 1, 2, 1,
                lambda f, a: f.mul(a[2, 2], a[1, 3]),
                lambda f, a: f.mul(a[1, 2], a[2, 3]), perp=False, detw=True),
    _product_eq("S17", "a23 a34 = a24 a33", 1, 2, 2,
                lambda f, a: f.mul(a[2, 3], a[3, 4]),
                lambda f, a: f.mul(a[2, 4], a[3, 3]), perp=False, detw=True),
    _product_eq("S18", "a12 a33 = a13 a23", 1, 2, 3,
                lambda f, a: f.mul(a[1, 2], a[3, 3]),
                lambda f, a: f.mul(a[1, 3], a[2, 3]), perp=False, detw=True),
    _form_eq("P14", "a14^2 + a13 a24 + a12 a34 + a11 a44 = 1", 0, 3,
             lambda f, a: f.mul(a[1, 4], a[1, 4]) ^ f.mul(a[1, 3], a[2, 4])
             ^ f.mul(a[1, 2], a[3, 4]) ^ f.mul(a[1, 1], a[4, 4])),
    _form_eq("P23", "a24 a13 + a23^2 + a22 a33 + a12 a34 = 1", 1, 2,
             lambda f, a: f.mul(a[2, 4], a[1, 3]) ^ f.mul(a[2, 3], a[2, 3])
             ^ f.mul(a[2, 2], a[3, 3]) ^ f.mul(a[1, 2], a[3, 4])),
)

@dataclass(frozen=True)
class EquationRecord:
    label: str
    lhs: int
    rhs: int
    satisfied: bool
    origin: EquationOrigin


@dataclass(frozen=True)
class EquationReport:
    matrix: Mat4
    records: Tuple[EquationRecord, ...]

    @property
    def all_satisfied(self) -> bool:
        return all(r.satisfied for r in self.records)

    def record(self, label: str) -> EquationRecord:
        for r in self.records:
            if r.label == label:
                return r
        raise KeyError(label)

    def to_json_dict(self) -> dict:
        return {
            "schema": "szverify-equations v1",
            "matrix": la.mat_to_hex(self.matrix),
            "equations": [{"label": r.label, "satisfied": r.satisfied}
                          for r in self.records],
            "all_satisfied": self.all_satisfied,
        }


def eval_equation_system(ctx: SuzukiContext, x: Mat4) -> EquationReport:
    """Evaluate every equation on a symmetric matrix, entrywise exact."""
    if la.transpose(x) != tuple(x):
        raise ValueError("equation system is stated for symmetric matrices")
    f = ctx.field
    a = _entries(x)
    recs = []
    for eq in EQUATIONS:
        lhs, rhs = eq.lhs(f, a), eq.rhs(f, a)
        recs.append(EquationRecord(eq.label, lhs, rhs, lhs == rhs, eq.origin))
    return EquationReport(tuple(x), tuple(recs))


def torus_element(ctx: SuzukiContext, a: int) -> Mat4:
    """diag(a, a^(2t+1), a^(-2t-1), a^(-1))."""
    if not 0 < a < ctx.q:
        raise ValueError("torus parameter must be a nonzero field element")
    f = ctx.field
    k = 2 * ctx.t + 1
    return la.diag(a, f.pow(a, k), f.pow(a, -k), f.inv(a))


def torus_elements(ctx: SuzukiContext) -> List[Mat4]:
    return [torus_element(ctx, a) for a in range(1, ctx.q)]


def closed_form_X(ctx: SuzukiContext) -> List[Mat4]:
    """The claimed fixed set: iota plus the q - 1 torus elements."""
    return sorted([tuple(ctx.iota)] + torus_elements(ctx))


def brute_force_X(group) -> List[Mat4]:
    """Every group element with x . iota . x = iota, canonically sorted.

    Read from ``group.fixed_points``, so the whole-group scan runs once
    per group however often this is called.
    """
    return [kn.entries_to_mat(row) for row in group.fixed_points]


def expected_scan_size(ctx: SuzukiContext) -> int:
    """#involutions + 1: the scan condition is (x.iota)^2 = I, and
    w -> w.iota is a bijection from {involutions} union {I} onto the
    scan set."""
    return ctx.involution_count + 1


@dataclass(frozen=True)
class FixedSetResult:
    closed_form: List[Mat4]
    brute_force: List[Mat4]

    @property
    def equal(self) -> bool:
        return self.closed_form == self.brute_force


def fixed_set_result(ctx: SuzukiContext, group) -> FixedSetResult:
    """Both realisations, sorted for set comparison.

    At q = 8 the closed form lists 8 matrices while the scan finds 456
    (every symmetric member), so ``equal`` is False.
    """
    return FixedSetResult(closed_form_X(ctx), brute_force_X(group))


@dataclass(frozen=True)
class EquationCensus:
    total: int
    per_label: Dict[str, int]
    full_solutions: List[Mat4]
    closed_form_satisfied: bool
    closed_form: List[Mat4]

    @property
    def solutions_match_closed_form(self) -> bool:
        return self.full_solutions == self.closed_form


def equation_census(ctx: SuzukiContext,
                    scan: Sequence[Mat4]) -> EquationCensus:
    """Per-equation satisfaction counts over the scanned fixed set.

    ``scan`` is the fixed-set scan of the group (brute_force_X), which
    callers usually have already.  The ten twisted product equations
    and the two Gram-position equations hold on every scan member; the
    eight detwisted equations from non-perpendicular pairs do not, and
    exactly the closed-form matrices satisfy the full system.
    """
    counts = {eq.label: 0 for eq in EQUATIONS}
    full: List[Mat4] = []
    for x in scan:
        rep = eval_equation_system(ctx, x)
        for r in rep.records:
            counts[r.label] += int(r.satisfied)
        if rep.all_satisfied:
            full.append(x)
    closed = closed_form_X(ctx)
    closed_ok = all(eval_equation_system(ctx, x).all_satisfied for x in closed)
    return EquationCensus(len(scan), counts, full, closed_ok, closed)
