"""The set X = {x in Sz(q) : x.iota.x = iota}.

Provides the claimed closed form ({iota} union the diagonal torus), the
exhaustive scan over an enumerated group, and the equation system that
the closed form was derived from, with each equation tagged by the
basis-vector product or Gram-matrix position it encodes.  Each set of
matrices is canonically sorted (n, 16) entries, so sets compare as arrays.

Each equation is stated once, as its text, and evaluated from that
text on a whole batch of symmetric matrices at a time (equation_masks).
A side of an equation is terms joined by " + "; a term is 1 or factors
joined by spaces; a factor is an entry a<i><j>, optionally raised by
^t, ^2 or ^2t, where ^2t means (a^2)^t.

The two realisations disagree: the scan finds every symmetric member of
the group (the condition x.iota.x = iota is equivalent to (x.iota)^2 = I,
so the scan size is #involutions + 1), of which the closed form is only
a small subset.  ``fixed_set_result`` reports both sides; see README.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

from . import kernels as kn
from .context import SuzukiContext

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
    x(e_i . e_j); the equations of the non-perpendicular pairs are
    printed with their common Frobenius twist cancelled.  kind "form":
    entry (i, j) of x.iota.x.
    """

    kind: str
    i: int
    j: int
    coord: int = -1
    perpendicular: bool = True


@dataclass(frozen=True)
class Equation:
    label: str
    text: str
    origin: EquationOrigin


def _product_eq(label, text, i, j, coord, perp=True):
    return Equation(label, text,
                    EquationOrigin("product", i, j, coord, perp))


def _form_eq(label, text, i, j):
    return Equation(label, text, EquationOrigin("form", i, j))


EQUATIONS: Tuple[Equation, ...] = (
    _product_eq("S1", "a12^t a24^t + a14^t a22^t = a12", 0, 1, 0),
    _product_eq("S2", "a11^t a22^t + a12^2t = a22", 0, 1, 1),
    _product_eq("S3", "a13^t a24^t + a14^t a23^t = a23", 0, 1, 2),
    _product_eq("S4", "a11^t a23^t + a13^t a12^t = a24", 0, 1, 3),
    _product_eq("S5", "a12^t a34^t + a14^t a23^t = a14", 0, 2, 0),
    _product_eq("S6", "a13^t a34^t + a14^t a33^t = a34", 0, 2, 2),
    _product_eq("S7", "a11^t a33^t + a13^2t = a44", 0, 2, 3),
    _product_eq("S8", "a22^t a44^t + a24^2t = a11", 1, 3, 0),
    _product_eq("S9", "a23^t a44^t + a24^t a34^t = a13", 1, 3, 2),
    _product_eq("S10", "a33^t a44^t + a34^2t = a33", 3, 2, 2),
    _product_eq("S11", "a14 a24 = a12 a44", 0, 3, 0, perp=False),
    _product_eq("S12", "a12 a14 = a11 a24", 0, 3, 1, perp=False),
    _product_eq("S13", "a13 a44 = a14 a34", 0, 3, 2, perp=False),
    _product_eq("S14", "a11 a34 = a13 a14", 0, 3, 3, perp=False),
    _product_eq("S15", "a22 a34 = a24 a23", 1, 2, 0, perp=False),
    _product_eq("S16", "a22 a13 = a12 a23", 1, 2, 1, perp=False),
    _product_eq("S17", "a23 a34 = a24 a33", 1, 2, 2, perp=False),
    _product_eq("S18", "a12 a33 = a13 a23", 1, 2, 3, perp=False),
    _form_eq("P14", "a14^2 + a13 a24 + a12 a34 + a11 a44 = 1", 0, 3),
    _form_eq("P23", "a24 a13 + a23^2 + a22 a33 + a12 a34 = 1", 1, 2),
)


# A factor of an equation's text: the entry a<i><j> and its power.
_FACTOR = r"a([1-4])([1-4])(\^t|\^2|\^2t)?"


def parse_side(side: str) -> Tuple[Tuple[Tuple[int, int, str], ...], ...]:
    """The terms of one side of an equation's text.

    Each term is a tuple of factors (i, j, power), with i and j 0-based
    and power one of "", "^t", "^2", "^2t"; the term 1 is the empty
    tuple.  Any other token raises ValueError.
    """
    terms = []
    for term in side.split(" + "):
        factors = []
        for tok in [] if term == "1" else term.split(" "):
            m = re.fullmatch(_FACTOR, tok)
            if m is None:
                raise ValueError(f"bad factor {tok!r} in {side!r}")
            factors.append((int(m[1]) - 1, int(m[2]) - 1, m[3] or ""))
        terms.append(tuple(factors))
    return tuple(terms)


def _side_values(mul: np.ndarray, powers: Dict[str, np.ndarray], side: str,
                 a: np.ndarray) -> np.ndarray:
    """One side of an equation on every row of the (n, 16) batch ``a``:
    each factor is one gather through its power's table, each product
    one gather through ``mul``."""
    acc = np.zeros(len(a), dtype=np.uint8)
    for term in parse_side(side):
        value = np.ones(len(a), dtype=np.uint8)
        for i, j, power in term:
            value = mul[value, powers[power][a[:, 4 * i + j]]]
        acc ^= value
    return acc


def equation_masks(ctx: SuzukiContext, mats) -> Dict[str, np.ndarray]:
    """Which rows of a batch of symmetric matrices satisfy each equation.

    ``mats`` is an (n, 16) entries batch.  Each side is parsed from the
    equation's text and evaluated once on the whole batch.  An
    asymmetric row raises ValueError, and an entry outside GF(q) raises
    FieldRangeError.
    """
    a = kn.field_rows(ctx, mats)
    x = a.reshape(-1, 4, 4)
    if (x != x.transpose(0, 2, 1)).any():
        raise ValueError("equation system is stated for symmetric matrices")
    mul, frob, _ = kn.field_tables(ctx)
    sqr = mul.diagonal()
    powers = {"": np.arange(ctx.q, dtype=np.uint8), "^t": frob, "^2": sqr,
              "^2t": frob[sqr]}
    masks = {}
    for eq in EQUATIONS:
        lhs, rhs = eq.text.split(" = ")
        masks[eq.label] = (_side_values(mul, powers, lhs, a)
                           == _side_values(mul, powers, rhs, a))
    return masks


def torus_elements(ctx: SuzukiContext) -> np.ndarray:
    """diag(a, a^(2t+1), a^(-2t-1), a^(-1)) for a = 1, ..., q - 1, as
    (q - 1, 16) entries."""
    f = ctx.field
    k = 2 * ctx.t + 1
    ents = np.zeros((ctx.q - 1, 16), dtype=np.uint8)
    ents[:, ::5] = [(a, f.pow(a, k), f.pow(a, -k), f.inv(a))
                    for a in range(1, ctx.q)]
    return ents


def closed_form_X(ctx: SuzukiContext) -> np.ndarray:
    """The claimed fixed set: iota plus the q - 1 torus elements,
    canonically sorted."""
    keys = kn.entry_keys(ctx, np.vstack([ctx.iota, torus_elements(ctx)]))
    return kn.key_entries(np.sort(keys))


def expected_scan_size(ctx: SuzukiContext) -> int:
    """#involutions + 1: the scan condition is (x.iota)^2 = I, and
    w -> w.iota is a bijection from {involutions} union {I} onto the
    scan set."""
    return ctx.involution_count + 1


@dataclass(frozen=True)
class FixedSetResult:
    closed_form: np.ndarray
    brute_force: np.ndarray

    @property
    def equal(self) -> bool:
        return np.array_equal(self.closed_form, self.brute_force)


def fixed_set_result(ctx: SuzukiContext, group) -> FixedSetResult:
    """Both realisations, canonically sorted for set comparison: the
    scan is ``group.fixed_points``, so it runs once per group however
    often this is called.

    At q = 8 the closed form lists 8 matrices while the scan finds 456
    (every symmetric member), so ``equal`` is False.
    """
    return FixedSetResult(closed_form_X(ctx), group.fixed_points)


@dataclass(frozen=True)
class EquationCensus:
    total: int
    per_label: Dict[str, int]
    full_solutions: np.ndarray
    closed_form_satisfied: bool
    closed_form: np.ndarray

    @property
    def solutions_match_closed_form(self) -> bool:
        return np.array_equal(self.full_solutions, self.closed_form)


def equation_census(ctx: SuzukiContext, scan) -> EquationCensus:
    """Per-equation satisfaction counts over the scanned fixed set.

    ``scan`` is the fixed-set scan of the group, canonically sorted
    entries (GroupSet.fixed_points), or its symmetric rows.  The scan
    and the closed form go through equation_masks as one batch.
    The ten twisted product equations and the two Gram-position
    equations hold on every scan member; the eight detwisted equations
    from non-perpendicular pairs do not, and exactly the closed-form
    matrices satisfy the full system.
    """
    closed = closed_form_X(ctx)
    rows = kn.field_rows(ctx, scan)
    n = len(rows)
    masks = equation_masks(ctx, np.concatenate([rows, closed]))
    full = np.logical_and.reduce(list(masks.values()))
    counts = {label: int(m[:n].sum()) for label, m in masks.items()}
    return EquationCensus(n, counts, rows[full[:n]], bool(full[n:].all()),
                          closed)
