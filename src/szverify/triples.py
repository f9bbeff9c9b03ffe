"""Rank-4 chiral generating triples over Sz(q).

A rank-4 chiral polytope with automorphism group Sz(q) would force
generators (sigma1, sigma2, sigma3) with sigma1*sigma2*sigma3,
sigma2*sigma3 and sigma1*sigma2 all involutions.  This module machine
checks the claimed reduction of that condition and runs two searches:
the restricted one over pairs from the closed-form fixed set, and a
direct construction showing the restriction misses generating triples.
Both build each triple from (sigma1^-1, sigma3^-1) with product iota,
and both check and close it in one walk (_closed_triples).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, List, Optional, Tuple

from . import fixed_set as fs
from . import groups as gr
from . import linalg4 as la
from .context import SuzukiContext
from .errors import VerificationError
from .linalg4 import Mat4


@dataclass(frozen=True)
class ChiralTriple:
    sigma1: Mat4
    sigma2: Mat4
    sigma3: Mat4

    def mats(self) -> Tuple[Mat4, Mat4, Mat4]:
        return (self.sigma1, self.sigma2, self.sigma3)

    def product(self, ctx: SuzukiContext) -> Mat4:
        f = ctx.field
        return la.mat_mul(f, la.mat_mul(f, self.sigma1, self.sigma2),
                          self.sigma3)

    def to_json_dict(self) -> dict:
        return {"sigma1": la.mat_to_hex(self.sigma1),
                "sigma2": la.mat_to_hex(self.sigma2),
                "sigma3": la.mat_to_hex(self.sigma3)}


def involution_conditions(ctx: SuzukiContext,
                          triple: ChiralTriple) -> Tuple[bool, bool, bool]:
    """Orders of (s1 s2 s3, s2 s3, s1 s2) all equal to 2."""
    f = ctx.field
    s1, s2, s3 = triple.mats()
    prods = (triple.product(ctx), la.mat_mul(f, s2, s3), la.mat_mul(f, s1, s2))
    return tuple(gr.element_order(ctx, p) == 2 for p in prods)


def fixed_set_membership_lemma(ctx: SuzukiContext,
                               triple: ChiralTriple) -> bool:
    """sigma1^-1 and sigma3^-1 both satisfy x . iota . x = iota.

    Preconditions: the product is exactly iota and the two partial
    products are involutions.  Under them the conclusion is a theorem,
    so this certifies rather than filters.
    """
    f = ctx.field
    if triple.product(ctx) != tuple(ctx.iota):
        raise ValueError("triple product must be iota")
    c12 = gr.element_order(ctx, la.mat_mul(f, triple.sigma1, triple.sigma2))
    c23 = gr.element_order(ctx, la.mat_mul(f, triple.sigma2, triple.sigma3))
    if c12 != 2 or c23 != 2:
        raise ValueError("partial products must be involutions")
    return (fs.in_fixed_set(ctx, la.invert(f, triple.sigma1))
            and fs.in_fixed_set(ctx, la.invert(f, triple.sigma3)))


def torus_inversion_check(ctx: SuzukiContext) -> bool:
    """iota-conjugation sends every torus element to its inverse."""
    f = ctx.field
    iota = tuple(ctx.iota)
    for a in range(1, ctx.q):
        d = fs.torus_element(ctx, a)
        conj = la.mat_mul(f, iota, la.mat_mul(f, d, iota))
        if conj != la.invert(f, d):
            return False
    return True


def torus_commutation_check(ctx: SuzukiContext) -> bool:
    """All torus pairs commute."""
    f = ctx.field
    tor = fs.torus_elements(ctx)
    for d1 in tor:
        for d2 in tor:
            if la.mat_mul(f, d1, d2) != la.mat_mul(f, d2, d1):
                return False
    return True


@dataclass(frozen=True)
class PairDetail:
    a: Mat4
    b: Mat4
    triple: ChiralTriple
    subgroup_order: int
    solvable: bool
    sigma_orders: Tuple[int, int, int]

    def to_json_dict(self, group_order: int) -> dict:
        d = {"a": la.mat_to_hex(self.a), "b": la.mat_to_hex(self.b),
             "subgroup_order": self.subgroup_order, "solvable": self.solvable,
             "sigma_orders": list(self.sigma_orders)}
        if self.subgroup_order < group_order:
            d["rejection_reason"] = "proper subgroup"
        return d


@dataclass(frozen=True)
class Witness:
    triple: ChiralTriple
    subgroup_order: int
    sigma_orders: Tuple[int, int, int]
    sigma1_inv_in_scan: bool
    sigma1_inv_in_closed_form: bool
    sigma3_inv_in_scan: bool
    sigma3_inv_in_closed_form: bool

    def to_json_dict(self) -> dict:
        d = self.triple.to_json_dict()
        d.update({
            "subgroup_order": self.subgroup_order,
            "sigma_orders": list(self.sigma_orders),
            "sigma1_inverse_in_scanned_fixed_set": self.sigma1_inv_in_scan,
            "sigma1_inverse_in_closed_form": self.sigma1_inv_in_closed_form,
            "sigma3_inverse_in_scanned_fixed_set": self.sigma3_inv_in_scan,
            "sigma3_inverse_in_closed_form": self.sigma3_inv_in_closed_form,
        })
        return d


@dataclass(frozen=True)
class ReductionStatus:
    closed_form_size: int
    scan_size: int
    fixed_set_equal: bool
    iota_pairs_rejected: int
    membership_lemma_held: bool

    def to_json_dict(self) -> dict:
        return {"closed_form_size": self.closed_form_size,
                "scan_size": self.scan_size,
                "fixed_set_equal": self.fixed_set_equal,
                "iota_pairs_rejected": self.iota_pairs_rejected,
                "membership_lemma_held": self.membership_lemma_held}


@dataclass(frozen=True)
class TripleReport:
    q: int
    group_order: int
    candidates: int
    successes: Tuple[ChiralTriple, ...]
    details: Tuple[PairDetail, ...]
    reduction: ReductionStatus
    witnesses: Tuple[Witness, ...]

    @property
    def certifies_nonexistence(self) -> bool:
        """True only when the restricted search is complete and empty:
        the reduction to closed-form pairs must itself have verified."""
        return (self.reduction.fixed_set_equal
                and self.reduction.membership_lemma_held
                and not self.successes
                and not self.witnesses)

    def to_json_dict(self) -> dict:
        return {
            "schema": "szverify-triples v1",
            "q": self.q,
            "candidates": self.candidates,
            "successes": [t.to_json_dict() for t in self.successes],
            "details": [d.to_json_dict(self.group_order)
                        for d in self.details],
            "reduction": self.reduction.to_json_dict(),
            "witnesses_outside_restriction": [w.to_json_dict()
                                              for w in self.witnesses],
            "certifies_nonexistence": self.certifies_nonexistence,
        }


def _triple_from_inverse_pair(ctx: SuzukiContext, s1_inv: Mat4,
                              s3_inv: Mat4) -> ChiralTriple:
    """The triple with sigma1^-1, sigma3^-1 as given and product iota."""
    f = ctx.field
    iota = tuple(ctx.iota)
    sigma2 = la.mat_mul(f, s1_inv, la.mat_mul(f, iota, s3_inv))
    return ChiralTriple(la.invert(f, s1_inv), sigma2, la.invert(f, s3_inv))


def _closed_triples(ctx: SuzukiContext, group: gr.GroupSet,
                    inverse_pairs: Iterable[Tuple[Mat4, Mat4]]
                    ) -> Iterator[Tuple[Mat4, Mat4, ChiralTriple,
                                        gr.GroupSet]]:
    """Build, check and close the triple of each (sigma1^-1, sigma3^-1).

    Yields (sigma1^-1, sigma3^-1, triple, subgroup it generates), lazily,
    so a caller may stop early.  Both searches walk only pairs whose
    triple meets every involution condition by construction, so a
    triple that does not raises VerificationError; its product iota is
    certified by fixed_set_membership_lemma wherever a caller keeps it.
    The subgroup comes from groups.subgroup: a closure that passes half
    the group order has index 1 by Lagrange's theorem, so it stops there
    and no generating triple is closed to the end.
    """
    for s1_inv, s3_inv in inverse_pairs:
        triple = _triple_from_inverse_pair(ctx, s1_inv, s3_inv)
        if not all(involution_conditions(ctx, triple)):
            raise VerificationError(
                "constructed triple failed an involution condition")
        yield s1_inv, s3_inv, triple, gr.subgroup(ctx, triple.mats(), group)


def _iota_pair_rejections(ctx: SuzukiContext) -> int:
    """Every pair using iota as an inverse fails an involution condition."""
    iota = tuple(ctx.iota)
    closed = fs.closed_form_X(ctx)
    pairs = [(iota, x) for x in closed] + [(x, iota) for x in closed
                                          if x != iota]
    rejected = 0
    for s1_inv, s3_inv in pairs:
        triple = _triple_from_inverse_pair(ctx, s1_inv, s3_inv)
        if all(involution_conditions(ctx, triple)):
            raise VerificationError(
                "a pair containing iota passed all involution conditions")
        rejected += 1
    return rejected


def find_rank4_witnesses(ctx: SuzukiContext, group: gr.GroupSet,
                         count: int = 3) -> List[Witness]:
    """Generating triples meeting every involution condition.

    For any involutions w1, w3 the triple (iota*w1, w1*w3*iota, iota*w3)
    has product iota and both partial products involutions, so only
    generation needs searching.  Its inverses sigma1^-1 = w1*iota and
    sigma3^-1 = w3*iota are members of the fixed-set scan
    (fixed_set.brute_force_X): x iota x = iota iff (x iota)^2 = I.
    Taking w1 or w3 equal to iota collapses a sigma to the identity and
    the subgroup to a dihedral one, so iota is skipped.

    Deterministic: w1 is the canonically first involution
    (groups.involutions) other than iota, then w3 walks the remaining
    ones in canonical order; the first ``count`` pairs whose triple
    generates the whole group are kept.
    """
    f = ctx.field
    iota = tuple(ctx.iota)
    ws = [w for w in gr.involutions(group) if w != iota]
    closed = set(fs.closed_form_X(ctx))
    scan = set(fs.brute_force_X(group))
    pairs = ((la.mat_mul(f, ws[0], iota), la.mat_mul(f, w3, iota))
             for w3 in ws[1:])
    out: List[Witness] = []
    for s1_inv, s3_inv, triple, sub in _closed_triples(ctx, group, pairs):
        if sub.order != group.order:
            continue
        if not fixed_set_membership_lemma(ctx, triple):
            raise VerificationError("witness violated the membership lemma")
        wit = Witness(
            triple=triple,
            subgroup_order=sub.order,
            sigma_orders=tuple(gr.element_order(ctx, s) for s in triple.mats()),
            sigma1_inv_in_scan=s1_inv in scan,
            sigma1_inv_in_closed_form=s1_inv in closed,
            sigma3_inv_in_scan=s3_inv in scan,
            sigma3_inv_in_closed_form=s3_inv in closed,
        )
        if wit.sigma1_inv_in_closed_form and wit.sigma3_inv_in_closed_form:
            raise VerificationError(
                "generating triple with both inverses in the closed form")
        out.append(wit)
        if len(out) >= count:
            break
    return out


def search_rank4(ctx: SuzukiContext, group: gr.GroupSet,
                 witness_count: Optional[int] = None) -> TripleReport:
    """The restricted search plus its completeness audit.

    Walks every ordered pair of torus elements as (sigma1^-1,
    sigma3^-1), certifies the membership lemma for each triple, and
    records the subgroup it generates.  The audit side records that the
    closed form does not exhaust the scanned fixed set and exhibits
    generating triples built from fixed set members outside it, so
    ``certifies_nonexistence`` stays False.
    """
    result = fs.fixed_set_result(ctx, group)
    reduction_rejected = _iota_pair_rejections(ctx)

    torus = fs.torus_elements(ctx)
    pairs = ((a, b) for a in torus for b in torus)
    details: List[PairDetail] = []
    successes: List[ChiralTriple] = []
    lemma_held = True
    for s1_inv, s3_inv, triple, sub in _closed_triples(ctx, group, pairs):
        lemma_held &= fixed_set_membership_lemma(ctx, triple)
        orders = tuple(gr.element_order(ctx, s) for s in triple.mats())
        details.append(PairDetail(
            a=s1_inv, b=s3_inv, triple=triple, subgroup_order=sub.order,
            solvable=gr.derived_series_solvable(ctx, sub),
            sigma_orders=orders))
        if sub.order == group.order:
            successes.append(triple)

    if witness_count is None:
        witness_count = 3 if ctx.q == 8 else 1
    witnesses = find_rank4_witnesses(ctx, group, count=witness_count)
    reduction = ReductionStatus(
        closed_form_size=len(result.closed_form),
        scan_size=len(result.brute_force),
        fixed_set_equal=result.equal,
        iota_pairs_rejected=reduction_rejected,
        membership_lemma_held=lemma_held)
    return TripleReport(
        q=ctx.q, group_order=group.order,
        candidates=len(details), successes=tuple(successes),
        details=tuple(details), reduction=reduction,
        witnesses=tuple(witnesses))
