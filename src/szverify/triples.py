"""Rank-4 chiral generating triples over Sz(q).

A rank-4 chiral polytope with automorphism group Sz(q) would force
generators (sigma1, sigma2, sigma3) with sigma1*sigma2*sigma3,
sigma2*sigma3 and sigma1*sigma2 all involutions.  This module machine
checks the claimed reduction of that condition and runs two searches:
the restricted one over pairs from the closed-form fixed set, and a
direct construction showing the restriction misses generating triples.
Both build their triples from (sigma1^-1, sigma3^-1) with product
iota, all at once as (n, 3, 16) entries, and check the whole batch
(_checked_triples) through the batch kernels, which marks the rows
that meet the involution conditions; each search decides which rows
must.  The restricted search takes the whole square of the closed form
in one batch: the pairs with iota must fail, and the torus pairs must
meet.  It builds the subgroups of the torus triples in one
groups.subgroups call, which returns equal subgroups as one object,
and takes the derived series once per object.  The witness walk only
asks whether a triple generates the group, a chunk of triples per
groups.subgroups call: the base pass on (e_2, e_3) stops both orbits
at the sizes they have in the group, and once both are full the triple
generates by Lagrange's theorem, with no element enumerated and no
classification of maximal subgroups.  A generating triple multiplies
out only a few Schreier elements.
"""
from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from . import fixed_set as fs
from . import groups as gr
from . import kernels as kn
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

    def to_json_dict(self) -> dict:
        return {f"sigma{i}": la.mat_to_hex(m)
                for i, m in enumerate(self.mats(), 1)}


def _partial_products(ctx: SuzukiContext, sigmas: np.ndarray):
    """(s1 s2 s3, s2 s3, s1 s2) for every row of an (n, 3, 16) batch."""
    s1, s2, s3 = sigmas[:, 0], sigmas[:, 1], sigmas[:, 2]
    s12 = kn.mat_mul_pairs(ctx, s1, s2)
    return (kn.mat_mul_pairs(ctx, s12, s3), kn.mat_mul_pairs(ctx, s2, s3),
            s12)


def _involution_masks(ctx: SuzukiContext, prods) -> np.ndarray:
    """(n, 3) bool: which of the _partial_products are involutions."""
    return kn.involution_mask(ctx, np.concatenate(prods)).reshape(3, -1).T


def _inverses_fixed_mask(ctx: SuzukiContext,
                         sigmas: np.ndarray) -> np.ndarray:
    """Per row of an (n, 3, 16) batch: sigma1^-1 and sigma3^-1 both
    satisfy x iota x = iota.  The conclusion of the fixed-set membership
    lemma, a theorem once the product is iota and both partial products
    are involutions; its caller (_checked_triples) checks those."""
    n = len(sigmas)
    x = kn.invert_symplectic(
        ctx, np.concatenate([sigmas[:, 0], sigmas[:, 2]]))
    fixed = kn.fixed_point_mask(ctx, x)
    return fixed[:n] & fixed[n:]


def torus_inversion_check(ctx: SuzukiContext) -> bool:
    """iota-conjugation sends every torus element to its inverse:
    d (iota d iota) = I, that is d iota d = iota (iota^2 = I), the
    fixed-point test."""
    return bool(kn.fixed_point_mask(ctx, fs.torus_elements(ctx)).all())


def torus_commutation_check(ctx: SuzukiContext) -> bool:
    """All torus pairs commute."""
    tor = fs.torus_elements(ctx)
    a, b = np.repeat(tor, len(tor), axis=0), np.tile(tor, (len(tor), 1))
    return np.array_equal(kn.mat_mul_pairs(ctx, a, b),
                          kn.mat_mul_pairs(ctx, b, a))


@dataclass(frozen=True)
class PairDetail:
    a: Mat4
    b: Mat4
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
        return asdict(self)


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


def _triple_from_inverse_pair(ctx: SuzukiContext, s1_inv: np.ndarray,
                              s3_inv: np.ndarray) -> np.ndarray:
    """The triples with sigma1^-1, sigma3^-1 as given and product iota,
    as (n, 3, 16) entries; a batch of one row broadcasts.

    sigma2 = sigma1^-1 iota sigma3^-1, and sigma1, sigma3 come from
    kernels.invert_symplectic, which checks every inverse.
    """
    s2 = kn.mat_mul_pairs(ctx, kn.times_iota(s1_inv), s3_inv)
    s1 = kn.invert_symplectic(ctx, s1_inv)
    s3 = kn.invert_symplectic(ctx, s3_inv)
    return np.stack(np.broadcast_arrays(s1, s2, s3), axis=1)


def _checked_triples(ctx: SuzukiContext, s1_inv: np.ndarray,
                     s3_inv: np.ndarray) -> Tuple[np.ndarray, ...]:
    """The triples of the pairs, which of them meet the involution
    conditions, and their membership lemma verdicts.

    Every triple is built with product iota, so a row whose product is
    not raises VerificationError.  ``meets`` marks the rows whose three
    partial products are involutions; those rows hold the lemma's
    preconditions, so their verdict is _inverses_fixed_mask, and every
    other row's is False.  The callers decide which rows must meet.
    """
    sigmas = _triple_from_inverse_pair(ctx, s1_inv, s3_inv)
    prods = _partial_products(ctx, sigmas)
    if not kn.identity_mask(kn.times_iota(prods[0])).all():
        raise VerificationError("constructed triple product is not iota")
    meets = _involution_masks(ctx, prods).all(axis=1)
    lemma = np.zeros(len(sigmas), dtype=bool)
    lemma[meets] = _inverses_fixed_mask(ctx, sigmas[meets])
    return sigmas, meets, lemma


def find_rank4_witnesses(ctx: SuzukiContext, group: gr.GroupSet,
                         count: int = 3) -> List[Witness]:
    """Generating triples meeting every involution condition.

    For any involutions w1, w3 the triple (iota*w1, w1*w3*iota, iota*w3)
    has product iota and both partial products involutions, so only
    generation needs searching.  Its inverses sigma1^-1 = w1*iota and
    sigma3^-1 = w3*iota are members of the fixed-set scan
    (GroupSet.fixed_points): x iota x = iota iff (x iota)^2 = I.
    Taking w1 or w3 equal to iota collapses a sigma to the identity and
    the subgroup to a dihedral one, so iota is skipped.

    Deterministic: w1 is the canonically first involution
    (groups.involutions) other than iota, then w3 walks the remaining
    ones in canonical order; the first ``count`` pairs whose triple
    generates the whole group (groups.subgroups returns the group
    itself) are kept.  Every triple of the walk is built and checked up
    front, the membership lemma included; only the generation tests
    stop at ``count``.  They go in chunks of ``count`` less the triples
    kept so far, so they test just the triples a one-by-one walk would.
    """
    rev = kn.times_iota(gr.involutions(group))
    rev = rev[~kn.identity_mask(rev)]  # w iota = I exactly when w = iota
    s1_inv, s3_inv = rev[:1], rev[1:]
    sigmas, _, lemma = _checked_triples(ctx, s1_inv, s3_inv)
    if not lemma.all():  # False on every row that fails a condition
        raise VerificationError("a walk triple failed an involution"
                                " condition or the membership lemma")
    rows: List[int] = []
    at = 0
    while len(rows) < count and at < len(sigmas):
        chunk = sigmas[at:at + count - len(rows)]
        subs = gr.subgroups(ctx, chunk, group)
        rows += [at + j for j, sub in enumerate(subs) if sub is group]
        at += len(chunk)
    orders = kn.element_orders(ctx, sigmas[rows].reshape(-1, 16))
    # (sigma1^-1, sigma3^-1) of each witness, row by row
    inv = np.stack(np.broadcast_arrays(s1_inv[:1], s3_inv[rows]),
                   axis=1).reshape(-1, 16)
    scan = kn.fixed_point_mask(ctx, inv) & group.member_mask(inv)
    closed = (inv[:, None] == fs.closed_form_X(ctx)).all(axis=2).any(axis=1)
    out: List[Witness] = []
    for i, sigma_orders, in_scan, in_closed in zip(
            rows, orders.reshape(-1, 3), scan.reshape(-1, 2).tolist(),
            closed.reshape(-1, 2).tolist()):
        wit = Witness(
            triple=ChiralTriple(*map(kn.entries_to_mat, sigmas[i])),
            subgroup_order=group.order,
            sigma_orders=tuple(int(k) for k in sigma_orders),
            sigma1_inv_in_scan=in_scan[0],
            sigma1_inv_in_closed_form=in_closed[0],
            sigma3_inv_in_scan=in_scan[1],
            sigma3_inv_in_closed_form=in_closed[1],
        )
        if wit.sigma1_inv_in_closed_form and wit.sigma3_inv_in_closed_form:
            raise VerificationError(
                "generating triple with both inverses in the closed form")
        out.append(wit)
    return out


def search_rank4(ctx: SuzukiContext, group: gr.GroupSet,
                 witness_count: Optional[int] = None) -> TripleReport:
    """The restricted search plus its completeness audit.

    Builds and checks the triples of every ordered pair of the closed
    form X as (sigma1^-1, sigma3^-1) in one _checked_triples batch.  The
    2q - 1 pairs that contain iota must fail an involution condition and
    every torus pair must meet them all; anything else raises
    VerificationError.  Each torus pair's triple has its membership
    lemma certified and the subgroup it generates recorded (one
    groups.subgroups call for all of them), with whether that is
    solvable, decided once per distinct subgroup.  The audit side
    records that the closed form does not exhaust the scanned fixed set
    and exhibits generating triples built from fixed set members outside
    it, so ``certifies_nonexistence`` stays False.
    """
    result = fs.fixed_set_result(ctx, group)
    closed = result.closed_form
    n = len(closed)
    # x iota = I exactly when x = iota
    is_iota = kn.identity_mask(kn.times_iota(closed))
    torus_pair = ~(is_iota[:, None] | is_iota[None, :]).reshape(-1)
    s1_inv = np.repeat(closed, n, axis=0)
    s3_inv = np.tile(closed, (n, 1))
    sigmas, meets, lemma = _checked_triples(ctx, s1_inv, s3_inv)
    if not np.array_equal(meets, torus_pair):
        raise VerificationError("a pair containing iota met every involution"
                                " condition, or a torus pair failed one")
    s1_inv, s3_inv, sigmas = s1_inv[meets], s3_inv[meets], sigmas[meets]
    orders = kn.element_orders(ctx, sigmas.reshape(-1, 16)).reshape(-1, 3)
    details: List[PairDetail] = []
    successes: List[ChiralTriple] = []
    subs = gr.subgroups(ctx, sigmas, group)
    solvable: Dict[gr.GroupSet, bool] = {}
    for i, sub in enumerate(subs):
        if sub not in solvable:
            solvable[sub] = gr.derived_series_solvable(ctx, sub)
        details.append(PairDetail(
            a=kn.entries_to_mat(s1_inv[i]), b=kn.entries_to_mat(s3_inv[i]),
            subgroup_order=sub.order, solvable=solvable[sub],
            sigma_orders=tuple(int(k) for k in orders[i])))
        if sub is group:
            successes.append(ChiralTriple(*map(kn.entries_to_mat, sigmas[i])))

    if witness_count is None:
        witness_count = 3 if ctx.q == 8 else 1
    witnesses = find_rank4_witnesses(ctx, group, count=witness_count)
    reduction = ReductionStatus(
        closed_form_size=len(result.closed_form),
        scan_size=len(result.brute_force),
        fixed_set_equal=result.equal,
        iota_pairs_rejected=int((~meets).sum()),
        membership_lemma_held=bool(lemma[meets].all()))
    return TripleReport(
        q=ctx.q, group_order=group.order,
        candidates=len(details), successes=tuple(successes),
        details=tuple(details), reduction=reduction,
        witnesses=tuple(witnesses))
