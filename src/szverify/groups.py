"""Exhaustive group machinery over 4x4 matrices.

Breadth-first closure with canonical dedup, subgroups decided by index,
the Sz(q) construction, the cached fixed-point scan and the involutions
read off it, conjugation orbits, element orders, derived series.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, List, Optional, Sequence, Set, Tuple

import numpy as np

from . import kernels as kn
from . import linalg4 as la
from .context import SuzukiContext
from .errors import (BudgetExceededError, DepthLimitError, SzVerifyError,
                     VerificationError)
from .linalg4 import Mat4
from .wilson import is_suzuki


@dataclass(frozen=True, eq=False)
class GroupSet:
    """An enumerated matrix group.

    ``entries`` holds all elements as (n, 16) uint8 in strictly
    increasing canonical (row-major lexicographic) order, which
    ``__post_init__`` checks, so its cached ``keys`` are sorted and
    O(log n) membership is a binary search.  It is read-only:
    ``__post_init__`` clears its writeable flag, which keeps the cached
    ``keys`` and ``fixed_points`` true to it.
    """

    ctx: SuzukiContext
    entries: np.ndarray
    generators: Tuple[Mat4, ...]

    def __post_init__(self):
        # each row must be below the next at their first differing entry;
        # equal rows differ nowhere, so duplicates fail too
        a, b = self.entries[:-1], self.entries[1:]
        first = (a != b).argmax(axis=1)
        rows = np.arange(len(first))
        if not (a[rows, first] < b[rows, first]).all():
            raise VerificationError(
                "group entries are not strictly increasing "
                "(out of canonical order, or a duplicate element)")
        self.entries.flags.writeable = False
        if la.identity() not in self:
            raise VerificationError("group does not contain the identity")

    @cached_property
    def keys(self) -> np.ndarray:
        """kernels.entry_keys of the entries, read-only and sorted."""
        keys = kn.entry_keys(self.ctx, self.entries)
        keys.flags.writeable = False
        return keys

    @cached_property
    def fixed_points(self) -> np.ndarray:
        """The rows x with x iota x = iota, read-only, canonically
        sorted: one kernels.fixed_point_mask pass per group, read by the
        fixed-set scan, the involutions and the rank-4 walk."""
        rows = self.entries[kn.fixed_point_mask(self.ctx, self.entries)]
        rows.flags.writeable = False
        return rows

    @property
    def order(self) -> int:
        return int(self.entries.shape[0])

    def __len__(self) -> int:
        return self.order

    def __contains__(self, mat: Mat4) -> bool:
        key = kn.entry_keys(self.ctx, kn.mats_to_entries([mat]))[0]
        pos = int(np.searchsorted(self.keys, key))
        return pos < len(self.keys) and self.keys[pos] == key

    def __iter__(self) -> Iterator[Mat4]:
        for row in self.entries:
            yield kn.entries_to_mat(row)

    def element(self, i: int) -> Mat4:
        return kn.entries_to_mat(self.entries[i])

    def sample(self, k: int, seed: int = 0) -> List[Mat4]:
        rng = np.random.default_rng(seed)
        idx = rng.choice(self.order, size=min(k, self.order), replace=False)
        return [self.element(int(i)) for i in sorted(idx)]

    def divides(self, ambient_order: int) -> bool:
        return ambient_order % self.order == 0


def _dedup_generators(ctx: SuzukiContext, generators: Sequence[Mat4]) -> List[Mat4]:
    out: List[Mat4] = []
    for g in generators:
        g = tuple(int(v) for v in g)
        la.invert(ctx.field, g)
        if g not in out:
            out.append(g)
    return out


def closure(ctx: SuzukiContext, generators: Sequence[Mat4],
            ceiling: int) -> GroupSet:
    """Breadth-first product closure of the generators.

    The elements seen so far are kept as sorted keys
    (kernels.entry_keys), whose order is the canonical order, so the
    entries come out sorted.  Each level multiplies the frontier on the
    right by every generator through its row tables
    (kernels.row_action_table).  Deterministic: the result depends only
    on the generator set.  Raises BudgetExceededError as soon as the
    element count would pass ``ceiling``.
    """
    if ceiling < 1:
        raise ValueError("ceiling must be >= 1")
    gens = _dedup_generators(ctx, generators)
    tables = np.array([kn.row_action_table(ctx, g) for g in gens],
                      dtype=np.uint32).reshape(len(gens), 4, ctx.q)

    seen = kn.entry_keys(ctx, kn.mats_to_entries([la.identity()]))
    frontier = seen
    while gens:
        cand = np.sort(kn.entry_keys(
            ctx, kn.row_action(tables, kn.key_entries(frontier))))
        # np.unique without its overhead: the first key of each run
        cand = cand[np.concatenate(([True], cand[1:] != cand[:-1]))]
        pos = np.searchsorted(seen, cand)
        fresh = seen[np.minimum(pos, len(seen) - 1)] != cand
        frontier = cand[fresh]
        if len(seen) + len(frontier) > ceiling:
            raise BudgetExceededError(len(seen) + len(frontier), ceiling)
        if not len(frontier):
            break
        # a merge, not a re-sort: both sides are sorted and disjoint
        seen = np.insert(seen, pos[fresh], frontier)

    return GroupSet(ctx=ctx, entries=kn.key_entries(seen),
                    generators=tuple(gens) or (la.identity(),))


def subgroup(ctx: SuzukiContext, generators: Sequence[Mat4],
             group: GroupSet) -> GroupSet:
    """The subgroup of ``group`` generated by ``generators``.

    Closes with ceiling |group| / 2.  Past it the subgroup has index
    less than 2 (Lagrange), so it is ``group`` itself, which is then
    returned instead of finishing the closure.  Raises
    VerificationError if a generator is not an element of ``group``.
    """
    for g in generators:
        if g not in group:
            raise VerificationError("generator outside the group")
    try:
        return closure(ctx, generators, max(1, group.order // 2))
    except BudgetExceededError:
        return group


def build_suzuki(ctx: SuzukiContext,
                 ceiling: Optional[int] = None) -> GroupSet:
    """Enumerate all of Sz(q) for q in {8, 32}.

    Filters the q^4 flag-unitriangular symplectic candidates down to the
    q^2-element Sylow 2-subgroup, then closes the first two nontrivial
    Sylow elements (in canonical order) together with iota.  At both
    supported q these three generate the whole group; the final order
    is checked against q^2(q^2+1)(q-1).
    """
    if ctx.q not in (8, 32):
        raise SzVerifyError(
            f"full enumeration refused at q={ctx.q}: order {ctx.group_order}")
    expected = ctx.group_order
    if ceiling is None:
        ceiling = expected

    cand = kn.sylow_candidates(ctx)
    keep = kn.suzuki_mask(ctx, cand)
    sylow_ents = cand[keep]
    if sylow_ents.shape[0] != ctx.sylow_order:
        raise VerificationError(
            f"Sylow filter yielded {sylow_ents.shape[0]} elements, "
            f"expected q^2 = {ctx.sylow_order}: field or product-table bug")
    order_idx = np.argsort(kn.entry_keys(ctx, sylow_ents))
    sylow = [kn.entries_to_mat(sylow_ents[i]) for i in order_idx]

    iota = tuple(ctx.iota)
    if not is_suzuki(ctx, iota):
        raise VerificationError("iota failed the membership test")

    nontrivial = [s for s in sylow if s != la.identity()]
    group = closure(ctx, nontrivial[:2] + [iota], ceiling)
    if group.order != expected:
        raise VerificationError(
            f"seeds closed to order {group.order}, expected {expected}")

    for s in sylow:
        if s not in group:
            raise VerificationError("Sylow element missing from the closure")
    return group


def conjugation_orbit(ctx: SuzukiContext, seed: Mat4,
                      group: GroupSet) -> Set[Mat4]:
    """Orbit of ``seed`` under conjugation by the group generators."""
    if seed not in group:
        raise ValueError("seed is not an element of the group")
    f = ctx.field
    inv_gens = [(g, la.invert(f, g)) for g in group.generators]
    orbit = {seed}
    frontier = [seed]
    while frontier:
        nxt: List[Mat4] = []
        for y in frontier:
            for g, g_inv in inv_gens:
                y2 = la.mat_mul(f, g_inv, la.mat_mul(f, y, g))
                if y2 not in orbit:
                    orbit.add(y2)
                    nxt.append(y2)
        frontier = nxt
    return orbit


def element_order(ctx: SuzukiContext, g: Mat4, cap: int = 1 << 20) -> int:
    """Least k >= 1 with g^k = I."""
    f = ctx.field
    la.invert(f, g)
    ident = la.identity()
    p = g
    k = 1
    while p != ident:
        p = la.mat_mul(f, p, g)
        k += 1
        if k > cap:
            raise SzVerifyError(f"element order exceeds cap {cap}")
    return k


def _commutator(f, a: Mat4, b: Mat4) -> Mat4:
    ab = la.mat_mul(f, a, b)
    ba = la.mat_mul(f, b, a)
    return la.mat_mul(f, la.invert(f, ba), ab)


def derived_subgroup(ctx: SuzukiContext, group: GroupSet) -> GroupSet:
    """Normal closure of the commutators of the group's generators.

    Subgroup closure of generator commutators need not be normal, so
    conjugates of its generators are folded in until it stabilises;
    the fixed point is the derived subgroup.
    """
    f = ctx.field
    gens = group.generators
    comms = _dedup_generators(ctx, [
        c for c in (_commutator(f, a, b)
                    for a, b in itertools.product(gens, gens))
        if c != la.identity()])
    if not comms:
        return closure(ctx, [], 1)
    sub = closure(ctx, comms, group.order)
    while True:
        extra = []
        for g in gens:
            g_inv = la.invert(f, g)
            for d in sub.generators:
                c = la.mat_mul(f, g_inv, la.mat_mul(f, d, g))
                if c not in sub:
                    extra.append(c)
        if not extra:
            return sub
        sub = closure(ctx, list(sub.generators) + extra, group.order)


def derived_series(ctx: SuzukiContext, group: GroupSet,
                   depth_limit: int = 8) -> List[GroupSet]:
    """The derived series until trivial or stabilised.

    Raises DepthLimitError if neither happens within ``depth_limit``
    steps; a stabilised nontrivial (perfect) tail terminates normally.
    """
    series = [group]
    if group.order == 1:
        return series
    for _ in range(depth_limit):
        nxt = derived_subgroup(ctx, series[-1])
        series.append(nxt)
        if nxt.order == 1 or nxt.order == series[-2].order:
            return series
    raise DepthLimitError(
        f"derived series did not settle within {depth_limit} steps "
        f"(orders {[g.order for g in series]})")


def derived_series_solvable(ctx: SuzukiContext, group: GroupSet,
                            depth_limit: int = 8) -> bool:
    """True iff the derived series reaches the trivial group."""
    return derived_series(ctx, group, depth_limit)[-1].order == 1


def involutions(group: GroupSet) -> List[Mat4]:
    """All elements of order exactly 2, canonically sorted.

    Read off ``group.fixed_points`` with no whole-group pass: x iota x =
    iota iff (x iota)^2 = I, so w = x iota, which is x with its columns
    reversed, runs over the involutions and I; I comes from x = iota.
    That needs iota in the group, so a group without it is refused.
    """
    if tuple(group.ctx.iota) not in group:
        raise ValueError("involutions are read off the fixed points only "
                         "in a group that contains iota")
    ws = group.fixed_points.reshape(-1, 4, 4)[:, :, ::-1].reshape(-1, 16)
    ws = kn.key_entries(np.sort(kn.entry_keys(group.ctx, ws)))
    return [w for w in map(kn.entries_to_mat, ws) if w != la.identity()]

