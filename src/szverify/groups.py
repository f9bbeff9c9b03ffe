"""Exhaustive group machinery over 4x4 matrices.

Breadth-first closure with canonical dedup, subgroups decided by index,
exact subgroup orders from the base (e_2, e_3), and the generation test
that stops both base orbits at the group's own (checked_base_orbits),
the Sz(q) construction, the cached fixed-point scan and the involutions
read off it, conjugation orbits, element orders, derived series.
"""
from __future__ import annotations

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

    @cached_property
    def base_orbits(self) -> Tuple[int, int]:
        """checked_base_orbits of the generators: one exact check per
        group, whose orbit sizes then bound generates' base orders.  The
        generators must generate the entries, as closure makes them."""
        return checked_base_orbits(self.ctx, self.generators, self.order)

    @property
    def order(self) -> int:
        return int(self.entries.shape[0])

    def __len__(self) -> int:
        return self.order

    def member_mask(self, mats) -> np.ndarray:
        """Which of the matrices (rows of 16 entries) are elements.

        A row with an entry outside GF(q) is no element, at either key
        layout; it is looked up as the zero matrix, which no group has.
        """
        ents = np.asarray(mats).reshape(-1, 16)
        field = ((ents >= 0) & (ents < self.ctx.q)).all(axis=1)
        if not field.all():
            ents = np.where(field[:, None], ents, 0)
        keys = kn.entry_keys(self.ctx, ents)
        pos = np.minimum(np.searchsorted(self.keys, keys), len(self.keys) - 1)
        return field & (self.keys[pos] == keys)

    def __contains__(self, mat: Mat4) -> bool:
        return bool(self.member_mask([mat])[0])

    def __iter__(self) -> Iterator[Mat4]:
        for row in self.entries:
            yield kn.entries_to_mat(row)

    def element(self, i: int) -> Mat4:
        return kn.entries_to_mat(self.entries[i])


def _dedup_generators(ctx: SuzukiContext, generators: Sequence[Mat4]) -> List[Mat4]:
    """The generators in first-seen order without repeats, each checked
    to lie in Sp4(q) by one kernels.invert_symplectic call."""
    gens = [tuple(int(v) for v in g) for g in generators]
    kn.invert_symplectic(ctx, np.array(gens))
    return list(dict.fromkeys(gens))


def _sorted_unique(keys: np.ndarray) -> np.ndarray:
    """The keys sorted and without repeats: np.unique without its
    overhead, the first key of each run."""
    keys = np.sort(keys)
    first = np.ones(len(keys), dtype=bool)
    first[1:] = keys[1:] != keys[:-1]
    return keys[first]


def _fresh_keys(seen: np.ndarray,
                cand: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The keys of ``cand`` not in the sorted ``seen``, sorted and without
    repeats, and the positions in ``seen`` where they go."""
    cand = _sorted_unique(cand)
    pos = np.searchsorted(seen, cand)
    fresh = seen[np.minimum(pos, len(seen) - 1)] != cand
    return cand[fresh], pos[fresh]


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
    tables = kn.row_action_table(ctx, gens)

    seen = kn.entry_keys(ctx, kn.mats_to_entries([la.identity()]))
    frontier = seen
    while gens:
        frontier, pos = _fresh_keys(seen, kn.entry_keys(
            ctx, kn.row_action(tables, kn.key_entries(frontier))))
        if len(seen) + len(frontier) > ceiling:
            raise BudgetExceededError(len(seen) + len(frontier), ceiling)
        if not len(frontier):
            break
        # a merge, not a re-sort: both sides are sorted and disjoint
        seen = np.insert(seen, pos, frontier)

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
    if not group.member_mask(list(generators)).all():
        raise VerificationError("generator outside the group")
    try:
        return closure(ctx, generators, max(1, group.order // 2))
    except BudgetExceededError:
        return group


# The base, as 0-based indices: v1 = e_2 and v2 = e_3, row vectors.
# Sz(q) moves e_2 onto (q^2+1)(q-1) vectors, and the stabiliser of e_2,
# of order q^2, moves e_3 regularly, so the stabiliser of the pair in
# Sz(q) is trivial; checked_base_orbits checks it for every group that
# generates decides in.  v1 g is row _V1 of g.
_V1, _V2 = 1, 2
_UNIT = np.eye(4, dtype=np.uint8)

# Off-tree edges in base_order's first batch of Schreier elements, spread
# evenly over the edges in orbit order.  With 16, none of the 1,318
# generating walk groups at q = 8 needed the second batch; with 8, 21
# did.
_FIRST_EDGES = 16


def _radix(ctx: SuzukiContext) -> np.ndarray:
    """v @ _radix(ctx) numbers the q^4 row vectors v from 0."""
    return ctx.q ** np.arange(3, -1, -1)


def _visit(where: np.ndarray, idx: np.ndarray, count: int) -> np.ndarray:
    """Positions in ``idx`` of one image of each point that ``where``
    has not numbered yet (-1); the points get the numbers from ``count``
    on, in the order of those positions.

    No sort: each new point is scattered the positions of its images
    and keeps one of them, the one the scatter left.  Any image serves,
    since base_order's orders do not depend on which transversal a
    point has.
    """
    fresh = np.flatnonzero(where[idx] < 0)
    cand = idx[fresh]
    where[cand] = fresh
    first = fresh[where[cand] == fresh]
    where[idx[first]] = np.arange(count, count + len(first))
    return first


def _orbit_size(ctx: SuzukiContext, tables: np.ndarray, seed: np.ndarray,
                size: Optional[int] = None) -> int:
    """The size of the orbit of the row vector ``seed`` under the
    matrices whose row_action_tables are stacked in ``tables``, (k, 4, q).

    Breadth-first, numbering the points in a dense array over all q^4
    vectors (_visit); it stops once the orbit holds ``size`` points, if
    given.
    """
    radix = _radix(ctx)
    where = np.full(ctx.q ** 4, -1, dtype=np.int32)
    frontier = seed.reshape(1, 4)
    where[frontier @ radix] = 0
    count = 1
    while len(frontier) and (size is None or count < size):
        images = kn.row_action(tables, frontier)
        first = _visit(where, images @ radix, count)
        count += len(first)
        frontier = images[first]
    return count


def _schreier_tables(ctx: SuzukiContext, edges: np.ndarray,
                     inverses: np.ndarray) -> np.ndarray:
    """The row tables of the distinct Schreier elements t_u s t_us^-1,
    for the edge products t_u s in ``edges`` and the inverses t_us^-1
    of their points' transversals.  Each must fix v1, or
    VerificationError is raised."""
    schreier = kn.mat_mul_pairs(ctx, edges, inverses)
    if not (schreier.reshape(-1, 4, 4)[:, _V1] == _UNIT[_V1]).all():
        raise VerificationError("a Schreier element moves e_2")
    return kn.row_action_table(
        ctx, kn.key_entries(_sorted_unique(kn.entry_keys(ctx, schreier))))


def _base_orbits(ctx: SuzukiContext, generators: Sequence[Mat4],
                 bound: Optional[Tuple[int, int]] = None) -> Tuple[int, int]:
    """(|O1|, |O2|) for H = <generators>, each orbit stopped at its
    ``bound``; base_order says why the stops keep the product exact."""
    n1, n2 = bound or (None, None)
    gens = _dedup_generators(ctx, generators)
    tables = kn.row_action_table(ctx, gens)
    radix = _radix(ctx)

    # One breadth-first pass over the transversals.  Each level's images
    # t_u s, generator-major (kernels.row_action), are its edges, kept
    # with their points us, and each new point us takes one of its
    # images as its transversal t_us (_visit).
    where = np.full(ctx.q ** 4, -1, dtype=np.int32)
    where[_UNIT[_V1] @ radix] = 0
    trans = [kn.mats_to_entries([la.identity()])]
    edges, points = [trans[0][:0]], [np.empty(0, dtype=np.int64)]
    count = 1
    while len(tables) and (n1 is None or count < n1):
        images = kn.row_action(tables, trans[-1])
        idx = images.reshape(-1, 4, 4)[:, _V1] @ radix
        edges.append(images)
        points.append(idx)
        first = _visit(where, idx, count)
        if not len(first):
            break
        count += len(first)
        trans.append(images[first])
    last, trans = trans[-1], np.concatenate(trans)

    def off_tree() -> Tuple[np.ndarray, np.ndarray]:
        # the edge products t_u s that are not t_us, with the rows of
        # t_us in trans: on the other edges, the tree edges among them,
        # the Schreier element is trivial
        ts = np.concatenate(edges)
        rows = where[np.concatenate(points)]
        off = (ts.view(np.uint64) != trans[rows].view(np.uint64)).any(axis=1)
        return ts[off], rows[off]

    if n1 is not None and count == n1:
        # O1 is full, and the pass stopped before the last level's edges
        ts, rows = off_tree()
        m = min(_FIRST_EDGES, len(ts))
        pick = np.arange(m) * len(ts) // max(m, 1)
        inverses = kn.invert_symplectic(ctx, trans[rows[pick]])
        o2 = _orbit_size(ctx, _schreier_tables(ctx, ts[pick], inverses),
                         _UNIT[_V2], n2)
        if o2 == n2:
            return count, o2
        edges.append(kn.row_action(tables, last))
        points.append(edges[-1].reshape(-1, 4, 4)[:, _V1] @ radix)
    ts, rows = off_tree()
    inverses = kn.invert_symplectic(ctx, trans)[rows]
    return count, _orbit_size(ctx, _schreier_tables(ctx, ts, inverses),
                              _UNIT[_V2], n2)


def base_order(ctx: SuzukiContext, generators: Sequence[Mat4],
               bound: Optional[Tuple[int, int]] = None) -> int:
    """|O1| |O2| = |H : H_(v1,v2)| for H = <generators>.

    O1 is the orbit of v1 = e_2 under the right action of H, found by
    one breadth-first pass that keeps a transversal product t_u
    (v1 t_u = u) per orbit point and every edge product t_u s.  By
    Schreier's lemma the Schreier elements t_u s t_us^-1, for every
    orbit point u and generator s, generate the stabiliser H_v1; on a
    tree edge, where t_u s is t_us, they are trivial, so only the other
    edges are multiplied out.  Each must fix v1, or VerificationError is
    raised.  O2 is the orbit of v2 = e_3 under them, which is
    v2^(H_v1), so |H| = |O1| |H_v1| = |O1| |O2| |H_(v1,v2)|.

    ``bound``, the (|O1(G)|, |O2(G)|) of checked_base_orbits for a group
    G that holds H, stops each orbit at its size there.  The stops keep
    the result exact.  O1(H) lies in O1(G), so a full O1 is O1(G).  Any
    Schreier elements lie in H_v1, within G_v1, so the orbit O2' of v2
    under some of them lies in O2(G), and |H| >= |O1(H)| |O2'|.  Once
    both reach the bound, |H| >= |G|, so H = G.  Hence, with O1 full,
    O2 first runs under the Schreier elements of _FIRST_EDGES off-tree
    edges, and under all of them only if it is then short.  With no
    bound, or with O1 short, every edge is used.
    """
    o1, o2 = _base_orbits(ctx, generators, bound)
    return o1 * o2


def checked_base_orbits(ctx: SuzukiContext, generators: Sequence[Mat4],
                        order: int) -> Tuple[int, int]:
    """The exact (|O1|, |O2|) of the group of that ``order`` that the
    ``generators`` generate; raises VerificationError unless their
    product is the order, that is, unless the identity alone fixes
    (v1, v2), so that base_order is exact on every subgroup."""
    o1, o2 = _base_orbits(ctx, generators)
    if o1 * o2 != order:
        raise VerificationError(
            "a nontrivial element of the group fixes e_2 and e_3, "
            "so base orders do not decide its subgroups")
    return o1, o2


def generates(ctx: SuzukiContext, generators: Sequence[Mat4],
              group: GroupSet) -> bool:
    """Whether ``generators`` generate all of ``group``.

    Decided by Lagrange's theorem and Schreier's lemma, with no closure
    and no classification of maximal subgroups.  For H = <generators>,
    |H| = base_order |H_(v1,v2)|, and H_(v1,v2) lies in the stabiliser
    of the pair in ``group``, which is trivial (GroupSet.base_orbits
    raises VerificationError otherwise).  So base_order, bounded by the
    group's base orbits, is |H|, and H is the group iff that is
    |group|.  Raises VerificationError if a generator is not an element
    of ``group``.
    """
    if not group.member_mask(list(generators)).all():
        raise VerificationError("generator outside the group")
    return base_order(ctx, generators, group.base_orbits) == group.order


def _suzuki_seeds(ctx: SuzukiContext) -> Tuple[np.ndarray, List[Mat4]]:
    """The Sylow filter and the seeds that build_suzuki closes.

    Filters the q^4 flag-unitriangular symplectic candidates down to the
    q^2-element Sylow 2-subgroup, returned as entries, and picks its
    first two nontrivial elements (in canonical order) and iota.
    """
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
    return sylow_ents, nontrivial[:2] + [iota]


def build_suzuki(ctx: SuzukiContext,
                 ceiling: Optional[int] = None) -> GroupSet:
    """Enumerate all of Sz(q) for q in {8, 32}.

    Closes the seeds of _suzuki_seeds: the first two nontrivial
    elements of the Sylow 2-subgroup together with iota.  At both
    supported q these three generate the whole group; the final order
    is checked against q^2(q^2+1)(q-1).
    """
    if ctx.q not in (8, 32):
        raise SzVerifyError(
            f"full enumeration refused at q={ctx.q}: order {ctx.group_order}")
    expected = ctx.group_order
    if ceiling is None:
        ceiling = expected

    sylow_ents, seeds = _suzuki_seeds(ctx)
    group = closure(ctx, seeds, ceiling)
    if group.order != expected:
        raise VerificationError(
            f"seeds closed to order {group.order}, expected {expected}")

    if not group.member_mask(sylow_ents).all():
        raise VerificationError("Sylow element missing from the closure")
    return group


def conjugation_orbit(ctx: SuzukiContext, seed: Mat4,
                      group: GroupSet) -> Set[Mat4]:
    """Orbit of ``seed`` under conjugation by the group generators.

    Breadth-first, one batch of products per level: every g^-1 y g for
    y in the frontier and g a generator, merged into sorted keys as in
    closure.
    """
    if seed not in group:
        raise ValueError("seed is not an element of the group")
    gens = kn.mats_to_entries(group.generators)
    inv_gens = kn.invert_symplectic(ctx, gens)
    frontier = kn.mats_to_entries([seed])
    seen = kn.entry_keys(ctx, frontier)
    while len(frontier):
        n = len(frontier)
        yg = kn.mat_mul_pairs(ctx, np.repeat(frontier, len(gens), axis=0),
                              np.tile(gens, (n, 1)))
        conj = kn.mat_mul_pairs(ctx, np.tile(inv_gens, (n, 1)), yg)
        fresh, pos = _fresh_keys(seen, kn.entry_keys(ctx, conj))
        seen = np.insert(seen, pos, fresh)
        frontier = kn.key_entries(fresh)
    return set(map(kn.entries_to_mat, kn.key_entries(seen)))


def element_order(ctx: SuzukiContext, g: Mat4, cap: int = 1 << 20) -> int:
    """Least k >= 1 with g^k = I, by scalar products.

    szverify takes its orders from kernels.element_orders; this loop is
    the tests' independent oracle for it.
    """
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


def derived_subgroup(ctx: SuzukiContext, group: GroupSet) -> GroupSet:
    """Normal closure of the commutators of the group's generators.

    Subgroup closure of generator commutators need not be normal, so
    conjugates g^-1 d g of its generators d are folded in until it
    stabilises; the fixed point is the derived subgroup.  Commutators
    (ba)^-1 ab come a-major and conjugates g-major, each list from one
    batch of paired products, and the conjugates are looked up in the
    subgroup in one batch.
    """
    gens = kn.mats_to_entries(group.generators)
    k = len(gens)
    a, b = np.repeat(gens, k, axis=0), np.tile(gens, (k, 1))
    ba_inv = kn.invert_symplectic(ctx, kn.mat_mul_pairs(ctx, b, a))
    comms = kn.mat_mul_pairs(ctx, ba_inv, kn.mat_mul_pairs(ctx, a, b))
    comms = comms[~kn.identity_mask(comms)]
    if not len(comms):
        return closure(ctx, [], 1)
    sub = closure(ctx, list(map(kn.entries_to_mat, comms)), group.order)
    inv_gens = kn.invert_symplectic(ctx, gens)
    while True:
        ds = kn.mats_to_entries(sub.generators)
        m = len(ds)
        conj = kn.mat_mul_pairs(ctx, np.repeat(inv_gens, m, axis=0),
                                kn.mat_mul_pairs(ctx, np.tile(ds, (k, 1)),
                                                 np.repeat(gens, m, axis=0)))
        extra = conj[~sub.member_mask(conj)]
        if not len(extra):
            return sub
        sub = closure(ctx, list(sub.generators)
                      + list(map(kn.entries_to_mat, extra)), group.order)


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

