"""Exhaustive group machinery over 4x4 matrices.

One way to build a group: the base pass on (e_2, e_3) (Sims 1970;
Seress, Permutation Group Algorithms, 2003, ch. 4).  One orbit routine
runs twice, for e_2 under the generators and for e_3 under the
Schreier elements, and keeps a transversal matrix per orbit point; the
elements are the products of the two transversals, proved to be the
whole group by a closedness check.  closure builds any group that way,
Sz(q) included, and subgroup (with generates on it) stops both orbits
at the sizes they have in the enclosing group.  Also here: the cached
fixed-point scan and the involutions read off it, conjugation orbits,
element orders, derived series.
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
    ``keys`` and ``fixed_points`` true to it.  ``base_orbits`` is
    (|O1|, |O2|), the sizes of the orbits of e_2 and e_3 that the group
    was built from (_transversals); their product must be the order.
    """

    ctx: SuzukiContext
    entries: np.ndarray
    generators: Tuple[Mat4, ...]
    base_orbits: Tuple[int, int]

    def __post_init__(self):
        # each row must be below the next at their first differing entry;
        # equal rows differ nowhere, so duplicates fail too.  In chunks,
        # which keeps the temporaries small for a whole Sz(32).
        n = len(self.entries)
        for lo in range(0, n - 1, _CHUNK):
            hi = min(lo + _CHUNK, n - 1)
            a, b = self.entries[lo:hi], self.entries[lo + 1:hi + 1]
            first = (a != b).argmax(axis=1)
            rows = np.arange(len(first))
            if not (a[rows, first] < b[rows, first]).all():
                raise VerificationError(
                    "group entries are not strictly increasing "
                    "(out of canonical order, or a duplicate element)")
        self.entries.flags.writeable = False
        if la.identity() not in self:
            raise VerificationError("group does not contain the identity")
        if self.base_orbits[0] * self.base_orbits[1] != self.order:
            raise VerificationError(
                f"base orbits {self.base_orbits} do not give the order "
                f"{self.order}")

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


# The base, as 0-based indices: v1 = e_2 and v2 = e_3, row vectors.
# Sz(q) moves e_2 onto (q^2+1)(q-1) vectors, and the stabiliser of e_2,
# of order q^2, moves e_3 regularly, so the stabiliser of the pair is
# trivial in Sz(q) and in each of its subgroups; _group refuses a group
# where it is not.  v t is row v of t for a unit row vector v.
_V1, _V2 = 1, 2
_UNIT = np.eye(4, dtype=np.uint8)

# Off-tree edges in _transversals' first batch of Schreier elements,
# spread evenly over the edges in orbit order.  With 16, none of the
# 1,318 generating walk groups at q = 8 needed the second batch; with 8,
# 21 did.
_FIRST_EDGES = 16

# Rows per step of _group's products and of GroupSet's order check, so
# that their temporaries stay under a MB even for a whole Sz(32).
_CHUNK = 1 << 12


def _radix(ctx: SuzukiContext) -> np.ndarray:
    """v @ _radix(ctx) numbers the q^4 row vectors v from 0."""
    return ctx.q ** np.arange(3, -1, -1)


def _visit(where: np.ndarray, idx: np.ndarray, count: int) -> np.ndarray:
    """Positions in ``idx`` of one image of each point that ``where``
    has not numbered yet (-1); the points get the numbers from ``count``
    on, in the order of those positions.

    No sort: each new point is scattered the positions of its images
    and keeps one of them, the one the scatter left.  Any image serves,
    since a point needs some transversal, not a particular one.
    """
    fresh = np.flatnonzero(where[idx] < 0)
    cand = idx[fresh]
    where[cand] = fresh
    first = fresh[where[cand] == fresh]
    where[idx[first]] = np.arange(count, count + len(first))
    return first


def _orbit(ctx: SuzukiContext, tables: np.ndarray, v: int,
           size: Optional[int] = None
           ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A transversal of the orbit of the unit row vector e_v under the
    matrices whose row_action_tables are stacked in ``tables``, (k, 4, q),
    and the products that found it.

    Returns (trans, edges, rows).  ``trans`` holds one product t of the
    matrices per orbit point as (n, 16) entries, the point being e_v t
    (row v of t); the seed's t is the identity.  ``edges`` holds every
    product t s that the search formed, and ``rows`` the row in
    ``trans`` of each one's point.

    Breadth-first: each level multiplies the last level's transversals
    by every matrix (kernels.row_action), and each point not numbered
    yet, in a dense array over all q^4 vectors, takes one of its images
    (_visit).  Stops once the orbit holds ``size`` points, if given,
    before that level is multiplied out; with no stop, every t s is in
    ``edges``.
    """
    radix = _radix(ctx)
    where = np.full(ctx.q ** 4, -1, dtype=np.int32)
    where[_UNIT[v] @ radix] = 0
    trans, edges, rows = [_UNIT.reshape(1, 16)], [], []
    count = 1
    while len(tables) and len(trans[-1]) and (size is None or count < size):
        images = kn.row_action(tables, trans[-1])
        idx = images.reshape(-1, 4, 4)[:, v] @ radix
        first = _visit(where, idx, count)
        count += len(first)
        trans.append(images[first])
        edges.append(images)
        rows.append(where[idx])
    return (np.concatenate(trans), np.concatenate(edges or [trans[0][:0]]),
            np.concatenate(rows or [np.empty(0, dtype=np.int32)]))


def _schreier_tables(ctx: SuzukiContext, trans: np.ndarray,
                     edges: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """The row tables of the distinct Schreier elements t_u s t_us^-1,
    for the edge products t_u s in ``edges`` and the rows in ``trans``
    of their points' transversals t_us.  Each must fix v1, or
    VerificationError is raised."""
    if not len(edges):
        return kn.row_action_table(ctx, edges)
    schreier = kn.mat_mul_pairs(
        ctx, edges, kn.invert_symplectic(ctx, trans[rows]))
    if not (schreier.reshape(-1, 4, 4)[:, _V1] == _UNIT[_V1]).all():
        raise VerificationError("a Schreier element moves e_2")
    return kn.row_action_table(
        ctx, kn.key_entries(_sorted_unique(kn.entry_keys(ctx, schreier))))


def _off_tree(trans: np.ndarray, edges: np.ndarray,
              rows: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The edge products t_u s of an _orbit search that are not t_us,
    with the rows of t_us in ``trans``: on the other edges, the tree
    edges among them, the Schreier element t_u s t_us^-1 is trivial.
    Each edge must end in the orbit, or VerificationError is raised."""
    if not (rows < len(trans)).all():
        raise VerificationError("an edge leaves the orbit")
    off = (edges.view(np.uint64) != trans[rows].view(np.uint64)).any(axis=1)
    return edges[off], rows[off]


def _transversals(ctx: SuzukiContext, tables: np.ndarray,
                  bound: Optional[Tuple[int, int]] = None
                  ) -> Tuple[np.ndarray, np.ndarray]:
    """Transversals (T, R) of the base orbits of H, the group of the
    generators whose row tables are ``tables``.

    T is _orbit's transversal of O1, the orbit of v1 = e_2 under H:
    v1 t_u = u.  By Schreier's lemma the Schreier elements t_u s t_us^-1,
    for every orbit point u and generator s, generate the stabiliser
    H_v1; on a tree edge, where t_u s is t_us, they are trivial, so only
    the other edges are multiplied out.  Each must fix v1, or
    VerificationError is raised.  R is _orbit's transversal of O2, the
    orbit of v2 = e_3 under them, which is v2^(H_v1); each r_w lies in
    H_v1.  So |H| = |O1| |O2| |H_(v1,v2)|.

    ``bound``, the base orbits of a group G that holds H, stops each
    orbit at its size there, and both transversals stay exact.  O1(H)
    lies in O1(G), so a full O1 is all of O1(H).  Any Schreier elements
    lie in H_v1, within G_v1, so the orbit of v2 under some of them lies
    in O2(H), within O2(G), and a full one is all of O2(H).  Hence, with
    O1 full, O2 first runs under the Schreier elements of _FIRST_EDGES
    off-tree edges of the levels before the stop.  When it comes back
    full too, |H| >= |O1| |O2| = |G|, so H = G.  Otherwise O1 runs again
    to its end, and O2 under the Schreier elements of every edge.
    """
    n1, n2 = bound or (None, None)
    t1, ts, rows = _orbit(ctx, tables, _V1, n1)
    if len(t1) == n1:
        ts, rows = _off_tree(t1, ts, rows)
        m = min(_FIRST_EDGES, len(ts))
        pick = np.arange(m) * len(ts) // max(m, 1)
        t2 = _orbit(ctx, _schreier_tables(ctx, t1, ts[pick], rows[pick]),
                    _V2, n2)[0]
        if len(t2) == n2:
            return t1, t2
        t1, ts, rows = _orbit(ctx, tables, _V1)
    ts, rows = _off_tree(t1, ts, rows)
    return t1, _orbit(ctx, _schreier_tables(ctx, t1, ts, rows), _V2, n2)[0]


def _group(ctx: SuzukiContext, gens: List[Mat4], tables: np.ndarray,
           t1: np.ndarray, t2: np.ndarray) -> GroupSet:
    """H = <gens>, whose row tables are ``tables``, as the products r t,
    r in t2 and t in t1, of the transversals of _transversals.

    They are distinct: v1 r t = v1 t tells t apart, and then v2 r t
    tells r apart.  They come out of one kernels.row_action per chunk of
    t1 and are sorted in place through their keys.  They lie in H, and
    the proof that they are all of it is that their set S holds I
    (GroupSet checks) and S s = S for every generator s, compared as
    sorted keys: then S holds every word in the generators, so S = H
    and |H| = |O1| |O2|, which makes H_(v1,v2) trivial.  Raises
    VerificationError otherwise, as for a nontrivial H_(v1,v2) or a
    transversal short of its orbit: S is then a proper subset of H, and
    not closed.
    """
    n1, n2 = len(t1), len(t2)
    out = np.empty((n1 * n2, 16), dtype=np.uint8)
    step = max(1, _CHUNK // n2)
    for lo in range(0, n1, step):
        out[lo * n2:(lo + step) * n2] = kn.row_action(
            kn.row_action_table(ctx, t1[lo:lo + step]), t2)
    keys = kn.entry_keys(ctx, out)
    keys.sort()
    group = GroupSet(ctx=ctx, entries=kn.key_entries(keys),
                     generators=tuple(gens) or (la.identity(),),
                     base_orbits=(n1, n2))
    # as many generators at a time as fit in a chunk, and at least one:
    # the sorted keys of S s, for k generators s, are each key of S k
    # times
    per = max(1, _CHUNK // group.order)
    buf = np.empty((min(per, len(tables)) * group.order, 16), dtype=np.uint8)
    for lo in range(0, len(tables), per):
        tabs = tables[lo:lo + per]
        moved = buf[:len(tabs) * group.order]
        for at in range(0, group.order, _CHUNK):
            rows = kn.row_action(tabs, group.entries[at:at + _CHUNK])
            moved[at * len(tabs):at * len(tabs) + len(rows)] = rows
        keys = kn.entry_keys(ctx, moved)
        keys.sort()
        if not (keys.reshape(-1, len(tabs)) == group.keys[:, None]).all():
            raise VerificationError(
                "the products of the base transversals are not closed "
                "under the generators: a nontrivial element fixes e_2 "
                "and e_3, or an orbit is short")
    return group


def closure(ctx: SuzukiContext, generators: Sequence[Mat4],
            ceiling: int) -> GroupSet:
    """The group generated by the generators, every element enumerated.

    One unbounded base pass (_transversals), then the products of its
    transversals, proved to be the whole group (_group).  Raises
    BudgetExceededError, before any element is made, if the order
    |O1| |O2| would pass ``ceiling``.  Deterministic: the entries are
    the canonically sorted elements, and the generators those given,
    without repeats.
    """
    if ceiling < 1:
        raise ValueError("ceiling must be >= 1")
    gens = _dedup_generators(ctx, generators)
    tables = kn.row_action_table(ctx, gens)
    t1, t2 = _transversals(ctx, tables)
    if len(t1) * len(t2) > ceiling:
        raise BudgetExceededError(len(t1) * len(t2), ceiling)
    return _group(ctx, gens, tables, t1, t2)


def subgroup(ctx: SuzukiContext, generators: Sequence[Mat4],
             group: GroupSet) -> GroupSet:
    """The subgroup of ``group`` generated by ``generators``.

    One base pass bounded by ``group.base_orbits`` (_transversals).
    When both orbits fill, the subgroup is ``group`` itself (Lagrange),
    which is returned; otherwise its elements are multiplied out from
    the exact transversals the pass holds, and proved closed (_group).
    No classification of maximal subgroups is used.  Raises
    VerificationError if a generator is not an element of ``group``.
    """
    if not group.member_mask(list(generators)).all():
        raise VerificationError("generator outside the group")
    gens = _dedup_generators(ctx, generators)
    tables = kn.row_action_table(ctx, gens)
    t1, t2 = _transversals(ctx, tables, group.base_orbits)
    if (len(t1), len(t2)) == group.base_orbits:
        return group
    return _group(ctx, gens, tables, t1, t2)


def generates(ctx: SuzukiContext, generators: Sequence[Mat4],
              group: GroupSet) -> bool:
    """Whether ``generators`` generate all of ``group``: subgroup
    returns ``group`` itself just when they do, and backs every other
    answer by the elements of the proper subgroup."""
    return subgroup(ctx, generators, group) is group


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


def build_suzuki(ctx: SuzukiContext) -> GroupSet:
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
    sylow_ents, seeds = _suzuki_seeds(ctx)
    group = closure(ctx, seeds, expected)
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
    y in the frontier and g a generator, merged into sorted keys.
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

