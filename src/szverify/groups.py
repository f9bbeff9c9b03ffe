"""Exhaustive group machinery over 4x4 matrices.

One way to build a group: the base pass on (e_2, e_3) (Sims 1970;
Seress, Permutation Group Algorithms, 2003, ch. 4), for a batch of
generator sets at once.  One orbit routine runs twice, for e_2 under
each set's generators and for e_3 under its Schreier elements, and
keeps a transversal matrix per orbit point and each off-tree edge as
indices; the elements are the products of the two transversals, proved
to be the whole group by a closedness check.  subgroups is the one
entry point, on an (n, k, 16) batch of entries: closure and subgroup
(with generates on it) are its batches of one.  Bounded by an
enclosing group, it numbers each orbit point by its place in that
group's base orbits, which the group keeps from its own pass, and
stops the orbit of e_3 at its size there; unbounded, it numbers the
q^4 row vectors, in closure, which only build_suzuki calls: every other
group, a derived subgroup too, is built inside one already held.  The
orbit of e_2 always runs to its end, once per set: its edges are the
input to Schreier's lemma.  Also here: the cached fixed-point scan and
the involutions read off it, conjugation orbits, element orders,
derived series.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import List, Optional, Sequence, Tuple

import numpy as np

from . import kernels as kn
from . import linalg4 as la
from .context import SuzukiContext
from .errors import BudgetExceededError, SzVerifyError, VerificationError
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
    ``keys`` and ``fixed_points`` true to it.  ``generators``, (k, 16)
    entries, is read-only too.  ``base_points`` holds the orbits the
    group was built from (_transversals), each point as its _codes
    number, in the order of their transversals: O1, the orbit of e_2,
    and O2, the orbit of e_3 under the stabiliser of e_2.  Their sizes,
    ``base_orbits``, must multiply to the order.
    """

    ctx: SuzukiContext
    entries: np.ndarray
    generators: np.ndarray
    base_points: Tuple[np.ndarray, np.ndarray]

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
        self.generators.flags.writeable = False
        for points in self.base_points:
            points.flags.writeable = False
        if la.identity() not in self:
            raise VerificationError("group does not contain the identity")
        if self.base_orbits[0] * self.base_orbits[1] != self.order:
            raise VerificationError(
                f"base orbits {self.base_orbits} do not give the order "
                f"{self.order}")

    @property
    def base_orbits(self) -> Tuple[int, int]:
        """(|O1|, |O2|), the sizes of the base orbits."""
        return len(self.base_points[0]), len(self.base_points[1])

    @cached_property
    def base_numbering(self) -> Tuple[Tuple[np.ndarray, int], ...]:
        """_numbering of O1 and of O2: a pass that this group bounds
        numbers its orbit points by their places in them."""
        return tuple(_numbering(self.ctx, p) for p in self.base_points)

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

        A row with an entry outside GF(q) (kernels.field_mask) is no
        element; it is looked up as the zero matrix, which no group has.
        """
        ents = np.asarray(mats).reshape(-1, 16)
        field = kn.field_mask(self.ctx, ents).all(axis=1)
        if not field.all():
            ents = np.where(field[:, None], ents, 0)
        keys = kn.entry_keys(self.ctx, ents)
        pos = np.minimum(np.searchsorted(self.keys, keys), len(self.keys) - 1)
        return field & (self.keys[pos] == keys)

    def __contains__(self, mat) -> bool:
        return bool(self.member_mask([mat])[0])


def _generator_batch(ctx: SuzukiContext, generator_sets
                     ) -> Tuple[np.ndarray, np.ndarray]:
    """An (n, k, 16) batch of generator sets as uint8 entries, each
    set's distinct generators first, in first-seen order, and padded
    with I, with the number of each; repeats are found by their
    kernels.entry_keys.  Every entry is checked to lie in GF(q)
    (kernels.field_rows) and every generator in Sp4(q), by one
    kernels.invert_symplectic call."""
    n, k = np.shape(generator_sets)[:2]
    ents = kn.field_rows(ctx, generator_sets)
    kn.invert_symplectic(ctx, ents)
    ents = ents.reshape(n, k, 16)
    keys = kn.entry_keys(ctx, ents).reshape(n, k)
    repeat = np.tril(keys[:, :, None] == keys[:, None, :], -1).any(axis=2)
    ents = np.take_along_axis(
        ents, np.argsort(repeat, axis=1, kind="stable")[:, :, None], axis=1)
    count = k - repeat.sum(axis=1)
    ents[np.arange(k) >= count[:, None]] = _UNIT.reshape(16)
    return ents[:, :count.max(initial=0)], count


def _fresh_keys(seen: np.ndarray,
                cand: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The keys of ``cand`` not in the sorted ``seen``, sorted and without
    repeats, and the positions in ``seen`` where they go."""
    cand = np.sort(cand)
    pos = np.searchsorted(seen, cand)
    fresh = seen[np.minimum(pos, len(seen) - 1)] != cand
    fresh[1:] &= cand[1:] != cand[:-1]
    return cand[fresh], pos[fresh]


# The base, as 0-based indices: v1 = e_2 and v2 = e_3, row vectors.
# Sz(q) moves e_2 onto (q^2+1)(q-1) vectors, and the stabiliser of e_2,
# of order q^2, moves e_3 regularly, so the stabiliser of the pair is
# trivial in Sz(q) and in each of its subgroups; _group refuses a group
# where it is not.  v t is row v of t for a unit row vector v.
_V1, _V2 = 1, 2
_UNIT = np.eye(4, dtype=np.uint8)

# Off-tree edges per set in _transversals' first batch of Schreier
# elements, spread evenly over its edges in orbit order.  With 16, none
# of the 1,318 generating walk groups at q = 8 needed the second batch;
# with 8, 65 did.
_FIRST_EDGES = 16

# Rows per step of _group's products and of GroupSet's order check, so
# that their temporaries stay under a MB even for a whole Sz(32).
_CHUNK = 1 << 12

# Places of O1's visit array per batch of subgroups, and at least one
# set's: bounded, 288 sets a batch at q = 8 (455 places each), so each
# call of the rank-4 searches is one batch, and 4 at q = 32 (31,775),
# where 20 seeded word pairs took 58 ms 4 a batch and 61 ms one a batch;
# unbounded (q^4 places), 32 at q = 8 and one at q = 32.
_VISIT = 1 << 17


@lru_cache(maxsize=None)
def _pair_codes(ctx: SuzukiContext) -> Tuple[np.ndarray, np.ndarray]:
    """The numbers e + f q and (e + f q) q^2 of two adjacent entries e, f
    in GF(q), at index e + 256 f, their little-endian uint16."""
    e = np.arange(ctx.q)
    low = np.zeros(256 * ctx.q, dtype=np.int32)
    low[e[:, None] + 256 * e] = e[:, None] + ctx.q * e
    return low, low * ctx.q ** 2


def _codes(ctx: SuzukiContext, ents: np.ndarray, v: int) -> np.ndarray:
    """The number e_0 + e_1 q + e_2 q^2 + e_3 q^3 of row v, (e_0, e_1,
    e_2, e_3), of each matrix of the (n, 16) entries: one lookup per
    pair of entries."""
    low, high = _pair_codes(ctx)
    pairs = ents.view("<u2")
    return low.take(pairs[:, 2 * v]) + high.take(pairs[:, 2 * v + 1])


def _numbering(ctx: SuzukiContext,
               points: np.ndarray) -> Tuple[np.ndarray, int]:
    """(number, n): ``number`` maps the _codes of the q^4 row vectors to
    their places among the n ``points``, and every other vector to -1.
    On all q^4 codes in order it is the dense numbering of an unbounded
    pass."""
    number = np.full(ctx.q ** 4, -1, dtype=np.int32)
    number[points] = np.arange(len(points), dtype=np.int32)
    return number, len(points)


def _base_points(ctx: SuzukiContext, t1: np.ndarray,
                 t2: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The _codes of the base orbit points of transversals T and R:
    e_2 t for t in T and e_3 r for r in R."""
    return _codes(ctx, t1, _V1), _codes(ctx, t2, _V2)


def _places(ctx: SuzukiContext, number: np.ndarray, ents: np.ndarray,
            v: int) -> np.ndarray:
    """The places ``number`` gives the points e_v x, rows v of the (n, 16)
    entries x; VerificationError if one has none."""
    place = number.take(_codes(ctx, ents, v))
    if place.min(initial=0) < 0:
        raise VerificationError(
            "an orbit point lies outside the bounding group's base orbit")
    return place


def _visit(where: np.ndarray, idx: np.ndarray, count: int) -> np.ndarray:
    """Positions in ``idx`` of one image of each point that ``where``
    has not numbered yet (-1); the points get the numbers from ``count``
    on, in the order of those positions.

    No sort: each new point is scattered the positions of its images
    and keeps one of them, the one the scatter left.  Any image serves,
    since a point needs some transversal, not a particular one.
    """
    fresh = np.flatnonzero(where.take(idx) < 0)
    cand = idx.take(fresh)
    where[cand] = fresh
    first = fresh[where.take(cand) == fresh]
    where[idx.take(first)] = np.arange(count, count + len(first))
    return first


def _room(buf: np.ndarray, used: int, need: int) -> np.ndarray:
    """``buf`` if it has ``need`` rows, else a buffer of at least twice
    its rows that starts with its ``used`` rows."""
    if need <= len(buf):
        return buf
    out = np.empty((max(need, 2 * len(buf)),) + buf.shape[1:], buf.dtype)
    out[:used] = buf[:used]
    return out


def _orbit(ctx: SuzukiContext, tables: np.ndarray, owners: np.ndarray,
           v: int, numbering: Tuple[np.ndarray, int]
           ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Transversals of the orbits of the unit row vector e_v under the
    matrices of each set in ``owners``, whose row_action_tables are
    ``tables[o]`` ((m, k, 4, q), shorter sets padded with I's).

    Returns (trans, owner, edges).  ``trans`` holds one product t of its
    set's matrices per orbit point, the point being e_v t (row v of t),
    and ``owner`` that set; each seed's t is I.  ``edges``, (3, E),
    holds an edge u -> us as a column of indices (row of t_u in
    ``trans``, s, row of t_us), for each product t_u s formed whose row
    v2 = e_3 differs from that of t_us, compared as 4 bytes; the
    product itself is not kept.  On the other edges, the tree edges
    among them, the Schreier element t_u s t_us^-1 fixes e_3 (and e_2,
    as each does), so the orbit of e_3 itself keeps no edges.

    ``numbering`` is (number, n) from _numbering: each point is visited
    at its place there, in a visit array over (set, place) made for
    this search, and a point with no place raises VerificationError.
    Breadth-first, one step per level for all sets: each row of the last
    level is multiplied by the matrices of its own set, matrix by matrix
    (kernels.row_action with owners, on the tables laid out once by
    kernels.owner_tables), so each set sees its products in the order
    of a search of its own, and each point not visited yet takes one of
    its images (_visit).  Each level's new rows and their sets are
    written into one buffer each, which doubles when full (_room), so
    no level copies the rows before it.  In the orbit of e_3 a set
    stops once its orbit holds all n places, before its next level; the
    orbit of e_2 runs to its end, so that it keeps the edges of every
    level.
    """
    number, n = numbering
    m, k = tables.shape[:2]
    tables = kn.owner_tables(tables)
    fown = owners.astype(np.int32)
    size = len(fown)
    where = np.full(m * n, -1, dtype=np.int32)
    trans = front = np.tile(_UNIT.reshape(1, 16), (size, 1))
    towner, edges = fown, []
    where[fown * n + _places(ctx, number, front, v)] = np.arange(size)
    counts = np.bincount(fown, minlength=m)
    while k and len(front):
        rows = np.arange(size - len(front), size, dtype=np.int32)
        if v == _V2:
            live = counts[fown] < n
            if not live.all():
                front, fown, rows = front[live], fown[live], rows[live]
                if not len(front):
                    break
        images = kn.row_action(tables, front, fown)
        own = np.concatenate([fown] * k)
        idx = own * n + _places(ctx, number, images, v)
        first = _visit(where, idx, size)
        end = size + len(first)
        trans, towner = _room(trans, size, end), _room(towner, size, end)
        front, fown = trans[size:end], towner[size:end]
        images.take(first, axis=0, out=front)
        own.take(first, out=fown)
        size = end
        counts += np.bincount(fown, minlength=m)
        if v == _V2:
            continue
        at = where.take(idx)
        off = np.flatnonzero(images.view("<u4")[:, _V2]
                             != trans.view("<u4")[:, _V2].take(at))
        s, x = np.divmod(off.astype(np.int32), len(rows))
        edges.append(np.array([rows[x], s, at[off]]))
    return (trans[:size], towner[:size], np.concatenate(
        edges or [np.empty((3, 0), dtype=np.int32)], axis=1))


def _spread(owner: np.ndarray, chosen: np.ndarray) -> np.ndarray:
    """Positions of up to _FIRST_EDGES edges of each ``chosen`` set,
    spread evenly over its edges in the order given, whose sets
    ``owner`` holds.

    The edges are grouped by a stable sort of their owners cast to the
    smallest unsigned type that holds every set number: numpy sorts 8-
    and 16-bit integers by radix, int32 by merge, and a stable sort
    gives the same order on either.
    """
    order = np.argsort(owner.astype(np.min_scalar_type(len(chosen) - 1)),
                       kind="stable")
    n = np.bincount(owner, minlength=len(chosen))
    take = np.where(chosen, np.minimum(_FIRST_EDGES, n), 0)
    j = np.arange(_FIRST_EDGES)
    at = (np.cumsum(n) - n)[:, None] + j * n[:, None] // np.maximum(
        take, 1)[:, None]
    return order[at[j < take[:, None]]]


def _schreier_tables(ctx: SuzukiContext, tables: np.ndarray,
                     trans: np.ndarray, owner: np.ndarray,
                     edges: np.ndarray) -> np.ndarray:
    """Row tables of the distinct Schreier elements t_u s t_us^-1 of
    each set, (m, k, 4, q) padded with I's, for the _orbit ``edges`` into
    ``trans``, whose sets ``owner`` holds, under the generators of
    ``tables``: t_u s is formed here, by one kernels.row_action, and
    only for these edges; the Schreier elements by one
    kernels.mat_mul_pairs call.  Each must fix v1, or
    VerificationError is raised."""
    m, k, _, q = tables.shape
    src, gen, dst = edges
    own = owner[src]
    prods = kn.row_action(kn.owner_tables(tables.reshape(m * k, 1, 4, q)),
                          trans[src], own * k + gen)
    schreier = kn.mat_mul_pairs(
        ctx, prods, kn.invert_symplectic(ctx, trans[dst]))
    if not (schreier.reshape(-1, 4, 4)[:, _V1] == _UNIT[_V1]).all():
        raise VerificationError("a Schreier element moves e_2")
    keys = kn.entry_keys(ctx, schreier)
    order = np.lexsort((keys, own))
    keys, own = keys[order], own[order]
    new = np.ones(len(keys), dtype=bool)
    new[1:] = (keys[1:] != keys[:-1]) | (own[1:] != own[:-1])
    keys, own = keys[new], own[new]
    n = np.bincount(own, minlength=m)
    out = np.empty((m, n.max(initial=0), 4, q), dtype=np.uint32)
    out[:] = kn.row_action_table(ctx, _UNIT)
    out[own, np.arange(len(own)) - (np.cumsum(n) - n)[own]] = \
        kn.row_action_table(ctx, kn.key_entries(keys))
    return out


def _transversals(ctx: SuzukiContext, tables: np.ndarray,
                  base: Sequence[Tuple[np.ndarray, int]]
                  ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Transversals T and R of the base orbits of H_o, the group of each
    set o of generators, whose row tables are ``tables[o]``: (T, the set
    of each row of T, R, the set of each row of R), each set's rows in
    orbit order.  ``base`` numbers the points of O1 and of O2
    (_numbering, read by _orbit): the base orbits of a group G that
    holds every H, or all q^4 row vectors for an unbounded pass.

    T is _orbit's transversal of O1, the orbit of v1 = e_2 under H:
    v1 t_u = u.  By Schreier's lemma the Schreier elements t_u s t_us^-1,
    for every orbit point u and generator s, generate the stabiliser
    H_v1.  Only the edges _orbit keeps are multiplied out, those where
    t_u s and t_us differ in row v2 = e_3, and each product t_u s only
    where its Schreier element is.  Each must fix v1, and each edge must
    lie in the orbit, or VerificationError is raised.  R is _orbit's
    transversal of O2, the orbit of v2 = e_3 under them, within
    v2^(H_v1).  So |H| >= |O1| |O2|, with equality when R is all of
    v2^(H_v1) and H_(v1,v2) is trivial, which _group proves.

    No verdict depends on the edges dropped.  A "generates" verdict,
    like any answer by a group proved earlier (subgroups), rests only on
    the bound |H| >= |O1| |O2|, which holds for any subset of the
    Schreier elements.  Every other group, a proper subgroup or one of
    an unbounded pass, is still multiplied out and proved closed by
    _group, which refuses a short R or a nontrivial H_(v1,v2).  And
    inside a bounding G, whose pair stabiliser G_(v1,v2) is trivial, a
    Schreier element that fixes v2 is I, so comparing row v2 drops just
    the edges that comparing all 16 entries would.

    Bounded by G, O2 stops at its size there, and all transversals stay
    exact.  O1 is not stopped: it runs to its end, once per set, because
    its edges are the input to Schreier's lemma, and a stop at its size
    would leave those of its last level unformed.  O1(H) lies in O1(G),
    so a full O1 is all of O1(H).  Any Schreier elements lie in H_v1,
    within G_v1, so the orbit of v2 under some of them lies in O2(H),
    within O2(G), and a full one is all of O2(H).  Hence, for the sets
    with O1 full, O2 first runs under the Schreier elements of
    _FIRST_EDGES edges each.  When it comes back full too,
    |H| >= |O1| |O2| = |G|, so H = G.  Otherwise O2 runs again under the
    Schreier elements of every edge kept, as it does at once for the
    sets whose O1 is short of full, and for every set of an unbounded
    pass, whose orbits never fill q^4.
    """
    m = len(tables)
    (_, n1), (_, n2) = base
    t1, own1, edges = _orbit(ctx, tables, np.arange(m), _V1, base[0])
    if edges[::2].max(initial=0) >= len(t1):
        raise VerificationError("an edge leaves the orbit")
    full = np.bincount(own1, minlength=m) == n1
    rest = ~full
    t2, own2 = t1[:0], own1[:0]
    if full.any():
        pick = edges[:, _spread(own1[edges[0]], full)]
        t2, own2, _ = _orbit(
            ctx, _schreier_tables(ctx, tables, t1, own1, pick),
            np.flatnonzero(full), _V2, base[1])
        short = full & (np.bincount(own2, minlength=m) != n2)
        kept = ~short[own2]
        t2, own2 = t2[kept], own2[kept]
        rest |= short
    if not rest.any():
        return t1, own1, t2, own2
    u2, uown, _ = _orbit(
        ctx, _schreier_tables(ctx, tables, t1, own1,
                              edges[:, rest[own1[edges[0]]]]),
        np.flatnonzero(rest), _V2, base[1])
    return t1, own1, np.concatenate([t2, u2]), np.concatenate([own2, uown])


def _group(ctx: SuzukiContext, gens: np.ndarray, tables: np.ndarray,
           t1: np.ndarray, t2: np.ndarray) -> GroupSet:
    """H = <gens>, (k, 16) entries whose row tables are ``tables``, as
    the products r t, r in t2 and t in t1, of the transversals of
    _transversals.

    They are distinct: v1 r t = v1 t tells t apart, and then v2 r t
    tells r apart.  They come out of one kernels.row_action per chunk of
    t1 and are sorted in place through their keys.  They lie in H, and
    the proof that they are all of it is that their set S holds I
    (GroupSet checks) and S s = S for every generator s, compared as
    sorted keys: then S holds every word in the generators, so S = H
    and |H| = |O1| |O2|, which makes H_(v1,v2) trivial and the points of
    t1 and t2 the base orbits of H.  Raises VerificationError otherwise,
    as for a nontrivial H_(v1,v2) or a transversal short of its orbit:
    S is then a proper subset of H, and not closed.
    """
    n1, n2 = len(t1), len(t2)
    out = np.empty((n1 * n2, 16), dtype=np.uint8)
    step = max(1, _CHUNK // n2)
    for lo in range(0, n1, step):
        out[lo * n2:(lo + step) * n2] = kn.row_action(
            kn.row_action_table(ctx, t1[lo:lo + step]), t2)
    keys = kn.entry_keys(ctx, out)
    keys.sort()
    group = GroupSet(
        ctx=ctx, entries=kn.key_entries(keys),
        generators=(gens if len(gens) else _UNIT.reshape(1, 16)).copy(),
        base_points=_base_points(ctx, t1, t2))
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


def subgroups(ctx: SuzukiContext, generator_sets,
              group: Optional[GroupSet] = None,
              ceiling: Optional[int] = None) -> List[GroupSet]:
    """The group each set of generators generates, for an (n, k, 16)
    batch of entries, uint8 as the kernels make them (a wider integer
    type is checked against GF(q) before the cast, _generator_batch):
    one base pass (_transversals) for a batch of _VISIT // |O1| sets
    (at least one) at a time, |O1| the places of the orbit of e_2.

    With ``group`` the pass is bounded by ``group.base_numbering``, and
    VerificationError is raised if a generator is not an element of
    ``group``.  Without, it is unbounded, on the dense numbering of the
    q^4 row vectors, and BudgetExceededError is raised if an order
    |O1| |O2| would pass ``ceiling``, before any element of that batch
    is made.

    One rule answers a set from a group H proved already, ``group``
    itself or a proper subgroup built earlier in the call: H holds the
    set's generators and has the base orbits the set's pass found.
    Then <gens> <= H and |<gens>| >= |O1| |O2| = |H|, so <gens> = H
    (Lagrange): equal subgroups come back as one object, and a set that
    generates ``group`` gets ``group`` itself.  A set with the base
    orbits of ``group`` gets it with no lookup, since every generator
    is checked in it first.  Every other group H is looked up once per
    batch, by one member_mask call on all the sets of the batch that
    have its base orbits and no answer yet: for the groups proved
    before the batch, in the order proved, when it starts, and for a
    group built in it, right after, on the sets after the one it was
    built from.  Each set so gets the first proved group that holds it.
    The other sets have their elements multiplied out from the exact
    transversals of the pass and proved closed (_group).  No
    classification of maximal subgroups is used.  Deterministic: the
    entries are the canonically sorted elements, and the generators
    those given, without repeats.
    """
    ents = np.asarray(generator_sets)
    if group is not None and not group.member_mask(ents).all():
        raise VerificationError("generator outside the group")
    ents, count = _generator_batch(ctx, ents)
    tables = kn.row_action_table(ctx, ents).reshape(*ents.shape[:2], 4,
                                                     ctx.q)
    base = group.base_numbering if group else (
        _numbering(ctx, np.arange(ctx.q ** 4)),) * 2
    proved: List[GroupSet] = []
    out: List[GroupSet] = []
    per = max(1, _VISIT // base[0][1])
    for lo in range(0, len(ents), per):
        sets = ents[lo:lo + per]
        m = len(sets)
        t1, own1, t2, own2 = _transversals(ctx, tables[lo:lo + m], base)
        n1 = np.bincount(own1, minlength=m)
        n2 = np.bincount(own2, minlength=m)
        if ceiling is not None and (n1 * n2).max() > ceiling:
            raise BudgetExceededError(int((n1 * n2).max()), ceiling)
        found: List[Optional[GroupSet]] = [None] * m
        unanswered = np.ones(m, dtype=bool)

        def answer(h: GroupSet, lookup: bool = True) -> None:
            # every unanswered set with h's base orbits that h holds,
            # by one member_mask call (on the I padding too, which each
            # group holds), gets h
            at = np.flatnonzero(unanswered & (n1 == h.base_orbits[0])
                                & (n2 == h.base_orbits[1]))
            if lookup and len(at):
                at = at[h.member_mask(sets[at]).reshape(len(at), -1)
                        .all(axis=1)]
            unanswered[at] = False
            for o in at:
                found[o] = h
        if group is not None:
            answer(group, lookup=False)
        for h in proved:
            answer(h)
        for o in range(m):
            if unanswered[o]:
                gens = sets[o, :count[lo + o]]
                h = _group(ctx, gens, tables[lo + o, :len(gens)],
                           t1[own1 == o], t2[own2 == o])
                proved.append(h)
                unanswered[o] = False
                found[o] = h
                answer(h)
        out.extend(found)
    return out


def _one_set(generators: Sequence[Mat4]) -> np.ndarray:
    """A list of matrices as a (1, k, 16) batch, values as given, so
    that subgroups sees an entry outside GF(q) as it is."""
    return np.array(generators).reshape(1, -1, 16)


def subgroup(ctx: SuzukiContext, generators: Sequence[Mat4],
             group: GroupSet) -> GroupSet:
    """The subgroup of ``group`` generated by ``generators``: subgroups
    on a batch of one."""
    return subgroups(ctx, _one_set(generators), group)[0]


def generates(ctx: SuzukiContext, generators: Sequence[Mat4],
              group: GroupSet) -> bool:
    """Whether ``generators`` generate all of ``group``: subgroup
    returns ``group`` itself just when they do, and backs every other
    answer by the elements of the proper subgroup."""
    return subgroup(ctx, generators, group) is group


def closure(ctx: SuzukiContext, generators: Sequence[Mat4],
            ceiling: int) -> GroupSet:
    """The group generated by the generators, every element enumerated:
    subgroups on an unbounded batch of one.  Raises BudgetExceededError,
    before any element is made, if the order would pass ``ceiling``.
    """
    if ceiling < 1:
        raise ValueError("ceiling must be >= 1")
    return subgroups(ctx, _one_set(generators), ceiling=ceiling)[0]


def _suzuki_seeds(ctx: SuzukiContext) -> Tuple[np.ndarray, np.ndarray]:
    """The Sylow filter and the seeds that build_suzuki closes, both as
    entries.

    Filters the q^4 flag-unitriangular symplectic candidates down to the
    q^2-element Sylow 2-subgroup and picks its first two nontrivial
    elements (in canonical order) and iota.
    """
    cand = kn.sylow_candidates(ctx)
    keep = kn.suzuki_mask(ctx, cand)
    sylow_ents = cand[keep]
    if sylow_ents.shape[0] != ctx.sylow_order:
        raise VerificationError(
            f"Sylow filter yielded {sylow_ents.shape[0]} elements, "
            f"expected q^2 = {ctx.sylow_order}: field or product-table bug")
    sylow = kn.key_entries(np.sort(kn.entry_keys(ctx, sylow_ents)))
    if not is_suzuki(ctx, ctx.iota):
        raise VerificationError("iota failed the membership test")
    nontrivial = sylow[~kn.identity_mask(sylow)]
    return sylow_ents, np.concatenate(
        [nontrivial[:2], kn.mats_to_entries([ctx.iota])])


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


def conjugation_orbit(ctx: SuzukiContext, seed, generators) -> np.ndarray:
    """Orbit of the matrix ``seed`` under conjugation by the group that
    the (k, 16) ``generators`` generate, as canonically sorted entries,
    with no element of the group enumerated.

    Breadth-first, one batch of products per level: every g^-1 y g for
    y in the frontier and g a generator, merged into sorted keys.
    """
    gens = kn.field_rows(ctx, generators)
    inv_gens = kn.invert_symplectic(ctx, gens)
    frontier = kn.field_rows(ctx, [seed])
    seen = kn.entry_keys(ctx, frontier)
    while len(frontier):
        n = len(frontier)
        yg = kn.mat_mul_pairs(ctx, np.repeat(frontier, len(gens), axis=0),
                              np.tile(gens, (n, 1)))
        conj = kn.mat_mul_pairs(ctx, np.tile(inv_gens, (n, 1)), yg)
        fresh, pos = _fresh_keys(seen, kn.entry_keys(ctx, conj))
        seen = np.insert(seen, pos, fresh)
        frontier = kn.key_entries(fresh)
    return kn.key_entries(seen)


def element_order(ctx: SuzukiContext, g: Mat4) -> int:
    """Least k >= 1 with g^k = I, by scalar products.

    g is checked invertible first (la.invert), and an element of GL4(q)
    has order below q^4, the bound kernels.element_orders applies too.
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
        if k >= ctx.q ** 4:
            raise SzVerifyError(f"element order exceeds q^4 = {ctx.q ** 4}")
    return k


def derived_subgroup(ctx: SuzukiContext, group: GroupSet) -> GroupSet:
    """Normal closure of the commutators of the group's generators, each
    candidate a subgroups pass bounded by ``group``, so that one which
    generates ``group`` is ``group`` itself, with no element made.

    The subgroup of the commutators need not be normal, so conjugates
    g^-1 d g of its generators d are folded in until it stabilises, but
    for the trivial group.  Commutators (ba)^-1 ab come a-major and
    conjugates g-major, each list from one batch of paired products,
    and the conjugates are looked up in the subgroup in one batch.
    """
    gens = group.generators
    k = len(gens)
    a, b = np.repeat(gens, k, axis=0), np.tile(gens, (k, 1))
    ba_inv = kn.invert_symplectic(ctx, kn.mat_mul_pairs(ctx, b, a))
    ds = kn.mat_mul_pairs(ctx, ba_inv, kn.mat_mul_pairs(ctx, a, b))
    ds = ds[~kn.identity_mask(ds)]
    sub = subgroups(ctx, ds[None], group)[0]
    if not len(ds):
        return sub
    inv_gens = kn.invert_symplectic(ctx, gens)
    while True:
        m = len(ds)
        conj = kn.mat_mul_pairs(ctx, np.repeat(inv_gens, m, axis=0),
                                kn.mat_mul_pairs(ctx, np.tile(ds, (k, 1)),
                                                 np.repeat(gens, m, axis=0)))
        extra = conj[~sub.member_mask(conj)]
        if not len(extra):
            return sub
        ds = np.concatenate([ds, extra])
        sub = subgroups(ctx, ds[None], group)[0]


def derived_series(ctx: SuzukiContext, group: GroupSet) -> List[GroupSet]:
    """The derived series until trivial or stabilised (a perfect tail).

    Each derived subgroup lies in the one before, so the order falls
    until it repeats, and the loop ends within log2 |group| steps.
    """
    series = [group]
    while series[-1].order > 1:
        series.append(derived_subgroup(ctx, series[-1]))
        if series[-1].order == series[-2].order:
            break
    return series


def derived_series_solvable(ctx: SuzukiContext, group: GroupSet) -> bool:
    """True iff the derived series reaches the trivial group."""
    return derived_series(ctx, group)[-1].order == 1


def involutions(group: GroupSet) -> np.ndarray:
    """All elements of order exactly 2, as canonically sorted entries.

    Read off ``group.fixed_points`` with no whole-group pass: x iota x =
    iota iff (x iota)^2 = I, so w = x iota, which is x with its columns
    reversed, runs over the involutions and I; I comes from x = iota.
    That needs iota in the group, so a group without it is refused.
    """
    if group.ctx.iota not in group:
        raise ValueError("involutions are read off the fixed points only "
                         "in a group that contains iota")
    ws = kn.times_iota(group.fixed_points)
    ws = kn.key_entries(np.sort(kn.entry_keys(group.ctx, ws)))
    return ws[~kn.identity_mask(ws)]

