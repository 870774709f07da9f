"""Perfect matchings and non-degeneracy of bipartite graphs.

A dimer model is non-degenerate when every edge lies in some perfect
matching (and a perfect matching exists).  Three independent tests are
provided: one perfect matching, which decides every edge at once
(``per-edge``), averaged charges from the number of matchings through each
edge (``r-charge``), and the strict Hall condition on both sides
(``strong-marriage``).  On connected graphs with both colors present they
agree; the count- and subset-based tests carry capacity bounds.

Each graph numbers its two sides once and orders its blacks once, so that
the frontier of half-used whites stays narrow.  One routine, ``_tables``,
places the blacks in that order, one table per step from used-white
bitmasks to what reaches them.  Matchings are enumerated once per graph
and kept on the graph as edge-id sets (``enumerate_matchings``): two
halves meet in the middle, counted before they are built, so
``MATCHING_CAP`` is checked on the exact count, and each matching is the
union of its halves' sets.  The charges (``r_charge_average``) and the
matching counts by weight that the characteristic polynomial needs come
from sweeps of the same tables that carry counts and build no matching,
so only ``STATE_CAP`` bounds them.  The first matching in canonical order
(``_least_matching``) is found without enumerating too, by flipping
alternating cycles.  ``from_model`` is memoized per model, so the
matchings and the fan of one model share one search.

Everything here works on the abstract bipartite graph, so the tests run on
arbitrary multigraphs, not just graphs that embed in the torus.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from heapq import heapify, heappop, heappush
from itertools import accumulate
from operator import or_
from typing import Iterator

from .exceptions import (
    CapacityError,
    DegenerateModelError,
    InternalConsistencyError,
    InvalidModelError,
)
from .model import DimerModel, per_object

SUBSET_CAP = 20  # strong-marriage enumerates subsets of one side
MATCHING_CAP = 200_000  # enumeration bails out beyond this many matchings
STATE_CAP = 200_000  # and the search beyond this many states at one step

NON_DEGENERACY_METHODS = ("per-edge", "r-charge", "strong-marriage")


@dataclass(frozen=True)
class BipartiteGraph:
    blacks: tuple[str, ...]
    whites: tuple[str, ...]
    edges: tuple[tuple[str, str, str], ...]  # (edge id, black end, white end)

    def __post_init__(self):
        b, w = set(self.blacks), set(self.whites)
        if len(b) != len(self.blacks) or len(w) != len(self.whites) or b & w:
            raise InvalidModelError("vertex names must be distinct")
        ids = [eid for eid, _, _ in self.edges]
        if len(set(ids)) != len(ids):
            raise InvalidModelError("duplicate edge ids")
        for eid, eb, ew in self.edges:
            if eb not in b or ew not in w:
                raise InvalidModelError(f"edge {eid!r} has a dangling endpoint")

    # built on first use; cached_property is not a field
    @cached_property
    def _numbered(self) -> tuple[list[list[tuple[int, int]]], list[int], list[int]]:
        """Each black's (edge position, white bit) pairs; both sides' neighbour masks."""
        bpos = {b: i for i, b in enumerate(self.blacks)}
        wpos = {w: i for i, w in enumerate(self.whites)}
        choices: list[list[tuple[int, int]]] = [[] for _ in self.blacks]
        black_nbrs, white_nbrs = [0] * len(self.blacks), [0] * len(self.whites)
        for p, (_, b, w) in enumerate(self.edges):
            i, j = bpos[b], wpos[w]
            choices[i].append((p, 1 << j))
            black_nbrs[i] |= 1 << j
            white_nbrs[j] |= 1 << i
        return choices, black_nbrs, white_nbrs

    @cached_property
    def _frontier(self) -> tuple[list[int], list[int], list[int]]:
        """The blacks in ``_black_order``, and by step the whites next to the
        blacks placed before it (``gone``) and from it on (``reach``)."""
        _, black_nbrs, _ = self._numbered
        order = _black_order(self)
        masks = [black_nbrs[b] for b in order]
        gone = list(accumulate(masks, or_, initial=0))
        reach = list(accumulate(masks[::-1], or_, initial=0))[::-1]
        return order, gone, reach


@per_object
def from_model(model: DimerModel) -> BipartiteGraph:
    return BipartiteGraph(
        tuple(v.id for v in model.vertices if v.color == "black"),
        tuple(v.id for v in model.vertices if v.color == "white"),
        tuple((e.id, e.black, e.white) for e in model.edges),
    )


def _black_order(g: BipartiteGraph) -> list[int]:
    """The blacks in turn, each the one that widens the frontier least.

    The frontier is the set of touched whites (next to a placed black)
    that still have an unplaced neighbour; ties go to the lowest index.
    A black's widening changes only when one of its whites is first
    touched or left with one unplaced neighbour, so a heap with lazy
    deletion orders all blacks in O(E log V).
    """
    choices, _, _ = g._numbered
    whites_of = [{bit.bit_length() - 1 for _, bit in row} for row in choices]
    blacks_of: list[list[int]] = [[] for _ in g.whites]
    for b, ws in enumerate(whites_of):
        for w in ws:
            blacks_of[w].append(b)
    left = [len(bs) for bs in blacks_of]  # unplaced blacks at each white
    touched = [False] * len(left)

    def widening(b: int) -> int:
        return sum(-(left[w] == 1) if touched[w] else left[w] > 1 for w in whites_of[b])

    key: list[int | None] = [widening(b) for b in range(len(choices))]
    heap = [(k, b) for b, k in enumerate(key)]
    heapify(heap)
    order: list[int] = []
    while heap:
        k, b = heappop(heap)
        if k != key[b]:
            continue  # placed (key None), or a stale entry
        key[b] = None
        order.append(b)
        for w in whites_of[b]:
            left[w] -= 1
            if not touched[w] or left[w] == 1:  # w's share in widening changed
                touched[w] = True
                for x in blacks_of[w]:
                    if key[x] is not None:
                        key[x] = widening(x)
                        heappush(heap, (key[x], x))
    return order


def _tables(
    g: BipartiteGraph, blacks: list[int], masks: list[int],
    lift: list[int] | None = None, build: bool = False,
) -> Iterator[dict]:
    """Place ``blacks`` in turn, yielding first the empty table and then the
    table after each step.  A table maps each state to the number of
    partial matchings in it, or when ``build`` to the partial matchings
    themselves, each as the sum of ``2 ** (E - 1 - p)`` over its edge
    positions ``p`` (see :func:`_search`).  A state is the set of used
    whites (a bitmask) plus, with ``lift``, the weight so far above the
    white bits: ``lift[p]`` is edge ``p``'s nonnegative weight shifted past
    them.  A state is dropped as soon as a white it leaves free has no
    neighbour among the blacks still to place (``masks``, one per step).
    Stops past ``STATE_CAP`` states at one step.
    """
    choices, _, _ = g._numbered
    above, top = ~((1 << len(g.whites)) - 1), len(g.edges) - 1
    table = {0: [0] if build else 1}
    yield table
    for b, rest in zip(blacks, masks):
        rest |= above  # so u | rest is -1 when no white is stranded
        nxt: dict = {}
        for p, bit in choices[b]:
            step = bit if lift is None else bit + lift[p]
            key = 1 << top - p
            for used, val in table.items():
                if not used & bit:
                    u = used + step
                    if u | rest == -1:
                        grown = [t | key for t in val] if build else val
                        nxt[u] = nxt[u] + grown if u in nxt else grown
        if len(nxt) > STATE_CAP:
            raise CapacityError(
                f"more than STATE_CAP = {STATE_CAP} matching search states at one step"
            )
        table = nxt
        yield table


def _table(g: BipartiteGraph, blacks: list[int], masks: list[int], **value) -> dict:
    """The last table of :func:`_tables`."""
    return deque(_tables(g, blacks, masks, **value), maxlen=1)[0]


def _meet(g: BipartiteGraph, **value) -> list[dict]:
    """The last tables of two halves that meet in the middle: the first
    half of the frontier order placed forwards, the second backwards.  A
    first-half state ``u`` meets the second-half state ``full ^ u``."""
    n = len(g.blacks)
    order, gone, reach = g._frontier
    h = n // 2
    halves = (order[:h], reach[1:h + 1]), (order[h:][::-1], gone[h:n][::-1])
    return [_table(g, bs, ms, **value) for bs, ms in halves]


def _count(g: BipartiteGraph) -> int:
    """The number of perfect matchings, from :func:`_meet`'s counts."""
    if len(g.blacks) != len(g.whites):
        return 0
    (first, second), full = _meet(g), (1 << len(g.whites)) - 1
    return sum(k * second.get(full ^ u, 0) for u, k in first.items())


def _search(g: BipartiteGraph) -> tuple[frozenset[str], ...]:
    """Every perfect matching as its edge-id set, in canonical order.

    Past ``MATCHING_CAP`` it stops on the exact count (:func:`_count`)
    before any matching is built; then :func:`_meet` builds both halves,
    each partial matching as its key, the sum of ``2 ** (E - 1 - p)`` over
    its edge positions ``p``.  The halves' edges are disjoint, so a
    matching's key is the OR of its halves' keys, and its set the union of
    theirs.  All matchings have the same size, so the first place where
    two sorted position tuples differ is the least position in just one
    of them: the canonical order is the descending order of the keys.
    """
    total = _count(g)
    if total > MATCHING_CAP:
        raise CapacityError(
            f"more than MATCHING_CAP = {MATCHING_CAP} perfect matchings"
        )
    if not total:
        return ()
    by_bit = [eid for eid, _, _ in reversed(g.edges)]  # key bit -> edge id

    def edge_set(key: int) -> frozenset[str]:
        found = []
        while key:
            b = key.bit_length() - 1
            found.append(by_bit[b])
            key ^= 1 << b
        return frozenset(found)

    (first, second), full = _meet(g, build=True), (1 << len(g.whites)) - 1
    keys: list[int] = []
    sets: list[frozenset[str]] = []
    for u, front in first.items():
        back = second.get(full ^ u)
        if back is not None:
            keys += [a | c for a in front for c in back]
            back_sets = list(map(edge_set, back))
            sets += [fa | fc for fa in map(edge_set, front) for fc in back_sets]
    order = sorted(range(total), key=keys.__getitem__, reverse=True)
    return tuple(map(sets.__getitem__, order))


@per_object
def enumerate_matchings(g: BipartiteGraph) -> tuple[frozenset[str], ...]:
    """All perfect matchings, as edge-id sets, searched once per graph.

    In canonical order: by the sorted tuple of edge positions in
    ``g.edges``, lexicographically.  Raises :class:`CapacityError` past
    ``MATCHING_CAP`` matchings, checked on the exact count before any
    matching is built, or past ``STATE_CAP`` search states at one step.
    """
    return _search(g)


def perfect_matchings(model: DimerModel) -> tuple[frozenset[str], ...]:
    return enumerate_matchings(from_model(model))


def _augment(black_nbrs: list[int], mate: list[int], b: int, seen: int) -> bool:
    """Match the black ``b`` along an alternating path to an unmatched white
    outside ``seen`` (a mask of whites), flipping the path; ``False`` and
    ``mate`` untouched when there is none."""
    came_from: dict[int, tuple[int, int]] = {}  # white -> (black, its white)
    todo, end = [(b, -1)], -1
    while todo and end < 0:
        x, held = todo.pop()
        new = black_nbrs[x] & ~seen
        seen |= new
        while new:
            w = (new & -new).bit_length() - 1
            new &= new - 1
            came_from[w] = x, held
            if mate[w] < 0:
                end = w
            else:
                todo.append((mate[w], w))
    if end < 0:
        return False
    while end >= 0:  # flip the path: each black on it takes its new white
        mate[end], end = came_from[end]
    return True


def _max_matching(g: BipartiteGraph) -> list[int] | None:
    """One perfect matching as each white's black, or ``None`` if there is none."""
    if len(g.blacks) != len(g.whites):
        return None
    _, black_nbrs, _ = g._numbered
    mate = [-1] * len(g.whites)
    if all(_augment(black_nbrs, mate, b, 0) for b in range(len(g.blacks))):
        return mate
    return None


def _least_matching(g: BipartiteGraph) -> tuple[int, ...] | None:
    """The edge positions of the least perfect matching,
    ``enumerate_matchings(g)[0]``, without enumerating; ``None`` when there
    is none.

    The edges are taken in position order, and an edge joins when some
    perfect matching of the part not yet fixed holds it: when its black end
    is reachable from its white end's partner (as in
    ``_edges_in_perfect_matchings``).  Then the alternating cycle is
    flipped and both ends are fixed.  Fixing only removes matchings, so an
    edge refused once can never join later.
    """
    mate = _max_matching(g)
    if mate is None:
        return None
    choices, black_nbrs, _ = g._numbered
    fixed, taken = 0, []  # the whites of the taken edges, as a mask
    for p, x, bit in sorted((p, x, bit) for x, row in enumerate(choices) for p, bit in row):
        w, u = bit.bit_length() - 1, mate.index(x)  # u: the white x holds
        if fixed & (bit | 1 << u):
            continue
        y = mate[w]
        if y != x:  # x takes w, and y must reach u around the rest
            mate[w], mate[u] = x, -1
            if not _augment(black_nbrs, mate, y, fixed | bit):
                mate[w], mate[u] = y, x
                continue
        fixed |= bit
        taken.append(p)
    return tuple(taken)


def _edges_in_perfect_matchings(g: BipartiteGraph) -> dict[int, bool] | None:
    """By edge position, whether some perfect matching holds the edge: when
    its black end is reachable from its white end's partner, one step going
    from a black to the partner of one of its whites (Dulmage–Mendelsohn).
    ``None`` when there is no perfect matching."""
    mate = _max_matching(g)
    if mate is None:
        return None
    choices, _, _ = g._numbered
    # (position, black, partner of the white) per edge, all by number
    steps = [(p, x, mate[bit.bit_length() - 1])
             for x, row in enumerate(choices) for p, bit in row]
    reach = [1 << x for x in range(len(mate))]  # blacks reachable from each
    while any(reach[y] & ~reach[x] for _, x, y in steps):
        for _, x, y in steps:
            reach[x] |= reach[y]
    return {p: bool(reach[y] >> x & 1) for p, x, y in steps}


def has_perfect_matching(g: BipartiteGraph) -> bool:
    return _max_matching(g) is not None


def has_matching_containing(g: BipartiteGraph, eid: str) -> bool:
    """Whether some perfect matching contains the edge ``eid``."""
    ids = [e for e, _, _ in g.edges]
    if eid not in ids:
        raise InvalidModelError(f"unknown edge {eid!r}")
    inside = _edges_in_perfect_matchings(g)
    return inside is not None and inside[ids.index(eid)]


def _weight_counts(g: BipartiteGraph, weights: list[int]) -> dict[int, int]:
    """The number of perfect matchings by the sum of their edges'
    nonnegative integer ``weights`` (by edge position), from one sweep of
    :func:`_tables` in frontier order whose states carry the weight so far.
    Builds no matching; only ``STATE_CAP`` bounds it.
    """
    if len(g.blacks) != len(g.whites):
        return {}
    order, _, reach = g._frontier
    shift = len(g.whites)
    table = _table(g, order, reach[1:], lift=[w << shift for w in weights])
    return {state >> shift: k for state, k in table.items()}


def r_charge_average(g: BipartiteGraph) -> dict[str, Fraction]:
    """Edge charges ``2 * (matchings through e) / (all matchings)``.

    Exact rationals; every vertex's incident charges sum to 2, which is
    checked.  Raises :class:`DegenerateModelError` when the graph has no
    perfect matching at all.  No matching is built: the tables of a
    forward sweep (:func:`_tables`) count the ways to reach each state, a
    backward pass over them counts the ways to complete it, and the two
    meet at every edge.  Bounded by ``STATE_CAP`` only.
    """
    n = len(g.blacks)
    if n != len(g.whites):
        raise DegenerateModelError("no perfect matchings")
    choices, _, _ = g._numbered
    order, _, reach = g._frontier
    tables = list(_tables(g, order, reach[1:]))
    through = [0] * len(g.edges)
    after = dict.fromkeys(tables[n], 1)  # the ways to complete each state
    for b, table in zip(order[::-1], tables[n - 1::-1]):
        # no test of u & bit: then u | bit is u, one white short of after's
        here = dict.fromkeys(table, 0)
        for p, bit in choices[b]:
            t = 0
            for u, k in table.items():
                m = after.get(u | bit)
                if m:
                    t += k * m
                    here[u] += m
            through[p] = t
        after = here
    total = after[0]
    if not total:
        raise DegenerateModelError("no perfect matchings")
    charges = {
        eid: Fraction(2 * k, total) for (eid, _, _), k in zip(g.edges, through)
    }
    sums: dict[str, Fraction] = {v: Fraction(0) for v in g.blacks + g.whites}
    for eid, b, w in g.edges:
        sums[b] += charges[eid]
        sums[w] += charges[eid]
    for v, s in sums.items():
        if s != 2:
            raise InternalConsistencyError(
                f"charges at {v!r} sum to {s}, not 2"
            )
    return charges


def _strong_marriage(g: BipartiteGraph) -> bool:
    n = len(g.blacks)
    if n != len(g.whites):
        return False
    if n > SUBSET_CAP:
        raise CapacityError(
            f"strong-marriage enumerates 2^{n} subsets; "
            f"cap is 2^{SUBSET_CAP}, use method 'per-edge' instead"
        )
    _, black_nbrs, white_nbrs = g._numbered
    for nbrs in (black_nbrs, white_nbrs):  # strict Hall on both sides
        for mask in range(1, (1 << n) - 1):
            nb, m = 0, mask
            while m:
                nb |= nbrs[(m & -m).bit_length() - 1]
                m &= m - 1
            if nb.bit_count() <= mask.bit_count():
                return False
    return True


def is_non_degenerate(g: BipartiteGraph, method: str = "per-edge") -> bool:
    """Whether a perfect matching exists and every edge lies in one.

    The three methods compute the same predicate in unrelated ways (on
    connected graphs); ``per-edge`` is the only one without a capacity
    bound.
    """
    if method == "per-edge":
        inside = _edges_in_perfect_matchings(g)
        return inside is not None and all(inside.values())
    if method == "r-charge":
        try:
            charges = r_charge_average(g)
        except DegenerateModelError:
            return False
        return all(c > 0 for c in charges.values())
    if method == "strong-marriage":
        return _strong_marriage(g)
    raise InvalidModelError(
        f"unknown method {method!r}; expected one of {NON_DEGENERACY_METHODS}"
    )
