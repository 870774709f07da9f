"""Perfect matchings and non-degeneracy of bipartite graphs.

A dimer model is non-degenerate when every edge lies in some perfect
matching (and a perfect matching exists).  Three independent tests are
provided: one perfect matching, which decides every edge at once
(``per-edge``), full enumeration with averaged charges (``r-charge``), and
the strict Hall condition on both sides (``strong-marriage``).  On connected
graphs with both colors present they agree; the enumeration- and
subset-based tests carry capacity bounds.

Each graph numbers its two sides once, and all three tests read that.
Matchings are enumerated once per graph, by one bitmask search, and kept
on the graph as sorted tuples of edge positions (``matching_positions``).
``from_model`` is memoized per model, so the matchings, the characteristic
polynomial, the charges and the fan of one model share that search.
Edge-id sets are built per call, at ``enumerate_matchings`` and
``perfect_matchings``, and are not kept.

Everything here works on the abstract bipartite graph, so the tests run on
arbitrary multigraphs, not just graphs that embed in the torus.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .exceptions import (
    CapacityError,
    DegenerateModelError,
    InternalConsistencyError,
    InvalidModelError,
)
from .model import DimerModel, per_object

SUBSET_CAP = 20  # strong-marriage enumerates subsets of one side
MATCHING_CAP = 200_000  # enumeration bails out beyond this many matchings

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


@per_object
def from_model(model: DimerModel) -> BipartiteGraph:
    return BipartiteGraph(
        tuple(v.id for v in model.vertices if v.color == "black"),
        tuple(v.id for v in model.vertices if v.color == "white"),
        tuple((e.id, e.black, e.white) for e in model.edges),
    )


def _search(g: BipartiteGraph) -> tuple[tuple[int, ...], ...]:
    """Every perfect matching as its sorted tuple of edge positions, sorted.

    Blacks and whites are numbered and the free whites are one bitmask.
    Each step branches on the remaining black with the fewest free
    neighbours (fail-first) and gives up when some black or free white
    has no partner left.  Stops past ``MATCHING_CAP`` matchings.
    """
    n = len(g.blacks)
    if n != len(g.whites):
        return ()
    choices, nbr_mask, _ = g._numbered
    found: list[tuple[int, ...]] = []
    chosen: list[int] = []

    def extend(remaining: list[int], free: int) -> None:
        if not remaining:
            found.append(tuple(sorted(chosen)))
            if len(found) > MATCHING_CAP:
                raise CapacityError(
                    f"more than MATCHING_CAP = {MATCHING_CAP} perfect matchings"
                )
            return
        best, fewest, reach = -1, n + 1, 0
        for b in remaining:
            k = (nbr_mask[b] & free).bit_count()
            reach |= nbr_mask[b]
            if k < fewest:
                best, fewest = b, k
        if fewest == 0 or free & ~reach:
            return  # a black or a free white can no longer be matched
        rest = [b for b in remaining if b != best]
        for p, bit in choices[best]:
            if free & bit:
                chosen.append(p)
                extend(rest, free ^ bit)
                chosen.pop()

    extend(list(range(n)), (1 << n) - 1)
    found.sort()
    return tuple(found)


@per_object
def matching_positions(g: BipartiteGraph) -> tuple[tuple[int, ...], ...]:
    """All perfect matchings as sorted tuples of edge positions in ``g.edges``,
    in canonical (lexicographic) order, searched once per graph.

    Raises :class:`CapacityError` past ``MATCHING_CAP`` matchings or past
    the recursion limit.
    """
    try:
        return _search(g)
    except RecursionError:
        raise CapacityError(
            f"{len(g.blacks)} blacks exceed the matching search's recursion limit"
        ) from None


def enumerate_matchings(g: BipartiteGraph) -> tuple[frozenset[str], ...]:
    """All perfect matchings, as edge-id sets, in a canonical order.

    Matchings are sorted by their tuple of edge positions.  The sets are
    built on every call; only the positions are kept.
    """
    ids = [eid for eid, _, _ in g.edges]
    return tuple(frozenset([ids[p] for p in m]) for m in matching_positions(g))


def perfect_matchings(model: DimerModel) -> tuple[frozenset[str], ...]:
    return enumerate_matchings(from_model(model))


def _max_matching(g: BipartiteGraph) -> list[int] | None:
    """One perfect matching as each white's black, or ``None`` if there is none."""
    if len(g.blacks) != len(g.whites):
        return None
    _, black_nbrs, _ = g._numbered
    mate = [-1] * len(g.whites)
    for b in range(len(g.blacks)):
        came_from: dict[int, tuple[int, int]] = {}  # white -> (black, its white)
        todo, seen, end = [(b, -1)], 0, -1
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
            return None  # b stays unmatched
        while end >= 0:  # flip the path: each black on it takes its new white
            mate[end], end = came_from[end]
    return mate


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


def r_charge_average(g: BipartiteGraph) -> dict[str, Fraction]:
    """Edge charges ``2 * (matchings through e) / (all matchings)``.

    Exact rationals; every vertex's incident charges sum to 2, which is
    checked.  Raises :class:`DegenerateModelError` when the graph has no
    perfect matching at all.
    """
    found = matching_positions(g)
    if not found:
        raise DegenerateModelError("no perfect matchings")
    through = [0] * len(g.edges)
    for m in found:
        for p in m:
            through[p] += 1
    total = len(found)
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
