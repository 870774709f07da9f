"""Perfect matchings and non-degeneracy of bipartite graphs.

A dimer model is non-degenerate when every edge lies in some perfect
matching (and a perfect matching exists).  Three independent tests are
provided: forcing each edge and completing a matching around it
(``per-edge``), full enumeration with averaged charges (``r-charge``), and
the strict Hall condition on both sides (``strong-marriage``).  On connected
graphs with both colors present they agree; the enumeration- and
subset-based tests carry capacity bounds.

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
    def _by_black(self) -> dict[str, tuple[tuple[str, str], ...]]:
        out: dict[str, tuple[tuple[str, str], ...]] = {b: () for b in self.blacks}
        for eid, b, w in self.edges:
            out[b] = out[b] + ((eid, w),)
        return out


@per_object
def from_model(model: DimerModel) -> BipartiteGraph:
    return BipartiteGraph(
        tuple(v.id for v in model.vertices if v.color == "black"),
        tuple(v.id for v in model.vertices if v.color == "white"),
        tuple((e.id, e.black, e.white) for e in model.edges),
    )


def _too_many(limit: int) -> CapacityError:
    return CapacityError(
        f"more than {limit} perfect matchings; raise the limit "
        "or use a non-enumerating method"
    )


def _search(g: BipartiteGraph, limit: int) -> tuple[tuple[int, ...], ...]:
    """Every perfect matching as its sorted tuple of edge positions, sorted.

    Blacks and whites are numbered and the free whites are one bitmask.
    Each step branches on the remaining black with the fewest free
    neighbours (fail-first) and gives up when some black or free white
    has no partner left.
    """
    n = len(g.blacks)
    if n != len(g.whites):
        return ()
    bpos = {b: i for i, b in enumerate(g.blacks)}
    wpos = {w: i for i, w in enumerate(g.whites)}
    choices: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    nbr_mask = [0] * n
    for p, (_, b, w) in enumerate(g.edges):
        bit = 1 << wpos[w]
        choices[bpos[b]].append((p, bit))
        nbr_mask[bpos[b]] |= bit
    found: list[tuple[int, ...]] = []
    chosen: list[int] = []

    def extend(remaining: list[int], free: int) -> None:
        if not remaining:
            found.append(tuple(sorted(chosen)))
            if len(found) > limit:
                raise _too_many(limit)
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


_POSITIONS = f"{__name__}.matching_positions"


def matching_positions(
    g: BipartiteGraph, limit: int = MATCHING_CAP
) -> tuple[tuple[int, ...], ...]:
    """All perfect matchings as sorted tuples of edge positions in ``g.edges``,
    in canonical (lexicographic) order.

    The search runs once per graph; its result is kept in the graph's
    instance ``__dict__``.  Raises :class:`CapacityError` when more than
    ``limit`` matchings exist, whether or not the search has run before.
    """
    memo = g.__dict__
    if _POSITIONS not in memo:
        memo[_POSITIONS] = _search(g, limit)
    found = memo[_POSITIONS]
    if len(found) > limit:
        raise _too_many(limit)
    return found


def enumerate_matchings(
    g: BipartiteGraph, limit: int = MATCHING_CAP
) -> tuple[frozenset[str], ...]:
    """All perfect matchings, as edge-id sets, in a canonical order.

    Matchings are sorted by their tuple of edge positions.  Raises
    :class:`CapacityError` when more than ``limit`` matchings exist.  The
    sets are built on every call; only the positions are kept.
    """
    ids = [eid for eid, _, _ in g.edges]
    return tuple(
        frozenset([ids[p] for p in m]) for m in matching_positions(g, limit)
    )


def perfect_matchings(model: DimerModel) -> tuple[frozenset[str], ...]:
    return enumerate_matchings(from_model(model))


def _max_matching(g: BipartiteGraph, skip: frozenset[str]) -> int:
    """Size of a maximum matching avoiding the vertices in ``skip``."""
    by_black = g._by_black
    match_w: dict[str, str] = {}

    def augment(b: str, seen: set[str]) -> bool:
        for eid, w in by_black[b]:
            if w in skip or w in seen:
                continue
            seen.add(w)
            if w not in match_w or augment(match_w[w], seen):
                match_w[w] = b
                return True
        return False

    size = 0
    for b in g.blacks:
        if b not in skip and augment(b, set()):
            size += 1
    return size


def has_perfect_matching(g: BipartiteGraph) -> bool:
    return len(g.blacks) == len(g.whites) and _max_matching(
        g, frozenset()
    ) == len(g.blacks)


def has_matching_containing(g: BipartiteGraph, eid: str) -> bool:
    """Whether some perfect matching contains the edge ``eid``."""
    for e, b, w in g.edges:
        if e == eid:
            if len(g.blacks) != len(g.whites):
                return False
            return _max_matching(g, frozenset({b, w})) == len(g.blacks) - 1
    raise InvalidModelError(f"unknown edge {eid!r}")


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


def _strict_hall_one_side(
    side: tuple[str, ...], neighbor_bits: dict[str, int]
) -> bool:
    n = len(side)
    if n > SUBSET_CAP:
        raise CapacityError(
            f"strong-marriage enumerates 2^{n} subsets; "
            f"cap is 2^{SUBSET_CAP}, use method 'per-edge' instead"
        )
    for mask in range(1, (1 << n) - 1):
        nb = 0
        size = 0
        m = mask
        while m:
            i = (m & -m).bit_length() - 1
            nb |= neighbor_bits[side[i]]
            size += 1
            m &= m - 1
        if nb.bit_count() <= size:
            return False
    return True


def _strong_marriage(g: BipartiteGraph) -> bool:
    if len(g.blacks) != len(g.whites):
        return False
    wpos = {w: i for i, w in enumerate(g.whites)}
    bpos = {b: i for i, b in enumerate(g.blacks)}
    nb_of_black = {b: 0 for b in g.blacks}
    nb_of_white = {w: 0 for w in g.whites}
    for _, b, w in g.edges:
        nb_of_black[b] |= 1 << wpos[w]
        nb_of_white[w] |= 1 << bpos[b]
    return _strict_hall_one_side(g.blacks, nb_of_black) and _strict_hall_one_side(
        g.whites, nb_of_white
    )


def is_non_degenerate(g: BipartiteGraph, method: str = "per-edge") -> bool:
    """Whether a perfect matching exists and every edge lies in one.

    The three methods compute the same predicate in unrelated ways (on
    connected graphs); ``per-edge`` is the only one without a capacity
    bound.
    """
    if method == "per-edge":
        return has_perfect_matching(g) and all(
            has_matching_containing(g, eid) for eid, _, _ in g.edges
        )
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
