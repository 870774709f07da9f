"""Dual quivers of dimer models.

The quiver dual to a dimer model has one vertex per face and one arrow per
edge.  The arrow dual to edge ``e`` keeps the edge's id and runs from the
face left of the white-to-black dart to the face left of the black-to-white
dart, so that arrows cross their edges with the white vertex on the left.

Around every white vertex the arrows dual to its edges in clockwise order
form a directed cycle, and likewise counterclockwise around every black
vertex.  Both next-maps are read off the face trace's dart successors
(``FaceTrace.next``, by dart number): the white one is its turn at the
white end, the black one the inverse of its turn at the black end.  Each
cycle is walked once per quiver (``Quiver.cycles``), which checks that it
closes and that each arrow's target is the next arrow's source.  Dropping
the arrow ``a`` from its white cycle leaves the path ``p_plus(a)``,
dropping it from its black cycle leaves ``p_minus(a)``; the relations of
the quiver algebra identify these two paths, one pair per arrow.
:func:`relations` reads them off the walk, and ``p_plus`` and ``p_minus``
look them up; the weight lattice reads the walk directly.

Paths are stored in composition order: ``arrows[-1]`` is traversed first.
Each arrow also carries a shift in ``Z^2`` (the face-gluing shift of its
edge); summing shifts over a cycle gives the cycle's displacement in the
universal cover, zero exactly for the cycles that bound.  The quiver also
keeps its edges' offsets, aligned with ``arrows``: summed over a perfect
matching they give its height, and the lattice splitting is built from
them.  Every walk over the arrows reads their ends as vertex positions
(``Quiver.ends``), built once per quiver.
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterable, NamedTuple

from .exceptions import InternalConsistencyError, InvalidModelError
from .model import Cell, DimerModel, _frozen, face_gluing_shifts, per_object, trace_faces


class Arrow(NamedTuple):
    id: str
    source: str
    target: str


class PathSeq(NamedTuple):
    """A composable run of arrows in composition order (rightmost first)."""

    arrows: tuple[str, ...]
    source: str
    target: str


class RelationPair(NamedTuple):
    """The two sides ``p_plus = p_minus`` of the relation attached to an arrow."""

    arrow: str
    plus: PathSeq
    minus: PathSeq


# the cycles of one next-map as arrow positions in walking order, each from
# its first arrow and in order of first arrow, with each arrow's cycle number
Cycles = tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]


@_frozen
class Quiver:
    vertices: tuple[str, ...]
    arrows: tuple[Arrow, ...]
    shifts: tuple[tuple[str, Cell], ...]  # (arrow id, shift); in arrow order from quiver_of
    # duals of the clockwise-next edge at the white / counterclockwise-next
    # at the black endpoint; None on a quiver built without a model, which
    # has no cycle structure
    white_next: tuple[tuple[str, str], ...] | None = None
    black_next: tuple[tuple[str, str], ...] | None = None
    # the dual edge's offset per arrow, aligned with arrows; None likewise
    offsets: tuple[Cell, ...] | None = None

    # indexes, built on first use; cached_property is not a field
    @cached_property
    def arrow_ids(self) -> tuple[str, ...]:
        return tuple(a.id for a in self.arrows)

    @cached_property
    def arrow_pos(self) -> dict[str, int]:
        """Each arrow's position in ``arrows``; refuses an id used twice."""
        return _positions(self.arrow_ids, "arrow id")

    @cached_property
    def vertex_pos(self) -> dict[str, int]:
        """Each vertex's position in ``vertices``; refuses a name used twice."""
        return _positions(self.vertices, "vertex")

    @cached_property
    def ends(self) -> tuple[tuple[int, int], ...]:
        """Each arrow's ``(source, target)`` as vertex positions, in arrow
        order; refuses an arrow at a vertex the quiver does not list."""
        pos = self.vertex_pos
        for a in self.arrows:
            if a.source not in pos or a.target not in pos:
                raise InvalidModelError(f"arrow {a.id!r} joins an unknown vertex")
        return tuple((pos[a.source], pos[a.target]) for a in self.arrows)

    @cached_property
    def _shift_by_id(self) -> dict[str, Cell]:
        return dict(self.shifts)

    def arrow(self, aid: str) -> Arrow:
        try:
            return self.arrows[self.arrow_pos[aid]]
        except KeyError:
            raise InvalidModelError(f"unknown arrow {aid!r}") from None

    def source(self, aid: str) -> str:
        return self.arrow(aid).source

    def target(self, aid: str) -> str:
        return self.arrow(aid).target

    def shift(self, aid: str) -> Cell:
        return self._shift_by_id[aid]

    @cached_property
    def cycles(self) -> tuple[Cycles, Cycles]:
        """The white and the black vertex cycles, walked once."""
        return _walk_cycles(self)


def _positions(names: tuple[str, ...], what: str) -> dict[str, int]:
    pos = {name: i for i, name in enumerate(names)}
    if len(pos) != len(names):
        twice = next(name for i, name in enumerate(names) if pos[name] != i)
        raise InvalidModelError(f"duplicate {what} {twice!r}")
    return pos


def _walk_cycles(q: Quiver) -> tuple[Cycles, Cycles]:
    """Walk each white and each black vertex cycle once.

    Checks once per cycle that it closes and that each arrow's target is the
    next arrow's source; then every arrow's complement path in its cycle
    composes and runs from its target to its source.
    """
    if q.white_next is None or q.black_next is None:
        raise InvalidModelError("quiver has no cycle structure")
    ids, pos, ends = q.arrow_ids, q.arrow_pos, q.ends

    def walk(pairs: tuple[tuple[str, str], ...]) -> Cycles:
        nxt = dict(pairs)
        num = [-1] * len(ids)
        cycles = []
        for start in range(len(ids)):
            if num[start] >= 0:
                continue
            cycle, at = [], start
            while not cycle or at != start:
                if at < 0 or num[at] >= 0:
                    raise InternalConsistencyError(
                        f"cycle through {ids[start]!r} does not close"
                    )
                num[at] = len(cycles)
                cycle.append(at)
                at = pos.get(nxt.get(ids[at]), -1)
            for a, b in zip(cycle, cycle[1:] + cycle[:1]):
                if ends[a][1] != ends[b][0]:
                    t, s = q.vertices[ends[a][1]], q.vertices[ends[b][0]]
                    raise InternalConsistencyError(
                        f"cycle through {ids[start]!r} breaks at {ids[b]!r}: "
                        f"{ids[a]!r} ends at {t!r}, {ids[b]!r} leaves {s!r}"
                    )
            cycles.append(tuple(cycle))
        return tuple(cycles), tuple(num)

    return walk(q.white_next), walk(q.black_next)


@per_object
def quiver_of(model: DimerModel) -> Quiver:
    """The quiver dual to a dimer model, with its cycle maps, shifts and
    edge offsets."""
    tr = trace_faces(model)
    fids = tuple(f.id for f in tr.faces)
    ids = [e.id for e in model.edges]
    arrows = tuple(
        Arrow(eid, fids[s], fids[t]) for eid, s, t in zip(ids, tr.face[1::2], tr.face[0::2])
    )
    shifts = tuple(face_gluing_shifts(model).items())
    # the face walk turns clockwise at a black vertex, its cycle the other way
    black_prev = {d >> 1: p for p, d in enumerate(tr.next[1::2])}
    wn = tuple((eid, ids[d >> 1]) for eid, d in zip(ids, tr.next[0::2]))
    bn = tuple((eid, ids[black_prev[p]]) for p, eid in enumerate(ids))
    return Quiver(fids, arrows, shifts, wn, bn, tuple(e.offset for e in model.edges))


@per_object
def relations(q: Quiver) -> tuple[RelationPair, ...]:
    """One relation pair per arrow, in arrow order: each side is the rest of
    the arrow's vertex cycle."""
    ids, arrows = q.arrow_ids, q.arrows
    sides = []  # the plus sides, then the minus sides, in arrow order
    for cycles, _ in q.cycles:
        side = [None] * len(ids)
        for cycle in cycles:
            # in composition order, twice: the rest of the cycle after its
            # k-th arrow is the n - 1 arrows from position n - k
            n, back = len(cycle), tuple(ids[i] for i in reversed(cycle)) * 2
            for k, i in enumerate(cycle):
                a = arrows[i]
                side[i] = PathSeq(back[n - k:2 * n - k - 1], a.target, a.source)
        sides.append(side)
    return tuple(map(RelationPair, ids, *sides))


def p_plus(q: Quiver, aid: str) -> PathSeq:
    """The white cycle at ``a``'s edge with ``a`` removed: a path t(a) -> s(a)."""
    return relations(q)[q.arrow_pos[q.arrow(aid).id]].plus


def p_minus(q: Quiver, aid: str) -> PathSeq:
    """The black cycle at ``a``'s edge with ``a`` removed: a path t(a) -> s(a)."""
    return relations(q)[q.arrow_pos[q.arrow(aid).id]].minus


def check_support(q: Quiver, support: Iterable[str]) -> frozenset[str]:
    sup = frozenset(support)
    for aid in sup - q.arrow_pos.keys():
        q.arrow(aid)  # raises on the unknown arrow
    return sup
