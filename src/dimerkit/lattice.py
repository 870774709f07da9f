"""The cocharacter lattice of a dimer quiver, its splitting, and cones.

Arrow weights that give both sides of every relation the same total form a
subgroup ``W`` of ``Z^arrows``; weights of the form "target minus source" of
a vertex potential are the gauge subgroup ``B`` inside it.  The quotient
``N = W / B`` is the cocharacter lattice of the torus acting on the moduli
spaces built later; for a dimer model on the torus it is free of rank 3.

Three distinguished functionals on ``W`` split ``N``: the *level* (the
common value of the vertex sums) and two height pairings ``pi_x, pi_y``.
A matching's height change is its total edge offset against a reference
matching's, so the pairings are read off the edge offsets in closed form
and give every matching cocharacter its height change on the nose.
Everything is computed exactly over the integers, and nothing is
eliminated: both lattices come from spanning forests.  The relation of an
arrow asks its white and its black vertex cycle to weigh the same, so ``W``
is read off the tiling's bipartite graph, whose vertices are the quiver's
vertex cycles (``Quiver.cycles``, walked once per quiver): a spanning forest
(the package's one breadth-first forest, ``model._spanning_forest``, with
its path walk ``model._add_forest_path``) gives a basis of level vectors and
fundamental cycles, in which a vector's coordinates are its levels and its
values at the non-tree arrows, the chords.  A closed walk enters each face
as often as it leaves it, so every gauge row has level 0 and its chord
values as coordinates: the gauge rows are the incidence matrix of the
directed graph on the faces whose edges are the chords.  An incidence
matrix is totally unimodular, so ``N`` has no torsion, and a second
spanning forest, grown over the faces along the chords, gives its basis:
the level vectors and the cycles of the chords that forest leaves out.
The lattice is kept on the quiver and the splitting keeps the inverse of
its matrix, so a functional pairs its nonzero entries with the free basis
and multiplies by that inverse once.
"""

from __future__ import annotations

from math import gcd
from typing import Iterable, Mapping, NamedTuple, Sequence

from .exceptions import (
    CapacityError,
    DegenerateModelError,
    InternalConsistencyError,
    InvalidModelError,
)
from .heights import LatticePolygon
from .model import _add_forest_path, _frozen, _spanning_forest, per_object
from .quiver import Quiver, check_support

IntMatrix = tuple[tuple[int, ...], ...]
Vec3 = tuple[int, int, int]

HILBERT_CAP = 10_000


# ---------------------------------------------------------------------------
# 3x3 integer inverses


def adjugate3(m: Sequence[Sequence[int]]) -> list[list[int]]:
    """Adjugate of a 3x3 matrix, ``m @ adj = det(m) I``: divided by a
    determinant of +-1, the integer inverse."""
    (a, b, c), (d, e, f), (g, h, i) = m
    return [
        [e * i - f * h, c * h - b * i, b * f - c * e],
        [f * g - d * i, a * i - c * g, c * d - a * f],
        [d * h - e * g, b * g - a * h, a * e - b * d],
    ]


def _unimodular_inverse(m: Sequence[Sequence[int]]) -> tuple[int, IntMatrix | None]:
    """The determinant of a 3x3 integer matrix, read off its adjugate, and
    its integer inverse when that determinant is +-1 (None otherwise)."""
    adj = adjugate3(m)
    d = m[0][0] * adj[0][0] + m[0][1] * adj[1][0] + m[0][2] * adj[2][0]
    if d not in (1, -1):
        return d, None
    return d, tuple(tuple(x * d for x in row) for row in adj)


# ---------------------------------------------------------------------------
# the cocharacter lattice


def _kills_gauge(q: Quiver, entries: Iterable[tuple[int, int]]) -> bool:
    """Whether the ``(arrow position, weight)`` entries kill the gauge
    subgroup: as a flow on the arrows, their net inflow at every vertex is
    0.  Entries left out weigh 0."""
    net, ends = [0] * len(q.vertices), q.ends
    for i, x in entries:
        s, t = ends[i]
        net[t] += x
        net[s] -= x
    return not any(net)


class CocharLattice(NamedTuple):
    """The lattice ``N = W / B`` with a basis.

    ``w_basis`` spans the relation-compatible weights ``W`` inside
    ``Z^arrows``; ``free_basis`` lifts a basis of ``N`` back to ``W``.
    Both bases are one choice among many: the lattices they span (``W``,
    and ``N`` modulo ``B``) and the rank are the invariants.  ``torsion``
    lists the nontrivial invariant factors of ``N`` and is always empty:
    in the forest coordinates of ``W`` the gauge rows are the incidence
    matrix of a directed graph, which is totally unimodular, so every
    invariant factor is 0 or 1.
    """

    arrow_order: tuple[str, ...]
    w_basis: tuple[tuple[int, ...], ...]
    free_basis: tuple[tuple[int, ...], ...]
    torsion: tuple[int, ...]
    rank: int


def _forest_basis(q: Quiver) -> tuple[list[list[int]], list[int]]:
    """A basis of ``W`` from a spanning forest of the tiling's bipartite
    graph, with what reads a vector's coordinates in it.

    ``W`` holds the weights whose vertex-cycle sums are equal on each
    component of the graph, a level that is 0 on a component with unequal
    numbers of whites and blacks.  The breadth-first forest of
    :func:`~dimerkit.model._spanning_forest`, scanning each vertex's arrows
    in arrow order, gives per balanced component one level vector on the
    tree (leaves peeled towards the root, every vertex sum 1) and per
    non-tree arrow its alternating fundamental cycle: the cycle runs
    along the arrow from its white to its black end and back through the
    tree, and counts an arrow +1 walked from white to black, -1 the other
    way.

    The incidence matrix of a bipartite graph is totally unimodular, so
    these span ``W`` over the integers: a vector of ``W`` minus its levels
    times the level vectors is a cycle, and a cycle is the sum of its values
    at the non-tree arrows times their fundamental cycles.  Returns the
    basis (level vectors first) and the non-tree arrow positions, in basis
    order.

    The vertex cycles are numbered whites ``0..nw-1``, then blacks, each in
    the walk's order of first arrow.
    """
    (whites, white), (blacks, black) = q.cycles
    nw = len(whites)
    n = nw + len(blacks)
    ends = [(w, nw + b) for w, b in zip(white, black)]  # white -> black
    up, rank = _spanning_forest(n, ends)
    # peel each tree, its vertices ranked after its root: each vertex's tree
    # arrow to its parent takes what its sum still lacks, and the root is
    # left with (whites - blacks) * +-1
    levels, rest, vec = [], [1] * n, [0] * len(ends)
    for v in sorted(range(n), key=rank.__getitem__, reverse=True):
        if up[v] >= 0:
            vec[up[v]] = rest[v]
            rest[sum(ends[up[v]]) - v] -= rest[v]
            continue
        if rest[v] == 0:
            levels.insert(0, vec)
        vec = [0] * len(ends)

    chords = [i for i, (w, b) in enumerate(ends) if up[w] != i and up[b] != i]
    cycles = []
    for i in chords:
        cyc = [0] * len(ends)
        cyc[i] = 1
        _add_forest_path(ends, up, rank, ends[i][1], ends[i][0], cyc)
        cycles.append(cyc)
    return levels + cycles, chords


@per_object
def cochar_lattice(q: Quiver) -> CocharLattice:
    """``N = W / B`` from two spanning forests.

    A vector of ``W`` has its levels and its values at the chords as
    coordinates in the basis of :func:`_forest_basis`.  A gauge row sums to
    0 over every vertex cycle, a closed walk, so its coordinates are 0 at
    the levels and, at the chords, the incidence row of its face in the
    directed graph on the faces whose edges are the chords.  Incidence
    matrices are totally unimodular, so the quotient is free, and a
    spanning forest of that graph gives its basis.  The chord values of
    any vector are matched on the forest's chords by a face potential,
    built root outwards along each tree, which leaves a vector on the
    chords the forest leaves out; and a sum of gauge rows that vanishes on
    the forest's chords has a potential constant on each tree, so it is 0.
    ``N`` is therefore free on the level vectors and the cycles of the
    left-out chords, with no torsion.
    """
    w_basis, chords = _forest_basis(q)
    ends: list[tuple[int, int] | None] = [None] * len(q.arrows)
    for i in chords:
        ends[i] = q.ends[i]
    up, _ = _spanning_forest(len(q.vertices), ends)
    spanned = set(up)
    basis = tuple(map(tuple, w_basis))
    levels = len(basis) - len(chords)
    free_basis = basis[:levels] + tuple(
        cyc for i, cyc in zip(chords, basis[levels:]) if i not in spanned
    )
    return CocharLattice(q.arrow_ids, basis, free_basis, (), len(free_basis))


def pm_cocharacter(q: Quiver, matching: Iterable[str]) -> dict[str, int]:
    """Indicator weight of a perfect matching's arrows; lies in W.

    The arrows are a perfect matching exactly when every vertex cycle of
    the walk meets them once: each cycle is a vertex of the tiling.
    """
    m = check_support(q, matching)
    vec = [int(aid in m) for aid in q.arrow_ids]
    for cycles, _ in q.cycles:
        for cycle in cycles:
            if (k := sum(vec[i] for i in cycle)) != 1:
                raise InvalidModelError(
                    f"support is not a perfect matching: the vertex cycle "
                    f"through {q.arrow_ids[cycle[0]]!r} meets it {k} times"
                )
    return dict(zip(q.arrow_ids, vec))


def _level_vector(q: Quiver) -> tuple[int, ...]:
    """The indicator of arrow 0's black cycle, the walk's first."""
    _, (blacks, _) = q.cycles
    first = set(blacks[0])
    return tuple(int(i in first) for i in range(len(q.arrows)))


# ---------------------------------------------------------------------------
# splitting by a reference matching


@_frozen
class Splitting:
    """Coordinates ``(pi_x, pi_y, level)`` identifying ``N`` with ``Z^3``.

    The pairings are arrow-indexed integer vectors read off the edge
    offsets; applied to the cocharacter of a matching they give its height
    change against ``base`` and level 1.  ``inverse`` is the integer inverse
    of the unimodular matrix whose rows are ``pi_x, pi_y, level`` on the
    lattice's free basis; ``iso_det`` is that matrix's determinant.
    """

    base: frozenset[str]
    arrow_order: tuple[str, ...]
    pi_x: tuple[int, ...]
    pi_y: tuple[int, ...]
    level: tuple[int, ...]
    iso_det: int
    inverse: IntMatrix


def split_by_reference(q: Quiver, base: Iterable[str]) -> Splitting:
    """Split ``N`` by a reference matching into ``Z^2 x Z`` (heights, level).

    The pairings come from the edge offsets in closed form,
    ``pi = offset_sum(base) * level - offset``: on a matching's cocharacter
    the level is 1 and the offset functional is the matching's total
    offset, so ``pi`` is its height change against ``base``.  Every face
    closes up in the cover, so the offset functional kills the gauge
    subgroup, as the level (a cycle) does; that is checked once here.
    Together with the level the pairings are then certified to identify
    the cocharacter lattice with ``Z^3``.
    """
    b = frozenset(base)
    pm_cocharacter(q, b)  # validates that base really is a matching
    if q.offsets is None:
        raise InvalidModelError("quiver has no edge offsets")
    lev = _level_vector(q)
    pos = q.arrow_pos
    sx = sum(q.offsets[pos[aid]][0] for aid in b)
    sy = sum(q.offsets[pos[aid]][1] for aid in b)
    pi_x = tuple(sx * l - o[0] for l, o in zip(lev, q.offsets))
    pi_y = tuple(sy * l - o[1] for l, o in zip(lev, q.offsets))
    if not all(_kills_gauge(q, enumerate(f)) for f in (pi_x, pi_y, lev)):
        raise InternalConsistencyError(
            "splitting does not kill the gauge subgroup"
        )

    lat = cochar_lattice(q)
    if lat.rank != 3:
        raise DegenerateModelError(
            f"cocharacter lattice is not free of rank 3 "
            f"(rank {lat.rank}, torsion {lat.torsion})"
        )
    t = tuple(
        tuple(sum(f * n for f, n in zip(func, fb)) for fb in lat.free_basis)
        for func in (pi_x, pi_y, lev)
    )
    d, inverse = _unimodular_inverse(t)
    if inverse is None:
        raise InternalConsistencyError(
            f"splitting is not a lattice isomorphism (determinant {d})"
        )
    return Splitting(b, q.arrow_ids, pi_x, pi_y, lev, d, inverse)


def express_functional(
    q: Quiver, split: Splitting, functional: Mapping[str, int]
) -> Vec3:
    """Coefficients of an N-functional over ``(pi_x, pi_y, level)``.

    The input must cover exactly the arrows and kill the gauge subgroup,
    and the splitting must be one of ``q``'s (its arrow order is checked):
    its inverse is taken on ``q``'s free basis.  The result ``(a, b, c)``
    satisfies ``f = a pi_x + b pi_y + c level`` on all of ``W``.  Both
    sides kill the gauge subgroup ``B`` and agree on the lattice's free
    basis, and ``W`` is spanned by that basis and ``B``.  The gauge test
    and the pairings with the free basis read only the nonzero entries: a
    chart character is one arrow and a tree path.
    """
    if split.arrow_order != q.arrow_ids:
        raise InvalidModelError("splitting belongs to another quiver")
    if functional.keys() != q.arrow_pos.keys():
        raise InvalidModelError("weights must cover exactly the arrows")
    nonzero = [(q.arrow_pos[aid], x) for aid, x in functional.items() if x]
    if not _kills_gauge(q, nonzero):
        raise InvalidModelError("functional does not kill the gauge subgroup")
    lat = cochar_lattice(q)
    if lat.rank != 3:
        raise DegenerateModelError("cocharacter lattice is not free of rank 3")
    # u = f . T^-1 for the splitting's matrix T, with f on the free basis
    f0, f1, f2 = (sum(x * fb[i] for i, x in nonzero) for fb in lat.free_basis)
    return tuple(f0 * a + f1 * b + f2 * c for a, b, c in zip(*split.inverse))


# ---------------------------------------------------------------------------
# cones over polygons


class Cone3(NamedTuple):
    """A pointed full 3-dimensional cone; rays primitive, cyclically ordered."""

    rays: tuple[Vec3, ...]


def _primitive(v: Vec3) -> Vec3:
    g = gcd(gcd(abs(v[0]), abs(v[1])), abs(v[2]))
    if g == 0:
        raise InvalidModelError("zero ray")
    return (v[0] // g, v[1] // g, v[2] // g)


def cone_over_polygon(polygon: LatticePolygon) -> Cone3:
    """The cone over ``polygon x {1}``; needs a genuinely 2-dimensional polygon."""
    if len(polygon.vertices) < 3:
        raise DegenerateModelError(
            "polygon is degenerate; it spans no 3-dimensional cone"
        )
    return Cone3(tuple((x, y, 1) for x, y in polygon.vertices))


def _cross(a: Vec3, b: Vec3) -> Vec3:
    return (
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    )


def _dot3(a: Vec3, b: Vec3) -> int:
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def dual_cone(cone: Cone3) -> Cone3:
    """Generators of the dual cone, one per facet, in facet order.

    Facets of a pointed 3-cone with cyclically ordered rays are spanned by
    consecutive ray pairs; their inward normals generate the dual.  A ray
    listed twice (up to a positive multiple), as in an order that doubles
    back along an edge, is refused, and so is a ray that pairs with the
    normals' sum to 0, as rays in a plane do.
    """
    rays = cone.rays
    if len(rays) < 3:
        raise InvalidModelError("cone needs at least three rays")
    if len(set(map(_primitive, rays))) < len(rays):
        raise InvalidModelError("a ray is listed twice")
    gens = []
    for i, r in enumerate(rays):
        n = _cross(r, rays[(i + 1) % len(rays)])
        sides = [_dot3(n, other) for other in rays]
        if min(sides) < 0 < max(sides):
            raise InvalidModelError(
                "rays are not the cyclically ordered extreme rays of a cone"
            )
        gens.append(_primitive(n if max(sides) > 0 else (-n[0], -n[1], -n[2])))
    w = tuple(map(sum, zip(*gens)))
    if any(_dot3(w, r) <= 0 for r in rays):
        raise InvalidModelError("rays span no pointed 3-dimensional cone")
    return Cone3(tuple(gens))


def hilbert_basis(cone: Cone3) -> tuple[Vec3, ...]:
    """The unique minimal generating set of the cone's semigroup of
    lattice points, sorted by ``(Σ_r ⟨p, r⟩, p)`` over the cone's rays.

    One scan keeps each nonzero lattice point ``p`` of the cone in the box
    the rays' coordinates bound, in the order of ``w(p) = ⟨p, Σ n⟩`` over
    the facet normals ``n``, unless ``p - q`` lies in the cone for a ``q``
    kept before it.  The kept points are the irreducibles:

    1. ``w`` is an integer, at least 1 on the cone minus 0: the normals
       span ``R³``, as :func:`dual_cone` accepts only pointed full cones.
    2. Each irreducible ``h`` lies in the box: by Carathéodory ``h = Σ λ_i
       r_i`` over at most three rays, every ``λ_i >= 0``, and a ``λ_i >= 1``
       leaves ``h - r_i`` in the cone, so ``h = r_i``.
    3. A reducible ``p = a + c``, ``a`` and ``c`` nonzero in the cone, is
       dropped: an irreducible summand ``h`` of ``a`` has ``w(h) < w(p)``,
       lies in the box, is kept by induction on ``w``, and leaves
       ``p - h = (a - h) + c`` in the cone.
    4. An irreducible ``p`` is kept: a ``q`` kept before it is not ``p``,
       so ``p - q`` in the cone would split ``p`` into two nonzero points.

    By induction on ``w`` they generate the cone's lattice points.  Raises
    :class:`CapacityError` beyond ``HILBERT_CAP`` candidates.
    """
    normals = dual_cone(cone).rays

    def member(p: Vec3) -> bool:
        return all(_dot3(p, n) >= 0 for n in normals)

    lo = [sum(min(0, g[k]) for g in cone.rays) for k in range(3)]
    hi = [sum(max(0, g[k]) for g in cone.rays) for k in range(3)]
    count = (hi[0] - lo[0] + 1) * (hi[1] - lo[1] + 1) * (hi[2] - lo[2] + 1)
    if count > HILBERT_CAP:
        raise CapacityError(
            f"{count} candidate points exceed the cap of {HILBERT_CAP}"
        )
    w = tuple(map(sum, zip(*normals)))
    candidates = sorted(
        (
            p
            for x in range(lo[0], hi[0] + 1)
            for y in range(lo[1], hi[1] + 1)
            for z in range(lo[2], hi[2] + 1)
            if (p := (x, y, z)) != (0, 0, 0) and member(p)
        ),
        key=lambda p: _dot3(p, w),
    )
    basis: list[Vec3] = []
    for p in candidates:
        if not any(member((p[0] - q[0], p[1] - q[1], p[2] - q[2])) for q in basis):
            basis.append(p)
    grading = tuple(map(sum, zip(*cone.rays)))
    return tuple(sorted(basis, key=lambda p: (_dot3(p, grading), p)))
