"""Integer linear algebra and the cocharacter lattice of a dimer quiver.

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
Everything is computed exactly over the integers.  The relation of an
arrow asks its white and its black vertex cycle to weigh the same, so ``W``
is read off the tiling's bipartite graph, whose vertices are the quiver's
vertex cycles (``Quiver.cycles``, walked once per quiver): a spanning forest
(the package's one breadth-first forest, ``model._spanning_forest``, with
its path walk ``model._add_forest_path``) gives a basis of level vectors and
fundamental cycles, in which a vector's
coordinates are its levels and its values at the non-tree arrows.  A closed
walk enters each face as often as it leaves it, so every gauge row has
level 0 and its chord values as coordinates.  The lattice is kept on the
quiver, and one self-contained Smith normal form of the ``F`` gauge rows'
coordinates gives ``N``; the splitting keeps the inverse of its matrix, so
expressing a functional is one product.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Iterable, Mapping, Sequence

from .exceptions import (
    CapacityError,
    DegenerateModelError,
    InternalConsistencyError,
    InvalidModelError,
)
from .heights import LatticePolygon
from .model import _add_forest_path, _spanning_forest, per_object
from .quiver import Quiver, check_support

IntMatrix = tuple[tuple[int, ...], ...]
Vec3 = tuple[int, int, int]

HILBERT_CAP = 10_000


# ---------------------------------------------------------------------------
# Smith normal form and friends


def _identity(n: int) -> list[list[int]]:
    return [[int(i == j) for j in range(n)] for i in range(n)]


@dataclass(frozen=True)
class SNFResult:
    """Decomposition ``U @ M @ V == S`` with ``U, V`` unimodular.

    ``S`` is diagonal with non-negative entries, each dividing the next.
    ``v_inv`` is the inverse of ``V``.
    """

    u: IntMatrix
    s: IntMatrix
    v: IntMatrix
    v_inv: IntMatrix

    @property
    def diagonal(self) -> tuple[int, ...]:
        return tuple(
            self.s[i][i] for i in range(min(len(self.s), len(self.s[0]) if self.s else 0))
        )

    @property
    def rank(self) -> int:
        return sum(1 for d in self.diagonal if d)


def smith_normal_form(matrix: Sequence[Sequence[int]], ncols: int | None = None) -> SNFResult:
    """Smith normal form over the integers, with both transforms and the
    inverse of the column transform.

    Pivoting is deterministic: the entry of least absolute value wins, ties
    broken by row then column.  ``ncols`` is only needed for matrices with
    no rows.
    """
    a = [list(map(int, row)) for row in matrix]
    m = len(a)
    n = len(a[0]) if a else (ncols if ncols is not None else 0)
    if any(len(row) != n for row in a):
        raise InvalidModelError("ragged matrix")
    u = _identity(m)
    v, vinv = _identity(n), _identity(n)

    def row_swap(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def row_neg(i):
        a[i] = [-x for x in a[i]]
        u[i] = [-x for x in u[i]]

    def row_add(i, j, c):  # row i += c * row j
        a[i] = [x + c * y for x, y in zip(a[i], a[j])]
        u[i] = [x + c * y for x, y in zip(u[i], u[j])]

    def col_swap(i, j):
        for r in a:
            r[i], r[j] = r[j], r[i]
        for r in v:
            r[i], r[j] = r[j], r[i]
        vinv[i], vinv[j] = vinv[j], vinv[i]

    def col_add(i, j, c):  # col i += c * col j
        for r in a:
            r[i] += c * r[j]
        for r in v:
            r[i] += c * r[j]
        vinv[j] = [x - c * y for x, y in zip(vinv[j], vinv[i])]

    t = 0
    while t < min(m, n):
        best = None
        for i in range(t, m):
            for j in range(t, n):
                val = abs(a[i][j])
                if val and (best is None or val < best[0]):
                    best = (val, i, j)
            if best is not None and best[0] == 1:
                break  # no later entry is smaller than a unit
        if best is None:
            break
        _, pi, pj = best
        if pi != t:
            row_swap(t, pi)
        if pj != t:
            col_swap(t, pj)
        if a[t][t] < 0:
            row_neg(t)
        dirty = False
        for i in range(t + 1, m):
            if a[i][t]:
                row_add(i, t, -(a[i][t] // a[t][t]))
                if a[i][t]:
                    dirty = True
        for j in range(t + 1, n):
            if a[t][j]:
                col_add(j, t, -(a[t][j] // a[t][t]))
                if a[t][j]:
                    dirty = True
        if dirty:
            continue
        if a[t][t] > 1:  # a unit divides every entry
            fix = next(
                (i for i in range(t + 1, m)
                 if any(a[i][j] % a[t][t] for j in range(t + 1, n))),
                None,
            )
            if fix is not None:
                row_add(t, fix, 1)  # drag the offending row up and keep reducing
                continue
        t += 1

    freeze = lambda rows: tuple(tuple(r) for r in rows)
    return SNFResult(freeze(u), freeze(a), freeze(v), freeze(vinv))


def adjugate3(m: Sequence[Sequence[int]]) -> list[list[int]]:
    """Adjugate of a 3x3 matrix, ``m @ adj = det(m) I``: divided by a
    determinant of +-1, the integer inverse."""
    def cof(i: int, j: int) -> int:
        return (
            m[(i + 1) % 3][(j + 1) % 3] * m[(i + 2) % 3][(j + 2) % 3]
            - m[(i + 1) % 3][(j + 2) % 3] * m[(i + 2) % 3][(j + 1) % 3]
        )

    return [[cof(j, i) for j in range(3)] for i in range(3)]


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


def _vec(q: Quiver, weights: Mapping[str, object]) -> tuple:
    if set(weights) != set(q.arrow_ids):
        raise InvalidModelError("weights must cover exactly the arrows")
    return tuple(weights[aid] for aid in q.arrow_ids)


def _kills_gauge(q: Quiver, vec: Sequence[int]) -> bool:
    """Whether the arrow-indexed ``vec`` kills the gauge subgroup: as a
    flow on the arrows, its net inflow at every vertex is 0."""
    net = dict.fromkeys(q.vertices, 0)
    for a, x in zip(q.arrows, vec):
        net[a.target] += x
        net[a.source] -= x
    return not any(net.values())


@dataclass(frozen=True)
class CocharLattice:
    """The lattice ``N = W / B`` with a basis of its free part.

    ``w_basis`` spans the relation-compatible weights ``W`` inside
    ``Z^arrows``; ``free_basis`` lifts a basis of the free part of ``N``
    back to ``W``.  ``torsion`` lists the nontrivial invariant factors.
    Both bases are one choice among many: the lattices they span (``W``,
    and ``N`` modulo ``B``), the torsion and the rank are the invariants.
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
    """``N = W / B`` from a spanning-forest basis of ``W``.

    A vector of ``W`` has its levels and its values at the non-tree arrows
    as coordinates in that basis.  A gauge row sums to 0 over every vertex
    cycle, a closed walk, so its coordinates are 0 at the levels and its
    values at the non-tree arrows; one Smith form of those ``F`` rows then
    gives ``N``.
    """
    w_basis, chords = _forest_basis(q)
    k = len(w_basis)
    zeros = [0] * (k - len(chords))
    chord_arrows = [q.arrows[i] for i in chords]
    coords = [
        zeros + [(a.target == v) - (a.source == v) for a in chord_arrows]
        for v in q.vertices
    ]
    res = smith_normal_form(coords, ncols=k)
    torsion = tuple(d for d in res.diagonal if d > 1)
    rank = k - res.rank
    free_basis = []
    for row in res.v_inv[res.rank:]:  # coordinates in the W basis
        vec = [0] * len(q.arrows)
        for c, wb in zip(row, w_basis):
            if c:
                vec = [x + c * y for x, y in zip(vec, wb)]
        free_basis.append(tuple(vec))
    return CocharLattice(
        q.arrow_ids, tuple(map(tuple, w_basis)), tuple(free_basis), torsion, rank
    )


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


@dataclass(frozen=True)
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
    if not all(_kills_gauge(q, f) for f in (pi_x, pi_y, lev)):
        raise InternalConsistencyError(
            "splitting does not kill the gauge subgroup"
        )

    lat = cochar_lattice(q)
    if lat.rank != 3 or lat.torsion:
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

    The input must kill the gauge subgroup; the result ``(a, b, c)``
    satisfies ``f = a pi_x + b pi_y + c level`` on all of ``W``.  Both
    sides kill the gauge subgroup ``B`` and agree on the lattice's free
    basis, and ``W`` is spanned by that basis and ``B``.
    """
    fvec = _vec(q, functional)
    if not _kills_gauge(q, fvec):
        raise InvalidModelError("functional does not kill the gauge subgroup")
    lat = cochar_lattice(q)
    if lat.rank != 3 or lat.torsion:
        raise DegenerateModelError("cocharacter lattice is not free of rank 3")
    rhs = [sum(f * n for f, n in zip(fvec, fb)) for fb in lat.free_basis]
    # u . T = rhs for the splitting's matrix T, so u = rhs . T^-1
    inv = split.inverse
    u = [sum(rhs[k] * inv[k][c] for k in range(3)) for c in range(3)]
    return (u[0], u[1], u[2])


# ---------------------------------------------------------------------------
# cones over polygons


@dataclass(frozen=True)
class Cone3:
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
    consecutive ray pairs; their inward normals generate the dual.
    """
    rays = cone.rays
    if len(rays) < 3:
        raise InvalidModelError("cone needs at least three rays")
    gens = []
    for i, r in enumerate(rays):
        n = _cross(r, rays[(i + 1) % len(rays)])
        sides = [_dot3(n, other) for other in rays]
        if all(s <= 0 for s in sides):
            n = (-n[0], -n[1], -n[2])
            sides = [-s for s in sides]
        if any(s < 0 for s in sides):
            raise InvalidModelError(
                "rays are not the cyclically ordered extreme rays of a cone"
            )
        gens.append(_primitive(n))
    return Cone3(tuple(gens))


def hilbert_basis(cone: Cone3) -> tuple[Vec3, ...]:
    """The unique minimal generating set of the cone's semigroup of
    lattice points.

    Candidates are the lattice points of the generators' bounding zonotope
    box; each is kept when no earlier-kept point can be subtracted without
    leaving the cone.  Generation of every candidate by the result is then
    verified.  Raises :class:`CapacityError` beyond ``HILBERT_CAP``
    candidates.
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
    grading = lambda p: sum(_dot3(p, r) for r in cone.rays)
    candidates = sorted(
        (
            p
            for x in range(lo[0], hi[0] + 1)
            for y in range(lo[1], hi[1] + 1)
            for z in range(lo[2], hi[2] + 1)
            if (p := (x, y, z)) != (0, 0, 0) and member(p)
        ),
        key=lambda p: (grading(p), p),
    )
    basis: list[Vec3] = []
    for p in candidates:
        reducible = any(
            member((p[0] - b[0], p[1] - b[1], p[2] - b[2]))
            and (p[0] - b[0], p[1] - b[1], p[2] - b[2]) != (0, 0, 0)
            for b in basis
        )
        if not reducible:
            basis.append(p)

    # every candidate must decompose into basis elements
    generated: dict[Vec3, bool] = {(0, 0, 0): True}

    def can_make(p: Vec3) -> bool:
        if p in generated:
            return generated[p]
        generated[p] = False  # cycle guard; grading strictly drops anyway
        ok = any(
            member(rest := (p[0] - b[0], p[1] - b[1], p[2] - b[2]))
            and can_make(rest)
            for b in basis
        )
        generated[p] = ok
        return ok

    for p in candidates:
        if not can_make(p):
            raise InternalConsistencyError(
                f"candidate {p} is not generated by the computed basis"
            )
    return tuple(basis)
