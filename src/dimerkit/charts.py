"""Torus-fixed points of the moduli spaces and their toric charts.

A 0/1 representation of the dual quiver is a fixed-point candidate when it
satisfies the relations, its support lifts consistently to the universal
cover (every support cycle has zero cover shift), and it is stable for the
chosen weight, which also makes the support connect all quiver vertices.
Candidates come from the θ-stable perfect matchings, those whose
complements are stable: each candidate's support is the complement of
three of them whose heights span a unit triangle of the height polygon
(Ishii–Ueda).  That construction gives the first two conditions for free.
The complement of a union of matchings keeps both sides of an arrow's
relation exactly when the arrow lies in all three matchings, and a support
cycle pairs to zero with two independent height differences, so its cover
shift vanishes; only stability is tested, and only on proposed supports.
The stable matchings themselves are never tested.  An integer arrow flow
whose inflow minus outflow is the weight (``stability._lift``) lifts each
matching over its height.  A stable matching is the strict, unique least
lift at its height.  No matching lies below the plane through the lifts
of a stable triple.  The three matchings of a stable support are stable
(:func:`enumerate_fixed_candidates` proves all three).  So the proposals
are the unit triangles of unique least lifts with no least lift below
their plane.  The faces' cells and the chart characters are read off a
spanning forest of the support (``model._spanning_forest``), grown from
the arrows' ends (``Quiver.ends``) for a kept candidate and again for its
chart; a support cycle has no cover shift and pairs to zero with ``W``, so
any other tree gives the same.

Each candidate glues the lifted faces of the model into a fundamental
domain whose translates tile the plane.  Its boundary runs along the zero
edges that meet another zero edge; an isolated zero edge lies inside the
domain.  The zero edges are the union of three perfect matchings, so their
multiplicities sum to 3 at every vertex: one isolated edge, or crowded
edges of multiplicities 1 and 2, or 1, 1 and 1.  A rim path between two
corners alternates 1, 2, ..., 1 and joins opposite colours, and Euler's
formula leaves six trivalent corners: every chart is affine 3-space.  The
walk runs counterclockwise exactly when the edge offsets wrap the faces
once around the torus with the rotation's orientation, which one integer
per model decides: the faces' signed cell area
(:func:`~dimerkit.model.faces_area2`), the same one that validation's
``homology-span`` reads.  Domains are built on the face trace's dart
numbers (``model.trace_faces``): an edge is interior when its two darts
lift to one cell, and since that is its only interior lift, the walk's
spin test at cell ``c`` asks whether the dart's edge is interior and
``c`` is the dart's own tail cell.

The coordinate functions of a chart are read off at the first boundary
corner: one character per zero edge there, gauge-normalised to vanish on
the support.  That is a functional on the weight lattice ``W`` with no
check: ``W`` is spanned by the gauge subgroup and the three matchings'
cocharacters (their classes are a basis of ``N``, which the splitting
certifies), and a support cycle meets none of their arrows.  Expressed
in the splitting's coordinates the characters become rows of an integer
matrix; the chart's cone is spanned by the columns of its inverse.
Collecting the cones of all candidates and checking that their level-one
cross-sections triangulate the height polygon certifies that the chamber
resolves the cone over the polygon crepantly.  For unimodular cones that
is exact integer bookkeeping: the triangles' edges must cancel in
opposite pairs down to the polygon's boundary.
"""

from __future__ import annotations

import random
from collections import Counter
from itertools import combinations
from math import gcd
from typing import NamedTuple, Sequence

from .exceptions import InternalConsistencyError, InvalidModelError
from .heights import (
    LatticePolygon,
    _cross,
    _packed_offsets,
    area2,
    char_poly,
    contains_point,
    newton_polygon,
)
from .lattice import (
    Splitting,
    Vec3,
    _unimodular_inverse,
    express_functional,
    split_by_reference,
)
from .matchings import perfect_matchings
from .model import Cell, Dart, DimerModel, ValidationCheck, ValidationReport
from .model import _add_forest_path, _dart_steps, _edge_ends, _frozen, _spanning_forest
from .model import faces_area2, trace_faces
from .quiver import Quiver, quiver_of
from .stability import Theta, _lift, is_stable, sample_generic_theta

CASE_SIX_OPPOSITE = "six-trivalent-opposite-colors"


@_frozen
class FixedPointCandidate:
    """A 0/1 representation that can carry a torus-fixed point.

    ``cells`` places the canonical lift of each face in the cover, with the
    first face at the origin; every support arrow steps from its source's
    cell to its target's cell by its cover shift.
    """

    support: frozenset[str]
    cells: tuple[tuple[str, Cell], ...]


def _support_forest(q: Quiver, support: frozenset[str]):
    """The arrows' ends (``Quiver.ends``), ``None`` off the support, and the
    spanning forest of the support they grow."""
    ends = [e if aid in support else None for aid, e in zip(q.arrow_ids, q.ends)]
    return ends, _spanning_forest(len(q.vertices), ends)


def enumerate_fixed_candidates(
    model: DimerModel, theta: Theta
) -> tuple[FixedPointCandidate, ...]:
    """All fixed-point candidates, in canonical support order.

    A perfect matching ``D`` is θ-stable when the 0/1 representation
    supported on the arrows off ``D`` is.  Every triple of θ-stable
    matchings whose heights span a triangle of ``area2`` 1 proposes the
    complement of their union as a support, and it is kept when it is
    stable.  The stable matchings are never tested: the integer lift
    ``g`` of θ (``stability._lift``) lifts each matching to
    ``λ(D) = Σ_{a∈D} g(a)`` over its height, and three facts, true for
    any weight, generic or not, find the triples among the least lifts.

    - Two matchings ``D``, ``D'`` at one height differ by a null-homologous
      cycle: ``[a∈D'] - [a∈D] = n(t(a)) - n(s(a))`` for an integer ``n``
      on the faces.  ``n`` never decreases along an arrow off ``D``, so
      every ``{n >= k}`` is closed, and ``λ(D') - λ(D) = Σ_k θ({n >= k})``,
      which is positive when ``D``'s complement is stable.  So a stable
      matching is the strict, unique least lift at its height.
    - Any other height is ``Σ b_i h(D_i)`` over a unit triangle's three
      matchings, with integer ``b`` summing to 1, and the same argument on
      the arrows off ``D₁ ∪ D₂ ∪ D₃`` puts no matching strictly below the
      plane through the three lifts when their support is stable.
    - A support stays stable when arrows join it, because fewer sets are
      closed, so the three matchings of a stable support are stable.

    So the triples of unique least lifts that span a unit triangle with no
    least lift strictly below their plane are tested, in matching order,
    and no others.  A kept support spans the quiver (a component and its
    complement would both be closed, of weights summing to zero), so the
    tree that places the faces is grown for kept supports only: each
    face's cell is its parent's plus or minus its tree arrow's cover shift.
    The relations and the gluing of every support arrow hold by
    construction (see the module docstring).  The matchings are the
    model's own enumeration, so ``MATCHING_CAP`` bounds the work, and each
    :func:`is_stable` test is one flow with no cap.
    """
    q = quiver_of(model)
    pms = perfect_matchings(model)
    if not pms:
        return ()
    arrows = frozenset(q.arrow_ids)
    lift = _lift(q, theta)
    # one integer per edge packs its offset, as char_poly packs it, and its
    # lift below that, shifted to be nonnegative: a matching's sum unpacks
    # to its total offset, which is its height up to sign and one common
    # translation, and its lift plus one common shift, none of which
    # changes a triangle's area or a plane's side
    k = len(pms[0])
    offsets, m = _packed_offsets(model, k)
    b = max(map(abs, lift), default=0)
    n = 2 * b * k + 1
    packed = {e.id: o * n + g + b for e, o, g in zip(model.edges, offsets, lift)}
    least: dict[int, tuple[int, int]] = {}  # height -> (lift, matching or -1 on a tie)
    for i, d in enumerate(pms):
        h, lam = divmod(sum(map(packed.__getitem__, d)), n)
        best = least.get(h)
        if best is None or lam < best[0]:
            least[h] = (lam, i)
        elif lam == best[0]:
            least[h] = (lam, -1)
    points = [(*divmod(h, m), lam, i) for h, (lam, i) in least.items()]
    unique = sorted((i, x, y, lam) for x, y, lam, i in points if i >= 0)

    found: list[FixedPointCandidate] = []
    for (i1, x1, y1, l1), (i2, x2, y2, l2), (i3, x3, y3, l3) in combinations(
        unique, 3
    ):
        det = (x2 - x1) * (y3 - y1) - (x3 - x1) * (y2 - y1)
        if abs(det) != 1:
            continue
        # the plane through the three lifts is lam = c - cx * x - cy * y
        cx = det * ((y2 - y1) * (l3 - l1) - (l2 - l1) * (y3 - y1))
        cy = det * ((l2 - l1) * (x3 - x1) - (x2 - x1) * (l3 - l1))
        c = cx * x1 + cy * y1 + l1
        if any(cx * x + cy * y + lam < c for x, y, lam, _ in points):
            continue
        support = arrows - pms[i1] - pms[i2] - pms[i3]
        if is_stable(q, support, theta):
            ends, (up, rank) = _support_forest(q, support)
            cells = [(0, 0)] * len(up)
            for v in sorted(range(len(up)), key=rank.__getitem__)[1:]:
                s, t = ends[up[v]]
                (x, y), (_, (dx, dy)) = cells[s + t - v], q.shifts[up[v]]
                cells[v] = (x + dx, y + dy) if v == t else (x - dx, y - dy)
            found.append(FixedPointCandidate(support, tuple(zip(q.vertices, cells))))

    pos = q.arrow_pos
    found.sort(key=lambda c: tuple(sorted(pos[aid] for aid in c.support)))
    return tuple(found)


# ---------------------------------------------------------------------------
# fundamental domains


def _domain(model: DimerModel, candidate: FixedPointCandidate) -> tuple:
    """The candidate's domain on the model's dart numbers: the face trace,
    each dart's tail cell, whether its edge is interior, and the boundary
    walk as dart numbers.  The faces on an edge's two sides glue when each
    of its darts ends at the cell its reverse starts from; then its black
    end, the ``+1`` dart's tail, has one cell, and the lift there is
    interior."""
    if faces_area2(model) != 2:
        raise InvalidModelError(
            "edge offsets do not wrap the faces once counterclockwise around "
            "the torus: the model fails homology-span"
        )
    tr = trace_faces(model)
    cells = dict(candidate.cells)
    if cells.keys() != {f.id for f in tr.faces}:
        raise InvalidModelError("candidate cells do not match the faces")
    fc = [cells[f.id] for f in tr.faces]
    tc = [(x + u, y + v) for (x, y), (u, v) in zip(tr.cell, map(fc.__getitem__, tr.face))]
    hc = [(x + u, y + v) for (x, y), (u, v) in zip(tc, _dart_steps(model))]
    inner = [h == tc[d ^ 1] for d, h in enumerate(hc)]
    for e, inside in zip(model.edges, inner[0::2]):
        if not inside and e.id in candidate.support:
            raise InternalConsistencyError(
                f"support edge {e.id!r} fails to glue its face lifts"
            )

    # the walk starts at the least boundary dart, which is the +1 dart of
    # the first edge off the interior; an edge has at most one interior
    # lift, and a dart's lift at cell c is that lift exactly when c is the
    # dart's own tail cell
    start = next((d for d in range(0, len(inner), 2) if not inner[d]), None)
    if start is None:
        raise InternalConsistencyError("domain has no boundary")
    nxt, rim, spin = tr.next, inner.count(False), range(len(inner))
    walk: list[int] = []
    d = start
    while True:
        walk.append(d)
        c, d = hc[d], nxt[d]
        for _ in spin:  # clockwise past glued edges
            if not (inner[d] and tc[d] == c):
                break
            d = nxt[d ^ 1]
        else:
            raise InternalConsistencyError("walk trapped at an interior vertex")
        if tc[d] != c:
            raise InternalConsistencyError("boundary walk left the domain")
        if d == start:
            break
        if len(walk) > rim:
            raise InternalConsistencyError("boundary walk does not close")
    if len(walk) != rim:
        raise InternalConsistencyError("boundary is not a single circuit")
    return tr, tc, inner, walk


class FundamentalDomain(NamedTuple):
    """Lifted faces of a candidate glued along its support.

    ``interior_edges`` are the edge lifts with the domain on both sides:
    every support edge, and each isolated zero edge (no other zero edge at
    either end), which the glued faces close around.  ``boundary`` walks
    the rim counterclockwise (domain on the left) as ``(dart, tail cell)``
    pairs, starting at the least boundary dart.  Edge lifts are
    ``(edge id, cell of the black end)``.
    """

    face_cells: tuple[tuple[str, Cell], ...]
    interior_edges: tuple[tuple[str, Cell], ...]
    boundary: tuple[tuple[Dart, Cell], ...]

    @property
    def boundary_edge_ids(self) -> frozenset[str]:
        return frozenset(d[0] for d, _ in self.boundary)


def fundamental_domain(
    model: DimerModel, candidate: FixedPointCandidate
) -> FundamentalDomain:
    """Glue the candidate's face lifts along its support and walk the rim.

    Raises :class:`InvalidModelError` unless the edge offsets wrap the
    faces once counterclockwise around the torus (:func:`faces_area2` is
    2), as validation's ``homology-span`` demands.
    """
    tr, tc, inner, walk = _domain(model, candidate)
    cells, edges = dict(candidate.cells), model.edges
    return FundamentalDomain(
        tuple((f.id, cells[f.id]) for f in tr.faces),
        tuple((e.id, c) for e, c, inside in zip(edges, tc[0::2], inner[0::2]) if inside),
        tuple(((edges[d >> 1].id, -1 if d & 1 else 1), tc[d]) for d in walk),
    )


# ---------------------------------------------------------------------------
# chart classification


class ChartClassification(NamedTuple):
    """A chart read off its domain boundary.  ``case``, ``smooth`` and
    ``fixed_locus`` are class constants: the construction allows one case."""

    case = CASE_SIX_OPPOSITE
    smooth = True
    fixed_locus = "a single point; the chart is affine 3-space"
    census: tuple[tuple[int, int], ...]  # (valency, count of corners)
    corner: tuple[str, Cell]  # first boundary corner v1
    coordinate_edges: tuple[str, ...]  # zero edges at v1, counterclockwise


def classify_chart(
    model: DimerModel, candidate: FixedPointCandidate
) -> ChartClassification:
    """Read the chart at a fixed-point candidate off its domain boundary.

    Verifies on the way that the non-isolated zero edges are exactly the
    boundary edges of the fundamental domain (so its translates really cut
    the plane along the zero locus).  That makes every zero edge at a
    corner a boundary edge, so the coordinate edges at the first corner
    number its valency, 3: the module docstring derives the one census.
    """
    _, tc, inner, walk = _domain(model, candidate)
    support, ends = candidate.support, _edge_ends(model)
    zero_deg = [0] * len(model.vertices)
    for e, (b, w) in zip(model.edges, ends):
        if e.id not in support:
            zero_deg[b] += 1
            zero_deg[w] += 1
    # the walk passes every dart off the interior edges, so those are the
    # boundary edges
    for e, (b, w), inside in zip(model.edges, ends, inner[0::2]):
        if e.id not in support and (zero_deg[b] >= 2 or zero_deg[w] >= 2) == inside:
            raise InternalConsistencyError(
                f"zero edge {e.id!r} disagrees with the boundary translates"
            )

    # Past that check a rim vertex's boundary edges are its zero edges, so
    # its valency is its zero degree.  Valency-2 visits sit inside a
    # straight run of the zero locus; they are not corners of the tiling,
    # so the census smooths them away.
    tails = [ends[d >> 1][d & 1] for d in walk]
    corners = [d for d, v in zip(walk, tails) if zero_deg[v] >= 3]
    census = dict(Counter(zero_deg[v] for v in tails if zero_deg[v] >= 3))
    if census != {3: 6}:
        raise InternalConsistencyError(f"impossible boundary census {census}")

    d = min(corners)
    v1 = model.vertices[ends[d >> 1][d & 1]].id
    rot = model.rotation_at(v1)
    j = rot.index(model.edges[d >> 1].id)
    coord_edges = [
        eid
        for eid in (rot[(j + k) % len(rot)] for k in range(len(rot)))
        if eid not in support
    ]
    return ChartClassification(((3, 6),), (v1, tc[d]), tuple(coord_edges))


# ---------------------------------------------------------------------------
# chart characters and cones


def chart_characters(
    q: Quiver, candidate: FixedPointCandidate, coordinate_edges: Sequence[str]
) -> tuple[dict[str, int], ...]:
    """One arrow-indexed functional per coordinate edge.

    Weights are gauge-normalised to vanish on the support; the character of
    a coordinate edge is the normalised weight of its arrow, the cycle the
    arrow closes through a spanning tree of the support.  The normalisation
    is a functional on the weight lattice ``W`` by construction: ``W`` is
    spanned by the gauge subgroup and the cocharacters of the three
    matchings whose union the support avoids, and every support cycle
    pairs to zero with each of them, so any spanning tree gives the same
    functional.
    """
    ends, (up, rank) = _support_forest(q, candidate.support)
    if up.count(-1) != 1:
        raise InternalConsistencyError("support does not span the quiver")
    out = []
    for eid in coordinate_edges:
        if eid in candidate.support:
            raise InvalidModelError(f"coordinate edge {eid!r} lies in the support")
        i, cyc = q.arrow_pos[q.arrow(eid).id], [0] * len(ends)
        cyc[i] = 1  # then back from its target to its source
        s, t = q.ends[i]
        _add_forest_path(ends, up, rank, t, s, cyc)
        out.append(dict(zip(q.arrow_ids, cyc)))
    return tuple(out)


def chart_rows(
    q: Quiver, split: Splitting, characters: Sequence[dict[str, int]]
) -> tuple[Vec3, ...]:
    """The characters in the splitting's coordinates, one row each."""
    return tuple(express_functional(q, split, c) for c in characters)


@_frozen
class ChartCone:
    """Rays of a chart's cone: columns of the inverse row matrix."""

    rays: tuple[Vec3, Vec3, Vec3]
    det: int


def chart_cone(rows: Sequence[Vec3]) -> ChartCone:
    """The cone of a chart's three character rows, which are unimodular
    because every chart is affine 3-space."""
    if len(rows) != 3:
        raise InvalidModelError("a smooth chart has exactly three characters")
    if any(len(r) != 3 for r in rows):
        raise InvalidModelError("matrix is not square")
    d, inv = _unimodular_inverse(rows)
    if inv is None:
        raise InternalConsistencyError(
            f"chart rows are not unimodular (determinant {d})"
        )
    return ChartCone(tuple(zip(*inv)), d)  # the columns


# ---------------------------------------------------------------------------
# the fan certificate


@_frozen
class Chart:
    candidate: FixedPointCandidate
    classification: ChartClassification
    rows: tuple[Vec3, ...]
    cone: ChartCone


class FanResult(NamedTuple):
    base: tuple[str, ...]
    theta: Theta
    polygon: LatticePolygon
    charts: tuple[Chart, ...]
    report: ValidationReport


def _unit_steps(cycle: Sequence[Cell]):
    """Directed unit lattice steps around a closed lattice polygon."""
    for (x0, y0), (x1, y1) in zip(cycle, cycle[1:] + cycle[:1]):
        g = gcd(x1 - x0, y1 - y0)
        pts = [(x0 + k * (x1 - x0) // g, y0 + k * (y1 - y0) // g) for k in range(g)]
        yield from zip(pts, pts[1:] + [(x1, y1)])


def _unpaired_steps(
    polygon: LatticePolygon, tris: Sequence[Sequence[Cell]]
) -> list[tuple[Cell, Cell]]:
    """Unit steps of the triangle boundaries left once opposite steps cancel
    and the polygon boundary is taken off; none are left exactly when the
    oriented triangles cover each point of the polygon once, and no other."""
    net = Counter()
    for t in tris:
        net.update(_unit_steps(t))
    net.update((q, p) for p, q in _unit_steps(polygon.vertices))
    return sorted(s for s, n in net.items() if n > net[s[::-1]])


def verify_crepant(polygon: LatticePolygon, charts: Sequence[Chart]) -> ValidationReport:
    """Certify that the chart cones triangulate the cone over the polygon.

    Checks, in order: some chart at all (``charts-smooth``: every chart is
    smooth by construction); every cone matrix unimodular with
    positive orientation; all rays at level one; all cross-section triangles
    inside the polygon; the triangles tile the polygon (``triangles-disjoint``);
    total area equal to the polygon's; all transitions integral of
    determinant one.

    Once the second and third checks pass, every triangle is counterclockwise
    of area2 1 with no lattice point on its edges but the ends, so the
    triangles tile the polygon exactly when their edges cancel in opposite
    pairs down to the polygon boundary in unit lattice steps; the failure
    detail lists the unpaired steps.
    """
    checks = [
        ValidationCheck(
            "charts-smooth", bool(charts), "" if charts else "no charts at all"
        )
    ]

    bad_det = [c for c in charts if c.cone.det != 1]
    checks.append(
        ValidationCheck(
            "cones-unimodular",
            not bad_det and bool(charts),
            "no smooth charts"
            if not charts
            else "; ".join(f"determinant {c.cone.det}" for c in bad_det),
        )
    )
    bad_level = [
        c for c in charts if any(r[2] != 1 for r in c.cone.rays)
    ]
    checks.append(
        ValidationCheck(
            "rays-level-one",
            not bad_level,
            "; ".join(str(c.cone.rays) for c in bad_level),
        )
    )

    tris = [tuple((r[0], r[1]) for r in c.cone.rays) for c in charts]
    outside = [
        t for t in tris if not all(contains_point(polygon, p) for p in t)
    ]
    checks.append(
        ValidationCheck(
            "triangles-inside", not outside, "; ".join(map(str, outside))
        )
    )

    unpaired = _unpaired_steps(polygon, tris)
    checks.append(
        ValidationCheck(
            "triangles-disjoint",
            not unpaired,
            "; ".join(f"unpaired {p} -> {q}" for p, q in unpaired),
        )
    )

    total = sum(_cross(*t) for t in tris)
    want = area2(polygon)
    checks.append(
        ValidationCheck(
            "area-covered",
            total == want,
            f"triangles cover {total}/2, polygon is {want}/2",
        )
    )

    # det(M_i M_j^-1) = det M_i / det M_j, and chart_cone admits only
    # determinants +-1, so a transition is unimodular exactly when the two
    # determinants agree
    bad_tr = [
        (i, j)
        for i, ci in enumerate(charts)
        for j, cj in enumerate(charts)
        if ci.cone.det != cj.cone.det
    ]
    checks.append(
        ValidationCheck(
            "transitions-integral", not bad_tr, "; ".join(map(str, bad_tr))
        )
    )
    return ValidationReport(tuple(checks))


def assemble_fan(
    model: DimerModel,
    theta: Theta | None = None,
    seed: int = 0,
) -> FanResult:
    """Enumerate candidates for a (given or sampled generic) weight, build
    every chart, and certify the resulting fan against the height polygon."""
    q = quiver_of(model)
    pms = perfect_matchings(model)
    poly = newton_polygon(char_poly(model))
    base = pms[0]
    split = split_by_reference(q, base)
    if theta is None:
        theta, _, _ = sample_generic_theta(q, base, random.Random(seed))
    charts = []
    for cand in enumerate_fixed_candidates(model, theta):
        cls = classify_chart(model, cand)
        rows = chart_rows(q, split, chart_characters(q, cand, cls.coordinate_edges))
        charts.append(Chart(cand, cls, rows, chart_cone(rows)))
    report = verify_crepant(poly, charts)
    return FanResult(
        tuple(sorted(base)), theta, poly, tuple(charts), report
    )
