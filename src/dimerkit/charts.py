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
shift vanishes; only stability is tested.

Each candidate glues the lifted faces of the model into a fundamental
domain whose translates tile the plane.  Its boundary runs along the zero
edges that meet another zero edge; an isolated zero edge lies inside the
domain.  Walking the domain boundary and counting the valencies of its
corner points classifies the chart around the fixed point into exactly
three local shapes, two of them singular and one smooth.  The walk runs
counterclockwise at the vertex positions exactly when the faces' total
signed area is positive, which is decided once per model.

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
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import gcd
from typing import Sequence

from .exceptions import InternalConsistencyError, InvalidModelError
from .heights import (
    LatticePolygon,
    _offset_sum,
    area2,
    char_poly,
    contains_point,
    newton_polygon,
)
from .lattice import (
    Splitting,
    Vec3,
    adjugate3,
    det_int,
    express_functional,
    split_by_reference,
)
from .matchings import perfect_matchings
from .model import BLACK, Cell, Dart, DimerModel, ValidationCheck
from .model import per_object, trace_faces
from .quiver import Quiver, quiver_of, tree_cycle, tree_paths, vector_shift
from .stability import Theta, is_stable, sample_generic_theta

CASE_SIX_OPPOSITE = "six-trivalent-opposite-colors"
CASE_SIX_SAME = "six-trivalent-same-colors"
CASE_FOUR = "four-quadrivalent"

_FIXED_LOCUS = {
    CASE_SIX_OPPOSITE: "a single point; the chart is affine 3-space",
    CASE_SIX_SAME: "a point and the surface t1*t2*t3 = 1",
    CASE_FOUR: "a point and the two-torus t1*t3 = t2*t4 = 1",
}


@dataclass(frozen=True)
class FixedPointCandidate:
    """A 0/1 representation that can carry a torus-fixed point.

    ``cells`` places the canonical lift of each face in the cover, with the
    first face at the origin; every support arrow steps from its source's
    cell to its target's cell by its cover shift.
    """

    support: frozenset[str]
    cells: tuple[tuple[str, Cell], ...]


def enumerate_fixed_candidates(
    model: DimerModel, theta: Theta
) -> tuple[FixedPointCandidate, ...]:
    """All fixed-point candidates, in canonical support order.

    A perfect matching ``D`` is θ-stable when the 0/1 representation
    supported on the arrows off ``D`` is.  Every triple of θ-stable
    matchings whose heights span a triangle of ``area2`` 1 proposes the
    complement of their union as a support.  It is kept when it spans the
    quiver and is stable; each face's cell is the cover shift of its tree
    path.  The relations and the gluing of every support arrow hold by
    construction (see the module docstring).  The matchings are the model's
    own enumeration, so ``MATCHING_CAP`` bounds the work, and each
    :func:`is_stable` test is a few min cuts with no cap; the same recipe
    serves a non-generic weight.
    """
    q = quiver_of(model)
    pms = perfect_matchings(model)
    arrows = frozenset(q.arrow_ids)
    # a matching's total offset is its height up to sign and one common
    # translation, neither of which changes a triangle's area
    stable = [
        (d, _offset_sum(map(model.edge, d)))
        for d in pms
        if is_stable(q, arrows - d, theta)
    ]
    found: list[FixedPointCandidate] = []
    for (d1, h1), (d2, h2), (d3, h3) in combinations(stable, 3):
        (x1, y1), (x2, y2), (x3, y3) = h1, h2, h3
        if abs((x2 - x1) * (y3 - y1) - (x3 - x1) * (y2 - y1)) != 1:
            continue
        support = arrows - d1 - d2 - d3
        paths = tree_paths(q, [aid for aid in q.arrow_ids if aid in support])
        if paths is not None and is_stable(q, support, theta):
            cells = tuple((v, vector_shift(q, paths[v])) for v in q.vertices)
            found.append(FixedPointCandidate(support, cells))

    pos = q.arrow_pos
    found.sort(key=lambda c: tuple(sorted(pos[aid] for aid in c.support)))
    return tuple(found)


# ---------------------------------------------------------------------------
# fundamental domains


@dataclass(frozen=True)
class FundamentalDomain:
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

    Raises :class:`InvalidModelError` when the vertex positions wind the
    walk clockwise, which is decided once per model (:func:`_faces_area2`).
    """
    tr = trace_faces(model)
    cells = dict(candidate.cells)
    if set(cells) != {f.id for f in tr.faces}:
        raise InvalidModelError("candidate cells do not match the faces")
    support = candidate.support

    edge_lift: dict[Dart, tuple[str, Cell]] = {}
    tail_cell: dict[Dart, Cell] = {}
    for f in tr.faces:
        cf = cells[f.id]
        for d in f.darts:
            u = tr.dart_cell[d]
            tail = (u[0] + cf[0], u[1] + cf[1])
            off = model.edge(d[0]).offset
            m = tail if d[1] > 0 else (tail[0] - off[0], tail[1] - off[1])
            edge_lift[d] = (d[0], m)
            tail_cell[d] = tail

    interior: set[tuple[str, Cell]] = set()
    for e in model.edges:
        plus, minus = edge_lift[(e.id, +1)], edge_lift[(e.id, -1)]
        if plus == minus:
            interior.add(plus)
        elif e.id in support:
            raise InternalConsistencyError(
                f"support edge {e.id!r} fails to glue its face lifts"
            )

    edge_pos = quiver_of(model).arrow_pos
    boundary_darts = [d for d in edge_lift if edge_lift[d] not in interior]
    if not boundary_darts:
        raise InternalConsistencyError("domain has no boundary")
    start = min(
        boundary_darts,
        key=lambda d: (edge_pos[d[0]], 0 if d[1] > 0 else 1, tail_cell[d]),
    )

    walk: list[tuple[Dart, Cell]] = []
    d, tc = start, tail_cell[start]
    while True:
        walk.append((d, tc))
        e = model.edge(d[0])
        if d[1] > 0:
            head, hc = e.white, (tc[0] + e.offset[0], tc[1] + e.offset[1])
        else:
            head, hc = e.black, (tc[0] - e.offset[0], tc[1] - e.offset[1])
        head_black = model.vertex(head).color == BLACK
        rot = model.rotation_at(head)
        j = rot.index(d[0])
        for step in range(1, len(rot) + 1):  # spin clockwise past glued edges
            e2 = rot[(j - step) % len(rot)]
            off2 = model.edge(e2).offset
            m2 = hc if head_black else (hc[0] - off2[0], hc[1] - off2[1])
            if (e2, m2) not in interior:
                break
        else:
            raise InternalConsistencyError("walk trapped at an interior vertex")
        d, tc = (e2, +1 if head_black else -1), hc
        if tail_cell.get(d) != tc:
            raise InternalConsistencyError("boundary walk left the domain")
        if (d, tc) == (start, tail_cell[start]):
            break
        if len(walk) > len(boundary_darts):
            raise InternalConsistencyError("boundary walk does not close")
    if len(walk) != len(boundary_darts):
        raise InternalConsistencyError("boundary is not a single circuit")

    if (area := _faces_area2(model)) is not None and area <= 0:
        raise InvalidModelError(
            "vertex positions disagree with the rotation system: the boundary "
            "walk of a fundamental domain runs clockwise at those positions"
        )
    return FundamentalDomain(
        tuple((f.id, cells[f.id]) for f in tr.faces),
        tuple(sorted(interior, key=lambda x: (edge_pos[x[0]], x[1]))),
        tuple(walk),
    )


@per_object
def _faces_area2(model: DimerModel) -> Fraction | None:
    """Twice the faces' total signed area at the vertex positions, or None
    without positions: the shoelace of every domain's boundary walk, since
    areas add, a domain holds one lift of each face, its interior darts
    cancel in pairs and a closed face's area ignores translation.  The walk
    follows the rotation system, so a sum <= 0 means bad positions."""
    if any(v.pos is None for v in model.vertices):
        return None
    tr = trace_faces(model)
    s = Fraction(0)
    for f in tr.faces:
        pts = []
        for d in f.darts:
            e = model.edge(d[0])
            x, y = model.vertex(e.black if d[1] > 0 else e.white).pos
            c = tr.dart_cell[d]
            pts.append((x + c[0], y + c[1]))
        for (x0, y0), (x1, y1) in zip(pts, pts[1:] + pts[:1]):
            s += x0 * y1 - x1 * y0
    return s


# ---------------------------------------------------------------------------
# chart classification


@dataclass(frozen=True)
class ChartClassification:
    case: str
    smooth: bool
    fixed_locus: str
    census: tuple[tuple[int, int], ...]  # (valency, count of corners)
    corner: tuple[str, Cell]  # first boundary corner v1
    coordinate_edges: tuple[str, ...]  # zero edges at v1, counterclockwise


def _census_case(
    census: dict[int, int], corners: Sequence[tuple[str, str]]
) -> str:
    """Chart case from the corner census and the (vertex id, color) walk.

    Enforces the torus bookkeeping a one-tile tiling must satisfy: corner
    count over valency sums against edge and tile counts, every group of
    same-valency corners fills whole vertex orbits, and only two profiles
    survive.
    """
    if any(n < 3 for n in census):
        raise InternalConsistencyError(
            f"boundary point of valency {min(census)} < 3"
        )
    balance = 1 - Fraction(sum(census.values()), 2) + sum(
        Fraction(a, n) for n, a in census.items()
    )
    if balance != 0:
        raise InternalConsistencyError(
            f"boundary census {census} violates the Euler count"
        )
    if any(a % n for n, a in census.items()):
        raise InternalConsistencyError(
            f"boundary census {census} does not fill vertex orbits"
        )
    if census == {4: 4}:
        return CASE_FOUR
    if census == {3: 6}:
        odd = {corners[i][0] for i in (0, 2, 4)}
        even = {corners[i][0] for i in (1, 3, 5)}
        if len(odd) != 1 or len(even) != 1 or odd == even:
            raise InternalConsistencyError(
                "trivalent boundary corners do not alternate two vertices"
            )
        c1 = next(iter(odd))
        c2 = next(iter(even))
        same = corners[0][1] == corners[1][1]
        if c1 == c2:
            raise InternalConsistencyError("trivalent corner vertices coincide")
        return CASE_SIX_SAME if same else CASE_SIX_OPPOSITE
    raise InternalConsistencyError(f"impossible boundary census {census}")


def classify_chart(
    model: DimerModel, candidate: FixedPointCandidate
) -> ChartClassification:
    """Classify the chart at a fixed-point candidate by its domain boundary.

    Verifies on the way that the non-isolated zero edges are exactly the
    boundary edges of the fundamental domain (so its translates really cut
    the plane along the zero locus).
    """
    dom = fundamental_domain(model, candidate)
    support = candidate.support
    zero_deg: dict[str, int] = {v.id: 0 for v in model.vertices}
    for e in model.edges:
        if e.id not in support:
            zero_deg[e.black] += 1
            zero_deg[e.white] += 1
    boundary_ids = dom.boundary_edge_ids
    for e in model.edges:
        if e.id in support:
            continue
        crowded = zero_deg[e.black] >= 2 or zero_deg[e.white] >= 2
        if crowded != (e.id in boundary_ids):
            raise InternalConsistencyError(
                f"zero edge {e.id!r} disagrees with the boundary translates"
            )

    def valency(vid: str) -> int:
        return sum(1 for eid in model.rotation_at(vid) if eid in boundary_ids)

    # Valency-2 visits sit inside a straight run of the zero locus; they are
    # not corners of the tiling, so the census smooths them away.
    visits: list[tuple[str, Cell, int]] = []
    for d, tc in dom.boundary:
        e = model.edge(d[0])
        vid = e.black if d[1] > 0 else e.white
        visits.append((vid, tc, valency(vid)))
    corner_idx = [i for i, (_, _, n) in enumerate(visits) if n >= 3]
    census = dict(Counter(visits[i][2] for i in corner_idx))
    if not corner_idx:
        raise InternalConsistencyError("domain boundary has no corners")

    edge_pos = quiver_of(model).arrow_pos
    start_i = min(
        corner_idx,
        key=lambda i: (
            edge_pos[dom.boundary[i][0][0]],
            0 if dom.boundary[i][0][1] > 0 else 1,
            dom.boundary[i][1],
        ),
    )
    shifted = corner_idx.index(start_i)
    ordered = corner_idx[shifted:] + corner_idx[:shifted]
    corners = [
        (visits[i][0], model.vertex(visits[i][0]).color) for i in ordered
    ]

    case = _census_case(census, corners)

    start_dart, start_cell = dom.boundary[start_i]
    v1 = corners[0][0]
    rot = model.rotation_at(v1)
    j = rot.index(start_dart[0])
    coord_edges = [
        eid
        for eid in (rot[(j + k) % len(rot)] for k in range(len(rot)))
        if eid not in support
    ]
    expect = 4 if case == CASE_FOUR else 3
    if len(coord_edges) != expect:
        raise InternalConsistencyError(
            f"corner carries {len(coord_edges)} zero edges, expected {expect}"
        )
    return ChartClassification(
        case,
        case == CASE_SIX_OPPOSITE,
        _FIXED_LOCUS[case],
        tuple(sorted(census.items())),
        (v1, start_cell),
        tuple(coord_edges),
    )


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
    pairs to zero with each of them.
    """
    support = [aid for aid in q.arrow_ids if aid in candidate.support]
    paths = tree_paths(q, support)
    if paths is None:
        raise InternalConsistencyError("support does not span the quiver")
    out = []
    for eid in coordinate_edges:
        if eid in candidate.support:
            raise InvalidModelError(f"coordinate edge {eid!r} lies in the support")
        out.append(dict(zip(q.arrow_ids, tree_cycle(q, paths, eid))))
    return tuple(out)


def chart_rows(
    q: Quiver, split: Splitting, characters: Sequence[dict[str, int]]
) -> tuple[Vec3, ...]:
    """The characters in the splitting's coordinates, one row each."""
    return tuple(express_functional(q, split, c) for c in characters)


@dataclass(frozen=True)
class ChartCone:
    """Rays of a smooth chart's cone: columns of the inverse row matrix."""

    rays: tuple[Vec3, Vec3, Vec3]
    det: int


def chart_cone(rows: Sequence[Vec3]) -> ChartCone:
    if len(rows) != 3:
        raise InvalidModelError("a smooth chart has exactly three characters")
    d = det_int(rows)
    if d not in (1, -1):
        raise InternalConsistencyError(
            f"chart rows are not unimodular (determinant {d})"
        )
    adj = adjugate3(rows)
    inv = [[x // d for x in row] for row in adj]
    rays = tuple(tuple(inv[i][j] for i in range(3)) for j in range(3))
    return ChartCone(rays, d)


# ---------------------------------------------------------------------------
# the fan certificate


@dataclass(frozen=True)
class Chart:
    candidate: FixedPointCandidate
    classification: ChartClassification
    rows: tuple[Vec3, ...] | None  # None when the chart is not smooth
    cone: ChartCone | None


@dataclass(frozen=True)
class CertificateReport:
    checks: tuple[ValidationCheck, ...]

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def check(self, name: str) -> ValidationCheck:
        for c in self.checks:
            if c.name == name:
                return c
        raise InternalConsistencyError(f"no certificate check named {name!r}")


@dataclass(frozen=True)
class FanResult:
    base: tuple[str, ...]
    theta: Theta
    polygon: LatticePolygon
    charts: tuple[Chart, ...]
    report: CertificateReport


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


def verify_crepant(polygon: LatticePolygon, charts: Sequence[Chart]) -> CertificateReport:
    """Certify that the chart cones triangulate the cone over the polygon.

    Checks, in order: every chart smooth; every cone matrix unimodular with
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
    checks: list[ValidationCheck] = []
    rough = [c for c in charts if not c.classification.smooth]
    checks.append(
        ValidationCheck(
            "charts-smooth",
            not rough and bool(charts),
            "no charts at all"
            if not charts
            else "; ".join(
                f"{sorted(c.candidate.support)}: {c.classification.case}"
                for c in rough
            ),
        )
    )
    smooth = [c for c in charts if c.cone is not None]

    bad_det = [c for c in smooth if c.cone.det != 1]
    checks.append(
        ValidationCheck(
            "cones-unimodular",
            not bad_det and bool(smooth),
            "no smooth charts"
            if not smooth
            else "; ".join(f"determinant {c.cone.det}" for c in bad_det),
        )
    )
    bad_level = [
        c for c in smooth if any(r[2] != 1 for r in c.cone.rays)
    ]
    checks.append(
        ValidationCheck(
            "rays-level-one",
            not bad_level,
            "; ".join(str(c.cone.rays) for c in bad_level),
        )
    )

    tris = [tuple((r[0], r[1]) for r in c.cone.rays) for c in smooth]
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

    def tri_area2(t):
        (x0, y0), (x1, y1), (x2, y2) = t
        return (x1 - x0) * (y2 - y0) - (x2 - x0) * (y1 - y0)

    total = sum(tri_area2(t) for t in tris)
    want = area2(polygon)
    checks.append(
        ValidationCheck(
            "area-covered",
            total == want and not rough,
            f"triangles cover {total}/2, polygon is {want}/2",
        )
    )

    # det(M_i M_j^-1) = det M_i / det M_j, and chart_cone admits only
    # determinants +-1, so a transition is unimodular exactly when the two
    # determinants agree
    bad_tr = [
        (i, j)
        for i, ci in enumerate(smooth)
        for j, cj in enumerate(smooth)
        if ci.cone.det != cj.cone.det
    ]
    checks.append(
        ValidationCheck(
            "transitions-integral", not bad_tr, "; ".join(map(str, bad_tr))
        )
    )
    return CertificateReport(tuple(checks))


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
        rows = cone = None
        if cls.smooth:
            chars = chart_characters(q, cand, cls.coordinate_edges)
            rows = chart_rows(q, split, chars)
            cone = chart_cone(rows)
        charts.append(Chart(cand, cls, rows, cone))
    report = verify_crepant(poly, charts)
    return FanResult(
        tuple(sorted(base)), theta, poly, tuple(charts), report
    )
