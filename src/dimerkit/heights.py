"""Height changes of perfect matchings and the characteristic polynomial.

Superimposing two perfect matchings gives a cycle system on the torus whose
homology class, the *height change*, lands in ``Z^2``.  With the offsets
recorded on edges it is simply the difference of total offsets, measured
against a reference matching.  Collecting ``x^h`` over all matchings yields
the characteristic (Laurent) polynomial, whose Newton polygon is the lattice
polygon the rest of the package builds cones over.  The polynomial needs
only the number of matchings at each total offset, which one sweep of the
matching search's tables counts without building a matching, so it does
not depend on ``MATCHING_CAP``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .exceptions import DegenerateModelError, InvalidModelError
from .matchings import _least_matching, _weight_counts, from_model
from .model import Cell, DimerEdge, DimerModel


def _check_matching(model: DimerModel, edges: Iterable[str], what: str) -> list[int]:
    """Positions in ``model.edges`` of a perfect matching given by edge ids."""
    m = frozenset(edges)
    covered: dict[str, int] = {v.id: 0 for v in model.vertices}
    known = {e.id for e in model.edges}
    for eid in m:
        if eid not in known:
            raise InvalidModelError(f"{what}: unknown edge {eid!r}")
    positions = []
    for p, e in enumerate(model.edges):
        if e.id in m:
            covered[e.black] += 1
            covered[e.white] += 1
            positions.append(p)
    bad = [v for v, k in covered.items() if k != 1]
    if bad:
        raise InvalidModelError(f"{what}: not a perfect matching (at {bad[0]!r})")
    return positions


def _offset_sum(edges: Iterable[DimerEdge]) -> Cell:
    """Total offset of ``edges``."""
    x = y = 0
    for e in edges:
        dx, dy = e.offset
        x, y = x + dx, y + dy
    return (x, y)


def height_change(
    model: DimerModel, matching: Iterable[str], base: Iterable[str]
) -> Cell:
    """Height change of ``matching`` against ``base``, in ``Z^2``.

    Antisymmetric and additive: ``h(D, D1) = h(D, D0) - h(D1, D0)`` for any
    three matchings.
    """
    m = _check_matching(model, matching, "matching")
    b = _check_matching(model, base, "base")
    sm, sb = (_offset_sum(map(model.edges.__getitem__, p)) for p in (m, b))
    return (sb[0] - sm[0], sb[1] - sm[1])


@dataclass(frozen=True)
class LaurentPoly2:
    """Integer Laurent polynomial in two variables, sparse and sorted."""

    terms: tuple[tuple[Cell, int], ...]

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for (i, j), c in self.terms:
            factors = []
            if i:
                factors.append("x" if i == 1 else f"x^{i}")
            if j:
                factors.append("y" if j == 1 else f"y^{j}")
            if not factors or c != 1:
                factors.insert(0, str(c))
            parts.append("*".join(factors))
        return " + ".join(parts)


def laurent_from_counts(counts: dict[Cell, int]) -> LaurentPoly2:
    return LaurentPoly2(
        tuple((e, c) for e, c in sorted(counts.items()) if c != 0)
    )


def char_poly(
    model: DimerModel, base: Iterable[str] | None = None
) -> LaurentPoly2:
    """Sum of ``x^h(D, base)`` over all perfect matchings ``D``.

    ``base`` defaults to the first matching in canonical order.  Changing the
    base translates every exponent by the same vector.  Raises
    :class:`DegenerateModelError` when the model has no perfect matching.

    The matchings are counted by total edge offset in one sweep that builds
    none of them, so only ``STATE_CAP`` bounds it.  Each offset coordinate
    is shifted by ``a``, the largest coordinate size, into ``0..2a``, and an
    offset is packed as the integer ``x * m + y``.  A matching's sum then
    has coordinates in ``0..m - 1``, with ``m = 2a * blacks + 1``, so it
    unpacks uniquely, and the shift added ``a * blacks`` to each.
    """
    g = from_model(model)
    a = max((abs(c) for e in model.edges for c in e.offset), default=0)
    shift = a * len(g.blacks)
    m = 2 * shift + 1
    counts = _weight_counts(
        g, [(dx + a) * m + dy + a for dx, dy in (e.offset for e in model.edges)]
    )
    if not counts:
        raise DegenerateModelError("no perfect matchings")
    b = _least_matching(g) if base is None else _check_matching(model, base, "base")
    bx, by = _offset_sum(map(model.edges.__getitem__, b))
    by_height: dict[Cell, int] = {}
    for key, c in counts.items():
        x, y = divmod(key, m)
        by_height[bx + shift - x, by + shift - y] = c
    return laurent_from_counts(by_height)


# ---------------------------------------------------------------------------
# lattice polygons


@dataclass(frozen=True)
class LatticePolygon:
    """Convex lattice polygon: vertices counterclockwise from the least one.

    May be degenerate (a single point or a segment), in which case it has
    fewer than three vertices.
    """

    vertices: tuple[Cell, ...]


def _cross(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def convex_hull(points: Iterable[Cell]) -> LatticePolygon:
    """Strict convex hull (collinear boundary points dropped)."""
    pts = sorted(set(points))
    if not pts:
        raise InvalidModelError("no points to hull")
    if len(pts) == 1:
        return LatticePolygon((pts[0],))

    def chain(seq: Sequence[Cell]) -> list[Cell]:
        out: list[Cell] = []
        for p in seq:
            while len(out) >= 2 and _cross(out[-2], out[-1], p) <= 0:
                out.pop()
            out.append(p)
        return out

    lower = chain(pts)
    upper = chain(pts[::-1])
    return LatticePolygon(tuple(lower[:-1] + upper[:-1]))


def newton_polygon(poly: LaurentPoly2) -> LatticePolygon:
    if not poly.terms:
        raise InvalidModelError("zero polynomial has no Newton polygon")
    return convex_hull(e for e, _ in poly.terms)


def area2(polygon: LatticePolygon) -> int:
    """Twice the enclosed area (shoelace); zero for degenerate polygons."""
    vs = polygon.vertices
    if len(vs) < 3:
        return 0
    s = 0
    for i, (x0, y0) in enumerate(vs):
        x1, y1 = vs[(i + 1) % len(vs)]
        s += x0 * y1 - x1 * y0
    return s


def contains_point(polygon: LatticePolygon, pt: Sequence) -> bool:
    """Whether the (possibly rational) point lies in the closed polygon."""
    vs = polygon.vertices
    p = (pt[0], pt[1])
    if len(vs) == 1:
        return p[0] == vs[0][0] and p[1] == vs[0][1]
    if len(vs) == 2:
        a, b = vs
        if _cross(a, b, p) != 0:
            return False
        return (
            min(a[0], b[0]) <= p[0] <= max(a[0], b[0])
            and min(a[1], b[1]) <= p[1] <= max(a[1], b[1])
        )
    return all(
        _cross(vs[i], vs[(i + 1) % len(vs)], p) >= 0 for i in range(len(vs))
    )
