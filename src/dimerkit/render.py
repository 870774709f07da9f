"""Deterministic SVG pictures: tilings, height polygons, fundamental domains.

Every function returns the complete SVG document as a string built from
sorted, explicit iteration; rendering the same object twice produces
byte-identical output.  Vertex positions are taken from the model when
present; otherwise a plain grid layout is substituted and a warning is
printed once per model, so drawing never fails on a position-free model.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from typing import Iterable

from .charts import FixedPointCandidate, fundamental_domain
from .exceptions import CapacityError, InvalidModelError
from .heights import LatticePolygon
from .model import BLACK, Cell, DimerModel, lift_patch, per_object

_SCALE = 120.0
_EDGE = "#5b6470"
_EDGE_FAINT = "#c9ced6"
_MATCH = "#d4582a"
_CELL = "#8fa3bf"
_BLACK = "#1c1e22"
_WHITE_RIM = "#1c1e22"
_DOMAIN = "#2563a8"
_INTERIOR = "#2aa15f"
_GRID = "#b9c0ca"
_POLY = "#2563a8"

LIFT_CAP = 200_000  # edge lifts drawn by render_model: cells^2 * edges

Layout = dict[str, tuple[Fraction, Fraction]]


def _fmt(x: float) -> str:
    s = f"{x:.2f}"
    return "0.00" if s == "-0.00" else s


@per_object
def _layout(model: DimerModel) -> Layout:
    """Vertex positions for drawing, auto-gridded when the model has none."""
    if all(v.pos is not None for v in model.vertices):
        return {v.id: v.pos for v in model.vertices}
    print(
        "warning: model carries no vertex positions; using a grid layout",
        file=sys.stderr,
    )
    blacks = [v.id for v in model.vertices if v.color == BLACK]
    whites = [v.id for v in model.vertices if v.color != BLACK]
    layout: Layout = {}
    for row, ids in ((Fraction(1, 4), blacks), (Fraction(3, 4), whites)):
        for k, vid in enumerate(ids):
            layout[vid] = (Fraction(k + 1, len(ids) + 1), row)
    return layout


def _pos(layout: Layout, vid: str, cell: Cell) -> tuple[float, float]:
    p = layout[vid]
    x = float(p[0] + cell[0]) * _SCALE
    y = -float(p[1] + cell[1]) * _SCALE  # SVG y grows downward
    return x, y


def _document(body: list[str], xs: Iterable[float], ys: Iterable[float]) -> str:
    xs, ys = list(xs), list(ys)
    pad = 0.25 * _SCALE
    x0, x1 = min(xs) - pad, max(xs) + pad
    y0, y1 = min(ys) - pad, max(ys) + pad
    head = (
        '<svg xmlns="http://www.w3.org/2000/svg" '
        f'viewBox="{_fmt(x0)} {_fmt(y0)} {_fmt(x1 - x0)} {_fmt(y1 - y0)}">'
    )
    return "\n".join([head, *body, "</svg>"]) + "\n"


def _line(x1, y1, x2, y2, stroke, width, extra="") -> str:
    return (
        f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" y2="{_fmt(y2)}" '
        f'stroke="{stroke}" stroke-width="{_fmt(width)}" '
        f'stroke-linecap="round"{extra}/>'
    )


def _edge_endpoints(
    model: DimerModel, layout: Layout, eid: str, cell: Cell
) -> tuple[tuple[float, float], tuple[float, float]]:
    e = model.edge(eid)
    b = _pos(layout, e.black, cell)
    w = _pos(layout, e.white, (cell[0] + e.offset[0], cell[1] + e.offset[1]))
    return b, w


def _vertex_dot(layout: Layout, model: DimerModel, vid: str, cell: Cell,
                radius: float, rim: float) -> str:
    x, y = _pos(layout, vid, cell)
    if model.vertex(vid).color == BLACK:
        return (
            f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="{_fmt(radius)}" '
            f'fill="{_BLACK}"/>'
        )
    return (
        f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="{_fmt(radius)}" '
        f'fill="#ffffff" stroke="{_WHITE_RIM}" stroke-width="{_fmt(rim)}"/>'
    )


def render_model(
    model: DimerModel,
    matching: Iterable[str] | None = None,
    cells: int = 2,
) -> str:
    """The tiling on a ``cells x cells`` block of fundamental cells, the
    base cell outlined, an optional matching drawn on top.  Raises
    :class:`CapacityError` past ``LIFT_CAP`` drawn edge lifts."""
    if cells < 1:
        raise InvalidModelError("cells must be at least 1")
    lifts = cells * cells * len(model.edges)
    if lifts > LIFT_CAP:
        raise CapacityError(
            f"{cells}x{cells} cells of {len(model.edges)} edges draw {lifts} "
            f"edge lifts, more than LIFT_CAP = {LIFT_CAP}"
        )
    layout = _layout(model)
    chosen = frozenset(matching) if matching is not None else frozenset()
    unknown = chosen - {e.id for e in model.edges}
    if unknown:
        raise InvalidModelError(f"matching uses unknown edges {sorted(unknown)}")
    block = [(i, j) for i in range(cells) for j in range(cells)]

    body: list[str] = []
    xs: list[float] = []
    ys: list[float] = []
    # base cell outline
    cx = [0.0, _SCALE, _SCALE, 0.0, 0.0]
    cy = [0.0, 0.0, -_SCALE, -_SCALE, 0.0]
    pts = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in zip(cx, cy))
    body.append(
        f'<polyline points="{pts}" fill="none" stroke="{_CELL}" '
        'stroke-width="2.00" stroke-dasharray="6 5"/>'
    )
    xs += [0.0, cells * _SCALE]
    ys += [0.0, -cells * _SCALE]
    for cell in block:
        for e in model.edges:
            (bx, by), (wx, wy) = _edge_endpoints(model, layout, e.id, cell)
            xs += [bx, wx]
            ys += [by, wy]
            if e.id in chosen:
                body.append(_line(bx, by, wx, wy, _MATCH, 6.0))
            else:
                faint = cell != (0, 0)
                body.append(
                    _line(bx, by, wx, wy, _EDGE_FAINT if faint else _EDGE, 2.5)
                )
    for cell in block:
        for v in model.vertices:
            body.append(_vertex_dot(layout, model, v.id, cell, 7.0, 2.0))
    return _document(body, xs, ys)


def render_polygon(polygon: LatticePolygon) -> str:
    """The height polygon with labeled vertices over its lattice grid."""
    vs = polygon.vertices
    if not vs:
        raise InvalidModelError("empty polygon")
    x0 = min(x for x, _ in vs) - 1
    x1 = max(x for x, _ in vs) + 1
    y0 = min(y for _, y in vs) - 1
    y1 = max(y for _, y in vs) + 1
    body: list[str] = []
    for gx in range(x0, x1 + 1):
        for gy in range(y0, y1 + 1):
            body.append(
                f'<circle cx="{_fmt(gx * _SCALE)}" cy="{_fmt(-gy * _SCALE)}" '
                f'r="3.00" fill="{_GRID}"/>'
            )
    pts = " ".join(
        f"{_fmt(x * _SCALE)},{_fmt(-y * _SCALE)}" for x, y in vs
    )
    shape = "polygon" if len(vs) >= 3 else "polyline"
    body.append(
        f'<{shape} points="{pts}" fill="{_POLY}" fill-opacity="0.15" '
        f'stroke="{_POLY}" stroke-width="3.00" stroke-linejoin="round"/>'
    )
    for x, y in vs:
        body.append(
            f'<circle cx="{_fmt(x * _SCALE)}" cy="{_fmt(-y * _SCALE)}" '
            f'r="5.00" fill="{_POLY}"/>'
        )
        body.append(
            f'<text x="{_fmt(x * _SCALE + 10)}" y="{_fmt(-y * _SCALE - 10)}" '
            f'font-family="sans-serif" font-size="20.00" fill="{_POLY}">'
            f"({x}, {y})</text>"
        )
    return _document(
        body,
        [x0 * _SCALE, x1 * _SCALE],
        [-y1 * _SCALE, -y0 * _SCALE],
    )


def render_domain(model: DimerModel, candidate: FixedPointCandidate) -> str:
    """A candidate's fundamental domain over a faint patch of the tiling:
    boundary walk in blue, glued support edges in green."""
    layout = _layout(model)
    dom = fundamental_domain(model, candidate)
    patch = lift_patch(model, 2)

    body: list[str] = []
    xs: list[float] = []
    ys: list[float] = []
    for eid, cell in patch.edge_lifts:
        (bx, by), (wx, wy) = _edge_endpoints(model, layout, eid, cell)
        body.append(_line(bx, by, wx, wy, _EDGE_FAINT, 1.5))
    corner_pts = []
    for (eid, sign), tail in dom.boundary:
        e = model.edge(eid)
        vid = e.black if sign > 0 else e.white
        corner_pts.append(_pos(layout, vid, tail))
    pts = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in corner_pts)
    body.append(
        f'<polygon points="{pts}" fill="{_DOMAIN}" fill-opacity="0.12" '
        f'stroke="{_DOMAIN}" stroke-width="4.00" stroke-linejoin="round"/>'
    )
    xs += [p[0] for p in corner_pts]
    ys += [p[1] for p in corner_pts]
    for eid, cell in dom.interior_edges:
        (bx, by), (wx, wy) = _edge_endpoints(model, layout, eid, cell)
        body.append(_line(bx, by, wx, wy, _INTERIOR, 5.0))
        xs += [bx, wx]
        ys += [by, wy]
    for vid, cell in patch.vertex_lifts:
        body.append(_vertex_dot(layout, model, vid, cell, 5.0, 1.5))
    return _document(body, xs, ys)
