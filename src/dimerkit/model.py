"""Dimer models on the two-torus.

A model is a bipartite graph embedded in ``R^2 / Z^2``, recorded purely
combinatorially: every edge joins a black vertex to a white one and carries
an offset in ``Z^2`` telling which translate of the white vertex the edge
reaches in the universal cover, and every vertex carries the counterclockwise
cyclic order of its incident edges.  Faces are never stored; they are traced
from the rotation system.

Darts. A *dart* is an edge with a direction, written ``(edge_id, sign)``:
sign ``+1`` runs black-to-white, ``-1`` white-to-black.  The turn rule,
arrive at the head of a dart and leave along the clockwise-next edge there,
is tabulated once per model as ``FaceTrace.dart_next``: the faces (each on
the left of its darts), the quiver's vertex cycles and the domain rims all
follow it.  While tracing we also accumulate the universal-cover cell of
each dart's tail vertex, starting at ``(0, 0)``; these cells are what every
lifting computation downstream is built on.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from functools import cached_property, wraps
from itertools import repeat
from operator import attrgetter
from typing import Callable, Iterator, NamedTuple, Sequence

from .exceptions import InvalidModelError

BLACK = "black"
WHITE = "white"

Cell = tuple[int, int]
Dart = tuple[str, int]  # (edge id, +1 black->white / -1 white->black)


def per_object(fn):
    """Memoize a one-argument function on its argument.

    The result is kept in the argument's instance ``__dict__``, outside its
    fields: eq, hash and repr are unchanged, the argument is never hashed,
    and the result is freed together with it.  Exceptions are not memoized.
    The classes it is applied to (``DimerModel``, ``Quiver`` and
    ``BipartiteGraph``) are frozen value classes with an instance
    ``__dict__``, compared and hashed by their field tuple (see
    :func:`_frozen`), and ``dataclasses`` introspection does not apply to
    them; the ``NamedTuple`` records have no ``__dict__``.
    """
    key = f"{fn.__module__}.{fn.__qualname__}"

    @wraps(fn)
    def memoized(obj):
        memo = obj.__dict__
        if key not in memo:
            memo[key] = fn(obj)
        return memo[key]

    return memoized


def _frozen(cls):
    """Make ``cls`` a frozen value class; the methods its body defines stay.

    The fields are the class's own annotations, in order, and a class-level
    value is a field's default.  ``__init__`` takes the fields positionally
    or by keyword, sets them through ``object.__setattr__`` and then calls
    ``__post_init__`` if the class defines one.  Writing to ``self.__dict__``
    there would materialise the dict, and on CPython 3.11 attribute reads
    from such an instance took about three times as long.  Instances compare
    and hash by their field tuple (``__eq__`` returns ``NotImplemented``
    against another class), repr as ``Name(field=value, ...)`` and refuse to
    set or delete an attribute; memos write to ``__dict__`` directly.  The
    ``dataclasses`` functions do not apply to these classes.
    """
    names = tuple(cls.__dict__["__annotations__"])
    defaults = {n: cls.__dict__[n] for n in names if n in cls.__dict__}
    post_init = cls.__dict__.get("__post_init__")

    get = attrgetter(*names)
    values = get if len(names) > 1 else lambda self: (get(self),)

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != len(names):
            given = {**defaults, **dict(zip(names, args)), **kwargs}
            if (
                len(args) > len(names)
                or given.keys() != set(names)
                or not kwargs.keys().isdisjoint(names[: len(args)])
            ):
                raise TypeError(f"{cls.__name__}() takes the fields {names}")
            args = [given[n] for n in names]
        for name, value in zip(names, args):
            object.__setattr__(self, name, value)
        if post_init is not None:
            post_init(self)

    def __repr__(self):
        shown = ", ".join(f"{n}={v!r}" for n, v in zip(names, values(self)))
        return f"{type(self).__qualname__}({shown})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return values(self) == values(other)

    def __hash__(self):
        return hash(values(self))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    for method in (__init__, __repr__, __eq__, __hash__, __setattr__, __delattr__):
        if method.__name__ not in cls.__dict__:
            setattr(cls, method.__name__, method)
    return cls


class DimerVertex(NamedTuple):
    id: str
    color: str
    pos: tuple[Fraction, Fraction] | None = None


class DimerEdge(NamedTuple):
    """An edge from ``black`` at cell ``m`` to ``white`` at cell ``m + offset``."""

    id: str
    black: str
    white: str
    offset: Cell


class Face(NamedTuple):
    """A face of the torus map; ``darts`` is its counterclockwise boundary."""

    id: str
    darts: tuple[Dart, ...]


@_frozen
class DimerModel:
    vertices: tuple[DimerVertex, ...]
    edges: tuple[DimerEdge, ...]
    # (vertex id, counterclockwise edge ids) pairs, one per vertex
    rotation: tuple[tuple[str, tuple[str, ...]], ...]

    # id indexes, built on first use; cached_property is not a field
    @cached_property
    def _vertex_by_id(self) -> dict[str, DimerVertex]:
        return {v.id: v for v in self.vertices}

    @cached_property
    def _edge_by_id(self) -> dict[str, DimerEdge]:
        return {e.id: e for e in self.edges}

    @cached_property
    def _rotation_by_id(self) -> dict[str, tuple[str, ...]]:
        return dict(self.rotation)

    def vertex(self, vid: str) -> DimerVertex:
        return self._vertex_by_id[vid]

    def edge(self, eid: str) -> DimerEdge:
        return self._edge_by_id[eid]

    def rotation_at(self, vid: str) -> tuple[str, ...]:
        return self._rotation_by_id[vid]

    @property
    def faces(self) -> tuple[Face, ...]:
        return trace_faces(self).faces


# ---------------------------------------------------------------------------
# structural soundness (prerequisite for tracing anything)


def _structural_errors(model: DimerModel) -> list[str]:
    errs: list[str] = []
    color: dict[str, str] = {}  # the first vertex of each id decides
    for v in model.vertices:
        if v.color not in (BLACK, WHITE):
            errs.append(f"vertex {v.id!r} has color {v.color!r}")
        if v.id in color:
            errs.append(f"duplicate vertex id {v.id!r}")
        else:
            color[v.id] = v.color
    seen_e: set[str] = set()
    for e in model.edges:
        if e.id in seen_e:
            errs.append(f"duplicate edge id {e.id!r}")
        seen_e.add(e.id)
        for end, want in ((e.black, BLACK), (e.white, WHITE)):
            if end not in color:
                errs.append(f"edge {e.id!r} references missing vertex {end!r}")
            elif color[end] != want:
                errs.append(
                    f"edge {e.id!r}: vertex {end!r} is {color[end]}, expected {want}"
                )
    return errs


def _rotation_errors(model: DimerModel) -> list[str]:
    errs: list[str] = []
    rot = dict(model.rotation)
    vids = [v.id for v in model.vertices]  # distinct here; errors in vertex order
    if rot.keys() != set(vids) or len(rot) != len(model.rotation):
        errs.append("rotation keys do not match the vertex set exactly")
        return errs
    incident: dict[str, list[str]] = {vid: [] for vid in vids}
    for e in model.edges:
        incident[e.black].append(e.id)
        incident[e.white].append(e.id)
    for vid in vids:
        if sorted(rot[vid]) != sorted(incident[vid]):
            errs.append(
                f"rotation at {vid!r} is not a cyclic order of its incident edges"
            )
        if not rot[vid]:
            errs.append(f"vertex {vid!r} has no incident edges")
    return errs


@per_object
def _soundness(model: DimerModel) -> tuple[list[str], list[str] | None]:
    """The structural errors, and the rotation errors when there are none
    (the rotation checks index vertices by id), found once per model."""
    errs = _structural_errors(model)
    return errs, None if errs else _rotation_errors(model)


# ---------------------------------------------------------------------------
# face tracing


@_frozen
class FaceTrace:
    """Faces, and per dart its face, its tail's cell in that face's trace
    and its successor under the turn rule: a permutation whose cycles are
    the faces' dart tuples.  Compared and hashed by identity, and shown by
    its faces alone."""

    faces: tuple[Face, ...]
    dart_face: dict[Dart, str]
    dart_cell: dict[Dart, Cell]
    dart_next: dict[Dart, Dart]

    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __repr__(self) -> str:
        return f"FaceTrace(faces={self.faces!r})"


def _head_cell(model: DimerModel, dart: Dart, tail_cell: Cell) -> Cell:
    off = model.edge(dart[0]).offset
    if dart[1] > 0:
        return (tail_cell[0] + off[0], tail_cell[1] + off[1])
    return (tail_cell[0] - off[0], tail_cell[1] - off[1])


@per_object
def trace_faces(model: DimerModel) -> FaceTrace:
    """Trace all faces of the torus map.

    At a vertex with counterclockwise rotation ``r``, the dart arriving
    along ``r[i]`` leaves along ``r[i - 1]``.  Faces are the cycles of that
    turn, sorted by their least dart (edge position in the model, with
    ``+1`` before ``-1``) and labelled ``f1, f2, ...`` in that order; each
    face's dart tuple starts at its least dart.  Raises
    :class:`InvalidModelError` if the model is structurally unsound, since
    the trace is meaningless then.
    """
    errs, rerrs = _soundness(model)
    if errs or rerrs:
        raise InvalidModelError("; ".join(errs or rerrs))
    dart_next: dict[Dart, Dart] = {}
    for v in model.vertices:
        out = +1 if v.color == BLACK else -1  # sign of the darts leaving v
        rot = model.rotation_at(v.id)
        for arrive, leave in zip(rot, rot[-1:] + rot[:-1]):
            dart_next[(arrive, -out)] = (leave, out)
    offset = {e.id: e.offset for e in model.edges}
    faces: list[Face] = []
    dart_face: dict[Dart, str] = {}
    dart_cell: dict[Dart, Cell] = {}
    for start in ((e.id, sign) for e in model.edges for sign in (+1, -1)):
        if start in dart_face:
            continue
        fid = f"f{len(faces) + 1}"
        darts: list[Dart] = []
        d, x, y = start, 0, 0
        while d not in dart_face:
            darts.append(d)
            dart_face[d] = fid
            dart_cell[d] = (x, y)
            dx, dy = offset[d[0]]
            x, y = (x + dx, y + dy) if d[1] > 0 else (x - dx, y - dy)
            d = dart_next[d]
        faces.append(Face(fid, tuple(darts)))
    return FaceTrace(tuple(faces), dart_face, dart_cell, dart_next)


def face_gluing_shifts(model: DimerModel) -> dict[str, Cell]:
    """Cell mismatch across each edge between its two face traces.

    Each edge ``e`` is crossed by both of its darts, traced inside the two
    (possibly equal) adjacent faces, each trace normalised to start at cell
    ``(0, 0)``.  The shift ``u(e,-1) - u(e,+1) - offset(e)`` measures how the
    two traces disagree about where the edge actually sits in the cover; it
    is exactly the translation needed to glue lifted faces along ``e``.
    """
    tr = trace_faces(model)
    out: dict[str, Cell] = {}
    for e in model.edges:
        um = tr.dart_cell[(e.id, -1)]
        up = tr.dart_cell[(e.id, +1)]
        out[e.id] = (um[0] - up[0] - e.offset[0], um[1] - up[1] - e.offset[1])
    return out


# ---------------------------------------------------------------------------
# validation


class ValidationCheck(NamedTuple):
    name: str
    ok: bool
    detail: str = ""


class ValidationReport(NamedTuple):
    checks: tuple[ValidationCheck, ...]

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def check(self, name: str) -> ValidationCheck:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)


def _spanning_forest(
    n: int, ends: Sequence[tuple[int, int] | None]
) -> tuple[list[int], list[int]]:
    """A breadth-first spanning forest of the graph on ``0..n-1`` whose edge
    ``i`` joins ``ends[i] = (tail, head)``; ``None`` leaves edge ``i`` out.

    Roots are taken in vertex order and each vertex's edges are scanned in
    edge order.  Returns each vertex's parent edge (-1 at a root) and its
    rank in the search; a parent ranks before its children.  Every spanning
    tree the package walks is grown here, and :func:`_add_forest_path`
    walks it.
    """
    incident: list[list[int]] = [[] for _ in range(n)]
    for i, e in enumerate(ends):
        if e is not None:
            incident[e[0]].append(i)
            incident[e[1]].append(i)
    up, rank = [-1] * n, [-1] * n
    found = 0
    for root in range(n):
        if rank[root] >= 0:
            continue
        rank[root], found = found, found + 1
        queue = [root]
        for v in queue:
            for i in incident[v]:
                t, h = ends[i]
                u = t + h - v
                if rank[u] < 0:
                    rank[u], up[u], found = found, i, found + 1
                    queue.append(u)
    return up, rank


def _subset_folds(
    values: Sequence[int], op: Callable[[int, int], int]
) -> Iterator[int]:
    """``op`` folded over each subset of ``values``, from 0, one at a time.

    Each half's folds are listed by doubling; the first half's run outer
    and the second half's inner, so the ``m``-th fold is over a subset of
    ``m.bit_count()`` values, the 0th over none and the last over all, and
    only the two lists, at most 2 * 2^ceil(n/2) folds, are held at once.
    Every subset scan of the package streams this.
    """
    k = len(values) // 2
    head, tail = [0], [0]
    for half, part in ((head, values[:k]), (tail, values[k:])):
        for x in part:
            half += [op(s, x) for s in half]
    for h in head:
        yield from map(op, repeat(h, len(tail)), tail)


def _add_forest_path(
    ends: Sequence[tuple[int, int] | None], up: Sequence[int], rank: Sequence[int],
    a: int, b: int, vec: list[int],
) -> None:
    """Add to ``vec`` the signed path from ``a`` to ``b`` in a forest of
    :func:`_spanning_forest`, both in one tree: +1 on an edge walked from
    tail to head, -1 the other way.  Each step leaves whichever end ranks
    later, which cannot be the two ends' nearest common ancestor."""
    while a != b:
        if rank[a] > rank[b]:
            t, h = ends[up[a]]
            vec[up[a]] += 1 if a == t else -1  # walked a -> parent
            a = t + h - a
        else:
            t, h = ends[up[b]]
            vec[up[b]] += 1 if b == h else -1  # walked parent -> b
            b = t + h - b


def _connected(model: DimerModel) -> bool:
    """Whether the graph is nonempty and one piece: its spanning forest has
    one root."""
    index = {v.id: k for k, v in enumerate(model.vertices)}
    up, _ = _spanning_forest(
        len(index), [(index[e.black], index[e.white]) for e in model.edges]
    )
    return up.count(-1) == 1


@per_object
def faces_area2(model: DimerModel) -> int:
    """Twice the faces' total signed area, each face drawn through the cells
    of its darts' tails.

    On a connected torus map whose faces close, this is twice the degree of
    the map the edge offsets define from the rotation's surface onto the
    torus: 2 exactly when the offsets wrap the faces once around it with
    the rotation's orientation, -2 when they wind them clockwise, and of
    absolute value 2 exactly when the offsets generate ``Z^2``.  Moving a
    vertex moves the areas of its faces by amounts that cancel, so vertex
    positions would give the same sum.
    """
    tr = trace_faces(model)
    s = 0
    for f in tr.faces:
        pts = [tr.dart_cell[d] for d in f.darts]
        for (x0, y0), (x1, y1) in zip(pts, pts[1:] + pts[:1]):
            s += x0 * y1 - x1 * y0
    return s


def validate_model(model: DimerModel) -> ValidationReport:
    """Run the six validity checks and report each one by name.

    The checks, in order: ``bipartite`` (colors and endpoint references),
    ``rotation`` (each vertex's cyclic order lists exactly its incident
    edges), ``connected``, ``euler`` (V - E + F = 0, i.e. the map really
    lives on a torus), ``face-offsets`` (every face closes up in the cover),
    and ``homology-span`` (the edge offsets wrap the faces once around the
    torus, counterclockwise: :func:`faces_area2` is 2, so the offsets
    generate ``Z^2`` and agree with the rotation's orientation).  Later
    checks that depend on a failed earlier one are reported as not
    evaluated.
    """
    checks: list[ValidationCheck] = []

    errs, rerrs = _soundness(model)
    checks.append(ValidationCheck("bipartite", not errs, "; ".join(errs)))
    structural_ok = not errs

    if structural_ok:
        checks.append(ValidationCheck("rotation", not rerrs, "; ".join(rerrs)))
        rotation_ok = not rerrs
    else:
        checks.append(ValidationCheck("rotation", False, "not evaluated"))
        rotation_ok = False

    conn = structural_ok and _connected(model)
    if structural_ok:
        checks.append(
            ValidationCheck("connected", conn, "" if conn else "graph is disconnected")
        )
    else:
        checks.append(ValidationCheck("connected", False, "not evaluated"))

    torus = False
    if rotation_ok:
        tr = trace_faces(model)
        v, e, f = len(model.vertices), len(model.edges), len(tr.faces)
        euler = v - e + f
        checks.append(
            ValidationCheck(
                "euler",
                euler == 0,
                f"V - E + F = {v} - {e} + {f} = {euler}",
            )
        )
        bad_faces = []
        for face in tr.faces:
            last = face.darts[-1]
            end = _head_cell(model, last, tr.dart_cell[last])
            if end != (0, 0):
                bad_faces.append(f"{face.id} closes with shift {end}")
        checks.append(ValidationCheck("face-offsets", not bad_faces, "; ".join(bad_faces)))
        torus = conn and euler == 0 and not bad_faces
    else:
        checks.append(ValidationCheck("euler", False, "not evaluated"))
        checks.append(ValidationCheck("face-offsets", False, "not evaluated"))

    if torus:
        area = faces_area2(model)
        detail = {2: "", -2: "edge offsets wind the faces clockwise"}.get(
            area, "edge offsets do not generate Z^2"
        )
        checks.append(ValidationCheck("homology-span", area == 2, detail))
    else:
        checks.append(ValidationCheck("homology-span", False, "not evaluated"))

    return ValidationReport(tuple(checks))


# ---------------------------------------------------------------------------
# universal-cover patches


class CoverFragment(NamedTuple):
    """Lifts of the model to the cells ``[-radius, radius]^2`` of the cover.

    Vertex lifts are ``(vertex id, cell)`` pairs.  Edge lifts are
    ``(edge id, cell)`` pairs indexed by the cell of their black endpoint;
    the white endpoint sits at ``cell + offset`` and may stick out of the
    patch.
    """

    radius: int
    vertex_lifts: tuple[tuple[str, Cell], ...]
    edge_lifts: tuple[tuple[str, Cell], ...]


def lift_patch(model: DimerModel, radius: int) -> CoverFragment:
    if radius < 0:
        raise InvalidModelError("radius must be non-negative")
    cells = [
        (i, j)
        for i in range(-radius, radius + 1)
        for j in range(-radius, radius + 1)
    ]
    vl = tuple((v.id, c) for c in cells for v in model.vertices)
    el = tuple((e.id, c) for c in cells for e in model.edges)
    return CoverFragment(radius, vl, el)


# ---------------------------------------------------------------------------
# JSON serialisation


# Python 3.10's ``fractions`` grammar without its exponent: a sign, then
# digits with an optional ``/q`` or decimal part, whitespace only around it
_RATIONAL = re.compile(r"\s*([-+]?)(?=\d|\.\d)(\d*)(?:/(\d+)|(?:\.(\d*))?)\s*")


def _rational(x: object) -> Fraction | None:
    """An int, or a ``p/q`` string of ASCII digits with an optional leading
    ``-`` and a denominator without a leading zero (what :func:`dump_model`
    writes), read without a regular expression; None for anything else,
    which :func:`rational_from_json` decides."""
    if type(x) is int:
        return Fraction(x)
    if type(x) is str and x.isascii():
        p, _, q = x.partition("/")
        if q.isdigit() and q[0] != "0" and p.removeprefix("-").isdigit():
            try:
                return Fraction(int(p), int(q))
            except ValueError:  # past the interpreter's digit limit
                return None
    return None


def rational_from_json(x: object, what: str) -> Fraction:
    """A JSON rational: an int, or a string in one fixed grammar on every
    Python (``_RATIONAL``); an exponent, digit-group underscores and spaces
    around the ``/`` are refused."""
    r = _rational(x)
    if r is not None:
        return r
    if isinstance(x, str):
        m = _RATIONAL.fullmatch(x)
        try:
            if m is None:
                raise ValueError(x)
            sign, num, den, dec = m.groups()
            p, q = int(num or "0"), int(den or "1")
            if dec:
                p, q = p * 10 ** len(dec) + int(dec), 10 ** len(dec)
            return Fraction(-p if sign == "-" else p, q)
        except (ValueError, ZeroDivisionError) as exc:  # past the digit limit, q = 0
            raise InvalidModelError(f"{what}: bad rational {x!r}") from exc
    raise InvalidModelError(f"{what}: expected int or 'p/q' string, got {x!r}")


def _frac_to_json(q: Fraction) -> int | str:
    return int(q) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


_MODEL_KEYS = frozenset({"vertices", "edges", "rotation"})
_VERTEX_KEYS = (frozenset({"id", "color"}), frozenset({"id", "color", "pos"}))
_EDGE_KEYS = frozenset({"id", "black", "white", "offset"})


def _what(kind: str, raw: object) -> str:
    """How an error names a vertex or edge entry: by its id, if it has one."""
    return f"{kind} {raw.get('id')!r}" if isinstance(raw, dict) else kind


def _bad(kind: str, raw: object, problem: str) -> InvalidModelError:
    return InvalidModelError(f"{_what(kind, raw)}: {problem}")


def _key_problem(obj: object, required: frozenset, allowed: frozenset) -> str:
    """Why ``obj`` is not an object with every ``required`` and only ``allowed`` keys."""
    if not isinstance(obj, dict):
        return "expected an object"
    if missing := required - obj.keys():
        return f"missing {sorted(missing)}"
    return f"unknown fields {sorted(obj.keys() - allowed)}"


def _str_problem(obj: dict, keys: tuple[str, ...]) -> str:
    key = next(k for k in keys if not isinstance(obj[k], str) or not obj[k])
    return f"{key!r} must be a non-empty string"


def model_from_dict(data: object) -> DimerModel:
    """Build a model from plain JSON data, rejecting anything off-schema.

    Each entry is checked once, field by field; an error names the entry
    and its first bad field.
    """
    if not isinstance(data, dict) or data.keys() != _MODEL_KEYS:
        raise InvalidModelError(f"model: {_key_problem(data, _MODEL_KEYS, _MODEL_KEYS)}")
    if not isinstance(data["vertices"], list) or not data["vertices"]:
        raise InvalidModelError("model: 'vertices' must be a non-empty list")
    if not isinstance(data["edges"], list):
        raise InvalidModelError("model: 'edges' must be a list")

    vertices = []
    for raw in data["vertices"]:
        if not isinstance(raw, dict) or raw.keys() not in _VERTEX_KEYS:
            raise _bad("vertex", raw, _key_problem(raw, *_VERTEX_KEYS))
        vid, color = raw["id"], raw["color"]
        if not (isinstance(vid, str) and vid and isinstance(color, str) and color):
            raise _bad("vertex", raw, _str_problem(raw, ("id", "color")))
        if color not in (BLACK, WHITE):
            raise _bad("vertex", raw, "color must be 'black' or 'white'")
        pos = None
        if "pos" in raw:
            p = raw["pos"]
            if not isinstance(p, list) or len(p) != 2:
                raise _bad("vertex", raw, "'pos' must be a pair")
            x, y = _rational(p[0]), _rational(p[1])
            if x is None or y is None:
                what = _what("vertex", raw)
                x, y = rational_from_json(p[0], what), rational_from_json(p[1], what)
            pos = (x, y)
        vertices.append(DimerVertex(vid, color, pos))

    vids = [v.id for v in vertices]
    known_vids = set(vids)
    if len(known_vids) != len(vids):
        raise InvalidModelError("duplicate vertex ids")
    with_pos = [v.pos for v in vertices if v.pos is not None]
    if with_pos and len(with_pos) != len(vertices):
        raise InvalidModelError("either all vertices carry 'pos' or none do")
    # as int quadruples: hashing a Fraction takes a modular inverse
    distinct = {(x.numerator, x.denominator, y.numerator, y.denominator) for x, y in with_pos}
    if len(distinct) != len(with_pos):
        raise InvalidModelError("vertex positions must be pairwise distinct")

    edges = []
    for raw in data["edges"]:
        if not isinstance(raw, dict) or raw.keys() != _EDGE_KEYS:
            raise _bad("edge", raw, _key_problem(raw, _EDGE_KEYS, _EDGE_KEYS))
        eid, b, w, off = raw["id"], raw["black"], raw["white"], raw["offset"]
        if not (isinstance(eid, str) and eid and isinstance(b, str) and b
                and isinstance(w, str) and w):
            raise _bad("edge", raw, _str_problem(raw, ("id", "black", "white")))
        if b not in known_vids or w not in known_vids:
            raise _bad("edge", raw, f"unknown vertex {w if b in known_vids else b!r}")
        if not (isinstance(off, list) and len(off) == 2 and type(off[0]) is type(off[1]) is int):
            raise _bad("edge", raw, "expected a pair of integers")
        edges.append(DimerEdge(eid, b, w, (off[0], off[1])))
    known_eids = {e.id for e in edges}
    if len(known_eids) != len(edges):
        raise InvalidModelError("duplicate edge ids")

    rot_raw = data["rotation"]
    if not isinstance(rot_raw, dict):
        raise InvalidModelError("model: 'rotation' must be an object")
    if rot_raw.keys() != known_vids:
        raise InvalidModelError("rotation keys must be exactly the vertex ids")
    rotation = []
    for vid in vids:
        lst = rot_raw[vid]
        if not isinstance(lst, list):
            raise InvalidModelError(f"rotation at {vid!r} must be a list of edge ids")
        for x in lst:
            if not isinstance(x, str) or x not in known_eids:
                # a non-string anywhere in the list is named before an unknown id
                if not all(isinstance(y, str) for y in lst):
                    raise InvalidModelError(f"rotation at {vid!r} must be a list of edge ids")
                raise InvalidModelError(f"rotation at {vid!r}: unknown edge {x!r}")
        rotation.append((vid, tuple(lst)))

    return DimerModel(tuple(vertices), tuple(edges), tuple(rotation))


def model_to_dict(model: DimerModel) -> dict:
    data: dict = {"vertices": [], "edges": [], "rotation": {}}
    for v in model.vertices:
        item: dict = {"id": v.id, "color": v.color}
        if v.pos is not None:
            item["pos"] = [_frac_to_json(v.pos[0]), _frac_to_json(v.pos[1])]
        data["vertices"].append(item)
    for e in model.edges:
        data["edges"].append(
            {"id": e.id, "black": e.black, "white": e.white, "offset": list(e.offset)}
        )
    for vid, eids in model.rotation:
        data["rotation"][vid] = list(eids)
    return data


def read_json(path: str):
    """The JSON value in a UTF-8 file.

    A file that cannot be opened, is not UTF-8 or is not JSON is unusable
    input: :class:`InvalidModelError`.  So is JSON the decoder refuses to
    build, an integer past the interpreter's digit limit or nesting past its
    recursion limit; those messages name the JSON, not the interpreter.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, ValueError) as exc:  # UnicodeDecodeError, a NUL in the path
        raise InvalidModelError(f"cannot read {path!r}: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InvalidModelError(f"{path!r} is not JSON: {exc}") from exc
    except ValueError as exc:  # an integer past the interpreter's digit limit
        raise InvalidModelError(f"{path!r} holds a JSON integer with too many digits") from exc
    except RecursionError as exc:
        raise InvalidModelError(f"{path!r} holds JSON nested too deeply") from exc


def load_model(path: str) -> DimerModel:
    return model_from_dict(read_json(path))


def dump_model(model: DimerModel, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(model_to_dict(model), fh, indent=2)
        fh.write("\n")
