"""Tiling structure: face tracing, validation, cover lifts, JSON round-trip."""

import json
from fractions import Fraction as F
from operator import add, or_

import pytest
from hypothesis import example as hyp_example
from hypothesis import given, settings
from hypothesis import strategies as st

from dimerkit import (
    DimerEdge,
    DimerModel,
    DimerVertex,
    InvalidModelError,
    dump_model,
    example,
    example_names,
    face_gluing_shifts,
    lift_patch,
    load_model,
    model_from_dict,
    model_to_dict,
    quiver_of,
    trace_faces,
    validate_model,
)
from dimerkit.model import (
    _add_forest_path,
    _connected,
    _spanning_forest,
    _subset_folds,
    faces_area2,
    rational_from_json,
)
from dimerkit.stability import make_theta
from conftest import SPECTRUM_COVERS, cover, sweep_corpus
from oracles import (
    connected_by_dfs,
    cycle_maps_by_rotation,
    next_dart_by_rotation,
    rational_by_fraction_str,
)

conifold = example("conifold")
honeycomb = example("honeycomb")


def _num(model, dart):
    """The number of an ``(edge id, sign)`` dart: ``2p`` runs along
    ``edges[p]`` black to white, ``2p + 1`` back."""
    p = [e.id for e in model.edges].index(dart[0])
    return 2 * p + (dart[1] < 0)


def test_conifold_faces_and_cells():
    tr = trace_faces(conifold)
    assert [f.id for f in tr.faces] == ["f1", "f2"]
    f1, f2 = tr.faces
    assert f1.darts == (("e1", 1), ("e4", -1), ("e3", 1), ("e2", -1))
    assert f2.darts == (("e1", -1), ("e4", 1), ("e3", -1), ("e2", 1))
    assert [_num(conifold, d) for d in f1.darts + f2.darts] == [0, 7, 4, 3, 1, 6, 5, 2]
    assert tr.cell[_num(conifold, ("e1", 1))] == (0, 0)
    assert tr.cell[_num(conifold, ("e4", -1))] == (0, 0)
    assert tr.cell[_num(conifold, ("e3", 1))] == (0, 1)
    assert tr.cell[_num(conifold, ("e2", -1))] == (-1, 0)
    assert tr.cell[_num(conifold, ("e3", -1))] == (0, -1)
    assert tr.cell[_num(conifold, ("e2", 1))] == (1, 0)
    assert tr.faces[tr.face[_num(conifold, ("e3", 1))]].id == "f1"
    assert tr.faces[tr.face[_num(conifold, ("e3", -1))]].id == "f2"


def test_honeycomb_single_hexagon():
    tr = trace_faces(honeycomb)
    assert len(tr.faces) == 1
    f = tr.faces[0]
    assert f.darts == (
        ("e1", 1), ("e3", -1), ("e2", 1), ("e1", -1), ("e3", 1), ("e2", -1)
    )
    assert tr.cell[_num(honeycomb, ("e2", 1))] == (0, 1)
    assert tr.cell[_num(honeycomb, ("e1", -1))] == (-1, 1)
    assert tr.cell[_num(honeycomb, ("e2", -1))] == (-1, 0)


def test_gluing_shifts():
    assert face_gluing_shifts(conifold) == {
        "e1": (0, 0), "e2": (-1, 0), "e3": (1, -1), "e4": (0, 1)
    }
    assert face_gluing_shifts(honeycomb) == {
        "e1": (-1, 1), "e2": (0, -1), "e3": (1, 0)
    }


def test_catalog_names():
    from dimerkit import example_names

    assert example_names() == ("conifold", "honeycomb", "fzero", "degenerate")
    with pytest.raises(InvalidModelError):
        example("unknown-model")


def test_every_catalog_model_validates():
    for name in ("conifold", "honeycomb", "fzero", "degenerate"):
        report = validate_model(example(name))
        assert report.ok, (name, [c.name for c in report.checks if not c.ok])
        assert [c.name for c in report.checks] == [
            "bipartite", "rotation", "connected", "euler",
            "face-offsets", "homology-span",
        ]


def test_wrong_rotation_fails_euler():
    # swapping two edges in one rotation changes the face count
    bad = DimerModel(
        vertices=honeycomb.vertices,
        edges=honeycomb.edges,
        rotation=(("b1", ("e1", "e2", "e3")), ("w1", ("e1", "e3", "e2"))),
    )
    report = validate_model(bad)
    assert not report.ok
    assert not report.check("euler").ok
    assert report.check("homology-span").detail == "not evaluated"


def test_collinear_offsets_fail_homology_span():
    bad = DimerModel(
        vertices=honeycomb.vertices,
        edges=(
            DimerEdge("e1", "b1", "w1", (0, 0)),
            DimerEdge("e2", "b1", "w1", (-1, 0)),
            DimerEdge("e3", "b1", "w1", (1, 0)),
        ),
        rotation=honeycomb.rotation,
    )
    report = validate_model(bad)
    assert not report.ok
    assert not report.check("homology-span").ok


def test_two_honeycombs_are_disconnected():
    # each component lives on its own torus, so euler and face-offsets pass
    twin = DimerModel(
        vertices=honeycomb.vertices + tuple(
            DimerVertex(v.id + "'", v.color, v.pos) for v in honeycomb.vertices
        ),
        edges=honeycomb.edges + tuple(
            DimerEdge(e.id + "'", e.black + "'", e.white + "'", e.offset)
            for e in honeycomb.edges
        ),
        rotation=honeycomb.rotation + tuple(
            (vid + "'", tuple(eid + "'" for eid in rot))
            for vid, rot in honeycomb.rotation
        ),
    )
    report = validate_model(twin)
    assert [(c.name, c.detail) for c in report.checks if not c.ok] == [
        ("connected", "graph is disconnected"),
        ("homology-span", "not evaluated"),
    ]
    assert _connected(twin) is connected_by_dfs(twin) is False


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_spanning_forest_and_path_walk(data):
    # on any multigraph with loops, some edges left out: one root per
    # component, its least vertex; every parent edge joins its vertex to one
    # ranked earlier; and the walk between two vertices of one tree adds a
    # unit flow from the first to the second along tree edges only
    n = data.draw(st.integers(1, 9))
    vertex = st.integers(0, n - 1)
    ends = data.draw(st.lists(st.none() | st.tuples(vertex, vertex), max_size=14))
    up, rank = _spanning_forest(n, ends)
    assert sorted(rank) == list(range(n))
    least = list(range(n))  # each vertex's least vertex in its component
    for _ in range(n):
        for e in filter(None, ends):
            least[e[0]] = least[e[1]] = min(least[e[0]], least[e[1]])
    assert [v for v in range(n) if up[v] < 0] == sorted(set(least))
    for v in range(n):
        if up[v] >= 0:
            t, h = ends[up[v]]
            assert v in (t, h) and t != h and rank[t + h - v] < rank[v]
    a, b = data.draw(vertex), data.draw(vertex)
    if least[a] == least[b]:
        vec = [0] * len(ends)
        _add_forest_path(ends, up, rank, a, b, vec)
        net = [0] * n
        for i, x in enumerate(vec):
            if x:
                assert i in up, i
                net[ends[i][0]] -= x
                net[ends[i][1]] += x
        assert net == [(v == b) - (v == a) for v in range(n)]


def test_broken_face_offsets():
    bad = DimerModel(
        vertices=conifold.vertices,
        edges=(DimerEdge("e1", "b1", "w1", (1, 0)),) + conifold.edges[1:],
        rotation=conifold.rotation,
    )
    report = validate_model(bad)
    assert not report.ok
    assert not report.check("face-offsets").ok
    assert report.check("homology-span").detail == "not evaluated"


@pytest.mark.parametrize(
    "name, eid, move, detail",
    [
        ("conifold", "e1", (1, 0), "f1 closes with shift (1, 0); f2 closes with shift (-1, 0)"),
        ("fzero", "e4", (0, -2), "f3 closes with shift (0, -2); f4 closes with shift (0, 2)"),
    ],
)
def test_face_offsets_name_each_open_face(name, eid, move, detail):
    # each face whose trace does not close is named, in face order, with
    # the cell its trace ends at
    model = example(name)
    edges = tuple(
        e._replace(offset=(e.offset[0] + move[0], e.offset[1] + move[1])) if e.id == eid else e
        for e in model.edges
    )
    report = validate_model(DimerModel(model.vertices, edges, model.rotation))
    assert report.check("face-offsets") == ("face-offsets", False, detail)
    assert report.check("homology-span").detail == "not evaluated"


def test_monochromatic_edge_fails_bipartite():
    bad = DimerModel(
        vertices=(
            DimerVertex("b1", "black"),
            DimerVertex("b2", "black"),
        ),
        edges=(DimerEdge("e1", "b1", "b2", (0, 0)),),
        rotation=(("b1", ("e1",)), ("b2", ("e1",))),
    )
    report = validate_model(bad)
    assert not report.check("bipartite").ok
    # downstream checks cannot run on a non-map
    assert report.check("euler").detail == "not evaluated"


def test_trace_rejects_dangling_edges():
    bad = DimerModel(
        vertices=(DimerVertex("b1", "black"), DimerVertex("w1", "white")),
        edges=(DimerEdge("e1", "b1", "ghost", (0, 0)),),
        rotation=(("b1", ("e1",)), ("w1", ())),
    )
    with pytest.raises(InvalidModelError):
        trace_faces(bad)


def test_soundness_checks_run_once(monkeypatch):
    # validate_model and the face trace it starts read one memo, so quiver_of
    # after validate_model runs neither structural check again
    import dimerkit.model as model_module

    calls = []
    for name in ("_structural_errors", "_rotation_errors"):
        def spy(model, real=getattr(model_module, name), name=name):
            calls.append(name)
            return real(model)

        monkeypatch.setattr(model_module, name, spy)
    fresh = model_from_dict(model_to_dict(cover(honeycomb, 2, 2)))
    assert validate_model(fresh).ok
    quiver_of(fresh)
    assert sorted(calls) == ["_rotation_errors", "_structural_errors"]


@pytest.mark.parametrize("edges, rotation, message", [
    # structurally unsound: the rotation is never checked
    (
        (DimerEdge("e1", "b1", "w1", (0, 0)), DimerEdge("e1", "w1", "b1", (0, 0))),
        (("b1", ("e1",)), ("w1", ("e1", "e2"))),
        "duplicate edge id 'e1'; edge 'e1': vertex 'w1' is white, expected black; "
        "edge 'e1': vertex 'b1' is black, expected white",
    ),
    # sound, but the rotations do not list the incident edges
    (
        (DimerEdge("e1", "b1", "w1", (0, 0)), DimerEdge("e2", "b1", "w1", (1, 0))),
        (("b1", ("e1",)), ("w1", ("e1", "e2", "e2"))),
        "rotation at 'b1' is not a cyclic order of its incident edges; "
        "rotation at 'w1' is not a cyclic order of its incident edges",
    ),
], ids=["structure", "rotation"])
def test_unsound_models_name_every_error(edges, rotation, message):
    vertices = (DimerVertex("b1", "black"), DimerVertex("w1", "white"))
    bad = DimerModel(vertices, edges, rotation)
    for _ in range(2):  # the second trace reads the memoized errors
        with pytest.raises(InvalidModelError) as err:
            trace_faces(bad)
        assert str(err.value) == message
    report = validate_model(bad)
    assert message in (report.check("bipartite").detail, report.check("rotation").detail)


def test_lift_patch_counts():
    patch = lift_patch(conifold, 1)
    assert len(patch.vertex_lifts) == 2 * 9
    assert len(patch.edge_lifts) == 4 * 9
    assert ("e3", (-1, 1)) in patch.edge_lifts
    with pytest.raises(InvalidModelError):
        lift_patch(conifold, -1)


def test_json_round_trip(tmp_path):
    for name in ("conifold", "honeycomb", "fzero", "degenerate"):
        m = example(name)
        path = tmp_path / f"{name}.json"
        dump_model(m, path)
        assert load_model(path) == m
        # positions survive as exact rationals
        data = json.loads(path.read_text())
        assert all(
            isinstance(v.get("pos", [0, 0])[0], (int, str))
            for v in data["vertices"]
        )


_DELETE = object()

# (where in conifold's JSON data, what to put there or _DELETE, the message);
# the path () replaces the whole document
SCHEMA_REJECTIONS = [
    ((), [], "model: expected an object"),
    (("extra",), 1, "model: unknown fields ['extra']"),
    (("rotation",), _DELETE, "model: missing ['rotation']"),
    (("vertices",), [], "model: 'vertices' must be a non-empty list"),
    (("vertices",), {}, "model: 'vertices' must be a non-empty list"),
    (("edges",), {}, "model: 'edges' must be a list"),
    (("vertices", 0), 5, "vertex: expected an object"),
    (("vertices", 0), ["b1"], "vertex: expected an object"),
    (("vertices", 0, "color"), _DELETE, "vertex 'b1': missing ['color']"),
    (("vertices", 0, "id"), _DELETE, "vertex None: missing ['id']"),
    (("vertices", 0, "size"), 1, "vertex 'b1': unknown fields ['size']"),
    (("vertices", 0, "id"), "", "vertex '': 'id' must be a non-empty string"),
    (("vertices", 0, "id"), None, "vertex None: 'id' must be a non-empty string"),
    (("vertices", 0, "color"), 1, "vertex 'b1': 'color' must be a non-empty string"),
    (("vertices", 0, "color"), "BLACK", "vertex 'b1': color must be 'black' or 'white'"),
    (("vertices", 0, "pos"), [0, 0, 0], "vertex 'b1': 'pos' must be a pair"),
    (("vertices", 0, "pos"), "0 0", "vertex 'b1': 'pos' must be a pair"),
    (("vertices", 0, "pos", 0), True, "vertex 'b1': expected int or 'p/q' string, got True"),
    (("vertices", 0, "pos", 1), 0.5, "vertex 'b1': expected int or 'p/q' string, got 0.5"),
    (("vertices", 1, "pos", 0), "1/0", "vertex 'w1': bad rational '1/0'"),
    (("vertices", 1, "pos", 0), "1e3", "vertex 'w1': bad rational '1e3'"),
    (("vertices", 0, "pos"), _DELETE, "either all vertices carry 'pos' or none do"),
    (("vertices", 1, "pos"), [0, 0], "vertex positions must be pairwise distinct"),
    (("vertices", 1, "pos"), ["0/3", "-0"], "vertex positions must be pairwise distinct"),
    (("vertices", 1, "id"), "b1", "duplicate vertex ids"),
    (("edges", 0), "e1", "edge: expected an object"),
    (("edges", 0, "offset"), _DELETE, "edge 'e1': missing ['offset']"),
    (("edges", 0, "weight"), 1, "edge 'e1': unknown fields ['weight']"),
    (("edges", 0, "black"), 7, "edge 'e1': 'black' must be a non-empty string"),
    (("edges", 0, "white"), "", "edge 'e1': 'white' must be a non-empty string"),
    (("edges", 0, "black"), "ghost", "edge 'e1': unknown vertex 'ghost'"),
    (("edges", 0, "white"), "ghost", "edge 'e1': unknown vertex 'ghost'"),
    (("edges", 0, "offset"), [True, 0], "edge 'e1': expected a pair of integers"),
    (("edges", 0, "offset"), [0], "edge 'e1': expected a pair of integers"),
    (("edges", 0, "offset"), [0, 0.0], "edge 'e1': expected a pair of integers"),
    (("edges", 1, "id"), "e1", "duplicate edge ids"),
    (("rotation",), ["b1", "w1"], "model: 'rotation' must be an object"),
    (("rotation", "ghost"), ["e1"], "rotation keys must be exactly the vertex ids"),
    (("rotation", "w1"), _DELETE, "rotation keys must be exactly the vertex ids"),
    (("rotation", "b1"), "e1", "rotation at 'b1' must be a list of edge ids"),
    (("rotation", "b1", 0), 1, "rotation at 'b1' must be a list of edge ids"),
    (("rotation", "b1", 0), "e9", "rotation at 'b1': unknown edge 'e9'"),
]


def test_schema_rejections():
    # every rejection's whole message, first problem first
    for path, value, message in SCHEMA_REJECTIONS:
        data = model_to_dict(conifold)
        if path:
            *head, last = path
            target = data
            for key in head:
                target = target[key]
            if value is _DELETE:
                del target[last]
            else:
                target[last] = value
        else:
            data = value
        with pytest.raises(InvalidModelError) as err:
            model_from_dict(data)
        assert str(err.value) == message, path


@pytest.mark.parametrize("later", [True, 1.0, [1], {"1": 0}, None])
@pytest.mark.parametrize("earlier", [1, "1"])
@pytest.mark.parametrize("axis", [0, 1])
def test_coordinate_read_before_does_not_admit_an_equal_value(axis, earlier, later):
    # a coordinate read once is looked up by its string alone: True and 1.0
    # equal 1 and hash alike, and a list or dict cannot be hashed, yet each
    # is refused as the first coordinate of the model would be
    data = model_to_dict(conifold)
    data["vertices"][0]["pos"] = [earlier, earlier]
    data["vertices"][1]["pos"] = [earlier, earlier]
    data["vertices"][1]["pos"][axis] = later
    with pytest.raises(InvalidModelError) as err:
        model_from_dict(data)
    assert str(err.value) == f"vertex 'w1': expected int or 'p/q' string, got {later!r}"


def test_coordinate_spellings_load_as_one_value():
    spellings = ["1/2", "2/4", " 1/2 ", "0.5"]
    data = model_to_dict(cover(conifold, 2, 1))
    for i, (v, x) in enumerate(zip(data["vertices"], spellings, strict=True)):
        v["pos"] = [x, i]
    m = model_from_dict(data)
    assert [v.pos for v in m.vertices] == [(F(1, 2), i) for i in range(4)]
    assert [v["pos"] for v in model_to_dict(m)["vertices"]] == [["1/2", i] for i in range(4)]


def test_each_coordinate_string_is_read_once(tmp_path):
    # the 400 coordinates of the honeycomb 10x10 cover are spelled 20 ways,
    # and the vertices that spell one alike share its Fraction
    path = tmp_path / "honeycomb-10x10.json"
    dump_model(cover(honeycomb, 10, 10), path)
    coordinates = [c for v in load_model(path).vertices for c in v.pos]
    assert len(coordinates) == 400
    assert len({id(c) for c in coordinates}) == 20


def _read(fn, x, what):
    try:
        return fn(x, what)
    except InvalidModelError as exc:
        return f"error: {exc}"


def _check_rational(x):
    # rational_from_json and make_theta agree with Fraction(str) on the
    # spellings every Python reads alike: the same value, or the same
    # message
    want = _read(rational_by_fraction_str, x, "pos")
    got = _read(rational_from_json, x, "pos")
    assert (type(got), got) == (type(want), want)
    want = _read(rational_by_fraction_str, x, "weight of 'f1'")
    q = quiver_of(conifold)  # faces f1, f2
    if isinstance(want, F):
        assert make_theta(q, {"f1": x, "f2": -want}).values == (("f1", want), ("f2", -want))
    else:
        assert _read(lambda y, _: make_theta(q, {"f1": y, "f2": 0}), x, "") == want


@pytest.mark.parametrize("x", [
    "03/4", "3/04", "3/0", "-0/5", "+1/2", " 1/2 ", "1_0/3",
    "\u0661/2",  # an Arabic-Indic one
    "0.5", "1e3", "7", "-/3", "1/-2", "1/2/3", 0, -5, True, 0.5, None,
    "1 / 2", "1/ 2", "1 /2", "1_000/3",
])
def test_rational_spellings_match_fraction(x):
    _check_rational(x)


@pytest.mark.parametrize("x", ["1 / 2", "1/\t2", "1_000/3", "1_0/30", "1e3", "1E-2"])
def test_rationals_later_pythons_widen_are_refused(x):
    # Python 3.11 reads underscores and 3.12 spaces around the slash; a
    # model file loads the same on every Python
    assert _read(rational_from_json, x, "pos") == f"error: pos: bad rational {x!r}"


def test_rational_past_the_digit_limit_is_bad():
    # int() refuses it as Fraction(str) does, and the message says so
    x = "1" * 5000 + "/3"
    _check_rational(x)
    assert _read(rational_from_json, x, "pos") == f"error: pos: bad rational {x!r}"


@settings(max_examples=300, deadline=None)
@given(st.one_of(
    st.integers(),
    st.builds("{}/{}".format, st.integers(), st.integers(min_value=0)),
    st.text(alphabet="0123456789-+/_. eE\u0661\u00b2", max_size=8),
))
def test_rationals_match_fraction(x):
    _check_rational(x)


def test_rotation_unknown_edge_named():
    bad = model_to_dict(conifold)
    bad["rotation"]["b1"][0] = "zz"
    with pytest.raises(InvalidModelError) as exc:
        model_from_dict(bad)
    assert str(exc.value) == "rotation at 'b1': unknown edge 'zz'"


def test_face_side_bookkeeping_all_fixtures():
    for name in ("conifold", "honeycomb", "fzero", "degenerate"):
        model = example(name)
        tr = trace_faces(model)
        # every dart (edge side) is used exactly once across all faces,
        # so each edge shows up in exactly two boundary sides and the
        # boundary lengths sum to 2E
        seen = [d for f in tr.faces for d in f.darts]
        assert len(seen) == len(set(seen)) == 2 * len(model.edges)
        per_edge = {}
        for eid, _ in seen:
            per_edge[eid] = per_edge.get(eid, 0) + 1
        assert set(per_edge.values()) == {2}
        # colors alternate along each face, hence faces have even length
        for f in tr.faces:
            assert len(f.darts) % 2 == 0
            signs = [s for _, s in f.darts]
            assert all(a != b for a, b in zip(signs, signs[1:] + signs[:1]))


def test_duplicate_vertex_id_keeps_first_color():
    # the first vertex of a repeated id decides the endpoint's color
    bad = DimerModel(
        vertices=(
            DimerVertex("b1", "black"),
            DimerVertex("w1", "white"),
            DimerVertex("w1", "black"),
        ),
        edges=(DimerEdge("e1", "b1", "w1", (0, 0)), DimerEdge("e2", "w1", "b1", (0, 0))),
        rotation=(("b1", ("e1", "e2")), ("w1", ("e1", "e2"))),
    )
    assert validate_model(bad).check("bipartite").detail == (
        "duplicate vertex id 'w1'; "
        "edge 'e2': vertex 'w1' is white, expected black; "
        "edge 'e2': vertex 'b1' is black, expected white"
    )


def _drop_pos(model):
    vertices = tuple(DimerVertex(v.id, v.color) for v in model.vertices)
    return DimerModel(vertices, model.edges, model.rotation)


def _map_offsets(model, a, b, c, d):
    edges = tuple(
        DimerEdge(e.id, e.black, e.white, (a * x + b * y, c * x + d * y))
        for e in model.edges
        for x, y in [e.offset]
    )
    return DimerModel(model.vertices, edges, model.rotation)


SWEEP_CORPUS = sweep_corpus()
# every catalog model, tests/data/* and the certify covers, by name
DEGREE_CORPUS = {
    name: m
    for name, m in SWEEP_CORPUS.items()
    if name not in {f"{n}-{a}x{b}" for n, a, b in SPECTRUM_COVERS}
}
_entry = st.integers(-2, 2)


@settings(max_examples=200, deadline=None)
@given(
    name=st.sampled_from(sorted(DEGREE_CORPUS)),
    keep_pos=st.booleans(),
    matrix=st.tuples(_entry, _entry, _entry, _entry),
)
@hyp_example(name="conifold", keep_pos=True, matrix=(0, 1, 1, 0))
@hyp_example(name="honeycomb", keep_pos=False, matrix=(2, 0, 0, 1))
@hyp_example(name="fzero", keep_pos=True, matrix=(1, 2, 2, 4))
@hyp_example(name="honeycomb_wound.json", keep_pos=False, matrix=(-1, 0, 0, 1))
def test_faces_area2_is_twice_the_degree(name, keep_pos, matrix):
    # mapping every offset by A maps every face's cells by A: faces still
    # close, the signed cell area scales by det A, and the offsets span Z^2
    # exactly when |det A| is 1
    model = DEGREE_CORPUS[name]
    base = -2 if name == "honeycomb_wound.json" else 2
    assert faces_area2(model) == base
    a, b, c, d = matrix
    det = a * d - b * c
    mapped = _map_offsets(model if keep_pos else _drop_pos(model), a, b, c, d)
    report = validate_model(mapped)
    assert report.check("face-offsets").ok
    assert faces_area2(mapped) == base * det
    span = report.check("homology-span")
    assert span.ok == (base * det == 2)
    if abs(det) != 1:
        assert span.detail == "edge offsets do not generate Z^2"
    elif not span.ok:
        assert "clockwise" in span.detail
    assert report.ok == span.ok


# ---------------------------------------------------------------------------
# the turn table against the rotation lookups it replaced


def _assert_turn_table(model):
    # next is the rotation's turn dart by dart, a permutation of all 2E
    # darts whose cycles are exactly the faces; the quiver's cycle maps
    # read off it are the rotation's
    tr = trace_faces(model)
    darts = [(e.id, sign) for e in model.edges for sign in (+1, -1)]  # by number
    assert [darts[d] for d in tr.next] == [next_dart_by_rotation(model, d) for d in darts]
    assert sorted(tr.next) == list(range(len(darts)))
    assert sorted(d for f in tr.faces for d in f.darts) == sorted(darts)
    for f in tr.faces:
        nums = [_num(model, d) for d in f.darts]
        assert [tr.next[d] for d in nums] == nums[1:] + nums[:1]
    q = quiver_of(model)
    assert (q.white_next, q.black_next) == cycle_maps_by_rotation(model)


@pytest.mark.parametrize("name", sorted(SWEEP_CORPUS))
def test_turn_table_matches_rotation(name):
    _assert_turn_table(SWEEP_CORPUS[name])


# the catalog and its covers up to 24 edges, as (name, a, b)
SHUFFLE_CORPUS = [
    (n, a, b)
    for n in example_names()
    for a in range(1, 4)
    for b in range(1, 4)
    if a * b * len(example(n).edges) <= 24
]


@settings(max_examples=100, deadline=None)
@given(case=st.sampled_from(SHUFFLE_CORPUS), data=st.data())
def test_turn_table_on_shuffled_rotations(case, data):
    # any rotation passes the bipartite and rotation checks, which is all
    # trace_faces needs, though most such tilings fail euler
    name, a, b = case
    model = cover(example(name), a, b)
    rotation = tuple(
        (vid, tuple(data.draw(st.permutations(rot)))) for vid, rot in model.rotation
    )
    shuffled = DimerModel(model.vertices, model.edges, rotation)
    assert validate_model(shuffled).check("rotation").ok
    _assert_turn_table(shuffled)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 9), st.randoms(use_true_random=False))
def test_subset_folds_stream_every_subset_once(n, rng):
    # OR over distinct bits in any order names each subset: every subset
    # comes once, the m-th of m.bit_count() values; sums fold the same order
    bits = [1 << i for i in range(n)]
    rng.shuffle(bits)
    unions = list(_subset_folds(bits, or_))
    assert sorted(unions) == list(range(1 << n))
    assert [u.bit_count() for u in unions] == [m.bit_count() for m in range(1 << n)]
    assert list(_subset_folds(bits, add)) == unions
