"""Dual quiver: arrow cycles, complement paths, relations, 0/1 supports,
tree paths."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import TILING_COVERS, cover, sweep_corpus
from dimerkit import (
    Arrow,
    InternalConsistencyError,
    InvalidModelError,
    Quiver,
    cochar_lattice,
    example,
    example_names,
    is_semistable,
    is_stable,
    make_theta,
    p_minus,
    p_plus,
    pm_cocharacter,
    quiver_of,
    relations,
    sardo_infirri_theta,
    trace_faces,
)
from dimerkit import stability
from oracles import (
    path_class,
    path_weight,
    relations_arrow_by_arrow,
    rep_satisfies_relations,
    tree_cycle,
    tree_paths,
    vector_shift,
)

q = quiver_of(example("conifold"))
hq = quiver_of(example("honeycomb"))

PLUS = {
    "e1": ("e2", "e3", "e4"),
    "e2": ("e3", "e4", "e1"),
    "e3": ("e4", "e1", "e2"),
    "e4": ("e1", "e2", "e3"),
}
MINUS = {
    "e1": ("e4", "e3", "e2"),
    "e2": ("e1", "e4", "e3"),
    "e3": ("e2", "e1", "e4"),
    "e4": ("e3", "e2", "e1"),
}


def test_conifold_quiver_shape():
    assert q.vertices == ("f1", "f2")
    assert [(a.id, a.source, a.target) for a in q.arrows] == [
        ("e1", "f2", "f1"),
        ("e2", "f1", "f2"),
        ("e3", "f2", "f1"),
        ("e4", "f1", "f2"),
    ]
    assert dict(q.shifts) == {
        "e1": (0, 0), "e2": (-1, 0), "e3": (1, -1), "e4": (0, 1)
    }


def test_complement_paths_frozen():
    for aid in ("e1", "e2", "e3", "e4"):
        pp, pm = p_plus(q, aid), p_minus(q, aid)
        assert pp.arrows == PLUS[aid]
        assert pm.arrows == MINUS[aid]
        # both run from the head of the arrow back to its tail
        assert pp.source == q.target(aid) and pp.target == q.source(aid)
        assert pm.source == q.target(aid) and pm.target == q.source(aid)


def test_relation_cycles_bound():
    # closing p(a) with a itself gives a face cycle, which is trivial
    # in homology: its total shift vanishes
    for quiver in (q, hq):
        for rel in relations(quiver):
            sa = quiver.shift(rel.arrow)
            for side in (rel.plus, rel.minus):
                cls = path_class(quiver, side)
                assert (cls[0] + sa[0], cls[1] + sa[1]) == (0, 0)


def test_relations_one_per_arrow():
    rels = relations(q)
    assert [r.arrow for r in rels] == ["e1", "e2", "e3", "e4"]
    assert all(len(r.plus.arrows) == 3 and len(r.minus.arrows) == 3 for r in rels)


def test_honeycomb_quiver():
    assert hq.vertices == ("f1",)
    assert dict(hq.shifts) == {"e1": (-1, 1), "e2": (0, -1), "e3": (1, 0)}
    assert p_plus(hq, "e1").arrows == ("e2", "e3")
    assert p_minus(hq, "e1").arrows == ("e3", "e2")


def test_rep_satisfies_relations():
    assert rep_satisfies_relations(q, frozenset())
    assert rep_satisfies_relations(q, frozenset({"e1"}))
    assert rep_satisfies_relations(q, frozenset({"e1", "e2", "e3", "e4"}))
    # on the four-face model, dropping one arrow breaks a relation whose
    # two sides use different arrow sets
    fq = quiver_of(example("fzero"))
    full = set(fq.arrow_ids)
    assert rep_satisfies_relations(fq, frozenset(full))
    assert not rep_satisfies_relations(fq, frozenset(full - {"e1"}))


def test_matching_weights_on_relation_paths():
    # each vertex cycle crosses a perfect matching exactly once, so both
    # sides of an arrow's relation carry weight 0 or 1 together
    from dimerkit import perfect_matchings

    for name in ("conifold", "honeycomb", "fzero", "degenerate"):
        model = example(name)
        quiver = quiver_of(model)
        for matching in perfect_matchings(model):
            ind = {a: int(a in matching) for a in quiver.arrow_ids}
            for rel in relations(quiver):
                expected = 0 if rel.arrow in matching else 1
                assert path_weight(rel.plus, ind) == expected
                assert path_weight(rel.minus, ind) == expected


# ---------------------------------------------------------------------------
# the three walks tree_paths replaced, as oracle: one spanning tree, then the
# splitting's root chains, the chart characters' gauge vectors and the
# candidates' cells, each derived from it separately


def _spanning_tree(quiver, arrows):
    """``(arrow, sign, parent, child)`` steps in the order taken, sign +1
    when the arrow runs parent to child; spans when it has one step fewer
    than the quiver has vertices."""
    reached = {quiver.vertices[0]}
    steps = []
    grew = True
    while grew:
        grew = False
        for aid in arrows:
            s, t = quiver.source(aid), quiver.target(aid)
            if (s in reached) == (t in reached):
                continue
            parent, child, sign = (s, t, +1) if s in reached else (t, s, -1)
            reached.add(child)
            steps.append((aid, sign, parent, child))
            grew = True
    return steps


def _reach_cycle(quiver, steps, aid):
    # the splitting's walk: signed chains from each vertex back to the root
    reach = {quiver.vertices[0]: ()}
    for step, sign, parent, child in steps:
        reach[child] = ((step, sign),) + reach[parent]
    pos = {a: i for i, a in enumerate(quiver.arrow_ids)}
    vec = [0] * len(quiver.arrow_ids)
    vec[pos[aid]] += 1
    for step, sign in reach[quiver.target(aid)]:
        vec[pos[step]] -= sign
    for step, sign in reach[quiver.source(aid)]:
        vec[pos[step]] += sign
    return tuple(vec)


def _gamma_character(quiver, steps, aid):
    # the chart characters' walk: gauge vectors vanishing on the tree
    pos = {a: i for i, a in enumerate(quiver.arrow_ids)}
    gamma = {quiver.vertices[0]: (0,) * len(quiver.arrows)}
    for step, sign, parent, child in steps:
        k, g = pos[step], gamma[parent]
        gamma[child] = g[:k] + (g[k] - sign,) + g[k + 1:]
    s, t = quiver.source(aid), quiver.target(aid)
    return tuple(
        int(k == pos[aid]) + gt - gs
        for k, (gt, gs) in enumerate(zip(gamma[t], gamma[s]))
    )


def _tree_cells(quiver, steps):
    # the candidates' walk: cover cells, the first vertex at the origin
    cells = {quiver.vertices[0]: (0, 0)}
    for aid, sign, parent, child in steps:
        (x, y), (dx, dy) = cells[parent], quiver.shift(aid)
        cells[child] = (x + sign * dx, y + sign * dy)
    return cells


# the catalog and its covers with at most 16 arrows
TREE_CORPUS = [quiver_of(example(n)) for n in example_names()] + [
    quiver_of(cover(example(n), a, b))
    for n, edges in (("conifold", 4), ("honeycomb", 3), ("fzero", 8))
    for a in range(1, 17)
    for b in range(1, 17)
    if 1 < a * b and a * b * edges <= 16
]


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_tree_paths_match_spanning_tree(data):
    quiver = data.draw(st.sampled_from(TREE_CORPUS))
    arrows = data.draw(st.lists(st.sampled_from(quiver.arrow_ids), unique=True))
    steps = _spanning_tree(quiver, arrows)
    paths = tree_paths(quiver, arrows)
    assert (paths is None) == (len(steps) != len(quiver.vertices) - 1)
    if paths is None:
        return
    assert list(paths) == [quiver.vertices[0]] + [c for _, _, _, c in steps]
    cells = _tree_cells(quiver, steps)
    assert {v: vector_shift(quiver, p) for v, p in paths.items()} == cells
    tree = {aid for aid, _, _, _ in steps}
    for aid in quiver.arrow_ids:
        cyc = tree_cycle(quiver, paths, aid)
        assert any(cyc) == (aid not in tree), aid
        assert cyc == _gamma_character(quiver, steps, aid), aid
        assert cyc == _reach_cycle(quiver, steps, aid), aid


def test_tree_paths_pinned():
    # conifold: e2 runs f1 -> f2, so f2's path is +e2 and e4 closes e4 - e2
    paths = tree_paths(q, ["e2", "e4"])
    assert paths == {"f1": (0, 0, 0, 0), "f2": (0, 1, 0, 0)}
    assert tree_cycle(q, paths, "e4") == (0, -1, 0, 1)
    assert tree_cycle(q, paths, "e1") == (1, 1, 0, 0)
    assert tree_cycle(q, paths, "e2") == (0, 0, 0, 0)
    # e1 runs f2 -> f1: taken against its direction
    assert tree_paths(q, ["e1"])["f2"] == (-1, 0, 0, 0)
    assert tree_paths(q, []) is None
    assert tree_paths(hq, []) == {"f1": (0, 0, 0)}


# ---------------------------------------------------------------------------
# the per-arrow walk relations replaced, as oracle: for each arrow, follow
# the next-map from the arrow around its cycle, in a fresh copy of the map


def _walked_path(quiver, aid, pairs):
    nxt = dict(pairs)
    seq = []
    cur = nxt[aid]
    while cur != aid:
        seq.append(cur)
        assert len(seq) <= len(quiver.arrows), "cycle does not close"
        cur = nxt[cur]
    return tuple(reversed(seq)), quiver.target(aid), quiver.source(aid)


def _walked(path):
    return path.arrows, path.source, path.target


# the catalog and its covers up to 24 arrows, as (name, a, b)
RELATION_CORPUS = [(n, 1, 1) for n in example_names()] + [
    (n, a, b)
    for n, edges in (("conifold", 4), ("honeycomb", 3), ("fzero", 8), ("degenerate", 6))
    for a in range(1, 9)
    for b in range(1, 9)
    if 1 < a * b and a * b * edges <= 24
]


@settings(max_examples=150, deadline=None)
@given(case=st.sampled_from(RELATION_CORPUS))
def test_relations_match_per_arrow_walk(case):
    name, a, b = case
    model = example(name)
    quiver = quiver_of(model if a * b == 1 else cover(model, a, b))
    rels = relations(quiver)
    assert [r.arrow for r in rels] == list(quiver.arrow_ids)
    for rel in rels:
        want_plus = _walked_path(quiver, rel.arrow, quiver.white_next)
        want_minus = _walked_path(quiver, rel.arrow, quiver.black_next)
        assert _walked(rel.plus) == want_plus
        assert _walked(rel.minus) == want_minus
        assert p_plus(quiver, rel.arrow) == rel.plus
        assert p_minus(quiver, rel.arrow) == rel.minus


def test_relations_match_arrow_by_arrow_cuts():
    # each side a slice of its doubled cycle, as the cut arrow by arrow gives
    models = sweep_corpus()
    models.update((f"{n}-{a}x{b}", cover(example(n), a, b)) for n, a, b in TILING_COVERS)
    for name, model in models.items():
        quiver = quiver_of(model)
        assert relations(quiver) == relations_arrow_by_arrow(quiver), name


def test_relation_errors_unchanged():
    sub = Quiver(q.vertices, q.arrows, q.shifts)  # built by hand: no cycle maps
    for fn in (p_plus, p_minus):
        with pytest.raises(InvalidModelError, match="no cycle structure"):
            fn(sub, "e2")
        with pytest.raises(InvalidModelError, match="unknown arrow 'e9'"):
            fn(q, "e9")
    with pytest.raises(InvalidModelError, match="no cycle structure"):
        relations(sub)


@pytest.mark.parametrize("side", ["white", "black"])
@pytest.mark.parametrize("bad_next, message", [
    # e1 -> e2 -> e2: the walk from e1 never comes back
    ((("e1", "e2"), ("e2", "e2"), ("e3", "e4"), ("e4", "e3")),
     "^cycle through 'e1' does not close$"),
    # e1 -> e3 -> e1 closes, but e1 ends at f1 and e3 leaves f2
    ((("e1", "e3"), ("e2", "e4"), ("e3", "e1"), ("e4", "e2")),
     "^cycle through 'e1' breaks at 'e3': 'e1' ends at 'f1', 'e3' leaves 'f2'$"),
], ids=["open", "broken"])
def test_broken_cycle_maps_are_refused(side, bad_next, message):
    # a quiver built by hand whose white or black cycles do not close or do
    # not compose: every reader of the walk refuses it
    maps = {"white": q.white_next, "black": q.black_next, side: bad_next}
    for fn in (relations, cochar_lattice, lambda b: pm_cocharacter(b, {"e1"})):
        bad = Quiver(q.vertices, q.arrows, q.shifts, maps["white"], maps["black"], q.offsets)
        with pytest.raises(InternalConsistencyError, match=message):
            fn(bad)


def test_arrow_ends_follow_the_face_trace():
    # the arrow dual to edge p runs from the face of dart 2p + 1 to the face
    # of dart 2p, and the quiver lists the faces in trace order
    for name, model in sweep_corpus().items():
        tr = trace_faces(model)
        assert quiver_of(model).ends == tuple(zip(tr.face[1::2], tr.face[0::2])), name


def test_arrow_ends_of_hand_built_quivers():
    # the reversed quiver of the G-Hilb oracle, and the vertices relisted
    for model in (cover(example("honeycomb"), 2, 3), example("fzero")):
        qm = quiver_of(model)
        flipped = tuple(Arrow(a.id, a.target, a.source) for a in qm.arrows)
        for built in (
            Quiver(qm.vertices, flipped, qm.shifts),
            Quiver(qm.vertices[::-1], qm.arrows, qm.shifts),
        ):
            pos = built.vertex_pos
            assert built.ends == tuple(
                (pos[a.source], pos[a.target]) for a in built.arrows
            )
        assert Quiver(qm.vertices, flipped, qm.shifts).ends == tuple(
            (t, s) for s, t in qm.ends
        )


def test_arrow_at_an_unlisted_vertex_is_refused():
    bad = Quiver(("f1", "f2"), (Arrow("a", "f1", "f9"), Arrow("b", "f2", "f1")), ())
    theta = make_theta(bad, {"f1": -1, "f2": 1})
    for read in (
        lambda: bad.ends,
        lambda: is_stable(bad, ["a", "b"], theta),
        lambda: is_semistable(bad, ["b"], theta),
        lambda: stability._lift(bad, theta),
        lambda: sardo_infirri_theta(bad, ["b"], {"a": 1}),
    ):
        with pytest.raises(InvalidModelError, match="^arrow 'a' joins an unknown vertex$"):
            read()


@pytest.mark.parametrize("vertices, ids, read, message", [
    (("f1", "f2"), ("a", "a"), lambda b: b.arrow("a"), "^duplicate arrow id 'a'$"),
    (("f1", "f2"), ("a", "a"), lambda b: b.arrow_pos, "^duplicate arrow id 'a'$"),
    (("f1", "f2", "f1"), ("a", "b"), lambda b: b.vertex_pos, "^duplicate vertex 'f1'$"),
    (("f1", "f2", "f1"), ("a", "b"), lambda b: b.ends, "^duplicate vertex 'f1'$"),
], ids=["arrow", "arrow_pos", "vertex_pos", "ends"])
def test_names_used_twice_are_refused(vertices, ids, read, message):
    arrows = (Arrow(ids[0], "f1", "f2"), Arrow(ids[1], "f2", "f1"))
    with pytest.raises(InvalidModelError, match=message):
        read(Quiver(vertices, arrows, ()))
