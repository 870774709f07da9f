"""Torus-fixed candidates, fundamental domains, chart data, fan certificate."""

import functools
import os
import random
from collections import Counter
from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dimerkit import (
    CASE_SIX_OPPOSITE,
    Chart,
    ChartClassification,
    DimerEdge,
    DimerModel,
    ChartCone,
    DegenerateModelError,
    FixedPointCandidate,
    InternalConsistencyError,
    InvalidModelError,
    Theta,
    area2,
    assemble_fan,
    chart_characters,
    chart_cone,
    chart_rows,
    char_poly,
    classify_chart,
    cochar_lattice,
    contains_point,
    convex_hull,
    enumerate_fixed_candidates,
    example,
    express_functional,
    fundamental_domain,
    height_change,
    is_stable,
    load_model,
    make_theta,
    newton_polygon,
    perfect_matchings,
    quiver_of,
    sample_generic_theta,
    split_by_reference,
    validate_model,
    verify_crepant,
)
from conftest import CERTIFY_COVERS, cover, deletion_corpus, outcome, sweep_corpus
from oracles import (
    chart_transition,
    classify_chart_by_dicts,
    det_int,
    express_functional_dense,
    fixed_candidates_by_enumeration,
    fundamental_domain_by_dicts,
    king_by_reach_sets,
    rep_satisfies_relations,
    tree_cycle,
    tree_paths,
    vector_shift,
    walk_shoelace,
)
from dimerkit import charts
from dimerkit import model as model_module
from dimerkit.model import _add_forest_path, _spanning_forest, faces_area2, per_object
from dimerkit.stability import _lift

conifold = example("conifold")
honeycomb = example("honeycomb")
q = quiver_of(conifold)
qh = quiver_of(honeycomb)
THETA = Theta((("f1", 3), ("f2", -3)))


def _candidates():
    return enumerate_fixed_candidates(conifold, THETA)


def test_conifold_candidates():
    a, b = _candidates()
    assert sorted(a.support) == ["e1"]
    assert sorted(b.support) == ["e3"]
    assert dict(a.cells) == {"f1": (0, 0), "f2": (0, 0)}
    assert dict(b.cells) == {"f1": (0, 0), "f2": (-1, 1)}


def test_opposite_chamber():
    cands = enumerate_fixed_candidates(conifold, Theta((("f1", -3), ("f2", 3))))
    assert [sorted(c.support) for c in cands] == [["e2"], ["e4"]]


def test_honeycomb_single_candidate():
    cands = enumerate_fixed_candidates(honeycomb, Theta((("f1", 0),)))
    assert len(cands) == 1
    assert cands[0].support == frozenset()


def test_fundamental_domains():
    a, b = _candidates()
    dom_a = fundamental_domain(conifold, a)
    assert dom_a.interior_edges == (("e1", (0, 0)),)
    assert dom_a.boundary[0] == (("e2", 1), (1, 0))
    tails = []
    for (eid, sign), cell in dom_a.boundary:
        e = conifold.edge(eid)
        tails.append((e.black if sign > 0 else e.white, cell))
    assert tails == [
        ("b1", (1, 0)), ("w1", (0, 0)), ("b1", (0, 1)),
        ("w1", (-1, 0)), ("b1", (0, 0)), ("w1", (0, -1)),
    ]

    dom_b = fundamental_domain(conifold, b)
    assert dom_b.interior_edges == (("e3", (0, 1)),)
    assert dom_b.boundary[0] == (("e1", 1), (0, 0))

    cand_h = enumerate_fixed_candidates(honeycomb, Theta((("f1", 0),)))[0]
    dom_h = fundamental_domain(honeycomb, cand_h)
    assert dom_h.interior_edges == ()
    assert len(dom_h.boundary) == 6


def test_classification():
    a, b = _candidates()
    cls_a = classify_chart(conifold, a)
    assert cls_a.case == CASE_SIX_OPPOSITE and cls_a.smooth
    assert cls_a.census == ((3, 6),)
    assert cls_a.corner == ("b1", (1, 0))
    assert cls_a.coordinate_edges == ("e2", "e3", "e4")

    cls_b = classify_chart(conifold, b)
    assert cls_b.case == CASE_SIX_OPPOSITE
    assert cls_b.corner == ("b1", (0, 0))
    assert cls_b.coordinate_edges == ("e1", "e2", "e4")

    cand_h = enumerate_fixed_candidates(honeycomb, Theta((("f1", 0),)))[0]
    cls_h = classify_chart(honeycomb, cand_h)
    assert cls_h.case == CASE_SIX_OPPOSITE
    assert cls_h.coordinate_edges == ("e1", "e2", "e3")


def test_characters_rows_cones():
    a, b = _candidates()
    cls_a = classify_chart(conifold, a)
    cls_b = classify_chart(conifold, b)
    split = split_by_reference(q, perfect_matchings(conifold)[0])

    chars_a = chart_characters(q, a, cls_a.coordinate_edges)
    assert chars_a[0] == {"e1": 1, "e2": 1, "e3": 0, "e4": 0}
    rows_a = chart_rows(q, split, chars_a)
    assert rows_a == ((0, -1, 1), (1, 1, -1), (-1, 0, 1))
    cone_a = chart_cone(rows_a)
    assert cone_a.det == 1
    assert cone_a.rays == ((1, 0, 1), (1, 1, 1), (0, 1, 1))

    rows_b = chart_rows(q, split, chart_characters(q, b, cls_b.coordinate_edges))
    assert rows_b == ((-1, -1, 1), (1, 0, 0), (0, 1, 0))
    assert chart_cone(rows_b).rays == ((0, 0, 1), (1, 0, 1), (0, 1, 1))

    # the product of the coordinate characters is the level functional
    for rows in (rows_a, rows_b):
        assert tuple(sum(r[i] for r in rows) for i in range(3)) == (0, 0, 1)

    tr = chart_transition(rows_a, rows_b)
    assert det_int(tr) == 1
    assert all(isinstance(x, int) for row in tr for x in row)


def test_honeycomb_chart_is_standard():
    cand = enumerate_fixed_candidates(honeycomb, Theta((("f1", 0),)))[0]
    cls = classify_chart(honeycomb, cand)
    split = split_by_reference(qh, perfect_matchings(honeycomb)[0])
    rows = chart_rows(qh, split, chart_characters(qh, cand, cls.coordinate_edges))
    assert rows == ((-1, -1, 1), (1, 0, 0), (0, 1, 0))
    assert chart_cone(rows).rays == ((0, 0, 1), (1, 0, 1), (0, 1, 1))


def _clip_area2(tri_a, tri_b):
    """Twice the area where two counterclockwise triangles overlap (clipping)."""
    poly = [(Fraction(x), Fraction(y)) for x, y in tri_a]
    for a, b in zip(tri_b, tri_b[1:] + tri_b[:1]):
        if not poly:
            break

        def side(p, a=a, b=b):
            return (b[0] - a[0]) * (p[1] - a[1]) - (b[1] - a[1]) * (p[0] - a[0])

        kept = []
        for p, pn in zip(poly, poly[1:] + poly[:1]):
            sp, sn = side(p), side(pn)
            if sp >= 0:
                kept.append(p)
            if (sp > 0 and sn < 0) or (sp < 0 and sn > 0):
                t = sp / (sp - sn)
                kept.append((p[0] + t * (pn[0] - p[0]), p[1] + t * (pn[1] - p[1])))
        poly = kept
    if len(poly) < 3:
        return 0
    return abs(sum(x0 * y1 - x1 * y0
                   for (x0, y0), (x1, y1) in zip(poly, poly[1:] + poly[:1])))


def _tri_area2(t):
    (x0, y0), (x1, y1), (x2, y2) = t
    return (x1 - x0) * (y2 - y0) - (x2 - x0) * (y1 - y0)


def _tiles_by_clipping(poly, tris):
    """Reference verdict: inside the polygon, pairwise overlap-free by
    clipping, and covering its area."""
    inside = all(contains_point(poly, p) for t in tris for p in t)
    disjoint = all(_clip_area2(s, t) == 0 for s, t in combinations(tris, 2))
    return inside and disjoint and sum(map(_tri_area2, tris)) == area2(poly)


def _unimodular(tri):
    """Split a counterclockwise lattice triangle at lattice points it holds
    until every piece has area2 1 (an empty lattice triangle)."""
    xs, ys = [p[0] for p in tri], [p[1] for p in tri]
    for p in product(range(min(xs), max(xs) + 1), range(min(ys), max(ys) + 1)):
        if p in tri:
            continue
        parts = [(a, b, p) for a, b in zip(tri, tri[1:] + tri[:1])]
        if all(_tri_area2(t) >= 0 for t in parts):
            return [u for t in parts if _tri_area2(t) for u in _unimodular(t)]
    return [tri]


def _triangulate(poly):
    """Fan from the first vertex, each triangle split into unimodular ones."""
    v = poly.vertices
    fan = [(v[0], v[i], v[i + 1]) for i in range(1, len(v) - 1)]
    return [u for t in fan for u in _unimodular(t)]


@settings(max_examples=200, deadline=None)
@given(
    points=st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)),
                    min_size=3, max_size=8),
    perturbation=st.sampled_from(("none", "drop", "duplicate", "stray", "swap")),
    pick=st.integers(0, 63),
    stray=st.tuples(st.integers(0, 2), st.integers(-1, 1), st.integers(-1, 1)),
)
def test_certificate_matches_clipping(points, perturbation, pick, stray):
    poly = convex_hull(points)
    assume(area2(poly) > 0)
    tris = _triangulate(poly)
    assert all(_tri_area2(t) == 1 for t in tris)
    # a stray triangle of area2 1 at a corner of the picked one, with edges
    # (1, k) and (m, 1 + k m)
    i = pick % len(tris)
    corner, k, m = stray
    x, y = tris[i][corner]
    extra = ((x, y), (x + 1, y + k), (x + m, y + 1 + k * m))
    if perturbation == "drop":
        del tris[i]
    elif perturbation == "duplicate":
        tris.append(tris[i])
    elif perturbation == "stray":
        tris.append(extra)
    elif perturbation == "swap":
        tris[i] = extra
    cand = _candidates()[0]
    cls = classify_chart(conifold, cand)
    charts = [
        Chart(cand, cls, None, ChartCone(tuple((px, py, 1) for px, py in t), 1))
        for t in tris
    ]
    report = verify_crepant(poly, charts)
    assert report.ok == _tiles_by_clipping(poly, tris), report.checks


def test_assemble_fan_conifold():
    fan = assemble_fan(conifold, theta=THETA)
    assert fan.report.ok, [c for c in fan.report.checks if not c.ok]
    assert len(fan.charts) == 2
    assert {c.cone.rays for c in fan.charts} == {
        ((1, 0, 1), (1, 1, 1), (0, 1, 1)),
        ((0, 0, 1), (1, 0, 1), (0, 1, 1)),
    }
    assert [c.name for c in fan.report.checks] == [
        "charts-smooth", "cones-unimodular", "rays-level-one",
        "triangles-inside", "triangles-disjoint", "area-covered",
        "transitions-integral",
    ]


def test_transitions_from_cone_determinants():
    # hand-built smooth charts of determinant +1 and -1: the detail must be
    # what pairwise transition matrices give
    unit = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    flip = ((0, 1, 0), (1, 0, 0), (0, 0, 1))
    cand = _candidates()[0]
    cls = classify_chart(conifold, cand)
    charts = [Chart(cand, cls, rows, chart_cone(rows)) for rows in (unit, flip, unit, flip)]
    poly = newton_polygon(char_poly(conifold))
    bad = [
        (i, j)
        for i, ci in enumerate(charts)
        for j, cj in enumerate(charts)
        if i != j and det_int(chart_transition(ci.rows, cj.rows)) != 1
    ]
    check = verify_crepant(poly, charts).check("transitions-integral")
    assert not check.ok
    assert check.detail == "; ".join(map(str, bad))
    assert bad == [(0, 1), (0, 3), (1, 0), (1, 2), (2, 1), (2, 3), (3, 0), (3, 2)]


def test_chart_cone_refusals():
    assert chart_cone(((0, 1, 0), (1, 0, 0), (0, 0, 1))).det == -1
    with pytest.raises(InvalidModelError, match="exactly three characters"):
        chart_cone(((1, 0, 0), (0, 1, 0)))
    with pytest.raises(InvalidModelError, match="not square"):
        chart_cone(((1, 0, 0), (0, 1), (0, 0, 1)))
    with pytest.raises(InternalConsistencyError, match=r"not unimodular \(determinant 2\)"):
        chart_cone(((2, 0, 0), (0, 1, 0), (0, 0, 1)))


def test_assemble_fan_honeycomb():
    fan = assemble_fan(honeycomb)
    assert fan.report.ok
    assert len(fan.charts) == 1


def test_assemble_fan_sampled_theta():
    fan = assemble_fan(conifold, seed=0)
    assert fan.report.ok
    assert {frozenset(c.candidate.support) for c in fan.charts} == {
        frozenset({"e2"}), frozenset({"e4"}),
    }


def test_candidate_count_is_normalized_area():
    from dimerkit import area2

    for name, seed in (("conifold", 0), ("honeycomb", 0), ("fzero", 0)):
        fan = assemble_fan(example(name), seed=seed)
        assert len(fan.charts) == area2(fan.polygon), name


@pytest.mark.parametrize("name, a, b", [
    ("honeycomb", 2, 2), ("conifold", 2, 2), ("fzero", 2, 1),
])
def test_certificate_on_covers(name, a, b):
    # these covers have charts with an isolated zero edge inside the domain
    model = cover(example(name), a, b)
    for seed in range(4):
        fan = assemble_fan(model, seed=seed)
        assert fan.report.ok, (seed, [c for c in fan.report.checks if not c.ok])
        assert len(fan.charts) == area2(fan.polygon), seed


def test_certificate_on_edge_deletions():
    # tilings that are not covers: the theorem still gives charts = area2,
    # also where the tiling has more faces than that
    corpus = deletion_corpus()
    assert len(corpus) > 100
    more_faces = 0
    for name, model in corpus.items():
        fan = assemble_fan(model, seed=0)
        assert fan.report.ok, (name, [c for c in fan.report.checks if not c.ok])
        assert len(fan.charts) == area2(fan.polygon), name
        more_faces += len(quiver_of(model).vertices) > area2(fan.polygon)
    assert more_faces > 50


@pytest.mark.parametrize("name, a, b", [
    ("honeycomb", 2, 2), ("conifold", 2, 2), ("fzero", 2, 1),
])
def test_candidate_cells_glue_along_support(name, a, b):
    # every support arrow must step from its source's cell to its target's cell by its cover shift
    model = cover(example(name), a, b)
    quiver = quiver_of(model)
    base = perfect_matchings(model)[0]
    for seed in range(4):
        theta, _, _ = sample_generic_theta(quiver, base, random.Random(seed))
        candidates = enumerate_fixed_candidates(model, theta)
        assert candidates, seed
        for cand in candidates:
            assert [v for v, _ in cand.cells] == list(quiver.vertices)
            assert cand.cells[0][1] == (0, 0)
            cells = dict(cand.cells)
            for aid in cand.support:
                s, t = cells[quiver.source(aid)], cells[quiver.target(aid)]
                assert (t[0] - s[0], t[1] - s[1]) == quiver.shift(aid), (
                    seed, sorted(cand.support), aid,
                )


@pytest.mark.parametrize("name, a, b", [
    ("conifold", 1, 1), ("honeycomb", 1, 1), ("fzero", 1, 1),
    ("honeycomb", 2, 2), ("conifold", 2, 2), ("fzero", 2, 1),
])
def test_chart_rows_hold_on_weight_lattice(name, a, b):
    # the check express_functional once ran on every call, as oracle: each
    # character equals its row's combination of (pi_x, pi_y, level) on every
    # basis vector of the weight lattice W
    model = cover(example(name), a, b)
    quiver = quiver_of(model)
    w_basis = cochar_lattice(quiver).w_basis
    split = split_by_reference(quiver, perfect_matchings(model)[0])
    funcs = (split.pi_x, split.pi_y, split.level)
    for seed in range(4):
        fan = assemble_fan(model, seed=seed)
        assert fan.charts, seed
        for chart in fan.charts:
            chars = chart_characters(
                quiver, chart.candidate, chart.classification.coordinate_edges
            )
            assert len(chars) == len(chart.rows) == 3
            for char, row in zip(chars, chart.rows):
                cvec = [char[aid] for aid in quiver.arrow_ids]
                for wb in w_basis:
                    lhs = sum(c * w for c, w in zip(cvec, wb))
                    rhs = sum(
                        u * sum(f * w for f, w in zip(func, wb))
                        for u, func in zip(row, funcs)
                    )
                    assert lhs == rhs, (seed, sorted(chart.candidate.support), wb)


def test_certificate_across_independent_draws():
    for name in ("conifold", "honeycomb", "fzero"):
        model = example(name)
        for seed in (1, 2, 3):
            fan = assemble_fan(model, seed=seed)
            assert fan.report.ok, (name, seed)


def test_fzero_four_charts():
    model = example("fzero")
    fan = assemble_fan(model, seed=0)
    assert fan.report.ok, [c for c in fan.report.checks if not c.ok]
    assert [sorted(c.candidate.support) for c in fan.charts] == [
        ["e2", "e5", "e8"], ["e2", "e6", "e7"],
        ["e4", "e5", "e8"], ["e4", "e6", "e7"],
    ]
    assert all(c.classification.case == CASE_SIX_OPPOSITE for c in fan.charts)
    assert [c.cone.rays for c in fan.charts] == [
        ((0, 0, 1), (0, 1, 1), (-1, 0, 1)),
        ((0, 0, 1), (-1, 0, 1), (0, -1, 1)),
        ((0, 0, 1), (1, 0, 1), (0, 1, 1)),
        ((0, 0, 1), (0, -1, 1), (1, 0, 1)),
    ]


# ---------------------------------------------------------------------------
# the arrow search as oracle: the candidates as every 0/1 support that glues,
# connects, satisfies the relations and is stable, found by branching on
# every arrow


class _OffsetUnionFind:
    """Union-find tracking relative cover cells within components."""

    def __init__(self, n):
        self.parent = list(range(n))
        self.delta = [(0, 0)] * n  # cell(v) - cell(parent(v))

    def copy(self):
        uf = _OffsetUnionFind(0)
        uf.parent = self.parent[:]
        uf.delta = self.delta[:]
        return uf

    def find(self, v):
        if self.parent[v] == v:
            return v, (0, 0)
        root, up = self.find(self.parent[v])
        d = self.delta[v]
        self.parent[v] = root
        self.delta[v] = (d[0] + up[0], d[1] + up[1])
        return root, self.delta[v]

    def union(self, s, t, shift):
        """Impose cell(t) = cell(s) + shift; False on contradiction."""
        rs, ds = self.find(s)
        rt, dt = self.find(t)
        if rs == rt:
            return (dt[0] - ds[0], dt[1] - ds[1]) == shift
        self.parent[rt] = rs
        self.delta[rt] = (ds[0] + shift[0] - dt[0], ds[1] + shift[1] - dt[1])
        return True


def _search_candidates(quiver, theta):
    """Branch on each arrow; a support cycle whose shifts do not cancel, or
    a vertex left with no possible support arrow, kills the branch."""
    n = len(quiver.arrows)
    vpos = {v: i for i, v in enumerate(quiver.vertices)}
    nv = len(quiver.vertices)
    ends = [
        (vpos[a.source], vpos[a.target], quiver.shift(a.id))
        for a in quiver.arrows
    ]
    undecided = [0] * nv
    chosen = [0] * nv
    for s, t, _ in ends:
        undecided[s] += 1
        if t != s:
            undecided[t] += 1
    found = []
    included = []

    def leaf(uf):
        root0 = uf.find(0)[0]
        if any(uf.find(v)[0] != root0 for v in range(1, nv)):
            return
        support = frozenset(quiver.arrows[i].id for i in included)
        if not rep_satisfies_relations(quiver, support):
            return
        if not is_stable(quiver, support, theta):
            return
        c0 = uf.find(0)[1]
        cells = tuple(
            (v, (c[0] - c0[0], c[1] - c0[1]))
            for v, (_, c) in zip(quiver.vertices, map(uf.find, range(nv)))
        )
        found.append(FixedPointCandidate(support, cells))

    def dfs(i, uf):
        if i == n:
            leaf(uf)
            return
        s, t, shift = ends[i]
        undecided[s] -= 1
        if t != s:
            undecided[t] -= 1
        uf2 = uf.copy()
        if uf2.union(s, t, shift):
            chosen[s] += 1
            if t != s:
                chosen[t] += 1
            included.append(i)
            dfs(i + 1, uf2)
            included.pop()
            chosen[s] -= 1
            if t != s:
                chosen[t] -= 1
        if nv == 1 or (
            (chosen[s] or undecided[s]) and (chosen[t] or undecided[t])
        ):
            dfs(i + 1, uf)
        undecided[s] += 1
        if t != s:
            undecided[t] += 1

    dfs(0, _OffsetUnionFind(nv))
    pos = {aid: i for i, aid in enumerate(quiver.arrow_ids)}
    found.sort(key=lambda c: tuple(sorted(pos[aid] for aid in c.support)))
    return tuple(found)


# the catalog's non-degenerate models and every a x b cover of them with at
# most 16 arrows; weight seeds 0-15 up to 12 arrows, 0-3 beyond
CORPUS = {f"{name}-{a}x{b}": cover(example(name), a, b) for name, a, b in CERTIFY_COVERS}
SMALL = sorted(k for k, m in CORPUS.items() if len(m.edges) <= 12)


def _sampled_thetas(model):
    quiver = quiver_of(model)
    base = perfect_matchings(model)[0]
    seeds = range(16) if len(model.edges) <= 12 else range(4)
    for seed in seeds:
        yield seed, sample_generic_theta(quiver, base, random.Random(seed))[0]


@pytest.mark.parametrize("name", ["conifold", "honeycomb", "fzero"] + sorted(CORPUS))
def test_candidates_match_arrow_search(name):
    model = CORPUS.get(name) or example(name)
    quiver = quiver_of(model)
    for seed, theta in _sampled_thetas(model):
        assert enumerate_fixed_candidates(model, theta) == _search_candidates(
            quiver, theta
        ), seed


@settings(max_examples=150, deadline=None)
@given(name=st.sampled_from(SMALL), data=st.data())
def test_candidates_match_arrow_search_any_weight(name, data):
    # integer weights in -2..2, generic or not
    model = CORPUS[name]
    quiver = quiver_of(model)
    head = data.draw(
        st.lists(st.integers(-2, 2), min_size=len(quiver.vertices) - 1,
                 max_size=len(quiver.vertices) - 1)
    )
    assume(-2 <= sum(head) <= 2)
    theta = make_theta(quiver, dict(zip(quiver.vertices, head + [-sum(head)])))
    assert enumerate_fixed_candidates(model, theta) == _search_candidates(
        quiver, theta
    )


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_unit_triple_proposals_satisfy_relations_and_glue(name):
    # every triple of matchings whose heights span a unit triangle, so every
    # proposal enumerate_fixed_candidates makes for any weight, before the
    # stability test: the complement of the union satisfies the relations,
    # and when it spans, every support arrow steps between the tree's cells
    # by its shift, and every support cycle through the tree pairs to zero
    # with the weight lattice W, so the chart characters are functionals on
    # W; none of the three needs its own check
    model = CORPUS[name]
    quiver = quiver_of(model)
    w_basis = cochar_lattice(quiver).w_basis
    pms = perfect_matchings(model)
    arrows = frozenset(quiver.arrow_ids)
    heights = [(d, height_change(model, d, pms[0])) for d in pms]
    spanning = 0
    for (d1, h1), (d2, h2), (d3, h3) in combinations(heights, 3):
        (x1, y1), (x2, y2), (x3, y3) = h1, h2, h3
        if abs((x2 - x1) * (y3 - y1) - (x3 - x1) * (y2 - y1)) != 1:
            continue
        support = arrows - d1 - d2 - d3
        assert rep_satisfies_relations(quiver, support), sorted(support)
        paths = tree_paths(quiver, [a for a in quiver.arrow_ids if a in support])
        if paths is None:
            continue
        spanning += 1
        cells = {v: vector_shift(quiver, p) for v, p in paths.items()}
        for aid in support:
            s, t = cells[quiver.source(aid)], cells[quiver.target(aid)]
            assert (t[0] - s[0], t[1] - s[1]) == quiver.shift(aid), (
                sorted(support), aid,
            )
            cyc = tree_cycle(quiver, paths, aid)
            assert not any(cyc) or not any(
                sum(c * w for c, w in zip(cyc, wb)) for wb in w_basis
            ), (sorted(support), aid)
    assert spanning


WOUND = os.path.join(os.path.dirname(__file__), "data", "honeycomb_wound.json")


@pytest.mark.parametrize("name", sorted(CORPUS) + ["honeycomb_wound"])
def test_domain_walks_enclose_the_faces_area(name, monkeypatch):
    # the shoelace of each domain's own boundary walk at the vertex
    # positions, as oracle: every walk encloses the faces' signed cell area,
    # twice the torus's on a proper model and its negative on the wound one,
    # whose domains are only built with the orientation test switched off
    model = CORPUS[name] if name in CORPUS else load_model(WOUND)
    area = faces_area2(model)
    assert area == (-2 if name == "honeycomb_wound" else 2)
    monkeypatch.setattr(charts, "faces_area2", lambda m: 2)
    quiver = quiver_of(model)
    base = perfect_matchings(model)[0]
    domains = 0
    for seed in range(4):
        theta = sample_generic_theta(quiver, base, random.Random(seed))[0]
        for cand in enumerate_fixed_candidates(model, theta):
            dom = fundamental_domain(model, cand)
            assert walk_shoelace(model, dom.boundary) == area, (
                seed, sorted(cand.support),
            )
            domains += 1
    assert domains


def test_domain_refuses_clockwise_offsets():
    # a library caller that skips validation is still refused
    model = load_model(WOUND)
    (cand,) = enumerate_fixed_candidates(model, Theta((("f1", 0),)))
    with pytest.raises(InvalidModelError, match="homology-span"):
        fundamental_domain(model, cand)


def test_orientation_decided_once_per_model(monkeypatch):
    calls = []

    def spy(model):
        calls.append(model)
        return faces_area2(model)

    memo = per_object(spy)
    monkeypatch.setattr(model_module, "faces_area2", memo)
    monkeypatch.setattr(charts, "faces_area2", memo)
    model = CORPUS["fzero-2x1"]
    assert validate_model(model).ok
    fan = assemble_fan(model, seed=0)
    assert len(fan.charts) > 1
    assert len(calls) == 1 and calls[0] is model


@pytest.mark.parametrize("name", ["conifold", "honeycomb", "fzero"] + sorted(CORPUS))
def test_one_stable_matching_per_lattice_point(name):
    # the theorem the candidates rest on: for generic weights, each lattice
    # point of the height polygon carries exactly one stable matching
    model = CORPUS.get(name) or example(name)
    quiver = quiver_of(model)
    pms = perfect_matchings(model)
    poly = newton_polygon(char_poly(model))
    xs = [x for x, _ in poly.vertices]
    ys = [y for _, y in poly.vertices]
    points = [
        p
        for p in product(range(min(xs), max(xs) + 1), range(min(ys), max(ys) + 1))
        if contains_point(poly, p)
    ]
    arrows = frozenset(quiver.arrow_ids)
    for seed, theta in _sampled_thetas(model):
        heights = Counter(
            height_change(model, d, pms[0])
            for d in pms
            if is_stable(quiver, arrows - d, theta)
        )
        assert heights == Counter(points), seed


@pytest.mark.parametrize("name", ["conifold", "honeycomb", "fzero"] + sorted(CORPUS))
def test_trees_grown_for_returned_candidates_only(name, monkeypatch):
    # stability implies that a support spans the quiver, so the search
    # grows one spanning forest per candidate it returns and none for a
    # proposal it refuses; the fan grows none more: each chart's characters
    # are closed through the forest kept on its candidate
    model = CORPUS.get(name) or example(name)
    ids = quiver_of(model).arrow_ids
    grown = []

    def spy(n, ends):
        grown.append(frozenset(aid for aid, e in zip(ids, ends) if e is not None))
        return _spanning_forest(n, ends)

    monkeypatch.setattr(charts, "_spanning_forest", spy)
    for seed, theta in _sampled_thetas(model):
        grown.clear()
        found = enumerate_fixed_candidates(model, theta)
        assert Counter(grown) == Counter(c.support for c in found), seed
        grown.clear()
        fan = assemble_fan(model, theta=theta)
        supports = Counter(c.candidate.support for c in fan.charts)
        assert Counter(grown) == supports, seed


SWEEP = sweep_corpus()
BRIDGED = {"conifold", "honeycomb", "fzero"} | set(CORPUS)


@functools.cache
def _sweep_fan(name, seed):
    return assemble_fan(SWEEP[name], seed=seed)


@pytest.mark.parametrize("name", sorted(SWEEP))
def test_chart_census_and_corner_valency(name):
    # why classify_chart needs no case table, checked from outside: every
    # chart has six trivalent corners, alternating in walk order between
    # two vertices of opposite colours, and three coordinate edges; on the
    # catalog and the certify covers its zero set holds exactly three
    # perfect matchings, whose height points are the chart's rays
    model = SWEEP[name]
    pms = perfect_matchings(model) if name in BRIDGED else ()
    arrows = frozenset(e.id for e in model.edges)
    for seed in range(4):
        try:
            fan = _sweep_fan(name, seed)
        except (DegenerateModelError, InvalidModelError):
            assert name in ("dice.json", "honeycomb_wound.json")
            return
        for chart in fan.charts:
            cls, support = chart.classification, chart.candidate.support
            assert cls.census == ((3, 6),), (seed, cls.census)
            assert len(cls.coordinate_edges) == 3, seed
            dom = fundamental_domain(model, chart.candidate)
            rim = dom.boundary_edge_ids
            tails = [
                model.edge(d[0]).black if d[1] > 0 else model.edge(d[0]).white
                for d, _ in dom.boundary
            ]
            corners = [
                v for v in tails
                if sum(eid in rim for eid in model.rotation_at(v)) >= 3
            ]
            assert len(corners) == 6, (seed, sorted(support))
            odd, even = set(corners[0::2]), set(corners[1::2])
            assert len(odd) == len(even) == 1, (seed, sorted(support))
            (u,), (v,) = odd, even
            assert model.vertex(u).color != model.vertex(v).color, seed
            if name not in BRIDGED:
                continue
            zero = arrows - support
            inside = [d for d in pms if d <= zero]
            assert len(inside) == 3, (seed, sorted(support))
            points = {height_change(model, d, pms[0]) for d in inside}
            assert points == {r[:2] for r in chart.cone.rays}, (
                seed, sorted(support),
            )


@pytest.mark.parametrize("name", sorted(SWEEP))
def test_cells_and_rows_do_not_depend_on_the_tree(name):
    # the tree paths the shared forest replaced, as oracle: each candidate's
    # cells are its faces' path shifts, and each chart's rows express the
    # cycles its coordinate arrows close through the path tree; a forest
    # grown from the support's arrows and faces in shuffled order, another
    # tree with another root, gives every character the same row
    model = SWEEP[name]
    quiver = quiver_of(model)
    ids, vpos = quiver.arrow_ids, quiver.vertex_pos
    for seed in range(4):
        try:
            fan = _sweep_fan(name, seed)
        except (DegenerateModelError, InvalidModelError):
            assert name in ("dice.json", "honeycomb_wound.json")
            return
        split = split_by_reference(quiver, perfect_matchings(model)[0])
        rng = random.Random(seed)
        for chart in fan.charts:
            cand, edges = chart.candidate, chart.classification.coordinate_edges
            paths = tree_paths(quiver, [a for a in ids if a in cand.support])
            assert cand.cells == tuple(
                (v, vector_shift(quiver, paths[v])) for v in quiver.vertices
            ), (seed, sorted(cand.support))
            chars = [dict(zip(ids, tree_cycle(quiver, paths, e))) for e in edges]
            assert chart_rows(quiver, split, chars) == chart.rows, seed

            order = [i for i, a in enumerate(ids) if a in cand.support]
            relabel = list(range(len(vpos)))
            rng.shuffle(order)
            rng.shuffle(relabel)
            ends = [
                (relabel[vpos[quiver.arrows[i].source]], relabel[vpos[quiver.arrows[i].target]])
                for i in order
            ]
            up, rank = _spanning_forest(len(relabel), ends)
            for eid, row in zip(edges, chart.rows):
                a, cyc = quiver.arrow(eid), [0] * len(order)
                _add_forest_path(
                    ends, up, rank, relabel[vpos[a.target]], relabel[vpos[a.source]], cyc
                )
                char = dict.fromkeys(ids, 0)
                char[eid] = 1
                for i, c in zip(order, cyc):
                    char[ids[i]] += c
                assert express_functional(quiver, split, char) == row, (seed, eid)


PIN_MODELS = {
    name: model for name, model in SWEEP.items() if len(perfect_matchings(model)) <= 10_000
} | deletion_corpus()


def test_candidates_match_the_enumeration_route():
    # the route that tested every matching, as oracle: same supports, cells
    # and order over the sweep corpus without its cover of over 10 000
    # matchings, and the edge deletions; sampled weights (seeds 0-3) and
    # three seeded integer weights in -2..2, often not generic
    pinned = 0
    for name, model in PIN_MODELS.items():
        quiver = quiver_of(model)
        pms = perfect_matchings(model)
        thetas = [
            sample_generic_theta(quiver, pms[0], random.Random(seed))[0]
            for seed in range(4 if pms else 0)
        ]
        rng = random.Random(name)
        for _ in range(3):
            head = [rng.randint(-2, 2) for _ in quiver.vertices[1:]]
            thetas.append(make_theta(quiver, dict(zip(quiver.vertices, head + [-sum(head)]))))
        for k, theta in enumerate(thetas):
            found = enumerate_fixed_candidates(model, theta)
            assert found == fixed_candidates_by_enumeration(model, theta), (name, k)
            pinned += len(found)
    assert pinned > 1000


def _pin_chart(model, cand, quiver, split):
    """The candidate's domain, classification, rows and cone are the dict
    walk's and the dense route's, or both routes raise alike; returns
    whether a chart was built."""
    dom = outcome(fundamental_domain, model, cand)
    assert dom == outcome(fundamental_domain_by_dicts, model, cand)
    cls = outcome(classify_chart, model, cand)
    assert cls == outcome(classify_chart_by_dicts, model, cand)
    if not isinstance(cls, ChartClassification) or split is None:
        return False
    chars = outcome(chart_characters, quiver, cand, cls.coordinate_edges)
    if not isinstance(chars, tuple) or not isinstance(chars[0], dict):
        return False  # a damaged support that does not span the quiver
    rows = chart_rows(quiver, split, chars)
    dense = tuple(express_functional_dense(quiver, split, c) for c in chars)
    assert rows == dense
    assert outcome(chart_cone, rows) == outcome(chart_cone, dense)
    return True


def _split_or_none(model):
    try:
        return split_by_reference(quiver_of(model), perfect_matchings(model)[0])
    except (DegenerateModelError, IndexError):
        return None


def test_charts_match_the_dict_walk():
    # the dict walk and the dense products, as oracle: every candidate of
    # sampled weights (seeds 0-3) over the sweep corpus and the edge
    # deletions gives the same domain, classification, rows and cone, or
    # the same refusal (the wound tiling's domains fail homology-span)
    charts = refusals = 0
    for name, model in {**SWEEP, **deletion_corpus()}.items():
        quiver, split = quiver_of(model), _split_or_none(model)
        if split is None:
            assert name == "dice.json"
            continue
        for seed in range(4):
            theta = sample_generic_theta(quiver, split.base, random.Random(seed))[0]
            for cand in enumerate_fixed_candidates(model, theta):
                built = _pin_chart(model, cand, quiver, split)
                charts += built
                refusals += not built
    assert charts > 2000 and refusals == 4


@settings(max_examples=150, deadline=None)
@given(name=st.sampled_from(sorted(PIN_MODELS)), data=st.data())
def test_charts_match_the_dict_walk_any_weight(name, data):
    # drawn integer weights, generic or not, and candidates damaged by a
    # shifted or missing face cell or a toggled support arrow, which the
    # checks refuse; both routes refuse with the same error
    model = PIN_MODELS[name]
    quiver, split = quiver_of(model), _split_or_none(model)
    n = len(quiver.vertices)
    r = data.draw(st.sampled_from((1, 2, 5)))
    head = data.draw(st.lists(st.integers(-r, r), min_size=n - 1, max_size=n - 1))
    theta = make_theta(quiver, dict(zip(quiver.vertices, head + [-sum(head)])))
    for cand in enumerate_fixed_candidates(model, theta):
        damage = data.draw(st.sampled_from(("none", "shift", "drop", "toggle")))
        cells, support = list(cand.cells), cand.support
        k = data.draw(st.integers(0, n - 1))
        if damage == "shift":
            dx, dy = data.draw(st.sampled_from([(1, 0), (0, 1), (-1, 1), (2, -1)]))
            cells[k] = (cells[k][0], (cells[k][1][0] + dx, cells[k][1][1] + dy))
        elif damage == "drop":
            del cells[k]
        elif damage == "toggle":
            support = support ^ {data.draw(st.sampled_from(quiver.arrow_ids))}
        if damage != "none":
            cand = FixedPointCandidate(support, tuple(cells))
        _pin_chart(model, cand, quiver, split)


def test_domains_match_the_dict_walk_where_faces_do_not_close():
    # a library caller may skip validation: on models with one edge offset
    # moved, so that faces no longer close but their cell area is still 2,
    # candidates with scrambled cells, and as support the arrows that glue
    # under them, the walk refuses as the dict walk does, and it leaves the
    # domain at a glued dart only where the two cells differ
    models = [
        m for name, m in sorted({**SWEEP, **deletion_corpus()}.items())
        if len(m.edges) <= 24 and name not in ("dice.json", "honeycomb_wound.json")
    ]
    rng, left = random.Random(2), 0
    for _ in range(1500):
        model = rng.choice(models)
        k = rng.randrange(len(model.edges))
        e = model.edges[k]
        dx, dy = rng.choice([(1, 0), (0, 1), (-1, 0), (0, -1)])
        moved = DimerEdge(e.id, e.black, e.white, (e.offset[0] + dx, e.offset[1] + dy))
        model = DimerModel(
            model.vertices, model.edges[:k] + (moved,) + model.edges[k + 1:], model.rotation
        )
        if faces_area2(model) != 2:
            continue
        quiver = quiver_of(model)
        cells = {v: (rng.randint(-1, 1), rng.randint(-1, 1)) for v in quiver.vertices}
        support = frozenset(
            a.id for a in quiver.arrows
            if (cells[a.target][0] - cells[a.source][0], cells[a.target][1] - cells[a.source][1])
            == quiver.shift(a.id)
        )
        cand = FixedPointCandidate(support, tuple(cells.items()))
        want = outcome(fundamental_domain_by_dicts, model, cand)
        assert outcome(fundamental_domain, model, cand) == want
        assert outcome(classify_chart, model, cand) == outcome(
            classify_chart_by_dicts, model, cand
        )
        left += want == (InternalConsistencyError, "boundary walk left the domain")
    assert left > 10


@pytest.mark.parametrize("name", ["conifold", "honeycomb", "fzero"] + sorted(CORPUS))
def test_one_stability_test_per_candidate(name, monkeypatch):
    # the lift proposes only supports that pass: a generic weight tests
    # each returned candidate once and nothing else
    model = CORPUS.get(name) or example(name)
    tested = []

    def spy(quiver, support, theta):
        tested.append(support)
        return is_stable(quiver, support, theta)

    monkeypatch.setattr(charts, "is_stable", spy)
    quiver = quiver_of(model)
    base = perfect_matchings(model)[0]
    for seed in range(4):
        theta = sample_generic_theta(quiver, base, random.Random(seed))[0]
        tested.clear()
        found = enumerate_fixed_candidates(model, theta)
        assert Counter(tested) == Counter(c.support for c in found), seed


LIFT_MODELS = {
    name: model
    for name, model in PIN_MODELS.items()
    if 0 < len(perfect_matchings(model)) <= 30
}


def _lifted_matchings(name, data):
    """A drawn integer weight, generic or not, and each matching with its
    height and its lift, the sum of ``stability._lift`` over its arrows."""
    model = LIFT_MODELS[name]
    quiver = quiver_of(model)
    r = data.draw(st.sampled_from((1, 2, 5, 40)))
    n = len(quiver.vertices)
    head = data.draw(st.lists(st.integers(-r, r), min_size=n - 1, max_size=n - 1))
    theta = make_theta(quiver, dict(zip(quiver.vertices, head + [-sum(head)])))
    lift = dict(zip(quiver.arrow_ids, _lift(quiver, theta)))
    pms = perfect_matchings(model)
    lifted = [(d, height_change(model, d, pms[0]), sum(lift[a] for a in d)) for d in pms]
    return quiver, theta, lifted


@settings(max_examples=100, deadline=None)
@given(name=st.sampled_from(sorted(LIFT_MODELS)), data=st.data())
def test_stable_matching_is_the_strict_least_lift(name, data):
    quiver, theta, lifted = _lifted_matchings(name, data)
    arrows = frozenset(quiver.arrow_ids)
    for d, h, lam in lifted:
        if king_by_reach_sets(quiver, arrows - d, theta):
            assert all(lam < other for e, g, other in lifted if g == h and e != d)


@settings(max_examples=100, deadline=None)
@given(name=st.sampled_from(sorted(LIFT_MODELS)), data=st.data())
def test_no_matching_below_a_stable_triple(name, data):
    # every height has integer barycentric coordinates in a unit triangle
    quiver, theta, lifted = _lifted_matchings(name, data)
    arrows = frozenset(quiver.arrow_ids)
    for (d1, (x1, y1), l1), (d2, (x2, y2), l2), (d3, (x3, y3), l3) in combinations(
        lifted, 3
    ):
        det = (x2 - x1) * (y3 - y1) - (x3 - x1) * (y2 - y1)
        if abs(det) != 1 or not king_by_reach_sets(quiver, arrows - d1 - d2 - d3, theta):
            continue
        for d, (x, y), lam in lifted:
            b2 = det * ((x - x1) * (y3 - y1) - (x3 - x1) * (y - y1))
            b3 = det * ((x2 - x1) * (y - y1) - (x - x1) * (y2 - y1))
            assert lam >= (1 - b2 - b3) * l1 + b2 * l2 + b3 * l3, sorted(d)
