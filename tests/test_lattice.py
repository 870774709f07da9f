"""Integer linear algebra, the cocharacter lattice, cones and Hilbert bases."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import CERTIFY_COVERS, cover
from dimerkit import (
    CapacityError,
    DegenerateModelError,
    InvalidModelError,
    Quiver,
    char_poly,
    cochar_lattice,
    cone_over_polygon,
    convex_hull,
    det_int,
    dual_cone,
    example,
    example_names,
    express_functional,
    height_change,
    hilbert_basis,
    newton_polygon,
    perfect_matchings,
    pm_cocharacter,
    quiver_of,
    smith_normal_form,
    split_by_reference,
)
from dimerkit import lattice
from oracles import constraint_matrix, kernel, solve_integer

conifold = example("conifold")
honeycomb = example("honeycomb")
q = quiver_of(conifold)
hq = quiver_of(honeycomb)


def _matmul(a, b):
    return [
        [sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))]
        for i in range(len(a))
    ]


def test_smith_normal_form_frozen():
    assert smith_normal_form([[2, 4], [6, 8]]).diagonal == (2, 4)


def test_smith_normal_form_invariants():
    rng = random.Random(7)
    for _ in range(60):
        m = rng.randint(1, 5)
        n = rng.randint(1, 5)
        mat = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
        r = smith_normal_form(mat)
        s = _matmul(_matmul([list(x) for x in r.u], mat), [list(x) for x in r.v])
        assert tuple(tuple(row) for row in s) == r.s
        d = r.diagonal
        assert all(x >= 0 for x in d)
        for i in range(len(d) - 1):
            assert d[i + 1] == 0 or (d[i] and d[i + 1] % d[i] == 0) or d[i] == d[i + 1] == 0
        eye_n = [[int(i == j) for j in range(n)] for i in range(n)]
        assert det_int(r.u) in (1, -1)
        assert _matmul([list(x) for x in r.v], [list(x) for x in r.v_inv]) == eye_n


def test_kernel_and_solve():
    kb = kernel(smith_normal_form([[1, 2, 3]]))
    assert len(kb) == 2
    assert all(sum(a * b for a, b in zip(v, (1, 2, 3))) == 0 for v in kb)
    assert solve_integer([[2, 0], [0, 3]], (4, 9)) == (2, 3)
    assert solve_integer([[2]], (3,)) is None
    assert solve_integer([[1, 1]], (5,)) is not None
    assert det_int([[0, -1], [1, 0]]) == 1
    assert det_int([[1, 2], [2, 4]]) == 0


def test_cochar_lattice():
    lat = cochar_lattice(q)
    assert lat.rank == 3 and lat.torsion == ()
    assert len(lat.w_basis) == 4
    hlat = cochar_lattice(hq)
    assert hlat.rank == 3 and hlat.torsion == ()


def test_pm_cocharacter_rejects_non_matchings():
    # a matching without one of its arrows is not one; the one-white catalog
    # models are left out, as every arrow there joins the same two vertex
    # cycles and so every support passes
    for model in (cover(conifold, 2, 2), cover(honeycomb, 2, 2)):
        quiver = quiver_of(model)
        for m in perfect_matchings(model):
            assert set(pm_cocharacter(quiver, m).values()) == {0, 1}
            for aid in m:
                with pytest.raises(InvalidModelError, match="relation sums differ"):
                    pm_cocharacter(quiver, m - {aid})


def test_splitting_frozen():
    sp = split_by_reference(q, {"e1"})
    assert sp.pi_x == (0, 1, 1, 0)
    assert sp.pi_y == (0, 0, 1, 1)
    assert sp.level == (1, 1, 1, 1)
    assert sp.iso_det in (1, -1)
    hsp = split_by_reference(hq, {"e1"})
    assert hsp.pi_x == (0, 1, 0)
    assert hsp.pi_y == (0, 0, 1)


def test_splitting_needs_edge_offsets():
    # a quiver built by hand with cycle maps but no offsets has no heights
    bare = Quiver(q.vertices, q.arrows, q.shifts, q.white_next, q.black_next)
    with pytest.raises(InvalidModelError, match="no edge offsets"):
        split_by_reference(bare, {"e1"})


def test_express_functional():
    sp = split_by_reference(q, {"e1"})
    assert express_functional(q, sp, dict(zip(sp.arrow_order, sp.level))) == (0, 0, 1)
    assert express_functional(q, sp, dict(zip(sp.arrow_order, sp.pi_x))) == (1, 0, 0)
    comb = tuple(2 * a - 3 * b + c for a, b, c in zip(sp.pi_x, sp.pi_y, sp.level))
    assert express_functional(q, sp, dict(zip(sp.arrow_order, comb))) == (2, -3, 1)


LATTICE_MODELS = {name: example(name) for name in example_names()} | {
    f"{name}-{a}x{b}": cover(example(name), a, b)
    for name, a, b in (("honeycomb", 2, 2), ("conifold", 2, 2), ("fzero", 2, 1))
}


def test_splitting_reproduces_heights():
    # the catalog, degenerate model included, and three covers; every
    # matching is the base once, so bases with a nonzero offset sum occur
    for name, model in sorted(LATTICE_MODELS.items()):
        quiver = quiver_of(model)
        pms = perfect_matchings(model)
        chars = [(m, pm_cocharacter(quiver, m)) for m in pms]
        for base in pms:
            sp = split_by_reference(quiver, base)
            for m, w in chars:
                assert sp.pi(w) == height_change(model, m, base), (name, sorted(m))
                assert sp.coords(w)[2] == 1


# the catalog, the covers above and every cover the certify benchmark runs
ORACLE_MODELS = LATTICE_MODELS | {
    f"{name}-{a}x{b}": cover(example(name), a, b) for name, a, b in CERTIFY_COVERS
}


def _in_span(basis, vectors):
    # every vector is an integer combination of the basis vectors
    cols = [tuple(b[i] for b in basis) for i in range(len(vectors[0]))]
    return all(solve_integer(cols, v) is not None for v in vectors)


@pytest.mark.parametrize("name", sorted(ORACLE_MODELS))
def test_cochar_lattice_matches_per_row_solve(name):
    # reference route: the kernel of the relation matrix, then each gauge
    # row solved on its own.  A lattice has no canonical basis, so the two
    # routes must span the same W and the same N modulo the gauge rows
    quiver = quiver_of(ORACLE_MODELS[name])
    n = len(quiver.arrows)
    w_basis = kernel(smith_normal_form(constraint_matrix(quiver), ncols=n))
    k = len(w_basis)
    cols = [tuple(wb[i] for wb in w_basis) for i in range(n)]
    gauge = []
    coords = []
    for v in quiver.vertices:
        g = tuple((a.target == v) - (a.source == v) for a in quiver.arrows)
        c = solve_integer(cols, g)
        assert c is not None, v
        assert tuple(
            sum(x * row[j] for x, row in zip(c, w_basis)) for j in range(n)
        ) == g
        gauge.append(g)
        coords.append(c)
    res = smith_normal_form(coords, ncols=k)
    free_basis = tuple(
        tuple(sum(row[j] * w_basis[j][t] for j in range(k)) for t in range(n))
        for row in res.v_inv[res.rank:]
    )

    lat = cochar_lattice(quiver)
    assert len(lat.w_basis) == len(w_basis)
    assert _in_span(lat.w_basis, w_basis) and _in_span(w_basis, lat.w_basis)
    ours, theirs = lat.free_basis + tuple(gauge), free_basis + tuple(gauge)
    assert _in_span(ours, theirs) and _in_span(theirs, ours)
    assert lat.torsion == tuple(d for d in res.diagonal if d > 1)
    assert lat.rank == k - res.rank


def test_cochar_lattice_one_smith_form_on_face_rows(monkeypatch):
    # W and the gauge coordinates come from a spanning forest; only the F
    # gauge rows meet a Smith form
    shapes = []
    snf = lattice.smith_normal_form

    def spy(matrix, ncols=None):
        shapes.append((len(matrix), ncols))
        return snf(matrix, ncols)

    monkeypatch.setattr(lattice, "smith_normal_form", spy)
    quiver = quiver_of(cover(conifold, 2, 3))  # a fresh quiver, nothing memoized
    lat = cochar_lattice(quiver)
    assert shapes == [(len(quiver.vertices), len(lat.w_basis))]


def test_splitting_at_size():
    # honeycomb 10x10, 300 arrows: the lifted single-edge matchings
    model = cover(honeycomb, 10, 10)
    quiver = quiver_of(model)
    lifted = {
        e: frozenset(x.id for x in model.edges if x.id.startswith(f"{e}_"))
        for e in ("e1", "e2", "e3")
    }
    sp = split_by_reference(quiver, lifted["e1"])
    assert abs(sp.iso_det) == 1
    for e in ("e2", "e3"):
        assert sp.pi(pm_cocharacter(quiver, lifted[e])) == height_change(
            model, lifted[e], lifted["e1"]
        )


SPLIT_MODELS = [conifold, honeycomb, example("fzero"), cover(conifold, 2, 2)]
SPLITS = [
    (quiver_of(m), split_by_reference(quiver_of(m), perfect_matchings(m)[0]))
    for m in SPLIT_MODELS
]


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_express_functional_recovers_coefficients(data):
    quiver, sp = data.draw(st.sampled_from(SPLITS))
    a, b, c = (data.draw(st.integers(-40, 40)) for _ in range(3))
    f = [a * x + b * y + c * z for x, y, z in zip(sp.pi_x, sp.pi_y, sp.level)]
    # relation rows vanish on W and kill the gauge subgroup
    for row in constraint_matrix(quiver):
        r = data.draw(st.integers(-3, 3))
        f = [x + r * y for x, y in zip(f, row)]
    assert express_functional(quiver, sp, dict(zip(sp.arrow_order, f))) == (a, b, c)

    # a gauge vector does not kill the gauge subgroup, unless it is zero
    phi = {v: data.draw(st.integers(-3, 3)) for v in quiver.vertices}
    gauge = [phi[arr.target] - phi[arr.source] for arr in quiver.arrows]
    if any(gauge):
        with pytest.raises(InvalidModelError):
            express_functional(
                quiver, sp, dict(zip(sp.arrow_order, (x + y for x, y in zip(f, gauge))))
            )


def test_conifold_cone_and_dual():
    c = cone_over_polygon(newton_polygon(char_poly(conifold)))
    assert c.rays == ((0, 0, 1), (1, 0, 1), (1, 1, 1), (0, 1, 1))
    d = dual_cone(c)
    assert d.rays == ((0, 1, 0), (-1, 0, 1), (0, -1, 1), (1, 0, 0))
    g = d.rays
    assert tuple(a + b for a, b in zip(g[0], g[2])) == tuple(
        a + b for a, b in zip(g[1], g[3])
    )
    assert set(hilbert_basis(d)) == set(d.rays)


def test_honeycomb_dual_is_smooth():
    c = cone_over_polygon(newton_polygon(char_poly(honeycomb)))
    assert c.rays == ((0, 0, 1), (1, 0, 1), (0, 1, 1))
    hb = hilbert_basis(dual_cone(c))
    assert len(hb) == 3
    assert abs(det_int([list(v) for v in hb])) == 1


def test_diamond_cone_bases():
    cd = cone_over_polygon(convex_hull([(1, 0), (-1, 0), (0, 1), (0, -1)]))
    dd = dual_cone(cd)
    assert set(dd.rays) == {(1, 1, 1), (-1, 1, 1), (-1, -1, 1), (1, -1, 1)}
    hb = hilbert_basis(dd)
    assert len(hb) == 9 and all(p[2] == 1 for p in hb)
    assert (0, 0, 1) in hb
    # the primal cone needs an interior generator on top of its four rays
    hbp = hilbert_basis(cd)
    assert len(hbp) == 5 and (0, 0, 1) in hbp


def test_segment_polygon_rejected():
    with pytest.raises(DegenerateModelError):
        cone_over_polygon(newton_polygon(char_poly(example("degenerate"))))


def _in_cone(primal_rays, point):
    # the dual of the dual: a point lies in the dual cone iff it pairs
    # non-negatively with every primal ray
    return all(sum(a * b for a, b in zip(r, point)) >= 0 for r in primal_rays)


def _decomposes(point, gens, cap=6):
    from itertools import product as iproduct

    for coeffs in iproduct(range(cap + 1), repeat=len(gens)):
        combo = tuple(
            sum(c * g[i] for c, g in zip(coeffs, gens)) for i in range(3)
        )
        if combo == tuple(point):
            return True
    return False


def test_hilbert_basis_properties():
    for model in (conifold, honeycomb):
        c = cone_over_polygon(newton_polygon(char_poly(model)))
        d = dual_cone(c)
        hb = hilbert_basis(d)
        # pairwise irreducible: no generator decomposes over the others
        for i, g in enumerate(hb):
            others = [h for j, h in enumerate(hb) if j != i]
            assert not _decomposes(g, others), g
        # every cone point in a small box decomposes over the basis
        box = [
            (x, y, z)
            for x in range(-2, 3) for y in range(-2, 3) for z in range(0, 3)
        ]
        for p in box:
            if p == (0, 0, 0) or not _in_cone(c.rays, p):
                continue
            assert _decomposes(p, hb), p


def test_hilbert_basis_cap():
    # the long thin triangle's dual cone has a bounding box of 30 906 points
    d = dual_cone(cone_over_polygon(convex_hull([(0, 0), (1, 0), (0, 100)])))
    with pytest.raises(CapacityError, match="30906 candidate points exceed the cap of 10000"):
        hilbert_basis(d)
