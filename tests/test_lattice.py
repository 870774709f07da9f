"""Integer linear algebra, the cocharacter lattice, cones and Hilbert bases."""

import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import CERTIFY_COVERS, TILING_COVERS, cover, sweep_corpus
from dimerkit import (
    CapacityError,
    DegenerateModelError,
    InvalidModelError,
    Quiver,
    char_poly,
    cochar_lattice,
    cone_over_polygon,
    convex_hull,
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
    relations,
    smith_normal_form,
    split_by_reference,
)
from dimerkit import lattice
from oracles import (
    constraint_matrix,
    det_int,
    forest_basis_by_depth,
    kernel,
    solve_integer,
    split_coords,
)

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


@settings(max_examples=300, deadline=None)
@given(st.lists(st.lists(st.integers(-2, 2), min_size=3, max_size=3), min_size=3, max_size=3))
def test_unimodular_inverse_matches_elimination(m):
    # the determinant read off the adjugate is the eliminated one, and the
    # inverse is given exactly when it is a unit
    d, inv = lattice._unimodular_inverse(m)
    assert d == det_int(m)
    if d not in (1, -1):
        assert inv is None
        return
    product = [[sum(m[i][k] * inv[k][j] for k in range(3)) for j in range(3)] for i in range(3)]
    assert product == [[int(i == j) for j in range(3)] for i in range(3)]


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
    # a matching with one of its arrows dropped or one more arrow added is
    # not one: a vertex cycle then meets it 0 or 2 times
    for model in (conifold, honeycomb, example("fzero"), cover(conifold, 2, 2),
                  cover(honeycomb, 2, 2)):
        quiver = quiver_of(model)
        for m in perfect_matchings(model):
            assert set(pm_cocharacter(quiver, m).values()) == {0, 1}
            for aid in quiver.arrow_ids:
                with pytest.raises(InvalidModelError, match="meets it [02] times"):
                    pm_cocharacter(quiver, m ^ {aid})
    for support in ((), ("e1", "e2"), q.arrow_ids):
        with pytest.raises(InvalidModelError, match="not a perfect matching"):
            pm_cocharacter(q, support)
    with pytest.raises(
        InvalidModelError,
        match="^support is not a perfect matching: the vertex cycle through "
        "'e1' meets it 0 times$",
    ):
        split_by_reference(q, set())


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
                want = (*height_change(model, m, base), 1)
                assert split_coords(sp, w) == want, (name, sorted(m))


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
        w = pm_cocharacter(quiver, lifted[e])
        want = (*height_change(model, lifted[e], lifted["e1"]), 1)
        assert split_coords(sp, w) == want


# per sweep-corpus model, sha256 prefixes of the repr of its relations, of
# its lattice (w_basis, free_basis, torsion, rank) and of its splitting by
# the first matching (pi_x, pi_y, level, iso_det, inverse; None without a
# matching), recorded while the lattice still read the relation paths
LATTICE_PINS = {
    "conifold": ("7a6a0db1da95b2a2", "16b7f182a33f56b6", "7b2e90b665d1f689"),
    "honeycomb": ("8c631910cd634a03", "8c9326b1e191399e", "f1cf19abdff6aea7"),
    "fzero": ("8dd08320cc1e7788", "2ed486b5f4a70cb5", "224428e53539be83"),
    "degenerate": ("9fbc7fe2ced57b99", "391e291f1a327ea6", "74e22123101c6298"),
    "dice.json": ("64b2c82ec68556db", "e5ceb009432759bb", "dc937b59892604f5"),
    "honeycomb_wound.json": ("8c631910cd634a03", "8c9326b1e191399e", "da93ce977c9eda03"),
    "conifold-1x1": ("f59526634bedf1c6", "16b7f182a33f56b6", "7b2e90b665d1f689"),
    "conifold-1x2": ("5e2b9be50c8e9387", "2d646a946c65f245", "310086540da1aa46"),
    "conifold-1x3": ("466841ad190c071e", "9753800a9aa52fd0", "52a187b7e3185938"),
    "conifold-1x4": ("5e954c75a2d27015", "30ab70a03d7d41de", "d6794194dceb62f5"),
    "conifold-2x1": ("2ff188fe60bd64de", "08c1c84ed4290ffb", "2970b954f5e51cde"),
    "conifold-2x2": ("176cd0163dde3ec3", "66e8dd02cb51612f", "6e546d84a0e81af3"),
    "conifold-3x1": ("6fc05ddf38808896", "3a5973ea4cef3e7b", "59a3397da583115f"),
    "conifold-4x1": ("a41727ef5ae53563", "70a52fe19ce14962", "8b258a092ddab658"),
    "honeycomb-1x1": ("3354a085cc6575cf", "8c9326b1e191399e", "f1cf19abdff6aea7"),
    "honeycomb-1x2": ("65a5d6baee492e2f", "f57a50a1943bdf80", "8413e63d623d9c20"),
    "honeycomb-1x3": ("45a62e26983e34ea", "b447358e1010bb61", "fdb055cacfab425f"),
    "honeycomb-1x4": ("01103ae134743f92", "5130d2572f70f9e4", "ba81a6136de3ae07"),
    "honeycomb-1x5": ("f032613d339f1226", "b4484e0d021ffcd6", "134e384bc0f52857"),
    "honeycomb-2x1": ("48b3c563ff1735f1", "331c778e4eeeb84c", "9aee06da59a26d23"),
    "honeycomb-2x2": ("10b086420cae86a6", "34a83ebbdd760e07", "6fbc32871b2c8157"),
    "honeycomb-3x1": ("548ff3bd5302ab63", "8e1de1339ea1cbf7", "16ed5f312145294e"),
    "honeycomb-4x1": ("1317a2c320c4681a", "f0606b980761a753", "4cc634d4e697b9b8"),
    "honeycomb-5x1": ("668fb514e25002d7", "fa9bccf7093a7bcd", "d13a4b6b9698cde3"),
    "fzero-1x1": ("7cdf7c6e348fcdbc", "2ed486b5f4a70cb5", "224428e53539be83"),
    "fzero-1x2": ("7d780ef83411e997", "34ace3452473e287", "37a9545a24be140e"),
    "fzero-2x1": ("b13ff017d8e24392", "8151201b7c4107af", "409f6e50c346ca06"),
    "conifold-4x4": ("ef35ff9c7137f215", "c6242128c93789fd", "be2de36bb0d12cd1"),
    "honeycomb-5x5": ("ea0e30931efc4612", "11cf72237adfeec2", "ebbd06ea7a742fbe"),
    "honeycomb-4x4": ("685349ac1ce7867d", "d86c359c9c442d87", "37f018d04bb44199"),
    "fzero-2x2": ("34f3535af06a97a9", "a384ebe6ed85da5a", "419887c75a2ef613"),
    "conifold-4x2": ("82c03b2fd306c9b8", "8a8b3ad1cdbba5da", "cddc4b22f78d29e9"),
}


def _digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


def test_lattice_values_pinned():
    corpus = sweep_corpus()
    assert list(corpus) == list(LATTICE_PINS)
    for name, model in corpus.items():
        quiver = quiver_of(model)
        lat = cochar_lattice(quiver)
        pms = perfect_matchings(model)
        split = None
        if pms:
            sp = split_by_reference(quiver, pms[0])
            split = (sp.pi_x, sp.pi_y, sp.level, sp.iso_det, sp.inverse)
        got = (
            _digest(relations(quiver)),
            _digest((lat.w_basis, lat.free_basis, lat.torsion, lat.rank)),
            _digest(split),
        )
        assert got == LATTICE_PINS[name], name


FOREST_MODELS = dict(sweep_corpus(), **{
    f"{name}-{a}x{b}": cover(example(name), a, b) for name, a, b in TILING_COVERS
})


@pytest.mark.parametrize("name", sorted(FOREST_MODELS))
def test_forest_basis_matches_depth_search(name, monkeypatch):
    # the per-root breadth-first search with a depth array that the shared
    # forest replaced, as oracle: the same basis and chords, and so the
    # same lattice
    quiver = quiver_of(FOREST_MODELS[name])
    assert lattice._forest_basis(quiver) == forest_basis_by_depth(quiver)
    lat = cochar_lattice(quiver)
    monkeypatch.setattr(lattice, "_forest_basis", forest_basis_by_depth)
    assert cochar_lattice.__wrapped__(quiver) == lat


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
