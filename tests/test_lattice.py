"""Integer linear algebra, the cocharacter lattice, cones and Hilbert bases."""

import hashlib
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    CERTIFY_COVERS, TILING_COVERS, cover, deletion_corpus, hnf_cover, outcome,
    sweep_corpus,
)
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
    split_by_reference,
)
from dimerkit import lattice
from dimerkit.lattice import Splitting
from dimerkit.model import _spanning_forest
from oracles import (
    constraint_matrix,
    det_int,
    express_functional_dense,
    forest_basis_by_depth,
    hilbert_basis_by_definition,
    kernel,
    smith_normal_form,
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
    # the determinant read off the adjugate is the eliminated one, the
    # adjugate times the matrix is that determinant times the identity, and
    # the inverse is given exactly when it is a unit
    d, inv = lattice._unimodular_inverse(m)
    assert d == det_int(m)
    adj = lattice.adjugate3(m)
    scaled = [[sum(m[i][k] * adj[k][j] for k in range(3)) for j in range(3)] for i in range(3)]
    assert scaled == [[d * int(i == j) for j in range(3)] for i in range(3)]
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


def test_express_functional_rejects_another_quivers_splitting():
    # a splitting's inverse is taken on its own quiver's free basis, so
    # another quiver's splitting is refused rather than misread
    own = split_by_reference(q, perfect_matchings(conifold)[0])
    pi_y = dict(zip(q.arrow_ids, own.pi_y))
    assert express_functional(q, own, pi_y) == (0, 1, 0)
    for name in ("honeycomb", "fzero"):
        model = example(name)
        other = split_by_reference(quiver_of(model), perfect_matchings(model)[0])
        with pytest.raises(InvalidModelError, match="^splitting belongs to another quiver$"):
            express_functional(q, other, pi_y)


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
# and the tilings that are not covers
SOLVE_MODELS = ORACLE_MODELS | deletion_corpus()


def _in_span(basis, vectors):
    # every vector is an integer combination of the basis vectors
    cols = [tuple(b[i] for b in basis) for i in range(len(vectors[0]))]
    return all(solve_integer(cols, v) is not None for v in vectors)


@pytest.mark.parametrize("name", sorted(SOLVE_MODELS))
def test_cochar_lattice_matches_per_row_solve(name):
    # reference route: the kernel of the relation matrix, then each gauge
    # row solved on its own and one Smith form of their coordinates.  A
    # lattice has no canonical basis, so the two routes must span the same
    # W and the same N modulo the gauge rows; the Smith form finds no
    # torsion, as total unimodularity says
    quiver = quiver_of(SOLVE_MODELS[name])
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
    assert set(res.diagonal) <= {0, 1}
    assert lat.torsion == ()
    assert lat.rank == k - res.rank


def test_cochar_lattice_grows_two_forests(monkeypatch):
    # no elimination: one forest of the tiling's graph gives W, one of the
    # faces along its chords gives N, and N's basis is part of W's
    grown = []

    def spy(n, ends):
        grown.append((n, sum(e is not None for e in ends)))
        return _spanning_forest(n, ends)

    monkeypatch.setattr(lattice, "_spanning_forest", spy)
    quiver = quiver_of(cover(conifold, 2, 3))  # a fresh quiver, nothing memoized
    lat = cochar_lattice(quiver)
    (whites, _), (blacks, _) = quiver.cycles
    chords = len(lat.w_basis) - 1  # one level vector
    assert grown == [
        (len(whites) + len(blacks), len(quiver.arrows)),
        (len(quiver.vertices), chords),
    ]
    assert lat.free_basis[0] == lat.w_basis[0] and lat.rank == 3
    assert set(lat.free_basis) <= set(lat.w_basis)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 8).flatmap(lambda n: st.tuples(
    st.just(n),
    st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=14),
)))
def test_forest_leaves_out_a_basis_of_the_incidence_quotient(graph):
    # a directed multigraph, loops, parallel arcs and several components
    # allowed: its incidence matrix has Smith diagonal 0/1 only, and the
    # unit vectors of the arcs a spanning forest leaves out complete its
    # rows to Z^arcs, as cochar_lattice relies on for the faces and chords
    n, arcs = graph
    e = len(arcs)
    incidence = [[(h == v) - (t == v) for t, h in arcs] for v in range(n)]
    res = smith_normal_form(incidence, ncols=e)
    assert set(res.diagonal) <= {0, 1}
    up, _ = _spanning_forest(n, arcs)
    units = [[int(j == i) for j in range(e)] for i in range(e) if i not in up]
    both = smith_normal_form(incidence + units, ncols=e)
    assert both.rank == e and set(both.diagonal) <= {1}
    assert res.rank + len(units) == e  # and none of them is spare


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
# the lattice's invariants (w_basis, torsion, rank) and of its splitting by
# the first matching's pairings (pi_x, pi_y, level), recorded while the
# lattice still came from a Smith normal form; then of the parts that
# depend on the choice of basis of N, free_basis and the splitting's
# (iso_det, inverse), recorded when a spanning forest chose it.  A
# splitting is None without a matching
LATTICE_PINS = {
    'conifold': (
        '7a6a0db1da95b2a2', 'b39fa46626ecdce1', '32a0c612a77650c7',
        'fb53abdbe75436c9', 'a7f00f9d9270de00',
    ),
    'honeycomb': (
        '8c631910cd634a03', '74a6906f3425654b', 'c5b11da68dfacb04',
        'a7d442dbc8f2bb37', '8a803a9e0dd2785c',
    ),
    'fzero': (
        '8dd08320cc1e7788', 'fb9b50825b5cab03', '6b71bda48a422b9d',
        '5fd1d45d164394f7', '3fe5c06b5a9bb0a1',
    ),
    'degenerate': (
        '9fbc7fe2ced57b99', 'a2a412c8e439ef0e', '47bf9269cc8dbbfc',
        '532826c184481dfd', '3fe5c06b5a9bb0a1',
    ),
    'dice.json': (
        '64b2c82ec68556db', 'a5e8d62cc20205f9', 'dc937b59892604f5',
        'a2bc7c941cbee187', 'dc937b59892604f5',
    ),
    'honeycomb_wound.json': (
        '8c631910cd634a03', '74a6906f3425654b', '3e876b15b2dada1b',
        'a7d442dbc8f2bb37', 'f30f0c9e5100b373',
    ),
    'conifold-1x1': (
        'f59526634bedf1c6', 'b39fa46626ecdce1', '32a0c612a77650c7',
        'fb53abdbe75436c9', 'a7f00f9d9270de00',
    ),
    'conifold-1x2': (
        '5e2b9be50c8e9387', '1d8f972c67a8d816', '6f125ea9ad640d81',
        '75bf10b2474cee65', 'c075813bb91bc73e',
    ),
    'conifold-1x3': (
        '466841ad190c071e', '0581e8e8f0cdbd00', 'feb35904bd99763d',
        '16d6dd3e5466dd92', '96cdfeed7cde97b9',
    ),
    'conifold-1x4': (
        '5e954c75a2d27015', '11090d3bcafeb54e', '82fc0ae0caf11f1c',
        '1a43d024fba0983c', '650114661007462e',
    ),
    'conifold-2x1': (
        '2ff188fe60bd64de', '7f8a389ee895e22c', 'cff702933f08c80e',
        '3c4e93bb2ca8961d', 'c33f45ceba1f5d6c',
    ),
    'conifold-2x2': (
        '176cd0163dde3ec3', '51cfb8d3734f7c14', '0df4e862065a5c04',
        '7d2437b85bf086a7', '81b0b06bb7e245fb',
    ),
    'conifold-3x1': (
        '6fc05ddf38808896', 'c48499065fd1a42a', 'a39d2767b02c90dd',
        'abca6e366e930712', 'c9e3bf9f6c3aad04',
    ),
    'conifold-4x1': (
        'a41727ef5ae53563', 'c45c8472369a9ccf', '55513106e8b1c8d0',
        '17917b21d0edf159', 'c33f45ceba1f5d6c',
    ),
    'honeycomb-1x1': (
        '3354a085cc6575cf', '74a6906f3425654b', 'c5b11da68dfacb04',
        'a7d442dbc8f2bb37', '8a803a9e0dd2785c',
    ),
    'honeycomb-1x2': (
        '65a5d6baee492e2f', 'e993735cc2b95010', '488d019c2d23e075',
        'a8628e117d1cfd99', 'f492627240f68272',
    ),
    'honeycomb-1x3': (
        '45a62e26983e34ea', 'f517c9279006dea5', 'f77b77e24ade9b46',
        'c01b5c4ae0a4e862', '8a803a9e0dd2785c',
    ),
    'honeycomb-1x4': (
        '01103ae134743f92', '64979368bafafc6d', 'ecaaa4974699e4f1',
        'ec4a48ec0644a801', 'f492627240f68272',
    ),
    'honeycomb-1x5': (
        'f032613d339f1226', '473b9020d50a5092', '4403b822c495673e',
        '9a2e01f597348652', '8a803a9e0dd2785c',
    ),
    'honeycomb-2x1': (
        '48b3c563ff1735f1', '73a3b8f014952ebb', '2024ba82e7acb9c4',
        'ff1a717f27c753f4', 'f289f2443b8d5150',
    ),
    'honeycomb-2x2': (
        '10b086420cae86a6', '15f9cc813ebb82fc', 'ea780ba8601431d2',
        '724d26c4a551bd46', '3b2f425e3be64a6d',
    ),
    'honeycomb-3x1': (
        '548ff3bd5302ab63', '6ab79e649dac9313', '8aca2d70e3c9745d',
        'd1c35a2dd16b6627', 'f246878656b5702a',
    ),
    'honeycomb-4x1': (
        '1317a2c320c4681a', '99761b76796ea560', 'dff8f511bebbe705',
        '9c32126030f5b589', 'f289f2443b8d5150',
    ),
    'honeycomb-5x1': (
        '668fb514e25002d7', '02abb9e75eba51ff', '3207bb7df804d216',
        '7fb0892a7118dd8f', 'f246878656b5702a',
    ),
    'fzero-1x1': (
        '7cdf7c6e348fcdbc', 'fb9b50825b5cab03', '6b71bda48a422b9d',
        '5fd1d45d164394f7', '3fe5c06b5a9bb0a1',
    ),
    'fzero-1x2': (
        '7d780ef83411e997', 'c741187f870dd758', 'ed84ea8d8ee4e180',
        'bd9d7a84b031f667', '8a803a9e0dd2785c',
    ),
    'fzero-2x1': (
        'b13ff017d8e24392', '43bbdbd10309c47e', 'a76e8e79efc2ebae',
        'b2b71722c30f8211', '8a803a9e0dd2785c',
    ),
    'conifold-4x4': (
        'ef35ff9c7137f215', 'dd8cc197273bd286', 'eba0aa52ef51db26',
        '33673abb52a4f8cf', '8ec163cc58254069',
    ),
    'honeycomb-5x5': (
        'ea0e30931efc4612', '276d0286468b9587', 'ce374cf43a002535',
        '3a46e429d7504fd5', 'f739a4a0391400ee',
    ),
    'honeycomb-4x4': (
        '685349ac1ce7867d', '9948f20f27f06b49', '7759588d7fb85de5',
        '982b9d2aee621f46', '3b2f425e3be64a6d',
    ),
    'fzero-2x2': (
        '34f3535af06a97a9', '5c908131328e17d3', 'ee0b95f191e68504',
        '910ea58769edc206', '3fe5c06b5a9bb0a1',
    ),
    'conifold-4x2': (
        '82c03b2fd306c9b8', '334774d365461a5e', 'd8b2f7fe6850d13a',
        '75d9a116b66ea410', '42f4b5d727f79582',
    ),
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
        pairings = iso = None
        if pms:
            sp = split_by_reference(quiver, pms[0])
            pairings, iso = (sp.pi_x, sp.pi_y, sp.level), (sp.iso_det, sp.inverse)
        got = (
            _digest(relations(quiver)),
            _digest((lat.w_basis, lat.torsion, lat.rank)),
            _digest(pairings),
            _digest(lat.free_basis),
            _digest(iso),
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


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_express_functional_matches_the_dense_route(data):
    # the dense passes over every arrow, as oracle, on random functionals:
    # integer combinations of the vertex cycles, which kill the gauge
    # subgroup, often plus a random dense vector, which mostly does not,
    # and sometimes with an arrow missing, an extra key, both, or a foreign
    # splitting
    quiver, sp = data.draw(st.sampled_from(SPLITS))
    ids = quiver.arrow_ids
    f = dict.fromkeys(ids, 0)
    for cycles, _ in quiver.cycles:
        for cycle in cycles:
            r = data.draw(st.integers(-3, 3))
            for i in cycle:
                f[ids[i]] += r
    noise = data.draw(st.booleans())
    if noise:
        for aid in ids:
            f[aid] += data.draw(st.integers(-2, 2))
    change = data.draw(st.sampled_from(("none", "none", "drop", "extra", "swap", "split")))
    if change in ("drop", "swap"):
        del f[data.draw(st.sampled_from(ids))]
    if change in ("extra", "swap"):
        f["not-an-arrow"] = data.draw(st.integers(-2, 2))
    elif change == "split":
        sp = data.draw(st.sampled_from([s for qq, s in SPLITS if qq is not quiver]))
    want = outcome(express_functional_dense, quiver, sp, f)
    assert outcome(express_functional, quiver, sp, f) == want
    if change == "none" and not noise:
        assert len(want) == 3 and all(type(x) is int for x in want)


def test_express_functional_refusals():
    # each of the four checks still refuses, with the dense route's message
    quiver, sp = SPLITS[0]
    good = dict(zip(sp.arrow_order, sp.pi_x))
    other = SPLITS[1][1]
    missing = dict(list(good.items())[1:])
    extra = good | {"not-an-arrow": 0}
    swapped = missing | {"not-an-arrow": 0}  # as many keys as arrows
    gauge = dict(good)
    gauge[quiver.arrow_ids[0]] += 1
    for split, f, exc, msg in (
        (other, good, InvalidModelError, "splitting belongs to another quiver"),
        (sp, missing, InvalidModelError, "weights must cover exactly the arrows"),
        (sp, extra, InvalidModelError, "weights must cover exactly the arrows"),
        (sp, swapped, InvalidModelError, "weights must cover exactly the arrows"),
        (sp, gauge, InvalidModelError, "functional does not kill the gauge subgroup"),
    ):
        assert outcome(express_functional_dense, quiver, split, f) == (exc, msg)
        with pytest.raises(exc, match=f"^{msg}$"):
            express_functional(quiver, split, f)

    # rank 2: the dice tiling's lattice, under a splitting made by hand for
    # its arrow order, since split_by_reference refuses it
    dice = quiver_of(sweep_corpus()["dice.json"])
    assert cochar_lattice(dice).rank == 2
    zeros = (0,) * len(dice.arrows)
    unit = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    hand = Splitting(frozenset(), dice.arrow_ids, zeros, zeros, zeros, 1, unit)
    f = dict.fromkeys(dice.arrow_ids, 0)
    msg = "cocharacter lattice is not free of rank 3"
    assert outcome(express_functional_dense, dice, hand, f) == (DegenerateModelError, msg)
    with pytest.raises(DegenerateModelError, match=f"^{msg}$"):
        express_functional(dice, hand, f)


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


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(-2, 2), st.integers(-2, 2)), min_size=3, max_size=6))
def test_hilbert_basis_is_the_irreducibles(points):
    # on a primal and a dual cone: exactly the points no other splits off,
    # each once, in the order of their pairing with the rays' sum
    polygon = convex_hull(points)
    if len(polygon.vertices) < 3:
        return
    primal = cone_over_polygon(polygon)
    for c in (primal, dual_cone(primal)):
        hb = hilbert_basis(c)
        grading = [sum(x * y for r in c.rays for x, y in zip(p, r)) for p in hb]
        assert len(set(hb)) == len(hb)
        assert set(hb) == hilbert_basis_by_definition(c)
        assert sorted(zip(grading, hb)) == list(zip(grading, hb))


def test_dual_cone_refuses_cones_not_pointed_and_full():
    # rays in a plane, and a wedge with two opposite rays on its edge line
    for rays in (((1, 0, 0), (0, 1, 0), (-1, -1, 0)),
                 ((0, 0, 1), (1, 0, 0), (0, 0, -1), (0, 1, 0))):
        with pytest.raises(InvalidModelError, match="^rays span no pointed 3-dimensional cone$"):
            dual_cone(lattice.Cone3(rays))


def test_dual_cone_refuses_a_repeated_ray():
    # the square cone's rays doubling back along an edge, and a ray with a
    # multiple of itself
    for rays in (((0, 0, 1), (1, 0, 1), (1, 1, 1), (1, 0, 1), (0, 0, 1), (0, 1, 1)),
                 ((0, 0, 1), (1, 0, 1), (2, 0, 2), (0, 1, 1))):
        with pytest.raises(InvalidModelError, match="^a ray is listed twice$"):
            dual_cone(lattice.Cone3(rays))


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.tuples(st.integers(-2, 2), st.integers(-2, 2)), min_size=3, max_size=6),
    st.data(),
)
def test_dual_cone_of_reordered_rays(points, data):
    # the rays shuffled, or walked around the polygon with turns back, then
    # sometimes with a ray repeated: refused, or the ordered cone's normals;
    # a rotation or reversal of the order is never refused
    polygon = convex_hull(points)
    if len(polygon.vertices) < 3:
        return
    ordered = cone_over_polygon(polygon).rays
    n = len(ordered)
    if data.draw(st.booleans()):
        rays = list(data.draw(st.permutations(ordered)))
    else:
        start = data.draw(st.integers(0, n - 1))
        steps = data.draw(st.lists(st.sampled_from((1, -1)), min_size=n - 1, max_size=n + 2))
        rays = [ordered[i % n] for i in itertools.accumulate(steps, initial=start)]
    if data.draw(st.booleans()):
        rays.insert(data.draw(st.integers(0, len(rays))), data.draw(st.sampled_from(ordered)))
    turns = [ordered[k:] + ordered[:k] for k in range(n)]
    repeated = len(set(rays)) < len(rays)
    cyclic = not repeated and (tuple(rays) in turns or tuple(rays[::-1]) in turns)
    try:
        normals = dual_cone(lattice.Cone3(tuple(rays))).rays
    except InvalidModelError:
        assert not cyclic
        return
    assert not repeated
    assert sorted(normals) == sorted(dual_cone(lattice.Cone3(ordered)).rays)


def test_toric_generators_count_the_invariant_ring():
    # a cover under an index-n sublattice L of the honeycomb is C^3 / (Z^2 / L):
    # its ring generators are the minimal exponents (a, b, c) >= 0 with
    # a chi_1 + b chi_2 + c chi_3 in L, chi_k the differences of the
    # honeycomb's consecutive edge offsets, each in [0, n]^3 since n kills
    # Z^2 / L; every L of index at most 12
    offsets = [e.offset for e in honeycomb.edges]
    chi = [(x1 - x0, y1 - y0) for (x0, y0), (x1, y1) in zip(offsets, offsets[1:] + offsets[:1])]
    seen = 0
    for n in range(1, 13):
        for p in (p for p in range(1, n + 1) if n % p == 0):
            s = n // p
            for r in range(p):
                exponents = sorted(
                    (m for m in itertools.product(range(n + 1), repeat=3) if any(m)),
                    key=sum,
                )
                minimal = []
                for m in exponents:
                    x = sum(k * c[0] for k, c in zip(m, chi))
                    y = sum(k * c[1] for k, c in zip(m, chi))
                    in_l = y % s == 0 and (x - y // s * r) % p == 0
                    if in_l and not any(all(map(int.__le__, k, m)) for k in minimal):
                        minimal.append(m)
                polygon = newton_polygon(char_poly(hnf_cover(honeycomb, p, r, s)))
                hb = hilbert_basis(dual_cone(cone_over_polygon(polygon)))
                assert len(hb) == len(minimal), (p, r, s)
                seen += 1
    assert seen == 127
