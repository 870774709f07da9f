"""Height changes, characteristic polynomial, Newton polygon geometry."""

from fractions import Fraction
from itertools import permutations

import pytest
from conftest import cover, sweep_corpus
from oracles import char_poly_by_matchings

from dimerkit import (
    DegenerateModelError,
    DimerModel,
    area2,
    char_poly,
    contains_point,
    convex_hull,
    example,
    from_model,
    height_change,
    laurent_from_counts,
    newton_polygon,
    perfect_matchings,
)
from dimerkit.matchings import matching_positions

conifold = example("conifold")
honeycomb = example("honeycomb")


def test_conifold_heights_frozen():
    hx = {m: height_change(conifold, {m}, {"e1"}) for m in ("e1", "e2", "e3", "e4")}
    assert hx == {"e1": (0, 0), "e2": (1, 0), "e3": (1, 1), "e4": (0, 1)}


def test_conifold_char_poly():
    z = char_poly(conifold)
    assert str(z) == "1 + y + x + x*y"
    terms = dict(z.terms)
    assert set(terms) == {(0, 0), (1, 0), (0, 1), (1, 1)}
    assert all(c == 1 for c in terms.values())


def test_reference_normalisation():
    # measuring against e3 shifts all exponents by -h(e3, e1) = (-1, -1)
    z = char_poly(conifold, base=frozenset({"e3"}))
    assert set(dict(z.terms)) == {(0, 0), (-1, 0), (0, -1), (-1, -1)}


def test_newton_polygons():
    p = newton_polygon(char_poly(conifold))
    assert p.vertices == ((0, 0), (1, 0), (1, 1), (0, 1))
    assert area2(p) == 2
    ph = newton_polygon(char_poly(honeycomb))
    assert ph.vertices == ((0, 0), (1, 0), (0, 1))
    assert area2(ph) == 1


def test_cocycle_identity_all_fixtures():
    for name in ("conifold", "honeycomb", "fzero", "degenerate"):
        model = example(name)
        pms = perfect_matchings(model)
        for a, b, c in permutations(pms, 3):
            hab = height_change(model, a, b)
            hac = height_change(model, a, c)
            hcb = height_change(model, c, b)
            assert hab == (hac[0] + hcb[0], hac[1] + hcb[1]), name


def test_height_self_is_zero():
    for m in perfect_matchings(conifold):
        assert height_change(conifold, m, m) == (0, 0)


def test_hull_edge_cases():
    assert convex_hull([(0, 0)]).vertices == ((0, 0),)
    assert convex_hull([(0, 0), (2, 2), (1, 1)]).vertices == ((0, 0), (2, 2))
    assert convex_hull([(0, 0), (1, 0), (2, 0), (1, 1)]).vertices == (
        (0, 0), (2, 0), (1, 1),
    )


def test_contains_point_exact():
    p = newton_polygon(char_poly(conifold))
    assert contains_point(p, (0, 0))
    assert contains_point(p, (Fraction(1, 2), Fraction(1, 2)))
    assert not contains_point(p, (2, 0))
    seg = convex_hull([(0, 0), (2, 2)])
    assert contains_point(seg, (1, 1))
    assert not contains_point(seg, (3, 3))
    assert not contains_point(seg, (1, 0))


def test_degenerate_polygon_is_a_segment():
    p = newton_polygon(char_poly(example("degenerate")))
    assert len(p.vertices) == 2
    assert area2(p) == 0


def test_mismatched_matchings_rejected():
    with pytest.raises(Exception):
        height_change(conifold, {"e1", "e2"}, {"e1"})


def test_coefficients_count_matchings():
    for name in ("conifold", "honeycomb", "fzero", "degenerate"):
        model = example(name)
        z = char_poly(model)
        coeffs = list(dict(z.terms).values())
        assert all(c >= 1 for c in coeffs)
        assert sum(coeffs) == len(perfect_matchings(model))


def test_polygon_independent_of_reference():
    for name in ("conifold", "honeycomb", "fzero"):
        model = example(name)
        pms = perfect_matchings(model)
        shapes = set()
        for base in pms:
            verts = newton_polygon(char_poly(model, base=base)).vertices
            x0, y0 = verts[0]
            shapes.add(tuple((x - x0, y - y0) for x, y in verts))
        assert len(shapes) == 1, name


def _char_poly_by_membership(model, base=None):
    def offset_sum(m):
        x = y = 0
        for e in model.edges:
            if e.id in m:
                x, y = x + e.offset[0], y + e.offset[1]
        return (x, y)

    pms = perfect_matchings(model)
    sb = offset_sum(pms[0] if base is None else frozenset(base))
    counts = {}
    for m in pms:
        sm = offset_sum(m)
        h = (sb[0] - sm[0], sb[1] - sm[1])
        counts[h] = counts.get(h, 0) + 1
    return laurent_from_counts(counts)


@pytest.mark.parametrize("model", [
    *(example(name) for name in ("conifold", "honeycomb", "fzero", "degenerate")),
    cover(example("conifold"), 2, 2),
    cover(example("conifold"), 4, 1),
    cover(example("honeycomb"), 2, 2),
    cover(example("honeycomb"), 3, 2),
    cover(example("fzero"), 2, 1),
])
def test_char_poly_matches_membership_sums(model):
    pms = perfect_matchings(model)
    assert char_poly(model) == _char_poly_by_membership(model)
    for base in (pms[-1], sorted(pms[len(pms) // 2])):
        assert char_poly(model, base=base) == _char_poly_by_membership(model, base)


SWEEP_CORPUS = sweep_corpus()


@pytest.mark.parametrize("name", sorted(SWEEP_CORPUS))
def test_char_poly_matches_per_matching_oracle(name):
    # the default base (the least matching, found without enumerating) and
    # several enumerated ones
    model = SWEEP_CORPUS[name]
    pms = matching_positions(from_model(model))
    if not pms:
        for route in (char_poly, char_poly_by_matchings):
            with pytest.raises(DegenerateModelError, match="no perfect matchings"):
                route(model)
        return
    assert char_poly(model) == char_poly_by_matchings(model)
    ids = [e.id for e in model.edges]
    for k in sorted({1, 2, len(pms) // 2, len(pms) - 1} & set(range(len(pms)))):
        base = [ids[p] for p in pms[k]]
        assert char_poly(model, base) == char_poly_by_matchings(model, base), k


@pytest.mark.parametrize(
    "name", ["conifold", "degenerate", "honeycomb_wound.json", "honeycomb-5x5"]
)
def test_default_base_with_edges_reversed(name):
    # in reverse order the first matching has a nonzero total offset, so the
    # default base moves every exponent
    model = SWEEP_CORPUS[name]
    rev = DimerModel(model.vertices, model.edges[::-1], model.rotation)
    assert char_poly(rev) == char_poly_by_matchings(rev)
    assert char_poly(rev) != char_poly(model)
