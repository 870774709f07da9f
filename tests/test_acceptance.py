"""End-to-end acceptance run: the nine headline guarantees, one per test.

Each test prints a single PASS/FAIL line into the terminal summary, so a
full run reads as a checklist.  The tests only use public package API,
and the chart-transition oracle ``chart_transition`` from ``tests/oracles.py``.
"""

import functools
import json
import random
from fractions import Fraction
from itertools import combinations, permutations

import conftest
from conftest import random_connected

from dimerkit import (
    CASE_SIX_OPPOSITE,
    NON_DEGENERACY_METHODS,
    area2,
    assemble_fan,
    char_poly,
    cochar_lattice,
    cone_over_polygon,
    draw_xi,
    dual_cone,
    dump_model,
    enumerate_fixed_candidates,
    example,
    from_model,
    height_change,
    hilbert_basis,
    is_generic,
    is_non_degenerate,
    is_stable,
    newton_polygon,
    perfect_matchings,
    pm_cocharacter,
    quiver_of,
    r_charge_average,
    relations,
    sample_generic_theta,
    sardo_infirri_theta,
    split_by_reference,
)
from dimerkit.cli import main
from oracles import chart_transition, det_int, split_coords

FIXTURES = ("conifold", "honeycomb", "fzero", "degenerate")


def criterion(num: int, label: str):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                conftest.ACCEPTANCE_LINES.append(f"FAIL  {num}. {label}")
                raise
            conftest.ACCEPTANCE_LINES.append(f"PASS  {num}. {label}")
        return wrapper
    return deco


@criterion(1, "two-face pipeline: matchings, polynomial, square polygon")
def test_two_face_pipeline():
    model = example("conifold")
    pms = perfect_matchings(model)
    assert pms == (
        frozenset({"e1"}), frozenset({"e2"}),
        frozenset({"e3"}), frozenset({"e4"}),
    )
    z = char_poly(model)  # measured against the first matching
    terms = dict(z.terms)
    assert set(terms) == {(0, 0), (1, 0), (0, 1), (1, 1)}
    assert all(c == 1 for c in terms.values())
    assert newton_polygon(z).vertices == ((0, 0), (1, 0), (1, 1), (0, 1))


@criterion(2, "two-face quiver matches the four-arrow ideal up to relabeling")
def test_quiver_relations_isomorphic():
    q = quiver_of(example("conifold"))
    assert len(q.vertices) == 2
    assert len(q.arrows) == 4
    rels = relations(q)
    assert len(rels) == 4
    assert all(
        len(r.plus.arrows) == 3 and len(r.minus.arrows) == 3 for r in rels
    )
    # the known presentation: four arrows a, b, c, d with relations
    # identifying, for each arrow, its two complementary 3-step paths
    target = {
        frozenset({("d", "b", "c"), ("c", "b", "d")}),
        frozenset({("d", "a", "c"), ("c", "a", "d")}),
        frozenset({("a", "d", "b"), ("b", "d", "a")}),
        frozenset({("a", "c", "b"), ("b", "c", "a")}),
    }
    ours = [(r.plus.arrows, r.minus.arrows) for r in rels]
    witnesses = []
    for perm in permutations("abcd"):
        rename = dict(zip(q.arrow_ids, perm))
        image = {
            frozenset({
                tuple(rename[a] for a in plus),
                tuple(rename[a] for a in minus),
            })
            for plus, minus in ours
        }
        if image == target:
            witnesses.append(rename)
    assert witnesses, "no arrow relabeling matches the target ideal"
    assert {"e1": "c", "e2": "a", "e3": "d", "e4": "b"} in witnesses


@criterion(3, "height-change cocycle identity on all fixtures")
def test_cocycle_identity():
    for name in FIXTURES:
        model = example(name)
        pms = perfect_matchings(model)
        for d, d1, d0 in permutations(pms, 3):
            lhs = height_change(model, d, d1)
            via0 = height_change(model, d, d0)
            back = height_change(model, d1, d0)
            assert lhs == (via0[0] - back[0], via0[1] - back[1]), name


@criterion(4, "three non-degeneracy methods agree; charges sum to 2")
def test_three_way_agreement():
    for name in FIXTURES:
        g = from_model(example(name))
        verdicts = [is_non_degenerate(g, m) for m in NON_DEGENERACY_METHODS]
        assert verdicts[0] == verdicts[1] == verdicts[2], name
        assert verdicts[0] == (name != "degenerate")

    checked = 0
    for seed in range(200):
        g = random_connected(seed)
        verdicts = [is_non_degenerate(g, m) for m in NON_DEGENERACY_METHODS]
        assert verdicts[0] == verdicts[1] == verdicts[2], seed
        checked += 1
        try:
            charges = r_charge_average(g)
        except Exception:
            continue  # no perfect matching: the average is undefined
        sums: dict[str, Fraction] = {}
        for eid, b, w in g.edges:
            sums[b] = sums.get(b, Fraction(0)) + charges[eid]
            sums[w] = sums.get(w, Fraction(0)) + charges[eid]
        assert all(s == 2 for s in sums.values()), seed
    assert checked == 200

    rc = r_charge_average(from_model(example("conifold")))
    assert set(rc.values()) == {Fraction(1, 2)}
    rc = r_charge_average(from_model(example("honeycomb")))
    assert set(rc.values()) == {Fraction(2, 3)}


@criterion(5, "matching cocharacters: heights via pairing, level one, rank 3")
def test_lattice_cross_check():
    for name in FIXTURES:
        model = example(name)
        q = quiver_of(model)
        pms = perfect_matchings(model)
        split = split_by_reference(q, pms[0])
        for m in pms:
            w = pm_cocharacter(q, m)
            want = (*height_change(model, m, pms[0]), 1)
            assert split_coords(split, w) == want, (name, m)
    assert cochar_lattice(quiver_of(example("conifold"))).rank == 3
    assert cochar_lattice(quiver_of(example("honeycomb"))).rank == 3


@criterion(6, "sampled weights: base rep always stable, mostly generic")
def test_sampled_weights():
    q = quiver_of(example("conifold"))
    base = frozenset({"e1"})
    psi0 = frozenset({"e2", "e3", "e4"})
    stable = generic = 0
    for seed in range(100):
        rng = random.Random(seed)
        xi = draw_xi(q, base, rng)
        theta = sardo_infirri_theta(q, base, xi)
        stable += is_stable(q, psi0, theta)
        if is_generic(q, theta):
            generic += 1
        else:
            # a bad draw is replaced, never used as-is
            redrawn, _, tries = sample_generic_theta(q, base, rng)
            assert tries >= 1 and is_generic(q, redrawn)
            assert redrawn.values != theta.values
    assert stable == 100
    assert generic >= 95


@criterion(7, "fixed points are smooth corner charts; fan certificate holds")
def test_fixed_points_and_certificate():
    fan = assemble_fan(example("conifold"), seed=0)
    assert len(fan.charts) == 2
    fan_h = assemble_fan(example("honeycomb"), seed=0)
    assert len(fan_h.charts) == 1
    for f in (fan, fan_h):
        for chart in f.charts:
            assert chart.classification.case == CASE_SIX_OPPOSITE
            assert chart.classification.smooth
        assert f.report.ok, [c for c in f.report.checks if not c.ok]
        for name in ("cones-unimodular", "rays-level-one", "area-covered"):
            assert f.report.check(name).ok

    rows = [c.rows for c in fan.charts]
    tr = chart_transition(rows[0], rows[1])
    assert det_int(tr) == 1
    assert all(isinstance(x, int) for row in tr for x in row)
    # both charts' coordinate characters multiply to the same functional
    products = {
        tuple(sum(r[i] for r in rws) for i in range(3)) for rws in rows
    }
    assert products == {(0, 0, 1)}


@criterion(8, "function ring generators: four with one relation / free basis")
def test_toric_generators():
    cone = cone_over_polygon(newton_polygon(char_poly(example("conifold"))))
    gens = hilbert_basis(dual_cone(cone))
    assert len(gens) == 4
    add = lambda u, v: tuple(a + b for a, b in zip(u, v))
    coincidences = {}
    for i, j in combinations(range(4), 2):
        coincidences.setdefault(add(gens[i], gens[j]), []).append((i, j))
    groups = [ps for ps in coincidences.values() if len(ps) > 1]
    assert len(groups) == 1
    pair_a, pair_b = sorted(groups[0])
    # the one relation pairs opposite generators, using each exactly once
    assert set(pair_a) | set(pair_b) == {0, 1, 2, 3}
    assert (pair_a, pair_b) == ((0, 3), (1, 2))
    assert add(gens[0], gens[3]) == (0, 0, 1)

    cone_h = cone_over_polygon(newton_polygon(char_poly(example("honeycomb"))))
    gens_h = hilbert_basis(dual_cone(cone_h))
    assert len(gens_h) == 3
    assert abs(det_int([list(v) for v in gens_h])) == 1


@criterion(9, "covers past 20 faces: generic weight, charts = area2, certified")
def test_big_covers(capsys, tmp_path):
    for name, a, b in (("fzero", 3, 2), ("honeycomb", 5, 5)):
        model = conftest.cover(example(name), a, b)
        path = str(tmp_path / f"{name}.json")
        dump_model(model, path)
        assert main(["fixed-points", path, "--seed", "0"]) == 0, name
        data = json.loads(capsys.readouterr().out)
        assert data["certificate"]["ok"], name
        polygon = newton_polygon(char_poly(model))
        assert len(data["fixed_points"]) == area2(polygon), name
    honeycomb = str(tmp_path / "honeycomb.json")  # 25 faces
    assert main(["theta", honeycomb, "--seed", "0"]) == 0
    assert json.loads(capsys.readouterr().out)["generic"] is True
