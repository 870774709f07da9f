"""Stability weights: (semi)stability and genericity against closed-subset
sums and the reach-set route, the flow's own invariants, sampling."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import cover, sweep_corpus
from oracles import king_by_reach_sets, tree_paths
from dimerkit import (
    VERTEX_CAP,
    Arrow,
    CapacityError,
    InvalidModelError,
    Quiver,
    draw_xi,
    example,
    is_generic,
    is_semistable,
    is_stable,
    make_theta,
    perfect_matchings,
    quiver_of,
    sample_generic_theta,
    sardo_infirri_theta,
    stability,
)
from dimerkit.model import _spanning_forest

q = quiver_of(example("conifold"))


def test_matching_weight_frozen():
    th = sardo_infirri_theta(q, {"e1"}, {"e2": 1, "e3": 1, "e4": 1})
    assert th.of("f1") == -1
    assert th.of("f2") == 1


def test_unknown_names_are_invalid():
    th = sardo_infirri_theta(q, {"e1"}, {"e2": 1, "e3": 1, "e4": 1})
    with pytest.raises(InvalidModelError, match="unknown vertex 'f9'"):
        th.of("f9")
    with pytest.raises(InvalidModelError, match="unknown arrow 'e9'"):
        is_stable(q, {"e2", "e9"}, th)


def test_theta_sums_to_zero():
    th = sardo_infirri_theta(q, {"e1"}, {"e2": 2, "e3": Fraction(1, 3), "e4": 5})
    assert th.of("f1") + th.of("f2") == 0


def test_stability_verdicts():
    th = sardo_infirri_theta(q, {"e1"}, {"e2": 1, "e3": 1, "e4": 1})
    assert is_stable(q, {"e2", "e3", "e4"}, th)
    assert is_stable(q, {"e2", "e4"}, th)

    flipped = make_theta(q, {"f1": 1, "f2": -1})
    assert not is_stable(q, {"e2", "e4"}, flipped)
    assert not is_semistable(q, {"e2", "e4"}, flipped)

    zero = make_theta(q, {"f1": 0, "f2": 0})
    assert is_semistable(q, {"e2", "e4"}, zero)
    assert not is_stable(q, {"e2", "e4"}, zero)


def test_genericity():
    assert is_generic(q, sardo_infirri_theta(q, {"e1"}, {"e2": 1, "e3": 1, "e4": 1}))
    assert not is_generic(q, make_theta(q, {"f1": 0, "f2": 0}))


def test_make_theta_rejects_nonzero_sum():
    with pytest.raises(InvalidModelError):
        make_theta(q, {"f1": 1, "f2": 1})


def test_seeded_draws_stable_and_mostly_generic():
    rng = random.Random(0)
    stable = generic = 0
    for _ in range(100):
        xi = draw_xi(q, {"e1"}, rng)
        th = sardo_infirri_theta(q, {"e1"}, xi)
        stable += is_stable(q, {"e2", "e3", "e4"}, th)
        generic += is_generic(q, th)
    assert stable == 100
    assert generic >= 95


def test_stability_invariant_under_rescaling():
    th = sardo_infirri_theta(q, {"e1"}, {"e2": 1, "e3": 1, "e4": 1})
    scaled = make_theta(q, {v: 7 * x for v, x in th.values})
    for support in ({"e2", "e3", "e4"}, {"e2", "e4"}, set()):
        assert is_stable(q, support, th) == is_stable(q, support, scaled)
        assert is_semistable(q, support, th) == is_semistable(q, support, scaled)


def test_full_support_always_stable():
    for theta in (
        sardo_infirri_theta(q, {"e1"}, {"e2": 1, "e3": 1, "e4": 1}),
        make_theta(q, {"f1": 0, "f2": 0}),
        make_theta(q, {"f1": -5, "f2": 5}),
    ):
        assert is_stable(q, {"e1", "e2", "e3", "e4"}, theta)


def test_base_rep_stable_on_every_fixture():
    for name in ("conifold", "honeycomb", "fzero", "degenerate"):
        model = example(name)
        quiver = quiver_of(model)
        for matching in perfect_matchings(model):
            xi = draw_xi(quiver, matching, random.Random(11))
            th = sardo_infirri_theta(quiver, matching, xi)
            psi0 = {a for a in quiver.arrow_ids if a not in matching}
            assert is_stable(quiver, psi0, th), (name, sorted(matching))


def test_sample_generic_theta():
    th, xi, tries = sample_generic_theta(q, {"e1"}, random.Random(1))
    assert is_generic(q, th)
    assert tries >= 1
    assert set(xi) == {"e2", "e3", "e4"}
    # deterministic for a fixed seed
    again, _, _ = sample_generic_theta(q, {"e1"}, random.Random(1))
    assert again.values == th.values


def test_sampling_stops_at_the_draw_limit(monkeypatch):
    monkeypatch.setattr(stability, "_THETA_DRAWS", 0)
    with pytest.raises(InvalidModelError, match="no generic weight found in 0 draws"):
        sample_generic_theta(q, {"e1"}, random.Random(1))


@pytest.mark.parametrize(
    "f1, f2",
    [("abc", 0), ([1], 0), (None, 0), ("1/0", 0), (0.1, -0.1), (True, -1)],
)
def test_make_theta_rejects_non_rationals(f1, f2):
    with pytest.raises(InvalidModelError):
        make_theta(q, {"f1": f1, "f2": f2})


def test_make_theta_accepts_exact_values():
    th = make_theta(q, {"f1": "-1/2", "f2": Fraction(1, 2)})
    assert th.values == (("f1", Fraction(-1, 2)), ("f2", Fraction(1, 2)))
    assert make_theta(q, {"f1": 3, "f2": "-3"}).values == (
        ("f1", Fraction(3)), ("f2", Fraction(-3)),
    )


ORACLE_QUIVERS = [
    quiver_of(example("honeycomb")),
    q,
    quiver_of(example("fzero")),
    quiver_of(cover(example("conifold"), 2, 2)),
    quiver_of(cover(example("fzero"), 2, 1)),
    quiver_of(cover(example("conifold"), 3, 2)),
    quiver_of(cover(example("fzero"), 3, 1)),
]


def _subset_sums(quiver, support, theta):
    """Fraction weight of every nonempty proper vertex subset that no
    supported arrow leaves; a support of None closes every subset."""
    vs = quiver.vertices
    steps = [(a.source, a.target) for a in quiver.arrows
             if support is not None and a.id in support]
    # each subset's weight is that of the subset without its lowest vertex,
    # plus that vertex's weight
    weight = [Fraction(0)]
    for mask in range(1, 1 << len(vs)):
        low = (mask & -mask).bit_length() - 1
        weight.append(weight[mask & (mask - 1)] + theta[vs[low]])
    sums = []
    for mask in range(1, (1 << len(vs)) - 1):
        inside = {v for i, v in enumerate(vs) if mask >> i & 1}
        if any(s in inside and t not in inside for s, t in steps):
            continue
        sums.append(weight[mask])
    return sums


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_verdicts_match_fraction_oracle(data):
    quiver = data.draw(st.sampled_from(ORACLE_QUIVERS))
    n = len(quiver.vertices)
    # small numerators over mixed denominators, so zero sums do occur
    nums = st.integers(-4, 4)
    dens = st.sampled_from((1, 2, 3, 4, 6, 7))
    vals = [Fraction(data.draw(nums), data.draw(dens)) for _ in range(n - 1)]
    vals.append(-sum(vals, Fraction(0)))
    values = dict(zip(quiver.vertices, vals))
    theta = make_theta(quiver, values)
    support = data.draw(st.frozensets(st.sampled_from(quiver.arrow_ids)))

    closed = _subset_sums(quiver, support, values)
    assert is_stable(quiver, support, theta) == all(w > 0 for w in closed)
    assert is_semistable(quiver, support, theta) == all(w >= 0 for w in closed)
    assert is_generic(quiver, theta) == all(
        w != 0 for w in _subset_sums(quiver, None, values)
    )


def _digraph(n, pairs):
    """A bare quiver on vertices ``v0 .. v{n-1}``, one arrow ``a{k}`` per
    ``(source, target)`` index pair."""
    vs = tuple(f"v{i}" for i in range(n))
    arrows = tuple(
        Arrow(f"a{k}", vs[i], vs[j]) for k, (i, j) in enumerate(pairs)
    )
    return Quiver(vs, arrows, ())


def _tilted(quiver):
    """Weight ``n - 1`` on the first vertex and ``-1`` on every other."""
    n = len(quiver.vertices)
    return dict(zip(quiver.vertices, [n - 1] + [-1] * (n - 1)))


def _check_against_oracle(quiver, support, vals):
    values = dict(zip(quiver.vertices, vals))
    theta = make_theta(quiver, values)
    closed = _subset_sums(quiver, support, values)
    assert is_stable(quiver, support, theta) == all(w > 0 for w in closed)
    assert is_semistable(quiver, support, theta) == all(w >= 0 for w in closed)
    assert is_generic(quiver, theta) == all(
        w != 0 for w in _subset_sums(quiver, None, values)
    )


# three sources v0, v1, v3 feed the sink v2; the closed set {v0, v1, v2}
# is no vertex's reach, so no search from one vertex sees its weight
THREE_SOURCES = _digraph(4, [(0, 2), (1, 2), (3, 2)])


@pytest.mark.parametrize(
    "vals, stable, semistable",
    [
        ((-1, -1, 3, -1), True, True),
        ((-2, -2, 3, 1), False, False),  # {v0, v1, v2} weighs -1
        ((-1, -2, 3, 0), False, True),  # {v0, v1, v2} weighs 0
        ((1, 1, -2, 0), False, False),  # the sink alone is negative
        ((0, 0, 0, 0), False, True),
    ],
)
def test_several_source_components(vals, stable, semistable):
    support = {a.id for a in THREE_SOURCES.arrows}
    theta = make_theta(THREE_SOURCES, dict(zip(THREE_SOURCES.vertices, vals)))
    assert is_stable(THREE_SOURCES, support, theta) is stable
    assert is_semistable(THREE_SOURCES, support, theta) is semistable
    _check_against_oracle(THREE_SOURCES, support, vals)


def test_empty_support():
    # every nonempty proper subset is closed, and some singleton or its
    # complement weighs at most zero: never stable, semistable only at 0
    quiver = quiver_of(cover(example("conifold"), 2, 2))
    n = len(quiver.vertices)
    zero = make_theta(quiver, dict.fromkeys(quiver.vertices, 0))
    assert not is_stable(quiver, (), zero)
    assert is_semistable(quiver, (), zero)
    tilted = make_theta(quiver, _tilted(quiver))
    assert not is_stable(quiver, (), tilted)
    assert not is_semistable(quiver, (), tilted)
    for vals in ([0] * n, [n - 1] + [-1] * (n - 1)):
        _check_against_oracle(quiver, (), vals)


def test_empty_quiver():
    # no nonempty proper subset exists, so every verdict holds vacuously
    quiver = Quiver((), (), ())
    theta = make_theta(quiver, {})
    assert is_stable(quiver, (), theta)
    assert is_semistable(quiver, (), theta)
    assert is_generic(quiver, theta)


def test_single_vertex():
    quiver = _digraph(1, [(0, 0)])
    theta = make_theta(quiver, {"v0": 0})
    for support in ((), {"a0"}):
        assert is_stable(quiver, support, theta)
        assert is_semistable(quiver, support, theta)
    assert is_generic(quiver, theta)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_verdicts_match_oracle_on_digraphs(data):
    # small digraphs with loops, parallel arrows and many source components
    n = data.draw(st.integers(1, 7))
    index = st.integers(0, n - 1)
    pairs = data.draw(st.lists(st.tuples(index, index), max_size=12))
    quiver = _digraph(n, pairs)
    vals = data.draw(st.lists(st.integers(-3, 3), min_size=n - 1, max_size=n - 1))
    vals.append(-sum(vals))
    ids = [a.id for a in quiver.arrows]
    support = data.draw(
        st.frozensets(st.sampled_from(ids)) if ids else st.just(frozenset())
    )
    _check_against_oracle(quiver, support, vals)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_stable_supports_span_the_quiver(data):
    # a weak component K of the support and V - K are both closed, and
    # theta(K) + theta(V - K) = 0, so a stable support connects the quiver:
    # the candidate search grows a spanning tree only for stable supports
    if data.draw(st.booleans()):
        quiver = data.draw(st.sampled_from(ORACLE_QUIVERS))
    else:
        n = data.draw(st.integers(1, 7))
        index = st.integers(0, n - 1)
        quiver = _digraph(n, data.draw(st.lists(st.tuples(index, index), max_size=12)))
    ids = [a.id for a in quiver.arrows]
    support = data.draw(
        st.frozensets(st.sampled_from(ids)) if ids else st.just(frozenset())
    )
    spans = tree_paths(quiver, [aid for aid in ids if aid in support]) is not None
    vals = dict.fromkeys(quiver.vertices, 0)
    induced = data.draw(st.booleans())
    if induced:
        # positive weights on the support, absorbed minus emitted: a closed
        # set weighs what enters it, positive exactly when the support spans
        for a in quiver.arrows:
            if a.id in support:
                x = data.draw(st.integers(1, 5))
                vals[a.target] += x
                vals[a.source] -= x
    else:
        drawn = [data.draw(st.integers(-3, 3)) for _ in quiver.vertices[1:]]
        vals.update(zip(quiver.vertices[1:], drawn))
        vals[quiver.vertices[0]] = -sum(drawn)
    stable = is_stable(quiver, support, make_theta(quiver, vals))
    assert spans or not stable
    if induced:
        assert stable == spans


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_verdicts_match_oracle_on_two_layers(data):
    # negative-weight sources feeding positive-weight sinks, plus one more
    # source: deficits must be rerouted between shared sinks
    k = data.draw(st.integers(1, 4))
    m = data.draw(st.integers(1, 4))
    sink = st.integers(k, k + m - 1)
    pairs = [(i, data.draw(sink)) for i in range(k)]
    pairs += data.draw(st.lists(st.tuples(st.integers(0, k - 1), sink), max_size=8))
    pairs.append((k + m, data.draw(sink)))
    quiver = _digraph(k + m + 1, pairs)
    vals = [-data.draw(st.integers(1, 9)) for _ in range(k)]
    vals += [data.draw(st.integers(1, 9)) for _ in range(m)]
    vals.append(-sum(vals))
    support = {a.id for a in quiver.arrows}
    _check_against_oracle(quiver, support, vals)
    # the flow alone, with no strong-connectivity test after it
    theta = make_theta(quiver, dict(zip(quiver.vertices, vals)))
    flow = stability._flow(
        stability._successors(quiver, support), stability._weights(quiver, theta)
    )
    closed = _subset_sums(quiver, support, dict(zip(quiver.vertices, vals)))
    assert (flow is None) == any(w < 0 for w in closed)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_flow_ships_every_deficit_or_none(data):
    # a flow carries positive amounts on supported arrows only and meets
    # every scaled weight; there is none exactly when a closed set is
    # negative
    if data.draw(st.booleans()):
        quiver = data.draw(st.sampled_from(ORACLE_QUIVERS))
    else:
        n = data.draw(st.integers(1, 7))
        index = st.integers(0, n - 1)
        quiver = _digraph(n, data.draw(st.lists(st.tuples(index, index), max_size=12)))
    nums = st.integers(-4, 4)
    dens = st.sampled_from((1, 2, 3, 6))
    vals = [Fraction(data.draw(nums), data.draw(dens)) for _ in quiver.vertices[1:]]
    vals.insert(0, -sum(vals, Fraction(0)))
    values = dict(zip(quiver.vertices, vals))
    ids = [a.id for a in quiver.arrows]
    support = data.draw(
        st.frozensets(st.sampled_from(ids)) if ids else st.just(frozenset())
    )
    succ = stability._successors(quiver, support)
    w = stability._weights(quiver, make_theta(quiver, values))
    flow = stability._flow(succ, w)
    closed = _subset_sums(quiver, support, values)
    assert (flow is None) == any(x < 0 for x in closed)
    if flow is not None:
        arcs = {(x, y) for x, heads in enumerate(succ) for y in heads}
        net = [0] * len(w)
        for v, carried in enumerate(flow):
            for x, amount in carried.items():
                assert amount > 0 and (x, v) in arcs
                net[v] += amount
                net[x] -= amount
        assert net == w


def test_stability_matches_reach_sets_on_candidate_supports(monkeypatch):
    # every support the enumeration oracle tests over the sweep corpus,
    # seeds 0-3, with the weight assemble_fan samples: each matching's
    # complement, then each unit triangle's of stable matchings; the cover
    # with over 10 000 matchings takes a seeded sample of matching
    # complements
    tested = []

    def spy(quiver, support, theta):
        verdict = is_stable(quiver, support, theta)
        tested.append((quiver, support, theta, verdict))
        return verdict

    monkeypatch.setattr(oracles, "is_stable", spy)
    for name, model in sweep_corpus().items():
        pms = perfect_matchings(model)
        if not pms:
            continue
        quiver = quiver_of(model)
        arrows = frozenset(quiver.arrow_ids)
        for seed in range(4):
            theta, _, _ = sample_generic_theta(quiver, pms[0], random.Random(seed))
            if len(pms) <= 10_000:
                oracles.fixed_candidates_by_enumeration(model, theta)
            else:
                for d in random.Random(seed).sample(pms, 100):
                    spy(quiver, arrows - d, theta)
    assert len(tested) > 8000
    for quiver, support, theta, verdict in tested:
        assert verdict == king_by_reach_sets(quiver, support, theta)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_stability_is_monotone_in_the_support(data):
    # an added arrow closes no new set, so a stable support stays stable:
    # the three matchings of a stable candidate support are stable
    n = data.draw(st.integers(1, 6))
    index = st.integers(0, n - 1)
    quiver = _digraph(n, data.draw(st.lists(st.tuples(index, index), max_size=12)))
    vals = data.draw(st.lists(st.integers(-4, 4), min_size=n - 1, max_size=n - 1))
    theta = make_theta(quiver, dict(zip(quiver.vertices, vals + [-sum(vals)])))
    ids = [a.id for a in quiver.arrows]
    subsets = st.frozensets(st.sampled_from(ids)) if ids else st.just(frozenset())
    small = data.draw(subsets)
    large = small | data.draw(subsets)
    if is_stable(quiver, small, theta):
        assert is_stable(quiver, large, theta)


SWEEP = sweep_corpus()


@pytest.mark.parametrize("name", sorted(SWEEP))
def test_lift_is_a_flow_on_the_spanning_forest(name):
    # inflow minus outflow is the scaled weight at every face, and only the
    # arrows of the quiver's spanning forest carry any
    quiver = quiver_of(SWEEP[name])
    rng = random.Random(name)
    pos = quiver.vertex_pos
    ends = [(pos[a.source], pos[a.target]) for a in quiver.arrows]
    up, _ = _spanning_forest(len(quiver.vertices), ends)
    for _ in range(4):
        vals = [Fraction(rng.randint(-40, 40), rng.randint(1, 9)) for _ in pos]
        vals[0] -= sum(vals)
        theta = make_theta(quiver, dict(zip(quiver.vertices, vals)))
        lift = stability._lift(quiver, theta)
        net = [0] * len(pos)
        for (s, t), g in zip(ends, lift):
            net[t] += g
            net[s] -= g
        assert net == [theta._scaled[v] for v in quiver.vertices]
        assert all(g == 0 or i in up for i, g in enumerate(lift))


@pytest.mark.parametrize("name", ["honeycomb", "conifold"])
def test_verdicts_match_reach_sets_at_six_by_six(name):
    # past the subset oracle's reach: 36 and 72 faces, a Sardo-Infirri
    # weight from a lifted matching, whose complement then loses a few
    # arrows at random
    model = cover(example(name), 6, 6)
    quiver = quiver_of(model)
    base = perfect_matchings(example(name))[0]
    d = {e.id for e in model.edges if e.id.rsplit("_", 2)[0] in base}
    off = sorted(set(quiver.arrow_ids) - d)
    rng = random.Random(6)
    verdicts = set()
    for _ in range(80):
        theta = sardo_infirri_theta(quiver, d, draw_xi(quiver, d, rng))
        support = set(off) - set(rng.sample(off, rng.choice((0, 1, 2, 4, 8, 16))))
        verdict = is_stable(quiver, support, theta)
        assert verdict == king_by_reach_sets(quiver, support, theta)
        assert is_semistable(quiver, support, theta) == king_by_reach_sets(
            quiver, support, theta, strict=False
        )
        verdicts.add(verdict)
    assert verdicts == {True, False}


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_genericity_matches_oracle(data):
    # repeated values and zeros make zero-weight subsets common
    n = data.draw(st.integers(1, 12))
    quiver = _digraph(n, [])
    pool = data.draw(st.lists(st.integers(-6, 6), min_size=1, max_size=4))
    vals = [data.draw(st.sampled_from(pool)) for _ in range(n - 1)]
    vals.append(-sum(vals))
    values = dict(zip(quiver.vertices, vals))
    assert is_generic(quiver, make_theta(quiver, values)) == all(
        w != 0 for w in _subset_sums(quiver, None, values)
    )


def test_genericity_cap(monkeypatch):
    quiver = quiver_of(cover(example("honeycomb"), 7, 6))
    n = len(quiver.vertices)
    assert n == 42 > 2 * VERTEX_CAP
    theta = make_theta(quiver, _tilted(quiver))
    built = []
    monkeypatch.setattr(stability, "_subset_folds", lambda *args: built.append(args))
    with pytest.raises(CapacityError, match="over 42 vertices exceeds the cap of 40"):
        is_generic(quiver, theta)
    assert built == []


def test_stability_has_no_cap():
    quiver = quiver_of(cover(example("honeycomb"), 7, 3))
    assert len(quiver.vertices) == 21 > VERTEX_CAP
    # stability has no cap: the full support is strongly connected, so
    # stable; with no arrows some face set weighs at most zero
    theta = make_theta(quiver, _tilted(quiver))
    assert not is_stable(quiver, (), theta)
    assert is_stable(quiver, quiver.arrow_ids, theta)
