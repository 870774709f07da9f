"""Perfect matchings and the three non-degeneracy tests."""

import os
import random
from fractions import Fraction
from unittest import mock

import pytest
from conftest import cover, deletion_corpus, random_connected, sweep_corpus
from hypothesis import example as hyp_example
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    matching_positions,
    matchings_by_positions,
    r_charges_by_matchings,
    strong_marriage_by_masks,
    weight_counts_by_matchings,
)

from dimerkit import (
    MATCHING_CAP,
    BipartiteGraph,
    CapacityError,
    DegenerateModelError,
    InvalidModelError,
    NON_DEGENERACY_METHODS,
    SUBSET_CAP,
    enumerate_matchings,
    example,
    from_model,
    has_matching_containing,
    has_perfect_matching,
    is_non_degenerate,
    load_model,
    perfect_matchings,
    r_charge_average,
)
from dimerkit import matchings
from dimerkit.matchings import _least_matching, _weight_counts

FZ_GRAPH = BipartiteGraph(
    ("b1", "b2"),
    ("w1", "w2"),
    (
        ("e1", "b1", "w1"), ("e2", "b1", "w1"),
        ("e3", "b2", "w2"), ("e4", "b2", "w2"),
        ("e5", "b1", "w2"), ("e6", "b1", "w2"),
        ("e7", "b2", "w1"), ("e8", "b2", "w1"),
    ),
)

DEG_GRAPH = BipartiteGraph(
    ("b1", "b2"),
    ("w1", "w2"),
    (
        ("e1", "b1", "w1"), ("e2", "b1", "w1"),
        ("e3", "b2", "w1"), ("e4", "b2", "w1"),
        ("e5", "b2", "w2"), ("e6", "b2", "w2"),
    ),
)


def test_conifold_matchings():
    assert perfect_matchings(example("conifold")) == (
        frozenset({"e1"}), frozenset({"e2"}),
        frozenset({"e3"}), frozenset({"e4"}),
    )


def test_honeycomb_matchings():
    assert perfect_matchings(example("honeycomb")) == (
        frozenset({"e1"}), frozenset({"e2"}), frozenset({"e3"}),
    )


def test_fzero_eight_matchings_canonical_order():
    pms = enumerate_matchings(FZ_GRAPH)
    assert len(pms) == 8
    assert pms[0] == frozenset({"e1", "e3"})
    assert set(pms) == {
        frozenset({"e1", "e3"}), frozenset({"e1", "e4"}),
        frozenset({"e2", "e3"}), frozenset({"e2", "e4"}),
        frozenset({"e5", "e7"}), frozenset({"e5", "e8"}),
        frozenset({"e6", "e7"}), frozenset({"e6", "e8"}),
    }
    assert pms == perfect_matchings(example("fzero"))


def test_enumeration_cap(monkeypatch):
    monkeypatch.setattr(matchings, "MATCHING_CAP", 7)
    fresh = BipartiteGraph(FZ_GRAPH.blacks, FZ_GRAPH.whites, FZ_GRAPH.edges)
    with pytest.raises(CapacityError, match="more than MATCHING_CAP = 7 perfect"):
        enumerate_matchings(fresh)


def test_r_charges():
    assert r_charge_average(from_model(example("conifold"))) == {
        e: Fraction(1, 2) for e in ("e1", "e2", "e3", "e4")
    }
    assert r_charge_average(from_model(example("honeycomb"))) == {
        e: Fraction(2, 3) for e in ("e1", "e2", "e3")
    }
    assert set(r_charge_average(FZ_GRAPH).values()) == {Fraction(1, 2)}


def test_degenerate_graph():
    pms = enumerate_matchings(DEG_GRAPH)
    assert len(pms) == 4
    assert all("e3" not in m and "e4" not in m for m in pms)
    assert has_perfect_matching(DEG_GRAPH)
    assert not has_matching_containing(DEG_GRAPH, "e3")
    assert has_matching_containing(DEG_GRAPH, "e1")
    for method in NON_DEGENERACY_METHODS:
        assert not is_non_degenerate(DEG_GRAPH, method)


def test_degenerate_catalog_model():
    g = from_model(example("degenerate"))
    for method in NON_DEGENERACY_METHODS:
        assert not is_non_degenerate(g, method)


def test_no_matching_at_all():
    g = BipartiteGraph(("b1",), ("w1", "w2"), (("e1", "b1", "w1"),))
    assert not has_perfect_matching(g)
    with pytest.raises(DegenerateModelError):
        r_charge_average(g)


def test_methods_agree_on_random_corpus():
    nondeg = 0
    for seed in range(200):
        g = random_connected(seed)
        answers = [is_non_degenerate(g, m) for m in NON_DEGENERACY_METHODS]
        assert answers[0] == answers[1] == answers[2], (seed, answers)
        nondeg += answers[0]
    # the corpus is not vacuous: both verdicts occur
    assert 0 < nondeg < 200


def test_strong_marriage_matches_mask_loop():
    # the streamed subset fold against one bit loop per mask: random
    # graphs, the catalog, tests/data, the certify and spectrum covers and
    # the edge-deletion corpus, all within the cap
    nondeg = 0
    for seed in range(300):
        g = random_connected(seed)
        want = strong_marriage_by_masks(g)
        assert is_non_degenerate(g, "strong-marriage") == want, seed
        nondeg += want
    assert 0 < nondeg < 300  # both verdicts occur
    models = {**sweep_corpus(), **deletion_corpus()}
    assert not is_non_degenerate(from_model(models["degenerate"]), "strong-marriage")
    for name, model in models.items():
        g = from_model(model)
        if len(g.blacks) <= SUBSET_CAP:
            assert is_non_degenerate(g, "strong-marriage") == strong_marriage_by_masks(g), name


def test_unknown_method_rejected():
    with pytest.raises(Exception):
        is_non_degenerate(FZ_GRAPH, "majority-vote")


def _permanent_count(g: BipartiteGraph) -> int:
    """Matching count as the permanent of the multiplicity matrix."""
    if len(g.blacks) != len(g.whites):
        return 0
    n = len(g.blacks)
    wpos = {w: i for i, w in enumerate(g.whites)}
    mult = [[0] * n for _ in range(n)]
    for _, b, w in g.edges:
        mult[g.blacks.index(b)][wpos[w]] += 1

    from functools import lru_cache

    @lru_cache(maxsize=None)
    def go(row: int, used: int) -> int:
        if row == n:
            return 1
        return sum(
            mult[row][j] * go(row + 1, used | (1 << j))
            for j in range(n)
            if mult[row][j] and not used & (1 << j)
        )

    return go(0, 0)


def test_enumeration_agrees_with_permanent():
    for g in (FZ_GRAPH, DEG_GRAPH):
        assert len(enumerate_matchings(g)) == _permanent_count(g)
    for name in ("conifold", "honeycomb", "fzero", "degenerate"):
        g = from_model(example(name))
        assert len(enumerate_matchings(g)) == _permanent_count(g)
    for seed in range(80):
        g = random_connected(seed)
        try:
            count = len(enumerate_matchings(g))
        except CapacityError:
            continue
        assert count == _permanent_count(g), seed


def _recursive_matchings(
    g: BipartiteGraph, limit: int = MATCHING_CAP
) -> tuple[frozenset[str], ...]:
    """The recursive enumerator the bitmask search replaced: the oracle."""
    if len(g.blacks) != len(g.whites):
        return ()
    by_black = {b: [(eid, w) for eid, eb, w in g.edges if eb == b] for b in g.blacks}
    found: list[frozenset[str]] = []
    used_whites: set[str] = set()
    chosen: list[str] = []

    def extend(remaining: tuple[str, ...]):
        if not remaining:
            found.append(frozenset(chosen))
            if len(found) > limit:
                raise CapacityError(f"more than {limit} perfect matchings")
            return
        best = min(
            remaining,
            key=lambda b: sum(1 for _, w in by_black[b] if w not in used_whites),
        )
        rest = tuple(b for b in remaining if b != best)
        for eid, w in by_black[best]:
            if w in used_whites:
                continue
            used_whites.add(w)
            chosen.append(eid)
            extend(rest)
            chosen.pop()
            used_whites.remove(w)

    extend(g.blacks)
    pos = {eid: i for i, (eid, _, _) in enumerate(g.edges)}
    found.sort(key=lambda m: sorted(pos[eid] for eid in m))
    return tuple(found)


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 10**6))
@hyp_example(seed=1)  # unbalanced
@hyp_example(seed=13)  # balanced with multi-edges, 10 matchings
@hyp_example(seed=418)  # a search step with more states than matchings
def test_search_matches_recursive_oracle(seed):
    g = random_connected(seed)
    want = _recursive_matchings(g)
    assert enumerate_matchings(g) == want
    count = len(want)
    for k in range(max(0, count - 2), count + 2):
        cold = BipartiteGraph(g.blacks, g.whites, g.edges)
        with mock.patch.object(matchings, "MATCHING_CAP", k):
            if count > k:
                with pytest.raises(CapacityError):
                    enumerate_matchings(cold)
            else:
                assert enumerate_matchings(cold) == want


def _r_charges_by_membership(g: BipartiteGraph) -> dict[str, Fraction]:
    pms = enumerate_matchings(g)
    return {
        eid: Fraction(2 * sum(1 for m in pms if eid in m), len(pms))
        for eid, _, _ in g.edges
    }


PINNED_MODELS = [
    *(example(name) for name in ("conifold", "honeycomb", "fzero", "degenerate")),
    cover(example("conifold"), 2, 2),
    cover(example("conifold"), 4, 1),
    cover(example("honeycomb"), 2, 2),
    cover(example("honeycomb"), 3, 2),
    cover(example("fzero"), 2, 1),
]


@pytest.mark.parametrize("model", PINNED_MODELS)
def test_r_charges_match_membership_counts(model):
    g = from_model(model)
    assert list(r_charge_average(g).items()) == list(
        _r_charges_by_membership(g).items()
    )


# ---------------------------------------------------------------------------
# the forced-edge route per-edge replaced, as oracle: one fresh maximum
# matching per edge, with the edge's ends left out, plus one for the graph


def _forced_max_matching(g: BipartiteGraph, skip: frozenset[str]) -> int:
    """Size of a maximum matching avoiding the vertices in ``skip``."""
    by_black = {b: [w for _, eb, w in g.edges if eb == b] for b in g.blacks}
    match_w: dict[str, str] = {}

    def augment(b: str, seen: set[str]) -> bool:
        for w in by_black[b]:
            if w in skip or w in seen:
                continue
            seen.add(w)
            if w not in match_w or augment(match_w[w], seen):
                match_w[w] = b
                return True
        return False

    return sum(1 for b in g.blacks if b not in skip and augment(b, set()))


def _forced_perfect(g: BipartiteGraph) -> bool:
    n = len(g.blacks)
    return n == len(g.whites) and _forced_max_matching(g, frozenset()) == n


def _forced_contains(g: BipartiteGraph, eid: str) -> bool:
    (b, w), n = [(b, w) for e, b, w in g.edges if e == eid][0], len(g.blacks)
    return n == len(g.whites) and _forced_max_matching(g, frozenset({b, w})) == n - 1


def _assert_matches_forced_route(g: BipartiteGraph) -> None:
    want = {eid: _forced_contains(g, eid) for eid, _, _ in g.edges}
    perfect = _forced_perfect(g)
    assert {eid: has_matching_containing(g, eid) for eid in want} == want
    assert has_perfect_matching(g) == perfect
    assert is_non_degenerate(g, "per-edge") == (perfect and all(want.values()))


def _tagged(g: BipartiteGraph, tag: str) -> BipartiteGraph:
    return BipartiteGraph(
        tuple(tag + b for b in g.blacks),
        tuple(tag + w for w in g.whites),
        tuple((tag + e, tag + b, tag + w) for e, b, w in g.edges),
    )


def _disjoint_union(g: BipartiteGraph, h: BipartiteGraph) -> BipartiteGraph:
    g, h = _tagged(g, "g"), _tagged(h, "h")
    return BipartiteGraph(g.blacks + h.blacks, g.whites + h.whites, g.edges + h.edges)


def _one_white_more(g: BipartiteGraph, seed: int) -> BipartiteGraph:
    """``g`` with a new white tied to one of its blacks: unbalanced sides."""
    b = g.blacks[seed % len(g.blacks)]
    return BipartiteGraph(g.blacks, g.whites + ("w+",), g.edges + (("e+", b, "w+"),))


def _shaped(seed: int, other: int, shape: str) -> BipartiteGraph:
    if shape == "empty":
        return BipartiteGraph((), (), ())
    g = random_connected(seed)
    if shape == "union":
        g = _disjoint_union(g, random_connected(other))
    elif shape == "unbalanced":
        g = _one_white_more(g, other)
    return g


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 10**6), other=st.integers(0, 10**6),
       shape=st.sampled_from(("one", "union", "unbalanced")))
@hyp_example(seed=13, other=0, shape="one")  # balanced, 10 matchings
@hyp_example(seed=13, other=13, shape="union")
def test_per_edge_matches_forced_route(seed, other, shape):
    _assert_matches_forced_route(_shaped(seed, other, shape))


def _assert_sweeps_match_oracles(g: BipartiteGraph, seed: int) -> None:
    """The least matching, the charges and the counts by weight, none of
    which enumerates, against the enumerated matchings."""
    pms = matching_positions(g)
    assert _least_matching(g) == (pms[0] if pms else None)
    rng = random.Random(seed)
    weights = [rng.randrange(5) for _ in g.edges]
    assert _weight_counts(g, weights) == weight_counts_by_matchings(g, weights)
    if not pms:
        for route in (r_charge_average, r_charges_by_matchings):
            with pytest.raises(DegenerateModelError, match="no perfect matchings"):
                route(g)
        return
    assert list(r_charge_average(g).items()) == list(r_charges_by_matchings(g).items())


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 10**6), other=st.integers(0, 10**6),
       shape=st.sampled_from(("one", "union", "unbalanced", "empty")))
@hyp_example(seed=13, other=0, shape="one")  # balanced, 10 matchings
@hyp_example(seed=13, other=13, shape="union")
@hyp_example(seed=1, other=0, shape="one")  # unbalanced
@hyp_example(seed=0, other=0, shape="empty")  # one matching, the empty one
def test_sweeps_match_per_matching_oracles(seed, other, shape):
    _assert_sweeps_match_oracles(_shaped(seed, other, shape), seed)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 10**6), other=st.integers(0, 10**6),
       shape=st.sampled_from(("one", "union", "unbalanced", "empty")))
@hyp_example(seed=13, other=0, shape="one")  # balanced with multi-edges
@hyp_example(seed=13, other=13, shape="union")
@hyp_example(seed=1, other=0, shape="one")  # unbalanced
@hyp_example(seed=0, other=0, shape="empty")  # one matching, the empty one
def test_matchings_in_position_tuple_order(seed, other, shape):
    # the search orders by integer keys; the oracle sorts position tuples
    g = _shaped(seed, other, shape)
    assert enumerate_matchings(g) == matchings_by_positions(g)


SWEEP_CORPUS = sweep_corpus()


@pytest.mark.parametrize("name", sorted(SWEEP_CORPUS))
def test_sweeps_match_per_matching_oracles_on_models(name):
    _assert_sweeps_match_oracles(from_model(SWEEP_CORPUS[name]), len(name))


DICE = os.path.join(os.path.dirname(__file__), "data", "dice.json")

FORCED_ROUTE_MODELS = [
    *PINNED_MODELS,
    load_model(DICE),
    cover(example("conifold"), 3, 2),
    cover(example("honeycomb"), 3, 3),
    cover(example("fzero"), 2, 2),
    cover(example("degenerate"), 2, 1),
]


@pytest.mark.parametrize("model", FORCED_ROUTE_MODELS)
def test_per_edge_matches_forced_route_on_models(model):
    _assert_matches_forced_route(from_model(model))


def test_per_edge_builds_one_matching(monkeypatch):
    calls = []
    build = matchings._max_matching

    def spy(g):
        calls.append(g)
        return build(g)

    monkeypatch.setattr(matchings, "_max_matching", spy)
    for g in (FZ_GRAPH, DEG_GRAPH, from_model(load_model(DICE))):
        calls.clear()
        is_non_degenerate(g, "per-edge")
        assert calls == [g]


def test_has_matching_containing_unknown_edge():
    with pytest.raises(InvalidModelError, match="unknown edge 'e9'"):
        has_matching_containing(FZ_GRAPH, "e9")


def test_deep_search_is_a_capacity_error():
    # 1 020 blacks: the search's tables pass STATE_CAP states at one step
    # before the count reaches MATCHING_CAP
    g = from_model(cover(example("honeycomb"), 34, 30))
    for _ in range(2):  # nothing half-built is kept
        with pytest.raises(CapacityError, match="more than STATE_CAP = 200000"):
            enumerate_matchings(g)


def test_cap_is_checked_on_the_exact_count(monkeypatch):
    # one matching (b2-w3, b3-w1, b1-w2), but before b2 is placed b3 may
    # take w1 or w3: a search step holds more states than there are matchings
    g = BipartiteGraph(
        ("b1", "b2", "b3"),
        ("w1", "w2", "w3"),
        (
            ("e1", "b1", "w1"), ("e2", "b1", "w3"), ("e3", "b3", "w3"),
            ("e4", "b1", "w2"), ("e5", "b2", "w3"), ("e6", "b3", "w1"),
        ),
    )
    monkeypatch.setattr(matchings, "MATCHING_CAP", 1)
    assert enumerate_matchings(g) == (frozenset({"e4", "e5", "e6"}),)
    monkeypatch.setattr(matchings, "MATCHING_CAP", 0)
    with pytest.raises(CapacityError, match="more than MATCHING_CAP = 0 perfect"):
        enumerate_matchings(BipartiteGraph(g.blacks, g.whites, g.edges))


def test_long_cycle_has_two_matchings():
    # 1 500 blacks on one cycle: past the default recursion limit, so no
    # search that recurses once per black gets here
    n = 1500
    edges = [(f"s{i}", f"b{i}", f"w{i}") for i in range(n)]
    edges += [(f"t{i}", f"b{(i + 1) % n}", f"w{i}") for i in range(n)]
    g = BipartiteGraph(
        tuple(f"b{i}" for i in range(n)), tuple(f"w{i}" for i in range(n)), tuple(edges)
    )
    assert matching_positions(g) == (tuple(range(n)), tuple(range(n, 2 * n)))


def test_matching_cap_on_a_cover():
    # 263 640 matchings: refused on the count, before any is built
    g = from_model(cover(example("honeycomb"), 6, 6))
    with pytest.raises(CapacityError, match="more than MATCHING_CAP = 200000 perfect"):
        enumerate_matchings(g)
