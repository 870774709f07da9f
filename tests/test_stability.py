"""Stability weights: closed subsets, (semi)stability, genericity, sampling."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import cover
from dimerkit import (
    InvalidModelError,
    draw_xi,
    example,
    is_generic,
    is_semistable,
    is_stable,
    make_theta,
    quiver_of,
    sample_generic_theta,
    sardo_infirri_theta,
    successor_closed_subsets,
)

q = quiver_of(example("conifold"))


def test_matching_weight_frozen():
    th = sardo_infirri_theta(q, {"e1"}, {"e2": 1, "e3": 1, "e4": 1})
    assert th.of("f1") == -1
    assert th.of("f2") == 1


def test_theta_sums_to_zero():
    th = sardo_infirri_theta(q, {"e1"}, {"e2": 2, "e3": Fraction(1, 3), "e4": 5})
    assert th.of("f1") + th.of("f2") == 0


def test_closed_subsets():
    # complement of a matching strongly connects the quiver
    assert successor_closed_subsets(q, {"e2", "e3", "e4"}) == ()
    # two parallel arrows f1 -> f2: only {f2} is successor-closed
    assert successor_closed_subsets(q, {"e2", "e4"}) == (frozenset({"f2"}),)
    # no arrows: every nonempty proper vertex subset is closed
    assert len(successor_closed_subsets(q, ())) == 2


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
    from dimerkit import perfect_matchings

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
]


def _subset_sums(quiver, support, theta):
    """Fraction weight of every nonempty proper vertex subset that no
    supported arrow leaves; a support of None closes every subset."""
    vs = quiver.vertices
    sums = []
    for mask in range(1, (1 << len(vs)) - 1):
        inside = {v for i, v in enumerate(vs) if mask >> i & 1}
        if support is not None and any(
            a.source in inside and a.target not in inside
            for a in quiver.arrows
            if a.id in support
        ):
            continue
        sums.append(sum((theta[v] for v in inside), Fraction(0)))
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
