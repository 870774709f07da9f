"""Stability of quiver representations with one-dimensional pieces.

A weight ``theta`` on the quiver vertices (rational, summing to zero) makes
a 0/1 representation stable when every nonempty proper subrepresentation has
positive weight.  For 0/1 representations the subrepresentations are exactly
the vertex subsets closed under walking the supported arrows forward, so
both stability and genericity reduce to finite subset checks, guarded by a
capacity bound.

The weights of interest are built from a perfect matching ``D`` and positive
rationals ``xi`` on the arrows off ``D``: each vertex receives the ``xi`` it
absorbs minus the ``xi`` it emits.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm
from typing import Iterable, Mapping

from .exceptions import CapacityError, InvalidModelError
from .model import rational_from_json
from .quiver import Quiver, check_support

VERTEX_CAP = 20  # subset enumeration walks 2^|vertices| masks


@dataclass(frozen=True)
class Theta:
    """Rational vertex weights summing to zero."""

    values: tuple[tuple[str, Fraction], ...]

    def of(self, v: str) -> Fraction:
        for vid, x in self.values:
            if vid == v:
                return x
        raise InvalidModelError(f"unknown vertex {v!r}")

    # built on first use; cached_property is not a field
    @cached_property
    def _scaled(self) -> dict[str, int]:
        """Each weight times the least common denominator: same signs, same
        zero sums, integers only."""
        scale = lcm(*(x.denominator for _, x in self.values))
        return {v: int(x * scale) for v, x in self.values}


def make_theta(q: Quiver, weights: Mapping[str, object]) -> Theta:
    """Weights given as ints, Fractions or ``'p/q'`` strings; floats and
    bools are refused as inexact or mistaken."""
    if set(weights) != set(q.vertices):
        raise InvalidModelError("weights must cover exactly the quiver vertices")
    vals = []
    for v in q.vertices:
        x = weights[v]
        if not isinstance(x, Fraction):
            x = rational_from_json(x, f"weight of {v!r}")
        vals.append((v, x))
    if sum((x for _, x in vals), Fraction(0)) != 0:
        raise InvalidModelError("weights must sum to zero")
    return Theta(tuple(vals))


def _guard(q: Quiver) -> None:
    if len(q.vertices) > VERTEX_CAP:
        raise CapacityError(
            f"subset enumeration over {len(q.vertices)} vertices exceeds "
            f"the cap of {VERTEX_CAP}"
        )


def _closed_masks(
    q: Quiver, support: Iterable[str] | None, theta: Theta | None = None
):
    """``(mask, weight)`` for every nonempty proper vertex subset closed
    under the supported arrows, in increasing mask order.

    Bit ``i`` of a mask is ``q.vertices[i]``.  A support of ``None`` closes
    every subset.  ``weight`` is the subset's ``theta`` weight times the
    least common denominator of ``theta``, so it has the same sign; it is 0
    without ``theta``.
    """
    _guard(q)
    n = len(q.vertices)
    pos = {v: i for i, v in enumerate(q.vertices)}
    succ = [0] * n
    if support is not None:
        sup = check_support(q, support)
        for a in q.arrows:
            if a.id in sup:
                succ[pos[a.source]] |= 1 << pos[a.target]
    tv = [0] * n
    if theta is not None:
        scaled = theta._scaled
        if scaled.keys() != set(q.vertices):
            raise InvalidModelError("weight vertices do not match the quiver")
        tv = [scaled[v] for v in q.vertices]
    for mask in range(1, (1 << n) - 1):
        weight, m = 0, mask
        while m:
            i = (m & -m).bit_length() - 1
            if succ[i] & ~mask:
                break
            weight += tv[i]
            m &= m - 1
        else:
            yield mask, weight


def successor_closed_subsets(
    q: Quiver, support: Iterable[str]
) -> tuple[frozenset[str], ...]:
    """Nonempty proper vertex subsets closed under the supported arrows.

    These are the possible supports of proper nonzero subrepresentations of
    the 0/1 representation with the given arrow support.
    """
    return tuple(
        frozenset(v for i, v in enumerate(q.vertices) if mask >> i & 1)
        for mask, _ in _closed_masks(q, support)
    )


def is_stable(q: Quiver, support: Iterable[str], theta: Theta) -> bool:
    """King stability: every closed nonempty proper subset has positive weight."""
    return all(w > 0 for _, w in _closed_masks(q, support, theta))


def is_semistable(q: Quiver, support: Iterable[str], theta: Theta) -> bool:
    return all(w >= 0 for _, w in _closed_masks(q, support, theta))


def is_generic(q: Quiver, theta: Theta) -> bool:
    """No nonempty proper vertex subset has weight zero.

    Generic weights see no strictly semistable 0/1 representation, whatever
    the arrow support is.
    """
    return all(w != 0 for _, w in _closed_masks(q, None, theta))


def sardo_infirri_theta(
    q: Quiver, matching: Iterable[str], xi: Mapping[str, object]
) -> Theta:
    """Vertex weights induced by positive arrow weights off a matching.

    Each vertex gets the total ``xi`` of the off-matching arrows flowing in,
    minus the total flowing out; the result sums to zero by construction.
    ``xi`` must cover exactly the off-matching arrows and be positive.
    """
    m = check_support(q, matching)
    off = {a.id for a in q.arrows} - m
    if set(xi) != off:
        raise InvalidModelError(
            "xi must weight exactly the arrows off the matching"
        )
    acc = {v: Fraction(0) for v in q.vertices}
    for aid in off:
        x = Fraction(xi[aid])
        if x <= 0:
            raise InvalidModelError(f"xi[{aid!r}] must be positive")
        acc[q.target(aid)] += x
        acc[q.source(aid)] -= x
    return Theta(tuple((v, acc[v]) for v in q.vertices))


def draw_xi(
    q: Quiver, matching: Iterable[str], rng: random.Random
) -> dict[str, Fraction]:
    """Random positive rational weights on the arrows off the matching."""
    m = check_support(q, matching)
    return {
        a.id: Fraction(rng.randint(1, 999), rng.randint(1, 999))
        for a in q.arrows
        if a.id not in m
    }


def sample_generic_theta(
    q: Quiver,
    matching: Iterable[str],
    rng: random.Random,
    max_tries: int = 1000,
) -> tuple[Theta, dict[str, Fraction], int]:
    """Draw ``xi`` until the induced weight is generic.

    Returns the weight, the accepted ``xi`` and the number of draws used.
    """
    for tries in range(1, max_tries + 1):
        xi = draw_xi(q, matching, rng)
        theta = sardo_infirri_theta(q, matching, xi)
        if is_generic(q, theta):
            return theta, xi, tries
    raise InvalidModelError(f"no generic weight found in {max_tries} draws")
