"""Stability of quiver representations with one-dimensional pieces.

A weight ``theta`` on the quiver vertices (rational, summing to zero) makes
a 0/1 representation stable when every nonempty proper subrepresentation has
positive weight.  For 0/1 representations the subrepresentations are exactly
the vertex subsets closed under walking the supported arrows forward.  Every
closed set weighs at least 0 exactly when the negative vertices can ship
their deficits to the positive ones along the supported arrows (Gale 1957),
so semistability is one flow; stability is that flow plus one
strong-connectivity test, two searches from one vertex.  Neither has a cap.
Genericity, no zero-weight nonempty proper subset at all, meets in the
middle: it counts the subset sums of each half of the vertices, at most
2 * 2^ceil(n/2) of them, streamed by the package's one subset scan
(``model._subset_folds``), and is capped at twice ``VERTEX_CAP`` vertices.

The weights of interest are built from a perfect matching ``D`` and positive
rationals ``xi`` on the arrows off ``D``: each vertex receives the ``xi`` it
absorbs minus the ``xi`` it emits.  Any weight is absorbed minus emitted by
some integer arrow flow, its lift, which a spanning tree carries; a perfect
matching's lift is what its arrows carry, the height over the polygon of
:func:`~dimerkit.charts.enumerate_fixed_candidates`.
"""

from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction
from functools import cached_property
from math import lcm
from operator import add
from typing import Iterable, Mapping

from .exceptions import CapacityError, InvalidModelError
from .model import _frozen, _spanning_forest, _subset_folds, rational_from_json
from .quiver import Quiver, check_support

VERTEX_CAP = 20  # each half of the genericity check sums 2^VERTEX_CAP subsets
_THETA_DRAWS = 1000  # draws before sample_generic_theta gives up


@_frozen
class Theta:
    """Rational vertex weights summing to zero."""

    values: tuple[tuple[str, Fraction], ...]

    def of(self, v: str) -> Fraction:
        try:
            return self._by_vertex[v]
        except KeyError:
            raise InvalidModelError(f"unknown vertex {v!r}") from None

    # built on first use; cached_property is not a field
    @cached_property
    def _by_vertex(self) -> dict[str, Fraction]:
        return dict(self.values)

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


def _successors(q: Quiver, support: Iterable[str]) -> list[list[int]]:
    """Each vertex's supported successors, by vertex position, once per
    supported arrow."""
    pos = q.vertex_pos
    sup = check_support(q, support)
    succ: list[list[int]] = [[] for _ in q.vertices]
    for a in q.arrows:
        if a.id in sup:
            succ[pos[a.source]].append(pos[a.target])
    return succ


def _weights(q: Quiver, theta: Theta) -> list[int]:
    """``theta._scaled`` in vertex order."""
    scaled = theta._scaled
    if scaled.keys() != q.vertex_pos.keys():
        raise InvalidModelError("weight vertices do not match the quiver")
    return [scaled[v] for v in q.vertices]


def _lift(q: Quiver, theta: Theta) -> list[int]:
    """One integer per arrow, in arrow order: a flow whose inflow minus
    outflow is ``theta._scaled`` at every vertex, carried by the quiver's
    spanning forest (``model._spanning_forest``); an arrow walked against
    its direction carries a negative amount, and an arrow off the forest
    carries nothing.  Each tree arrow carries what the subtree below it
    weighs.  On a disconnected quiver a root may keep its tree's weight,
    and no support is stable there anyway.
    """
    w = _weights(q, theta)
    pos = q.vertex_pos
    ends = [(pos[a.source], pos[a.target]) for a in q.arrows]
    up, rank = _spanning_forest(len(w), ends)
    lift = [0] * len(ends)
    for v in sorted(range(len(w)), key=rank.__getitem__, reverse=True):
        if up[v] >= 0:  # the subtree at v takes in w[v] through its tree arrow
            s, t = ends[up[v]]
            lift[up[v]] = w[v] if v == t else -w[v]
            w[s + t - v] += w[v]
    return lift


def _flow(succ: list[list[int]], w: list[int]) -> list[dict[int, int]] | None:
    """A flow along the arcs ``succ`` whose inflow minus outflow is ``w`` at
    every vertex, or None when there is none.

    Every arc has unbounded capacity.  Each negative vertex ships its
    deficit to positive vertices, each of which takes at most its weight,
    along shortest augmenting paths: an arc is walked forwards, or
    backwards against the flow it carries.  When a deficit cannot ship,
    what its search visits is closed under the arcs, no flow enters it and
    its positive vertices are full, so that closed set weighs less than 0
    (Gale 1957); otherwise every closed set weighs the flow entering it.
    Returns, per vertex ``v``, what each arc ``x -> v`` carries, by ``x``.
    """
    room = w[:]  # what each positive vertex can still take
    into: list[dict[int, int]] = [{} for _ in w]
    for u, deficit in enumerate(w):
        left = -deficit
        while left > 0:
            came = {u: (u, True)}  # vertex -> (where it was met from, forwards)
            queue = [u]
            for end in queue:
                if room[end] > 0:
                    break
                for y in succ[end]:
                    if y not in came:
                        came[y] = (end, True)
                        queue.append(y)
                for y in into[end]:
                    if y not in came:
                        came[y] = (end, False)
                        queue.append(y)
            else:
                return None
            push, y = min(left, room[end]), end
            while y != u:
                x, forwards = came[y]
                if not forwards:
                    push = min(push, into[x][y])
                y = x
            room[end] -= push
            left -= push
            y = end
            while y != u:
                x, forwards = came[y]
                if forwards:
                    into[y][x] = into[y].get(x, 0) + push
                elif into[x][y] == push:
                    del into[x][y]
                else:
                    into[x][y] -= push
                y = x
    return into


def _reaches_all(arcs: list[int]) -> bool:
    """Whether vertex 0 reaches every vertex along ``arcs``, each vertex's
    bitmask of heads (true of no vertices at all)."""
    full = (1 << len(arcs)) - 1
    seen = frontier = 1 & full
    while frontier:
        low = frontier & -frontier
        frontier ^= low
        step = arcs[low.bit_length() - 1] & ~seen
        seen |= step
        frontier |= step
    return seen == full


def is_stable(q: Quiver, support: Iterable[str], theta: Theta) -> bool:
    """King stability: every closed nonempty proper subset has positive weight.

    Take a flow from :func:`_flow`.  No supported arrow leaves a closed set
    ``S``, so ``theta(S)`` is exactly the flow entering ``S``.  A proper
    closed ``S`` of weight 0 has no flow entering it, so it is also closed
    under the reversed arrows that carry flow, and the supported arrows
    with those reversed ones do not connect the quiver strongly.
    Conversely, when they do not, some vertex does not reach every vertex
    along them, and what it reaches is such an ``S``.  So one search
    forwards and one backwards from the first vertex decide.
    """
    succ = _successors(q, support)
    into = _flow(succ, _weights(q, theta))
    if into is None:
        return False
    forwards = [0] * len(succ)
    backwards = [0] * len(succ)
    for x, heads in enumerate(succ):
        for y in heads + list(into[x]):
            forwards[x] |= 1 << y
            backwards[y] |= 1 << x
    return _reaches_all(forwards) and _reaches_all(backwards)


def is_semistable(q: Quiver, support: Iterable[str], theta: Theta) -> bool:
    return _flow(_successors(q, support), _weights(q, theta)) is not None


def is_generic(q: Quiver, theta: Theta) -> bool:
    """No nonempty proper vertex subset has weight zero.

    Generic weights see no strictly semistable 0/1 representation, whatever
    the arrow support is.  Meet in the middle: a subset is a pair of
    subsets, one from each half of the vertices, whose sums cancel.  The
    empty pair and the full pair always do, and they are one pair when
    there are no vertices; any other is a zero-weight nonempty proper
    subset.  Each half has at most ``VERTEX_CAP`` vertices;
    only the first half's sums are kept, counted, and the second half's
    stream past them.
    """
    n = len(q.vertices)
    if n > 2 * VERTEX_CAP:
        raise CapacityError(
            f"genericity check over {n} vertices exceeds the cap of {2 * VERTEX_CAP}"
        )
    w = _weights(q, theta)
    left = Counter(_subset_folds(w[: n // 2], add))
    return sum(left.get(-s, 0) for s in _subset_folds(w[n // 2 :], add)) <= 2


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
) -> tuple[Theta, dict[str, Fraction], int]:
    """Draw ``xi`` until the induced weight is generic, at most
    ``_THETA_DRAWS`` times.

    Returns the weight, the accepted ``xi`` and the number of draws used.
    """
    for tries in range(1, _THETA_DRAWS + 1):
        xi = draw_xi(q, matching, rng)
        theta = sardo_infirri_theta(q, matching, xi)
        if is_generic(q, theta):
            return theta, xi, tries
    raise InvalidModelError(f"no generic weight found in {_THETA_DRAWS} draws")
