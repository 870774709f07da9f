"""Stability of quiver representations with one-dimensional pieces.

A weight ``theta`` on the quiver vertices (rational, summing to zero) makes
a 0/1 representation stable when every nonempty proper subrepresentation has
positive weight.  For 0/1 representations the subrepresentations are exactly
the vertex subsets closed under walking the supported arrows forward.  The
least weight of such a closed subset is a maximal-closure problem, so
stability and semistability take one integer s-t min cut per source
component of the support (Picard 1976), solved as a transport over the
vertices' reach sets, and have no cap.  Genericity, no zero-weight
nonempty proper subset at all, meets in the middle: it counts the subset
sums of each half of the vertices, at most 2 * 2^ceil(n/2) of them, and is
capped at twice ``VERTEX_CAP`` vertices.

The weights of interest are built from a perfect matching ``D`` and positive
rationals ``xi`` on the arrows off ``D``: each vertex receives the ``xi`` it
absorbs minus the ``xi`` it emits.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm
from typing import Iterable, Mapping

from .exceptions import CapacityError, InvalidModelError
from .model import rational_from_json
from .quiver import Quiver, check_support

VERTEX_CAP = 20  # each half of the genericity check sums 2^VERTEX_CAP subsets
_THETA_DRAWS = 1000  # draws before sample_generic_theta gives up


@dataclass(frozen=True)
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


def _successors(q: Quiver, support: Iterable[str]) -> list[int]:
    """Bitmask of each vertex's supported successors; bit ``i`` of a mask is
    ``q.vertices[i]``."""
    pos = q.vertex_pos
    sup = check_support(q, support)
    succ = [0] * len(q.vertices)
    for a in q.arrows:
        if a.id in sup:
            succ[pos[a.source]] |= 1 << pos[a.target]
    return succ


def _weights(q: Quiver, theta: Theta) -> list[int]:
    """``theta._scaled`` in vertex order."""
    scaled = theta._scaled
    if scaled.keys() != q.vertex_pos.keys():
        raise InvalidModelError("weight vertices do not match the quiver")
    return [scaled[v] for v in q.vertices]


def _reach(succ: list[int]) -> list[int]:
    """Each vertex's forward reach, itself included: the least closed set
    holding it.  A bitmask search per vertex, which takes in whole the
    reach of every earlier vertex it meets."""
    reach: list[int] = []
    for i in range(len(succ)):
        seen = frontier = 1 << i
        while frontier:
            step = 0
            while frontier:
                low = frontier & -frontier
                j = low.bit_length() - 1
                if j < i:
                    seen |= reach[j]
                else:
                    step |= succ[j]
                frontier ^= low
            frontier = step & ~seen
            seen |= frontier
        reach.append(seen)
    return reach


def _has_negative_closure(reach: list[int], w: list[int], inside: int) -> bool:
    """Whether some subset of the closed vertex set ``inside``, closed
    under the arrows, has negative total ``w``.

    Picard's min cut, solved as a transport on the reach sets: each
    negative vertex ships its deficit to positive vertices it reaches, each
    of which takes at most its weight, along shortest augmenting paths.  If
    every deficit ships, each closed set's positive vertices absorb the
    deficits inside it.  If one cannot, the deficit vertices its search
    visits reach only full positive vertices, and all they reach is a
    closed set of negative weight.
    """
    pos = neg = 0
    for i, x in enumerate(w):
        if inside >> i & 1 and x:
            if x > 0:
                pos |= 1 << i
            else:
                neg |= 1 << i
    room = w[:]  # what each positive vertex can still take
    into: dict[int, dict[int, int]] = {}  # v -> {x: what x ships to v}
    while neg:
        low = neg & -neg
        neg ^= low
        u = low.bit_length() - 1
        left = -w[u]
        while left:
            came = {u: -1}  # deficit vertex -> the full vertex it was met at
            via = {}  # positive vertex -> the deficit vertex reaching it
            queue = [u]
            end = -1
            for x in queue:
                m = reach[x] & pos
                while m:
                    low = m & -m
                    m ^= low
                    v = low.bit_length() - 1
                    if v in via:
                        continue
                    via[v] = x
                    if room[v]:
                        end = v
                        break
                    for y in into.get(v, ()):
                        if y not in came:
                            came[y] = v
                            queue.append(y)
                if end >= 0:
                    break
            else:
                return True
            push, v = min(left, room[end]), end
            while came[via[v]] >= 0:
                x = via[v]
                v = came[x]
                push = min(push, into[v][x])
            room[end] -= push
            left -= push
            v = end
            while True:
                x = via[v]
                shipped = into.setdefault(v, {})
                shipped[x] = shipped.get(x, 0) + push
                v = came[x]
                if v < 0:
                    break
                into[v][x] -= push
                if not into[v][x]:
                    del into[v][x]
    return False


def _closures_nonnegative(succ: list[int], w: list[int]) -> bool:
    """Whether every nonempty proper closed vertex set has ``w`` ≥ 0.

    A closed set holding a vertex of a strongly connected component holds
    all of it, and one holding every source component holds everything.
    So each nonempty proper closed set avoids some source component ``C``,
    and lies in the closed set ``V - C``: one min cut per source component,
    and none when the support is strongly connected (``V - C`` is empty).
    Each proper reach set is such a closed set, so it needs no scan of its own.
    """
    full = (1 << len(succ)) - 1
    reach = _reach(succ)
    comps: dict[int, int] = {}  # reach set -> the component it is the reach of
    for i, r in enumerate(reach):
        comps[r] = comps.get(r, 0) | 1 << i
    entered = 0  # vertices reached from outside their component
    for r, comp in comps.items():
        entered |= r & ~comp
    for comp in comps.values():
        if not comp & entered and _has_negative_closure(reach, w, full & ~comp):
            return False
    return True


def is_stable(q: Quiver, support: Iterable[str], theta: Theta) -> bool:
    """King stability: every closed nonempty proper subset has positive weight.

    With ``n`` vertices, the weight ``(n + 1) * theta - 1`` (on scaled
    integer weights) is negative on a nonempty set exactly when ``theta``
    is not positive there, so one semistability test decides.
    """
    n = len(q.vertices)
    w = [(n + 1) * x - 1 for x in _weights(q, theta)]
    return _closures_nonnegative(_successors(q, support), w)


def is_semistable(q: Quiver, support: Iterable[str], theta: Theta) -> bool:
    return _closures_nonnegative(_successors(q, support), _weights(q, theta))


def _sums(values: list[int]) -> list[int]:
    sums = [0]
    for x in values:
        sums += [s + x for s in sums]
    return sums


def _subset_sums(values: list[int]):
    """Every subset's sum, one at a time: each sum over the first half of
    ``values`` runs past the listed sums of the second half, so at most
    2^ceil(n/2) sums are held at once."""
    k = len(values) // 2
    tail = _sums(values[k:])
    for h in _sums(values[:k]):
        yield from [h + s for s in tail]


def is_generic(q: Quiver, theta: Theta) -> bool:
    """No nonempty proper vertex subset has weight zero.

    Generic weights see no strictly semistable 0/1 representation, whatever
    the arrow support is.  Meet in the middle: a subset is a pair of
    subsets, one from each half of the vertices, whose sums cancel.  The
    empty pair and the full pair always do; any other is a zero-weight
    nonempty proper subset.  Each half has at most ``VERTEX_CAP`` vertices;
    only the first half's sums are kept, counted, and the second half's
    stream past them.
    """
    n = len(q.vertices)
    if n > 2 * VERTEX_CAP:
        raise CapacityError(
            f"genericity check over {n} vertices exceeds the cap of {2 * VERTEX_CAP}"
        )
    w = _weights(q, theta)
    left = Counter(_subset_sums(w[: n // 2]))
    return sum(left.get(-s, 0) for s in _subset_sums(w[n // 2 :])) == 2


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
