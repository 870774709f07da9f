"""Reference routines the tests check the package against.

Each is a plain, independent computation of something the package derives
another way: a general Smith normal form, the dense relation matrix and its
integer kernel, an integer solve per right-hand side, each relation tested
on its own, a determinant by elimination and a chart transition by
adjugate, a weight's coordinates under a splitting, path sums walked arrow
by arrow, a domain's orientation by the shoelace of its boundary walk, the
face walk's turn and the quiver's cycle maps looked up in the rotation,
each relation cut out of its cycle arrow by arrow, a JSON rational read by
``Fraction(str)`` on the spellings every Python reads alike, the
characteristic polynomial and the edge charges by a loop over the
enumerated matchings, the canonical order of the matchings by sorting their
position tuples, the strict Hall condition by one bit loop per subset
mask, spanning trees grown in passes with one path tuple per face, the
weight lattice's forest with a depth array, connectivity by a
depth-first search, King stability by one min cut per source component
of the support over dense reach sets, the fixed-point candidates by one
stability test per matching and a scan of the unit triangles, a
fundamental domain and its chart by dicts keyed by ``(edge id, sign)``
darts with one edge lookup per dart, a functional's coordinates under a
splitting by dense passes over all the arrows, and a cone's Hilbert basis
by testing every pair of its lattice points in the rays' box.
"""

import re
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from dimerkit import (
    ChartClassification,
    DegenerateModelError,
    FixedPointCandidate,
    FundamentalDomain,
    InternalConsistencyError,
    InvalidModelError,
    PathSeq,
    RelationPair,
    from_model,
    is_stable,
    cochar_lattice,
    laurent_from_counts,
    perfect_matchings,
    quiver_of,
    relations,
)
from dimerkit.heights import _check_matching, _offset_sum
from dimerkit.lattice import adjugate3
from dimerkit.matchings import enumerate_matchings
from dimerkit.model import BLACK, faces_area2, per_object, trace_faces


def _identity(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


@dataclass(frozen=True)
class SNFResult:
    """Decomposition ``U @ M @ V == S`` with ``U, V`` unimodular.

    ``S`` is diagonal with non-negative entries, each dividing the next.
    ``v_inv`` is the inverse of ``V``.
    """

    u: tuple
    s: tuple
    v: tuple
    v_inv: tuple

    @property
    def diagonal(self):
        return tuple(
            self.s[i][i] for i in range(min(len(self.s), len(self.s[0]) if self.s else 0))
        )

    @property
    def rank(self):
        return sum(1 for d in self.diagonal if d)


def smith_normal_form(matrix, ncols=None):
    """Smith normal form over the integers, with both transforms and the
    inverse of the column transform.

    Pivoting is deterministic: the entry of least absolute value wins, ties
    broken by row then column.  ``ncols`` is only needed for matrices with
    no rows.
    """
    a = [list(map(int, row)) for row in matrix]
    m = len(a)
    n = len(a[0]) if a else (ncols if ncols is not None else 0)
    if any(len(row) != n for row in a):
        raise InvalidModelError("ragged matrix")
    u = _identity(m)
    v, vinv = _identity(n), _identity(n)

    def row_swap(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def row_neg(i):
        a[i] = [-x for x in a[i]]
        u[i] = [-x for x in u[i]]

    def row_add(i, j, c):  # row i += c * row j
        a[i] = [x + c * y for x, y in zip(a[i], a[j])]
        u[i] = [x + c * y for x, y in zip(u[i], u[j])]

    def col_swap(i, j):
        for r in a:
            r[i], r[j] = r[j], r[i]
        for r in v:
            r[i], r[j] = r[j], r[i]
        vinv[i], vinv[j] = vinv[j], vinv[i]

    def col_add(i, j, c):  # col i += c * col j
        for r in a:
            r[i] += c * r[j]
        for r in v:
            r[i] += c * r[j]
        vinv[j] = [x - c * y for x, y in zip(vinv[j], vinv[i])]

    t = 0
    while t < min(m, n):
        best = None
        for i in range(t, m):
            for j in range(t, n):
                val = abs(a[i][j])
                if val and (best is None or val < best[0]):
                    best = (val, i, j)
            if best is not None and best[0] == 1:
                break  # no later entry is smaller than a unit
        if best is None:
            break
        _, pi, pj = best
        if pi != t:
            row_swap(t, pi)
        if pj != t:
            col_swap(t, pj)
        if a[t][t] < 0:
            row_neg(t)
        dirty = False
        for i in range(t + 1, m):
            if a[i][t]:
                row_add(i, t, -(a[i][t] // a[t][t]))
                if a[i][t]:
                    dirty = True
        for j in range(t + 1, n):
            if a[t][j]:
                col_add(j, t, -(a[t][j] // a[t][t]))
                if a[t][j]:
                    dirty = True
        if dirty:
            continue
        if a[t][t] > 1:  # a unit divides every entry
            fix = next(
                (i for i in range(t + 1, m)
                 if any(a[i][j] % a[t][t] for j in range(t + 1, n))),
                None,
            )
            if fix is not None:
                row_add(t, fix, 1)  # drag the offending row up and keep reducing
                continue
        t += 1

    freeze = lambda rows: tuple(tuple(r) for r in rows)
    return SNFResult(freeze(u), freeze(a), freeze(v), freeze(vinv))


@per_object
def constraint_matrix(q):
    """One row per arrow: both sides of its relation must weigh the same."""
    pos = q.arrow_pos
    rows = []
    for rel in relations(q):
        row = [0] * len(q.arrows)
        for aid in rel.plus.arrows:
            row[pos[aid]] += 1
        for aid in rel.minus.arrows:
            row[pos[aid]] -= 1
        rows.append(tuple(row))
    return tuple(rows)


def kernel(res):
    """Columns ``rank..`` of a Smith form's ``V``: a basis of the integer
    kernel of its matrix."""
    n = len(res.v)
    return tuple(
        tuple(res.v[i][j] for i in range(n)) for j in range(res.rank, n)
    )


def solve_integer(matrix, rhs):
    """One integer solution of ``M x = rhs``, or None if there is none."""
    res = smith_normal_form(matrix)
    m = len(res.u)
    n = len(res.v)
    if len(rhs) != m:
        raise InvalidModelError("right-hand side has the wrong length")
    c = [sum(res.u[i][k] * rhs[k] for k in range(m)) for i in range(m)]
    y = [0] * n
    for i in range(m):
        d = res.s[i][i] if i < min(m, n) else 0
        if d:
            if c[i] % d:
                return None
            y[i] = c[i] // d
        elif c[i]:
            return None
    return tuple(sum(res.v[i][k] * y[k] for k in range(n)) for i in range(n))


def rep_satisfies_relations(q, support):
    """Whether the 0/1 representation supported on ``support`` kills no
    relation on one side only: each relation's two paths must vanish or
    survive together."""
    sup = frozenset(support)
    for rel in relations(q):
        plus_zero = any(a not in sup for a in rel.plus.arrows)
        minus_zero = any(a not in sup for a in rel.minus.arrows)
        if plus_zero != minus_zero:
            return False
    return True


def relations_arrow_by_arrow(q):
    """The relation pairs, each side cut out of the arrow's walked cycle on
    its own: the rest of the cycle after the arrow, reversed into
    composition order."""
    ids = q.arrow_ids
    sides = [[] for _ in ids]  # white side, then black
    for cycles, _ in q.cycles:
        for cycle in cycles:
            for k, i in enumerate(cycle):
                rest = cycle[k + 1:] + cycle[:k]  # in walking order
                a = q.arrows[i]
                path = tuple(ids[j] for j in reversed(rest))
                sides[i].append(PathSeq(path, a.target, a.source))
    return tuple(RelationPair(aid, *pm) for aid, pm in zip(ids, sides))


def rational_by_fraction_str(x, what):
    """A JSON rational: an int, or a string ``Fraction`` reads with no
    exponent, no digit-group underscore and no space next to the ``/``:
    Python 3.10's grammar, which later versions widen by those two."""
    if type(x) is int:
        return Fraction(x)
    if isinstance(x, str):
        if any(c in x for c in "eE_") or re.search(r"\s/|/\s", x):
            raise InvalidModelError(f"{what}: bad rational {x!r}")
        try:
            return Fraction(x)
        except (ValueError, ZeroDivisionError):
            raise InvalidModelError(f"{what}: bad rational {x!r}") from None
    raise InvalidModelError(f"{what}: expected int or 'p/q' string, got {x!r}")


def det_int(matrix):
    """Determinant of a square integer matrix (fraction-free elimination)."""
    n = len(matrix)
    if any(len(r) != n for r in matrix):
        raise InvalidModelError("matrix is not square")
    if n == 0:
        return 1
    a = [list(map(int, r)) for r in matrix]
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k]:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def chart_transition(rows_i, rows_j):
    """Coordinate change between two charts: ``M_i @ M_j^{-1}``, integral."""
    dj = det_int(rows_j)
    if dj not in (1, -1):
        raise InternalConsistencyError("chart rows are not unimodular")
    adj = adjugate3(rows_j)
    return tuple(
        tuple(
            sum(rows_i[r][k] * adj[k][c] for k in range(3)) // dj
            for c in range(3)
        )
        for r in range(3)
    )


def split_coords(split, weights):
    """``(pi_x, pi_y, level)`` of arrow weights under a splitting."""
    return tuple(
        sum(f * weights[aid] for f, aid in zip(functional, split.arrow_order))
        for functional in (split.pi_x, split.pi_y, split.level)
    )


def path_weight(path, weights):
    """Sum of the weights of the path's arrows, with multiplicity."""
    return sum(weights[aid] for aid in path.arrows)


def path_class(q, path):
    """Total cover shift along the path; for cycles, the homology class."""
    x = y = 0
    for aid in path.arrows:
        s = q.shift(aid)
        x, y = x + s[0], y + s[1]
    return (x, y)


def walk_shoelace(model, boundary):
    """Twice the signed area the ``(dart, tail cell)`` boundary walk of a
    fundamental domain encloses at the vertex positions."""
    pts = []
    for (eid, sign), (cx, cy) in boundary:
        e = model.edge(eid)
        x, y = model.vertex(e.black if sign > 0 else e.white).pos
        pts.append((x + cx, y + cy))
    return sum(
        (x0 * y1 - x1 * y0 for (x0, y0), (x1, y1) in zip(pts, pts[1:] + pts[:1])),
        Fraction(0),
    )


def next_dart_by_rotation(model, dart):
    """The dart after ``dart`` in its face: it leaves the head along the
    clockwise-next edge there, signed by the head's colour."""
    e = model.edge(dart[0])
    head = e.white if dart[1] > 0 else e.black
    rot = model.rotation_at(head)
    nxt = rot[rot.index(dart[0]) - 1]
    return (nxt, +1 if model.vertex(head).color == BLACK else -1)


def cycle_maps_by_rotation(model):
    """The quiver's white and black next-maps: each edge's clockwise-next
    edge at its white end and counterclockwise-next edge at its black end."""
    wn, bn = [], []
    for e in model.edges:
        rot_w, rot_b = model.rotation_at(e.white), model.rotation_at(e.black)
        i, j = rot_w.index(e.id), rot_b.index(e.id)
        wn.append((e.id, rot_w[i - 1]))
        bn.append((e.id, rot_b[(j + 1) % len(rot_b)]))
    return tuple(wn), tuple(bn)


@per_object
def matching_positions(g):
    """Every enumerated matching as its sorted tuple of edge positions in
    ``g.edges``, the tuples sorted: the canonical order, as the search
    once kept it."""
    pos = {eid: p for p, (eid, _, _) in enumerate(g.edges)}
    return tuple(sorted(
        tuple(sorted(map(pos.__getitem__, m))) for m in enumerate_matchings(g)
    ))


def matchings_by_positions(g):
    """The edge-id sets of :func:`matching_positions`, in its order."""
    ids = [eid for eid, _, _ in g.edges]
    return tuple(frozenset(ids[p] for p in m) for m in matching_positions(g))


def char_poly_by_matchings(model, base=None):
    """``char_poly`` as one height per enumerated matching."""
    found = matching_positions(from_model(model))
    if not found:
        raise DegenerateModelError("no perfect matchings")
    b = found[0] if base is None else _check_matching(model, base, "base")
    sb = _offset_sum(model.edges[p] for p in b)
    counts = {}
    for m in found:
        sm = _offset_sum(model.edges[p] for p in m)
        h = (sb[0] - sm[0], sb[1] - sm[1])
        counts[h] = counts.get(h, 0) + 1
    return laurent_from_counts(counts)


def weight_counts_by_matchings(g, weights):
    """The number of enumerated matchings at each sum of edge weights."""
    counts = {}
    for m in matching_positions(g):
        w = sum(weights[p] for p in m)
        counts[w] = counts.get(w, 0) + 1
    return counts


def r_charges_by_matchings(g):
    """``r_charge_average`` as one pass over the enumerated matchings."""
    found = matching_positions(g)
    if not found:
        raise DegenerateModelError("no perfect matchings")
    through = [0] * len(g.edges)
    for m in found:
        for p in m:
            through[p] += 1
    return {
        eid: Fraction(2 * k, len(found)) for (eid, _, _), k in zip(g.edges, through)
    }


def strong_marriage_by_masks(g):
    """The strict Hall condition on both sides, one mask at a time: each
    nonempty proper subset of a side ORs its neighbour masks bit by bit
    and must reach more vertices than it has."""
    n = len(g.blacks)
    if n != len(g.whites):
        return False
    bpos = {b: i for i, b in enumerate(g.blacks)}
    wpos = {w: i for i, w in enumerate(g.whites)}
    black_nbrs, white_nbrs = [0] * n, [0] * n
    for _, b, w in g.edges:
        black_nbrs[bpos[b]] |= 1 << wpos[w]
        white_nbrs[wpos[w]] |= 1 << bpos[b]
    for nbrs in (black_nbrs, white_nbrs):
        for mask in range(1, (1 << n) - 1):
            nb, m = 0, mask
            while m:
                nb |= nbrs[(m & -m).bit_length() - 1]
                m &= m - 1
            if nb.bit_count() <= mask.bit_count():
                return False
    return True


def tree_paths(q, arrows):
    """Signed tree paths over ``arrows``, from the first quiver vertex.

    Grows a spanning tree in passes over ``arrows`` in the order given,
    taking every arrow that leads from a reached vertex to a new one, until
    a pass takes none.  Each vertex gets the arrow-indexed count vector of
    its tree path from the root, an arrow counting ``-1`` where the path
    runs against it.  ``None`` when the arrows do not span the quiver.
    """
    pos = q.arrow_pos
    paths = {q.vertices[0]: (0,) * len(q.arrows)}
    grew = True
    while grew:
        grew = False
        for aid in arrows:
            s, t = q.source(aid), q.target(aid)
            if (s in paths) == (t in paths):
                continue
            parent, child, sign = (s, t, +1) if s in paths else (t, s, -1)
            k, p = pos[aid], paths[parent]
            paths[child] = p[:k] + (p[k] + sign,) + p[k + 1:]
            grew = True
    return paths if len(paths) == len(q.vertices) else None


def tree_cycle(q, paths, aid):
    """The cycle ``aid`` closes through the tree: the arrow, then back from
    its target to its source along the tree paths; zero on tree arrows."""
    k = q.arrow_pos[aid]
    ps, pt = paths[q.source(aid)], paths[q.target(aid)]
    return tuple(int(i == k) + a - b for i, (a, b) in enumerate(zip(ps, pt)))


def vector_shift(q, counts):
    """Total cover shift of an arrow-indexed count vector (a tree path or
    cycle); for a cycle, its homology class."""
    x = y = 0
    for aid, c in zip(q.arrow_ids, counts):
        if c:
            dx, dy = q.shift(aid)
            x, y = x + c * dx, y + c * dy
    return (x, y)


def forest_basis_by_depth(q):
    """``lattice._forest_basis`` as a breadth-first search per root with a
    depth array, and each chord's cycle by stepping the deeper end up."""
    (whites, white), (blacks, black) = q.cycles
    nw = len(whites)
    n = nw + len(blacks)
    black = tuple(nw + k for k in black)
    nar = len(q.arrows)
    incident = [[] for _ in range(n)]
    for i, (w, b) in enumerate(zip(white, black)):
        incident[w].append(i)
        incident[b].append(i)
    up, parent, depth = [-1] * n, [-1] * n, [-1] * n
    levels = []
    for root in range(n):
        if depth[root] >= 0:
            continue
        depth[root] = 0
        order = [root]
        for v in order:
            for i in incident[v]:
                u = white[i] + black[i] - v
                if depth[u] < 0:
                    depth[u], up[u], parent[u] = depth[v] + 1, i, v
                    order.append(u)
        rest = dict.fromkeys(order, 1)
        vec = [0] * nar
        for v in reversed(order[1:]):
            vec[up[v]] = rest[v]
            rest[parent[v]] -= rest[v]
        if rest[root] == 0:
            levels.append(vec)
    chords = [i for i in range(nar) if up[white[i]] != i and up[black[i]] != i]
    cycles = []
    for i in chords:
        vec = [0] * nar
        vec[i] = 1
        a, b = black[i], white[i]
        while a != b:
            if depth[a] >= depth[b]:
                vec[up[a]] += 1 if a < nw else -1
                a = parent[a]
            else:
                vec[up[b]] += 1 if b >= nw else -1
                b = parent[b]
        cycles.append(vec)
    return levels + cycles, chords


def connected_by_dfs(model):
    """Whether the model's graph is nonempty and one piece, by a DFS over
    vertex ids."""
    if not model.vertices:
        return False
    adj = {v.id: [] for v in model.vertices}
    for e in model.edges:
        adj[e.black].append(e.white)
        adj[e.white].append(e.black)
    seen = {model.vertices[0].id}
    stack = [model.vertices[0].id]
    while stack:
        for other in adj[stack.pop()]:
            if other not in seen:
                seen.add(other)
                stack.append(other)
    return len(seen) == len(adj)


def _reach(succ):
    """Each vertex's forward reach along the bitmask arcs ``succ``, itself
    included: the least closed set holding it.  A bitmask search per
    vertex, which takes in whole the reach of every earlier vertex it
    meets."""
    reach = []
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


def _has_negative_closure(reach, w, inside):
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
    into = {}  # v -> {x: what x ships to v}
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


def _closures_nonnegative(succ, w):
    """Whether every nonempty proper closed vertex set has ``w`` ≥ 0.

    A closed set holding a vertex of a strongly connected component holds
    all of it, and one holding every source component holds everything.
    So each nonempty proper closed set avoids some source component ``C``,
    and lies in the closed set ``V - C``: one min cut per source component.
    """
    full = (1 << len(succ)) - 1
    reach = _reach(succ)
    comps = {}  # reach set -> the component it is the reach of
    for i, r in enumerate(reach):
        comps[r] = comps.get(r, 0) | 1 << i
    entered = 0  # vertices reached from outside their component
    for r, comp in comps.items():
        entered |= r & ~comp
    return not any(
        not comp & entered and _has_negative_closure(reach, w, full & ~comp)
        for comp in comps.values()
    )


def king_by_reach_sets(q, support, theta, strict=True):
    """King stability of a 0/1 representation, or semistability when not
    ``strict``, by one min cut per source component of the support over
    dense reach sets.  Stability is semistability of ``(n + 1) * theta - 1``
    on the scaled integer weights, which is negative on a nonempty set
    exactly when ``theta`` is not positive there."""
    pos = q.vertex_pos
    succ = [0] * len(q.vertices)
    for a in q.arrows:
        if a.id in support:
            succ[pos[a.source]] |= 1 << pos[a.target]
    w = [theta._scaled[v] for v in q.vertices]
    if strict:
        w = [(len(w) + 1) * x - 1 for x in w]
    return _closures_nonnegative(succ, w)


def fixed_candidates_by_enumeration(model, theta):
    """``charts.enumerate_fixed_candidates`` by testing every matching.

    One :func:`is_stable` per perfect matching's complement keeps the
    θ-stable matchings; every triple of them whose heights span a unit
    triangle proposes the complement of its union, kept when stable, with
    each face's cell the cover shift of its tree path from the first face.
    """
    q = quiver_of(model)
    pms = perfect_matchings(model)
    arrows = frozenset(q.arrow_ids)
    stable = [
        (d, _offset_sum(map(model.edge, d)))
        for d in pms
        if is_stable(q, arrows - d, theta)
    ]
    found = []
    for (d1, h1), (d2, h2), (d3, h3) in combinations(stable, 3):
        (x1, y1), (x2, y2), (x3, y3) = h1, h2, h3
        if abs((x2 - x1) * (y3 - y1) - (x3 - x1) * (y2 - y1)) != 1:
            continue
        support = arrows - d1 - d2 - d3
        if is_stable(q, support, theta):
            paths = tree_paths(q, [a for a in q.arrow_ids if a in support])
            cells = tuple((v, vector_shift(q, paths[v])) for v in q.vertices)
            found.append(FixedPointCandidate(support, cells))
    pos = q.arrow_pos
    found.sort(key=lambda c: tuple(sorted(pos[aid] for aid in c.support)))
    return tuple(found)


def head_cell(model, dart, tail):
    """The cell of an ``(edge id, sign)`` dart's head, from its tail's cell
    and its edge's offset."""
    off = model.edge(dart[0]).offset
    if dart[1] > 0:
        return (tail[0] + off[0], tail[1] + off[1])
    return (tail[0] - off[0], tail[1] - off[1])


def fundamental_domain_by_dicts(model, candidate):
    """``charts.fundamental_domain`` on dicts keyed by ``(edge id, sign)``
    darts: each dart's tail cell from a walk along its face's darts with the
    edge offsets, its edge lift from one edge lookup, its successor from the
    rotation, the interior lifts as a set, and the spin test a set
    membership."""
    if faces_area2(model) != 2:
        raise InvalidModelError(
            "edge offsets do not wrap the faces once counterclockwise around "
            "the torus: the model fails homology-span"
        )
    tr = trace_faces(model)
    cells = dict(candidate.cells)
    if set(cells) != {f.id for f in tr.faces}:
        raise InvalidModelError("candidate cells do not match the faces")

    def lift(d, tail):  # (edge, black end)
        return (d[0], tail if d[1] > 0 else head_cell(model, d, tail))

    edge_lift, tail_cell = {}, {}
    for f in tr.faces:
        tail = cells[f.id]
        for d in f.darts:
            tail_cell[d] = tail
            edge_lift[d] = lift(d, tail)
            tail = head_cell(model, d, tail)
    interior = set()
    for e in model.edges:
        plus, minus = edge_lift[(e.id, +1)], edge_lift[(e.id, -1)]
        if plus == minus:
            interior.add(plus)
        elif e.id in candidate.support:
            raise InternalConsistencyError(
                f"support edge {e.id!r} fails to glue its face lifts"
            )

    edge_pos = quiver_of(model).arrow_pos
    boundary_darts = [d for d in edge_lift if edge_lift[d] not in interior]
    if not boundary_darts:
        raise InternalConsistencyError("domain has no boundary")
    start = min(
        boundary_darts,
        key=lambda d: (edge_pos[d[0]], 0 if d[1] > 0 else 1, tail_cell[d]),
    )
    walk = []
    d, tc = start, tail_cell[start]
    while True:
        walk.append((d, tc))
        d, tc = next_dart_by_rotation(model, d), head_cell(model, d, tc)
        for _ in range(len(tail_cell)):  # spin clockwise past glued edges
            if lift(d, tc) not in interior:
                break
            d = next_dart_by_rotation(model, (d[0], -d[1]))
        else:
            raise InternalConsistencyError("walk trapped at an interior vertex")
        if tail_cell.get(d) != tc:
            raise InternalConsistencyError("boundary walk left the domain")
        if (d, tc) == (start, tail_cell[start]):
            break
        if len(walk) > len(boundary_darts):
            raise InternalConsistencyError("boundary walk does not close")
    if len(walk) != len(boundary_darts):
        raise InternalConsistencyError("boundary is not a single circuit")
    return FundamentalDomain(
        tuple((f.id, cells[f.id]) for f in tr.faces),
        tuple(sorted(interior, key=lambda x: (edge_pos[x[0]], x[1]))),
        tuple(walk),
    )


def classify_chart_by_dicts(model, candidate):
    """``charts.classify_chart`` on :func:`fundamental_domain_by_dicts`:
    zero degrees counted by vertex id, the boundary edges a set of ids, and
    each rim vertex looked up by edge."""
    dom = fundamental_domain_by_dicts(model, candidate)
    support = candidate.support
    zeros = [e for e in model.edges if e.id not in support]
    zero_deg = Counter(v for e in zeros for v in (e.black, e.white))
    boundary_ids = dom.boundary_edge_ids
    for e in zeros:
        crowded = zero_deg[e.black] >= 2 or zero_deg[e.white] >= 2
        if crowded != (e.id in boundary_ids):
            raise InternalConsistencyError(
                f"zero edge {e.id!r} disagrees with the boundary translates"
            )
    visits = []
    for d, tc in dom.boundary:
        e = model.edge(d[0])
        vid = e.black if d[1] > 0 else e.white
        visits.append((vid, tc, zero_deg[vid]))
    corner_idx = [i for i, (_, _, n) in enumerate(visits) if n >= 3]
    census = dict(Counter(visits[i][2] for i in corner_idx))
    if census != {3: 6}:
        raise InternalConsistencyError(f"impossible boundary census {census}")
    edge_pos = quiver_of(model).arrow_pos
    start_i = min(
        corner_idx,
        key=lambda i: (
            edge_pos[dom.boundary[i][0][0]],
            0 if dom.boundary[i][0][1] > 0 else 1,
            dom.boundary[i][1],
        ),
    )
    start_dart, start_cell = dom.boundary[start_i]
    v1 = visits[start_i][0]
    rot = model.rotation_at(v1)
    j = rot.index(start_dart[0])
    coord_edges = [
        eid
        for eid in (rot[(j + k) % len(rot)] for k in range(len(rot)))
        if eid not in support
    ]
    return ChartClassification(((3, 6),), (v1, start_cell), tuple(coord_edges))


def express_functional_dense(q, split, functional):
    """``lattice.express_functional`` by dense passes over every arrow: the
    arrow-set check on two sets, the gauge test and the free-basis products
    over all entries, then one product with the splitting's inverse."""
    if split.arrow_order != q.arrow_ids:
        raise InvalidModelError("splitting belongs to another quiver")
    if set(functional) != set(q.arrow_ids):
        raise InvalidModelError("weights must cover exactly the arrows")
    fvec = tuple(functional[aid] for aid in q.arrow_ids)
    net = dict.fromkeys(q.vertices, 0)
    for a, x in zip(q.arrows, fvec):
        net[a.target] += x
        net[a.source] -= x
    if any(net.values()):
        raise InvalidModelError("functional does not kill the gauge subgroup")
    lat = cochar_lattice(q)
    if lat.rank != 3:
        raise DegenerateModelError("cocharacter lattice is not free of rank 3")
    rhs = [sum(f * n for f, n in zip(fvec, fb)) for fb in lat.free_basis]
    inv = split.inverse
    u = [sum(rhs[k] * inv[k][c] for k in range(3)) for c in range(3)]
    return (u[0], u[1], u[2])


def hilbert_basis_by_definition(cone):
    """``lattice.hilbert_basis`` by its definition, as a set: the cone's
    nonzero lattice points ``p`` in the box its rays bound such that no
    other of them, ``q``, leaves ``p - q`` in the cone minus 0.  The facet
    normals are every cross product of two rays that pairs non-negatively
    with all of them, found without the rays' cyclic order."""
    rays = cone.rays
    dot = lambda a, b: a[0] * b[0] + a[1] * b[1] + a[2] * b[2]
    normals = []
    for r, s in combinations(rays, 2):
        n = (r[1] * s[2] - r[2] * s[1], r[2] * s[0] - r[0] * s[2], r[0] * s[1] - r[1] * s[0])
        for m in (n, tuple(-x for x in n)):
            if any(m) and all(dot(m, t) >= 0 for t in rays):
                normals.append(m)
    inside = lambda p: any(p) and all(dot(p, n) >= 0 for n in normals)
    box = [
        range(sum(min(0, r[k]) for r in rays), sum(max(0, r[k]) for r in rays) + 1)
        for k in range(3)
    ]
    points = [(x, y, z) for x in box[0] for y in box[1] for z in box[2] if inside((x, y, z))]
    return {
        p for p in points
        if not any(inside((p[0] - q[0], p[1] - q[1], p[2] - q[2])) for q in points)
    }


def ghilb_supports(q, root):
    """The supports of G-Hilb's torus-fixed points, from the staircases of
    ``C[x, y, z]`` (Nakamura), as a sorted list with one per staircase.

    ``q`` is the quiver of a cover of ``honeycomb`` (``conftest.hnf_cover``),
    the McKay quiver of an abelian G in SL(3, C).  An arrow's type is the
    base edge its id starts with: ``e1``, ``e2`` or ``e3`` multiplies by
    ``x``, ``y`` or ``z``.  The monomial 1 lies on ``root``, and ``x_k * m``
    on the target of the type-k arrow out of ``m``'s face.  A staircase is
    a set of ``n`` monomials, ``n`` the number of faces, closed under
    division and on distinct faces; its support is, for each ``m`` with
    ``m`` and ``x_k * m`` in it, the type-k arrow out of ``m``'s face.
    Staircases are grown by adding monomials in increasing ``(degree,
    exponents)`` order, which lists each one once.
    """
    n = len(q.vertices)
    out = {}  # (face, type) -> arrow
    for a in q.arrows:
        out[a.source, ("e1", "e2", "e3").index(a.id.split("_")[0])] = a
    assert len(out) == len(q.arrows) == 3 * n
    steps = ((1, 0, 0), (0, 1, 0), (0, 0, 1))

    def times(m, k):
        return tuple(c + s for c, s in zip(m, steps[k]))

    def rank(m):
        return (sum(m), m)

    found = []

    def grow(face, last):
        if len(face) == n:
            found.append(frozenset(
                out[face[m], k].id for m in face for k in range(3) if times(m, k) in face
            ))
            return
        corners = {times(m, k) for m in face for k in range(3)} - face.keys()
        for c in sorted(corners, key=rank):
            if rank(c) < rank(last):
                continue
            below = [(tuple(x - s for x, s in zip(c, steps[k])), k) for k in range(3) if c[k]]
            if not all(m in face for m, _ in below):
                continue
            targets = {out[face[m], k].target for m, k in below}
            assert len(targets) == 1  # the characters commute
            f = targets.pop()
            if f not in face.values():
                grow({**face, c: f}, c)

    grow({(0, 0, 0): root}, (0, 0, 0))
    return sorted(found, key=sorted)
