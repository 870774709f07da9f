"""Reference routines the tests check the package against.

Each is a plain, independent computation of something the package derives
another way: the dense relation matrix and its integer kernel, an integer
solve per right-hand side, each relation tested on its own, a chart
transition by adjugate, path sums walked arrow by arrow, a domain's
orientation by the shoelace of its boundary walk, and the characteristic
polynomial and the edge charges by a loop over the enumerated matchings,
and the canonical order of the matchings by sorting their position tuples.
"""

from fractions import Fraction

from dimerkit import (
    DegenerateModelError,
    InternalConsistencyError,
    InvalidModelError,
    det_int,
    from_model,
    laurent_from_counts,
    relations,
    smith_normal_form,
)
from dimerkit.heights import _check_matching, _offset_sum
from dimerkit.lattice import adjugate3
from dimerkit.matchings import enumerate_matchings
from dimerkit.model import per_object


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
