"""Shared test helpers: corpus generators and the acceptance summary."""

import functools
import os
import random

from dimerkit import (
    BipartiteGraph,
    DimerEdge,
    DimerModel,
    DimerVertex,
    example,
    from_model,
    is_non_degenerate,
    load_model,
    validate_model,
)

# every a x b cover of the catalog's non-degenerate models with at most 16
# arrows: the certify benchmark's corpus
CERTIFY_COVERS = tuple(
    (name, a, b)
    for name, n in {"conifold": 4, "honeycomb": 3, "fzero": 8}.items()
    for a in range(1, 17)
    for b in range(1, 17)
    if a * b * n <= 16
)

# the spectrum benchmark's covers, up to 26 752 matchings
SPECTRUM_COVERS = (
    ("conifold", 4, 4), ("honeycomb", 5, 5), ("honeycomb", 4, 4),
    ("fzero", 2, 2), ("conifold", 4, 2),
)

# the tiling benchmark's covers, 216 to 300 edges
TILING_COVERS = (
    ("honeycomb", 10, 10), ("honeycomb", 12, 6), ("conifold", 8, 8), ("fzero", 6, 6),
)

# the covers the edge-deletion corpus draws from, 40 seeds each
DELETION_COVERS = (
    ("conifold", 2, 2), ("conifold", 3, 2), ("honeycomb", 3, 2),
    ("honeycomb", 2, 2), ("fzero", 2, 1),
)

# one line per acceptance criterion, filled in by tests/test_acceptance.py
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def outcome(fn, *args):
    """What a call returns, or the type and message of what it raises: a
    route and its oracle must agree on both."""
    try:
        return fn(*args)
    except Exception as exc:
        return type(exc), str(exc)


def random_connected(seed: int) -> BipartiteGraph:
    """Deterministic connected bipartite multigraph, at most 12+12 vertices.

    A spanning tree is grown by attaching fresh vertices to already-attached
    ones of the other color, then up to six extra edges are thrown in.
    Multi-edges and unbalanced sides both occur, so the corpus exercises the
    degenerate paths as well as the non-degenerate ones.
    """
    rng = random.Random(seed)
    nb = rng.randint(1, 12)
    nw = nb if rng.random() < 0.5 else rng.randint(1, 12)
    blacks = [f"b{i}" for i in range(1, nb + 1)]
    whites = [f"w{i}" for i in range(1, nw + 1)]
    edges: list[tuple[str, str]] = []
    inb, inw = [blacks[0]], []
    outb, outw = blacks[1:], whites[:]
    rng.shuffle(outb)
    rng.shuffle(outw)
    while outb or outw:
        if outw and (not outb or not inw or rng.random() < 0.5):
            w = outw.pop()
            edges.append((rng.choice(inb), w))
            inw.append(w)
        else:
            b = outb.pop()
            edges.append((b, rng.choice(inw)))
            inb.append(b)
    for _ in range(rng.randint(0, 6)):
        edges.append((rng.choice(blacks), rng.choice(whites)))
    named = tuple((f"e{i}", b, w) for i, (b, w) in enumerate(edges, start=1))
    return BipartiteGraph(tuple(blacks), tuple(whites), named)


def hnf_cover(model: DimerModel, p: int, r: int, s: int) -> DimerModel:
    """The cover of a model under the sublattice spanned by ``(p, 0)`` and
    ``(r, s)``, ``0 <= r < p`` (its Hermite normal form; index ``p * s``).

    Every vertex and edge gets one copy per cell ``(i, j)``, ``0 <= i < p``,
    ``0 <= j < s``.  An edge lifted at a cell leaves the black copy there and
    reaches the white copy in the cell its offset points to, reduced by the
    sublattice; the quotient, in the basis ``(p, 0), (r, s)``, is the lifted
    offset.  That basis keeps the orientation, so rotations lift edge by
    edge, and positions are written in it.
    """
    cells = [(i, j) for i in range(p) for j in range(s)]

    def vid(v: str, c) -> str:
        return f"{v}_{c[0]}_{c[1]}"

    def reduce(x: int, y: int):
        qy, j = divmod(y, s)
        qx, i = divmod(x - qy * r, p)
        return (i, j), (qx, qy)

    def place(c, pos):
        x, y = c[0] + pos[0], c[1] + pos[1]
        return ((x - r * y / s) / p, y / s)

    vertices = tuple(
        DimerVertex(vid(v.id, c), v.color, None if v.pos is None else place(c, v.pos))
        for c in cells
        for v in model.vertices
    )
    edges = []
    lift = {}  # (edge, end vertex, cell of that end) -> lifted edge id
    for c in cells:
        for e in model.edges:
            wc, offset = reduce(c[0] + e.offset[0], c[1] + e.offset[1])
            eid = vid(e.id, c)
            edges.append(DimerEdge(eid, vid(e.black, c), vid(e.white, wc), offset))
            lift[e.id, e.black, c] = lift[e.id, e.white, wc] = eid
    rotation = tuple(
        (vid(v, c), tuple(lift[eid, v, c] for eid in rot))
        for c in cells
        for v, rot in model.rotation
    )
    return DimerModel(vertices, tuple(edges), rotation)


def cover(model: DimerModel, a: int, b: int) -> DimerModel:
    """The cover of a model under the sublattice ``aZ x bZ``."""
    return hnf_cover(model, a, 0, b)


def sweep_corpus() -> dict[str, DimerModel]:
    """By name: the catalog models, ``tests/data/*`` and the certify and
    spectrum covers, for pinning the matching sweeps to their oracles."""
    data = os.path.join(os.path.dirname(__file__), "data")
    names = ("conifold", "honeycomb", "fzero", "degenerate")
    models = {name: example(name) for name in names}
    models.update((f, load_model(os.path.join(data, f))) for f in sorted(os.listdir(data)))
    models.update(
        (f"{n}-{a}x{b}", cover(example(n), a, b))
        for n, a, b in CERTIFY_COVERS + SPECTRUM_COVERS
    )
    return models


def delete_edges(model: DimerModel, k: int, rng: random.Random) -> DimerModel | None:
    """The model with ``k`` edges drawn by ``rng`` deleted, or None unless
    the result is a dimer model in the paper's sense.

    The edges leave ``edges`` and the rotations at both their ends; deleting
    an edge merges the two faces on its sides.  The result is kept only if
    it passes :func:`validate_model` and every edge lies in a perfect
    matching (per-edge non-degeneracy).
    """
    gone = {e.id for e in rng.sample(model.edges, k)}
    cut = DimerModel(
        model.vertices,
        tuple(e for e in model.edges if e.id not in gone),
        tuple(
            (v, tuple(eid for eid in rot if eid not in gone))
            for v, rot in model.rotation
        ),
    )
    if not validate_model(cut).ok or not is_non_degenerate(from_model(cut), "per-edge"):
        return None
    return cut


@functools.cache
def deletion_corpus() -> dict[str, DimerModel]:
    """By name: the distinct models :func:`delete_edges` keeps from 40
    seeded draws of 1-4 edges on each of ``DELETION_COVERS``; tilings that
    are not covers, many with more faces than twice the polygon's area."""
    models, seen = {}, set()
    for name, a, b in DELETION_COVERS:
        base = cover(example(name), a, b)
        for seed in range(40):
            cut = delete_edges(base, 1 + seed % 4, random.Random(seed))
            if cut is not None and cut.edges not in seen:
                seen.add(cut.edges)
                models[f"{name}-{a}x{b}-del{seed}"] = cut
    return models
