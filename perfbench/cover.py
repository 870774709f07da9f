"""Rectangular a x b covers of dimer models, and the benchmark corpus.

The cover of a model under the sublattice ``aZ x bZ`` has one copy of every
vertex and edge per cell ``(i, j)`` with ``0 <= i < a``, ``0 <= j < b``.  An
edge lifted at cell ``(i, j)`` leaves the copy of its black end there and
reaches the white end in cell ``(i + ox, j + oy)``; reduced mod ``(a, b)``
that names the white copy, and the quotient is the lifted offset.  Rotations
lift edge by edge and positions are rescaled into the new unit cell, so the
cover is again a torus tiling with ``a*b`` times the area.

Work is on plain JSON dicts (``model_to_dict`` form), so generating the
corpus never touches the package's caches.  Run this file to self-test
every corpus model::

    python3 perfbench/cover.py
"""

from __future__ import annotations

import json
import os
import sys
from fractions import Fraction

# Workload corpora: (catalog model, a, b).
# certify: every rectangular cover with at most 16 arrows (edges).
CERTIFY_ARROW_CAP = 16
BASE_EDGES = {"conifold": 4, "honeycomb": 3, "fzero": 8}
CERTIFY = tuple(
    (name, a, b)
    for name, n in BASE_EDGES.items()
    for a in range(1, CERTIFY_ARROW_CAP + 1)
    for b in range(1, CERTIFY_ARROW_CAP + 1)
    if a * b * n <= CERTIFY_ARROW_CAP
)
TILING = (("honeycomb", 10, 10), ("conifold", 8, 8), ("fzero", 6, 6), ("honeycomb", 12, 6))
# spectrum: (name, a, b, sample theta); theta only on the 16-face covers:
# VERTEX_CAP = 20 refuses the 25- and 32-face ones, and the subset scans
# double with every face
SPECTRUM = (
    ("conifold", 4, 4, False),
    ("honeycomb", 5, 5, False),
    ("honeycomb", 4, 4, True),
    ("fzero", 2, 2, True),
    ("conifold", 4, 2, True),
)
BASE_AREA2 = {"conifold": 2, "honeycomb": 1, "fzero": 4}
BASE_FACES = {"conifold": 2, "honeycomb": 1, "fzero": 4}


def cover_name(name: str, a: int, b: int) -> str:
    return f"{name}-{a}x{b}"


def _to_json(q: Fraction):
    return int(q) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def cover(data: dict, a: int, b: int) -> dict:
    """The ``a x b`` cover of a model given as a ``model_to_dict`` dict."""
    if a < 1 or b < 1:
        raise ValueError("cover sides must be positive")
    cells = [(i, j) for i in range(a) for j in range(b)]

    def vid(v: str, c) -> str:
        return v if (a, b) == (1, 1) else f"{v}_{c[0]}_{c[1]}"

    vertices = []
    for c in cells:
        for v in data["vertices"]:
            item = {"id": vid(v["id"], c), "color": v["color"]}
            if "pos" in v:
                px, py = (Fraction(x) for x in v["pos"])
                item["pos"] = [_to_json((c[0] + px) / a), _to_json((c[1] + py) / b)]
            vertices.append(item)

    edges = []
    # lift of edge e incident to vertex copy (v, cell): black ends own the
    # lift at their cell, white ends look back along the offset
    lift_at: dict[tuple[str, str, tuple[int, int]], str] = {}
    for c in cells:
        for e in data["edges"]:
            ox, oy = e["offset"]
            wx, wy = c[0] + ox, c[1] + oy
            wc = (wx % a, wy % b)
            eid = vid(e["id"], c)
            edges.append(
                {
                    "id": eid,
                    "black": vid(e["black"], c),
                    "white": vid(e["white"], wc),
                    "offset": [wx // a, wy // b],
                }
            )
            lift_at[(e["id"], e["black"], c)] = eid
            lift_at[(e["id"], e["white"], wc)] = eid

    rotation = {}
    for c in cells:
        for v in data["vertices"]:
            rotation[vid(v["id"], c)] = [
                lift_at[(eid, v["id"], c)] for eid in data["rotation"][v["id"]]
            ]
    return {"vertices": vertices, "edges": edges, "rotation": rotation}


def corpus() -> dict[str, tuple[str, int, int]]:
    """Every model the workloads read, once each: name -> (catalog model, a, b)."""
    out = {cover_name(*c): c for c in CERTIFY + TILING}
    out.update((cover_name(n, a, b), (n, a, b)) for n, a, b, _ in SPECTRUM)
    return out


def corpus_texts() -> dict[str, str]:
    """Every corpus model as model JSON text, by name."""
    from dimerkit import example, model_to_dict

    return {
        key: json.dumps(cover(model_to_dict(example(name)), a, b), indent=2) + "\n"
        for key, (name, a, b) in corpus().items()
    }


def write_corpus(out_dir: str) -> dict[str, str]:
    """Write every corpus model to ``<name>.json``; returns name -> path."""
    os.makedirs(out_dir, exist_ok=True)
    paths = {}
    for key, text in corpus_texts().items():
        paths[key] = os.path.join(out_dir, key + ".json")
        with open(paths[key], "w", encoding="utf-8") as fh:
            fh.write(text)
    return paths


def self_test(out_dir: str) -> list[str]:
    """Check every corpus model; returns one line per problem found."""
    from dimerkit import (
        area2,
        char_poly,
        from_model,
        is_non_degenerate,
        load_model,
        newton_polygon,
        validate_model,
    )

    problems = []
    if corpus_texts() != corpus_texts():
        problems.append("ids or layout differ between two generations")
    paths = write_corpus(out_dir)
    for key, (name, a, b) in corpus().items():
        model = load_model(paths[key])
        if not validate_model(model).ok:
            problems.append(f"{key}: validate_model is not ok")
            continue
        if not is_non_degenerate(from_model(model), "per-edge"):
            problems.append(f"{key}: degenerate")
        if (name, a, b) in TILING:
            # far beyond enumeration: the polygon needs every matching
            continue
        got = area2(newton_polygon(char_poly(model)))
        if got != a * b * BASE_AREA2[name]:
            problems.append(f"{key}: area2 {got}, expected {a * b * BASE_AREA2[name]}")
    return problems


if __name__ == "__main__":
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path.insert(0, os.path.join(root, "src"))
    found = self_test(os.path.join(root, ".perfbench", "selftest"))
    for line in found:
        print(line)
    print(f"{len(corpus())} corpus models, {len(found)} problems")
    sys.exit(1 if found else 0)
