"""The op of each workload, timed, and the checks on its output.

Each op function runs one model through its workload's calls, timing them
from call to return, then checks the output with code of its own, after
the clock has stopped.  It returns a record: model, seconds (at the
reference speed of ``pace.py``, and raw), whether the op passed, why not
and which layer to blame, and a digest of its output that the runner
compares across passes and against the recorded digests.

An op fails on an exception, a nonzero exit, or a failed check.
"""

import hashlib
import io
import json
import random
import time
from contextlib import redirect_stderr, redirect_stdout
from math import lcm

import dimerkit as dk
import dimerkit.cli as cli

from cover import BASE_AREA2, BASE_EDGES, BASE_FACES, SPECTRUM, corpus, cover_name
from pace import Pacer

CORPUS = corpus()
PACER = Pacer()
WITH_THETA = {cover_name(n, a, b) for n, a, b, theta in SPECTRUM if theta}


def area2(vertices) -> int:
    """Twice the area of a polygon given by its vertices in order."""
    n = len(vertices)
    return sum(
        vertices[i][0] * vertices[(i + 1) % n][1] - vertices[(i + 1) % n][0] * vertices[i][1]
        for i in range(n)
    ) if n >= 3 else 0


def is_generic(values) -> bool:
    """No nonempty proper subset of the rationals sums to zero.

    Scales to integers and meets in the middle: the sums of the two halves'
    subsets must not cancel except for the empty and the full set.
    """
    d = 1
    for v in values:
        d = lcm(d, v.denominator)
    ints = [int(v * d) for v in values]
    half = len(ints) // 2

    def sums(xs):
        out: dict[int, list[int]] = {}
        for mask in range(1 << len(xs)):
            s = sum(x for i, x in enumerate(xs) if mask >> i & 1)
            out.setdefault(s, []).append(mask)
        return out

    left, right = sums(ints[:half]), sums(ints[half:])
    full = ((1 << half) - 1, (1 << (len(ints) - half)) - 1)
    for s, lmasks in left.items():
        for rm in right.get(-s, ()):
            for lm in lmasks:
                if (lm, rm) not in ((0, 0), full):
                    return False
    return True


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(repr(p).encode())
        h.update(b"\0")
    return h.hexdigest()


def _record(name, times, fail, layer, digest):
    return {"model": name, "s": times[0], "raw_s": times[1], "ok": fail is None,
            "reason": fail, "layer": None if fail is None else layer, "digest": digest}


def _timed(i, tracer, span_name, fn):
    """Run ``fn`` as op ``i``; returns ((seconds at the reference speed, raw
    seconds), result, exception or None).  A traced op is not paced, so its
    spans hold no probe time, and both its times are raw."""
    if tracer:
        tracer.begin_op(i, span_name)
        t = time.perf_counter()
    else:
        PACER.start()
    try:
        result, exc = fn(), None
    except (Exception, SystemExit) as e:  # argparse exits on bad usage
        result, exc = None, e
    if tracer:
        raw = time.perf_counter() - t
        tracer.end_op()
        times = (raw, raw)
    else:
        times = PACER.stop()
    return times, result, exc


def _raised(i, tracer, exc) -> str:
    """Layer blamed for an exception: the traced call it escaped from, else
    the innermost package frame of its traceback."""
    layer = tracer.blamed_layer(i) if tracer else None
    tb, mod = exc.__traceback__, None
    while tb is not None:
        fname = tb.tb_frame.f_globals.get("__name__", "")
        if fname.startswith("dimerkit."):
            mod = fname.split(".")[1]
        tb = tb.tb_next
    return layer or mod or "cli"


def certify_op(i, name, path, model, theta_seed, tracer):
    """``dimer fixed-points <model.json> --seed s``, in process."""
    out, err = io.StringIO(), io.StringIO()

    def call():
        with redirect_stdout(out), redirect_stderr(err):
            return cli.main(["fixed-points", path, "--seed", str(theta_seed)])

    times, rc, exc = _timed(i, tracer, "cli.main", call)
    text = out.getvalue()
    digest = hashlib.sha256(text.encode()).hexdigest()
    if exc is not None:
        return _record(name, times, f"raised {type(exc).__name__}: {exc}",
                       _raised(i, tracer, exc), digest)
    if rc != 0:
        first = (err.getvalue().strip().splitlines() or [""])[0]
        layer = (tracer.blamed_layer(i) if tracer else None) or "cli"
        return _record(name, times, f"exit {rc}: {first}", layer, digest)
    payload = json.loads(text)
    if not payload["certificate"]["ok"]:
        return _record(name, times, "certificate not ok", "charts", digest)
    want = area2(payload["polygon"])
    if len(payload["fixed_points"]) != want:
        return _record(name, times,
                       f"{len(payload['fixed_points'])} fixed points, area2 {want}",
                       "charts", digest)
    return _record(name, times, None, None, digest)


def tiling_op(i, name, path, model, theta_seed, tracer):
    """load, validate, quiver, relations, per-edge non-degeneracy."""

    def call():
        m = dk.load_model(path)
        report = dk.validate_model(m)
        q = dk.quiver_of(m)
        rels = dk.relations(q)
        return report, q, rels, dk.is_non_degenerate(dk.from_model(m), "per-edge")

    times, result, exc = _timed(i, tracer, "op", call)
    if exc is not None:
        return _record(name, times, f"raised {type(exc).__name__}: {exc}",
                       _raised(i, tracer, exc), None)
    report, q, rels, nondeg = result
    digest = _digest(
        [(c.name, c.ok, c.detail) for c in report.checks],
        q.vertices,
        [(a.id, a.source, a.target) for a in q.arrows],
        q.shifts,
        [(r.arrow, r.plus.arrows, r.minus.arrows) for r in rels],
        nondeg,
    )
    base, a, b = CORPUS[name]
    faces, edges = BASE_FACES[base] * a * b, BASE_EDGES[base] * a * b
    if not report.ok:
        return _record(name, times, "validation report not ok", "model", digest)
    if (len(q.vertices), len(q.arrows), len(rels)) != (faces, edges, edges):
        return _record(name, times,
                       f"quiver has {len(q.vertices)} vertices, {len(q.arrows)} arrows, "
                       f"{len(rels)} relations; expected {faces}, {edges}, {edges}",
                       "quiver", digest)
    if not nondeg:
        return _record(name, times, "reported degenerate", "matchings", digest)
    return _record(name, times, None, None, digest)


def spectrum_op(i, name, path, model, theta_seed, tracer):
    """Matchings, char poly, polygon, charges, lattice, splitting, toric
    cone, and a sampled generic weight on the covers marked for it."""

    def call():
        pms = dk.perfect_matchings(model)
        cp = dk.char_poly(model)
        poly = dk.newton_polygon(cp)
        charges = dk.r_charge_average(dk.from_model(model))
        q = dk.quiver_of(model)
        lat = dk.cochar_lattice(q)
        split = dk.split_by_reference(q, pms[0])
        basis = dk.hilbert_basis(dk.dual_cone(dk.cone_over_polygon(poly)))
        theta = None
        if name in WITH_THETA:
            theta = dk.sample_generic_theta(q, pms[0], random.Random(theta_seed))
        return pms, cp, poly, charges, q, lat, split, basis, theta

    times, result, exc = _timed(i, tracer, "op", call)
    if exc is not None:
        return _record(name, times, f"raised {type(exc).__name__}: {exc}",
                       _raised(i, tracer, exc), None)
    pms, cp, poly, charges, q, lat, split, basis, theta = result
    digest = _digest(
        [sorted(m) for m in pms],
        cp.terms,
        poly.vertices,
        sorted(charges.items()),
        (lat.w_basis, lat.free_basis, lat.torsion, lat.rank),
        (split.pi_x, split.pi_y, split.level, split.iso_det),
        basis,
        None if theta is None else (theta[0].values, sorted(theta[1].items()), theta[2]),
    )
    base, a, b = CORPUS[name]
    if sum(c for _, c in cp.terms) != len(pms):
        return _record(name, times, "char poly coefficients do not sum to "
                       f"the {len(pms)} matchings", "heights", digest)
    want = a * b * BASE_AREA2[base]
    if area2(poly.vertices) != want:
        return _record(name, times, f"polygon area2 {area2(poly.vertices)}, "
                       f"expected {want}", "heights", digest)
    if theta is not None and not is_generic([x for _, x in theta[0].values]):
        return _record(name, times, "sampled weight is not generic", "stability", digest)
    return _record(name, times, None, None, digest)
