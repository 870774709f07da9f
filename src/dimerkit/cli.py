"""Command-line interface.

``dimer <command> <model.json> [options]`` — ``--example NAME`` substitutes
a catalog model for the file argument.  A call builds one parser, ``dimer
<command>``, and the whole ``dimer`` parser only for what that one leaves
over or for an argv that names no command.

Every command prints JSON on stdout (SVG where a drawing is requested):
the bytes of ``json.dumps(payload, indent=2)``, written without ``json``'s
pure-Python encoder, which ``indent`` selects.
Exit codes separate the four ways a run can end: ``0`` success, ``1`` an
internal cross-check failed (a bug), ``2`` the input was unusable, ``3``
the computation finished with a negative verdict (failed validation,
degenerate model, failed certificate: a non-generic weight fails it, or
finds no fixed points for ``render --what domain``).  A reader that
closes stdout early, as ``head`` does, ends the run with ``141``; a stdout
that refuses output otherwise, as a full device does, with ``2``.
"""

from __future__ import annotations

import argparse
import os
import random
import sys
from contextlib import contextmanager
from fractions import Fraction
from json.encoder import encode_basestring_ascii

from . import catalog, render
from .charts import assemble_fan, enumerate_fixed_candidates
from .exceptions import (
    CapacityError,
    DegenerateModelError,
    InternalConsistencyError,
    InvalidModelError,
)
from .heights import char_poly, newton_polygon
from .lattice import cone_over_polygon, dual_cone, hilbert_basis
from .matchings import (
    NON_DEGENERACY_METHODS,
    _count,
    _least_matching,
    from_model,
    is_non_degenerate,
    perfect_matchings,
    r_charge_average,
)
from .model import DimerModel, _frac_to_json, load_model, read_json, validate_model
from .quiver import quiver_of, relations
from .stability import make_theta, sample_generic_theta

EXIT_OK = 0
EXIT_BUG = 1
EXIT_BAD_INPUT = 2
EXIT_NEGATIVE = 3
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE: stdout closed before the output ended


def _json_default(x):
    if isinstance(x, Fraction):
        return _frac_to_json(x)
    raise TypeError(f"not JSON-serialisable: {x!r}")


def _json_text(x, indent: str) -> str:
    """``x`` as ``json.dumps(x, indent=2, default=_json_default)`` writes
    it at the depth whose lines begin with ``indent``, a newline and spaces.
    Joins and json's C string encoder stand in for the pure-Python
    generators that ``indent`` puts ``json.dumps`` on."""
    if isinstance(x, str):
        return encode_basestring_ascii(x)
    if x is None:
        return "null"
    if x is True:
        return "true"
    if x is False:
        return "false"
    if isinstance(x, int):
        return int.__repr__(x)
    inner = indent + "  "
    if isinstance(x, (list, tuple)):
        if not x:
            return "[]"
        items = [_json_text(v, inner) for v in x]
        return "[" + inner + ("," + inner).join(items) + indent + "]"
    if isinstance(x, dict):
        if not x:
            return "{}"
        items = [
            encode_basestring_ascii(k) + ": " + _json_text(v, inner)
            for k, v in x.items()
        ]
        return "{" + inner + ("," + inner).join(items) + indent + "}"
    return _json_text(_json_default(x), indent)


class _StdoutRefused(Exception):
    """stdout refused a write or a flush, and not as a closed pipe does."""


def _stdout(method: str, *args) -> None:
    """Call a method of ``sys.stdout``.  A refusal other than a closed
    pipe's (a full device, say) is unusable output, as for a file: exit 2."""
    try:
        getattr(sys.stdout, method)(*args)
    except BrokenPipeError:
        raise
    except OSError as exc:
        raise _StdoutRefused(exc.strerror or exc) from None


def _emit(payload) -> None:
    _stdout("write", _json_text(payload, "\n") + "\n")


def _check_index(flag: str, i: int, n: int) -> None:
    if not 0 <= i < n:
        raise InvalidModelError(f"{flag} {i} out of range 0..{n - 1}")


def _load(args) -> DimerModel:
    if args.example is not None:
        if args.model is not None:
            raise InvalidModelError("give either a model file or --example")
        return catalog.example(args.example)
    if args.model is None:
        raise InvalidModelError("a model file (or --example) is required")
    return load_model(args.model)


def _load_valid(args) -> DimerModel:
    """Every command other than ``validate`` refuses an invalid model."""
    model = _load(args)
    report = validate_model(model)
    if not report.ok:
        failed = ", ".join(c.name for c in report.checks if not c.ok)
        raise InvalidModelError(f"model fails validation: {failed}")
    return model


def _seed(args) -> int:
    """--seed, else the DIMER_SEED environment variable, else 0."""
    if args.seed is not None:
        return args.seed
    raw = os.environ.get("DIMER_SEED", "0")
    try:
        return int(raw)
    except ValueError:
        raise InvalidModelError(
            f"DIMER_SEED must be an integer, got {raw!r}"
        ) from None


def _matchings(model: DimerModel) -> tuple[frozenset[str], ...]:
    """The model's perfect matchings; a model without one is degenerate."""
    pms = perfect_matchings(model)
    if not pms:
        raise DegenerateModelError("no perfect matchings")
    return pms


def _theta_for(q, model, args):
    """--theta names a JSON file of vertex weights, or 'auto' to sample."""
    spec = args.theta
    if spec != "auto":
        weights = read_json(spec)
        if not isinstance(weights, dict):
            raise InvalidModelError("--theta file must hold a JSON object")
        return make_theta(q, weights)
    base = _matchings(model)[0]
    theta, _, _ = sample_generic_theta(q, base, random.Random(_seed(args)))
    return theta


@contextmanager
def _writing(path: str):
    """An output path the system refuses is unusable input, not a bug."""
    try:
        yield
    except OSError as exc:
        raise InvalidModelError(
            f"cannot write {path}: {exc.strerror or exc}"
        ) from None


# --- commands ---------------------------------------------------------------


def _cmd_validate(args) -> int:
    report = validate_model(_load(args))
    _emit(
        {
            "ok": report.ok,
            "checks": [
                {"name": c.name, "ok": c.ok, "detail": c.detail}
                for c in report.checks
            ],
        }
    )
    return EXIT_OK if report.ok else EXIT_NEGATIVE


def _cmd_quiver(args) -> int:
    q = quiver_of(_load_valid(args))
    _emit(
        {
            "vertices": list(q.vertices),
            "arrows": [
                {
                    "id": a.id,
                    "source": a.source,
                    "target": a.target,
                    "shift": list(q.shift(a.id)),
                }
                for a in q.arrows
            ],
            "relations": [
                {
                    "arrow": r.arrow,
                    "plus": list(r.plus.arrows),
                    "minus": list(r.minus.arrows),
                }
                for r in relations(q)
            ],
        }
    )
    return EXIT_OK


def _cmd_matchings(args) -> int:
    pms = perfect_matchings(_load_valid(args))
    _emit({"count": len(pms), "matchings": [sorted(m) for m in pms]})
    return EXIT_OK


def _cmd_charpoly(args) -> int:
    model = _load_valid(args)
    pms = _matchings(model)
    _check_index("--ref", args.ref, len(pms))
    z = char_poly(model, base=pms[args.ref])
    _emit(
        [
            {"hx": e[0], "hy": e[1], "coeff": c}
            for e, c in z.terms
        ]
    )
    return EXIT_OK


def _cmd_polygon(args) -> int:
    poly = newton_polygon(char_poly(_load_valid(args)))
    if args.svg:
        _stdout("write", render.render_polygon(poly))
    else:
        _emit([list(v) for v in poly.vertices])
    return EXIT_OK


def _cmd_check(args) -> int:
    g = from_model(_load_valid(args))
    verdicts = {}
    for m in NON_DEGENERACY_METHODS:
        try:
            verdicts[m] = is_non_degenerate(g, m)
        except CapacityError:
            verdicts[m] = None  # past its cap: no verdict
    agree = len({v for v in verdicts.values() if v is not None}) == 1
    _emit({"methods": verdicts, "agree": agree})
    if not agree:
        raise InternalConsistencyError(
            f"non-degeneracy methods disagree: {verdicts}"
        )
    return EXIT_OK if verdicts["per-edge"] else EXIT_NEGATIVE


def _cmd_rcharge(args) -> int:
    charges = r_charge_average(from_model(_load_valid(args)))
    _emit({"r_charges": {eid: str(v) for eid, v in sorted(charges.items())}})
    return EXIT_OK


def _cmd_theta(args) -> int:
    model = _load_valid(args)
    q = quiver_of(model)
    g = from_model(model)
    count = _count(g)  # a sweep that lists no matching
    if not count:
        raise DegenerateModelError("no perfect matchings")
    _check_index("--matching", args.matching, count)
    if args.matching:
        base = perfect_matchings(model)[args.matching]
    else:  # the first matching, found without enumerating
        base = frozenset(g.edges[p][0] for p in _least_matching(g))
    theta, xi, tries = sample_generic_theta(q, base, random.Random(_seed(args)))
    _emit(
        {
            "matching": sorted(base),
            "theta": {v: theta.of(v) for v in q.vertices},
            "xi": {a: str(x) for a, x in sorted(xi.items())},
            "tries": tries,
            "generic": True,
        }
    )
    return EXIT_OK


def _cmd_fixed_points(args) -> int:
    model = _load_valid(args)
    q = quiver_of(model)
    theta = _theta_for(q, model, args)
    fan = assemble_fan(model, theta=theta)
    if args.svg:
        with _writing(args.svg):
            os.makedirs(args.svg, exist_ok=True)
    payload = {
        "theta": {v: theta.of(v) for v in q.vertices},
        "base": list(fan.base),
        "polygon": [list(v) for v in fan.polygon.vertices],
        "fixed_points": [],
        "certificate": {
            "ok": fan.report.ok,
            "checks": [
                {"name": c.name, "ok": c.ok, "detail": c.detail}
                for c in fan.report.checks
            ],
        },
    }
    for i, c in enumerate(fan.charts):
        entry = {
            "support": sorted(c.candidate.support),
            "cells": {v: list(cell) for v, cell in c.candidate.cells},
            "case": c.classification.case,
            "smooth": c.classification.smooth,
            "fixed_locus": c.classification.fixed_locus,
            "census": [list(x) for x in c.classification.census],
            "corner": [
                c.classification.corner[0],
                list(c.classification.corner[1]),
            ],
            "coordinate_edges": list(c.classification.coordinate_edges),
            "rows": [list(r) for r in c.rows],
            "rays": [list(r) for r in c.cone.rays],
        }
        if args.svg:
            path = os.path.join(args.svg, f"candidate-{i}.svg")
            with _writing(path), open(path, "w", encoding="utf-8") as fh:
                fh.write(render.render_domain(model, c.candidate))
            entry["svg"] = path
        payload["fixed_points"].append(entry)
    _emit(payload)
    return EXIT_OK if fan.report.ok else EXIT_NEGATIVE


def _cmd_toric(args) -> int:
    model = _load_valid(args)
    poly = newton_polygon(char_poly(model))
    cone = cone_over_polygon(poly)
    dual = dual_cone(cone)
    basis = hilbert_basis(dual)

    sums: dict[tuple, list[list[int]]] = {}
    for i in range(len(basis)):
        for j in range(i, len(basis)):
            s = tuple(a + b for a, b in zip(basis[i], basis[j]))
            sums.setdefault(s, []).append([i, j])
    additive = [
        {"sum": list(s), "combinations": combos}
        for s, combos in sorted(sums.items())
        if len(combos) > 1
    ]
    _emit(
        {
            "polygon": [list(v) for v in poly.vertices],
            "cone_rays": [list(r) for r in cone.rays],
            "dual_rays": [list(r) for r in dual.rays],
            "hilbert_basis": [list(g) for g in basis],
            "additive_relations": additive,
        }
    )
    return EXIT_OK


def _cmd_render(args) -> int:
    model = _load_valid(args)
    if args.what == "model":
        matching = None
        if args.index is not None:
            pms = _matchings(model)
            _check_index("--index", args.index, len(pms))
            matching = pms[args.index]
        svg = render.render_model(model, matching, cells=args.cells)
    elif args.what == "polygon":
        svg = render.render_polygon(newton_polygon(char_poly(model)))
    else:  # domain
        q = quiver_of(model)
        theta = _theta_for(q, model, args)
        cands = enumerate_fixed_candidates(model, theta)
        if not cands:
            raise DegenerateModelError("no fixed points for this weight")
        idx = args.index if args.index is not None else 0
        _check_index("--index", idx, len(cands))
        svg = render.render_domain(model, cands[idx])
    if args.out:
        with _writing(args.out), open(args.out, "w", encoding="utf-8") as fh:
            fh.write(svg)
    else:
        _stdout("write", svg)
    return EXIT_OK


# Every command takes a model file or --example; the rest of its arguments
# are listed in its entry below as (flag, add_argument keywords).
_SEED = ("--seed", dict(
    type=int, help="random seed (default: DIMER_SEED or 0)"
))
_THETA = ("--theta", dict(
    default="auto", help="JSON file of vertex weights, or 'auto' to sample"
))

# (name, handler, help, arguments), in the order the usage line lists them
_COMMANDS = (
    ("validate", _cmd_validate, "run the six structural checks", ()),
    ("quiver", _cmd_quiver, "dual quiver with its relations", ()),
    ("matchings", _cmd_matchings, "enumerate perfect matchings", ()),
    ("charpoly", _cmd_charpoly, "characteristic polynomial of matchings", (
        ("--ref", dict(type=int, default=0,
                       help="index of the reference matching (default 0)")),
    )),
    ("polygon", _cmd_polygon, "height polygon, counterclockwise", (
        ("--svg", dict(action="store_true", help="draw instead of JSON")),
    )),
    ("check", _cmd_check, "non-degeneracy by all three methods", ()),
    ("rcharge", _cmd_rcharge, "average matching charge per edge", ()),
    ("theta", _cmd_theta, "sample a generic stability weight", (
        _SEED,
        ("--matching", dict(
            type=int, default=0,
            help="index of the matching carrying the positive weights",
        )),
    )),
    ("fixed-points", _cmd_fixed_points,
     "fixed points, charts, and the fan certificate", (
         _SEED,
         _THETA,
         ("--svg", dict(
             metavar="DIR",
             help="also write one fundamental-domain SVG per fixed point",
         )),
     )),
    ("toric", _cmd_toric,
     "cone over the polygon, dual cone, Hilbert basis", ()),
    ("render", _cmd_render, "draw the model, polygon, or a domain", (
        _SEED,
        _THETA,
        ("--what", dict(
            choices=("model", "polygon", "domain"), default="model"
        )),
        ("--cells", dict(
            type=int, default=2,
            help="side length of the block of fundamental cells (default 2)",
        )),
        ("--index", dict(
            type=int, default=None,
            help="matching index (model) or fixed-point index (domain)",
        )),
        ("--out", dict(help="write to a file instead of stdout")),
    )),
)


class _Parser(argparse.ArgumentParser):
    """Prints help with no file through :func:`_stdout`, which reports a refusal."""

    def print_help(self, file=None) -> None:
        if file is None:
            return _stdout("write", self.format_help())
        super().print_help(file)


def _add_command(p: argparse.ArgumentParser, fn, arguments) -> None:
    """Give ``p`` a command's arguments and handler."""
    p.add_argument("model", nargs="?", help="model JSON file")
    p.add_argument(
        "--example",
        choices=catalog.example_names(),
        help="use a built-in model instead of a file",
    )
    for flag, kwargs in arguments:
        p.add_argument(flag, **kwargs)
    p.set_defaults(fn=fn)


def build_parser() -> argparse.ArgumentParser:
    """The ``dimer`` parser with every command."""
    ap = _Parser(
        prog="dimer",
        description="dimer models on the torus: tilings, quivers, matchings, "
        "stability, toric charts",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    for name, fn, help_, arguments in _COMMANDS:
        _add_command(sub.add_parser(name, help=help_), fn, arguments)
    return ap


def _parse(argv: list[str]) -> argparse.Namespace:
    """Parse with one parser, ``dimer <command>``, built for the named
    command alone, as the whole parser's subparser for it would be; anything
    it leaves over goes to the whole parser, whose error and usage line list
    every command, as does every argv that names no command."""
    for name, fn, _, arguments in _COMMANDS:
        if argv[:1] == [name]:
            p = _Parser(prog="dimer " + name)
            _add_command(p, fn, arguments)
            args, rest = p.parse_known_args(argv[1:])
            if not rest:
                return args
    return build_parser().parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    try:
        try:
            args = _parse(sys.argv[1:] if argv is None else argv)
            return args.fn(args)
        finally:
            # a closed pipe or a full device fails here, not at interpreter
            # exit, also after the SystemExit that follows help
            _stdout("flush")
    except (BrokenPipeError, _StdoutRefused) as exc:
        # stdout takes no more: send what it holds, and the interpreter's
        # final flush, to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        if isinstance(exc, BrokenPipeError):
            return EXIT_BROKEN_PIPE
        print(f"error: cannot write stdout: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except (InvalidModelError, CapacityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except DegenerateModelError as exc:
        print(f"degenerate: {exc}", file=sys.stderr)
        return EXIT_NEGATIVE
    except InternalConsistencyError as exc:
        print(f"internal inconsistency: {exc}", file=sys.stderr)
        return EXIT_BUG


if __name__ == "__main__":
    sys.exit(main())
