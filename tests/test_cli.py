"""Command line interface: exit codes, payload shapes, determinism."""

import argparse
import contextlib
import errno
import hashlib
import io
import importlib.util
import json
import os
import subprocess
import sys
import tempfile
import time
from fractions import Fraction

import pytest
from hypothesis import example as hyp_example
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import cover, sweep_corpus
from dimerkit import (
    DimerEdge, DimerModel, InvalidModelError, dump_model, example, load_model,
    model_from_dict, model_to_dict, quiver_of,
)
from dimerkit import catalog, cli
from dimerkit.cli import _COMMANDS, _emit, _json_default, build_parser, main
from dimerkit.model import _connected
from oracles import connected_by_dfs

DATA = os.path.join(os.path.dirname(__file__), "data")
# the dice lattice: a valid tiling of the torus with two blacks, one white
# and hence no perfect matching
DICE = os.path.join(DATA, "dice.json")
# the honeycomb with e3's offset moved to (2, 1): its edge offsets wind the
# faces clockwise around the torus against the rotation system
WOUND = os.path.join(DATA, "honeycomb_wound.json")
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(ROOT, "perfbench")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


def test_validate_ok(capsys):
    code, data = run_json(capsys, "validate", "--example", "conifold")
    assert code == 0
    assert data["ok"] is True
    assert {c["name"] for c in data["checks"]} == {
        "bipartite", "rotation", "connected", "euler",
        "face-offsets", "homology-span",
    }


def test_validate_failure_is_negative_verdict(capsys, tmp_path):
    bad = dict(
        vertices=[{"id": "b1", "color": "black"}, {"id": "w1", "color": "white"}],
        edges=[
            {"id": "e1", "black": "b1", "white": "w1", "offset": [0, 0]},
            {"id": "e2", "black": "b1", "white": "w1", "offset": [1, 0]},
            {"id": "e3", "black": "b1", "white": "w1", "offset": [2, 0]},
        ],
        rotation={"b1": ["e1", "e2", "e3"], "w1": ["e1", "e2", "e3"]},
    )
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    code, data = run_json(capsys, "validate", str(path))
    assert code == 3
    assert data["ok"] is False


def test_missing_file_is_invalid_input(capsys):
    code = main(["validate", "/nonexistent/model.json"])
    assert code == 2


def test_malformed_json_is_invalid_input(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["validate", str(path)]) == 2


def _cli_env() -> dict[str, str]:
    """The environment of a `python -m dimerkit.cli` run on this checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src"), env.get("PYTHONPATH", "")]
    )
    return env


@pytest.mark.parametrize("text, reason", [
    # an integer past the interpreter's digit limit
    ("[" + "1" * 5000 + "]", "holds a JSON integer with too many digits"),
    # nesting past its recursion limit
    ("[" * 200_000 + "]" * 200_000, "holds JSON nested too deeply"),
], ids=["long-integer", "deep-nesting"])
@pytest.mark.parametrize("argv", [
    ["validate", "{}"],
    ["fixed-points", "--example", "conifold", "--theta", "{}"],
], ids=["model", "theta"])
def test_unbuildable_json_is_invalid_input(tmp_path, text, reason, argv):
    # JSON the decoder refuses to build ends in one error line in the
    # user's terms: no traceback, and no advice on interpreter settings
    path = tmp_path / "big.json"
    path.write_text(text)
    proc = subprocess.run(
        [sys.executable, "-m", "dimerkit.cli", *(a.format(path) for a in argv)],
        capture_output=True, text=True, env=_cli_env(), timeout=60,
    )
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == f"error: {str(path)!r} {reason}\n"


@pytest.mark.parametrize("argv", [
    ["fixed-points", "--seed", "1"], ["matchings"], ["quiver"],
], ids=["fixed-points", "matchings", "quiver"])
def test_stdout_does_not_depend_on_the_hash_seed(tmp_path, argv):
    # string hashing is salted per process; no set or dict order it sways
    # may reach stdout, on a catalog model or on a certify cover
    path = tmp_path / "fzero-2x1.json"
    dump_model(cover(example("fzero"), 2, 1), str(path))
    for model in (["--example", "fzero"], [str(path)]):
        outs = []
        for seed in ("0", "1"):
            proc = subprocess.run(
                [sys.executable, "-m", "dimerkit.cli", argv[0], *model, *argv[1:]],
                capture_output=True, text=True, timeout=60,
                env={**_cli_env(), "PYTHONHASHSEED": seed},
            )
            assert (proc.returncode, proc.stderr) == (0, ""), (model, seed)
            outs.append(proc.stdout)
        assert outs[0] == outs[1] and outs[0], model


def test_malformed_json_message_unchanged(capsys, tmp_path):
    # the decoder's own message, which names the line and column, is kept
    path = tmp_path / "bad.json"
    path.write_text('{"a": }')
    assert main(["validate", str(path)]) == 2
    assert capsys.readouterr().err == (
        f"error: {str(path)!r} is not JSON: "
        "Expecting value: line 1 column 7 (char 6)\n"
    )


def test_unopenable_path_is_unreadable_not_json():
    # open() refuses a NUL in the path with a ValueError: that is a path
    # the file system cannot read, not a JSON integer with too many digits
    with pytest.raises(InvalidModelError, match=r"^cannot read 'a\\x00b\.json': "):
        load_model("a\0b.json")


def test_non_utf8_model_is_invalid_input(capsys, tmp_path):
    path = tmp_path / "bin.json"
    path.write_bytes(b"\xff\xfe\x00garbage")
    assert main(["validate", str(path)]) == 2
    assert "cannot read" in capsys.readouterr().err


def test_non_utf8_theta_is_invalid_input(capsys, tmp_path):
    path = tmp_path / "bin.json"
    path.write_bytes(b"\xff\xfe\x00garbage")
    assert main(["fixed-points", "--example", "conifold",
                 "--theta", str(path)]) == 2
    assert "cannot read" in capsys.readouterr().err


def test_unknown_example_is_invalid_input(capsys):
    # argparse restricts --example to the catalog names
    with pytest.raises(SystemExit) as exc:
        main(["validate", "--example", "nope"])
    assert exc.value.code == 2


def test_model_file_equivalent_to_example(capsys, tmp_path):
    path = tmp_path / "conifold.json"
    dump_model(example("conifold"), str(path))
    _, from_file = run_json(capsys, "matchings", str(path))
    _, from_example = run_json(capsys, "matchings", "--example", "conifold")
    assert from_file == from_example


def test_subcommands_refuse_invalid_models(capsys, tmp_path):
    # structurally fine JSON, but fails validation (offsets collinear)
    bad = dict(
        vertices=[{"id": "b1", "color": "black"}, {"id": "w1", "color": "white"}],
        edges=[
            {"id": "e1", "black": "b1", "white": "w1", "offset": [0, 0]},
            {"id": "e2", "black": "b1", "white": "w1", "offset": [1, 0]},
            {"id": "e3", "black": "b1", "white": "w1", "offset": [2, 0]},
        ],
        rotation={"b1": ["e1", "e2", "e3"], "w1": ["e1", "e2", "e3"]},
    )
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    for sub in ("quiver", "matchings", "charpoly", "polygon", "check",
                "rcharge", "toric"):
        assert main([sub, str(path)]) == 2, sub


def test_quiver_payload(capsys):
    code, data = run_json(capsys, "quiver", "--example", "conifold")
    assert code == 0
    assert data["vertices"] == ["f1", "f2"]
    assert len(data["arrows"]) == 4
    assert len(data["relations"]) == 4
    rel = data["relations"][0]
    assert set(rel) >= {"arrow", "plus", "minus"}


def test_matchings_payload(capsys):
    code, data = run_json(capsys, "matchings", "--example", "conifold")
    assert code == 0
    assert data["count"] == 4
    assert data["matchings"] == [["e1"], ["e2"], ["e3"], ["e4"]]


def test_charpoly_payload(capsys):
    code, data = run_json(capsys, "charpoly", "--example", "conifold")
    assert code == 0
    assert {(t["hx"], t["hy"], t["coeff"]) for t in data} == {
        (0, 0, 1), (1, 0, 1), (0, 1, 1), (1, 1, 1),
    }
    # measuring from another matching translates the exponents
    code, shifted = run_json(capsys, "charpoly", "--example", "conifold",
                             "--ref", "2")
    assert code == 0
    assert {(t["hx"], t["hy"]) for t in shifted} == {
        (0, 0), (-1, 0), (0, -1), (-1, -1),
    }
    assert main(["charpoly", "--example", "conifold", "--ref", "99"]) == 2


def test_polygon_payload_and_svg(capsys):
    code, data = run_json(capsys, "polygon", "--example", "conifold")
    assert code == 0
    assert data == [[0, 0], [1, 0], [1, 1], [0, 1]]
    code, out = run(capsys, "polygon", "--example", "conifold", "--svg")
    assert code == 0
    assert out.startswith("<svg")


def test_check_agreement(capsys):
    code, data = run_json(capsys, "check", "--example", "conifold")
    assert code == 0
    assert data["agree"] is True
    assert data["methods"] == {
        "per-edge": True, "r-charge": True, "strong-marriage": True,
    }
    code, data = run_json(capsys, "check", "--example", "degenerate")
    assert code == 3
    assert data["agree"] is True
    assert set(data["methods"].values()) == {False}


def test_check_at_the_cap_gives_every_verdict(capsys, tmp_path):
    # exactly 22 blacks: strong-marriage streams all 2^22 subsets of a side
    path = tmp_path / "honeycomb-11x2.json"
    dump_model(cover(example("honeycomb"), 11, 2), str(path))
    code, data = run_json(capsys, "check", str(path))
    assert code == 0
    assert data == {
        "methods": {"per-edge": True, "r-charge": True, "strong-marriage": True},
        "agree": True,
    }


def test_check_past_a_cap_reports_null(capsys, tmp_path):
    # 23 blacks: strong-marriage would scan 2^23 subsets, so it gives no
    # verdict; the others agree and per-edge sets the exit code
    path = tmp_path / "honeycomb-23x1.json"
    dump_model(cover(example("honeycomb"), 23, 1), str(path))
    code, data = run_json(capsys, "check", str(path))
    assert code == 0
    assert data == {
        "methods": {"per-edge": True, "r-charge": True, "strong-marriage": None},
        "agree": True,
    }


def test_rcharge_payload(capsys):
    code, data = run_json(capsys, "rcharge", "--example", "honeycomb")
    assert code == 0
    assert data["r_charges"] == {"e1": "2/3", "e2": "2/3", "e3": "2/3"}


def test_theta_command(capsys):
    code, data = run_json(capsys, "theta", "--example", "conifold",
                          "--matching", "0", "--seed", "7")
    assert code == 0
    assert data["generic"] is True
    assert data["matching"] == ["e1"]
    assert set(data["theta"]) == {"f1", "f2"}
    assert data["tries"] >= 1
    assert main(["theta", "--example", "conifold", "--matching", "99"]) == 2


@pytest.mark.parametrize("name", ["conifold", "honeycomb", "fzero"])
def test_theta_lists_no_matching_by_default(capsys, monkeypatch, name):
    # the base of --matching 0 is the least matching and the range check
    # takes a count: no search, and the same base as the listing's first
    from dimerkit import matchings, perfect_matchings

    def no_search(g):
        raise AssertionError("searched")

    model = example(name)
    with monkeypatch.context() as patch:
        patch.setattr(matchings, "_search", no_search)
        code, data = run_json(capsys, "theta", "--example", name, "--seed", "4")
    assert code == 0
    assert data["matching"] == sorted(perfect_matchings(model)[0])


@pytest.mark.parametrize("uniform_first", [False, True])
def test_theta_scans_each_draw_once(capsys, monkeypatch, uniform_first):
    # the sampler only returns a generic weight, so the command does not
    # test it again: one genericity decision per draw
    from dimerkit import stability

    decisions = []
    is_generic = stability.is_generic

    def spy(q, theta):
        decisions.append(is_generic(q, theta))
        return decisions[-1]

    monkeypatch.setattr(stability, "is_generic", spy)
    if uniform_first:  # all-equal xi on fzero gives a weight-zero face set
        draw_xi, draws = stability.draw_xi, []

        def first_uniform(q, matching, rng):
            xi = draw_xi(q, matching, rng)
            draws.append(xi)
            return {a: 1 for a in xi} if len(draws) == 1 else xi

        monkeypatch.setattr(stability, "draw_xi", first_uniform)
    code, data = run_json(capsys, "theta", "--example", "fzero", "--seed", "3")
    assert code == 0 and data["generic"] is True
    assert data["tries"] == (2 if uniform_first else 1)
    assert decisions == [False] * (data["tries"] - 1) + [True]


def _conifold_with_copies(k: int) -> DimerModel:
    """The conifold with ``k`` more copies of ``e1`` beside it: each copy
    adds a two-sided face and one perfect matching, so the quiver has
    ``k + 2`` faces and the model ``k + 4`` matchings."""
    base = example("conifold")
    copies = tuple(f"x{i}" for i in range(1, k + 1))
    return DimerModel(
        base.vertices,
        base.edges + tuple(DimerEdge(x, "b1", "w1", (0, 0)) for x in copies),
        (
            ("b1", ("e1",) + copies + ("e2", "e3", "e4")),
            ("w1", ("e3", "e4") + copies[::-1] + ("e1", "e2")),
        ),
    )


def test_theta_past_the_genericity_cap(capsys, tmp_path):
    # 41 faces and only 43 matchings: the genericity cap, not the matching
    # cap, stops the command
    path = tmp_path / "copies.json"
    dump_model(_conifold_with_copies(39), str(path))
    assert main(["validate", str(path)]) == 0
    capsys.readouterr()
    assert main(["theta", str(path)]) == 2
    err = capsys.readouterr().err
    assert "genericity check over 41 vertices exceeds the cap of 40" in err


def test_dimer_seed_env(capsys, monkeypatch):
    _, with_flag = run_json(capsys, "theta", "--example", "conifold",
                            "--matching", "0", "--seed", "5")
    monkeypatch.setenv("DIMER_SEED", "5")
    _, with_env = run_json(capsys, "theta", "--example", "conifold",
                           "--matching", "0")
    assert with_env == with_flag


def test_bad_dimer_seed_is_invalid_input(capsys, monkeypatch):
    monkeypatch.setenv("DIMER_SEED", "abc")
    assert main(["theta", "--example", "conifold"]) == 2
    assert "DIMER_SEED" in capsys.readouterr().err
    # commands that never read a seed are unaffected
    assert main(["validate", "--example", "conifold"]) == 0


def test_directory_as_model_is_invalid_input(capsys, tmp_path):
    assert main(["validate", str(tmp_path)]) == 2
    assert "cannot read" in capsys.readouterr().err


def test_directory_as_theta_is_invalid_input(capsys, tmp_path):
    assert main(["fixed-points", "--example", "conifold",
                 "--theta", str(tmp_path)]) == 2
    assert "cannot read" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["fixed-points", "--example", "conifold"],
    ["render", "--example", "conifold", "--what", "domain"],
])
def test_empty_theta_path_is_invalid_input(capsys, argv):
    # an empty path names no file; it is not a request to sample
    assert main(argv + ["--theta", ""]) == 2
    assert "cannot read ''" in capsys.readouterr().err


@pytest.mark.parametrize("f1, f2", [("abc", 0), ([1], 0), (0.1, -0.1)])
def test_bad_theta_value_is_invalid_input(capsys, tmp_path, f1, f2):
    path = tmp_path / "theta.json"
    path.write_text(json.dumps({"f1": f1, "f2": f2}))
    assert main(["fixed-points", "--example", "conifold",
                 "--theta", str(path)]) == 2


def test_fixed_points(capsys, tmp_path):
    svg_dir = tmp_path / "domains"
    code, data = run_json(capsys, "fixed-points", "--example", "conifold",
                          "--theta", "auto", "--seed", "0",
                          "--svg", str(svg_dir))
    assert code == 0
    assert data["certificate"]["ok"] is True
    assert len(data["fixed_points"]) == 2
    for fp in data["fixed_points"]:
        assert fp["case"] == "six-trivalent-opposite-colors"
        assert fp["smooth"] is True
        assert os.path.isfile(fp["svg"])
    supports = {frozenset(fp["support"]) for fp in data["fixed_points"]}
    assert supports == {frozenset({"e2"}), frozenset({"e4"})}


def test_fixed_points_interior_zero_edge(capsys, tmp_path):
    # C^3/(Z2 x Z2): some charts hold a zero edge strictly inside the domain
    path = tmp_path / "honeycomb-2x2.json"
    dump_model(cover(example("honeycomb"), 2, 2), str(path))
    code, data = run_json(capsys, "fixed-points", str(path), "--seed", "0")
    assert code == 0
    assert data["certificate"]["ok"] is True
    assert len(data["fixed_points"]) == 4


def test_fixed_points_past_old_arrow_cap(capsys, tmp_path):
    # 27 arrows: beyond what branching on every arrow could reach
    path = tmp_path / "honeycomb-3x3.json"
    dump_model(cover(example("honeycomb"), 3, 3), str(path))
    for seed in range(4):
        code, data = run_json(capsys, "fixed-points", str(path),
                              "--seed", str(seed))
        assert code == 0, seed
        assert data["certificate"]["ok"] is True, seed
        assert len(data["fixed_points"]) == 9, seed


def test_fixed_points_theta_file(capsys, tmp_path):
    path = tmp_path / "theta.json"
    path.write_text(json.dumps({"f1": 3, "f2": -3}))
    code, data = run_json(capsys, "fixed-points", "--example", "conifold",
                          "--theta", str(path))
    assert code == 0
    supports = {frozenset(fp["support"]) for fp in data["fixed_points"]}
    assert supports == {frozenset({"e1"}), frozenset({"e3"})}


@pytest.mark.parametrize("a, name, theta, charts, failed", [
    (3, "honeycomb", {"f1": -1, "f2": 0, "f3": 1}, 1, {
        "triangles-disjoint": "unpaired (0, 1) -> (0, 2); unpaired (0, 2) -> "
        "(0, 3); unpaired (0, 3) -> (1, 0); unpaired (1, 0) -> (0, 1)",
        "area-covered": "triangles cover 1/2, polygon is 3/2",
    }),
    (1, "conifold", {"f1": 0, "f2": 0}, 0, {
        "charts-smooth": "no charts at all",
        "cones-unimodular": "no smooth charts",
        "triangles-disjoint": "unpaired (0, 0) -> (0, 1); unpaired (0, 1) -> "
        "(1, 1); unpaired (1, 0) -> (0, 0); unpaired (1, 1) -> (1, 0)",
        "area-covered": "triangles cover 0/2, polygon is 2/2",
    }),
], ids=["honeycomb-3x1", "conifold"])
def test_non_generic_weight_fails_the_certificate(
    capsys, tmp_path, a, name, theta, charts, failed
):
    # a weight on a wall ends in exit 3 through these entries alone: the
    # 215 certificates that fail among the 304 integer weights in -2..2 on
    # eight covers of at most four faces fail in one of these two patterns,
    # none of them through triangles-inside
    path, weights = tmp_path / "model.json", tmp_path / "theta.json"
    dump_model(cover(example(name), a, 1), str(path))
    weights.write_text(json.dumps(theta))
    code, data = run_json(capsys, "fixed-points", str(path), "--theta", str(weights))
    checks = data["certificate"]["checks"]
    assert (code, len(data["fixed_points"])) == (3, charts)
    assert {c["name"]: c["detail"] for c in checks if not c["ok"]} == failed


def test_fixed_points_degenerate_is_negative(capsys):
    code, data = run_json(capsys, "fixed-points", "--example", "degenerate",
                          "--theta", "auto", "--seed", "0")
    assert code == 3
    assert data["certificate"]["ok"] is False


def test_dice_is_valid(capsys):
    code, data = run_json(capsys, "validate", DICE)
    assert code == 0 and data["ok"] is True
    code, data = run_json(capsys, "matchings", DICE)
    assert code == 0 and data == {"count": 0, "matchings": []}


@pytest.mark.parametrize("argv", [
    ["fixed-points"],
    ["render", "--what", "domain"],
    ["render", "--index", "0"],
    ["charpoly", "--ref", "0"],
    ["theta", "--matching", "0"],
    ["polygon"],
    ["render", "--what", "polygon"],
    ["toric"],
    ["rcharge"],
])
def test_no_perfect_matching_is_negative(capsys, argv):
    assert main([argv[0], DICE, *argv[1:]]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "degenerate: no perfect matchings\n"


def _wound_and_mirrored(tmp_path):
    """``honeycomb_wound.json`` with and without positions, and the conifold
    mirrored by swapping the two coordinates of every offset and position:
    valid tilings but for edge offsets that wind the faces clockwise."""
    with open(WOUND, encoding="utf-8") as fh:
        wound = json.load(fh)
    bare = {**wound, "vertices": [
        {k: v for k, v in vx.items() if k != "pos"} for vx in wound["vertices"]
    ]}
    mirror = model_to_dict(example("conifold"))
    for e in mirror["edges"]:
        e["offset"] = e["offset"][::-1]
    for vx in mirror["vertices"]:
        vx["pos"] = vx["pos"][::-1]
    paths = [WOUND]
    for name, data in (("wound-bare", bare), ("conifold-mirrored", mirror)):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(data))
        paths.append(str(path))
    return paths


def test_clockwise_offsets_are_invalid_input(capsys, tmp_path):
    for path in _wound_and_mirrored(tmp_path):
        code, data = run_json(capsys, "validate", path)
        assert code == 3 and data["ok"] is False, path
        assert [c["name"] for c in data["checks"] if not c["ok"]] == [
            "homology-span"
        ], path
        for argv in (["fixed-points"], ["render", "--what", "domain"]):
            assert main([argv[0], path, *argv[1:]]) == 2, (path, argv)
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == (
                "error: model fails validation: homology-span\n"
            ), (path, argv)


def _exponent_rational_is_refused(capsys, argv):
    start = time.monotonic()
    assert main(argv) == 2
    assert time.monotonic() - start < 5
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "bad rational '1e100000000'" in captured.err


def test_exponent_position_is_invalid_input(capsys, tmp_path):
    # Fraction would build a hundred-million-digit integer
    data = model_to_dict(example("conifold"))
    data["vertices"][0]["pos"][1] = "1e100000000"
    path = tmp_path / "model.json"
    path.write_text(json.dumps(data))
    _exponent_rational_is_refused(capsys, ["validate", str(path)])


def test_exponent_weight_is_invalid_input(capsys, tmp_path):
    path = tmp_path / "theta.json"
    path.write_text(json.dumps({"f1": "1e100000000", "f2": -1}))
    _exponent_rational_is_refused(
        capsys, ["fixed-points", "--example", "conifold", "--theta", str(path)]
    )


def test_deep_matching_search_is_invalid_input(capsys, tmp_path):
    # 1 020 blacks: past STATE_CAP search states at one step, before the
    # count reaches MATCHING_CAP
    path = tmp_path / "honeycomb-34x30.json"
    dump_model(cover(example("honeycomb"), 34, 30), str(path))
    assert main(["matchings", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: more than STATE_CAP = 200000 matching search states at one step\n"
    )


def test_past_the_matching_cap(capsys, tmp_path):
    # 263 640 matchings: the polygon and the charges come from sweeps that
    # build no matching, so only the listing meets MATCHING_CAP
    path = str(tmp_path / "honeycomb-6x6.json")
    dump_model(cover(example("honeycomb"), 6, 6), path)
    code, data = run_json(capsys, "polygon", path)
    assert code == 0 and data == [[0, 0], [6, 0], [0, 6]]
    code, data = run_json(capsys, "rcharge", path)
    assert code == 0 and len(data["r_charges"]) == 108
    assert set(data["r_charges"].values()) == {"2/3"}
    code, data = run_json(capsys, "check", path)
    assert code == 0
    assert data == {
        "methods": {"per-edge": True, "r-charge": True, "strong-marriage": None},
        "agree": True,
    }
    # theta's default base, the least matching, needs no list either
    code, data = run_json(capsys, "theta", path)
    assert code == 0 and data["generic"] is True
    assert len(data["matching"]) == 36
    for argv in (["matchings", path], ["theta", path, "--matching", "1"]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: more than MATCHING_CAP = 200000 perfect matchings\n"
        )


# sha256 of `dimer matchings` stdout, recorded before the matchings were
# kept as edge-id sets
MATCHINGS_DIGESTS = {
    ("honeycomb", 4, 4): "ed22f1642e0aed9cab96c89bf19f8ab3df4df1a9d1f47482004471c8ca47a335",
    ("fzero", 2, 2): "2179d72bad0c9249165c7cd5e60aad61f4ed2a1d878878c9c71a02e6fe201e56",
    ("conifold", 4, 2): "873e2b0f1699b6546f51f9d909ea6686516b5882086fae53eba2221675680fc4",
}


@pytest.mark.parametrize("name, a, b", sorted(MATCHINGS_DIGESTS))
def test_matchings_stdout_pinned(capsys, tmp_path, name, a, b):
    path = str(tmp_path / "cover.json")
    dump_model(cover(example(name), a, b), path)
    assert main(["matchings", path]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == MATCHINGS_DIGESTS[name, a, b]


def test_matching_cap_is_named(capsys, monkeypatch):
    from dimerkit import matchings

    monkeypatch.setattr(matchings, "MATCHING_CAP", 3)
    assert main(["matchings", "--example", "fzero"]) == 2  # fzero has 8
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: more than MATCHING_CAP = 3 perfect matchings\n"


def test_toric_payload(capsys):
    code, data = run_json(capsys, "toric", "--example", "conifold")
    assert code == 0
    assert data["cone_rays"] == [[0, 0, 1], [1, 0, 1], [1, 1, 1], [0, 1, 1]]
    assert len(data["hilbert_basis"]) == 4
    assert data["additive_relations"] == [
        {"sum": [0, 0, 1], "combinations": [[0, 3], [1, 2]]}
    ]
    code, data = run_json(capsys, "toric", "--example", "honeycomb")
    assert code == 0
    assert len(data["hilbert_basis"]) == 3
    assert data["additive_relations"] == []
    assert main(["toric", "--example", "degenerate"]) == 3


def test_render_command(capsys, tmp_path):
    out = tmp_path / "model.svg"
    code = main(["render", "--example", "conifold", "--what", "model",
                 "--out", str(out)])
    assert code == 0
    assert out.read_text().startswith("<svg")
    code, text = run(capsys, "render", "--example", "conifold",
                     "--what", "polygon")
    assert code == 0
    assert text.startswith("<svg")


def test_grid_layout_warning_once_per_model(capsys, tmp_path):
    # a model without positions is drawn on a grid layout, and each command
    # says so once, however many domains it draws
    data = model_to_dict(cover(example("conifold"), 2, 1))
    for vertex in data["vertices"]:
        del vertex["pos"]
    path = tmp_path / "model.json"
    path.write_text(json.dumps(data))
    svg = tmp_path / "svg"
    warning = "warning: model carries no vertex positions; using a grid layout\n"
    for argv in (["fixed-points", str(path), "--svg", str(svg)],
                 ["render", str(path), "--what", "domain"]):
        assert main(argv) == 0
        assert capsys.readouterr().err.count(warning) == 1, argv
    assert len(os.listdir(svg)) == 4


@pytest.mark.parametrize("argv, target", [
    (["fixed-points", "--svg"], "a-file"),
    (["render", "--out"], "."),
    (["render", "--out"], "missing/x.svg"),
])
def test_unusable_output_path_is_invalid_input(capsys, tmp_path, argv, target):
    (tmp_path / "a-file").write_text("")
    path = str(tmp_path / target)
    assert main([argv[0], "--example", "conifold", *argv[1:], path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot write {path}: ")


def test_render_cells_past_the_lift_cap(capsys):
    # 10^10 edge lifts: refused before the block of cells is built
    start = time.perf_counter()
    code = main(["render", "--example", "conifold", "--cells", "100000"])
    assert time.perf_counter() - start < 0.5
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert "LIFT_CAP" in captured.err


@pytest.mark.parametrize("large", [True, False])
def test_closed_stdout_exits_141(tmp_path, large):
    # the matchings of the conifold 4x4 cover fill a pipe's buffer many times
    # over, so a write fails while the command runs; the validation report
    # of the honeycomb and the help texts fit in stdout's buffer and fail
    # only when flushed, the help after argparse's SystemExit
    if large:
        path = tmp_path / "conifold-4x4.json"
        dump_model(cover(example("conifold"), 4, 4), str(path))
        argvs = [["matchings", str(path)]]
    else:
        argvs = [["validate", "--example", "honeycomb"], ["-h"], ["fixed-points", "-h"]]
    env = _cli_env()
    env.pop("PYTHONUNBUFFERED", None)  # stdout block-buffered, as on a pipe
    for argv in argvs:
        proc = subprocess.Popen(
            [sys.executable, "-m", "dimerkit.cli", *argv],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        )
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
        assert (proc.returncode, err) == (141, b""), argv


class _FullStdout(io.StringIO):
    """A stdout on a full device: ``refuse`` names the call that raises."""

    def __init__(self, refuse: str, fd: int):
        super().__init__()
        self.refuse, self.fd = refuse, fd

    def write(self, text):
        if self.refuse == "write":
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        return super().write(text)

    def flush(self):
        if self.refuse == "flush":
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    def fileno(self):
        return self.fd


@pytest.mark.parametrize("refuse, argv", [
    (refuse, argv)
    for refuse in ("write", "flush")
    for argv in (
        ["quiver", "--example", "conifold"],
        ["polygon", "--example", "fzero", "--svg"],
        ["render", "--example", "honeycomb"],
    )
] + [("flush", ["-h"])], ids=lambda x: x if isinstance(x, str) else " ".join(x))
def test_full_stdout_is_unusable_output(capsys, monkeypatch, tmp_path, refuse, argv):
    # exit 2 and one line, as for an output file; what stdout still holds
    # goes to devnull, not to the interpreter's final flush
    fd = os.open(tmp_path / "stdout", os.O_WRONLY | os.O_CREAT)
    try:
        monkeypatch.setattr(sys, "stdout", _FullStdout(refuse, fd))
        assert main(argv) == 2
        assert os.path.samestat(os.fstat(fd), os.stat(os.devnull))
    finally:
        os.close(fd)
    assert capsys.readouterr().err == "error: cannot write stdout: No space left on device\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("unbuffered", [True, False])
def test_dev_full_stdout_exits_2(tmp_path, unbuffered):
    # the conifold 4x4 matchings overflow stdout's buffer while the command
    # runs; the quiver and the help texts fail only when flushed, unless
    # stdout is unbuffered, where the help is written past argparse's own
    # write, which drops a refusal
    path = tmp_path / "conifold-4x4.json"
    dump_model(cover(example("conifold"), 4, 4), str(path))
    argvs = [
        ["matchings", str(path)], ["quiver", "--example", "conifold"],
        ["-h"], ["toric", "-h"], ["fixed-points", "-h"],
    ]
    env = _cli_env()
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    for argv in argvs:
        with open("/dev/full", "w") as full:
            proc = subprocess.run(
                [sys.executable, "-m", "dimerkit.cli", *argv],
                stdout=full, stderr=subprocess.PIPE, env=env, timeout=60,
            )
        assert (proc.returncode, proc.stderr) == (
            2, b"error: cannot write stdout: No space left on device\n"
        ), argv


def _plain(x, where="payload"):
    """Fail unless ``x`` is built of dicts with string keys, lists and
    tuples (exactly those types) over JSON leaves and fractions."""
    if type(x) is dict:
        for k, v in x.items():
            assert type(k) is str, where
            _plain(v, f"{where}[{k!r}]")
    elif type(x) in (list, tuple):
        for i, v in enumerate(x):
            _plain(v, f"{where}[{i}]")
    else:
        assert type(x) in (str, int, bool, type(None), Fraction), (
            f"{where} is a {type(x).__name__}"
        )


def test_payloads_hold_no_record(capsys, monkeypatch, tmp_path):
    # a record is a tuple, which _emit would write as a list without a word
    payloads = []
    emit = cli._emit

    def spy(payload):
        payloads.append(payload)
        emit(payload)

    monkeypatch.setattr(cli, "_emit", spy)
    runs = [
        [name, "--example", model]
        for model in catalog.example_names()
        for name, _, _, _ in _COMMANDS
    ]
    corpus = sweep_corpus()
    for key in ("conifold-2x2", "honeycomb-2x2", "fzero-2x1"):
        path = str(tmp_path / f"{key}.json")
        dump_model(corpus[key], path)
        runs.append(["check", path])  # which takes no seed
        runs += [
            [*argv, path, "--seed", str(seed)]
            for argv in (["fixed-points"], ["render", "--what", "domain"], ["theta"])
            for seed in (0, 1)
        ]
    for argv in runs:
        before = len(payloads)
        main(argv)
        json_out = capsys.readouterr().out.startswith(("{", "["))
        assert len(payloads) - before == json_out, argv  # SVG goes around _emit
    for payload in payloads:
        _plain(payload)


def _exits(capsys, call):
    with pytest.raises(SystemExit) as exc:
        call()
    captured = capsys.readouterr()
    return exc.value.code, captured.out, captured.err


def _usage_argvs():
    """Parser-level argvs: no command, help, an unknown command, per
    command its help, a bad --example, a bad int option and an extra
    positional, then another command's flag and an option missing its
    value."""
    yield []
    yield ["-h"]
    yield ["bogus"]
    for name, _, _, arguments in _COMMANDS:
        yield [name, "-h"]
        yield [name, "--example", "nope"]
        for flag, kwargs in arguments:
            if kwargs.get("type") is int:
                yield [name, "--example", "conifold", flag, "x"]
                break
        yield [name, "model.json", "extra"]
    yield ["fixed-points", "--example", "fzero", "--ref", "1"]
    yield ["theta", "--example", "fzero", "--seed"]


@pytest.mark.parametrize("argv", list(_usage_argvs()), ids=" ".join)
def test_one_command_parser_matches_whole_parser(capsys, monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps to the terminal
    whole = _exits(capsys, lambda: build_parser().parse_args(argv))
    assert _exits(capsys, lambda: main(argv)) == whole


def _count_parsers(monkeypatch):
    """The progs of the argument parsers built from here on."""
    calls = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        init(self, *args, **kwargs)
        calls.append(self.prog)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    return calls


def test_call_builds_only_its_own_command(capsys, monkeypatch):
    calls = _count_parsers(monkeypatch)
    assert main(["fixed-points", "--example", "conifold"]) == 0
    assert calls == ["dimer fixed-points"]


def test_main_reads_sys_argv(capsys, monkeypatch):
    # the path the dimer console script takes
    calls = _count_parsers(monkeypatch)
    monkeypatch.setattr(sys, "argv", ["dimer", "validate", "--example", "fzero"])
    assert main() == 0
    assert json.loads(capsys.readouterr().out)["ok"] is True
    assert calls == ["dimer validate"]


def test_argparse_errors_exit_2():
    # neither a model file nor --example
    assert main(["matchings"]) == 2
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


def test_both_model_and_example_rejected(capsys, tmp_path):
    path = tmp_path / "m.json"
    dump_model(example("conifold"), str(path))
    assert main(["matchings", str(path), "--example", "conifold"]) == 2


def test_emissions_byte_deterministic(capsys):
    for argv in (
        ["fixed-points", "--example", "conifold", "--theta", "auto",
         "--seed", "3"],
        ["theta", "--example", "fzero", "--matching", "1", "--seed", "9"],
        ["render", "--example", "conifold", "--what", "domain",
         "--theta", "auto", "--seed", "0"],
    ):
        first_code, first = run(capsys, *argv)
        second_code, second = run(capsys, *argv)
        assert first_code == second_code
        assert first == second, argv


# the leaves a CLI payload holds, with the strings JSON must escape
_JSON_LEAVES = st.one_of(
    st.text(),
    st.sampled_from(['"', "\\", "\x00\x1f\x7f", "\u00e9\u2028\U0001d11e"]),
    st.integers(),
    st.integers(min_value=2**64),
    st.booleans(),
    st.none(),
    st.fractions(),
)


def _emitted(payload) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        _emit(payload)
    return out.getvalue()


@settings(max_examples=300, deadline=None)
@given(payload=st.recursive(
    _JSON_LEAVES,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(st.text(), inner, max_size=4),
    ),
    max_leaves=20,
))
@hyp_example(payload={"": [[], {}, ()], "a": {"b": [{}, [[]]]}, "c": ()})
@hyp_example(payload=[True, False, None, 1, -2**70, 2**64 + 1])
@hyp_example(payload={"x\U0001d11e\u00e9\n": [Fraction(4), Fraction(-1, 3)]})
@hyp_example(payload="\\\"\x00")
def test_emit_writes_the_bytes_of_json_dumps(payload):
    assert _emitted(payload) == json.dumps(
        payload, indent=2, default=_json_default
    ) + "\n"


def test_emit_refuses_an_unknown_leaf():
    with pytest.raises(TypeError, match="^not JSON-serialisable: <object object"):
        _emitted({"a": [1, object()]})


def test_certify_ops_reproduce_recorded_digests(capsys, monkeypatch, tmp_path):
    # the benchmark's certify ops in process: its own cover generator writes
    # the models, and for weight seeds 0-3 every op recorded as passing must
    # print the bytes whose SHA-256 perfbench/digests.json holds
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # perfbench stays untouched
    spec = importlib.util.spec_from_file_location(
        "perfbench_cover", os.path.join(PERFBENCH, "cover.py")
    )
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    with open(os.path.join(PERFBENCH, "digests.json"), encoding="utf-8") as fh:
        digests = json.load(fh)
    checked = 0
    for name, a, b in bench.CERTIFY:
        key = bench.cover_name(name, a, b)
        path = tmp_path / f"{key}.json"
        data = bench.cover(model_to_dict(example(name)), a, b)
        path.write_text(json.dumps(data, indent=2) + "\n")
        for seed in range(4):
            record = digests[str(seed)][key]
            if not record["ok"]:
                continue
            assert main(["fixed-points", str(path), "--seed", str(seed)]) == 0
            out = capsys.readouterr().out
            assert hashlib.sha256(out.encode()).hexdigest() == record["digest"], (
                key, seed,
            )
            checked += 1
    assert checked == 72


def test_cli_reproduces_recorded_digests(monkeypatch, tmp_path):
    # the sweep of tests/cli_record/record_cli_digests.py, replayed: every
    # call gives the exit code, stdout digest and stderr the file records
    monkeypatch.delenv("DIMER_SEED", raising=False)
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # tests/cli_record stays as checked in
    spec = importlib.util.spec_from_file_location(
        "record_cli_digests", os.path.join(ROOT, "tests", "cli_record", "record_cli_digests.py")
    )
    recorder = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(recorder)
    with open(recorder.RECORD, encoding="utf-8") as fh:
        recorded = json.load(fh)
    got = recorder.sweep(str(tmp_path))
    changed = [
        (name, command, recorded.get(name, {}).get(command), result)
        for name, calls in got.items()
        for command, result in calls.items()
        if recorded.get(name, {}).get(command) != result
    ]
    assert not changed, changed[:5]
    assert got == recorded and sum(map(len, got.values())) == 2132


def _value_paths(data, prefix=()):
    """The key path of every value in a JSON document, the root's first."""
    yield prefix
    items = data.items() if isinstance(data, dict) else (
        enumerate(data) if isinstance(data, list) else ()
    )
    for key, value in items:
        yield from _value_paths(value, prefix + (key,))


_CATALOG_JSON = {name: model_to_dict(example(name)) for name in
                 ("conifold", "honeycomb", "fzero", "degenerate")}
_LEAF = (
    st.none() | st.booleans() | st.integers(-3, 3) | st.text(max_size=4)
    | st.sampled_from(["1e100000000", "-2E9", "1/0", "b1", "w1", "e1"])
)
_NEST = _LEAF | st.lists(_LEAF, max_size=3) | st.dictionaries(
    st.text(max_size=3), _LEAF, max_size=3
)
_JUNK = _NEST | st.lists(_NEST, max_size=2) | st.dictionaries(
    st.text(max_size=3), _NEST, max_size=2
)


def _replaced(data, path, junk):
    """The document with the value at ``path`` replaced by ``junk``."""
    if not path:
        return junk
    parent = data
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = junk
    return data


def _with_junk(name, path, junk):
    return _replaced(json.loads(json.dumps(_CATALOG_JSON[name])), path, junk)


@st.composite
def _junk_models(draw):
    name = draw(st.sampled_from(sorted(_CATALOG_JSON)))
    data = json.loads(json.dumps(_CATALOG_JSON[name]))
    for _ in range(draw(st.integers(1, 3))):
        paths = list(_value_paths(data))
        path = paths[draw(st.integers(0, len(paths) - 1))]
        data = _replaced(data, path, draw(_JUNK))
    return data


@settings(max_examples=200, deadline=None)
@given(data=_junk_models())
@hyp_example(data=_with_junk("conifold", ("vertices", 1, "pos", 0), "1e100000000"))
@hyp_example(data=_with_junk("fzero", ("edges", 2, "offset"), [True, 0]))
@hyp_example(data=_with_junk("honeycomb", ("rotation", "b1"), [["e1"], "e2"]))
def test_junk_models_end_in_a_verdict(data):
    # junk anywhere in a model file is invalid input (2) or a negative
    # verdict (3), never a bug (1) or a traceback
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "model.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh)
        for command in ("validate", "quiver"):
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = main([command, path])
            assert code in (0, 2, 3), (command, data)


# every command that reads a model past validation, each --what of render
_MODEL_COMMANDS = (
    ["matchings"], ["charpoly"], ["polygon"], ["check"], ["rcharge"],
    ["theta"], ["fixed-points"], ["toric"],
    ["render", "--what", "model"], ["render", "--what", "polygon"],
    ["render", "--what", "domain"],
)
_MUTATED_BASES = dict(_CATALOG_JSON, **{
    f"{name}-{a}x{b}": model_to_dict(cover(example(name), a, b))
    for name, a, b in (("conifold", 2, 1), ("honeycomb", 2, 2), ("fzero", 2, 1))
})


def _mutated(name, *mutations):
    """A base model's document under schema-valid mutations, each one of
    ``("offset", edge id, offset)``, ``("rotation", vertex id, order)``,
    ``("delete", edge id)`` or ``("colour", vertex id)``; a mutation of an
    edge deleted before it, or a rotation naming one, changes nothing."""
    data = json.loads(json.dumps(_MUTATED_BASES[name]))
    for kind, where, *value in mutations:
        edges = {e["id"]: e for e in data["edges"]}
        if kind == "offset" and where in edges:
            edges[where]["offset"] = value[0]
        elif kind == "rotation" and set(value[0]) <= set(edges):
            data["rotation"][where] = value[0]
        elif kind == "delete" and where in edges:
            data["edges"].remove(edges[where])
            data["rotation"] = {
                vid: [x for x in rot if x != where] for vid, rot in data["rotation"].items()
            }
        elif kind == "colour":
            vertex = next(v for v in data["vertices"] if v["id"] == where)
            vertex["color"] = "white" if vertex["color"] == "black" else "black"
    return data


@st.composite
def _mutated_models(draw):
    """A catalog model or a small cover under one to three mutations that
    keep the schema: an offset moved within -2..2, a rotation permuted, an
    edge deleted from the edges and the rotations, or a colour swapped."""
    name = draw(st.sampled_from(sorted(_MUTATED_BASES)))
    base = _MUTATED_BASES[name]
    eids = [e["id"] for e in base["edges"]]
    mutations = []
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["offset", "rotation", "delete", "colour"]))
        if kind == "offset":
            offset = draw(st.lists(st.integers(-2, 2), min_size=2, max_size=2))
            mutations.append((kind, draw(st.sampled_from(eids)), offset))
        elif kind == "rotation":
            vid = draw(st.sampled_from(sorted(base["rotation"])))
            mutations.append((kind, vid, draw(st.permutations(base["rotation"][vid]))))
        elif kind == "delete":
            mutations.append((kind, draw(st.sampled_from(eids))))
        else:
            vids = [v["id"] for v in base["vertices"]]
            mutations.append((kind, draw(st.sampled_from(vids))))
    return name, mutations


@settings(max_examples=100, deadline=None)
@given(case=_mutated_models())
@hyp_example(case=("conifold-2x1", [("delete", "e1_0_0")]))
@hyp_example(case=("honeycomb-2x2", [("delete", "e1_0_0"), ("delete", "e2_1_1")]))
@hyp_example(case=("fzero", [("rotation", "b1", ["e1", "e2", "e5", "e6"])]))
@hyp_example(case=("honeycomb", [("offset", "e1", [2, -1])]))
@hyp_example(case=("conifold", [("colour", "b1")]))
def test_mutated_models_end_in_a_verdict(case):
    # a well-formed model file that is not a valid tiling, or is a different
    # one, ends in an answer (0), invalid input (2) or a negative verdict (3)
    # under every command, never a bug (1) or a traceback
    name, mutations = case
    data = _mutated(name, *mutations)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "model.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh)
        for command in _MODEL_COMMANDS:
            argv = [*command, path]
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = main(argv)
            assert code in (0, 2, 3), (argv, name, mutations)


@settings(max_examples=300, deadline=None)
@given(case=_mutated_models())
@hyp_example(case=("honeycomb", [("delete", "e1"), ("delete", "e2"), ("delete", "e3")]))
@hyp_example(case=("conifold-2x1", [("delete", "e1_0_0"), ("colour", "w1_1_0")]))
def test_connected_matches_depth_first_search(case):
    # the depth-first search the shared forest replaced, as oracle, on the
    # fuzz's mutated models, the first example disconnected
    name, mutations = case
    model = model_from_dict(_mutated(name, *mutations))
    assert _connected(model) == connected_by_dfs(model), (name, mutations)


_FACES = {name: quiver_of(example(name)).vertices
          for name in ("conifold", "honeycomb", "fzero")}
_WEIGHT = (
    _LEAF | st.integers(-10**30, 10**30) | st.fractions().map(str)
    | st.floats() | st.sampled_from(["1e3", "1/" + "9" * 400, "-0/5"])
)


@st.composite
def _junk_thetas(draw):
    """A catalog model's name and a weight file's text: weights of any kind
    or small integers summing to zero (generic or not) on its faces, with a
    face dropped or a stray key added at times, or junk in place of the
    whole document."""
    name = draw(st.sampled_from(sorted(_FACES)))
    faces = _FACES[name]
    kind = draw(st.sampled_from(["integers", "weights", "junk"]))
    if kind == "junk":
        return name, json.dumps(draw(_JUNK))
    if kind == "integers":
        head = draw(st.lists(st.integers(-3, 3), min_size=len(faces) - 1,
                             max_size=len(faces) - 1))
        doc = dict(zip(faces, head + [-sum(head)]))
    else:
        doc = {f: draw(_WEIGHT) for f in faces}
    if draw(st.booleans()):
        doc.pop(draw(st.sampled_from(faces)))
    if draw(st.booleans()):
        doc[draw(st.sampled_from(["x", "b1", "e1", faces[0] + " "]))] = 0
    return name, json.dumps(doc)


def _theta_text(name, value_of):
    return name, json.dumps({f: value_of(i) for i, f in enumerate(_FACES[name])})


@settings(max_examples=150, deadline=None)
@given(case=_junk_thetas())
@hyp_example(case=_theta_text("fzero", lambda i: 0))
@hyp_example(case=_theta_text("conifold", lambda i: ["1/0", 0][i]))
@hyp_example(case=_theta_text("conifold", lambda i: [0.5, -0.5][i]))
@hyp_example(case=_theta_text("conifold", lambda i: [True, False][i]))
@hyp_example(case=_theta_text("honeycomb", lambda i: None))
@hyp_example(case=_theta_text("conifold", lambda i: [[1], [-1]][i]))
@hyp_example(case=("fzero", json.dumps({"f1": 1, "f2": -1, "f3": 0})))
@hyp_example(case=("conifold", json.dumps({"f1": 1, "f2": -1, "f3": 0})))
@hyp_example(case=("conifold", "[1, -1]"))
@hyp_example(case=_theta_text("conifold", lambda i: [10**300, -10**300][i]))
@hyp_example(case=("conifold", '{"f1": 1%s, "f2": 0}' % ("0" * 5000)))
@hyp_example(case=_theta_text("fzero", lambda i: ["1/" + "7" * 300, "-1/" + "7" * 300, 0, 0][i]))
@hyp_example(case=_theta_text("conifold", lambda i: ["1e3", "-1e3"][i]))
@hyp_example(case=_theta_text("fzero", lambda i: [3, -1, -1, -1][i]))
def test_junk_thetas_end_in_a_verdict(case):
    # a weight file of any content on a catalog model ends in an answer (0),
    # invalid input (2) or a negative verdict (3), never a bug (1) or a
    # traceback
    name, text = case
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "theta.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        for argv in (["fixed-points"], ["render", "--what", "domain"]):
            argv = argv + ["--example", name, "--theta", path]
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = main(argv)
            assert code in (0, 2, 3), (argv, text[:200])
