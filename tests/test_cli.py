"""Command line interface: exit codes, payload shapes, determinism."""

import argparse
import hashlib
import importlib.util
import json
import os
import subprocess
import sys
import time

import pytest

from conftest import cover
from dimerkit import DimerEdge, DimerModel, dump_model, example, model_to_dict
from dimerkit.cli import _COMMANDS, build_parser, main

# the dice lattice: a valid tiling of the torus with two blacks, one white
# and hence no perfect matching
DICE = os.path.join(os.path.dirname(__file__), "data", "dice.json")
# the honeycomb with e3's offset moved to (2, 1): a valid tiling whose vertex
# positions wind the fundamental domains clockwise against the rotation system
WOUND = os.path.join(os.path.dirname(__file__), "data", "honeycomb_wound.json")
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


def test_check_past_a_cap_reports_null(capsys, tmp_path):
    # 21 blacks: strong-marriage would scan 2^21 subsets, so it gives no
    # verdict; the others agree and per-edge sets the exit code
    path = tmp_path / "honeycomb-7x3.json"
    dump_model(cover(example("honeycomb"), 7, 3), str(path))
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


def test_wound_positions_are_invalid_input(capsys):
    code, data = run_json(capsys, "validate", WOUND)
    assert code == 0 and data["ok"] is True
    for argv in (["fixed-points"], ["render", "--what", "domain"]):
        assert main([argv[0], WOUND, *argv[1:]]) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(
            "error: vertex positions disagree with the rotation system"
        ), argv


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
    env = dict(os.environ)
    env.pop("PYTHONUNBUFFERED", None)  # stdout block-buffered, as on a pipe
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src"), env.get("PYTHONPATH", "")]
    )
    for argv in argvs:
        proc = subprocess.Popen(
            [sys.executable, "-m", "dimerkit.cli", *argv],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        )
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
        assert (proc.returncode, err) == (141, b""), argv


def _exits(capsys, call):
    with pytest.raises(SystemExit) as exc:
        call()
    captured = capsys.readouterr()
    return exc.value.code, captured.out, captured.err


def _usage_argvs():
    """Parser-level argvs: no command, help, an unknown command, and per
    command its help, a bad --example, a bad int option and an extra
    positional."""
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


@pytest.mark.parametrize("argv", list(_usage_argvs()), ids=" ".join)
def test_one_command_parser_matches_whole_parser(capsys, monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps to the terminal
    whole = _exits(capsys, lambda: build_parser().parse_args(argv))
    assert _exits(capsys, lambda: main(argv)) == whole


def _count_add_parser(monkeypatch):
    """The names of the command parsers built from here on."""
    calls = []
    add_parser = argparse._SubParsersAction.add_parser

    def counted(self, name, **kwargs):
        calls.append(name)
        return add_parser(self, name, **kwargs)

    monkeypatch.setattr(argparse._SubParsersAction, "add_parser", counted)
    return calls


def test_call_builds_only_its_own_command(capsys, monkeypatch):
    calls = _count_add_parser(monkeypatch)
    assert main(["fixed-points", "--example", "conifold"]) == 0
    assert calls == ["fixed-points"]


def test_main_reads_sys_argv(capsys, monkeypatch):
    # the path the dimer console script takes
    calls = _count_add_parser(monkeypatch)
    monkeypatch.setattr(sys, "argv", ["dimer", "validate", "--example", "fzero"])
    assert main() == 0
    assert json.loads(capsys.readouterr().out)["ok"] is True
    assert calls == ["validate"]


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
