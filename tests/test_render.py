"""SVG rendering: determinism and basic content checks."""

import pytest

from dimerkit import (
    DimerEdge,
    DimerModel,
    DimerVertex,
    InvalidModelError,
    Theta,
    char_poly,
    enumerate_fixed_candidates,
    example,
    newton_polygon,
    render_domain,
    render_model,
    render_polygon,
)

conifold = example("conifold")


def test_render_model_deterministic():
    one = render_model(conifold)
    two = render_model(conifold)
    assert one == two
    assert one.startswith("<svg")
    assert one.rstrip().endswith("</svg>")


def test_matching_overlay_changes_output():
    plain = render_model(conifold)
    overlay = render_model(conifold, matching={"e1"})
    assert plain != overlay and "<svg" in overlay


def test_missing_positions_fall_back_to_grid(capsys):
    bare = DimerModel(
        vertices=(DimerVertex("b1", "black"), DimerVertex("w1", "white")),
        edges=(
            DimerEdge("e1", "b1", "w1", (0, 0)),
            DimerEdge("e2", "b1", "w1", (-1, 0)),
            DimerEdge("e3", "b1", "w1", (0, -1)),
        ),
        rotation=(("b1", ("e1", "e2", "e3")), ("w1", ("e1", "e2", "e3"))),
    )
    svg = render_model(bare)
    assert svg.startswith("<svg")
    assert "warning" in capsys.readouterr().err
    # the fallback is itself deterministic
    assert svg == render_model(bare)


def test_render_polygon():
    svg = render_polygon(newton_polygon(char_poly(conifold)))
    assert svg.startswith("<svg") and "polygon" in svg
    assert svg == render_polygon(newton_polygon(char_poly(conifold)))
    # all four hull vertices carry coordinate labels
    for label in ("(0, 0)", "(1, 0)", "(1, 1)", "(0, 1)"):
        assert label in svg


def test_render_model_block_size():
    small = render_model(conifold, cells=1)
    large = render_model(conifold, cells=3)
    assert small != large
    with pytest.raises(InvalidModelError):
        render_model(conifold, cells=0)


def test_render_domain():
    cand = enumerate_fixed_candidates(conifold, Theta((("f1", 3), ("f2", -3))))[0]
    svg = render_domain(conifold, cand)
    assert svg.startswith("<svg")
    assert svg == render_domain(conifold, cand)
