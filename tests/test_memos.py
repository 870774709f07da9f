"""Derived indexes live on the object they describe and die with it."""

import contextlib
import copy
import gc
import io
import random
import types
import weakref
from fractions import Fraction

import pytest

from dimerkit import (
    Arrow,
    BipartiteGraph,
    Chart,
    ChartClassification,
    ChartCone,
    CocharLattice,
    Cone3,
    CoverFragment,
    DimerEdge,
    DimerModel,
    DimerVertex,
    Face,
    FaceTrace,
    FanResult,
    FixedPointCandidate,
    FundamentalDomain,
    LatticePolygon,
    LaurentPoly2,
    PathSeq,
    Quiver,
    RelationPair,
    Splitting,
    Theta,
    ValidationCheck,
    ValidationReport,
    assemble_fan,
    char_poly,
    chart_characters,
    chart_rows,
    classify_chart,
    cochar_lattice,
    cone_over_polygon,
    dual_cone,
    enumerate_fixed_candidates,
    example,
    from_model,
    fundamental_domain,
    lift_patch,
    newton_polygon,
    perfect_matchings,
    quiver_of,
    r_charge_average,
    relations,
    sample_generic_theta,
    split_by_reference,
    trace_faces,
    validate_model,
)
from dimerkit import cli, matchings, quiver
from oracles import constraint_matrix


def _pipeline(model):
    assert validate_model(model).ok
    q = quiver_of(model)
    relations(q)
    cochar_lattice(q)
    char_poly(model)
    r_charge_average(from_model(model))
    assert assemble_fan(model, seed=0).report.ok
    return q


def test_model_and_quiver_freed_after_pipeline():
    model = example("conifold")
    q = _pipeline(model)
    refs = weakref.ref(model), weakref.ref(q), weakref.ref(from_model(model))
    del model, q
    gc.collect()
    assert [r() for r in refs] == [None, None, None]


def test_pipeline_never_hashes_model_or_quiver(monkeypatch):
    # nor a graph or a splitting
    def unhashable(self):
        raise AssertionError(f"{type(self).__name__} hashed")

    monkeypatch.setattr(DimerModel, "__hash__", unhashable)
    monkeypatch.setattr(Quiver, "__hash__", unhashable)
    monkeypatch.setattr(BipartiteGraph, "__hash__", unhashable)
    monkeypatch.setattr(Splitting, "__hash__", unhashable)
    model = example("conifold")
    q = _pipeline(model)
    assert quiver_of(model) is q
    assert from_model(model) is from_model(model)
    _chart(example("fzero"))


def _chart(model):
    """One chart's rows built by hand, with the splitting they went through."""
    q = quiver_of(model)
    split = split_by_reference(q, perfect_matchings(model)[0])
    theta = sample_generic_theta(q, split.base, random.Random(0))[0]
    cand = enumerate_fixed_candidates(model, theta)[0]
    cls = classify_chart(model, cand)
    rows = chart_rows(q, split, chart_characters(q, cand, cls.coordinate_edges))
    return cand, split, rows


def test_chart_indexes_freed_with_their_owners():
    # the face trace, the dart steps and the edge ends a chart reads live on
    # their model, in its instance __dict__ and held by nothing else: freed
    # together with it
    model = example("fzero")
    cand, split, _ = _chart(model)
    for key in ("trace_faces", "_dart_steps", "_edge_ends"):
        memo = model.__dict__[f"dimerkit.model.{key}"]
        holders = [
            r for r in gc.get_referrers(memo)
            if r is not model.__dict__ and not isinstance(r, types.FrameType)
        ]
        assert holders == [], key
    refs = weakref.ref(model), weakref.ref(cand), weakref.ref(split)
    del model, cand, split, memo
    gc.collect()
    assert [r() for r in refs] == [None, None, None]


def test_one_search_per_model(monkeypatch):
    graphs = []
    search = matchings._search

    def spy(g):
        graphs.append(g)
        return search(g)

    monkeypatch.setattr(matchings, "_search", spy)
    model = example("conifold")
    pms = perfect_matchings(model)
    char_poly(model)
    char_poly(model, base=pms[-1])
    r_charge_average(from_model(model))
    assert assemble_fan(model, seed=0).report.ok
    assert len(graphs) == 1 and graphs[0] is from_model(model)


def test_matchings_kept_once():
    # one tuple of edge-id sets per graph, returned by every call
    model = example("fzero")
    pms = perfect_matchings(model)
    assert perfect_matchings(model) is pms
    assert matchings.enumerate_matchings(from_model(model)) is pms


def test_frontier_order_built_once(monkeypatch):
    # the search and the sweeps of the polynomial and the charges share it
    calls = []
    order = matchings._black_order

    def spy(g):
        calls.append(g)
        return order(g)

    monkeypatch.setattr(matchings, "_black_order", spy)
    model = example("fzero")
    perfect_matchings(model)
    char_poly(model)
    r_charge_average(from_model(model))
    assert calls == [from_model(model)]


def _count_walks(monkeypatch) -> list:
    walks = []
    walk = quiver._walk_cycles

    def spy(q):
        walks.append(q)
        return walk(q)

    monkeypatch.setattr(quiver, "_walk_cycles", spy)
    return walks


def test_quiver_indexes_built_once(monkeypatch):
    # one walk of the vertex cycles serves the relations, the lattice, the
    # splitting and every membership test
    walks = _count_walks(monkeypatch)
    model = example("fzero")
    q = _pipeline(model)
    split_by_reference(q, perfect_matchings(model)[0])
    assert walks == [q]
    assert constraint_matrix(q) is constraint_matrix(q)
    assert q.arrow_ids is q.arrow_ids
    assert q.arrow_pos is q.arrow_pos
    assert q.ends is q.ends
    assert [q.arrow_pos[aid] for aid in q.arrow_ids] == list(range(len(q.arrows)))


def test_fan_builds_no_relation_paths(monkeypatch):
    # the fan and `dimer fixed-points` read the walk, one per quiver, and
    # never the relation paths
    walks = _count_walks(monkeypatch)
    built = []

    def spy(q):
        built.append(q)
        return relations(q)

    for ns in (quiver, cli):
        monkeypatch.setattr(ns, "relations", spy)
    model = example("fzero")
    assert assemble_fan(model, seed=0).report.ok
    assert walks == [quiver_of(model)]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["fixed-points", "--example", "fzero", "--seed", "1"]) == 0
    assert len(walks) == 2 and built == []


# value records: built in bulk, read a few times, no memo of their own
RECORDS = (
    DimerVertex, DimerEdge, Face, ValidationCheck, ValidationReport, CoverFragment,
    Arrow, PathSeq, RelationPair, LaurentPoly2, LatticePolygon, CocharLattice,
    Cone3, FundamentalDomain, ChartClassification, FanResult,
)
# the frozen value classes: the model, the quiver, the graph and the weight
# own memos in their instance __dict__; the face trace, the splitting, the
# candidate and the chart's two classes keep none
OWNERS = (
    DimerModel, FaceTrace, Quiver, BipartiteGraph, Theta, Splitting,
    FixedPointCandidate, ChartCone, Chart,
)
# their fields, in constructor order
OWNER_FIELDS = {
    DimerModel: ("vertices", "edges", "rotation"),
    FaceTrace: ("faces", "face", "cell", "next"),
    Quiver: (
        "vertices", "arrows", "shifts", "white_next", "black_next", "offsets"
    ),
    BipartiteGraph: ("blacks", "whites", "edges"),
    Theta: ("values",),
    Splitting: (
        "base", "arrow_order", "pi_x", "pi_y", "level", "iso_det", "inverse"
    ),
    FixedPointCandidate: ("support", "cells"),
    ChartCone: ("rays", "det"),
    Chart: ("candidate", "classification", "rows", "cone"),
}


def _built(model):
    """The records the pipeline returns on ``model``, and one instance of
    each memo owner."""
    q = quiver_of(model)
    rels = relations(q)
    poly = newton_polygon(char_poly(model))
    report = validate_model(model)
    fan = assemble_fan(model, seed=0)
    chart = fan.charts[0]
    records = [
        *model.vertices, *model.edges, *trace_faces(model).faces,
        report, *report.checks, lift_patch(model, 1), *q.arrows, *rels,
        *(p for r in rels for p in (r.plus, r.minus)), char_poly(model),
        poly, cochar_lattice(q), cone_over_polygon(poly),
        dual_cone(cone_over_polygon(poly)),
        fundamental_domain(model, chart.candidate),
        *(c.classification for c in fan.charts), fan,
    ]
    owners = [
        model, trace_faces(model), q, from_model(model), fan.theta,
        split_by_reference(q, fan.base), chart.candidate, chart.cone, chart,
    ]
    return records, owners


@pytest.mark.parametrize("name", ["conifold", "honeycomb", "fzero"])
def test_records_are_tuples_and_owners_keep_a_dict(name):
    records, owners = _built(example(name))
    assert {type(r) for r in records} == set(RECORDS)
    assert [type(o) for o in owners] == list(OWNERS)
    for r in records:
        fields = tuple(getattr(r, f) for f in r._fields)
        assert isinstance(r, tuple) and not hasattr(r, "__dict__")
        assert r == fields and hash(r) == hash(fields), type(r).__name__
    for o in owners:
        assert isinstance(vars(o), dict)


@pytest.mark.parametrize("name", ["conifold", "honeycomb", "fzero"])
def test_owners_are_frozen_and_compare_by_fields(name):
    _, owners = _built(example(name))
    for o in owners:
        cls, names = type(o), OWNER_FIELDS[type(o)]
        fields = tuple(getattr(o, f) for f in names)
        for f in names:
            with pytest.raises(AttributeError):
                setattr(o, f, None)
            with pytest.raises(AttributeError):
                delattr(o, f)
        with pytest.raises(AttributeError):
            o.extra = None
        assert tuple(getattr(o, f) for f in names) == fields
        positional, by_name = cls(*fields), cls(**dict(zip(names, fields)))
        if cls is FaceTrace:  # by identity
            assert o == o and o != positional and o != copy.copy(o)
            assert hash(o) == object.__hash__(o)
            continue
        assert o == positional == by_name == copy.copy(o), cls.__name__
        assert positional is not o and o != fields and fields != o
        assert hash(o) == hash(positional) == hash(fields), cls.__name__


def test_quiver_fields_default_to_none():
    q = quiver_of(example("conifold"))
    bare = Quiver(q.vertices, q.arrows, shifts=q.shifts)
    assert (bare.white_next, bare.black_next, bare.offsets) == (None, None, None)
    assert bare != q
    with pytest.raises(TypeError):
        Quiver(q.vertices, q.arrows)
    with pytest.raises(TypeError):
        Quiver(q.vertices, q.arrows, q.shifts, colour=None)


def test_owner_repr_unchanged():
    model = example("conifold")
    assert repr(model) == (
        "DimerModel(vertices=(DimerVertex(id='b1', color='black', "
        "pos=(Fraction(0, 1), Fraction(0, 1))), DimerVertex(id='w1', "
        "color='white', pos=(Fraction(1, 2), Fraction(1, 2)))), "
        "edges=(DimerEdge(id='e1', black='b1', white='w1', offset=(0, 0)), "
        "DimerEdge(id='e2', black='b1', white='w1', offset=(-1, 0)), "
        "DimerEdge(id='e3', black='b1', white='w1', offset=(-1, -1)), "
        "DimerEdge(id='e4', black='b1', white='w1', offset=(0, -1))), "
        "rotation=(('b1', ('e1', 'e2', 'e3', 'e4')), "
        "('w1', ('e3', 'e4', 'e1', 'e2'))))"
    )
    assert repr(Theta((("f1", Fraction(-1, 2)), ("f2", Fraction(1, 2))))) == (
        "Theta(values=(('f1', Fraction(-1, 2)), ('f2', Fraction(1, 2))))"
    )
    assert repr(ChartCone(((0, 0, 1), (1, 1, 1), (0, 1, 1)), 1)) == (
        "ChartCone(rays=((0, 0, 1), (1, 1, 1), (0, 1, 1)), det=1)"
    )
    assert repr(trace_faces(model)) == (
        "FaceTrace(faces=(Face(id='f1', darts=(('e1', 1), ('e4', -1), "
        "('e3', 1), ('e2', -1))), Face(id='f2', darts=(('e1', -1), "
        "('e4', 1), ('e3', -1), ('e2', 1)))))"
    )


def test_record_repr_unchanged():
    assert repr(DimerEdge("e1", "b1", "w1", (0, 1))) == (
        "DimerEdge(id='e1', black='b1', white='w1', offset=(0, 1))"
    )
    assert repr(ValidationCheck("euler", False, "V - E + F = 1")) == (
        "ValidationCheck(name='euler', ok=False, detail='V - E + F = 1')"
    )
    assert repr(ValidationCheck("rotation", True)) == (
        "ValidationCheck(name='rotation', ok=True, detail='')"
    )
