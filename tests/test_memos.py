"""Derived indexes live on the object they describe and die with it."""

import gc
import weakref

from dimerkit import (
    BipartiteGraph,
    DimerModel,
    Quiver,
    assemble_fan,
    char_poly,
    cochar_lattice,
    example,
    from_model,
    perfect_matchings,
    quiver_of,
    r_charge_average,
    relations,
    validate_model,
)
from dimerkit import lattice, matchings
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
    def unhashable(self):
        raise AssertionError(f"{type(self).__name__} hashed")

    monkeypatch.setattr(DimerModel, "__hash__", unhashable)
    monkeypatch.setattr(Quiver, "__hash__", unhashable)
    monkeypatch.setattr(BipartiteGraph, "__hash__", unhashable)
    model = example("conifold")
    q = _pipeline(model)
    assert quiver_of(model) is q
    assert from_model(model) is from_model(model)


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


def test_quiver_indexes_built_once(monkeypatch):
    # the cycle index serves both the lattice and every membership test
    calls = []
    rels = lattice.relations

    def spy(q):
        calls.append(q)
        return rels(q)

    monkeypatch.setattr(lattice, "relations", spy)
    model = example("fzero")
    q = _pipeline(model)
    assert calls == [q]
    assert constraint_matrix(q) is constraint_matrix(q)
    assert q.arrow_ids is q.arrow_ids
    assert q.arrow_pos is q.arrow_pos
    assert [q.arrow_pos[aid] for aid in q.arrow_ids] == list(range(len(q.arrows)))
