"""Derived indexes live on the object they describe and die with it."""

import gc
import weakref

from dimerkit import (
    DimerModel,
    Quiver,
    assemble_fan,
    cochar_lattice,
    example,
    quiver_of,
    relations,
    validate_model,
)


def _pipeline(model):
    assert validate_model(model).ok
    q = quiver_of(model)
    relations(q)
    cochar_lattice(q)
    assert assemble_fan(model, seed=0).report.ok
    return q


def test_model_and_quiver_freed_after_pipeline():
    model = example("conifold")
    q = _pipeline(model)
    refs = weakref.ref(model), weakref.ref(q)
    del model, q
    gc.collect()
    assert [r() for r in refs] == [None, None]


def test_pipeline_never_hashes_model_or_quiver(monkeypatch):
    def unhashable(self):
        raise AssertionError(f"{type(self).__name__} hashed")

    monkeypatch.setattr(DimerModel, "__hash__", unhashable)
    monkeypatch.setattr(Quiver, "__hash__", unhashable)
    model = example("conifold")
    q = _pipeline(model)
    assert quiver_of(model) is q
