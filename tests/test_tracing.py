"""The benchmark tracer can still find every name it rebinds.

``perfbench/tracing.py`` wraps functions of ``src/isoflag`` by name and
raises LookupError at install time when one is missing.  These tests load
it without installing it, so a rename in ``src/`` fails here rather than in
a traced benchmark run.  The last test holds the counting filter to what
the tracer's ``counting.filter`` span and ``counting.unipotent_count``
read off it.
"""

import importlib.util
from collections import Counter
from pathlib import Path

import pytest

from isoflag import counting
from isoflag.shapes import ShapeSeq

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def referenced(tracing, obj) -> bool:
    """Whether a module global or class attribute in the tracer's modules
    holds ``obj``, as its rebinding needs."""
    for module in tracing.MODULES:
        for value in vars(module).values():
            if value is obj:
                return True
            if isinstance(value, type) and \
                    value.__module__ == module.__name__ and \
                    any(member is obj for member in vars(value).values()):
                return True
    return False


def test_every_traced_name_resolves(tracing):
    entries = tracing.SPANS + tracing.TIMED_LEAVES + tracing.COUNTED_LEAVES
    for module, qualname, _name in entries:
        fn = tracing._lookup(module, qualname)
        assert callable(fn), qualname
        assert referenced(tracing, fn), qualname


def test_rebound_dunders_and_properties_exist(tracing):
    import isoflag.fields
    import isoflag.linalg

    fe = isoflag.fields.FieldElement
    for dunder in ("__mul__", "__add__"):
        assert referenced(tracing, fe.__dict__[dunder]), dunder
    assert isinstance(fe.__dict__["is_zero"], property)
    assert callable(fe.__dict__["is_zero"].fget)
    assert referenced(tracing, fe.__dict__["is_zero"])
    assert referenced(tracing, isoflag.fields.TowerField.extend)
    assert referenced(tracing, isoflag.linalg.Matrix.__mul__)


def test_filter_spans_one_class_walk(monkeypatch):
    # counting.filter_s times unipotents_of_type and counting.unipotent_count
    # is the length of its result; one count makes one filter call and one
    # class split
    splits, results = [], []
    split, filter_ = counting.conjugacy_classes, counting.unipotents_of_type
    monkeypatch.setattr(counting, "conjugacy_classes",
                        lambda *args: splits.append(args) or split(*args))
    monkeypatch.setattr(counting, "unipotents_of_type",
                        lambda *args: results.append(filter_(*args))
                        or results[-1])
    space = counting.FiniteFormSpace(counting.SP, 4, 3)
    report = counting.count_pairs(space, Counter({4: 1}),
                                  shape=ShapeSeq((2,)))
    [unis] = results
    assert len(splits) == 1
    assert len(unis) == report["unipotent_count"] == 5760
