"""The benchmark tracer can still find every name it rebinds.

``perfbench/tracing.py`` wraps functions of ``src/isoflag`` by name and
raises LookupError at install time when one is missing.  These tests load
it without installing it, so a rename in ``src/`` fails here rather than in
a traced benchmark run.
"""

import importlib.util
from pathlib import Path

import pytest

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
