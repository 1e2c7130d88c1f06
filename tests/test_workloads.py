"""The benchmark's own output checks pass on the program as it stands.

``perfbench/workloads.py`` lists the benchmark's items and the check that
judges each output; ``perfbench/expected.json`` records the digest of
every exact payload (g, T, pairing tables).  These tests load the module
by path, without changing it, run every ``sweep``, ``tables`` and
``count`` item through its check, and compare the digests, so a change
that alters an output fails here rather than in a benchmark run.
"""

import importlib.util
import json
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", ["sweep", "tables", "count"])
def test_items_pass_their_checks(workloads, name):
    expected = json.loads((PERFBENCH / "expected.json").read_text())
    recorded = expected.get(name, {})
    items = workloads.WORKLOADS[name](workloads.standard_fields())
    assert items
    problems, digests = {}, {}
    for item in items:
        found, payload = item.check(item.run())
        if payload is not None:
            digests[item.key] = workloads.digest(payload)
            if digests[item.key] != recorded.get(item.key):
                found = found + ["digest differs from expected.json"]
        if found:
            problems[item.key] = found
    assert problems == {}
    # every recorded digest belongs to an item that produced one
    assert digests.keys() == recorded.keys()
