"""The library names the benchmark under ``bench/`` looks up.

``bench/spans.py`` rebinds every ``TRACED`` function by name, and the
workloads and their smoke tests read names off ``ttebench.harness``.
A refactor that drops one of them breaks the benchmark, which tier-1
does not run, so these tests read the bench files without changing
them and check that every name still resolves.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load_spans():
    spec = importlib.util.spec_from_file_location(
        "bench_spans", BENCH / "spans.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACED = _load_spans().TRACED


@pytest.mark.parametrize("qualname", TRACED)
def test_traced_names_resolve(qualname):
    module_name, func_name = qualname.rsplit(".", 1)
    module = importlib.import_module(f"ttebench.{module_name}")
    assert callable(getattr(module, func_name, None)), qualname


@pytest.mark.parametrize("filename", ["workloads.py", "test_bench.py"])
def test_harness_names_read_by_the_benchmark_resolve(filename):
    harness = importlib.import_module("ttebench.harness")
    tree = ast.parse((BENCH / filename).read_text(encoding="utf-8"))
    names = {
        node.attr for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name) and node.value.id == "harness"
    }
    assert names, filename
    missing = sorted(name for name in names if not hasattr(harness, name))
    assert not missing, (filename, missing)
