"""The library names and results the benchmark under ``bench/`` relies on.

``bench/spans.py`` rebinds every ``TRACED`` function by name, the
workloads and their smoke tests read names off ``ttebench.harness``,
the ``graph-checks`` workload compares its tables with
``bench/seed_tables.json``, and the ``study-b`` workload checks every
replicate of its studies against ``bench/oracle.py``. A refactor that
drops one of the names, changes one of the tables or moves an estimate
breaks the benchmark, which tier-1 does not run, so these tests read
the bench files without changing them and check that every name still
resolves, every seed table still holds and the study check passes.
"""

import ast
import dataclasses
import json
import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load_bench(name: str):
    spec = importlib.util.spec_from_file_location(
        f"bench_{name}", BENCH / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACED = _load_bench("spans").TRACED


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


@pytest.mark.parametrize("T", [4, 6])
@pytest.mark.parametrize("code", ["A", "B"])
def test_exchangeability_tables_match_the_benchmark_seed_tables(code, T):
    scenarios = importlib.import_module("ttebench.scenarios")
    seed = json.loads((BENCH / "seed_tables.json").read_text(encoding="utf-8"))
    regime = scenarios.Regime.uniform_grace(3)
    table = scenarios.exchangeability_table(
        scenarios.ScenarioKind.from_code(code), T, regime
    )
    rows = seed[f"{code} {regime.describe()} T={T}"]
    assert [
        "".join(str(int(table[(i, k)])) for k in range(1, T + 1))
        for i in range(1, T + 1)
    ] == rows


def test_study_check_of_the_benchmark_passes(monkeypatch, tmp_path):
    # ``workloads.py`` imports the bench oracle as the top-level ``oracle``.
    monkeypatch.setitem(sys.modules, "oracle", _load_bench("oracle"))
    workloads = _load_bench("workloads")
    harness = importlib.import_module("ttebench.harness")
    study = workloads.StudyB(20260815, workloads.SIZES["full"], tmp_path)
    for cycle in range(3):
        report = harness.run_bias_study(study.config(cycle))
        assert workloads.check_study_report(report) == []

    summary = report.summaries["ccw"]
    estimates = list(summary.estimates)
    r = next(i for i, e in enumerate(estimates) if e is not None)
    estimates[r] += 1e-6
    nudged = dataclasses.replace(report, summaries={
        **report.summaries,
        "ccw": dataclasses.replace(summary, estimates=tuple(estimates)),
    })
    problems = workloads.check_study_report(nudged)
    assert len(problems) == 1
    assert problems[0].startswith(f"ccw replicate {r}: {estimates[r]!r} != ")
