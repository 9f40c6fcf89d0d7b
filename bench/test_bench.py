"""Smoke tests for the benchmark itself.

    python3 -m pytest -q bench

Every workload runs at its tiny size in both modes, the emitted metric
names and units must match ``BENCHMARK.json`` exactly, and every output
check must fail when it is given a wrong expectation.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import oracle  # noqa: E402
import workloads  # noqa: E402
from ttebench import dgp, harness  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_bench(workload: str, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "0.5", "--trace", str(trace),
         "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_runs_and_emits_exactly_the_declared_metrics(workload, trace):
    result = run_bench(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = {
        m["name"]: m["unit"]
        for m in SPEC["per_layer" if trace else "end_to_end"]
    }
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    assert emitted == declared
    if trace:
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        gap = abs(metrics["trace.wall_ms_per_cycle"]
                  - metrics["trace.self_sum_ms_per_cycle"])
        assert gap <= max(abs(metrics["trace.overhead_ms_per_cycle"]),
                          0.01 * metrics["trace.wall_ms_per_cycle"])
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_missing_sources_exit_nonzero_without_result(tmp_path):
    (tmp_path / "bench").mkdir()
    for path in BENCH.glob("*.py"):
        (tmp_path / "bench" / path.name).write_bytes(path.read_bytes())
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "study-b"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode != 0
    assert done.stdout == ""


# -- each check rejects a wrong expectation ----------------------------

@pytest.fixture(scope="module")
def study_report():
    config = harness.StudyConfig(
        scenario=workloads.SCEN_B, n_replicates=2, n_patients=1000,
        master_seed=11, bootstrap_iterations=10,
    )
    return harness.run_bias_study(config)


def test_study_check_passes_on_the_real_report(study_report):
    assert workloads.check_study_report(study_report) == []


def test_study_check_rejects_a_wrong_truth(study_report):
    problems = workloads.check_study_report(study_report, expected_truth=0.25)
    assert any("true_ate" in p for p in problems)


def test_study_check_rejects_a_wrong_replicate_estimate(study_report):
    def shifted(master_seed, r, n):
        ref = workloads.study_reference(master_seed, r, n)
        return {**ref, "ccw": ref["ccw"] + 1e-6}

    problems = workloads.check_study_report(study_report, reference=shifted)
    assert any("ccw replicate" in p for p in problems)


def test_study_check_rejects_a_wrong_failure_count(study_report):
    def failing(master_seed, r, n):
        return {**workloads.study_reference(master_seed, r, n), "npmle": None}

    problems = workloads.check_study_report(study_report, reference=failing)
    assert any("npmle failures" in p for p in problems)


def test_determinism_check_rejects_different_reports(study_report):
    text = study_report.to_json()
    assert workloads.check_same_report(text, text) == []
    assert workloads.check_same_report(text, text.replace("0", "1", 1))


@pytest.fixture(scope="module")
def roundtrip(tmp_path_factory):
    path = tmp_path_factory.mktemp("rt") / "cohort.csv"
    cohort = dgp.sample_cohort(dgp.default_dgp(workloads.SCEN_A),
                               workloads.SCEN_A, 500, 3)
    dgp.write_cohort_csv(cohort, path)
    counts = oracle.read_csv_counts(path)
    ates = {
        "npmle": oracle.npmle_ate(counts, False, (1, 1, 1), (0, 0, 0)),
        "ccw": oracle.ccw_ate(counts, (1, 1, 1), (0, 0, 0), current=True),
    }
    return counts, ates


def test_roundtrip_check_passes_on_matching_values(roundtrip):
    counts, ates = roundtrip
    assert workloads.check_roundtrip([0, 0, 0], ates, counts, 500) == []


@pytest.mark.parametrize("mutation", ["exit", "size", "npmle", "ccw"])
def test_roundtrip_check_rejects_a_wrong_expectation(roundtrip, mutation):
    counts, ates = roundtrip
    codes, n = [0, 0, 0], 500
    if mutation == "exit":
        codes = [0, 2, 0]
    elif mutation == "size":
        n = 501
    else:
        ates = {**ates, mutation: ates[mutation] + 1e-6}
    assert workloads.check_roundtrip(codes, ates, counts, n)


@pytest.fixture(scope="module")
def graph_result():
    graphs = workloads.GraphChecks(0, workloads.SIZES["tiny"], Path("."))
    results = {name: step() for name, step in graphs.steps(0)}
    assert graphs.check(0, results) == []
    identified = {code: results[f"identification {code}"] for code in "AB"}
    tables = {
        (code, regime): results[f"exchangeability {code} {regime}"]
        for code in "AB" for regime in ("always", "uniform_grace(3)")
    }
    return identified, tables


def test_graph_check_passes_on_the_real_tables(graph_result):
    identified, tables = graph_result
    assert workloads.check_graphs(identified, tables, 4) == []


def test_graph_check_rejects_an_unidentified_scenario(graph_result):
    identified, tables = graph_result
    problems = workloads.check_graphs({**identified, "B": False}, tables, 4)
    assert problems == ["scenario B not identified"]


@pytest.mark.parametrize("key", [("A", "always"), ("B", "always")])
def test_graph_check_rejects_a_flipped_cell(graph_result, key):
    identified, tables = graph_result
    flipped = dict(tables[key])
    flipped[(2, 3)] = not flipped[(2, 3)]
    assert workloads.check_graphs(identified, {**tables, key: flipped}, 4)


@pytest.mark.parametrize("code", ["A", "B"])
def test_graph_check_rejects_wrong_seed_tables(graph_result, code):
    identified, tables = graph_result
    name = f"{code} uniform_grace(3) T=4"
    rows = list(workloads.SEED_TABLES[name])
    rows[0] = "".join("1" if c == "0" else "0" for c in rows[0])
    wrong = {**workloads.SEED_TABLES, name: rows}
    assert workloads.check_graphs(identified, tables, 4, seed_tables=wrong)


def test_oracle_fails_exactly_where_the_library_raises():
    from ttebench import EmptyStratum, NoAtRiskRows, WeightConvention

    failures = 0
    for seed in range(40):
        cohort = dgp.sample_cohort(dgp.default_dgp(workloads.SCEN_B),
                                   workloads.SCEN_B, 12, seed)
        counts = oracle.count_trajectories(
            (t.x, t.y) for t in cohort.trajectories)
        try:
            want = harness.ccw_ate(cohort, workloads.SCEN_B, workloads.ALWAYS,
                                   harness.Regime.never(),
                                   WeightConvention.CURRENT_PERIOD).ate
        except (EmptyStratum, NoAtRiskRows):
            want = None
        got = oracle.ccw_ate(counts, (1, 1, 1), (0, 0, 0), current=True)
        assert (got is None) == (want is None)
        if want is None:
            failures += 1
        else:
            assert abs(got - want) <= workloads.ATE_TOL
    assert failures > 0
