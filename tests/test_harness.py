"""Bias-study replication engine and its summaries."""

import csv
import json

import pytest

from ttebench import (
    AllReplicatesFailed,
    BiasReport,
    EstimatorSummary,
    Regime,
    ScenarioKind,
    StudyConfig,
    WORKERS_ENV_VAR,
    WeightConvention,
    parameter_count,
    run_bias_study,
    write_estimates_csv,
)

SCEN_A = ScenarioKind.from_code("A")
SCEN_B = ScenarioKind.from_code("B")


def small_config(**overrides):
    base = dict(
        scenario=SCEN_A,
        n_replicates=8,
        n_patients=200,
        master_seed=1,
        bootstrap_iterations=100,
    )
    base.update(overrides)
    return StudyConfig(**base)


# ------------------------------------------------------------ configuration


def test_config_validation():
    with pytest.raises(ValueError, match="n_replicates"):
        small_config(n_replicates=0)
    with pytest.raises(ValueError, match="n_patients"):
        small_config(n_patients=True)
    with pytest.raises(ValueError, match="bootstrap_iterations"):
        small_config(bootstrap_iterations=-1)
    with pytest.raises(ValueError, match="unknown estimator"):
        small_config(estimators=("npmle", "aipw"))
    with pytest.raises(ValueError, match="duplicates"):
        small_config(estimators=("npmle", "npmle"))
    with pytest.raises(ValueError, match="nonempty"):
        small_config(estimators=())
    with pytest.raises(ValueError, match="master_seed must be an integer"):
        small_config(master_seed="x")
    with pytest.raises(ValueError, match="report_path must be a string"):
        small_config(report_path=5)


def test_config_json_round_trip():
    config = small_config(
        scenario=SCEN_B,
        weight_convention=WeightConvention.CURRENT_PERIOD,
        treat=Regime.initiate_at(2),
        report_path="out/report.json",
    )
    again = StudyConfig.from_json(config.to_json())
    assert again == config


def test_config_from_json_defaults_and_errors():
    config = StudyConfig.from_json('{"scenario": "A"}')
    assert config.scenario is SCEN_A
    assert config.n_replicates == 1000
    assert config.n_patients == 1000
    assert config.estimators == ("npmle", "ccw")
    assert config.weight_convention is WeightConvention.LAGGED
    assert config.treat == Regime.always_from_start()
    assert config.control == Regime.never()

    with pytest.raises(ValueError, match="scenario"):
        StudyConfig.from_json('{"n_replicates": 10}')
    with pytest.raises(ValueError, match="unknown config keys"):
        StudyConfig.from_json('{"scenario": "A", "replicates": 10}')
    with pytest.raises(ValueError, match="not valid JSON"):
        StudyConfig.from_json("{")
    with pytest.raises(ValueError, match="must be an object"):
        StudyConfig.from_json("[1, 2]")


# -------------------------------------------------------------- determinism


def test_reports_are_byte_identical_across_runs_and_workers(monkeypatch):
    config = small_config()
    first = run_bias_study(config).to_json()
    second = run_bias_study(config).to_json()
    assert first == second
    monkeypatch.setenv(WORKERS_ENV_VAR, "3")
    parallel = run_bias_study(config).to_json()
    assert parallel == first


def test_worker_count_env_validation(monkeypatch):
    config = small_config(n_replicates=2, n_patients=50, bootstrap_iterations=10)
    monkeypatch.setenv(WORKERS_ENV_VAR, "zero")
    with pytest.raises(ValueError, match=WORKERS_ENV_VAR):
        run_bias_study(config)
    monkeypatch.setenv(WORKERS_ENV_VAR, "0")
    with pytest.raises(ValueError, match=WORKERS_ENV_VAR):
        run_bias_study(config)


def test_master_seed_changes_estimates():
    r1 = run_bias_study(small_config(master_seed=1))
    r2 = run_bias_study(small_config(master_seed=2))
    assert r1.summaries["npmle"].estimates != r2.summaries["npmle"].estimates


# ----------------------------------------------------------------- summaries


def test_summary_arithmetic_and_shape():
    config = small_config()
    report = run_bias_study(config)
    assert set(report.summaries) == {"npmle", "ccw"}
    assert report.true_ate == pytest.approx(0.2375, abs=1e-12)
    for summary in report.summaries.values():
        assert len(summary.estimates) == config.n_replicates
        values = [e for e in summary.estimates if e is not None]
        assert summary.failures == config.n_replicates - len(values)
        assert summary.mean_bias == pytest.approx(
            sum(values) / len(values) - report.true_ate, abs=1e-12
        )
        assert summary.ci_lower <= summary.ci_upper


def test_partial_failures_are_recorded_not_fatal():
    config = StudyConfig(
        scenario=SCEN_B,
        n_replicates=40,
        n_patients=10,
        master_seed=5,
        bootstrap_iterations=50,
    )
    report = run_bias_study(config)
    for name in ("npmle", "ccw"):
        summary = report.summaries[name]
        assert 0 < summary.failures < config.n_replicates
        assert any(e is None for e in summary.estimates)
        assert any(e is not None for e in summary.estimates)


def test_all_replicates_failed_raises():
    config = StudyConfig(
        scenario=SCEN_B,
        n_replicates=3,
        n_patients=1,
        master_seed=0,
        estimators=("npmle",),
        bootstrap_iterations=10,
    )
    with pytest.raises(AllReplicatesFailed, match="npmle"):
        run_bias_study(config)


def test_bootstrap_interval_tightens_with_more_replicates():
    narrow = run_bias_study(
        small_config(n_replicates=64, n_patients=100, bootstrap_iterations=200)
    )
    wide = run_bias_study(
        small_config(n_replicates=8, n_patients=100, bootstrap_iterations=200)
    )
    for name in ("npmle", "ccw"):
        w_narrow = (
            narrow.summaries[name].ci_upper - narrow.summaries[name].ci_lower
        )
        w_wide = wide.summaries[name].ci_upper - wide.summaries[name].ci_lower
        assert w_narrow < w_wide


def test_weight_convention_drives_ccw_bias_direction():
    base = dict(
        scenario=SCEN_B,
        n_replicates=30,
        n_patients=400,
        master_seed=3,
        estimators=("ccw",),
        bootstrap_iterations=50,
    )
    lagged = run_bias_study(StudyConfig(**base))
    current = run_bias_study(
        StudyConfig(**base, weight_convention=WeightConvention.CURRENT_PERIOD)
    )
    assert lagged.summaries["ccw"].mean_bias < -0.04
    assert abs(current.summaries["ccw"].mean_bias) < 0.04


# ------------------------------------------------------------------ outputs


def test_report_json_shape_and_runtime_exclusion():
    report = run_bias_study(small_config())
    assert report.runtime_seconds > 0.0
    payload = json.loads(report.to_json())
    assert "runtime_seconds" not in payload
    assert payload["scenario"] == "A"
    assert payload["weight_convention"] == "lagged"
    assert payload["treat"] == "always"
    assert payload["control"] == "never"
    assert set(payload["estimators"]) == {"npmle", "ccw"}
    summary = payload["estimators"]["npmle"]
    assert set(summary) == {
        "estimates",
        "mean_bias",
        "ci_lower",
        "ci_upper",
        "failures",
    }
    assert isinstance(report, BiasReport)
    assert isinstance(report.summaries["npmle"], EstimatorSummary)


def test_write_estimates_csv(tmp_path):
    config = StudyConfig(
        scenario=SCEN_B,
        n_replicates=40,
        n_patients=10,
        master_seed=5,
        bootstrap_iterations=50,
    )
    report = run_bias_study(config)
    path = tmp_path / "estimates.csv"
    write_estimates_csv(report, path)
    with open(path, newline="") as fh:
        records = list(csv.DictReader(fh))
    assert len(records) == 40
    assert list(records[0]) == ["replicate", "npmle", "ccw"]
    assert [int(r["replicate"]) for r in records] == list(range(40))
    blanks = sum(1 for r in records if r["npmle"] == "")
    assert blanks == report.summaries["npmle"].failures
    filled = next(r["npmle"] for r in records if r["npmle"] != "")
    assert isinstance(float(filled), float)


# ----------------------------------------------------------- parameter count


def test_parameter_count_headline_example():
    assert parameter_count(365, 28, 365, 1) == 10584


def test_parameter_count_scales_linearly_in_baseline_levels():
    base = parameter_count(365, 28, 365, 1)
    for c in (2, 5):
        assert parameter_count(365, 28, 365, c) == c * (base + 1) - 1


def test_parameter_count_validation():
    with pytest.raises(ValueError):
        parameter_count(0, 28, 365, 1)
    with pytest.raises(ValueError):
        parameter_count(365, 28, 365, True)
    with pytest.raises(ValueError):
        parameter_count(365, -1, 365, 1)
