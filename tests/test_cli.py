"""Command-line interface: subcommands, outputs, exit codes."""

import csv
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import ttebench.harness as harness_mod
from ttebench import (
    WORKERS_ENV_VAR,
    Regime,
    StudyConfig,
    WorkbenchError,
    dgp_to_json,
    default_dgp,
    parse_dot,
    read_cohort_csv,
    ScenarioKind,
)
from ttebench.cli import main

SCEN_B = ScenarioKind.from_code("B")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ----------------------------------------------------------------- simulate


def test_simulate_stdout_and_file_agree(tmp_path, capsys):
    code, out, err = run_cli(
        capsys, "simulate", "--scenario", "A", "--n", "5", "--seed", "3"
    )
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert lines[0] == "id,period,x,y"
    assert len(lines) == 1 + 5 * 3

    path = tmp_path / "cohort.csv"
    code, _, _ = run_cli(
        capsys,
        "simulate", "--scenario", "A", "--n", "5", "--seed", "3",
        "--output", str(path),
    )
    assert code == 0
    assert path.read_text() == out


@pytest.mark.parametrize("scenario", ["A", "B"])
def test_simulate_stdout_bytes_equal_output_file_bytes(tmp_path, scenario):
    argv = [sys.executable, "-m", "ttebench", "simulate", "--scenario",
            scenario, "--n", "300", "--seed", "11"]
    path = tmp_path / "cohort.csv"
    to_stdout = subprocess.run(argv, capture_output=True, check=True)
    to_file = subprocess.run(
        argv + ["--output", str(path)], capture_output=True, check=True
    )
    assert to_stdout.stderr == b"" and to_file.stdout == b""
    assert to_stdout.stdout == path.read_bytes()


def test_simulate_is_seed_deterministic(capsys):
    _, first, _ = run_cli(
        capsys, "simulate", "--scenario", "B", "--n", "20", "--seed", "9"
    )
    _, second, _ = run_cli(
        capsys, "simulate", "--scenario", "B", "--n", "20", "--seed", "9"
    )
    _, third, _ = run_cli(
        capsys, "simulate", "--scenario", "B", "--n", "20", "--seed", "10"
    )
    assert first == second
    assert first != third


def test_simulate_with_custom_dgp(tmp_path, capsys):
    dgp_path = tmp_path / "dgp.json"
    dgp_path.write_text(dgp_to_json(default_dgp(SCEN_B)))
    out_path = tmp_path / "cohort.csv"
    code, _, err = run_cli(
        capsys,
        "simulate", "--scenario", "B", "--n", "30", "--seed", "1",
        "--dgp", str(dgp_path), "--output", str(out_path),
    )
    assert code == 0 and err == ""
    cohort = read_cohort_csv(out_path, SCEN_B)
    assert cohort.n == 30

    # Mistyped table entries are exit 1 with one error line.
    for field, value in [
        ("p", "0.5"), ("p", True), ("p", None), ("p", math.nan),
        ("p", math.inf), ("period", "1"), ("period", True), ("period", 1.0),
        ("history", [True]), ("history", ["1"]), ("history", [1.0]),
    ]:
        table = json.loads(dgp_to_json(default_dgp(SCEN_B)))
        table["hazard"][-1][field] = value
        dgp_path.write_text(json.dumps(table))
        code, out, err = run_cli(
            capsys,
            "simulate", "--scenario", "B", "--n", "3", "--seed", "1",
            "--dgp", str(dgp_path),
        )
        assert code == 1, (field, value)
        assert out == "" and "Traceback" not in err
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ValueError: ")
        assert "hazard" in lines[0], (field, value, lines)


# ----------------------------------------------------------------- estimate


def make_cohort_csv(tmp_path, capsys, scenario="B", n=400, seed=12):
    path = tmp_path / f"cohort_{scenario}_{n}_{seed}.csv"
    code, _, err = run_cli(
        capsys,
        "simulate", "--scenario", scenario, "--n", str(n),
        "--seed", str(seed), "--output", str(path),
    )
    assert code == 0, err
    return path


def test_estimate_npmle_to_stdout(tmp_path, capsys):
    cohort = make_cohort_csv(tmp_path, capsys)
    code, out, err = run_cli(
        capsys, "estimate", "--scenario", "B", "--cohort", str(cohort)
    )
    assert code == 0 and err == ""
    payload = json.loads(out)
    assert set(payload) == {
        "ate",
        "survival_treat",
        "survival_control",
        "diagnostics",
    }
    assert payload["diagnostics"]["method"] == "npmle"
    assert -1.0 <= payload["ate"] <= 1.0


def test_estimate_ccw_current_matches_npmle(tmp_path, capsys):
    cohort = make_cohort_csv(tmp_path, capsys)
    _, out_npmle, _ = run_cli(
        capsys, "estimate", "--scenario", "B", "--cohort", str(cohort)
    )
    _, out_ccw, _ = run_cli(
        capsys,
        "estimate", "--scenario", "B", "--cohort", str(cohort),
        "--estimator", "ccw", "--weight-convention", "current",
    )
    ate_npmle = json.loads(out_npmle)["ate"]
    ate_ccw = json.loads(out_ccw)["ate"]
    assert ate_ccw == pytest.approx(ate_npmle, abs=1e-12)


def test_estimate_with_custom_regimes_and_output(tmp_path, capsys):
    cohort = make_cohort_csv(tmp_path, capsys, scenario="A", n=500, seed=4)
    out_path = tmp_path / "estimate.json"
    code, out, _ = run_cli(
        capsys,
        "estimate", "--scenario", "A", "--cohort", str(cohort),
        "--treat", "initiate_at(2)", "--control", "never",
        "--output", str(out_path),
    )
    assert code == 0 and out == ""
    payload = json.loads(out_path.read_text())
    assert len(payload["survival_treat"]) == 3


def test_estimate_reports_estimation_failure_as_exit_2(tmp_path, capsys):
    path = tmp_path / "degenerate.csv"
    path.write_text("id,period,x,y\n0,1,1,0\n1,1,1,0\n")
    code, out, err = run_cli(
        capsys, "estimate", "--scenario", "B", "--cohort", str(path)
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: EmptyStratum:")


def test_estimate_missing_file_is_exit_1(capsys):
    code, _, err = run_cli(
        capsys, "estimate", "--scenario", "B", "--cohort", "/nonexistent.csv"
    )
    assert code == 1
    assert err.startswith("error: FileNotFoundError:")


def test_estimate_bad_regime_descriptor_is_exit_1(tmp_path, capsys):
    cohort = make_cohort_csv(tmp_path, capsys, n=20)
    code, _, err = run_cli(
        capsys,
        "estimate", "--scenario", "B", "--cohort", str(cohort),
        "--treat", "sometimes",
    )
    assert code == 1
    assert err.startswith("error:")


def test_estimate_duplicate_csv_row_is_exit_1(tmp_path, capsys):
    cohort = make_cohort_csv(tmp_path, capsys, n=20)
    lines = cohort.read_text().splitlines()
    cohort.write_text("\n".join(lines + [lines[4]]) + "\n")
    code, out, err = run_cli(
        capsys, "estimate", "--scenario", "B", "--cohort", str(cohort)
    )
    assert code == 1
    assert out == ""
    assert err.splitlines() == [
        "error: ValueError: cohort CSV has a duplicate row for patient 1, "
        "period 1"
    ]


@pytest.mark.skipif(
    not os.path.exists("/dev/stdin"), reason="needs /dev/stdin"
)
@pytest.mark.parametrize(
    "corrupt, message",
    [
        (None, None),
        (lambda lines: lines + [lines[4]],
         "cohort CSV has a duplicate row for patient 1, period 1"),
        (lambda lines: lines[:7] + ["2,1,0"] + lines[8:],
         "cohort CSV line 8 has 3 fields, expected 4"),
        (lambda lines: lines[:3] + ["0,3,z,0"] + lines[4:],
         "invalid literal for int() with base 10: 'z'"),
    ],
    ids=["valid", "duplicate-row", "short-row", "bad-x"],
)
def test_estimate_reads_cohort_from_a_pipe(tmp_path, capsys, corrupt, message):
    # A pipe can be read only once, so every check, error messages
    # included, must come from a single read of the rows.
    cohort = make_cohort_csv(tmp_path, capsys, n=20)
    lines = cohort.read_text().splitlines()
    if corrupt is not None:
        lines = corrupt(lines)
    data = "\n".join(lines) + "\n"
    cohort.write_text(data)
    argv = ["estimate", "--scenario", "B", "--cohort"]
    piped = subprocess.run(
        [sys.executable, "-m", "ttebench", *argv, "/dev/stdin"],
        input=data.encode(), capture_output=True,
    )
    assert b"Traceback" not in piped.stderr
    if message is None:
        code, out, _ = run_cli(capsys, *argv, str(cohort))
        assert code == 0
        assert (piped.returncode, piped.stdout.decode()) == (0, out)
    else:
        assert piped.returncode == 1 and piped.stdout == b""
        assert piped.stderr.decode().splitlines() == [
            f"error: ValueError: {message}"
        ]


# --------------------------------------------------------------- bias-study


def test_bias_study_writes_report_and_estimates(tmp_path, capsys):
    config_path = tmp_path / "config.json"
    report_path = tmp_path / "report.json"
    estimates_path = tmp_path / "estimates.csv"
    config_path.write_text(
        json.dumps(
            {
                "scenario": "A",
                "n_replicates": 6,
                "n_patients": 120,
                "master_seed": 7,
                "bootstrap_iterations": 50,
            }
        )
    )
    code, out, err = run_cli(
        capsys,
        "bias-study", "--config", str(config_path),
        "--report", str(report_path), "--estimates", str(estimates_path),
    )
    assert code == 0 and err == "" and out == ""
    payload = json.loads(report_path.read_text())
    assert payload["n_replicates"] == 6
    assert set(payload["estimators"]) == {"npmle", "ccw"}
    with open(estimates_path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 6

    # Byte-identical re-run.
    report_again = tmp_path / "report2.json"
    run_cli(
        capsys,
        "bias-study", "--config", str(config_path),
        "--report", str(report_again),
    )
    assert report_again.read_text() == report_path.read_text()


def test_bias_study_report_defaults_to_stdout(tmp_path, capsys):
    config_path = tmp_path / "config.json"
    config_path.write_text(
        json.dumps(
            {
                "scenario": "B",
                "n_replicates": 3,
                "n_patients": 150,
                "master_seed": 1,
                "bootstrap_iterations": 20,
                "estimators": ["npmle"],
            }
        )
    )
    code, out, err = run_cli(capsys, "bias-study", "--config", str(config_path))
    assert code == 0, err
    payload = json.loads(out)
    assert payload["scenario"] == "B"


def test_bias_study_config_errors_are_exit_1(tmp_path, capsys):
    config_path = tmp_path / "bad.json"
    config_path.write_text('{"scenario": "A", "replicates": 5}')
    code, _, err = run_cli(capsys, "bias-study", "--config", str(config_path))
    assert code == 1
    assert err.startswith("error: ValueError: unknown config keys")


@pytest.mark.parametrize("arm", ["treat", "control"])
def test_bias_study_ccw_grace_regime_is_exit_1_before_sampling(
    tmp_path, capsys, monkeypatch, arm
):
    def no_sampling(*args, **kwargs):
        raise AssertionError("sampled a study whose config cannot run")

    monkeypatch.setattr(harness_mod, "_sample_batch", no_sampling)
    # Rejected in this process, before any worker starts.
    monkeypatch.setenv(WORKERS_ENV_VAR, "2")
    config_path = tmp_path / "grace.json"
    config_path.write_text(json.dumps(
        {"scenario": "B", "n_replicates": 4, "n_patients": 20,
         arm: "uniform_grace(2)"}
    ))
    code, out, err = run_cli(capsys, "bias-study", "--config", str(config_path))
    assert code == 1 and out == ""
    assert err.splitlines() == [
        "error: ValueError: grace-period regimes are not supported by "
        "cloning-censoring-weighting; use npmle_ate"
    ]


def _is_positive_int(value):
    return isinstance(value, int) and not isinstance(value, bool) and value >= 1


def _is_valid_regime(value):
    try:
        Regime.from_descriptor(value).validate(3)
    except (ValueError, WorkbenchError):
        return False
    return True


_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)

#: For each config key, JSON values that are not a valid setting.
_MALFORMED = {
    "scenario": _json_values.filter(
        lambda v: not (isinstance(v, str) and v.strip().upper() in ("A", "B"))
    ),
    "n_replicates": _json_values.filter(lambda v: not _is_positive_int(v)),
    "n_patients": _json_values.filter(lambda v: not _is_positive_int(v)),
    "bootstrap_iterations": _json_values.filter(
        lambda v: not _is_positive_int(v)
    ),
    "master_seed": _json_values.filter(
        lambda v: not isinstance(v, int) or isinstance(v, bool)
    ),
    "estimators": _json_values.filter(
        lambda v: not (
            isinstance(v, list)
            and v
            and all(e in ("npmle", "ccw") for e in v)
            and len(v) == len(set(v))
        )
    ),
    "weight_convention": _json_values.filter(
        lambda v: v not in ("lagged", "current")
    ),
    "treat": _json_values.filter(lambda v: not _is_valid_regime(v)),
    "control": _json_values.filter(lambda v: not _is_valid_regime(v)),
    "report_path": _json_values.filter(
        lambda v: v is not None and not isinstance(v, str)
    ),
    "estimates_path": _json_values.filter(
        lambda v: v is not None and not isinstance(v, str)
    ),
}


@given(st.sampled_from(sorted(_MALFORMED)).flatmap(
    lambda key: st.tuples(st.just(key), _MALFORMED[key])
))
@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_bias_study_malformed_config_values_are_exit_1(tmp_path, capsys, item):
    key, value = item
    config = {"scenario": "A", "n_replicates": 2, "n_patients": 20,
              "bootstrap_iterations": 5, key: value}
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    code, out, err = run_cli(capsys, "bias-study", "--config", str(config_path))
    assert code == 1
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert "Traceback" not in err


def test_bias_study_total_failure_is_exit_2(tmp_path, capsys):
    config_path = tmp_path / "doomed.json"
    config_path.write_text(
        json.dumps(
            {
                "scenario": "B",
                "n_replicates": 2,
                "n_patients": 1,
                "estimators": ["npmle"],
                "bootstrap_iterations": 10,
            }
        )
    )
    code, _, err = run_cli(capsys, "bias-study", "--config", str(config_path))
    assert code == 2
    assert err.startswith("error: AllReplicatesFailed:")


# ------------------------------------------------- identification commands


def test_check_identification_table(tmp_path, capsys):
    out_path = tmp_path / "premises.json"
    code, out, err = run_cli(
        capsys,
        "check-identification", "--scenario", "B", "--T", "3",
        "--output", str(out_path),
    )
    assert code == 0 and err == ""
    assert "identified: yes" in out
    assert " k   rule2   rule3" in out
    payload = json.loads(out_path.read_text())
    assert payload["identified"] is True
    assert len(payload["periods"]) == 3


def test_check_identification_bad_horizon(capsys):
    for command, T in (
        ("check-identification", "0"),
        ("check-exchangeability", "0"),
        ("check-exchangeability", "-3"),
    ):
        code, out, err = run_cli(capsys, command, "--scenario", "A", "--T", T)
        assert code == 1, (command, T, out)
        assert err.startswith("error: InvalidHorizon:")
        assert len(err.splitlines()) == 1 and "Traceback" not in err


def test_check_exchangeability_scenario_a(capsys):
    code, out, err = run_cli(
        capsys, "check-exchangeability", "--scenario", "A", "--T", "3"
    )
    assert code == 0 and err == ""
    assert "false cells: 0 of 9" in out


def test_check_exchangeability_scenario_b(tmp_path, capsys):
    out_path = tmp_path / "cells.json"
    code, out, err = run_cli(
        capsys,
        "check-exchangeability", "--scenario", "B", "--T", "3",
        "--output", str(out_path),
    )
    assert code == 0 and err == ""
    assert "false cells: 6 of 9" in out
    payload = json.loads(out_path.read_text())
    assert payload["scenario"] == "B" and payload["regime"] == "always"
    assert len(payload["cells"]) == 9
    for cell in payload["cells"]:
        assert cell["holds"] == (cell["i"] < cell["k"])


def test_check_exchangeability_with_grace_regime(capsys):
    code, out, err = run_cli(
        capsys,
        "check-exchangeability", "--scenario", "A", "--T", "2",
        "--regime", "uniform_grace(2)",
    )
    assert code == 0, err
    assert "false cells: 0 of 4" in out


# ------------------------------------------------------------- param-count


def test_param_count_headline(capsys):
    code, out, err = run_cli(
        capsys,
        "param-count", "--control", "365", "--subgroups", "28",
        "--treat", "365", "--c", "1",
    )
    assert code == 0 and err == ""
    assert out.strip() == "10584"


def test_param_count_validation_is_exit_1(capsys):
    code, _, err = run_cli(
        capsys,
        "param-count", "--control", "0", "--subgroups", "28",
        "--treat", "365", "--c", "1",
    )
    assert code == 1
    assert err.startswith("error: ValueError:")


# ------------------------------------------------------------ export-graph


def test_export_graph_variants(tmp_path, capsys):
    code, out, err = run_cli(
        capsys,
        "export-graph", "--scenario", "B", "--T", "1",
        "--variant", "simplified",
    )
    assert code == 0 and err == ""
    assert "X1 -> Y1;" in out

    code, full, _ = run_cli(
        capsys, "export-graph", "--scenario", "B", "--T", "3"
    )
    assert code == 0
    assert "C" in full and "A" in full and "B" in full

    out_path = tmp_path / "amwn.dot"
    code, _, _ = run_cli(
        capsys,
        "export-graph", "--scenario", "B", "--T", "3", "--variant", "amwn",
        "--regime", "always", "--output", str(out_path),
    )
    assert code == 0
    text = out_path.read_text()
    assert "Yx3" in text
    assert "[dir=both, style=dashed];" in text
    graph = parse_dot(text)
    assert len(graph.bidirected) == 3

    for regime in ("initiate_at(9)", "uniform_grace(7)"):
        code, out, err = run_cli(
            capsys,
            "export-graph", "--scenario", "B", "--T", "2", "--variant", "amwn",
            "--regime", regime,
        )
        assert code == 1 and out == "", regime
        assert err.startswith("error: RegimeOutOfRange:")
        assert len(err.splitlines()) == 1 and "Traceback" not in err


# -------------------------------------------------------------- exit codes


def _not_positive_int(text):
    try:
        return int(text) < 1
    except ValueError:
        return True


_PARAM_COUNT_FLAGS = ("--control", "--subgroups", "--treat", "--c")

#: Commands with one integer flag left open (``None``); every other
#: argument is valid.
_INT_FLAG_COMMANDS = [
    ["check-identification", "--scenario", "A", "--T", None],
    ["check-exchangeability", "--scenario", "B", "--T", None],
    ["export-graph", "--scenario", "A", "--variant", "full", "--T", None],
    ["export-graph", "--scenario", "B", "--variant", "amwn", "--T", None],
    ["simulate", "--scenario", "A", "--n", None],
] + [
    ["param-count"] + [
        arg for flag in _PARAM_COUNT_FLAGS
        for arg in (flag, None if flag == open_flag else "2")
    ]
    for open_flag in _PARAM_COUNT_FLAGS
]

_malformed_int = st.one_of(
    st.integers(max_value=0).map(str),
    st.sampled_from(["1.5", "", "three"]),
    st.text(max_size=6).filter(_not_positive_int),
)

_bad_int_argv = st.tuples(st.sampled_from(_INT_FLAG_COMMANDS), _malformed_int).map(
    lambda case: [case[1] if arg is None else arg for arg in case[0]]
)

#: Regimes whose parameter exceeds a small valid horizon. A large valid
#: horizon is never drawn: the graphs have O(T^2) edges.
_bad_regime_argv = st.builds(
    lambda command, T, strategy, excess: [
        *command, "--T", str(T), "--regime", f"{strategy}({T + excess})"
    ],
    st.sampled_from([
        ["check-exchangeability", "--scenario", "A"],
        ["export-graph", "--scenario", "B", "--variant", "amwn"],
    ]),
    st.integers(1, 4),
    st.sampled_from(["initiate_at", "uniform_grace"]),
    st.integers(1, 50),
)


@given(st.one_of(_bad_int_argv, _bad_regime_argv))
@settings(
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_malformed_integer_flags_are_exit_1(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1, argv
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), err
    assert "Traceback" not in err


def test_usage_errors_are_exit_1(capsys):
    code, _, err = run_cli(capsys)
    assert code == 1
    assert err.startswith("error: UsageError:")

    code, _, err = run_cli(capsys, "simulate", "--scenario", "C")
    assert code == 1
    assert err.startswith("error: UsageError:")

    code, _, err = run_cli(capsys, "no-such-command")
    assert code == 1
    assert err.startswith("error: UsageError:")


def test_help_is_exit_0(capsys):
    assert run_cli(capsys, "--help")[0] == 0
    code, out, _ = run_cli(capsys, "simulate", "--help")
    assert code == 0
    assert "--scenario" in out


def console_script(name):
    """Command and environment that run a ``[project.scripts]`` entry.

    Uses the installed script when it is on PATH; otherwise runs the
    declared ``module:function`` from the source tree, as the installed
    script would.
    """
    path = shutil.which(name)
    if path is not None:
        return [path], None
    import tomllib

    root = Path(__file__).resolve().parent.parent
    scripts = tomllib.loads((root / "pyproject.toml").read_text())["project"][
        "scripts"
    ]
    module, function = scripts[name].split(":")
    code = f"import sys; from {module} import {function}; sys.exit({function}())"
    pythonpath = os.pathsep.join(
        p for p in (str(root / "src"), os.environ.get("PYTHONPATH")) if p
    )
    return [sys.executable, "-c", code], {**os.environ, "PYTHONPATH": pythonpath}


def test_module_and_script_entry_points():
    result = subprocess.run(
        [sys.executable, "-m", "ttebench", "param-count", "--control", "365",
         "--subgroups", "28", "--treat", "365", "--c", "1"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert result.stdout.strip() == "10584"

    command, env = console_script("ttebench")
    script = subprocess.run(
        command + ["check-identification", "--scenario", "A", "--T", "2"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert script.returncode == 0
    assert "identified: yes" in script.stdout
