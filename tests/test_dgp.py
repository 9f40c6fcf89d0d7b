"""Generating-process tables, sampling, enumeration, truth values."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ttebench.dgp as dgp_mod
from ttebench import (
    Cohort,
    DgpTable,
    Regime,
    ScenarioKind,
    SupportTooLarge,
    Trajectory,
    UNCLEAR,
    counterfactual_survival,
    default_dgp,
    dgp_from_json,
    dgp_to_json,
    enumerate_distribution,
    read_cohort_csv,
    sample_cohort,
    true_ate,
    validate_trajectory,
    write_cohort_csv,
)
from ._oracles import survival_by_enumeration

SCEN_A = ScenarioKind.from_code("A")
SCEN_B = ScenarioKind.from_code("B")
NEVER = Regime.never()
ALWAYS = Regime.always_from_start()


# ----------------------------------------------------------- default tables


def test_default_table_scenario_a_values():
    d = default_dgp(SCEN_A)
    assert d.T == 3
    assert d.hazard[(1, ())] == 0.05
    assert d.hazard[(2, (1,))] == pytest.approx(0.1)
    assert d.hazard[(2, (0,))] == pytest.approx(0.2)
    assert d.hazard[(3, (1, 1))] == pytest.approx(0.1)
    assert d.hazard[(3, (0, 0))] == pytest.approx(0.3)
    assert d.propensity[(1, ())] == 0.3
    assert d.propensity[(2, (1,))] == pytest.approx(0.9)
    assert d.propensity[(3, (0, 1))] == pytest.approx(0.9)
    assert len(d.hazard) == 1 + 2 + 4
    assert len(d.propensity) == 1 + 2 + 4


def test_default_table_scenario_b_values():
    d = default_dgp(SCEN_B)
    assert d.hazard[(1, (1,))] == pytest.approx(0.1)
    assert d.hazard[(1, (0,))] == pytest.approx(0.2)
    assert d.hazard[(2, (1, 0))] == pytest.approx(0.15)
    assert d.hazard[(3, (1, 1, 1))] == pytest.approx(0.125)
    assert d.propensity[(1, ())] == 0.3
    assert len(d.hazard) == 2 + 4 + 8
    assert len(d.propensity) == 1 + 2 + 4


def test_table_validation_rejects_bad_entries():
    with pytest.raises(ValueError):
        DgpTable(T=0, hazard={}, propensity={})
    with pytest.raises(ValueError):
        DgpTable(T=1, hazard={(2, ()): 0.5}, propensity={})
    with pytest.raises(ValueError):
        DgpTable(T=1, hazard={(1, ()): 1.5}, propensity={})
    with pytest.raises(ValueError):
        DgpTable(T=1, hazard={(1, (2,)): 0.5}, propensity={})


def test_mismatched_table_and_scenario_is_reported():
    with pytest.raises(ValueError, match="match the scenario"):
        counterfactual_survival(default_dgp(SCEN_A), SCEN_B, NEVER)


# ------------------------------------------------------------- truth values


def test_counterfactual_survival_scenario_a():
    d = default_dgp(SCEN_A)
    assert counterfactual_survival(d, SCEN_A, NEVER) == pytest.approx(
        [0.95, 0.76, 0.532], abs=1e-12
    )
    assert counterfactual_survival(d, SCEN_A, ALWAYS) == pytest.approx(
        [0.95, 0.855, 0.7695], abs=1e-12
    )


def test_counterfactual_survival_scenario_b():
    d = default_dgp(SCEN_B)
    assert counterfactual_survival(d, SCEN_B, NEVER) == pytest.approx(
        [0.8, 0.64, 0.448], abs=1e-12
    )
    assert counterfactual_survival(d, SCEN_B, ALWAYS) == pytest.approx(
        [0.9, 0.7875, 0.6890625], abs=1e-12
    )


def test_true_ate_values():
    assert true_ate(default_dgp(SCEN_A), SCEN_A, ALWAYS, NEVER) == pytest.approx(
        0.2375, abs=1e-12
    )
    assert true_ate(default_dgp(SCEN_B), SCEN_B, ALWAYS, NEVER) == pytest.approx(
        0.2410625, abs=1e-12
    )


def test_survival_matches_enumeration_oracle():
    for kind in (SCEN_A, SCEN_B):
        d = default_dgp(kind)
        for regime in (NEVER, ALWAYS, Regime.initiate_at(2), Regime.initiate_at(3)):
            closed = counterfactual_survival(d, kind, regime)
            oracle = survival_by_enumeration(d, kind, regime)
            assert closed == pytest.approx(oracle, abs=1e-12), (kind, regime)


def test_grace_survival_averages_component_curves():
    for kind in (SCEN_A, SCEN_B):
        d = default_dgp(kind)
        grace = counterfactual_survival(d, kind, Regime.uniform_grace(2))
        comp = [
            counterfactual_survival(d, kind, Regime.initiate_at(i))
            for i in (1, 2)
        ]
        expected = [(a + b) / 2 for a, b in zip(*comp)]
        assert grace == pytest.approx(expected, abs=1e-15)


# -------------------------------------------------------------- enumeration


def test_enumeration_support_sizes_and_mass():
    for kind, size in ((SCEN_A, 15), (SCEN_B, 22)):
        support = enumerate_distribution(default_dgp(kind), kind)
        assert len(support) == size
        assert math.fsum(p for _, p in support) == pytest.approx(1.0, abs=1e-12)
        assert len({traj for traj, _ in support}) == size
        for traj, p in support:
            assert p > 0
            validate_trajectory(traj, kind)


def test_enumeration_spot_probabilities():
    support_a = dict(enumerate_distribution(default_dgp(SCEN_A), SCEN_A))
    died_at_1 = Trajectory((UNCLEAR, UNCLEAR, UNCLEAR), (1, 1, 1))
    assert support_a[died_at_1] == pytest.approx(0.05, abs=1e-15)

    support_b = dict(enumerate_distribution(default_dgp(SCEN_B), SCEN_B))
    assert support_b[
        Trajectory((1, UNCLEAR, UNCLEAR), (1, 1, 1))
    ] == pytest.approx(0.3 * 0.1, abs=1e-15)
    assert support_b[
        Trajectory((0, UNCLEAR, UNCLEAR), (1, 1, 1))
    ] == pytest.approx(0.7 * 0.2, abs=1e-15)


def test_enumeration_respects_support_cap(monkeypatch):
    monkeypatch.setattr(dgp_mod, "MAX_SUPPORT", 4)
    with pytest.raises(SupportTooLarge):
        enumerate_distribution(default_dgp(SCEN_A), SCEN_A)


# ----------------------------------------------------------------- sampling


def test_sampling_is_deterministic_and_seed_sensitive():
    d = default_dgp(SCEN_A)
    c1 = sample_cohort(d, SCEN_A, 200, seed=7)
    c2 = sample_cohort(d, SCEN_A, 200, seed=7)
    c3 = sample_cohort(d, SCEN_A, 200, seed=8)
    assert c1.trajectories == c2.trajectories
    assert c1.trajectories != c3.trajectories
    assert c1.seed == 7 and c1.n == 200 and c1.T == 3


def test_patient_draws_do_not_depend_on_cohort_size():
    d = default_dgp(SCEN_B)
    small = sample_cohort(d, SCEN_B, 10, seed=3)
    large = sample_cohort(d, SCEN_B, 50, seed=3)
    assert large.trajectories[:10] == small.trajectories


def test_sampled_cohorts_satisfy_scenario_invariants():
    for kind in (SCEN_A, SCEN_B):
        cohort = sample_cohort(default_dgp(kind), kind, 500, seed=11)
        cohort.validate()


def test_sampled_frequencies_track_enumerated_probabilities():
    n = 40_000
    for kind in (SCEN_A, SCEN_B):
        d = default_dgp(kind)
        cohort = sample_cohort(d, kind, n, seed=2026)
        died_first = sum(t.y[0] for t in cohort.trajectories) / n
        truth = sum(
            p for traj, p in enumerate_distribution(d, kind) if traj.y[0] == 1
        )
        se = math.sqrt(truth * (1 - truth) / n)
        assert abs(died_first - truth) < 5 * se, (kind, died_first, truth)


def test_sampling_rejects_bad_n():
    with pytest.raises(ValueError):
        sample_cohort(default_dgp(SCEN_A), SCEN_A, 0, seed=1)
    with pytest.raises(ValueError):
        sample_cohort(default_dgp(SCEN_A), SCEN_A, True, seed=1)


# ----------------------------------------------------- trajectory validation


def test_validate_trajectory_rules():
    validate_trajectory(Trajectory((0, 1, UNCLEAR), (0, 1, 1)), SCEN_B)
    validate_trajectory(Trajectory((0, UNCLEAR, UNCLEAR), (1, 1, 1)), SCEN_B)
    validate_trajectory(Trajectory((UNCLEAR,), (1,)), SCEN_A)
    with pytest.raises(ValueError, match="resurrect"):
        validate_trajectory(Trajectory((0, 0), (1, 0)), SCEN_B)
    with pytest.raises(ValueError):
        validate_trajectory(Trajectory((UNCLEAR,), (1,)), SCEN_B)
    with pytest.raises(ValueError):
        validate_trajectory(Trajectory((1,), (1,)), SCEN_A)
    with pytest.raises(ValueError):
        validate_trajectory(Trajectory((0,), (2,)), SCEN_A)
    with pytest.raises(ValueError):
        validate_trajectory(Trajectory((0, 0), (0,)), SCEN_A)


# -------------------------------------------------------------- persistence


def test_cohort_csv_round_trip(tmp_path):
    for kind in (SCEN_A, SCEN_B):
        cohort = sample_cohort(default_dgp(kind), kind, 40, seed=5)
        path = tmp_path / f"cohort_{kind.code}.csv"
        write_cohort_csv(cohort, path)
        loaded = read_cohort_csv(path, kind)
        assert loaded.trajectories == cohort.trajectories
        assert loaded.scenario is kind
        assert loaded.seed is None


def test_cohort_csv_header_and_rows(tmp_path):
    cohort = Cohort.from_trajectories(
        (Trajectory((1, UNCLEAR), (0, 1)),), SCEN_A
    )
    path = tmp_path / "tiny.csv"
    write_cohort_csv(cohort, path)
    assert path.read_text() == "id,period,x,y\n0,1,1,0\n0,2,u,1\n"


def test_read_cohort_rejects_malformed_files(tmp_path):
    bad_header = tmp_path / "bad_header.csv"
    bad_header.write_text("id,period,x\n0,1,0\n")
    with pytest.raises(ValueError, match="columns"):
        read_cohort_csv(bad_header, SCEN_A)

    gap = tmp_path / "gap.csv"
    gap.write_text("id,period,x,y\n0,1,0,0\n0,3,0,0\n")
    with pytest.raises(ValueError, match="non-contiguous"):
        read_cohort_csv(gap, SCEN_A)

    invalid = tmp_path / "invalid.csv"
    invalid.write_text("id,period,x,y\n0,1,u,0\n")
    with pytest.raises(ValueError):
        read_cohort_csv(invalid, SCEN_A)

    short = tmp_path / "short.csv"
    short.write_text("id,period,x,y\n0,1,0\n")
    with pytest.raises(ValueError, match="line 2 has 3 fields"):
        read_cohort_csv(short, SCEN_A)

    huge_id = tmp_path / "huge_id.csv"
    huge_id.write_text(f"id,period,x,y\n{2**70},1,0,0\n")
    with pytest.raises(ValueError, match="64-bit"):
        read_cohort_csv(huge_id, SCEN_A)


def test_dgp_json_round_trip():
    for kind in (SCEN_A, SCEN_B):
        d = default_dgp(kind)
        again = dgp_from_json(dgp_to_json(d))
        assert again.T == d.T
        assert dict(again.hazard) == dict(d.hazard)
        assert dict(again.propensity) == dict(d.propensity)
    with pytest.raises(ValueError, match="malformed"):
        dgp_from_json('{"T": 3}')


# ------------------------------------------------------ property: coherence


@st.composite
def random_tables(draw):
    """A small scenario-B style table with arbitrary probabilities."""
    probs = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
    hazard = {}
    propensity = {(1, ()): draw(probs)}
    for x1 in (0, 1):
        hazard[(1, (x1,))] = draw(probs)
        propensity[(2, (x1,))] = draw(probs)
        for x2 in (0, 1):
            hazard[(2, (x1, x2))] = draw(probs)
    return DgpTable(T=2, hazard=hazard, propensity=propensity)


@given(random_tables())
@settings(max_examples=60, deadline=None)
def test_closed_form_matches_enumeration_on_random_tables(table):
    for regime in (NEVER, ALWAYS, Regime.initiate_at(2)):
        closed = counterfactual_survival(table, SCEN_B, regime)
        oracle = survival_by_enumeration(table, SCEN_B, regime)
        assert closed == pytest.approx(oracle, abs=1e-12)
    support = enumerate_distribution(table, SCEN_B)
    assert math.fsum(p for _, p in support) == pytest.approx(1.0, abs=1e-9)
