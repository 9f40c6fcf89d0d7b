"""Plug-in and cloning-censoring-weighting estimators."""

import csv
import json
import math

import pytest

from ttebench import (
    AteEstimate,
    CloneRow,
    Cohort,
    DgpTable,
    EmptyStratum,
    NoAtRiskRows,
    Regime,
    ScenarioKind,
    Trajectory,
    TrajectoryCounts,
    UNCLEAR,
    WeightConvention,
    ccw_asymptotic,
    ccw_ate,
    clone_rows,
    counterfactual_survival,
    default_dgp,
    enumerate_distribution,
    fit_strata,
    npmle_ate,
    sample_cohort,
    true_ate,
    write_clone_csv,
)

SCEN_A = ScenarioKind.from_code("A")
SCEN_B = ScenarioKind.from_code("B")
NEVER = Regime.never()
ALWAYS = Regime.always_from_start()
LAGGED = WeightConvention.LAGGED
CURRENT = WeightConvention.CURRENT_PERIOD


def population_cohort(kind):
    d = default_dgp(kind)
    support = enumerate_distribution(d, kind)
    cohort = Cohort.from_trajectories((traj for traj, _ in support), kind)
    probs = [p for _, p in support]
    return d, cohort, probs


def b_cohort_t1(pairs):
    """Scenario-B one-period cohort from (x1, y1) pairs."""
    return Cohort.from_trajectories(
        (Trajectory((x,), (y,)) for x, y in pairs), SCEN_B
    )


B_T1_TABLE = DgpTable(
    T=1,
    hazard={(1, (0,)): 0.25, (1, (1,)): 0.1},
    propensity={(1, ()): 0.4},
)


# ------------------------------------------------------------- stratum fits


def padded(history, T):
    """A treatment path over T periods that starts with ``history``."""
    return tuple(history) + (0,) * (T - len(history))


def test_fit_strata_population_recovers_generating_tables():
    # Hazards in both scenarios; propensities in scenario A, where the
    # survivors of a period are the ones whose treatment is drawn.
    for kind in (SCEN_A, SCEN_B):
        d, cohort, probs = population_cohort(kind)
        for (k, hist), p in d.hazard.items():
            table = fit_strata(cohort, kind, padded(hist, d.T), weights=probs)
            assert table.hazard_num[k - 1] / table.hazard_den[k - 1] == (
                pytest.approx(p, abs=1e-12)
            ), (kind, "hazard", k, hist)
    d, cohort, probs = population_cohort(SCEN_A)
    for (k, hist), p in d.propensity.items():
        table = fit_strata(cohort, SCEN_A, padded(hist, d.T), weights=probs)
        assert table.propensity_num[k - 1] / table.propensity_den[k - 1] == (
            pytest.approx(p, abs=1e-12)
        ), ("propensity", k, hist)


def test_survivor_propensity_is_outcome_tilted_in_scenario_b():
    d, cohort, probs = population_cohort(SCEN_B)
    table = fit_strata(cohort, SCEN_B, (1, 1, 1), weights=probs)
    # P(x1=1 | y1=0) = 0.3*0.9 / (0.3*0.9 + 0.7*0.8), not the raw 0.3.
    expected = 0.27 / (0.27 + 0.56)
    assert table.propensity_num[0] / table.propensity_den[0] == pytest.approx(
        expected, abs=1e-12
    )


def test_fit_strata_unweighted_counts():
    cohort = b_cohort_t1([(1, 0), (1, 1), (0, 0), (0, 0)])
    treated = fit_strata(cohort, SCEN_B, (1,))
    untreated = fit_strata(cohort, SCEN_B, (0,))
    assert treated.path == (1,)
    assert (treated.hazard_num.tolist(), treated.hazard_den.tolist()) == (
        [1.0], [2.0])
    assert (untreated.hazard_num.tolist(), untreated.hazard_den.tolist()) == (
        [0.0], [2.0])
    for table in (treated, untreated):
        assert table.propensity_num.tolist() == [1.0]
        assert table.propensity_den.tolist() == [3.0]
    two_period = Cohort.from_trajectories(
        (Trajectory((1, 1), (0, 0)), Trajectory((1, 0), (0, 0))), SCEN_B
    )
    table = fit_strata(two_period, SCEN_B, (1, 1))
    assert table.hazard_den.tolist() == [2.0, 1.0]
    assert table.propensity_num.tolist() == [2.0, 1.0]
    assert table.propensity_den.tolist() == [2.0, 2.0]
    assert fit_strata(two_period, SCEN_B, (0, 0)).hazard_den.tolist() == [0.0, 0.0]
    for bad in ((1,), (1, 2)):
        with pytest.raises(ValueError, match="0/1 treatments of 2 periods"):
            fit_strata(two_period, SCEN_B, bad)


def test_weight_validation():
    cohort = b_cohort_t1([(1, 0), (0, 0)])
    with pytest.raises(ValueError, match="length"):
        fit_strata(cohort, SCEN_B, (1,), weights=[1.0])
    with pytest.raises(ValueError, match="nonnegative"):
        fit_strata(cohort, SCEN_B, (1,), weights=[1.0, -0.5])
    counts = TrajectoryCounts.from_cohort(
        sample_cohort(default_dgp(SCEN_B), SCEN_B, 10, seed=1)
    )
    with pytest.raises(ValueError, match="per patient"):
        fit_strata(counts, SCEN_B, (1, 1, 1), weights=[1.0] * 10)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_weights_are_rejected_by_index(bad):
    cohort = b_cohort_t1([(1, 0), (0, 0), (1, 1)])
    weights = [1.0, bad, bad]
    for estimate in (
        lambda: fit_strata(cohort, SCEN_B, (1,), weights=weights),
        lambda: npmle_ate(cohort, SCEN_B, ALWAYS, NEVER, weights=weights),
        lambda: ccw_ate(cohort, SCEN_B, ALWAYS, NEVER, weights=weights),
    ):
        with pytest.raises(ValueError, match="finite; weight 1 is"):
            estimate()


# ------------------------------------------------------------------- npmle


def test_npmle_population_identity():
    for kind in (SCEN_A, SCEN_B):
        d, cohort, probs = population_cohort(kind)
        est = npmle_ate(cohort, kind, ALWAYS, NEVER, weights=probs)
        assert est.ate == pytest.approx(true_ate(d, kind, ALWAYS, NEVER), abs=1e-12)
        assert list(est.survival_treat) == pytest.approx(
            counterfactual_survival(d, kind, ALWAYS), abs=1e-12
        )
        assert list(est.survival_control) == pytest.approx(
            counterfactual_survival(d, kind, NEVER), abs=1e-12
        )


def test_npmle_grace_regime_population_identity():
    for kind in (SCEN_A, SCEN_B):
        d, cohort, probs = population_cohort(kind)
        grace = Regime.uniform_grace(2)
        est = npmle_ate(cohort, kind, grace, NEVER, weights=probs)
        assert list(est.survival_treat) == pytest.approx(
            counterfactual_survival(d, kind, grace), abs=1e-12
        )
        assert est.ate == pytest.approx(true_ate(d, kind, grace, NEVER), abs=1e-12)


def test_npmle_missing_stratum_is_reported():
    cohort = Cohort.from_trajectories(
        (Trajectory((1, 1), (0, 0)), Trajectory((1, 0), (0, 0))),
        SCEN_B,
        seed=None,
    )
    with pytest.raises(EmptyStratum) as exc:
        npmle_ate(cohort, SCEN_B, ALWAYS, NEVER)
    assert exc.value.period == 1
    assert exc.value.history == (0,)
    assert exc.value.role == "hazard"


def test_npmle_baseline_standardization_matches_manual_average():
    cohort = sample_cohort(default_dgp(SCEN_A), SCEN_A, 400, seed=21)
    baseline = [i % 3 for i in range(cohort.n)]
    est = npmle_ate(cohort, SCEN_A, ALWAYS, NEVER, baseline=baseline)

    total = cohort.n
    expected_t = [0.0] * cohort.T
    expected_c = [0.0] * cohort.T
    for level in (0, 1, 2):
        idx = [i for i, lev in enumerate(baseline) if lev == level]
        sub = Cohort.from_trajectories(
            (cohort.trajectories[i] for i in idx), SCEN_A
        )
        sub_est = npmle_ate(sub, SCEN_A, ALWAYS, NEVER)
        share = len(idx) / total
        for k in range(cohort.T):
            expected_t[k] += share * sub_est.survival_treat[k]
            expected_c[k] += share * sub_est.survival_control[k]
    assert list(est.survival_treat) == pytest.approx(expected_t, abs=1e-12)
    assert list(est.survival_control) == pytest.approx(expected_c, abs=1e-12)
    assert est.ate == pytest.approx(expected_t[-1] - expected_c[-1], abs=1e-12)
    assert est.diagnostics["standardized_over_baseline"] is True


def test_npmle_baseline_must_cover_cohort():
    cohort = b_cohort_t1([(1, 0), (0, 0)])
    with pytest.raises(ValueError, match="baseline"):
        npmle_ate(cohort, SCEN_B, ALWAYS, NEVER, baseline=[0])
    counts = TrajectoryCounts.from_cohort(
        sample_cohort(default_dgp(SCEN_B), SCEN_B, 50, seed=1)
    )
    with pytest.raises(ValueError, match="per-patient Cohort"):
        npmle_ate(counts, SCEN_B, ALWAYS, NEVER, baseline=[0] * 50)


# ------------------------------------------------------- ccw (finite sample)


def test_four_patient_worked_example():
    cohort = b_cohort_t1([(1, 0), (1, 1), (0, 0), (0, 0)])
    assert npmle_ate(cohort, SCEN_B, ALWAYS, NEVER).ate == pytest.approx(-0.5)
    assert ccw_ate(
        cohort, SCEN_B, ALWAYS, NEVER, CURRENT
    ).ate == pytest.approx(-0.5)
    assert ccw_ate(cohort, SCEN_B, ALWAYS, NEVER, LAGGED).ate == pytest.approx(0.0)


def test_lagged_weights_degenerate_at_single_period():
    # With one period there is no past to weight by: both arms pool the
    # whole cohort with unit weights and the arm difference vanishes.
    cohort = sample_cohort(B_T1_TABLE, SCEN_B, 100, seed=9)
    est = ccw_ate(cohort, SCEN_B, ALWAYS, NEVER, LAGGED)
    assert est.ate == pytest.approx(0.0, abs=1e-15)


def test_current_convention_reproduces_plugin_everywhere():
    for kind in (SCEN_A, SCEN_B):
        d = default_dgp(kind)
        for seed in (1, 2, 3):
            cohort = sample_cohort(d, kind, 250, seed=seed)
            for treat, control in (
                (ALWAYS, NEVER),
                (Regime.initiate_at(2), NEVER),
                (ALWAYS, Regime.initiate_at(3)),
            ):
                plug = npmle_ate(cohort, kind, treat, control)
                ccw = ccw_ate(cohort, kind, treat, control, CURRENT)
                assert ccw.ate == pytest.approx(plug.ate, abs=1e-12), (
                    kind,
                    seed,
                    treat,
                    control,
                )


def test_lagged_convention_reproduces_plugin_in_scenario_a_only():
    # With outcome-before-treatment periods, the lagged risk set at each
    # period is exactly the plug-in's hazard stratum (constant weights
    # cancel), so the two estimators coincide. With treatment-first
    # periods the risk set pools over the current treatment and the
    # estimators separate -- the root of the scenario-B bias.
    d_a, d_b = default_dgp(SCEN_A), default_dgp(SCEN_B)
    for seed in (1, 5, 9):
        cohort = sample_cohort(d_a, SCEN_A, 300, seed=seed)
        plug = npmle_ate(cohort, SCEN_A, ALWAYS, NEVER).ate
        lagged = ccw_ate(cohort, SCEN_A, ALWAYS, NEVER, LAGGED).ate
        assert lagged == pytest.approx(plug, abs=1e-12)
    cohort = sample_cohort(d_b, SCEN_B, 300, seed=1)
    plug = npmle_ate(cohort, SCEN_B, ALWAYS, NEVER).ate
    lagged = ccw_ate(cohort, SCEN_B, ALWAYS, NEVER, LAGGED).ate
    assert abs(lagged - plug) > 1e-3


def test_clone_rows_shape_and_bookkeeping():
    cohort = sample_cohort(default_dgp(SCEN_A), SCEN_A, 60, seed=4)
    rows = clone_rows(cohort, SCEN_A, ALWAYS, LAGGED)
    assert len(rows) == cohort.n * cohort.T
    by_patient = {}
    for row in rows:
        by_patient.setdefault(row.patient_id, []).append(row)
    assert sorted(by_patient) == list(range(cohort.n))
    for pid, patient_rows in by_patient.items():
        assert [r.period for r in patient_rows] == [1, 2, 3]
        seen_exit = False
        for r in patient_rows:
            if seen_exit:
                assert not r.at_risk and r.weight == 0.0
            if r.at_risk and (r.event or r.censored_now):
                seen_exit = True
        assert patient_rows[0].weight == 1.0  # lagged: no past at period 1


def test_lagged_weights_constant_within_risk_sets():
    for kind in (SCEN_A, SCEN_B):
        cohort = sample_cohort(default_dgp(kind), kind, 150, seed=6)
        for regime in (ALWAYS, NEVER, Regime.initiate_at(2)):
            rows = clone_rows(cohort, kind, regime, LAGGED)
            for period in (1, 2, 3):
                weights = {
                    r.weight for r in rows if r.at_risk and r.period == period
                }
                assert len(weights) == 1, (kind, regime, period, weights)


def test_current_convention_zeroes_censored_rows():
    cohort = b_cohort_t1([(1, 0), (0, 0)])
    rows_c = clone_rows(cohort, SCEN_B, NEVER, CURRENT)
    rows_l = clone_rows(cohort, SCEN_B, NEVER, LAGGED)
    censored_c = [r for r in rows_c if r.censored_now]
    censored_l = [r for r in rows_l if r.censored_now]
    assert len(censored_c) == len(censored_l) == 1
    assert censored_c[0].weight == 0.0
    assert censored_c[0].at_risk is True
    assert censored_l[0].weight == 1.0


def test_death_period_treatment_is_unclear_and_kept_compatible():
    # Scenario A: a patient dying in period 1 has x1 = u, compatible with
    # both arms, and contributes the event to both.
    cohort = Cohort.from_trajectories(
        (Trajectory((UNCLEAR, UNCLEAR, UNCLEAR), (1, 1, 1)),
         Trajectory((1, 1, 1), (0, 0, 0)),
         Trajectory((0, 0, 0), (0, 0, 0))),
        SCEN_A,
        seed=None,
    )
    for regime in (ALWAYS, NEVER):
        for convention in (LAGGED, CURRENT):
            rows = clone_rows(cohort, SCEN_A, regime, convention)
            first = [r for r in rows if r.patient_id == 0 and r.period == 1]
            assert first[0].event and first[0].at_risk
            assert not first[0].censored_now
            assert first[0].weight == 1.0


def test_clone_rows_reject_grace_regimes():
    cohort = b_cohort_t1([(1, 0), (0, 0)])
    with pytest.raises(ValueError, match="grace"):
        clone_rows(cohort, SCEN_B, Regime.uniform_grace(1))
    with pytest.raises(ValueError, match="grace"):
        ccw_ate(cohort, SCEN_B, Regime.uniform_grace(1), NEVER)


def test_ccw_missing_survivor_propensity_is_reported():
    cohort = b_cohort_t1([(1, 1), (0, 0)])
    with pytest.raises(EmptyStratum) as exc:
        ccw_ate(cohort, SCEN_B, ALWAYS, NEVER, CURRENT)
    assert exc.value.role == "propensity"


def test_ccw_empty_arm_is_reported():
    cohort = b_cohort_t1([(1, 0), (1, 0)])
    with pytest.raises(NoAtRiskRows) as exc:
        ccw_ate(cohort, SCEN_B, ALWAYS, NEVER, CURRENT)
    assert exc.value.arm == "never"
    assert exc.value.period == 1

    two_period = Cohort.from_trajectories(
        (Trajectory((1, 1), (0, 0)), Trajectory((1, 0), (0, 0))),
        SCEN_B,
        seed=None,
    )
    with pytest.raises(NoAtRiskRows) as exc:
        ccw_ate(two_period, SCEN_B, ALWAYS, NEVER, LAGGED)
    assert exc.value.arm == "never"
    assert exc.value.period == 2


def test_period_one_weighted_risk_mass():
    n = 200
    for kind in (SCEN_A, SCEN_B):
        cohort = sample_cohort(default_dgp(kind), kind, n, seed=17)
        est = ccw_ate(cohort, kind, ALWAYS, NEVER, LAGGED)
        for arm in ("treat", "control"):
            diag = est.diagnostics["arms"][arm]
            # Lagged weights carry no period-1 adjustment: mass = head count.
            assert diag["weighted_at_risk"][0] == pytest.approx(float(n))
            assert diag["n_at_risk"][0] == n
    # Inverse-propensity reweighting restores each arm's period-1 mass to
    # the full cohort size in scenario A (death rows enter at weight 1).
    cohort = sample_cohort(default_dgp(SCEN_A), SCEN_A, n, seed=17)
    est = ccw_ate(cohort, SCEN_A, ALWAYS, NEVER, CURRENT)
    for arm in ("treat", "control"):
        diag = est.diagnostics["arms"][arm]
        assert diag["weighted_at_risk"][0] == pytest.approx(float(n))


# ------------------------------------------------------------- asymptotics


def test_ccw_asymptotic_scenario_a_is_unbiased_under_both_conventions():
    d = default_dgp(SCEN_A)
    truth = true_ate(d, SCEN_A, ALWAYS, NEVER)
    assert ccw_asymptotic(d, SCEN_A, ALWAYS, NEVER, LAGGED) == pytest.approx(
        truth, abs=1e-12
    )
    assert ccw_asymptotic(d, SCEN_A, ALWAYS, NEVER, CURRENT) == pytest.approx(
        truth, abs=1e-12
    )


def test_ccw_asymptotic_scenario_b_bias_by_convention():
    d = default_dgp(SCEN_B)
    truth = true_ate(d, SCEN_B, ALWAYS, NEVER)
    lagged = ccw_asymptotic(d, SCEN_B, ALWAYS, NEVER, LAGGED)
    current = ccw_asymptotic(d, SCEN_B, ALWAYS, NEVER, CURRENT)
    assert lagged == pytest.approx(0.1607969375, abs=1e-12)
    assert lagged - truth == pytest.approx(-0.0794, abs=0.003)
    assert current == pytest.approx(truth, abs=1e-12)


def test_ccw_asymptotic_returns_plain_float():
    value = ccw_asymptotic(default_dgp(SCEN_A), SCEN_A, ALWAYS, NEVER)
    assert isinstance(value, float)


# ------------------------------------------------------------ serialization


def test_ate_estimate_serialization():
    cohort = sample_cohort(default_dgp(SCEN_B), SCEN_B, 80, seed=2)
    est = ccw_ate(cohort, SCEN_B, ALWAYS, NEVER)
    payload = json.loads(est.to_json())
    assert set(payload) == {
        "survival_treat",
        "survival_control",
        "ate",
        "diagnostics",
    }
    assert payload["ate"] == est.ate
    assert payload["diagnostics"]["weight_convention"] == "lagged"
    arm = payload["diagnostics"]["arms"]["treat"]
    assert arm["regime"] == "always"
    assert len(arm["hazard"]) == 3
    assert isinstance(est, AteEstimate)


def test_write_clone_csv(tmp_path):
    cohort = b_cohort_t1([(1, 0), (1, 1), (0, 0), (0, 0)])
    rows = clone_rows(cohort, SCEN_B, NEVER, LAGGED)
    path = tmp_path / "clones.csv"
    write_clone_csv(rows, path)
    with open(path, newline="") as fh:
        records = list(csv.DictReader(fh))
    assert list(records[0]) == ["id", "arm", "period", "at_risk", "event", "weight"]
    assert len(records) == 4
    assert records[0] == {
        "id": "0",
        "arm": "never",
        "period": "1",
        "at_risk": "1",
        "event": "0",
        "weight": "1.0",
    }
    assert {r["arm"] for r in records} == {"never"}


def test_weight_convention_codes():
    assert WeightConvention.from_code("lagged") is LAGGED
    assert WeightConvention.from_code("current") is CURRENT
    with pytest.raises(ValueError, match="unknown weight convention"):
        WeightConvention.from_code("both")


def test_weight_convention_spelled_out_aliases():
    # The spelled-out alias members are gone; the two canonical ones remain.
    assert list(WeightConvention) == [LAGGED, CURRENT]
    assert not hasattr(WeightConvention, "LaggedWeights")
    assert not hasattr(WeightConvention, "CurrentPeriodWeights")
