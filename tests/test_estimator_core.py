"""The distinct-trajectory estimator core against the per-patient oracle.

The oracle in ``_oracles.py`` walks every patient and every clone row.
Unweighted plug-in estimates add the same integer-valued floats in both
paths and must be bit-identical; everything else sums in a different
order and must agree within 1e-12 (relative for the weighted risk-set
sums, which grow with the cohort). Where either path raises, the other
must raise the same error for the same stratum or arm and period.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from ttebench import (
    EmptyStratum,
    NoAtRiskRows,
    Regime,
    ScenarioKind,
    TrajectoryCounts,
    WeightConvention,
    ccw_ate,
    clone_rows,
    default_dgp,
    fit_strata,
    npmle_ate,
    sample_cohort,
)

from ._oracles import (
    counts_by_trajectory,
    oracle_ccw,
    oracle_clone_rows,
    oracle_counts,
    oracle_fit_strata,
    oracle_npmle,
)

SCENARIOS = (ScenarioKind.from_code("A"), ScenarioKind.from_code("B"))
ALWAYS = Regime.always_from_start()
NEVER = Regime.never()
ARMS = ((ALWAYS, NEVER), (NEVER, ALWAYS))
NPMLE_ARMS = ARMS + (
    (Regime.uniform_grace(2), NEVER),
    (Regime.uniform_grace(3), ALWAYS),
)
CONVENTIONS = tuple(WeightConvention)
TOL = 1e-12


def outcome(fn):
    """``("ok", value)``, or the raised error's class and location."""
    try:
        return ("ok", fn())
    except EmptyStratum as exc:
        return ("raised", EmptyStratum, exc.period, exc.history, exc.role)
    except NoAtRiskRows as exc:
        return ("raised", NoAtRiskRows, exc.period, exc.arm)


def close(a, b, exact: bool, rel: float = 0.0) -> bool:
    if exact:
        return list(a) == list(b)
    return all(
        math.isclose(u, v, rel_tol=rel, abs_tol=TOL) for u, v in zip(a, b)
    ) and len(a) == len(b)


@st.composite
def cohorts(draw):
    kind = draw(st.sampled_from(SCENARIOS))
    n = draw(st.integers(1, 300))
    seed = draw(st.integers(0, 2**64 - 1))
    weight = st.one_of(
        st.just(0.0), st.floats(0.0, 10.0, allow_subnormal=False)
    )
    weights = draw(st.one_of(st.none(), st.lists(weight, min_size=n, max_size=n)))
    return kind, n, seed, weights


@given(cohorts())
@settings(max_examples=120, deadline=None)
def test_core_matches_per_patient_oracle(case):
    kind, n, seed, weights = case
    dgp = default_dgp(kind)
    cohort = sample_cohort(dgp, kind, n, seed)
    exact = weights is None
    # Unweighted input also runs through the cohort's counts.
    inputs = [(cohort, {"weights": weights})]
    if exact:
        inputs.append((TrajectoryCounts.from_cohort(cohort), {}))

    assert counts_by_trajectory(
        TrajectoryCounts.from_cohort(cohort, weights)
    ) == oracle_counts(cohort, weights)

    want_strata = oracle_fit_strata(cohort, kind, weights)
    for data, kw in inputs:
        strata = fit_strata(data, kind, **kw)
        for table in ("hazard", "propensity", "survivor_propensity"):
            got = getattr(strata, table)
            want = getattr(want_strata, table)
            assert got.keys() == want.keys()
            for key, cell in want.items():
                pair = (cell.numerator, cell.denominator)
                assert close(
                    (got[key].numerator, got[key].denominator), pair,
                    exact, rel=TOL,
                ), (table, key)

    for treat, control in NPMLE_ARMS:
        want = outcome(lambda: oracle_npmle(cohort, kind, treat, control, weights))
        for data, kw in inputs:
            got = outcome(lambda: npmle_ate(data, kind, treat, control, **kw))
            assert got[0] == want[0], (got, want)
            if got[0] == "raised":
                assert got == want
                continue
            est, (s_t, s_c, ate) = got[1], want[1]
            assert close(est.survival_treat, s_t, exact)
            assert close(est.survival_control, s_c, exact)
            assert close([est.ate], [ate], exact)
            assert est.diagnostics["n_patients"] == n

    for (treat, control), convention in [
        (arms, c) for arms in ARMS for c in CONVENTIONS
    ]:
        want = outcome(lambda: oracle_ccw(
            cohort, kind, treat, control, convention, weights))
        for data, kw in inputs:
            got = outcome(lambda: ccw_ate(
                data, kind, treat, control, convention, **kw))
            assert got[0] == want[0], (got, want)
            if got[0] == "raised":
                assert got == want
                continue
            est, (curves, arms, ate) = got[1], want[1]
            assert close(est.survival_treat, curves["treat"], False)
            assert close(est.survival_control, curves["control"], False)
            assert close([est.ate], [ate], False)
            for name, diag in arms.items():
                got_diag = est.diagnostics["arms"][name]
                assert got_diag["n_at_risk"] == diag["n_at_risk"]
                for key in ("weighted_at_risk", "weighted_events", "hazard"):
                    assert close(got_diag[key], diag[key], False, rel=TOL), key

        strata = fit_strata(cohort, kind, weights=weights)
        for regime in (treat, control):
            want = outcome(lambda: oracle_clone_rows(
                cohort, kind, regime, convention, want_strata, weights))
            got = outcome(lambda: clone_rows(
                cohort, kind, regime, convention, strata=strata,
                weights=weights))
            assert got[0] == want[0], (got, want)
            if got[0] == "raised":
                assert got == want
                continue
            assert len(got[1]) == len(want[1]) == n * cohort.T
            for row, ref in zip(got[1], want[1]):
                assert (row.patient_id, row.arm, row.period, row.at_risk,
                        row.event, row.censored_now) == (
                    ref.patient_id, ref.arm, ref.period, ref.at_risk,
                    ref.event, ref.censored_now)
                assert close([row.weight], [ref.weight], False, rel=TOL)
