"""The distinct-trajectory estimator core against the per-patient oracle.

The oracle in ``_oracles.py`` walks every patient and every clone row.
Unweighted plug-in estimates add the same integer-valued floats in both
paths and must be bit-identical; everything else sums in a different
order and must agree within 1e-12 (relative for the weighted risk-set
sums, which grow with the cohort). Where either path raises, the other
must raise the same error for the same stratum or arm and period.
"""

import math
import random

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ttebench import (
    Cohort,
    EmptyStratum,
    NoAtRiskRows,
    Regime,
    ScenarioKind,
    Trajectory,
    TrajectoryCounts,
    UNCLEAR,
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
    oracle_standardized_npmle,
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


def hand_built(kind, T, n, seed):
    """A valid cohort of always-treated, never-treated and randomly
    treated patients, each dying in a period with probability 0.05."""
    rng = random.Random(seed)
    trajectories = []
    for _ in range(n):
        plan = rng.choice(("always", "never", "random"))
        xs, ys, alive = [], [], True
        for _ in range(T):
            entered = alive
            alive = alive and rng.random() >= 0.05
            observed = entered if kind.treatment_first else alive
            treated = {"always": 1, "never": 0}.get(plan, rng.randint(0, 1))
            xs.append(treated if observed else UNCLEAR)
            ys.append(0 if alive else 1)
        trajectories.append(Trajectory(tuple(xs), tuple(ys)))
    return Cohort.from_trajectories(trajectories, kind)


@st.composite
def cohorts(draw):
    """Sampled three-period cohorts, or hand-built ones with up to 40
    periods and nearly every patient distinct; optional patient weights
    and one random treatment path to compare the strata along."""
    kind = draw(st.sampled_from(SCENARIOS))
    seed = draw(st.integers(0, 2**64 - 1))
    if draw(st.booleans()):
        cohort = sample_cohort(
            default_dgp(kind), kind, draw(st.integers(1, 300)), seed
        )
    else:
        cohort = hand_built(
            kind, draw(st.integers(3, 40)), draw(st.integers(1, 60)), seed
        )
    n = cohort.n
    weight = st.one_of(
        st.just(0.0), st.floats(0.0, 10.0, allow_subnormal=False)
    )
    weights = draw(st.one_of(st.none(), st.lists(weight, min_size=n, max_size=n)))
    path = tuple(draw(st.lists(
        st.integers(0, 1), min_size=cohort.T, max_size=cohort.T
    )))
    return kind, cohort, weights, path


@given(cohorts())
@settings(max_examples=120, deadline=None)
def test_core_matches_per_patient_oracle(case):
    kind, cohort, weights, random_path = case
    n = cohort.n
    exact = weights is None
    # Unweighted input also runs through the cohort's counts.
    inputs = [(cohort, {"weights": weights})]
    if exact:
        inputs.append((TrajectoryCounts.from_cohort(cohort), {}))

    assert counts_by_trajectory(
        TrajectoryCounts.from_cohort(cohort, weights)
    ) == oracle_counts(cohort, weights)

    want_hazard, want_survivor = want_strata = oracle_fit_strata(
        cohort, kind, weights
    )
    paths = [random_path] + [
        tuple(regime.treatment_at(t) for t in range(1, cohort.T + 1))
        for regime in (ALWAYS, NEVER, Regime.initiate_at(2))
    ]
    for data, kw in inputs:
        for path in paths:
            table = fit_strata(data, kind, path, **kw)
            assert table.path == path
            for k in range(1, cohort.T + 1):
                for got, want in (
                    ((table.hazard_num, table.hazard_den),
                     want_hazard.get((k, kind.hazard_history(path, k)))),
                    ((table.propensity_num, table.propensity_den),
                     want_survivor.get((k, path[: k - 1]))),
                ):
                    pair = (float(got[0][k - 1]), float(got[1][k - 1]))
                    assert close(
                        pair, want or (0.0, 0.0), exact, rel=TOL
                    ), (path, k)

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

        for regime in (treat, control):
            want = outcome(lambda: oracle_clone_rows(
                cohort, kind, regime, convention, want_strata, weights))
            got = outcome(lambda: clone_rows(
                cohort, kind, regime, convention, weights=weights))
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


@given(cohorts(), st.data())
@settings(max_examples=80, deadline=None)
def test_baseline_standardization_matches_per_level_estimates(case, data):
    """Standardized curves are bit-identical to each level's own
    sub-cohort estimate averaged by weight share, and the first level
    that raises raises the same error."""
    kind, cohort, weights, _ = case
    assume(weights is None or sum(weights) > 0)
    baseline = data.draw(st.lists(
        st.sampled_from([0, 1, "b", (2,)]), min_size=cohort.n, max_size=cohort.n
    ), label="baseline")
    treat, control = data.draw(st.sampled_from(NPMLE_ARMS), label="arms")
    want = outcome(lambda: oracle_standardized_npmle(
        cohort, kind, treat, control, weights, baseline))
    got = outcome(lambda: npmle_ate(
        cohort, kind, treat, control, weights=weights, baseline=baseline))
    assert got[0] == want[0], (got, want)
    if got[0] == "raised":
        assert got == want
        return
    est, (s_t, s_c) = got[1], want[1]
    assert list(est.survival_treat) == s_t
    assert list(est.survival_control) == s_c
    assert est.ate == s_t[-1] - s_c[-1]
