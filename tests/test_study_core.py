"""The batched bias-study core against the per-replicate oracle.

``run_bias_study`` samples, collapses and estimates whole chunks of
replicates at once; ``oracle_bias_study`` in ``_oracles.py`` runs one
replicate at a time, each cohort sampled with a full hash per draw and
estimated on its own distinct trajectories. Their reports must be
byte-identical, failed replicates included, whatever the chunk size.
"""

import hashlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ttebench.dgp as dgp_mod
import ttebench.harness as harness_mod
from ttebench import (
    AllReplicatesFailed,
    Regime,
    ScenarioKind,
    StudyConfig,
    WeightConvention,
    default_dgp,
    run_bias_study,
    sample_cohort,
)

from ._oracles import oracle_bias_study

SCEN_A = ScenarioKind.from_code("A")
SCEN_B = ScenarioKind.from_code("B")
DETERMINISTIC = st.sampled_from(
    [Regime.always_from_start(), Regime.never()]
    + [Regime.initiate_at(j) for j in (1, 2, 3)]
)
GRACE = st.sampled_from([Regime.uniform_grace(g) for g in (1, 2, 3)])


def report_or_error(run, config) -> str:
    try:
        return run(config).to_json()
    except AllReplicatesFailed as exc:
        return f"AllReplicatesFailed: {exc}"


@st.composite
def study_configs(draw):
    estimators = draw(st.sampled_from(
        [("npmle",), ("ccw",), ("npmle", "ccw"), ("ccw", "npmle")]
    ))
    arms = DETERMINISTIC if "ccw" in estimators else DETERMINISTIC | GRACE
    return StudyConfig(
        scenario=draw(st.sampled_from([SCEN_A, SCEN_B])),
        n_replicates=draw(st.integers(1, 40)),
        n_patients=draw(st.integers(1, 300)),
        master_seed=draw(st.integers(-2**63, 2**64 - 1)),
        estimators=estimators,
        weight_convention=draw(st.sampled_from(list(WeightConvention))),
        bootstrap_iterations=draw(st.integers(1, 50)),
        treat=draw(arms),
        control=draw(arms),
    )


@given(study_configs())
@settings(max_examples=100, deadline=None)
# Some replicates fail (the study of test_partial_failures_are_recorded_not_fatal).
@example(StudyConfig(scenario=SCEN_B, n_replicates=40, n_patients=10,
                     master_seed=5, bootstrap_iterations=20))
@example(StudyConfig(
    scenario=SCEN_A, n_replicates=30, n_patients=6, master_seed=11,
    estimators=("npmle",), bootstrap_iterations=10,
    treat=Regime.uniform_grace(3), control=Regime.initiate_at(2),
))
# Every replicate fails.
@example(StudyConfig(scenario=SCEN_B, n_replicates=3, n_patients=1,
                     master_seed=0, estimators=("npmle",),
                     bootstrap_iterations=10))
def test_batched_study_matches_the_per_replicate_oracle(config):
    assert report_or_error(run_bias_study, config) == report_or_error(
        oracle_bias_study, config
    )


#: SHA-256 of the report JSON of 1000-patient studies at master seed
#: 20260815, as recorded before replicates were batched: 1000
#: replicates with the lagged convention, 300 with the current-period
#: one. Any change to a sum's order or to a draw moves them.
REPORT_DIGESTS = {
    ("A", "lagged", 1000):
        "bfed8b89e14ebe67da455d4697498b5af649d4b21eff0b368c663e3a71329615",
    ("B", "lagged", 1000):
        "01c905834cfb29e45b4421b284fece872e5ce2058e895515d7a5c91ab3c0d6d4",
    ("A", "current", 300):
        "443f778c773a24d84bc55dfd15e35a82a6799f53b6f5549188568a9195e3ef8a",
    ("B", "current", 300):
        "ce8f04e710343986c7021026f4b9c106a32ae6b6ca973f86f7d2a2d6e87b5dbc",
}


@pytest.mark.parametrize("code, convention, replicates", sorted(REPORT_DIGESTS))
def test_headline_reports_are_byte_identical(code, convention, replicates):
    report = run_bias_study(StudyConfig(
        scenario=ScenarioKind.from_code(code),
        n_replicates=replicates,
        master_seed=20260815,
        weight_convention=WeightConvention.from_code(convention),
    ))
    digest = hashlib.sha256(report.to_json().encode()).hexdigest()
    assert digest == REPORT_DIGESTS[(code, convention, replicates)]


@pytest.mark.parametrize("replicates_per_chunk", [1, 7])
def test_report_does_not_depend_on_the_chunk_size(monkeypatch, replicates_per_chunk):
    for config in (
        StudyConfig(scenario=SCEN_B, n_replicates=40, n_patients=10,
                    master_seed=5, bootstrap_iterations=20),
        StudyConfig(scenario=SCEN_A, n_replicates=23, n_patients=200,
                    master_seed=3, bootstrap_iterations=20,
                    weight_convention=WeightConvention.CURRENT_PERIOD),
    ):
        whole = run_bias_study(config).to_json()
        monkeypatch.setattr(
            harness_mod, "_CHUNK_PATIENTS",
            replicates_per_chunk * config.n_patients,
        )
        assert run_bias_study(config).to_json() == whole
        monkeypatch.undo()


@pytest.mark.parametrize("kind", [SCEN_A, SCEN_B])
def test_sample_cohort_is_one_row_of_the_batch_sampler(kind):
    dgp = default_dgp(kind)
    seeds = [0, 1, 2**64 - 1, 20260815, 2**63 + 7]
    x, y = dgp_mod._sample_batch(dgp, kind, 257, np.array(seeds, dtype=np.uint64))
    assert x.shape == y.shape == (len(seeds), 257, dgp.T)
    for r, seed in enumerate(seeds):
        cohort = sample_cohort(dgp, kind, 257, seed)
        assert cohort.x.dtype == x.dtype and cohort.y.dtype == y.dtype
        assert np.array_equal(cohort.x, x[r]) and np.array_equal(cohort.y, y[r])
    # Negative seeds wrap to their 64-bit pattern.
    assert np.array_equal(sample_cohort(dgp, kind, 257, -1).x, x[2])


def test_invalid_config_is_rejected_before_sampling(monkeypatch):
    def no_sampling(*args, **kwargs):
        raise AssertionError("sampled a study whose config cannot run")

    monkeypatch.setattr(harness_mod, "_sample_batch", no_sampling)
    monkeypatch.setattr(dgp_mod, "_sample_batch", no_sampling)
    for arms in (
        {"treat": Regime.uniform_grace(2)},
        {"control": Regime.uniform_grace(3)},
    ):
        with pytest.raises(ValueError, match="grace-period regimes are not supported"):
            StudyConfig(scenario=SCEN_B, estimators=("npmle", "ccw"), **arms)
        with pytest.raises(ValueError, match="grace-period regimes are not supported"):
            StudyConfig.from_json(
                '{"scenario": "A", "estimators": ["ccw"], '
                f'"{next(iter(arms))}": "{next(iter(arms.values())).describe()}"}}'
            )
    # npmle alone averages the grace components.
    StudyConfig(scenario=SCEN_B, estimators=("npmle",),
                treat=Regime.uniform_grace(2))
