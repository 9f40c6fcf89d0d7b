"""Replication engine for the estimator bias studies.

:func:`run_bias_study` simulates many cohorts from a scenario's
built-in generating process, runs the selected estimators on each,
and summarizes the per-replicate errors against the closed-form true
effect with a percentile bootstrap.

Replicates are not run one by one. A chunk of them is sampled in one
keyed pass (:func:`ttebench.dgp._sample_batch`), collapsed to the
distinct trajectories of the whole chunk with an ``(R, S)`` matrix of
each replicate's patient counts, and estimated as one batch of
``(R, T)`` array operations (:mod:`ttebench.estimators`), with each
replicate's first failure kept as a mask. A chunk holds whole
replicates up to ``_CHUNK_PATIENTS`` patients, so memory stays bounded
however many replicates a study has. The sums add each replicate's rows
in the same order as a single-cohort estimate, so every estimate is
bit-identical to :func:`~ttebench.estimators.npmle_ate` or
:func:`~ttebench.estimators.ccw_ate` on that replicate's cohort.

Everything is deterministic given the configuration: replicate seeds
are a fixed 64-bit mix of (master seed, replicate index), bootstrap
resampling uses an independent counter-based substream, and the report
JSON is byte-identical regardless of the chunk size or of how many
worker processes ran the replicates (the ``TTEBENCH_WORKERS``
environment variable; default serial). Each worker gets one contiguous
range of replicates and runs it in chunks, as the serial path does.

The bootstrap resamples the vector of replicate-level errors (estimate
minus truth) rather than patient-level data: the mean of resampled
errors equals the mean of resampled estimates up to the constant true
effect, and the error form is what the bias summary needs.
"""

from __future__ import annotations

import csv
import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping

import numpy as np

from ._rng import (
    STREAM_BOOTSTRAP,
    STREAM_REPLICATE,
    hash_key_array,
    uniform_array,
)
from .dgp import _batch_rows, _sample_batch, default_dgp, true_ate
from .errors import AllReplicatesFailed, check_positive_int
# ``ccw_ate`` is not used here, but the benchmark's smoke tests read it
# as ``harness.ccw_ate``.
from .estimators import (  # noqa: F401
    WeightConvention,
    ccw_ate,
    _Rows,
    _ccw_batch,
    _check_ccw_regime,
    _npmle_batch,
    _fit_paths,
)
from .scenarios import Regime, ScenarioKind

__all__ = [
    "StudyConfig",
    "EstimatorSummary",
    "BiasReport",
    "run_bias_study",
    "parameter_count",
    "write_estimates_csv",
    "WORKERS_ENV_VAR",
]

#: Environment variable selecting the number of replicate worker processes.
WORKERS_ENV_VAR = "TTEBENCH_WORKERS"

_KNOWN_ESTIMATORS = ("npmle", "ccw")

#: Stable substream tag per estimator for bootstrap resampling.
_ESTIMATOR_TAGS = {"npmle": 1, "ccw": 2}


@dataclass(frozen=True)
class StudyConfig:
    """Complete description of one bias study."""

    scenario: ScenarioKind
    n_replicates: int = 1000
    n_patients: int = 1000
    master_seed: int = 0
    estimators: tuple[str, ...] = ("npmle", "ccw")
    weight_convention: WeightConvention = WeightConvention.LAGGED
    bootstrap_iterations: int = 1000
    treat: Regime = field(default_factory=Regime.always_from_start)
    control: Regime = field(default_factory=Regime.never)
    report_path: str | None = None
    estimates_path: str | None = None

    def __post_init__(self):
        check_positive_int("n_replicates", self.n_replicates)
        check_positive_int("n_patients", self.n_patients)
        check_positive_int("bootstrap_iterations", self.bootstrap_iterations)
        if not isinstance(self.master_seed, int) or isinstance(self.master_seed, bool):
            raise ValueError(
                f"master_seed must be an integer, got {self.master_seed!r}"
            )
        for name in ("report_path", "estimates_path"):
            value = getattr(self, name)
            if value is not None and not isinstance(value, str):
                raise ValueError(f"{name} must be a string or null, got {value!r}")
        if not self.estimators:
            raise ValueError("estimators must be a nonempty subset of "
                             f"{_KNOWN_ESTIMATORS}")
        for est in self.estimators:
            if est not in _KNOWN_ESTIMATORS:
                raise ValueError(
                    f"unknown estimator {est!r}; expected members of "
                    f"{_KNOWN_ESTIMATORS}"
                )
        if len(set(self.estimators)) != len(self.estimators):
            raise ValueError("estimators contains duplicates")
        if "ccw" in self.estimators:
            _check_ccw_regime(self.treat)
            _check_ccw_regime(self.control)

    @classmethod
    def from_json(cls, text: str) -> "StudyConfig":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValueError(f"config is not valid JSON: {exc}") from None
        if not isinstance(payload, dict):
            raise ValueError("config JSON must be an object")
        known = {
            "scenario",
            "n_replicates",
            "n_patients",
            "master_seed",
            "estimators",
            "weight_convention",
            "bootstrap_iterations",
            "treat",
            "control",
            "report_path",
            "estimates_path",
        }
        unknown = set(payload) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        if "scenario" not in payload:
            raise ValueError("config must set 'scenario' to \"A\" or \"B\"")
        kwargs: dict = {"scenario": ScenarioKind.from_code(payload["scenario"])}
        for key in ("n_replicates", "n_patients", "master_seed",
                    "bootstrap_iterations", "report_path", "estimates_path"):
            if key in payload:
                kwargs[key] = payload[key]
        if "estimators" in payload:
            if not isinstance(payload["estimators"], list):
                raise ValueError(
                    "estimators must be a list of estimator names, got "
                    f"{payload['estimators']!r}"
                )
            kwargs["estimators"] = tuple(payload["estimators"])
        if "weight_convention" in payload:
            kwargs["weight_convention"] = WeightConvention.from_code(
                payload["weight_convention"]
            )
        if "treat" in payload:
            kwargs["treat"] = Regime.from_descriptor(payload["treat"])
        if "control" in payload:
            kwargs["control"] = Regime.from_descriptor(payload["control"])
        return cls(**kwargs)

    def to_json(self) -> str:
        payload = {
            "scenario": self.scenario.code,
            "n_replicates": self.n_replicates,
            "n_patients": self.n_patients,
            "master_seed": self.master_seed,
            "estimators": list(self.estimators),
            "weight_convention": self.weight_convention.value,
            "bootstrap_iterations": self.bootstrap_iterations,
            "treat": self.treat.describe(),
            "control": self.control.describe(),
        }
        if self.report_path is not None:
            payload["report_path"] = self.report_path
        if self.estimates_path is not None:
            payload["estimates_path"] = self.estimates_path
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"


@dataclass(frozen=True)
class EstimatorSummary:
    """One estimator's replicate results and bias summary."""

    estimates: tuple[float | None, ...]
    mean_bias: float
    ci_lower: float
    ci_upper: float
    failures: int

    def to_dict(self) -> dict:
        return {
            "estimates": list(self.estimates),
            "mean_bias": self.mean_bias,
            "ci_lower": self.ci_lower,
            "ci_upper": self.ci_upper,
            "failures": self.failures,
        }


@dataclass(frozen=True)
class BiasReport:
    """Results of a bias study.

    ``runtime_seconds`` is informational and deliberately excluded
    from :meth:`to_json`, which must be byte-identical for identical
    configurations regardless of wall-clock or worker count.
    """

    scenario: ScenarioKind
    n_replicates: int
    n_patients: int
    master_seed: int
    weight_convention: WeightConvention
    treat: Regime
    control: Regime
    true_ate: float
    summaries: Mapping[str, EstimatorSummary]
    runtime_seconds: float = 0.0

    def to_dict(self) -> dict:
        return {
            "scenario": self.scenario.code,
            "n_replicates": self.n_replicates,
            "n_patients": self.n_patients,
            "master_seed": self.master_seed,
            "weight_convention": self.weight_convention.value,
            "treat": self.treat.describe(),
            "control": self.control.describe(),
            "true_ate": self.true_ate,
            "estimators": {
                name: summary.to_dict() for name, summary in self.summaries.items()
            },
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"


#: Patients sampled at once: a range of replicates is run in chunks of
#: this many patients' worth of whole replicates (at least one), which
#: keeps the sampler's arrays to a few tens of MB.
_CHUNK_PATIENTS = 1 << 18


def _run_range(task: tuple) -> dict[str, list[float | None]]:
    """Estimates of a contiguous range of replicates, per estimator.

    Each chunk of replicates is sampled in one keyed pass, collapsed to
    its distinct trajectories with an ``(R, S)`` count matrix and
    estimated as one batch; every treatment path is fitted once for all
    estimators. Failed replicates give ``None``. Top-level and fed only
    picklable objects, so that a worker process can run it.
    """
    (kind, dgp, n_patients, master_seed, start, stop, estimators,
     convention, treat, control) = task
    out: dict[str, list[float | None]] = {name: [] for name in estimators}
    step = max(1, _CHUNK_PATIENTS // n_patients)
    for lo in range(start, stop, step):
        replicates = np.arange(lo, min(lo + step, stop), dtype=np.uint64)
        seeds = hash_key_array([master_seed, STREAM_REPLICATE, replicates])
        x, y, count = _batch_rows(*_sample_batch(dgp, kind, n_patients, seeds))
        rows = _Rows(x, y, count, count.astype(np.float64))
        fits = _fit_paths(rows, kind, (treat, control))
        with np.errstate(divide="ignore", invalid="ignore"):
            for name in estimators:
                if name == "npmle":
                    s_treat, s_control, failures = _npmle_batch(
                        rows, kind, treat, control, fits
                    )
                else:
                    treat_arm, control_arm, failures = _ccw_batch(
                        rows, kind, treat, control, convention, fits
                    )
                    s_treat, s_control = treat_arm.survival, control_arm.survival
                ates = (s_treat[:, -1] - s_control[:, -1]).tolist()
                out[name] += [
                    ate if ok else None
                    for ate, ok in zip(ates, failures.ok.tolist())
                ]
    return out


def _worker_count() -> int:
    raw = os.environ.get(WORKERS_ENV_VAR)
    if raw is None:
        return 1
    try:
        count = int(raw)
    except ValueError:
        raise ValueError(
            f"{WORKERS_ENV_VAR} must be an integer >= 1, got {raw!r}"
        ) from None
    if count < 1:
        raise ValueError(f"{WORKERS_ENV_VAR} must be >= 1, got {count}")
    return count


def _bootstrap_ci(
    errors: np.ndarray, master_seed: int, tag: int, iterations: int
) -> tuple[float, float]:
    """Percentile CI of the mean of resampled replicate errors."""
    m = errors.size
    counters = np.arange(iterations * m, dtype=np.uint64)
    u = uniform_array([master_seed, STREAM_BOOTSTRAP, tag, counters])
    idx = (u * m).astype(np.int64).reshape(iterations, m)
    means = errors[idx].mean(axis=1)
    lo, hi = np.percentile(means, [2.5, 97.5])
    return float(lo), float(hi)


def run_bias_study(config: StudyConfig) -> BiasReport:
    """Simulate, estimate, and summarize one bias study.

    Per-replicate estimation failures (empty strata, empty risk sets)
    are recorded, not fatal; :class:`AllReplicatesFailed` is raised only
    when an estimator produced no usable replicate at all.
    """
    kind = config.scenario
    dgp = default_dgp(kind)
    config.treat.validate(dgp.T)
    config.control.validate(dgp.T)
    start = time.perf_counter()
    truth = true_ate(dgp, kind, config.treat, config.control)
    R = config.n_replicates
    workers = min(_worker_count(), R)
    bounds = [R * w // workers for w in range(workers + 1)]
    tasks = [
        (kind, dgp, config.n_patients, config.master_seed, lo, hi,
         config.estimators, config.weight_convention, config.treat,
         config.control)
        for lo, hi in zip(bounds, bounds[1:])
    ]
    if workers == 1:
        ranges = map(_run_range, tasks)
    else:
        # Imported here: the process machinery costs about 2 MB of
        # memory that serial studies never need.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            ranges = list(pool.map(_run_range, tasks))
    results: dict[str, list[float | None]] = {
        name: [] for name in config.estimators
    }
    for out in ranges:
        for name in config.estimators:
            results[name] += out[name]
    return _report(config, truth, results, time.perf_counter() - start)


def _report(
    config: StudyConfig,
    truth: float,
    results: Mapping[str, list[float | None]],
    runtime_seconds: float,
) -> BiasReport:
    """Summarize each estimator's replicate estimates (``None`` for a
    failed replicate) against the true effect."""
    summaries: dict[str, EstimatorSummary] = {}
    for name in config.estimators:
        estimates = tuple(results[name])
        values = [e for e in estimates if e is not None]
        failures = len(estimates) - len(values)
        if not values:
            raise AllReplicatesFailed(
                f"estimator {name!r} failed on all {config.n_replicates} replicates"
            )
        errors = np.asarray(values, dtype=np.float64) - truth
        mean_bias = float(errors.mean())
        lo, hi = _bootstrap_ci(
            errors, config.master_seed, _ESTIMATOR_TAGS[name],
            config.bootstrap_iterations,
        )
        summaries[name] = EstimatorSummary(
            estimates=estimates,
            mean_bias=mean_bias,
            ci_lower=lo,
            ci_upper=hi,
            failures=failures,
        )
    return BiasReport(
        scenario=config.scenario,
        n_replicates=config.n_replicates,
        n_patients=config.n_patients,
        master_seed=config.master_seed,
        weight_convention=config.weight_convention,
        treat=config.treat,
        control=config.control,
        true_ate=truth,
        summaries=summaries,
        runtime_seconds=runtime_seconds,
    )


def write_estimates_csv(report: BiasReport, path: str | Path) -> None:
    """Per-replicate point estimates, one column per estimator; failed
    replicates leave the cell empty."""
    names = list(report.summaries)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["replicate"] + names)
        for r in range(report.n_replicates):
            row: list = [r]
            for name in names:
                value = report.summaries[name].estimates[r]
                row.append("" if value is None else value)
            writer.writerow(row)


def parameter_count(
    n_control_periods: int,
    n_subgroups: int,
    n_treat_periods: int,
    c_levels: int,
) -> int:
    """Number of saturated-model parameters the full estimand demands.

    ``c_levels * (n_control_periods + n_subgroups * n_treat_periods) - 1``:
    one hazard parameter per control-arm period and per treated
    subgroup-period, replicated per baseline level, with the shared
    first-period block absorbing one parameter against the baseline
    distribution's own degrees of freedom.
    """
    check_positive_int("n_control_periods", n_control_periods)
    check_positive_int("n_subgroups", n_subgroups)
    check_positive_int("n_treat_periods", n_treat_periods)
    check_positive_int("c_levels", c_levels)
    return c_levels * (n_control_periods + n_subgroups * n_treat_periods) - 1
