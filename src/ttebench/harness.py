"""Replication engine for the estimator bias studies.

:func:`run_bias_study` simulates many cohorts from a scenario's
built-in generating process, runs the selected estimators on each,
and summarizes the per-replicate errors against the closed-form true
effect with a percentile bootstrap.

Everything is deterministic given the configuration: replicate seeds
are a fixed 64-bit mix of (master seed, replicate index), bootstrap
resampling uses an independent counter-based substream, and the report
JSON is byte-identical regardless of how many worker processes ran the
replicates (the ``TTEBENCH_WORKERS`` environment variable; default
serial).

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

from ._rng import STREAM_BOOTSTRAP, STREAM_REPLICATE, hash_key, uniform_array
from .dgp import TrajectoryCounts, default_dgp, sample_cohort, true_ate
from .errors import (
    AllReplicatesFailed,
    EmptyStratum,
    NoAtRiskRows,
    check_positive_int,
)
from .estimators import WeightConvention, ccw_ate, npmle_ate
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


def _replicate_worker(args: tuple) -> tuple[int, dict[str, float | None]]:
    """Run all selected estimators on one simulated cohort.

    The cohort is sampled and collapsed once to its distinct-trajectory
    counts, which every estimator reads. Top-level and fed only picklable
    objects so it can cross a process boundary; results are returned
    with the replicate index so aggregation is order-independent.
    """
    (index, kind, dgp, n_patients, seed, estimators,
     convention, treat, control) = args
    counts = TrajectoryCounts.from_cohort(
        sample_cohort(dgp, kind, n_patients, seed)
    )
    out: dict[str, float | None] = {}
    for name in estimators:
        try:
            if name == "npmle":
                out[name] = npmle_ate(counts, kind, treat, control).ate
            else:
                out[name] = ccw_ate(
                    counts, kind, treat, control, convention
                ).ate
        except (EmptyStratum, NoAtRiskRows):
            out[name] = None
    return index, out


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
    tasks = [
        (
            r,
            kind,
            dgp,
            config.n_patients,
            hash_key(config.master_seed, STREAM_REPLICATE, r),
            config.estimators,
            config.weight_convention,
            config.treat,
            config.control,
        )
        for r in range(config.n_replicates)
    ]
    results: list[dict[str, float | None] | None] = [None] * config.n_replicates
    workers = _worker_count()
    if workers == 1 or config.n_replicates == 1:
        for task in tasks:
            index, out = _replicate_worker(task)
            results[index] = out
    else:
        # Imported here: the process machinery costs about 2 MB of
        # memory that serial studies never need.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            for index, out in pool.map(
                _replicate_worker, tasks, chunksize=max(1, len(tasks) // (workers * 4))
            ):
                results[index] = out
    summaries: dict[str, EstimatorSummary] = {}
    for name in config.estimators:
        estimates = tuple(res[name] for res in results)  # type: ignore[index]
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
        scenario=kind,
        n_replicates=config.n_replicates,
        n_patients=config.n_patients,
        master_seed=config.master_seed,
        weight_convention=config.weight_convention,
        treat=config.treat,
        control=config.control,
        true_ate=truth,
        summaries=summaries,
        runtime_seconds=time.perf_counter() - start,
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
