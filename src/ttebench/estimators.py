"""Nonparametric survival estimators for time-partitioned trials.

Two estimators are implemented over the same per-period counts along a
treatment path (:func:`fit_strata`):

* :func:`npmle_ate` — plug-in of observed proportions into the
  product-form survival estimand (scenario A conditions hazards on the
  treatment history before the period, scenario B includes the period's
  own treatment).
* :func:`ccw_ate` — cloning, censoring and weighting: each patient is
  cloned into every arm, censored at the first treatment incompatible
  with the arm, and weighted by inverse survivor-conditioned treatment
  probabilities before per-period weighted hazards are pooled.

The weight timing in cloning-censoring-weighting is genuinely
ambiguous, so both conventions are available:

* :attr:`WeightConvention.LAGGED` (the default) keeps every row whose
  clone was uncensored *entering* the period in the risk set and
  weights it by the running product through the previous period
  (``W_0 = 1``). Deaths in the censoring period still count against
  the arm. This is the convention whose large-sample limit reproduces
  the known bias of the procedure in scenario B; in scenario A it is
  exact.
* :attr:`WeightConvention.CURRENT_PERIOD` drops rows censored in the
  period itself (weight 0) and multiplies the running weight by the
  period's own inverse survivor-propensity factor, evaluating death
  rows at the survivor-estimated propensity of their observed
  treatment (factor 1 when the treatment is unobservable). Its
  large-sample limit is exact in both scenarios.

All weights use survivor-conditioned treatment probabilities
``P(x_k | Y_k = 0, x_{<k})`` — in scenario B this conditioning on the
period's survivors rather than its entrants is precisely what the
lagged convention turns into bias.

Both estimators run on one representation: distinct trajectories with
their patient counts and summed patient weights, a sufficient statistic
for every stratum and risk set. The core takes R samples at once over
S distinct rows they share, with ``(R, S)`` count and weight matrices
(a row a sample lacks has count 0); :mod:`ttebench.harness` feeds it a
chunk of bias-study replicates. The public functions are the R = 1
case: a sampled or CSV cohort (:class:`~ttebench.dgp.TrajectoryCounts`)
and the exact population limit (:func:`ccw_asymptotic`) all go through
the same code.

Only the strata along a regime's path enter either estimator, so each
path is fitted on its own: one mask pass over the ``(S, T)`` distinct
rows and four sums per sample and period, shared by every estimator of
the batch. The sums add the rows in order, so a sample's estimates are
bit-identical whether it is estimated alone or in a batch. Each
sample's first failure (an empty stratum or risk set, with its period,
history, role or arm) is kept in masks; a batch reports the failed
samples as missing, the R = 1 functions raise it. That costs O(S·T)
whatever the horizon, where a table of every observed history grows
with the distinct histories; on a 40-period, 3000-patient cohort with
about 850 distinct trajectories npmle takes about 3 ms and
current-period CCW 3-4 ms.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Callable, NamedTuple, Sequence

import json

import numpy as np

from .dgp import Cohort, DgpTable, TrajectoryCounts, enumerate_distribution
from .dgp import _distinct_rows
from .errors import EmptyStratum, NoAtRiskRows
from .scenarios import Regime, ScenarioKind

__all__ = [
    "WeightConvention",
    "StratumTable",
    "CloneRow",
    "AteEstimate",
    "fit_strata",
    "npmle_ate",
    "clone_rows",
    "ccw_ate",
    "ccw_asymptotic",
    "write_clone_csv",
]


class WeightConvention(Enum):
    """Row-weight timing for cloning-censoring-weighting; the value is
    the short code accepted by :meth:`from_code`."""

    LAGGED = "lagged"
    CURRENT_PERIOD = "current"

    @classmethod
    def from_code(cls, code: str) -> "WeightConvention":
        for member in cls:
            if member.value == code:
                return member
        raise ValueError(
            f"unknown weight convention {code!r}; expected one of "
            f"{[m.value for m in cls]}"
        )


@dataclass(frozen=True, eq=False)
class StratumTable:
    """Weighted counts along one treatment path, one entry per period.

    Entry k-1 of ``hazard_num``/``hazard_den`` counts deaths in period k
    among its entrants who followed ``path`` through k-1 (scenario A) or
    through k (scenario B). Entry k-1 of ``propensity_num``/
    ``propensity_den`` counts treatment 1 in period k among its
    survivors who followed ``path`` through k-1, the survivor-conditioned
    propensity that cloning-censoring-weighting uses in both scenarios.
    """

    path: tuple[int, ...]
    hazard_num: np.ndarray
    hazard_den: np.ndarray
    propensity_num: np.ndarray
    propensity_den: np.ndarray


CohortData = Cohort | TrajectoryCounts


def _patient_weights(cohort: Cohort, weights) -> np.ndarray | None:
    if weights is None:
        return None
    w = np.asarray(weights, dtype=np.float64)
    if w.shape != (cohort.n,):
        raise ValueError(
            f"weights has length {w.size}, cohort has {cohort.n} patients"
        )
    bad = np.flatnonzero(~np.isfinite(w))
    if bad.size:
        raise ValueError(
            f"patient weights must be finite; weight {bad[0]} is {w[bad[0]]}"
        )
    if (w < 0).any():
        raise ValueError("patient weights must be nonnegative")
    return w


class _Rows(NamedTuple):
    """R samples over S shared distinct trajectories: ``x``/``y`` are
    ``(S, T)`` rows, ``count`` and ``weight`` the ``(R, S)`` patients
    and summed patient weight of each row in each sample. A row with
    count 0 is absent from that sample."""

    x: np.ndarray
    y: np.ndarray
    count: np.ndarray
    weight: np.ndarray


def _rows(data: CohortData, weights) -> _Rows:
    """The input as one sample (R = 1): a cohort collapsed into its
    distinct trajectories, patient counts and summed weights."""
    if isinstance(data, TrajectoryCounts):
        if weights is not None:
            raise ValueError(
                "weights are per patient; pass a Cohort, not TrajectoryCounts"
            )
        counts = data
    else:
        counts = TrajectoryCounts.from_cohort(data, _patient_weights(data, weights))
    if not counts.count.size:
        raise ValueError("cohort is empty")
    return _Rows(counts.x, counts.y, counts.count[None], counts.weight[None])


class _Failures:
    """The first estimation failure of each of R samples.

    Checks are added in the order a single-sample estimator would raise
    them; each is an ``(R, T)`` mask of failing periods and a function
    from the failing period to the error.
    """

    def __init__(self, R: int):
        self.check = np.full(R, -1)
        self.period = np.zeros(R, dtype=np.int64)
        self.errors: list[Callable[[int], Exception]] = []

    def add(self, failed: np.ndarray, error: Callable[[int], Exception]) -> None:
        new = failed.any(axis=1) & (self.check < 0)
        if new.any():
            self.check[new] = len(self.errors)
            self.period[new] = failed[new].argmax(axis=1) + 1
        self.errors.append(error)

    @property
    def ok(self) -> np.ndarray:
        return self.check < 0

    def raise_first(self, r: int = 0) -> None:
        """Raise sample ``r``'s first failure, if it has one."""
        if self.check[r] >= 0:
            raise self.errors[self.check[r]](int(self.period[r]))


class _PathFit(NamedTuple):
    """One treatment path's ``(S, T)`` row masks (at risk in period k,
    alive at its end, treated in it as the path is) and the ``(R, 4, T)``
    sums of :class:`StratumTable`'s four arrays."""

    at_risk: np.ndarray
    alive: np.ndarray
    on_path: np.ndarray
    sums: np.ndarray


def _fit_path(rows: _Rows, kind: ScenarioKind, path: tuple[int, ...]) -> _PathFit:
    """Mask the rows along ``path`` once and sum every sample's counts."""
    alive = rows.y == 0
    on_path = rows.x == np.asarray(path, dtype=np.int8)
    at_risk = np.ones_like(alive)
    np.logical_and.accumulate(
        alive[:, :-1] & on_path[:, :-1], axis=1, out=at_risk[:, 1:]
    )
    survivors = at_risk & alive
    hazard_set = at_risk & on_path if kind.treatment_first else at_risk
    cells = np.array((
        hazard_set & ~alive, hazard_set, survivors & (rows.x == 1), survivors,
    )).transpose(1, 0, 2)
    # Rows are added in order, as one sum per (sample, table, period); a
    # row a sample lacks adds an exact 0.0.
    sums = np.where(
        cells[:, None], rows.weight.T[:, :, None, None], 0.0
    ).sum(axis=0)
    return _PathFit(at_risk, alive, on_path, sums)


def fit_strata(
    cohort: CohortData,
    kind: ScenarioKind,
    path: Sequence[int],
    *,
    weights: Sequence[float] | None = None,
) -> StratumTable:
    """Exact (optionally weighted) counts along one treatment path.

    ``cohort`` is a per-patient :class:`~ttebench.dgp.Cohort` (with
    optional per-patient ``weights``) or its
    :class:`~ttebench.dgp.TrajectoryCounts`; ``path`` holds the
    treatment (0 or 1) of each of its T periods. With ``weights`` equal
    to exact trajectory probabilities from
    :func:`~ttebench.dgp.enumerate_distribution`, the fitted hazards
    reproduce the generating table along the path exactly, which is how
    the population-level oracles are built.
    """
    rows = _rows(cohort, weights)
    T = rows.x.shape[1]
    path = tuple(path)
    if len(path) != T or not set(path) <= {0, 1}:
        raise ValueError(
            f"path must hold the 0/1 treatments of {T} periods, got {path}"
        )
    return StratumTable(path, *_fit_path(rows, kind, path).sums[0])


@dataclass(frozen=True)
class AteEstimate:
    """Arm survival curves, their difference at the horizon, and
    estimation diagnostics."""

    survival_treat: tuple[float, ...]
    survival_control: tuple[float, ...]
    ate: float
    diagnostics: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "survival_treat": list(self.survival_treat),
            "survival_control": list(self.survival_control),
            "ate": self.ate,
            "diagnostics": self.diagnostics,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"


def _check_ccw_regime(regime: Regime) -> None:
    if not regime.is_deterministic:
        raise ValueError(
            "grace-period regimes are not supported by cloning-censoring-"
            "weighting; use npmle_ate"
        )


def _arm_path(regime: Regime, T: int) -> tuple[int, ...]:
    """The treatment path of a deterministic regime over periods 1..T."""
    _check_ccw_regime(regime)
    regime.validate(T)
    return tuple(regime.treatment_at(t) for t in range(1, T + 1))


def _fit_paths(
    rows: _Rows, kind: ScenarioKind, regimes: Sequence[Regime]
) -> dict[tuple[int, ...], _PathFit]:
    """Every path of the regimes' deterministic components, fitted once
    for all the estimators of a batch."""
    T = rows.x.shape[1]
    paths = {_arm_path(c, T) for regime in regimes for c in regime.components()}
    return {path: _fit_path(rows, kind, path) for path in paths}


def _npmle_batch(
    rows: _Rows,
    kind: ScenarioKind,
    treat: Regime,
    control: Regime,
    fits: dict[tuple[int, ...], _PathFit],
) -> tuple[np.ndarray, np.ndarray, _Failures]:
    """Each sample's plug-in survival curves ``(R, T)`` of both arms, and
    its first empty hazard stratum. A grace-period regime averages the
    curves of its initiation components."""
    T = rows.x.shape[1]
    failures = _Failures(rows.count.shape[0])
    curves = []
    for regime in (treat, control):
        components = regime.components()
        total = 0.0
        for component in components:
            path = _arm_path(component, T)
            num, den = fits[path].sums[:, :2].transpose(1, 0, 2)
            failures.add(~(den > 0.0), lambda k, path=path: EmptyStratum(
                k, kind.hazard_history(path, k), role="hazard"
            ))
            total = total + np.cumprod(1.0 - num / den, axis=1)
        curves.append(total / len(components))
    return curves[0], curves[1], failures


def _npmle_curves(
    data: CohortData, kind: ScenarioKind, treat: Regime, control: Regime, weights
) -> tuple[list[float], list[float]]:
    """Both arms' plug-in curves of one cohort (R = 1)."""
    rows = _rows(data, weights)
    with np.errstate(divide="ignore", invalid="ignore"):
        s_treat, s_control, failures = _npmle_batch(
            rows, kind, treat, control, _fit_paths(rows, kind, (treat, control))
        )
    failures.raise_first()
    return s_treat[0].tolist(), s_control[0].tolist()


def npmle_ate(
    cohort: CohortData,
    kind: ScenarioKind,
    treat: Regime,
    control: Regime,
    *,
    weights: Sequence[float] | None = None,
    baseline: Sequence | None = None,
) -> AteEstimate:
    """Plug-in of observed hazard proportions into the product estimand.

    Grace-period regimes are handled by uniformly averaging the curves
    of their initiation components. With ``baseline`` given (one label
    per patient of a :class:`~ttebench.dgp.Cohort`), curves are fitted
    within each baseline level and standardized over the levels'
    empirical (weighted) distribution.
    """
    T = cohort.T
    treat.validate(T)
    control.validate(T)
    if baseline is not None:
        if not isinstance(cohort, Cohort):
            raise ValueError(
                "baseline standardization needs a per-patient Cohort"
            )
        w = _patient_weights(cohort, weights)
        w = [1.0] * cohort.n if w is None else w.tolist()
        baseline = list(baseline)
        if len(baseline) != cohort.n:
            raise ValueError(
                f"baseline has length {len(baseline)}, cohort has {cohort.n}"
            )
        groups: dict[object, list[int]] = {}
        for i, level in enumerate(baseline):
            groups.setdefault(level, []).append(i)
        total = sum(w)
        if total <= 0:
            raise ValueError("total patient weight must be positive")
        curve_t = [0.0] * T
        curve_c = [0.0] * T
        for level in sorted(groups, key=repr):
            idx = groups[level]
            share = sum(w[i] for i in idx) / total
            if share == 0.0:
                continue
            sub = Cohort(cohort.x[idx], cohort.y[idx], cohort.scenario)
            level_t, level_c = _npmle_curves(
                sub, kind, treat, control, [w[i] for i in idx]
            )
            for k in range(T):
                curve_t[k] += share * level_t[k]
                curve_c[k] += share * level_c[k]
        s_treat, s_control = curve_t, curve_c
    else:
        s_treat, s_control = _npmle_curves(cohort, kind, treat, control, weights)
    return AteEstimate(
        survival_treat=tuple(s_treat),
        survival_control=tuple(s_control),
        ate=s_treat[-1] - s_control[-1],
        diagnostics={
            "method": "npmle",
            "n_patients": cohort.n,
            "standardized_over_baseline": baseline is not None,
        },
    )


@dataclass(frozen=True)
class CloneRow:
    """One clone's follow-up in one period of one arm.

    ``at_risk`` is true while the clone is alive entering the period
    and was not censored in an earlier period; ``censored_now`` marks
    the first period whose observed treatment is incompatible with the
    arm. Rows that are not at risk carry weight 0.
    """

    patient_id: int
    arm: Regime
    period: int
    at_risk: bool
    event: bool
    censored_now: bool
    weight: float


def _clone_arm(
    rows: _Rows,
    fit: _PathFit,
    path: tuple[int, ...],
    weight_convention: WeightConvention,
    failures: _Failures,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One arm's clones over the distinct rows: the ``(S, T)`` event and
    censored-now masks, and the ``(S, R, T)`` weight per unit of patient
    weight (0 where not at risk) in each sample. A sample that lacks a
    needed propensity stratum gets a failure.

    A clone uncensored entering period k followed ``path`` through k-1,
    so its running weight is one number per period: the product of the
    factors ``1/q_j`` for j < k, with ``q_j`` the survivor-estimated
    probability of the path's period-j treatment.
    """
    target = np.asarray(path, dtype=np.int8)
    at_risk = fit.at_risk
    event = at_risk & ~fit.alive
    censored = at_risk & (rows.x == 1 - target)
    current = weight_convention is WeightConvention.CURRENT_PERIOD
    # Period k's factor is needed by a clone that continues past k and,
    # under the current-period convention, by one treated as the path.
    needs = at_risk & fit.alive & ~censored
    if current:
        on_path = fit.on_path & at_risk
        needs |= on_path
    needed = rows.count @ needs > 0
    _, _, propensity_num, propensity_den = fit.sums.transpose(1, 0, 2)
    defined = propensity_den > 0.0
    q = propensity_num / np.where(defined, propensity_den, 1.0)
    prob = np.where(target == 1, q, 1.0 - q)
    failures.add(
        needed & ~(defined & (prob > 0.0)),
        lambda k: EmptyStratum(k, path[: k - 1], role="propensity"),
    )
    # No clone reaches past a factor it does not need, so 1 stands in.
    through = np.cumprod(1.0 / np.where(needed, prob, 1.0), axis=1)
    lagged = np.ones_like(through)
    lagged[:, 1:] = through[:, :-1]
    if current:
        unit = np.where(
            on_path[:, None], through, np.where(censored[:, None], 0.0, lagged)
        )
    else:
        unit = lagged
    return event, censored, np.where(at_risk[:, None], unit, 0.0)


def clone_rows(
    cohort: Cohort,
    kind: ScenarioKind,
    regime: Regime,
    weight_convention: WeightConvention = WeightConvention.LAGGED,
    *,
    weights: Sequence[float] | None = None,
) -> list[CloneRow]:
    """The clone-level rows of one arm, one row per patient-period.

    An audit view of what :func:`ccw_ate` pools. Weights already include
    the optional per-patient weights, so pooling is a plain weighted
    proportion per period.
    """
    path = _arm_path(regime, cohort.T)
    w = _patient_weights(cohort, weights)
    rows = _rows(TrajectoryCounts.from_cohort(cohort, w), None)
    fit = _fit_path(rows, kind, path)
    failures = _Failures(1)
    with np.errstate(divide="ignore", invalid="ignore"):
        event, censored, unit = _clone_arm(
            rows, fit, path, weight_convention, failures
        )
    failures.raise_first()
    _, row_of, _ = _distinct_rows(cohort.x, cohort.y)
    at_risk, event, censored, unit = (
        a[row_of] for a in (fit.at_risk, event, censored, unit[:, 0])
    )
    if w is not None:
        unit = unit * w[:, None]
    return [
        CloneRow(pid, regime, t, *cell)
        for pid, patient in enumerate(zip(
            at_risk.tolist(), event.tolist(), censored.tolist(), unit.tolist()
        ))
        for t, cell in enumerate(zip(*patient), start=1)
    ]


class _Arm(NamedTuple):
    """One CCW arm of R samples: ``(R, T)`` survival, weighted risk set,
    weighted events and hazard, and patients at risk."""

    survival: np.ndarray
    weighted_at_risk: np.ndarray
    weighted_events: np.ndarray
    hazard: np.ndarray
    n_at_risk: np.ndarray


def _ccw_batch(
    rows: _Rows,
    kind: ScenarioKind,
    treat: Regime,
    control: Regime,
    weight_convention: WeightConvention,
    fits: dict[tuple[int, ...], _PathFit],
) -> tuple[_Arm, _Arm, _Failures]:
    """Both CCW arms of every sample, and each sample's first failure:
    an empty propensity stratum or an empty risk set, arm by arm."""
    T = rows.x.shape[1]
    paths = [_arm_path(regime, T) for regime in (treat, control)]
    failures = _Failures(rows.count.shape[0])
    arms = []
    for regime, path in zip((treat, control), paths):
        path_fit = fits[path]
        event, _, unit = _clone_arm(
            rows, path_fit, path, weight_convention, failures
        )
        mass = unit * rows.weight.T[:, :, None]
        # Sums over the rows in order, as for the fit.
        den = mass.sum(axis=0)
        num = np.where(event[:, None], mass, 0.0).sum(axis=0)
        failures.add(
            den <= 0.0, lambda k, arm=regime.describe(): NoAtRiskRows(arm, k)
        )
        hazard = num / den
        arms.append(_Arm(
            np.cumprod(1.0 - hazard, axis=1), den, num, hazard,
            rows.count @ path_fit.at_risk,
        ))
    return arms[0], arms[1], failures


def ccw_ate(
    cohort: CohortData,
    kind: ScenarioKind,
    treat: Regime,
    control: Regime,
    weight_convention: WeightConvention = WeightConvention.LAGGED,
    *,
    weights: Sequence[float] | None = None,
) -> AteEstimate:
    """Cloning-censoring-weighting estimate of the survival difference.

    Patients are cloned into both arms, censored at the first
    incompatible treatment, and weighted per the convention; per-period
    hazards are exact weighted proportions (the MLE of a saturated
    weighted model) and survival is their product. Each arm is pooled
    straight from the distinct trajectories; :func:`clone_rows` lists
    the same rows per patient.
    """
    for regime in (treat, control):
        _arm_path(regime, cohort.T)
    rows = _rows(cohort, weights)
    with np.errstate(divide="ignore", invalid="ignore"):
        arms = _ccw_batch(
            rows, kind, treat, control, weight_convention,
            _fit_paths(rows, kind, (treat, control)),
        )
    arms[2].raise_first()
    diagnostics: dict = {
        "method": "ccw",
        "weight_convention": weight_convention.value,
        "arms": {
            name: {
                "regime": regime.describe(),
                "n_at_risk": arm.n_at_risk[0].tolist(),
                "weighted_at_risk": arm.weighted_at_risk[0].tolist(),
                "weighted_events": arm.weighted_events[0].tolist(),
                "hazard": arm.hazard[0].tolist(),
            }
            for name, regime, arm in zip(
                ("treat", "control"), (treat, control), arms
            )
        },
    }
    s_treat, s_control = arms[0].survival[0].tolist(), arms[1].survival[0].tolist()
    return AteEstimate(
        survival_treat=tuple(s_treat),
        survival_control=tuple(s_control),
        ate=s_treat[-1] - s_control[-1],
        diagnostics=diagnostics,
    )


def ccw_asymptotic(
    dgp: DgpTable,
    kind: ScenarioKind,
    treat: Regime,
    control: Regime,
    weight_convention: WeightConvention = WeightConvention.LAGGED,
) -> float:
    """Large-sample limit of :func:`ccw_ate` under a generating process.

    Runs the exact estimator pipeline on the enumerated trajectory
    support with probabilities as patient weights, so every sample
    proportion is replaced by its population value.
    """
    support = enumerate_distribution(dgp, kind)
    cohort = Cohort.from_trajectories((traj for traj, _ in support), kind)
    probs = [p for _, p in support]
    estimate = ccw_ate(
        cohort, kind, treat, control, weight_convention, weights=probs
    )
    return estimate.ate


def write_clone_csv(rows: Sequence[CloneRow], path: str | Path) -> None:
    """Audit export: ``id,arm,period,at_risk,event,weight`` per row."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["id", "arm", "period", "at_risk", "event", "weight"])
        for row in rows:
            writer.writerow(
                [
                    row.patient_id,
                    row.arm.describe(),
                    row.period,
                    int(row.at_risk),
                    int(row.event),
                    row.weight,
                ]
            )
