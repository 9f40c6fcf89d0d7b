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

Both estimators run on one representation: the cohort's distinct
trajectories with their patient counts and summed patient weights
(:class:`~ttebench.dgp.TrajectoryCounts`), a sufficient statistic for
every stratum and risk set. Sampled cohorts, CSV cohorts and the exact
population limit (:func:`ccw_asymptotic`) all go through it.

Only the strata along a regime's path enter either estimator, so each
path is fitted on its own: four length-T arrays summed over boolean
``(S, T)`` masks of the S distinct rows. That costs O(S·T) whatever
the horizon, where a table of every observed history grows with the
distinct histories; on a 40-period, 3000-patient cohort with about
850 distinct trajectories npmle takes about 3 ms and current-period
CCW 3-4 ms.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Sequence

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


def _as_counts(data: CohortData, weights) -> TrajectoryCounts:
    """Collapse the input into distinct trajectories, patient counts and
    summed weights, the one representation the estimators run on."""
    if isinstance(data, TrajectoryCounts):
        if weights is not None:
            raise ValueError(
                "weights are per patient; pass a Cohort, not TrajectoryCounts"
            )
        return data
    return TrajectoryCounts.from_cohort(data, _patient_weights(data, weights))


def _path_masks(
    counts: TrajectoryCounts, path: tuple[int, ...]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Boolean ``(S, T)`` masks of the distinct rows: at risk in period
    k (alive entering it, having followed ``path`` through k-1), alive
    at its end, and treated in it as ``path`` is."""
    alive = counts.y == 0
    on_path = counts.x == np.asarray(path, dtype=np.int8)
    at_risk = np.ones_like(alive)
    np.logical_and.accumulate(
        alive[:, :-1] & on_path[:, :-1], axis=1, out=at_risk[:, 1:]
    )
    return at_risk, alive, on_path


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
    counts = _as_counts(cohort, weights)
    if not counts.count.size:
        raise ValueError("cohort is empty")
    path = tuple(path)
    if len(path) != counts.T or not set(path) <= {0, 1}:
        raise ValueError(
            f"path must hold the 0/1 treatments of {counts.T} periods, "
            f"got {path}"
        )
    at_risk, alive, on_path = _path_masks(counts, path)
    survivors = at_risk & alive
    if kind.treatment_first:
        at_risk &= on_path
    cells = np.array((
        at_risk & ~alive, at_risk, survivors & (counts.x == 1), survivors,
    ))
    # Rows are added in order, as one sum per (table, period).
    sums = np.where(cells, counts.weight[:, None], 0.0).sum(axis=1)
    return StratumTable(path, *sums)


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


def _arm_path(regime: Regime, T: int) -> tuple[int, ...]:
    """The treatment path of a deterministic regime over periods 1..T."""
    if not regime.is_deterministic:
        raise ValueError(
            "grace-period regimes are not supported by cloning-censoring-"
            "weighting; use npmle_ate"
        )
    regime.validate(T)
    return tuple(regime.treatment_at(t) for t in range(1, T + 1))


def _plugin_curve(
    counts: TrajectoryCounts, kind: ScenarioKind, regime: Regime
) -> list[float]:
    T = counts.T
    if not regime.is_deterministic:
        curves = [
            _plugin_curve(counts, kind, comp) for comp in regime.components()
        ]
        return [sum(c[k] for c in curves) / len(curves) for k in range(T)]
    path = _arm_path(regime, T)
    table = fit_strata(counts, kind, path)
    defined = table.hazard_den > 0.0
    if not defined.all():
        k = int(np.flatnonzero(~defined)[0]) + 1
        raise EmptyStratum(k, kind.hazard_history(path, k), role="hazard")
    return np.cumprod(1.0 - table.hazard_num / table.hazard_den).tolist()


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
            sub_counts = _as_counts(sub, [w[i] for i in idx])
            for k, v in enumerate(_plugin_curve(sub_counts, kind, treat)):
                curve_t[k] += share * v
            for k, v in enumerate(_plugin_curve(sub_counts, kind, control)):
                curve_c[k] += share * v
        s_treat, s_control = curve_t, curve_c
    else:
        counts = _as_counts(cohort, weights)
        s_treat = _plugin_curve(counts, kind, treat)
        s_control = _plugin_curve(counts, kind, control)
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
    counts: TrajectoryCounts,
    kind: ScenarioKind,
    path: tuple[int, ...],
    weight_convention: WeightConvention,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """One arm's clones as ``(S, T)`` arrays over the distinct rows:
    at risk, event, censored now, and the weight per unit of patient
    weight (0 where not at risk).

    A clone uncensored entering period k followed ``path`` through k-1,
    so its running weight is one number per period: the product of the
    factors ``1/q_j`` for j < k, with ``q_j`` the survivor-estimated
    probability of the path's period-j treatment.
    """
    table = fit_strata(counts, kind, path)
    target = np.asarray(path, dtype=np.int8)
    at_risk, alive, on_path = _path_masks(counts, path)
    event = at_risk & ~alive
    censored = at_risk & (counts.x == 1 - target)
    current = weight_convention is WeightConvention.CURRENT_PERIOD
    # Period k's factor is needed by a clone that continues past k and,
    # under the current-period convention, by one treated as the path.
    needed = (at_risk & alive & ~censored).any(axis=0)
    if current:
        on_path &= at_risk
        needed |= on_path.any(axis=0)
    defined = table.propensity_den > 0.0
    q = table.propensity_num / np.where(defined, table.propensity_den, 1.0)
    prob = np.where(target == 1, q, 1.0 - q)
    missing = needed & ~(defined & (prob > 0.0))
    if missing.any():
        k = int(np.flatnonzero(missing)[0]) + 1
        raise EmptyStratum(k, path[: k - 1], role="propensity")
    # No clone reaches past a factor it does not need, so 1 stands in.
    through = np.cumprod(1.0 / np.where(needed, prob, 1.0))
    lagged = np.concatenate(([1.0], through[:-1]))
    if current:
        unit = np.where(on_path, through, np.where(censored, 0.0, lagged))
    else:
        unit = lagged
    return at_risk, event, censored, np.where(at_risk, unit, 0.0)


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
    counts = TrajectoryCounts.from_cohort(cohort, w)
    arm = _clone_arm(counts, kind, path, weight_convention)
    _, row_of, _ = _distinct_rows(cohort.x, cohort.y)
    at_risk, event, censored, unit = (a[row_of] for a in arm)
    if w is not None:
        unit = unit * w[:, None]
    return [
        CloneRow(pid, regime, t, *cell)
        for pid, patient in enumerate(zip(
            at_risk.tolist(), event.tolist(), censored.tolist(), unit.tolist()
        ))
        for t, cell in enumerate(zip(*patient), start=1)
    ]


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
    counts = _as_counts(cohort, weights)
    curves: dict[str, list[float]] = {}
    diagnostics: dict = {
        "method": "ccw",
        "weight_convention": weight_convention.value,
        "arms": {},
    }
    for name, regime in (("treat", treat), ("control", control)):
        path = _arm_path(regime, counts.T)
        at_risk, event, _, unit = _clone_arm(
            counts, kind, path, weight_convention
        )
        mass = unit * counts.weight[:, None]
        den = mass.sum(axis=0)
        num = np.where(event, mass, 0.0).sum(axis=0)
        empty = den <= 0.0
        if empty.any():
            raise NoAtRiskRows(
                regime.describe(), int(np.flatnonzero(empty)[0]) + 1
            )
        hazard = num / den
        curves[name] = np.cumprod(1.0 - hazard).tolist()
        diagnostics["arms"][name] = {
            "regime": regime.describe(),
            "n_at_risk": (counts.count @ at_risk).tolist(),
            "weighted_at_risk": den.tolist(),
            "weighted_events": num.tolist(),
            "hazard": hazard.tolist(),
        }
    return AteEstimate(
        survival_treat=tuple(curves["treat"]),
        survival_control=tuple(curves["control"]),
        ate=curves["treat"][-1] - curves["control"][-1],
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
