"""Nonparametric survival estimators for time-partitioned trials.

Two estimators are implemented over the same saturated stratum counts:

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
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Mapping, Sequence

import json

import numpy as np

from .dgp import Cohort, DgpTable, TrajectoryCounts, enumerate_distribution
from .dgp import _distinct_rows
from .errors import EmptyStratum, NoAtRiskRows
from .scenarios import Regime, ScenarioKind

__all__ = [
    "WeightConvention",
    "Stratum",
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


@dataclass(frozen=True)
class Stratum:
    """Weighted numerator/denominator of one observed proportion."""

    numerator: float
    denominator: float

    @property
    def defined(self) -> bool:
        return self.denominator > 0.0

    @property
    def proportion(self) -> float:
        if not self.defined:
            raise ValueError("stratum has zero denominator; proportion undefined")
        return self.numerator / self.denominator


_EMPTY_STRATUM = Stratum(0.0, 0.0)

Key = tuple[int, tuple[int, ...]]


@dataclass(frozen=True)
class StratumTable:
    """Saturated per-period proportions fitted from one cohort.

    ``hazard[(k, history)]`` counts deaths in period k among patients
    alive entering k with the given treatment history (through k-1 in
    scenario A, through k in scenario B). ``propensity[(k, history)]``
    counts treatment 1 in period k given history through k-1, under the
    scenario's native conditioning (period-k survivors in scenario A,
    period-k entrants in scenario B). ``survivor_propensity`` always
    conditions on surviving period k; in scenario A it coincides with
    ``propensity``.
    """

    scenario: ScenarioKind
    T: int
    hazard: Mapping[Key, Stratum]
    propensity: Mapping[Key, Stratum]
    survivor_propensity: Mapping[Key, Stratum]

    def hazard_at(self, k: int, history: tuple[int, ...]) -> Stratum:
        return self.hazard.get((k, history), _EMPTY_STRATUM)

    def propensity_at(self, k: int, history: tuple[int, ...]) -> Stratum:
        return self.propensity.get((k, history), _EMPTY_STRATUM)

    def survivor_propensity_at(self, k: int, history: tuple[int, ...]) -> Stratum:
        return self.survivor_propensity.get((k, history), _EMPTY_STRATUM)


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


def fit_strata(
    cohort: CohortData, kind: ScenarioKind, *, weights: Sequence[float] | None = None
) -> StratumTable:
    """Exact (optionally weighted) counts for every observed stratum.

    ``cohort`` is a per-patient :class:`~ttebench.dgp.Cohort` (with
    optional per-patient ``weights``) or its
    :class:`~ttebench.dgp.TrajectoryCounts`. With ``weights`` equal to
    exact trajectory probabilities from
    :func:`~ttebench.dgp.enumerate_distribution`, the fitted proportions
    reproduce the generating tables exactly, which is how the
    population-level oracles are built.
    """
    if cohort.n == 0:
        raise ValueError("cohort is empty")
    counts = _as_counts(cohort, weights)
    hazard: dict[Key, list[float]] = {}
    propensity: dict[Key, list[float]] = {}
    survivor: dict[Key, list[float]] = {}

    def tally(table: dict[Key, list[float]], key: Key, hit: bool, wt: float):
        cell = table.setdefault(key, [0.0, 0.0])
        cell[1] += wt
        if hit:
            cell[0] += wt

    T = counts.T
    for xs, ys, wt in zip(
        counts.x.tolist(), counts.y.tolist(), counts.weight.tolist()
    ):
        if wt == 0.0:
            continue
        hist: tuple[int, ...] = ()
        for t in range(1, T + 1):
            xv = xs[t - 1]
            yv = ys[t - 1]
            if kind.treatment_first:
                tally(propensity, (t, hist), xv == 1, wt)
                hist_t = hist + (xv,)
                tally(hazard, (t, hist_t), yv == 1, wt)
                if yv == 1:
                    break
                tally(survivor, (t, hist), xv == 1, wt)
                hist = hist_t
            else:
                tally(hazard, (t, hist), yv == 1, wt)
                if yv == 1:
                    break
                tally(propensity, (t, hist), xv == 1, wt)
                hist = hist + (xv,)

    def freeze(table: dict[Key, list[float]]) -> dict[Key, Stratum]:
        return {key: Stratum(num, den) for key, (num, den) in table.items()}

    hazard_f = freeze(hazard)
    propensity_f = freeze(propensity)
    survivor_f = freeze(survivor) if kind.treatment_first else propensity_f
    return StratumTable(
        scenario=kind,
        T=T,
        hazard=hazard_f,
        propensity=propensity_f,
        survivor_propensity=survivor_f,
    )


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


def _plugin_curve(
    strata: StratumTable, kind: ScenarioKind, regime: Regime, T: int
) -> list[float]:
    if not regime.is_deterministic:
        curves = [
            _plugin_curve(strata, kind, comp, T) for comp in regime.components()
        ]
        return [sum(c[k] for c in curves) / len(curves) for k in range(T)]
    path = tuple(regime.treatment_at(t) for t in range(1, T + 1))
    out: list[float] = []
    s = 1.0
    for k in range(1, T + 1):
        hist = kind.hazard_history(path, k)
        stratum = strata.hazard_at(k, hist)
        if not stratum.defined:
            raise EmptyStratum(k, hist, role="hazard")
        s *= 1.0 - stratum.proportion
        out.append(s)
    return out


def npmle_ate(
    cohort: CohortData,
    kind: ScenarioKind,
    treat: Regime,
    control: Regime,
    *,
    weights: Sequence[float] | None = None,
    baseline: Sequence | None = None,
    strata: StratumTable | None = None,
) -> AteEstimate:
    """Plug-in of observed hazard proportions into the product estimand.

    Grace-period regimes are handled by uniformly averaging the curves
    of their initiation components. With ``baseline`` given (one label
    per patient of a :class:`~ttebench.dgp.Cohort`), curves are fitted
    within each baseline level and standardized over the levels'
    empirical (weighted) distribution. ``strata`` reuses a
    :func:`fit_strata` of the same cohort and weights.
    """
    T = cohort.T
    treat.validate(T)
    control.validate(T)
    if baseline is not None:
        if not isinstance(cohort, Cohort) or strata is not None:
            raise ValueError(
                "baseline standardization needs a per-patient Cohort and "
                "fits its own strata"
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
            sub_strata = fit_strata(sub, kind, weights=[w[i] for i in idx])
            for k, v in enumerate(_plugin_curve(sub_strata, kind, treat, T)):
                curve_t[k] += share * v
            for k, v in enumerate(_plugin_curve(sub_strata, kind, control, T)):
                curve_c[k] += share * v
        s_treat, s_control = curve_t, curve_c
    else:
        if strata is None:
            strata = fit_strata(cohort, kind, weights=weights)
        s_treat = _plugin_curve(strata, kind, treat, T)
        s_control = _plugin_curve(strata, kind, control, T)
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


def _survivor_factor(
    strata: StratumTable, k: int, history: tuple[int, ...], observed: int
) -> float:
    stratum = strata.survivor_propensity_at(k, history)
    if not stratum.defined:
        raise EmptyStratum(k, history, role="propensity")
    p = stratum.proportion
    prob = p if observed == 1 else 1.0 - p
    if prob <= 0.0:
        raise EmptyStratum(k, history, role="propensity")
    return 1.0 / prob


def _arm_path(regime: Regime, T: int) -> tuple[int, ...]:
    """The treatment path of a cloned arm over periods 1..T."""
    if not regime.is_deterministic:
        raise ValueError(
            "grace-period regimes are not supported by cloning-censoring-"
            "weighting; use npmle_ate"
        )
    regime.validate(T)
    return tuple(regime.treatment_at(t) for t in range(1, T + 1))


def _clone_periods(
    counts: TrajectoryCounts,
    strata: StratumTable,
    path: tuple[int, ...],
    weight_convention: WeightConvention,
) -> list[list[tuple[bool, bool, float]]]:
    """Per distinct trajectory, its clone's ``(event, censored_now,
    weight)`` in each at-risk period, from period 1 on.

    The weight is per unit of patient weight. Every clone of the arm
    follows one treatment path, so the first stratum that fails is the
    same whichever trajectory meets it first.
    """
    lagged = weight_convention is WeightConvention.LAGGED
    out = []
    for xs, ys in zip(counts.x.tolist(), counts.y.tolist()):
        periods = []
        w_run = 1.0
        hist: tuple[int, ...] = ()
        for t, (xv, yv, target) in enumerate(zip(xs, ys, path), start=1):
            censored_now = not (xv < 0 or xv == target)
            event = yv == 1
            if lagged:
                weight = w_run
            elif censored_now:
                weight = 0.0
            else:
                factor = 1.0 if xv < 0 else _survivor_factor(strata, t, hist, xv)
                weight = w_run * factor
            periods.append((event, censored_now, weight))
            if event or censored_now:
                break
            w_run *= _survivor_factor(strata, t, hist, xv)
            hist = hist + (xv,)
        out.append(periods)
    return out


def clone_rows(
    cohort: Cohort,
    kind: ScenarioKind,
    regime: Regime,
    weight_convention: WeightConvention = WeightConvention.LAGGED,
    *,
    strata: StratumTable | None = None,
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
    if strata is None:
        strata = fit_strata(counts, kind)
    periods = _clone_periods(counts, strata, path, weight_convention)
    _, row_of, _ = _distinct_rows(cohort.x, cohort.y)
    pw_list = [1.0] * cohort.n if w is None else w.tolist()
    rows: list[CloneRow] = []
    for pid, (row, pw) in enumerate(zip(row_of.tolist(), pw_list)):
        at_risk = periods[row]
        for t in range(1, cohort.T + 1):
            if t <= len(at_risk):
                event, censored_now, weight = at_risk[t - 1]
                rows.append(
                    CloneRow(pid, regime, t, True, event, censored_now,
                             weight * pw)
                )
            else:
                rows.append(CloneRow(pid, regime, t, False, False, False, 0.0))
    return rows


def _pooled_curve(
    counts: TrajectoryCounts,
    periods: list[list[tuple[bool, bool, float]]],
    arm_name: str,
) -> tuple[list[float], dict]:
    T = counts.T
    num = [0.0] * T
    den = [0.0] * T
    n_at_risk = [0] * T
    for at_risk, c, wt in zip(
        periods, counts.count.tolist(), counts.weight.tolist()
    ):
        for k, (event, _, weight) in enumerate(at_risk):
            n_at_risk[k] += c
            den[k] += weight * wt
            if event:
                num[k] += weight * wt
    curve: list[float] = []
    hazards: list[float] = []
    s = 1.0
    for k in range(T):
        if den[k] <= 0.0:
            raise NoAtRiskRows(arm_name, k + 1)
        h = num[k] / den[k]
        hazards.append(h)
        s *= 1.0 - h
        curve.append(s)
    diag = {
        "n_at_risk": n_at_risk,
        "weighted_at_risk": den,
        "weighted_events": num,
        "hazard": hazards,
    }
    return curve, diag


def ccw_ate(
    cohort: CohortData,
    kind: ScenarioKind,
    treat: Regime,
    control: Regime,
    weight_convention: WeightConvention = WeightConvention.LAGGED,
    *,
    weights: Sequence[float] | None = None,
    strata: StratumTable | None = None,
) -> AteEstimate:
    """Cloning-censoring-weighting estimate of the survival difference.

    Patients are cloned into both arms, censored at the first
    incompatible treatment, and weighted per the convention; per-period
    hazards are exact weighted proportions (the MLE of a saturated
    weighted model) and survival is their product. Each arm is pooled
    straight from the distinct trajectories; :func:`clone_rows` lists
    the same rows per patient. ``strata`` reuses a :func:`fit_strata`
    of the same cohort and weights.
    """
    counts = _as_counts(cohort, weights)
    if strata is None:
        strata = fit_strata(counts, kind)
    curves: dict[str, list[float]] = {}
    diagnostics: dict = {
        "method": "ccw",
        "weight_convention": weight_convention.value,
        "arms": {},
    }
    for name, regime in (("treat", treat), ("control", control)):
        path = _arm_path(regime, counts.T)
        periods = _clone_periods(counts, strata, path, weight_convention)
        curve, diag = _pooled_curve(counts, periods, regime.describe())
        curves[name] = curve
        diagnostics["arms"][name] = {"regime": regime.describe(), **diag}
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
