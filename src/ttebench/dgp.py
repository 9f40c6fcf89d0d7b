"""Data-generating processes for the two simulation scenarios.

A :class:`DgpTable` holds, for every period, the conditional
probability of death (hazard) and of treatment initiation (propensity)
given the full treatment history that the scenario requires. Tables are
materialized over every parent configuration so they double as exact
oracles: the module can enumerate the whole trajectory distribution,
compute closed-form counterfactual survival under a regime, and sample
cohorts reproducibly.

Treatment is ternary: 0, 1, or :data:`UNCLEAR` (``"u"``) when death
makes the period's treatment unobservable. In scenario A the outcome of
a period precedes its treatment, so the death period itself carries
``u``; in scenario B the treatment is given first, so the death
period's treatment is observed and ``u`` starts the period after.

Sampling is counter-based: each draw is keyed by (seed, patient,
period, slot), so cohorts are bit-for-bit reproducible regardless of
evaluation order or parallelism. Per period, the outcome slot is drawn
before the treatment slot in scenario A and after it in scenario B.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from itertools import product
from pathlib import Path
from typing import Final, Mapping

import numpy as np

from ._rng import (
    SLOT_OUTCOME,
    SLOT_TREATMENT,
    STREAM_SAMPLE,
    uniform_array,
)
from .errors import SupportTooLarge
from .scenarios import Regime, ScenarioKind

__all__ = [
    "UNCLEAR",
    "DgpTable",
    "Trajectory",
    "Cohort",
    "TrajectoryCounts",
    "default_dgp",
    "sample_cohort",
    "sample_counts",
    "enumerate_distribution",
    "counterfactual_survival",
    "true_ate",
    "validate_trajectory",
    "cohort_rows",
    "write_cohort_csv",
    "read_cohort_csv",
    "dgp_to_json",
    "dgp_from_json",
]

#: Treatment value when death precludes observing the period's treatment.
UNCLEAR: Final[str] = "u"

#: Cap on the number of trajectories exact enumeration will produce.
MAX_SUPPORT: Final[int] = 10**6


@dataclass(frozen=True)
class DgpTable:
    """Per-period conditional tables for hazard and propensity.

    ``hazard[(k, history)]`` is the probability of death in period k
    given survival through k-1 and the treatment history (through k-1
    in scenario A, through k in scenario B). ``propensity[(k, history)]``
    is the probability of treatment 1 in period k given the history
    through k-1; it conditions on surviving period k in scenario A and
    on having entered period k alive in scenario B.
    """

    T: int
    hazard: Mapping[tuple[int, tuple[int, ...]], float]
    propensity: Mapping[tuple[int, tuple[int, ...]], float]

    def __post_init__(self):
        if not isinstance(self.T, int) or self.T < 1:
            raise ValueError(f"T must be an integer >= 1, got {self.T!r}")
        for label, table in (("hazard", self.hazard), ("propensity", self.propensity)):
            for (k, hist), p in table.items():
                if k < 1 or k > self.T:
                    raise ValueError(f"{label} period {k} outside 1..{self.T}")
                if not all(v in (0, 1) for v in hist):
                    raise ValueError(f"{label} history {hist!r} must be 0/1")
                if not 0.0 <= p <= 1.0:
                    raise ValueError(
                        f"{label}[{(k, hist)}] = {p} outside [0, 1]"
                    )


def _hazard_at(dgp: DgpTable, k: int, history: tuple[int, ...]) -> float:
    try:
        return dgp.hazard[(k, history)]
    except KeyError:
        raise ValueError(
            f"dgp table has no hazard entry for period {k} with history "
            f"{history}; does the table match the scenario?"
        ) from None


def _propensity_at(dgp: DgpTable, k: int, history: tuple[int, ...]) -> float:
    try:
        return dgp.propensity[(k, history)]
    except KeyError:
        raise ValueError(
            f"dgp table has no propensity entry for period {k} with history "
            f"{history}; does the table match the scenario?"
        ) from None


def default_dgp(kind: ScenarioKind) -> DgpTable:
    """The built-in three-period tables for a scenario.

    Linear-probability formulas are materialized over every parent
    configuration. Scenario A: baseline hazards 0.05/0.2/0.3 reduced by
    0.1 per treated past period; propensities 0.3 in period 1, then
    0.2 + 0.7 x previous treatment. Scenario B: hazards 0.2/0.2/0.3
    reduced by 0.1, 0.05, 0.025 per treated period at lags 0, 1, 2;
    same propensity structure, with the period-1 treatment assigned
    before the period-1 outcome.
    """
    T = 3
    hazard: dict[tuple[int, tuple[int, ...]], float] = {}
    propensity: dict[tuple[int, tuple[int, ...]], float] = {}
    if kind.treatment_first:
        for (x1,) in product((0, 1)):
            hazard[(1, (x1,))] = 0.2 - 0.1 * x1
        for x1, x2 in product((0, 1), repeat=2):
            hazard[(2, (x1, x2))] = 0.2 - 0.05 * x1 - 0.025 * x2
        for x1, x2, x3 in product((0, 1), repeat=3):
            hazard[(3, (x1, x2, x3))] = 0.3 - 0.1 * x1 - 0.05 * x2 - 0.025 * x3
    else:
        hazard[(1, ())] = 0.05
        for (x1,) in product((0, 1)):
            hazard[(2, (x1,))] = 0.2 - 0.1 * x1
        for x1, x2 in product((0, 1), repeat=2):
            hazard[(3, (x1, x2))] = 0.3 - 0.1 * x1 - 0.1 * x2
    propensity[(1, ())] = 0.3
    for (x1,) in product((0, 1)):
        propensity[(2, (x1,))] = 0.2 + 0.7 * x1
    for x1, x2 in product((0, 1), repeat=2):
        propensity[(3, (x1, x2))] = 0.2 + 0.7 * x2
    return DgpTable(T=T, hazard=hazard, propensity=propensity)


@dataclass(frozen=True)
class Trajectory:
    """One patient's per-period treatment and vital status."""

    x: tuple
    y: tuple[int, ...]

    @property
    def T(self) -> int:
        return len(self.y)


def validate_trajectory(traj: Trajectory, kind: ScenarioKind) -> None:
    """Raise ``ValueError`` unless the trajectory satisfies the scenario
    invariants (monotone death; treatment observed exactly while the
    scenario permits, ``u`` otherwise)."""
    if len(traj.x) != len(traj.y):
        raise ValueError("x and y must have equal length")
    prev_y = 0
    for t, (xv, yv) in enumerate(zip(traj.x, traj.y), start=1):
        if yv not in (0, 1):
            raise ValueError(f"y_{t} = {yv!r} not in {{0, 1}}")
        if prev_y == 1 and yv == 0:
            raise ValueError(f"death must be absorbing, y_{t} resurrects")
        observable = (yv == 0) if not kind.treatment_first else (prev_y == 0)
        if observable:
            if xv not in (0, 1):
                raise ValueError(f"x_{t} = {xv!r} must be 0/1 when observed")
        else:
            if xv != UNCLEAR:
                raise ValueError(f"x_{t} = {xv!r} must be {UNCLEAR!r} after death")
        prev_y = yv


@dataclass(frozen=True)
class Cohort:
    """A sample of trajectories from one scenario.

    ``seed`` is the sampling seed, or ``None`` for cohorts loaded from
    files or built directly.
    """

    trajectories: tuple[Trajectory, ...]
    scenario: ScenarioKind
    seed: int | None = None

    @property
    def n(self) -> int:
        return len(self.trajectories)

    @property
    def T(self) -> int:
        return self.trajectories[0].T if self.trajectories else 0

    def validate(self) -> None:
        for traj in self.trajectories:
            validate_trajectory(traj, self.scenario)
            if traj.T != self.T:
                raise ValueError("trajectories have inconsistent lengths")


def _prob_array(
    table: Mapping[tuple[int, tuple[int, ...]], float], k: int, length: int
) -> np.ndarray:
    """Dense lookup of a period's table over history bit-codes."""
    out = np.empty(2**length, dtype=np.float64)
    for code in range(2**length):
        hist = tuple((code >> j) & 1 for j in range(length))
        try:
            out[code] = table[(k, hist)]
        except KeyError:
            raise ValueError(
                f"dgp table has no entry for period {k} with history {hist}; "
                "does the table match the scenario?"
            ) from None
    return out


def _trajectories(x: np.ndarray, y: np.ndarray) -> tuple[Trajectory, ...]:
    """One trajectory per row of int8 arrays with -1 for ``u``."""
    return tuple(
        Trajectory(tuple(UNCLEAR if xv < 0 else xv for xv in xr), tuple(yr))
        for xr, yr in zip(x.tolist(), y.tolist())
    )


@dataclass(frozen=True, eq=False)
class TrajectoryCounts:
    """The distinct trajectories of a cohort with their patient counts.

    Row i is one distinct trajectory: ``x[i]`` its treatments (int8, -1
    where unobservable), ``y[i]`` its vital status, ``count[i]`` the
    number of patients who follow it and ``weight[i]`` their summed
    patient weight (``count[i]`` when unweighted). These counts are a
    sufficient statistic for the estimators in
    :mod:`ttebench.estimators`.
    """

    x: np.ndarray
    y: np.ndarray
    count: np.ndarray
    weight: np.ndarray
    scenario: ScenarioKind

    @property
    def n(self) -> int:
        """Number of patients."""
        return int(self.count.sum())

    @property
    def T(self) -> int:
        return self.x.shape[1]

    @property
    def trajectories(self) -> tuple[Trajectory, ...]:
        """The distinct trajectories, one per row."""
        return _trajectories(self.x, self.y)

    @classmethod
    def from_cohort(
        cls, cohort: Cohort, weights: np.ndarray | None = None
    ) -> "TrajectoryCounts":
        """Collapse a cohort; ``weights`` holds one weight per patient."""
        index: dict[tuple, int] = {}
        inverse = [
            index.setdefault((traj.x, traj.y), len(index))
            for traj in cohort.trajectories
        ]
        shape = (len(index), cohort.T)
        x = np.array(
            [[-1 if xv == UNCLEAR else xv for xv in xs] for xs, _ in index],
            dtype=np.int8,
        ).reshape(shape)
        y = np.array([ys for _, ys in index], dtype=np.int8).reshape(shape)
        count = np.bincount(inverse, minlength=len(index))
        if weights is None:
            weight = count.astype(np.float64)
        else:
            weight = np.bincount(inverse, weights=weights, minlength=len(index))
        return cls(x, y, count, weight, cohort.scenario)


def _sample_arrays(
    dgp: DgpTable, kind: ScenarioKind, n: int, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """Per-patient int8 arrays ``x`` and ``y`` of shape (n, T); ``x`` is
    -1 where the treatment is unobservable."""
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ValueError(f"n must be an integer >= 1, got {n!r}")
    T = dgp.T
    ids = np.arange(n, dtype=np.uint64)
    x = np.full((n, T), -1, dtype=np.int8)
    y = np.ones((n, T), dtype=np.int8)
    alive = np.ones(n, dtype=bool)
    code = np.zeros(n, dtype=np.int64)
    for k in range(1, T + 1):
        u_out = uniform_array([seed, STREAM_SAMPLE, ids, k, SLOT_OUTCOME])
        u_trt = uniform_array([seed, STREAM_SAMPLE, ids, k, SLOT_TREATMENT])
        if kind.treatment_first:
            p_trt = _prob_array(dgp.propensity, k, k - 1)[code]
            treated = alive & (u_trt < p_trt)
            x[alive, k - 1] = treated[alive].astype(np.int8)
            code = code + (treated.astype(np.int64) << (k - 1))
            p_out = _prob_array(dgp.hazard, k, k)[code]
            died = alive & (u_out < p_out)
            y[alive & ~died, k - 1] = 0
            alive = alive & ~died
        else:
            p_out = _prob_array(dgp.hazard, k, k - 1)[code]
            died = alive & (u_out < p_out)
            y[alive & ~died, k - 1] = 0
            alive = alive & ~died
            p_trt = _prob_array(dgp.propensity, k, k - 1)[code]
            treated = alive & (u_trt < p_trt)
            x[alive, k - 1] = treated[alive].astype(np.int8)
            code = code + (treated.astype(np.int64) << (k - 1))
    return x, y


def sample_cohort(dgp: DgpTable, kind: ScenarioKind, n: int, seed: int) -> Cohort:
    """Draw ``n`` independent trajectories.

    Fully deterministic given (dgp, kind, n, seed): each Bernoulli draw
    is keyed by (seed, patient index, period, slot), so identical
    inputs give bitwise-identical cohorts and patient i's trajectory
    does not depend on n.
    """
    x, y = _sample_arrays(dgp, kind, n, seed)
    return Cohort(trajectories=_trajectories(x, y), scenario=kind, seed=seed)


def sample_counts(
    dgp: DgpTable, kind: ScenarioKind, n: int, seed: int
) -> TrajectoryCounts:
    """The distinct trajectories of :func:`sample_cohort` with their
    patient counts, drawn without building per-patient objects."""
    x, y = _sample_arrays(dgp, kind, n, seed)
    T = x.shape[1]
    # A valid trajectory is fixed by its treated periods and the number
    # of periods survived, so this code is distinct per trajectory.
    treated_bits = (x == 1).astype(np.int64) @ (np.int64(1) << np.arange(T))
    code = treated_bits * (T + 1) + (T - y.sum(axis=1, dtype=np.int64))
    _, rows, count = np.unique(code, return_index=True, return_counts=True)
    return TrajectoryCounts(
        x[rows], y[rows], count, count.astype(np.float64), kind
    )


def enumerate_distribution(
    dgp: DgpTable, kind: ScenarioKind
) -> list[tuple[Trajectory, float]]:
    """Every positive-probability trajectory with its exact probability.

    Raises :class:`SupportTooLarge` when the support would exceed
    ``MAX_SUPPORT`` entries. Probabilities sum to 1 up to float
    rounding.
    """
    T = dgp.T
    results: list[tuple[Trajectory, float]] = []

    def emit(xs: list, ys: list, prob: float) -> None:
        if len(results) >= MAX_SUPPORT:
            raise SupportTooLarge(
                f"trajectory support exceeds {MAX_SUPPORT} entries"
            )
        results.append((Trajectory(tuple(xs), tuple(ys)), prob))

    def recurse(k: int, xs: list, ys: list, alive: bool, prob: float) -> None:
        if k > T:
            emit(xs, ys, prob)
            return
        if not alive:
            recurse(k + 1, xs + [UNCLEAR], ys + [1], False, prob)
            return
        hist = tuple(xs)
        if kind.treatment_first:
            p = _propensity_at(dgp, k, hist)
            for xv, px in ((0, 1.0 - p), (1, p)):
                if px <= 0.0:
                    continue
                h = _hazard_at(dgp, k, hist + (xv,))
                if h > 0.0:
                    recurse(k + 1, xs + [xv], ys + [1], False, prob * px * h)
                if h < 1.0:
                    recurse(
                        k + 1, xs + [xv], ys + [0], True, prob * px * (1.0 - h)
                    )
        else:
            h = _hazard_at(dgp, k, hist)
            if h > 0.0:
                recurse(k + 1, xs + [UNCLEAR], ys + [1], False, prob * h)
            if h < 1.0:
                p = _propensity_at(dgp, k, hist)
                for xv, px in ((0, 1.0 - p), (1, p)):
                    if px <= 0.0:
                        continue
                    recurse(
                        k + 1, xs + [xv], ys + [0], True, prob * (1.0 - h) * px
                    )

    recurse(1, [], [], True, 1.0)
    return results


def counterfactual_survival(
    dgp: DgpTable, kind: ScenarioKind, regime: Regime
) -> list[float]:
    """Per-period survival probabilities under a regime.

    The survival at period k is the product of one minus the hazards
    along the regime's treatment path. Grace-period regimes return the
    uniform average of their initiation components' curves.
    """
    T = dgp.T
    regime.validate(T)
    if not regime.is_deterministic:
        curves = [
            counterfactual_survival(dgp, kind, comp)
            for comp in regime.components()
        ]
        return [sum(c[k] for c in curves) / len(curves) for k in range(T)]
    xs = tuple(regime.treatment_at(t) for t in range(1, T + 1))
    out: list[float] = []
    s = 1.0
    for k in range(1, T + 1):
        s *= 1.0 - _hazard_at(dgp, k, kind.hazard_history(xs, k))
        out.append(s)
    return out


def true_ate(
    dgp: DgpTable, kind: ScenarioKind, treat: Regime, control: Regime
) -> float:
    """End-of-study survival difference between two regimes."""
    s_treat = counterfactual_survival(dgp, kind, treat)
    s_control = counterfactual_survival(dgp, kind, control)
    return s_treat[-1] - s_control[-1]


def cohort_rows(cohort: Cohort):
    """Header plus one ``id,period,x,y`` row per patient-period."""
    yield ["id", "period", "x", "y"]
    for pid, traj in enumerate(cohort.trajectories):
        for t in range(1, traj.T + 1):
            yield [pid, t, traj.x[t - 1], traj.y[t - 1]]


def write_cohort_csv(cohort: Cohort, path: str | Path) -> None:
    """Write one row per patient-period: ``id,period,x,y``."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerows(cohort_rows(cohort))


def read_cohort_csv(path: str | Path, scenario: ScenarioKind) -> Cohort:
    """Read a cohort written by :func:`write_cohort_csv` and validate it."""
    rows: dict[int, dict[int, tuple]] = {}
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        required = ("id", "period", "x", "y")
        if header is None or not set(required).issubset(header):
            raise ValueError(
                f"cohort CSV must have columns id,period,x,y, got {header}"
            )
        columns = [header.index(name) for name in required]
        width = max(columns) + 1
        for line in reader:
            if not line:
                continue
            if len(line) < width:
                raise ValueError(
                    f"cohort CSV line {reader.line_num} has {len(line)} "
                    f"fields, expected {len(header)}"
                )
            pid_s, period_s, xv, yv = (line[c] for c in columns)
            pid = int(pid_s)
            period = int(period_s)
            xv = xv.strip()
            x_val: int | str = UNCLEAR if xv == UNCLEAR else int(xv)
            periods = rows.setdefault(pid, {})
            if period in periods:
                raise ValueError(
                    f"cohort CSV has a duplicate row for patient {pid}, "
                    f"period {period}"
                )
            periods[period] = (x_val, int(yv))
    trajectories = []
    for pid in sorted(rows):
        periods = rows[pid]
        T = len(periods)
        if sorted(periods) != list(range(1, T + 1)):
            raise ValueError(f"patient {pid} has non-contiguous periods")
        xs = tuple(periods[t][0] for t in range(1, T + 1))
        ys = tuple(periods[t][1] for t in range(1, T + 1))
        trajectories.append(Trajectory(xs, ys))
    cohort = Cohort(tuple(trajectories), scenario, seed=None)
    cohort.validate()
    return cohort


def dgp_to_json(dgp: DgpTable) -> str:
    """Serialize a table; inverse of :func:`dgp_from_json`."""
    def entries(table):
        return [
            {"period": k, "history": list(hist), "p": p}
            for (k, hist), p in sorted(table.items())
        ]

    payload = {
        "T": dgp.T,
        "hazard": entries(dgp.hazard),
        "propensity": entries(dgp.propensity),
    }
    return json.dumps(payload, indent=2) + "\n"


def dgp_from_json(text: str) -> DgpTable:
    payload = json.loads(text)
    try:
        T = payload["T"]
        hazard = {
            (e["period"], tuple(e["history"])): e["p"] for e in payload["hazard"]
        }
        propensity = {
            (e["period"], tuple(e["history"])): e["p"]
            for e in payload["propensity"]
        }
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed dgp JSON: {exc}") from None
    return DgpTable(T=T, hazard=hazard, propensity=propensity)
