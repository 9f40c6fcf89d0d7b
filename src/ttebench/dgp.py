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
import io
import json
import math
import os
from dataclasses import dataclass
from itertools import islice, product, repeat
from operator import itemgetter
from pathlib import Path
from typing import Callable, Final, Iterable, Iterator, Mapping, TextIO

import numpy as np

from ._rng import (
    SLOT_OUTCOME,
    SLOT_TREATMENT,
    STREAM_SAMPLE,
    uniform_array,
)
from .errors import SupportTooLarge, check_positive_int
from .scenarios import Regime, ScenarioKind

__all__ = [
    "UNCLEAR",
    "DgpTable",
    "Trajectory",
    "Cohort",
    "TrajectoryCounts",
    "default_dgp",
    "sample_cohort",
    "enumerate_distribution",
    "counterfactual_survival",
    "true_ate",
    "validate_trajectory",
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
        check_positive_int("T", self.T)
        for label, table in (("hazard", self.hazard), ("propensity", self.propensity)):
            for (k, hist), p in table.items():
                if type(k) is not int:
                    raise ValueError(
                        f"{label}[{(k, hist)!r}]: period {k!r} must be an integer"
                    )
                if k < 1 or k > self.T:
                    raise ValueError(f"{label} period {k} outside 1..{self.T}")
                if not all(type(v) is int and v in (0, 1) for v in hist):
                    raise ValueError(f"{label} history {hist!r} must be 0/1")
                if not (
                    isinstance(p, (int, float)) and not isinstance(p, bool)
                    and math.isfinite(p)
                ):
                    raise ValueError(
                        f"{label}[{(k, hist)!r}] = {p!r} must be a finite "
                        "real number"
                    )
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


#: int8 codes of the trajectory cell values; -1 stands for ``u``.
_X_CODES: Final = {0: 0, 1: 1, UNCLEAR: -1}
_Y_CODES: Final = {0: 0, 1: 1}


@dataclass(frozen=True, eq=False)
class Cohort:
    """A sample of trajectories from one scenario.

    ``x`` and ``y`` are per-patient int8 arrays of shape (n, T): the
    treatment (0, 1, or -1 where unobservable, shown as ``u``) and the
    vital status (0 or 1) of each patient in each period; build them
    from :class:`Trajectory` objects with :meth:`from_trajectories`.
    ``seed`` is the sampling seed, or ``None`` for cohorts loaded from
    files or built directly.
    """

    x: np.ndarray
    y: np.ndarray
    scenario: ScenarioKind
    seed: int | None = None

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def T(self) -> int:
        return self.x.shape[1]

    @property
    def trajectories(self) -> tuple[Trajectory, ...]:
        """One trajectory per patient; equal ones share one object."""
        return _trajectories(self.x, self.y)

    @classmethod
    def from_trajectories(
        cls, trajectories: Iterable[Trajectory], scenario: ScenarioKind,
        seed: int | None = None,
    ) -> "Cohort":
        """The cohort of trajectories of one length, with treatments 0, 1
        or ``u`` and vital statuses 0 or 1."""
        trajectories = tuple(trajectories)
        shape = (len(trajectories), trajectories[0].T if trajectories else 0)
        if any(len(t.x) != shape[1] or t.T != shape[1] for t in trajectories):
            raise ValueError("trajectories have inconsistent lengths")
        try:
            x = np.array([[_X_CODES[v] for v in t.x] for t in trajectories], np.int8)
            y = np.array([[_Y_CODES[v] for v in t.y] for t in trajectories], np.int8)
        except KeyError as exc:
            raise ValueError(
                f"trajectory cell {exc.args[0]!r}: x must be 0, 1 or "
                f"{UNCLEAR!r}, y 0 or 1"
            ) from None
        return cls(x.reshape(shape), y.reshape(shape), scenario, seed)

    def validate(self) -> None:
        """Raise ``ValueError`` with :func:`validate_trajectory`'s message
        for the first patient who breaks the scenario invariants."""
        invalid = np.flatnonzero(_invalid_rows(self.x, self.y, self.scenario))
        if invalid.size:
            validate_trajectory(self.trajectories[invalid[0]], self.scenario)


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


def _distinct_rows(
    x: np.ndarray, y: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The first row of each distinct row of int8 trajectory arrays with
    cells coded as in :class:`Cohort`, the distinct row of each row, and
    the rows per distinct row. Distinct rows are ordered by an int64 code
    (treated periods, then periods survived, then periods with ``u``), or
    as opaque bytes when the code would overflow."""
    T = x.shape[1]
    if 3 * T > 63:
        codes = np.hstack([x, y]).view(np.dtype((np.void, 2 * T))).ravel()
    else:
        bits = np.int64(1) << np.arange(T)
        treated, alive, unclear = (x == 1) @ bits, (y == 0) @ bits, (x == -1) @ bits
        codes = (treated << 2 * T) | (alive << T) | unclear
    _, first, inverse, count = np.unique(
        codes, return_index=True, return_inverse=True, return_counts=True
    )
    return first, inverse, count


def _trajectories(x: np.ndarray, y: np.ndarray) -> tuple[Trajectory, ...]:
    """One trajectory per row of int8 arrays with -1 for ``u``; equal
    rows share one :class:`Trajectory` object."""
    first, inverse, _ = _distinct_rows(x, y)
    distinct = [
        Trajectory(tuple(UNCLEAR if xv < 0 else xv for xv in xr), tuple(yr))
        for xr, yr in zip(x[first].tolist(), y[first].tolist())
    ]
    return tuple(map(distinct.__getitem__, inverse.tolist()))


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
        first, inverse, count = _distinct_rows(cohort.x, cohort.y)
        if weights is None:
            weight = count.astype(np.float64)
        else:
            weight = np.bincount(inverse, weights=weights, minlength=first.size)
        return cls(cohort.x[first], cohort.y[first], count, weight, cohort.scenario)


def _sample_arrays(
    dgp: DgpTable, kind: ScenarioKind, n: int, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """Per-patient int8 arrays ``x`` and ``y`` of shape (n, T); ``x`` is
    -1 where the treatment is unobservable."""
    check_positive_int("n", n)
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
    return Cohort(x, y, kind, seed)


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


_CSV_COLUMNS: Final = ("id", "period", "x", "y")
#: Patients per write of :func:`write_cohort_csv`.
_WRITE_CHUNK: Final[int] = 1 << 14
#: Rows per parsing step of :func:`read_cohort_csv`.
_READ_CHUNK: Final[int] = 1 << 14


def _row_tails(xs: list[int], ys: list[int]) -> tuple[str, ...]:
    """``""`` followed by one ``,t,x,y`` line per period of a row of
    int8 codes, so that ``str(pid).join(tails)`` is the patient's block
    of CSV rows. Cells are integers or ``u``, which the CSV dialect
    never quotes."""
    return ("",) + tuple(
        f",{t},{UNCLEAR if xv < 0 else xv},{yv}\n"
        for t, (xv, yv) in enumerate(zip(xs, ys), 1)
    )


def write_cohort_csv(cohort: Cohort, path: str | Path | TextIO) -> None:
    """Write one row per patient-period: ``id,period,x,y``.

    ``path`` is a file path or an open text stream. Each distinct
    trajectory's rows are formatted once and shared by every patient who
    follows it.
    """
    if not isinstance(path, (str, os.PathLike)):
        _write_cohort(cohort, path)
        return
    with open(path, "w", newline="", encoding="utf-8") as fh:
        _write_cohort(cohort, fh)


def _write_cohort(cohort: Cohort, fh: TextIO) -> None:
    # Tails are kept for one chunk at a time, so memory stays bounded
    # when few patients share a trajectory.
    fh.write(",".join(_CSV_COLUMNS) + "\n")
    for start in range(0, cohort.n, _WRITE_CHUNK):
        x = cohort.x[start : start + _WRITE_CHUNK]
        y = cohort.y[start : start + _WRITE_CHUNK]
        first, inverse, _ = _distinct_rows(x, y)
        tails = list(map(_row_tails, x[first].tolist(), y[first].tolist()))
        pids = map(str, range(start, start + inverse.size))
        fh.write("".join(map(str.join, pids, map(tails.__getitem__, inverse.tolist()))))


def _x_value(text: str) -> int | str:
    text = text.strip()
    return UNCLEAR if text == UNCLEAR else int(text)


#: int8 codes of ``x``/``y`` cell spellings; any other value is coded 2.
_X_TEXT_CODES: Final = {"0": 0, "1": 1, UNCLEAR: -1}
_Y_TEXT_CODES: Final = {"0": 0, "1": 1}


def _cell_codes(
    texts: tuple[str, ...], known: Mapping[str, int], parse: Callable
) -> np.ndarray:
    """Codes of one column's cells; only cells other than the ``known``
    spellings (coded 3 on the first pass) are parsed."""
    codes = np.fromiter(map(known.get, texts, repeat(3)), np.int8, len(texts))
    for i in np.flatnonzero(codes == 3).tolist():
        codes[i] = _X_CODES.get(parse(texts[i]), 2)
    return codes


def _text_lines(data: bytes) -> TextIO:
    """The lines of a UTF-8 file's bytes, as :func:`open` with
    ``newline=""`` gives them to :func:`csv.reader`."""
    return io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", newline="")


def _parse_columns(
    rows: Iterator[tuple[str, str, str, str]],
) -> tuple[np.ndarray, ...] | None:
    """Ids, periods and ``x``/``y`` cell codes of ``(id, period, x, y)``
    cell rows, parsed a chunk at a time so that the row text is not all
    held at once; ``None`` when there are no rows."""
    parts = []
    while chunk := list(islice(rows, _READ_CHUNK)):
        pid_s, period_s, x_s, y_s = zip(*chunk)
        parts.append((
            np.fromiter(map(int, pid_s), np.int64, len(chunk)),
            np.fromiter(map(int, period_s), np.int64, len(chunk)),
            _cell_codes(x_s, _X_TEXT_CODES, _x_value),
            _cell_codes(y_s, _Y_TEXT_CODES, int),
        ))
    return tuple(map(np.concatenate, zip(*parts))) if parts else None


def _raw_trajectory(data: bytes, columns: list[int], rows: list[int]) -> Trajectory:
    """The trajectory whose ``x``/``y`` cells are in the given data rows
    (0-based, in file order, blank lines skipped), cells parsed as
    written and taken in the order of ``rows``."""
    cells = dict.fromkeys(rows)
    reader = csv.reader(_text_lines(data))
    next(reader)
    for i, line in enumerate(filter(None, reader)):
        if i in cells:
            cells[i] = (line[columns[2]], line[columns[3]])
    return Trajectory(
        tuple(_x_value(xv) for xv, _ in cells.values()),
        tuple(int(yv) for _, yv in cells.values()),
    )


def _first_row_error(
    data: bytes, columns: list[int], n_fields: int
) -> ValueError | None:
    """The error of the first malformed row in file order: a short row,
    a field that is not an integer, or a repeated ``(id, period)``."""
    width = max(columns) + 1
    seen: set[tuple[int, int]] = set()
    reader = csv.reader(_text_lines(data))
    next(reader)
    for line in filter(None, reader):
        if len(line) < width:
            return ValueError(
                f"cohort CSV line {reader.line_num} has {len(line)} "
                f"fields, expected {n_fields}"
            )
        pid_s, period_s, xv, yv = (line[c] for c in columns)
        try:
            key = (int(pid_s), int(period_s))
            _x_value(xv)
            if key in seen:
                return ValueError(
                    f"cohort CSV has a duplicate row for patient {key[0]}, "
                    f"period {key[1]}"
                )
            seen.add(key)
            int(yv)
        except ValueError as exc:
            return exc
    return None


def _invalid_rows(x: np.ndarray, y: np.ndarray, kind: ScenarioKind) -> np.ndarray:
    """Rows of cell codes that :func:`validate_trajectory` rejects."""
    prev_y = np.zeros_like(y)
    prev_y[:, 1:] = y[:, :-1]
    observable = (prev_y == 0) if kind.treatment_first else (y == 0)
    bad_x = np.where(observable, (x != 0) & (x != 1), x != -1)
    bad = ((y != 0) & (y != 1)) | ((prev_y == 1) & (y == 0)) | bad_x
    return bad.any(axis=1)


def read_cohort_csv(path: str | Path, scenario: ScenarioKind) -> Cohort:
    """Read a cohort written by :func:`write_cohort_csv` and validate it.

    The rows are parsed into columns, sorted by (id, period), reshaped
    to per-patient arrays and checked in one pass. Errors name the first
    offending row in file order, or the first offending patient by id.
    """
    # The file is read once, so that the error pass over the rows also
    # works on a pipe.
    with open(path, "rb") as fh:
        data = fh.read()
    reader = csv.reader(_text_lines(data))
    header = next(reader, None)
    if header is None or not set(_CSV_COLUMNS).issubset(header):
        raise ValueError(
            f"cohort CSV must have columns id,period,x,y, got {header}"
        )
    columns = [header.index(name) for name in _CSV_COLUMNS]
    try:
        parsed = _parse_columns(map(itemgetter(*columns), filter(None, reader)))
    except (IndexError, ValueError, OverflowError):
        # A short row raises IndexError. Rows that pass the row checks
        # can only hold an id or period beyond 64 bits.
        raise _first_row_error(data, columns, len(header)) or ValueError(
            "cohort CSV ids and periods must fit in 64-bit integers"
        ) from None
    if parsed is None:
        return Cohort.from_trajectories((), scenario)
    pid, period, x, y = parsed
    n = pid.size
    order = np.lexsort((period, pid))
    pid, period = pid[order], period[order]
    same_pid = pid[1:] == pid[:-1]
    if (same_pid & (period[1:] == period[:-1])).any():
        raise _first_row_error(data, columns, len(header))

    starts = np.flatnonzero(np.concatenate(([True], ~same_pid)))
    lengths = np.diff(np.append(starts, n))
    within = np.arange(n) - np.repeat(starts, lengths)
    gaps = np.flatnonzero(period != within + 1)
    if gaps.size:
        first = starts[np.searchsorted(starts, gaps[0], side="right") - 1]
        raise ValueError(f"patient {int(pid[first])} has non-contiguous periods")

    T = int(lengths[0])
    mismatched = np.flatnonzero(lengths != T)
    n_equal = int(mismatched[0]) if mismatched.size else lengths.size
    x = x[order][: n_equal * T].reshape(n_equal, T)
    y = y[order][: n_equal * T].reshape(n_equal, T)
    invalid = np.flatnonzero(_invalid_rows(x, y, scenario))
    if invalid.size or n_equal < lengths.size:
        patient = int(invalid[0]) if invalid.size else n_equal
        rows = order[starts[patient] : starts[patient] + lengths[patient]].tolist()
        validate_trajectory(_raw_trajectory(data, columns, rows), scenario)
        raise ValueError("trajectories have inconsistent lengths")
    return Cohort(x, y, scenario, seed=None)


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
