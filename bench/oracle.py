"""Independent reference estimates for the benchmark's output checks.

The library estimators walk every patient (and, for cloning-censoring-
weighting, every clone row) in Python. This reference works instead on
the counts of distinct trajectories, which are a sufficient statistic
for both estimators, and recomputes every stratum from those counts
with plain loops. It shares no code with ``ttebench.estimators``.

A trajectory is a pair ``(x, y)`` of equal-length tuples; ``x`` holds
0, 1 or ``"u"`` (treatment unobservable after death), ``y`` holds 0/1.
Every estimate returns ``None`` where the library raises an estimation
error (an empty stratum or an empty risk set).
"""

from __future__ import annotations

from collections import Counter

UNCLEAR = "u"

Counts = Counter  # (x tuple, y tuple) -> number of patients


def count_trajectories(pairs) -> Counts:
    """Counts of distinct ``(x, y)`` pairs."""
    return Counter((tuple(x), tuple(y)) for x, y in pairs)


def read_csv_counts(path) -> Counts:
    """Parse an ``id,period,x,y`` cohort CSV into trajectory counts."""
    per_patient: dict[str, list[tuple[int, str, str]]] = {}
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header != "id,period,x,y":
            raise ValueError(f"unexpected cohort CSV header {header!r}")
        for line in fh:
            pid, period, x, y = line.rstrip("\n").split(",")
            per_patient.setdefault(pid, []).append((int(period), x, y))
    counts: Counts = Counter()
    for records in per_patient.values():
        records.sort()
        if [r[0] for r in records] != list(range(1, len(records) + 1)):
            raise ValueError("cohort CSV has non-contiguous periods")
        xs = tuple(x if x == UNCLEAR else int(x) for _, x, _ in records)
        ys = tuple(int(y) for _, _, y in records)
        counts[(xs, ys)] += 1
    return counts


def _alive_entering(y: tuple, k: int) -> bool:
    return k == 1 or y[k - 2] == 0


def _npmle_survival(counts: Counts, treatment_first: bool, path: tuple):
    s = 1.0
    for k in range(1, len(path) + 1):
        hist = path[:k] if treatment_first else path[: k - 1]
        at_risk = deaths = 0
        for (x, y), c in counts.items():
            if _alive_entering(y, k) and x[: len(hist)] == hist:
                at_risk += c
                deaths += c * y[k - 1]
        if at_risk == 0:
            return None
        s *= 1.0 - deaths / at_risk
    return s


def npmle_ate(counts: Counts, treatment_first: bool, treat: tuple, control: tuple):
    """Plug-in survival difference between two treatment paths."""
    s_t = _npmle_survival(counts, treatment_first, treat)
    s_c = _npmle_survival(counts, treatment_first, control)
    return None if s_t is None or s_c is None else s_t - s_c


def _survivor_propensity(counts: Counts, k: int, hist: tuple):
    """P(x_k = 1 | survived period k, x_<k = hist), or None if undefined."""
    n = treated = 0
    for (x, y), c in counts.items():
        if _alive_entering(y, k) and y[k - 1] == 0 and x[: k - 1] == hist:
            n += c
            treated += c * (x[k - 1] == 1)
    return None if n == 0 else treated / n


def _ccw_survival(counts: Counts, path: tuple, current: bool):
    T = len(path)
    num = [0.0] * T
    den = [0.0] * T
    cache: dict[tuple[int, tuple], float | None] = {}

    def inverse_prob(k: int, hist: tuple, observed: int):
        if (k, hist) not in cache:
            cache[(k, hist)] = _survivor_propensity(counts, k, hist)
        p = cache[(k, hist)]
        if p is None:
            return None
        prob = p if observed == 1 else 1.0 - p
        return None if prob <= 0.0 else 1.0 / prob

    for (x, y), c in counts.items():
        w = 1.0
        for k in range(1, T + 1):
            xk = x[k - 1]
            compatible = xk == UNCLEAR or xk == path[k - 1]
            if not current:
                row = w
            elif not compatible:
                row = 0.0
            elif xk == UNCLEAR:
                row = w
            else:
                factor = inverse_prob(k, x[: k - 1], xk)
                if factor is None:
                    return None
                row = w * factor
            den[k - 1] += c * row
            if y[k - 1] == 1:
                num[k - 1] += c * row
                break
            if not compatible:
                break
            factor = inverse_prob(k, x[: k - 1], xk)
            if factor is None:
                return None
            w *= factor
    s = 1.0
    for k in range(T):
        if den[k] <= 0.0:
            return None
        s *= 1.0 - num[k] / den[k]
    return s


def ccw_ate(counts: Counts, treat: tuple, control: tuple, *, current: bool):
    """Cloning-censoring-weighting survival difference.

    ``current=False`` is the lagged convention (a row carries the
    running weight through the previous period); ``current=True`` drops
    rows censored in the period and applies the period's own inverse
    survivor-propensity factor.
    """
    s_t = _ccw_survival(counts, treat, current)
    s_c = _ccw_survival(counts, control, current)
    return None if s_t is None or s_c is None else s_t - s_c
