"""Independent oracles used to validate the package's algorithms.

These deliberately use different algorithms from the implementations
they check: m-separation by exhaustive simple-path enumeration instead
of reachability, counterfactual survival by enumerating the
intervened generating process instead of the closed-form product, and
the estimators by walking every patient and every clone row instead of
the distinct-trajectory counts, and the cohort CSV boundary by one
``csv`` row and one trajectory object at a time instead of columns of
int8 arrays.
"""

from __future__ import annotations

import csv
import random
from collections import Counter, defaultdict

from ttebench.dgp import (
    UNCLEAR,
    Cohort,
    DgpTable,
    Trajectory,
    enumerate_distribution,
    validate_trajectory,
)
from ttebench.errors import EmptyStratum, NoAtRiskRows
from ttebench.estimators import CloneRow, WeightConvention
from ttebench.graphs import Admg, NodeLabel, X, ancestors, build_graph
from ttebench.scenarios import Regime, ScenarioKind


def oracle_m_separated(g: Admg, a, b, z) -> bool:
    """m-separation by brute-force enumeration of simple paths.

    A path m-connects given Z when every non-collider on it is outside
    Z and every collider is in Z or has a descendant in Z. Parallel
    directed and bidirected edges between the same pair are enumerated
    as distinct path steps.
    """
    a = frozenset(a)
    b = frozenset(b)
    z = frozenset(z)
    if not a or not b:
        return True
    # Adjacency entries record the mark at each end: (other endpoint,
    # head at this node, head at the other node).
    adj: dict[NodeLabel, list[tuple[NodeLabel, bool, bool]]] = defaultdict(list)
    for u, v in g.directed:
        adj[u].append((v, False, True))
        adj[v].append((u, True, False))
    for pair in g.bidirected:
        u, v = tuple(pair)
        adj[u].append((v, True, True))
        adj[v].append((u, True, True))
    open_colliders = ancestors(g, z) if z else frozenset()

    def passes(node: NodeLabel, head_in: bool, head_out: bool) -> bool:
        if head_in and head_out:
            return node in open_colliders
        return node not in z

    def dfs(node: NodeLabel, head_in: bool, visited: frozenset) -> bool:
        for nxt, head_here, head_next in adj[node]:
            if nxt in visited:
                continue
            if not passes(node, head_in, head_here):
                continue
            if nxt in b:
                return True
            if dfs(nxt, head_next, visited | {nxt}):
                return True
        return False

    for start in a:
        for nxt, _, head_next in adj[start]:
            if nxt in b:
                return False
            if nxt in a:
                continue
            if dfs(nxt, head_next, frozenset({start, nxt})):
                return False
    return True


def random_admg(rng: random.Random, max_nodes: int = 12) -> Admg:
    """A random sparse ADMG over period-indexed treatment labels."""
    n = rng.randint(2, max_nodes)
    labels = [X(i) for i in range(1, n + 1)]
    order = labels[:]
    rng.shuffle(order)
    p_directed = rng.uniform(0.05, 0.3)
    p_bidirected = rng.uniform(0.0, 0.2)
    directed = set()
    bidirected = set()
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p_directed:
                directed.add((order[i], order[j]))
            if rng.random() < p_bidirected:
                bidirected.add(frozenset((order[i], order[j])))
    return build_graph(labels, directed, bidirected)


def random_query(
    rng: random.Random, g: Admg
) -> tuple[frozenset, frozenset, frozenset]:
    """Disjoint nonempty (a, b) and a possibly-empty z drawn from g."""
    nodes = sorted(g.nodes, key=lambda n: n.sort_key)
    rng.shuffle(nodes)
    n_a = rng.randint(1, min(2, len(nodes) - 1))
    n_b = rng.randint(1, min(2, len(nodes) - n_a))
    a = frozenset(nodes[:n_a])
    b = frozenset(nodes[n_a : n_a + n_b])
    rest = nodes[n_a + n_b :]
    z = frozenset(v for v in rest if rng.random() < 0.4)
    return a, b, z


def intervened_dgp(dgp: DgpTable, regime: Regime) -> DgpTable:
    """The generating process with propensities forced to the regime."""
    propensity = {
        (k, hist): float(regime.treatment_at(k))
        for (k, hist) in dgp.propensity
    }
    return DgpTable(T=dgp.T, hazard=dict(dgp.hazard), propensity=propensity)


def survival_by_enumeration(
    dgp: DgpTable, kind: ScenarioKind, regime: Regime
) -> list[float]:
    """Per-period survival under a deterministic regime, computed by
    enumerating the intervened process and summing survivor mass."""
    support = enumerate_distribution(intervened_dgp(dgp, regime), kind)
    T = dgp.T
    return [
        sum(p for traj, p in support if traj.y[k] == 0) for k in range(T)
    ]


# ------------------------------------------------- per-patient estimators


def _patient_weights(cohort: Cohort, weights) -> list[float]:
    return [1.0] * cohort.n if weights is None else list(weights)


def oracle_fit_strata(cohort: Cohort, kind: ScenarioKind, weights=None):
    """Every observed stratum tallied patient by patient, as two dicts
    from ``(period, history)`` to a ``(numerator, denominator)`` pair:
    hazards, and survivor-conditioned propensities."""
    w = _patient_weights(cohort, weights)
    hazard: dict = {}
    survivor: dict = {}

    def tally(table: dict, key, hit: bool, wt: float):
        num, den = table.get(key, (0.0, 0.0))
        table[key] = (num + wt if hit else num, den + wt)

    for traj, wt in zip(oracle_trajectories(cohort.x, cohort.y), w):
        if wt == 0.0:
            continue
        hist: tuple = ()
        for t in range(1, cohort.T + 1):
            xv = traj.x[t - 1]
            yv = traj.y[t - 1]
            hazard_hist = hist + (xv,) if kind.treatment_first else hist
            tally(hazard, (t, hazard_hist), yv == 1, wt)
            if yv == 1:
                break
            tally(survivor, (t, hist), xv == 1, wt)
            hist = hist + (xv,)
    return hazard, survivor


def _oracle_plugin_curve(strata, kind, regime, T) -> list[float]:
    if not regime.is_deterministic:
        curves = [
            _oracle_plugin_curve(strata, kind, comp, T)
            for comp in regime.components()
        ]
        return [sum(c[k] for c in curves) / len(curves) for k in range(T)]
    hazard, _ = strata
    path = tuple(regime.treatment_at(t) for t in range(1, T + 1))
    out = []
    s = 1.0
    for k in range(1, T + 1):
        hist = path[:k] if kind.treatment_first else path[: k - 1]
        num, den = hazard.get((k, hist), (0.0, 0.0))
        if not den > 0.0:
            raise EmptyStratum(k, hist, role="hazard")
        s *= 1.0 - num / den
        out.append(s)
    return out


def oracle_npmle(cohort, kind, treat, control, weights=None):
    """Plug-in ``(survival_treat, survival_control, ate)``."""
    strata = oracle_fit_strata(cohort, kind, weights)
    s_t = _oracle_plugin_curve(strata, kind, treat, cohort.T)
    s_c = _oracle_plugin_curve(strata, kind, control, cohort.T)
    return s_t, s_c, s_t[-1] - s_c[-1]


def _survivor_factor(strata, k, history, observed) -> float:
    _, survivor = strata
    num, den = survivor.get((k, history), (0.0, 0.0))
    if not den > 0.0:
        raise EmptyStratum(k, history, role="propensity")
    p = num / den
    prob = p if observed == 1 else 1.0 - p
    if prob <= 0.0:
        raise EmptyStratum(k, history, role="propensity")
    return 1.0 / prob


def oracle_clone_rows(
    cohort, kind, regime, weight_convention, strata, weights=None
) -> list[CloneRow]:
    """One clone row per patient-period, built patient by patient."""
    w = _patient_weights(cohort, weights)
    rows = []
    for pid, (traj, pw) in enumerate(
        zip(oracle_trajectories(cohort.x, cohort.y), w)
    ):
        w_run = 1.0
        censored = False
        hist: tuple = ()
        alive = True
        for t in range(1, cohort.T + 1):
            xv = traj.x[t - 1]
            yv = traj.y[t - 1]
            if not (alive and not censored):
                rows.append(CloneRow(pid, regime, t, False, False, False, 0.0))
                alive = alive and yv == 0
                continue
            censored_now = not (xv == UNCLEAR or xv == regime.treatment_at(t))
            event = yv == 1
            if weight_convention is WeightConvention.LAGGED:
                weight = w_run * pw
            elif censored_now:
                weight = 0.0
            else:
                factor = 1.0 if xv == UNCLEAR else _survivor_factor(
                    strata, t, hist, xv
                )
                weight = w_run * factor * pw
            rows.append(CloneRow(pid, regime, t, True, event, censored_now, weight))
            if event:
                alive = False
            elif censored_now:
                censored = True
            else:
                w_run *= _survivor_factor(strata, t, hist, xv)
                hist = hist + (xv,)
    return rows


def oracle_pooled_curve(rows, T: int, arm_name: str):
    """Survival curve and diagnostics pooled row by row."""
    num = [0.0] * T
    den = [0.0] * T
    n_at_risk = [0] * T
    for row in rows:
        if not row.at_risk:
            continue
        k = row.period - 1
        n_at_risk[k] += 1
        den[k] += row.weight
        if row.event:
            num[k] += row.weight
    curve, hazards = [], []
    s = 1.0
    for k in range(T):
        if den[k] <= 0.0:
            raise NoAtRiskRows(arm_name, k + 1)
        h = num[k] / den[k]
        hazards.append(h)
        s *= 1.0 - h
        curve.append(s)
    return curve, {
        "n_at_risk": n_at_risk,
        "weighted_at_risk": den,
        "weighted_events": num,
        "hazard": hazards,
    }


def oracle_ccw(cohort, kind, treat, control, weight_convention, weights=None):
    """Cloning-censoring-weighting ``(curves, arm diagnostics, ate)``."""
    strata = oracle_fit_strata(cohort, kind, weights)
    curves, arms = {}, {}
    for name, regime in (("treat", treat), ("control", control)):
        rows = oracle_clone_rows(
            cohort, kind, regime, weight_convention, strata, weights
        )
        curves[name], arms[name] = oracle_pooled_curve(
            rows, cohort.T, regime.describe()
        )
    return curves, arms, curves["treat"][-1] - curves["control"][-1]


# ------------------------------------------------ per-row cohort CSV boundary


def oracle_trajectories(x, y) -> tuple[Trajectory, ...]:
    """One trajectory object per row of int8 arrays with -1 for ``u``."""
    return tuple(
        Trajectory(tuple(UNCLEAR if xv < 0 else xv for xv in xr), tuple(yr))
        for xr, yr in zip(x.tolist(), y.tolist())
    )


def oracle_counts(cohort: Cohort, weights=None) -> tuple[Counter, dict]:
    """Patients and summed patient weight per trajectory, tallied patient
    by patient."""
    trajectories = oracle_trajectories(cohort.x, cohort.y)
    w = [1.0] * cohort.n if weights is None else weights
    weight: dict = {}
    for traj, wt in zip(trajectories, w):
        weight[traj] = weight.get(traj, 0.0) + wt
    return Counter(trajectories), weight


def counts_by_trajectory(counts) -> tuple[dict, dict]:
    """A ``TrajectoryCounts``' patients and weight per trajectory, in
    the form of :func:`oracle_counts`; its rows must be distinct."""
    trajectories = counts.trajectories
    assert len(set(trajectories)) == len(trajectories)
    return (
        dict(zip(trajectories, counts.count.tolist())),
        dict(zip(trajectories, counts.weight.tolist())),
    )


def oracle_cohort_rows(cohort: Cohort):
    """Header plus one ``id,period,x,y`` row per patient-period."""
    yield ["id", "period", "x", "y"]
    for pid, traj in enumerate(oracle_trajectories(cohort.x, cohort.y)):
        for t in range(1, traj.T + 1):
            yield [pid, t, traj.x[t - 1], traj.y[t - 1]]


def oracle_write_cohort_csv(cohort: Cohort, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerows(oracle_cohort_rows(cohort))


def oracle_read_cohort_csv(path, scenario: ScenarioKind) -> Cohort:
    """Read a cohort CSV row by row into a dict per patient, then
    validate every trajectory."""
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
    for traj in trajectories:
        validate_trajectory(traj, scenario)
        if traj.T != trajectories[0].T:
            raise ValueError("trajectories have inconsistent lengths")
    return Cohort.from_trajectories(trajectories, scenario)
