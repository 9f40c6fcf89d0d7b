"""Independent oracles used to validate the package's algorithms.

These deliberately use different algorithms from the implementations
they check: m-separation by exhaustive simple-path enumeration instead
of reachability, the graph checks on label sets with dict adjacency
and one rebuilt network per exchangeability cell instead of bitsets
and one pass per column, counterfactual survival by enumerating the
intervened generating process instead of the closed-form product, and
the estimators by walking every patient and every clone row instead of
the distinct-trajectory counts, and the cohort CSV boundary by one
``csv`` row and one trajectory object at a time instead of columns of
int8 arrays.
"""

from __future__ import annotations

import csv
import random
from collections import Counter, defaultdict, deque
from typing import NamedTuple

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
from ttebench.graphs import C, Admg, NodeKind, NodeLabel, X, Y, Yx, build_graph
from ttebench.scenarios import Regime, ScenarioKind, build_trial_graph


# ------------------------------------------------------------ graph checks
#
# These work on the label-level view only (``nodes``, ``directed`` and
# ``bidirected`` frozensets), with dict adjacency, so they share no code
# with the bitset graphs of ``ttebench.graphs``.


class LabelGraph(NamedTuple):
    """A mixed graph as plain label sets; an ``Admg`` fits the same reads."""

    nodes: frozenset
    directed: frozenset
    bidirected: frozenset


def _adjacency(g) -> tuple[dict, dict, dict]:
    """Parents, children and siblings of every node, as dicts of sets."""
    parents = {v: set() for v in g.nodes}
    children = {v: set() for v in g.nodes}
    siblings = {v: set() for v in g.nodes}
    for u, v in g.directed:
        parents[v].add(u)
        children[u].add(v)
    for pair in g.bidirected:
        u, v = tuple(pair)
        siblings[u].add(v)
        siblings[v].add(u)
    return parents, children, siblings


def _closure(neighbours: dict, start) -> frozenset:
    result = set(start)
    frontier = deque(result)
    while frontier:
        for w in neighbours[frontier.popleft()]:
            if w not in result:
                result.add(w)
                frontier.append(w)
    return frozenset(result)


def oracle_ancestors(g, targets) -> frozenset:
    """Targets plus every node with a directed path into one."""
    return _closure(_adjacency(g)[0], targets)


def oracle_descendants(g, sources) -> frozenset:
    """Sources plus every node reachable along directed edges."""
    return _closure(_adjacency(g)[1], sources)


def oracle_mutilate(g, remove_incoming=(), remove_outgoing=()) -> LabelGraph:
    """Edge surgery on label sets: drop directed edges into
    ``remove_incoming`` or out of ``remove_outgoing``, and bidirected
    edges touching ``remove_incoming``."""
    rin = frozenset(remove_incoming)
    rout = frozenset(remove_outgoing)
    return LabelGraph(
        frozenset(g.nodes),
        frozenset((u, v) for u, v in g.directed if v not in rin and u not in rout),
        frozenset(pair for pair in g.bidirected if not pair & rin),
    )


def oracle_m_separated(g, a, b, z) -> bool:
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
    open_colliders = oracle_ancestors(g, z)

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


def oracle_reach_m_separated(g, a, b, z) -> bool:
    """m-separation by reachability over (node, arrived-through-head)
    states in dict adjacency, stopping at the first node of ``b``.

    Unlike path enumeration this stays fast on the dense scenario
    graphs. From a state the walk leaves through an arrowhead at the
    node only when the node is an open collider (arrived through a
    head) or unconditioned (arrived through a tail); it leaves through
    a tail only when the node is unconditioned.
    """
    return _reach_separated(_adjacency(g), a, b, z)


def _reach_separated(adjacency, a, b, z) -> bool:
    a, b, z = frozenset(a), frozenset(b), frozenset(z)
    if not a or not b:
        return True
    parents, children, siblings = adjacency
    open_colliders = _closure(parents, z)
    queue: deque[tuple[NodeLabel, bool]] = deque()
    visited: set[tuple[NodeLabel, bool]] = set()

    def push(node: NodeLabel, via_head: bool) -> bool:
        if node in b:
            return True
        if (node, via_head) not in visited:
            visited.add((node, via_head))
            queue.append((node, via_head))
        return False

    for start in a:
        if (
            any(push(c, True) for c in children[start])
            or any(push(p, False) for p in parents[start])
            or any(push(s, True) for s in siblings[start])
        ):
            return False
    while queue:
        node, via_head = queue.popleft()
        chain = node not in z
        if chain and any(push(c, True) for c in children[node]):
            return False
        if node in open_colliders if via_head else chain:
            if any(push(p, False) for p in parents[node]) or any(
                push(s, True) for s in siblings[node]
            ):
                return False
    return True


def oracle_amwn(kind: ScenarioKind, T: int) -> LabelGraph:
    """The counterfactual network rebuilt on label sets: the simplified
    factual graph plus a copy ``Yx_t`` of every outcome that some
    treatment reaches, chained to the previous copy or factual outcome
    and tied to its factual twin by a bidirected edge."""
    base = build_trial_graph(kind, T, with_latents=False)
    affected = oracle_descendants(base, {X(t) for t in range(1, T + 1)})
    nodes, directed, bidirected = set(base.nodes), set(base.directed), set()
    for t in range(1, T + 1):
        if Y(t) not in affected:
            continue
        nodes.add(Yx(t))
        bidirected.add(frozenset((Y(t), Yx(t))))
        if t > 1:
            directed.add((Yx(t - 1) if Y(t - 1) in affected else Y(t - 1), Yx(t)))
    return LabelGraph(frozenset(nodes), frozenset(directed), frozenset(bidirected))


def oracle_exchangeability_table(kind: ScenarioKind, T: int, regime: Regime) -> dict:
    """Every (i, k) cell decided by its own m-separation query: of the
    outcome's copy (or factual stand-in) from ``X(k)`` given ``X(<k)``
    and ``Y(<=k)``, on the network of each deterministic component of
    the regime, rebuilt per component."""
    table = dict.fromkeys(
        ((i, k) for i in range(1, T + 1) for k in range(1, T + 1)), True
    )
    for component in regime.components():
        component.validate(T)
        amwn = oracle_amwn(kind, T)
        adjacency = _adjacency(amwn)
        for i, k in table:
            z = {X(t) for t in range(1, k)} | {Y(t) for t in range(1, k + 1)}
            target = Yx(i) if Yx(i) in amwn.nodes else Y(i)
            if target not in z and not _reach_separated(
                adjacency, {target}, {X(k)}, z
            ):
                table[(i, k)] = False
    return table


def oracle_identification_report(g, kind: ScenarioKind, T: int) -> dict:
    """Both do-calculus premises at every period of ``g``, on label-set
    surgery, in the shape of ``PremiseReport.to_dict()``."""
    confounders = {C} & g.nodes
    treatments = {n for n in g.nodes if n.kind is NodeKind.TREATMENT}
    periods = []
    for k in range(1, T + 1):
        bound = k if kind.treatment_first else k - 1
        kept = {n for n in treatments if n.period <= bound}
        dropped = treatments - kept
        earlier = {Y(t) for t in range(1, k)}
        clipped = oracle_mutilate(g, remove_outgoing=kept)
        rule2 = oracle_reach_m_separated(clipped, {Y(k)}, kept, earlier | confounders)
        partial = oracle_mutilate(g, remove_incoming=kept)
        shielded = oracle_ancestors(partial, confounders)
        final = oracle_mutilate(partial, remove_incoming=dropped - shielded)
        rule3 = oracle_reach_m_separated(
            final, {Y(k)}, dropped, kept | earlier | confounders
        )
        periods.append({"k": k, "rule2": rule2, "rule3": rule3})
    return {
        "scenario": kind.code,
        "T": T,
        "identified": all(p["rule2"] and p["rule3"] for p in periods),
        "periods": periods,
    }


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
