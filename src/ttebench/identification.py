"""Do-calculus premise checks for the survival estimands.

The estimand for each scenario rewrites, period by period, the
interventional survival factor ``P(Y_k = 0 | Y_<k = 0, do(treatments))``
into a purely observational one. Two graphical premises license the
rewrite at period k:

* the rule-3 premise lets the interventions on treatments that cannot
  influence the period-k outcome be dropped;
* the rule-2 premise lets the remaining interventions be replaced by
  conditioning.

In scenario A the period-k outcome precedes the period-k treatment, so
the split is at t < k versus t >= k; in scenario B the treatment acts
within the period and the split is at t <= k versus t > k.

Both checks run on the full (with-latents) scenario graph and reduce to
m-separation statements on mutilated graphs. The rule-3 mutilation
removes incoming edges for the still-intervened treatments and for the
dropped treatments that are not ancestors of the conditioning
confounder; that ancestor set is computed, not hard-coded, so the
checks remain meaningful on hand-corrupted graphs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .errors import PeriodOutOfRange
from .graphs import Admg, C, NodeKind, X, Y, ancestors, m_separated, mutilate
from .scenarios import ScenarioKind, build_trial_graph

__all__ = [
    "PremiseEntry",
    "PremiseReport",
    "rule2_premise_holds",
    "rule3_premise_holds",
    "identification_report",
]


@dataclass(frozen=True)
class PremiseEntry:
    k: int
    rule2: bool
    rule3: bool


@dataclass(frozen=True)
class PremiseReport:
    """Per-period premise results for one scenario and horizon."""

    scenario: ScenarioKind
    T: int
    entries: tuple[PremiseEntry, ...]

    @property
    def identified(self) -> bool:
        """True iff both premises hold at every period."""
        return all(e.rule2 and e.rule3 for e in self.entries)

    def to_dict(self) -> dict:
        return {
            "scenario": self.scenario.code,
            "T": self.T,
            "identified": self.identified,
            "periods": [
                {"k": e.k, "rule2": e.rule2, "rule3": e.rule3}
                for e in self.entries
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"


def _check_period(T: int, k: int) -> None:
    if not isinstance(k, int) or k < 1 or k > T:
        raise PeriodOutOfRange(f"k={k!r} outside 1..{T}")


def _treatment_split(
    g: Admg, kind: ScenarioKind, k: int
) -> tuple[set, set]:
    """Treatments split into (still intervened, dropped) at period k."""
    treatments = {n for n in g.nodes if n.kind is NodeKind.TREATMENT}
    bound = k if kind.treatment_first else k - 1
    kept = {n for n in treatments if n.period <= bound}
    dropped = treatments - kept
    return kept, dropped


def rule3_premise_holds(g: Admg, kind: ScenarioKind, T: int, k: int) -> bool:
    """Premise for dropping the interventions on later treatments.

    On the graph with incoming edges removed for the still-intervened
    treatments, the dropped treatments that are not ancestors of the
    baseline confounder also lose their incoming edges; the premise is
    the m-separation of the period-k outcome from the dropped
    treatments given the earlier treatments, earlier outcomes, and the
    confounder.
    """
    _check_period(T, k)
    kept, dropped = _treatment_split(g, kind, k)
    partial = mutilate(g, remove_incoming=kept)
    confounders = {C} & g.nodes
    removable = dropped - ancestors(partial, confounders)
    final = mutilate(partial, remove_incoming=removable)
    conditioning = kept | {Y(t) for t in range(1, k)} | confounders
    return m_separated(final, {Y(k)}, dropped, conditioning)


def rule2_premise_holds(g: Admg, kind: ScenarioKind, T: int, k: int) -> bool:
    """Premise for replacing the remaining interventions by conditioning.

    On the graph with outgoing edges removed for the still-intervened
    treatments, the period-k outcome must be m-separated from them
    given the earlier outcomes and the confounder.
    """
    _check_period(T, k)
    kept, _ = _treatment_split(g, kind, k)
    clipped = mutilate(g, remove_outgoing=kept)
    conditioning = {Y(t) for t in range(1, k)} | ({C} & g.nodes)
    return m_separated(clipped, {Y(k)}, kept, conditioning)


def identification_report(kind: ScenarioKind, T: int) -> PremiseReport:
    """Evaluate both premises for every period of the full graph."""
    g = build_trial_graph(kind, T, with_latents=True)
    entries = tuple(
        PremiseEntry(
            k=k,
            rule2=rule2_premise_holds(g, kind, T, k),
            rule3=rule3_premise_holds(g, kind, T, k),
        )
        for k in range(1, T + 1)
    )
    return PremiseReport(scenario=kind, T=T, entries=entries)
