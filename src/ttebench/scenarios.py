"""Scenario graphs, treatment regimes, and the exchangeability check.

Two within-period causal structures are supported, differing only in
the direction of the edge between the treatment and the outcome of the
same period:

* scenario A (``NO_WITHIN_PERIOD_TREATMENT_EFFECT``): the period's vital
  status is settled before treatment can act, so ``Y_t -> X_t``;
* scenario B (``NO_WITHIN_PERIOD_OUTCOME_EFFECT``): treatment acts
  first, so ``X_t -> Y_t``.

Full graphs add a baseline confounder ``C`` (into every variable), a
latent cause ``A`` shared by all treatments, a latent cause ``B``
shared by all outcomes, and treatment carry-over edges between all
treatment pairs. Simplified graphs drop the latents and keep only
consecutive treatment carry-over.

The counterfactual-exchangeability check builds an ancestral
multi-world network (AMWN): the simplified factual graph is joined with
copies of the outcomes affected by the intervention, linked to their
factual twins by bidirected edges (shared exogenous noise), and the
independence is read off with m-separation. Every supported regime
fixes every treatment, so the AMWN depends only on ``(kind, T)``: a
table builds it once and answers each treatment period's column with
one reachability pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from . import graphs
from .errors import (
    InvalidHorizon,
    PeriodOutOfRange,
    RegimeOutOfRange,
    check_positive_int,
)
from .graphs import A, Admg, B, C, X, Y, Yx, build_graph

__all__ = [
    "ScenarioKind",
    "Strategy",
    "Regime",
    "build_trial_graph",
    "build_amwn",
    "exchangeability_holds",
    "exchangeability_table",
]


class ScenarioKind(Enum):
    """Within-period causal structure; the value is the short code."""

    NO_WITHIN_PERIOD_TREATMENT_EFFECT = "A"
    NO_WITHIN_PERIOD_OUTCOME_EFFECT = "B"

    @property
    def code(self) -> str:
        return self.value

    @classmethod
    def from_code(cls, code: str) -> "ScenarioKind":
        message = f"unknown scenario {code!r}; expected 'A' or 'B'"
        if not isinstance(code, str):
            raise ValueError(message)
        try:
            return cls(code.strip().upper())
        except ValueError:
            raise ValueError(message) from None

    @property
    def treatment_first(self) -> bool:
        """True when the period's treatment precedes its outcome."""
        return self is ScenarioKind.NO_WITHIN_PERIOD_OUTCOME_EFFECT

    def hazard_history(self, path: tuple[int, ...], k: int) -> tuple[int, ...]:
        """The prefix of a treatment path that the period-k hazard
        conditions on: through k when treatment comes first, else k-1."""
        return path[:k] if self.treatment_first else path[: k - 1]


class Strategy(Enum):
    NEVER = "never"
    ALWAYS_FROM_START = "always"
    INITIATE_AT = "initiate_at"
    UNIFORM_GRACE = "uniform_grace"


@dataclass(frozen=True)
class Regime:
    """A treatment strategy over the follow-up periods.

    ``never`` keeps treatment at 0 while alive; ``always`` initiates in
    period 1; ``initiate_at(i)`` starts treatment in period i;
    ``uniform_grace(g)`` draws the initiation period uniformly from
    1..g, i.e. it is the uniform mixture of ``initiate_at(1..g)``.
    """

    strategy: Strategy
    param: int | None = None

    def __post_init__(self):
        needs_param = self.strategy in (
            Strategy.INITIATE_AT,
            Strategy.UNIFORM_GRACE,
        )
        if needs_param:
            if not isinstance(self.param, int) or self.param < 1:
                raise RegimeOutOfRange(
                    f"{self.strategy.value} needs an integer parameter >= 1"
                )
        elif self.param is not None:
            raise RegimeOutOfRange(f"{self.strategy.value} takes no parameter")

    @classmethod
    def never(cls) -> "Regime":
        return cls(Strategy.NEVER)

    @classmethod
    def always_from_start(cls) -> "Regime":
        return cls(Strategy.ALWAYS_FROM_START)

    @classmethod
    def initiate_at(cls, period: int) -> "Regime":
        return cls(Strategy.INITIATE_AT, period)

    @classmethod
    def uniform_grace(cls, grace: int) -> "Regime":
        return cls(Strategy.UNIFORM_GRACE, grace)

    @property
    def is_deterministic(self) -> bool:
        """True when the regime fixes one treatment value per period."""
        return self.strategy is not Strategy.UNIFORM_GRACE

    def validate(self, T: int) -> None:
        """Raise :class:`RegimeOutOfRange` if the regime exceeds T periods."""
        if self.param is not None and self.param > T:
            raise RegimeOutOfRange(
                f"regime {self.describe()} does not fit a horizon of {T}"
            )

    def treatment_at(self, period: int) -> int:
        """Treatment value assigned in a period (deterministic regimes)."""
        if self.strategy is Strategy.NEVER:
            return 0
        if self.strategy is Strategy.ALWAYS_FROM_START:
            return 1
        if self.strategy is Strategy.INITIATE_AT:
            return 1 if period >= self.param else 0
        raise RegimeOutOfRange(
            "a grace-period regime assigns no single treatment value; "
            "expand it with components()"
        )

    def components(self) -> tuple["Regime", ...]:
        """The deterministic regimes this regime mixes over."""
        if self.strategy is Strategy.UNIFORM_GRACE:
            return tuple(Regime.initiate_at(i) for i in range(1, self.param + 1))
        return (self,)

    def describe(self) -> str:
        """Compact descriptor, e.g. ``never`` or ``initiate_at(3)``."""
        if self.param is None:
            return self.strategy.value
        return f"{self.strategy.value}({self.param})"

    @classmethod
    def from_descriptor(cls, text: str) -> "Regime":
        """Parse :meth:`describe` output (``always``, ``uniform_grace(2)``, ...)."""
        if not isinstance(text, str):
            raise ValueError(f"malformed regime descriptor: {text!r}")
        s = text.strip().lower()
        if "(" in s:
            head, _, rest = s.partition("(")
            if not rest.endswith(")"):
                raise ValueError(f"malformed regime descriptor: {text!r}")
            try:
                param = int(rest[:-1])
            except ValueError:
                raise ValueError(f"malformed regime descriptor: {text!r}") from None
        else:
            head, param = s, None
        for strat in Strategy:
            if strat.value == head:
                return cls(strat, param)
        raise ValueError(f"unknown regime strategy: {text!r}")


def build_trial_graph(kind: ScenarioKind, T: int, with_latents: bool = True) -> Admg:
    """Scenario graph over periods 1..T.

    Both variants share the outcome chain ``Y_t -> Y_{t+1}``, lagged
    treatment effects ``X_s -> Y_t`` for every s < t, and the feedback
    edge ``Y_{t-1} -> X_t``. The within-period edge direction and the
    latent structure are controlled by ``kind`` and ``with_latents``.
    """
    check_positive_int("horizon", T, InvalidHorizon)
    nodes = [X(t) for t in range(1, T + 1)] + [Y(t) for t in range(1, T + 1)]
    directed: list[tuple] = []
    for t in range(1, T):
        directed.append((Y(t), Y(t + 1)))
        directed.append((X(t), X(t + 1)))
    if with_latents:
        for s in range(1, T + 1):
            for t in range(s + 2, T + 1):
                directed.append((X(s), X(t)))
    for s in range(1, T + 1):
        for t in range(s + 1, T + 1):
            directed.append((X(s), Y(t)))
    for t in range(2, T + 1):
        directed.append((Y(t - 1), X(t)))
    for t in range(1, T + 1):
        if kind.treatment_first:
            directed.append((X(t), Y(t)))
        else:
            directed.append((Y(t), X(t)))
    if with_latents:
        nodes += [C, A, B]
        for t in range(1, T + 1):
            directed.append((A, X(t)))
            directed.append((B, Y(t)))
            directed.append((C, X(t)))
            directed.append((C, Y(t)))
    return build_graph(nodes, directed)


def build_amwn(kind: ScenarioKind, T: int, regime: Regime) -> Admg:
    """Ancestral multi-world network over the simplified scenario graph.

    Every supported regime intervenes on all treatment nodes, fixing
    them to constants, so the network depends only on ``(kind, T)``;
    the regime is only checked against the horizon. An outcome gets a
    counterfactual copy exactly when some treatment is its ancestor in
    the factual graph. A copy ``Yx_t`` has parent ``Yx_{t-1}`` when
    that copy exists, otherwise the factual ``Y_{t-1}``; it has no
    treatment parents (treatments are constants in the counterfactual
    world) and shares its exogenous noise with the factual ``Y_t``
    through a bidirected edge. Outcomes untouched by the intervention
    are not copied: the factual node serves both worlds.
    """
    check_positive_int("horizon", T, InvalidHorizon)
    regime.validate(T)
    base = build_trial_graph(kind, T, with_latents=False)
    affected = graphs.descendants(base, [X(t) for t in range(1, T + 1)])
    copied = [t for t in range(1, T + 1) if Y(t) in affected]
    nodes = set(base.nodes)
    directed = set(base.directed)
    bidirected: list[tuple] = []
    for t in copied:
        nodes.add(Yx(t))
        bidirected.append((Y(t), Yx(t)))
        if t == 1:
            continue
        parent = Yx(t - 1) if (t - 1) in copied else Y(t - 1)
        directed.add((parent, Yx(t)))
    return build_graph(nodes, directed, bidirected)


def _exchangeable_column(amwn: Admg, T: int, k: int) -> list[bool]:
    """Column k of the exchangeability table, entry i-1 for period i: one
    reachability pass from ``X(k)`` given ``X(<k)`` and ``Y(<=k)`` decides
    every outcome period, exchangeable iff the pass does not reach it."""
    conditioning = {X(t) for t in range(1, k)} | {Y(t) for t in range(1, k + 1)}
    reached = graphs._m_connected(amwn, [X(k)], conditioning)
    column = []
    for i in range(1, T + 1):
        target = Yx(i) if Yx(i) in amwn.nodes else Y(i)
        column.append(target in conditioning or target not in reached)
    return column


def exchangeability_holds(
    kind: ScenarioKind, T: int, i: int, k: int, regime: Regime
) -> bool:
    """Counterfactual exchangeability for outcome period i at treatment
    period k.

    Checks, on the AMWN, the m-separation of the counterfactual outcome
    of period i from the treatment of period k, conditional on all
    treatments before k and all outcomes through k. When the outcome
    has no counterfactual copy the factual node stands in; if that
    factual node already sits in the conditioning set (i <= k) the
    statement is trivially granted — a convention, reported as holding.

    Grace-period regimes are mixtures of initiation regimes; the check
    must hold for every component, and all components share one AMWN.
    """
    check_positive_int("horizon", T, InvalidHorizon)
    for p, label in ((i, "i"), (k, "k")):
        if not isinstance(p, int) or p < 1 or p > T:
            raise PeriodOutOfRange(f"{label}={p!r} outside 1..{T}")
    return _exchangeable_column(build_amwn(kind, T, regime), T, k)[i - 1]


def exchangeability_table(
    kind: ScenarioKind, T: int, regime: Regime
) -> dict[tuple[int, int], bool]:
    """The full (i, k) truth table of :func:`exchangeability_holds`,
    from one AMWN and one reachability pass per treatment period."""
    check_positive_int("horizon", T, InvalidHorizon)
    amwn = build_amwn(kind, T, regime)
    columns = [_exchangeable_column(amwn, T, k) for k in range(1, T + 1)]
    periods = range(1, T + 1)
    return {(i, k): columns[k - 1][i - 1] for i in periods for k in periods}
