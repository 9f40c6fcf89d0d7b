"""Exception hierarchy shared by all workbench modules.

Every error raised by the public API derives from :class:`WorkbenchError`
so callers can catch one type. The command line layer maps the estimation
failures (:data:`ESTIMATION_ERRORS`) to a distinct exit code.
"""

from __future__ import annotations


def check_positive_int(
    name: str, value: object, error: type[Exception] = ValueError
) -> None:
    """Raise ``error`` unless ``value`` is an integer >= 1 (bools excluded)."""
    if not isinstance(value, int) or isinstance(value, bool) or value < 1:
        raise error(f"{name} must be an integer >= 1, got {value!r}")


class WorkbenchError(Exception):
    """Base class for all workbench errors."""


class CycleDetected(WorkbenchError):
    """The directed part of a graph contains a cycle."""


class UnknownNode(WorkbenchError):
    """An edge endpoint or query node is not declared in the graph."""


class SelfLoop(WorkbenchError):
    """An edge connects a node to itself."""


class OverlappingSets(WorkbenchError):
    """The node sets of a separation query are not pairwise disjoint."""


class DotParseError(WorkbenchError):
    """DOT text does not conform to the subset this package emits."""


class InvalidHorizon(WorkbenchError):
    """The number of periods T must be an integer >= 1."""


class PeriodOutOfRange(WorkbenchError):
    """A period index falls outside 1..T."""


class RegimeOutOfRange(WorkbenchError):
    """A regime refers to periods outside the horizon of the target."""


class SupportTooLarge(WorkbenchError):
    """Exact enumeration would exceed the supported number of trajectories."""


class EmptyStratum(WorkbenchError):
    """A stratum required by an estimator has no observations.

    Attributes
    ----------
    period : int
        Period of the missing stratum.
    history : tuple
        Treatment history keying the stratum.
    role : str
        Which table was queried ("hazard" or "propensity").
    """

    def __init__(self, period: int, history: tuple, role: str = "hazard"):
        self.period = period
        self.history = tuple(history)
        self.role = role
        super().__init__(
            f"no observations for {role} stratum at period {period} "
            f"with treatment history {self.history}"
        )


class NoAtRiskRows(WorkbenchError):
    """A cloned arm has no at-risk rows left in some period.

    Attributes
    ----------
    arm : str
        Label of the affected arm ("treat" or "control").
    period : int
        First period with an empty risk set.
    """

    def __init__(self, arm: str, period: int):
        self.arm = arm
        self.period = period
        super().__init__(f"no at-risk rows in arm {arm!r} at period {period}")


class AllReplicatesFailed(WorkbenchError):
    """Every replicate of a bias study failed for some estimator."""


#: Errors meaning "the estimand is not computable from this sample", as
#: opposed to invalid inputs. The CLI exits with status 2 on these.
ESTIMATION_ERRORS = (EmptyStratum, NoAtRiskRows, AllReplicatesFailed)
