"""Workbench for time-partitioned target trial emulation.

The package has three layers:

* **Graphs** (:mod:`ttebench.graphs`, :mod:`ttebench.scenarios`,
  :mod:`ttebench.identification`) — mixed causal graphs with directed
  and bidirected edges, m-separation, the two within-period trial
  structures at any horizon, counterfactual (multi-world) networks,
  and mechanized do-calculus premise and exchangeability checks.
* **Data generation** (:mod:`ttebench.dgp`) — exact conditional-table
  generating processes, reproducible counter-based sampling, full
  support enumeration, and closed-form counterfactual survival.
* **Estimation** (:mod:`ttebench.estimators`, :mod:`ttebench.harness`)
  — the nonparametric plug-in and cloning-censoring-weighting
  estimators, their exact large-sample limits, and a deterministic
  replication harness with a percentile bootstrap.

A thin command line (``ttebench``) fronts the same operations.
"""

from .errors import (
    AllReplicatesFailed,
    CycleDetected,
    DotParseError,
    EmptyStratum,
    InvalidHorizon,
    NoAtRiskRows,
    OverlappingSets,
    PeriodOutOfRange,
    RegimeOutOfRange,
    SelfLoop,
    SupportTooLarge,
    UnknownNode,
    WorkbenchError,
)
from .graphs import (
    Admg,
    NodeKind,
    NodeLabel,
    A,
    B,
    C,
    X,
    Y,
    Yx,
    ancestors,
    build_graph,
    descendants,
    m_separated,
    mutilate,
    parse_dot,
    to_dot,
)
from .scenarios import (
    Regime,
    ScenarioKind,
    Strategy,
    build_amwn,
    build_trial_graph,
    exchangeability_holds,
    exchangeability_table,
)
from .identification import (
    PremiseEntry,
    PremiseReport,
    identification_report,
    rule2_premise_holds,
    rule3_premise_holds,
)
from .dgp import (
    UNCLEAR,
    Cohort,
    DgpTable,
    Trajectory,
    TrajectoryCounts,
    counterfactual_survival,
    default_dgp,
    dgp_from_json,
    dgp_to_json,
    enumerate_distribution,
    read_cohort_csv,
    sample_cohort,
    true_ate,
    validate_trajectory,
    write_cohort_csv,
)
from .estimators import (
    AteEstimate,
    CloneRow,
    StratumTable,
    WeightConvention,
    ccw_asymptotic,
    ccw_ate,
    clone_rows,
    fit_strata,
    npmle_ate,
    write_clone_csv,
)
from .harness import (
    BiasReport,
    EstimatorSummary,
    StudyConfig,
    WORKERS_ENV_VAR,
    parameter_count,
    run_bias_study,
    write_estimates_csv,
)

__version__ = "0.1.0"

__all__ = [
    "Admg",
    "AllReplicatesFailed",
    "AteEstimate",
    "BiasReport",
    "CloneRow",
    "Cohort",
    "CycleDetected",
    "DgpTable",
    "DotParseError",
    "EmptyStratum",
    "EstimatorSummary",
    "InvalidHorizon",
    "NoAtRiskRows",
    "NodeKind",
    "NodeLabel",
    "OverlappingSets",
    "PeriodOutOfRange",
    "PremiseEntry",
    "PremiseReport",
    "Regime",
    "RegimeOutOfRange",
    "ScenarioKind",
    "SelfLoop",
    "Strategy",
    "StratumTable",
    "StudyConfig",
    "SupportTooLarge",
    "Trajectory",
    "TrajectoryCounts",
    "UNCLEAR",
    "UnknownNode",
    "WORKERS_ENV_VAR",
    "WeightConvention",
    "WorkbenchError",
    "A",
    "B",
    "C",
    "X",
    "Y",
    "Yx",
    "ancestors",
    "build_amwn",
    "build_graph",
    "build_trial_graph",
    "ccw_asymptotic",
    "ccw_ate",
    "clone_rows",
    "counterfactual_survival",
    "default_dgp",
    "descendants",
    "dgp_from_json",
    "dgp_to_json",
    "enumerate_distribution",
    "exchangeability_holds",
    "exchangeability_table",
    "fit_strata",
    "identification_report",
    "m_separated",
    "mutilate",
    "npmle_ate",
    "parameter_count",
    "parse_dot",
    "read_cohort_csv",
    "rule2_premise_holds",
    "rule3_premise_holds",
    "run_bias_study",
    "sample_cohort",
    "to_dot",
    "true_ate",
    "validate_trajectory",
    "write_clone_csv",
    "write_cohort_csv",
    "write_estimates_csv",
    "__version__",
]
