"""The two survival estimators and why they can disagree.

* ``npmle_ate`` -- the nonparametric plug-in: fit the hazards along
  each regime's treatment path exactly, then multiply them (the
  discrete-time g-formula).
* ``ccw_ate`` -- cloning-censoring-weighting: clone every patient into
  each arm, censor a clone when its observed treatment first deviates
  from the arm, and reweight the survivors to undo the censoring.

In outcome-first periods (scenario A) the two agree. In treatment-first
periods (scenario B) the conventional lagged weighting pools each
period's risk set over the current treatment and inherits its bias;
the current-period weighting repairs it and reproduces the plug-in.
"""

import tempfile
from pathlib import Path

from ttebench import (
    Cohort,
    Regime,
    ScenarioKind,
    Trajectory,
    WeightConvention,
    ccw_asymptotic,
    ccw_ate,
    clone_rows,
    default_dgp,
    npmle_ate,
    sample_cohort,
    true_ate,
    write_clone_csv,
)

A = ScenarioKind.from_code("A")
B = ScenarioKind.from_code("B")
NEVER, ALWAYS = Regime.never(), Regime.always_from_start()
LAGGED, CURRENT = WeightConvention.LAGGED, WeightConvention.CURRENT_PERIOD


def section(title):
    print(f"\n=== {title} ===")


section("A four-patient worked example (scenario B, one period)")
cohort = Cohort.from_trajectories(
    (
        Trajectory((1,), (0,)),
        Trajectory((1,), (1,)),
        Trajectory((0,), (0,)),
        Trajectory((0,), (0,)),
    ),
    B,
)
print("patients (x1, y1): (1,0) (1,1) (0,0) (0,0)")
print(f"plug-in:               {npmle_ate(cohort, B, ALWAYS, NEVER).ate:+.4f}")
print(f"ccw, current weights:  {ccw_ate(cohort, B, ALWAYS, NEVER, CURRENT).ate:+.4f}")
print(f"ccw, lagged weights:   {ccw_ate(cohort, B, ALWAYS, NEVER, LAGGED).ate:+.4f}")
print(
    "\nLagged weights carry no period-1 adjustment at all, so with a\n"
    "single period both arms pool the whole cohort and the contrast\n"
    "collapses to zero -- the cells disagree because the treated die\n"
    "at a different rate than the untreated."
)

section("Clone-level rows are exportable for audit")
rows = clone_rows(cohort, B, NEVER, LAGGED)
with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "clones.csv"
    write_clone_csv(rows, path)
    print(path.read_text().rstrip())

section("One sampled cohort, scenario B (n = 2000)")
d = default_dgp(B)
sample = sample_cohort(d, B, 2000, seed=5)
truth = true_ate(d, B, ALWAYS, NEVER)
plug = npmle_ate(sample, B, ALWAYS, NEVER)
lag = ccw_ate(sample, B, ALWAYS, NEVER, LAGGED)
cur = ccw_ate(sample, B, ALWAYS, NEVER, CURRENT)
print(f"true effect:            {truth:+.6f}")
print(f"plug-in:                {plug.ate:+.6f}")
print(f"ccw, lagged weights:    {lag.ate:+.6f}   <- systematically low")
print(f"ccw, current weights:   {cur.ate:+.6f}   == plug-in: {abs(cur.ate - plug.ate) < 1e-12}")

section("Large-sample limits make the bias exact")
for kind in (A, B):
    dk = default_dgp(kind)
    t = true_ate(dk, kind, ALWAYS, NEVER)
    for convention in (LAGGED, CURRENT):
        limit = ccw_asymptotic(dk, kind, ALWAYS, NEVER, convention)
        print(
            f"scenario {kind.code}, {convention.value:7s}: limit {limit:+.10f}, "
            f"asymptotic bias {limit - t:+.10f}"
        )
print(
    "\nOnly (scenario B, lagged) is biased: about -8.03 points against a\n"
    "+24.1-point truth. That combination is the default convention\n"
    "because it is the one whose behavior the bias study documents."
)

section("Other regimes and diagnostics")
est = ccw_ate(sample, B, Regime.initiate_at(2), NEVER, LAGGED)
print(f"initiate_at(2) vs never: {est.ate:+.6f}")
diag = est.diagnostics["arms"]["treat"]
print(f"treat-arm at-risk counts per period:   {diag['n_at_risk']}")
print(f"treat-arm weighted risk mass:          {[round(v, 1) for v in diag['weighted_at_risk']]}")
print(f"treat-arm pooled hazards:              {[round(h, 4) for h in diag['hazard']]}")
grace = npmle_ate(sample, B, Regime.uniform_grace(2), NEVER)
print(f"uniform_grace(2) vs never (plug-in):   {grace.ate:+.6f}")
