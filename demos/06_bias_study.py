"""Replicated bias studies: the workbench's headline experiment.

A study samples many cohorts from a scenario's generating process,
runs both estimators on every cohort, and summarizes mean bias with a
percentile-bootstrap confidence interval. Reports are byte-identical
for a given configuration no matter how many worker processes ran the
replicates.

This demo runs a reduced study (200 replicates x 400 patients) in
well under a second. The full-size experiment (1000 x 1000, the acceptance
setting) gives, at master seed 20260815:

  scenario A: npmle -0.05 pp [CI -0.24, +0.13], ccw -0.05 pp [CI -0.23, +0.14]
  scenario B: npmle -0.09 pp [CI -0.30, +0.14], ccw -8.01 pp [CI -8.20, -7.82]
"""

import json
import tempfile
from pathlib import Path

from ttebench import (
    ScenarioKind,
    StudyConfig,
    WeightConvention,
    run_bias_study,
    write_estimates_csv,
)


def section(title):
    print(f"\n=== {title} ===")


def show(report):
    print(f"scenario {report.scenario.code}, true effect {report.true_ate:+.7f}")
    for name, summary in report.summaries.items():
        print(
            f"  {name:5s}: mean bias {summary.mean_bias * 100:+7.3f} pp, "
            f"95% CI [{summary.ci_lower * 100:+7.3f}, {summary.ci_upper * 100:+7.3f}] pp, "
            f"failures {summary.failures}"
        )


section("Reduced study, scenario A: both estimators unbiased")
report_a = run_bias_study(
    StudyConfig(
        scenario=ScenarioKind.from_code("A"),
        n_replicates=200,
        n_patients=400,
        master_seed=20260815,
        bootstrap_iterations=500,
    )
)
show(report_a)

section("Reduced study, scenario B: the weighting convention decides")
for convention in (WeightConvention.LAGGED, WeightConvention.CURRENT_PERIOD):
    report_b = run_bias_study(
        StudyConfig(
            scenario=ScenarioKind.from_code("B"),
            n_replicates=200,
            n_patients=400,
            master_seed=20260815,
            weight_convention=convention,
            bootstrap_iterations=500,
        )
    )
    print(f"\nccw weight convention: {convention.value}")
    show(report_b)

section("Reports and per-replicate estimates are exportable")
with tempfile.TemporaryDirectory() as tmp:
    report_path = Path(tmp) / "report.json"
    estimates_path = Path(tmp) / "estimates.csv"
    report_path.write_text(report_a.to_json())
    write_estimates_csv(report_a, estimates_path)
    payload = json.loads(report_path.read_text())
    print(f"report JSON keys: {sorted(payload)}")
    print("estimates CSV head:")
    print("\n".join(estimates_path.read_text().splitlines()[:4]))

section("Determinism")
again = run_bias_study(
    StudyConfig(
        scenario=ScenarioKind.from_code("A"),
        n_replicates=200,
        n_patients=400,
        master_seed=20260815,
        bootstrap_iterations=500,
    )
)
print(f"re-running the same configuration is byte-identical: "
      f"{again.to_json() == report_a.to_json()}")
print("(Set TTEBENCH_WORKERS=4 to parallelize; the bytes do not change.)")
