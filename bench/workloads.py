"""The benchmark's workloads and the checks on their outputs.

Each workload is a closed loop of cycles from one serial process; a
cycle is a fixed list of steps, each one library call that is timed on
its own. The library receives only inputs generated from the workload
seed and is called through its public module functions and
``ttebench.cli.main``, always looked up on the module at call time so
that a traced run can rebind them.

* ``study-b``: one step, a scenario-B ``run_bias_study`` of 5
  replicates (1000 patients each, npmle and lagged ccw, 1000 bootstrap
  iterations). Many small cohorts that share a few distinct
  trajectories; the time is in the estimators and the sampler.
* ``csv-roundtrip-a``: ``simulate`` of a 3000-patient scenario-A
  cohort to CSV, then ``estimate`` on that file with npmle and with
  current-period ccw. One large cohort, file I/O, no harness.
* ``graph-checks``: the identification report of both scenarios at
  T=15, then the exchangeability tables of both scenarios under
  ``always`` and ``uniform_grace(3)`` at T=6. Graph code only, no
  numpy numerics.

Check functions take their expected values as keyword arguments so the
smoke tests can show that each check fails on a wrong expectation.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

from ttebench import cli, dgp, harness, identification, scenarios
from ttebench._rng import STREAM_REPLICATE, hash_key

import oracle

SCEN_A = scenarios.ScenarioKind.from_code("A")
SCEN_B = scenarios.ScenarioKind.from_code("B")
ALWAYS = scenarios.Regime.always_from_start()
GRACE = scenarios.Regime.uniform_grace(3)
ALWAYS_PATH = (1, 1, 1)
NEVER_PATH = (0, 0, 0)

#: Closed-form scenario-B effect of always versus never treating.
TRUE_ATE_B = 0.2410625
TRUTH_TOL = 1e-12
ATE_TOL = 1e-9

SEED_TABLES = json.loads(
    (Path(__file__).with_name("seed_tables.json")).read_text(encoding="utf-8")
)

#: Step sizes; ``tiny`` is for the smoke tests only.
SIZES = {
    "full": {"replicates": 5, "patients": 3_000, "ident_T": 15, "exch_T": 6},
    "tiny": {"replicates": 2, "patients": 2_000, "ident_T": 4, "exch_T": 4},
}


def _close(a, b, tol: float) -> bool:
    if a is None or b is None:
        return a is None and b is None
    return abs(a - b) <= tol


# -- study-b ---------------------------------------------------------

def study_reference(master_seed: int, r: int, n_patients: int) -> dict:
    """Rebuild replicate ``r`` of a study and estimate it independently."""
    cohort = dgp.sample_cohort(
        dgp.default_dgp(SCEN_B), SCEN_B, n_patients,
        hash_key(master_seed, STREAM_REPLICATE, r),
    )
    counts = oracle.count_trajectories((t.x, t.y) for t in cohort.trajectories)
    return {
        "npmle": oracle.npmle_ate(counts, True, ALWAYS_PATH, NEVER_PATH),
        "ccw": oracle.ccw_ate(counts, ALWAYS_PATH, NEVER_PATH, current=False),
    }


def check_study_report(
    report, *, reference=study_reference, expected_truth: float = TRUE_ATE_B
) -> list[str]:
    """Truth, every replicate estimate and the failure counts."""
    problems = []
    if abs(report.true_ate - expected_truth) > TRUTH_TOL:
        problems.append(f"true_ate {report.true_ate!r} != {expected_truth!r}")
    refs = [
        reference(report.master_seed, r, report.n_patients)
        for r in range(report.n_replicates)
    ]
    for name, summary in report.summaries.items():
        expected = [ref[name] for ref in refs]
        for r, (got, want) in enumerate(zip(summary.estimates, expected)):
            if not _close(got, want, ATE_TOL):
                problems.append(f"{name} replicate {r}: {got!r} != {want!r}")
        want_failures = sum(v is None for v in expected)
        if summary.failures != want_failures:
            problems.append(
                f"{name} failures {summary.failures} != {want_failures}"
            )
    return problems


def check_same_report(first: str, second: str) -> list[str]:
    return [] if first == second else ["same seed gave different report JSON"]


class StudyB:
    name = "study-b"

    def __init__(self, seed: int, size: dict, workdir: Path):
        self.seed = seed
        self.items = size["replicates"]
        self.reports: dict[str, str] = {}

    def config(self, i: int, bootstrap_iterations: int = 1000):
        return harness.StudyConfig(
            scenario=SCEN_B,
            n_replicates=self.items,
            n_patients=1000,
            master_seed=self.seed + i,
            estimators=("npmle", "ccw"),
            bootstrap_iterations=bootstrap_iterations,
        )

    def warm_up(self) -> None:
        self.reports["warm-up"] = harness.run_bias_study(self.config(0)).to_json()

    def steps(self, i: int):
        return [("study", lambda: harness.run_bias_study(self.config(i)))]

    def check(self, i: int, results: dict) -> list[str]:
        if i == 0:
            self.reports["cycle 0"] = results["study"].to_json()
        return check_study_report(results["study"])

    def final_checks(self) -> list[str]:
        """The warm-up and cycle 0 ran the same study."""
        return check_same_report(self.reports["warm-up"], self.reports["cycle 0"])

    def counts(self, results: list[dict]) -> dict:
        failed = sum(
            s.failures for r in results for s in r["study"].summaries.values()
        )
        return {"harness.failed_replicates": failed / len(results)}

    def untraced_extras(self, serial_s: float) -> dict:
        """Bootstrap cost and the two-worker speed-up, measured untraced
        from fastest times.

        1000 bootstrap iterations of a 5-replicate study cost about 1 ms,
        below the noise of a whole study, so the cost is taken from 50000
        iterations and scaled linearly to 1000.
        """
        def fastest(config, repeats=5):
            times = []
            for _ in range(repeats):
                t0 = time.perf_counter()
                harness.run_bias_study(config)
                times.append(time.perf_counter() - t0)
            return min(times)

        with_bootstrap = fastest(self.config(1, bootstrap_iterations=50_000))
        without = fastest(self.config(1, bootstrap_iterations=1))
        os.environ[harness.WORKERS_ENV_VAR] = "2"
        try:
            parallel = fastest(self.config(1), repeats=3)
        finally:
            del os.environ[harness.WORKERS_ENV_VAR]
        return {
            "harness.bootstrap_s": (with_bootstrap - without) * 1000 / 49_999,
            "harness.workers2_speedup": serial_s / parallel,
        }


# -- csv-roundtrip-a -------------------------------------------------

def check_roundtrip(
    exit_codes, ates: dict, counts, n_patients: int, *, tol: float = ATE_TOL
) -> list[str]:
    """Exit codes, cohort size, and both estimates against the reference."""
    problems = []
    if list(exit_codes) != [0, 0, 0]:
        problems.append(f"exit codes {list(exit_codes)} != [0, 0, 0]")
    n = sum(counts.values())
    if n != n_patients:
        problems.append(f"CSV holds {n} patients, expected {n_patients}")
    want = {
        "npmle": oracle.npmle_ate(counts, False, ALWAYS_PATH, NEVER_PATH),
        "ccw": oracle.ccw_ate(counts, ALWAYS_PATH, NEVER_PATH, current=True),
    }
    for name, value in want.items():
        if not _close(ates.get(name), value, tol):
            problems.append(f"{name} ATE {ates.get(name)!r} != {value!r}")
    return problems


class CsvRoundtripA:
    name = "csv-roundtrip-a"

    def __init__(self, seed: int, size: dict, workdir: Path):
        self.seed = seed
        self.items = size["patients"]
        self.cohort = workdir / "cohort.csv"
        self.outputs = {"npmle": workdir / "npmle.json", "ccw": workdir / "ccw.json"}
        self.csv_bytes = 0

    def _simulate(self, i: int) -> int:
        return cli.main(["simulate", "--scenario", "A", "--n", str(self.items),
                         "--seed", str(self.seed + i),
                         "--output", str(self.cohort)])

    def _estimate(self, name: str, *flags: str) -> int:
        return cli.main(["estimate", "--scenario", "A",
                         "--cohort", str(self.cohort), "--estimator", name,
                         *flags, "--output", str(self.outputs[name])])

    def warm_up(self) -> None:
        self._simulate(0)

    def steps(self, i: int):
        return [
            ("simulate", lambda: self._simulate(i)),
            ("estimate npmle", lambda: self._estimate("npmle")),
            ("estimate ccw", lambda: self._estimate(
                "ccw", "--weight-convention", "current")),
        ]

    def check(self, i: int, results: dict) -> list[str]:
        ates = {}
        for name, path in self.outputs.items():
            if path.exists():
                ates[name] = json.loads(path.read_text(encoding="utf-8"))["ate"]
                path.unlink()
        self.csv_bytes = self.cohort.stat().st_size
        counts = oracle.read_csv_counts(self.cohort)
        self.cohort.unlink()
        return check_roundtrip(list(results.values()), ates, counts, self.items)

    def final_checks(self) -> list[str]:
        return []

    def counts(self, results: list[dict]) -> dict:
        return {"dgp.csv_bytes": self.csv_bytes}

    def untraced_extras(self, serial_s: float) -> dict:
        return {}


# -- graph-checks ----------------------------------------------------

def check_graphs(
    identified: dict, tables: dict, T: int, *, seed_tables: dict = SEED_TABLES
) -> list[str]:
    """Identification, the closed-form table patterns and the seed tables."""
    problems = [
        f"scenario {code} not identified"
        for code, ok in identified.items() if not ok
    ]
    cells = [(i, k) for i in range(1, T + 1) for k in range(1, T + 1)]
    expected = {
        ("A", ALWAYS.describe()): {c: True for c in cells},
        ("B", ALWAYS.describe()): {(i, k): i < k for i, k in cells},
    }
    for code in "AB":
        rows = seed_tables[f"{code} {GRACE.describe()} T={T}"]
        expected[(code, GRACE.describe())] = {
            (i, k): rows[i - 1][k - 1] == "1" for i, k in cells
        }
    for key, want in expected.items():
        if tables.get(key) != want:
            problems.append(f"exchangeability table {key} differs")
    return problems


class GraphChecks:
    name = "graph-checks"

    def __init__(self, seed: int, size: dict, workdir: Path):
        self.ident_T = size["ident_T"]
        self.exch_T = size["exch_T"]
        # Premises checked plus exchangeability cells evaluated.
        self.items = 2 * 2 * self.ident_T + 4 * self.exch_T ** 2

    def warm_up(self) -> None:
        identification.identification_report(SCEN_A, self.ident_T)

    def steps(self, i: int):
        def ident(kind):
            return lambda: identification.identification_report(
                kind, self.ident_T).identified

        def table(kind, regime):
            return lambda: scenarios.exchangeability_table(
                kind, self.exch_T, regime)

        return [(f"identification {kind.code}", ident(kind))
                for kind in (SCEN_A, SCEN_B)] + [
            (f"exchangeability {kind.code} {regime.describe()}",
             table(kind, regime))
            for kind in (SCEN_A, SCEN_B) for regime in (ALWAYS, GRACE)
        ]

    def check(self, i: int, results: dict) -> list[str]:
        identified = {code: results[f"identification {code}"] for code in "AB"}
        tables = {
            (code, regime.describe()):
                results[f"exchangeability {code} {regime.describe()}"]
            for code in "AB" for regime in (ALWAYS, GRACE)
        }
        return check_graphs(identified, tables, self.exch_T)

    def final_checks(self) -> list[str]:
        return []

    def counts(self, results: list[dict]) -> dict:
        return {}

    def untraced_extras(self, serial_s: float) -> dict:
        return {}


WORKLOADS = {w.name: w for w in (StudyB, CsvRoundtripA, GraphChecks)}
