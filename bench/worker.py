"""One workload process: set up, warm up, then measure or trace.

Started by ``run.py`` with ``--role probe`` (set up, warm up, report the
ready time and exit) or ``--role main`` (the same set-up, then the
measurement). The ready time is read from ``CLOCK_MONOTONIC``, which all
processes of the machine share, so the parent can subtract its own
spawn time from it.

Output is one JSON object on the last line of standard output.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path


def ready_clock() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class Run:
    """Runs cycles of steps, checks every cycle and keeps the tallies."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def checked(self, label: str, check) -> bool:
        """Count one attempted cycle; record it failed if ``check``
        returns problems or raises."""
        self.attempted += 1
        try:
            problems = check()
        except Exception:  # a check that raises counts as a failed cycle
            problems = [f"check raised: {traceback.format_exc(limit=3)}"]
        if problems:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(f"{label}: " + "; ".join(problems[:5]))
        return not problems

    def cycle(self, i: int, call=None):
        """Time each step of cycle ``i`` (through ``call`` if given), then
        check the cycle. Returns ``({step: seconds}, {step: result})``, or
        ``None`` when it failed."""
        times, results = {}, {}

        def steps():
            for name, fn in self.workload.steps(i):
                t0 = time.perf_counter()
                results[name] = call(fn) if call else fn()
                times[name] = time.perf_counter() - t0
            return self.workload.check(i, results)

        if not self.checked(f"cycle {i}", steps):
            return None
        return times, results


def fastest(samples: list[dict]) -> float:
    """Seconds of a cycle made of each step's fastest time.

    Interference from other processes on a shared machine only slows a
    step down, so its fastest time is the steadiest estimate of what the
    step itself costs.
    """
    return sum(min(s[name] for s in samples) for name in samples[0])


def measure(run: Run, seconds: float, probe_cmd: list[str]) -> dict:
    """Closed loop of cycles for ``seconds`` of step time.

    Four set-up probes run between cycles, spread over the run, so that
    one slow spell of the machine cannot cover every set-up sample.
    """
    setups = []
    probe_marks = [0.0, 0.25 * seconds, 0.5 * seconds, 0.75 * seconds]
    samples = []
    busy = 0.0
    i = 0
    while busy < seconds or probe_marks:
        t0 = time.perf_counter()
        out = run.cycle(i)
        if out is None:
            busy += time.perf_counter() - t0
        else:
            samples.append(out[0])
            busy += sum(out[0].values())
        if probe_marks and busy >= probe_marks[0]:
            probe_marks.pop(0)
            spawned = ready_clock()
            done = subprocess.run([sys.executable, *probe_cmd],
                                  capture_output=True, text=True, timeout=60)
            if done.returncode != 0:
                raise RuntimeError(f"set-up probe exited {done.returncode}")
            setups.append(json.loads(done.stdout.splitlines()[-1])["ready"]
                          - spawned)
        i += 1
    run.checked("final", run.workload.final_checks)
    if not samples:
        raise RuntimeError("no cycle succeeded")
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "work_per_s": (run.workload.items / fastest(samples), "1/s"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
        "setup_probes_s": (setups, "s"),
    }


def traced(run: Run, seconds: float, dump_path: Path) -> dict:
    """The same cycles untraced, then traced: per-layer metrics.

    Every metric is per cycle unless its name says otherwise.
    """
    from spans import ROOT, SPAN_NAMES, Tracer

    cohorts: list = []
    tally = {"clone_rows": 0, "cells": 0}
    amwn_args: set = set()

    def stash_cohort(args, kwargs, result):
        if len(cohorts) < 4:
            cohorts.append(args[0])

    def count_rows(args, kwargs, result):
        tally["clone_rows"] += len(result)

    def count_cells(args, kwargs, result):
        tally["cells"] += len(result)

    tracer = Tracer({
        "estimators.fit_strata": stash_cohort,
        "estimators.clone_rows": count_rows,
        "scenarios.build_amwn": lambda args, kwargs, result: amwn_args.add(args),
        "scenarios.exchangeability_table": count_cells,
    })
    # Each cycle runs untraced and then traced, so both passes see the
    # same inputs and the same machine conditions.
    untraced_s, traced_s, results = [], [], []
    i = 0
    while not results or sum(untraced_s) + sum(traced_s) < seconds:
        out = run.cycle(i)
        if out is not None:
            untraced_s.append(sum(out[0].values()))
        tracer.install()
        try:
            out = run.cycle(i, call=tracer.root)
        finally:
            tracer.uninstall()
        if out is not None:
            traced_s.append(sum(out[0].values()))
            results.append(out[1])
        elif run.failed >= 3:
            raise RuntimeError("traced cycles keep failing")
        i += 1
    tracer.dump(dump_path)
    extras = run.workload.untraced_extras(min(untraced_s))

    summary = tracer.summary()
    n = len(results)

    def stat(name, key):
        return summary.get(name, {}).get(key, 0)

    def per_call(name, scale):
        calls = stat(name, "calls")
        return stat(name, "total_ns") / calls / scale if calls else 0.0

    def ratio(num, den):
        return num / den if den else 0.0

    metrics: dict[str, tuple[float, str]] = {}
    for name in SPAN_NAMES:
        metrics[f"{name}.calls"] = (stat(name, "calls") / n, "count")
        metrics[f"{name}.self_ms"] = (stat(name, "self_ns") / n / 1e6, "ms")
    metrics[f"{ROOT}.self_ms"] = (stat(ROOT, "self_ns") / n / 1e6, "ms")

    distinct = [c.n / len(set(c.trajectories)) for c in cohorts]
    metrics.update({
        "dgp.sample_cohort.ms": (per_call("dgp.sample_cohort", 1e6), "ms"),
        "dgp.write_cohort_csv.s": (per_call("dgp.write_cohort_csv", 1e9), "s"),
        "dgp.read_cohort_csv.s": (per_call("dgp.read_cohort_csv", 1e9), "s"),
        "dgp.csv_bytes": (0, "bytes"),
        "estimators.fit_strata.ms": (per_call("estimators.fit_strata", 1e6), "ms"),
        "estimators.clone_rows.ms_per_arm": (
            per_call("estimators.clone_rows", 1e6), "ms"),
        "estimators.fit_strata.calls_per_replicate": (ratio(
            stat("estimators.fit_strata", "calls"),
            stat("estimators.npmle_ate", "calls")), "count"),
        "estimators.clone_rows.rows": (ratio(
            tally["clone_rows"], stat("estimators.clone_rows", "calls")), "count"),
        "estimators.patients_per_distinct_trajectory": (
            statistics.mean(distinct) if distinct else 0.0, "ratio"),
        "harness.run_bias_study.self_ms_per_replicate": (ratio(
            stat("harness.run_bias_study", "self_ns") / 1e6,
            stat("dgp.sample_cohort", "calls")), "ms"),
        "harness.bootstrap_s": (0.0, "s"),
        "harness.workers2_speedup": (0.0, "ratio"),
        "harness.failed_replicates": (0, "count"),
        "scenarios.distinct_amwn": (len(amwn_args), "count"),
        "identification.identification_report.ms": (
            per_call("identification.identification_report", 1e6), "ms"),
        "scenarios.exchangeability_table.cells_per_s": (ratio(
            tally["cells"],
            stat("scenarios.exchangeability_table", "total_ns") / 1e9), "1/s"),
    })
    for name, value in {**extras, **run.workload.counts(results)}.items():
        metrics[name] = (value, metrics[name][1])

    untraced_ms = statistics.mean(untraced_s) * 1e3
    wall_ms = statistics.mean(traced_s) * 1e3
    metrics.update({
        "trace.untraced_ms_per_cycle": (untraced_ms, "ms"),
        "trace.wall_ms_per_cycle": (wall_ms, "ms"),
        "trace.overhead_ms_per_cycle": (wall_ms - untraced_ms, "ms"),
        "trace.self_sum_ms_per_cycle": (
            sum(s["self_ns"] for s in summary.values()) / n / 1e6, "ms"),
        "trace.spans_per_cycle": (len(tracer.names) / n, "count"),
    })
    return metrics


def main(argv) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--role", choices=["probe", "main"], required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    parser.add_argument("--size", choices=["full", "tiny"], required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    import numpy
    import ttebench
    import workloads

    src = Path(__file__).resolve().parent.parent / "src"
    if src not in Path(ttebench.__file__).resolve().parents:
        print(f"ttebench imported from {ttebench.__file__}, not {src}",
              file=sys.stderr)
        return 1

    out_dir = Path(args.out)
    with tempfile.TemporaryDirectory(dir=out_dir) as tmp:
        workload = workloads.WORKLOADS[args.workload](
            args.seed, workloads.SIZES[args.size], Path(tmp)
        )
        workload.warm_up()
        ready = ready_clock()
        if args.role == "probe":
            print(json.dumps({"ready": ready}))
            return 0
        run = Run(workload)
        if args.trace:
            dump = out_dir / f"spans-{args.workload}-{args.seed}.json"
            metrics = traced(run, args.seconds, dump)
        else:
            probe = [__file__, "--role", "probe", "--workload", args.workload,
                     "--seed", str(args.seed), "--seconds", str(args.seconds),
                     "--trace", "0", "--size", args.size, "--out", args.out]
            metrics = measure(run, args.seconds, probe)
    print(json.dumps({
        "ready": ready,
        "attempted": run.attempted,
        "failed": run.failed,
        "problems": run.problems,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "env": {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "ttebench": ttebench.__version__,
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
