"""ttebench benchmark: one workload, one seed, one JSON result line.

    python3 bench/run.py --workload study-b --seed 20260815 --seconds 25 --trace 0

Run from the root of a source checkout; the library is imported from
``src/``. With ``--trace 0`` the last line of standard output carries
every end-to-end metric of ``BENCHMARK.json``; with ``--trace 1`` every
per-layer metric. The lines before it are a readable copy.

This process only orchestrates. Each workload runs serially in a
fresh worker process (``worker.py``), so its peak memory is its own.
End-to-end metrics:

* ``setup_s``: spawn to ready (interpreter start, import, input build,
  one warm-up step), the median of five fresh processes: the measuring
  worker and four probes it starts between cycles;
* ``work_per_s``: work items of one cycle (replicates, patients, or
  graph checks; see README.md) over the seconds of a cycle made of each
  step's fastest time in the run;
* ``peak_rss_mb``: the measuring process's ``ru_maxrss``.

Interference from other processes only ever slows a step down; on a
shared machine the fastest time is the steady estimate, the median is
not (README.md has the measurements). ``failed`` counts cycles that
raised, exited nonzero or whose output check failed; ``correct`` is
true when none did.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

WORKLOADS = ("study-b", "csv-roundtrip-a", "graph-checks")
DEFAULT_SEED = 20260815
IMPORT_SAMPLES = 5
DEADLINE_S = 170.0
COLD_START_CMD = ["-m", "ttebench", "param-count", "--control", "365",
                  "--subgroups", "28", "--treat", "365", "--c", "1"]
COLD_START_OUT = "10584"


class BenchError(Exception):
    """The benchmark could not produce a result."""


def clock() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    # Fixed string hashing keeps set iteration order, and with it the
    # graph searches' work, the same from run to run.
    env["PYTHONHASHSEED"] = "0"
    env.pop("TTEBENCH_WORKERS", None)
    return env


def run_child(cmd: list[str], deadline: float) -> subprocess.CompletedProcess:
    """Run a Python child to completion within the run's deadline."""
    proc = subprocess.Popen(
        [sys.executable, *cmd], stdout=subprocess.PIPE, text=True,
        env=child_env(), cwd=ROOT,
    )
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - clock()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError(f"{cmd[:3]} did not finish before the deadline")
    return subprocess.CompletedProcess(proc.args, proc.returncode, out, None)


def worker(args, deadline: float) -> tuple[float, dict]:
    """Run the measuring worker; return (spawn-to-ready seconds, result)."""
    cmd = [str(BENCH / "worker.py"), "--role", "main",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--size", args.size, "--out", str(OUT)]
    spawned = clock()
    done = run_child(cmd, deadline)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise BenchError(f"worker exited with {done.returncode}")
    result = json.loads(lines[-1])
    return result["ready"] - spawned, result


def timed_spawns(cmd: list[str], count: int, deadline: float,
                 expect: str | None = None) -> list[float]:
    """Wall times of ``count`` fresh interpreters running ``cmd``."""
    times = []
    for _ in range(count):
        t0 = clock()
        done = run_child(cmd, deadline)
        times.append(clock() - t0)
        if done.returncode != 0 or (
            expect is not None and done.stdout.strip() != expect
        ):
            raise BenchError(f"{cmd} exited {done.returncode}: {done.stdout!r}")
    return times


def end_to_end(args, deadline: float) -> dict:
    ready_s, result = worker(args, deadline)
    metrics = result["metrics"]
    setups = [ready_s, *metrics.pop("setup_probes_s")["value"]]
    metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    return result


def per_layer(args, deadline: float) -> dict:
    _, result = worker(args, deadline)
    bare, import_ = [], []
    for _ in range(IMPORT_SAMPLES):
        bare += timed_spawns(["-c", "pass"], 1, deadline)
        import_ += timed_spawns(["-c", "import ttebench"], 1, deadline)
    cold = timed_spawns(COLD_START_CMD, IMPORT_SAMPLES, deadline,
                        COLD_START_OUT)
    result["metrics"].update({
        "cli.import_s": {
            "value": statistics.median(import_) - statistics.median(bare),
            "unit": "s",
        },
        "cli.cold_start_s": {"value": min(cold), "unit": "s"},
    })
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0,
                        help="operation time measured per run")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0,
                        help="1: report per-layer metrics from a traced run")
    parser.add_argument("--size", choices=["full", "tiny"], default="full",
                        help="tiny: minimal operations, for the smoke tests")
    args = parser.parse_args(argv)
    deadline = clock() + DEADLINE_S

    if not (SRC / "ttebench" / "__init__.py").is_file():
        print(f"error: no ttebench sources under {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    compileall.compile_dir(SRC, quiet=1)
    try:
        result = (per_layer if args.trace else end_to_end)(args, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    for problem in result["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    env = {"nproc": len(os.sched_getaffinity(0)), **result["env"]}
    print("env: " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"{args.workload} seed={args.seed}: {result['attempted']} attempted, "
          f"{result['failed']} failed, ops_failed_frac="
          f"{result['failed'] / result['attempted']:g}")
    for name, metric in sorted(result["metrics"].items()):
        print(f"  {name:48s} {metric['value']:14.6g} {metric['unit']}")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
