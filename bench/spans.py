"""In-process span tracer that wraps library functions from outside.

:class:`Tracer` rebinds each traced function on its defining module and
on every other ``ttebench`` module that imported the same object (for
example ``harness.ccw_ate`` and ``cli.npmle_ate`` are separate names of
one function), so calls between modules become nested child spans.
Nothing under ``src/`` is edited; :meth:`Tracer.uninstall` restores the
original bindings.

A span is (name, start, end, parent). Spans stay in memory until
:meth:`Tracer.dump` writes them out. The self time of a span is its
duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict
from typing import Callable

#: Functions traced, as ``module.function`` relative to ``ttebench``.
TRACED = (
    "dgp.sample_cohort",
    "dgp.write_cohort_csv",
    "dgp.read_cohort_csv",
    "estimators.fit_strata",
    "estimators.npmle_ate",
    "estimators.ccw_ate",
    "estimators.clone_rows",
    "harness.run_bias_study",
    "graphs.build_graph",
    "graphs.mutilate",
    "graphs.m_separated",
    "graphs.ancestors",
    "graphs.descendants",
    "scenarios.build_trial_graph",
    "scenarios.build_amwn",
    "scenarios.exchangeability_holds",
    "scenarios.exchangeability_table",
    "identification.identification_report",
    "identification.rule2_premise_holds",
    "identification.rule3_premise_holds",
    "cli.main",
)

#: Span names ``cli.main`` takes, one per subcommand the workloads run.
CLI_SUBCOMMANDS = ("simulate", "estimate")

#: Every span name a traced run can report, besides the benchmark's own
#: root span per operation.
SPAN_NAMES = tuple(
    name for name in TRACED if name != "cli.main"
) + tuple(f"cli.main.{sub}" for sub in CLI_SUBCOMMANDS)

ROOT = "bench.step"


class Tracer:
    """Records spans of the traced functions inside :meth:`root` calls.

    ``observers`` maps a traced name to a callback
    ``(args, kwargs, result)`` that runs after the span closes. Keep
    callbacks O(1): their time lands in the parent span's self time.
    """

    def __init__(self, observers: dict[str, Callable] | None = None):
        self.observers = observers or {}
        self.active = False
        self.names: list[str] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.parents: list[int] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------
    def _open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter_ns())
        return idx

    def _close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter_ns()
        self._stack.pop()

    def root(self, fn: Callable, *args):
        """Run ``fn(*args)`` inside a root span; return its result.

        Traced functions record spans only while a root call runs, so
        calls made between operations (the output checks) leave none.
        """
        idx = self._open(ROOT)
        self.active = True
        try:
            return fn(*args)
        finally:
            self.active = False
            self._close(idx)

    def _wrap(self, qualname: str, fn: Callable) -> Callable:
        observer = self.observers.get(qualname)
        is_cli = qualname == "cli.main"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            name = qualname
            if is_cli:
                argv = args[0] if args else kwargs.get("argv")
                name = f"cli.main.{argv[0]}" if argv else qualname
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if observer is not None:
                observer(args, kwargs, result)
            return result

        return wrapper

    # -- installation ------------------------------------------------
    def install(self) -> None:
        """Rebind every traced function wherever ttebench refers to it."""
        modules = [
            m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "ttebench" or name.startswith("ttebench."))
        ]
        for qualname in TRACED:
            module_name, func_name = qualname.rsplit(".", 1)
            original = getattr(sys.modules[f"ttebench.{module_name}"], func_name)
            wrapper = self._wrap(qualname, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, attr, original))
                        setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        self.active = False
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    # -- analysis ----------------------------------------------------
    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: ``calls``, inclusive ``total_ns`` and ``self_ns``."""
        child_ns = [0] * len(self.names)
        for idx, parent in enumerate(self.parents):
            if parent >= 0:
                child_ns[parent] += self.ends[idx] - self.starts[idx]
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "total_ns": 0, "self_ns": 0}
        )
        for idx, name in enumerate(self.names):
            duration = self.ends[idx] - self.starts[idx]
            entry = out[name]
            entry["calls"] += 1
            entry["total_ns"] += duration
            entry["self_ns"] += duration - child_ns[idx]
        return dict(out)

    def dump(self, path) -> None:
        """Write every span as ``[name, start_ns, end_ns, parent]``."""
        names = sorted(set(self.names))
        index = {name: i for i, name in enumerate(names)}
        spans = [
            [index[n], s, e, p]
            for n, s, e, p in zip(self.names, self.starts, self.ends, self.parents)
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": names, "spans": spans}, fh, separators=(",", ":"))
            fh.write("\n")
