"""Layer wrappers installed from outside the program, and what they record.

Nothing under ``src/`` knows about this module.  :class:`LayerTracer`
replaces public functions and methods of ``repro`` with timing wrappers
for the duration of a ``with`` block and puts the originals back on
exit.  Two kinds of wrapper exist:

* **span** — one ``repro.obs`` span record per call: name, start,
  duration, and the span id, parent span and run id in its args, kept
  in memory and exported as a Chrome trace when the run ends.  Used for calls made at most a few thousand times per pass.
* **counter** — calls, summed seconds and a per-call amount (useful
  calls, requests, FLOPs).  Used for the hot calls (``pop_ready`` runs
  ~3M times per ``fleet_serve`` pass), where a span per call would cost
  more than the call.

A module-level function is patched in every ``repro`` module that
imported it by name, so callers that did ``from x import f`` see the
wrapper too.  A wrapped call made while a span of the same name is open
(a build that calls another build) is not recorded twice.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import io
import json
import sys
import time
from collections import defaultdict

from repro.cli import main as repro_cli
from repro.obs.export import chrome_trace, validate_chrome_trace
from repro.obs.trace import Tracer

#: spanned calls: (layer name, "module:attr" or "module:Class.attr")
SPAN_TARGETS = (
    ("workloads.build", "repro.workloads.largescale:replicated_large_scale_problem"),
    ("workloads.build", "repro.workloads.largescale:large_scale_problem"),
    ("core.aggregate", "repro.core.aggregate:aggregate_problem"),
    ("core.tree_build", "repro.core.tree:build_vector_tree"),
    ("core.solve", "repro.core.aggregate:AggregateSolver.solve"),
    ("core.solve", "repro.core.heuristic:OffloaDNNSolver.solve"),
    ("core.warm_solve", "repro.core.incremental:WarmStartSolver.solve"),
    ("edge.admission", "repro.edge.controller:OffloaDNNController.handle_admission_requests"),
    ("serving.run", "repro.serving.runtime:ServingRuntime.run"),
    ("serving.wave_build", "repro.serving.engine:WavePlan.build"),
    ("emulator.run", "repro.emulator.simulator:Simulator.run"),
    ("serving.runner", "repro.serving.executor:BlockwiseRunner.run"),
    ("dnn.compile", "repro.dnn.compile:compile_module"),
)

#: hot calls: (counter name, target, amount(args, result) per call)
COUNTER_TARGETS = (
    ("serving.pop_ready", "repro.serving.queueing:ServingQueue.pop_ready",
     lambda args, result: result[0] is not None),
    ("serving.push_due", "repro.serving.engine:WavePlan.push_due", None),
    ("serving.dispatch", "repro.serving.executor:BatchExecutor.dispatch",
     lambda args, result: len(args[1])),
    ("serving.metrics", "repro.serving.metrics:TaskServingMetrics.from_requests", None),
)

#: compiled-plan forwards, counted per (stage, precision) with analytic FLOPs
FORWARD_TARGET = "repro.dnn.compile:CompiledModule.forward"


def _resolve(target: str):
    """``(owner, attr, raw attribute)`` for a ``module:Class.attr`` target."""
    module_name, path = target.split(":")
    owner = importlib.import_module(module_name)
    *classes, attr = path.split(".")
    for name in classes:
        owner = getattr(owner, name)
    raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
    return owner, attr, raw


class LayerTracer:
    """Installs the wrappers; collects spans and counters per run."""

    def __init__(self) -> None:
        #: closed spans, in the order they closed
        self.tracer = Tracer(domain="wall")
        self.counters: dict[str, list] = {}
        #: counters snapshotted at the end of each run, by run id
        self.run_counters: dict[str, dict[str, list]] = {}
        #: open spans: (span id, name, start)
        self._stack: list[tuple[int, str, float]] = []
        self._next_span = 0
        self._open: dict[str, int] = defaultdict(int)
        self._patches: list[tuple[object, str, object]] = []
        self._run: str | None = None
        self._plan_labels: dict[int, tuple[str, int]] = {}

    # -- spans -----------------------------------------------------------
    def _open_span(self, name: str) -> None:
        self._stack.append((self._next_span, name, time.perf_counter()))
        self._next_span += 1

    def _close_span(self, **args) -> None:
        end = time.perf_counter()
        span_id, name, start = self._stack.pop()
        parent = self._stack[-1][0] if self._stack else -1
        self.tracer.record(
            name, start, end - start, cat=name.split(".")[0], track="benchmark",
            args={"span": span_id, "parent": parent, "run": self._run, **args},
        )

    def begin_run(self, run: str) -> None:
        """Start a run (``setup`` or ``pass<i>``): a root span, fresh counters."""
        self._run = run
        self.counters = defaultdict(lambda: [0, 0.0, 0])
        self._open_span("run")

    def end_run(self) -> None:
        snapshot = {name: list(values) for name, values in self.counters.items()}
        self.run_counters[self._run] = snapshot
        self._close_span(counters={
            name: {"calls": c, "seconds": s, "amount": a}
            for name, (c, s, a) in snapshot.items()
        })
        self._run = None

    # -- wrappers --------------------------------------------------------
    def _span_wrapper(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer._open[name] or tracer._run is None:
                return fn(*args, **kwargs)
            label = name
            if name == "dnn.compile":
                label = f"dnn.compile.{kwargs.get('quantize') or 'fp32'}"
            tracer._open_span(label)
            tracer._open[name] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._open[name] -= 1
                tracer._close_span()

        return wrapper

    def _counter_wrapper(self, name: str, fn, amount):
        tracer = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = clock()
            result = fn(*args, **kwargs)
            elapsed = clock() - start
            if tracer._run is not None:
                slot = tracer.counters[name]
                slot[0] += 1
                slot[1] += elapsed
                if amount is not None:
                    slot[2] += amount(args, result)
            return result

        return wrapper

    def _forward_wrapper(self, fn):
        tracer = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(plan, x):
            start = clock()
            result = fn(plan, x)
            elapsed = clock() - start
            if tracer._run is None:
                return result
            info = tracer._plan_labels.get(id(plan))
            if info is None:
                stage = getattr(plan.source, "name", type(plan.source).__name__)
                info = tracer._plan_labels[id(plan)] = (
                    f"{stage}.{plan.precision}",
                    plan.flops(plan.input_shape),
                )
            slot = tracer.counters[f"dnn.forward.{info[0]}"]
            slot[0] += 1
            slot[1] += elapsed
            slot[2] += info[1] * x.shape[0]
            return result

        return wrapper

    def _patch(self, target: str, make) -> None:
        owner, attr, raw = _resolve(target)
        is_classmethod = isinstance(raw, classmethod)
        fn = raw.__func__ if is_classmethod else raw
        wrapped = make(fn)
        new = classmethod(wrapped) if is_classmethod else wrapped
        if isinstance(owner, type):
            self._patches.append((owner, attr, raw))
            setattr(owner, attr, new)
            return
        # a module-level function: patch every repro module holding it
        for module in list(sys.modules.values()):
            name = getattr(module, "__name__", "")
            if not name.startswith("repro"):
                continue
            if module.__dict__.get(attr) is raw:
                self._patches.append((module, attr, raw))
                setattr(module, attr, new)

    def __enter__(self) -> "LayerTracer":
        for name, target in SPAN_TARGETS:
            self._patch(target, lambda fn, n=name: self._span_wrapper(n, fn))
        for name, target, amount in COUNTER_TARGETS:
            self._patch(
                target, lambda fn, n=name, a=amount: self._counter_wrapper(n, fn, a)
            )
        self._patch(FORWARD_TARGET, self._forward_wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, raw in reversed(self._patches):
            setattr(owner, attr, raw)
        self._patches.clear()

    # -- results ---------------------------------------------------------
    def layer_seconds(self, run: str) -> dict[str, float]:
        """Summed span seconds per layer name within one run."""
        totals: dict[str, float] = defaultdict(float)
        for record in self.tracer.records:
            if record.args["run"] == run and record.name != "run":
                totals[record.name] += record.dur
        return dict(totals)

    def write_chrome_trace(self, path) -> list[str]:
        """Write the trace; return validation problems plus CLI read-back errors."""
        trace = chrome_trace([self.tracer])
        problems = validate_chrome_trace(trace)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(trace, separators=(",", ":")) + "\n")
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = repro_cli(["trace-summary", str(path)])
        if code != 0 or f"{len(self.tracer.records)} records" not in out.getvalue():
            problems.append(f"repro trace-summary could not read {path}")
        return problems
