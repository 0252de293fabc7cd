"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 e2ebench/run.py --workload fleet_serve --seed 1 --seconds 15 --trace 0

``--trace 0`` sets up several times (``setup_s`` is the median), runs one
untimed warm-up pass, then timed passes for ``--seconds`` and prints the
end-to-end metrics.  Every time is taken on ``harness.HostClock``: wall
time scaled by a reference loop run right before and after the timed
call, so the host's drifting speed cancels out.  ``--trace 1`` sets up once with the layer wrappers
of ``layertrace`` installed, runs untimed passes for half the time and
traced passes for the other half, writes a Chrome trace under
``.bench_out/`` and prints the per-layer metrics.  Either way the output
checks run after the timed passes, and the last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import time

from harness import HostClock, host_info, measure, median, pin_thread_pools, run_one, setup_repeated

# metric name -> unit; every run prints all of one table (see README.md)
END_TO_END = {
    "setup_s": "s",
    "throughput_per_s": "1/s",
    "latency_p50_ms": "ms",
    "quality_frac": "fraction",
}

STAGES = ("stem", "layer1", "layer2", "layer3", "layer4", "head")
PRECISIONS = ("fp32", "int8")

#: per-layer metric -> span name whose summed seconds it reports
SPAN_METRICS = {
    "workloads.build_s": "workloads.build",
    "core.aggregate_s": "core.aggregate",
    "core.tree_build_s": "core.tree_build",
    "core.solve_s": "core.solve",
    "core.warm_solve_s": "core.warm_solve",
    "edge.admission_s": "edge.admission",
    "serving.run_s": "serving.run",
    "serving.wave_build_s": "serving.wave_build",
    "emulator.run_s": "emulator.run",
    "dnn.compile_s.fp32": "dnn.compile.fp32",
    "dnn.compile_s.int8": "dnn.compile.int8",
}

PER_LAYER = {
    **{name: "s" for name in SPAN_METRICS},
    "core.groups": "count",
    "core.clique_reuse_ratio": "fraction",
    "core.admitted_tasks": "count",
    "serving.pop_ready_calls": "count",
    "serving.pop_ready_useful_ratio": "fraction",
    "serving.push_due_s": "s",
    "serving.push_due_calls": "count",
    "serving.metrics_s": "s",
    "serving.dispatch_s": "s",
    "serving.windows": "count",
    "serving.batch_size_mean": "count",
    "serving.queue_wait_ms_p50": "ms-virtual",
    "serving.queue_wait_ms_p99": "ms-virtual",
    "serving.exec_ms_p50": "ms-virtual",
    "serving.drop_frac.admission": "fraction",
    "serving.drop_frac.queue_full": "fraction",
    "serving.drop_frac.deadline": "fraction",
    "serving.gpu_busy_frac": "fraction",
    "serving.prefix_hit_ratio": "fraction",
    "emulator.events": "count",
    "emulator.us_per_event": "us",
    "emulator.uplink_ms_p50": "ms-virtual",
    "emulator.uplink_ms_p99": "ms-virtual",
    "radio.rbs_granted_frac": "fraction",
    **{f"dnn.block_ms.{s}.{p}": "ms" for s in STAGES for p in PRECISIONS},
    **{f"dnn.gflops_per_s.{p}": "GFLOP/s" for p in PRECISIONS},
    "trace.overhead_frac": "fraction",
}

WORKLOADS = ("fleet_serve", "paper_sweep", "population_solve", "kernels")


def enter_checkout() -> pathlib.Path | None:
    """Put the checkout's ``src`` and root on ``sys.path``; None outside one."""
    root = pathlib.Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file() or not (
        root / "benchmarks" / "bench_solver.py"
    ).is_file():
        print(f"error: {root} is not a checkout of the repository "
              "(src/repro and benchmarks/ are missing)", file=sys.stderr)
        return None
    sys.path[:0] = [str(root / "src"), str(root)]
    return root


def make_workload(name: str, seed: int, tiny: bool = False):
    """The workload object; ``tiny`` selects the self-check sizes."""
    if name in ("fleet_serve", "paper_sweep"):
        from workloads_serving import FleetServe, FleetSize, PaperSweep, SweepSize

        if name == "fleet_serve":
            size = FleetSize(replicas=2, duration_s=1.0) if tiny else FleetSize()
            return FleetServe(seed, size)
        size = SweepSize(loads=(0.25, 1.0), duration_s=1.0) if tiny else SweepSize()
        return PaperSweep(seed, size)
    if name == "population_solve":
        from workloads_solve import PopulationSize, PopulationSolve

        size = PopulationSize(cold_users=1000, warm_tasks=200) if tiny else PopulationSize()
        return PopulationSolve(seed, size)
    if name == "kernels":
        from workloads_kernels import Kernels, KernelSize

        size = KernelSize(width=8, input_size=16, batches=2) if tiny else KernelSize()
        return Kernels(seed, size)
    raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")


def traced_layers(tracer, pass_runs: list[str]) -> dict:
    """Per-layer figures from the spans and counters of a traced run."""
    out = {}
    per_pass = [tracer.layer_seconds(run) for run in pass_runs]
    setup = tracer.layer_seconds("setup")
    for metric, span in SPAN_METRICS.items():
        if any(span in seconds for seconds in per_pass):
            out[metric] = median(seconds.get(span, 0.0) for seconds in per_pass)
        else:
            out[metric] = setup.get(span, 0.0)

    counters = [tracer.run_counters[run] for run in pass_runs]

    def per_pass_median(name: str, value) -> float:
        return median(value(c.get(name, [0, 0.0, 0])) for c in counters)

    def ratio(amount, calls):
        return amount / calls if calls else 0.0

    out["serving.pop_ready_calls"] = per_pass_median("serving.pop_ready", lambda c: c[0])
    out["serving.pop_ready_useful_ratio"] = per_pass_median(
        "serving.pop_ready", lambda c: ratio(c[2], c[0]))
    out["serving.push_due_s"] = per_pass_median("serving.push_due", lambda c: c[1])
    out["serving.push_due_calls"] = per_pass_median("serving.push_due", lambda c: c[0])
    out["serving.metrics_s"] = per_pass_median("serving.metrics", lambda c: c[1])
    out["serving.dispatch_s"] = per_pass_median("serving.dispatch", lambda c: c[1])
    out["serving.windows"] = per_pass_median("serving.dispatch", lambda c: c[0])
    out["serving.batch_size_mean"] = per_pass_median(
        "serving.dispatch", lambda c: ratio(c[2], c[0]))

    # compiled-plan forwards: pooled over passes (a few calls per pass)
    def pooled(name: str) -> list:
        total = [0, 0.0, 0]
        for c in counters:
            for i, value in enumerate(c.get(name, [0, 0.0, 0])):
                total[i] += value
        return total

    for precision in PRECISIONS:
        flops = seconds = 0.0
        for stage in STAGES:
            calls, spent, amount = pooled(f"dnn.forward.{stage}.{precision}")
            out[f"dnn.block_ms.{stage}.{precision}"] = 1e3 * ratio(spent, calls)
            flops += amount
            seconds += spent
        out[f"dnn.gflops_per_s.{precision}"] = ratio(flops, seconds) / 1e9
    return out


def outcome(failures: list[str], passes: list[dict]) -> tuple[int, int]:
    """``(attempted, failed)``; a failed check counts as one failed operation."""
    attempted = sum(p["attempted"] for p in passes)
    return attempted, sum(p["failed"] for p in passes) + len(failures)


def check_digests(passes: list[dict], label: str) -> list[str]:
    digests = {p["digest"] for p in passes}
    return [] if len(digests) == 1 else [f"{label}: {len(digests)} distinct results"]


def clock_line(clock: HostClock) -> str:
    return (
        f"host clock: {len(clock.reference_s)} reference slices, host at "
        f"{clock.speed:.3f}x the nominal reference time; timed calls took "
        f"{clock.wall_s:.3f} s wall, {clock.scaled_s:.3f} s host-scaled"
    )


def run_untraced(workload, seconds: float) -> tuple[dict, list[str], dict]:
    clock = HostClock(workload.reference)
    state, setup_times = setup_repeated(workload, clock)
    passes = [run_one(workload, state, clock)]  # warm-up, untimed
    passes += measure(workload, state, clock, seconds)
    timed_passes = passes[1:]
    setup_s = median(setup_times)
    failures = check_digests(passes, "results differ between passes")
    failures += workload.check(state, passes)
    metrics = {"setup_s": setup_s, **workload.end_to_end(state, timed_passes)}
    lines = workload.report(state, timed_passes) + [
        f"setup_s: {setup_s:.4f} s host-scaled (median of "
        f"{[round(t, 4) for t in setup_times]})",
        f"timed passes: {len(timed_passes)} after one warm-up pass",
        clock_line(clock),
    ]
    return metrics, failures, {"passes": passes, "lines": lines}


def run_traced(workload, seconds: float, trace_path: pathlib.Path):
    from layertrace import LayerTracer

    clock = HostClock(workload.reference)
    tracer = LayerTracer()
    with tracer:
        tracer.begin_run("setup")
        state = workload.setup(clock)
        tracer.end_run()
    passes = [run_one(workload, state, clock)]  # warm-up, untimed
    untraced = measure(workload, state, clock, seconds / 2, min_passes=2)
    traced = []
    with tracer:
        deadline = time.perf_counter() + seconds / 2
        while len(traced) < 2 or time.perf_counter() < deadline:
            tracer.begin_run(f"pass{len(traced)}")
            traced.append(run_one(workload, state, clock))
            tracer.end_run()
    everything = passes + untraced + traced
    failures = check_digests(everything, "tracing or repetition changed the results")
    failures += workload.check(state, everything)
    failures += tracer.write_chrome_trace(trace_path)
    pass_runs = [f"pass{i}" for i in range(len(traced))]
    metrics = {name: 0.0 for name in PER_LAYER}
    layers = traced_layers(tracer, pass_runs)
    metrics.update(layers)
    metrics.update(workload.per_layer(state, traced, layers))
    metrics["trace.overhead_frac"] = (
        median(p["scaled_s"] for p in traced) / median(p["scaled_s"] for p in untraced) - 1.0
    )
    lines = workload.report(state, traced) + [
        f"trace: {len(tracer.tracer.records)} spans in {trace_path}",
        f"passes: {len(untraced)} untraced, {len(traced)} traced",
        clock_line(clock),
    ]
    return metrics, failures, {"passes": everything, "lines": lines}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    pin_thread_pools()
    root = enter_checkout()
    if root is None:
        return 2

    workload = make_workload(args.workload, args.seed)
    if args.trace:
        trace_path = root / ".bench_out" / f"trace-{args.workload}-seed{args.seed}.json"
        metrics, failures, extra = run_traced(workload, args.seconds, trace_path)
        units = PER_LAYER
    else:
        metrics, failures, extra = run_untraced(workload, args.seconds)
        units = END_TO_END

    attempted, failed = outcome(failures, extra["passes"])
    print(f"workload: {args.workload} seed {args.seed}")
    print(f"host: {json.dumps(host_info())}")
    for line in extra["lines"]:
        print(line)
    for failure in failures:
        print(f"CHECK FAILED: {failure}")
    for name, unit in units.items():
        print(f"{name}: {metrics[name]!r} {unit}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": float(metrics[name]), "unit": unit}
            for name, unit in units.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
