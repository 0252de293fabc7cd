"""Serving data plane — throughput, scaling to 10⁶ requests, engine parity.

Beyond the paper: the emulation of Fig. 11 validates latency at the
solved operating point; this bench drives the serving runtime across
offered loads and, since the wave engine landed, across *scale*:

1. **Load curve** (legacy table): 0.5x–3x the solved ``λ`` — throughput
   saturates at the granted rate while the admission gate sheds excess.
2. **Prefix cache** (legacy table): identical runs with shared-block
   fusion on and off.
3. **Scale curve**: 10³ → 10⁶ offered requests through the vector
   engine (requests/s of wall time, DES events/s, worst task p95).
4. **Engine comparison**: vector vs scalar at 10⁵ offered — bit-equal
   metrics required, and the vector engine must be ≥ 10x faster.
5. **Cluster wave point**: 10⁴ offered requests streamed through a
   one-node ``ClusterExecutor``, metrics bit-equal to both engines'
   local runs.
6. **Served throughput**: Table IV ×{1, 10, 50} (20–1000 tasks, budgets
   scaled, ``AggregateSolver``) served for 5 s of Poisson arrivals —
   *completed* requests per wall-second at a real admitted load, and
   ``ServingQueue.pop_ready`` calls per served request (the dispatcher
   polls only non-empty queues, so calls stay ≤ 2 × admitted).

Full mode writes ``BENCH_serving.json`` at the repo root (committed);
``--quick`` gates the 10⁴ point under a wall-clock ceiling for CI, and
at ×10 (200 tasks) the ``pop_ready`` bound plus vector/scalar bit
equality; it writes ``benchmarks/results/BENCH_serving_quick.json``,
and exits nonzero on any parity, bound or budget failure.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import pathlib
import time

from benchmarks._report import emit, write_json
from repro.analysis.report import format_table
from repro.core.aggregate import AggregateSolver
from repro.core.heuristic import OffloaDNNSolver
from repro.serving import DropReason, ServingRuntime
from repro.serving.queueing import ServingQueue
from repro.serving.runtime import ServingConfig
from repro.workloads.largescale import RequestRate, replicated_large_scale_problem
from repro.workloads.smallscale import serving_small_scale_problem

REPO_ROOT = pathlib.Path(__file__).parent.parent
SEED = 3
DURATION_S = 10.0
LOADS = (0.5, 1.0, 1.5, 2.0, 3.0)
#: offered-request targets of the scale curve (reached via load_factor
#: on the small-scale scenario's 25 req/s of solved offered rate)
FULL_TARGETS = (1_000, 10_000, 100_000, 1_000_000)
QUICK_TARGETS = (10_000,)
#: wall ceiling for the --quick 10⁴ gate (generous for a 1-core CI box)
QUICK_WALL_CEILING_S = 30.0
#: required vector-over-scalar speedup at 10⁵ offered (full mode)
SPEEDUP_FLOOR = 10.0
COMPARE_TARGET = 100_000
#: Table IV replication factors of the served-throughput section
SERVED_REPLICAS = (1, 10, 50)
QUICK_SERVED_REPLICAS = (10,)
#: replication factor gated on the pop_ready bound + engine parity
SERVED_GATE_REPLICAS = 10
SERVED_DURATION_S = 5.0
#: timed repeats per served-throughput point (the median is reported)
SERVED_REPEATS = 3


def _runtime(**overrides) -> ServingRuntime:
    problem = serving_small_scale_problem(5, seed=0)
    return ServingRuntime.from_problem(
        problem,
        ServingConfig(**overrides),
        solver=OffloaDNNSolver(slice_margin_rbs=2),
    )


def _base_rate() -> float:
    runtime = _runtime()
    return sum(
        task.request_rate
        for task in runtime.problem.tasks
        if runtime.tickets[task.task_id].admitted
    )


def _metrics_key(metrics) -> tuple:
    return (
        metrics.duration_s,
        metrics.total_compute_s,
        metrics.windows,
        tuple(
            (
                tid,
                t.offered,
                t.admitted,
                t.completed,
                t.deadline_misses,
                tuple(sorted((r.value, c) for r, c in t.drops.items())),
                # NaN (a task that completes nothing) never equals itself
                tuple(
                    None if v != v else v
                    for v in (t.latency.mean_s, t.latency.p50_s,
                              t.latency.p95_s, t.latency.p99_s, t.latency.max_s)
                ),
            )
            for tid, t in sorted(metrics.tasks.items())
        ),
    )


def load_curve() -> list[dict]:
    rows = []
    for load in LOADS:
        runtime = _runtime(duration_s=DURATION_S, load_factor=load, seed=0)
        metrics = runtime.run()
        gated = sum(t.drops[DropReason.ADMISSION] for t in metrics.tasks.values())
        p95 = max(
            t.latency.p95_s for t in metrics.tasks.values() if t.completed > 0
        )
        rows.append(
            {
                "load": load,
                "offered": metrics.offered,
                "completed": metrics.completed,
                "throughput_rps": metrics.throughput_rps,
                "worst_p95_ms": 1e3 * p95,
                "miss_rate": metrics.deadline_miss_rate,
                "gated": gated,
            }
        )
    return rows


def prefix_cache() -> list[dict]:
    rows = []
    for enabled in (True, False):
        runtime = _runtime(
            duration_s=DURATION_S, load_factor=2.0, seed=0, prefix_cache=enabled
        )
        metrics = runtime.run()
        rows.append(
            {
                "cache": "on" if enabled else "off",
                "completed": metrics.completed,
                "compute_s": metrics.total_compute_s,
                "saved_s": metrics.compute_saved_s,
                "merges": metrics.prefix_merges,
            }
        )
    return rows


def _scale_run(target: int, engine: str) -> dict:
    load = target / (_base_rate() * DURATION_S)
    runtime = _runtime(
        engine=engine,
        duration_s=DURATION_S,
        load_factor=load,
        poisson=True,
        seed=SEED,
    )
    start = time.perf_counter()
    metrics = runtime.run()
    wall_s = time.perf_counter() - start
    served = [t for t in metrics.tasks.values() if t.completed > 0]
    return {
        "engine": engine,
        "target": target,
        "offered": metrics.offered,
        "completed": metrics.completed,
        "wall_s": wall_s,
        "requests_per_s": metrics.offered / wall_s,
        "events_per_s": runtime.simulator.events_processed / wall_s,
        "events": runtime.simulator.events_processed,
        "worst_p95_ms": (
            1e3 * max(t.latency.p95_s for t in served) if served else None
        ),
        "metrics_key": _metrics_key(metrics),
    }


def scale_curve(targets) -> list[dict]:
    rows = []
    for target in targets:
        row = _scale_run(target, "vector")
        row.pop("metrics_key")
        rows.append(row)
    return rows


def engine_comparison(target: int) -> dict:
    vector = _scale_run(target, "vector")
    scalar = _scale_run(target, "scalar")
    return {
        "target": target,
        "offered": vector["offered"],
        "vector_wall_s": vector["wall_s"],
        "scalar_wall_s": scalar["wall_s"],
        "speedup": scalar["wall_s"] / vector["wall_s"],
        "bit_equal": vector["metrics_key"] == scalar["metrics_key"],
    }


def cluster_wave_point(target: int) -> dict:
    """Stream a 10⁴-offered wave through a one-node cluster fabric."""
    from repro.cluster import ClusterDeployment, default_topology

    load = target / (_base_rate() * DURATION_S)
    keys = {}
    walls = {}
    for engine in ("vector", "scalar"):
        runtime = _runtime(
            engine=engine,
            duration_s=DURATION_S,
            load_factor=load,
            poisson=True,
            seed=SEED,
        )
        runtime.cluster = ClusterDeployment.place(
            runtime.problem, runtime.solution, runtime.tickets, default_topology(1)
        )
        start = time.perf_counter()
        metrics = runtime.run()
        walls[engine] = time.perf_counter() - start
        keys[engine] = _metrics_key(metrics)
    return {
        "target": target,
        "nodes": 1,
        "vector_wall_s": walls["vector"],
        "scalar_wall_s": walls["scalar"],
        "bit_equal": keys["vector"] == keys["scalar"],
    }


def _fleet_runtime(replicas: int, engine: str) -> ServingRuntime:
    """Table IV medium rate ×``replicas`` with every budget scaled."""
    problem = replicated_large_scale_problem(RequestRate.MEDIUM, replicas)
    b = problem.budgets
    problem = dataclasses.replace(
        problem,
        budgets=dataclasses.replace(
            b,
            compute_time_s=b.compute_time_s * replicas,
            training_budget_s=b.training_budget_s * replicas,
            memory_gb=b.memory_gb * replicas,
            radio_blocks=b.radio_blocks * replicas,
        ),
    )
    config = ServingConfig(
        engine=engine,
        poisson=True,
        duration_s=SERVED_DURATION_S,
        num_workers=replicas,
        seed=SEED,
    )
    return ServingRuntime.from_problem(problem, config, solver=AggregateSolver())


@contextlib.contextmanager
def _counted_pop_ready():
    """Count ``ServingQueue.pop_ready`` calls made inside the block."""
    count = [0]
    original = ServingQueue.pop_ready

    def counted(self, now):
        count[0] += 1
        return original(self, now)

    ServingQueue.pop_ready = counted
    try:
        yield count
    finally:
        ServingQueue.pop_ready = original


def _served_run(replicas: int, engine: str, repeats: int) -> dict:
    runtime = _fleet_runtime(replicas, engine)
    walls = []
    for _ in range(repeats):
        with _counted_pop_ready() as pops:
            start = time.perf_counter()
            metrics = runtime.run()
            walls.append(time.perf_counter() - start)
    wall_s = sorted(walls)[len(walls) // 2]
    gated = sum(t.drops[DropReason.ADMISSION] for t in metrics.tasks.values())
    admitted = metrics.offered - gated
    return {
        "engine": engine,
        "replicas": replicas,
        "tasks": len(runtime.problem.tasks),
        "admitted": admitted,
        "completed": metrics.completed,
        "wall_s": wall_s,
        "served_per_s": metrics.completed / wall_s,
        "pop_ready_calls": pops[0],
        "pop_ready_per_served": pops[0] / max(1, metrics.completed),
        "pop_ready_bound_ok": pops[0] <= 2 * admitted,
        "metrics_key": _metrics_key(metrics),
    }


def served_throughput(replicas_list, repeats: int) -> dict:
    """Served req/s at real admitted load, plus the ×10 gate point."""
    rows = []
    for replicas in replicas_list:
        row = _served_run(replicas, "vector", repeats)
        row.pop("metrics_key")
        rows.append(row)
    vector = _served_run(SERVED_GATE_REPLICAS, "vector", 1)
    scalar = _served_run(SERVED_GATE_REPLICAS, "scalar", 1)
    gate = {
        "replicas": SERVED_GATE_REPLICAS,
        "tasks": vector["tasks"],
        "admitted": vector["admitted"],
        "vector_pop_ready_calls": vector["pop_ready_calls"],
        "scalar_pop_ready_calls": scalar["pop_ready_calls"],
        "pop_ready_bound_ok": (
            vector["pop_ready_bound_ok"] and scalar["pop_ready_bound_ok"]
        ),
        "bit_equal": vector["metrics_key"] == scalar["metrics_key"],
    }
    return {"rows": rows, "gate": gate}


def run(quick: bool) -> dict:
    targets = QUICK_TARGETS if quick else FULL_TARGETS
    scaling = scale_curve(targets)
    comparison = engine_comparison(
        QUICK_TARGETS[0] if quick else COMPARE_TARGET
    )
    cluster = cluster_wave_point(10_000)
    served = served_throughput(
        QUICK_SERVED_REPLICAS if quick else SERVED_REPLICAS,
        1 if quick else SERVED_REPEATS,
    )
    report = {
        "bench": "bench_serving",
        "mode": "quick" if quick else "full",
        "settings": {
            "seed": SEED,
            "duration_s": DURATION_S,
            "targets": list(targets),
            "poisson": True,
            "speedup_floor": SPEEDUP_FLOOR,
            "quick_wall_ceiling_s": QUICK_WALL_CEILING_S,
            "served_duration_s": SERVED_DURATION_S,
            "served_repeats": 1 if quick else SERVED_REPEATS,
        },
        "load_curve": load_curve(),
        "prefix_cache": prefix_cache(),
        "scaling": scaling,
        "engine_comparison": comparison,
        "cluster": cluster,
        "served_throughput": served,
    }
    gate_ok = (
        comparison["bit_equal"]
        and cluster["bit_equal"]
        and served["gate"]["bit_equal"]
        and served["gate"]["pop_ready_bound_ok"]
        and all(row["pop_ready_bound_ok"] for row in served["rows"])
    )
    if quick:
        gate_ok = gate_ok and all(
            row["wall_s"] <= QUICK_WALL_CEILING_S for row in scaling
        )
    else:
        gate_ok = gate_ok and comparison["speedup"] >= SPEEDUP_FLOOR
    report["gate_ok"] = gate_ok
    return report


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI smoke: 10⁴-offered gate under a wall ceiling, pop_ready "
        "bound and engine parity at x10",
    )
    args = parser.parse_args()
    report = run(quick=args.quick)

    load_table = format_table(
        ["load x", "offered", "served", "req/s", "worst p95 ms", "miss rate", "gated"],
        [
            [r["load"], r["offered"], r["completed"],
             f"{r['throughput_rps']:.2f}", f"{r['worst_p95_ms']:.2f}",
             f"{r['miss_rate']:.3f}", r["gated"]]
            for r in report["load_curve"]
        ],
    )
    cache_rows = report["prefix_cache"]
    cache_table = format_table(
        ["cache", "served", "compute s", "saved s", "merges"],
        [
            [r["cache"], r["completed"], f"{r['compute_s']:.4f}",
             f"{r['saved_s']:.4f}", r["merges"]]
            for r in cache_rows
        ],
    )
    scale_table = format_table(
        ["offered", "served", "wall s", "req/s", "events/s", "worst p95 ms"],
        [
            [r["offered"], r["completed"], f"{r['wall_s']:.3f}",
             f"{r['requests_per_s']:,.0f}", f"{r['events_per_s']:,.0f}",
             "-" if r["worst_p95_ms"] is None else f"{r['worst_p95_ms']:.2f}"]
            for r in report["scaling"]
        ],
    )
    served = report["served_throughput"]
    served_table = format_table(
        ["replicas", "tasks", "admitted", "served", "wall s", "served/s",
         "pop_ready", "pops/served"],
        [
            [r["replicas"], r["tasks"], r["admitted"], r["completed"],
             f"{r['wall_s']:.3f}", f"{r['served_per_s']:,.0f}",
             r["pop_ready_calls"], f"{r['pop_ready_per_served']:.2f}"]
            for r in served["rows"]
        ],
    )
    gate = served["gate"]
    cmp = report["engine_comparison"]
    clu = report["cluster"]
    lines = (
        f"engine comparison @ {cmp['offered']} offered: vector "
        f"{cmp['vector_wall_s']:.3f} s vs scalar {cmp['scalar_wall_s']:.3f} s "
        f"({cmp['speedup']:.1f}x, bit equal {cmp['bit_equal']})\n"
        f"cluster wave point @ {clu['target']} offered, {clu['nodes']} node: "
        f"vector {clu['vector_wall_s']:.3f} s vs scalar "
        f"{clu['scalar_wall_s']:.3f} s (bit equal {clu['bit_equal']})\n"
        f"served gate @ x{gate['replicas']} ({gate['tasks']} tasks, "
        f"{gate['admitted']} admitted): pop_ready vector "
        f"{gate['vector_pop_ready_calls']} / scalar "
        f"{gate['scalar_pop_ready_calls']} (<= 2 x admitted "
        f"{gate['pop_ready_bound_ok']}), bit equal {gate['bit_equal']}"
    )
    name = "BENCH_serving_quick" if args.quick else "BENCH_serving"
    emit(
        name,
        "Serving runtime: offered load vs throughput and deadline misses\n"
        + load_table
        + "\n\nShared-block prefix cache (2x load, 10 s)\n"
        + cache_table
        + "\n\nScale curve (vector engine, Poisson arrivals)\n"
        + scale_table
        + "\n\nServed throughput (Table IV xN, AggregateSolver, Poisson, "
        + f"{SERVED_DURATION_S:g} s, vector engine)\n"
        + served_table
        + "\n\n"
        + lines,
    )
    if args.quick:
        json_path = REPO_ROOT / "benchmarks" / "results" / f"{name}.json"
    else:
        json_path = REPO_ROOT / "BENCH_serving.json"
    write_json(report, json_path)

    if not report["gate_ok"]:
        print("GATE FAILURE: see the report above")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
