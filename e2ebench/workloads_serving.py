"""The two serving workloads: ``fleet_serve`` and ``paper_sweep``.

Both turn a task population into a plan through the edge controller and
serve it with ``repro.serving``'s wave engine under open-loop Poisson
arrivals, which the engine pre-draws in virtual time, so the generator
is never late.  They stress the same layer in opposite shapes:
``fleet_serve`` is 1000 sparse queues in one long run, ``paper_sweep``
is 20 dense queues in many ~30 ms runs across a load grid.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import ClassVar

import numpy as np

from harness import digest, median, percentile, timed
from repro.core.aggregate import AggregateSolver, aggregate_problem
from repro.core.heuristic import OffloaDNNSolver
from repro.core.objective import check_constraints
from repro.serving.queueing import DropReason
from repro.serving.runtime import ServingConfig, ServingRuntime
from repro.workloads import largescale
from repro.workloads.largescale import RequestRate

#: attainment threshold of the capacity search (on-time / admitted)
CAPACITY_ATTAINMENT = 0.9


def metrics_key(metrics) -> tuple:
    """Every virtual-time result of one serving run."""
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
                (t.latency.mean_s, t.latency.p50_s, t.latency.p95_s,
                 t.latency.p99_s, t.latency.max_s),
            )
            for tid, t in sorted(metrics.tasks.items())
        ),
    )


def serve_once(runtime: ServingRuntime) -> dict:
    """One timed ``ServingRuntime.run`` plus its virtual-time samples (ms)."""
    metrics, wall_s = timed(runtime.run)
    config = runtime.config
    latency, wait, execute, uplink = [], [], [], []
    on_time = 0
    for request in runtime.last_requests:
        if request.uplink_done_at == request.uplink_done_at:  # delivered
            uplink.append(request.uplink_done_at - request.created_at)
        if request.completed:
            latency.append(request.latency_s)
            wait.append(request.dispatched_at - request.uplink_done_at)
            execute.append(
                request.completed_at - config.result_return_s - request.started_at
            )
            if not request.missed_deadline:
                on_time += 1
    drops = {
        reason.value: sum(t.drops[reason] for t in metrics.tasks.values())
        for reason in DropReason
    }
    offered = metrics.offered
    return {
        "wall_s": wall_s,
        "offered": offered,
        "admitted": offered - drops[DropReason.ADMISSION.value],
        "completed": metrics.completed,
        "on_time": on_time,
        "drops": drops,
        # a request neither completed nor dropped with a reason is lost
        "lost": abs(offered - metrics.completed - sum(drops.values())),
        "latency_ms": 1e3 * np.asarray(latency),
        "wait_ms": 1e3 * np.asarray(wait),
        "exec_ms": 1e3 * np.asarray(execute),
        "uplink_ms": 1e3 * np.asarray(uplink),
        "busy_s": runtime.executor.total_compute_s,
        "capacity_s": config.num_workers * metrics.duration_s,
        "events": runtime.simulator.events_processed,
        "digest": digest(metrics_key(metrics)),
    }


def serve_pass(groups, clock) -> dict:
    """Serve every runtime once and pool; each group is timed as one call."""

    def serve_group(runtimes):
        runs = [serve_once(runtime) for runtime in runtimes]
        return runs, sum(run["wall_s"] for run in runs)

    runs, scaled_s = [], 0.0
    for runtimes in groups:
        group_runs, seconds = clock.bracket(lambda: serve_group(runtimes))
        runs += group_runs
        scaled_s += seconds
    pooled = pool_runs(runs)
    pooled["scaled_s"] = scaled_s
    pooled["served_per_s"] = pooled["completed"] / scaled_s
    pooled["runs"] = runs
    return pooled


def pool_runs(runs: list[dict]) -> dict:
    """Reduce one pass's serving runs to scalars (raw samples are dropped)."""
    pooled = {
        key: sum(run[key] for run in runs)
        for key in ("wall_s", "offered", "admitted", "completed", "on_time",
                    "lost", "busy_s", "capacity_s", "events")
    }
    pooled["drops"] = {
        reason.value: sum(run["drops"][reason.value] for run in runs)
        for reason in DropReason
    }
    samples = {
        key: np.concatenate([run[key] for run in runs])
        for key in ("latency_ms", "wait_ms", "exec_ms", "uplink_ms")
    }
    pooled.update(
        latency_count=len(samples["latency_ms"]),
        latency_p50_ms=percentile(samples["latency_ms"], 50),
        latency_p99_ms=percentile(samples["latency_ms"], 99),
        wait_p50_ms=percentile(samples["wait_ms"], 50),
        wait_p99_ms=percentile(samples["wait_ms"], 99),
        exec_p50_ms=percentile(samples["exec_ms"], 50),
        uplink_p50_ms=percentile(samples["uplink_ms"], 50),
        uplink_p99_ms=percentile(samples["uplink_ms"], 99),
        served_per_wall_s=pooled["completed"] / pooled["wall_s"],
        digest=digest(tuple(run["digest"] for run in runs)),
        attempted=pooled["offered"],
        failed=pooled["lost"],
    )
    return pooled


def plan_stats(runtimes) -> dict:
    """Admission-side figures of the deployed plans."""
    plans = [(rt.problem, rt.solution) for rt in runtimes]
    return {
        "weighted_admission": sum(s.weighted_admission_ratio for _, s in plans),
        "admitted_tasks": sum(s.admitted_task_count for _, s in plans),
        "rbs_granted_frac": float(np.mean([
            s.total_radio_blocks / p.budgets.radio_blocks for p, s in plans
        ])),
        "feasible": all(check_constraints(p, s).feasible for p, s in plans),
    }


def serving_end_to_end(passes: list[dict]) -> dict:
    last = passes[-1]
    return {
        "throughput_per_s": median(p["served_per_s"] for p in passes),
        "latency_p50_ms": last["latency_p50_ms"],
        "quality_frac": last["on_time"] / last["offered"],
    }


def serving_per_layer(passes: list[dict], layers: dict, runtimes) -> dict:
    """Virtual-time and plan figures shared by both serving workloads."""
    stats = plan_stats(runtimes)
    last = passes[-1]
    offered = max(1, last["offered"])
    events = last["events"]
    out = {
        "serving.queue_wait_ms_p50": last["wait_p50_ms"],
        "serving.queue_wait_ms_p99": last["wait_p99_ms"],
        "serving.exec_ms_p50": last["exec_p50_ms"],
        "serving.gpu_busy_frac": last["busy_s"] / last["capacity_s"],
        "emulator.events": events,
        "emulator.us_per_event": 1e6 * layers["emulator.run_s"] / max(1, events),
        "emulator.uplink_ms_p50": last["uplink_p50_ms"],
        "emulator.uplink_ms_p99": last["uplink_p99_ms"],
        "core.admitted_tasks": stats["admitted_tasks"],
        "radio.rbs_granted_frac": stats["rbs_granted_frac"],
    }
    for reason in ("admission", "queue_full", "deadline"):
        out[f"serving.drop_frac.{reason}"] = last["drops"][reason] / offered
    return out


def serving_report(passes: list[dict]) -> list[str]:
    last = passes[-1]
    late = last["completed"] - last["on_time"]
    drops = ", ".join(f"{k} {v}" for k, v in last["drops"].items() if v)
    return [
        f"requests per pass: offered {last['offered']}, on time "
        f"{last['on_time']}, late {late}, dropped {drops or 'none'}",
        f"served_per_wall_s: {median(p['served_per_s'] for p in passes):.1f} 1/s host-scaled"
        f" (raw wall {median(p['served_per_wall_s'] for p in passes):.1f} 1/s), "
        f"median of {len(passes)} passes",
        f"slo_attainment: {last['on_time'] / last['offered']:.4f} fraction "
        f"(on time / offered)",
        f"latency_p50_ms: {last['latency_p50_ms']:.2f} ms, latency_p99_ms: "
        f"{last['latency_p99_ms']:.2f} ms (virtual, n={last['latency_count']})",
    ]


@dataclass(frozen=True)
class FleetSize:
    replicas: int = 50
    #: virtual seconds served per pass; ~1.2 s of wall time, so the host
    #: clock's reference slices stay close to the work they scale
    duration_s: float = 5.0


@dataclass
class FleetServe:
    """Table IV large scenario x50: 1000 tasks, budgets x50, 50 workers."""

    seed: int
    size: FleetSize = FleetSize()
    reference: ClassVar[str] = "python"
    setup_repeats: ClassVar[int] = 3

    def setup(self, clock) -> ServingRuntime:
        return clock.measure(self._build)[0]

    def _build(self) -> ServingRuntime:
        replicas = self.size.replicas
        problem = largescale.replicated_large_scale_problem(
            RequestRate.MEDIUM, replicas, seed=self.seed
        )
        b = problem.budgets
        problem = replace(
            problem,
            budgets=replace(
                b,
                compute_time_s=b.compute_time_s * replicas,
                training_budget_s=b.training_budget_s * replicas,
                memory_gb=b.memory_gb * replicas,
                radio_blocks=b.radio_blocks * replicas,
            ),
        )
        config = ServingConfig(
            poisson=True,
            duration_s=self.size.duration_s,
            num_workers=replicas,
            seed=self.seed,
        )
        return ServingRuntime.from_problem(problem, config, solver=AggregateSolver())

    def run_pass(self, runtime: ServingRuntime, clock) -> dict:
        pooled = serve_pass([[runtime]], clock)
        del pooled["runs"]
        return pooled

    def check(self, runtime: ServingRuntime, passes: list[dict]) -> list[str]:
        from benchmarks.bench_solver import EQUIV_RTOL

        failures = []
        if not plan_stats([runtime])["feasible"]:
            failures.append("fleet plan violates check_constraints")
        direct = OffloaDNNSolver(engine="vector").solve(runtime.problem)
        ref = direct.weighted_admission_ratio
        if abs(runtime.solution.weighted_admission_ratio - ref) > EQUIV_RTOL * max(1.0, abs(ref)):
            failures.append("aggregated admission differs from the direct vector solve")
        return failures

    def end_to_end(self, runtime: ServingRuntime, passes: list[dict]) -> dict:
        return serving_end_to_end(passes)

    def report(self, runtime: ServingRuntime, passes: list[dict]) -> list[str]:
        stats = plan_stats([runtime])
        return serving_report(passes) + [
            f"weighted_admission: {stats['weighted_admission']:.4f} sum(z*p) "
            f"({stats['admitted_tasks']} of {len(runtime.problem.tasks)} tasks admitted)",
        ]

    def per_layer(self, runtime: ServingRuntime, passes: list[dict], layers: dict) -> dict:
        out = serving_per_layer(passes, layers, [runtime])
        out["core.groups"] = aggregate_problem(runtime.problem).num_groups
        return out


@dataclass(frozen=True)
class SweepSize:
    rates: tuple = tuple(RequestRate)
    #: offered-load multipliers; today's capacity (~0.27x) lies inside
    loads: tuple = (0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4, 0.5, 0.75, 1.0, 1.5)
    duration_s: float = 10.0


@dataclass
class PaperSweep:
    """The paper's 20-task Table IV scenario, three rates, a load grid."""

    seed: int
    size: SweepSize = SweepSize()
    reference: ClassVar[str] = "python"
    setup_repeats: ClassVar[int] = 3

    def setup(self, clock) -> list[tuple]:
        return clock.measure(self._build)[0]

    def _build(self) -> list[tuple]:
        points = []
        for rate in self.size.rates:
            problem = largescale.large_scale_problem(rate, seed=self.seed)
            runtime = ServingRuntime.from_problem(
                problem,
                ServingConfig(poisson=True, duration_s=self.size.duration_s, seed=self.seed),
                solver=OffloaDNNSolver(),
            )
            points.extend(
                (rate, load, runtime.with_config(load_factor=load))
                for load in self.size.loads
            )
        return points

    def run_pass(self, points: list[tuple], clock) -> dict:
        # one timed call per rate: 11 runs, ~0.4 s
        pooled = serve_pass(
            [[rt for r, _, rt in points if r == rate] for rate in self.size.rates], clock
        )
        runs = pooled.pop("runs")
        pooled["attainment_by_load"] = {
            load: (
                sum(r["on_time"] for r, (_, l, _) in zip(runs, points) if l == load),
                sum(r["admitted"] for r, (_, l, _) in zip(runs, points) if l == load),
            )
            for load in self.size.loads
        }
        return pooled

    def capacity_load(self, passes: list[dict]) -> float:
        """Highest load with pooled on-time/admitted >= 0.9, interpolated."""
        curve = [
            (load, on_time / admitted if admitted else 0.0)
            for load, (on_time, admitted) in passes[-1]["attainment_by_load"].items()
        ]
        meeting = [i for i, (_, ratio) in enumerate(curve) if ratio >= CAPACITY_ATTAINMENT]
        if not meeting:
            return 0.0
        i = meeting[-1]
        if i == len(curve) - 1:
            return curve[i][0]
        (lo, r_lo), (hi, r_hi) = curve[i], curve[i + 1]
        return lo + (r_lo - CAPACITY_ATTAINMENT) / (r_lo - r_hi) * (hi - lo)

    def check(self, points: list[tuple], passes: list[dict]) -> list[str]:
        failures = []
        runtimes = [rt for _, load, rt in points if load == self.size.loads[0]]
        if not plan_stats(runtimes)["feasible"]:
            failures.append("a paper_sweep plan violates check_constraints")
        # engine parity at one grid point: the point nearest 1.0x load
        _, _, runtime = min(points, key=lambda p: (p[0] != RequestRate.MEDIUM, abs(p[1] - 1.0)))
        vector = serve_once(runtime)["digest"]
        scalar = serve_once(runtime.with_config(engine="scalar"))["digest"]
        if vector != scalar:
            failures.append("vector and scalar serving engines disagree")
        return failures

    def end_to_end(self, points: list[tuple], passes: list[dict]) -> dict:
        return serving_end_to_end(passes)

    def report(self, points: list[tuple], passes: list[dict]) -> list[str]:
        curve = ", ".join(
            f"{load}x {on_time / max(1, admitted):.2f}"
            for load, (on_time, admitted) in passes[-1]["attainment_by_load"].items()
        )
        return serving_report(passes) + [
            f"slo_capacity_load: {self.capacity_load(passes):.4f} x "
            f"(on time / admitted >= {CAPACITY_ATTAINMENT})",
            f"on time / admitted by load: {curve}",
        ]

    def per_layer(self, points: list[tuple], passes: list[dict], layers: dict) -> dict:
        runtimes = [rt for _, load, rt in points if load == self.size.loads[0]]
        return serving_per_layer(passes, layers, runtimes)
