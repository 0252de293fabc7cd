"""The control-plane workload: ``population_solve``.

Each pass has two phases.  The cold phase builds the replicated Table IV
problem at 10^5 users and plans it with ``AggregateSolver``.  The warm
phase replaces a seeded 1% of a 10^4-task heterogeneous population
(every task holds its own candidate-path tuple, so the clique memo
cannot pool them) and re-plans it with ``WarmStartSolver``, then puts
the departed tasks back and re-plans again, so every pass does the same
warm work.  No serving or
DNN code runs.  Every warm re-plan is checked after the timed passes
against a cold vector solve of the same problem.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import ClassVar

import numpy as np

from harness import digest, median
from repro.core.aggregate import AggregateSolver
from repro.core.catalog import Catalog
from repro.core.heuristic import OffloaDNNSolver
from repro.core.incremental import WarmStartSolver
from repro.core.objective import check_constraints
from repro.core.problem import DOTProblem
from repro.workloads import largescale
from repro.workloads.largescale import RequestRate

CHURN_FRACTION = 0.01
#: churn-and-restore cycles per pass, each with its own seeded churn
#: (one keeps ~5 cold plans in a 14 s run)
WARM_CYCLES = 1


def solution_digest(solution) -> str:
    """Hash of every admitted assignment and of who was left out.

    Unadmitted tasks (most of a 10^5-user plan) enter as one sorted id
    list, which keeps the digest cheap next to the plan it checks.
    """
    admitted, rejected = [], []
    for tid, a in solution.assignments.items():
        if a.path is None and a.admission_ratio == 0 and a.radio_blocks == 0:
            rejected.append(tid)
        else:
            admitted.append(
                (tid, a.path.path_id if a.path else None, a.admission_ratio, a.radio_blocks)
            )
    return digest(sorted(admitted), sorted(rejected))


def deshared(problem: DOTProblem) -> DOTProblem:
    """Give every task its own path tuple (a heterogeneous population)."""
    catalog = Catalog()
    catalog.paths_by_task = {
        tid: tuple(paths) for tid, paths in problem.catalog.paths_by_task.items()
    }
    return replace(problem, catalog=catalog)


def churned(problem: DOTProblem, rng: np.random.Generator):
    """Replace a random 1% of tasks with arrivals of the same classes."""
    tasks = list(problem.tasks)
    count = max(1, int(len(tasks) * CHURN_FRACTION))
    victims = set(rng.choice(len(tasks), size=count, replace=False).tolist())
    next_id = max(t.task_id for t in tasks) + 1
    catalog = Catalog()
    catalog.paths_by_task = dict(problem.catalog.paths_by_task)
    survivors, departed, arrivals = [], [], []
    for index, task in enumerate(tasks):
        if index not in victims:
            survivors.append(task)
            continue
        departed.append(task.task_id)
        arrival = replace(task, task_id=next_id, name=f"arrival-{next_id}")
        catalog.paths_by_task[next_id] = catalog.paths_by_task.pop(task.task_id)
        arrivals.append(arrival)
        next_id += 1
    return replace(problem, tasks=tuple(survivors + arrivals), catalog=catalog), departed


@dataclass(frozen=True)
class PopulationSize:
    cold_users: int = 100_000
    warm_tasks: int = 10_000


@dataclass
class Churn:
    """``base`` after one seeded 1% churn, and the task ids it swapped."""

    problem: DOTProblem
    departed: list[int]
    arrivals: list[int]


@dataclass
class PopulationState:
    base: DOTProblem
    churns: list[Churn]
    warm: WarmStartSolver


@dataclass
class PopulationSolve:
    seed: int
    size: PopulationSize = PopulationSize()
    reference: ClassVar[str] = "python"
    setup_repeats: ClassVar[int] = 3

    def setup(self, clock) -> PopulationState:
        base, _ = clock.measure(
            lambda: deshared(
                largescale.replicated_large_scale_problem(
                    RequestRate.MEDIUM, self.size.warm_tasks // 20, seed=self.seed
                )
            )
        )
        warm = WarmStartSolver()
        clock.measure(warm.solve, base)  # fills the clique cache
        return PopulationState(base, clock.measure(self._churns, base)[0], warm)

    def _churns(self, base: DOTProblem) -> list[Churn]:
        before = {t.task_id for t in base.tasks}
        churns = []
        for cycle in range(WARM_CYCLES):
            after, departed = churned(base, np.random.default_rng([self.seed, cycle]))
            arrivals = [t.task_id for t in after.tasks if t.task_id not in before]
            churns.append(Churn(after, departed, arrivals))
        return churns

    def _warm_steps(self, state: PopulationState):
        """``(problem, leaving ids, label)`` of every warm re-plan of a pass."""
        for cycle, churn in enumerate(state.churns):
            yield churn.problem, churn.departed, f"churn {cycle}"
            yield state.base, churn.arrivals, f"restore {cycle}"

    def run_pass(self, state: PopulationState, clock) -> dict:
        # build and solve are timed apart: the shorter the timed call, the
        # closer its reference slices track the host's speed
        problem, build_s = clock.measure(
            largescale.replicated_large_scale_problem,
            RequestRate.MEDIUM, self.size.cold_users // 20, seed=self.seed,
        )
        solver = AggregateSolver()
        plan, solve_s = clock.measure(solver.solve, problem)
        cold = {
            "plan_s": build_s + solve_s,
            "weighted_admission": plan.weighted_admission_ratio,
            "priority_total": sum(t.priority for t in problem.tasks),
            "admitted_tasks": plan.admitted_task_count,
            "groups": solver.last_plan.num_groups,
            "rbs_granted_frac": plan.total_radio_blocks / problem.budgets.radio_blocks,
            "cold_feasible": check_constraints(problem, plan).feasible,
            "cold_digest": solution_digest(plan),
        }
        del problem, plan, solver

        # the same warm work every pass: churn base, then churn it back
        # (checked after the loop, so the re-plans run back to back)
        warm = state.warm
        resolve_s, replans, reuse = [], [], []
        for target, leaving, _label in self._warm_steps(state):
            for task_id in leaving:
                warm.forget(task_id)
            replan, seconds = clock.measure(warm.solve, target)
            resolve_s.append(seconds)
            replans.append((target, replan))
            reuse.append(warm.last_reused / (warm.last_reused + warm.last_built))
        warm_digests = [solution_digest(replan) for _, replan in replans]
        warm_feasible = all(check_constraints(t, r).feasible for t, r in replans)
        del replans
        return {
            **cold,
            "resolve_s": resolve_s,
            "warm_digests": warm_digests,
            "digest": digest(cold["cold_digest"], warm_digests),
            "clique_reuse_ratio": median(reuse),
            "warm_feasible": warm_feasible,
            "attempted": 1 + len(resolve_s),
            "failed": int(not cold["cold_feasible"]) + int(not warm_feasible),
        }

    def check(self, state: PopulationState, passes: list[dict]) -> list[str]:
        """Each warm re-plan must equal a cold vector solve of its problem."""
        failures = []
        cold = {}  # id(problem) -> digest of its cold vector solve
        for (problem, _leaving, label), warm_digest in zip(
            self._warm_steps(state), passes[0]["warm_digests"]
        ):
            if id(problem) not in cold:
                plan = OffloaDNNSolver(engine="vector").solve(problem)
                cold[id(problem)] = solution_digest(plan)
            if cold[id(problem)] != warm_digest:
                failures.append(f"warm re-plan after {label} differs from the cold vector solve")
        if not all(p["cold_feasible"] and p["warm_feasible"] for p in passes):
            failures.append("a plan violates check_constraints")
        return failures

    def end_to_end(self, state: PopulationState, passes: list[dict]) -> dict:
        last = passes[-1]
        return {
            "throughput_per_s": self.size.cold_users / median(p["plan_s"] for p in passes),
            "latency_p50_ms": 1e3 * median(s for p in passes for s in p["resolve_s"]),
            "quality_frac": last["weighted_admission"] / last["priority_total"],
        }

    def report(self, state: PopulationState, passes: list[dict]) -> list[str]:
        last = passes[-1]
        resolves = [s for p in passes for s in p["resolve_s"]]
        return [
            f"plan_s: {median(p['plan_s'] for p in passes):.4f} s host-scaled "
            f"({self.size.cold_users} users, median of {len(passes)})",
            f"resolve_s: {median(resolves):.4f} s host-scaled "
            f"({self.size.warm_tasks} tasks, 1% churn, median of {len(resolves)})",
            f"weighted_admission: {last['weighted_admission']:.4f} sum(z*p) "
            f"({last['admitted_tasks']} of {self.size.cold_users} users admitted)",
        ]

    def per_layer(self, state: PopulationState, passes: list[dict], layers: dict) -> dict:
        last = passes[-1]
        return {
            "core.groups": last["groups"],
            "core.admitted_tasks": last["admitted_tasks"],
            "core.clique_reuse_ratio": median(p["clique_reuse_ratio"] for p in passes),
            "radio.rbs_granted_frac": last["rbs_granted_frac"],
        }
