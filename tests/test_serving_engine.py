"""Cross-engine bit-identity and the vector data plane's mechanics.

The wave engine's contract is not "statistically close" — it is
bit-identical to the scalar one-event-per-request path: same served
set, same drop reasons, same metrics to the last float.  These tests
pin that contract on the paper's small-scale scenario (deterministic
and Poisson arrivals, several loads and seeds, both queue policies,
tight queues, a one-node cluster) and on a sparse 100-task deployment
where most queues and waves are idle at any tick, plus the engine's
own mechanics: the dispatcher's O(work due) bound on ``pop_ready``
calls, due-wave ordering and tie-breaks, request pooling, event
recycling, and rerun-determinism of traces at 10⁴ requests.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.cluster import ClusterDeployment, default_topology
from repro.core.aggregate import AggregateSolver
from repro.core.heuristic import OffloaDNNSolver
from repro.emulator.simulator import Simulator
from repro.obs import ObsSession, jsonl_lines
from repro.serving.engine import TaskWave, WavePlan
from repro.serving.pool import RequestPool
from repro.serving.queueing import DropReason, ServingQueue
from repro.serving.runtime import ServingConfig, ServingRuntime
from repro.workloads.largescale import RequestRate, replicated_large_scale_problem
from repro.workloads.smallscale import serving_small_scale_problem


@pytest.fixture(scope="module")
def problem():
    return serving_small_scale_problem(5)


def _runtime(problem, **overrides):
    return ServingRuntime.from_problem(
        problem,
        ServingConfig(**overrides),
        solver=OffloaDNNSolver(slice_margin_rbs=2),
    )


def _metrics_key(metrics):
    return (
        metrics.duration_s,
        metrics.total_compute_s,
        metrics.compute_saved_s,
        metrics.windows,
        metrics.prefix_merges,
        {
            tid: (
                t.offered,
                t.admitted,
                t.completed,
                t.deadline_misses,
                tuple(sorted((r.value, c) for r, c in t.drops.items())),
                (
                    t.latency.count,
                    # a task that completes nothing has NaN latencies
                    _field(t.latency.mean_s),
                    _field(t.latency.p50_s),
                    _field(t.latency.p95_s),
                    _field(t.latency.p99_s),
                    _field(t.latency.max_s),
                ),
            )
            for tid, t in metrics.tasks.items()
        },
    )


def _field(value):
    # NaN != NaN would make every absent-timestamp comparison fail
    return None if value != value else value


def _served_key(runtime):
    """Every materialized (non-admission-shed) request, field by field."""
    return [
        (
            r.task_id,
            r.request_id,
            _field(r.created_at),
            _field(r.deadline_at),
            _field(r.uplink_done_at),
            _field(r.dispatched_at),
            _field(r.started_at),
            _field(r.completed_at),
            r.compute_time_s,
            r.drop_reason.value if r.drop_reason else None,
            _field(r.service_done_at),
        )
        for r in runtime.last_requests
        if r.drop_reason is not DropReason.ADMISSION
    ]


# -- cross-engine bit-identity (the tentpole acceptance criterion) ---------


@pytest.mark.parametrize("poisson", [False, True])
@pytest.mark.parametrize("load_factor", [0.5, 2.0, 3.7])
@pytest.mark.parametrize("seed", [0, 3])
def test_engines_bit_identical_on_paper_scenario(
    problem, poisson, load_factor, seed
):
    kw = dict(duration_s=3.0, load_factor=load_factor, seed=seed, poisson=poisson)
    vec = _runtime(problem, engine="vector", **kw)
    ref = _runtime(problem, engine="scalar", **kw)
    assert _metrics_key(vec.run()) == _metrics_key(ref.run())
    assert _served_key(vec) == _served_key(ref)


@pytest.mark.parametrize("policy", ["fifo", "edf"])
def test_engines_agree_under_backpressure(problem, policy):
    # depth-2 queues force queue_full drops through both disciplines
    kw = dict(
        duration_s=3.0,
        load_factor=4.0,
        seed=1,
        poisson=True,
        queue_depth=2,
        queue_policy=policy,
    )
    vec = _runtime(problem, engine="vector", **kw)
    ref = _runtime(problem, engine="scalar", **kw)
    assert _metrics_key(vec.run()) == _metrics_key(ref.run())
    assert _served_key(vec) == _served_key(ref)


def test_engines_agree_with_max_batch_and_procs(problem):
    kw = dict(duration_s=2.0, load_factor=2.5, seed=7, max_batch=3, num_procs=2)
    vec = _runtime(problem, engine="vector", **kw)
    ref = _runtime(problem, engine="scalar", **kw)
    assert _metrics_key(vec.run()) == _metrics_key(ref.run())


def test_engines_agree_on_one_node_cluster(problem):
    results = {}
    for engine in ("vector", "scalar"):
        runtime = _runtime(problem, engine=engine, duration_s=2.0, seed=0)
        runtime.cluster = ClusterDeployment.place(
            runtime.problem, runtime.solution, runtime.tickets, default_topology(1)
        )
        results[engine] = _metrics_key(runtime.run())
    assert results["vector"] == results["scalar"]


def test_engines_agree_on_registry_instruments(problem):
    # counters and histogram summaries — the obs-facing numbers — match
    snapshots = {}
    for engine in ("vector", "scalar"):
        obs = ObsSession()
        runtime = _runtime(
            problem, engine=engine, duration_s=2.0, load_factor=2.0, seed=3
        )
        runtime.obs = obs
        runtime.run()
        snap = obs.registry.snapshot()
        snapshots[engine] = (snap["counters"], snap["histograms"])
    assert snapshots["vector"] == snapshots["scalar"]


def test_unknown_engine_rejected():
    with pytest.raises(ValueError, match="unknown engine"):
        ServingConfig(engine="quantum")


def test_wave_engine_refuses_faded_cells(problem):
    from repro.emulator.lte import BlockFading, LteCell

    runtime = _runtime(problem, engine="vector", duration_s=1.0)
    cell = LteCell(slice_manager=runtime.slice_manager, fading=BlockFading())
    with pytest.raises(ValueError, match="fading"):
        WavePlan.build([], runtime.config, None, cell)


# -- sparse deployment: the ready set and the due-wave heap ---------------


@pytest.fixture(scope="module")
def sparse_problem():
    # Table IV x5: 100 tasks with budgets x5; at any tick most queues
    # are empty and most waves have nothing due
    replicas = 5
    problem = replicated_large_scale_problem(RequestRate.MEDIUM, replicas)
    b = problem.budgets
    return dataclasses.replace(
        problem,
        budgets=dataclasses.replace(
            b,
            compute_time_s=b.compute_time_s * replicas,
            training_budget_s=b.training_budget_s * replicas,
            memory_gb=b.memory_gb * replicas,
            radio_blocks=b.radio_blocks * replicas,
        ),
    )


def _sparse_runtime(problem, **overrides):
    config = ServingConfig(duration_s=2.0, poisson=True, num_workers=5, **overrides)
    return ServingRuntime.from_problem(problem, config, solver=AggregateSolver())


@pytest.mark.parametrize("policy", ["fifo", "edf"])
@pytest.mark.parametrize("max_batch", [None, 4])
def test_engines_bit_identical_on_sparse_deployment(sparse_problem, policy, max_batch):
    kw = dict(queue_policy=policy, max_batch=max_batch, seed=2)
    vec = _sparse_runtime(sparse_problem, engine="vector", **kw)
    ref = _sparse_runtime(sparse_problem, engine="scalar", **kw)
    assert len(vec.problem.tasks) == 100
    assert _metrics_key(vec.run()) == _metrics_key(ref.run())
    assert _served_key(vec) == _served_key(ref)
    assert vec.executor.windows, "run dispatched nothing"


@pytest.mark.parametrize("policy", ["fifo", "edf"])
def test_engines_agree_on_sparse_deployment_under_backpressure(
    sparse_problem, policy
):
    # one request per window across 100 tasks: queues back up
    kw = dict(
        queue_policy=policy, queue_depth=2, max_batch=1, load_factor=3.0, seed=4
    )
    vec = _sparse_runtime(sparse_problem, engine="vector", **kw)
    ref = _sparse_runtime(sparse_problem, engine="scalar", **kw)
    metrics = vec.run()
    assert _metrics_key(metrics) == _metrics_key(ref.run())
    assert _served_key(vec) == _served_key(ref)
    assert sum(t.drops[DropReason.QUEUE_FULL] for t in metrics.tasks.values())


def _count_pops(monkeypatch):
    """Record ``(now, queue, depth before the call)`` per ``pop_ready``."""
    calls = []
    original = ServingQueue.pop_ready

    def counted(self, now):
        calls.append((now, self.task_id, len(self)))
        return original(self, now)

    monkeypatch.setattr(ServingQueue, "pop_ready", counted)
    return calls


@pytest.mark.parametrize("engine", ["vector", "scalar"])
@pytest.mark.parametrize("max_batch", [None, 4])
def test_dispatch_work_is_bounded_by_admitted_requests(
    sparse_problem, monkeypatch, engine, max_batch
):
    calls = _count_pops(monkeypatch)
    runtime = _sparse_runtime(
        sparse_problem, engine=engine, max_batch=max_batch, seed=1
    )
    runtime.run()
    materialized = [
        r for r in runtime.last_requests if r.drop_reason is not DropReason.ADMISSION
    ]
    # one call per dispatched or expired request, plus at most one
    # empty pop per push (the call that finds a drained queue)
    assert 0 < len(calls) <= 2 * len(materialized)
    # only queues that hold requests when the window opens are polled:
    # the first call on a queue in a window never finds it empty
    first_in_window = {}
    for now, task_id, depth in calls:
        first_in_window.setdefault((now, task_id), depth)
    assert all(depth > 0 for depth in first_in_window.values())
    # ticks before the first uplink delivery have nothing due
    first_delivery = min(r.uplink_done_at for r in materialized)
    assert min(now for now, _, _ in calls) >= first_delivery


def test_due_waves_push_in_wave_position_order(sparse_problem, monkeypatch):
    # the due-wave heap yields waves by delivery time; they must still
    # be pushed in wave-position order, as a full scan visits them, so
    # queue-full victims and trace events keep their order
    log = []
    push_due, push = WavePlan.push_due, ServingQueue.push

    def logged_push_due(self, now, pool, push_fn, collect):
        log.append(None)  # tick boundary
        return push_due(self, now, pool, push_fn, collect)

    def logged_push(self, request):
        log.append(self.task_id)
        return push(self, request)

    monkeypatch.setattr(WavePlan, "push_due", logged_push_due)
    monkeypatch.setattr(ServingQueue, "push", logged_push)
    runtime = _sparse_runtime(sparse_problem, engine="vector", seed=1)
    runtime.run()
    position = {task.task_id: i for i, task in enumerate(sparse_problem.tasks)}
    ticks, current = [], []
    for entry in log + [None]:
        if entry is None:
            ticks.append(current)
            current = []
        else:
            current.append(position[entry])
    assert any(len(set(tick)) > 1 for tick in ticks), "no tick pushed two waves"
    assert all(tick == sorted(tick) for tick in ticks)


def test_wave_losing_the_tick_tie_break_is_due_next_tick(problem):
    # request 0 is delivered exactly on the first tick, whose event was
    # scheduled before request 0's emit fired: the tick wins, and the
    # wave must stay in the due heap with the same key
    path = problem.catalog.paths_for(problem.tasks[0])[0]

    def wave(task_id, deliveries):
        n = len(deliveries)
        return TaskWave(
            task_id=task_id,
            path=path,
            arrivals=np.array([0.0, 0.01][:n]),
            ids=np.arange(n),
            admitted_idx=np.arange(n),
            deliveries=deliveries,
            deadlines=[1.0] * n,
            bits=1.0,
        )

    plan = WavePlan(tasks=[wave(1, [0.005, 0.02]), wave(2, [0.9])], gated={})
    pushed = []

    def tick(now):
        plan.begin_tick(now)
        plan.push_due(
            now,
            RequestPool(),
            lambda r: pushed.append((now, r.task_id, r.request_id)),
            lambda task_id, r: None,
        )

    for now in (0.005, 0.01, 0.015, 0.02):
        tick(now)
    assert pushed == [(0.01, 1, 0), (0.02, 1, 1)]
    assert plan.tasks[0].next_delivery == float("inf")
    assert plan.tasks[1].cursor == 0  # never due, never touched


# -- determinism under pooling and event recycling (satellite S4) ----------


def test_trace_jsonl_byte_identical_across_reruns_at_1e4(problem):
    # ~10⁴ offered requests with admission shedding, queue pressure and
    # recycled events/records: the virtual-domain trace must not move
    lines = []
    for _ in range(2):
        obs = ObsSession()
        runtime = _runtime(
            problem,
            engine="vector",
            duration_s=10.0,
            load_factor=40.0,
            poisson=True,
            seed=3,
        )
        runtime.obs = obs
        metrics = runtime.run()
        assert metrics.offered >= 10_000
        lines.append(jsonl_lines([obs.virtual]))
    assert lines[0] == lines[1]


def test_same_runtime_rerun_is_bit_stable(problem):
    # the pool recycles records between runs on the same runtime object
    runtime = _runtime(problem, engine="vector", duration_s=2.0, load_factor=2.0)
    first_metrics = _metrics_key(runtime.run())
    first_served = _served_key(runtime)
    assert _metrics_key(runtime.run()) == first_metrics
    assert _served_key(runtime) == first_served
    # steady state: the second run allocated nothing new
    assert runtime.pool.in_use <= len(runtime.pool)


def test_simulator_recycling_keeps_event_order():
    # same-timestamp events fire in insertion order even when the heap
    # entries are recycled objects from the freelist
    for recycle in (False, True):
        sim = Simulator(recycle_events=recycle)
        fired: list[str] = []
        for round_id in range(3):
            for k in range(4):
                sim.schedule_at(
                    float(round_id),
                    lambda r=round_id, k=k: fired.append(f"{r}:{k}"),
                )
        sim.run()
        assert fired == [f"{r}:{k}" for r in range(3) for k in range(4)]


def test_request_pool_resets_every_field(problem):
    path = problem.catalog.paths_for(problem.tasks[0])[0]
    pool = RequestPool()
    first = pool.acquire(1, 2, path, 0.0, 1.0, 5.0)
    first.drop_reason = DropReason.DEADLINE
    first.completed_at = 0.7
    first.hops = ["stale"]
    pool.reset()
    again = pool.acquire(3, 4, path, 0.5, 2.0, 6.0)
    assert again is first  # recycled, not reallocated
    assert again.task_id == 3 and again.request_id == 4
    assert again.drop_reason is None and again.hops is None
    assert again.completed_at != again.completed_at  # NaN


# -- sorted-index regression (satellite S1) --------------------------------


def test_dispatch_order_matches_sorted_queue_ids(problem):
    # dispatched requests of one window are ordered by task id: the
    # ready set must dispatch exactly like a sorted() scan of all queues
    runtime = _runtime(problem, engine="vector", duration_s=1.0, load_factor=1.5)
    runtime.run()
    by_window: dict[float, list[int]] = {}
    for r in runtime.last_requests:
        if r.dispatched_at == r.dispatched_at:
            by_window.setdefault(r.dispatched_at, []).append(r.task_id)
    assert by_window, "run dispatched nothing"
    for tasks in by_window.values():
        assert tasks == sorted(tasks)


def test_summary_rows_order_and_cache(problem):
    runtime = _runtime(problem, duration_s=1.0)
    metrics = runtime.run()
    rows = metrics.summary_rows()
    assert [row[0] for row in rows] == sorted(metrics.tasks)
    # cached order is reused, and recomputed if the task set changes
    assert metrics.task_order() is metrics.task_order()
    import dataclasses

    extra = dataclasses.replace(metrics.tasks[rows[0][0]], task_id=999)
    metrics.tasks[999] = extra
    assert metrics.task_order()[-1] == 999
