"""The wave engine: a vectorized data plane for the serving runtime.

The scalar :class:`~repro.serving.runtime.ServingRuntime` path costs
one DES event plus one closure per *offered* request — three heap
operations, an allocation, and a token-bucket call each.  The wave
engine replaces all per-request control flow up to the serving queue
with numpy over whole arrival waves:

1. each task's arrival instants are pre-drawn as one array
   (:func:`repro.serving.waves.arrival_times`, bit-identical to the
   scalar emit chain);
2. token-bucket admission is evaluated in closed form over the wave
   (:func:`repro.serving.waves.wave_admissions`) — requests the gate
   sheds are *counted*, never materialized;
3. uplink deliveries of the admitted subset replay the slice FIFO as
   an array scan (:func:`repro.serving.waves.fifo_deliveries`);
4. admitted requests are materialized from a freelist pool and pushed
   into their serving queues in delivery order by the dispatcher tick
   itself — one DES event per batching window, not one per request.
   A min-heap keyed on each wave's next delivery hands the tick only
   the waves with something due, so an idle wave costs nothing.

**Bit-exactness.**  The engine reproduces the scalar path's results
exactly (served set, drop reasons, metrics) on any workload the
runtime generates.  The one subtle piece is the window boundary: when
a request's uplink delivery lands *exactly* on a dispatcher tick, the
scalar DES breaks the tie by schedule order — the arrive event wins
iff its emit chain reached the shared instant before the dispatch
chain did.  :meth:`TaskWave.arrives_before_tick` replays that
comparison from the recorded chains (it recurses past repeated exact
ties, which float-accumulated grids make vanishingly rare but the
``t = 0`` wave start makes real).

What the engine deliberately does **not** reproduce is per-request
observability *between* windows: admission-shed trace events are
emitted in bulk (same payloads, per-task order) and sampled gauge
series see queue/bucket state at window granularity.  Registry
counters, histograms, spans of served requests, and every
``ServingMetrics`` number remain bit-identical.
"""

from __future__ import annotations

import bisect
import heapq
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.serving import waves
from repro.serving.pool import RequestPool
from repro.serving.queueing import ServingRequest

__all__ = ["TaskWave", "WavePlan"]


@dataclass
class TaskWave:
    """One task's precomputed arrival wave."""

    task_id: int
    path: object
    #: every arrival instant of the wave (admitted and shed)
    arrivals: np.ndarray
    #: global request ids, one per arrival (scalar numbering)
    ids: np.ndarray
    #: indices into ``arrivals`` the token bucket admitted
    admitted_idx: np.ndarray
    #: uplink delivery instant per admitted request (slice FIFO)
    deliveries: list[float]
    #: deadline per admitted request (``created + L_τ``)
    deadlines: list[float]
    bits: float
    #: next admitted request not yet pushed into the serving queue
    cursor: int = 0
    #: delivery instant of ``cursor`` as a plain float (``inf`` when
    #: exhausted) — the wave's key in the plan's due-wave heap
    next_delivery: float = float("inf")
    # id and creation instant per admitted request: like ``deliveries``
    # and ``deadlines``, Python lists, so the push loop reads plain
    # ints/floats instead of boxing numpy scalars one request at a time
    _ids: list[int] = field(init=False, repr=False)
    _created: list[float] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self._ids = self.ids[self.admitted_idx].tolist()
        self._created = self.arrivals[self.admitted_idx].tolist()
        if self.deliveries:
            self.next_delivery = self.deliveries[0]

    @property
    def offered(self) -> int:
        return len(self.arrivals)

    @property
    def admitted(self) -> int:
        return len(self.admitted_idx)

    @property
    def gated(self) -> int:
        return len(self.arrivals) - len(self.admitted_idx)

    def arrives_before_tick(self, admitted_pos: int, tick_times: list[float]) -> bool:
        """Scalar tie-break for a delivery landing exactly on a tick.

        The scalar DES orders same-time events by schedule sequence.
        The arrive event was scheduled at its request's emit instant;
        the dispatch tick was scheduled at the previous tick (the first
        tick during setup).  When those instants tie too, the
        comparison recurses one generation up each chain — emit ``k``
        was scheduled when emit ``k−1`` fired, tick ``j`` when tick
        ``j−1`` fired — until one chain reaches setup, where initial
        emits are scheduled before the first dispatch tick.
        """
        arrival_index = int(self.admitted_idx[admitted_pos])
        # depth 0 compares the schedulers of the two tied events:
        # emit[arrival_index] vs dispatch tick[len(tick_times) - 2]
        emit_i = arrival_index
        tick_i = len(tick_times) - 2
        while True:
            emit_setup = emit_i < 0
            tick_setup = tick_i < 0
            if emit_setup:
                # initial emits precede the first dispatch schedule
                return True
            if tick_setup:
                return False
            e_inst = float(self.arrivals[emit_i])
            d_inst = tick_times[tick_i]
            if e_inst != d_inst:
                return e_inst < d_inst
            emit_i -= 1
            tick_i -= 1


@dataclass
class WavePlan:
    """All tasks' waves plus the bookkeeping the dispatcher needs."""

    tasks: list[TaskWave]
    #: admission-shed count per task (never materialized)
    gated: dict[int, int]
    total_offered: int = 0
    total_admitted: int = 0
    #: every dispatcher tick instant fired so far (tie-break record)
    tick_times: list[float] = field(default_factory=list)
    #: min-heap of ``(next_delivery, wave position)`` over the waves
    #: with requests left to push
    _due: list[tuple[float, int]] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self._due = [
            (wave.next_delivery, pos)
            for pos, wave in enumerate(self.tasks)
            if wave.cursor < len(wave.deliveries)
        ]
        heapq.heapify(self._due)

    @classmethod
    def build(
        cls,
        served_tasks: list[tuple],
        config,
        gate,
        cell,
    ) -> "WavePlan":
        """Precompute every task's wave for one run.

        ``served_tasks`` is the runtime's ``(task, path)`` list; the
        gate's buckets are fast-forwarded to their end-of-run state so
        observability probes and ``served_fraction`` stay meaningful.
        """
        if cell.fading is not None or cell.harq is not None:
            raise ValueError(
                "the wave engine models a plain FIFO uplink; fading/HARQ "
                "cells need engine='scalar'"
            )
        arrivals_per_task = []
        for task, _path in served_tasks:
            rng = np.random.default_rng(config.seed * 7919 + task.task_id)
            rate = task.request_rate * config.load_factor
            arrivals_per_task.append(
                waves.arrival_times(
                    rate, config.duration_s, config.poisson, rng
                )
            )
        ids_per_task = waves.merge_arrival_order(arrivals_per_task)
        task_waves: list[TaskWave] = []
        gated: dict[int, int] = {}
        total_offered = 0
        total_admitted = 0
        for (task, path), arrivals, ids in zip(
            served_tasks, arrivals_per_task, ids_per_task
        ):
            bucket = gate.bucket(task.task_id)
            mask, counts = waves.wave_admissions(bucket.ratio, len(arrivals))
            admitted_idx = np.nonzero(mask)[0]
            n_admitted = len(admitted_idx)
            bucket.fast_forward(len(arrivals), n_admitted)
            admitted_arrivals = arrivals[admitted_idx]
            airtime = cell.transmission_duration(
                task.task_id, path.bits_per_image, now=0.0
            )
            deliveries = waves.fifo_deliveries(admitted_arrivals, airtime)
            wave = TaskWave(
                task_id=task.task_id,
                path=path,
                arrivals=arrivals,
                ids=ids,
                admitted_idx=admitted_idx,
                deliveries=deliveries.tolist(),
                deadlines=(admitted_arrivals + task.max_latency_s).tolist(),
                bits=path.bits_per_image,
            )
            task_waves.append(wave)
            gated[task.task_id] = wave.gated
            total_offered += wave.offered
            total_admitted += n_admitted
        return cls(
            tasks=task_waves,
            gated=gated,
            total_offered=total_offered,
            total_admitted=total_admitted,
        )

    def begin_tick(self, now: float) -> None:
        """Record a dispatcher tick instant (tie-break bookkeeping)."""
        self.tick_times.append(now)

    def push_due(
        self,
        now: float,
        pool: RequestPool,
        push: Callable[[ServingRequest], None],
        collect: Callable[[int, ServingRequest], None],
    ) -> None:
        """Materialize and enqueue every request delivered by ``now``.

        Requests with delivery strictly before the tick always join it;
        a delivery exactly *on* the tick joins only when the scalar DES
        would have fired its arrive event first
        (:meth:`TaskWave.arrives_before_tick`).  ``push`` runs the
        runtime's queue-insert (backpressure, tracing); ``collect``
        files the record for metrics.

        Only waves with a delivery due are touched: the due-wave heap
        yields them, and they are handled in wave-position order — the
        order a full scan would visit them — so queue-full victims and
        trace events come out exactly as before.
        """
        heap = self._due
        if not heap or heap[0][0] > now:
            return
        positions = []
        while heap and heap[0][0] <= now:
            positions.append(heapq.heappop(heap)[1])
        positions.sort()
        acquire = pool.acquire
        for pos in positions:
            wave = self.tasks[pos]
            deliveries = wave.deliveries
            n = len(deliveries)
            start = wave.cursor
            # everything strictly before the tick is due...
            end = bisect.bisect_left(deliveries, now, start)
            # ...plus on-tick deliveries that win the scalar tie-break
            while (
                end < n
                and deliveries[end] == now
                and wave.arrives_before_tick(end, self.tick_times)
            ):
                end += 1
            task_id, path, bits = wave.task_id, wave.path, wave.bits
            ids, created, deadlines = wave._ids, wave._created, wave.deadlines
            for i in range(start, end):
                request = acquire(
                    task_id, ids[i], path, created[i], deadlines[i], bits
                )
                request.uplink_done_at = deliveries[i]
                collect(task_id, request)
                push(request)
            wave.cursor = end
            if end < n:
                # a wave that lost the on-tick tie-break keeps its key
                wave.next_delivery = deliveries[end]
                heapq.heappush(heap, (wave.next_delivery, pos))
            else:
                wave.next_delivery = float("inf")

    def emit_shed_traces(self, tracer) -> None:
        """Replay admission-shed drop events into an enabled tracer.

        Same payloads as the scalar path's per-request events, grouped
        per task (a trace at 10⁶ offered requests is dominated by these
        lines; the grouping keeps emission a tight loop).
        """
        for wave in self.tasks:
            shed = np.setdiff1d(
                np.arange(len(wave.arrivals)), wave.admitted_idx
            )
            track = f"task{wave.task_id}"
            for i in shed:
                tracer.event_at(
                    "drop.admission",
                    float(wave.arrivals[i]),
                    cat="serving",
                    track=track,
                    args={"request": int(wave.ids[i])},
                )

    def records_in_creation_order(
        self, per_task: dict[int, list[ServingRequest]]
    ) -> list[ServingRequest]:
        """Merge per-task record lists into global creation order."""
        merged: list[ServingRequest] = []
        for records in per_task.values():
            merged.extend(records)
        if not merged:
            return merged
        ids = np.fromiter(
            (r.request_id for r in merged), dtype=np.int64, count=len(merged)
        )
        order = np.argsort(ids, kind="stable")
        out = np.empty(len(merged), dtype=object)
        out[:] = merged
        return list(out[order])
