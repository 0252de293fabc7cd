"""Pass loop, host-scaled clock, statistics and host description.

A workload is an object with this shape (see ``workloads_*.py``):

* ``setup(clock)`` builds the inputs from the seed and returns a state
  object, timing its parts with ``clock.measure``; their sum is the
  ``setup_s`` metric.
* ``run_pass(state, clock)`` does one unit of measured work, timing its
  parts with ``clock.measure``, and returns a dict with at least
  ``digest`` (a hash of every deterministic result of the pass),
  ``attempted`` and ``failed`` (operation counts).
* ``check(state, passes)`` runs the output checks after the timed
  passes and returns a list of failure messages (empty when correct).
* ``end_to_end(state, passes)`` and ``per_layer(state, passes, layers)``
  return ``{metric: value}``; ``report(state, passes)`` returns the
  human-readable lines, which name the workload-specific quantities.
* ``reference`` (class constant) names the reference loop its clock
  interleaves: ``"python"`` for interpreter-bound work, ``"blas"`` for
  kernels; ``setup_repeats`` (class constant) is how many set-ups
  ``setup_s`` is the median of.
"""

from __future__ import annotations

import gc
import hashlib
import heapq
import os
import platform
import statistics
import time

#: environment variables that size BLAS/OpenMP thread pools; pinned by
#: ``run.py`` before numpy is imported
BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

def pin_thread_pools() -> None:
    """One BLAS/OpenMP thread: a stalled second thread cannot stall a GEMM."""
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"


def median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def percentile(values, q: float) -> float:
    """Linear-interpolation percentile (numpy's default); 0 when empty."""
    import numpy as np

    if len(values) == 0:
        return 0.0
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def digest(*parts) -> str:
    """Stable hash of deterministic results (floats via their exact repr)."""
    h = hashlib.sha256()
    for part in parts:
        if hasattr(part, "tobytes"):
            h.update(part.tobytes())
        else:
            h.update(repr(part).encode())
    return h.hexdigest()[:16]


def timed(fn, *args, **kwargs):
    """``(result, wall seconds)`` of one call."""
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - start


# -- reference loops ------------------------------------------------------
class _Record:
    __slots__ = ("key", "value", "pair")

    def __init__(self, key, value, pair):
        self.key = key
        self.value = value
        self.pair = pair


_SCATTERED = None


def _python_reference() -> float:
    """Interpreter work in three kinds (~30-50 ms together).

    Heap and dict updates like a discrete-event loop, short-lived
    objects like request records, and reads scattered over a 1M-float
    list (~32 MB) like a large population.  Host contention slows each
    kind by a different amount; the mix tracks the workloads better than
    any one of them.
    """
    import random

    global _SCATTERED
    if _SCATTERED is None:
        rng = random.Random(0)
        values = [float(i) for i in range(1_000_000)]
        _SCATTERED = (values, [rng.randrange(len(values)) for _ in range(50_000)])
    heap, table, total = [], {}, 0.0
    for i in range(16_000):
        heapq.heappush(heap, ((i * 7919) % 1013, i))
        table[i & 255] = table.get(i & 255, 0.0) + 0.5
        if len(heap) > 64:
            total += heapq.heappop(heap)[0]
    records = [_Record(i, 0.5 * i, (i, i + 1)) for i in range(12_000)]
    lookup = {r.key: r.value for r in records}
    for r in records:
        total += r.value + lookup[r.key]
    values, order = _SCATTERED
    for i in order:
        total += values[i]
    return total


_BLAS_OPERAND = None


def _blas_reference() -> float:
    """60 single-threaded 256x256 fp32 GEMMs (~25 ms)."""
    import numpy as np

    global _BLAS_OPERAND
    if _BLAS_OPERAND is None:
        _BLAS_OPERAND = np.random.default_rng(0).standard_normal((256, 256), dtype=np.float32)
    a = _BLAS_OPERAND
    out = np.empty_like(a)
    for _ in range(60):
        np.matmul(a, a, out=out)
    return float(out[0, 0])


#: reference loop and its nominal seconds: scaled times read as wall
#: seconds on a host where one reference slice takes the nominal time
#: (about its median time on the 2-core Xeon guest the bounds come from)
REFERENCES = {
    "python": (_python_reference, 0.05),
    "blas": (_blas_reference, 0.02),
}


class HostClock:
    """Wall time scaled by a reference loop run right before and after.

    A shared host changes speed by up to ~1.7x within tens of seconds, so
    raw wall medians of identical work move by more than any bound a
    benchmark could hold.  ``measure`` brackets each timed call with one
    slice of a fixed reference loop that no program code touches, and
    reports ``wall * nominal / mean(reference slices)``: the call's
    wall time on a host running at the nominal reference speed.  A
    faster program shrinks the wall time and nothing else, so the
    scaled figure moves with it; a slower host slows both.
    """

    #: a slice that ended this recently also serves as the next call's
    #: "before" slice (timed calls made back to back share one)
    SHARE_WINDOW_S = 1e-3

    def __init__(self, reference: str) -> None:
        self._loop, self._nominal = REFERENCES[reference]
        self._loop()  # first-call costs stay out of the samples
        self.wall_s = 0.0
        self.scaled_s = 0.0
        self.reference_s: list[float] = []
        self._last_end = float("-inf")

    def _reference(self, share: bool = False) -> float:
        if share and time.perf_counter() - self._last_end < self.SHARE_WINDOW_S:
            return self.reference_s[-1]
        start = time.perf_counter()
        self._loop()
        self._last_end = time.perf_counter()
        elapsed = self._last_end - start
        self.reference_s.append(elapsed)
        return elapsed

    def bracket(self, fn):
        """``(result, scaled seconds)``; ``fn()`` returns ``(result, wall)``.

        For calls that time only part of their own work (the serving
        runs of a pass, without the sample extraction around them).
        """
        before = self._reference(share=True)
        result, wall = fn()
        after = self._reference()
        scaled = wall * self._nominal / (0.5 * (before + after))
        self.wall_s += wall
        self.scaled_s += scaled
        return result, scaled

    def measure(self, fn, *args, **kwargs):
        """``(result, scaled seconds)`` of one call."""
        return self.bracket(lambda: timed(fn, *args, **kwargs))

    @property
    def speed(self) -> float:
        """Median host slowdown against the nominal reference time."""
        return median(self.reference_s) / self._nominal


def setup_repeated(workload, clock: HostClock):
    """One untimed set-up, then ``workload.setup_repeats`` timed ones.

    Return the last state and every scaled time.  The first set-up of a
    process pays for lazy imports and fresh memory (a ``kernels`` set-up
    falls from ~9 s to ~5.5 s over its first three), so it is not timed.
    Each earlier state is released and collected before the next set-up
    so every repetition starts from the same heap.
    """
    state = workload.setup(clock)
    times = []
    for _ in range(workload.setup_repeats):
        state = None
        gc.collect()
        before = clock.scaled_s
        state = workload.setup(clock)
        times.append(clock.scaled_s - before)
    freeze(state)
    return state, times


def freeze(state) -> None:
    """Keep the set-up state out of every later garbage collection.

    A pass's collections would otherwise traverse every object the state
    holds (a 10^4-task population with its clique cache, a runtime's
    request pool), and how often a pass triggers a full collection
    depends on allocation counts, not on the pass's own work.
    """
    gc.collect()
    gc.freeze()


def measure(workload, state, clock: HostClock, seconds: float, min_passes: int = 3):
    """Timed passes until ``seconds`` have elapsed (at least ``min_passes``)."""
    passes: list[dict] = []
    deadline = time.perf_counter() + seconds
    while len(passes) < min_passes or time.perf_counter() < deadline:
        passes.append(run_one(workload, state, clock))
    return passes


def run_one(workload, state, clock: HostClock) -> dict:
    """One pass, with its host-scaled seconds.

    The previous pass's garbage is collected first, so every pass starts
    from the same heap.
    """
    gc.collect()
    before = clock.scaled_s
    result = workload.run_pass(state, clock)
    result["scaled_s"] = clock.scaled_s - before
    return result


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas() -> str:
    import numpy as np

    try:
        info = np.show_config(mode="dicts")  # numpy >= 1.26
        blas = info.get("Build Dependencies", {}).get("blas", {})
        return f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, AttributeError):
        return "unknown"


def host_info() -> dict:
    import numpy as np

    return {
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "blas": _blas(),
        "blas_threads": os.environ.get("OMP_NUM_THREADS"),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }
