"""Wave primitives: bit-exactness against the scalar building blocks.

The vector engine's correctness argument rests on four primitives each
reproducing its scalar counterpart float for float; this module pins
every one of them, including a hypothesis sweep of the token-bucket
closed form against the scalar bucket (random rates, bursts, seeds).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serving.admission import TokenBucket
from repro.serving.waves import (
    admission_credits,
    arrival_times,
    fifo_deliveries,
    merge_arrival_order,
    wave_admissions,
)


# -- arrival_times ---------------------------------------------------------


def _scalar_arrivals(rate, duration_s, poisson, rng):
    """The emit chain's arrival instants, one scalar step at a time."""
    times = [0.0]
    now = 0.0
    while True:
        gap = float(rng.exponential(1.0 / rate)) if poisson else 1.0 / rate
        if now + gap > duration_s:
            return np.array(times)
        now = now + gap
        times.append(now)


@pytest.mark.parametrize("rate", [3.0, 5.0, 7.3, 1000.0])
def test_deterministic_arrivals_match_scalar_chain(rate):
    vec = arrival_times(rate, 4.0, poisson=False, rng=np.random.default_rng(0))
    ref = _scalar_arrivals(rate, 4.0, False, np.random.default_rng(0))
    assert vec.tolist() == ref.tolist()


@pytest.mark.parametrize("seed", [0, 3, 7919])
@pytest.mark.parametrize("rate", [2.0, 5.0, 40.0])
def test_poisson_arrivals_match_scalar_draws(rate, seed):
    # same Generator stream: bulk fills and per-request scalar draws
    # consume identical bits, so the instants agree float for float
    vec = arrival_times(rate, 3.0, poisson=True, rng=np.random.default_rng(seed))
    ref = _scalar_arrivals(rate, 3.0, True, np.random.default_rng(seed))
    assert vec.tolist() == ref.tolist()


class _ScriptedGaps:
    """A stand-in generator serving scripted gap blocks.

    A bulk draw returns the next whole block whatever ``size`` asks for;
    scalar draws walk the same blocks one gap at a time, so both paths
    see one gap stream.  The blocks end in a 0.3 s gap forever.
    """

    def __init__(self, blocks):
        self.blocks = [list(b) for b in blocks]
        self.pending: list[float] = []

    def _next_block(self):
        return self.blocks.pop(0) if self.blocks else [0.3] * 16

    def exponential(self, scale, size=None):
        if size is not None:
            return np.asarray(self._next_block())
        if not self.pending:
            self.pending = self._next_block()
        return self.pending.pop(0)


def test_poisson_horizon_follows_the_sequential_sum():
    # 1.0 + 1e-16 rounds back to 1.0 at every sequential step, so the
    # chain stays on the horizon for 31 gaps; a pairwise sum of the
    # first block rounds past 1.0 and would stop the wave after 16
    blocks = [[1.0] + [1e-16] * 15, [1e-16] * 16]
    vec = arrival_times(16.0, 1.0, poisson=True, rng=_ScriptedGaps(blocks))
    ref = _scalar_arrivals(16.0, 1.0, True, _ScriptedGaps(blocks))
    assert len(ref) == 33
    assert vec.tolist() == ref.tolist()


def test_arrivals_always_include_time_zero():
    assert arrival_times(0.01, 1.0, False, np.random.default_rng(0)).tolist() == [0.0]


# -- wave_admissions vs the scalar TokenBucket (satellite: hypothesis) -----


@given(
    ratio=st.one_of(
        st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
        st.sampled_from([0.0, 0.25, 1.0 / 3.0, 0.5, 0.75, 1.0]),
    ),
    burst=st.floats(min_value=1.0, max_value=8.0, allow_nan=False),
    n=st.integers(min_value=0, max_value=400),
)
@settings(max_examples=200, deadline=None)
def test_wave_admissions_match_scalar_bucket(ratio, burst, n):
    bucket = TokenBucket(ratio=ratio, burst=burst)
    decisions = []
    credits = []
    for _ in range(n):
        decisions.append(bucket.allow())
        credits.append(bucket.credit)
    mask, admitted = wave_admissions(ratio, n)
    assert mask.tolist() == decisions
    assert int(admitted[-1]) == bucket.admitted if n else bucket.admitted == 0
    # credit levels are float-exact, not just close
    assert admission_credits(ratio, admitted, burst).tolist() == credits


def test_fast_forward_reaches_scalar_state():
    bucket = TokenBucket(ratio=0.4, burst=2.0)
    for _ in range(137):
        bucket.allow()
    jumped = TokenBucket(ratio=0.4, burst=2.0)
    jumped.fast_forward(137, bucket.admitted)
    assert jumped.offered == bucket.offered
    assert jumped.admitted == bucket.admitted
    assert jumped.credit == bucket.credit
    # and the *next* decision agrees too
    assert jumped.allow() == bucket.allow()


def test_fast_forward_rejects_impossible_counts():
    bucket = TokenBucket(ratio=0.5, burst=1.0)
    with pytest.raises(ValueError):
        bucket.fast_forward(3, 5)
    with pytest.raises(ValueError):
        bucket.fast_forward(-1, 0)


# -- fifo_deliveries -------------------------------------------------------


def _scalar_fifo(arrivals, airtime):
    busy = 0.0
    out = []
    for a in arrivals:
        start = a if a > busy else busy
        busy = start + airtime
        out.append(busy)
    return out


def test_fifo_uncontended_fast_path():
    arrivals = np.array([0.0, 1.0, 2.0, 3.5])
    assert fifo_deliveries(arrivals, 0.25).tolist() == _scalar_fifo(arrivals, 0.25)


def test_fifo_contended_exact_scan():
    # arrivals faster than the airtime: every frame queues
    arrivals = np.cumsum(np.full(50, 0.01))
    assert fifo_deliveries(arrivals, 0.03).tolist() == _scalar_fifo(arrivals, 0.03)


@given(
    gaps=st.lists(
        st.floats(min_value=1e-4, max_value=0.5, allow_nan=False),
        min_size=1,
        max_size=60,
    ),
    airtime=st.floats(min_value=1e-4, max_value=0.2, allow_nan=False),
)
@settings(max_examples=100, deadline=None)
def test_fifo_matches_scalar_replay(gaps, airtime):
    arrivals = np.cumsum(np.asarray(gaps))
    assert fifo_deliveries(arrivals, airtime).tolist() == _scalar_fifo(
        arrivals, airtime
    )


# -- merge_arrival_order ---------------------------------------------------


def test_merge_numbers_globally_in_time_order():
    a = np.array([0.0, 0.2, 0.4])
    b = np.array([0.0, 0.3])
    ids_a, ids_b = merge_arrival_order([a, b])
    # t=0 ties break by task seeding order
    assert ids_a.tolist() == [0, 2, 4]
    assert ids_b.tolist() == [1, 3]


def test_merge_simultaneous_grids_interleave_by_chain_history():
    # identical grids: every instant ties, resolved by task position
    grid = np.array([0.0, 0.5, 1.0])
    ids = merge_arrival_order([grid.copy(), grid.copy()])
    assert ids[0].tolist() == [0, 2, 4]
    assert ids[1].tolist() == [1, 3, 5]


def test_merge_empty():
    assert merge_arrival_order([]) == []
