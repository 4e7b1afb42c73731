import sys
import threading
from concurrent.futures import Future

import numpy as np
import pytest
from scipy import stats

from parmcmc import parallel
from parmcmc.rng import (BenchDist, BenchMode, BufferKind, DeviateBuffer,
                         GammaParams, OneAtATimeNormal, OneAtATimeUniform,
                         dirichlet_sample, gamma_sample, rng_bench,
                         write_rng_bench_csv)


# ---------------------------------------------------------------------------
# stream contract
# ---------------------------------------------------------------------------

def test_refills_are_disjoint_sequential_segments():
    buf = DeviateBuffer(BufferKind.UNIFORM01, capacity=16, seed=5)
    buf.refill()
    first = buf.data.copy()
    buf.refill()
    second = buf.data.copy()
    base = np.random.Generator(np.random.Philox(np.random.SeedSequence(5))).random(32)
    np.testing.assert_array_equal(np.concatenate([first, second]), base)
    assert buf.refills == 2


@pytest.mark.parametrize("kind", [BufferKind.UNIFORM01, BufferKind.STD_NORMAL])
@pytest.mark.parametrize("capacity", [1, 7, 64, 4096])
def test_buffer_size_invariance_is_exact(kind, capacity):
    ref = DeviateBuffer(kind, capacity=1024, seed=33)
    expected = [ref.next() for _ in range(300)]
    buf = DeviateBuffer(kind, capacity=capacity, seed=33)
    assert [buf.next() for _ in range(300)] == expected


def test_take_matches_repeated_next():
    a = DeviateBuffer(BufferKind.UNIFORM01, capacity=32, seed=2)
    b = DeviateBuffer(BufferKind.UNIFORM01, capacity=32, seed=2)
    np.testing.assert_array_equal(a.take(101), np.array([b.next() for _ in range(101)]))


def test_exhaustion_triggers_exactly_one_refill():
    buf = DeviateBuffer(BufferKind.UNIFORM01, capacity=8, seed=0)
    buf.take(8)
    assert buf.refills == 1 and buf.cursor == 8
    buf.next()
    assert buf.refills == 2 and buf.cursor == 1


def test_a_drained_take_fills_its_result_straight():
    buf = DeviateBuffer(BufferKind.UNIFORM01, capacity=8, seed=4)
    u = buf.take(29)
    base = np.random.Generator(np.random.Philox(np.random.SeedSequence(4))).random(29)
    np.testing.assert_array_equal(u, base)
    assert buf.refills == 1 and buf.generated == 29 and buf.waste_fraction == 0.0


class _FillFailed(Exception):
    pass


@pytest.mark.parametrize("kind", [BufferKind.UNIFORM01, BufferKind.STD_NORMAL])
def test_look_ahead_blocks_leave_the_stream_unchanged(kind):
    # look-ahead blocks shorter than, equal to and longer than the reads
    # that reach them, mixed with next() and takes across block ends
    ref = DeviateBuffer(kind, capacity=16, seed=12)
    buf = DeviateBuffer(kind, capacity=16, seed=12)
    got, want = [], []
    for ahead, n in ((40, 40), (5, 17), (33, 3), (1, 1), (7, 0), (16, 50)):
        buf.prefetch(ahead)
        buf.prefetch(99)  # one look-ahead block at a time: ignored
        got += list(buf.take(n)) + [buf.next()]
        want += list(ref.take(n)) + [ref.next()]
    assert got == want
    assert buf.consumed == ref.consumed
    assert 0.0 <= buf.waste_fraction < 1.0
    assert buf.generated == buf.consumed + (buf._end - buf.cursor) + (
        0 if buf._ahead is None else buf._ahead.size)


@pytest.mark.parametrize("kind", [BufferKind.UNIFORM01, BufferKind.STD_NORMAL])
def test_next_on_a_drained_block_joins_the_pending_fill(kind):
    # a block long enough that the fill is still running at the first read
    ref = DeviateBuffer(kind, capacity=16, seed=13)
    buf = DeviateBuffer(kind, capacity=16, seed=13)
    buf.prefetch(1 << 19)
    assert [buf.next() for _ in range(3)] == [ref.next() for _ in range(3)]
    assert buf._pending is None and buf.data.size == 1 << 19


def test_a_look_ahead_block_of_the_taken_size_is_returned_as_filled():
    buf = DeviateBuffer(BufferKind.UNIFORM01, capacity=8, seed=6)
    buf.prefetch(20)
    block = buf._ahead
    assert buf.take(20) is block
    assert buf.refills == 1 and buf.generated == buf.consumed == 20


def test_refill_joins_and_skips_the_look_ahead_block():
    # the block is long enough that its fill is still running at refill()
    n = 1 << 19
    buf = DeviateBuffer(BufferKind.UNIFORM01, capacity=4, seed=8)
    buf.prefetch(n)
    buf.refill()
    base = np.random.Generator(np.random.Philox(np.random.SeedSequence(8))).random(n + 4)
    np.testing.assert_array_equal(buf.data, base[n:])
    assert buf.generated == n + 4 and buf.refills == 2


class _HeldFill(Future):
    """A future whose task runs only when its result is first asked for."""

    def __init__(self, task):
        super().__init__()
        self._task = task

    def result(self, timeout=None):
        if self._task is not None:
            task, self._task = self._task, None
            self.set_result(task())
        return super().result(timeout)


def test_refill_runs_the_held_look_ahead_fill_before_its_own(monkeypatch):
    # the look-ahead fill cannot run until refill() joins it, so a refill
    # that drew its block first would take the look-ahead block's deviates
    held = []

    def submit(task):
        held.append(_HeldFill(task))
        return held[-1]

    monkeypatch.setattr(parallel, "submit", submit)
    buf = DeviateBuffer(BufferKind.UNIFORM01, capacity=4, seed=9)
    buf.next()
    buf.prefetch(6)
    assert len(held) == 1 and not held[0].done()
    buf.refill()
    assert held[0].done() and buf._pending is None and buf._ahead is None
    base = np.random.Generator(np.random.Philox(np.random.SeedSequence(9))).random(14)
    np.testing.assert_array_equal(buf.take(4), base[10:])
    assert buf.generated == 14 and buf.refills == 3


def test_a_failed_fill_raises_its_own_type_at_the_next_take(monkeypatch):
    def failing(self, out=None):
        raise _FillFailed("no deviates")

    buf = DeviateBuffer(BufferKind.UNIFORM01, capacity=8, seed=3)
    monkeypatch.setattr(DeviateBuffer, "refill", failing)
    buf.prefetch(100)
    with pytest.raises(_FillFailed, match="no deviates"):
        buf.take(100)
    assert buf._pending is None and buf._ahead is None


def test_look_ahead_streams_and_counts_hold_under_thread_contention():
    # more consumer threads than cores, each with its own buffer, all
    # prefetching through the one pool under a tiny switch interval: a
    # read that passed a pending fill, or a lost count update, shows here
    results = {}

    def consume(seed):
        buf = DeviateBuffer(BufferKind.UNIFORM01, capacity=16, seed=seed)
        got = []
        for k in range(300):
            buf.prefetch(1 + (7 * k) % 40)
            got.extend(buf.take(1 + (5 * k) % 45))
        buf.join()
        unread = buf._end - buf.cursor + (0 if buf._ahead is None else buf._ahead.size)
        results[seed] = (got, buf.generated - buf.consumed - unread)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=consume, args=(seed,)) for seed in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(interval)
    for seed, (got, miscount) in results.items():
        ref = DeviateBuffer(BufferKind.UNIFORM01, capacity=16, seed=seed)
        assert got == list(ref.take(len(got)))
        assert miscount == 0
    assert len(results) == 4


def test_owner_spawns_independent_streams():
    a = DeviateBuffer(BufferKind.UNIFORM01, seed=1, owner=(0,))
    b = DeviateBuffer(BufferKind.UNIFORM01, seed=1, owner=(1,))
    assert not np.array_equal(a.take(64), b.take(64))


def test_one_at_a_time_matches_buffered_streams():
    u_buf = DeviateBuffer(BufferKind.UNIFORM01, capacity=64, seed=9)
    u_one = OneAtATimeUniform(seed=9)
    assert [u_one.next() for _ in range(200)] == list(u_buf.take(200))
    n_buf = DeviateBuffer(BufferKind.STD_NORMAL, capacity=64, seed=10)
    n_one = OneAtATimeNormal(seed=10)
    assert [n_one.next() for _ in range(201)] == list(n_buf.take(201))


def test_buffer_rejects_a_kind_name():
    # a plain string must raise, not fall through to Box-Muller normals
    for name in ("uniform01", "std_normal"):
        with pytest.raises(TypeError, match=f"kind must be a BufferKind, got '{name}'"):
            DeviateBuffer(name, capacity=16)


def test_buffer_capacity_must_be_an_integer():
    # 2.5 and True used to be cut to capacities 2 and 1 without a word
    for bad in (2.5, 4.0, True):
        with pytest.raises(TypeError, match="capacity must be an integer"):
            DeviateBuffer(BufferKind.UNIFORM01, capacity=bad)
    buf = DeviateBuffer(BufferKind.UNIFORM01, capacity=np.int64(3), seed=4)
    assert buf.capacity == 3
    np.testing.assert_array_equal(buf.take(7), DeviateBuffer(BufferKind.UNIFORM01, seed=4).take(7))


# ---------------------------------------------------------------------------
# distributional sanity
# ---------------------------------------------------------------------------

def test_uniform_moments():
    buf = DeviateBuffer(BufferKind.UNIFORM01, seed=7)
    u = buf.take(10_000_000)
    assert abs(u.mean() - 0.5) < 0.001
    assert abs(u.var() - 1.0 / 12.0) < 0.001


def test_normal_moments():
    buf = DeviateBuffer(BufferKind.STD_NORMAL, seed=8)
    z = buf.take(10_000_000)
    assert abs(z.mean()) < 0.002
    assert 0.997 < z.var() < 1.003


def test_uniform_ks():
    buf = DeviateBuffer(BufferKind.UNIFORM01, seed=17)
    u = buf.take(100_000)
    assert stats.kstest(u, "uniform").pvalue > 0.001


def test_normal_ks():
    buf = DeviateBuffer(BufferKind.STD_NORMAL, seed=18)
    z = buf.take(100_000)
    assert stats.kstest(z, "norm").pvalue > 0.001


def _gamma_draws(alpha, rate, n, seed=0):
    u = DeviateBuffer(BufferKind.UNIFORM01, seed=seed, owner=(0,))
    nb = DeviateBuffer(BufferKind.STD_NORMAL, seed=seed, owner=(1,))
    params = GammaParams(alpha, rate)
    return np.array([gamma_sample(params, u, nb) for _ in range(n)]), (u, nb)


def test_gamma_moments_shape_two_rate_three():
    draws, _ = _gamma_draws(2.0, 3.0, 200_000, seed=4)
    assert abs(draws.mean() - 2.0 / 3.0) / (2.0 / 3.0) < 0.01
    assert abs(draws.var() - 2.0 / 9.0) / (2.0 / 9.0) < 0.02


def test_gamma_boost_path_small_alpha():
    draws, _ = _gamma_draws(0.5, 2.0, 200_000, seed=5)
    assert abs(draws.mean() - 0.25) / 0.25 < 0.01
    assert (draws > 0).all()


def test_gamma_buffered_vs_one_at_a_time_identical():
    params = GammaParams(0.7, 1.3)  # exercises the boost path too
    u_b = DeviateBuffer(BufferKind.UNIFORM01, capacity=128, seed=21, owner=(0,))
    n_b = DeviateBuffer(BufferKind.STD_NORMAL, capacity=128, seed=21, owner=(1,))
    buffered = [gamma_sample(params, u_b, n_b) for _ in range(5000)]
    u_o = OneAtATimeUniform(seed=21, owner=(0,))
    n_o = OneAtATimeNormal(seed=21, owner=(1,))
    one = [gamma_sample(params, u_o, n_o) for _ in range(5000)]
    assert buffered == one


def test_gamma_params_validation():
    with pytest.raises(ValueError):
        GammaParams(0.0, 1.0)
    with pytest.raises(ValueError):
        GammaParams(1.0, -2.0)


def test_dirichlet_k1_is_always_one():
    u = DeviateBuffer(BufferKind.UNIFORM01, seed=1, owner=(0,))
    n = DeviateBuffer(BufferKind.STD_NORMAL, seed=1, owner=(1,))
    for _ in range(50):
        np.testing.assert_array_equal(dirichlet_sample([2.5], u, n), [1.0])


def test_dirichlet_symmetric_means():
    u = DeviateBuffer(BufferKind.UNIFORM01, seed=2, owner=(0,))
    n = DeviateBuffer(BufferKind.STD_NORMAL, seed=2, owner=(1,))
    draws = np.array([dirichlet_sample([1.0, 1.0, 1.0], u, n) for _ in range(100_000)])
    np.testing.assert_allclose(draws.mean(axis=0), [1 / 3] * 3, rtol=0.01)


def test_dirichlet_asymmetric_means_and_simplex():
    u = DeviateBuffer(BufferKind.UNIFORM01, seed=3, owner=(0,))
    n = DeviateBuffer(BufferKind.STD_NORMAL, seed=3, owner=(1,))
    draws = np.array([dirichlet_sample([2.0, 3.0, 5.0], u, n) for _ in range(100_000)])
    np.testing.assert_allclose(draws.mean(axis=0), [0.2, 0.3, 0.5], rtol=0.01)
    assert np.max(np.abs(draws.sum(axis=1) - 1.0)) <= 1e-12
    assert (draws >= 0).all()


def test_dirichlet_validation():
    u = DeviateBuffer(BufferKind.UNIFORM01, seed=1)
    n = DeviateBuffer(BufferKind.STD_NORMAL, seed=1)
    with pytest.raises(ValueError):
        dirichlet_sample([], u, n)
    with pytest.raises(ValueError):
        dirichlet_sample([1.0, -1.0], u, n)


# ---------------------------------------------------------------------------
# accounting and benchmark plumbing
# ---------------------------------------------------------------------------

def test_waste_fraction_small_for_gamma_workload():
    draws, (u, n) = _gamma_draws(2.0, 3.0, 50_000, seed=6)
    generated = u.generated + n.generated
    consumed = u.consumed + n.consumed
    waste = (generated - consumed) / generated
    assert 0.0 <= waste < 0.15
    assert u.waste_fraction < 0.15 and n.waste_fraction < 0.15


def test_bench_records_complete_and_positive(tmp_path):
    records = [rng_bench(BenchDist.UNIFORM, BenchMode.BATCH, 200_000),
               rng_bench(BenchDist.UNIFORM, BenchMode.ONE_AT_A_TIME, 200_000),
               rng_bench(BenchDist.GAMMA, BenchMode.BATCH, 2_000)]
    for r in records:
        assert r.cycles_per_sample > 0 and np.isfinite(r.cycles_per_sample)
        assert 0.0 <= r.waste_fraction < 1.0
        assert r.n >= 1
    out = tmp_path / "rng.csv"
    write_rng_bench_csv(records, out)
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "dist,mode,n,cycles_per_sample,waste_fraction"
    assert len(lines) == 4


def test_bench_rejects_bad_n():
    for bad in (0, -5):
        with pytest.raises(ValueError, match=f"n must be >= 1, got {bad}"):
            rng_bench(BenchDist.UNIFORM, BenchMode.BATCH, bad)


def test_bench_rejects_dist_and_mode_names():
    # plain strings must raise, not fall through to the Dirichlet or one-at-a-time path
    with pytest.raises(TypeError, match="dist must be a BenchDist, got 'uniform'"):
        rng_bench("uniform", BenchMode.BATCH, 10)
    with pytest.raises(TypeError, match="mode must be a BenchMode, got 'batch'"):
        rng_bench(BenchDist.UNIFORM, "batch", 10)
