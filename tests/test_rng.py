import numpy as np
import pytest
from scipy import stats

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
