import re
import threading
import tracemalloc

import numpy as np
import pytest

from parmcmc import hb, parallel, sampler
from parmcmc.glm import _DIFF_MIN_ROWS, DesignMatrix, diff_loglike, synthetic_logistic
from parmcmc.instrumentation import counters
from parmcmc.hb import (HbDataset, HbState, MappingMode, MappingPolicy,
                        hb_benchmark, hb_sweep, synthetic_hb_dataset)
from parmcmc.rng import BufferKind, DeviateBuffer
from parmcmc.sampler import ChainConfig, GaussianPrior, SliceWidenError, run_chain

from naive import no_hull_slice_moves


def tiny_setup(m=4, k=3, navg=200, seed=0):
    ds, betas_true = synthetic_hb_dataset(m, k, navg, seed=seed)
    prior = GaussianPrior.isotropic(k)
    return ds, betas_true, prior


def run_sweeps(ds, prior, policy, n_sweeps, seed=9):
    state = HbState(ds, prior, seed=seed)
    betas = None
    for _ in range(n_sweeps):
        betas = hb_sweep(ds, state, prior, policy)
    return betas, state


# ---------------------------------------------------------------------------
# dataset plumbing
# ---------------------------------------------------------------------------

def test_synthetic_dataset_shapes():
    ds, betas = tiny_setup(m=5, k=4, navg=50)[0:2]
    assert ds.m_groups == 5 and ds.n_cols == 4
    assert all(g.n_rows == 50 for g in ds.groups)
    assert betas.shape == (5, 4)
    assert ds.n_rows_total == 250


def test_dataset_rejects_mismatched_k():
    a, _ = synthetic_logistic(10, 3, seed=1)
    b, _ = synthetic_logistic(10, 4, seed=2)
    with pytest.raises(ValueError):
        HbDataset([a, b])
    with pytest.raises(ValueError):
        HbDataset([])


def test_policy_validation():
    for bad in (0, -2):
        with pytest.raises(ValueError, match=f"workers must be >= 1, got {bad}"):
            MappingPolicy(MappingMode.COARSE, workers=bad)
        with pytest.raises(ValueError, match=f"neval must be >= 1, got {bad}"):
            MappingPolicy(MappingMode.FINE, neval=bad)



@pytest.mark.parametrize("field", ["workers", "neval"])
def test_policy_counts_must_be_integers(field):
    # workers=1.5 used to run a sweep without a word; neval=2.5 failed inside range()
    for bad in (True, np.True_, 1.5, 2.0, np.float64(2.0)):
        with pytest.raises(TypeError, match=re.escape(f"{field} must be an integer, got {bad!r}")):
            MappingPolicy(MappingMode.COARSE, **{field: bad})
    assert getattr(MappingPolicy(MappingMode.FINE, **{field: np.int64(2)}), field) == 2

def test_policy_rejects_a_mode_name():
    # a plain string must raise, not fall through to the FINE path
    for name in ("coarse", "fine"):
        with pytest.raises(TypeError, match=f"mode must be a MappingMode, got '{name}'"):
            MappingPolicy(name, workers=2)


# ---------------------------------------------------------------------------
# mapping equivalences
# ---------------------------------------------------------------------------

def test_coarse_equals_fine_with_one_worker_bitwise():
    ds, _, prior = tiny_setup(seed=3)
    bc, _ = run_sweeps(ds, prior, MappingPolicy(MappingMode.COARSE, workers=1), 15)
    bf, _ = run_sweeps(ds, prior, MappingPolicy(MappingMode.FINE, workers=1), 15)
    for a, b in zip(bc, bf):
        assert np.array_equal(a, b)


def test_coarse_draws_do_not_depend_on_worker_count():
    ds, _, prior = tiny_setup(seed=4)
    b1, _ = run_sweeps(ds, prior, MappingPolicy(MappingMode.COARSE, workers=1), 12)
    # 6 workers over 4 groups: two workers get no group
    for workers in (3, 6):
        bw, _ = run_sweeps(ds, prior, MappingPolicy(MappingMode.COARSE, workers=workers), 12)
        for a, b in zip(b1, bw):
            assert np.array_equal(a, b)


def test_neval_does_not_change_draws():
    ds, _, prior = tiny_setup(seed=5)
    b1, s1 = run_sweeps(ds, prior, MappingPolicy(MappingMode.FINE, neval=1), 8)
    b10, s10 = run_sweeps(ds, prior, MappingPolicy(MappingMode.FINE, neval=10), 8)
    for a, b in zip(b1, b10):
        assert np.array_equal(a, b)


def test_group_chain_decomposes_to_single_group_chains():
    # fixed hyperprior: each group's HB chain must equal an independent
    # run_chain fed the identical spawned stream, and the state's counts
    # must be the sum of the chains' counts, on either sweep path
    ds, _, prior = tiny_setup(m=2, k=3, navg=120, seed=6)
    n_sweeps = 10
    for mode in MappingMode:
        betas, state = run_sweeps(ds, prior, MappingPolicy(mode, workers=2),
                                  n_sweeps, seed=17)
        solos = []
        for m in range(ds.m_groups):
            solo = run_chain(ds.groups[m], prior,
                             ChainConfig(n_iter=n_sweeps, n_burnin=0),
                             rng=DeviateBuffer(BufferKind.UNIFORM01, seed=17, owner=(m,)))
            assert np.array_equal(solo.draws[-1], betas[m])
            solos.append(solo)
        assert state.total_evals == sum(solo.accept_evals for solo in solos)
        assert state.stats.reused == sum(solo.reused for solo in solos) > 0


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_coarse_lockstep_on_ragged_groups_matches_single_group_chains(workers):
    # two equal-size groups share a lockstep bucket; the 57-row and the
    # 1-row group each step alone
    groups = [synthetic_logistic(n, 3, seed=40 + i)[0] for i, n in enumerate((120, 120, 57, 1))]
    ds = HbDataset(groups)
    prior = GaussianPrior.isotropic(3)
    betas, _ = run_sweeps(ds, prior, MappingPolicy(MappingMode.COARSE, workers=workers),
                          6, seed=21)
    for m, group in enumerate(groups):
        solo = run_chain(group, prior, ChainConfig(n_iter=6, n_burnin=0),
                         rng=DeviateBuffer(BufferKind.UNIFORM01, seed=21, owner=(m,)))
        assert np.array_equal(solo.draws[-1], betas[m])


def test_sweep_rejects_a_state_built_for_another_dataset():
    ds_a, _, prior = tiny_setup(m=3, k=3, navg=50, seed=14)
    ds_b, _, _ = tiny_setup(m=3, k=3, navg=50, seed=15)   # same shape, other data
    ds_c, _, _ = tiny_setup(m=4, k=3, navg=50, seed=14)   # one group more
    for mode in MappingMode:
        policy = MappingPolicy(mode, workers=2)
        for other in (ds_b, ds_c):
            with pytest.raises(ValueError, match="different dataset"):
                hb_sweep(other, HbState(ds_a, prior, seed=1), prior, policy)


def test_sweep_rejects_a_prior_of_another_dimension():
    # a 3-coordinate prior on 2-column groups used to run on its first two coordinates
    ds, _, prior = tiny_setup(m=2, k=2, navg=50, seed=16)
    state = HbState(ds, prior, seed=1)
    wide = GaussianPrior(np.full(3, 5.0), np.full(3, 0.1))
    for mode in MappingMode:
        with pytest.raises(ValueError, match="prior dimension does not match dataset"):
            hb_sweep(ds, state, wide, MappingPolicy(mode, workers=2))
    assert all(buf.consumed == 0 for buf in state.buffers)


def test_coarse_updates_run_on_the_calling_thread(monkeypatch):
    # with neval == 1 a COARSE sweep opens no multi-task region at any
    # worker count: the lockstep driver commits every draw on the caller
    ds, _, prior = tiny_setup(m=4, k=3, navg=80, seed=16)
    b1, _ = run_sweeps(ds, prior, MappingPolicy(MappingMode.COARSE, workers=1), 3)

    def no_fork(tasks):
        raise AssertionError(f"a {len(tasks)}-task region was submitted")

    threads = set()
    commit = hb.commit_update

    def recording_commit(*args):
        threads.add(threading.current_thread())
        commit(*args)

    monkeypatch.setattr(parallel, "_submit", no_fork)
    monkeypatch.setattr(hb, "commit_update", recording_commit)
    b2, _ = run_sweeps(ds, prior, MappingPolicy(MappingMode.COARSE, workers=2), 3)
    assert threads == {threading.current_thread()}
    for a, b in zip(b1, b2):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("block_elems", [1, 250])
def test_lockstep_row_blocks_do_not_change_draws(monkeypatch, block_elems):
    # a lockstep round evaluates its groups in row blocks; 1 element makes
    # every block one group, 250 splits the 120-row bucket 2 + 1
    groups = [synthetic_logistic(n, 3, seed=70 + i)[0] for i, n in enumerate((120, 120, 57, 120))]
    ds = HbDataset(groups)
    prior = GaussianPrior.isotropic(3)
    policy = MappingPolicy(MappingMode.COARSE, workers=2)
    runs = []
    for elems in (hb._BLOCK_ELEMS, block_elems):
        monkeypatch.setattr(hb, "_BLOCK_ELEMS", elems)
        counters.reset()
        betas, state = run_sweeps(ds, prior, policy, 4, seed=6)
        runs.append((np.stack(betas), state.total_evals, counters.snapshot().flops))
    assert np.array_equal(runs[0][0], runs[1][0])
    assert runs[0][1:] == runs[1][1:]


def _six_or_ragged(ragged: bool) -> HbDataset:
    sizes = (300, 300, 150, 300, 77, 150, 1) if ragged else (300,) * 6
    return HbDataset([synthetic_logistic(n, 4, seed=120 + i)[0] for i, n in enumerate(sizes)])


@pytest.mark.parametrize("ragged", [False, True], ids=["6x300", "ragged"])
@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("mode", list(MappingMode))
def test_sweeps_match_no_hull_oracle(monkeypatch, mode, workers, ragged):
    # the lockstep and slice_sample_coord both hand slice_moves a slope;
    # with the hull's decisions exact, draws and streams are the oracle's
    ds = _six_or_ragged(ragged)
    prior = GaussianPrior.isotropic(4)
    policy = MappingPolicy(mode, workers=workers)
    runs = []
    for moves_fn in (sampler.slice_moves, no_hull_slice_moves):
        monkeypatch.setattr(sampler, "slice_moves", moves_fn)
        monkeypatch.setattr(hb, "slice_moves", moves_fn)
        betas, state = run_sweeps(ds, prior, policy, 3, seed=4)
        runs.append((np.stack(betas), state.total_evals, [b.consumed for b in state.buffers]))
    (betas, evals, used), (oracle, oracle_evals, oracle_used) = runs
    assert np.array_equal(betas, oracle)
    assert used == oracle_used
    assert evals < 0.8 * oracle_evals


def test_alternating_mappings_share_the_bucket_block_views():
    # FINE at 2 workers reads and commits through each workspace's row
    # views, COARSE through the bucket blocks behind them
    groups = [synthetic_logistic(n, 3, seed=60 + i)[0] for i, n in enumerate((90, 90, 41, 90, 1))]
    ds = HbDataset(groups)
    prior = GaussianPrior.isotropic(3)
    coarse = MappingPolicy(MappingMode.COARSE, workers=2)
    fine = MappingPolicy(MappingMode.FINE, workers=2)
    b_coarse, _ = run_sweeps(ds, prior, coarse, 6, seed=5)
    state = HbState(ds, prior, seed=5)
    for t in range(6):
        betas = hb_sweep(ds, state, prior, fine if t % 2 else coarse)
    for a, b in zip(b_coarse, betas):
        assert np.array_equal(a, b)
    for ws in state.workspaces:
        ws.validate(tol=1e-10)


def test_state_builds_the_transposed_x_once_into_its_bucket_blocks():
    # every workspace is built straight into row views of its bucket's
    # blocks, so no per-group copy of the transposed X is made and dropped
    groups = [synthetic_logistic(n, 8, seed=80 + i)[0]
              for i, n in enumerate((6000, 6000, 2000, 6000, 1))]
    ds = HbDataset(groups)
    prior = GaussianPrior.isotropic(8)
    xt_bytes = sum(g.x.nbytes for g in groups)
    blocks = xt_bytes + 2 * sum(g.y.nbytes for g in groups)   # plus X.beta and y
    tracemalloc.start()
    try:
        state = HbState(ds, prior, seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert blocks <= peak < blocks + xt_bytes / 2, (peak, blocks)
    for bucket in state.buckets:
        for ws in bucket.workspaces:
            assert np.shares_memory(ws.xt, bucket.xt)
            assert np.shares_memory(ws.xbeta, bucket.xbeta)
    for ws, group in zip(state.workspaces, groups):
        assert ws.n_rows == group.n_rows
        ws.validate(tol=0.0)


def test_fine_above_the_row_floor_forks_and_matches_coarse():
    # groups large enough for diff_loglike to split them over 2 workers:
    # every FINE evaluation merges two blocks, and the draws stay COARSE's
    groups = [synthetic_logistic(2 * _DIFF_MIN_ROWS, 2, seed=90 + i)[0] for i in range(2)]
    ds = HbDataset(groups)
    prior = GaussianPrior.isotropic(2)
    b_coarse, _ = run_sweeps(ds, prior, MappingPolicy(MappingMode.COARSE, workers=2), 3)
    counters.reset()
    b_fine, state = run_sweeps(ds, prior, MappingPolicy(MappingMode.FINE, workers=2), 3)
    assert counters.snapshot().merge_events == 2 * state.total_evals > 0
    np.testing.assert_allclose(np.stack(b_fine), np.stack(b_coarse), rtol=1e-9, atol=1e-12)


def test_alternating_mappings_above_the_row_floor_never_share_a_stored_loglike():
    # FINE sums these groups over 2 row blocks, COARSE over 1, and the two
    # round differently: a value one mapping stored is a miss for the other,
    # so alternating them evaluates as often as clearing every stored value
    groups = [synthetic_logistic(2 * _DIFF_MIN_ROWS, 2, seed=90 + i)[0] for i in range(2)]
    ds = HbDataset(groups)
    prior = GaussianPrior.isotropic(2)
    policies = [MappingPolicy(mode, workers=2) for mode in (MappingMode.COARSE, MappingMode.FINE)]
    runs, split_rounds = [], 0
    for clear in (False, True):
        state = HbState(ds, prior, seed=9)
        betas = []
        for t in range(6):
            for ws in state.workspaces:
                if clear:
                    ws._stored = None
                blocks = 1 + t % 2
                stored = ws.stored_loglike(blocks)
                fresh = diff_loglike(ws, 0, 0.0, blocks)
                assert stored is None or stored == fresh
                other = diff_loglike(ws, 0, 0.0, 3 - blocks)
                split_rounds += fresh != other
            betas.append(np.stack(hb_sweep(ds, state, prior, policies[t % 2])))
        runs.append((np.stack(betas), state.total_evals))
    (betas, evals), (cleared, cleared_evals) = runs
    assert np.array_equal(betas, cleared)
    assert evals == cleared_evals
    assert split_rounds > 0  # the two row splits do round differently here


@pytest.mark.parametrize("mode", list(MappingMode))
def test_separated_group_raises_slice_widen_error(mode):
    # y = 1 exactly where x0 > 0: the likelihood keeps rising along beta_0
    # and a near-flat prior cannot stop the stepping-out
    ds, _, _ = tiny_setup(m=3, k=2, navg=60, seed=12)
    x = ds.groups[1].x
    groups = list(ds.groups)
    groups[1] = DesignMatrix(x, (x[:, 0] > 0).astype(float))
    ds = HbDataset(groups)
    prior = GaussianPrior.isotropic(2, sigma=1e6)
    with pytest.raises(SliceWidenError):
        hb_sweep(ds, HbState(ds, prior, seed=2), prior, MappingPolicy(mode, workers=2))


def test_coarse_and_fine_account_equal_flops_and_evals():
    ds, _, prior = tiny_setup(m=4, k=3, navg=150, seed=13)
    flops, evals = {}, {}
    for mode in MappingMode:
        state = HbState(ds, prior, seed=8)
        counters.reset()
        hb_sweep(ds, state, prior, MappingPolicy(mode, workers=2))
        flops[mode] = counters.snapshot().flops
        evals[mode] = state.total_evals
    assert flops[MappingMode.COARSE] == flops[MappingMode.FINE] > 0
    assert evals[MappingMode.COARSE] == evals[MappingMode.FINE] > 0


def _batch_means_se(samples: np.ndarray, n_batches: int = 10) -> np.ndarray:
    """Autocorrelation-aware standard error of the mean via batch means."""
    usable = (samples.shape[0] // n_batches) * n_batches
    batches = samples[:usable].reshape(n_batches, -1, *samples.shape[1:]).mean(axis=1)
    return batches.std(axis=0, ddof=1) / np.sqrt(n_batches)


def test_fine_worker_count_statistical_invariance():
    ds, _, prior = tiny_setup(m=3, k=3, navg=400, seed=7)
    means, ses = [], []
    for workers in (1, 4):
        state = HbState(ds, prior, seed=23)
        kept = []
        for t in range(460):
            betas = hb_sweep(ds, state, prior, MappingPolicy(MappingMode.FINE, workers=workers))
            if t >= 60:
                kept.append(np.stack(betas))
        kept = np.stack(kept)
        means.append(kept.mean(axis=0))
        ses.append(_batch_means_se(kept))
    gap = np.abs(means[0] - means[1])
    bound = 3.0 * np.sqrt(ses[0] ** 2 + ses[1] ** 2)
    assert np.all(gap <= bound), (gap, bound)


# ---------------------------------------------------------------------------
# benchmark grid
# ---------------------------------------------------------------------------

def test_benchmark_grid_complete_and_positive():
    ds, _, prior = tiny_setup(m=3, k=3, navg=100, seed=8)
    policies = [MappingPolicy(mode, workers=w, neval=ne)
                for mode in (MappingMode.COARSE, MappingMode.FINE)
                for w in (1, 2) for ne in (1, 10)]
    records = hb_benchmark(ds, prior, policies, n_sweeps=2, reps=2, seed=1)
    assert len(records) == len(policies)
    labels = {(r.label, r.workers) for r in records}
    assert ("hb/coarse/neval1", 1) in labels and ("hb/fine/neval10", 2) in labels
    for r in records:
        assert r.cpr > 0 and np.isfinite(r.cpr)
        assert r.wall_seconds > 0
        assert r.n_rows == ds.n_rows_total
        assert r.cpr == pytest.approx(2.6e9 * r.wall_seconds / (r.evals * r.n_rows))


def test_benchmark_reruns_reproduce_draw_streams():
    ds, _, prior = tiny_setup(m=3, k=3, navg=80, seed=9)
    policy = MappingPolicy(MappingMode.COARSE, workers=2, neval=2)
    finals = []
    for _ in range(2):
        state = HbState(ds, prior, seed=31)
        for _ in range(4):
            betas = hb_sweep(ds, state, prior, policy)
        finals.append(np.stack(betas))
    np.testing.assert_array_equal(finals[0], finals[1])
