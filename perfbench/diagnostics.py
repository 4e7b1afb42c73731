"""Effective sample size and split-R-hat for MCMC draws.

ESS follows Geyer's initial monotone sequence estimator (Geyer 1992,
Stat. Sci. 7) over FFT autocovariances, combined across chains as in
Vehtari, Gelman, Simpson, Carpenter and Buerkner 2021 (arXiv:1903.08008).
`bulk_ess` and `split_rhat` rank-normalize split chains first, as that
paper recommends.

Every function takes draws of one scalar quantity shaped (chains, draws).
"""

from __future__ import annotations

import numpy as np
from scipy.special import ndtri
from scipy.stats import rankdata


def _as_chains(draws) -> np.ndarray:
    x = np.asarray(draws, dtype=np.float64)
    if x.ndim == 1:
        x = x[None, :]
    if x.ndim != 2 or x.shape[1] < 4:
        raise ValueError(f"need draws shaped (chains, n >= 4), got {x.shape}")
    if not np.isfinite(x).all():
        raise ValueError("draws contain non-finite values")
    return x


def autocovariance(x) -> np.ndarray:
    """Biased (1/n) autocovariance of a 1-D series at lags 0..n-1, via FFT."""
    x = np.asarray(x, dtype=np.float64)
    n = x.size
    size = 1 << (2 * n - 1).bit_length()   # zero padding avoids circular wrap
    f = np.fft.rfft(x - x.mean(), size)
    return np.fft.irfft(f * np.conj(f), size)[:n] / n


def ess(draws) -> float:
    """Effective sample size by Geyer's initial monotone sequence.

    Autocorrelations are combined across chains (between-chain variance
    included); the pair sums rho[2k] + rho[2k+1] are truncated at the first
    non-positive one and made non-increasing before summing.
    """
    x = _as_chains(draws)
    m, n = x.shape
    acov = np.stack([autocovariance(c) for c in x])
    within = acov[:, 0].mean() * n / (n - 1)
    var_plus = within * (n - 1) / n
    if m > 1:
        var_plus += x.mean(axis=1).var(ddof=1)
    if var_plus == 0.0:
        raise ValueError("draws are constant")
    rho = 1.0 - (within - acov.mean(axis=0)) / var_plus
    rho[0] = 1.0
    pairs = rho[: 2 * (n // 2)].reshape(-1, 2).sum(axis=1)
    nonpos = np.flatnonzero(pairs <= 0.0)
    pairs = pairs[: nonpos[0] if nonpos.size else pairs.size]
    tau = -1.0 + 2.0 * np.minimum.accumulate(pairs).sum()
    # cap as Stan does, so antithetic chains cannot report an unbounded ESS
    return m * n / max(tau, 1.0 / np.log10(m * n))


def _split(x: np.ndarray) -> np.ndarray:
    half = x.shape[1] // 2
    return np.concatenate([x[:, :half], x[:, x.shape[1] - half:]])


def _rank_normalize(x: np.ndarray) -> np.ndarray:
    ranks = rankdata(x, method="average").reshape(x.shape)
    return ndtri((ranks - 0.375) / (x.size + 0.25))


def bulk_ess(draws) -> float:
    """ESS of the rank-normalized split chains."""
    return ess(_rank_normalize(_split(_as_chains(draws))))


def _rhat(x: np.ndarray) -> float:
    n = x.shape[1]
    within = x.var(axis=1, ddof=1).mean()
    between = n * x.mean(axis=1).var(ddof=1)
    return float(np.sqrt(((n - 1) / n * within + between / n) / within))


def split_rhat(draws) -> float:
    """Rank-normalized split-R-hat: max of the bulk and folded (tail) values."""
    x = _split(_as_chains(draws))
    folded = np.abs(x - np.median(x))
    return max(_rhat(_rank_normalize(x)), _rhat(_rank_normalize(folded)))
