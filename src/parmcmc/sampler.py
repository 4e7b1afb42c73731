"""Univariate slice-within-Gibbs sampling for Bayesian logistic regression.

Coordinates are swept in fixed ascending order; each coordinate draw uses
Neal's stepping-out/shrinkage slice sampler on the conditional posterior,
written once as the `slice_moves` generator, which yields the points to
evaluate and is sent their log posteriors.  The conditional is concave (a
logistic likelihood times a Gaussian prior), so the generator keeps an exact
concave hull -- the tangent at the current point plus chords and secants of
the values already sent -- and yields only the points whose slice test the
hull cannot decide.  `slice_sample_coord` drives it with the
differential-update fast path (O(N) per evaluation instead of O(N*K)) and
one O(N) slope pass per draw, `hb` drives many groups in lockstep; both take
the first point's L from the workspace when the previous draw stored it
(about 70% of draws), for about 3.7 evaluations per draw instead of 7.4 on
the benchmark's 5000 x 5 chain, with the same draws.  The tests keep a full
recompute and the sampler without its hull as oracles that chains must
match draw for draw.

All randomness is consumed from a DeviateBuffer, so a chain is a pure
function of (data, prior, config, workers) and the buffer's stream identity.
"""

from __future__ import annotations

import bisect
import math
import time
from dataclasses import dataclass

import numpy as np

from .glm import (DesignMatrix, GlmWorkspace, _coord_slope, _diff_blocks, commit_update,
                  diff_loglike, loglike_grad)
from .rng import BufferKind, DeviateBuffer

__all__ = [
    "GaussianPrior", "ChainConfig", "ChainOutput", "SliceStats",
    "SliceShrinkError", "SliceWidenError", "log_posterior_coord", "slice_moves",
    "slice_sample_coord", "run_chain", "write_draws_csv",
]


class SliceWidenError(RuntimeError):
    """Stepping-out exceeded slice_max_steps: the target is pathological."""


class SliceShrinkError(RuntimeError):
    """Shrinkage found no point above the slice level: the target is pathological."""


@dataclass(frozen=True)
class GaussianPrior:
    """Diagonal Gaussian prior: independent N(mu_k, sigma_k^2) per coordinate."""

    mu: np.ndarray
    sigma: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "mu", np.ascontiguousarray(self.mu, dtype=np.float64))
        object.__setattr__(self, "sigma", np.ascontiguousarray(self.sigma, dtype=np.float64))
        if self.mu.ndim != 1 or self.mu.shape != self.sigma.shape:
            raise ValueError("mu and sigma must be 1-D vectors of equal length")
        if not np.all(self.sigma > 0):
            raise ValueError("all prior sigmas must be > 0")

    @classmethod
    def isotropic(cls, n_cols: int, sigma: float = 1.0) -> "GaussianPrior":
        """Zero-mean prior with the same sigma on every coordinate."""
        return cls(np.zeros(n_cols), np.full(n_cols, sigma))

    def logpdf_coord(self, k: int, value: float) -> float:
        """Log density at one coordinate, dropping beta_k-independent constants."""
        z = (value - self.mu[k]) / self.sigma[k]
        return -0.5 * z * z

    def slope_coord(self, k: int, value: float) -> float:
        """Derivative of logpdf_coord in value."""
        return -(value - self.mu[k]) / (self.sigma[k] * self.sigma[k])


@dataclass(frozen=True)
class ChainConfig:
    n_iter: int
    n_burnin: int
    seed: int = 0
    slice_width: float = 1.0
    slice_max_steps: int = 50

    def __post_init__(self):
        if self.n_iter < 1:
            raise ValueError("n_iter must be >= 1")
        if not 0 <= self.n_burnin < self.n_iter:
            raise ValueError("need 0 <= n_burnin < n_iter")
        if not 0 < self.slice_width < math.inf:
            raise ValueError(f"slice_width must be finite and > 0, got {self.slice_width}")
        if self.slice_max_steps < 1:
            raise ValueError("slice_max_steps must be >= 1")


@dataclass
class ChainOutput:
    draws: np.ndarray        # (n_iter - n_burnin, K)
    accept_evals: int        # total conditional-posterior evaluations
    wall_time: float
    reused: int = 0          # first answers taken from the stored L at beta_current


@dataclass
class SliceStats:
    evals: int = 0
    reused: int = 0          # first answers taken from the stored L, not evaluated


def log_posterior_coord(ws: GlmWorkspace, prior: GaussianPrior, k: int,
                        delta: float = 0.0, workers: int = 1) -> float:
    """Conditional log posterior of beta_k at beta_current[k] + delta.

    Likelihood through diff_loglike, plus the prior's k-term; constants in
    beta_k are dropped.
    """
    ll = diff_loglike(ws, k, delta, workers)
    return ll + prior.logpdf_coord(k, ws.beta_current[k] + delta)


def _posterior_slope(ws: GlmWorkspace, prior: GaussianPrior, k: int) -> float:
    """Slope of the conditional log posterior of beta_k at beta_current[k]."""
    x0 = ws.beta_current[k]
    return float(_coord_slope(ws.xbeta, ws.xt[k], ws.xt_dy[k]) + prior.slope_coord(k, x0))


_MAX_SHRINK = 1000

#: relative margin by which a hull bound must clear the slice level
_HULL_TOL = 1e-9


class _Hull:
    """Exact bounds on a concave f from the values it was sent: the knots.

    The tangent at x0 and the secant of the two knots on either side of p
    bound f(p) from above; the chord of the two knots around p bounds it from
    below.  A bound decides only when it clears the level by its margin: the
    tolerance, scaled by the largest magnitude among the level and the values
    it uses, times its error gain (see slice_moves).
    """

    def __init__(self, x0: float, f0: float, slope0: float, level: float):
        self.x0, self.f0, self.slope0, self.level = x0, f0, slope0, level
        self.mag = max(abs(level), abs(f0))
        self.xs, self.fs = [], []
        self.add(x0, f0)

    def _tol(self, fa: float, fb: float) -> float:
        return _HULL_TOL * (1.0 + max(self.mag, abs(fa), abs(fb)))

    def decide(self, p: float) -> bool | None:
        """Whether f(p) > level, or None when no bound clears the level by its margin."""
        xs, fs, level = self.xs, self.fs, self.level
        i = bisect.bisect_left(xs, p)
        n = len(xs)
        if i < n and xs[i] == p:  # a deviate of 0 repeats a point already sent
            return fs[i] > level
        d = p - self.x0
        bound = self.f0 + self.slope0 * d
        if bound < level and level - bound > _HULL_TOL * (1.0 + self.mag) * (1.0 + abs(d)):
            return False
        if 0 < i < n:  # chord of the knots around p; error gain 2
            a, b, fa, fb = xs[i - 1], xs[i], fs[i - 1], fs[i]
            bound = fa + (fb - fa) * ((p - a) / (b - a))
            if bound > level and bound - level > 2.0 * self._tol(fa, fb):
                return True
        if i > 1:  # secant of the two knots left of p, extended right
            a, b, fa, fb = xs[i - 2], xs[i - 1], fs[i - 2], fs[i - 1]
            bound = fb + (fb - fa) * ((p - b) / (b - a))
            gain = 1.0 + (2.0 * p - a - b) / (b - a)
            if bound < level and level - bound > gain * self._tol(fa, fb):
                return False
        if i + 1 < n:  # secant of the two knots right of p, extended left
            a, b, fa, fb = xs[i], xs[i + 1], fs[i], fs[i + 1]
            bound = fa + (fb - fa) * ((p - a) / (b - a))
            gain = 1.0 + (a + b - 2.0 * p) / (b - a)
            if bound < level and level - bound > gain * self._tol(fa, fb):
                return False
        return None

    def add(self, x: float, f: float) -> bool:
        """Record the value sent for x as a knot (unless -inf or NaN); whether f > level."""
        if -math.inf < f < math.inf:
            i = bisect.bisect_left(self.xs, x)
            self.xs.insert(i, x)
            self.fs.insert(i, f)
        return f > self.level


def slice_moves(x0: float, k: int, rng: DeviateBuffer, cfg: ChainConfig, slope0: float):
    """Neal's stepping-out and shrinkage for coordinate k, as a generator.

    Yields each point to evaluate, starting with x0, and must be sent the
    log posterior there; returns the draw.  Stepping-out starts from width
    cfg.slice_width and takes at most cfg.slice_max_steps expansions per
    side, else raises SliceWidenError; shrinkage that accepts no point in
    _MAX_SHRINK tries raises SliceShrinkError.  Only the slice_* fields of
    cfg are read here.  The generator owns every read of `rng`, so any
    driver that sends the same values consumes the stream identically.

    The target must be concave in x, and `slope0` must be its slope at x0 (a
    supergradient where it has no slope): only log-concave targets, the
    logistic likelihood times a GaussianPrior, reach this code.  Each test
    "f(p) > level" is first put to an exact concave hull of the values
    already sent, in the manner of adaptive rejection sampling's hull
    (Gilks & Wild 1992): the tangent at x0 and the secant of an adjacent
    pair of knots not containing p bound f(p) from above, the chord of the
    two knots around p bounds it from below, and a point equal to a knot
    takes its value.  Only a test no bound decides yields p; a decided test
    reads no value, and every rng read stays where it is without the hull,
    so the draws, the stream, the step counts and the errors raised are the
    same -- only fewer points are yielded.  Values of -inf or NaN add no knot.

    Why a decision equals the comparison of the value that would be sent:
    let f be the exact target for the stored X.beta and f^ the computed one.
    A line through exact values of a concave f is a true bound, so a line
    through computed values misses it by at most the values' errors times
    the magnitudes of their weights: at most 2 for the chord, 1 + (|p - a| +
    |p - b|) / (b - a) for a line through knots a < b counting p's own
    error, and 1 + |p - x0| for the tangent, whose slope error enters times
    |p - x0|.  Each margin is delta = 1e-9 * (1 + m) times that gain, m the
    largest magnitude among the level and the values the bound uses.  So a
    decision equals the comparison f^(p) > level whenever the values the
    bound uses, p's own, and the slope all carry errors below delta / 4
    (forming the bound adds only a few eps m).  A value is a sum of N terms
    of magnitude at most |t_n| + 1 (t = X.beta at the point), and |t_n| is
    at most the row's (nonnegative) term of -L on every row the fit gets
    wrong, so its rounding error is a few eps per unit of |L|, plus eps
    sum |t_n| over the rows fit right; the slope's error is a few eps
    ||x_k||_1.  Measured against extended precision, the errors were
    below 1e-6 delta on 5000 x 5 and 200000 x 5 logistic data, and 2e-3
    delta on 5000 rows separated with mean |t_n| = 67 and L = -47.
    """
    f0 = yield x0
    # 1 - u lies in (0,1], keeping the level strictly below f0 almost surely
    hull = _Hull(x0, f0, slope0, f0 + math.log(1.0 - rng.next()))

    width = cfg.slice_width
    left = x0 - rng.next() * width
    ends = [left, left + width]
    for side, step in ((0, -width), (1, width)):
        steps = 0
        while True:
            above = hull.decide(ends[side])
            if above is None:
                above = hull.add(ends[side], (yield ends[side]))
            if not above:
                break
            ends[side] += step
            steps += 1
            if steps > cfg.slice_max_steps:
                raise SliceWidenError(
                    f"stepping-out exceeded {cfg.slice_max_steps} steps (coordinate {k})")
    left, right = ends

    for _ in range(_MAX_SHRINK):
        x1 = left + rng.next() * (right - left)
        above = hull.decide(x1)
        if above is None:
            above = hull.add(x1, (yield x1))
        if above:
            return x1
        if x1 < x0:
            left = x1
        else:
            right = x1
        if right - left < 1e-12 * (1.0 + abs(x0)):
            return x0  # degenerate slice; keep the current point
    raise SliceShrinkError(f"slice shrinkage failed to accept (coordinate {k})")


def slice_sample_coord(ws: GlmWorkspace, prior: GaussianPrior, k: int, rng: DeviateBuffer,
                       cfg: ChainConfig, workers: int = 1,
                       stats: SliceStats | None = None) -> float:
    """Draw beta_k from its conditional posterior and commit it to the workspace.

    Drives `slice_moves` with one diff_loglike evaluation plus the prior
    term per point it yields, after one O(N) pass on the calling thread for
    the slope its hull needs at the current point.  x0 is answered from the
    stored L when it was summed over as many row blocks as `workers` gives,
    and L is stored again after the commit if the draw was last evaluated.
    """
    stats = stats if stats is not None else SliceStats()
    x0 = float(ws.beta_current[k])
    blocks = _diff_blocks(ws.n_rows, workers)
    moves = slice_moves(x0, k, rng, cfg, _posterior_slope(ws, prior, k))
    x, d = next(moves), 0.0
    ll = ws.stored_loglike(blocks)
    stats.reused += ll is not None
    try:
        while True:
            if ll is None:
                stats.evals += 1
                ll = diff_loglike(ws, k, d, workers)
            x = moves.send(ll + prior.logpdf_coord(k, x0 + d))
            d, ll = x - x0, None
    except StopIteration as done:
        commit_update(ws, k, done.value - x0)
        if done.value == x:
            ws.store_loglike(ll, blocks)
        return done.value


def _check_slopes(ws: GlmWorkspace, prior: GaussianPrior) -> None:
    """Each coordinate's slope against a full gradient; raises AssertionError if off by 1e-8."""
    g = loglike_grad(ws.data, ws.beta_current).g
    for k in range(ws.n_cols):
        got = _posterior_slope(ws, prior, k)
        want = g[k] + prior.slope_coord(k, ws.beta_current[k])
        if abs(got - want) > 1e-8 * max(abs(want), 1.0):
            raise AssertionError(f"slope of coordinate {k} is {got!r}, gradient gives {want!r}")


def run_chain(data: DesignMatrix, prior: GaussianPrior, cfg: ChainConfig,
              workers: int = 1, rng: DeviateBuffer | None = None,
              debug: bool = False) -> ChainOutput:
    """Systematic-scan Gibbs chain; burn-in draws are discarded.

    The chain starts at the prior mean.  `rng` overrides the default
    cfg.seed-keyed uniform buffer (used to splice a chain into an
    externally managed stream, e.g. a hierarchical per-group stream).
    With debug=True, every 100 iterations the workspace is recomputed and
    checked to 1e-8 per element, and each coordinate's slope against
    `loglike_grad` to 1e-8 relative; after every iteration the stored L at
    beta_current, if any, must equal a fresh diff_loglike exactly.  A
    mismatch raises AssertionError.
    """
    if prior.mu.shape != (data.n_cols,):
        raise ValueError(f"prior has {prior.mu.shape[0]} coordinates, data has {data.n_cols}")
    blocks = _diff_blocks(data.n_rows, workers)
    if rng is None:
        rng = DeviateBuffer(BufferKind.UNIFORM01, seed=cfg.seed)
    ws = GlmWorkspace(data, prior.mu)
    stats = SliceStats()
    kept = cfg.n_iter - cfg.n_burnin
    draws = np.empty((kept, data.n_cols))
    t0 = time.perf_counter()
    for it in range(cfg.n_iter):
        for k in range(data.n_cols):
            slice_sample_coord(ws, prior, k, rng, cfg, workers, stats)
        if it >= cfg.n_burnin:
            draws[it - cfg.n_burnin] = ws.beta_current
        stored = ws.stored_loglike(blocks) if debug else None
        if stored is not None and stored != (fresh := diff_loglike(ws, 0, 0.0, workers)):
            raise AssertionError(f"stored L at beta_current is {stored!r}, "
                                 f"a fresh evaluation gives {fresh!r}")
        if debug and (it + 1) % 100 == 0:
            ws.validate(tol=1e-8)
            _check_slopes(ws, prior)
    wall = time.perf_counter() - t0
    if not np.isfinite(draws).all():
        raise RuntimeError("chain produced non-finite draws")
    return ChainOutput(draws=draws, accept_evals=stats.evals, wall_time=wall,
                       reused=stats.reused)


def write_draws_csv(output: ChainOutput, path) -> None:
    """One row per retained draw; header row carries the coordinate indices."""
    k = output.draws.shape[1]
    with open(path, "w") as fh:
        fh.write(",".join(str(i) for i in range(k)) + "\n")
        np.savetxt(fh, output.draws, delimiter=",", fmt="%.17g")
