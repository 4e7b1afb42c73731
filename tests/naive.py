"""Independent reference oracles, deliberately naive.

Scalar double loops, brute-force enumeration, and plain finite differences.
Tests compare the production kernels against these.  One oracle,
`full_recompute_loglike`, is built on a package kernel; every other one
touches none of the package's code paths.
"""

from __future__ import annotations

import math
from itertools import product

import numpy as np

from parmcmc.glm import loglike


def naive_loglike(x, y, beta) -> float:
    """Scalar double-loop logistic log-likelihood."""
    x = np.asarray(x)
    total = 0.0
    for n in range(x.shape[0]):
        t = 0.0
        for k in range(x.shape[1]):
            t += float(x[n, k]) * float(beta[k])
        if t >= 0:
            lse = math.log1p(math.exp(-t))
        else:
            lse = -t + math.log1p(math.exp(t))
        total -= (1.0 - float(y[n])) * t + lse
    return total


def naive_grad(x, y, beta) -> np.ndarray:
    """Scalar double-loop gradient: g_k = sum_n x_nk (y_n - sigmoid(x_n.beta))."""
    x = np.asarray(x)
    g = np.zeros(x.shape[1])
    for n in range(x.shape[0]):
        t = 0.0
        for k in range(x.shape[1]):
            t += float(x[n, k]) * float(beta[k])
        if t >= 0:
            p = 1.0 / (1.0 + math.exp(-t))
        else:
            e = math.exp(t)
            p = e / (1.0 + e)
        for k in range(x.shape[1]):
            g[k] += (float(y[n]) - p) * float(x[n, k])
    return g


def full_recompute_loglike(ws, data, k: int, delta: float, plan) -> float:
    """`loglike` at ws.beta_current with coordinate k moved by delta.

    The full O(N*K) recompute that the differential update replaces, with
    `parmcmc.sampler.diff_loglike`'s signature so a test can substitute it
    with monkeypatch and run a chain on it.  It is the one oracle here built
    on a package kernel; `loglike` is itself checked against `naive_loglike`
    (tests/test_glm.py).
    """
    beta = ws.beta_current.copy()
    beta[k] += delta
    return loglike(data, beta, plan)


def fd_gradient(func, beta, coords=None, h_scale: float = 1e-6) -> dict[int, float]:
    """Central finite differences of a scalar function of beta.

    Returns {coordinate: estimate} for the requested coordinates (all by
    default); h = h_scale * max(1, |beta_k|).
    """
    beta = np.asarray(beta, dtype=float)
    coords = range(beta.size) if coords is None else coords
    out = {}
    for k in coords:
        h = h_scale * max(1.0, abs(beta[k]))
        up = beta.copy()
        up[k] += h
        dn = beta.copy()
        dn[k] -= h
        out[k] = (func(up) - func(dn)) / (2.0 * h)
    return out


# ---------------------------------------------------------------------------
# Ising oracles
# ---------------------------------------------------------------------------

def lattice_edges(h: int, w: int) -> list[tuple[tuple[int, int], tuple[int, int]]]:
    edges = []
    for i in range(h):
        for j in range(w):
            if i + 1 < h:
                edges.append(((i, j), (i + 1, j)))
            if j + 1 < w:
                edges.append(((i, j), (i, j + 1)))
    return edges


def naive_z(s, b, w, i: int, j: int) -> float:
    """b_ij + w * sum of the up-to-4 free-boundary neighbor spins."""
    h_dim, w_dim = np.asarray(s).shape
    total = 0
    for di, dj in ((-1, 0), (1, 0), (0, -1), (0, 1)):
        ni, nj = i + di, j + dj
        if 0 <= ni < h_dim and 0 <= nj < w_dim:
            total += int(s[ni, nj])
    return float(b[i, j]) + w * total


def enumerate_boltzmann(b, w) -> dict[tuple[int, ...], float]:
    """Exact stationary distribution of the sigmoid(z) Gibbs sampler.

    Unnormalized log weight (sum_i b_i s_i + w sum_edges s_i s_j) / 2,
    enumerated over all spin assignments of the (small) grid.
    """
    b = np.asarray(b, dtype=float)
    h, wd = b.shape
    edges = lattice_edges(h, wd)
    states = list(product((-1, 1), repeat=h * wd))
    logw = []
    for flat in states:
        s = np.array(flat).reshape(h, wd)
        lw = 0.5 * (float(np.sum(b * s))
                    + w * sum(int(s[a]) * int(s[c]) for a, c in edges))
        logw.append(lw)
    logw = np.array(logw)
    p = np.exp(logw - logw.max())
    p /= p.sum()
    return dict(zip(states, p))


def exact_conditional_from_joint(joint: dict, h: int, w: int, state, i: int, j: int) -> float:
    """P(s_ij = +1 | rest) computed from the enumerated joint distribution."""
    flat_idx = i * w + j
    up = list(state)
    up[flat_idx] = 1
    dn = list(state)
    dn[flat_idx] = -1
    pu, pd = joint[tuple(up)], joint[tuple(dn)]
    return pu / (pu + pd)


def naive_sweep(s, b, w, deviates: dict[tuple[int, int], float],
                order0=None, order1=None) -> np.ndarray:
    """Scalar checkerboard Gibbs sweep with an explicit node -> deviate map.

    Color 0 ((i+j) even) updates against frozen color 1, then color 1
    against the fresh color 0.  Within a color the visit order is
    configurable and must not matter.
    """
    s = np.asarray(s).copy()
    h, wd = s.shape
    colors = ([(i, j) for i in range(h) for j in range(wd) if (i + j) % 2 == 0],
              [(i, j) for i in range(h) for j in range(wd) if (i + j) % 2 == 1])
    for c in (0, 1):
        order = (order0, order1)[c]
        if order is None:
            order = colors[c]
        for (i, j) in order:
            z = naive_z(s, b, w, i, j)
            p = 1.0 / (1.0 + math.exp(-z)) if z >= 0 else math.exp(z) / (1.0 + math.exp(z))
            s[i, j] = 1 if deviates[(i, j)] < p else -1
    return s
