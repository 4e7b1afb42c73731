"""Square-lattice Ising Gibbs sampling with checkerboard coloring.

Nodes at (i+j) even and odd form a 2-coloring of the 4-neighbor lattice:
all same-color nodes are conditionally independent given the other color,
so a Gibbs sweep is two data-parallel half-updates.  Each color's spins
and biases are packed into contiguous arrays, and its neighbor table is a
(4, n) index array, one contiguous row per direction, pointing into the
*other* color's packed spins (one padding slot holding spin 0 stands in
for missing boundary neighbors).  A color's neighbor sums are then four
contiguous gathers added into one output, which turns the half-update
into branch-free vector arithmetic.

Sampling convention: a node flips to +1 with probability

    P(s_i = +1 | rest) = 1 / (1 + exp(-z_i)),   z_i = b_i + w * sum_j s_j

over its (free-boundary) neighbors.  The joint distribution these
conditionals leave invariant is P(s) ~ exp((b.s + w * sum_edges s_i s_j)/2),
which `IsingLattice.log_weight` exposes for exact small-lattice checks.

Uniform deviates are pre-assigned to nodes by packed index *before* a
color updates, so the intra-color update order is immaterial and the
trajectory is a pure function of the stream.
"""

from __future__ import annotations

import numpy as np
from scipy.special import expit

from . import parallel
from .glm import ExecPlan
from .rng import BufferKind, DeviateBuffer

__all__ = [
    "IsingLattice", "ColorPartition", "conditional_prob",
    "color_lattice", "gibbs_sweep", "denoise",
    "read_pbm", "write_pbm", "synthetic_binary_image", "flip_noise",
]

_NEIGHBOR_STEPS = ((-1, 0), (1, 0), (0, -1), (0, 1))


class IsingLattice:
    """Spin grid (int8, values +-1) with a bias grid and uniform coupling."""

    def __init__(self, s, b, w: float):
        s = np.asarray(s)
        b = np.ascontiguousarray(b, dtype=np.float64)
        if s.ndim != 2 or s.size == 0:
            raise ValueError(f"spin grid must be non-empty 2-D, got shape {s.shape}")
        if b.shape != s.shape:
            raise ValueError(f"bias shape {b.shape} != spin shape {s.shape}")
        if not np.isin(s, (-1, 1)).all():
            raise ValueError("spins must be -1 or +1")
        if not np.isfinite(b).all() or not np.isfinite(w):
            raise ValueError("bias and coupling must be finite")
        self.s = s.astype(np.int8)
        self.b = b
        self.w = float(w)

    @property
    def height(self) -> int:
        return self.s.shape[0]

    @property
    def width(self) -> int:
        return self.s.shape[1]

    @classmethod
    def from_image(cls, image01, w: float, bias_scale: float) -> "IsingLattice":
        """{0,1} pixels become {-1,+1} spins; bias = bias_scale * observed spin."""
        image01 = np.asarray(image01)
        if image01.size == 0:
            raise ValueError("empty image")
        if not np.isin(image01, (0, 1)).all():
            raise ValueError("image entries must be 0 or 1")
        spins = 2 * image01.astype(np.int8) - 1
        return cls(spins, bias_scale * spins.astype(np.float64), w)

    def log_weight(self, s=None) -> float:
        """log of the unnormalized stationary probability of state s.

        (b.s + w * sum over lattice edges of s_i s_j) / 2 -- the joint whose
        single-site conditionals are conditional_prob(z_i).
        """
        s = self.s if s is None else np.asarray(s)
        sf = s.astype(np.float64)
        pair = float(np.sum(sf[:-1, :] * sf[1:, :]) + np.sum(sf[:, :-1] * sf[:, 1:]))
        return 0.5 * (float(np.sum(self.b * sf)) + self.w * pair)


def conditional_prob(z):
    """P(s_i = +1) = 1/(1 + exp(-z)), overflow-safe; scalar or array."""
    return expit(z)


class ColorPartition:
    """Checkerboard split with per-color packed arrays.

    colors[c] are the flat (row-major) node indices of color c in scan
    order, which is also the packed order.  packed_nbr[c] is a contiguous
    (4, n_c) array: row d holds, for every node of color c, the index of
    its neighbor in direction d (up, down, left, right) within color 1-c's
    *padded* spin array, whose final slot is a permanent 0 (the boundary
    sentinel).  Each direction's row is contiguous so that neighbor_spin_sum
    gathers it with one sequential take.
    """

    def __init__(self, lat: IsingLattice):
        h, w = lat.height, lat.width
        ii, jj = np.indices((h, w))
        flat_color = ((ii + jj) % 2).ravel()
        self.colors = [np.flatnonzero(flat_color == c) for c in (0, 1)]
        pos = np.empty(h * w, dtype=np.int64)
        for c in (0, 1):
            pos[self.colors[c]] = np.arange(self.colors[c].size)

        self.packed_b = [np.ascontiguousarray(lat.b.ravel()[self.colors[c]]) for c in (0, 1)]
        # padded spin arrays: slot n_c is the sentinel and stays 0
        self._s_padded = [np.zeros(self.colors[c].size + 1) for c in (0, 1)]
        self.packed_nbr = []
        for c in (0, 1):
            sentinel = self.colors[1 - c].size
            rows = []
            for di, dj in _NEIGHBOR_STEPS:
                ni, nj = ii + di, jj + dj
                valid = ((0 <= ni) & (ni < h) & (0 <= nj) & (nj < w)).ravel()[self.colors[c]]
                nf = (np.clip(ni, 0, h - 1) * w + np.clip(nj, 0, w - 1)).ravel()[self.colors[c]]
                rows.append(np.where(valid, pos[nf], sentinel))
            self.packed_nbr.append(np.stack(rows, axis=0))
        self.pack_from(lat)

    @property
    def packed_s(self) -> list[np.ndarray]:
        return [self._s_padded[c][:-1] for c in (0, 1)]

    def pack_from(self, lat: IsingLattice) -> None:
        flat = lat.s.ravel().astype(np.float64)
        for c in (0, 1):
            self._s_padded[c][:-1] = flat[self.colors[c]]

    def unpack_into(self, lat: IsingLattice) -> None:
        flat = lat.s.ravel()
        for c in (0, 1):
            flat[self.colors[c]] = self._s_padded[c][:-1]

    def neighbor_spin_sum(self, c: int) -> np.ndarray:
        """Exact integer-valued neighbor sums for color c (fresh gather).

        Sums of at most four +-1/0 values are exact in float64, so the
        order of the adds cannot change the result.
        """
        s, nbr = self._s_padded[1 - c], self.packed_nbr[c]
        out = s.take(nbr[0])
        for d in (1, 2, 3):
            out += s.take(nbr[d])
        return out


def color_lattice(lat: IsingLattice) -> ColorPartition:
    """Build the checkerboard partition with packed per-color arrays."""
    return ColorPartition(lat)


def _half_update(part: ColorPartition, c: int, z: np.ndarray, u: np.ndarray,
                 plan: ExecPlan | None) -> None:
    """Threshold pre-assigned deviates against conditional_prob(z) for color c."""
    s_c = part.packed_s[c]
    if plan is not None and plan.workers > 1:
        blocks = parallel.partition(z.size, plan.workers)

        def task(a, b):
            def run():
                s_c[a:b] = np.where(u[a:b] < conditional_prob(z[a:b]), 1.0, -1.0)
            return run

        parallel.run_region([task(a, b) for a, b in blocks])
    else:
        s_c[:] = np.where(u < conditional_prob(z), 1.0, -1.0)


def gibbs_sweep(lat: IsingLattice, part: ColorPartition, rng_buffer: DeviateBuffer,
                plan: ExecPlan | None = None) -> None:
    """One full Gibbs sweep: update color 0 against frozen color 1, then color 1.

    Node i becomes +1 iff u_i < conditional_prob(z_i), with u_i assigned by
    packed index before the color's update.  The lattice grid is synced on
    return.
    """
    for c in (0, 1):
        z = part.packed_b[c] + lat.w * part.neighbor_spin_sum(c)
        u = rng_buffer.take(z.size)
        _half_update(part, c, z, u, plan)
    part.unpack_into(lat)


def denoise(noisy_image, w: float = 1.0, bias_scale: float = 2.0, sweeps: int = 30,
            burnin: int = 10, seed: int = 0, plan: ExecPlan | None = None,
            trace_out: list | None = None) -> np.ndarray:
    """Restore a {0,1} image: posterior mean spin sign under the Ising smoother.

    The bias field anchors each pixel to its observed value while the
    coupling rewards agreement between neighbors.  Restored pixel = sign of
    the post-burn-in mean spin (ties go to +1).  With no post-burn-in
    sweeps the input is returned unchanged.  `trace_out`, if given,
    receives the per-sweep flip fraction.
    """
    noisy_image = np.asarray(noisy_image)
    lat = IsingLattice.from_image(noisy_image, w=w, bias_scale=bias_scale)
    if sweeps < 0 or burnin < 0:
        raise ValueError("sweeps and burnin must be >= 0")
    part = color_lattice(lat)
    buf = DeviateBuffer(BufferKind.UNIFORM01, seed=seed)
    acc = np.zeros(lat.s.shape)
    kept = 0
    for t in range(sweeps):
        before = lat.s.copy() if trace_out is not None else None
        gibbs_sweep(lat, part, buf, plan)
        if trace_out is not None:
            trace_out.append(float(np.count_nonzero(lat.s != before)) / lat.s.size)
        if t >= burnin:
            acc += lat.s
            kept += 1
    if kept == 0:
        return noisy_image.astype(np.uint8).copy()
    return (acc >= 0).astype(np.uint8)


# ---------------------------------------------------------------------------
# binary image I/O and synthesis
# ---------------------------------------------------------------------------

def read_pbm(path) -> np.ndarray:
    """Read a P1 (ASCII) or P4 (raw) PBM as a (H, W) uint8 {0,1} array.

    PBM stores 1 = black; values pass through unchanged.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    tokens, offset = _pbm_header_tokens(raw)
    if len(tokens) < 3:
        raise ValueError(f"{path}: truncated PBM header")
    magic, w, h = tokens[0], int(tokens[1]), int(tokens[2])
    if w < 1 or h < 1:
        raise ValueError(f"{path}: bad dimensions {w}x{h}")
    if magic == b"P1":
        body = raw[offset:].decode("ascii", "ignore")
        lines = [line.split("#", 1)[0] for line in body.splitlines()]
        bits = [c for c in "".join(lines) if c in "01"]
        if len(bits) < w * h:
            raise ValueError(f"{path}: expected {w * h} pixels, found {len(bits)}")
        return np.array(bits[: w * h], dtype=np.uint8).reshape(h, w)
    if magic == b"P4":
        row_bytes = (w + 7) // 8
        body = raw[offset: offset + h * row_bytes]
        if len(body) < h * row_bytes:
            raise ValueError(f"{path}: expected {h * row_bytes} data bytes, found {len(body)}")
        rows = np.frombuffer(body, dtype=np.uint8).reshape(h, row_bytes)
        return np.unpackbits(rows, axis=1)[:, :w]
    raise ValueError(f"{path}: unsupported magic {magic!r} (want P1 or P4)")


def _pbm_header_tokens(raw: bytes) -> tuple[list[bytes], int]:
    """First three header tokens and the offset just past them.

    For P4 the single whitespace byte after the height is consumed, leaving
    the offset at the first data byte.
    """
    tokens: list[bytes] = []
    i = 0
    while len(tokens) < 3 and i < len(raw):
        if raw[i] in b" \t\r\n":
            i += 1
        elif raw[i] in b"#":
            while i < len(raw) and raw[i] not in b"\r\n":
                i += 1
        else:
            j = i
            while j < len(raw) and raw[j] not in b" \t\r\n":
                j += 1
            tokens.append(raw[i:j])
            i = j
            if len(tokens) == 3 and i < len(raw):
                i += 1  # the one whitespace separator before raster data
    return tokens, i


def write_pbm(path, image01, fmt: str = "P4") -> None:
    """Write a {0,1} array as PBM (raw P4 by default, or ASCII P1)."""
    img = np.asarray(image01)
    if img.ndim != 2 or img.size == 0:
        raise ValueError("image must be non-empty 2-D")
    if not np.isin(img, (0, 1)).all():
        raise ValueError("image entries must be 0 or 1")
    h, w = img.shape
    if fmt == "P1":
        with open(path, "w") as fh:
            fh.write(f"P1\n{w} {h}\n")
            for row in img:
                fh.write(" ".join("1" if v else "0" for v in row) + "\n")
    elif fmt == "P4":
        with open(path, "wb") as fh:
            fh.write(f"P4\n{w} {h}\n".encode("ascii"))
            fh.write(np.packbits(img.astype(np.uint8), axis=1).tobytes())
    else:
        raise ValueError(f"fmt must be 'P1' or 'P4', got {fmt!r}")


def synthetic_binary_image(height: int, width: int, kind: str = "two_region",
                           seed: int = 0) -> np.ndarray:
    """Deterministic {0,1} test images.

    kinds: "two_region" (vertical half split plus an offset rectangle of
    the opposite value), "all_ones", "all_zeros".
    """
    if height < 1 or width < 1:
        raise ValueError("image dimensions must be >= 1")
    if kind == "all_ones":
        return np.ones((height, width), dtype=np.uint8)
    if kind == "all_zeros":
        return np.zeros((height, width), dtype=np.uint8)
    if kind == "two_region":
        img = np.zeros((height, width), dtype=np.uint8)
        img[:, width // 2:] = 1
        img[height // 4: height // 2, width // 8: width // 3] = 1
        img[height // 2: 3 * height // 4, 2 * width // 3: 7 * width // 8] = 0
        return img
    raise ValueError(f"unknown image kind {kind!r}")


def flip_noise(image01, rate: float, seed: int = 0) -> np.ndarray:
    """Flip exactly round(rate * size) distinct pixels, chosen uniformly."""
    img = np.asarray(image01).copy()
    if not 0.0 <= rate <= 1.0:
        raise ValueError("rate must be in [0, 1]")
    n_flip = int(round(rate * img.size))
    if n_flip:
        gen = np.random.default_rng(seed)
        idx = gen.choice(img.size, size=n_flip, replace=False)
        flat = img.ravel()
        flat[idx] = 1 - flat[idx]
    return img
