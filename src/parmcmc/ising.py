"""Square-lattice Ising Gibbs sampling with checkerboard coloring.

Nodes at (i+j) even and odd form a 2-coloring of the 4-neighbor lattice:
all same-color nodes are conditionally independent given the other color,
so a Gibbs sweep is two data-parallel half-updates.  Each color's int8
spins and float biases are packed, in row-major order, into the prefix of
a (ceil(H/2), W) pair-row array whose row p holds the color's sites in
grid rows 2p and 2p + 1; every row pair holds exactly W sites of each
color, so this is a plain reshape for any H and W, and an odd height
leaves a zero tail that stands in for the missing neighbors below the
last row.  A color's neighbor sums are then eight int8 slice adds of the
other color's halves, packing and unpacking the grid are four strided
copies, and the half-update is branch-free vector code.  A worker split
of one color measured no gain, and neither did filling a color's deviates
while its own neighbor sums were summed: the lookup must wait for the
fill.  What pays is filling ahead: while the caller sums, looks up and
compares color c, a region-pool thread fills the deviates of the color
after it, across sweeps too, so a large lattice's sweep costs about its
Philox fills.  Colors below _LOOKAHEAD_MIN_SITES (2^14) sites, where the
thread hand-off costs more than the overlap saves, fill inline.

Sampling convention: a node flips to +1 with probability

    P(s_i = +1 | rest) = 1 / (1 + exp(-z_i)),   z_i = b_i + w * sum_j s_j

over its (free-boundary) neighbors.  The neighbor sum is an integer in
[-4, 4], so z_i takes at most 9 values per distinct bias: the partition
evaluates conditional_prob once for each, into a table of
9 * (distinct biases) entries per color, and a half-update looks its
probabilities up by exact integer index.  A lattice's biases and coupling
are fixed at construction, so its table never goes stale.  The joint
distribution these conditionals leave invariant is
P(s) ~ exp((b.s + w * sum_edges s_i s_j)/2).

Uniform deviates are pre-assigned to nodes by packed index *before* a
color updates, so the intra-color update order is immaterial and the
trajectory is a pure function of the stream.  Filling ahead changes no
deviate: the look-ahead block is the stream's next segment.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .glm import _sigmoid
from .rng import BufferKind, DeviateBuffer, _check_uniform_buffer

__all__ = [
    "IsingLattice", "ColorPartition", "conditional_prob",
    "color_lattice", "gibbs_sweep", "denoise",
    "read_pbm", "write_pbm", "synthetic_binary_image", "flip_noise",
]


@dataclass(frozen=True, eq=False)
class IsingLattice:
    """Spin grid (int8, values +-1), read-only bias grid, uniform coupling.

    Construction copies `s` and `b` in C order and builds the checkerboard
    `partition` once.  No field can be reassigned and `b` is read-only, so
    the partition matches the lattice for its whole life.  Spins may be
    edited in place, then synced with `partition.pack_from()`.
    """

    s: np.ndarray
    b: np.ndarray
    w: float
    partition: ColorPartition = field(init=False, repr=False)

    def __post_init__(self):
        s = np.asarray(self.s)
        b = np.array(self.b, dtype=np.float64, order="C")
        if s.ndim != 2 or s.size == 0:
            raise ValueError(f"spin grid must be non-empty 2-D, got shape {s.shape}")
        if b.shape != s.shape:
            raise ValueError(f"bias shape {b.shape} != spin shape {s.shape}")
        if not ((s == -1) | (s == 1)).all():  # np.isin took 20x as long
            raise ValueError("spins must be -1 or +1")
        if not np.isfinite(b).all() or not np.isfinite(self.w):
            raise ValueError("bias and coupling must be finite")
        b.setflags(write=False)
        object.__setattr__(self, "s", np.array(s, dtype=np.int8, order="C"))
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "w", float(self.w))
        object.__setattr__(self, "partition", ColorPartition(self))

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
        if not ((image01 == 0) | (image01 == 1)).all():
            raise ValueError("image entries must be 0 or 1")
        spins = 2 * image01.astype(np.int8) - 1
        return cls(spins, bias_scale * spins.astype(np.float64), w)


def conditional_prob(z):
    """P(s_i = +1) = 1 / (1 + exp(-z)), exp being C libm's; scalar or array.

    The bits are scipy.special.expit's.  Where exp(-z) overflows (-z above
    ln(DBL_MAX), about 709.78) it is inf and the probability 0.0, z = +inf
    gives 1.0, and nan stays nan.  The result is float64.
    """
    return _sigmoid(z)


class ColorPartition:
    """Checkerboard split with per-color packed arrays and probability tables.

    Color c holds the sites with (i + j) % 2 == c, packed in row-major
    order: the sweep assigns deviates in that order, and packed_s[c] and
    packed_b[c] hold the spins and biases in it.  Every grid row pair
    (2p, 2p + 1) holds exactly W sites of each color: m_c of row 2p
    (m_0 = ceil(W/2), m_1 = floor(W/2)) followed by W - m_c of row 2p + 1.
    So each packed array is the row-major prefix of a (ceil(H/2), W)
    pair-row array whose row p is that pair's sites, for any H and W.
    When H is odd the last pair has no row 2p + 1, and that half of the
    last pair row is a zero tail: it stands in for the missing neighbors
    below the last grid row and is never assigned a deviate.

    In the pair-row view a site's neighbors of the other color are whole
    column ranges of that color's halves (see neighbor_spin_sum), and
    packing or unpacking the grid is four strided copies, so no sweep
    indexes through a table.  colors[c] (the flat node indices in packed
    order) and packed_nbr[c] (a (4, n_c) table of each node's up, down,
    left and right neighbor within color 1-c's spins followed by one 0
    sentinel slot, which missing neighbors point at) are built on first
    read only, for the benchmark's working-set figure and as test oracles.

    A node's neighbor sum n is an integer in [-4, 4], so its conditional
    probability is one of 9 values per distinct bias.  table[c] holds them
    for color c, 9 * (distinct biases of c) entries laid out bias-major,
    and base[c] gives each node the index of its bias's n = 0 entry, so
    the node's probability is table[c][base[c] + n].  Each entry is
    conditional_prob(b + w * n), the same float operations as evaluating
    the node directly; at about 70 ns an entry, a 512 x 512 lattice of
    distinct biases spends about 0.17 s on its 9 * 512 * 512 entries, a
    `from_image` lattice nothing measurable on its 18.  A lattice builds
    its own partition, which keeps views of the lattice's spin grid and no
    reference to the lattice.
    """

    def __init__(self, lat: IsingLattice):
        h, w = self._shape = lat.s.shape
        pairs = (h + 1) // 2
        self._n = ((h * w + 1) // 2, h * w // 2)
        self._m = ((w + 1) // 2, w // 2)
        self._rows = [np.zeros((pairs, w), dtype=np.int8) for _ in (0, 1)]
        self.packed_s = [self._rows[c].reshape(-1)[: self._n[c]] for c in (0, 1)]
        # (packed, grid) view pairs: the grid is C-ordered, so these are views of it
        self._halves = [pair for c in (0, 1) for pair in _halves(self._rows[c], lat.s, c)]
        self.packed_b, self.table, self.base = [], [], []
        nsum = np.arange(-4.0, 5.0)
        for c in (0, 1):
            b_rows = np.zeros((pairs, w))
            for packed, sites in _halves(b_rows, lat.b, c):
                packed[...] = sites
            self.packed_b.append(b_rows.reshape(-1)[: self._n[c]])
            ub, inv = _distinct(self.packed_b[c])
            self.table.append(conditional_prob(ub[:, None] + lat.w * nsum).ravel())
            self.base.append(inv * 9 + 4)
        self.pack_from()

    @cached_property
    def colors(self) -> list[np.ndarray]:
        h, w = self._shape
        n = h * w
        # nodes 2k and 2k + 1 differ in color, so color c's k-th node is one of them
        first = 2 * np.arange((n + 1) // 2)
        colors = []
        for c in (0, 1):
            first_c = first[: (n + 1 - c) // 2]
            i, j = np.divmod(first_c, w)
            colors.append(first_c + ((i + j + c) & 1))
        return colors

    @cached_property
    def packed_nbr(self) -> list[np.ndarray]:
        h, w = self._shape
        n = h * w
        tables = []
        for c in (0, 1):
            f = self.colors[c]
            j = f % w
            nbr = np.empty((4, f.size), dtype=np.int64)
            for d, (step, off_grid) in enumerate(((-w, f < w), (w, f >= n - w),
                                                  (-1, j == 0), (1, j == w - 1))):
                nbr[d] = (f + step) // 2
                nbr[d][off_grid] = self._n[1 - c]  # the sentinel slot
            tables.append(nbr)
        return tables

    def pack_from(self) -> None:
        for packed, sites in self._halves:
            packed[...] = sites

    def unpack_into(self) -> None:
        for packed, sites in self._halves:
            sites[...] = packed

    def neighbor_spin_sum(self, c: int) -> np.ndarray:
        """Exact int8 neighbor sums in [-4, 4] for color c, in packed order.

        Eight slice adds over pair-row views.  Color c's row-2p sites
        (columns c, c + 2, ...) have their up and down neighbors in the
        other color's row-2p+1 half, at the same column index one pair row
        up and in the same pair row; their left and right neighbors are the
        other color's row-2p half shifted by c - 1 and c columns.  The
        row-2p+1 sites mirror this: up and down in the other color's row-2p
        half (same pair row, one pair row down), left and right in its
        row-2p+1 half shifted by -c and 1 - c.  Neighbors off the grid are
        columns or rows the slices leave out, or the other color's zero
        tail.  The result is a fresh array.
        """
        m = self._m[c]
        other = self._rows[1 - c]
        out = np.empty(other.shape, dtype=np.int8)
        a, b = out[:, :m], out[:, m:]                                   # rows 2p, 2p + 1
        other_a, other_b = other[:, : self._m[1 - c]], other[:, self._m[1 - c]:]
        a[...] = other_b
        a[1:] += other_b[:-1]
        _add_shifted(a, other_a, c - 1)
        _add_shifted(a, other_a, c)
        b[...] = other_a
        b[:-1] += other_a[1:]
        _add_shifted(b, other_b, -c)
        _add_shifted(b, other_b, 1 - c)
        return out.reshape(-1)[: self._n[c]]


#: most distinct biases whose inverse is built by comparisons, one pass each:
#: at 131072 sites (2-vCPU x86_64, numpy 2.4) a pass took 0.13 ms and
#: np.unique's sorting inverse 2.9 ms at two distinct values, 5.9 ms at all
#: distinct
_FEW_BIASES = 16


def _distinct(b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """np.unique(b, return_inverse=True), without its sort for few distinct values.

    The distinct values are found by hash; equal values, such as 0.0 and
    -0.0, are one.  With at most _FEW_BIASES of them, an entry's index is
    the number of distinct values above the smallest that it reaches.
    """
    ub = np.sort(np.unique_values(b))
    keep = np.ones(ub.size, dtype=bool)
    keep[1:] = ub[1:] != ub[:-1]
    ub = ub[keep]
    if ub.size > _FEW_BIASES:
        return np.unique(b, return_inverse=True)
    inv = np.zeros(b.size, dtype=np.intp)
    for v in ub[1:]:
        inv += b >= v
    return ub, inv


def _halves(rows: np.ndarray, grid: np.ndarray, c: int):
    """(pair-row, grid) view pairs of color c's sites in rows 2p and in rows 2p + 1."""
    h, w = grid.shape
    m = (w + 1 - c) // 2
    return ((rows[:, :m], grid[0::2, c::2]),
            (rows[: h // 2, m:], grid[1::2, 1 - c::2]))


def _add_shifted(dst: np.ndarray, src: np.ndarray, shift: int) -> None:
    """dst[:, k] += src[:, k + shift] for every k where both columns exist."""
    lo, hi = max(0, -shift), min(dst.shape[1], src.shape[1] - shift)
    if lo < hi:
        dst[:, lo:hi] += src[:, lo + shift: hi + shift]


def color_lattice(lat: IsingLattice) -> ColorPartition:
    """The lattice's checkerboard partition, built with the lattice."""
    return lat.partition


#: smallest color whose deviates are filled ahead.  Paired medians of 31
#: alternating runs, look-ahead against inline sweep time (2-vCPU x86_64
#: guest, numpy 2.4): 0.60x at 8192 sites a color, 0.82x at 12800, 1.09x
#: at 16380, 1.37x at 65522; one hand-off costs 25-55 us there
_LOOKAHEAD_MIN_SITES = 1 << 14


def gibbs_sweep(lat: IsingLattice, rng_buffer: DeviateBuffer) -> None:
    """One full Gibbs sweep: update color 0 against frozen color 1, then color 1.

    Node i becomes +1 iff u_i < conditional_prob(z_i), with u_i assigned by
    packed index before the color's update; the probability is looked up
    in the partition's table at the node's base index plus its neighbor
    sum.  The partition's packed spins are the chain's state and the
    lattice grid is an output, overwritten on return: spins edited between
    sweeps are lost unless `lat.partition.pack_from()` is called first.

    Once a color has taken its deviates, the other color's, if it has at
    least _LOOKAHEAD_MIN_SITES sites, start filling on the region pool
    (`DeviateBuffer.prefetch`), so the sweep may return with a fill
    pending; the buffer's next read joins it.  Raises TypeError, reading no
    deviate, unless `rng_buffer` is a UNIFORM01 buffer.
    """
    _check_uniform_buffer(rng_buffer, "rng_buffer")
    part = lat.partition
    for c in (0, 1):
        s = part.packed_s[c]
        u = rng_buffer.take(s.size)
        n_next = part.packed_s[1 - c].size
        if n_next >= _LOOKAHEAD_MIN_SITES:
            rng_buffer.prefetch(n_next)
        idx = part.base[c] + part.neighbor_spin_sum(c)
        np.less(u, part.table[c].take(idx), out=s.view(np.bool_))
        s *= 2  # {0, 1} -> {-1, +1}
        s -= 1
    part.unpack_into()


def denoise(noisy_image, w: float = 1.0, bias_scale: float = 2.0, sweeps: int = 30,
            burnin: int = 10, seed: int = 0, trace_out: list | None = None) -> np.ndarray:
    """Restore a {0,1} image: posterior mean spin sign under the Ising smoother.

    The bias field anchors each pixel to its observed value while the
    coupling rewards agreement between neighbors.  Restored pixel = sign of
    the post-burn-in mean spin (ties go to +1).  With sweeps=0 the input
    is returned unchanged; otherwise burnin must leave at least one sweep.
    `trace_out`, if given, receives the per-sweep flip fraction.
    """
    if sweeps < 0 or burnin < 0:
        raise ValueError("sweeps and burnin must be >= 0")
    if sweeps and burnin >= sweeps:
        raise ValueError(f"burnin must be < sweeps, got burnin={burnin}, sweeps={sweeps}")
    noisy_image = np.asarray(noisy_image)
    lat = IsingLattice.from_image(noisy_image, w=w, bias_scale=bias_scale)
    if sweeps == 0:
        return noisy_image.astype(np.uint8).copy()
    buf = DeviateBuffer(BufferKind.UNIFORM01, seed=seed)
    acc = np.zeros(lat.s.shape, dtype=np.int32)  # exact spin sums
    try:
        for t in range(sweeps):
            before = lat.s.copy() if trace_out is not None else None
            gibbs_sweep(lat, buf)
            if trace_out is not None:
                trace_out.append(float(np.count_nonzero(lat.s != before)) / lat.s.size)
            if t >= burnin:
                acc += lat.s
    finally:
        buf.join()  # the last sweep's look-ahead block goes unread
    return (acc >= 0).astype(np.uint8)


# ---------------------------------------------------------------------------
# binary image I/O and synthesis
# ---------------------------------------------------------------------------

_PBM_SPACE = b" \t\r\n"


def read_pbm(path) -> np.ndarray:
    """Read a P1 (ASCII) or P4 (raw) PBM as a (H, W) uint8 {0,1} array.

    PBM stores 1 = black; values pass through unchanged.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    tokens, offset = _pbm_header_tokens(raw)
    if len(tokens) < 3:
        raise ValueError(f"{path}: truncated PBM header")
    magic = tokens[0]
    if magic not in (b"P1", b"P4"):
        raise ValueError(f"{path}: unsupported magic {magic!r} (want P1 or P4)")
    if not (tokens[1].isdigit() and tokens[2].isdigit()):
        raise ValueError(f"{path}: bad dimensions {tokens[1]!r} x {tokens[2]!r}")
    w, h = int(tokens[1]), int(tokens[2])
    if w < 1 or h < 1:
        raise ValueError(f"{path}: bad dimensions {w}x{h}")
    if magic == b"P1":
        body = re.sub(rb"#[^\r\n]*", b"", raw[offset:])
        bad = body.translate(None, b"01" + _PBM_SPACE)
        if bad:
            raise ValueError(f"{path}: invalid character {bad[:1]!r} in P1 raster")
        bits = np.frombuffer(body.translate(None, _PBM_SPACE), dtype=np.uint8) - ord("0")
        if bits.size < w * h:
            raise ValueError(f"{path}: expected {w * h} pixels, found {bits.size}")
        return bits[: w * h].reshape(h, w)
    row_bytes = (w + 7) // 8
    body = raw[offset: offset + h * row_bytes]
    if len(body) < h * row_bytes:
        raise ValueError(f"{path}: expected {h * row_bytes} data bytes, found {len(body)}")
    rows = np.frombuffer(body, dtype=np.uint8).reshape(h, row_bytes)
    return np.unpackbits(rows, axis=1)[:, :w]


def _pbm_header_tokens(raw: bytes) -> tuple[list[bytes], int]:
    """First three header tokens and the offset just past them.

    For P4 the single whitespace byte after the height is consumed, leaving
    the offset at the first data byte.
    """
    tokens: list[bytes] = []
    i = 0
    while len(tokens) < 3 and i < len(raw):
        if raw[i] in _PBM_SPACE:
            i += 1
        elif raw[i] in b"#":
            while i < len(raw) and raw[i] not in b"\r\n":
                i += 1
        else:
            j = i
            while j < len(raw) and raw[j] not in _PBM_SPACE:
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


def synthetic_binary_image(height: int, width: int) -> np.ndarray:
    """Deterministic {0,1} test image: a half split, an opposite rectangle in each half."""
    if height < 1 or width < 1:
        raise ValueError("image dimensions must be >= 1")
    img = np.zeros((height, width), dtype=np.uint8)
    img[:, width // 2:] = 1
    img[height // 4: height // 2, width // 8: width // 3] = 1
    img[height // 2: 3 * height // 4, 2 * width // 3: 7 * width // 8] = 0
    return img


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
