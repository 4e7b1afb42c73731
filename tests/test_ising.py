import gc
import math
import re
import tracemalloc
import weakref

import numpy as np
import pytest

from parmcmc.ising import (IsingLattice, color_lattice, conditional_prob,
                           denoise, flip_noise, gibbs_sweep, read_pbm,
                           synthetic_binary_image, write_pbm)
from parmcmc.rng import BufferKind, DeviateBuffer

from naive import (enumerate_boltzmann, exact_conditional_from_joint,
                   lattice_edges, naive_sweep, naive_z, vector_sweep)


def random_lattice(h, w, coupling=0.8, seed=0):
    gen = np.random.default_rng(seed)
    s = gen.choice([-1, 1], size=(h, w)).astype(np.int8)
    b = gen.normal(0.0, 0.7, size=(h, w))
    return IsingLattice(s, b, coupling)


# ---------------------------------------------------------------------------
# conditional probability
# ---------------------------------------------------------------------------

def test_conditional_prob_values():
    assert conditional_prob(0.0) == 0.5
    assert abs(conditional_prob(1e3) - 1.0) < 1e-12
    assert conditional_prob(math.log(3.0)) == pytest.approx(0.75, rel=1e-12)
    np.testing.assert_allclose(conditional_prob(np.array([0.0, -1e3])), [0.5, 0.0],
                               atol=1e-12)


def test_conditional_prob_matches_enumerated_joint():
    # the sigmoid(z) conditionals must be the Gibbs conditionals of the
    # enumerated stationary distribution
    lat = random_lattice(2, 3, coupling=0.6, seed=4)
    joint = enumerate_boltzmann(lat.b, lat.w)
    gen = np.random.default_rng(1)
    for _ in range(25):
        state = tuple(gen.choice([-1, 1], size=6))
        i, j = int(gen.integers(2)), int(gen.integers(3))
        s = np.array(state).reshape(2, 3)
        expected = exact_conditional_from_joint(joint, 2, 3, state, i, j)
        got = conditional_prob(naive_z(s, lat.b, lat.w, i, j))
        assert abs(got - expected) < 1e-12


# ---------------------------------------------------------------------------
# coloring and packing
# ---------------------------------------------------------------------------

def test_checkerboard_2x2():
    part = color_lattice(random_lattice(2, 2))
    assert part.colors[0].tolist() == [0, 3]   # (0,0) and (1,1)
    assert part.colors[1].tolist() == [1, 2]   # (0,1) and (1,0)


def test_single_node_lattice():
    lat = IsingLattice([[1]], [[0.3]], 0.5)
    part = color_lattice(lat)
    assert part.colors[0].size == 1 and part.colors[1].size == 0
    buf = DeviateBuffer(BufferKind.UNIFORM01, seed=0)
    gibbs_sweep(lat, buf)  # no neighbors; bias-only update
    assert lat.s[0, 0] in (-1, 1)


@pytest.mark.parametrize("shape", [(1, 5), (4, 4), (5, 7), (3, 1)])
def test_no_same_color_edges(shape):
    lat = random_lattice(*shape)
    part = color_lattice(lat)
    color_of = np.empty(lat.s.size, dtype=int)
    color_of[part.colors[0]] = 0
    color_of[part.colors[1]] = 1
    for (a, b) in lattice_edges(*shape):
        fa, fb = a[0] * shape[1] + a[1], b[0] * shape[1] + b[1]
        assert color_of[fa] != color_of[fb]
    joined = np.sort(np.concatenate([part.colors[0], part.colors[1]]))
    np.testing.assert_array_equal(joined, np.arange(lat.s.size))


@pytest.mark.parametrize("shape", [(1, 1), (3, 4), (6, 5), (4, 6), (5, 7), (1, 2), (2, 1)])
def test_pack_unpack_round_trip(shape):
    lat = random_lattice(*shape, seed=9)
    original = lat.s.copy()
    part = color_lattice(lat)
    lat.s[:] = 0  # clobber, then restore from packed arrays
    part.unpack_into()
    np.testing.assert_array_equal(lat.s, original)


# every (H mod 2, W mod 2) pair, single rows and single columns give each
# slice add its boundary columns and rows, and odd heights the zero tail
@pytest.mark.parametrize("shape", [(1, 1), (1, 6), (7, 1), (5, 6), (6, 5),
                                   (4, 6), (5, 7), (1, 2), (2, 1)])
def test_neighbor_sums_match_naive(shape):
    h, w = shape
    lat = random_lattice(h, w, seed=12)
    part = color_lattice(lat)
    for c in (0, 1):
        sums = part.neighbor_spin_sum(c)
        assert sums.shape == (part.colors[c].size,)
        for pk, flat in enumerate(part.colors[c]):
            i, j = divmod(int(flat), w)
            expected = naive_z(lat.s, np.zeros((h, w)), 1.0, i, j)
            assert sums[pk] == expected


@pytest.mark.parametrize("shape", [(512, 512), (511, 513)])
def test_neighbor_sums_match_the_table_gather_at_workload_size(shape):
    # packed_nbr points each node at its four neighbors in the other color's
    # spins followed by one 0 sentinel slot: four takes through it are a
    # vectorized oracle for the slice adds
    part = random_lattice(*shape, seed=15).partition
    for c in (0, 1):
        padded = np.append(part.packed_s[1 - c], np.int8(0))
        expected = sum(padded.take(row).astype(np.int64) for row in part.packed_nbr[c])
        np.testing.assert_array_equal(part.neighbor_spin_sum(c), expected)


def test_a_512_lattice_builds_and_sweeps_without_a_neighbor_table():
    # the build keeps s (0.25 MiB), b, packed_b and base (2 MiB each) and
    # peaks near 14 MiB with its temporaries; two (4, n/2) int64 neighbor
    # tables would add 8 MiB, and their construction temporaries more
    img = flip_noise(synthetic_binary_image(512, 512), 0.1, seed=2)
    buf = DeviateBuffer(BufferKind.UNIFORM01, seed=4)
    buf.take(1)  # the buffer's first refill is not the lattice's
    tracemalloc.start()
    try:
        lat = IsingLattice.from_image(img, w=1.0, bias_scale=2.0)
        gibbs_sweep(lat, buf)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 20 * 2**20


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

def _deviate_map(lat, part, seed):
    """Capture the sweep's node -> deviate assignment from a fresh buffer."""
    return _take_deviate_map(lat, part, DeviateBuffer(BufferKind.UNIFORM01, seed=seed))


def _take_deviate_map(lat, part, buf):
    """Node -> deviate assignment of the next sweep that draws from buf."""
    u = buf.take(lat.s.size)
    mapping = {}
    pos = 0
    for c in (0, 1):
        for flat in part.colors[c]:
            i, j = divmod(int(flat), lat.width)
            mapping[(i, j)] = u[pos]
            pos += 1
    return mapping


@pytest.mark.parametrize("seed", range(4))
def test_sweep_matches_naive_in_any_intra_color_order(seed):
    lat = random_lattice(4, 5, coupling=0.9, seed=seed)
    part = color_lattice(lat)
    mapping = _deviate_map(lat, part, seed=100 + seed)
    gen = np.random.default_rng(seed)
    orders = []
    for c in (0, 1):
        nodes = [divmod(int(f), 5) for f in part.colors[c]]
        gen.shuffle(nodes)
        orders.append(nodes)
    expected = naive_sweep(lat.s, lat.b, lat.w, mapping, order0=orders[0], order1=orders[1])
    buf = DeviateBuffer(BufferKind.UNIFORM01, seed=100 + seed)
    gibbs_sweep(lat, buf)
    np.testing.assert_array_equal(lat.s, expected)


def test_many_sweeps_match_naive_oracle():
    # every sweep of a long trajectory on an odd-shaped lattice with
    # non-integer bias and coupling reproduces the scalar oracle exactly
    lat = random_lattice(7, 9, coupling=0.8, seed=17)
    part = color_lattice(lat)
    expected = lat.s.copy()
    buf = DeviateBuffer(BufferKind.UNIFORM01, seed=23)
    oracle_buf = DeviateBuffer(BufferKind.UNIFORM01, seed=23)
    for _ in range(40):
        gibbs_sweep(lat, buf)
        mapping = _take_deviate_map(lat, part, oracle_buf)
        expected = naive_sweep(expected, lat.b, lat.w, mapping)
        np.testing.assert_array_equal(lat.s, expected)


def _denoise_lattice():
    noisy = flip_noise(synthetic_binary_image(16, 16), 0.1, seed=5)
    return IsingLattice.from_image(noisy, w=1.0, bias_scale=2.0)


def _signed_zero_lattice():
    b = np.zeros((6, 7))
    b[::2, 1::2] = -0.0
    b[:, ::3] = 0.5
    return IsingLattice(random_lattice(6, 7, seed=14).s, b, -0.6)


TABLE_CASES = {
    "two-valued": _denoise_lattice,
    "7x9": lambda: random_lattice(7, 9, seed=17),
    "1x6": lambda: random_lattice(1, 6, seed=18),
    "6x1": lambda: random_lattice(6, 1, seed=19),
    "1x1": lambda: random_lattice(1, 1, seed=20),
    "signed-zero": _signed_zero_lattice,
    "w=0": lambda: random_lattice(5, 8, coupling=0.0, seed=21),
    "w<0": lambda: random_lattice(8, 5, coupling=-1.3, seed=22),
}


@pytest.mark.parametrize("case", TABLE_CASES)
def test_table_sweeps_match_the_per_node_formula(case):
    # the table lookup must give the bits of evaluating expit(b + w * n)
    # at every node, sweep after sweep
    lat = TABLE_CASES[case]()
    expected = lat.s.copy()
    buf = DeviateBuffer(BufferKind.UNIFORM01, seed=31)
    oracle_buf = DeviateBuffer(BufferKind.UNIFORM01, seed=31)
    for _ in range(40):
        gibbs_sweep(lat, buf)
        expected = vector_sweep(expected, lat.b, lat.w, oracle_buf.take(lat.s.size))
        np.testing.assert_array_equal(lat.s, expected)
    assert lat.s.dtype == np.int8


@pytest.mark.parametrize("case", ["two-valued", "7x9", "signed-zero"])
def test_table_holds_nine_entries_per_distinct_bias(case):
    part = color_lattice(TABLE_CASES[case]())
    for c in (0, 1):
        assert part.table[c].size == 9 * np.unique(part.packed_b[c]).size
    if case == "two-valued":
        assert [t.size for t in part.table] == [18, 18]


def test_lattice_fields_cannot_be_reassigned():
    # the partition's table and packed biases are built once from b and w,
    # so the lattice forbids replacing them, its spin grid or its partition
    lat = random_lattice(5, 6, seed=1)
    for name, value in (("s", -lat.s), ("b", lat.b + 1.0), ("w", 0.3),
                        ("partition", random_lattice(5, 6, seed=2).partition)):
        with pytest.raises(AttributeError):
            setattr(lat, name, value)
    assert lat.w == 0.8 and lat.partition is color_lattice(lat)


def test_a_lattice_is_freed_without_the_cycle_collector():
    # the partition holds a view of the spin grid, not the lattice, so
    # dropping the last reference frees a denoise's arrays at once
    lat = random_lattice(6, 6)
    ref = weakref.ref(lat)
    gc.disable()
    try:
        del lat
        assert ref() is None
    finally:
        gc.enable()


def test_lattice_owns_its_biases_and_freezes_them():
    # a bias edit after the build would leave the table's snapshot stale
    b = np.full((8, 8), 50.0)
    lat = IsingLattice(-np.ones((8, 8), dtype=np.int8), b, w=0.0)
    assert not np.shares_memory(lat.b, b)
    with pytest.raises(ValueError, match="read-only"):
        lat.b[:] = -50.0
    gibbs_sweep(lat, DeviateBuffer(BufferKind.UNIFORM01, seed=3))
    assert (lat.s == 1).all()


def test_spins_edited_in_place_are_swept_after_pack_from():
    lat = random_lattice(5, 6, seed=1)
    start = -lat.s
    lat.s[:] = start
    lat.partition.pack_from()
    gibbs_sweep(lat, DeviateBuffer(BufferKind.UNIFORM01, seed=3))
    u = DeviateBuffer(BufferKind.UNIFORM01, seed=3).take(lat.s.size)
    np.testing.assert_array_equal(lat.s, vector_sweep(start, lat.b, lat.w, u))


def test_a_lattice_from_a_transposed_grid_sweeps_its_own_spins():
    # a Fortran-ordered grid must not leave the sweep writing into a copy
    src = random_lattice(7, 5, seed=6)
    lat = IsingLattice(src.s.T, src.b.T, src.w)
    before = lat.s.copy()
    gibbs_sweep(lat, DeviateBuffer(BufferKind.UNIFORM01, seed=7))
    u = DeviateBuffer(BufferKind.UNIFORM01, seed=7).take(lat.s.size)
    np.testing.assert_array_equal(lat.s, vector_sweep(before, lat.b, lat.w, u))
    assert (lat.s != before).any()
    part = lat.partition
    for c in (0, 1):
        np.testing.assert_array_equal(lat.s.ravel()[part.colors[c]], part.packed_s[c])


def test_sweep_determinism():
    results = []
    for _ in range(2):
        lat = random_lattice(6, 6, seed=8)
        buf = DeviateBuffer(BufferKind.UNIFORM01, seed=21)
        for _ in range(25):
            gibbs_sweep(lat, buf)
        results.append(lat.s.copy())
    np.testing.assert_array_equal(results[0], results[1])


def test_free_spins_are_fair_coins():
    lat = IsingLattice(np.ones((16, 16), dtype=np.int8), np.zeros((16, 16)), 0.0)
    buf = DeviateBuffer(BufferKind.UNIFORM01, seed=30)
    total = 0.0
    sweeps = 100_000
    for _ in range(sweeps):
        gibbs_sweep(lat, buf)
        total += float(lat.s.sum())
    assert abs(total / (sweeps * lat.s.size)) < 0.01


def _tv_against_enumeration(h, w, coupling, sweeps, seed):
    gen = np.random.default_rng(seed)
    b = gen.uniform(-0.5, 0.5, size=(h, w))
    lat = IsingLattice(gen.choice([-1, 1], size=(h, w)).astype(np.int8), b, coupling)
    buf = DeviateBuffer(BufferKind.UNIFORM01, seed=seed + 1)
    weights = (1 << np.arange(h * w)).astype(np.int64)
    counts = np.zeros(1 << (h * w), dtype=np.int64)
    for _ in range(sweeps):
        gibbs_sweep(lat, buf)
        code = int(((lat.s.ravel() > 0) * weights).sum())
        counts[code] += 1
    joint = enumerate_boltzmann(b, coupling)
    exact = np.zeros_like(counts, dtype=float)
    for state, p in joint.items():
        code = sum(1 << i for i, v in enumerate(state) if v > 0)
        exact[code] = p
    emp = counts / counts.sum()
    return 0.5 * float(np.abs(emp - exact).sum())


def test_small_lattice_total_variation():
    tv = _tv_against_enumeration(2, 2, coupling=0.5, sweeps=200_000, seed=77)
    assert tv < 0.05


# ---------------------------------------------------------------------------
# denoising pipeline
# ---------------------------------------------------------------------------

def test_denoise_clean_image_with_strong_bias_is_identity():
    img = synthetic_binary_image(24, 24)
    out = denoise(img, w=1.0, bias_scale=8.0, sweeps=12, burnin=4, seed=1)
    np.testing.assert_array_equal(out, img)


def test_denoise_reduces_error_on_two_region_image():
    img = synthetic_binary_image(64, 64)
    noisy = flip_noise(img, 0.1, seed=3)
    trace: list[float] = []
    out = denoise(noisy, w=1.0, bias_scale=2.0, sweeps=30, burnin=10, seed=4,
                  trace_out=trace)
    in_err = float((noisy != img).mean())
    out_err = float((out != img).mean())
    assert out_err < in_err
    assert len(trace) == 30
    # flip rate settles well below a quarter of the nodes per sweep
    assert max(trace[10:]) < 0.25


def test_denoise_ignores_the_memory_order_of_its_input():
    noisy = flip_noise(synthetic_binary_image(64, 48), 0.1, seed=3)
    kw = dict(w=1.0, bias_scale=2.0, sweeps=12, burnin=4, seed=4)
    expected = denoise(noisy, **kw)
    assert (expected != noisy).any()
    out = denoise(np.asfortranarray(noisy), **kw)
    assert out.dtype == expected.dtype
    np.testing.assert_array_equal(out, expected)
    np.testing.assert_array_equal(denoise(noisy.T, **kw),
                                  denoise(np.ascontiguousarray(noisy.T), **kw))


def test_denoise_all_ones_easy_instance():
    img = np.ones((48, 48), dtype=np.uint8)
    noisy = flip_noise(img, 0.1, seed=7)
    out = denoise(noisy, w=1.0, bias_scale=2.0, sweeps=25, burnin=8, seed=8)
    assert float((out != img).mean()) < 0.01


def test_denoise_zero_sweeps_returns_input():
    noisy = flip_noise(synthetic_binary_image(16, 16), 0.2, seed=9)
    out = denoise(noisy, sweeps=0, burnin=0, seed=1)
    np.testing.assert_array_equal(out, noisy)


def test_denoise_rejects_bad_input():
    with pytest.raises(ValueError):
        denoise(np.empty((0, 0)))
    with pytest.raises(ValueError):
        denoise(np.array([[0, 2]]))
    for sweeps, burnin in ((20, 20), (5, 30)):
        with pytest.raises(ValueError, match="burnin"):
            denoise(np.array([[0, 1]]), sweeps=sweeps, burnin=burnin)


# ---------------------------------------------------------------------------
# image I/O and synthesis
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("fmt", ["P1", "P4"])
@pytest.mark.parametrize("shape", [(5, 5), (7, 13), (3, 8)])
def test_pbm_round_trip(tmp_path, fmt, shape):
    img = flip_noise(synthetic_binary_image(*shape), 0.4, seed=11)
    path = tmp_path / f"img_{fmt}_{shape[0]}x{shape[1]}.pbm"
    write_pbm(path, img, fmt=fmt)
    np.testing.assert_array_equal(read_pbm(path), img)


def test_pbm_reads_comments_and_rejects_garbage(tmp_path):
    path = tmp_path / "c.pbm"
    path.write_text("P1\n# a comment\n3 2\n0 1 0\n1 1 0\n")
    img = read_pbm(path)
    np.testing.assert_array_equal(img, [[0, 1, 0], [1, 1, 0]])
    bad = tmp_path / "bad.pbm"
    bad.write_text("P5\n2 2\n")
    with pytest.raises(ValueError):
        read_pbm(bad)
    trunc = tmp_path / "trunc.pbm"
    trunc.write_text("P1\n4 4\n0 1\n")
    with pytest.raises(ValueError):
        read_pbm(trunc)
    # a stray raster character would shift every later pixel
    for name, text, char in (("stray.pbm", "P1\n2 1\n1 2 0\n", "2"),
                             ("letter.pbm", "P1\n2 2\n1 0\nx 0 1\n", "x"),
                             ("utf8.pbm", "P1\n1 1\n\u00e9 1\n", "\\xc3")):
        stray = tmp_path / name
        stray.write_text(text, encoding="utf-8")
        with pytest.raises(ValueError, match=re.escape(f"{name}: invalid character b'{char}'")):
            read_pbm(stray)
    for dims in ("2x 1", "2 1.0"):
        dim = tmp_path / "dims.pbm"
        dim.write_text(f"P1\n{dims}\n1 0\n")
        with pytest.raises(ValueError, match="dims.pbm: bad dimensions"):
            read_pbm(dim)


def test_flip_noise_exact_count_and_involution():
    img = synthetic_binary_image(20, 20)
    noisy = flip_noise(img, 0.1, seed=13)
    assert int((noisy != img).sum()) == 40
    again = flip_noise(noisy, 0.1, seed=13)  # same pixels flip back
    np.testing.assert_array_equal(again, img)


def test_lattice_validation():
    with pytest.raises(ValueError):
        IsingLattice([[2]], [[0.0]], 1.0)
    with pytest.raises(ValueError):
        IsingLattice([[1]], [[np.inf]], 1.0)
    with pytest.raises(ValueError):
        IsingLattice.from_image(np.array([[0, 3]]), 1.0, 1.0)
