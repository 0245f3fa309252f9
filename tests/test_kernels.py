"""Checks for the chirp quadrature core and the Fresnel integrals.

chirp_sum takes a uniform x_out and x_in as the uniform runs its counts
and steps name, and sums each group of neighbouring runs of one count and
one step through one chirp-z plan. It must match the explicit sum of its
terms on detector-like lattices, short runs of 8 or 9 nodes, mirror-image
pairs and one- and two-point outputs included; be deterministic;
conjugate under a negative curvature; hold no more than its stated
temporaries; and give zeros or nothing on empty input. A plan in
overlap-save blocks must match the explicit sum too, and the workspace's
chunks of rows or blocks must give the bits of one at a time.
chirp_matrix, its dense counterpart, must match fresnel_kernel to the
rounding of the phases.
fresnel_g and fresnel_steps must match mpmath and scipy's Fresnel
integrals, across every join of fresnel_g's pieces too.
"""

import math
import tracemalloc
from fractions import Fraction

import mpmath
import numpy as np
import pytest
import scipy.special
from hypothesis import example, given, settings, strategies as st

from wavecorr import _kernels, grid, transmittance
from wavecorr._kernels import chirp_matrix, chirp_sum
from wavecorr.propagation import fresnel_kernel, kernel_scale
from wavecorr.errors import InvalidArgumentError


def _case(n_out, runs, seed):
    # an output lattice of n_out points and `runs` lattices of m nodes
    # each, spread across it, with random coefficients
    rng = np.random.default_rng(seed)
    x_out = (np.arange(n_out) + 0.5) * 1e-6 - n_out * 0.5e-6
    x_in = np.concatenate([lo + (np.arange(m) + 0.5) * 3e-6
                           for lo, m in runs])
    coeffs = rng.normal(size=x_in.size) + 1j * rng.normal(size=x_in.size)
    counts = [m for _, m in runs]
    return x_out, x_in, coeffs, 1.8e10, counts, [3e-6] * len(runs)


def test_backend_is_deterministic():
    x_out, x_in, coeffs, alpha, counts, steps = _case(
        513, [(-0.4e-3, 301), (0.1e-3, 9)], seed=11)
    a = chirp_sum(x_out, x_in, coeffs, alpha, counts, steps)
    b = chirp_sum(x_out, x_in, coeffs, alpha, counts, steps)
    assert a.tobytes() == b.tobytes()


def test_empty_input_gives_zeros():
    out = chirp_sum(np.linspace(0, 1, 5), np.empty(0), np.empty(0, complex),
                    1.0, [0, 0], [0.0, 0.0])
    assert out.shape == (5,)
    assert np.all(out == 0)


def test_empty_output_gives_empty():
    out = chirp_sum(np.empty(0), np.linspace(0, 1, 5), np.ones(5, complex),
                    1.0, [5], [0.25])
    assert out.shape == (0,)


def test_negative_alpha_conjugates():
    x_out, x_in, coeffs, alpha, counts, steps = _case(
        64, [(-0.1e-3, 48), (0.02e-3, 8)], seed=3)
    plus = chirp_sum(x_out, x_in, coeffs, alpha, counts, steps)
    minus = chirp_sum(x_out, x_in, np.conj(coeffs), -alpha, counts, steps)
    assert np.allclose(minus, np.conj(plus), rtol=1e-12, atol=0)


def _explicit(x_out, x_in, coeffs, alpha):
    return np.array([np.sum(coeffs * np.exp(1j * alpha * (xo - x_in) ** 2))
                     for xo in x_out])


@settings(deadline=None, max_examples=40, derandomize=True)
@given(n=st.integers(2, 4096),
       runs=st.lists(st.tuples(st.integers(8, 5000),
                               st.floats(0.01, 100.0),
                               st.floats(-1.0, 1.0)),
                     min_size=1, max_size=3),
       phase=st.floats(1.0, 1e4),
       sign=st.sampled_from([1.0, -1.0]),
       seed=st.integers(0, 2 ** 32 - 1))
@example(n=4096, runs=[(5000, 100.0, 0.0)], phase=1e4, sign=1.0, seed=0)
@example(n=4096, runs=[(5000, 0.01, 0.3), (4000, 0.01, -0.3)], phase=1e4,
         sign=-1.0, seed=1)
@example(n=4096, runs=[(4700, 0.11, -0.5), (4700, 0.11, 0.5)], phase=3e4,
         sign=1.0, seed=2)
# fig4e: two 9-node slits on a 4096-point detector
@example(n=4096, runs=[(9, 14.2, -0.0375), (9, 14.2, 0.0375)], phase=61.6,
         sign=-1.0, seed=3)
# the fewest output points, a Grid's minimum
@example(n=2, runs=[(8, 1.0, 0.0), (300, 0.5, 0.7)], phase=50.0, sign=1.0,
         seed=4)
# mirror-image runs of one count and one step: one plan of two rows, on
# either sign of alpha, down to two output points, and next to a run of
# its own; runs of one count and two steps take a plan each
@example(n=4096, runs=[(600, 0.5, -0.4), (600, 0.5, 0.4)], phase=1e4,
         sign=1.0, seed=5)
@example(n=4096, runs=[(600, 0.5, -0.4), (600, 0.5, 0.4)], phase=1e4,
         sign=-1.0, seed=6)
@example(n=2, runs=[(8, 1.0, -0.3), (8, 1.0, 0.3)], phase=50.0, sign=-1.0,
         seed=7)
@example(n=2, runs=[(300, 0.5, -0.7), (300, 0.5, 0.7)], phase=50.0,
         sign=1.0, seed=8)
@example(n=1024, runs=[(40, 2.0, -0.2), (40, 2.0, 0.2), (9, 14.2, 0.5)],
         phase=3e3, sign=-1.0, seed=9)
@example(n=1024, runs=[(40, 2.0, -0.2), (40, 3.0, 0.2)], phase=3e3,
         sign=1.0, seed=10)
def test_lattice_inputs_match_the_definition(n, runs, phase, sign, seed):
    # detector-like output lattice (1 um pitch around a center) and
    # midpoint runs of m >= 8 nodes (chirp_nodes' minimum) with step ratio
    # d/w, placed by `offset` across it
    rng = np.random.default_rng(seed)
    w = 1e-6
    x_out = 0.3e-3 + (np.arange(n) - (n - 1) / 2) * w
    span = n * w
    x_in = []
    for m, ratio, offset in runs:
        d = ratio * w
        lo = offset * span - m * d / 2
        x_in.append(lo + (np.arange(m) + 0.5) * d)
    x_in = np.concatenate(x_in)
    coeffs = rng.normal(size=x_in.size) + 1j * rng.normal(size=x_in.size)
    u_max = max(abs(x_out[-1] - x_in.min()), abs(x_in.max() - x_out[0]))
    alpha = sign * phase / u_max ** 2
    got = chirp_sum(x_out, x_in, coeffs, alpha, [m for m, _, _ in runs],
                    [ratio * w for _, ratio, _ in runs])
    idx = np.unique(np.linspace(0, n - 1, 48).astype(int))
    want = _explicit(x_out[idx], x_in, coeffs, alpha)
    assert np.abs(got[idx] - want).max() <= 1e-10 * np.abs(got).max()


def test_lattice_inputs_with_1e5_nodes_match_the_definition():
    # two slits of 50k nodes each on a 4096-point detector, Z_eff ~ 0.1 mm;
    # summing the N*M terms one by one would take tens of seconds here
    x_out = (np.arange(4096) + 0.5) * 1e-6 - 2.048e-3
    runs = [(lo + (np.arange(50_000) + 0.5) * 2.5e-9)
            for lo in (-0.2125e-3, 0.0875e-3)]
    x_in = np.concatenate(runs)
    coeffs = np.full(x_in.size, 2.5e-9 + 0j)
    alpha = 2 * np.pi / 589.3e-9 / (2 * 1e-4)
    got = chirp_sum(x_out, x_in, coeffs, alpha, [50_000, 50_000],
                    [2.5e-9, 2.5e-9])
    idx = np.arange(0, 4096, 64)
    want = _explicit(x_out[idx], x_in, coeffs, alpha)
    assert np.abs(got[idx] - want).max() <= 1e-10 * np.abs(got).max()


def test_short_runs_and_single_points_take_the_blocked_loop():
    # runs of 9 nodes (fig4e's slits) and a single output point once took
    # a blocked N x M loop; chirp-z now sums them and must give that
    # loop's sum, the explicit one, to rounding
    rng = np.random.default_rng(9)
    x_out = (np.arange(512) + 0.5) * 2e-6 - 0.512e-3
    x_in = np.concatenate([lo + (np.arange(9) + 0.5) * 1e-5
                           for lo in (-0.2e-3, 0.11e-3)])
    coeffs = rng.normal(size=18) + 1j * rng.normal(size=18)
    alpha = 1e4 / 1e-3 ** 2
    for xo in (x_out, x_out[100:101], x_out[-1:]):
        got = chirp_sum(xo, x_in, coeffs, alpha, [9, 9], [1e-5, 1e-5])
        want = _explicit(xo, x_in, coeffs, alpha)
        assert got.shape == xo.shape
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_chirp_sum_peak_stays_within_its_temporaries():
    # defocus_sweep's far-field op: a double slit's two mirror-image runs
    # of m nodes on N = 32,768 points, one plan of R = 2 rows, in blocks.
    # The plan holds the blocks' spectra and the chirp table's lo and
    # exp(-i hi) up to the largest tap K, from which the apply builds P a
    # chunk of blocks at a time; the apply adds the result (whole
    # blocks), one FFT per row at the block size, and its workspace: a
    # chunk's FFT rows, one run's P over the chunk and P's phase. The
    # plan's build (the table's taps, a chunk of them at a time) peaks
    # lower
    n, m, runs = 32768, 114, 2
    x_out = (np.arange(n) - n // 2) * (4e-3 / n)
    d = 125e-6 / m
    x_in = np.concatenate([lo + (np.arange(m) + 0.5) * d
                           for lo in (-212.5e-6, 87.5e-6)])
    coeffs = np.full(runs * m, d + 0j)
    alpha = np.pi / (589.3e-9 * 32e-3)
    size, step, blocks = _kernels._lattice_blocks(n, m, runs)
    assert blocks > 1
    chunk = _kernels._WORKSPACE // (16 * size)
    # the output origin is the middle point, so K = n/2 + m - 1 - m//2
    k_max = n // 2 + m - 1 - m // 2
    held = (16 * blocks * size + 24 * (k_max + 1)
            + 16 * (blocks * step + runs * size)
            + 16 * chunk * (size + step) + 8 * chunk * step)
    # below what one block held: P, the spectrum, the R-row FFT block
    # and the sum
    one = _kernels._fft_size(n + m - 1)
    assert held <= 16 * (runs * n + one + runs * one + n)
    # numpy keeps each FFT length's twiddles for the life of the process;
    # a first call makes them, so the traced call holds only its own arrays
    chirp_sum(x_out, x_in, coeffs, alpha, [m, m], [d, d])
    tracemalloc.start()
    try:
        chirp_sum(x_out, x_in, coeffs, alpha, [m, m], [d, d])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert held <= peak <= 1.25 * held


@settings(deadline=None, max_examples=60, derandomize=True)
@given(n=st.integers(2, 1024),
       half=st.floats(0.05e-3, 5e-3),
       center=st.floats(-2e-3, 2e-3),
       runs=st.lists(st.tuples(st.integers(8, 120), st.floats(1e-6, 20e-6),
                               st.floats(0.0, 300e-6)),
                     min_size=1, max_size=3),
       zbar=st.floats(0.05, 0.5),
       sign=st.sampled_from([1.0, -1.0]))
# one group of two runs of one count and one step, as a double slit's
@example(n=1024, half=0.25e-3, center=0.0,
         runs=[(19, 6.5e-6, 0.0), (19, 6.5e-6, 175e-6)], zbar=0.285,
         sign=1.0)
# runs of one count and two steps, then of two counts: three groups
@example(n=2, half=1e-3, center=1.5e-3,
         runs=[(40, 2e-6, 0.0), (40, 3e-6, 10e-6), (9, 14e-6, 0.0)],
         zbar=0.1, sign=-1.0)
def test_chirp_matrix_matches_the_fresnel_kernel(n, half, center, runs, zbar,
                                                 sign):
    # a Grid's coordinates onto side-by-side midpoint runs (counts[k]
    # nodes steps[k] apart, after a gap), weighted by the kernel scale and
    # the node widths as the object arm's matrices are; the two differ by
    # the rounding of their phases, which grows with the largest phase:
    # over 300 random cases of this kind it read up to 2.9 eps * phase
    ctx = grid.OpticsContext(589.3e-9)
    z = sign * zbar
    y = grid.make_grid(center, half, n).coordinates()
    x_in, widths, lo = [], [], -0.5e-3
    for m, d, gap in runs:
        lo += gap
        x_in.append(lo + (np.arange(m) + 0.5) * d)
        widths.append(np.full(m, d))
        lo += m * d
    x_in, widths = np.concatenate(x_in), np.concatenate(widths)
    scale = kernel_scale(ctx, z, z)
    got = chirp_matrix(y, x_in, scale * widths, ctx.k0 / (2.0 * z),
                       [m for m, _, _ in runs], [d for _, d, _ in runs])
    want = fresnel_kernel(ctx, y[:, None], x_in[None, :], z, z) * widths
    phase = ctx.k0 / (2.0 * zbar) * np.square(y[:, None] - x_in).max()
    assert got.shape == want.shape
    bound = 8 * np.finfo(float).eps * max(phase, 1.0) * abs(scale)
    assert np.abs(got - want).max() <= bound * widths.max()


def test_chirp_matrix_of_no_nodes_or_points_is_empty():
    for x_out, x_in, counts in ((np.linspace(0, 1, 5), np.empty(0), [0]),
                                (np.empty(0), np.linspace(0, 1, 8), [8])):
        out = chirp_matrix(x_out, x_in, 1.0, 1.0, counts, [0.125])
        assert out.shape == (x_out.size, x_in.size)


def test_large_chirp_phases_keep_their_rounding_error():
    # beta k^2 ~ 1e8 rad, where a float product is off by up to 7e-9 rad;
    # against exact rational arithmetic reduced modulo 2 pi
    beta = 0.123456789012345
    k = np.arange(28_000, 28_200)
    got = _kernels._chirp_table(beta, k[-1])[2][k]
    two_pi = Fraction("6.283185307179586476925286766559005768394")
    want = []
    for kk in k.tolist():
        t = Fraction(beta) * kk * kk
        t -= two_pi * math.floor(t / two_pi)
        want.append(np.exp(1j * float(t)))
    assert np.abs(got - np.array(want)).max() <= 1e-12


def _three_chirp_sum(y, w, x, d, alpha, c):
    """The lattice sum with q, p and r each from its own Dekker product and
    two complex exponentials, as the plan built them before its chirps
    came from one table; the reference for the table's bits."""
    def chirp(phase, beta, k):
        k2 = (k * k).astype(np.float64)
        hi = beta * k2
        b_hi, b_lo = _kernels._split(beta)
        k_hi, k_lo = _kernels._split(k2)
        lo = ((b_hi * k_hi - hi) + b_hi * k_lo + b_lo * k_hi) + b_lo * k_lo
        return np.exp(1j * (phase + lo)) * np.exp(1j * hi)

    n, m = y.shape[0], x.shape[0]
    i0 = m // 2
    j0 = int(np.clip(np.rint((x[i0] - y[0]) / w), 0, n - 1))
    xc, yc = x[i0], y[j0]
    beta = alpha * d * w
    q = chirp(alpha * (x - yc) ** 2, -beta, np.arange(m) - i0)
    p = chirp(alpha * ((y - xc) ** 2 - (yc - xc) ** 2), -beta,
              np.arange(n) - j0)
    r = chirp(0.0, beta, np.arange(-(m - 1), n) - (j0 - i0))
    size = _kernels._fft_size(n + m - 1)
    buf = np.zeros(size, dtype=np.complex128)
    buf[:m] = c * q
    buf = np.fft.ifft(np.fft.fft(buf) * np.fft.fft(r, size))
    return p * buf[m - 1:m - 1 + n]


@pytest.mark.parametrize("n, m, lo_y, lo_x, ratio, alpha", [
    (300, 512, 0.0, -0.3e-3, 10.0, 1e10),     # even m, alpha > 0
    (300, 511, 0.0, -0.3e-3, 10.0, -1e10),    # odd m, alpha < 0
    (256, 97, 0.0, -2e-3, 3.0, 2e10),         # support left of y: j0 = 0
    (256, 96, 0.0, 2e-3, 3.0, -2e10),         # right of y: j0 = n - 1
    (1, 40, 1e-4, 0.0, 1.0, 5e9),             # one output point, w = d
    (1, 41, 1e-4, 0.0, 1.0, -5e9),
    (32768, 8000, -16e-3, -4e-3, 1.0, 4e11),  # beta k^2 up to 1.7e8 rad
])
def test_table_plan_gives_the_three_chirp_bits(n, m, lo_y, lo_x, ratio,
                                                alpha):
    rng = np.random.default_rng(n + m)
    w = 1e-6
    d = ratio * w
    y = lo_y + np.arange(n) * w
    x = lo_x + (np.arange(m) + 0.5) * d
    c = rng.normal(size=m) + 1j * rng.normal(size=m)
    got = _kernels._lattice_plan(y, w, x, d, alpha)(c)
    assert got.tobytes() == _three_chirp_sum(y, w, x, d, alpha, c).tobytes()
    if n == 32768:
        # the taps reach |k| = 20766, beta k^2 = 1.7e8 rad > 2**27: there
        # the rounding errors lo reach 1e-8 rad
        lo = _kernels._chirp_table(alpha * d * w, 20_766)[0]
        assert np.abs(lo).max() >= 1e-8


def test_lattice_sum_takes_batches_of_coefficient_rows(monkeypatch):
    # a (k, m) coefficient array is k independent sums, one per row, as
    # the ensemble's reference arm calls it; the rows go through the
    # workspace in chunks, and pocketfft gives each row the bits of a
    # one-row apply whatever the chunk
    rng = np.random.default_rng(11)
    y = 3e-3 + (np.arange(300) - 149.5) * 2e-6
    x = (np.arange(512) - 255.5) * 2e-5
    c = rng.normal(size=(5, 512)) + 1j * rng.normal(size=(5, 512))
    alpha = np.pi / (589.3e-9 * 0.285)
    want = np.stack([_kernels._lattice_plan(y, 2e-6, x, 2e-5, alpha)(row)
                     for row in c])
    size = _kernels._fft_size(300 + 512 - 1)
    for rows_per_chunk in (1, 2, 3, 16):
        monkeypatch.setattr(_kernels, "_WORKSPACE",
                            16 * size * rows_per_chunk)
        assert _kernels._lattice_blocks(300, 512, 1) == (size, 300, 1)
        got = _kernels._lattice_plan(y, 2e-6, x, 2e-5, alpha)(c)
        assert got.shape == (5, 300)
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("rows_per_chunk", [1, 2, 3])
def test_runs_and_batch_rows_share_the_chunks_bitwise(monkeypatch,
                                                      rows_per_chunk):
    # a chunk of rows can start in any run of any batch row; each output
    # row is its runs' rows times their P, added in run order, with the
    # bits of its runs applied one row at a time
    rng = np.random.default_rng(12)
    y = (np.arange(400) - 199.5) * 1e-6
    x = np.stack([lo + (np.arange(40) + 0.5) * 2e-6
                  for lo in (-150e-6, -20e-6, 90e-6)])
    c = rng.normal(size=(2, 3, 3, 40)) + 1j * rng.normal(size=(2, 3, 3, 40))
    alpha = np.pi / (589.3e-9 * 0.05)
    size = _kernels._fft_size(400 + 40 - 1)
    monkeypatch.setattr(_kernels, "_WORKSPACE", 16 * size)
    want = _kernels._lattice_plan(y, 1e-6, x, 2e-6, alpha)(c)
    monkeypatch.setattr(_kernels, "_WORKSPACE", 16 * size * rows_per_chunk)
    got = _kernels._lattice_plan(y, 1e-6, x, 2e-6, alpha)(c)
    assert got.shape == (2, 3, 400)
    assert got.tobytes() == want.tobytes()
    explicit = np.array([_explicit(y, x.ravel(), row.ravel(), alpha)
                         for row in c.reshape(-1, 120)])
    assert (np.abs(got.reshape(-1, 400) - explicit).max()
            <= 1e-12 * np.abs(explicit).max())


def _plan_case(n, m, runs, where, alpha, seed, lead=()):
    # n outputs at a 1 um pitch and `runs` lattices of m nodes 2 um apart,
    # 30 um between runs, placed over the output grid's middle
    # ("over"), wholly to its right (left of the runs) or wholly to its
    # left; random coefficients with leading batch axes `lead`
    rng = np.random.default_rng(seed)
    w, d = 1e-6, 2e-6
    y = (np.arange(n) - n // 2) * w
    span = runs * m * d + (runs - 1) * 30e-6
    lo = {"over": -span / 2, "left": y[-1] + 50e-6,
          "right": y[0] - 50e-6 - span}[where]
    x = np.stack([lo + r * (m * d + 30e-6) + (np.arange(m) + 0.5) * d
                  for r in range(runs)])
    c = (rng.normal(size=lead + (runs, m))
         + 1j * rng.normal(size=lead + (runs, m)))
    return y, w, x if runs > 1 else x[0], d, alpha, (
        c if runs > 1 else c[..., 0, :])


@pytest.mark.parametrize("n, m, runs, where, alpha, lead", [
    (1000, 20, 1, "over", 1e9, ()),
    (1000, 20, 2, "over", -1e9, ()),
    (1000, 21, 2, "left", 4e8, ()),        # outputs left of the runs
    (1001, 19, 1, "right", -4e8, ()),      # outputs right of the runs
    (997, 24, 2, "over", 1e9, (3,)),       # leading batch rows
    (640, 16, 1, "left", -1e9, (2, 2)),
])
def test_blocked_plan_matches_the_definition(monkeypatch, n, m, runs, where,
                                             alpha, lead):
    # a 4 KiB workspace holds FFT rows of at most 256 points, so these
    # outputs take overlap-save blocks, the last one ragged; phases reach
    # about 500 rad
    monkeypatch.setattr(_kernels, "_WORKSPACE", 1 << 12)
    size, step, blocks = _kernels._lattice_blocks(n, m, runs)
    assert blocks > 1 and n % step
    y, w, x, d, alpha, c = _plan_case(n, m, runs, where, alpha, n + m, lead)
    got = _kernels._lattice_plan(y, w, x, d, alpha)(c)
    assert got.shape == lead + (n,)
    rows = c.reshape(-1, runs * m)
    want = np.array([_explicit(y, x.ravel(), row, alpha) for row in rows])
    assert (np.abs(got.reshape(-1, n) - want).max()
            <= 1e-12 * np.abs(want).max())


def test_far_field_plan_takes_blocks_and_matches_the_definition():
    # defocus_sweep's far-field geometry at the module's own workspace: a
    # double slit's two runs of 118 nodes onto 32,768 points, Z_eff = 32
    # mm; every 97th output and the whole ragged last block
    n, m = 32768, 118
    x_out = (np.arange(n) - n // 2) * (4e-3 / n)
    d = 125e-6 / m
    x = np.stack([lo + (np.arange(m) + 0.5) * d
                  for lo in (-212.5e-6, 87.5e-6)])
    rng = np.random.default_rng(5)
    c = rng.normal(size=(2, m)) + 1j * rng.normal(size=(2, m))
    alpha = -np.pi / (589.3e-9 * 32e-3)
    size, step, blocks = _kernels._lattice_blocks(n, m, 2)
    assert blocks > 1 and n % step
    w = (x_out[-1] - x_out[0]) / (n - 1)
    got = _kernels._lattice_plan(x_out, w, x, d, alpha)(c)
    idx = np.union1d(np.arange(0, n, 97), np.arange((blocks - 1) * step, n))
    want = _explicit(x_out[idx], x.ravel(), c.ravel(), alpha)
    assert np.abs(got[idx] - want).max() <= 1e-12 * np.abs(want).max()


@pytest.mark.parametrize("blocks_per_chunk", [1, 2, 5])
def test_blocked_apply_is_bitwise_the_same_in_any_chunk(monkeypatch,
                                                        blocks_per_chunk):
    # one geometry of blocks; the workspace sets how many blocks share an
    # inverse FFT and a P buffer, not the bits
    y, w, x, d, alpha, c = _plan_case(1000, 20, 2, "over", 1e9, 7, (2,))
    monkeypatch.setattr(_kernels, "_lattice_blocks",
                        lambda n, m, runs: (80, 61, 17))
    monkeypatch.setattr(_kernels, "_WORKSPACE", 16 * 80)
    want = _kernels._lattice_plan(y, w, x, d, alpha)(c)
    monkeypatch.setattr(_kernels, "_WORKSPACE", 16 * 80 * blocks_per_chunk)
    got = _kernels._lattice_plan(y, w, x, d, alpha)(c)
    assert got.tobytes() == want.tobytes()


def test_reused_lattice_plan_gives_a_fresh_plans_bits():
    # chirp_sum and the ensemble build a plan once and apply it again;
    # each apply has the bits of a fresh plan applied once, and leaves an
    # earlier apply's result intact
    rng = np.random.default_rng(13)
    y = 3e-3 + (np.arange(300) - 149.5) * 2e-6
    x = (np.arange(512) - 255.5) * 2e-5
    alpha = np.pi / (589.3e-9 * 0.285)
    plan = _kernels._lattice_plan(y, 2e-6, x, 2e-5, alpha)
    rows = rng.normal(size=(5, 512)) + 1j * rng.normal(size=(5, 512))
    for c in (rows[0], rows[:3]):
        first = plan(c)
        kept = first.copy()
        again = plan(np.conj(c))
        assert first.tobytes() == kept.tobytes()
        for got, coeffs in ((first, c), (again, np.conj(c))):
            want = _kernels._lattice_plan(y, 2e-6, x, 2e-5, alpha)(coeffs)
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()


def test_fft_size_is_the_next_5_smooth_length():
    smooth = sorted(2 ** a * 3 ** b * 5 ** c
                    for a in range(15) for b in range(10) for c in range(7)
                    if 2 ** a * 3 ** b * 5 ** c <= 20_000)
    want = [smooth[np.searchsorted(smooth, n)] for n in range(1, 10_001)]
    assert [_kernels._fft_size(n) for n in range(1, 10_001)] == want


# ------------------------------------------------------ Fresnel integrals

def _mp_g(t):
    """G(t) = exp(-i pi t^2/2) ((1 + i)/2 - F(t)) at 50 digits; t a float."""
    with mpmath.workdps(50):
        t = mpmath.mpf(t)
        f = mpmath.fresnelc(t) + 1j * mpmath.fresnels(t)
        return complex(mpmath.expjpi(-t * t / 2) * ((1 + 1j) / 2 - f))


def _mp_step(lo, hi):
    """F(hi) - F(lo) at 50 digits; lo and hi floats."""
    with mpmath.workdps(50):
        lo, hi = mpmath.mpf(lo), mpmath.mpf(hi)
        return complex((mpmath.fresnelc(hi) - mpmath.fresnelc(lo))
                       + 1j * (mpmath.fresnels(hi) - mpmath.fresnels(lo)))


# fresnel_g's joins, each Taylor cell's upper boundary (i + 1/2) step and
# the asymptotic series' start, and the floats just below them
_JOINS = [(i + 0.5) * _kernels._FRESNEL_STEP
          for i in range(round(_kernels._FRESNEL_T / _kernels._FRESNEL_STEP))]
_JOINS.append(_kernels._FRESNEL_T)
_BRANCHES = [b for join in _JOINS for b in (np.nextafter(join, 0.0), join)]


def test_fresnel_g_matches_mpmath_from_zero_to_1e5():
    t = np.concatenate([[0.0, 1e-300], np.linspace(0.0, 8.0, 161)[1:],
                        np.logspace(-4, 5, 91), _BRANCHES])
    want = np.array([_mp_g(v) for v in t])
    got = _kernels.fresnel_g(t)
    assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-14


def test_fresnel_steps_match_scipy():
    t = np.concatenate([np.linspace(-40.0, 40.0, 2001), _BRANCHES])
    s, c = scipy.special.fresnel(t)
    got = _kernels.fresnel_steps(np.stack([np.zeros_like(t), t]))
    assert got.shape == (1, t.size)
    assert np.max(np.abs(got[0] - (c + 1j * s))) <= 1e-14


def test_fresnel_steps_are_odd():
    t = np.concatenate([np.logspace(-3, 5, 97), _BRANCHES])
    zero = np.zeros_like(t)
    plus = _kernels.fresnel_steps(np.stack([zero, t]))
    minus = _kernels.fresnel_steps(np.stack([-t, zero]))
    # F(t) - F(0) == F(0) - F(-t), bit for bit
    assert plus.tobytes() == minus.tobytes()


def test_far_same_sign_steps_keep_their_relative_accuracy():
    # a pixel of 1/8 unit far out on either side: each step is about 1e-5
    # of the (1 + i)/2 constants, so cancelling those would lose 5 digits
    lo = np.array([1e3, 1e4, 5e4, 99_999.75, 2.25])
    hi = lo + 0.125
    edges = np.stack([np.concatenate([lo, -hi]), np.concatenate([hi, -lo])])
    got = _kernels.fresnel_steps(edges)[0]
    want = np.array([_mp_step(a, b) for a, b in edges.T])
    assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-13
    # a table of several edges differences each neighbour pair
    table = _kernels.fresnel_steps(np.array([[1e3], [1e3 + 0.5], [1e3 + 1.0]]))
    want = [_mp_step(1e3, 1e3 + 0.5), _mp_step(1e3 + 0.5, 1e3 + 1.0)]
    assert np.max(np.abs(table[:, 0] - want) / np.abs(want)) <= 1e-13


def test_taylor_table_march_lands_on_g_of_zero():
    # the table is marched down from the asymptotic G(6); G(0) = (1 + i)/2
    assert _kernels._TAYLOR[0, 0] == 0.5 + 0.5j
    assert _kernels.fresnel_g(0.0) == 0.5 + 0.5j


def test_fresnel_g_rejects_negative_and_nan_arguments():
    # a negative t would index the table from its far end
    for bad in (-1e-300, -0.5, -7.0, np.nan, [1.0, -1.0, 2.0], [3.0, np.nan]):
        with pytest.raises(InvalidArgumentError):
            _kernels.fresnel_g(bad)
    assert _kernels.fresnel_g(-0.0) == 0.5 + 0.5j


def test_steps_across_the_asymptotic_join_match_mpmath():
    edges = np.array([-6.1, -6.0, -5.9, 5.9, 6.0, 6.1])
    got = _kernels.fresnel_steps(edges)
    want = np.array([_mp_step(a, b) for a, b in zip(edges, edges[1:])])
    assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-13


def _steps_with_fmod(t):
    """fresnel_steps with t^2 reduced modulo 4 by np.fmod."""
    sign = np.sign(t)
    sq = t * t
    hi, lo = _kernels._split(t)
    sq_lo = ((hi * hi - sq) + 2.0 * hi * lo) + lo * lo
    turn = np.exp(0.5j * np.pi * (np.fmod(sq, 4.0) + sq_lo))
    tail = sign * turn * _kernels.fresnel_g(np.abs(t))
    return (0.5 + 0.5j) * np.diff(sign, axis=0) - np.diff(tail, axis=0)


def test_floor_reduction_leaves_raster_steps_bitwise_unchanged():
    # the edge tables of a 12 x 26 glyph raster at 60 um pitch on a 512
    # point detector over +-1.2 mm, from Z_eff = 30 mm down to 1e-9 m
    # (t up to 1.2e5), one row per edge as correlation_analytic_2d
    # builds them
    rng = np.random.default_rng(41)
    pixels = (rng.random((12, 26)) < 0.5) * 255.0
    obj = transmittance.raster_to_transmittance(pixels, 60e-6)
    x = grid.make_grid(0.0, 1.2e-3, 512).coordinates()
    for z in (30e-3, 12e-3, 5e-3, 1e-7, 1e-9):
        scale = np.sqrt(2.0 / (589.3e-9 * z))
        for edges in obj.pixel_edges():
            t = (edges[:, None] - x) * scale
            got = _kernels.fresnel_steps(t)
            assert got.tobytes() == _steps_with_fmod(t).tobytes()


def _steps_as_one_complex_expression(t):
    """fresnel_steps with the tail as the product sign * turn * G and the
    constants as the complex (1 + i)/2 diff(sign)."""
    sign = np.sign(t)
    sq = t * t
    hi, lo = _kernels._split(t)
    sq_lo = ((hi * hi - sq) + 2.0 * hi * lo) + lo * lo
    turn = np.exp(0.5j * np.pi * (sq - 4.0 * np.floor(sq * 0.25) + sq_lo))
    tail = sign * turn * _kernels.fresnel_g(np.abs(t))
    return (0.5 + 0.5j) * np.diff(sign, axis=0) - np.diff(tail, axis=0)


@pytest.mark.parametrize("shape", [(27, 512), (13, 512), (8, 2048)])
def test_step_bookkeeping_in_place_keeps_every_bit(shape):
    # edge tables of both signs with exact zeros among them: a whole zero
    # column, a zero row and zeros next to either sign
    rng = np.random.default_rng(shape[0])
    t = rng.uniform(-40.0, 40.0, shape)
    t[:, 0] = 0.0
    t[shape[0] // 2] = 0.0
    t[::3, 1] = 0.0
    got = _kernels.fresnel_steps(t)
    assert got.tobytes() == _steps_as_one_complex_expression(t).tobytes()
