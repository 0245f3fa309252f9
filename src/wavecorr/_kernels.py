"""Chirp quadrature and Fresnel integral kernels.

chirp_sum(x_out, x_in, coeffs, alpha, counts, steps) returns, for each
output point,

    out[i] = sum_j coeffs[j] * exp(1j * alpha * (x_out[i] - x_in[j])**2)

which is the computational core of direct Fresnel quadrature (the caller
folds kernel scale, global phase, and integration weights into coeffs
and a scalar factor). x_out is a uniform lattice (a Grid's coordinates)
and x_in is the nodes of propagation.midpoint_lattice: uniform runs, one
per support interval, whose counts and steps (the cell widths) the
caller passes. Neighbouring runs of one count and one step, bitwise,
form a group, and each group is one chirp-z (Bluestein) plan (Rabiner,
Schafer and Rader, Bell Syst. Tech. J. 48:1249, 1969; Bluestein, IEEE
Trans. Audio Electroacoust. 18:451, 1970). With x_i = xc + i*d the nodes
of one run and y_j = yc + j*w the outputs,

    alpha (y_j - x_i)^2 = Q(i) + P(j) + beta (j - i)^2,  beta = alpha d w,

so a run is one zero-padded FFT convolution of coeffs * exp(iQ) with the
kernel chirp exp(i beta k^2), times exp(iP): O((N + m) log(N + m)) in
place of the N*m terms of the definition. The kernel depends only on
beta and the index ranges, so the runs of a group share it: one output
origin yc, the output nearest the middle of the runs, one table and one
set of kernel spectra, one row per run through the FFTs. Each run keeps
its own Q and P, with xc its middle node. The beta k^2 parts grow as the
spacing ratio times the squared extent and are carried with their
rounding error (Dekker's exact product). All three chirps depend on
their index k only through beta k^2, and the chirp of -beta is the exact
conjugate of that of beta, so a plan builds one table over 0 <= k <= K,
K < N + m the largest |k| the kernel's taps reach, and takes about K +
R N + R m complex exponentials in all for R runs. A double slit or a
pair of holes is two mirror-image runs of one count and one cell width,
so it is one plan of two rows and one table.

One FFT length L = _fft_size(N + m - 1) covers every output whatever m,
so short runs on a long detector pay for the whole detector in each of
2R + 1 transforms, in rows of 16 L bytes that outgrow the cache. There a
plan splits the outputs into overlap-save blocks (Stockham, AFIPS Spring
Joint Computer Conference 28:229, 1966): block b of size B covers the B
- m + 1 outputs from b (B - m + 1) on, its spectrum is that of the B
taps they reach, and each run's row is transformed once at length B and
back once per block. _lattice_blocks decides from N, m and R alone. A
plan keeps one block while a row of L fits the workspace (_WORKSPACE,
256 KiB); past that it takes the block size of least predicted FFT work,
(blocks (R + 1) + R) B log B against (2R + 1) L log L, among B =
_fft_size(4 m), 2 B, 4 B, ... whose rows fit, if that work is the
lower. Every FFT an apply runs goes through the workspace, a chunk of
rows at a time; pocketfft gives a row the same bits in a chunk or
alone, so a one-block plan has the bits of one transform per row. A
blocked plan builds its P a chunk of blocks at a time and does not hold
it. With two runs of m nodes over a 125/300 um double slit, on N points
over +-2 mm, against 80-bit extended-precision sums of the same terms
at every 64th output (medians of chirp_sum on one x86-64 vCPU):

    N      m     Z_eff   blocks x B    blocked   one block   max|diff|/max
    16384  118   32 mm    20 x 960     2.2 ms    2.6 ms      3.8e-15
    32768  118   32 mm    39 x 960     4.6 ms    8.8 ms      4.1e-15
    32768  752    5 mm    15 x 3072    4.7 ms    5.7 ms      1.7e-14
    65536  118   32 mm    78 x 960     8.0 ms    12.8 ms     7.1e-15
    32768  4700  0.8 mm   one block    -         6.9 ms      5.0e-14

Both routes have the same error to two digits there: the terms' phases
set it, not the blocks. A plan with N + m - 1 <= 16,384 keeps one block
and the bits it had before blocks: every builtin, the ensemble's
reference arm and every 4096-point sum of the benchmark's defocus sweep.

On a 4096-point detector over +-2 mm and a 125/300 um double slit, the
route is within max|diff| / max of 1.5e-13 of 80-bit extended-precision
sums of the same terms at Z_eff = 0.8 mm (9.4k nodes; 3.8 ms), 1.1e-12 at
0.1 mm (75k nodes; 15 ms) and 2.4e-11 at 5 um (1.5M nodes; 0.4 s), over
every 64th output point on one x86-64 vCPU. A double-precision sum of the
terms one by one is off by 5.8e-13, 6.0e-12 and 7.1e-11 there: its error
grows as eps * alpha * u_max^2. The route is deterministic: the same
inputs give the same bits.

The ensemble's reference arm maps one uniform grid onto another, so it
uses the chirp-z route directly, with one row of coefficients per source
realization. _lattice_plan splits that route into the part fixed by the
lattices (_lattice_chirps: the table's kernel taps, Q and P), computed
once, and an apply step on rows of coefficients; chirp_sum builds and
applies one plan per group of runs, and the ensemble applies one
single-lattice plan to all its rows.

chirp_matrix is the plan's dense counterpart: the N x M matrix of the
terms themselves, for the engines that need the matrix (the ensemble's
object arm and the background's Hermitian form). With the same chirps,
entry (j, i) of a group is

    P(j) T(jj - ii) Q(i),  T(k) = exp(i beta k^2),

so the block is Toeplitz between two diagonal factors. chirp_matrix
reads T through a sliding-window view of the taps, folds the weights
(kernel scale, node widths) into Q, and writes the block in two passes
of products: about K + R N + R m exponentials for a group, where the
elementwise definition takes N R m, one per entry. Its phases are the
plan's: at the ensemble benchmark's geometry (512 source cells over 1 cm
onto a double slit's 38 nodes, phases up to 505 rad) the source-to-node
matrix is within 9.1e-14 of |scale| of a 64-bit-mantissa reference,
where the elementwise kernel is within 1.3e-13. The ensemble's two
object-arm matrices there take 1.2 ms together, against 3.8 ms
elementwise (medians in one process on one x86-64 vCPU).

fresnel_steps(t) is the exact alternative to the quadrature for an
object that is constant between edges: the kernel integral over one
piece is a difference of the Fresnel integral F(t) = C(t) + i S(t) at
the piece's two edges (Abramowitz and Stegun 7.3). Each edge gives its
tail H(|t|), where

    H(t) = (1 + i)/2 - F(t) = exp(i pi t^2 / 2) G(t),  t >= 0,

and G = g + i f in the auxiliary functions f and g of A&S 7.3.5-6, which
decays as i / (pi t). _fresnel_tail takes H in two closed forms joined at
t = 16, with numpy alone:

* below t = 16, a 10-term Taylor polynomial of H itself about the
  nearest of 2,305 centres c_j, uniform in (t + 1)^2 with 8 ((c_j + 1)^2
  - 1) = j: one gather of the centre's coefficients and a complex Horner
  in h = t - c_j, with no exponential and no phase. The cells are 1/16
  wide at t = 0 and narrow as 1 / (16 (t + 1)), so pi c h, which sets
  the terms' decay, stays below pi/32 in every cell. H' = -exp(i pi t^2
  / 2), so the coefficients follow from the exponential's own two-term
  recurrence; each anchor H(c_j) is exp(i pi c_j^2 / 2) G(c_j), with G
  from fresnel_g, and the anchor at 0 is (1 + i)/2 exactly. The table
  (369 KB of coefficients) is built on first use, in about 1.5 ms.
* from t = 16 up, exp(i pi t^2 / 2), with t^2 exact and reduced modulo 4
  before it is scaled, times the asymptotic series of f and g (A&S
  7.3.27-28) in 5 terms each; at t = 16 the first term left out is below
  1e-19 of G.

Against mpmath, H is within 1.2e-15 (relative) from 0 to 1e5, both sides
of every cell boundary and of t = 16 included; steps from 0 are within
2.5e-16 and steps 0.01 wide within 1e-14 (relative) of it. A step table
of 27 x 512 edges took 56-60 ns per point below t = 16, against 166-169
ns with fresnel_g and one complex exponential per point, and 115 ns
above, against 134 ns (interleaved medians on one x86-64 vCPU).

fresnel_g(t) evaluates G in two closed forms joined at t = 6:

* from t = 6 up, the asymptotic series of f and g, 12 terms each in u =
  (pi t^2)^-2 by real Horner; at t = 6 the first term left out is below
  1e-19 of G.
* below t = 6, a 20-term Taylor polynomial about the nearest of the
  centres c = 0, 1/8, ..., 6, in h = t - c with |h| <= 1/16: one gather
  of the centre's coefficients and a complex Horner. G' = -1 - i pi t G,
  so the coefficients follow from G(c) by a two-term recurrence. The
  table is built when the module loads (under 1 ms), by marching the
  polynomials from the asymptotic G(6) down to 0; the march lands on
  G(0) = (1 + i)/2 to the last bit.

The joins are the cell boundaries (k + 1/2)/8 and t = 6. Against
50-digit mpmath, fresnel_g is within 5e-16 (relative) for t in [0, 1e5],
the joins included. A negative or NaN t raises InvalidArgumentError.
"""

import functools
import itertools
import math

import numpy as np

from .errors import InvalidArgumentError

# fresnel_g: the asymptotic series runs from _FRESNEL_T up, with this many
# terms; at t = 6 the first one it leaves out is below 1e-19 of G
_FRESNEL_T = 6.0
_ASYMPTOTIC_TERMS = 12
# below _FRESNEL_T, Taylor polynomials of this many terms about centres
# _FRESNEL_STEP apart (an exact power of two, so t / step is exact)
_FRESNEL_STEP = 0.125
_TAYLOR_TERMS = 20
# fresnel_steps: below _TAIL_T each edge's tail (1 + i)/2 - F(t) is a
# Taylor polynomial of _TAIL_TERMS terms about the nearest centre, the
# centres _TAIL_STEP apart in (t + 1)^2 (an exact power of two); from
# _TAIL_T up it is the exact phase times the asymptotic G in this many
# terms, the first one left out below 1e-19 of G there
_TAIL_T = 16.0
_TAIL_STEP = 0.125
_TAIL_TERMS = 10
_TAIL_ASYMPTOTIC = 5
# bytes of the buffer a chirp-z plan's apply runs its FFT rows through, a
# chunk of rows at a time, and of the longest row a plan keeps in one
# block. Of 64 KiB to 1 MiB in powers of two, 256 KiB ran chirp_sum's
# 32,768- and 16,384-point far-field sums and the ensemble's reference-arm
# plan within 2 % of their fastest (3.7, 2.0 and 1.05 ms; interleaved
# medians on one x86-64 vCPU with 2 MiB of L2). At 1 MiB those sums keep
# one block and took 5.9 and 2.8 ms; at 64 KiB the plan took 1.32 ms.
_WORKSPACE = 1 << 18


def chirp_sum(x_out, x_in, coeffs, alpha, counts, steps):
    """sum_j coeffs[j] * exp(1j * alpha * (x_out[i] - x_in[j])**2) for
    each output point i.

    x_out is a uniform lattice (a Grid's coordinates) or a single point,
    and x_in is made of uniform runs of at least 2 nodes, one per entry of
    counts and steps, in order: counts[k] nodes steps[k] apart
    (midpoint_lattice's counts and cell widths), sum(counts) ==
    len(x_in). Neighbouring runs of equal count and bitwise-equal step
    form a group, such as a double slit's two mirror-image runs; each
    group is one _lattice_plan onto x_out, whose step is
    (x_out[-1] - x_out[0]) / (N - 1). An empty x_out or x_in gives
    zeros.

    Temporaries, for a group of R runs of m nodes onto N points, with W
    = _WORKSPACE. In one block of L = _fft_size(N + m - 1), the plan
    holds the R rows of P (16 R N bytes) and the kernel spectrum (16 L),
    and the apply adds the group's sum (16 N) and its workspace of
    min(R, max(1, W / 16 L)) rows of L. In nb blocks of B outputs' taps
    and S = B - m + 1 outputs, the plan holds the blocks' spectra (16 nb
    B) and the chirp table's lo and exp(-i hi) (24 K bytes for the
    kernel's |k| <= K), and the apply adds the sum in whole blocks (16 nb
    S), the runs' transforms (16 R B) and its workspace: a chunk of c = W
    / 16 B blocks' rows (16 c B), one run's P over them (16 c S) and P's
    phase (8 c S). Either way the table's taps (16 K) are freed once they
    have given the spectra, which blocks take a chunk at a time, so the
    apply sets the peak. For the benchmark's far-field sum (N = 32,768,
    two runs of 114 nodes) that is 2.16 MB, where one block held 3.19 MB.
    """
    x_out = np.ascontiguousarray(x_out, dtype=np.float64)
    x_in = np.ascontiguousarray(x_in, dtype=np.float64)
    coeffs = np.ascontiguousarray(coeffs, dtype=np.complex128)
    n_out = x_out.shape[0]
    if x_in.shape[0] == 0 or n_out == 0:
        return np.zeros(n_out, dtype=np.complex128)
    out = None
    for start, stop, runs, m, d, w in _lattice_groups(x_out, counts, steps):
        plan = _lattice_plan(x_out, w, x_in[start:stop].reshape(runs, m), d,
                             alpha)
        part = plan(coeffs[start:stop].reshape(runs, m))
        if out is None:
            out = part
        else:
            out += part
    return out


def chirp_matrix(x_out, x_in, weights, alpha, counts, steps):
    """weights[i] * exp(1j * alpha * (x_out[j] - x_in[i])**2) at (j, i),
    an (len(x_out), len(x_in)) array: chirp_sum's terms, one column per
    node.

    x_out, x_in, counts and steps are as for chirp_sum, and weights
    broadcasts against x_in (a scalar kernel scale, or scale times node
    widths); chirp_sum(x_out, x_in, c, ...) is this matrix times c, to
    rounding. In a group of R runs of m nodes, the entry of output j and
    node i of run r is P_r(j) T(jj - ii) Q_r(i), with the group's
    _lattice_chirps and the weights folded into Q. T is Toeplitz, so the
    group's block is written in two passes, T times Q and then times P:
    about K + R N + R m exponentials for the largest tap K < N + m,
    where the definition takes N R m.
    """
    x_out = np.ascontiguousarray(x_out, dtype=np.float64)
    x_in = np.ascontiguousarray(x_in, dtype=np.float64)
    weights = np.broadcast_to(np.asarray(weights, dtype=np.complex128),
                              x_in.shape)
    out = np.empty((x_out.shape[0], x_in.shape[0]), dtype=np.complex128)
    if out.size == 0:
        return out
    for start, stop, runs, m, d, w in _lattice_groups(x_out, counts, steps):
        t, q, p_row = _lattice_chirps(
            x_out, w, x_in[start:stop].reshape(runs, m), d, alpha,
            lambda taps: taps(0, x_out.shape[0] + m - 1))
        q *= weights[start:stop].reshape(runs, m)
        p = np.empty((runs, x_out.shape[0]), dtype=np.complex128)
        for r in range(runs):
            p_row(p[r], r)
        # row j of T is the window t[j + m - 1], ..., t[j] of the taps
        window = np.lib.stride_tricks.sliding_window_view(t[::-1], m)
        block = out[:, start:stop].reshape(-1, runs, m)
        np.multiply(window[::-1, None, :], q, out=block)
        block *= p.T[:, :, None]
    return out


def _lattice_groups(x_out, counts, steps):
    """(start, stop, runs, m, d, w) of each group of neighbouring runs of
    equal count m and bitwise-equal step d: the group's nodes are
    x_in[start:stop], and w is x_out's step."""
    n_out = x_out.shape[0]
    start = 0
    for (m, d), group in itertools.groupby(zip(counts, steps)):
        runs = len(tuple(group))
        stop = start + runs * m
        # any step spans a single output point; the runs' keeps beta small
        w = (x_out[-1] - x_out[0]) / (n_out - 1) if n_out > 1 else d
        yield start, stop, runs, m, d, w
        start = stop


def _lattice_chirps(y, w, x, d, alpha, keep):
    """(keep(taps), q, p_row): the chirps of alpha (y_j - x_i)^2 = Q(i) +
    P(j) + beta (jj - ii)^2 for lattices y (step w) and x (step d), as
    complex exponentials.

    x is one lattice of m nodes, (m,), or R lattices of m nodes and one
    step d, (R, m). There is one output origin yc = y[j0], the point of y
    nearest the middle of the lattices, and each lattice's origin xc is
    its middle node. The taps t are exp(i beta k^2) at the kernel's taps
    k = jj - ii for j - i = -(m - 1) .. n - 1, in that order, and
    taps(a, b) returns t[a:b], zero past the last tap; q is (R, m), one
    row per lattice, and p_row(out, r, a) writes P of lattice r at the
    outputs a, ..., a + len(out) - 1 into out. All three come from one
    _chirp_table over the largest tap |k|, which bounds every |ii| and
    |jj|; Q and P each add their alpha part to the table's -lo before one
    exponential, times the conjugate of exp(i hi). keep maps the taps to
    what the caller holds of them (a plan, their spectra) before Q is
    built, and the table's taps are freed after it; p_row keeps the
    table's lo and exp(-i hi), which it reads through slices.
    """
    n = y.shape[0]
    lattices = x.reshape(-1, x.shape[-1])
    m = lattices.shape[1]
    # index origins at each lattice's middle node xc and at the output yc
    # nearest the middle of the lattices: x_i = xc + ii d, y_j = yc + jj w
    i0 = m // 2
    xc = lattices[:, i0]
    j0 = int(np.clip(np.rint((0.5 * (xc[0] + xc[-1]) - y[0]) / w), 0, n - 1))
    yc = y[j0]
    beta = alpha * d * w
    # the kernel's taps k = jj - ii run from -c0 to n + m - 2 - c0 (c0 >=
    # 0), and every |ii| and |jj| is within theirs; the table is read
    # through slices, backwards for the negative k
    c0 = m - 1 + j0 - i0
    lo, e_hi, e = _chirp_table(beta, max(c0, n + m - 2 - c0))

    def taps(a, b):
        # t[a:b], zero past the last tap
        out = np.zeros(b - a, dtype=np.complex128)
        split = min(max(c0, a), b) - a
        out[:split] = e[c0 - a:c0 - a - split:-1]
        tail = e[a + split - c0:n + m - 1 - c0][:b - a - split]
        out[split:split + tail.shape[0]] = tail
        return out

    t = keep(taps)
    del e, taps
    # Q(i) = alpha (x_i - yc)^2 - beta ii^2,
    # P(j) = alpha ((y_j - xc)^2 - (yc - xc)^2) - beta jj^2
    ki = np.abs(np.arange(m) - i0)
    q = (np.exp(1j * (alpha * (lattices - yc) ** 2 - lo[ki]))
         * np.conj(e_hi[ki]))
    np.conjugate(e_hi, out=e_hi)

    def p_row(out, r, a=0):
        # in the order of operations of the formula above; |jj| is j0 - j
        # for the `split` outputs left of yc, j - j0 from yc on
        b = a + out.shape[0]
        split = min(max(j0, a), b) - a
        left = slice(j0 - a, j0 - a - split, -1)
        right = slice(a + split - j0, b - j0)
        x0 = xc[r]
        phase = np.subtract(y[a:b], x0)
        np.square(phase, out=phase)
        phase -= (yc - x0) ** 2
        phase *= alpha
        phase[:split] -= lo[left]
        phase[split:] -= lo[right]
        np.exp(np.multiply(1j, phase, out=out), out=out)
        out[:split] *= e_hi[left]
        out[split:] *= e_hi[right]

    return t, q, p_row


def _lattice_plan(y, w, x, d, alpha):
    """sum_i c_i exp(i alpha (y_j - x_i)^2) for lattices y (step w) and
    x (step d), by linear FFT convolution (Bluestein), as a function
    apply(c) of the coefficients.

    x is one lattice of m nodes, (m,), or R lattices of m nodes and one
    step d, (R, m). c has x's shape after any leading batch axes; the sum
    runs over its last axis and over the R lattices, so the result is
    (..., n). The plan holds _lattice_chirps' Q and the kernel spectra of
    _lattice_blocks' blocks; apply multiplies each row of the convolution
    by its P and adds the rows into the result in run order, and every
    FFT it runs goes through one workspace of _WORKSPACE bytes, in chunks
    of rows.

    With one block, the spectrum is the FFT of all the taps and the plan
    holds the R rows of P. apply takes the coefficient rows c[..., r, :]
    (run r of each batch row) in order, a chunk at a time, through one FFT
    each way. pocketfft gives a row the same bits in a batch or alone, so
    a plan over one lattice has the bits of a plan over x alone.

    With several blocks (overlap-save), block b covers the `step` outputs
    from b step on, and its spectrum is that of the taps t[b step:b step
    + size]. apply takes one FFT of each row at the block size; then,
    chunk by chunk of blocks, for each run it builds that run's P over
    the chunk's outputs (P is not held) and for each row multiplies the
    row's FFT by the blocks' spectra and transforms back.

    apply leaves c untouched and returns a new array.
    """
    n = y.shape[0]
    runs, m = x.reshape(-1, x.shape[-1]).shape
    size, step, blocks = _lattice_blocks(n, m, runs)
    chunk = max(1, _WORKSPACE // (16 * size))

    def spectra(taps):
        if blocks == 1:
            return np.fft.fft(taps(0, n + m - 1), size)[None]
        # block b's taps are t[b step:b step + size]: a chunk of blocks
        # reads windows of one stretch of taps
        out = np.empty((blocks, size), dtype=np.complex128)
        for b in range(0, blocks, chunk):
            k = min(chunk, blocks - b)
            t = taps(b * step, (b + k - 1) * step + size)
            np.fft.fft(np.lib.stride_tricks.as_strided(
                t, (k, size), (16 * step, 16), writeable=False),
                out=out[b:b + k])
        return out

    spectrum, q, p_row = _lattice_chirps(y, w, x, d, alpha, spectra)
    # the operand order of each product is part of the result's bits
    # (complex multiply is not bitwise commutative)
    if blocks == 1:
        p = np.empty((runs, n), dtype=np.complex128)
        for r in range(runs):
            p_row(p[r], r)

        def apply(c):
            # chunks of the rows c[l, r] in order; c * q goes straight
            # into the zero-padded rows and both FFTs run in place. A
            # chunk's rows of run r are every runs-th, from its i-th on
            lead = np.shape(c)[:np.ndim(c) - x.ndim]
            flat = np.reshape(c, (-1, m))
            out = np.empty((flat.shape[0] // runs, n), dtype=np.complex128)
            work = np.empty((min(chunk, flat.shape[0]), size),
                            dtype=np.complex128)
            for a in range(0, flat.shape[0], chunk):
                rows = work[:flat.shape[0] - a]
                firsts = [(r, (r - a) % runs) for r in range(runs)]
                for r, i in firsts:
                    np.multiply(flat[a + i:a + chunk:runs], q[r],
                                out=rows[i::runs, :m])
                rows[:, m:] = 0
                np.fft.fft(rows, out=rows)
                rows *= spectrum[0]
                np.fft.ifft(rows, out=rows)
                for r, i in firsts:
                    run = rows[i::runs, m - 1:m - 1 + n]
                    l = (a + i) // runs
                    _add_run(out[l:l + run.shape[0]], p[r], run, r)
            return out.reshape(lead + (n,))

        return apply

    def apply(c):
        # the result has whole blocks; the last one's outputs past n are
        # dropped
        lead = np.shape(c)[:np.ndim(c) - x.ndim]
        c = np.reshape(c, (-1, runs, m))
        out = np.empty((c.shape[0], blocks, step), dtype=np.complex128)
        head = np.zeros((c.shape[0], runs, size), dtype=np.complex128)
        np.multiply(c, q, out=head[..., :m])
        np.fft.fft(head, out=head)
        work = np.empty((chunk, size), dtype=np.complex128)
        # P of one run over a chunk's outputs; past n it keeps finite
        # values, so the dropped outputs raise no floating-point warning
        p = np.zeros(chunk * step, dtype=np.complex128)
        for b in range(0, blocks, chunk):
            rows = work[:blocks - b]
            k = rows.shape[0]
            for r in range(runs):
                p_row(p[:min(k * step, n - b * step)], r, b * step)
                for total, heads in zip(out[:, b:b + k], head[:, r]):
                    np.multiply(heads, spectrum[b:b + k], out=rows)
                    np.fft.ifft(rows, out=rows)
                    _add_run(total, p[:k * step].reshape(k, step),
                             rows[:, m - 1:], r)
        return out.reshape(-1, blocks * step)[:, :n].reshape(lead + (n,))

    return apply


def _add_run(total, p, rows, r):
    """total = p * rows for the first run (r == 0), else total += p * rows,
    with the product written over rows."""
    if r == 0:
        np.multiply(p, rows, out=total)
    else:
        np.multiply(p, rows, out=rows)
        total += rows


def _lattice_blocks(n, m, runs):
    """(size, step, blocks): a plan's FFT length and its output blocks of
    `step` points, for n outputs from runs lattices of m nodes.

    One block covers every output at L = _fft_size(n + m - 1), and its
    FFT work is (2 runs + 1) L log L: the spectrum, then one transform
    each way per run. Blocks of size B cover B - m + 1 outputs each, for
    (blocks (runs + 1) + runs) B log B: the blocks' spectra, then per run
    one transform forward and one back per block. A plan keeps one block
    while a row of L fits the workspace; past it, it takes the candidate
    B = _fft_size(4 m), 2 B, 4 B, ... of least work whose row fits, if
    that work is below one block's.
    """
    size = _fft_size(n + m - 1)
    best = (size, n, 1)
    if 16 * size <= _WORKSPACE:
        return best
    least = (2 * runs + 1) * size * math.log2(size)
    b = _fft_size(4 * m)
    while b < size and 16 * b <= _WORKSPACE:
        step = b - m + 1
        blocks = -(-n // step)
        work = (blocks * (runs + 1) + runs) * b * math.log2(b)
        if work < least:
            least, best = work, (b, step, blocks)
        b *= 2
    return best


def _fft_size(n):
    """Smallest 2**a * 3**b * 5**c >= n, a length numpy's FFT does fast."""
    size = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < size:
        p35 = p5
        while p35 < size:
            size = min(size, p35 << (-(-n // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return size


def _chirp_table(beta, kmax):
    """(lo, exp(1j * hi), exp(1j * lo) * exp(1j * hi)) for k = 0..kmax,
    where beta * k**2 == hi + lo exactly.

    hi is the rounded product and lo its rounding error (Dekker's exact
    product), so the large part never rounds against a small phase added
    to lo. A chirp of -beta is the conjugate: the split, hi and lo all
    flip sign exactly, so exp(1j * (phase - lo)) * conj(exp(1j * hi)) is
    exp(1j * (phase - beta * k**2)) with the same bits as a table built
    for -beta.
    """
    k2 = np.arange(kmax + 1, dtype=np.float64)
    k2 *= k2  # exact below 2**53
    hi = beta * k2
    b_hi, b_lo = _split(beta)
    k_hi, k_lo = _split(k2)
    del k2
    lo = ((b_hi * k_hi - hi) + b_hi * k_lo + b_lo * k_hi) + b_lo * k_lo
    del k_hi, k_lo
    e_hi = np.multiply(1j, hi)
    del hi
    np.exp(e_hi, out=e_hi)
    # exp(1j * lo) from two Taylor terms each, cos lo = 1 - lo**2 / 2 and
    # sin lo = lo - lo**3 / 6: for |lo| below 2**-17 these are np.exp's
    # bits (2e6 draws in each binade from 2**-60 up), and |lo| is at most
    # half an ulp of hi, so they hold for every |hi| below 2**36 rad
    e = np.empty_like(e_hi)
    sq = lo * lo
    e.real = 1.0 - 0.5 * sq
    sq *= lo
    sq /= 6.0
    e.imag = lo - sq
    e *= e_hi
    return lo, e_hi, e


def _split(v):
    """Veltkamp split: v == hi + lo, each half of the mantissa."""
    t = 134217729.0 * v  # 2**27 + 1
    hi = t - (t - v)
    return hi, v - hi


def fresnel_steps(t):
    """F(t[k + 1]) - F(t[k]) along the first axis of t, with F(t) =
    C(t) + i S(t) = Integral_0^t exp(i pi s^2 / 2) ds: an edges-major
    table, one row per edge, gives its steps as differences of rows.

    Each edge is split as F(t) = sgn(t) ((1 + i)/2 - H(|t|)), with H the
    decaying tail of _fresnel_tail, and the constants and the tails are
    differenced apart: the constants cancel exactly between edges of one
    sign, so a difference of two far-out edges keeps its relative
    accuracy. A NaN edge gives NaN steps.
    """
    t = np.asarray(t, dtype=np.float64)
    sign = np.sign(t)
    tail = _fresnel_tail(np.abs(t))
    tail *= sign
    # -diff(tail) plus the constants' difference (1 + i)/2 diff(sign),
    # added to each part on its own: the same bits as the complex product
    steps = tail[:-1] - tail[1:]
    half = 0.5 * np.diff(sign, axis=0)
    steps.real += half
    steps.imag += half
    return steps


def _fresnel_tail(t):
    """H(t) = (1 + i)/2 - F(t) = exp(i pi t^2 / 2) G(t) for t >= 0, any
    shape: _tail_near below _TAIL_T, and from there up (and at NaN) the
    exact phase times _TAIL_ASYMPTOTIC terms of the asymptotic G.

    t is taken in chunks of _WORKSPACE bytes of output, so that on a long
    table the Horner's operands stay in cache: on four edges of 32,768
    points (t up to 23) that took 63 against 128 ns per point.
    """
    out = np.empty(t.shape, dtype=np.complex128)
    flat, tails = t.reshape(-1), out.reshape(-1)
    step = _WORKSPACE // 16
    for a in range(0, flat.shape[0], step):
        chunk, tail = flat[a:a + step], tails[a:a + step]
        near = chunk < _TAIL_T
        if near.all():
            _tail_near(chunk, tail)
            continue
        tail[near] = _tail_near(chunk[near])
        far = ~near
        tf = chunk[far]
        tail[far] = _fresnel_phase(tf) * _fresnel_g_far(tf, _TAIL_ASYMPTOTIC)
    return out


def _tail_near(t, out=None):
    """H(t) for 0 <= t < _TAIL_T, into out if given: the Taylor
    polynomial of _tail_table about the nearest centre c_j, (c_j + 1)^2 =
    1 + j _TAIL_STEP, in h = t - c_j, by complex Horner."""
    centres, table = _tail_table()
    j = t * (1.0 / _TAIL_STEP)
    j += 2.0 / _TAIL_STEP
    j *= t
    j = np.rint(j, out=j).astype(np.intp)
    # complex, so that each Horner step is one complex product
    h = np.subtract(t, centres.take(j)).astype(np.complex128)
    acc = table[-1].take(j, out=out)
    for k in range(_TAIL_TERMS - 2, -1, -1):
        acc *= h
        acc += table[k].take(j)
    return acc


def _fresnel_phase(t):
    """exp(i pi t^2 / 2), with t^2 exact and reduced modulo 4 before it
    is scaled, so a phase of 1.6e8 rad (t = 1e4) keeps the accuracy of
    one below 2 pi."""
    sq = t * t
    hi, lo = _split(t)
    sq_lo = ((hi * hi - sq) + 2.0 * hi * lo) + lo * lo
    # sq mod 4, bitwise as np.fmod gives it but cheaper: sq / 4 and
    # 4 floor(sq / 4) are exact, and so is their difference (Sterbenz)
    return np.exp(0.5j * np.pi * (sq - 4.0 * np.floor(sq * 0.25) + sq_lo))


def fresnel_g(t):
    """G(t) = exp(-i pi t^2 / 2) ((1 + i)/2 - F(t)) for t >= 0, any shape.

    Raises InvalidArgumentError for a negative or NaN t, which the table
    would otherwise index from its far end.
    """
    t = np.asarray(t, dtype=np.float64)
    if not (t >= 0).all():
        raise InvalidArgumentError("fresnel_g needs t >= 0, not NaN")
    g = np.empty(t.shape, dtype=np.complex128)
    far = t >= _FRESNEL_T
    g[far] = _fresnel_g_far(t[far], _ASYMPTOTIC_TERMS)
    near = ~far
    tn = t[near]
    # the nearest centre c = i * step and the offset h = t - c, both exact
    i = np.rint(tn * (1.0 / _FRESNEL_STEP))
    h = tn - i * _FRESNEL_STEP
    i = i.astype(np.intp)
    acc = _TAYLOR[-1].take(i)
    for k in range(_TAYLOR_TERMS - 2, -1, -1):
        acc *= h
        acc += _TAYLOR[k].take(i)
    g[near] = acc
    return g


def _fresnel_g_far(t, terms):
    """G for large t, G = g + i f in the auxiliary functions f and g, from
    `terms` terms each of their asymptotic series (A&S 7.3.27-28),

        f ~ (1 / (pi t)) sum_m (-1)^m (4m - 1)!! u^m,
        g ~ (1 / (pi^2 t^3)) sum_m (-1)^m (4m + 1)!! u^m,  u = (pi t^2)^-2.
    """
    r = 1.0 / (np.pi * t)
    w = r / t
    u = w * w
    f = np.full(t.shape, _ASYMPTOTIC_F[terms - 1])
    g = np.full(t.shape, _ASYMPTOTIC_G[terms - 1])
    for m in range(terms - 2, -1, -1):
        f *= u
        f += _ASYMPTOTIC_F[m]
        g *= u
        g += _ASYMPTOTIC_G[m]
    out = np.empty(t.shape, dtype=np.complex128)
    out.real = g * (r * w)
    out.imag = f * r
    return out


def _taylor_table():
    """Taylor coefficients of G about c = 0, step, ..., _FRESNEL_T, as a
    (_TAYLOR_TERMS, centres) array.

    G' = -1 - i pi t G, so the coefficients a_k of G(c + h) follow from
    a_0 = G(c) by (k + 1) a_{k+1} = -[k == 0] - i pi (c a_k + a_{k-1}).
    The table is seeded with the asymptotic G(_FRESNEL_T) and marched
    down, each centre's polynomial giving G at the next centre below; the
    march ends at G(0) = (1 + i)/2. Python complex scalars keep the
    march cheap at import.
    """
    ipi = 1j * np.pi
    a0 = complex(_fresnel_g_far(np.array([_FRESNEL_T]), _ASYMPTOTIC_TERMS)[0])
    rows = []
    for j in range(round(_FRESNEL_T / _FRESNEL_STEP), -1, -1):
        b = -ipi * (j * _FRESNEL_STEP)  # -i pi c
        a = [a0, b * a0 - 1]
        for k in range(1, _TAYLOR_TERMS - 1):
            a.append((b * a[k] - ipi * a[k - 1]) / (k + 1))
        rows.append(a)
        a0 = 0j
        for ak in reversed(a):
            a0 = a0 * -_FRESNEL_STEP + ak
    return np.array(rows[::-1]).T.copy()


@functools.cache
def _tail_table():
    """(centres, coefficients): the centres c_j = sqrt(1 + j _TAIL_STEP)
    - 1 of _tail_near's cells, from 0 to _TAIL_T, and the Taylor
    coefficients of H about each, a (_TAIL_TERMS, centres) array.

    H' = -E with E(t) = exp(i pi t^2 / 2), and E' = i pi t E, so about c
    the coefficients of E follow from e_0 = E(c) by (k + 1) e_{k+1} =
    i pi (c e_k + e_{k-1}), and those of H are a_{k+1} = -e_k / (k + 1).
    Each anchor a_0 = H(c) is E(c) G(c), with G(c) from fresnel_g: G is
    smooth, so its march keeps the anchors' accuracy, where a march of H
    itself, each cell's polynomial giving the next anchor down, drifts
    by 9.5e-14 (relative) over the top 384 cells.
    """
    j = np.arange(round(_TAIL_T * (_TAIL_T + 2.0) / _TAIL_STEP) + 1)
    c = np.sqrt(1.0 + j * _TAIL_STEP) - 1.0
    e = _fresnel_phase(c)
    table = np.empty((_TAIL_TERMS, c.size), dtype=np.complex128)
    table[0] = e * fresnel_g(c)
    ipi = 1j * np.pi
    previous = 0.0
    for k in range(1, _TAIL_TERMS):
        table[k] = -e / k
        e, previous = ipi * (c * e + previous) / k, e
    return c, table


# (-1)^m (4m - 1)!! and (-1)^m (4m + 1)!!, products exact as Python ints
_ASYMPTOTIC_F = np.array([(-1) ** m * math.prod(range(1, 4 * m, 2))
                          for m in range(_ASYMPTOTIC_TERMS)], dtype=np.float64)
_ASYMPTOTIC_G = np.array([(-1) ** m * math.prod(range(1, 4 * m + 2, 2))
                          for m in range(_ASYMPTOTIC_TERMS)], dtype=np.float64)
# built at import (under 1 ms): built on first use instead, it left the
# chaotic_ensemble benchmark, which never reads it, 5-7 % slower in 16 of
# 16 runs; only its allocations at import differed
_TAYLOR = _taylor_table()
