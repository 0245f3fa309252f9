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
kernel spectrum, and one FFT each way over the group's rows, one row per
run. Each run keeps its own Q and P, with xc its middle node. The
beta k^2 parts grow as the spacing ratio times the squared extent and
are carried with their rounding error (Dekker's exact product). All three chirps depend on their index k only
through beta k^2, and the chirp of -beta is the exact conjugate of that
of beta, so a plan builds one table over 0 <= k <= K, K < N + m the
largest |k| the kernel's taps reach, and takes about 2K + R N + R m
complex exponentials in all for R runs. A double slit or a pair of holes
is two mirror-image runs of one count and one cell width, so it is one
plan of two rows: five FFTs and one table where two plans take six
FFTs and two tables.

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
lattices (the chirps and the kernel chirp's spectrum), computed once,
and an apply step on rows of coefficients; chirp_sum builds and applies
one plan per group of runs, and the ensemble applies one single-lattice
plan to all its rows.

fresnel_steps(t) is the exact alternative to the quadrature for an
object that is constant between edges: the kernel integral over one
piece is a difference of the Fresnel integral F(t) = C(t) + i S(t) at
the piece's two edges (Abramowitz and Stegun 7.3). It evaluates F
through the auxiliary function

    G(t) = exp(-i pi t^2 / 2) ((1 + i)/2 - F(t)),  t >= 0,

which is g(t) + i f(t) in the auxiliary functions f and g of A&S
7.3.5-6 and decays as i / (pi t). fresnel_g evaluates it in two closed
forms joined at t = 6, with numpy alone:

* from t = 6 up, the asymptotic series of f and g (A&S 7.3.27-28), 12
  terms each in u = (pi t^2)^-2 by real Horner; at t = 6 the first term
  left out is below 1e-19 of G.
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

    Temporaries, for a group of R runs of m nodes onto N points and
    L = _fft_size(N + m - 1): the plan holds the R rows of P (16 R N
    bytes) and the kernel spectrum (16 L), and the apply adds the R-row
    FFT block (16 R L) and the group's sum (16 N). The chirp table (40 K
    bytes for the kernel's |k| <= K) is freed once it has given the
    spectrum and P's share of it, and P is built row by row through one
    phase buffer (8 N), so the apply sets the peak.
    """
    x_out = np.ascontiguousarray(x_out, dtype=np.float64)
    x_in = np.ascontiguousarray(x_in, dtype=np.float64)
    coeffs = np.ascontiguousarray(coeffs, dtype=np.complex128)
    n_out = x_out.shape[0]
    if x_in.shape[0] == 0 or n_out == 0:
        return np.zeros(n_out, dtype=np.complex128)
    out = None
    start = 0
    for (m, d), group in itertools.groupby(zip(counts, steps)):
        runs = len(tuple(group))
        stop = start + runs * m
        # any step spans a single output point; the runs' keeps beta small
        w = (x_out[-1] - x_out[0]) / (n_out - 1) if n_out > 1 else d
        plan = _lattice_plan(x_out, w, x_in[start:stop].reshape(runs, m), d,
                             alpha)
        part = plan(coeffs[start:stop].reshape(runs, m))
        if out is None:
            out = part
        else:
            out += part
        start = stop
    return out


def _lattice_plan(y, w, x, d, alpha):
    """sum_i c_i exp(i alpha (y_j - x_i)^2) for lattices y (step w) and
    x (step d), by one linear FFT convolution (Bluestein), as a function
    apply(c) of the coefficients.

    x is one lattice of m nodes, (m,), or R lattices of m nodes and one
    step d, (R, m). c has x's shape after any leading batch axes; the sum
    runs over its last axis and over the R lattices, so the result is
    (..., n). The plan has one output origin, the point of y nearest the
    middle of the lattices, one _chirp_table over the largest |k| of the
    kernel's taps k = jj - ii, which bounds every |ii| and |jj|, and one
    kernel spectrum, the table's exp(i beta k^2) at |k|. Each lattice has
    its own Q and P, each adding its alpha part to the table's -lo before
    one exponential, times the conjugate of exp(i hi). apply runs the R
    rows through one FFT each way, multiplies each row by its P and adds
    the rows in place; it leaves c untouched and returns a new array. For
    one lattice that is a single row, with the bits of a plan over x
    alone.
    """
    n = y.shape[0]
    lattices = x.reshape(-1, x.shape[-1])
    runs, m = lattices.shape
    # index origins at each lattice's middle node xc and at the output yc
    # nearest the middle of the lattices: x_i = xc + ii d, y_j = yc + jj w
    i0 = m // 2
    xc = lattices[:, i0]
    j0 = int(np.clip(np.rint((0.5 * (xc[0] + xc[-1]) - y[0]) / w), 0, n - 1))
    yc = y[j0]
    beta = alpha * d * w
    # the kernel's taps k = jj - ii; every |ii| and |jj| is within theirs
    k = np.abs(np.arange(-(m - 1), n) - (j0 - i0))
    lo, e_hi, e = _chirp_table(beta, k.max())
    size = _fft_size(n + m - 1)
    spectrum = np.fft.fft(e[k], size)
    del e, k
    # Q(i) = alpha (x_i - yc)^2 - beta ii^2,
    # P(j) = alpha ((y_j - xc)^2 - (yc - xc)^2) - beta jj^2
    ki = np.abs(np.arange(m) - i0)
    q = (np.exp(1j * (alpha * (lattices - yc) ** 2 - lo[ki]))
         * np.conj(e_hi[ki]))
    kj = np.abs(np.arange(n) - j0)
    lo, e_hi = lo[kj], np.conj(e_hi[kj])
    # each lattice's P is built in its row of p through one phase buffer,
    # in the order of operations of the formula above
    p = np.empty((runs, n), dtype=np.complex128)
    phase = np.empty(n)
    for row, x0 in zip(p, xc):
        np.square(np.subtract(y, x0, out=phase), out=phase)
        phase -= (yc - x0) ** 2
        phase *= alpha
        phase -= lo
        np.exp(np.multiply(1j, phase, out=row), out=row)
        row *= e_hi

    def apply(c):
        # c * q goes straight into the zero-padded block and both FFTs run
        # in place; the operand order of each product is part of the
        # result's bits (complex multiply is not bitwise commutative)
        lead = np.shape(c)[:np.ndim(c) - x.ndim]
        out = np.empty(lead + (runs, size), dtype=np.complex128)
        np.multiply(np.reshape(c, lead + (runs, m)), q, out=out[..., :m])
        out[..., m:] = 0
        np.fft.fft(out, out=out)
        out *= spectrum
        np.fft.ifft(out, out=out)
        rows = out[..., m - 1:m - 1 + n]
        total = p[0] * rows[..., 0, :]
        for r in range(1, runs):
            np.multiply(p[r], rows[..., r, :], out=rows[..., r, :])
            total += rows[..., r, :]
        return total

    return apply


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
    k = np.arange(kmax + 1)
    k2 = (k * k).astype(np.float64)  # exact below 2**53
    hi = beta * k2
    b_hi, b_lo = _split(beta)
    k_hi, k_lo = _split(k2)
    lo = ((b_hi * k_hi - hi) + b_hi * k_lo + b_lo * k_hi) + b_lo * k_lo
    e_hi = np.exp(1j * hi)
    return lo, e_hi, np.exp(1j * lo) * e_hi


def _split(v):
    """Veltkamp split: v == hi + lo, each half of the mantissa."""
    t = 134217729.0 * v  # 2**27 + 1
    hi = t - (t - v)
    return hi, v - hi


def fresnel_steps(t):
    """F(t[..., k + 1]) - F(t[..., k]) along the last axis of t, with
    F(t) = C(t) + i S(t) = Integral_0^t exp(i pi s^2 / 2) ds.

    Each edge is split as F(t) = sgn(t) (1 + i)/2 - sgn(t) exp(i pi t^2/2)
    G(|t|), and the constants and the decaying tails are differenced
    apart: the constants cancel exactly between edges of one sign, so a
    difference of two far-out edges keeps its relative accuracy. The
    phase pi t^2 / 2 is taken with t^2 exact, reduced modulo 4 before it
    is scaled, so a phase of 1.6e8 rad (t = 1e4) keeps the accuracy of
    one below 2 pi.
    """
    t = np.asarray(t, dtype=np.float64)
    sign = np.sign(t)
    sq = t * t
    hi, lo = _split(t)
    sq_lo = ((hi * hi - sq) + 2.0 * hi * lo) + lo * lo
    # sq mod 4, bitwise as np.fmod gives it but cheaper: sq / 4 and
    # 4 floor(sq / 4) are exact, and so is their difference (Sterbenz)
    tail = np.exp(0.5j * np.pi * (sq - 4.0 * np.floor(sq * 0.25) + sq_lo))
    tail *= fresnel_g(np.abs(t))
    tail *= sign
    # -diff(tail) plus the constants' difference (1 + i)/2 diff(sign),
    # added to each part on its own: the same bits as the complex product
    steps = tail[..., :-1] - tail[..., 1:]
    half = 0.5 * np.diff(sign, axis=-1)
    steps.real += half
    steps.imag += half
    return steps


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
    g[far] = _fresnel_g_far(t[far])
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


def _fresnel_g_far(t):
    """fresnel_g for t >= _FRESNEL_T: G = g + i f in the auxiliary functions
    f and g, from their asymptotic series (A&S 7.3.27-28),

        f ~ (1 / (pi t)) sum_m (-1)^m (4m - 1)!! u^m,
        g ~ (1 / (pi^2 t^3)) sum_m (-1)^m (4m + 1)!! u^m,  u = (pi t^2)^-2.
    """
    r = 1.0 / (np.pi * t)
    w = r / t
    u = w * w
    f = np.full(t.shape, _ASYMPTOTIC_F[-1])
    g = np.full(t.shape, _ASYMPTOTIC_G[-1])
    for m in range(_ASYMPTOTIC_TERMS - 2, -1, -1):
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
    a0 = complex(_fresnel_g_far(np.array([_FRESNEL_T]))[0])
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


# (-1)^m (4m - 1)!! and (-1)^m (4m + 1)!!, products exact as Python ints
_ASYMPTOTIC_F = np.array([(-1) ** m * math.prod(range(1, 4 * m, 2))
                          for m in range(_ASYMPTOTIC_TERMS)], dtype=np.float64)
_ASYMPTOTIC_G = np.array([(-1) ** m * math.prod(range(1, 4 * m + 2, 2))
                          for m in range(_ASYMPTOTIC_TERMS)], dtype=np.float64)
_TAYLOR = _taylor_table()
