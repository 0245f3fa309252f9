"""Fresnel impulse response and single-hop propagation.

The free-travel kernel between transverse planes is

    H(x, x0; Z, Zbar) = sqrt(k0 / (i 2 pi Zbar))
                        * exp(i k0 Z + i k0 (x - x0)^2 / (2 Zbar))

where Z is the accumulated optical path (sets the global phase) and
Zbar the accumulated diffraction length (sets the chirp curvature).
Zbar < 0 yields the complex conjugate of the kernel at (-Z, -Zbar): the
principal branch of the square root takes care of this automatically,
so phase-reversed diffraction needs no special casing.

Two numerical routes are provided and kept deliberately independent:

* method="direct": midpoint Riemann quadrature of the kernel integral
  (the oracle; O(N*M), accelerated by the compiled chirp kernel).
* method="fft": chirp convolution via discrete Fourier transforms,
  using the frequency-domain (transfer function) chirp when
  n_samples * dx^2 >= lambda * |Zbar| and the space-domain sampled
  kernel otherwise.
"""

import numpy as np

from . import _kernels
from .errors import DegenerateKernelError, InvalidArgumentError
from .grid import ComplexField

# fft regime ratios within [1/2, 2] of the crossover get a warning:
# neither the frequency-domain nor the space-domain chirp is cleanly
# sampled near the boundary.
_ALIAS_BAND = (0.5, 2.0)

# chirp phase advance per quadrature node <= 2*pi / _CHIRP_OVERSAMPLE
_CHIRP_OVERSAMPLE = 8

#: most nodes any quadrature lattice may hold
MAX_NODES = 2 ** 21


def kernel_scale(ctx, Z, Zbar):
    """sqrt(k0/(i 2 pi Zbar)) * exp(i k0 Z), the x-independent kernel factor."""
    if Zbar == 0:
        raise DegenerateKernelError(
            "Zbar == 0 is the delta kernel; use the identity path")
    return (np.sqrt(ctx.k0 / (2j * np.pi * Zbar))
            * np.exp(1j * ctx.k0 * Z))


def fresnel_kernel(ctx, x, x0, Z, Zbar):
    """Impulse response H(x, x0; Z, Zbar); broadcasts over x and x0."""
    scale = kernel_scale(ctx, Z, Zbar)
    u = np.asarray(x, dtype=float) - np.asarray(x0, dtype=float)
    return scale * np.exp(1j * ctx.k0 / (2.0 * Zbar) * u * u)


def propagate(ctx, field, Z, Zbar, method="auto"):
    """Propagate a sampled field by (Z, Zbar); output on the input grid.

    Zbar == 0 short-circuits to the identity times exp(i k0 Z). The fft
    route attaches a non-fatal aliasing warning to the result when the
    grid sits near the crossover between its two chirp forms.
    """
    values = np.asarray(field.values)
    if not np.all(np.isfinite(values)):
        raise InvalidArgumentError("field values must be finite")
    grid = field.grid
    warnings = tuple(field.warnings)

    if Zbar == 0:
        out = values * np.exp(1j * ctx.k0 * Z)
        return ComplexField(grid, out, warnings)

    if method == "auto":
        method = "fft"

    if method == "direct":
        x = grid.coordinates()
        coeffs = values.astype(np.complex128) * grid.spacing
        alpha = ctx.k0 / (2.0 * Zbar)
        out = kernel_scale(ctx, Z, Zbar) * _kernels.chirp_sum(
            x, x, coeffs, alpha)
        return ComplexField(grid, out, warnings)

    if method != "fft":
        raise InvalidArgumentError(f"unknown method {method!r}")

    n = grid.n_samples
    dx = grid.spacing
    ratio = ctx.wavelength * abs(Zbar) / (n * dx * dx)
    if _ALIAS_BAND[0] < ratio < _ALIAS_BAND[1]:
        warnings = warnings + (
            f"near-critical chirp sampling (regime ratio {ratio:.3g}); "
            "neither fft form is cleanly sampled",)
    spectrum = np.fft.fft(values)
    if ratio <= 1.0:
        # transfer function form: exact unitary chirp in frequency space
        f = np.fft.fftfreq(n, dx)
        phase = np.exp(-1j * np.pi * ctx.wavelength * Zbar * f * f)
        out = np.fft.ifft(spectrum * phase) * np.exp(1j * ctx.k0 * Z)
    else:
        # impulse response form: circular convolution with the sampled kernel
        offsets = np.fft.fftfreq(n, 1.0 / n) * dx
        h = fresnel_kernel(ctx, offsets, 0.0, Z, Zbar)
        out = np.fft.ifft(spectrum * np.fft.fft(h)) * dx
    return ComplexField(grid, out, warnings)


def midpoint_lattice(intervals, step, min_count):
    """Midpoint nodes over (lo, hi) intervals, at most `step` apart.

    Each interval gets m = max(ceil((hi - lo) / step), min_count) cells
    of width (hi - lo) / m. Returns (nodes, weights); weights are the
    per-node cell widths. Raises if the lattice would exceed MAX_NODES.
    """
    counts = [max(int(np.ceil((hi - lo) / step)), min_count)
              for lo, hi in intervals]
    if sum(counts) > MAX_NODES:
        raise InvalidArgumentError(
            f"quadrature would need {sum(counts)} nodes (cap {MAX_NODES}); "
            "reduce the extents")
    nodes = []
    weights = []
    for (lo, hi), m in zip(intervals, counts):
        w = (hi - lo) / m
        nodes.append(lo + (np.arange(m) + 0.5) * w)
        weights.append(np.full(m, w))
    return np.concatenate(nodes), np.concatenate(weights)


def chirp_nodes(intervals, min_feature, wavelength, zbar, u_max):
    """Midpoint quadrature nodes over support intervals for a chirp integral.

    Node spacing resolves both the object (min_feature / 4) and the
    kernel chirp exp(i k0 u^2 / (2 zbar)): the local spatial frequency
    at offset u_max is u_max / (wavelength |zbar|), and the spacing
    keeps _CHIRP_OVERSAMPLE nodes per local period. Aliasing ghosts of
    the midpoint rule are thereby displaced well off any output point.

    Returns (nodes, weights); weights are per-node midpoint widths.
    Raises if the cap is exceeded (geometry needs a coarser request).
    """
    steps = []
    if min_feature is not None:
        steps.append(min_feature / 4.0)
    if zbar != 0 and u_max > 0:
        steps.append(wavelength * abs(zbar) / (_CHIRP_OVERSAMPLE * u_max))
    if not steps:
        raise InvalidArgumentError("cannot choose a node spacing")
    if sum(hi - lo for lo, hi in intervals) <= 0:
        return np.empty(0), np.empty(0)
    return midpoint_lattice(intervals, min(steps), 8)
