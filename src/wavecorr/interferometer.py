"""Analytic engine for the two-arm incoherent-light interferometer.

A spatially delta-correlated source illuminates both arms; the detector
records the two outputs of a lossless symmetric beamsplitter, ports
(E_o +- E_r)/sqrt(2), so

    <I_+-> = background/2 +- Re <E_r* E_o>

and the port difference is the pure interference term 2 Re <E_r* E_o>.
For an infinite delta-correlated source the cross correlation collapses
to a single Fresnel integral over the object,

    <E_r*(x) E_o(x)> = prefactor * Integral T(x') H(x, x'; dz, Z_eff) dx'

with dz = z_o1 + z_o2 - Z (zero under equal optical path) and
1/Z_eff = 1/z_o2 + 1/(z_o1 - Zbar). The geometric prefactor
I_s * sqrt(k0 * Z_eff / (i 2 pi z_o2 (z_o1 - Zbar))) follows from the
Gaussian x0 integral and tends to I_s * sqrt(k0/(i 2 pi z_o2)) at the
imaging point, where the integral degenerates to T(x) itself: the
object is reconstructed without a lens. Negative Z_eff values conjugate
the kernel (phase-reversed diffraction).

correlation_analytic evaluates the 1D integral by midpoint quadrature
(chirp_nodes and _kernels.chirp_sum); its node count grows as 1/|Z_eff|
and is capped at MAX_NODES. correlation_analytic_2d takes a raster,
constant on each pixel, so its integral is exact as differences of
Fresnel integrals at the pixel edges (_kernels.fresnel_steps), at a cost
that does not depend on Z_eff: one edges-major table, one row of N
detector points per edge, over the edges that the x and y axes share.

InterferometerSpec resolves the geometry (reference ledger, dz and
Z_eff) once, on construction; the engines only read it.

The closed form is the primary path; correlation_brute_force retains
the finite-source double integral as an independent oracle.
"""

import math
import warnings as _warnings
from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from .cascade import PathLedger, effective_diffraction_length, ledger
from .errors import (EqualPathWarning, InvalidArgumentError,
                     NegativeIntensityError, ResolutionError,
                     ResolutionWarning)
from .grid import Grid
from .propagation import (chirp_nodes, fresnel_kernel, kernel_scale,
                          midpoint_lattice)

# quadrature oversampling relative to the fastest integrand period
_NODE_OVERSAMPLE = 4
#: a path mismatch within this many ulps of the path is the rounding of
#: the ledger and z_o1 + z_o2 sums, and raises no notice
_ROUNDING_ULPS = 4


@dataclass(frozen=True)
class InterferometerSpec:
    """Geometry and source of one interferometer configuration.

    The object arm is z_o1 of vacuum, the transmittance object, then
    z_o2 of vacuum to the detector; the reference arm is the given
    segment chain. Construction resolves the geometry once: the
    reference ledger, Z_eff (whose effective_diffraction_length call is
    the one equal-path check) and path_mismatch = z_o1 + z_o2 - Z, the
    global phase exp(i k0 dz), with an EqualPathWarning beyond rounding.
    """

    ctx: object
    z_o1: float
    z_o2: float
    reference_segments: tuple
    object: object
    source_width: float
    source_intensity: float = 1.0
    reference_ledger: PathLedger = field(init=False, repr=False)
    path_mismatch: float = field(init=False, repr=False)
    z_eff: float = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "reference_segments",
                           tuple(self.reference_segments))
        for name in ("z_o1", "z_o2", "source_width", "source_intensity"):
            if not (0 < getattr(self, name) < np.inf):
                raise InvalidArgumentError(
                    f"{name} must be positive and finite")
        led = ledger(self.reference_segments)
        z_eff = effective_diffraction_length(self.z_o1, self.z_o2, led)
        arm_path, Z = self.z_o1 + self.z_o2, led.optical_path
        mismatch = arm_path - Z
        if abs(mismatch) > _ROUNDING_ULPS * math.ulp(max(arm_path, abs(Z))):
            # attributed to the line that built the spec
            _warnings.warn(
                f"arm paths differ by {mismatch:+.3g} m, within tolerance",
                EqualPathWarning, stacklevel=3)
        object.__setattr__(self, "reference_ledger", led)
        object.__setattr__(self, "path_mismatch", mismatch)
        object.__setattr__(self, "z_eff", z_eff)

    @property
    def psf_width(self):
        """Source-limited resolution at the object, lambda*z_o1/W (m)."""
        return self.ctx.wavelength * self.z_o1 / self.source_width


@dataclass(frozen=True)
class CorrelationResult:
    """First-order cross correlation <E_r* E_o> on a detector grid.

    correlation == prefactor * pattern, where the pattern is the unit
    Fresnel integral of the object (the object itself at Z_eff == 0).
    A 2D result holds correlation[row, col] = C(y, x), y ascending by
    row index, on the same grid along both axes.
    """

    grid: Grid
    correlation: np.ndarray
    z_eff: float
    prefactor: complex


@dataclass(frozen=True)
class PortIntensities:
    """Intensities of the two beamsplitter outputs on one grid.

    diff is stored as exactly 2*Re(correlation); i_plus and i_minus are
    background/2 +- Re(correlation).
    """

    grid: Grid
    i_plus: np.ndarray
    i_minus: np.ndarray
    diff: np.ndarray
    background: np.ndarray

    def port_sum(self):
        return self.i_plus + self.i_minus


def _prefactor(spec, z_eff):
    """I_s * P for a 1D object and I_s * P**2 for a 2D one, P the
    geometric prefactor of the module docstring."""
    k0 = spec.ctx.k0
    if z_eff == 0:
        p2 = k0 / (2j * np.pi * spec.z_o2)
    else:
        delta = spec.z_o1 - spec.reference_ledger.diffraction_length
        p2 = k0 * z_eff / (2j * np.pi * spec.z_o2 * delta)
    return spec.source_intensity * (np.sqrt(p2) if spec.object.ndim == 1
                                    else p2)


def _resolution_guard(spec, grid):
    feature = spec.object.min_feature()
    if feature is not None:
        if grid.spacing > feature / 4:
            raise ResolutionError(
                f"grid spacing {grid.spacing:.3g} m exceeds a quarter of the "
                f"object's smallest feature {feature:.3g} m")
        if feature < 3 * spec.psf_width:
            _warnings.warn(
                f"object feature {feature:.3g} m is below 3x the "
                f"source-limited resolution {spec.psf_width:.3g} m; the "
                "reconstruction will be smoothed", ResolutionWarning,
                stacklevel=3)


def _pixel_integrals(edges, x, wavelength, z_eff):
    """(len(edges) - 1) x N table of unit steps F(t_{k+1}) - F(t_k), with
    t = (edge - x_n) sqrt(2 / (lambda |Z_eff|)), conjugated for Z_eff < 0:
    one row of N points per edge, edges-major, so row k is the piece from
    edges[k] to edges[k + 1] and the steps are differences of rows.

    sqrt(lambda |Z_eff| / 2) times a step is the unit kernel's integral
    over the piece, Integral_{edges[k]}^{edges[k+1]} exp(i pi (x_n - x')^2
    / (lambda Z_eff)) dx', exactly (Abramowitz and Stegun 7.3); the caller
    folds that factor into its own scalars.
    """
    scale = np.sqrt(2.0 / (wavelength * abs(z_eff)))
    steps = _kernels.fresnel_steps((edges[:, None] - x) * scale)
    if z_eff < 0:
        np.conjugate(steps, out=steps)
    return steps


def correlation_analytic(spec, grid):
    """Closed-form <E_r* E_o> of a 1D object on the detector grid."""
    obj = spec.object
    if obj.ndim != 1:
        raise InvalidArgumentError(
            "2D objects are handled by correlation_analytic_2d")
    _resolution_guard(spec, grid)
    z_eff, z_arg = spec.z_eff, spec.path_mismatch
    k0 = spec.ctx.k0
    x = grid.coordinates()
    pref = _prefactor(spec, z_eff)
    support = obj.support()

    if z_eff == 0 or support is None:
        # delta kernel reproduces the object; a support-free (uniform)
        # object rides on the kernel's unit integral at any Z_eff
        pattern = np.exp(1j * k0 * z_arg) * obj.sample(x)
    else:
        # resolve the chirp out to the detector point farthest from the
        # support
        u_max = max(abs(x[0] - support[-1][1]), abs(x[-1] - support[0][0]))
        nodes, weights, counts = chirp_nodes(
            support, obj.min_feature(), spec.ctx.wavelength, z_eff, u_max)
        coeffs = obj.sample(nodes) * weights
        # each run's step is its cell width, bitwise the same for the
        # mirror-image intervals of a double slit or a pair of holes
        steps = weights[np.cumsum(counts) - counts]
        pattern = _kernels.chirp_sum(x, nodes, coeffs, k0 / (2.0 * z_eff),
                                     counts, steps)
        np.multiply(kernel_scale(spec.ctx, z_arg, z_eff), pattern,
                    out=pattern)
    # in place, scalar first: the bits of pref * pattern, no new N points
    np.multiply(pref, pattern, out=pattern)
    return CorrelationResult(grid, pattern, z_eff, pref)


def correlation_analytic_2d(spec, grid):
    """<E_r* E_o> image of a 2D raster object; same grid on both axes.

    The kernel factorizes, and the raster is constant on each pixel, so
    the 2D integral is exact as two tables of 1D pixel integrals,

        A_x[n, c] = Integral over column c of H(x_n - x') dx',
        A_y[n, r] = Integral over row r of H(y_n - y') dy',

        correlation = prefactor * A_y @ pixels @ A_x.T,

    each entry a difference of Fresnel integrals at two pixel edges.
    Both tables, transposed, are rows of one edges-major table of unit
    steps (_pixel_integrals) over the edges the axes share. An x edge and
    a y edge in the same place have the same bits (Raster.pixel_edges),
    so when rows and cols have the same parity the table holds each of
    the max(rows, cols) + 1 edges once (27 for a 12 x 26 raster, against
    40 for a table per axis); otherwise no edge is shared, and it holds
    rows + cols + 2. That is N Fresnel evaluations per edge at any Z_eff,
    so the cost does not grow as Z_eff nears 0. Every constant, the
    prefactor, both kernel scales with the optical-path phase and both
    tables' sqrt(lambda |Z_eff| / 2), is one complex scalar on the rows x
    N table, and the image is A_y @ (pixels @ A_x.T), or (A_y @ pixels)
    @ A_x.T for a raster taller than it is wide: the N^2 image is written
    once, by the last product, in O(N^2 * min(rows, cols)).
    At Z_eff == 0 the image is the sampled raster, scaled in place.
    """
    obj = spec.object
    if obj.ndim != 2:
        raise InvalidArgumentError("correlation_analytic_2d needs a 2D object")
    _resolution_guard(spec, grid)
    z_eff, z_arg = spec.z_eff, spec.path_mismatch
    k0 = spec.ctx.k0
    x = grid.coordinates()
    pref = _prefactor(spec, z_eff)

    if z_eff == 0:
        corr = obj.sample2d(x, x)
        corr *= pref * np.exp(1j * k0 * z_arg)
    else:
        lam = spec.ctx.wavelength
        rows, cols = obj.pixels.shape
        x_edges, y_edges = obj.pixel_edges()
        rising = y_edges[::-1]
        if (rows - cols) % 2:
            # no edge in common: the x edges, then the y edges, and the
            # step across the join unused
            edges, x0, y0 = np.concatenate([x_edges, rising]), 0, cols + 1
        else:
            # the longer axis's edges hold the shorter's, bitwise
            edges = x_edges if cols >= rows else rising
            m = edges.size - 1
            x0, y0 = (m - cols) // 2, (m - rows) // 2
        steps = _pixel_integrals(edges, x, lam, z_eff)
        a_x = steps[x0:x0 + cols]
        # row r is the step between rising edges rows - 1 - r and rows - r;
        # the scalar writes it contiguous, for the BLAS product
        a_y = steps[y0:y0 + rows][::-1]
        a_y = (0.5 * lam * abs(z_eff) * pref
               * kernel_scale(spec.ctx, z_arg, z_eff)
               * kernel_scale(spec.ctx, 0.0, z_eff)) * a_y
        if rows <= cols:
            corr = a_y.T @ (obj.pixels @ a_x)
        else:
            corr = (a_y.T @ obj.pixels) @ a_x
    return CorrelationResult(grid, corr, z_eff, pref)


def _source_nodes(spec, x_max, obj_extent):
    """Midpoint nodes over the source aperture, spaced for the worst
    local frequency of conj(h_r) * h_o in the source coordinate."""
    k0 = spec.ctx.k0
    led = spec.reference_ledger
    w2 = spec.source_width / 2
    slope = (k0 * (x_max + w2) / abs(led.diffraction_length)
             + k0 * (obj_extent + w2) / spec.z_o1)
    spacing = (2 * np.pi / slope) / _NODE_OVERSAMPLE
    nodes, weights, _ = midpoint_lattice([(-w2, w2)], spacing, 16)
    return nodes, weights[0]


def _object_nodes(spec, x_max, grid):
    """Midpoint nodes over the object support for the arm cascade."""
    k0 = spec.ctx.k0
    support = spec.object.support()
    if support is None:
        half = 1.5 * grid.half_width
        support = [(-half, half)]
    obj_extent = max(max(abs(lo), abs(hi)) for lo, hi in support)
    w2 = spec.source_width / 2
    slope = (k0 * (obj_extent + x_max) / spec.z_o2
             + k0 * (obj_extent + w2) / spec.z_o1)
    spacing = (2 * np.pi / slope) / _NODE_OVERSAMPLE
    feature = spec.object.min_feature()
    if feature is not None:
        spacing = min(spacing, feature / 4)
    nodes, weights, counts = midpoint_lattice(support, spacing, 8)
    return nodes, weights, counts, obj_extent


def _node_matrix(ctx, x, nodes, z, weights):
    """fresnel_kernel(ctx, x[:, None], xo[None, :], z, z) * weights, one
    column per object node xo, by _kernels.chirp_matrix.

    x is a uniform lattice and nodes is _object_nodes' (xo, wo, counts,
    extent); the kernel scale is folded into weights, a scalar or one
    factor per node.
    """
    xo, wo, counts, _ = nodes
    steps = wo[np.cumsum(counts) - counts]
    return _kernels.chirp_matrix(x, xo, kernel_scale(ctx, z, z) * weights,
                                 ctx.k0 / (2.0 * z), counts, steps)


def correlation_brute_force(spec, grid):
    """Finite-source double integral I_s * Int h_r* h_o dx0 (the oracle).

    Midpoint sums over the object nodes and the source aperture, order
    N*M*S; kept independent of the closed form: it never touches Z_eff
    and integrates over the actual source aperture.
    """
    if spec.object.ndim != 1:
        raise InvalidArgumentError("brute force supports 1D objects only")
    ctx = spec.ctx
    led = spec.reference_ledger
    x = grid.coordinates()
    x_max = max(abs(x[0]), abs(x[-1]))
    xo, wo, _, obj_extent = _object_nodes(spec, x_max, grid)
    x0, dx0 = _source_nodes(spec, x_max, obj_extent)
    h1 = fresnel_kernel(ctx, xo[:, None], x0[None, :], spec.z_o1, spec.z_o1)
    h2 = fresnel_kernel(ctx, x[:, None], xo[None, :], spec.z_o2, spec.z_o2)
    ho = (h2 * (spec.object.sample(xo) * wo)[None, :]) @ h1
    hr = fresnel_kernel(ctx, x[:, None], x0[None, :],
                        led.optical_path, led.diffraction_length)
    corr = np.einsum("ns,ns->n", np.conj(hr), ho) * dx0
    return spec.source_intensity * corr


def background_intensity(spec, grid):
    """<|E_r|^2> + <|E_o|^2>: the flat part of the detector intensity.

    1D objects only. The reference arm has constant modulus, so its term
    is exactly I_s * k0 * W / (2 pi |Zbar|); a uniform object t leaves
    its arm a plain cascade, |t|^2 times that form over z_o1 + z_o2.
    Otherwise the source integral is exact: after the z_o1 hop the
    delta-correlated source has the mutual intensity (van
    Cittert-Zernike; Born & Wolf 10.4)

        J(xi, xi') = (W / (lambda z_o1)) e^{i k0 (xi^2 - xi'^2) / (2 z_o1)}
                     sinc(W (xi - xi') / (lambda z_o1)),

    so with B = h2 * diag(t * w * e^{i k0 xi^2 / (2 z_o1)}) over the M
    object nodes and C the real M x M sinc matrix,

        <|E_o|^2> = I_s (W / (lambda z_o1)) Re sum_m (B C)[x, m] conj B[x, m].

    That is O(N*M^2) with no source lattice, against O(N*M*S) for a
    quadrature over S source nodes: cheaper whenever M < S, as on every
    1D builtin (M = 42-96 object nodes against S = 2550-5004). B itself
    comes from the lattice chirps (_node_matrix), with O(N + M)
    exponentials. C is real, so B C is one real product of B's real and
    imaginary planes (2N x M), and the row sums one einsum: on fig2_phase
    (N = 2048, M = 80) these take 1.9 ms against 3.0 ms for the complex
    product and its four N x M temporaries (means of 100 calls, process
    time, one x86-64 vCPU), of a background of about 7 ms.
    """
    if spec.object.ndim != 1:
        raise InvalidArgumentError(
            "background_intensity supports 1D objects only")
    k0 = spec.ctx.k0
    led = spec.reference_ledger
    i_ref = (spec.source_intensity * k0 * spec.source_width
             / (2 * np.pi * abs(led.diffraction_length)))
    if spec.object.support() is None:
        t0 = abs(complex(spec.object.sample(np.zeros(1))[0])) ** 2
        i_obj = (spec.source_intensity * t0 * k0 * spec.source_width
                 / (2 * np.pi * (spec.z_o1 + spec.z_o2)))
        i_obj = np.full(grid.n_samples, i_obj)
    else:
        x = grid.coordinates()
        nodes = _object_nodes(spec, max(abs(x[0]), abs(x[-1])), grid)
        xo, wo = nodes[:2]
        b = _node_matrix(spec.ctx, x, nodes, spec.z_o2,
                         spec.object.sample(xo) * wo
                         * np.exp(0.5j * k0 * xo * xo / spec.z_o1))
        coherence = spec.source_width / (spec.ctx.wavelength * spec.z_o1)
        # C is real: one real product of B's real and imaginary planes
        planes = np.stack([b.real, b.imag])
        bs = planes.reshape(-1, xo.size) @ np.sinc(
            coherence * (xo[:, None] - xo[None, :]))
        i_obj = spec.source_intensity * coherence * np.einsum(
            "knm,knm->n", bs.reshape(planes.shape), planes)
    return np.full(grid.n_samples, i_ref) + i_obj


def detector_ports(correlation, background):
    """Split the mean intensity into the two beamsplitter outputs."""
    corr = np.asarray(correlation.correlation)
    bg = np.broadcast_to(np.asarray(background, dtype=float), corr.shape)
    if bg.shape != corr.shape:
        raise InvalidArgumentError("correlation and background shapes differ")
    re = corr.real
    if np.any(bg / 2 - np.abs(re) < 0):
        raise NegativeIntensityError(
            "background/2 < |Re correlation| somewhere: the flat-background "
            "split is unphysical for this source width")
    return PortIntensities(
        grid=correlation.grid,
        i_plus=bg / 2 + re,
        i_minus=bg / 2 - re,
        diff=2 * re,
        background=np.array(bg, dtype=float),
    )
