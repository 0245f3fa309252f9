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

The closed form is the primary path; correlation_brute_force retains
the finite-source double integral as an independent oracle.
"""

import warnings as _warnings
from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from .cascade import (DEFAULT_COHERENCE_TOLERANCE,
                      effective_diffraction_length, equal_path_mismatch,
                      ledger)
from .errors import (EqualPathWarning, InvalidArgumentError,
                     NegativeIntensityError, ResolutionError)
from .grid import Grid
from .propagation import (chirp_nodes, fresnel_kernel, kernel_scale,
                          midpoint_lattice)

# quadrature oversampling relative to the fastest integrand period
_NODE_OVERSAMPLE = 4


@dataclass(frozen=True)
class InterferometerSpec:
    """Geometry and source of one interferometer configuration.

    The object arm is z_o1 of vacuum, the transmittance object, then
    z_o2 of vacuum to the detector; the reference arm is the given
    segment chain. z_o1 + z_o2 must match the reference optical path
    within the coherence tolerance; the remaining difference is kept as
    path_mismatch.
    """

    ctx: object
    z_o1: float
    z_o2: float
    reference_segments: tuple
    object: object
    source_width: float
    source_intensity: float = 1.0
    coherence_tolerance: float = DEFAULT_COHERENCE_TOLERANCE
    path_mismatch: float = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "reference_segments",
                           tuple(self.reference_segments))
        if not (self.z_o1 > 0 and self.z_o2 > 0):
            raise InvalidArgumentError("z_o1 and z_o2 must be positive")
        if not (self.source_width > 0):
            raise InvalidArgumentError("source_width must be positive")
        if not (self.source_intensity > 0):
            raise InvalidArgumentError("source_intensity must be positive")
        with _warnings.catch_warnings():
            _warnings.simplefilter("ignore", EqualPathWarning)
            mismatch = equal_path_mismatch(
                self.z_o1 + self.z_o2, ledger(self.reference_segments),
                self.coherence_tolerance)
        object.__setattr__(self, "path_mismatch", mismatch)

    @property
    def reference_ledger(self):
        return ledger(self.reference_segments)

    @property
    def z_eff(self):
        with _warnings.catch_warnings():
            _warnings.simplefilter("ignore", EqualPathWarning)
            return effective_diffraction_length(
                self.z_o1, self.z_o2, self.reference_ledger,
                coherence_tolerance=self.coherence_tolerance)

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
    warnings: tuple = ()


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
    k0 = spec.ctx.k0
    if z_eff == 0:
        value = np.sqrt(k0 / (2j * np.pi * spec.z_o2))
    else:
        delta = spec.z_o1 - spec.reference_ledger.diffraction_length
        value = np.sqrt(k0 * z_eff / (2j * np.pi * spec.z_o2 * delta))
    return spec.source_intensity * value


def _resolution_guard(spec, grid):
    feature = spec.object.min_feature()
    warnings = ()
    if feature is not None:
        if grid.spacing > feature / 4:
            raise ResolutionError(
                f"grid spacing {grid.spacing:.3g} m exceeds a quarter of the "
                f"object's smallest feature {feature:.3g} m")
        if feature < 3 * spec.psf_width:
            warnings += (
                f"object feature {feature:.3g} m is below 3x the "
                f"source-limited resolution {spec.psf_width:.3g} m; the "
                "reconstruction will be smoothed",)
    return warnings


def correlation_analytic(spec, grid):
    """Closed-form <E_r* E_o> of a 1D object on the detector grid."""
    obj = spec.object
    if obj.ndim != 1:
        raise InvalidArgumentError(
            "2D objects are handled by correlation_analytic_2d")
    warnings = _resolution_guard(spec, grid)
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
        u_max = max(abs(x[0] - support[-1][1]), abs(x[-1] - support[0][0]))
        nodes, weights = chirp_nodes(
            support, obj.min_feature(), spec.ctx.wavelength, z_eff, u_max)
        coeffs = obj.sample(nodes) * weights
        pattern = kernel_scale(spec.ctx, z_arg, z_eff) * _kernels.chirp_sum(
            x, nodes, coeffs, k0 / (2.0 * z_eff))
    return CorrelationResult(grid, pref * pattern, z_eff, pref, warnings)


def correlation_analytic_2d(spec, grid):
    """<E_r* E_o> image of a 2D raster object; same grid on both axes.

    The kernel factorizes, so the 2D integral is two passes of the 1D
    quadrature; the optical-path phase is applied once (on the x pass).
    """
    obj = spec.object
    if obj.ndim != 2:
        raise InvalidArgumentError("correlation_analytic_2d needs a 2D object")
    warnings = _resolution_guard(spec, grid)
    z_eff, z_arg = spec.z_eff, spec.path_mismatch
    k0 = spec.ctx.k0
    x = grid.coordinates()

    if z_eff == 0:
        pref = spec.source_intensity * (k0 / (2j * np.pi * spec.z_o2))
        pattern = np.exp(1j * k0 * z_arg) * obj.sample2d(x, x)
    else:
        delta = spec.z_o1 - spec.reference_ledger.diffraction_length
        pref = spec.source_intensity * (
            k0 * z_eff / (2j * np.pi * spec.z_o2 * delta))
        lam = spec.ctx.wavelength
        sup_x, sup_y = obj.support(), obj.support_y()
        u_x = max(abs(x[0] - sup_x[-1][1]), abs(x[-1] - sup_x[0][0]))
        u_y = max(abs(x[0] - sup_y[-1][1]), abs(x[-1] - sup_y[0][0]))
        nx, wx = chirp_nodes(sup_x, obj.min_feature(), lam, z_eff, u_x)
        ny, wy = chirp_nodes(sup_y, obj.min_feature(), lam, z_eff, u_y)
        t2d = obj.sample2d(nx, ny)  # [len(ny), len(nx)]
        kx = fresnel_kernel(spec.ctx, x[:, None], nx[None, :], z_arg, z_eff) * wx
        ky = fresnel_kernel(spec.ctx, x[:, None], ny[None, :], 0.0, z_eff) * wy
        pattern = ky @ t2d @ kx.T
    return CorrelationResult(grid, pref * pattern, z_eff, pref, warnings)


def _source_nodes(spec, x_max, obj_extent):
    """Midpoint nodes over the source aperture, spaced for the worst
    local frequency of conj(h_r) * h_o in the source coordinate."""
    k0 = spec.ctx.k0
    led = spec.reference_ledger
    w2 = spec.source_width / 2
    slope = (k0 * (x_max + w2) / abs(led.diffraction_length)
             + k0 * (obj_extent + w2) / spec.z_o1)
    spacing = (2 * np.pi / slope) / _NODE_OVERSAMPLE
    nodes, weights = midpoint_lattice([(-w2, w2)], spacing, 16)
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
    return (*midpoint_lattice(support, spacing, 8), obj_extent)


def _object_arm_response(spec, grid):
    """h_o(x, x0) sampled as a matrix over detector x and source x0."""
    ctx = spec.ctx
    x = grid.coordinates()
    x_max = max(abs(x[0]), abs(x[-1]))
    xo, wo, obj_extent = _object_nodes(spec, x_max, grid)
    x0, dx0 = _source_nodes(spec, x_max, obj_extent)
    h1 = fresnel_kernel(ctx, xo[:, None], x0[None, :], spec.z_o1, spec.z_o1)
    h2 = fresnel_kernel(ctx, x[:, None], xo[None, :], spec.z_o2, spec.z_o2)
    t = spec.object.sample(xo)
    ho = (h2 * (t * wo)[None, :]) @ h1
    return ho, x0, dx0


def correlation_brute_force(spec, grid):
    """Finite-source double integral I_s * Int h_r* h_o dx0 (the oracle).

    Order N*M*S; kept independent of the closed form: it never touches
    Z_eff and integrates over the actual source aperture.
    """
    if spec.object.ndim != 1:
        raise InvalidArgumentError("brute force supports 1D objects only")
    led = spec.reference_ledger
    ho, x0, dx0 = _object_arm_response(spec, grid)
    x = grid.coordinates()
    hr = fresnel_kernel(spec.ctx, x[:, None], x0[None, :],
                        led.optical_path, led.diffraction_length)
    corr = np.einsum("ns,ns->n", np.conj(hr), ho) * dx0
    return spec.source_intensity * corr


def background_intensity(spec, grid):
    """<|E_r|^2> + <|E_o|^2>: the flat part of the detector intensity.

    The reference arm has constant modulus, so its term is exactly
    I_s * k0 * W / (2 pi |Zbar|). The object arm is integrated
    numerically over the source aperture (closed form for uniform
    objects, where the arm is a plain cascade).
    """
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
        ho, _, dx0 = _object_arm_response(spec, grid)
        i_obj = spec.source_intensity * dx0 * np.sum(
            ho.real ** 2 + ho.imag ** 2, axis=1)
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
