"""Monte-Carlo chaotic light: random source realizations through both arms.

A spatially incoherent source is represented per realization by one
circular complex Gaussian draw per source-grid cell with variance
I_s / dx_s, so the discrete correlation sum(<E* E'>) dx reproduces the
delta correlation I_s * delta(x - x'). Realization i draws from a
counter-based stream derived from (master_seed, i): Philox keyed by the
master seed with the block counter offset by i * 2**64. The same pair
therefore yields the same field bitwise on any worker layout, and the
accumulation below runs in a fixed batch order, so a whole run is
reproducible.

Propagation inside a run applies two fixed matrices (source -> object
plane, object plane -> detector) to batches of realizations, one row
each. The reference arm maps the uniform source grid onto the uniform
detector grid, so it is a chirp-z (Bluestein) convolution,
O((n_det + n_src) log(n_det + n_src)) per realization in place of an
n_det x n_src matrix product. A run builds its _kernels._lattice_plan
once (chirps and kernel spectrum) and one batch-sized FFT buffer that
every batch reuses; the results are bitwise those of a fresh plan
applied to each batch on its own. The expectation of the resulting
estimator equals the finite-source brute-force integral on the same
nodes.

run_coherent is the contrast experiment: a single deterministic field
(plane wave or pinhole) through both arms, no averaging.
"""

import numbers
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import _kernels
from .errors import InvalidArgumentError, ResolutionError, StatisticsWarning
from .grid import ComplexField, Grid
from .interferometer import PortIntensities, _object_nodes
from .propagation import fresnel_kernel, kernel_scale, propagate

_BATCH = 128  # fixed batch width; part of the determinism contract


@dataclass(frozen=True)
class EnsembleConfig:
    """One reproducible Monte-Carlo run."""

    spec: object
    source_grid: Grid
    detector_grid: Grid
    n_realizations: int
    master_seed: int

    def __post_init__(self):
        _require_int(self.n_realizations, "n_realizations")
        _require_int(self.master_seed, "master_seed")
        if self.n_realizations < 1:
            raise InvalidArgumentError("n_realizations must be >= 1")
        if not (0 <= self.master_seed < 2 ** 64):
            raise InvalidArgumentError("master_seed must fit in 64 bits")
        w = 2 * self.source_grid.half_width
        if abs(w - self.spec.source_width) > 1e-12 * self.spec.source_width:
            raise InvalidArgumentError(
                "source_grid must span exactly spec.source_width")


def _require_int(value, name):
    """Raise InvalidArgumentError unless value is an integer (not a bool)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise InvalidArgumentError(f"{name} must be an integer")


@dataclass(frozen=True)
class EnsembleEstimate:
    """Averages over n_used realizations on the detector grid."""

    correlation_mean: np.ndarray
    intensity_o: np.ndarray
    intensity_r: np.ndarray
    standard_error: np.ndarray
    n_used: int

    def ghost_image(self):
        """|<E_r* E_o>|^2, the quantity a two-detector coincidence
        measurement of the same fields records."""
        m = self.correlation_mean
        return m.real ** 2 + m.imag ** 2


def _draw_values(config, start, stop):
    """Raw complex samples of realizations start..stop-1, one row each
    (no validation).

    Row k draws exactly what a fresh Philox(key=master_seed,
    counter=(start + k) << 64) would: one bit generator is reset to that
    counter, with an empty buffer, before each row.
    """
    s = config.source_grid.n_samples
    sigma = np.sqrt(config.spec.source_intensity
                    / (2.0 * config.source_grid.spacing))
    bitgen = np.random.Philox(key=config.master_seed)
    gen = np.random.Generator(bitgen)
    state = bitgen.state  # a fresh generator's: empty buffer
    counter = state["state"]["counter"]
    a = np.empty((stop - start, 2, s))
    for k, i in enumerate(range(start, stop)):
        counter[1] = i  # the 256-bit counter i << 64, low word first
        bitgen.state = state
        gen.standard_normal(out=a[k])
    values = a[:, 0] + 1j * a[:, 1]
    values *= sigma
    return values


def sample_source(config, realization_index):
    """Source realization `realization_index` as a ComplexField."""
    _require_int(realization_index, "realization index")
    if not 0 <= realization_index < config.n_realizations:
        raise InvalidArgumentError(
            f"realization index {realization_index} outside "
            f"[0, {config.n_realizations})")
    values = _draw_values(config, realization_index, realization_index + 1)
    return ComplexField(config.source_grid, values[0])


class PropagationMatrices(NamedTuple):
    """Discrete object-arm propagators of one config (weights folded in).

    source_to_object: [n_object_nodes, n_source] including dx_s
    object_to_detector: [n_detector, n_object_nodes] including node widths
    t_object: transmittance at the object nodes

    The reference arm has no matrix here: see reference_field.
    """

    source_to_object: np.ndarray
    object_to_detector: np.ndarray
    t_object: np.ndarray


def propagation_matrices(config):
    """Build the two fixed object-arm propagators used by run_ensemble."""
    spec = config.spec
    ctx = spec.ctx
    x_det = config.detector_grid.coordinates()
    x_src = config.source_grid.coordinates()
    dx_src = config.source_grid.spacing
    x_max = max(abs(x_det[0]), abs(x_det[-1]))
    xo, wo, _ = _object_nodes(spec, x_max, config.detector_grid)
    h1 = fresnel_kernel(ctx, xo[:, None], x_src[None, :],
                        spec.z_o1, spec.z_o1) * dx_src
    h2 = fresnel_kernel(ctx, x_det[:, None], xo[None, :],
                        spec.z_o2, spec.z_o2) * wo[None, :]
    return PropagationMatrices(h1, h2, spec.object.sample(xo))


def _reference_arm(config):
    """(plan, scale) of the reference arm: E_r of source rows src is
    plan(src * scale).

    scale is the Fresnel kernel's amplitude times dx_s; plan is the
    _kernels._lattice_plan from the source grid onto the detector grid.
    """
    spec = config.spec
    led = spec.reference_ledger
    source, det = config.source_grid, config.detector_grid
    scale = kernel_scale(spec.ctx, led.optical_path,
                         led.diffraction_length) * source.spacing
    plan = _kernels._lattice_plan(
        det.coordinates(), det.spacing, source.coordinates(),
        source.spacing, spec.ctx.k0 / (2.0 * led.diffraction_length))
    return plan, scale


def reference_field(config, src):
    """E_r on the detector grid for source rows src, (..., n_source).

    The midpoint sum of the reference-arm Fresnel kernel over the source
    grid, evaluated as one chirp-z convolution per row: both grids are
    uniform lattices.
    """
    plan, scale = _reference_arm(config)
    return plan(src * scale)


def run_ensemble(config):
    """Average E_r* E_o, |E_o|^2, |E_r|^2 over all realizations.

    Fixed batch width and in-order accumulation: rerunning the same
    config reproduces the estimate bitwise.
    """
    if config.spec.object.ndim != 1:
        raise InvalidArgumentError("ensemble runs support 1D objects only")
    mats = propagation_matrices(config)
    plan, scale = _reference_arm(config)
    # the reference arm's FFT buffer, reused by every batch
    work = np.empty((_BATCH, plan.size), dtype=np.complex128)
    n_det = config.detector_grid.n_samples
    n = config.n_realizations
    corr_sum = np.zeros(n_det, dtype=np.complex128)
    abs2_sum = np.zeros(n_det)
    io_sum = np.zeros(n_det)
    ir_sum = np.zeros(n_det)
    h1_t = mats.source_to_object.T
    h2_t = mats.object_to_detector.T
    for start in range(0, n, _BATCH):
        src = _draw_values(config, start, min(start + _BATCH, n))
        e_o = (src @ h1_t * mats.t_object) @ h2_t
        e_r = plan(src * scale, work[:src.shape[0]])
        i_o = e_o.real ** 2 + e_o.imag ** 2
        i_r = e_r.real ** 2 + e_r.imag ** 2
        corr_sum += (np.conj(e_r) * e_o).sum(axis=0)
        # |E_r* E_o|^2 = |E_r|^2 |E_o|^2
        abs2_sum += (i_o * i_r).sum(axis=0)
        io_sum += i_o.sum(axis=0)
        ir_sum += i_r.sum(axis=0)
    mean = corr_sum / n
    mean_abs2 = mean.real ** 2 + mean.imag ** 2
    if n > 1:
        variance = np.maximum(abs2_sum / n - mean_abs2, 0.0) * n / (n - 1)
        std_err = np.sqrt(variance / n)
    else:
        std_err = np.full(n_det, np.inf)
    if np.all(std_err > np.sqrt(mean_abs2)):
        warnings.warn(
            f"standard error exceeds |mean| everywhere at n = {n}; "
            "increase n_realizations", StatisticsWarning, stacklevel=2)
    return EnsembleEstimate(mean, io_sum / n, ir_sum / n, std_err, n)


def run_coherent(spec, grid, pinhole_width=None):
    """Beamsplitter ports of one deterministic field through both arms.

    The input is a unit-amplitude plane wave on the grid, or, given a
    positive pinhole_width, the same truncated to |x| <= pinhole_width/2;
    any other width, NaN included, raises InvalidArgumentError, and a
    pinhole that covers no grid sample raises ResolutionError. Each arm
    is propagated once; with total = |E_o + E_r|^2 and background =
    |E_o|^2 + |E_r|^2, the ports are i_plus = total/2, i_minus =
    background - total/2 and diff = total - background. There is no
    ensemble and no statistical averaging: with coherent illumination
    the arms interfere fringe by fringe.
    """
    if spec.object.ndim != 1:
        raise InvalidArgumentError("coherent runs support 1D objects only")
    x = grid.coordinates()
    if pinhole_width is None:
        values = np.ones(grid.n_samples, dtype=np.complex128)
    elif pinhole_width > 0:
        values = (np.abs(x) <= pinhole_width / 2).astype(np.complex128)
        if not values.any():
            raise ResolutionError(
                f"pinhole_width {pinhole_width:.3g} m covers no grid sample "
                f"(spacing {grid.spacing:.3g} m)")
    else:
        raise InvalidArgumentError("pinhole_width must be positive")
    e_in = ComplexField(grid, values)

    led = spec.reference_ledger
    at_obj = propagate(spec.ctx, e_in, spec.z_o1, spec.z_o1)
    masked = ComplexField(grid, at_obj.values * spec.object.sample(x))
    e_o = propagate(spec.ctx, masked, spec.z_o2, spec.z_o2).values
    e_r = propagate(spec.ctx, e_in, led.optical_path,
                    led.diffraction_length).values
    total, i_o, i_r = (e.real ** 2 + e.imag ** 2
                       for e in (e_o + e_r, e_o, e_r))
    background = i_o + i_r
    return PortIntensities(grid=grid, i_plus=total / 2,
                           i_minus=background - total / 2,
                           diff=total - background, background=background)
