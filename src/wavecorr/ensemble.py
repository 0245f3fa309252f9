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
once (chirps and kernel spectrum) and the results are bitwise those of
a fresh plan applied to each batch on its own. The expectation of the
resulting estimator equals the finite-source brute-force integral on
the same nodes.

A run allocates its whole workspace once, _BATCH = 32 rows of

    16 n_src (normal draws) + 32 n_src (source and scaled rows)
    + 16 M (object-node fields) + 16 n_det (E_o)
    + 24 n_det (|E_o|^2, |E_r|^2, scratch) + 16 size (FFT buffer)

bytes, M the object nodes and size the plan's FFT length. A batch of b
rows writes into their first b with out= ufuncs and matmuls in the
operand order of the plain expressions, so each element keeps its bits.
Besides it a run holds the two matrices, the plan and, per batch, the
plan's E_r (16 n_det bytes a row), which the conjugate product then
overwrites. At 512 source cells and 1024 detector points (M = 38)
that is 2.8 MiB of workspace, 3.3 MiB with E_r, and a traced peak of
4.5 MiB.

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

_BATCH = 32  # fixed batch width; part of the determinism contract


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
        """|correlation_mean|^2, a biased estimate of |C|^2.

        For circular Gaussian fields each realization's E_r* E_o has
        variance I_o I_r, so the expectation of |mean|^2 is
        |C|^2 + I_o I_r / n. A two-detector coincidence measurement
        records the intensity covariance <I_o I_r> - <I_o><I_r>, whose
        expectation is |C|^2 itself; this is not that quantity.
        """
        m = self.correlation_mean
        return m.real ** 2 + m.imag ** 2


def _draw_values(config, start, stop, out=None, raw=None):
    """Raw complex samples of realizations start..stop-1, one row each
    (no validation).

    Row k draws exactly what a fresh Philox(key=master_seed,
    counter=(start + k) << 64) would: one bit generator is reset to that
    counter, with an empty buffer, before each row. out, a complex
    (>= stop - start, n_source) array, and raw, a float
    (>= stop - start, 2, n_source) array for the normal draws, are
    written in their first stop - start rows, and out's are returned;
    each is allocated when not given, with the same bits.
    """
    b, s = stop - start, config.source_grid.n_samples
    sigma = np.sqrt(config.spec.source_intensity
                    / (2.0 * config.source_grid.spacing))
    bitgen = np.random.Philox(key=config.master_seed)
    gen = np.random.Generator(bitgen)
    state = bitgen.state  # a fresh generator's: empty buffer
    counter = state["state"]["counter"]
    a = np.empty((b, 2, s)) if raw is None else raw[:b]
    for k, i in enumerate(range(start, stop)):
        counter[1] = i  # the 256-bit counter i << 64, low word first
        bitgen.state = state
        gen.standard_normal(out=a[k])
    # the bits of sigma * (a0 + 1j * a1)
    values = np.empty((b, s), dtype=np.complex128) if out is None else out[:b]
    values.real = a[:, 0]
    values.imag = a[:, 1]
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
    config reproduces the estimate bitwise. Every batch writes into one
    workspace of _BATCH rows allocated here; a partial last batch uses
    its first rows.
    """
    if config.spec.object.ndim != 1:
        raise InvalidArgumentError("ensemble runs support 1D objects only")
    mats = propagation_matrices(config)
    plan, scale = _reference_arm(config)
    n_det = config.detector_grid.n_samples
    n_src = config.source_grid.n_samples
    n = config.n_realizations
    h1_t = mats.source_to_object.T
    h2_t = mats.object_to_detector.T
    raw = np.empty((_BATCH, 2, n_src))
    src, scaled = (np.empty((_BATCH, n_src), dtype=np.complex128)
                   for _ in range(2))
    y = np.empty((_BATCH, h1_t.shape[1]), dtype=np.complex128)
    e_o = np.empty((_BATCH, n_det), dtype=np.complex128)
    i_o, i_r, tmp = (np.empty((_BATCH, n_det)) for _ in range(3))
    # the reference arm's FFT buffer
    work = np.empty((_BATCH, plan.size), dtype=np.complex128)
    corr_sum = np.zeros(n_det, dtype=np.complex128)
    abs2_sum = np.zeros(n_det)
    io_sum = np.zeros(n_det)
    ir_sum = np.zeros(n_det)
    for start in range(0, n, _BATCH):
        b = min(_BATCH, n - start)
        s = _draw_values(config, start, start + b, src, raw)
        # each product keeps the operand order of
        # e_o = (s @ h1_t * t_object) @ h2_t, so each element keeps its bits
        yb = np.matmul(s, h1_t, out=y[:b])
        yb *= mats.t_object
        eo = np.matmul(yb, h2_t, out=e_o[:b])
        e_r = plan(np.multiply(s, scale, out=scaled[:b]), work[:b])
        io = _abs2(eo, i_o[:b], tmp[:b])
        ir = _abs2(e_r, i_r[:b], tmp[:b])
        # conj(E_r) * E_o, written over E_r
        corr_sum += np.multiply(np.conjugate(e_r, out=e_r), eo,
                                out=e_r).sum(axis=0)
        # |E_r* E_o|^2 = |E_r|^2 |E_o|^2
        abs2_sum += np.multiply(io, ir, out=tmp[:b]).sum(axis=0)
        io_sum += io.sum(axis=0)
        ir_sum += ir.sum(axis=0)
        del e_r  # plan's result, freed before the next batch makes its own
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


def _abs2(z, out, scratch):
    """z.real ** 2 + z.imag ** 2 written into out, with scratch (float,
    z's shape) for the second square."""
    np.square(z.real, out=out)
    out += np.square(z.imag, out=scratch)
    return out


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
