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

Propagation inside a run is three fixed matrices (source -> object
plane, object plane -> detector, source -> detector) applied to batches
of realizations; the expectation of the resulting estimator equals the
finite-source brute-force integral on the same nodes.

run_coherent is the contrast experiment: a single deterministic field
(plane wave or pinhole) through both arms, no averaging.
"""

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import InvalidArgumentError
from .grid import ComplexField, Grid
from .interferometer import _object_nodes
from .propagation import fresnel_kernel, propagate

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
        if self.n_realizations < 1:
            raise InvalidArgumentError("n_realizations must be >= 1")
        if not (0 <= self.master_seed < 2 ** 64):
            raise InvalidArgumentError("master_seed must fit in 64 bits")
        w = 2 * self.source_grid.half_width
        if abs(w - self.spec.source_width) > 1e-12 * self.spec.source_width:
            raise InvalidArgumentError(
                "source_grid must span exactly spec.source_width")


@dataclass(frozen=True)
class EnsembleEstimate:
    """Averages over n_used realizations on the detector grid."""

    correlation_mean: np.ndarray
    intensity_o: np.ndarray
    intensity_r: np.ndarray
    standard_error: np.ndarray
    n_used: int
    warnings: tuple = ()

    def ghost_image(self):
        """|<E_r* E_o>|^2, the quantity a two-detector coincidence
        measurement of the same fields records."""
        m = self.correlation_mean
        return m.real ** 2 + m.imag ** 2


def _draw_values(config, realization_index):
    """Raw complex samples of one source realization (no validation)."""
    s = config.source_grid.n_samples
    sigma = np.sqrt(config.spec.source_intensity
                    / (2.0 * config.source_grid.spacing))
    bitgen = np.random.Philox(key=config.master_seed,
                              counter=int(realization_index) << 64)
    a = np.random.Generator(bitgen).standard_normal((2, s))
    return sigma * (a[0] + 1j * a[1])


def sample_source(config, realization_index):
    """Source realization `realization_index` as a ComplexField."""
    if not 0 <= realization_index < config.n_realizations:
        raise InvalidArgumentError(
            f"realization index {realization_index} outside "
            f"[0, {config.n_realizations})")
    return ComplexField(config.source_grid,
                        _draw_values(config, realization_index))


class PropagationMatrices(NamedTuple):
    """Discrete propagators of one config (weights folded in).

    source_to_object: [n_object_nodes, n_source] including dx_s
    object_to_detector: [n_detector, n_object_nodes] including node widths
    source_to_detector: [n_detector, n_source] including dx_s (reference)
    t_object: transmittance at the object nodes
    x_object: the object-plane nodes
    """

    source_to_object: np.ndarray
    object_to_detector: np.ndarray
    source_to_detector: np.ndarray
    t_object: np.ndarray
    x_object: np.ndarray


def propagation_matrices(config):
    """Build the three fixed propagators used by run_ensemble."""
    spec = config.spec
    ctx = spec.ctx
    led = spec.reference_ledger
    x_det = config.detector_grid.coordinates()
    x_src = config.source_grid.coordinates()
    dx_src = config.source_grid.spacing
    x_max = max(abs(x_det[0]), abs(x_det[-1]))
    xo, wo, _ = _object_nodes(spec, x_max, config.detector_grid)
    h1 = fresnel_kernel(ctx, xo[:, None], x_src[None, :],
                        spec.z_o1, spec.z_o1) * dx_src
    h2 = fresnel_kernel(ctx, x_det[:, None], xo[None, :],
                        spec.z_o2, spec.z_o2) * wo[None, :]
    hr = fresnel_kernel(ctx, x_det[:, None], x_src[None, :],
                        led.optical_path, led.diffraction_length) * dx_src
    return PropagationMatrices(h1, h2, hr, spec.object.sample(xo), xo)


def run_ensemble(config):
    """Average E_r* E_o, |E_o|^2, |E_r|^2 over all realizations.

    Fixed batch width and in-order accumulation: rerunning the same
    config reproduces the estimate bitwise.
    """
    if config.spec.object.ndim != 1:
        raise InvalidArgumentError("ensemble runs support 1D objects only")
    mats = propagation_matrices(config)
    n_det = config.detector_grid.n_samples
    n_src = config.source_grid.n_samples
    n = config.n_realizations
    corr_sum = np.zeros(n_det, dtype=np.complex128)
    abs2_sum = np.zeros(n_det)
    io_sum = np.zeros(n_det)
    ir_sum = np.zeros(n_det)
    for start in range(0, n, _BATCH):
        stop = min(start + _BATCH, n)
        src = np.empty((n_src, stop - start), dtype=np.complex128)
        for k, i in enumerate(range(start, stop)):
            src[:, k] = _draw_values(config, i)
        e_obj = mats.source_to_object @ src
        e_obj *= mats.t_object[:, None]
        e_o = mats.object_to_detector @ e_obj
        e_r = mats.source_to_detector @ src
        prod = np.conj(e_r) * e_o
        corr_sum += prod.sum(axis=1)
        abs2_sum += (prod.real ** 2 + prod.imag ** 2).sum(axis=1)
        io_sum += (e_o.real ** 2 + e_o.imag ** 2).sum(axis=1)
        ir_sum += (e_r.real ** 2 + e_r.imag ** 2).sum(axis=1)
    mean = corr_sum / n
    mean_abs2 = mean.real ** 2 + mean.imag ** 2
    if n > 1:
        variance = np.maximum(abs2_sum / n - mean_abs2, 0.0) * n / (n - 1)
        std_err = np.sqrt(variance / n)
    else:
        std_err = np.full(n_det, np.inf)
    warnings = ()
    if np.all(std_err > np.sqrt(mean_abs2)):
        warnings += (
            f"standard error exceeds |mean| everywhere at n = {n}; "
            "increase n_realizations",)
    return EnsembleEstimate(mean, io_sum / n, ir_sum / n, std_err, n,
                            warnings)


def run_coherent(spec, grid, source="plane_wave", pinhole_width=None,
                 block=None):
    """Detector intensity |E_o + E_r|^2 for one deterministic field.

    The input is a unit-amplitude wave on the grid ("plane_wave"), or
    the same truncated to |x| <= pinhole_width/2 ("pinhole"). `block`
    zeroes one arm ("object" or "reference") for single-arm intensity.
    There is no ensemble and no statistical averaging: with coherent
    illumination the arms interfere fringe by fringe.
    """
    if block not in (None, "object", "reference"):
        raise InvalidArgumentError("block must be None, 'object', or 'reference'")
    x = grid.coordinates()
    if source == "plane_wave":
        values = np.ones(grid.n_samples, dtype=np.complex128)
    elif source == "pinhole":
        if not pinhole_width or pinhole_width <= 0:
            raise InvalidArgumentError("pinhole mode needs a positive width")
        values = (np.abs(x) <= pinhole_width / 2).astype(np.complex128)
    else:
        raise InvalidArgumentError(f"unknown coherent source {source!r}")
    e_in = ComplexField(grid, values)

    led = spec.reference_ledger
    if block == "object":
        e_o = np.zeros(grid.n_samples, dtype=np.complex128)
    else:
        at_obj = propagate(spec.ctx, e_in, spec.z_o1, spec.z_o1)
        masked = ComplexField(grid, at_obj.values * spec.object.sample(x))
        e_o = propagate(spec.ctx, masked, spec.z_o2, spec.z_o2).values
    if block == "reference":
        e_r = np.zeros(grid.n_samples, dtype=np.complex128)
    else:
        e_r = propagate(spec.ctx, e_in, led.optical_path,
                        led.diffraction_length).values
    total = e_o + e_r
    return total.real ** 2 + total.imag ** 2
