"""Monte-Carlo chaotic light: random source realizations through both arms.

A spatially incoherent source is represented per realization by one
circular complex Gaussian draw per source-grid cell with variance
I_s / dx_s, so the discrete correlation sum(<E* E'>) dx reproduces the
delta correlation I_s * delta(x - x'). sample_source draws realization
i from a counter-based stream derived from (master_seed, i): Philox
keyed by the master seed with the block counter offset by i * 2**64.
The same pair therefore yields the same field bitwise on any worker
layout.

The object arm is two fixed matrices, h1 (source -> object nodes, then
the transmittance t) and H2 (object nodes -> detector); the reference
arm A maps the uniform source grid onto the uniform detector grid, a
chirp-z convolution (_kernels._lattice_plan, built once per run). The
source and detector grids are uniform and the object nodes are uniform
runs, so h1 and H2 are built from the same lattice chirps
(_kernels.chirp_matrix): one chirp table per group of equal runs and
two passes of products per matrix, with O(N + M) exponentials where
the elementwise kernel takes N M. Both
arms are linear in the draws, so a run samples only the correlation's
second moment. With s_k the unscaled draws of realization k (real and
imaginary parts standard normal), sigma the draws' scale and y_k =
sigma t * (h1 s_k) its field at the M object nodes, that is

    G = sum_k conj(y_k) s_k^T (M x n_src),

and once per run sum_k conj(E_r) E_o = rowsum(H2 * conj(A (sigma G)^T)),
one plan apply on G's M rows. No field on the detector grid is formed
per realization, and the mean's expectation is the finite-source
brute-force integral on the same nodes.

The two intensities are not sampled: each is a linear-Gaussian
expectation the run writes down exactly on its own nodes. With S =
sum_k s_k s_k^H, E[S] = 2 n I, so

* intensity_o = 2 rowsum |H2 R^H|^2, B = sigma t * h1 (M x n_src)
  and B^H = Q R the QR the draw takes (below): E[B S B^H] = 2 n R^H R;
* intensity_r = 2 sigma^2 n_src |scale|^2 at every point: the reference
  kernel has constant modulus |scale| (its amplitude times dx_s), and
  this is the closed form I_s k0 W / (2 pi |Zbar|) on the source grid.

The draws are circular complex Gaussian and both arms linear, so
Var(E_r* E_o) = I_o I_r at every point (the Gaussian moment theorem:
Goodman, Statistical Optics, sec. 2.8; Reed, IRE Trans. Inf. Theory
8:194, 1962), and the standard error sqrt(intensity_o * intensity_r /
n) is exact for the run's nodes and does not move with the draw.

G = conj(B S) depends on the draws only through S = X X^H, X = (s_1
... s_n), which is complex Wishart, CW(n, 2 I) (Goodman, Ann. Math.
Statist. 34:152, 1963), and a run draws it in B's row space, forming no
source row. Let Q (n_src x p, p = min(M, n_src)) be the reduced QR
basis of B^H, so B = B Q Q^H and B Q = R^H, and r = min(n, p). A = Q^H X
(p x n) is iid circular complex normal and independent of (I - Q Q^H) X,
and B S = (B Q A)(A^H Q^H + X^H (I - Q Q^H)) depends on A only through
A A^H once the rest is given. So B S has exactly the distribution of

    R^H L (L^H Q^H + Z - (Z Q) Q^H),

with Z (r x n_src) circular complex normals and L any p x r factor with
L L^H distributed as A A^H. A run takes Bartlett's factor (Proc. R. Soc.
Edinb. 53:260, 1933), the lower trapezoidal L of A's LQ decomposition A
= L U: sqrt(2 Gamma(n - k, 1)) at (k, k) for k < r and circular complex
normals below the diagonal. Q only has to span B's rows, so a B of
lower rank (a zero or repeated row) needs no special case.

These draws have a convention of their own: one Philox(key=master_seed,
counter=1 << 128) generator, at a counter no realization reaches, draws
L's r gammas, then its entries below the diagonal in np.tril_indices(p,
-1, r) order, then Z in row order. Each set of normals is one
standard_normal call read as complex entries, real and imaginary parts
interleaved. A run draws r (2 p - r - 1) + 2 r
n_src normals (40,318 at 512 cells and M = 38 once n >= p), and its
products cost O(p r n_src), so its cost stops growing at n = p.
Determinism is bitwise per (master_seed, n): the pair fixes the draws
and the order of the products. A run does not sum sample_source's
realizations, but its mean has their sum's distribution.

The sample is sensitive to rounding in B: at the ensemble benchmark's
geometry (512 source cells, a 125/300 um double slit) B's condition
number is 1.5e9 at the imaging point (M = 38) and 5e10 defocused (M =
44), so a rounding-level change in B turns the QR's trailing basis
vectors, and with them the sample. The distribution is unchanged, but a
run's bits can differ between BLAS and LAPACK builds.

A run has two stages. The geometry (_geometry) is what the spec and
the two grids fix: h1, H2, the plan, B, its QR (Q, and R^H = B Q) and
both intensities, so the intensities and the standard error come
before any draw. The draw stage is the rest: L, Z, G, the plan applied
to G's rows and the mean. Once the geometry is built the run holds H2,
Q, R^H, the plan and the two intensities; h1 (B^H, written over it)
and R go while it is built. At 512 source cells and 1024 detector
points (M = 38) the plan on G's rows sets the traced peak, 2.4 MiB at
every n, and the geometry stage peaks at 1.6 MiB.

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
from .interferometer import PortIntensities, _node_matrix, _object_nodes
# fresnel_kernel is not called here; it stays importable from this module
# because perfbench's tracer wraps it here
from .propagation import fresnel_kernel, kernel_scale, propagate

# no run reads this; perfbench's tracer counts a run's batches by it
_BATCH = 128


@dataclass(frozen=True)
class EnsembleConfig:
    """One reproducible Monte-Carlo run.

    source_grid spans spec.source_width and is centred on the axis, the
    source that brute force and the closed form integrate.
    """

    spec: object
    source_grid: Grid
    detector_grid: Grid
    n_realizations: int
    master_seed: int

    def __post_init__(self):
        _require_int(self.n_realizations, "n_realizations")
        _require_int(self.master_seed, "master_seed")
        if not 1 <= self.n_realizations < 2 ** 63:
            raise InvalidArgumentError(
                "n_realizations must be in [1, 2**63)")
        if not (0 <= self.master_seed < 2 ** 64):
            raise InvalidArgumentError("master_seed must fit in 64 bits")
        w = 2 * self.source_grid.half_width
        if abs(w - self.spec.source_width) > 1e-12 * self.spec.source_width:
            raise InvalidArgumentError(
                "source_grid must span exactly spec.source_width")
        # brute force, background_intensity and the closed form all take
        # the source centred on the axis
        if abs(self.source_grid.center) > 1e-12 * self.spec.source_width:
            raise InvalidArgumentError("source_grid must be centred at 0")


def _require_int(value, name):
    """Raise InvalidArgumentError unless value is an integer (not a bool)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise InvalidArgumentError(f"{name} must be an integer")


@dataclass(frozen=True)
class EnsembleEstimate:
    """An n_used-realization run on the detector grid.

    correlation_mean is the sampled mean of E_r* E_o. intensity_o and
    intensity_r are the exact expectations of |E_o|^2 and |E_r|^2 on
    the run's nodes, not sampled. standard_error is sqrt(intensity_o *
    intensity_r / n_used), the standard error of correlation_mean by
    the Gaussian moment theorem (each realization's E_r* E_o has
    variance I_o I_r), at every n_used, 1 included.
    """

    correlation_mean: np.ndarray
    intensity_o: np.ndarray
    intensity_r: np.ndarray
    standard_error: np.ndarray
    n_used: int


def _draw_values(config, index):
    """Unscaled complex samples of realization index (no validation):
    a0 + 1j * a1 of the two standard-normal blocks a fresh
    Philox(key=master_seed, counter=index << 64) draws, which
    _sigma(config) scales. sample_source is its one caller, and
    perfbench's tracer wraps it by this name."""
    n_src = config.source_grid.n_samples
    gen = np.random.Generator(
        np.random.Philox(key=config.master_seed, counter=index << 64))
    row = np.empty(n_src, dtype=np.complex128)
    row.real, row.imag = gen.standard_normal((2, n_src))
    return row


def _sigma(config):
    """Standard deviation of each draw's real and imaginary parts."""
    return np.sqrt(config.spec.source_intensity
                   / (2.0 * config.source_grid.spacing))


def _row_space_draws(config, p):
    """(L, Z) of a run whose object arm spans p source dimensions,
    unscaled and drawn by the module docstring's convention.

    With r = min(n, p), L (p x r) is lower trapezoidal, sqrt(2 Gamma(n
    - k, 1)) at (k, k); its entries below the diagonal and Z's (r x
    n_source) are circular complex normals, real and imaginary parts
    standard normal.
    """
    n, n_src = config.n_realizations, config.source_grid.n_samples
    r = min(n, p)
    gen = np.random.Generator(
        np.random.Philox(key=config.master_seed, counter=1 << 128))
    factor = np.zeros((p, r), dtype=np.complex128)
    diag = np.arange(r)
    factor[diag, diag] = np.sqrt(2.0 * gen.standard_gamma(n - diag))
    below = np.tril_indices(p, -1, r)
    factor[below] = gen.standard_normal(2 * below[0].size).view(np.complex128)
    return factor, gen.standard_normal((r, 2 * n_src)).view(np.complex128)


def sample_source(config, realization_index):
    """Source realization `realization_index` as a ComplexField."""
    _require_int(realization_index, "realization index")
    if not 0 <= realization_index < config.n_realizations:
        raise InvalidArgumentError(
            f"realization index {realization_index} outside "
            f"[0, {config.n_realizations})")
    values = _draw_values(config, realization_index)
    return ComplexField(config.source_grid, values * _sigma(config))


class PropagationMatrices(NamedTuple):
    """Discrete object-arm propagators of one config (weights folded in).

    source_to_object: [n_object_nodes, n_source] including dx_s
    object_to_detector: [n_detector, n_object_nodes] including node widths
    t_object: transmittance at the object nodes

    The reference arm has no matrix here: see _reference_arm.
    """

    source_to_object: np.ndarray
    object_to_detector: np.ndarray
    t_object: np.ndarray


def propagation_matrices(config):
    """Build the two fixed object-arm propagators used by run_ensemble.

    Each is the Fresnel kernel between a uniform grid and the object
    nodes, with its weights folded in, built from the lattice chirps
    (interferometer._node_matrix): h1 is the transpose of the
    source-grid-by-node matrix, a view.
    """
    spec = config.spec
    ctx = spec.ctx
    x_det = config.detector_grid.coordinates()
    x_src = config.source_grid.coordinates()
    dx_src = config.source_grid.spacing
    x_max = max(abs(x_det[0]), abs(x_det[-1]))
    nodes = _object_nodes(spec, x_max, config.detector_grid)
    xo, wo = nodes[:2]
    h1 = _node_matrix(ctx, x_src, nodes, spec.z_o1, dx_src).T
    h2 = _node_matrix(ctx, x_det, nodes, spec.z_o2, wo)
    return PropagationMatrices(h1, h2, spec.object.sample(xo))


def _reference_arm(config):
    """(plan, scale) of the reference arm: E_r of source rows src is
    plan(src * scale).

    scale is the Fresnel kernel's amplitude times dx_s; plan is the
    _kernels._lattice_plan from the source grid onto the detector grid,
    with the kernel's chirp rate k0 / (2 Zbar).
    """
    spec = config.spec
    led = spec.reference_ledger
    source, det = config.source_grid, config.detector_grid
    scale = kernel_scale(spec.ctx, led.optical_path,
                         led.diffraction_length) * source.spacing
    alpha = spec.ctx.k0 / (2.0 * led.diffraction_length)
    plan = _kernels._lattice_plan(det.coordinates(), det.spacing,
                                  source.coordinates(), source.spacing, alpha)
    return plan, scale


class _Geometry(NamedTuple):
    """What the spec and grids of a run fix: the object arm's H2, the
    reference arm's plan and scale, the draws' scale sigma, the reduced
    QR basis of B^H (Q, and R^H = B Q) and the exact intensities."""

    h2: np.ndarray
    q: np.ndarray
    r_h: np.ndarray
    plan: object
    scale: complex
    sigma: float
    intensity_o: np.ndarray
    intensity_r: np.ndarray


def _geometry(config):
    """The _Geometry of config's spec and grids; config's n_realizations
    and master_seed are not read.

    B^H is written over h1 for the QR, and the object intensity is read
    from R: 2 B B^H = 2 R^H R. B^H and R are not kept, and each draw
    forms its own Q^H.
    """
    mats = propagation_matrices(config)
    plan, scale = _reference_arm(config)
    sigma = _sigma(config)
    h2, b_h = mats.object_to_detector, mats.source_to_object.T
    b_h *= sigma * mats.t_object
    del mats
    # B^H = Q R, so B Q = R^H
    q, r = np.linalg.qr(np.conjugate(b_h, out=b_h))
    del b_h
    r_h = np.conjugate(r.T)
    # 2 |H2 R^H|^2 summed over R's rows, as squares of the float view
    h2_r = (h2 @ r_h).view(np.float64)
    i_o = 2.0 * np.einsum("jk,jk->j", h2_r, h2_r)
    i_r = np.full(config.detector_grid.n_samples,
                  2.0 * sigma ** 2 * config.source_grid.n_samples
                  * abs(scale) ** 2)
    return _Geometry(h2, q, r_h, plan, scale, sigma, i_o, i_r)


def run_ensemble(config):
    """Average E_r* E_o over all realizations, with the exact
    intensities and standard error on the run's nodes.

    The run builds its geometry (_geometry), then draws the
    correlation's second moment G in the object arm's row space, which
    gives the mean once per run. Fixed draws and order of products:
    rerunning the same config reproduces the estimate bitwise.
    """
    if config.spec.object.ndim != 1:
        raise InvalidArgumentError("ensemble runs support 1D objects only")
    geo = _geometry(config)
    n = config.n_realizations
    g = _second_moment(config, (geo.q, geo.r_h))
    # (A (sigma G)^T)^T: one plan apply on the M rows of G; sigma and
    # scale apply one at a time, an order the mean's bits depend on
    g *= geo.sigma
    g *= geo.scale
    e_rg = geo.plan(g)
    corr_sum = np.einsum("jm,mj->j", geo.h2, np.conjugate(e_rg, out=e_rg))
    del e_rg
    mean = corr_sum / n
    std_err = np.sqrt(geo.intensity_o * geo.intensity_r / n)
    if np.all(std_err > np.abs(mean)):
        warnings.warn(
            f"standard error exceeds |mean| everywhere at n = {n}; "
            "increase n_realizations", StatisticsWarning, stacklevel=2)
    return EnsembleEstimate(mean, geo.intensity_o, geo.intensity_r,
                            std_err, n)


def _second_moment(config, basis):
    """G = conj(B S) (M x n_source), S = sum_k s_k s_k^H over the run's
    n unscaled draws; basis is (Q, R^H) of the reduced QR B^H = Q R.

    G is drawn in B's row space at every n, from the factor L and Z of
    _row_space_draws (see the module docstring); no source row is
    formed.
    """
    # B S ~ R^H L (Z + (L^H - Z Q) Q^H)
    q, r_h = basis
    factor, z = _row_space_draws(config, q.shape[1])
    z += (np.conjugate(factor.T) - z @ q) @ np.conjugate(q.T)
    g = (r_h @ factor) @ z
    return np.conjugate(g, out=g)


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
