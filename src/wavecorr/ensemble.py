"""Monte-Carlo chaotic light: random source realizations through both arms.

A spatially incoherent source is represented per realization by one
circular complex Gaussian draw per source-grid cell with variance
I_s / dx_s, so the discrete correlation sum(<E* E'>) dx reproduces the
delta correlation I_s * delta(x - x'). Realization i draws from a
counter-based stream derived from (master_seed, i): Philox keyed by the
master seed with the block counter offset by i * 2**64. The same pair
therefore yields the same field bitwise on any worker layout.

The object arm is two fixed matrices, h1 (source -> object nodes, then
the transmittance t) and H2 (object nodes -> detector); the reference
arm A maps the uniform source grid onto the uniform detector grid, a
chirp-z convolution (_kernels._lattice_plan, built once per run). Both
arms are linear in the draws, so a run samples only the correlation's
second moment. With s_k the unscaled draws of realization k (real and
imaginary parts standard normal), sigma the draws' scale and y_k =
sigma t * (h1 s_k) its field at the M object nodes, the batches sum

    G = sum_k conj(y_k) s_k^T (M x n_src),

and once per run sum_k conj(E_r) E_o = rowsum(H2 * conj(A (sigma G)^T)),
one plan apply on G's M rows. No field on the detector grid is formed
per realization; the sum equals the per-row one to rounding (about
2e-15 of its peak), and the mean's expectation is the finite-source
brute-force integral on the same nodes.

The two intensities are not sampled: each is a linear-Gaussian
expectation the run writes down exactly on its own nodes. With S =
sum_k s_k s_k^H, E[S] = 2 n I, so

* intensity_o = Re rowsum((H2 Ybar) * conj(H2)), Ybar = 2 B B^H and
  B = sigma t * h1 (M x n_src), one product per run;
* intensity_r = 2 sigma^2 n_src |scale|^2 at every point: the reference
  kernel has constant modulus |scale| (its amplitude times dx_s), and
  this is the closed form I_s k0 W / (2 pi |Zbar|) on the source grid.

The draws are circular complex Gaussian and both arms linear, so
Var(E_r* E_o) = I_o I_r at every point (the Gaussian moment theorem:
Goodman, Statistical Optics, sec. 2.8; Reed, IRE Trans. Inf. Theory
8:194, 1962), and the standard error sqrt(intensity_o * intensity_r /
n) is exact for the run's nodes and does not move with the draw.

G = conj(B S) depends on the draws only through S, which for n unscaled
draws is complex Wishart, CW(n, 2 I) (Goodman, Ann. Math. Statist.
34:152, 1963). For n <= n_src a run sums the n realizations, in batches.
For n > n_src it draws G in B's row space and forms no source row. Let
Q (n_src x p, p = min(M, n_src)) be the reduced QR basis of B^H, so B =
B Q Q^H. Then:

* a_k = Q^H s_k are iid CN(0, 2 I_p) and independent of (I - Q Q^H) s_k;
* W = sum_k a_k a_k^H ~ CW(n, 2 I_p) = V V^H, with V (p x p) lower
  triangular: sqrt(2 Gamma(n - k, 1)) on its diagonal and circular
  complex normals (real and imaginary parts standard normal) below it,
  Bartlett's decomposition (Proc. R. Soc. Edinb. 53:260, 1933);
* given the a_k, sum_k a_k ((I - Q Q^H) s_k)^H is distributed as
  V Z (I - Q Q^H), with Z (p x n_src) circular complex normals.

So B S has exactly the distribution of (B Q V)(V^H Q^H + Z - (Z Q) Q^H),
and B^H = Q R gives B Q = R^H. Q only has to span B's rows, so a B of
lower rank (a zero or repeated row) needs no special case.

These draws have a convention of their own: one Philox(key=master_seed,
counter=1 << 128) generator, at a counter no realization reaches, draws
the p gammas, then V's p (p - 1) / 2 entries below the diagonal in
np.tril_indices(p, -1) order, then Z in row order; each set of normals
is one standard_normal call into the float view of its complex entries,
so real and imaginary parts interleave. At every n > n_src a run draws
2 p n_src + p (p - 1) normals (39,318 at 512 cells and M = 38), against
n_src (n_src - 1) for S's own n_src x n_src Bartlett factor, and its
products cost O(p^2 n_src), not O(M n_src^2).

So a run's cost stops growing at n = n_src, and its mean has the same
distribution as the per-realization one. Determinism is bitwise per
(master_seed, n): the draws, and the order they are summed in, are
fixed by the pair. For n <= n_src a run sums sample_source's
realizations; for n > n_src it does not, and its sample changes with n.

A run holds the two matrices, the plan and G. For n <= n_src every
batch reuses the run's buffers, _BATCH = 128 source rows and their
normals, drawn in one call per batch, and adds its node fields and one
conj(Y)^T S product; the loop, not the once-per-run plan on G's M rows,
sets the peak. At 512 source cells and 1024 detector points (M = 38) a
run's traced peak is 3.9 MiB for n <= n_src and 3.3 MiB above it, where
the plan sets it.

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

# fixed batch width; part of the determinism contract
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
    variance I_o I_r); a single realization gives inf.
    """

    correlation_mean: np.ndarray
    intensity_o: np.ndarray
    intensity_r: np.ndarray
    standard_error: np.ndarray
    n_used: int


def _draw_values(config, start, stop, out=None, raw=None, stream=None):
    """Unscaled complex samples of realizations start..stop-1, one row
    each (no validation).

    Row k draws exactly what a fresh Philox(key=master_seed,
    counter=(start + k) << 64) would: one bit generator is reset to that
    counter, with an empty buffer, before each row. Each row is a0 + 1j
    * a1 of its two standard-normal blocks; _sigma(config) scales it to
    the source's draws. out, a complex (>= stop - start, n_source) array,
    and raw, a float (>= stop - start, 2, n_source) one for the normals,
    are written in their first stop - start rows, and out's are
    returned; stream is _stream(config). Each is made when not given,
    with the same bits.
    """
    b, s = stop - start, config.source_grid.n_samples
    gen, state = _stream(config) if stream is None else stream
    counter = state["state"]["counter"]
    a = np.empty((b, 2, s)) if raw is None else raw[:b]
    for k, i in enumerate(range(start, stop)):
        counter[1] = i  # the 256-bit counter i << 64, low word first
        gen.bit_generator.state = state
        gen.standard_normal(out=a[k])
    values = np.empty((b, s), dtype=np.complex128) if out is None else out[:b]
    values.real = a[:, 0]
    values.imag = a[:, 1]
    return values


def _stream(config):
    """(generator, state): a Philox generator keyed by master_seed and
    its fresh state (empty buffer), which _draw_values resets per row."""
    gen = np.random.Generator(np.random.Philox(key=config.master_seed))
    return gen, gen.bit_generator.state


def _sigma(config):
    """Standard deviation of each draw's real and imaginary parts."""
    return np.sqrt(config.spec.source_intensity
                   / (2.0 * config.source_grid.spacing))


def _row_space_draws(config, p):
    """(V, Z) of an n > n_source run whose object arm spans p source
    dimensions, unscaled and drawn by the module docstring's convention.

    V (p x p) is lower triangular with sqrt(2 Gamma(n - k, 1)) on its
    diagonal; its entries below it and Z's (p x n_source) are circular
    complex normals, real and imaginary parts standard normal.
    """
    n, n_src = config.n_realizations, config.source_grid.n_samples
    gen = np.random.Generator(
        np.random.Philox(key=config.master_seed, counter=1 << 128))
    v = np.diag(np.sqrt(2.0 * gen.standard_gamma(n - np.arange(p))) + 0j)
    lower = np.empty(p * (p - 1) // 2, dtype=np.complex128)
    gen.standard_normal(out=lower.view(np.float64))
    v[np.tril_indices(p, -1)] = lower
    z = np.empty((p, n_src), dtype=np.complex128)
    gen.standard_normal(out=z.view(np.float64))
    return v, z


def sample_source(config, realization_index):
    """Source realization `realization_index` as a ComplexField."""
    _require_int(realization_index, "realization index")
    if not 0 <= realization_index < config.n_realizations:
        raise InvalidArgumentError(
            f"realization index {realization_index} outside "
            f"[0, {config.n_realizations})")
    values = _draw_values(config, realization_index, realization_index + 1)
    return ComplexField(config.source_grid, values[0] * _sigma(config))


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


def run_ensemble(config):
    """Average E_r* E_o over all realizations, with the exact
    intensities and standard error on the run's nodes.

    The run forms the correlation's second moment G, from the n
    realizations for n <= n_source and drawn in the object arm's row
    space above it, which gives the mean once per run; the intensities
    take E[S] = 2 n I (see the module docstring). Fixed draws, batch
    width and accumulation order: rerunning the same config reproduces
    the estimate bitwise.
    """
    if config.spec.object.ndim != 1:
        raise InvalidArgumentError("ensemble runs support 1D objects only")
    mats = propagation_matrices(config)
    plan, scale = _reference_arm(config)
    n_src = config.source_grid.n_samples
    n_det = config.detector_grid.n_samples
    n = config.n_realizations
    sigma = _sigma(config)
    # B^T: sigma and t_object folded into h1 once per run
    b_t = mats.source_to_object.T * (sigma * mats.t_object)
    g = _second_moment(config, b_t)
    h2 = mats.object_to_detector
    # (A (sigma G)^T)^T: one plan apply on the M rows of G; sigma and
    # scale apply one at a time, an order the mean's bits depend on
    g *= sigma
    g *= scale
    e_rg = plan(g)
    corr_sum = np.einsum("jm,mj->j", h2, np.conjugate(e_rg, out=e_rg))
    del e_rg
    # the float views pair real with real and imaginary with imaginary
    # parts: Re((H2 Ybar) * conj(H2)) summed over the nodes
    y_bar = 2.0 * (b_t.T @ np.conjugate(b_t))
    i_o = np.einsum("jk,jk->j", (h2 @ y_bar).view(np.float64),
                    h2.view(np.float64))
    i_r = np.full(n_det, 2.0 * sigma ** 2 * n_src * abs(scale) ** 2)
    mean = corr_sum / n
    if n > 1:
        std_err = np.sqrt(i_o * i_r / n)
    else:
        std_err = np.full(n_det, np.inf)
    if np.all(std_err > np.abs(mean)):
        warnings.warn(
            f"standard error exceeds |mean| everywhere at n = {n}; "
            "increase n_realizations", StatisticsWarning, stacklevel=2)
    return EnsembleEstimate(mean, i_o, i_r, std_err, n)


def _second_moment(config, b_t):
    """G = conj(B S) (M x n_source), S = sum_k s_k s_k^H over the run's
    n unscaled draws; b_t is B^T (n_source x M).

    For n > n_source, G is drawn in B's row space (see the module
    docstring) and no source row is formed. For n <= n_source it sums
    conj(B s_k) s_k^T over the realizations in batches of _BATCH, every
    batch reusing the run's row buffer and the buffer of their normals,
    drawn in one call.
    """
    n, n_src = config.n_realizations, config.source_grid.n_samples
    if n > n_src:
        # B^H = Q R, so B Q = R^H and B S ~ R^H V (Z + (V^H - Z Q) Q^H)
        q, r = np.linalg.qr(np.conjugate(b_t))
        v, z = _row_space_draws(config, r.shape[0])
        z += (np.conjugate(v.T) - z @ q) @ np.conjugate(q.T)
        g = (np.conjugate(r.T) @ v) @ z
        return np.conjugate(g, out=g)
    rows = np.empty((_BATCH, n_src), dtype=np.complex128)
    g = np.zeros((b_t.shape[1], n_src), dtype=np.complex128)
    stream = _stream(config)
    raw = np.empty((_BATCH, 2, n_src))
    for start in range(0, n, _BATCH):
        s = _draw_values(config, start, min(start + _BATCH, n), rows, raw,
                         stream)
        g += np.conjugate(s @ b_t).T @ s
    return g


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
