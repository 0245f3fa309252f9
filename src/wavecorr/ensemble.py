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
arms are linear in the draws, so a run accumulates only their second
moments. With s_k the draws of realization k and y_k = t * (h1 s_k) its
field at the M object nodes, the batches sum

    G = sum_k conj(y_k) s_k^T (M x n_src),  YY = sum_k y_k conj(y_k)^T,
    power = sum_k |fft(v_k)|^2,  v_k = scale exp(i alpha (x - y_c)^2) s_k,

the FFT zero-padded to L = _fft_size(2 n_src - 1), and once per run

* sum_k conj(E_r) E_o = rowsum(H2 * conj(A G^T)), one plan apply on
  G's M rows;
* sum_k |E_o|^2 = Re rowsum((H2 YY) * conj(H2));
* sum_k |E_r[j]|^2 = sum_d rho_d exp(-2i beta jj d), rho = ifft(power)
  the draws' summed autocorrelation (Wiener-Khinchin), one chirp-z over
  unit lattices. Here y_c is the detector point j0 nearest the source's
  middle, jj = j - j0 and beta = alpha dx_s dx_d, so that
  |E_r[j]|^2 = |sum_i v_i exp(-2i beta jj i)|^2.

No field on the detector grid is formed per realization. The sums
equal the per-row ones to rounding (about 2e-15 of each array's peak),
and the mean's expectation is the finite-source brute-force integral on
the same nodes. The draws are circular complex Gaussian and both arms
linear, so Var(E_r* E_o) = <|E_r|^2><|E_o|^2> at every point (the
Gaussian moment theorem: Goodman, Statistical Optics, sec. 2.8; Reed,
IRE Trans. Inf. Theory 8:194, 1962), and the standard error is
sqrt(intensity_o * intensity_r / n).

Every sum above depends on the draws only through S = sum_k s_k s_k^H,
which for n unscaled draws (real and imaginary parts standard normal)
is complex Wishart, CW(n, 2 I) (Goodman, Ann. Math. Statist. 34:152,
1963). So a run sums min(n, n_src) rows r_k in place of the n
realizations:

* n <= n_src: row k is realization k;
* n > n_src: row k is realization k with its first k entries zeroed and
  entry k set to sqrt(2 Gamma(n - k, 1)). These rows are the columns of
  sqrt(2) L in Bartlett's decomposition S = 2 L L^H (Proc. R. Soc.
  Edinb. 53:260, 1933), so sum_k r_k r_k^H has S's distribution exactly.
  The n_src gammas come from one Philox stream at counter 1 << 128,
  which no realization reaches.

A run costs min(n, n_src) rows, not n, and its outputs have the same
joint distribution as the per-realization sums. Determinism is bitwise
per (master_seed, n): the rows, and the batch order they are summed in,
are fixed by the pair. For n <= n_src a run sums sample_source's
realizations; for n > n_src it does not, and its sample changes with n.

A run holds the two matrices, the plan, the sums and buffers that every
batch reuses: _BATCH = 128 source rows, and the normals and the
zero-padded FFT block of one draw call of _CHUNK = 32 rows. Each batch
adds its node fields and one conj(Y)^T S product; the loop, not the
once-per-run plan on G's M rows, sets the peak. At 512 source cells and
1024 detector points (M = 38) a run's traced peak is 3.8 MiB.

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

# fixed batch width and draw-call width; part of the determinism contract
_BATCH = 128
_CHUNK = 32


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
        if self.n_realizations < 1:
            raise InvalidArgumentError("n_realizations must be >= 1")
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
    """Averages over n_used realizations on the detector grid.

    standard_error is sqrt(intensity_o * intensity_r / n_used), the
    standard error of correlation_mean by the Gaussian moment theorem
    (each realization's E_r* E_o has variance I_o I_r); a single
    realization gives inf.
    """

    correlation_mean: np.ndarray
    intensity_o: np.ndarray
    intensity_r: np.ndarray
    standard_error: np.ndarray
    n_used: int


def _draw_values(config, start, stop, out=None, raw=None, stream=None,
                 scaled=True):
    """Raw complex samples of realizations start..stop-1, one row each
    (no validation).

    Row k draws exactly what a fresh Philox(key=master_seed,
    counter=(start + k) << 64) would: one bit generator is reset to that
    counter, with an empty buffer, before each row. Each row is sigma *
    (a0 + 1j * a1) of its two standard-normal blocks, or a0 + 1j * a1
    with scaled=False. out, a complex (>= stop - start, n_source) array,
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
    if scaled:
        values *= _sigma(config)
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


def _bartlett_diagonal(config):
    """sqrt(2 Gamma(n - k, 1)) for k < n_source, drawn from
    Philox(key=master_seed, counter=1 << 128), or None when n <=
    n_source and a run's rows are its realizations."""
    n, n_src = config.n_realizations, config.source_grid.n_samples
    if n <= n_src:
        return None
    gen = np.random.Generator(
        np.random.Philox(key=config.master_seed, counter=1 << 128))
    return np.sqrt(2.0 * gen.standard_gamma(n - np.arange(n_src)))


def _rows(config, start, stop, diagonal, out=None, raw=None, stream=None):
    """Unscaled rows start..stop-1 of the min(n, n_source) that a run
    sums; diagonal is _bartlett_diagonal(config), and out, raw and
    stream are _draw_values'.

    Row k is realization k, or with a diagonal, realization k with its
    first k entries zeroed and entry k set to diagonal[k] (the Bartlett
    rows of the module docstring).
    """
    values = _draw_values(config, start, stop, out, raw, stream,
                          scaled=False)
    if diagonal is not None:
        # row i is row k = start + i: its first k entries are the columns
        # before start and those below the square block's diagonal
        values[:, :start] = 0
        square = values[:, start:stop]
        square[np.tri(stop - start, k=-1, dtype=bool)] = 0
        np.fill_diagonal(square, diagonal[start:stop])
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
    """(plan, scale, alpha) of the reference arm: E_r of source rows src
    is plan(src * scale).

    scale is the Fresnel kernel's amplitude times dx_s; plan is the
    _kernels._lattice_plan from the source grid onto the detector grid,
    with the kernel's chirp rate alpha = k0 / (2 Zbar).
    """
    spec = config.spec
    led = spec.reference_ledger
    source, det = config.source_grid, config.detector_grid
    scale = kernel_scale(spec.ctx, led.optical_path,
                         led.diffraction_length) * source.spacing
    alpha = spec.ctx.k0 / (2.0 * led.diffraction_length)
    plan = _kernels._lattice_plan(det.coordinates(), det.spacing,
                                  source.coordinates(), source.spacing, alpha)
    return plan, scale, alpha


def reference_field(config, src):
    """E_r on the detector grid for source rows src, (..., n_source).

    The midpoint sum of the reference-arm Fresnel kernel over the source
    grid, evaluated as one chirp-z convolution per row: both grids are
    uniform lattices.
    """
    plan, scale, _ = _reference_arm(config)
    return plan(src * scale)


def run_ensemble(config):
    """Average E_r* E_o, |E_o|^2, |E_r|^2 over all realizations.

    The batches accumulate second moments of min(n, n_source) rows,
    which give the three sums once per run (see the module docstring).
    Fixed rows, batch width and accumulation order: rerunning the same
    config reproduces the estimate bitwise.
    """
    if config.spec.object.ndim != 1:
        raise InvalidArgumentError("ensemble runs support 1D objects only")
    mats = propagation_matrices(config)
    plan, scale, alpha = _reference_arm(config)
    source, det = config.source_grid, config.detector_grid
    n_src, n_det = source.n_samples, det.n_samples
    n = config.n_realizations
    # the detector index origin j0 at the point nearest the source's
    # middle, clipped to the grid, as in _lattice_plan
    x_src, x_det = source.coordinates(), det.coordinates()
    j0 = int(np.clip(np.rint((x_src[n_src // 2] - x_det[0]) / det.spacing),
                     0, n_det - 1))
    g, yy, power = _second_moments(
        config, mats, scale * np.exp(1j * alpha * (x_src - x_det[j0]) ** 2))
    h2 = mats.object_to_detector
    # (A G^T)^T: one plan apply on the M rows of G
    g *= scale
    e_rg = plan(g)
    corr_sum = np.einsum("jm,mj->j", h2, np.conjugate(e_rg, out=e_rg))
    del e_rg
    # the float views pair real with real and imaginary with imaginary
    # parts: Re((H2 YY) * conj(H2)) summed over the nodes
    io_sum = np.einsum("jk,jk->j", (h2 @ yy).view(np.float64),
                       h2.view(np.float64))
    # sum_d rho_d exp(-2i beta jj d) is the modulus of the chirp-z sum
    # sum_d rho_d exp(-i beta d^2) exp(i beta (jj - d)^2) over unit
    # lattices
    rho = np.fft.ifft(power[0::2] + power[1::2])
    lags = np.arange(1 - n_src, n_src)
    beta = alpha * source.spacing * det.spacing
    chirp = np.conjugate(_kernels._chirp_table(beta, n_src - 1)[2])
    ir_plan = _kernels._lattice_plan(
        np.arange(-j0, n_det - j0, dtype=np.float64), 1.0,
        lags.astype(np.float64), 1.0, beta)
    ir_sum = np.abs(ir_plan(rho[lags] * chirp[np.abs(lags)]))
    mean, i_o, i_r = corr_sum / n, io_sum / n, ir_sum / n
    if n > 1:
        std_err = np.sqrt(i_o * i_r / n)
    else:
        std_err = np.full(n_det, np.inf)
    if np.all(std_err > np.abs(mean)):
        warnings.warn(
            f"standard error exceeds |mean| everywhere at n = {n}; "
            "increase n_realizations", StatisticsWarning, stacklevel=2)
    return EnsembleEstimate(mean, i_o, i_r, std_err, n)


def _second_moments(config, mats, weights):
    """(G, YY, power) summed over the run's rows, in batches of _BATCH.

    The rows are _rows', min(n, n_source) of them. With s a row and y =
    t_object * (h1 s) its field at the object nodes: G = sum conj(y) s^T
    (M x n_source), YY = sum y conj(y)^T (M x M) and power = sum |fft(s
    * weights, size)|^2, size = _fft_size(2 n_source - 1), as the float
    pairs of its complex bins.

    The rows stay unscaled: sigma and t_object are folded into h1 and
    sigma into weights once per run, and G takes sigma at the end. Every
    batch reuses the run's buffers: _BATCH source rows, and the normals
    and the zero-padded FFT block of one _CHUNK-row draw call each.
    """
    n = config.n_realizations
    n_src = config.source_grid.n_samples
    sigma = _sigma(config)
    h1_t = mats.source_to_object.T * (sigma * mats.t_object)
    weights = weights * sigma
    m = h1_t.shape[1]
    size = _kernels._fft_size(2 * n_src - 1)
    stream = _stream(config)
    diagonal = _bartlett_diagonal(config)
    n_rows = min(n, n_src)
    rows = np.empty((_BATCH, n_src), dtype=np.complex128)
    raw = np.empty((_CHUNK, 2, n_src))
    block = np.empty((_CHUNK, size), dtype=np.complex128)
    g = np.zeros((m, n_src), dtype=np.complex128)
    yy = np.zeros((m, m), dtype=np.complex128)
    power = np.zeros(2 * size)
    for start in range(0, n_rows, _BATCH):
        s = rows[:min(_BATCH, n_rows - start)]
        for lo in range(0, len(s), _CHUNK):
            c = _rows(config, start + lo, start + min(lo + _CHUNK, len(s)),
                      diagonal, s[lo:], raw, stream)
            v = block[:len(c)]
            np.multiply(c, weights, out=v[:, :n_src])
            v[:, n_src:] = 0
            np.fft.fft(v, out=v)
            # the float view sums re^2 and im^2 of each bin apart
            f = v.view(np.float64)
            power += np.einsum("ij,ij->j", f, f)
        y = s @ h1_t
        yc = np.conjugate(y)
        g += yc.T @ s
        yy += y.T @ yc
    g *= sigma
    return g, yy, power


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
