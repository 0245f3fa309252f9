"""Monte-Carlo chaotic-light engine: draw statistics, reproducibility,
convergence to the closed form, and the coherent-illumination contrast.

Every statistical assertion runs under a frozen master seed, so the
tolerances only need to clear the one realization that actually runs.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from wavecorr import (EnsembleConfig, InterferometerSpec, MediumSegment,
                      OpticsContext, background_intensity,
                      correlation_analytic, double_slit, fresnel_kernel,
                      ledger, make_grid, run_coherent, run_ensemble,
                      sample_source, uniform, vacuum)
from wavecorr import _kernels
from wavecorr.ensemble import (_BATCH, _draw_values, _reference_arm,
                               propagation_matrices, reference_field)
from wavecorr.errors import (InvalidArgumentError, ResolutionError,
                             StatisticsWarning)
from wavecorr.propagation import kernel_scale

CTX = OpticsContext(589.3e-9)
REF_SEGMENTS = (MediumSegment(0.155, 1.5163), vacuum(0.183))
REF = ledger(REF_SEGMENTS)
SLIT = double_slit(125e-6, 300e-6)

SOURCE_GRID = make_grid(0.0, 0.005, 512)
DET_GRID = make_grid(0.0, 0.25e-3, 64)


def imaging_spec(obj):
    z_o1 = REF.diffraction_length
    return InterferometerSpec(CTX, z_o1, REF.optical_path - z_o1,
                              REF_SEGMENTS, obj, 0.01)


def make_config(obj=SLIT, n=8, seed=20260816, source_grid=SOURCE_GRID):
    return EnsembleConfig(imaging_spec(obj), source_grid, DET_GRID, n, seed)


# -------------------------------------------------------------- sampling

def test_config_validation():
    with pytest.raises(InvalidArgumentError):
        make_config(n=0)
    with pytest.raises(InvalidArgumentError):
        make_config(seed=-1)
    with pytest.raises(InvalidArgumentError):
        make_config(seed=2 ** 64)
    with pytest.raises(InvalidArgumentError):
        make_config(source_grid=make_grid(0.0, 0.004, 512))


@pytest.mark.parametrize("n, seed", [
    (2.5, 1), (True, 1), ("2", 1), (2, 1.5), (2, True), (2, None)],
    ids=["n-float", "n-bool", "n-str", "seed-float", "seed-bool",
         "seed-none"])
def test_config_takes_integers_only(n, seed):
    # a float count would fail later in run_ensemble, a float seed would
    # run as its truncation, and True would count as 1
    with pytest.raises(InvalidArgumentError, match="must be an integer"):
        make_config(n=n, seed=seed)


def test_config_takes_numpy_integers():
    config = make_config(n=np.int64(2), seed=np.uint64(7))
    assert run_ensemble(config).correlation_mean.tobytes() == run_ensemble(
        make_config(n=2, seed=7)).correlation_mean.tobytes()


def test_sample_source_index_validation():
    config = make_config(n=4)
    with pytest.raises(InvalidArgumentError):
        sample_source(config, -1)
    with pytest.raises(InvalidArgumentError):
        sample_source(config, 4)
    for index in (1.5, True):
        with pytest.raises(InvalidArgumentError, match="integer"):
            sample_source(config, index)


def test_sample_source_frozen_draw_convention():
    # the counter-based substream layout is a compatibility contract:
    # realization i draws standard normals from Philox(key, i << 64)
    config = make_config(n=8, seed=424242,
                         source_grid=make_grid(0.0, 0.005, 8))
    got = sample_source(config, 3)
    bitgen = np.random.Philox(key=424242, counter=3 << 64)
    a = np.random.Generator(bitgen).standard_normal((2, 8))
    sigma = np.sqrt(1.0 / (2.0 * config.source_grid.spacing))
    assert np.array_equal(got.values, sigma * (a[0] + 1j * a[1]))


def test_batched_draws_are_the_per_realization_streams():
    # a block that starts off zero and crosses a batch boundary: row k is
    # what a fresh Philox(key, counter=(start + k) << 64) draws
    config = make_config(n=3 * _BATCH, seed=2 ** 64 - 5,
                         source_grid=make_grid(0.0, 0.005, 33))
    start, stop = _BATCH - 7, _BATCH + 9
    got = _draw_values(config, start, stop)
    assert got.shape == (stop - start, 33)
    sigma = np.sqrt(1.0 / (2.0 * config.source_grid.spacing))
    for k, i in enumerate(range(start, stop)):
        bitgen = np.random.Philox(key=2 ** 64 - 5, counter=i << 64)
        a = np.random.Generator(bitgen).standard_normal((2, 33))
        assert np.array_equal(got[k], sigma * (a[0] + 1j * a[1]))


def test_draws_into_caller_buffers_keep_their_bits():
    # buffers longer than the block, reused across blocks, among them one
    # crossing a batch boundary and a partial last batch: each row is
    # bitwise a fresh call's, sample_source's and sigma * (a0 + 1j * a1)
    n = 2 * _BATCH + 3
    config = make_config(n=n, seed=2 ** 64 - 5,
                         source_grid=make_grid(0.0, 0.005, 33))
    sigma = np.sqrt(1.0 / (2.0 * config.source_grid.spacing))
    out = np.full((_BATCH + 4, 33), np.nan, dtype=np.complex128)
    raw = np.full((_BATCH + 4, 2, 33), np.nan)
    blocks = ((0, _BATCH), (_BATCH - 7, _BATCH + 9), (2 * _BATCH, n))
    for start, stop in blocks:
        got = _draw_values(config, start, stop, out, raw)
        assert got.shape == (stop - start, 33)
        assert np.shares_memory(got, out)
        assert got.tobytes() == _draw_values(config, start, stop).tobytes()
        for k, i in enumerate(range(start, stop)):
            bitgen = np.random.Philox(key=2 ** 64 - 5, counter=i << 64)
            a = np.random.Generator(bitgen).standard_normal((2, 33))
            assert got[k].tobytes() == (sigma * (a[0] + 1j * a[1])).tobytes()
            assert got[k].tobytes() == \
                sample_source(config, i).values.tobytes()


def test_sample_source_is_deterministic_and_indexed():
    config = make_config(n=8)
    a = sample_source(config, 2).values
    b = sample_source(config, 2).values
    c = sample_source(config, 3).values
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_source_moments():
    # delta-correlated circular Gaussian: <|E|^2> = I_s / dx per cell,
    # <E^2> = 0, <E> = 0
    config = make_config(n=64, seed=7777,
                        source_grid=make_grid(0.0, 0.005, 2048))
    draws = np.stack([sample_source(config, i).values for i in range(64)])
    dx = config.source_grid.spacing
    target = 1.0 / dx

    power = (draws.real ** 2 + draws.imag ** 2).mean()
    assert power == pytest.approx(target, rel=1e-2)

    pseudo = np.abs((draws * draws).mean())
    assert pseudo <= 2e-2 * target

    n_samples = draws.size
    sigma_mean = np.sqrt(target / 2 / n_samples)
    assert abs(draws.mean().real) <= 4 * sigma_mean
    assert abs(draws.mean().imag) <= 4 * sigma_mean


def test_neighboring_cells_are_uncorrelated():
    config = make_config(n=64, seed=99,
                        source_grid=make_grid(0.0, 0.005, 1024))
    draws = np.stack([sample_source(config, i).values for i in range(64)])
    a = draws[:, :-1].ravel()
    b = draws[:, 1:].ravel()
    rho = np.abs(np.vdot(a, b)) / np.sqrt(np.vdot(a, a).real * np.vdot(b, b).real)
    assert rho <= 2e-2


# ---------------------------------------------------------------- runs

def test_run_ensemble_is_bitwise_reproducible():
    config = make_config(n=40)
    a = run_ensemble(config)
    b = run_ensemble(config)
    assert np.array_equal(a.correlation_mean, b.correlation_mean)
    assert np.array_equal(a.standard_error, b.standard_error)
    assert a.n_used == 40

    other = run_ensemble(make_config(n=40, seed=1))
    assert not np.array_equal(a.correlation_mean, other.correlation_mean)


def test_run_ensemble_matches_a_per_batch_lattice_sum_loop():
    # the estimator's definition, realization by realization: both fields
    # of every draw, with a fresh _lattice_plan per batch for the
    # reference arm; run_ensemble sums second moments of the draws
    # instead, so the two agree to rounding; n leaves a partial last
    # batch
    config = make_config(n=2 * _BATCH + 5)
    source, det = config.source_grid, config.detector_grid
    scale = kernel_scale(CTX, REF.optical_path,
                         REF.diffraction_length) * source.spacing
    alpha = CTX.k0 / (2.0 * REF.diffraction_length)
    mats = propagation_matrices(config)
    n = config.n_realizations
    corr_sum = np.zeros(det.n_samples, dtype=np.complex128)
    io_sum, ir_sum = (np.zeros(det.n_samples) for _ in range(2))
    for start in range(0, n, _BATCH):
        src = _draw_values(config, start, min(start + _BATCH, n))
        e_o = (src @ mats.source_to_object.T * mats.t_object) \
            @ mats.object_to_detector.T
        e_r = _kernels._lattice_plan(det.coordinates(), det.spacing,
                                     source.coordinates(), source.spacing,
                                     alpha)(src * scale)
        corr_sum += (np.conj(e_r) * e_o).sum(axis=0)
        io_sum += (e_o.real ** 2 + e_o.imag ** 2).sum(axis=0)
        ir_sum += (e_r.real ** 2 + e_r.imag ** 2).sum(axis=0)
    got = run_ensemble(config)
    assert got.n_used == n
    for a, b in ((got.correlation_mean, corr_sum / n),
                 (got.intensity_o, io_sum / n),
                 (got.intensity_r, ir_sum / n),
                 (got.standard_error, np.sqrt(io_sum * ir_sum) / n ** 1.5)):
        assert np.abs(a - b).max() <= 1e-13 * np.abs(b).max()


def test_standard_error_matches_the_sample_variance():
    # the Gaussian moment theorem, Var(E_r* E_o) = I_o I_r, against the
    # model-free estimate from each realization's E_r* E_o; their ratio
    # scatters by about 2 % about 1 at this n (5th-95th percentile
    # 0.980-1.021 over four seeds); a standard error 6 % off fails it
    n = 2048
    config = make_config(n=n, seed=11)
    mats = propagation_matrices(config)
    corr_sum = np.zeros(DET_GRID.n_samples, dtype=np.complex128)
    abs2_sum = np.zeros(DET_GRID.n_samples)
    for start in range(0, n, 256):
        src = _draw_values(config, start, start + 256)
        e_o = (src @ mats.source_to_object.T * mats.t_object) \
            @ mats.object_to_detector.T
        c = np.conj(reference_field(config, src)) * e_o
        corr_sum += c.sum(axis=0)
        abs2_sum += (c.real ** 2 + c.imag ** 2).sum(axis=0)
    mean = corr_sum / n
    variance = (abs2_sum / n - np.abs(mean) ** 2) * n / (n - 1)
    ratio = np.sqrt(variance / n) / run_ensemble(config).standard_error
    lo, hi = np.percentile(ratio, [5, 95])
    assert 0.95 <= lo and hi <= 1.05


@pytest.mark.filterwarnings("ignore::wavecorr.errors.StatisticsWarning")
@settings(deadline=None, max_examples=30, derandomize=True)
@given(center=st.floats(-20e-3, 20e-3), half_width=st.floats(1e-5, 2e-3),
       n_det=st.integers(2, 1024), n_src=st.integers(2, 1024))
@example(center=20e-3, half_width=2e-3, n_det=1024, n_src=1023)
@example(center=-20e-3, half_width=1e-5, n_det=2, n_src=2)
@example(center=0.0, half_width=2e-3, n_det=2, n_src=1024)
@example(center=1e-3, half_width=1e-5, n_det=1000, n_src=3)
def test_reference_intensity_matches_the_fields(center, half_width, n_det,
                                                 n_src):
    # run_ensemble's |E_r|^2 comes from the draws' autocorrelation and a
    # chirp-z over lags; here it is summed from reference_field itself.
    # An off-centre detector clips the index origin to a grid edge
    source = make_grid(0.0, 0.005, n_src)
    det = make_grid(center, half_width, n_det)
    n = 5
    config = EnsembleConfig(imaging_spec(SLIT), source, det, n, n_src)
    e_r = reference_field(config, _draw_values(config, 0, n))
    want = (e_r.real ** 2 + e_r.imag ** 2).sum(axis=0) / n
    got = run_ensemble(config).intensity_r
    assert np.abs(got - want).max() <= 1e-12 * want.max()


def test_run_ensemble_peak_stays_within_its_workspace():
    # a run holds its two matrices and the reference arm's plan (two
    # chirps and the kernel spectrum). Its batches share one _BATCH-row
    # workspace: the normal draws, the source rows, the object-node
    # fields and their conjugates, and the zero-padded FFT buffer; with
    # them the accumulated moments G (and one batch's product), YY (and
    # one batch's) and the summed power spectrum. That is freed before
    # the run's products, whose largest is the plan on G's M rows: G, its
    # FFT buffer and the result. The traced peak is the larger of the
    # two, plus ufunc buffers
    det = make_grid(0.0, 0.25e-3, 1024)
    config = EnsembleConfig(imaging_spec(SLIT), SOURCE_GRID, det,
                            8 * _BATCH + 5, 20260816)
    mats = propagation_matrices(config)
    plan, _, _ = _reference_arm(config)
    n_src, n_det, m = SOURCE_GRID.n_samples, det.n_samples, mats.t_object.size
    size = _kernels._fft_size(2 * n_src - 1)
    fixed = sum(a.nbytes for a in mats) + 16 * (n_src + n_det + plan.size)
    loop = _BATCH * (16 * 2 * n_src + 16 * 2 * m + 16 * size) \
        + 16 * 2 * m * n_src + 16 * 2 * m * m + 16 * size
    products = 16 * m * (n_src + plan.size + n_det)
    held = fixed + max(loop, products)
    del mats, plan
    tracemalloc.start()
    try:
        run_ensemble(config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert held <= peak <= 1.25 * held


def test_opaque_object_gives_exactly_zero_mean():
    res = run_ensemble(make_config(obj=uniform(0.0), n=4))
    assert np.all(res.correlation_mean == 0)
    assert np.all(res.intensity_o == 0)
    assert np.all(res.ghost_image() == 0)


def test_single_realization_has_infinite_standard_error():
    with pytest.warns(StatisticsWarning):
        res = run_ensemble(make_config(n=1))
    assert np.all(np.isinf(res.standard_error))


def test_ghost_image_is_squared_modulus():
    res = run_ensemble(make_config(n=16))
    assert np.allclose(res.ghost_image(), np.abs(res.correlation_mean) ** 2,
                       rtol=1e-12)


def test_reference_intensity_matches_closed_form():
    res = run_ensemble(make_config(obj=uniform(0.8), n=2000))
    i_ref = CTX.k0 * 0.01 / (2 * np.pi * REF.diffraction_length)
    assert res.intensity_r.mean() == pytest.approx(i_ref, rel=5e-2)


def test_object_intensity_matches_the_mutual_intensity_background():
    # a single shot's |E_o|^2 is exponential about its mean I (speckle),
    # so the mean of n shots has standard error I / sqrt(n); measured
    # gaps reach 1.5 of that here
    n = 2000
    config = make_config(n=n, seed=7)
    res = run_ensemble(config)
    i_ref = CTX.k0 * 0.01 / (2 * np.pi * REF.diffraction_length)
    i_obj = background_intensity(config.spec, DET_GRID) - i_ref
    assert np.all(np.abs(res.intensity_o - i_obj) <= 6 * i_obj / np.sqrt(n))


def test_mean_converges_at_the_monte_carlo_rate():
    # smooth object: no edge systematics, so the residual against the
    # closed form is pure Monte-Carlo noise and must sit at the level
    # the run's own standard error reports
    config = make_config(obj=uniform(0.8), n=2000)
    res = run_ensemble(config)
    analytic = correlation_analytic(config.spec, DET_GRID).correlation
    resid = np.linalg.norm(res.correlation_mean - analytic)
    noise = np.linalg.norm(res.standard_error)
    assert 0.4 <= resid / noise <= 1.8
    assert np.abs(res.correlation_mean - analytic).max() <= \
        6 * res.standard_error.max()


def test_mean_phase_matches_analytic():
    res = run_ensemble(make_config(obj=uniform(0.8), n=2000))
    phase = np.degrees(np.angle(res.correlation_mean.sum()))
    assert phase == pytest.approx(-45.0, abs=10.0)


def test_per_realization_speckle_contrast():
    # chaotic light: the single-shot intensity at any detector point is
    # exponential, so its contrast std/mean is 1
    config = make_config(obj=uniform(0.0), n=3000, seed=31337)
    s1 = np.zeros(DET_GRID.n_samples)
    s2 = np.zeros(DET_GRID.n_samples)
    for start in range(0, 3000, 500):
        src = np.stack([sample_source(config, i).values
                        for i in range(start, start + 500)])
        e_r = reference_field(config, src)
        i_r = e_r.real ** 2 + e_r.imag ** 2
        s1 += i_r.sum(axis=0)
        s2 += (i_r * i_r).sum(axis=0)
    mean = s1 / 3000
    var = s2 / 3000 - mean ** 2
    contrast = np.sqrt(var) / mean
    assert contrast.min() >= 0.85
    assert contrast.max() <= 1.15


@settings(deadline=None, max_examples=30, derandomize=True)
@given(center=st.floats(-20e-3, 20e-3), half_width=st.floats(1e-5, 2e-3),
       n_det=st.integers(2, 1024), n_src=st.integers(2, 1024))
@example(center=20e-3, half_width=2e-3, n_det=1024, n_src=1024)
@example(center=-20e-3, half_width=1e-5, n_det=2, n_src=2)
def test_reference_field_matches_the_dense_kernel(center, half_width,
                                                  n_det, n_src):
    # the reference arm against its definition rebuilt here: the dense
    # Fresnel kernel matrix over the source grid, times dx_s, on the rows
    source = make_grid(0.0, 0.005, n_src)
    det = make_grid(center, half_width, n_det)
    config = EnsembleConfig(imaging_spec(SLIT), source, det, 4, 1)
    rng = np.random.default_rng(n_src)
    src = rng.normal(size=(3, n_src)) + 1j * rng.normal(size=(3, n_src))
    kernel = fresnel_kernel(CTX, det.coordinates()[:, None],
                            source.coordinates()[None, :], REF.optical_path,
                            REF.diffraction_length) * source.spacing
    want = src @ kernel.T
    got = reference_field(config, src)
    assert got.shape == (3, n_det)
    assert np.abs(got - want).max() <= 1e-11 * np.abs(want).max()


def test_ensemble_rejects_2d_objects():
    from wavecorr import raster_to_transmittance

    mask = raster_to_transmittance(np.full((2, 2), 255, np.uint8), 100e-6)
    with pytest.raises(InvalidArgumentError):
        run_ensemble(make_config(obj=mask, n=2))


def test_coherent_rejects_2d_objects():
    from wavecorr import raster_to_transmittance

    mask = raster_to_transmittance(np.full((1, 3), 255, np.uint8), 100e-6)
    with pytest.raises(InvalidArgumentError):
        run_coherent(imaging_spec(mask), DET_GRID)


# ------------------------------------------------------------- coherent

def test_coherent_equal_arms_interfere_constructively():
    # coarse grid keeps every hop on the spectral route, where a
    # constant field is an exact eigenmode: equal optical paths then
    # interfere fully constructively, |1 + 1|^2 = 4: all of it leaves
    # by the + port, and each arm alone carries 1; the grid sits at
    # regime ratio 0.67
    spec = imaging_spec(uniform(1.0))
    grid = make_grid(0.0, 2e-3, 64)
    ports = run_coherent(spec, grid)
    assert np.allclose(ports.i_plus, 2.0, rtol=1e-6)
    assert np.allclose(ports.i_minus, 0.0, atol=1e-6)
    assert np.allclose(ports.background, 2.0, rtol=1e-6)
    assert np.allclose(ports.diff, 2.0, rtol=1e-6)


def test_coherent_validation():
    spec = imaging_spec(uniform(1.0))
    grid = make_grid(0.0, 2e-3, 256)
    # NaN compares false both ways, and would light no sample
    for width in (0.0, -50e-6, float("nan")):
        with pytest.raises(InvalidArgumentError):
            run_coherent(spec, grid, pinhole_width=width)


def test_coherent_pinhole_must_cover_a_sample():
    # samples sit at +-7.8 um, half a 15.6 um spacing off the axis: a
    # 15 um pinhole lights none of them, a 16 um one the middle two
    spec = imaging_spec(uniform(1.0))
    grid = make_grid(0.0, 2e-3, 256)
    with pytest.raises(ResolutionError, match="covers no grid sample"):
        run_coherent(spec, grid, pinhole_width=15e-6)
    assert run_coherent(spec, grid, pinhole_width=16e-6).background.max() > 0


def test_coherent_slit_diffraction_never_images():
    # with one coherent wave the slit plane keeps diffracting: the
    # detector shows fringes spread far beyond the slit footprint, not
    # a reconstruction of the mask
    spec = imaging_spec(SLIT)
    grid = make_grid(0.0, 2e-3, 4096)
    diff = run_coherent(spec, grid).diff
    x = grid.coordinates()
    footprint = SLIT.sample(x).real
    outside = np.abs(x) > 0.5e-3
    # interference energy far outside the slit image
    assert np.abs(diff[outside]).max() > 0.1 * np.abs(diff).max()
    ncc = np.corrcoef(diff, footprint)[0, 1]
    assert abs(ncc) < 0.9
