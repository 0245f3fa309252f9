"""Monte-Carlo chaotic-light engine: draw statistics, reproducibility,
convergence to the closed form, and the coherent-illumination contrast.

Every statistical assertion runs under frozen master seeds. Where one
seed is too noisy to gate on, a test pools several and states the
range its statistic read over other seeds.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from wavecorr import (EnsembleConfig, InterferometerSpec, MediumSegment,
                      OpticsContext, background_intensity,
                      correlation_analytic, correlation_brute_force,
                      double_slit, fresnel_kernel, ledger, make_grid,
                      run_coherent, run_ensemble, sample_source, uniform,
                      vacuum)
from wavecorr import _kernels, ensemble
from wavecorr.ensemble import _draw_values, propagation_matrices
from wavecorr.interferometer import _object_nodes
from wavecorr.errors import (InvalidArgumentError, ResolutionError,
                             StatisticsWarning)
from wavecorr.propagation import kernel_scale
from wavecorr.scenario import MAX_REALIZATIONS

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


def _reference_field(config, src):
    """E_r on the detector grid for source rows src, (..., n_source):
    the run's reference arm, plan(src * scale)."""
    plan, scale = ensemble._reference_arm(config)
    return plan(src * scale)


# -------------------------------------------------------------- sampling

def test_config_validation():
    # counts past int64 would overflow numpy's integer conversion
    for n in (0, 2 ** 63, 10 ** 30):
        with pytest.raises(InvalidArgumentError, match="n_realizations"):
            make_config(n=n)
    with pytest.raises(InvalidArgumentError):
        make_config(seed=-1)
    with pytest.raises(InvalidArgumentError):
        make_config(seed=2 ** 64)
    with pytest.raises(InvalidArgumentError):
        make_config(source_grid=make_grid(0.0, 0.004, 512))
    # brute force, background_intensity and the closed form all take the
    # source centred on the axis; on this slit at z_o1 = 0.242 m (4000
    # realizations, 1024 points over +-0.5 mm) an ensemble whose grid
    # sits 4 mm off it is 5.9 standard errors from brute force at its
    # worst point, against 2.1 when centred
    for center in (1e-6, -4e-3, 20e-3):
        with pytest.raises(InvalidArgumentError, match="centred"):
            make_config(source_grid=make_grid(center, 0.005, 512))
    make_config(source_grid=make_grid(1e-16, 0.005, 512))


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


def test_draw_values_are_the_per_realization_streams():
    # at a seed near 2**64 and indices up to 2**63 - 1, realization i is
    # what a fresh Philox(key, counter=i << 64) draws, unscaled
    config = make_config(n=2 ** 63 - 1, seed=2 ** 64 - 5,
                         source_grid=make_grid(0.0, 0.005, 33))
    for i in (0, 121, 2 ** 63 - 2):
        got = _draw_values(config, i)
        assert got.shape == (33,)
        bitgen = np.random.Philox(key=2 ** 64 - 5, counter=i << 64)
        a = np.random.Generator(bitgen).standard_normal((2, 33))
        assert np.array_equal(got, a[0] + 1j * a[1])


def test_draw_values_are_the_sample_source_rows(monkeypatch):
    # unscaled: sample_source's rows once scaled
    config = make_config(n=170, seed=2 ** 63 + 11,
                         source_grid=make_grid(0.0, 0.005, 33))
    for i in range(91, 137):
        got = _draw_values(config, i) * ensemble._sigma(config)
        assert np.array_equal(got, sample_source(config, i).values)

    # a run draws no realization at any n: n < p = M = 38, p <= n <=
    # n_source and n > n_source on 256 cells all take the row-space draw
    calls = []
    monkeypatch.setattr(ensemble, "_draw_values",
                        lambda *a: calls.append(a[1:]))
    for n in (5, 200, 300):
        run_ensemble(make_config(n=n, source_grid=make_grid(0.0, 0.005, 256)))
    assert calls == []


def test_sample_source_is_deterministic_and_indexed():
    config = make_config(n=8)
    a = sample_source(config, 2).values
    b = sample_source(config, 2).values
    c = sample_source(config, 3).values
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_draws_are_circular_in_every_cell():
    # the standard error rests on circular draws, <s^2> = 0 in each cell;
    # per cell |mean(s^2)| / mean(|s|^2) reads at most 0.082 over seeds
    # 1-4, and 1 for real draws (imaginary part zeroed)
    config = make_config(n=2048, seed=1,
                         source_grid=make_grid(0.0, 0.005, 64))
    s = np.stack([_draw_values(config, i) for i in range(2048)])
    ratio = np.abs((s * s).mean(axis=0)) / (np.abs(s) ** 2).mean(axis=0)
    assert ratio.max() <= 0.2


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

    # drawn in the row space (n > n_source) the pair (seed, n) fixes the bits
    config = make_config(n=SOURCE_GRID.n_samples + 100)
    a, b = run_ensemble(config), run_ensemble(config)
    assert np.array_equal(a.correlation_mean, b.correlation_mean)
    assert np.array_equal(a.intensity_r, b.intensity_r)
    other = run_ensemble(make_config(n=SOURCE_GRID.n_samples + 101))
    assert not np.array_equal(a.correlation_mean, other.correlation_mean)


def test_standard_error_matches_the_sample_variance():
    # the Gaussian moment theorem, Var(E_r* E_o) = I_o I_r, against the
    # model-free estimate from each realization's E_r* E_o. The standard
    # error is exact and the same for every seed, so the variance is
    # pooled over four seeds of n realizations each. On one seed the
    # ratio's 5th and 95th percentiles over the points read 0.949-0.984
    # and 1.004-1.048 over seeds 1-40 (seed 6 fails); pooled over four,
    # 0.978 at least and 1.025 at most over 20 disjoint sets from seeds
    # 1-80 (std 0.004 and 0.005). A standard error 6 % off fails it
    n = 2048
    variance = np.zeros(DET_GRID.n_samples)
    for seed in range(11, 15):
        config = make_config(n=n, seed=seed,
                             source_grid=make_grid(0.0, 0.005, n))
        mats = propagation_matrices(config)
        sigma = ensemble._sigma(config)
        corr_sum = np.zeros(DET_GRID.n_samples, dtype=np.complex128)
        abs2_sum = np.zeros(DET_GRID.n_samples)
        for start in range(0, n, 256):
            src = np.stack([_draw_values(config, i)
                            for i in range(start, start + 256)]) * sigma
            e_o = (src @ mats.source_to_object.T * mats.t_object) \
                @ mats.object_to_detector.T
            c = np.conj(_reference_field(config, src)) * e_o
            corr_sum += c.sum(axis=0)
            abs2_sum += (c.real ** 2 + c.imag ** 2).sum(axis=0)
        mean = corr_sum / n
        variance += (abs2_sum / n - np.abs(mean) ** 2) * n / (n - 1) / 4
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
    # run_ensemble's |E_r|^2 is its expectation from the kernel's constant
    # modulus, 2 sigma^2 n_src |scale|^2; here it is 2 sigma^2 sum_i
    # |A_r[j, i]|^2 over the columns the reference arm gives the unit rows,
    # on detectors off centre and at the grid edges
    source = make_grid(0.0, 0.005, n_src)
    det = make_grid(center, half_width, n_det)
    config = EnsembleConfig(imaging_spec(SLIT), source, det, 5, n_src)
    a_r = _reference_field(config, np.eye(n_src))
    want = (2 * ensemble._sigma(config) ** 2
            * (a_r.real ** 2 + a_r.imag ** 2).sum(axis=0))
    got = run_ensemble(config).intensity_r
    assert np.abs(got - want).max() <= 1e-12 * want.max()


@pytest.mark.parametrize("n", [5, 389, 1029],
                         ids=["n<p", "p<=n<=n_src", "n>n_src"])
def test_run_ensemble_peak_stays_within_its_workspace(n):
    # A run builds its geometry first. It drops h1 (B^T, written over
    # it) before the QR and B^H after it, so the QR holds H2, the plan,
    # B^H, numpy's copy of it and Q, and H2 Ybar comes after. Then it
    # draws beside what the geometry keeps: H2, Q, R^H, the plan and the
    # two intensities. The row-space draw (p = M here, r = min(n, p))
    # holds Z (r x n_source), Q^H and one product of Z's shape, G after
    # them. Its products come after it, the largest the plan on G's M
    # rows: G, the result and the plan's workspace, the chunk of FFT rows
    # it runs G's rows through. The traced peak is the larger of the
    # two beside what is kept, plus ufunc buffers; here the plan sets
    # it, 2.47 MB at every n, above the geometry's 1.69 MB
    det = make_grid(0.0, 0.25e-3, 1024)
    config = EnsembleConfig(imaging_spec(SLIT), SOURCE_GRID, det, n,
                            20260816)
    n_src, n_det = SOURCE_GRID.n_samples, det.n_samples
    m = propagation_matrices(config).t_object.size
    plan_size = _kernels._fft_size(n_det + n_src - 1)
    kept = (16 * m * (n_det + n_src + m) + 16 * (n_src + n_det + plan_size)
            + 2 * 8 * n_det)
    draw = 16 * (m + 2 * min(n, m)) * n_src
    chunk = _kernels._WORKSPACE // (16 * plan_size)
    products = 16 * (m * n_src + chunk * plan_size + m * n_det)
    held = kept + max(draw, products)
    # numpy keeps each FFT length's twiddles for the life of the process;
    # a first run makes them, so the traced run holds only its own arrays
    run_ensemble(config)
    tracemalloc.start()
    try:
        run_ensemble(config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert held <= peak <= 1.25 * held


def test_run_ensemble_builds_one_lattice_plan(monkeypatch):
    # the reference arm's plan over the source lattice; the object arm's
    # two matrices take no plan, and one chirp table each for the double
    # slit's one group of two runs, so three tables in all; the
    # intensities take neither
    plans, tables = [], []
    plan, table = _kernels._lattice_plan, _kernels._chirp_table
    monkeypatch.setattr(_kernels, "_lattice_plan",
                        lambda *a: plans.append(a[2].shape) or plan(*a))
    monkeypatch.setattr(_kernels, "_chirp_table",
                        lambda *a: tables.append(a) or table(*a))
    run_ensemble(make_config(n=4))
    assert plans == [(SOURCE_GRID.n_samples,)]
    assert len(tables) == 3


def test_object_arm_matrices_match_mpmath_at_the_benchmark_geometry():
    # the chaotic-ensemble benchmark's imaging geometry: 512 source cells
    # over 1 cm and 1024 points over +-0.25 mm onto this slit's 38 nodes,
    # where h1's phases reach 505 rad. Against the kernel with its phase
    # in 64-bit-mantissa arithmetic (the scale and the weights as
    # fresnel_kernel takes them), on every node and every second source
    # cell or detector point, the lattice chirps read 9.1e-14 of |scale|
    # on h1, where fresnel_kernel reads 1.3e-13, and 2.3e-15 on h2
    mpmath = pytest.importorskip("mpmath")
    config = EnsembleConfig(imaging_spec(SLIT), SOURCE_GRID,
                            make_grid(0.0, 0.25e-3, 1024), 2500, 1)
    spec = config.spec
    mats = propagation_matrices(config)
    xo, wo = _object_nodes(spec, 0.25e-3, config.detector_grid)[:2]
    x_src = config.source_grid.coordinates()
    x_det = config.detector_grid.coordinates()
    h1 = (mats.source_to_object.T, x_src, spec.z_o1,
          np.full(xo.size, SOURCE_GRID.spacing), 1.6e-13)
    h2 = (mats.object_to_detector, x_det, spec.z_o2, wo, 4e-15)
    for got, x, z, weights, bound in (h1, h2):
        scale = kernel_scale(CTX, z, z)
        alpha = mpmath.mpf(CTX.k0) / (2 * mpmath.mpf(z))
        rows = np.arange(0, x.size, 2)
        with mpmath.workprec(64):
            want = np.array([[complex(mpmath.expj(
                alpha * (mpmath.mpf(xj) - mpmath.mpf(xi)) ** 2))
                for xi in xo.tolist()] for xj in x[rows].tolist()])
        want = want * scale * weights
        err = np.abs(got[rows] - want).max() / (abs(scale) * weights.max())
        assert err <= bound
        if got is h1[0]:
            dense = fresnel_kernel(CTX, x[rows, None], xo[None, :], z,
                                   z) * weights
            assert err <= (np.abs(dense - want).max()
                           / (abs(scale) * weights.max()))


def test_opaque_object_gives_exactly_zero_mean():
    res = run_ensemble(make_config(obj=uniform(0.0), n=4))
    assert np.all(res.correlation_mean == 0)
    assert np.all(res.intensity_o == 0)


@pytest.mark.filterwarnings("ignore::wavecorr.errors.StatisticsWarning")
def test_single_realization_has_the_exact_standard_error():
    # one realization's E_r* E_o has variance I_o I_r, so the standard
    # error sqrt(I_o I_r / n) holds at n = 1 as at any n
    res = run_ensemble(make_config(n=1))
    assert np.all(np.isfinite(res.standard_error))
    assert np.array_equal(res.standard_error,
                          np.sqrt(res.intensity_o * res.intensity_r))


def test_reference_intensity_matches_closed_form():
    # I_s k0 W / (2 pi |Zbar|) at every point, at any n
    res = run_ensemble(make_config(obj=uniform(0.8), n=2000))
    i_ref = CTX.k0 * 0.01 / (2 * np.pi * REF.diffraction_length)
    assert np.abs(res.intensity_r - i_ref).max() <= 1e-12 * i_ref


def test_object_intensity_matches_the_mutual_intensity_background():
    # the run's exact intensities on its own nodes against
    # background_intensity's integral: their sum read within 6.1e-8 of
    # the background's peak at 0.2852, 0.242 and 0.200 m on 64 and 1024
    # points, the nodes' quadrature error
    for z_o1 in (REF.diffraction_length, 0.242):
        spec = InterferometerSpec(CTX, z_o1, REF.optical_path - z_o1,
                                  REF_SEGMENTS, SLIT, 0.01)
        res = run_ensemble(EnsembleConfig(spec, SOURCE_GRID, DET_GRID,
                                          2000, 7))
        background = background_intensity(spec, DET_GRID)
        assert np.abs(res.intensity_o + res.intensity_r
                      - background).max() <= 1e-6 * background.max()


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
        e_r = _reference_field(config, src)
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
    # the reference arm, plan(src * scale), against its definition
    # rebuilt here: the dense Fresnel kernel matrix over the source grid,
    # times dx_s, on the rows
    source = make_grid(0.0, 0.005, n_src)
    det = make_grid(center, half_width, n_det)
    config = EnsembleConfig(imaging_spec(SLIT), source, det, 4, 1)
    rng = np.random.default_rng(n_src)
    src = rng.normal(size=(3, n_src)) + 1j * rng.normal(size=(3, n_src))
    kernel = fresnel_kernel(CTX, det.coordinates()[:, None],
                            source.coordinates()[None, :], REF.optical_path,
                            REF.diffraction_length) * source.spacing
    want = src @ kernel.T
    got = _reference_field(config, src)
    assert got.shape == (3, n_det)
    assert np.abs(got - want).max() <= 1e-11 * np.abs(want).max()


# ------------------------------------------------- the row-space draw

def _z(samples, target):
    """(mean - target) over the first axis, in standard errors."""
    return ((samples.mean(axis=0) - target)
            / (samples.std(axis=0) / np.sqrt(len(samples))))


def test_bartlett_draw_convention_is_frozen(monkeypatch):
    # a compatibility contract like sample_source's: one fresh
    # Philox(key, counter=1 << 128) draws the factor L (p x r, lower
    # trapezoidal), then Z (r x n_source) row by row, real and imaginary
    # parts interleaved, r = min(n, p) and p = min(M, n_source), with M =
    # 38 object nodes here: p = M on 64 cells and p = n_source on 33. L
    # takes the r gammas of its diagonal, then its entries below it in
    # tril_indices(p, -1, r) order
    seed = 2 ** 64 - 9
    philox, draw = np.random.Philox, ensemble._row_space_draws
    for n, n_src, p in ((5000, 64, 38), (5000, 33, 33), (20, 64, 38)):
        config = make_config(n=n, seed=seed,
                             source_grid=make_grid(0.0, 0.005, n_src))
        bitgens, draws = [], []

        def spy(c, dims):
            # the run adds to Z in place: keep what was drawn
            factor, z = draw(c, dims)
            draws.append((dims, factor.copy(), z.copy()))
            return factor, z

        with monkeypatch.context() as m:
            m.setattr(np.random, "Philox",
                      lambda *a, **k: bitgens.append(philox(*a, **k))
                      or bitgens[-1])
            m.setattr(ensemble, "_row_space_draws", spy)
            run_ensemble(config)
        gen = np.random.Generator(philox(key=seed, counter=1 << 128))
        r = min(n, p)
        want = np.zeros((p, r), dtype=np.complex128)
        want[range(r), range(r)] = np.sqrt(2.0 * gen.standard_gamma(
            n - np.arange(r)))
        want[np.tril_indices(p, -1, r)] = gen.standard_normal(
            r * (2 * p - r - 1)).view(np.complex128)
        want_z = gen.standard_normal((r, 2 * n_src)).view(np.complex128)
        assert len(draws) == 1
        got_p, got, got_z = draws[0]
        assert got_p == p
        assert np.array_equal(got, want)
        assert np.array_equal(got_z, want_z)
        # the run consumed exactly the normals rebuilt here, r (2 p - r -
        # 1) + 2 r n_source after the r gammas: its one generator stands
        # where the rebuilt one does
        assert len(bitgens) == 1
        assert np.array_equal(bitgens[0].random_raw(4),
                              gen.bit_generator.random_raw(4))


@pytest.mark.parametrize("n", [1, 2, 3, 5, 6, 9])
def test_row_space_moment_matches_the_dense_moments(n):
    # K = conj(G) = B S on 6 source cells, over 4000 seeds, against the
    # moments of n unscaled circular draws, S ~ CW(n, 2 I): E[K] = 2 n B
    # and Cov(K_ml, K_m'l') = 4 n sum_i B_mi conj(B_m'i) for l = l', zero
    # across columns; on the diagonal, E|K_ml - 2 n B_ml|^2 = 4 n |B_m|^2.
    # B has M = 3 < 6 rows, M = 8 > 6, and a zero row and two equal ones
    # (p = 3, 6 and 4), so n takes n < p, p <= n <= n_source and n >
    # n_source. Every estimate lies within 3.81 standard errors here
    # (4.23 over seeds 4000-11999), and each mean |K_ml - 2 n B_ml|^2
    # within 8.1 % of its target; Z drawn without its projection off B's
    # row space reads 19.7 standard errors or more at every n, and L's
    # entries below its diagonal drawn real (their variance kept) 28.8
    # or more
    n_src = 6
    source = make_grid(0.0, 0.005, n_src)
    rng = np.random.default_rng(6)

    def normal(*shape):
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    low_rank = normal(4, n_src)
    low_rank[1] = 0
    low_rank[3] = low_rank[2]
    for b in (normal(3, n_src), normal(8, n_src), low_rank):
        # the run's basis of B^H: Q and R^H of its reduced QR
        q, r = np.linalg.qr(np.conj(b.T))
        k = np.conj([ensemble._second_moment(
            make_config(n=n, seed=seed, source_grid=source),
            (q, np.conj(r.T))) for seed in range(4000)])
        if b is low_rank:
            # a zero row of B gives a zero row of K, and two equal rows
            # one row twice, to rounding; the moments take the others
            assert np.all(k[:, 1] == 0)
            assert np.abs(k[:, 3] - k[:, 2]).max() <= 1e-13 * np.abs(k).max()
            b, k = b[[0, 2]], k[:, [0, 2]]
        assert np.abs(_z(k.real, 2 * n * b.real)).max() <= 5
        assert np.abs(_z(k.imag, 2 * n * b.imag)).max() <= 5
        d = (k - 2 * n * b).reshape(len(k), -1)
        cov = 4 * n * np.kron(b @ np.conj(b.T), np.eye(n_src))
        z = []
        for i in range(d.shape[1]):
            # the upper triangle: Cov is Hermitian, and its diagonal real
            prods = d[:, i, None] * np.conj(d[:, i:])
            z += [_z(prods.real, cov[i, i:].real),
                  _z(prods[:, 1:].imag, cov[i, i + 1:].imag)]
        assert np.abs(np.concatenate(z)).max() <= 5


@pytest.mark.parametrize("n", [5, 200, 3 * SOURCE_GRID.n_samples],
                         ids=["n<p", "p<=n<=n_src", "n>n_src"])
def test_row_space_run_applies_its_moment(monkeypatch, n):
    # the mean from the G a run draws, on either side of p = M = 38 and of
    # n_source: rowsum(H2 * conj(A (sigma G)^T)) / n, with the reference
    # arm's dense columns A in place of the run's one plan apply on G's
    # rows. Its intensities and standard error are the expectations on
    # the same nodes, 2 sigma^2 sum_i |A[j, i]|^2 over each dense arm
    config = make_config(n=n)
    source, det = config.source_grid, config.detector_grid
    mats = propagation_matrices(config)
    assert mats.t_object.size == 38
    moments, second_moment = [], ensemble._second_moment
    # the run scales G in place: keep what was drawn
    monkeypatch.setattr(ensemble, "_second_moment",
                        lambda c, b: moments.append(second_moment(c, b))
                        or moments[-1].copy())
    got = run_ensemble(config)
    assert got.n_used == n
    sigma = ensemble._sigma(config)
    a_t = _reference_field(config, np.eye(source.n_samples))
    h2 = mats.object_to_detector
    mean = (h2 * np.conj(moments[0] * sigma @ a_t).T).sum(axis=1) / n
    a_o = h2 @ (mats.t_object[:, None] * mats.source_to_object)
    a_r = fresnel_kernel(CTX, det.coordinates()[:, None],
                         source.coordinates()[None, :], REF.optical_path,
                         REF.diffraction_length) * source.spacing
    i_o, i_r = (2 * sigma ** 2 * (a.real ** 2 + a.imag ** 2).sum(axis=1)
                for a in (a_o, a_r))
    for a, b in ((got.correlation_mean, mean), (got.intensity_o, i_o),
                 (got.intensity_r, i_r),
                 (got.standard_error, np.sqrt(i_o * i_r / n))):
        assert np.abs(a - b).max() <= 1e-13 * np.abs(b).max()


def test_bartlett_runs_match_brute_force_within_six_sigma():
    # at the imaging point and defocused, from n < p = M = 38 through
    # n_source to the scenario cap, where the standard error is 1/23 of
    # n = 2000's and any bias of the draw would show. The worst point
    # reads 1.8-3.1 standard errors here; over seeds 0-19, at most 3.71
    # at n = 5, 2.92 at 200 and 2.91 above n_source
    for z_o1 in (REF.diffraction_length, 0.242):
        spec = InterferometerSpec(CTX, z_o1, REF.optical_path - z_o1,
                                  REF_SEGMENTS, SLIT, 0.01)
        brute = correlation_brute_force(spec, DET_GRID)
        for n in (5, 200, SOURCE_GRID.n_samples + 1, MAX_REALIZATIONS):
            res = run_ensemble(EnsembleConfig(spec, SOURCE_GRID, DET_GRID,
                                              n, 20260816))
            assert np.all(np.abs(res.correlation_mean - brute)
                          <= 6 * res.standard_error)


@pytest.mark.parametrize("n", [20, 200, 2000])
def test_bartlett_standard_error_is_calibrated(n):
    # z = (mean - E[mean]) / standard_error, with E[mean] exact on the
    # run's own nodes: 2 sigma^2 sum_c conj(A_r[j, c]) A_o[j, c] over the
    # dense arms. A calibrated standard error gives E|z|^2 = Var(Re z) +
    # Var(Im z) = 1. Pooled over 40 seeds and the 64 points it read
    # 0.940-1.047 at n = 2000, 0.939-1.060 at n = 200 (p <= n <=
    # n_source) and 0.922-1.033 at n = 20 (n < p = M = 38) over ten
    # disjoint seed sets (seeds 0-399, std 0.034, 0.036 and 0.036); a
    # standard error 10 % too large reads 0.83, 10 % too small 1.23. At
    # n = 5 the mean is far from Gaussian and the pooled value spreads
    # over 0.863-1.118 (std 0.065), too wide for this bound
    config = make_config(n=n)
    mats = propagation_matrices(config)
    a_o = mats.object_to_detector @ (mats.t_object[:, None]
                                     * mats.source_to_object)
    a_r_t = _reference_field(config, np.eye(SOURCE_GRID.n_samples))
    expected = (2 * ensemble._sigma(config) ** 2
                * np.einsum("cj,jc->j", np.conj(a_r_t), a_o))
    z2 = []
    for seed in range(40):
        res = run_ensemble(make_config(n=n, seed=seed))
        z = (res.correlation_mean - expected) / res.standard_error
        z2.append(z.real ** 2 + z.imag ** 2)
    assert 0.85 <= np.mean(z2) <= 1.15


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
