"""Monte-Carlo chaotic-light engine: draw statistics, reproducibility,
convergence to the closed form, and the coherent-illumination contrast.

Every statistical assertion runs under a frozen master seed, so the
tolerances only need to clear the one realization that actually runs.
"""

import numpy as np
import pytest

from wavecorr import (EnsembleConfig, InterferometerSpec, MediumSegment,
                      OpticsContext, correlation_analytic, double_slit, ledger,
                      make_grid, run_coherent, run_ensemble, sample_source,
                      uniform, vacuum)
from wavecorr.ensemble import propagation_matrices
from wavecorr.errors import InvalidArgumentError

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


def test_sample_source_index_validation():
    config = make_config(n=4)
    with pytest.raises(InvalidArgumentError):
        sample_source(config, -1)
    with pytest.raises(InvalidArgumentError):
        sample_source(config, 4)


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


def test_opaque_object_gives_exactly_zero_mean():
    res = run_ensemble(make_config(obj=uniform(0.0), n=4))
    assert np.all(res.correlation_mean == 0)
    assert np.all(res.intensity_o == 0)
    assert np.all(res.ghost_image() == 0)
    assert res.warnings == ()


def test_single_realization_has_infinite_standard_error():
    res = run_ensemble(make_config(n=1))
    assert np.all(np.isinf(res.standard_error))
    assert any("increase n_realizations" in w for w in res.warnings)


def test_ghost_image_is_squared_modulus():
    res = run_ensemble(make_config(n=16))
    assert np.allclose(res.ghost_image(), np.abs(res.correlation_mean) ** 2,
                       rtol=1e-12)


def test_reference_intensity_matches_closed_form():
    res = run_ensemble(make_config(obj=uniform(0.8), n=2000))
    i_ref = CTX.k0 * 0.01 / (2 * np.pi * REF.diffraction_length)
    assert res.intensity_r.mean() == pytest.approx(i_ref, rel=5e-2)


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
    mats = propagation_matrices(config)
    s1 = np.zeros(DET_GRID.n_samples)
    s2 = np.zeros(DET_GRID.n_samples)
    for start in range(0, 3000, 500):
        src = np.stack([sample_source(config, i).values
                        for i in range(start, start + 500)], axis=1)
        e_r = mats.source_to_detector @ src
        i_r = e_r.real ** 2 + e_r.imag ** 2
        s1 += i_r.sum(axis=1)
        s2 += (i_r * i_r).sum(axis=1)
    mean = s1 / 3000
    var = s2 / 3000 - mean ** 2
    contrast = np.sqrt(var) / mean
    assert contrast.min() >= 0.85
    assert contrast.max() <= 1.15


def test_ensemble_rejects_2d_objects():
    from wavecorr import raster_to_transmittance

    mask = raster_to_transmittance(np.full((2, 2), 255, np.uint8), 100e-6)
    with pytest.raises(InvalidArgumentError):
        run_ensemble(make_config(obj=mask, n=2))


# ------------------------------------------------------------- coherent

def test_coherent_equal_arms_interfere_constructively():
    # coarse grid keeps every hop on the spectral route, where a
    # constant field is an exact eigenmode: equal optical paths then
    # interfere fully constructively, |1 + 1|^2 = 4
    spec = imaging_spec(uniform(1.0))
    grid = make_grid(0.0, 2e-3, 64)
    total = run_coherent(spec, grid)
    ref_only = run_coherent(spec, grid, block="object")
    obj_only = run_coherent(spec, grid, block="reference")
    assert np.allclose(total, 4.0, rtol=1e-6)
    assert np.allclose(ref_only, 1.0, rtol=1e-6)
    assert np.allclose(obj_only, 1.0, rtol=1e-6)


def test_coherent_validation():
    spec = imaging_spec(uniform(1.0))
    grid = make_grid(0.0, 2e-3, 256)
    with pytest.raises(InvalidArgumentError):
        run_coherent(spec, grid, source="pinhole")
    with pytest.raises(InvalidArgumentError):
        run_coherent(spec, grid, source="laser")
    with pytest.raises(InvalidArgumentError):
        run_coherent(spec, grid, block="everything")


def test_coherent_slit_diffraction_never_images():
    # with one coherent wave the slit plane keeps diffracting: the
    # detector shows fringes spread far beyond the slit footprint, not
    # a reconstruction of the mask
    spec = imaging_spec(SLIT)
    grid = make_grid(0.0, 2e-3, 4096)
    diff = run_coherent(spec, grid) - run_coherent(spec, grid, block="object") \
        - run_coherent(spec, grid, block="reference")
    x = grid.coordinates()
    footprint = SLIT.sample(x).real
    outside = np.abs(x) > 0.5e-3
    # interference energy far outside the slit image
    assert np.abs(diff[outside]).max() > 0.1 * np.abs(diff).max()
    ncc = np.corrcoef(diff, footprint)[0, 1]
    assert abs(ncc) < 0.9
