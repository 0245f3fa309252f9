"""Closed-form correlation engine against its independent oracles.

The brute-force double integral over the finite source never touches the
effective-length algebra, so agreement between the two routes is a real
check, not a tautology. Windows for those comparisons are chosen so the
stationary source point x * Zbar / (z_o1 - Zbar) stays inside the source
aperture; outside that region the infinite-source closed form and the
finite source genuinely part ways.
"""

import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from contextlib import nullcontext

import mpmath
import numpy as np
import pytest
import scipy.special
from hypothesis import example, given, settings, strategies as st

import wavecorr
from wavecorr import _kernels
from wavecorr import (InterferometerSpec, MediumSegment, OpticsContext,
                      background_intensity, correlation_analytic,
                      correlation_analytic_2d, correlation_brute_force,
                      detector_ports, double_slit, ledger, make_grid,
                      phase_holes, raster_to_transmittance, uniform, vacuum)
from wavecorr._kernels import chirp_sum
from wavecorr.errors import (EqualPathWarning, InvalidArgumentError,
                             NegativeIntensityError, ResolutionError,
                             ResolutionWarning, UnequalPathError)
from wavecorr.interferometer import _object_nodes, _source_nodes
from wavecorr.propagation import (_CHIRP_OVERSAMPLE, chirp_nodes,
                                  fresnel_kernel, kernel_scale,
                                  midpoint_lattice)
from wavecorr.transmittance import Raster

CTX = OpticsContext(589.3e-9)
REF_SEGMENTS = (MediumSegment(0.155, 1.5163), vacuum(0.183))
REF = ledger(REF_SEGMENTS)
SLIT = double_slit(125e-6, 300e-6)


def make_spec(z_o1, obj, z_o2=None, source_width=0.01, intensity=1.0):
    if z_o2 is None:
        z_o2 = REF.optical_path - z_o1
    return InterferometerSpec(CTX, z_o1, z_o2, REF_SEGMENTS, obj,
                              source_width, intensity)


def imaging_spec(obj, **kw):
    return make_spec(REF.diffraction_length, obj, **kw)


def _ncc(a, b):
    a = np.abs(a) - np.abs(a).mean()
    b = np.abs(b) - np.abs(b).mean()
    return float(np.dot(a, b) / np.sqrt(np.dot(a, a) * np.dot(b, b)))


# ------------------------------------------------------------ validation

def test_spec_validation():
    with pytest.raises(InvalidArgumentError):
        make_spec(-0.1, SLIT, z_o2=REF.optical_path + 0.1)
    with pytest.raises(InvalidArgumentError):
        make_spec(0.2852, SLIT, source_width=0.0)
    with pytest.raises(InvalidArgumentError):
        make_spec(0.2852, SLIT, intensity=-1.0)
    with pytest.raises(UnequalPathError) as exc:
        make_spec(0.2852, SLIT, z_o2=0.2)
    assert "equal-optical-path" in str(exc.value)


@pytest.mark.parametrize("field", ["z_o1", "z_o2", "source_width",
                                   "source_intensity"])
@pytest.mark.parametrize("value", [np.inf, np.nan])
def test_spec_rejects_non_finite_numbers(field, value):
    # an infinite source width would reach the background integral as an
    # OverflowError, an infinite intensity a non-finite correlation
    kw = dict(ctx=CTX, z_o1=REF.diffraction_length,
              z_o2=REF.optical_path - REF.diffraction_length,
              reference_segments=REF_SEGMENTS, object=SLIT,
              source_width=0.01, source_intensity=1.0)
    kw[field] = value
    with pytest.raises(InvalidArgumentError, match=field):
        InterferometerSpec(**kw)


def test_psf_width_property():
    spec = imaging_spec(SLIT)
    assert spec.psf_width == pytest.approx(
        589.3e-9 * REF.diffraction_length / 0.01, rel=1e-12)


def test_dimensionality_dispatch():
    grid = make_grid(0.0, 0.5e-3, 256)
    mask = raster_to_transmittance(np.full((2, 2), 255, np.uint8), 100e-6)
    with pytest.raises(InvalidArgumentError):
        correlation_analytic(imaging_spec(mask), grid)
    with pytest.raises(InvalidArgumentError):
        correlation_analytic_2d(imaging_spec(SLIT), grid)
    with pytest.raises(InvalidArgumentError):
        correlation_brute_force(imaging_spec(mask), grid)
    with pytest.raises(InvalidArgumentError):
        background_intensity(imaging_spec(mask), grid)


def test_resolution_guard_rejects_coarse_grids():
    grid = make_grid(0.0, 2e-3, 32)
    with pytest.raises(ResolutionError):
        correlation_analytic(imaging_spec(SLIT), grid)


def test_features_below_source_resolution_warn():
    # 30 um features vs 16.8 um source-limited resolution: under 3x
    grid = make_grid(0.0, 0.2e-3, 64)
    with pytest.warns(ResolutionWarning, match="source-limited resolution"):
        correlation_analytic(imaging_spec(double_slit(30e-6, 80e-6)), grid)
    # 125 um features are clear of it; the error filter fails any notice
    correlation_analytic(imaging_spec(SLIT), make_grid(0.0, 0.5e-3, 256))


# --------------------------------------------------------------- imaging

def test_imaging_point_reproduces_the_object_exactly():
    grid = make_grid(0.0, 0.5e-3, 256)
    spec = imaging_spec(SLIT)
    assert spec.z_eff == 0.0
    res = correlation_analytic(spec, grid)
    want = res.prefactor * SLIT.sample(grid.coordinates())
    assert np.allclose(res.correlation, want, rtol=1e-13, atol=0)
    assert _ncc(res.correlation, SLIT.sample(grid.coordinates())) == \
        pytest.approx(1.0, abs=1e-12)


def test_imaging_prefactor_value_and_phase():
    spec = imaging_spec(SLIT)
    res = correlation_analytic(spec, make_grid(0.0, 0.5e-3, 256))
    want = 1.0 * np.sqrt(CTX.k0 / (2j * np.pi * spec.z_o2))
    assert res.prefactor == pytest.approx(want, rel=1e-12)
    assert np.degrees(np.angle(res.prefactor)) == pytest.approx(-45.0, abs=1e-9)


def test_prefactor_scales_with_source_intensity():
    res1 = correlation_analytic(imaging_spec(SLIT), make_grid(0.0, 0.5e-3, 64))
    res3 = correlation_analytic(imaging_spec(SLIT, intensity=3.0),
                                make_grid(0.0, 0.5e-3, 64))
    assert np.allclose(res3.correlation, 3.0 * res1.correlation, rtol=1e-12)


def test_small_path_mismatch_becomes_a_global_phase():
    z_o1 = REF.diffraction_length
    z_o2 = REF.optical_path - z_o1 + 2e-4
    with pytest.warns(EqualPathWarning):
        spec = InterferometerSpec(CTX, z_o1, z_o2, REF_SEGMENTS, SLIT, 0.01)
    grid = make_grid(0.0, 0.5e-3, 256)
    res = correlation_analytic(spec, grid)
    z_arg = z_o1 + z_o2 - REF.optical_path
    want = res.prefactor * np.exp(1j * CTX.k0 * z_arg) * SLIT.sample(
        grid.coordinates())
    assert np.allclose(res.correlation, want, rtol=1e-12, atol=0)


def test_path_mismatch_warns_once_where_the_spec_is_built():
    z_o2 = REF.optical_path - REF.diffraction_length + 5e-4
    with warnings.catch_warnings(record=True) as notices:
        warnings.simplefilter("always")
        spec = imaging_spec(SLIT, z_o2=z_o2)
        correlation_analytic(spec, make_grid(0.0, 0.5e-3, 64))
    assert [n.category for n in notices] == [EqualPathWarning]
    assert notices[0].filename == __file__


# three constructions with a user warning between them; the default
# filters show each warning once per line that raises it
_REPEATED_NOTICE = """
import warnings
from wavecorr import InterferometerSpec, OpticsContext, double_slit, vacuum
segments = (vacuum(0.4),)
for _ in range(3):
    InterferometerSpec(OpticsContext(589.3e-9), 0.2, 0.2 + 5e-4, segments,
                       double_slit(125e-6, 300e-6), 0.01)
    warnings.warn("a user notice")
"""


def test_repeated_construction_leaves_the_warning_filters_alone(tmp_path):
    script = tmp_path / "repeat.py"
    script.write_text(_REPEATED_NOTICE)
    root = os.path.dirname(os.path.dirname(wavecorr.__file__))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONWARNINGS"}
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [root, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(script)], capture_output=True,
                          text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stderr.splitlines()
    assert sum(": EqualPathWarning: " in line for line in lines) == 1
    assert sum(": UserWarning: " in line for line in lines) == 1


def test_uniform_object_gives_flat_modulus_at_any_defocus():
    grid = make_grid(0.0, 1e-3, 128)
    res = correlation_analytic(make_spec(0.31, uniform(0.7)), grid)
    mags = np.abs(res.correlation)
    assert mags.std() <= 1e-12 * mags.mean()


# ---------------------------------------------------- defocus and oracle

def test_negative_z_eff_conjugates_the_forward_integral():
    # z_o1 inside the imaging distance: the net chirp is phase-reversed,
    # so the pattern is the complex conjugate of the forward quadrature
    # at +|Z_eff| over the same nodes (real object)
    grid = make_grid(0.0, 0.5e-3, 256)
    spec = make_spec(0.242, SLIT)
    assert spec.z_eff < 0
    res = correlation_analytic(spec, grid)
    x = grid.coordinates()
    support = SLIT.support()
    u_max = max(abs(x[0] - support[-1][1]), abs(x[-1] - support[0][0]))
    nodes, weights, counts = chirp_nodes(support, SLIT.min_feature(),
                                         CTX.wavelength, spec.z_eff, u_max)
    ze = abs(spec.z_eff)
    forward = kernel_scale(CTX, 0.0, ze) * chirp_sum(
        x, nodes, SLIT.sample(nodes) * weights, CTX.k0 / (2 * ze), counts,
        weights[np.cumsum(counts) - counts])
    normalized = res.correlation / res.prefactor
    scale = np.abs(forward).max()
    assert np.abs(normalized - np.conj(forward)).max() <= 1e-12 * scale


def _spec_at_z_eff(z_eff, obj=SLIT):
    # the object position on the equal-path line with this Z_eff, on the
    # root nearer Zbar: Z_eff = delta (L - delta) / L, delta = z_o1 - Zbar
    length = REF.optical_path - REF.diffraction_length
    delta = (length - math.sqrt(length * length - 4 * length * z_eff)) / 2
    return make_spec(REF.diffraction_length + delta, obj)


def test_near_focus_matches_the_explicit_midpoint_sum():
    # the defocus_sweep geometry next to the imaging point: 4096 detector
    # points over +-2 mm and about 9.4k quadrature nodes at |Z_eff| = 0.8 mm
    grid = make_grid(0.0, 2e-3, 4096)
    x = grid.coordinates()
    support = SLIT.support()
    u_max = max(abs(x[0] - support[-1][1]), abs(x[-1] - support[0][0]))
    idx = np.arange(0, 4096, 64)
    patterns = {}
    for z in (0.8e-3, -0.8e-3):
        spec = _spec_at_z_eff(z)
        assert spec.z_eff == pytest.approx(z, rel=1e-9)
        res = correlation_analytic(spec, grid)
        nodes, weights, counts = chirp_nodes(
            support, SLIT.min_feature(), CTX.wavelength, spec.z_eff, u_max)
        assert 9000 < nodes.size < 10000
        coeffs = SLIT.sample(nodes) * weights
        alpha = CTX.k0 / (2 * spec.z_eff)
        want = kernel_scale(CTX, spec.path_mismatch, spec.z_eff) * np.array(
            [np.sum(coeffs * np.exp(1j * alpha * (xi - nodes) ** 2))
             for xi in x[idx]])
        pattern = res.correlation / res.prefactor
        scale = np.abs(pattern).max()
        assert np.abs(pattern[idx] - want).max() <= 1e-10 * scale
        patterns[z] = (spec, nodes, weights, coeffs, counts, pattern)

    # the phase-reversed side is the conjugate of the forward quadrature
    # at +|Z_eff| over the same nodes
    spec, nodes, weights, coeffs, counts, pattern = patterns[-0.8e-3]
    ze = abs(spec.z_eff)
    forward = kernel_scale(CTX, -spec.path_mismatch, ze) * chirp_sum(
        x, nodes, coeffs, CTX.k0 / (2 * ze), counts,
        weights[np.cumsum(counts) - counts])
    scale = np.abs(forward).max()
    assert np.abs(pattern - np.conj(forward)).max() <= 1e-12 * scale


def test_one_chirp_plan_per_correlation(monkeypatch):
    # the two runs of a double slit or a pair of holes are mirror images,
    # of one count and one cell width, so chirp_sum sums them through one
    # plan: one chirp table per call
    calls = []
    table = _kernels._chirp_table
    monkeypatch.setattr(_kernels, "_chirp_table",
                        lambda *a: calls.append(a) or table(*a))
    grid = make_grid(0.0, 2e-3, 4096)
    # fig4a, fig4e, and holes on the phase-reversed side
    for z_o1, obj in ((0.310, SLIT), (0.106, SLIT),
                      (0.242, phase_holes(60e-6, 200e-6, 2.0))):
        calls.clear()
        correlation_analytic(make_spec(z_o1, obj), grid)
        assert len(calls) == 1
    # at fig4e's geometry the steps (x[-1] - x[0]) / (m - 1) of the two
    # 9-node runs are 1 ulp apart; the cell widths are bitwise equal
    x = grid.coordinates()
    support = SLIT.support()
    u_max = max(abs(x[0] - support[-1][1]), abs(x[-1] - support[0][0]))
    nodes, weights, counts = chirp_nodes(
        support, SLIT.min_feature(), CTX.wavelength,
        make_spec(0.106, SLIT).z_eff, u_max)
    assert counts == [9, 9] and weights[0] == weights[-1]
    spans = nodes[[8, 17]] - nodes[[0, 9]]
    assert spans[0] / 8 != spans[1] / 8


@pytest.mark.parametrize("z_eff", [3e-3, -3e-3, 0.0])
def test_pattern_is_scaled_in_place(monkeypatch, z_eff):
    # the kernel scale and the prefactor multiply chirp_sum's result in
    # place, scalar first: the bits of pref * (scale * sum), and once the
    # sum has returned the traced memory rises by 384 B of small objects,
    # where a new 4096-point array would take 65,536 B
    grid = make_grid(0.0, 2e-3, 4096)
    spec = _spec_at_z_eff(z_eff) if z_eff else imaging_spec(SLIT)
    sums, held = [], []
    chirp = _kernels.chirp_sum

    def traced_sum(*args):
        out = chirp(*args)
        sums.append(out.copy())
        tracemalloc.reset_peak()
        held.append(tracemalloc.get_traced_memory()[0])
        return out

    monkeypatch.setattr(_kernels, "chirp_sum", traced_sum)
    tracemalloc.start()
    try:
        res = correlation_analytic(spec, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    if z_eff:
        assert len(sums) == 1
        assert peak - held[0] <= 1024
        pattern = kernel_scale(CTX, spec.path_mismatch, spec.z_eff) * sums[0]
    else:
        pattern = (np.exp(1j * CTX.k0 * spec.path_mismatch)
                   * SLIT.sample(grid.coordinates()))
    assert res.correlation.tobytes() == (res.prefactor * pattern).tobytes()


BRUTE_CONFIGS = [
    # (z_o1, window half width): stationary points stay inside the source
    (0.242, 0.5e-3, 256),
    (0.200, 1.0e-3, 512),
]


@pytest.mark.parametrize("z_o1,half,n", BRUTE_CONFIGS)
def test_closed_form_matches_finite_source_integral(z_o1, half, n):
    grid = make_grid(0.0, half, n)
    spec = make_spec(z_o1, SLIT)
    analytic = correlation_analytic(spec, grid).correlation
    brute = correlation_brute_force(spec, grid)
    rel = np.linalg.norm(brute - analytic) / np.linalg.norm(analytic)
    assert rel <= 2e-2


@settings(deadline=None, max_examples=30, derandomize=True)
@given(st.one_of(st.floats(min_value=0.20, max_value=0.25),
                 st.floats(min_value=0.32, max_value=0.35)),
       st.floats(min_value=0.25, max_value=0.5))
@example(0.25, 0.25)
@example(0.25, 0.5)
@example(0.32, 0.25)
@example(0.32, 0.5)
def test_closed_form_matches_finite_source_integral_over_z(z_o1, fill):
    # negative Z_eff below 0.25 m, positive above 0.32 m; the window keeps
    # every stationary source point inside the 10 mm aperture. Nearer
    # Zbar the finite source's PSF smooths the pattern, so the engines
    # part by design there and the range stops short of it.
    zbar = REF.diffraction_length
    half = fill * (0.01 / 2) * abs(z_o1 - zbar) / zbar
    grid = make_grid(0.0, half, 256)
    spec = make_spec(z_o1, SLIT)
    analytic = correlation_analytic(spec, grid).correlation
    brute = correlation_brute_force(spec, grid)
    rel = np.linalg.norm(brute - analytic) / np.linalg.norm(analytic)
    assert rel <= 2e-2


def test_brute_force_matches_object_at_imaging():
    # the finite 10 mm source resolves ~17 um, so its sinc PSF rings at
    # the slit edges and the raw grids disagree there by design; at the
    # 62.5 um camera-pixel scale the two engines converge
    grid = make_grid(0.0, 0.5e-3, 256)
    spec = imaging_spec(SLIT)
    analytic = correlation_analytic(spec, grid).correlation
    brute = correlation_brute_force(spec, grid)
    resid = np.abs(brute - analytic)
    scale = np.linalg.norm(analytic)
    x = np.abs(grid.coordinates())
    near_edge = (np.abs(x - 87.5e-6) < 20e-6) | (np.abs(x - 212.5e-6) < 20e-6)
    assert np.linalg.norm(resid[near_edge]) > 2 * np.linalg.norm(resid[~near_edge])
    pixel = lambda c: c.reshape(-1, 16).mean(axis=1)
    binned = np.linalg.norm(pixel(brute) - pixel(analytic))
    assert binned / np.linalg.norm(pixel(analytic)) <= 5e-2
    assert np.linalg.norm(resid) / scale <= 0.25


def test_rounded_ledger_literals_nearly_image():
    # quoting the arm lengths to 3 figures moves the object 0.22 mm off
    # the exact self-imaging plane; the reconstruction stays close to
    # the object but is measurably blurred (no threshold enforced on
    # the exact value, which tracks the rounding convention)
    with pytest.warns(EqualPathWarning):
        spec = InterferometerSpec(CTX, 0.285, 0.133, REF_SEGMENTS, SLIT, 0.01)
    grid = make_grid(0.0, 0.5e-3, 2048)
    res = correlation_analytic(spec, grid)
    assert spec.z_eff != 0.0
    ncc = _ncc(res.correlation, SLIT.sample(grid.coordinates()))
    assert 0.9 < ncc < 1.0


# ------------------------------------------------------------ background

def test_reference_background_closed_form():
    grid = make_grid(0.0, 0.5e-3, 64)
    spec = imaging_spec(uniform(0.0))
    bg = background_intensity(spec, grid)
    want = CTX.k0 * 0.01 / (2 * np.pi * REF.diffraction_length)
    assert np.allclose(bg, want, rtol=1e-12)
    assert bg[0] == pytest.approx(59.6e3, rel=1e-2)


def test_reference_background_scales_with_source_width():
    grid = make_grid(0.0, 0.5e-3, 64)
    one = background_intensity(imaging_spec(uniform(0.0)), grid)
    two = background_intensity(
        imaging_spec(uniform(0.0), source_width=0.02), grid)
    assert np.allclose(two, 2 * one, rtol=1e-12)


def test_uniform_object_background_closed_form():
    grid = make_grid(0.0, 0.5e-3, 64)
    spec = imaging_spec(uniform(0.6))
    bg = background_intensity(spec, grid)
    i_ref = CTX.k0 * 0.01 / (2 * np.pi * REF.diffraction_length)
    i_obj = 0.36 * CTX.k0 * 0.01 / (2 * np.pi * REF.optical_path)
    assert np.allclose(bg, i_ref + i_obj, rtol=1e-12)


def test_background_is_flat_across_the_central_window():
    grid = make_grid(0.0, 0.5e-3, 256)
    bg = background_intensity(imaging_spec(SLIT), grid)
    x = grid.coordinates()
    inner = bg[np.abs(x) <= 0.25e-3]
    assert inner.max() / inner.min() <= 1.05
    i_ref = CTX.k0 * 0.01 / (2 * np.pi * REF.diffraction_length)
    assert bg.min() >= i_ref


def _object_background_on_dense_source(spec, grid):
    """<|E_o|^2> as the midpoint sum over the source of |Int h2 T h1|^2,
    on brute force's source lattice made 4x finer."""
    x = grid.coordinates()
    x_max = max(abs(x[0]), abs(x[-1]))
    xo, wo, _, obj_extent = _object_nodes(spec, x_max, grid)
    _, dx0 = _source_nodes(spec, x_max, obj_extent)
    w2 = spec.source_width / 2
    x0, w0, _ = midpoint_lattice([(-w2, w2)], dx0 / 4, 16)
    a = fresnel_kernel(CTX, x[:, None], xo[None, :], spec.z_o2, spec.z_o2)
    a *= spec.object.sample(xo) * wo
    out = np.zeros(x.size)
    for s in range(0, x0.size, 1024):
        h1 = fresnel_kernel(CTX, xo[:, None], x0[None, s:s + 1024],
                            spec.z_o1, spec.z_o1)
        ho = a @ h1
        out += np.sum(ho.real ** 2 + ho.imag ** 2, axis=1)
    return spec.source_intensity * w0[0] * out


@pytest.mark.parametrize("z_o1,obj,half,n,bound", [
    # fig2_phase and fig4e: measured gaps 8.1e-9 and 3.2e-10 of the
    # object term's peak. On brute force's own source lattice they are
    # 1.3e-7 and 5.1e-9: the gap is that lattice's quadrature error and
    # falls 16x per 4x nodes
    (REF.diffraction_length, phase_holes(200e-6, 500e-6, np.pi), 1e-3,
     2048, 1.6e-8),
    (0.106, SLIT, 2e-3, 4096, 6.4e-10),
])
def test_object_background_matches_dense_source_quadrature(z_o1, obj, half,
                                                           n, bound):
    spec = make_spec(z_o1, obj)
    grid = make_grid(0.0, half, n)
    i_ref = CTX.k0 * 0.01 / (2 * np.pi * REF.diffraction_length)
    exact = background_intensity(spec, grid) - i_ref
    quad = _object_background_on_dense_source(spec, grid)
    assert np.abs(quad - exact).max() <= bound * exact.max()


def test_fig2_phase_background_holds_no_source_lattice():
    # N x M and M x M arrays only: 7.5 MiB measured, where the sum over
    # the N x S source lattice peaked at 169 MiB
    spec = imaging_spec(phase_holes(200e-6, 500e-6, np.pi))
    grid = make_grid(0.0, 1e-3, 2048)
    tracemalloc.start()
    try:
        background_intensity(spec, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16 * 2 ** 20


def test_object_background_tends_to_the_wide_source_limit():
    # J(xi, xi') -> delta(xi - xi') as W grows, so at the imaging point
    # <|E_o|^2> -> I_s k0 Int|T|^2 / (2 pi z_o2) = I_s k0 * 2b / (2 pi z_o2)
    grid = make_grid(0.0, 0.5e-3, 256)
    deviation = []
    for width in (0.01, 0.03, 0.1):
        spec = imaging_spec(SLIT, source_width=width)
        i_ref = CTX.k0 * width / (2 * np.pi * REF.diffraction_length)
        limit = CTX.k0 * 250e-6 / (2 * np.pi * spec.z_o2)
        i_obj = background_intensity(spec, grid) - i_ref
        deviation.append(np.abs(i_obj / limit - 1).max())
    # measured 2.7e-2, 7.7e-3, 2.2e-3: about 1/W
    assert deviation[0] > deviation[1] > deviation[2]
    assert deviation[2] <= 3e-3


# ----------------------------------------------------------------- ports

def test_zero_correlation_splits_background_evenly():
    grid = make_grid(0.0, 0.5e-3, 64)
    spec = imaging_spec(uniform(0.0))
    res = correlation_analytic(spec, grid)
    bg = background_intensity(spec, grid)
    ports = detector_ports(res, bg)
    assert np.array_equal(ports.i_plus, ports.i_minus)
    assert np.allclose(ports.i_plus, bg / 2, rtol=1e-15)
    assert np.all(ports.diff == 0)


def test_phase_holes_flip_the_port_difference_sign():
    holes = phase_holes(200e-6, 500e-6, np.pi)
    grid = make_grid(0.0, 0.4e-3, 256)
    spec = imaging_spec(holes)
    res = correlation_analytic(spec, grid)
    bg = background_intensity(spec, grid)
    ports = detector_ports(res, bg)
    x = grid.coordinates()
    first = np.abs(x + 250e-6) < 80e-6
    second = np.abs(x - 250e-6) < 80e-6
    assert np.all(ports.diff[first] > 0)
    assert np.all(ports.diff[second] < 0)
    # both holes are equally bright in intensity: the sign lives purely
    # in the interference term
    assert np.allclose(np.abs(res.correlation[first]).max(),
                       np.abs(res.correlation[second]).max(), rtol=1e-10)


def test_port_identities():
    grid = make_grid(0.0, 0.5e-3, 256)
    spec = imaging_spec(SLIT)
    res = correlation_analytic(spec, grid)
    bg = background_intensity(spec, grid)
    ports = detector_ports(res, bg)
    assert np.array_equal(ports.diff, 2 * res.correlation.real)
    assert np.allclose(ports.port_sum(), bg, rtol=1e-12)
    assert np.all(ports.i_plus >= 0) and np.all(ports.i_minus >= 0)


def test_insufficient_background_is_rejected():
    grid = make_grid(0.0, 0.5e-3, 256)
    res = correlation_analytic(imaging_spec(SLIT), grid)
    with pytest.raises(NegativeIntensityError):
        detector_ports(res, np.full(256, 1.0))


# ------------------------------------------------------------------- 2D

def _hollow_mask():
    px = np.zeros((6, 6), dtype=np.uint8)
    px[1:5, 1:5] = 255
    px[2:4, 2:4] = 0
    return raster_to_transmittance(px, 100e-6)


def test_2d_imaging_reproduces_the_mask():
    grid = make_grid(0.0, 0.4e-3, 64)
    spec = imaging_spec(_hollow_mask())
    res = correlation_analytic_2d(spec, grid)
    x = grid.coordinates()
    want = res.prefactor * spec.object.sample2d(x, x)
    assert np.allclose(res.correlation, want, rtol=1e-13, atol=0)
    pref = 1.0 * CTX.k0 / (2j * np.pi * spec.z_o2)
    assert res.prefactor == pytest.approx(pref, rel=1e-12)


def _edge_integrals(edges, x, z_eff):
    """N x (len(edges) - 1) table of the unit kernel
    sqrt(1/(i lam Z)) exp(i pi (x - x')^2 / (lam Z)) integrated over x'
    between neighbouring edges, each a difference of scipy's Fresnel
    integrals (Z < 0 conjugates them)."""
    scale = np.sqrt(2.0 / (CTX.wavelength * abs(z_eff)))
    s, c = scipy.special.fresnel((edges[None, :] - x[:, None]) * scale)
    steps = np.diff(c + 1j * s, axis=1)
    if z_eff < 0:
        steps = np.conj(steps)
    return kernel_scale(CTX, 0.0, z_eff) * steps / scale


def _exact_2d_pattern(spec, grid):
    """The pattern as a sum of pixel rectangles, each the product of two
    exact 1D edge integrals; the pixel geometry is rebuilt from the pitch."""
    obj = spec.object
    rows, cols = obj.pixels.shape
    x = grid.coordinates()
    a_x = _edge_integrals((np.arange(cols + 1) - cols / 2) * obj.pitch, x,
                          spec.z_eff)
    # ascending y edges give the bottom row first; row 0 is the top
    a_y = _edge_integrals((np.arange(rows + 1) - rows / 2) * obj.pitch, x,
                          spec.z_eff)[:, ::-1]
    return np.exp(1j * CTX.k0 * spec.path_mismatch) * (a_y @ obj.pixels
                                                       @ a_x.T)


def _exact_row_profile(row, pitch, grid, z_eff):
    """The 1D pattern of one pixel row (values row[c]), up to a constant."""
    edges = (np.arange(row.size + 1) - row.size / 2) * pitch
    return _edge_integrals(edges, grid.coordinates(), z_eff) @ row


def test_2d_defocus_factorizes_for_separable_masks():
    row = np.array([255, 0, 0, 255], dtype=np.uint8)
    mask = raster_to_transmittance(np.tile(row, (4, 1)), 100e-6)
    grid = make_grid(0.0, 0.6e-3, 64)
    spec2 = make_spec(0.31, mask)
    res2 = correlation_analytic_2d(spec2, grid).correlation

    # rank-1 structure in (y, x)
    r0 = int(np.argmax(np.abs(res2).sum(axis=1)))
    c0 = int(np.argmax(np.abs(res2).sum(axis=0)))
    rank1 = np.outer(res2[:, c0], res2[r0, :]) / res2[r0, c0]
    assert np.abs(res2 - rank1).max() <= 1e-10 * np.abs(res2).max()

    # the x profile is the exact 1D edge sum of the shared row
    line = _exact_row_profile(row / 255.0, 100e-6, grid, spec2.z_eff)
    i0 = int(np.argmax(np.abs(line)))
    const = res2[r0, i0] / line[i0]
    assert np.abs(res2[r0] - const * line).max() <= \
        1e-10 * np.abs(res2[r0]).max()


def _dense_2d_pattern(spec, grid, refine):
    """The pattern as dense kernel matrices times the raster sampled on a
    midpoint lattice over the pixel footprint, at `refine` times the
    node density of the engine's former route (a quarter pitch, or
    _CHIRP_OVERSAMPLE nodes per local chirp period). Its cells straddle
    pixel edges, so it converges to the exact pattern as the lattice is
    refined."""
    obj = spec.object
    x = grid.coordinates()
    w, h = obj.extent
    nodes = []
    for half in (w / 2, h / 2):
        u_max = max(abs(x[0] - half), abs(x[-1] + half))
        step = min(obj.pitch / 4, CTX.wavelength * abs(spec.z_eff)
                   / (_CHIRP_OVERSAMPLE * u_max)) / refine
        nodes.append(midpoint_lattice([(-half, half)], step, 8)[:2])
    (nx, wx), (ny, wy) = nodes
    kx = fresnel_kernel(CTX, x[:, None], nx[None, :], spec.path_mismatch,
                        spec.z_eff) * wx
    ky = fresnel_kernel(CTX, x[:, None], ny[None, :], 0.0, spec.z_eff) * wy
    # ky @ sample2d(nx, ny) @ kx.T, with the image sampled in blocks of
    # rows of at most 2**20 points
    ky_t = np.zeros((x.size, nx.size), dtype=complex)
    step = max(1, 2 ** 20 // nx.size)
    for s in range(0, ny.size, step):
        ky_t += ky[:, s:s + step] @ obj.sample2d(nx, ny[s:s + step])
    return ky_t @ kx.T


def test_2d_midpoint_quadrature_converges_to_the_engine():
    pixels = np.random.default_rng(4).random((5, 7))
    spec = _spec_at_z_eff(8e-3, Raster(pixels, 60e-6))
    grid = make_grid(13e-6, 0.3e-3, 48)
    got = correlation_analytic_2d(spec, grid)
    pattern = got.correlation / got.prefactor
    gaps = [np.abs(_dense_2d_pattern(spec, grid, refine) - pattern).max()
            for refine in (1, 4, 16)]
    gaps = np.array(gaps) / np.abs(pattern).max()
    # 1.4e-2, 4.4e-3 and 8.7e-4: the cells straddling pixel edges make
    # the rule first order in the node spacing
    assert gaps[0] > 1e-3
    assert gaps[1] < gaps[0] / 2 and gaps[2] < gaps[1] / 2


def _pattern_scale(spec):
    """A bound on the pattern's modulus at every detector point, whatever
    the window: sum |pixels| times the peak of one unit pixel's pattern.

    A pixel integral is (F(t_hi) - F(t_lo)) / sqrt(2) in modulus, so a
    pixel centred on the detector point gives sqrt(2) |F(s pitch / 2)|
    per axis, s = sqrt(2 / (lam |Z_eff|)); that is pitch / sqrt(lam
    |Z_eff|), the kernel scale times the pitch, for pixels well inside a
    Fresnel zone. The rounding of every entry of the engine's sums is
    relative to this scale, not to the window's own peak, which next to a
    narrow mask can be its far tail."""
    obj = spec.object
    s, c = scipy.special.fresnel(
        obj.pitch / 2 * np.sqrt(2.0 / (CTX.wavelength * abs(spec.z_eff))))
    return np.abs(obj.pixels).sum() * 2.0 * (c * c + s * s)


@st.composite
def _defocused_rasters(draw):
    rows, cols = draw(st.integers(1, 12)), draw(st.integers(1, 26))
    pixels = np.array(draw(st.lists(
        st.floats(0.0, 1.0), min_size=rows * cols, max_size=rows * cols)))
    pitch = draw(st.floats(40e-6, 120e-6))
    # 10 um <= |Z_eff| <= 30 mm, log-uniform, on either side of the
    # imaging point; Z_eff <= 33 mm on this reference arm
    z_eff = 10.0 ** draw(st.floats(-5.0, math.log10(30e-3))) * draw(
        st.sampled_from([1, -1]))
    n = draw(st.integers(16, 128))
    # a quarter pitch or finer (the resolution guard), within +-0.4 mm
    half = min(n * pitch / 8, 0.4e-3) * draw(st.floats(0.5, 1.0))
    center = draw(st.floats(20e-6, 200e-6)) * draw(st.sampled_from([1, -1]))
    # an optical-path mismatch inside the coherence tolerance: a global
    # phase of up to 5e3 rad
    mismatch = draw(st.floats(-0.5e-3, 0.5e-3))
    raster = Raster(pixels.reshape(rows, cols), pitch)
    spec = _spec_at_z_eff(z_eff, raster)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", EqualPathWarning)
        spec = make_spec(spec.z_o1, raster, z_o2=spec.z_o2 + mismatch)
    return spec, make_grid(center, half, n)


@settings(deadline=None, max_examples=25, derandomize=True)
@given(_defocused_rasters())
def test_2d_defocus_matches_the_exact_edge_formula(case):
    spec, grid = case
    smoothed = spec.object.min_feature() < 3 * spec.psf_width
    with pytest.warns(ResolutionWarning) if smoothed else nullcontext():
        res = correlation_analytic_2d(spec, grid)
    want = _exact_2d_pattern(spec, grid)
    got = res.correlation / res.prefactor
    # 2.1e-15 measured here, 3.7e-15 over 1000 free draws
    assert np.abs(got - want).max() <= 1e-13 * _pattern_scale(spec)


def _per_axis_pattern(spec, grid):
    """The pattern by a table per axis, N x (cols + 1) and N x (rows + 1)
    fresnel_steps on the edges -w/2 + pitch c and h/2 - pitch r, with
    the row-order sign among the scalars."""
    obj = spec.object
    rows, cols = obj.pixels.shape
    w, h = obj.extent
    x = grid.coordinates()
    z = spec.z_eff
    scale = np.sqrt(2.0 / (CTX.wavelength * abs(z)))

    def table(edges):
        steps = _kernels.fresnel_steps((edges[:, None] - x) * scale).T
        return steps if z > 0 else np.conj(steps)

    a_x = table(-w / 2 + obj.pitch * np.arange(cols + 1))
    a_y = table(h / 2 - obj.pitch * np.arange(rows + 1))
    return (-0.5 * CTX.wavelength * abs(z)
            * kernel_scale(CTX, spec.path_mismatch, z)
            * kernel_scale(CTX, 0.0, z)) * (a_y @ obj.pixels @ a_x.T)


@pytest.mark.parametrize("shape", [(12, 26), (5, 8), (4, 7), (7, 4), (1, 9),
                                   (9, 1)])
@pytest.mark.parametrize("z_eff", [12e-3, -12e-3, 1e-4, -1e-4])
@pytest.mark.parametrize("center", [0.0, 41e-6])
def test_2d_shared_edge_table_matches_the_per_axis_tables(
        monkeypatch, shape, z_eff, center):
    # the edges-major table over the edges both axes share against a
    # table per axis on the former edges; below |Z_eff| = 1e-4 m both sit
    # on the rounding of t (the mpmath test covers that band)
    rows, cols = shape
    pixels = np.random.default_rng(rows * 31 + cols).random(shape)
    spec = _spec_at_z_eff(z_eff, Raster(pixels, 60e-6))
    grid = make_grid(center, 0.4e-3, 64)
    tables = []
    steps = _kernels.fresnel_steps
    monkeypatch.setattr(_kernels, "fresnel_steps",
                        lambda t: tables.append(t.shape) or steps(t))
    res = correlation_analytic_2d(spec, grid)
    # one table, one row of N points per distinct edge
    shared = (rows - cols) % 2 == 0
    assert tables == [(max(rows, cols) + 1 if shared else rows + cols + 2,
                       grid.n_samples)]
    want = _per_axis_pattern(spec, grid)
    got = res.correlation / res.prefactor
    # 6.4e-14 at worst (12 x 26, 1e-4 m, off the axis)
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


def _mp_2d_pattern(spec, grid):
    """_exact_2d_pattern with the Fresnel differences taken at 40 digits
    from the float inputs, so that only the engine's rounding remains.

    The two kernel scales multiply to 1/(i lam Z) and the edge integrals
    carry lam |Z| / 2, so pattern = sgn(Z) / (2i) D_y @ pixels @ D_x.T
    times the path phase, D the Fresnel differences (conjugated for
    Z < 0)."""
    obj = spec.object
    rows, cols = obj.pixels.shape
    z = spec.z_eff
    with mpmath.workdps(40):
        scale = mpmath.sqrt(2 / (mpmath.mpf(CTX.wavelength) * abs(z)))
        pitch = mpmath.mpf(obj.pitch)
        x = [mpmath.mpf(v) for v in grid.coordinates()]

        def table(edges):
            f = [[mpmath.fresnelc((e - xn) * scale)
                  + 1j * mpmath.fresnels((e - xn) * scale) for e in edges]
                 for xn in x]
            d = np.array([[complex(r[k + 1] - r[k]) for k in range(len(r) - 1)]
                          for r in f])
            return d if z > 0 else np.conj(d)

        d_x = table([(c - mpmath.mpf(cols) / 2) * pitch
                     for c in range(cols + 1)])
        d_y = table([(mpmath.mpf(rows) / 2 - r) * pitch
                     for r in range(rows + 1)])
    # the y edges fall from the top row, so d_y steps down each row
    return (np.sign(z) * np.exp(1j * CTX.k0 * spec.path_mismatch) / 2j
            * (-d_y @ obj.pixels @ d_x.T))


# bounds: twice the measured gaps, 3.8e-13, 3.9e-13, 2.7e-12 and 4.1e-12;
# scipy's Fresnel integrals on the same float arguments show the same
# gaps, so they are the rounding of t = (edge - x) sqrt(2 / (lam |Z|)),
# whose phase pi t^2 / 2 is off by about eps pi t^2
@pytest.mark.parametrize("z_eff,bound", [
    (1e-7, 8e-13), (-1e-7, 8e-13), (1e-9, 6e-12), (-1e-9, 9e-12)])
def test_2d_next_to_the_imaging_point_matches_mpmath(z_eff, bound):
    # the edge integrals at Z_eff within 0.1 um and 1 nm of the imaging
    # point, where Fresnel arguments reach 3e3 and 3e4
    pixels = np.random.default_rng(6).random((5, 7))
    spec = _spec_at_z_eff(z_eff, Raster(pixels, 60e-6))
    grid = make_grid(3.1e-6, 0.24e-3, 32)
    res = correlation_analytic_2d(spec, grid)
    want = _mp_2d_pattern(spec, grid)
    got = res.correlation / res.prefactor
    assert np.abs(got - want).max() <= bound * np.abs(want).max()


def test_2d_defocus_at_1_mm_fits_in_memory():
    # the glyph footprint at |Z_eff| = 1 mm: the engine holds one
    # edges-major Fresnel table, 27 edges x N, and the N x N image
    row = (np.random.default_rng(1).random(26) < 0.5) * 255.0
    mask = raster_to_transmittance(np.tile(row, (12, 1)), 60e-6)
    grid = make_grid(0.0, 1.2e-3, 256)
    for z in (1e-3, -1e-3):
        spec = _spec_at_z_eff(z, mask)
        tracemalloc.start()
        try:
            res = correlation_analytic_2d(spec, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 256 * 2 ** 20
        image = res.correlation
        assert np.isfinite(image).all()
        # identical rows: each image row is the exact 1D edge sum of the
        # shared row
        centre = image[grid.n_samples // 2]
        line = _exact_row_profile(row / 255.0, 60e-6, grid, spec.z_eff)
        i0 = int(np.argmax(np.abs(line)))
        const = centre[i0] / line[i0]
        assert np.abs(centre - const * line).max() <= \
            1e-10 * np.abs(centre).max()


@pytest.mark.parametrize("z_eff", [12e-3, 0.0])
def test_2d_image_is_written_in_one_pass(z_eff):
    # the glyph footprint on 512^2 detector points: the 4 MiB image is
    # the only N^2 array; every scalar rides on the rows x N table (or,
    # at the imaging point, scales the sampled raster in place). 4.4 and
    # 4.2 MiB measured, 8.3 MiB with two N^2 scalar products
    pixels = (np.random.default_rng(3).random((12, 26)) < 0.5) * 255.0
    mask = raster_to_transmittance(pixels, 60e-6)
    spec = _spec_at_z_eff(z_eff, mask) if z_eff else imaging_spec(mask)
    grid = make_grid(0.0, 1.2e-3, 512)
    tracemalloc.start()
    try:
        res = correlation_analytic_2d(spec, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.correlation.nbytes == 4 * 2 ** 20
    assert peak <= 5 * 2 ** 20
