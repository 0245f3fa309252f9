"""Single-hop propagation: kernel algebra, the two fft chirp forms, and
their agreement with direct quadrature and with the closed-form
Gaussian beam.

The direct midpoint quadrature, a dense kernel matrix applied to the
samples on the input grid, is the oracle here. Fft geometries are
chosen so that midpoint aliasing ghosts land outside the window (their
displacement is wavelength * |Zbar| / dx), which is what makes the
comparisons meaningful to full precision.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wavecorr import ComplexField, OpticsContext, make_grid
from wavecorr.errors import (DegenerateKernelError, InvalidArgumentError,
                             ResolutionError)
from wavecorr.propagation import chirp_nodes, fresnel_kernel, kernel_scale, propagate

CTX = OpticsContext(589.3e-9)


def _gaussian_field(n, sigma, half=2e-3):
    g = make_grid(0.0, half, n)
    x = g.coordinates()
    return ComplexField(g, np.exp(-x * x / (2 * sigma * sigma)))


def _direct(f, Z, Zbar):
    """Midpoint quadrature of the kernel integral on the input grid."""
    x = f.grid.coordinates()
    return (fresnel_kernel(CTX, x[:, None], x[None, :], Z, Zbar)
            @ f.values * f.grid.spacing)


# ---------------------------------------------------------------- kernel

def test_kernel_scale_modulus_law():
    s = kernel_scale(CTX, 0.418, 0.285)
    assert abs(s) == pytest.approx(np.sqrt(CTX.k0 / (2 * np.pi * 0.285)), rel=1e-12)
    assert abs(s) == pytest.approx(2440.11, abs=0.01)


def test_kernel_scale_spot_value_exact_ledger():
    s = kernel_scale(CTX, 0.41802650, 0.2852225153333773)
    assert abs(s) == pytest.approx(2439.157682, abs=1e-5)


def test_kernel_scale_rejects_zero_zbar():
    with pytest.raises(DegenerateKernelError):
        kernel_scale(CTX, 0.1, 0.0)


def test_kernel_modulus_is_x_independent():
    x = np.linspace(-1e-3, 1e-3, 11)
    h = fresnel_kernel(CTX, x, 0.0, 0.3, 0.2)
    assert np.allclose(np.abs(h), abs(kernel_scale(CTX, 0.3, 0.2)), rtol=1e-12)


def test_kernel_phase_is_quadratic_in_offset():
    u = 3e-4
    h = fresnel_kernel(CTX, np.array([u]), 0.0, 0.0, 0.25)
    want = kernel_scale(CTX, 0.0, 0.25) * np.exp(1j * CTX.k0 * u * u / (2 * 0.25))
    assert h[0] == pytest.approx(want, rel=1e-13)


def test_negative_lengths_conjugate_the_kernel():
    x = np.linspace(-5e-4, 5e-4, 7)
    fwd = fresnel_kernel(CTX, x, 1e-4, 0.37, 0.21)
    rev = fresnel_kernel(CTX, x, 1e-4, -0.37, -0.21)
    assert np.allclose(rev, np.conj(fwd), rtol=1e-14)


@given(st.floats(min_value=1e-3, max_value=1.0),
       st.floats(min_value=-2e-3, max_value=2e-3))
def test_conjugation_identity_property(zbar, x):
    fwd = fresnel_kernel(CTX, np.array([x]), 0.0, 0.5, zbar)[0]
    rev = fresnel_kernel(CTX, np.array([x]), 0.0, -0.5, -zbar)[0]
    assert rev == pytest.approx(np.conj(fwd), rel=1e-12)


# ----------------------------------------------------------- propagation

def test_zero_zbar_is_identity_times_global_phase():
    f = _gaussian_field(64, 2e-4)
    out = propagate(CTX, f, 0.155 * 1.5163, 0.0)
    assert np.allclose(out.values, f.values * np.exp(1j * CTX.k0 * 0.155 * 1.5163),
                       rtol=1e-14)
    assert out.grid is f.grid


def test_transfer_function_route_conserves_energy():
    # ratio = lambda |Zbar| / (n dx^2) = 0.377 here: clean TF regime
    f = _gaussian_field(512, 3e-4)
    out = propagate(CTX, f, 0.3, 0.02)
    assert out.power() == pytest.approx(f.power(), rel=1e-10)


@settings(deadline=None, max_examples=25)
@given(st.floats(min_value=-0.025, max_value=0.025),
       st.integers(min_value=0, max_value=2 ** 31))
def test_transfer_function_unitarity_property(zbar, seed):
    g = make_grid(0.0, 2e-3, 256)
    rng = np.random.default_rng(seed)
    vals = rng.normal(size=256) + 1j * rng.normal(size=256)
    f = ComplexField(g, vals)
    out = propagate(CTX, f, 0.1, zbar)
    assert out.power() == pytest.approx(f.power(), rel=1e-11)


FROZEN_TF_CASES = [
    # (n_samples, zbar, sigma): alias ghost lambda*zbar/dx beyond the window;
    # regime ratios 0.75 to 0.63, on the transfer function route
    (256, 0.08, 75e-6),
    (512, 0.035, 60e-6),
    (1024, 0.02, 50e-6),
]


@pytest.mark.parametrize("n,zbar,sigma", FROZEN_TF_CASES)
def test_fft_matches_direct_quadrature_gaussian(n, zbar, sigma):
    f = _gaussian_field(n, sigma)
    a = propagate(CTX, f, 0.0, zbar).values
    b = _direct(f, 0.0, zbar)
    scale = np.abs(b).max()
    assert np.abs(a - b).max() <= 1e-10 * scale


def test_impulse_response_route_matches_direct_on_interior():
    # ratio = 3.77 picks the space-domain kernel; the circular wrap only
    # touches |x| > half - support, so compare the interior
    from wavecorr import double_slit

    g = make_grid(0.0, 2e-3, 1024)
    x = g.coordinates()
    f = ComplexField(g, double_slit(125e-6, 300e-6).sample(x))
    a = propagate(CTX, f, 0.0, 0.1)
    b = _direct(f, 0.0, 0.1)
    inner = np.abs(x) <= 1.7e-3
    scale = np.abs(b[inner]).max()
    assert np.abs(a.values[inner] - b[inner]).max() <= 1e-10 * scale


def test_two_hops_compose_to_one():
    # k0*Z ~ 3e6 rad, so the split global phase differs from the joint
    # one by ~ulp(k0*Z) ~ 5e-10 rad; that floor dominates the residual
    f = _gaussian_field(512, 3e-4)
    two = propagate(CTX, propagate(CTX, f, 0.1, 0.008), 0.2, 0.012)
    one = propagate(CTX, f, 0.3, 0.020)
    scale = np.abs(one.values).max()
    assert np.abs(two.values - one.values).max() <= 1e-8 * scale


def test_negative_hop_reverses_diffraction():
    # propagate out and back with the signs flipped: the phase-reversed
    # kernel undoes the blur exactly
    f = _gaussian_field(512, 3e-4)
    out = propagate(CTX, propagate(CTX, f, 0.3, 0.02), -0.3, -0.02)
    assert np.abs(out.values - f.values).max() <= 1e-10


def _gaussian_beam(x, sigma, Zbar):
    """Closed-form Fresnel propagation of exp(-x^2 / (2 sigma^2)), Z = 0."""
    q = 1.0 + 1j * Zbar / (CTX.k0 * sigma * sigma)
    return np.exp(-x * x / (2 * sigma * sigma * q)) / np.sqrt(q)


@pytest.mark.parametrize("ratio",
                         [0.25, 0.5, 0.75, 0.95, 1.05, 1.5, 1.95, 2.05, 3.0])
@pytest.mark.parametrize("sign", [1.0, -1.0], ids=["forward", "reversed"])
def test_gaussian_beam_across_the_regime_switch(ratio, sign):
    # both forms on either side of the switch at ratio 1, against the
    # exact beam: the transfer function form holds on the whole grid;
    # the impulse response form wraps circularly at the grid edges, so
    # above ratio 1 only the central half is compared; the suite's
    # filter fails any notice
    sigma = 100e-6
    f = _gaussian_field(512, sigma)
    x = f.grid.coordinates()
    zbar = sign * ratio * 512 * f.grid.spacing ** 2 / CTX.wavelength
    out = propagate(CTX, f, 0.0, zbar).values
    want = _gaussian_beam(x, sigma, zbar)
    keep = slice(None) if ratio <= 1 else np.abs(x) <= 1e-3
    assert np.abs(out[keep] - want[keep]).max() <= 1e-13 * np.abs(want).max()


def test_propagate_rejects_non_finite_fields():
    g = make_grid(0.0, 1e-3, 8)
    vals = np.ones(8, dtype=complex)
    f = ComplexField(g, vals)
    object.__setattr__(f, "values", vals * np.nan)
    with pytest.raises(InvalidArgumentError):
        propagate(CTX, f, 0.1, 0.1)


# ---------------------------------------------------------- chirp nodes

def test_chirp_nodes_respect_both_spacing_rules():
    nodes, weights, _ = chirp_nodes([(0.0, 1e-3)], 100e-6, 589.3e-9, 0.1,
                                    2e-3)
    target = min(100e-6 / 4, 589.3e-9 * 0.1 / (8 * 2e-3))
    assert weights.max() <= target * (1 + 1e-12)
    assert nodes.min() > 0 and nodes.max() < 1e-3
    assert weights.sum() == pytest.approx(1e-3, rel=1e-12)


def test_chirp_nodes_minimum_count_per_interval():
    nodes, _, counts = chirp_nodes([(0.0, 1e-6)], 1e-3, 589.3e-9, 0.0, 0.0)
    assert len(nodes) == 8
    assert counts == [8]


def test_chirp_nodes_multiple_intervals():
    # one uniform run of counts[k] nodes per interval, as chirp_sum reads
    intervals = [(-4e-4, -1e-4), (1e-4, 4e-4)]
    nodes, weights, counts = chirp_nodes(intervals, 50e-6, 589.3e-9, 0.05,
                                         1e-3)
    assert np.all(np.abs(nodes) >= 1e-4)
    assert weights.sum() == pytest.approx(6e-4, rel=1e-12)
    assert len(counts) == len(intervals) and sum(counts) == len(nodes)
    start = 0
    for (lo, hi), m in zip(intervals, counts):
        run = slice(start, start + m)
        assert lo < nodes[run].min() and nodes[run].max() < hi
        assert np.all(weights[run] == weights[start])
        assert np.allclose(np.diff(nodes[run]), weights[start],
                           rtol=1e-9, atol=0)
        start += m


def test_chirp_nodes_cap_guard():
    # the input is valid, only too costly: a resolution refusal, exit 4
    with pytest.raises(ResolutionError, match="quadrature would need"):
        chirp_nodes([(0.0, 1.0)], 1e-9, 589.3e-9, 0.1, 2e-3)


def test_chirp_nodes_need_some_scale():
    with pytest.raises(InvalidArgumentError):
        chirp_nodes([(0.0, 1e-3)], None, 589.3e-9, 0.0, 0.0)


def test_chirp_nodes_empty_support():
    nodes, weights, counts = chirp_nodes([], 1e-4, 589.3e-9, 0.1, 1e-3)
    assert nodes.size == 0 and weights.size == 0 and counts == []
