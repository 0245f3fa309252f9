"""Checks for the chirp quadrature core.

chirp_sum must match its definition to rounding, be deterministic, and
handle empty input, single points and negative curvature.
"""

import numpy as np

from wavecorr._kernels import chirp_sum


def _case(n_out=257, n_in=191, seed=7):
    rng = np.random.default_rng(seed)
    x_out = np.sort(rng.uniform(-2e-3, 2e-3, n_out))
    x_in = np.sort(rng.uniform(-1e-3, 1e-3, n_in))
    coeffs = rng.normal(size=n_in) + 1j * rng.normal(size=n_in)
    alpha = 1.8e10
    return x_out, x_in, coeffs, alpha


def test_reference_implementation_matches_definition():
    x_out, x_in, coeffs, alpha = _case(11, 7)
    want = np.array([
        np.sum(coeffs * np.exp(1j * alpha * (xo - x_in) ** 2)) for xo in x_out
    ])
    got = chirp_sum(x_out, x_in, coeffs, alpha)
    assert np.allclose(got, want, rtol=1e-13, atol=0)


def test_backend_is_deterministic():
    x_out, x_in, coeffs, alpha = _case(513, 301, seed=11)
    a = chirp_sum(x_out, x_in, coeffs, alpha)
    b = chirp_sum(x_out, x_in, coeffs, alpha)
    assert np.array_equal(a, b)


def test_empty_input_gives_zeros():
    out = chirp_sum(np.linspace(0, 1, 5), np.empty(0), np.empty(0, complex), 1.0)
    assert out.shape == (5,)
    assert np.all(out == 0)


def test_negative_alpha_conjugates():
    x_out, x_in, coeffs, alpha = _case(64, 48, seed=3)
    plus = chirp_sum(x_out, x_in, coeffs, alpha)
    minus = chirp_sum(x_out, x_in, np.conj(coeffs), -alpha)
    assert np.allclose(minus, np.conj(plus), rtol=1e-12, atol=0)


def test_single_point_matches_closed_form():
    out = chirp_sum(np.array([0.5]), np.array([0.25]), np.array([2.0 + 0j]), 3.0)
    want = 2.0 * np.exp(1j * 3.0 * 0.0625)
    assert out.shape == (1,)
    assert abs(out[0] - want) < 1e-14
