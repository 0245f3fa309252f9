import numpy as np
import pytest
from hypothesis import given, strategies as st

from wavecorr import ComplexField, Grid, OpticsContext, make_grid
from wavecorr.errors import InvalidArgumentError


def test_spacing_and_midpoint_coordinates():
    g = make_grid(0.0, 1e-3, 8)
    assert g.spacing == pytest.approx(2.5e-4)
    x = g.coordinates()
    assert x.shape == (8,)
    assert x[0] == pytest.approx(-1e-3 + 1.25e-4)
    assert x[-1] == pytest.approx(1e-3 - 1.25e-4)
    assert np.allclose(np.diff(x), g.spacing)


def test_coordinates_symmetric_about_center():
    g = make_grid(3e-4, 5e-4, 64)
    x = g.coordinates()
    assert np.allclose(x + x[::-1], 2 * g.center)


@given(st.integers(min_value=2, max_value=4096),
       st.floats(min_value=1e-6, max_value=1.0),
       st.floats(min_value=-1.0, max_value=1.0))
def test_coordinates_stay_inside_interval(n, half, center):
    g = make_grid(center, half, n)
    x = g.coordinates()
    assert x[0] > center - half - 1e-9 * half
    assert x[-1] < center + half + 1e-9 * half
    assert len(x) == n


def test_grid_validation():
    with pytest.raises(InvalidArgumentError):
        make_grid(0.0, 0.0, 8)
    with pytest.raises(InvalidArgumentError):
        make_grid(0.0, -1e-3, 8)
    with pytest.raises(InvalidArgumentError):
        make_grid(0.0, 1e-3, 1)


def test_context_wavenumber():
    ctx = OpticsContext(589.3e-9)
    assert ctx.k0 == pytest.approx(2 * np.pi / 589.3e-9)
    with pytest.raises(InvalidArgumentError):
        OpticsContext(0.0)


def test_field_coerces_and_validates():
    g = make_grid(0.0, 1e-3, 4)
    f = ComplexField(g, [1, 2, 3, 4])
    assert f.values.dtype == np.complex128
    with pytest.raises(InvalidArgumentError):
        ComplexField(g, [1, 2, 3])
    with pytest.raises(InvalidArgumentError):
        ComplexField(g, [1, 2, np.nan, 4])


def test_field_power_is_midpoint_riemann_sum():
    g = make_grid(0.0, 1e-3, 4)
    f = ComplexField(g, [1.0, 1j, -1.0, -1j])
    assert f.power() == pytest.approx(4 * g.spacing)
