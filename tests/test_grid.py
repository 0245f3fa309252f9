import numpy as np
import pytest
from hypothesis import given, strategies as st

from wavecorr import (ComplexField, Grid, MediumSegment, OpticsContext,
                      make_grid)
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


NAN, INF = float("nan"), float("inf")


# a NaN compares false against every bound, so each value type checks
# finiteness itself; the config reader's own check covers only the CLI.
# The last three take finite inputs whose spacing, grid end or k0 is not
@pytest.mark.parametrize("build", [
    lambda: make_grid(NAN, 1e-3, 256),
    lambda: make_grid(INF, 1e-3, 256),
    lambda: make_grid(-INF, 1e-3, 256),
    lambda: make_grid(0.0, INF, 256),
    lambda: make_grid(0.0, NAN, 256),
    lambda: OpticsContext(INF),
    lambda: OpticsContext(NAN),
    lambda: MediumSegment(INF, 1.0),
    lambda: MediumSegment(NAN, 1.0),
    lambda: MediumSegment(0.155, NAN),
    lambda: MediumSegment(0.155, INF),
    lambda: MediumSegment(0.155, -INF),
    lambda: make_grid(0.0, 1e308, 4),
    lambda: make_grid(1.7e308, 1e307, 4),
    lambda: OpticsContext(1e-320),
], ids=["grid-center-nan", "grid-center-inf", "grid-center--inf",
        "grid-half_width-inf", "grid-half_width-nan", "wavelength-inf",
        "wavelength-nan", "segment-length-inf", "segment-length-nan",
        "segment-index-nan", "segment-index-inf", "segment-index--inf",
        "grid-spacing-overflow", "grid-end-overflow", "wavenumber-overflow"])
def test_value_types_reject_non_finite_numbers(build):
    with pytest.raises(InvalidArgumentError):
        build()


def test_make_grid_leaves_the_sample_count_to_grid():
    with pytest.raises(InvalidArgumentError):
        make_grid(0.0, 1e-3, 2.7)
    with pytest.raises(InvalidArgumentError):
        make_grid(0.0, 1e-3, NAN)
    g = make_grid(0.0, 1e-3, 4.0)
    assert g.n_samples == 4 and type(g.n_samples) is int
    assert g.coordinates().shape == (4,)


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
