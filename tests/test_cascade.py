"""Path ledgers and the two-arm geometry helpers."""

import math
import warnings
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from wavecorr import (InterferometerSpec, MediumSegment, OpticsContext,
                      PathLedger, effective_diffraction_length,
                      imaging_positions, ledger, uniform, vacuum)
from wavecorr.cascade import equal_path_mismatch
from wavecorr.interferometer import _ROUNDING_ULPS
from wavecorr.errors import (DegenerateGeometryError, EqualPathWarning,
                             InvalidArgumentError, UnequalPathError)

CTX = OpticsContext(589.3e-9)

# 15.5 cm of n = 1.5163 glass followed by 18.3 cm of air
REF_SEGMENTS = (MediumSegment(0.155, 1.5163), vacuum(0.183))
REF = ledger(REF_SEGMENTS)


# ----------------------------------------------------------------- ledgers

def test_reference_ledger_frozen_values():
    assert REF.optical_path == pytest.approx(0.41802650, abs=1e-10)
    assert REF.diffraction_length == pytest.approx(0.2852225153333773, rel=1e-13)


def test_vacuum_contributes_equally_to_both_totals():
    led = vacuum(0.3).ledger()
    assert led == PathLedger(0.3, 0.3)


def test_segment_validation():
    with pytest.raises(InvalidArgumentError):
        MediumSegment(0.0, 1.5)
    with pytest.raises(InvalidArgumentError):
        MediumSegment(-0.1, 1.5)
    with pytest.raises(InvalidArgumentError):
        MediumSegment(0.1, 0.0)
    with pytest.raises(InvalidArgumentError):
        ledger([])


def test_negative_index_cancels_exactly():
    led = ledger([MediumSegment(0.1, 2.0), MediumSegment(0.1, -2.0)])
    assert led.optical_path == 0.0
    assert led.diffraction_length == 0.0


def test_cascade_keeps_propagate_for_the_tracer():
    # perfbench's tracer wraps propagate where cascade imports it
    import wavecorr
    from wavecorr import cascade, propagation
    assert cascade.propagate is propagation.propagate
    assert not hasattr(wavecorr, "cascade_propagate")
    assert not hasattr(cascade, "cascade_propagate")


def test_ledger_addition_identity_and_commutativity():
    a = PathLedger(0.1, 0.2)
    b = PathLedger(0.3, -0.05)
    assert a + PathLedger.zero() == a
    assert a + b == b + a


@given(st.lists(st.tuples(st.floats(min_value=1e-4, max_value=1.0),
                          st.floats(min_value=0.1, max_value=3.0)),
                min_size=1, max_size=6))
def test_ledger_matches_componentwise_sums(pairs):
    segs = [MediumSegment(l, n) for l, n in pairs]
    led = ledger(segs)
    assert led.optical_path == pytest.approx(sum(n * l for l, n in pairs),
                                             rel=1e-12)
    assert led.diffraction_length == pytest.approx(sum(l / n for l, n in pairs),
                                                   rel=1e-12)


# --------------------------------------------------------------- geometry

def test_imaging_positions_frozen_values():
    pos = imaging_positions(REF, REF.optical_path)
    assert pos.z_o1_img == pytest.approx(0.2852225153333773, rel=1e-13)
    assert pos.z_o2_img == pytest.approx(0.13280398, abs=1e-8)


def test_imaging_positions_exact_path_emits_no_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        imaging_positions(REF, REF.optical_path)


def test_imaging_positions_are_silent_within_tolerance():
    # the positions do not depend on a tolerated mismatch, and the
    # notice belongs to InterferometerSpec
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        pos = imaging_positions(REF, REF.optical_path + 5e-4)
    assert pos == imaging_positions(REF, REF.optical_path)


def test_equal_path_notice_starts_above_rounding():
    # 0.8 * 0.3 and 0.1 + 0.14 round one ulp apart: the mismatch is kept
    # exactly, but it is rounding and raises no notice
    segments = (MediumSegment(0.3, 0.8),)
    led = ledger(segments)
    z = led.optical_path
    at_bound = z + _ROUNDING_ULPS * math.ulp(z)
    assert equal_path_mismatch(0.1 + 0.14, led) == math.ulp(z)
    assert equal_path_mismatch(at_bound, led) == at_bound - z

    def build(ulps):
        # a spec whose z_o1 + z_o2 lands that many ulps above z
        spec = InterferometerSpec(CTX, 0.1, z + ulps * math.ulp(z) - 0.1,
                                  segments, uniform(1.0), 0.01)
        assert spec.path_mismatch == ulps * math.ulp(z)

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        build(1)
        build(_ROUNDING_ULPS)
    with pytest.warns(EqualPathWarning):
        build(_ROUNDING_ULPS + 1)


def test_imaging_positions_rejects_unequal_paths():
    with pytest.raises(UnequalPathError) as exc:
        imaging_positions(REF, REF.optical_path + 5e-3)
    assert "equal-optical-path" in str(exc.value)


def test_imaging_requires_path_at_least_diffraction_length():
    # a thin n = 0.5 slab has Zbar = 2 Z
    low = MediumSegment(0.1, 0.5).ledger()
    with pytest.raises(InvalidArgumentError):
        imaging_positions(low, low.optical_path)


def test_effective_length_vanishes_at_the_imaging_point():
    z_o1 = REF.diffraction_length
    z_eff = effective_diffraction_length(z_o1, REF.optical_path - z_o1, REF)
    assert z_eff == 0.0


def test_effective_length_closed_form_sweep():
    Z = REF.optical_path
    Zbar = REF.diffraction_length
    for z_o1 in (0.242, 0.26, 0.285, 0.31, 0.35, 0.40):
        z_o2 = Z - z_o1
        z_eff = effective_diffraction_length(z_o1, z_o2, REF)
        direct = 1.0 / (1.0 / z_o2 + 1.0 / (z_o1 - Zbar))
        alt = z_o2 * (1.0 - z_o2 / (Z - Zbar))
        assert z_eff == pytest.approx(direct, rel=1e-12)
        assert z_eff == pytest.approx(alt, rel=1e-12)


@given(st.sampled_from((-1.0, 1.0)), st.floats(min_value=-12, max_value=-1))
def test_effective_length_is_exact_near_the_imaging_point(sign, exponent):
    # the object 1e-12 m to 0.1 m from Zbar on either side: no raise, and
    # the float result tracks exact rational arithmetic on the same inputs
    zbar = REF.diffraction_length
    z_o1 = zbar + sign * 10.0 ** exponent
    z_o2 = REF.optical_path - z_o1
    z_eff = effective_diffraction_length(z_o1, z_o2, REF)
    exact = 1 / (1 / Fraction(z_o2) + 1 / (Fraction(z_o1) - Fraction(zbar)))
    assert abs(Fraction(z_eff) - exact) <= Fraction(1e-15) * abs(exact)


def test_effective_length_rejects_detector_plane_object():
    with pytest.raises(DegenerateGeometryError):
        effective_diffraction_length(REF.optical_path, 0.0, REF)


def test_effective_length_rejects_unequal_paths():
    with pytest.raises(UnequalPathError) as exc:
        effective_diffraction_length(0.1, 0.1, REF)
    assert "equal-optical-path" in str(exc.value)


def test_effective_length_divergent_configuration():
    # all-vacuum reference: z_o1 - Zbar = -z_o2 makes the reciprocals cancel
    ref = ledger([vacuum(0.375)])
    with pytest.raises(DegenerateGeometryError):
        effective_diffraction_length(0.125, 0.25, ref)


def test_effective_length_sign_tracks_object_placement():
    # past the imaging distance the net chirp stays forward; closer in,
    # the phase-reversed reference overcompensates and the sign flips
    far = effective_diffraction_length(0.31, REF.optical_path - 0.31, REF)
    near = effective_diffraction_length(0.242, REF.optical_path - 0.242, REF)
    assert far > 0
    assert near < 0
