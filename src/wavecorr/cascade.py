"""Successive diffraction through media: path ledgers and composition.

A segment of physical length l and refractive index n contributes n*l
to the optical path Z (phase, coherence) and l/n to the diffraction
length Zbar (chirp curvature). Ledgers add under concatenation, and a
cascade whose accumulated Zbar vanishes acts as the identity times
exp(i k0 Z) regardless of the individual segments: that cancellation is
what makes lensless imaging possible. Negative indices are allowed so a
negatively refracting segment can cancel a positive one directly.
"""

import warnings as _warnings
from dataclasses import dataclass
from typing import NamedTuple

from .errors import (DegenerateGeometryError, EqualPathWarning,
                     InvalidArgumentError, UnequalPathError)
from .grid import ComplexField
from .propagation import propagate
from .transmittance import Transmittance

#: default tolerance on the equal-optical-path condition (m); stands in
#: for the source's longitudinal coherence length, which is a knob here.
DEFAULT_COHERENCE_TOLERANCE = 1e-3


@dataclass(frozen=True)
class MediumSegment:
    """Homogeneous slab of physical length `length` and index `index`."""

    length: float
    index: float

    def __post_init__(self):
        if not (self.length > 0):
            raise InvalidArgumentError("segment length must be positive")
        if self.index == 0:
            raise InvalidArgumentError("segment index must be nonzero")

    def ledger(self):
        return PathLedger(self.index * self.length, self.length / self.index)


def vacuum(length):
    return MediumSegment(float(length), 1.0)


@dataclass(frozen=True)
class PathLedger:
    """Accumulated optical path Z and diffraction length Zbar (meters)."""

    optical_path: float
    diffraction_length: float

    def __add__(self, other):
        return PathLedger(self.optical_path + other.optical_path,
                          self.diffraction_length + other.diffraction_length)

    @classmethod
    def zero(cls):
        return cls(0.0, 0.0)


def ledger(segments):
    """Total PathLedger of a segment list: Z = sum(n*l), Zbar = sum(l/n)."""
    segments = list(segments)
    if not segments:
        raise InvalidArgumentError("segment list must be non-empty")
    total = PathLedger.zero()
    for seg in segments:
        total = total + seg.ledger()
    return total


@dataclass(frozen=True)
class ElementChain:
    """Ordered arm contents: MediumSegments with Transmittance insertions."""

    elements: tuple

    def __post_init__(self):
        elements = tuple(self.elements)
        object.__setattr__(self, "elements", elements)
        if not elements:
            raise InvalidArgumentError("chain must contain at least one element")
        for el in elements:
            if not isinstance(el, (MediumSegment, Transmittance)):
                raise InvalidArgumentError(
                    "chain elements must be MediumSegment or Transmittance")


def cascade_propagate(ctx, field, chain, method="auto"):
    """Propagate through a chain, applying objects where they sit.

    Consecutive segments are coalesced into one propagation with their
    summed ledger; this is exact for the fft transfer-function form and
    realizes the delta-kernel identity exactly whenever the accumulated
    Zbar between two insertion points is zero.
    """
    if not isinstance(chain, ElementChain):
        chain = ElementChain(tuple(chain))
    out = field
    pending = PathLedger.zero()
    for el in chain.elements:
        if isinstance(el, MediumSegment):
            pending = pending + el.ledger()
        else:
            if pending != PathLedger.zero():
                out = propagate(ctx, out, pending.optical_path,
                                pending.diffraction_length, method)
                pending = PathLedger.zero()
            if el.ndim != 1:
                raise InvalidArgumentError(
                    "cascade_propagate handles 1D transmittances only")
            values = out.values * el.sample(out.grid.coordinates())
            out = ComplexField(out.grid, values, tuple(out.warnings))
    if pending != PathLedger.zero():
        out = propagate(ctx, out, pending.optical_path,
                        pending.diffraction_length, method)
    return out


class ImagingPositions(NamedTuple):
    z_o1_img: float
    z_o2_img: float


def equal_path_mismatch(arm_path, ledger_ref,
                        coherence_tolerance=DEFAULT_COHERENCE_TOLERANCE):
    """Object-arm path minus the reference optical path Z (meters).

    Raises UnequalPathError beyond the coherence tolerance and emits an
    EqualPathWarning for a nonzero mismatch within it.
    """
    Z = ledger_ref.optical_path
    mismatch = arm_path - Z
    if abs(mismatch) > coherence_tolerance:
        raise UnequalPathError(
            f"object arm path {arm_path} differs from the reference optical "
            f"path {Z} by {mismatch:+.3g} m, beyond the coherence tolerance "
            f"{coherence_tolerance:g} m (equal-optical-path condition)")
    if mismatch != 0:
        _warnings.warn(
            f"arm paths differ by {mismatch:+.3g} m, within tolerance",
            EqualPathWarning, stacklevel=3)
    return mismatch


def imaging_positions(ledger_ref, z_o,
                      coherence_tolerance=DEFAULT_COHERENCE_TOLERANCE):
    """Object/detector distances at which the two-arm cascade images.

    Requires the object-arm path z_o to equal the reference optical
    path Z within the coherence tolerance. The object must sit at
    z_o1 = Zbar; the remaining distance to the detector is Z - Zbar.
    """
    equal_path_mismatch(z_o, ledger_ref, coherence_tolerance)
    Z = ledger_ref.optical_path
    Zbar = ledger_ref.diffraction_length
    if Z < Zbar:
        raise InvalidArgumentError(
            "imaging requires Z >= Zbar for the reference arm")
    return ImagingPositions(z_o1_img=Zbar, z_o2_img=Z - Zbar)


def effective_diffraction_length(z_o1, z_o2, ledger_ref,
                                 coherence_tolerance=DEFAULT_COHERENCE_TOLERANCE):
    """Single equivalent Fresnel distance of the two-arm diffraction.

    1/Z_eff = 1/z_o2 + 1/(z_o1 - Zbar). Returns exactly 0.0 at the
    imaging point z_o1 == Zbar. Near that point z_o1 - Zbar is computed
    exactly, so this direct form stays within a few ulp of the true
    value however close the object sits.
    """
    if z_o2 == 0:
        raise DegenerateGeometryError("object at the detector plane (z_o2 == 0)")
    equal_path_mismatch(z_o1 + z_o2, ledger_ref, coherence_tolerance)
    delta = z_o1 - ledger_ref.diffraction_length
    if delta == 0:
        return 0.0
    s = 1.0 / z_o2 + 1.0 / delta
    if s == 0:
        raise DegenerateGeometryError(
            "both arms share one diffraction configuration; the effective "
            "diffraction length diverges")
    return 1.0 / s
