"""Successive diffraction through media: path ledgers and the two-arm
geometry.

A segment of physical length l and refractive index n contributes n*l
to the optical path Z (phase, coherence) and l/n to the diffraction
length Zbar (chirp curvature). Ledgers add under concatenation, and a
cascade whose accumulated Zbar vanishes acts as the identity times
exp(i k0 Z) regardless of the individual segments: that cancellation is
what makes lensless imaging possible. Negative indices are allowed so a
negatively refracting segment can cancel a positive one directly. The
engines read an arm only through its ledger.

equal_path_mismatch is the one check of the equal-optical-path
condition, within the fixed COHERENCE_TOLERANCE; the geometry helpers
raise beyond it and are silent within it, since neither result depends
on the mismatch. The notice of a tolerated mismatch, EqualPathWarning,
belongs to InterferometerSpec.
"""

from dataclasses import dataclass
from typing import NamedTuple

from .errors import (DegenerateGeometryError, InvalidArgumentError,
                     UnequalPathError)
# not called here; perfbench's tracer wraps propagate in this module
from .propagation import propagate

#: tolerance on the equal-optical-path condition (m); stands in for the
#: source's longitudinal coherence length.
COHERENCE_TOLERANCE = 1e-3


@dataclass(frozen=True)
class MediumSegment:
    """Homogeneous slab of physical length `length` and index `index`."""

    length: float
    index: float

    def __post_init__(self):
        if not (0 < self.length < float("inf")):
            raise InvalidArgumentError(
                "segment length must be positive and finite")
        if not (0 < abs(self.index) < float("inf")):
            raise InvalidArgumentError(
                "segment index must be nonzero and finite")

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


class ImagingPositions(NamedTuple):
    z_o1_img: float
    z_o2_img: float


def equal_path_mismatch(arm_path, ledger_ref):
    """Object-arm path minus the reference optical path Z (meters), exact.

    Raises UnequalPathError beyond COHERENCE_TOLERANCE; a mismatch
    within it is returned without a notice.
    """
    Z = ledger_ref.optical_path
    mismatch = arm_path - Z
    if abs(mismatch) > COHERENCE_TOLERANCE:
        raise UnequalPathError(
            f"object arm path {arm_path} differs from the reference optical "
            f"path {Z} by {mismatch:+.3g} m, beyond the coherence tolerance "
            f"{COHERENCE_TOLERANCE:g} m (equal-optical-path condition)")
    return mismatch


def imaging_positions(ledger_ref, z_o):
    """Object/detector distances at which the two-arm cascade images.

    Requires the object-arm path z_o to equal the reference optical
    path Z within COHERENCE_TOLERANCE. The object must sit at
    z_o1 = Zbar; the remaining distance to the detector is Z - Zbar.
    """
    equal_path_mismatch(z_o, ledger_ref)
    Z = ledger_ref.optical_path
    Zbar = ledger_ref.diffraction_length
    if Z < Zbar:
        raise InvalidArgumentError(
            "imaging requires Z >= Zbar for the reference arm")
    return ImagingPositions(z_o1_img=Zbar, z_o2_img=Z - Zbar)


def effective_diffraction_length(z_o1, z_o2, ledger_ref):
    """Single equivalent Fresnel distance of the two-arm diffraction.

    1/Z_eff = 1/z_o2 + 1/(z_o1 - Zbar). Returns exactly 0.0 at the
    imaging point z_o1 == Zbar. Near that point z_o1 - Zbar is computed
    exactly, so this direct form stays within a few ulp of the true
    value however close the object sits.
    """
    if z_o2 == 0:
        raise DegenerateGeometryError("object at the detector plane (z_o2 == 0)")
    equal_path_mismatch(z_o1 + z_o2, ledger_ref)
    delta = z_o1 - ledger_ref.diffraction_length
    if delta == 0:
        return 0.0
    s = 1.0 / z_o2 + 1.0 / delta
    if s == 0:
        raise DegenerateGeometryError(
            "both arms share one diffraction configuration; the effective "
            "diffraction length diverges")
    return 1.0 / s
