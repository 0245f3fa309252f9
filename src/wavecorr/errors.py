"""Exception and warning types shared across the package."""


class WaveCorrError(Exception):
    """Base class for all errors raised by wavecorr."""


class InvalidArgumentError(WaveCorrError, ValueError):
    """An argument violates a documented precondition."""


class DegenerateKernelError(WaveCorrError):
    """Fresnel kernel requested at Zbar == 0; use the delta/identity path."""


class OverlappingApertureError(InvalidArgumentError):
    """Two-aperture object whose openings overlap or touch."""


class UnequalPathError(WaveCorrError):
    """Arm optical paths differ by more than the coherence tolerance."""


class DegenerateGeometryError(WaveCorrError):
    """Geometry with no finite effective diffraction length (or object at
    the detector plane)."""


class ResolutionError(WaveCorrError):
    """The geometry cannot be resolved here: the detector grid is too
    coarse for the object's smallest feature, or the quadrature would need
    more nodes than propagation.MAX_NODES."""


class NegativeIntensityError(WaveCorrError):
    """Port intensity would go negative: the flat-background model does not
    hold for the requested source width."""


class ScenarioValidationError(WaveCorrError):
    """Scenario config rejected; `field` holds the offending field path."""

    def __init__(self, field, message):
        self.field = field
        super().__init__(f"{field}: {message}")


class ConfigParseError(WaveCorrError):
    """A scenario config file is not JSON text: malformed, not UTF-8, or
    nested deeper than the parser follows."""


class WaveCorrWarning(UserWarning):
    """Base class for the non-fatal notices of a run; a subclass's name
    is the notice's stable code."""


class EqualPathWarning(WaveCorrWarning):
    """Arm paths differ beyond rounding, within the coherence tolerance."""


class ResolutionWarning(WaveCorrWarning):
    """Object features lie below 3x the source-limited resolution."""


class StatisticsWarning(WaveCorrWarning):
    """Ensemble standard error exceeds |mean| at every detector point."""
