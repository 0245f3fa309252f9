"""Scalar paraxial wave propagation with an incoherent-light twist.

wavecorr models a two-arm interferometer fed by spatially incoherent
(delta-correlated) light. Intensity at the outputs carries no object
information on its own; the first-order field correlation between the
arms does, and when the reference arm's optical path matches the
object arm while their diffraction lengths differ, that correlation
renders a diffraction pattern or, at the right plane, a lensless image
of the object.

Layers, bottom up: grids and fields (`grid`), thin masks
(`transmittance`), free-space kernels (`propagation`), path ledgers and
the two-arm geometry (`cascade`), the closed-form correlation
(`interferometer`), Monte-Carlo chaotic light (`ensemble`), and runnable
scenario configs (`scenario`, `cli`).
"""

from . import errors
from .cascade import (COHERENCE_TOLERANCE, ImagingPositions, MediumSegment,
                      PathLedger, effective_diffraction_length,
                      imaging_positions, ledger, vacuum)
from .ensemble import (EnsembleConfig, EnsembleEstimate, run_coherent,
                       run_ensemble, sample_source)
from .errors import (ConfigParseError, DegenerateGeometryError,
                     DegenerateKernelError, EqualPathWarning,
                     InvalidArgumentError,
                     NegativeIntensityError, OverlappingApertureError,
                     ResolutionError, ResolutionWarning,
                     ScenarioValidationError, StatisticsWarning,
                     UnequalPathError, WaveCorrError, WaveCorrWarning)
from .grid import ComplexField, Grid, OpticsContext, make_grid
from .interferometer import (CorrelationResult, InterferometerSpec,
                             PortIntensities, background_intensity,
                             correlation_analytic, correlation_analytic_2d,
                             correlation_brute_force, detector_ports)
from .propagation import fresnel_kernel, kernel_scale, propagate
from .scenario import (OutputBundle, ScenarioConfig, builtin_scenarios,
                       config_from_dict, export, run_scenario)
from .transmittance import (DoubleSlit, PhaseHoles, Raster, Transmittance,
                            Uniform, double_slit, phase_holes,
                            raster_to_transmittance, read_pgm, uniform)

__version__ = "0.1.0"

#: name of the chirp_sum implementation, recorded by benchmark runs
kernel_backend = "numpy"

__all__ = [
    "COHERENCE_TOLERANCE",
    "ComplexField",
    "ConfigParseError",
    "CorrelationResult",
    "DegenerateGeometryError",
    "DegenerateKernelError",
    "DoubleSlit",
    "EnsembleConfig",
    "EnsembleEstimate",
    "EqualPathWarning",
    "Grid",
    "ImagingPositions",
    "InterferometerSpec",
    "InvalidArgumentError",
    "MediumSegment",
    "NegativeIntensityError",
    "OpticsContext",
    "OutputBundle",
    "OverlappingApertureError",
    "PathLedger",
    "PhaseHoles",
    "PortIntensities",
    "Raster",
    "ResolutionError",
    "ResolutionWarning",
    "ScenarioConfig",
    "ScenarioValidationError",
    "StatisticsWarning",
    "Transmittance",
    "UnequalPathError",
    "Uniform",
    "WaveCorrError",
    "WaveCorrWarning",
    "background_intensity",
    "builtin_scenarios",
    "config_from_dict",
    "correlation_analytic",
    "correlation_analytic_2d",
    "correlation_brute_force",
    "detector_ports",
    "double_slit",
    "effective_diffraction_length",
    "errors",
    "export",
    "fresnel_kernel",
    "imaging_positions",
    "kernel_backend",
    "kernel_scale",
    "ledger",
    "make_grid",
    "phase_holes",
    "propagate",
    "raster_to_transmittance",
    "read_pgm",
    "run_coherent",
    "run_ensemble",
    "run_scenario",
    "sample_source",
    "uniform",
    "vacuum",
]
