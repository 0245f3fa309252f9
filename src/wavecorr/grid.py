"""Uniform transverse grids, optics context, and sampled complex fields.

All lengths are SI meters. A Grid is a midpoint-sampled interval: the
j-th coordinate is center - half_width + (j + 1/2) * spacing, so samples
never sit on the interval edges and a Riemann sum over them is the
midpoint rule.
"""

import numbers
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError


@dataclass(frozen=True)
class Grid:
    """Uniformly sampled transverse axis (1D)."""

    center: float
    half_width: float
    n_samples: int

    def __post_init__(self):
        if not np.isfinite(self.center):
            raise InvalidArgumentError("center must be finite")
        if not (0 < self.half_width < np.inf):
            raise InvalidArgumentError(
                "half_width must be positive and finite")
        n = self.n_samples
        if not (isinstance(n, numbers.Real) and 2 <= n < np.inf
                and int(n) == n):
            raise InvalidArgumentError("n_samples must be an integer >= 2")
        object.__setattr__(self, "n_samples", int(n))
        ends = (self.center - self.half_width, self.center + self.half_width)
        if not np.isfinite((self.spacing,) + ends).all():
            raise InvalidArgumentError(
                "half_width overflows: the spacing or the grid's ends "
                "are not finite")

    @property
    def spacing(self):
        return 2.0 * self.half_width / self.n_samples

    def coordinates(self):
        """Midpoint sample positions, strictly increasing, in meters."""
        j = np.arange(self.n_samples)
        return self.center - self.half_width + (j + 0.5) * self.spacing


def make_grid(center, half_width, n_samples):
    """Build a midpoint-sampled Grid; see Grid for the coordinate rule."""
    return Grid(float(center), float(half_width), n_samples)


@dataclass(frozen=True)
class OpticsContext:
    """Quasi-monochromatic context: vacuum wavelength and wavenumber."""

    wavelength: float

    def __post_init__(self):
        if not (0 < self.wavelength < np.inf and np.isfinite(self.k0)):
            raise InvalidArgumentError(
                "wavelength must be positive and finite, with a finite "
                "wavenumber 2*pi/wavelength")

    @property
    def k0(self):
        """Vacuum wavenumber 2*pi/wavelength (rad/m)."""
        return 2.0 * np.pi / self.wavelength


@dataclass(frozen=True)
class ComplexField:
    """Complex amplitude samples on a Grid.

    Units are any consistent amplitude convention (sqrt(W/m) in 1D);
    only relative magnitudes matter downstream.
    """

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.complex128)
        object.__setattr__(self, "values", values)
        if values.ndim != 1 or values.shape[0] != self.grid.n_samples:
            raise InvalidArgumentError(
                "values length must equal grid.n_samples")
        if not np.all(np.isfinite(values)):
            raise InvalidArgumentError("field values must be finite")

    def power(self):
        """Discrete energy sum(|E|^2) * spacing."""
        v = self.values
        return float(np.sum(v.real ** 2 + v.imag ** 2) * self.grid.spacing)
