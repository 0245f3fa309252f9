"""Transmittance objects: complex T(x) masks placed in the object arm.

Every object reports its support intervals and smallest feature size so
propagation engines can build adequate quadrature grids; a raster also
reports its pixel edges, between which it is constant. |T| <= 1
everywhere by construction.
"""

import numbers
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError, OverlappingApertureError


class Transmittance:
    """Base class. Subclasses implement sample(), support(), min_feature()."""

    ndim = 1

    def sample(self, x):
        """Complex T at positions x (array, meters)."""
        raise NotImplementedError

    def support(self):
        """List of (lo, hi) intervals outside which T == 0, or None when
        the support is unbounded."""
        raise NotImplementedError

    def min_feature(self):
        """Smallest length scale of the object (m), or None if featureless."""
        raise NotImplementedError


@dataclass(frozen=True)
class DoubleSlit(Transmittance):
    """Two clear openings of width b centered at -d/2 and +d/2."""

    b: float
    d: float

    def __post_init__(self):
        if not (0 < self.b < np.inf and 0 < self.d < np.inf):
            raise InvalidArgumentError(
                "slit width and spacing must be positive and finite")
        if self.b >= self.d:
            raise OverlappingApertureError(
                f"slits of width {self.b} at spacing {self.d} overlap")

    def sample(self, x):
        x = np.asarray(x, dtype=float)
        inside = (np.abs(x - self.d / 2) < self.b / 2) | \
                 (np.abs(x + self.d / 2) < self.b / 2)
        return inside.astype(np.complex128)

    def support(self):
        return [(-self.d / 2 - self.b / 2, -self.d / 2 + self.b / 2),
                (self.d / 2 - self.b / 2, self.d / 2 + self.b / 2)]

    def min_feature(self):
        return self.b


@dataclass(frozen=True)
class PhaseHoles(Transmittance):
    """Two clear holes; the second carries a relative phase exp(i*dphi)."""

    hole_width: float
    separation: float
    dphi: float

    def __post_init__(self):
        if not (0 < self.hole_width < np.inf and 0 < self.separation < np.inf):
            raise InvalidArgumentError(
                "hole width and separation must be positive and finite")
        if not np.isfinite(self.dphi):
            raise InvalidArgumentError("phase shift must be finite")
        if self.hole_width >= self.separation:
            raise OverlappingApertureError(
                f"holes of width {self.hole_width} at separation "
                f"{self.separation} overlap")

    def sample(self, x):
        x = np.asarray(x, dtype=float)
        first = np.abs(x + self.separation / 2) < self.hole_width / 2
        second = np.abs(x - self.separation / 2) < self.hole_width / 2
        out = np.zeros(x.shape, dtype=np.complex128)
        out[first] = 1.0
        out[second] = np.exp(1j * self.dphi)
        return out

    def support(self):
        h, s = self.hole_width, self.separation
        return [(-s / 2 - h / 2, -s / 2 + h / 2),
                (s / 2 - h / 2, s / 2 + h / 2)]

    def min_feature(self):
        return self.hole_width


@dataclass(frozen=True)
class Uniform(Transmittance):
    """Constant transmittance everywhere (|value| <= 1)."""

    value: complex

    def __post_init__(self):
        object.__setattr__(self, "value", complex(self.value))
        if not abs(self.value) <= 1 + 1e-12:
            raise InvalidArgumentError("|value| must not exceed 1")

    def sample(self, x):
        x = np.asarray(x, dtype=float)
        return np.full(x.shape, self.value, dtype=np.complex128)

    def support(self):
        return None

    def min_feature(self):
        return None


@dataclass(frozen=True)
class Raster(Transmittance):
    """2D amplitude mask from a grayscale pixel map, centered at the origin.

    pixels[row, col] in [0, 1]; row 0 is the top of the image (largest y).
    Nearest-neighbor sampling; zero outside the pixel extent.
    """

    pixels: np.ndarray
    pitch: float

    ndim = 2

    def __post_init__(self):
        px = np.asarray(self.pixels, dtype=float)
        if px.ndim != 2 or px.size == 0:
            raise InvalidArgumentError("raster must be a non-empty 2D map")
        if not (px.min() >= 0 and px.max() <= 1 + 1e-12):
            raise InvalidArgumentError("raster amplitudes must lie in [0, 1]")
        if not (0 < self.pitch < np.inf):
            raise InvalidArgumentError("pitch must be positive and finite")
        px.setflags(write=False)
        object.__setattr__(self, "pixels", px)

    @property
    def extent(self):
        """(width_x, height_y) of the pixel footprint in meters."""
        rows, cols = self.pixels.shape
        return cols * self.pitch, rows * self.pitch

    def pixel_edges(self):
        """(x_edges, y_edges): column c spans x_edges[c] to x_edges[c + 1]
        and row r spans y_edges[r + 1] to y_edges[r], so y_edges falls
        from the top of the image (row 0) to its bottom.

        Every edge is pitch / 2 times an integer, (2c - cols) for columns
        and (rows - 2r) for rows, rounded once, so an x edge and a y edge
        in the same place have the same bits."""
        rows, cols = self.pixels.shape
        half = 0.5 * self.pitch
        return (half * np.arange(-cols, cols + 1, 2),
                half * np.arange(rows, -rows - 1, -2))

    def sample(self, x):
        """1D sample along the horizontal mid-line (y = 0)."""
        return self.sample2d(x, np.zeros(1))[0]

    def pixel_index(self, x, y):
        """Pixel column of each x and pixel row of each y, -1 outside.

        The nearest-neighbor rule of sample2d: T(x, y) is
        pixels[row(y), col(x)] where both are >= 0, else 0.
        """
        rows, cols = self.pixels.shape
        w, h = self.extent
        col = np.floor((np.asarray(x, dtype=float) + w / 2) / self.pitch)
        row = np.floor((h / 2 - np.asarray(y, dtype=float)) / self.pitch)
        col = np.where((col >= 0) & (col < cols), col, -1).astype(int)
        row = np.where((row >= 0) & (row < rows), row, -1).astype(int)
        return col, row

    def sample2d(self, x, y):
        """T on the outer product of coordinates; returns [len(y), len(x)],
        complex128."""
        col, row = self.pixel_index(x, y)
        # a zero last row and column: index -1 (outside) picks a zero
        rows, cols = self.pixels.shape
        bordered = np.zeros((rows + 1, cols + 1), dtype=np.complex128)
        bordered[:rows, :cols] = self.pixels
        return bordered.take(row, axis=0).take(col, axis=1)

    def support(self):
        w, _ = self.extent
        return [(-w / 2, w / 2)]

    def min_feature(self):
        return self.pitch


def double_slit(b, d):
    """Two slits of width b centered at +-d/2. Requires 0 < b < d."""
    return DoubleSlit(float(b), float(d))


def phase_holes(hole_width, separation, dphi):
    """Two holes, the second phase-shifted by dphi radians."""
    return PhaseHoles(float(hole_width), float(separation), float(dphi))


def uniform(value=1.0):
    return Uniform(value)


def raster_to_transmittance(pixels, pitch):
    """Grayscale map (values 0..255) to an amplitude mask, pixel/255.

    Every entry must be a real number: strings (numeric ones too) and
    booleans are rejected, not converted.
    """
    try:
        if isinstance(pixels, np.ndarray) and pixels.dtype.kind in "iuf":
            px = pixels.astype(float)
        else:
            leaves = np.asarray(pixels, dtype=object)
            if not all(isinstance(v, numbers.Real) and not isinstance(
                    v, (bool, np.bool_)) for v in leaves.flat):
                raise TypeError("non-numeric pixel")
            px = leaves.astype(float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise InvalidArgumentError(
            "pixels must be a rectangular map of numbers") from exc
    if px.size == 0:
        raise InvalidArgumentError("raster must be non-empty")
    if not (px.min() >= 0 and px.max() <= 255):  # NaN fails too
        raise InvalidArgumentError("pixel values must lie in [0, 255]")
    return Raster(px / 255.0, float(pitch))


def read_pgm(path):
    """Read a binary PGM (P5, maxval 255) into a uint8 array [rows, cols].

    Any malformed header or short pixel data raises InvalidArgumentError.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    fields = []
    pos = 0
    while len(fields) < 4:
        while pos < len(data) and data[pos:pos + 1].isspace():
            pos += 1
        if data[pos:pos + 1] == b"#":
            while pos < len(data) and data[pos:pos + 1] != b"\n":
                pos += 1
            continue
        start = pos
        while pos < len(data) and not data[pos:pos + 1].isspace():
            pos += 1
        fields.append(data[start:pos])
    if fields[0] != b"P5":
        raise InvalidArgumentError("not a binary PGM (P5) file")
    if not all(f.isdigit() for f in fields[1:]):
        raise InvalidArgumentError(
            "PGM header needs numeric width, height and maxval")
    cols, rows, maxval = (int(f) for f in fields[1:])
    if rows == 0 or cols == 0:
        raise InvalidArgumentError("PGM width and height must be positive")
    if maxval != 255:
        raise InvalidArgumentError("only maxval 255 PGM is supported")
    pos += 1  # single whitespace after maxval
    raw = data[pos:pos + rows * cols]
    if len(raw) != rows * cols:
        raise InvalidArgumentError("PGM pixel data truncated")
    return np.frombuffer(raw, dtype=np.uint8).reshape(rows, cols)
