"""Transmittance objects: complex T(x) masks placed in the object arm.

Every object reports its support intervals and smallest feature size so
propagation engines can build adequate quadrature grids. |T| <= 1
everywhere by construction.
"""

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
        if not (self.b > 0 and self.d > 0):
            raise InvalidArgumentError("slit width and spacing must be positive")
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
        if not (self.hole_width > 0 and self.separation > 0):
            raise InvalidArgumentError("hole width and separation must be positive")
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
        if abs(self.value) > 1 + 1e-12:
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
        if px.min() < 0 or px.max() > 1 + 1e-12:
            raise InvalidArgumentError("raster amplitudes must lie in [0, 1]")
        if not (self.pitch > 0):
            raise InvalidArgumentError("pitch must be positive")
        px.setflags(write=False)
        object.__setattr__(self, "pixels", px)

    @property
    def extent(self):
        """(width_x, height_y) of the pixel footprint in meters."""
        rows, cols = self.pixels.shape
        return cols * self.pitch, rows * self.pitch

    def sample(self, x):
        """1D sample along the horizontal mid-line (y = 0)."""
        return self.sample2d(x, np.zeros(1))[0]

    def sample2d(self, x, y):
        """T on the outer product of coordinates; returns [len(y), len(x)]."""
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        rows, cols = self.pixels.shape
        w, h = self.extent
        ix = np.floor((x + w / 2) / self.pitch).astype(int)
        iy = np.floor((h / 2 - y) / self.pitch).astype(int)
        okx = (ix >= 0) & (ix < cols)
        oky = (iy >= 0) & (iy < rows)
        out = np.zeros((y.size, x.size), dtype=np.complex128)
        if okx.any() and oky.any():
            sub = self.pixels[np.clip(iy, 0, rows - 1)[:, None],
                              np.clip(ix, 0, cols - 1)[None, :]]
            out = np.where(oky[:, None] & okx[None, :], sub, 0.0)
        return out.astype(np.complex128)

    def support(self):
        w, _ = self.extent
        return [(-w / 2, w / 2)]

    def support_y(self):
        _, h = self.extent
        return [(-h / 2, h / 2)]

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
    """Grayscale map (values 0..255) to an amplitude mask, pixel/255."""
    px = np.asarray(pixels, dtype=float)
    if px.size == 0:
        raise InvalidArgumentError("raster must be non-empty")
    if px.min() < 0 or px.max() > 255:
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
