import numpy as np
import pytest

from wavecorr import (Raster, double_slit, phase_holes,
                      raster_to_transmittance, read_pgm, uniform)
from wavecorr.errors import InvalidArgumentError, OverlappingApertureError

NAN, INF = float("nan"), float("inf")


def test_double_slit_sampling():
    t = double_slit(125e-6, 300e-6)
    x = np.array([0.0, 150e-6, 150e-6 + 80e-6, 300e-6, 1e-3])
    vals = t.sample(x)
    # open precisely on |x -+- d/2| < b/2
    assert vals[0] == 0.0
    assert vals[1] == 1.0
    assert vals[2] == 0.0
    assert vals[3] == 0.0
    assert t.min_feature() == pytest.approx(125e-6)
    left, right = t.support()
    assert left[0] == pytest.approx(-(300e-6 + 125e-6) / 2)
    assert left[1] == pytest.approx(-(300e-6 - 125e-6) / 2)
    assert right[1] == pytest.approx((300e-6 + 125e-6) / 2)


def test_double_slit_rejects_overlap():
    with pytest.raises(OverlappingApertureError):
        double_slit(300e-6, 300e-6)
    with pytest.raises(InvalidArgumentError):
        double_slit(-1e-6, 300e-6)


@pytest.mark.parametrize("build", [
    lambda: double_slit(1e-4, INF),
    lambda: double_slit(NAN, 3e-4),
    lambda: phase_holes(1e-4, INF, 0.0),
    lambda: phase_holes(1e-4, 3e-4, NAN),
    lambda: phase_holes(1e-4, 3e-4, INF),
    lambda: Raster(np.ones((2, 2)), INF),
    lambda: Raster(np.ones((2, 2)), NAN),
], ids=["slit-spacing-inf", "slit-width-nan", "hole-separation-inf",
        "phase-nan", "phase-inf", "raster-pitch-inf", "raster-pitch-nan"])
def test_objects_reject_non_finite_parameters(build):
    # a NaN phase would otherwise make every correlation NaN
    with pytest.raises(InvalidArgumentError):
        build()


def test_phase_holes_values():
    t = phase_holes(200e-6, 500e-6, np.pi)
    x = np.array([-250e-6, 250e-6, 0.0])
    vals = t.sample(x)
    assert vals[0] == pytest.approx(1.0)
    assert vals[1] == pytest.approx(np.exp(1j * np.pi))
    assert vals[2] == 0.0
    assert t.min_feature() == pytest.approx(200e-6)


def test_phase_holes_zero_shift_is_symmetric():
    t = phase_holes(100e-6, 400e-6, 0.0)
    x = np.linspace(-300e-6, 300e-6, 101)
    vals = t.sample(x)
    assert np.allclose(vals, vals[::-1])


def test_phase_holes_reject_overlap():
    with pytest.raises(OverlappingApertureError):
        phase_holes(500e-6, 400e-6, np.pi)


def test_uniform_support_is_unbounded():
    t = uniform(0.5 + 0.5j)
    assert t.support() is None
    assert t.min_feature() is None
    assert np.all(t.sample(np.array([0.0, 1.0])) == 0.5 + 0.5j)
    with pytest.raises(InvalidArgumentError):
        uniform(1.5)


def test_raster_round_trip(tmp_path):
    pixels = np.array([[0, 128, 255], [255, 0, 128]], dtype=np.uint8)
    path = tmp_path / "mask.pgm"
    with open(path, "wb") as fh:
        fh.write(b"P5\n3 2\n255\n")
        fh.write(pixels.tobytes())
    back = read_pgm(path)
    assert np.array_equal(back, pixels)

    t = raster_to_transmittance(back, pitch=10e-6)
    assert t.ndim == 2
    # footprint spans n_cols * pitch horizontally, centered on zero
    (lo, hi), = t.support()
    assert hi - lo == pytest.approx(3 * 10e-6)
    x_edges, y_edges = t.pixel_edges()
    assert x_edges == pytest.approx([-15e-6, -5e-6, 5e-6, 15e-6])
    assert y_edges == pytest.approx([10e-6, 0.0, -10e-6])
    assert t.min_feature() == pytest.approx(10e-6)


def test_raster_sample2d_orientation():
    # row 0 of the pixel map is the top of the image (largest y); the
    # returned array is indexed [y, x] with y ascending
    pixels = np.zeros((2, 2), dtype=np.uint8)
    pixels[1, 0] = 255
    t = raster_to_transmittance(pixels, pitch=1e-3)
    x = np.array([-0.5e-3, 0.5e-3])
    y = np.array([-0.5e-3, 0.5e-3])
    vals = t.sample2d(x, y)
    assert vals[0, 0] == pytest.approx(1.0)
    assert vals[0, 1] == 0.0
    assert vals[1, 0] == 0.0
    assert vals[1, 1] == 0.0
    # zero outside the footprint
    assert t.sample2d(np.array([5e-3]), np.array([0.0]))[0, 0] == 0.0


def test_raster_pixel_index_is_the_sampling_rule():
    # 3 rows x 2 columns at 1 mm pitch: x in [-1, 1) mm, y in (-1.5, 1.5]
    pixels = np.arange(6, dtype=np.uint8).reshape(3, 2) * 40
    t = raster_to_transmittance(pixels, pitch=1e-3)
    x = np.array([-1.5e-3, -0.5e-3, 0.5e-3, 1.5e-3])
    y = np.array([-2e-3, -1e-3, 0.0, 1e-3, 2e-3])
    col, row = t.pixel_index(x, y)
    assert col.tolist() == [-1, 0, 1, -1]
    assert row.tolist() == [-1, 2, 1, 0, -1]
    want = np.where((row[:, None] >= 0) & (col[None, :] >= 0),
                    t.pixels[row[:, None], col[None, :]], 0.0)
    assert np.array_equal(t.sample2d(x, y), want)
    # pixel_edges bound the same pixels: each span's midpoint falls in it
    x_edges, y_edges = t.pixel_edges()
    col, row = t.pixel_index((x_edges[1:] + x_edges[:-1]) / 2,
                             (y_edges[1:] + y_edges[:-1]) / 2)
    assert col.tolist() == [0, 1] and row.tolist() == [0, 1, 2]


@pytest.mark.parametrize("shape", [(12, 26), (26, 12), (7, 7), (1, 9),
                                   (5, 8)])
@pytest.mark.parametrize("pitch", [60e-6, 0.1, 2.0 ** -10])
def test_raster_x_and_y_edges_in_one_place_share_their_bits(shape, pitch):
    # every edge is pitch / 2 times an integer, rounded once: (2c - cols)
    # on x and (rows - 2r) on y
    rows, cols = shape
    t = Raster(np.zeros(shape), pitch)
    x_edges, y_edges = t.pixel_edges()
    kx = np.arange(-cols, cols + 1, 2)
    ky = np.arange(rows, -rows - 1, -2)
    assert x_edges.tobytes() == ((pitch / 2) * kx).tobytes()
    assert y_edges.tobytes() == ((pitch / 2) * ky).tobytes()
    both = np.intersect1d(kx, ky)
    assert both.size == (min(rows, cols) + 1 if (rows - cols) % 2 == 0
                         else 0)
    assert (x_edges[np.searchsorted(kx, both)].tobytes()
            == y_edges[::-1][np.searchsorted(ky[::-1], both)].tobytes())
    # within rounding of the pitch lattice across the footprint
    assert x_edges == pytest.approx(-cols * pitch / 2
                                    + pitch * np.arange(cols + 1))
    assert y_edges == pytest.approx(rows * pitch / 2
                                    - pitch * np.arange(rows + 1))


def _by_pixel_index(t, x, y):
    """T on the outer product of x and y, point by point from the
    pixel_index rule."""
    col, row = t.pixel_index(x, y)
    want = np.zeros((len(y), len(x)), dtype=np.complex128)
    for i, r in enumerate(row):
        for j, c in enumerate(col):
            if r >= 0 and c >= 0:
                want[i, j] = t.pixels[r, c]
    return want


def test_raster_sample2d_follows_pixel_index_on_edges_and_outside():
    # a gray 3 x 4 raster at a power-of-two pitch, so that every pixel
    # edge is an exact float: x in [-2, 2) and y in (-1.5, 1.5] pitches
    pitch = 2.0 ** -10
    t = raster_to_transmittance(
        (np.arange(12).reshape(3, 4) * 20 + 7).astype(float), pitch)
    x_edges, y_edges = t.pixel_edges()
    # an edge belongs to the pixel it opens: left edges of columns, top
    # edges of rows; the last edge on each axis is outside
    col, row = t.pixel_index(x_edges, y_edges)
    assert col.tolist() == [0, 1, 2, 3, -1]
    assert row.tolist() == [0, 1, 2, -1]
    inside_x = np.array([-1.5, 0.25, 1.9]) * pitch
    inside_y = np.array([1.2, 0.0, -1.4]) * pitch
    outside_x = np.array([-5.0, -2.5, 2.5, 7.0]) * pitch
    outside_y = np.array([-3.0, -1.6, 1.6, 4.0]) * pitch
    cases = [
        (x_edges, y_edges),                          # exactly on edges
        (np.r_[outside_x, inside_x], inside_y),      # outside along x
        (inside_x, np.r_[inside_y, outside_y]),      # outside along y
        (np.r_[inside_x, outside_x], np.r_[outside_y, inside_y]),
    ]
    for x, y in cases:
        got = t.sample2d(x, y)
        assert got.dtype == np.complex128 and got.shape == (len(y), len(x))
        assert got.tobytes() == _by_pixel_index(t, x, y).tobytes()
    # a grid wholly outside the footprint, along one axis or both:
    # complex zeros
    for x, y in ((outside_x, outside_y), (outside_x, inside_y),
                 (inside_x, outside_y)):
        got = t.sample2d(x, y)
        assert got.dtype == np.complex128 and got.shape == (len(y), len(x))
        assert not got.any()
    # every gray level comes through at the pixel centres (y falling,
    # so row by row from the top)
    centres = t.sample2d((x_edges[1:] + x_edges[:-1]) / 2,
                         (y_edges[1:] + y_edges[:-1]) / 2)
    assert np.array_equal(centres, t.pixels)


def test_raster_1d_slice_matches_midline():
    pixels = np.array([[255, 0], [0, 255]], dtype=np.uint8)
    t = raster_to_transmittance(pixels, pitch=1e-3)
    x = np.array([-0.5e-3, 0.5e-3])
    row = t.sample(x)
    v2d = t.sample2d(x, np.array([0.0]))
    assert np.allclose(row, v2d[0])


def test_raster_rejects_bad_amplitudes():
    with pytest.raises(InvalidArgumentError):
        raster_to_transmittance(np.array([[300]]), pitch=1e-3)
    with pytest.raises(InvalidArgumentError):
        raster_to_transmittance(np.zeros((0, 3)), pitch=1e-3)


@pytest.mark.parametrize("pixels", [
    [["0", "255"]], [[0, "255"]], [[True, 255]], [[None]], [[0, 255], [255]],
    np.array([["0", "255"]]),
])
def test_raster_rejects_non_numeric_pixels(pixels):
    with pytest.raises(InvalidArgumentError):
        raster_to_transmittance(pixels, pitch=1e-3)


def test_raster_accepts_numbers_of_any_real_type():
    t = raster_to_transmittance([[0, 127.5, np.uint8(255)]], pitch=1e-3)
    assert np.array_equal(t.pixels, [[0.0, 0.5, 1.0]])


def test_read_pgm_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.pgm"
    path.write_bytes(b"P2\n1 1\n255\n0")
    with pytest.raises(InvalidArgumentError):
        read_pgm(path)


def test_read_pgm_handles_comments(tmp_path):
    path = tmp_path / "ok.pgm"
    path.write_bytes(b"P5\n# a comment line\n2 1\n255\n\x00\xff")
    back = read_pgm(path)
    assert back.shape == (1, 2)
    assert back[0, 1] == 255


def test_read_pgm_rejects_truncation(tmp_path):
    path = tmp_path / "short.pgm"
    path.write_bytes(b"P5\n4 4\n255\n\x00\x01")
    with pytest.raises(InvalidArgumentError):
        read_pgm(path)
