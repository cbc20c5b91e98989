"""PPM rendering of label maps."""

import numpy as np
import pytest

from wlcbench.dataset import LabelRaster, Scheme
from wlcbench.labels import SIMPLIFIED_PALETTE
from wlcbench.render import render_labels


def raster(values):
    return LabelRaster(np.asarray(values, dtype=np.uint8), Scheme.SIMPLIFIED10)


def parse_ppm(blob):
    """Inverse oracle: decode header and pixel grid back out of the bytes."""
    assert blob.startswith(b"P6\n")
    rest = blob[3:]
    dims, rest = rest.split(b"\n", 1)
    w, h = (int(t) for t in dims.split())
    maxval, rest = rest.split(b"\n", 1)
    assert maxval == b"255"
    assert len(rest) == w * h * 3
    return w, h, np.frombuffer(rest, dtype=np.uint8).reshape(h, w, 3)


def hex_rgb(code):
    return tuple(int(code[i : i + 2], 16) for i in (0, 2, 4))


def test_single_water_pixel_bytes():
    assert render_labels(raster([[10]])) == b"P6\n1 1\n255\n\x1c\x0d\xff"


def test_nodata_renders_black():
    _, _, img = parse_ppm(render_labels(raster([[0, 0]])))
    assert (img == 0).all()


def test_two_by_two_example_colors():
    blob = render_labels(raster([[1, 10], [7, 3]]))
    w, h, img = parse_ppm(blob)
    assert (w, h) == (2, 2)
    assert tuple(img[0, 0]) == hex_rgb("009900")  # Forest
    assert tuple(img[0, 1]) == hex_rgb("1c0dff")  # Water
    assert tuple(img[1, 0]) == hex_rgb("a5a5a5")  # Urban
    assert tuple(img[1, 1]) == hex_rgb("fbff13")  # Savanna


def test_every_class_round_trips_through_parser(rng):
    values = rng.integers(0, 11, (9, 14), dtype=np.uint8)
    w, h, img = parse_ppm(render_labels(raster(values)))
    assert (w, h) == (14, 9)
    lut = {0: (0, 0, 0)}
    lut.update({i + 1: hex_rgb(c) for i, c in enumerate(SIMPLIFIED_PALETTE)})
    for i in range(9):
        for j in range(14):
            assert tuple(img[i, j]) == lut[int(values[i, j])]


def test_header_is_width_then_height():
    blob = render_labels(raster(np.zeros((2, 5), dtype=np.uint8)))
    assert blob.startswith(b"P6\n5 2\n255\n")


def test_rejects_igbp_scheme():
    igbp = LabelRaster(np.ones((1, 1), dtype=np.uint8), Scheme.IGBP17)
    with pytest.raises(ValueError, match="SIMPLIFIED10"):
        render_labels(igbp)


def test_rejects_illegal_class_id():
    bad = LabelRaster(np.array([[11]], dtype=np.uint8), Scheme.SIMPLIFIED10)
    with pytest.raises(ValueError, match="illegal class id"):
        render_labels(bad)

