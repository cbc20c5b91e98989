import tracemalloc

import numpy as np
import pytest

from wlcbench.dataset import BandStack, LabelRaster, Patch, Scheme, S2_SURFACE_BANDS


def make_patch(
    lr,
    hr=None,
    s2=None,
    s1=None,
    patch_id="p0",
    lr_scheme=Scheme.SIMPLIFIED10,
):
    """Small-patch builder for tests; fills band stacks with zeros by default."""
    lr = np.asarray(lr, dtype=np.uint8)
    h, w = lr.shape
    if s2 is None:
        s2 = np.zeros((10, h, w), dtype=np.float32)
    s2 = np.asarray(s2, dtype=np.float32)
    names = S2_SURFACE_BANDS if s2.shape[0] == 10 else tuple(
        f"S2_{i + 1}" for i in range(s2.shape[0])
    )
    return Patch(
        id=patch_id,
        s2=BandStack(s2, names),
        lr_labels=LabelRaster(lr, lr_scheme),
        s1=None if s1 is None else BandStack(np.asarray(s1, dtype=np.float32), ("VV", "VH")),
        hr_labels=None if hr is None else LabelRaster(np.asarray(hr, dtype=np.uint8), Scheme.SIMPLIFIED10),
    )


def traced_peak(fn):
    """(peak, result) of calling fn: the most bytes tracemalloc saw
    allocated during the call above what it held before, and fn's result."""
    tracemalloc.start()
    try:
        base, _ = tracemalloc.get_traced_memory()
        result = fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak - base, result


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
