"""Scene generation as written before the Voronoi distances were built from
two separable tables, kept as the oracle: every pixel centre's offset to
every site as one H·W×n×2 array, squared and summed over its last axis, and
the band noise added out of place. The label degradation is the package's
own `degrade_labels`, which this reference does not replace."""

from __future__ import annotations

import numpy as np

from wlcbench.dataset import (
    BandStack,
    LabelRaster,
    N_SIMPLIFIED_CLASSES,
    Patch,
    S1_BAND_NAMES,
    S2_SURFACE_BANDS,
    Scheme,
)
from wlcbench.preprocess import S1_CLIP, S2_CLIP
from wlcbench.synth import SynthConfig, degrade_labels


def reference_voronoi_labels(config: SynthConfig, rng) -> np.ndarray:
    """HR truth: nearest-site partition; equidistant pixels go to the
    lowest site index."""
    n = config.n_seeds_voronoi
    size = config.size
    sites = rng.random((n, 2)) * size
    n_classes = len(config.class_ids)
    if config.class_weights is None:
        probs = np.full(n_classes, 1.0 / n_classes)
    else:
        probs = np.asarray(config.class_weights, dtype=np.float64)
        probs = probs / probs.sum()
    site_class = np.asarray(config.class_ids, dtype=np.uint8)[
        rng.choice(n_classes, size=n, p=probs)
    ]
    yy, xx = np.mgrid[0:size, 0:size]
    centers = np.stack([yy.ravel(), xx.ravel()], axis=1) + 0.5
    d2 = ((centers[:, None, :] - sites[None, :, :]) ** 2).sum(axis=2)
    nearest = d2.argmin(axis=1)
    return site_class[nearest].reshape(size, size)


def reference_generate_scene(
    config: SynthConfig,
    patch_id: str = "synthetic",
    seq: np.random.SeedSequence | None = None,
) -> Patch:
    if seq is None:
        seq = np.random.SeedSequence(config.seed)
    sites_rng, noise_rng, degrade_rng = (np.random.default_rng(k) for k in seq.spawn(3))

    hr_values = reference_voronoi_labels(config, sites_rng)
    hr = LabelRaster(values=hr_values, scheme=Scheme.SIMPLIFIED10)

    means = config.mean_table
    index_of = np.zeros(N_SIMPLIFIED_CLASSES + 1, dtype=np.intp)
    for i, cls in enumerate(config.class_ids):
        index_of[cls] = i
    unit = means[index_of[hr_values]]
    noise = noise_rng.standard_normal(unit.shape)
    unit = np.clip(unit + config.sigma * noise, 0.0, 1.0)
    unit = unit.transpose(2, 0, 1)

    s2_raw = (unit[:10] * S2_CLIP[1]).astype(np.float32)
    s1_raw = (unit[10:] * (S1_CLIP[1] - S1_CLIP[0]) + S1_CLIP[0]).astype(np.float32)

    lr = degrade_labels(hr, config, rng=degrade_rng)
    return Patch(
        id=patch_id,
        s2=BandStack(values=s2_raw, band_names=S2_SURFACE_BANDS),
        lr_labels=lr,
        s1=BandStack(values=s1_raw, band_names=S1_BAND_NAMES),
        hr_labels=hr,
    )
