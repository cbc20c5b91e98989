"""Synthetic scene generator with exact high-resolution ground truth and a
degraded low-resolution label channel.

The degradation reproduces the two weak-supervision regimes the toolkit is
built to study: inexact labels (block-constant coarsening) and inaccurate
labels (uniform flips plus a systematic Savanna substitution wherever Forest
and Grassland meet). Scenes are Voronoi mosaics, deliberately non-physical;
what matters is that the label-noise structure, not the radiometry, mimics
the real pairing of a coarse map with fine imagery.

Everything is reproducible from SynthConfig.seed alone. Generators for site
placement, band noise and label degradation are derived through fixed spawn
keys, and noise variates are drawn for every block whether or not the block
ends up perturbed, so one block's content never shifts another's stream.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .dataset import (
    BandStack,
    LabelRaster,
    N_SIMPLIFIED_CLASSES,
    Patch,
    S1_BAND_NAMES,
    S2_SURFACE_BANDS,
    Scheme,
)
from .labels import SAVANNA, block_class_counts, upsample_nearest
from .preprocess import S1_CLIP, S2_CLIP

FEATURE_DIM = 12  # 10 surface bands + VV + VH


@dataclass(frozen=True)
class SavannaRule:
    """Replace a block's majority label with Savanna with probability p_sav
    when the block contains pixels of both trigger classes."""

    trigger: tuple[int, int] = (1, 4)  # Forest, Grassland
    p_sav: float = 0.5

    def __post_init__(self):
        a, b = self.trigger
        for cls in (a, b):
            if not 1 <= cls <= N_SIMPLIFIED_CLASSES:
                raise ValueError(f"trigger class {cls} outside 1..{N_SIMPLIFIED_CLASSES}")
        if a == b:
            raise ValueError("trigger classes must differ")
        if not 0.0 <= self.p_sav <= 1.0:
            raise ValueError(f"p_sav must be in [0, 1], got {self.p_sav}")


def _as_mean_table(class_means) -> np.ndarray:
    means = np.asarray(class_means, dtype=np.float64)
    if means.ndim != 2 or means.shape[1] != FEATURE_DIM:
        raise ValueError(f"class_means must be n×{FEATURE_DIM}, got shape {means.shape}")
    if not np.isfinite(means).all() or (means < 0).any() or (means > 1).any():
        raise ValueError("class means must lie in [0, 1]")
    return means


@dataclass(frozen=True)
class SynthConfig:
    """Square-scene generator settings.

    class_means rows align with class_ids and live in normalized [0, 1]
    units (10 surface-band columns, then VV, VH); generate_scene writes the
    patch back in raw sensor units through the inverse normalizations.
    """

    size: int = 128
    seed: int = 0
    n_seeds_voronoi: int = 10
    class_ids: tuple[int, ...] = ()
    class_means: tuple[tuple[float, ...], ...] = ()
    class_weights: tuple[float, ...] | None = None
    sigma: float = 0.02
    block_factor: int = 16
    p_flip: float = 0.05
    savanna_rule: SavannaRule = field(default_factory=SavannaRule)

    def __post_init__(self):
        if self.size < 1:
            raise ValueError(f"size must be >= 1, got {self.size}")
        if self.block_factor < 1 or self.size % self.block_factor:
            raise ValueError(
                f"block_factor {self.block_factor} must divide size {self.size}"
            )
        if self.n_seeds_voronoi < 1:
            raise ValueError(f"n_seeds_voronoi must be >= 1, got {self.n_seeds_voronoi}")
        if not self.class_ids:
            raise ValueError("class set must be non-empty")
        if len(set(self.class_ids)) != len(self.class_ids):
            raise ValueError("class_ids must be unique")
        for cls in self.class_ids:
            if not 1 <= cls <= N_SIMPLIFIED_CLASSES:
                raise ValueError(f"class id {cls} outside 1..{N_SIMPLIFIED_CLASSES}")
        means = _as_mean_table(self.class_means)
        if means.shape[0] != len(self.class_ids):
            raise ValueError("class_means rows must match class_ids")
        object.__setattr__(
            self, "class_means", tuple(tuple(row) for row in means.tolist())
        )
        if self.class_weights is not None:
            w = np.asarray(self.class_weights, dtype=np.float64)
            if w.shape != (len(self.class_ids),):
                raise ValueError("class_weights must match class_ids")
            if not np.isfinite(w).all() or (w <= 0).any():
                raise ValueError("class_weights must be positive and finite")
            # stored verbatim (normalized only at sampling time) so that
            # to_json records the weights as given
            object.__setattr__(self, "class_weights", tuple(w.tolist()))
        if not (np.isfinite(self.sigma) and self.sigma >= 0):
            raise ValueError(f"sigma must be >= 0, got {self.sigma}")
        if not 0.0 <= self.p_flip <= 1.0:
            raise ValueError(f"p_flip must be in [0, 1], got {self.p_flip}")

    @property
    def mean_table(self) -> np.ndarray:
        return np.asarray(self.class_means, dtype=np.float64)

    def to_json(self) -> str:
        rule = {"trigger": list(self.savanna_rule.trigger), "p_sav": self.savanna_rule.p_sav}
        weights = self.class_weights or (None,) * len(self.class_ids)
        return json.dumps(
            {
                "size": self.size,
                "seed": self.seed,
                "n_seeds_voronoi": self.n_seeds_voronoi,
                "classes": [
                    {"id": cls, "mean": list(row), "weight": w}
                    for cls, row, w in zip(self.class_ids, self.class_means, weights)
                ],
                "sigma": self.sigma,
                "block_factor": self.block_factor,
                "p_flip": self.p_flip,
                "savanna_rule": rule,
            },
            indent=2,
        )


# Default 6-class spectra: two-level codes on the 1/64 grid, pairwise L2
# distance >= 1.25. Dyadic levels survive the float32 raw-unit round trip
# bit-exactly, which the sigma=0 contract relies on.
_LO, _HI = 12 / 64, 52 / 64
_CODES = {
    1: "111111000000",   # Forest
    4: "000000111111",   # Grassland
    6: "111000111000",   # Croplands
    7: "000111000111",   # Urban/Built-up
    9: "101010101010",   # Barren
    10: "010101010101",  # Water
}


# Default landscape composition: Forest- and Grassland-heavy, so blocks
# straddling a Forest|Grassland border (the Savanna-substitution trigger)
# are common enough that the degraded labels reproduce the target noise
# signature, a Savanna row concentrated on Forest+Grassland.
_WEIGHTS = {1: 0.38, 4: 0.38, 6: 0.06, 7: 0.06, 9: 0.06, 10: 0.06}


def default_synth_config(
    seed: int = 0,
    size: int = 128,
    n_seeds_voronoi: int = 10,
    sigma: float = 0.02,
    block_factor: int = 16,
    p_flip: float = 0.05,
    p_sav: float = 0.5,
) -> SynthConfig:
    """Six well-separated classes (Forest, Grassland, Croplands, Urban,
    Barren, Water) suitable for the end-to-end pipeline checks."""
    ids = tuple(sorted(_CODES))
    means = tuple(
        tuple(_HI if bit == "1" else _LO for bit in _CODES[cls]) for cls in ids
    )
    return SynthConfig(
        size=size,
        seed=seed,
        n_seeds_voronoi=n_seeds_voronoi,
        class_ids=ids,
        class_means=means,
        class_weights=tuple(_WEIGHTS[cls] for cls in ids),
        sigma=sigma,
        block_factor=block_factor,
        p_flip=p_flip,
        savanna_rule=SavannaRule(trigger=(1, 4), p_sav=p_sav),
    )


def _voronoi_labels(config: SynthConfig, rng: np.random.Generator) -> np.ndarray:
    """HR truth: nearest-site partition, sites labeled uniformly from the
    class set. Equidistant pixels go to the lowest site index."""
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


def degrade_labels(
    hr: LabelRaster,
    config: SynthConfig,
    rng: np.random.Generator | None = None,
) -> LabelRaster:
    """Coarsen and corrupt a high-resolution label map.

    Per block of block_factor²: majority class (lowest id on ties); blocks
    containing both trigger classes become Savanna with probability p_sav;
    every labeled block then flips to a uniformly random other class with
    probability p_flip; the block grid is upsampled back to the input size.
    Blocks without any labeled pixel stay no-data and are never perturbed.
    The default rng is the degradation generator of generate_scene(config).
    """
    if hr.scheme is not Scheme.SIMPLIFIED10:
        raise ValueError("degrade_labels expects SIMPLIFIED10 labels")
    h, w = hr.values.shape
    f = config.block_factor
    if h % f or w % f:
        raise ValueError(f"block_factor {f} must divide raster shape {h}×{w}")
    if rng is None:
        rng = np.random.default_rng(np.random.SeedSequence(config.seed).spawn(3)[2])

    counts = block_class_counts(hr.values, f, n_ids=N_SIMPLIFIED_CLASSES + 1)
    labeled = counts[:, :, 1:]
    majority = (labeled.argmax(axis=2) + 1).astype(np.uint8)
    has_any = labeled.sum(axis=2) > 0
    majority[~has_any] = 0

    a, b = config.savanna_rule.trigger
    mixed = (labeled[:, :, a - 1] > 0) & (labeled[:, :, b - 1] > 0)

    # One variate per block, drawn unconditionally and in a fixed order, so
    # block content never advances the stream for other blocks.
    bh, bw = majority.shape
    u_sav = rng.random((bh, bw))
    u_flip = rng.random((bh, bw))
    t = rng.integers(1, N_SIMPLIFIED_CLASSES, size=(bh, bw))

    lr = majority.copy()
    lr[mixed & has_any & (u_sav < config.savanna_rule.p_sav)] = SAVANNA
    flip = has_any & (u_flip < config.p_flip)
    # t in 1..9 indexes the nine other classes; shift past the current id
    flipped = t + (t >= lr)
    lr[flip] = flipped[flip].astype(np.uint8)
    return upsample_nearest(LabelRaster(values=lr, scheme=Scheme.SIMPLIFIED10), f)


def generate_scene(
    config: SynthConfig,
    patch_id: str = "synthetic",
    seq: np.random.SeedSequence | None = None,
) -> Patch:
    """One scene: Voronoi HR truth, class-mean band values plus clipped
    Gaussian noise stored in raw sensor units, and a degraded LR channel.

    The sites, noise and degradation generators are the three children of
    seq, SeedSequence(config.seed) by default, so equal configs give
    byte-identical patches.
    """
    if seq is None:
        seq = np.random.SeedSequence(config.seed)
    sites_rng, noise_rng, degrade_rng = (np.random.default_rng(k) for k in seq.spawn(3))

    hr_values = _voronoi_labels(config, sites_rng)
    hr = LabelRaster(values=hr_values, scheme=Scheme.SIMPLIFIED10)

    means = config.mean_table
    index_of = np.zeros(N_SIMPLIFIED_CLASSES + 1, dtype=np.intp)
    for i, cls in enumerate(config.class_ids):
        index_of[cls] = i
    unit = means[index_of[hr_values]]                       # H×W×12 in [0,1]
    noise = noise_rng.standard_normal(unit.shape)
    unit = np.clip(unit + config.sigma * noise, 0.0, 1.0)
    unit = unit.transpose(2, 0, 1)                          # 12×H×W

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


def generate_scenes(config: SynthConfig, n_scenes: int) -> list[Patch]:
    """n scenes with ids `scene-00000` onward, each from its own child
    seed of config.seed; scene i is independent of how many scenes follow."""
    if n_scenes < 1:
        raise ValueError(f"n_scenes must be >= 1, got {n_scenes}")
    parent = np.random.SeedSequence(config.seed)
    return [
        generate_scene(config, patch_id=f"scene-{i:05d}", seq=kid)
        for i, kid in enumerate(parent.spawn(n_scenes))
    ]
