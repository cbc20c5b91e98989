"""Scene generation: Voronoi truth, radiometry, and the label degradation chain."""

import json

import numpy as np
import pytest

from wlcbench.dataset import LabelRaster, Scheme, patch_to_bytes
from wlcbench.labels import SAVANNA
from wlcbench.metrics import transition_matrix
from wlcbench.preprocess import FusionConfig, assemble_features
from wlcbench.synth import (
    SavannaRule,
    SynthConfig,
    default_synth_config,
    degrade_labels,
    generate_scene,
    generate_scenes,
)


def majority_block_oracle(block):
    counts = {}
    for v in np.asarray(block).ravel().tolist():
        if v:
            counts[v] = counts.get(v, 0) + 1
    if not counts:
        return 0
    return max(counts.items(), key=lambda kv: (kv[1], -kv[0]))[0]


def tiny_config(**kw):
    defaults = dict(
        size=8,
        seed=0,
        n_seeds_voronoi=3,
        class_ids=(1, 4, 10),
        class_means=tuple(tuple([v] * 12) for v in (0.2, 0.5, 0.8)),
        sigma=0.0,
        block_factor=2,
        p_flip=0.0,
        savanna_rule=SavannaRule(p_sav=0.0),
    )
    defaults.update(kw)
    return SynthConfig(**defaults)


def raster(values):
    return LabelRaster(np.asarray(values, dtype=np.uint8), Scheme.SIMPLIFIED10)


# --- config ------------------------------------------------------------------

def test_config_validation():
    with pytest.raises(ValueError, match="divide"):
        tiny_config(size=9)
    with pytest.raises(ValueError, match="non-empty"):
        tiny_config(class_ids=(), class_means=())
    with pytest.raises(ValueError, match="unique"):
        tiny_config(class_ids=(1, 1, 4))
    with pytest.raises(ValueError, match="outside"):
        tiny_config(class_ids=(1, 4, 11))
    with pytest.raises(ValueError, match="rows"):
        tiny_config(class_ids=(1, 4))
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        tiny_config(class_means=tuple(tuple([1.5] * 12) for _ in range(3)))
    with pytest.raises(ValueError, match="weights"):
        tiny_config(class_weights=(0.5, 0.5))
    with pytest.raises(ValueError, match="positive"):
        tiny_config(class_weights=(0.5, 0.5, 0.0))
    with pytest.raises(ValueError, match="sigma"):
        tiny_config(sigma=-0.1)
    with pytest.raises(ValueError, match="p_flip"):
        tiny_config(p_flip=1.5)


def test_savanna_rule_validation():
    with pytest.raises(ValueError, match="differ"):
        SavannaRule(trigger=(4, 4))
    with pytest.raises(ValueError, match="outside"):
        SavannaRule(trigger=(0, 4))
    with pytest.raises(ValueError, match="p_sav"):
        SavannaRule(p_sav=-0.2)


def test_weights_kept_verbatim_and_scale_invariant():
    cfg = tiny_config(class_weights=(2.0, 1.0, 1.0))
    assert cfg.class_weights == (2.0, 1.0, 1.0)
    scaled = tiny_config(class_weights=(0.5, 0.25, 0.25))
    assert patch_to_bytes(generate_scene(cfg)) == patch_to_bytes(generate_scene(scaled))


def test_config_to_json_fields():
    cfg = default_synth_config(seed=42, size=64, p_sav=0.25)
    doc = json.loads(cfg.to_json())
    assert (doc["size"], doc["seed"], doc["n_seeds_voronoi"]) == (64, 42, 10)
    assert (doc["sigma"], doc["block_factor"], doc["p_flip"]) == (0.02, 16, 0.05)
    assert doc["savanna_rule"] == {"trigger": [1, 4], "p_sav": 0.25}
    assert [c["id"] for c in doc["classes"]] == list(cfg.class_ids)
    assert [tuple(c["mean"]) for c in doc["classes"]] == list(cfg.class_means)
    assert tuple(c["weight"] for c in doc["classes"]) == cfg.class_weights
    bare = json.loads(tiny_config().to_json())  # no weights
    assert [c["weight"] for c in bare["classes"]] == [None] * 3


# --- degradation -------------------------------------------------------------

def test_degrade_identity_when_noise_free():
    hr = raster(np.random.default_rng(3).integers(1, 11, (8, 8)))
    cfg = tiny_config(block_factor=1)
    out = degrade_labels(hr, cfg)
    np.testing.assert_array_equal(out.values, hr.values)


def test_degrade_majority_vote_matches_oracle(rng):
    values = rng.integers(0, 11, (12, 12), dtype=np.uint8)
    cfg = tiny_config(size=12, block_factor=4, n_seeds_voronoi=2)
    out = degrade_labels(raster(values), cfg).values
    for bi in range(3):
        for bj in range(3):
            block = values[bi * 4 : bi * 4 + 4, bj * 4 : bj * 4 + 4]
            expect = majority_block_oracle(block)
            got = out[bi * 4 : bi * 4 + 4, bj * 4 : bj * 4 + 4]
            assert (got == expect).all()


def test_degrade_sixty_forty_block():
    values = np.full((4, 4), 10, dtype=np.uint8)
    values.flat[:6] = 7  # 6 urban vs 10 water
    out = degrade_labels(raster(values), tiny_config(size=4, block_factor=4))
    assert (out.values == 10).all()


def test_degrade_tie_prefers_lowest_id():
    values = np.array([[9, 9], [2, 2]], dtype=np.uint8)
    out = degrade_labels(raster(values), tiny_config(size=2, block_factor=2))
    assert (out.values == 2).all()


def test_savanna_substitution_fires_on_mixed_blocks():
    values = np.array([[1, 1], [1, 4]], dtype=np.uint8)
    cfg = tiny_config(size=2, block_factor=2, savanna_rule=SavannaRule(p_sav=1.0))
    out = degrade_labels(raster(values), cfg)
    assert (out.values == SAVANNA).all()


def test_savanna_substitution_skips_pure_blocks():
    values = np.full((2, 2), 1, dtype=np.uint8)
    cfg = tiny_config(size=2, block_factor=2, savanna_rule=SavannaRule(p_sav=1.0))
    out = degrade_labels(raster(values), cfg)
    assert (out.values == 1).all()


def test_savanna_substitution_custom_trigger():
    values = np.array([[7, 7], [7, 10]], dtype=np.uint8)
    rule = SavannaRule(trigger=(7, 10), p_sav=1.0)
    cfg = tiny_config(size=2, block_factor=2, savanna_rule=rule)
    assert (degrade_labels(raster(values), cfg).values == SAVANNA).all()


def test_unlabeled_blocks_survive_untouched():
    values = np.zeros((4, 4), dtype=np.uint8)
    values[:2, :2] = 5
    cfg = tiny_config(size=4, block_factor=2, p_flip=1.0)
    out = degrade_labels(raster(values), cfg).values
    assert (out[:2, :2] != 5).all() and (out[:2, :2] != 0).all()  # flipped
    assert (out[:2, 2:] == 0).all()
    assert (out[2:, :] == 0).all()


def test_flip_rate_and_targets(rng):
    size = 64
    values = np.full((size, size), 1, dtype=np.uint8)  # pure Forest
    cfg = tiny_config(size=size, block_factor=1, p_flip=0.3, seed=5)
    out = degrade_labels(raster(values), cfg).values
    flips = int((out != 1).sum())
    n = size * size
    sigma = np.sqrt(n * 0.3 * 0.7)
    assert abs(flips - n * 0.3) <= 3 * sigma
    hit = set(np.unique(out[out != 1]).tolist())
    assert hit == set(range(2, 11))  # every other class reachable, never 0 or 1


def test_degrade_never_flips_to_same_class(rng):
    for cls in (1, 5, 10):
        values = np.full((16, 16), cls, dtype=np.uint8)
        cfg = tiny_config(size=16, block_factor=1, p_flip=1.0, seed=cls)
        out = degrade_labels(raster(values), cfg).values
        assert (out != cls).all()
        assert out.min() >= 1 and out.max() <= 10


def test_degrade_requires_simplified_and_divisibility():
    igbp = LabelRaster(np.ones((4, 4), dtype=np.uint8), Scheme.IGBP17)
    with pytest.raises(ValueError, match="SIMPLIFIED10"):
        degrade_labels(igbp, tiny_config(size=4, block_factor=2))
    with pytest.raises(ValueError, match="divide"):
        degrade_labels(raster(np.ones((6, 6))), tiny_config(size=4, block_factor=4))


# --- scene generation -----------------------------------------------------------

def test_single_site_scene_is_constant():
    cfg = tiny_config(n_seeds_voronoi=1)
    patch = generate_scene(cfg)
    hr = patch.hr_labels.values
    assert len(np.unique(hr)) == 1
    assert hr[0, 0] in cfg.class_ids


def test_scene_labels_come_from_class_set():
    cfg = tiny_config(size=16, n_seeds_voronoi=5, block_factor=4)
    patch = generate_scene(cfg)
    assert set(np.unique(patch.hr_labels.values)) <= set(cfg.class_ids)
    assert patch.hr_labels.values.min() >= 1  # every pixel labeled
    assert patch.lr_labels.values.min() >= 1


def test_scene_passes_container_validation():
    patch = generate_scene(default_synth_config(size=32, seed=1))
    patch.validate()
    assert patch.s2.values.shape == (10, 32, 32)
    assert patch.s1.values.shape == (2, 32, 32)
    assert patch.s2.values.dtype == np.float32


def test_sigma_zero_features_hit_class_means_exactly():
    cfg = default_synth_config(size=16, sigma=0.0, seed=4)
    patch = generate_scene(cfg)
    fm = assemble_features(patch, FusionConfig.from_string("s1s2"))
    means = cfg.mean_table
    lookup = {cls: means[i] for i, cls in enumerate(cfg.class_ids)}
    hr = patch.hr_labels.values.ravel()
    for row in range(fm.n_rows):
        np.testing.assert_array_equal(fm.values[row], lookup[int(hr[row])])


def test_sigma_bounds_band_values():
    cfg = default_synth_config(size=16, sigma=0.5, seed=2)
    patch = generate_scene(cfg)
    assert patch.s2.values.min() >= 0.0 and patch.s2.values.max() <= 1.0e4
    assert patch.s1.values.min() >= -25.0 and patch.s1.values.max() <= 0.0


def test_generate_scene_deterministic():
    cfg = default_synth_config(size=32, seed=9)
    a = patch_to_bytes(generate_scene(cfg))
    b = patch_to_bytes(generate_scene(cfg))
    assert a == b
    other = patch_to_bytes(generate_scene(default_synth_config(size=32, seed=10)))
    assert a != other


@pytest.mark.parametrize("seed", [0, 7, 19])
def test_default_generators_are_the_seed_sequence_children(seed):
    cfg = default_synth_config(size=16, block_factor=4, seed=seed)
    scene = generate_scene(cfg)
    explicit = generate_scene(cfg, seq=np.random.SeedSequence(seed))
    assert patch_to_bytes(scene) == patch_to_bytes(explicit)
    # degrade_labels' default generator is the scene's degradation generator
    lr = degrade_labels(scene.hr_labels, cfg)
    np.testing.assert_array_equal(lr.values, scene.lr_labels.values)


def test_generate_scenes_prefix_stable():
    cfg = default_synth_config(size=16, seed=3)
    three = [patch_to_bytes(p) for p in generate_scenes(cfg, 3)]
    five = [patch_to_bytes(p) for p in generate_scenes(cfg, 5)]
    assert three == five[:3]
    assert len(set(five)) == 5  # scenes differ from each other
    ids = [p.id for p in generate_scenes(cfg, 3)]
    assert ids == ["scene-00000", "scene-00001", "scene-00002"]


def test_generate_scenes_validation():
    with pytest.raises(ValueError, match="n_scenes"):
        generate_scenes(tiny_config(), 0)


def test_savanna_rows_concentrate_on_trigger_classes():
    cfg = default_synth_config(seed=0, size=64)
    scenes = generate_scenes(cfg, 20)
    lr = np.concatenate([p.lr_labels.values.ravel() for p in scenes])[None, :]
    hr = np.concatenate([p.hr_labels.values.ravel() for p in scenes])[None, :]
    tm = transition_matrix(raster(lr), raster(hr))
    sav = tm.probs[SAVANNA - 1]
    assert tm.row_support[SAVANNA - 1] > 0
    assert sav[0] + sav[3] > 0.9  # Forest + Grassland carry the Savanna mass
