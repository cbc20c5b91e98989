"""Paint label rasters as PPM images with the standard class palette.

Three views of the same scene land on disk: the truth, the degraded weak
labels (blocky, with phantom Savanna), and a forest prediction. PPM is
plain enough to need no imaging stack; any viewer or converter opens it.
"""

import tempfile
from pathlib import Path

import numpy as np

from wlcbench.dataset import LabelRaster, Scheme
from wlcbench.labels import SIMPLIFIED_CLASS_NAMES, SIMPLIFIED_PALETTE, trainable_mask
from wlcbench.preprocess import FeatureMatrix, FusionConfig, assemble_features
from wlcbench.render import render_labels
from wlcbench.shallow import rf_fit, rf_predict
from wlcbench.synth import default_synth_config, generate_scenes

print("palette:")
for name, color in zip(SIMPLIFIED_CLASS_NAMES, SIMPLIFIED_PALETTE):
    print(f"  #{color}  {name}")

cfg = default_synth_config(seed=5, size=128)
scenes = generate_scenes(cfg, 3)
train, scene = scenes[:2], scenes[2]

fusion = FusionConfig()
per_patch = [assemble_features(p, fusion) for p in train]
feats = FeatureMatrix(
    np.vstack([m.values for m in per_patch]),
    np.concatenate([m.valid_mask for m in per_patch]),
)
weak = np.concatenate([p.lr_labels.values.ravel() for p in train])
keep = np.concatenate([trainable_mask(p.lr_labels).ravel() for p in train])
forest = rf_fit(feats.with_mask(keep), weak, n_trees=10, max_depth=8, seed=0)
pred = rf_predict(forest, assemble_features(scene, fusion))
predicted = LabelRaster(pred.reshape(scene.hr_labels.shape), Scheme.SIMPLIFIED10)

out = Path(tempfile.mkdtemp(prefix="wlcbench-demo5-"))
for tag, raster in (
    ("truth", scene.hr_labels),
    ("weak", scene.lr_labels),
    ("predicted", predicted),
):
    ppm = render_labels(raster)
    (out / f"{tag}.ppm").write_bytes(ppm)
    header = ppm.split(b"\n", 3)[:3]
    print(f"{tag:<9} -> {tag}.ppm  {b' '.join(header).decode()}  ({len(ppm)} bytes)")

agree = float((predicted.values == scene.hr_labels.values).mean())
print(f"\nprediction agrees with truth on {agree:.1%} of pixels")
print(f"images in {out}")
