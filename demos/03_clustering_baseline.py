"""Cluster pixels without looking at labels, then name the clusters.

k-means++ runs on normalized band values alone. The weak low-resolution
labels enter only afterwards, when a Hungarian assignment matches each
cluster to the class it overlaps most. Truth stays out of the loop until
scoring.

Also on display: the default cluster count comes from the weak labels, and
weak labels lie. Random flips smuggle a few alien class ids into the split,
the injective alignment then has to hand three clusters to classes that do
not exist on the ground, and accuracy pays for it. Pinning k to the number
of spectral groups repairs the picture.
"""

import numpy as np

from wlcbench.dataset import LabelRaster, Scheme
from wlcbench.labels import SIMPLIFIED_CLASS_NAMES, trainable_mask
from wlcbench.metrics import ConfusionMatrix, confusion, lr_vs_hr_eval, report
from wlcbench.preprocess import FeatureMatrix, FusionConfig, assemble_features
from wlcbench.shallow import (
    align_clusters,
    default_k,
    kmeans_cluster_ids,
    kmeans_fit,
    kmeans_predict,
)
from wlcbench.synth import default_synth_config, generate_scenes

cfg = default_synth_config(seed=21, size=64, block_factor=8)
scenes = generate_scenes(cfg, 12)
train, test = scenes[:8], scenes[8:]

fusion = FusionConfig()  # ten surface bands, no radar
per_patch = [assemble_features(p, fusion) for p in train]
feats = FeatureMatrix(
    np.vstack([m.values for m in per_patch]),
    np.concatenate([m.valid_mask for m in per_patch]),
)
weak = np.concatenate([p.lr_labels.values.ravel() for p in train])
keep = np.concatenate([trainable_mask(p.lr_labels).ravel() for p in train])
align_mask = feats.valid_mask & keep


def fit_and_score(k):
    model = kmeans_fit(feats.with_mask(keep), k, seed=0)
    ids = kmeans_cluster_ids(model, feats)
    model.cluster_to_class = align_clusters(ids[align_mask], weak[align_mask])
    cm = ConfusionMatrix.zero()
    for p in test:
        pred = kmeans_predict(model, assemble_features(p, fusion))
        cm = cm + confusion(
            p.hr_labels,
            LabelRaster(pred.reshape(p.hr_labels.shape), Scheme.SIMPLIFIED10),
            eval_mask=trainable_mask(p.hr_labels),
        )
    return model, report(cm)


k_weak = default_k(weak[keep])
print(f"{feats.n_rows} pixels, {int(align_mask.sum())} trainable after the Savanna mask")
print(f"distinct classes in the weak labels: {k_weak} "
      f"(the generator only used {len(cfg.class_ids)}; flips forged the rest)\n")

noisy_k, noisy = fit_and_score(k_weak)
print(f"k={k_weak}: inertia {noisy_k.inertia:.2f}, alignment hands out these names:")
for cluster, cls in noisy_k.cluster_to_class.items():
    tag = "" if cls in cfg.class_ids else "   <- not on the ground"
    print(f"  cluster {cluster} -> {SIMPLIFIED_CLASS_NAMES[cls - 1]}{tag}")

clean_k, clean = fit_and_score(len(cfg.class_ids))
baseline = lr_vs_hr_eval(test)
print(f"\nweak labels scored as-is : AA={baseline.aa:.3f}  OA={baseline.oa:.3f}")
print(f"k-means, k={k_weak} (default) : AA={noisy.aa:.3f}  OA={noisy.oa:.3f}")
print(f"k-means, k={len(cfg.class_ids)} (true)    : AA={clean.aa:.3f}  OA={clean.oa:.3f}  "
      f"mIoU={clean.miou:.3f}")
