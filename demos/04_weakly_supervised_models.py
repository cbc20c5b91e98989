"""Train the two supervised baselines on weak labels only.

The random forest and the logistic regression both fit against degraded
low-resolution labels; nothing here ever trains on truth. Savanna is
masked out of training because in this regime it is substitution noise,
and the logistic regression keeps whichever epoch scored best on a small
labeled holdout. The truth channel of held-out scenes appears exactly
once, at scoring time.
"""

import tempfile
from pathlib import Path

import numpy as np

from wlcbench import modelio
from wlcbench.dataset import LabelRaster, Scheme
from wlcbench.labels import trainable_mask
from wlcbench.maskedlr import logreg_fit, logreg_predict
from wlcbench.metrics import ConfusionMatrix, confusion, lr_vs_hr_eval, report
from wlcbench.models import LogRegConfig
from wlcbench.preprocess import FeatureMatrix, FusionConfig, assemble_features
from wlcbench.shallow import rf_fit, rf_predict
from wlcbench.synth import default_synth_config, generate_scenes

# denser mosaics (20 sites) so one validation scene sees every class
cfg = default_synth_config(seed=43, size=64, block_factor=8, n_seeds_voronoi=20)
scenes = generate_scenes(cfg, 14)
train, holdout_scene, test = scenes[:9], scenes[9], scenes[10:]

fusion = FusionConfig.from_string("s1s2")  # radar helps, and it costs one flag
per_patch = [assemble_features(p, fusion) for p in train]
feats = FeatureMatrix(
    np.vstack([m.values for m in per_patch]),
    np.concatenate([m.valid_mask for m in per_patch]),
)
weak = np.concatenate([p.lr_labels.values.ravel() for p in train])
keep = np.concatenate([trainable_mask(p.lr_labels).ravel() for p in train])
feats = feats.with_mask(keep)  # Savanna and no-data never train a model
print(f"training rows: {int(feats.valid_mask.sum())} of {feats.n_rows} "
      f"(d={feats.d})")

# forest on a row subsample; trees don't need every pixel
rows = np.flatnonzero(feats.valid_mask)
sub = np.random.default_rng(0).choice(rows, size=16000, replace=False)
forest = rf_fit(feats.values[sub], weak[sub], n_trees=15, max_depth=8, seed=0)
print(f"forest: {forest.n_trees} trees, depth <= {forest.max_depth}")

# logistic regression on everything, snapshotting on holdout mean accuracy.
# the holdout is one truth-labeled validation scene; gradients never see it
ho = assemble_features(holdout_scene, fusion)
logreg = logreg_fit(
    feats,
    weak,
    config=LogRegConfig(learning_rate=0.5, epochs=15, seed=0),
    holdout=(ho.values, holdout_scene.hr_labels.values.ravel()),
)
print(f"logreg: final loss {logreg.loss_curve[-1]:.4f}, "
      f"kept epoch {logreg.best_epoch} of {len(logreg.loss_curve)} "
      f"(holdout AA {logreg.holdout_curve[logreg.best_epoch]:.3f})")

# models are plain little binary files
with tempfile.TemporaryDirectory(prefix="wlcbench-demo4-") as tmp:
    out = Path(tmp)
    modelio.save_model(forest, out / "forest.wlcm")
    modelio.save_model(logreg, out / "logreg.wlcm")
    forest = modelio.load_model(out / "forest.wlcm")
    logreg = modelio.load_model(out / "logreg.wlcm")
print("round-tripped both models through .wlcm files")


def score(predict):
    cm = ConfusionMatrix.zero()
    saw_savanna = False
    for p in test:
        pred = predict(assemble_features(p, fusion))
        saw_savanna |= bool((pred == 3).any())
        cm = cm + confusion(
            p.hr_labels,
            LabelRaster(pred.reshape(p.hr_labels.shape), Scheme.SIMPLIFIED10),
            eval_mask=trainable_mask(p.hr_labels),
        )
    assert not saw_savanna, "masked class leaked into predictions"
    return report(cm)


rf_rep = score(lambda f: rf_predict(forest, f))
lr_rep = score(lambda f: logreg_predict(logreg, f))
base = lr_vs_hr_eval(test)
print("\nneither model ever predicts Savanna; scores on 4 held-out scenes:")
print(f"  weak labels as-is   AA={base.aa:.3f}  OA={base.oa:.3f}")
print(f"  logistic regression AA={lr_rep.aa:.3f}  OA={lr_rep.oa:.3f}  mIoU={lr_rep.miou:.3f}")
print(f"  random forest       AA={rf_rep.aa:.3f}  OA={rf_rep.oa:.3f}  mIoU={rf_rep.miou:.3f}")
