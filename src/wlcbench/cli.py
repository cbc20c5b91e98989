"""Command surface for the full pipeline.

Every command is seedable and draws no entropy from the environment, so a
seeded invocation repeated twice produces byte-identical files. Failures
print one machine-parsable JSON line to stderr: exit 2 for usage errors,
exit 1 for data and runtime errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from . import metrics, modelio, shallow
from .dataset import (
    LabelRaster,
    Patch,
    Scheme,
    SplitManifest,
    SplitRole,
    atomic_write,
    class_histogram,
    classes_per_patch,
    iter_patches,
    load_manifest,
    save_manifest,
    subsample_manifest,
    write_patch,
)
from .labels import SAVANNA, SIMPLIFIED_CLASS_NAMES, as_simplified
from .maskedlr import LogRegConfig, LogRegModel, logreg_fit, logreg_predict
from .preprocess import FeatureMatrix, FusionConfig, assemble_features
from .render import render_labels
from .synth import default_synth_config, generate_scenes


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage errors as single-line JSON on stderr."""

    def error(self, message):
        print(json.dumps({"error": message}), file=sys.stderr)
        raise SystemExit(2)


def _bool_flag(value: str) -> bool:
    low = value.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise argparse.ArgumentTypeError(f"expected a boolean, got {value!r}")


def _seed(value: str) -> int:
    try:
        seed = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {value!r}") from None
    if seed < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {value!r}")
    return seed


def _emit(doc: dict) -> None:
    print(json.dumps(doc))


# ---------------------------------------------------------------------------
# shared data loading
# ---------------------------------------------------------------------------

def _load_split(args) -> tuple[SplitManifest, list[Patch]]:
    """Manifest plus its patches, LR labels simplified to the 10-class scheme."""
    manifest = load_manifest(args.manifest)
    if getattr(args, "subsample", None) is not None:
        manifest = subsample_manifest(manifest, args.subsample, args.seed)
    patches = [
        dataclasses.replace(p, lr_labels=as_simplified(p.lr_labels))
        for p in iter_patches(manifest, args.data_dir)
    ]
    if not patches:
        raise ValueError(f"manifest {manifest.name!r} lists no patches")
    return manifest, patches


def _features_and_labels(patches, fusion: FusionConfig):
    mats = []
    lab = []
    for patch in patches:
        mats.append(assemble_features(patch, fusion))
        lab.append(patch.lr_labels.values.ravel())
    feats = mats[0] if len(mats) == 1 else FeatureMatrix.concat(mats)
    return feats, np.concatenate(lab)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_synth(args) -> int:
    config = default_synth_config(
        seed=args.seed,
        size=args.size,
        n_seeds_voronoi=args.n_seeds_voronoi,
        sigma=args.sigma,
        block_factor=args.block_factor,
        p_flip=args.p_flip,
        p_sav=args.p_sav,
    )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    patches = generate_scenes(config, args.n_scenes)
    for patch in patches:
        write_patch(patch, out / f"{patch.id}.wlcb")
    manifest = SplitManifest(
        name=f"synthetic-seed{args.seed}",
        role=SplitRole(args.role),
        patch_ids=tuple(p.id for p in patches),
    )
    save_manifest(manifest, out / "manifest.json")
    atomic_write(out / "synth-config.json", (config.to_json() + "\n").encode("utf-8"))
    _emit(
        {
            "scenes": len(patches),
            "out": str(out),
            "manifest": str(out / "manifest.json"),
        }
    )
    return 0


def cmd_stats(args) -> int:
    manifest, patches = _load_split(args)
    counts, fractions = class_histogram(patches, which=args.which)
    per_patch = classes_per_patch(patches, which=args.which)
    doc = {
        "manifest": manifest.name,
        "patches": len(patches),
        "which": args.which,
        "class_counts": {
            name: int(c) for name, c in zip(SIMPLIFIED_CLASS_NAMES, counts)
        },
        "class_fractions": {
            name: float(f) for name, f in zip(SIMPLIFIED_CLASS_NAMES, fractions)
        },
        "classes_per_patch_histogram": [int(v) for v in per_patch],
        "with_hr_labels": sum(1 for p in patches if p.hr_labels is not None),
    }
    if args.out:
        atomic_write(args.out, (json.dumps(doc, indent=2) + "\n").encode("utf-8"))
    _emit(doc)
    return 0


def _check_train_flags(args) -> LogRegConfig | None:
    """Refuse, before any data is read, hyperparameters that the model file
    cannot hold, that the fit would refuse or that would leave an untrained
    model. Returns the logreg config (None for the other models)."""
    if args.model == "kmeans":
        modelio.check_fields(shallow.KMeansModel, seed=args.seed)
        if args.k is not None:
            modelio.check_fields(shallow.KMeansModel, k=args.k)
            shallow.check_k(args.k)
        return None
    if args.model == "rf":
        modelio.check_fields(
            shallow.ForestModel, n_trees=args.trees, max_depth=args.depth, seed=args.seed
        )
        shallow.check_forest_size(args.trees, args.depth)
        return None
    if args.epochs < 1:
        raise ValueError(f"epochs must be >= 1, got {args.epochs}")
    modelio.check_fields(LogRegModel, learning_rate=args.lr, epochs=args.epochs, seed=args.seed)
    return LogRegConfig(learning_rate=args.lr, epochs=args.epochs, seed=args.seed)


def cmd_train(args) -> int:
    config = _check_train_flags(args)
    _, patches = _load_split(args)
    fusion = FusionConfig.from_string(args.fusion)
    feats, lab = _features_and_labels(patches, fusion)
    if args.mask_savanna:
        feats = feats.with_mask(lab != SAVANNA)

    summary: dict = {"model": args.model, "fusion": args.fusion, "out": args.out}
    if args.model == "kmeans":
        k = args.k if args.k is not None else shallow.default_k(lab, feats.valid_mask)
        model = shallow.kmeans_fit(feats, k, seed=args.seed)
        clusters = shallow.kmeans_cluster_ids(model, feats)
        model.cluster_to_class = shallow.align_clusters(clusters, lab, feats.valid_mask)
        curve = "iteration,inertia\n" + "".join(
            f"{i},{v!r}\n" for i, v in enumerate(model.inertia_history)
        )
        summary.update(k=k, inertia=model.inertia)
    elif args.model == "rf":
        model = shallow.rf_fit(
            feats, lab, n_trees=args.trees, max_depth=args.depth, seed=args.seed
        )
        curve = "tree,n_nodes\n" + "".join(
            f"{i},{t.n_nodes}\n" for i, t in enumerate(model.trees)
        )
        summary.update(trees=args.trees, depth=args.depth)
    else:
        model = logreg_fit(feats, lab, config=config)
        curve = "epoch,loss,holdout_aa\n" + "".join(
            f"{i},{v!r},\n" for i, v in enumerate(model.loss_curve)
        )
        summary.update(epochs=args.epochs, final_loss=model.loss_curve[-1])

    modelio.save_model(model, args.out)
    curve_path = f"{args.out}.curve.csv"
    atomic_write(curve_path, curve.encode("utf-8"))
    summary.update(curve=curve_path, training_rows=int(feats.valid_mask.sum()))
    _emit(summary)
    return 0


def _predict_vector(model, feats: FeatureMatrix, mask_savanna: bool) -> np.ndarray:
    if isinstance(model, shallow.KMeansModel):
        return shallow.kmeans_predict(model, feats)
    if isinstance(model, shallow.ForestModel):
        return shallow.rf_predict(model, feats)
    exclude = frozenset({SAVANNA}) if mask_savanna else frozenset()
    return logreg_predict(model, feats, exclude_classes=exclude)


def cmd_predict(args) -> int:
    manifest, patches = _load_split(args)
    model = modelio.load_model(args.model_file)
    fusion = FusionConfig.from_string(args.fusion)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for patch in patches:
        feats = assemble_features(patch, fusion)
        pred = _predict_vector(model, feats, args.mask_savanna)
        raster = LabelRaster(
            pred.reshape(patch.height, patch.width), Scheme.SIMPLIFIED10
        )
        write_patch(dataclasses.replace(patch, lr_labels=raster), out / f"{patch.id}.wlcb")
    save_manifest(
        SplitManifest(f"{manifest.name}-pred", manifest.role, manifest.patch_ids),
        out / "manifest.json",
    )
    _emit({"patches": len(patches), "out": str(out)})
    return 0


def cmd_evaluate(args) -> int:
    _, patches = _load_split(args)
    masked = frozenset({SAVANNA}) if args.mask_savanna else frozenset()
    cm = metrics.aggregate_confusion(
        patches, pred=args.pred, ref=args.ref, masked_classes=masked
    )
    rep = metrics.report(cm)
    if args.out:
        atomic_write(args.out, (metrics.report_json(rep) + "\n").encode("utf-8"))
    if args.csv:
        atomic_write(args.csv, metrics.report_csv(rep).encode("utf-8"))
    if args.matrix:
        atomic_write(args.matrix, metrics.matrix_csv(cm.counts, "d").encode("utf-8"))
    print(metrics.report_json(rep))
    return 0


def cmd_transition(args) -> int:
    _, patches = _load_split(args)
    lr_all = np.concatenate([p.lr_labels.values.ravel() for p in patches])
    hr_all = np.concatenate([p.labels("hr").values.ravel() for p in patches])
    tm = metrics.transition_matrix(
        LabelRaster(lr_all[None, :], Scheme.SIMPLIFIED10),
        LabelRaster(hr_all[None, :], Scheme.SIMPLIFIED10),
    )
    atomic_write(args.out, metrics.matrix_csv(tm.probs, ".6f").encode("utf-8"))
    _emit(
        {
            "out": args.out,
            "row_support": {
                name: int(s)
                for name, s in zip(SIMPLIFIED_CLASS_NAMES, tm.row_support)
            },
        }
    )
    return 0


def cmd_render(args) -> int:
    _, patches = _load_split(args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for patch in patches:
        atomic_write(out / f"{patch.id}.ppm", render_labels(patch.labels(args.which)))
    _emit({"rendered": len(patches), "out": str(out)})
    return 0


# ---------------------------------------------------------------------------
# parser wiring
# ---------------------------------------------------------------------------

def _add_split_flags(p: _Parser) -> None:
    p.add_argument("--manifest", required=True, help="split manifest JSON")
    p.add_argument("--data-dir", required=True, help="directory of {id}.wlcb containers")
    p.add_argument(
        "--subsample",
        type=int,
        default=None,
        metavar="N",
        help="subsample N patches from the manifest (seeded by --seed)",
    )
    p.add_argument("--seed", type=_seed, default=0, metavar="N")


def _add_mask_flag(p: _Parser) -> None:
    p.add_argument(
        "--mask-savanna",
        nargs="?",
        const=True,
        default=True,
        type=_bool_flag,
        metavar="BOOL",
        help="exclude Savanna-labeled pixels (default: true)",
    )


def build_parser() -> _Parser:
    parser = _Parser(prog="wlcbench", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("synth", help="generate a synthetic benchmark split")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--n-scenes", type=int, default=16, metavar="N")
    p.add_argument("--seed", type=_seed, default=0, metavar="N")
    p.add_argument("--size", type=int, default=128, metavar="N")
    p.add_argument("--block-factor", type=int, default=16, metavar="N")
    p.add_argument("--sigma", type=float, default=0.02, metavar="F")
    p.add_argument("--p-flip", type=float, default=0.05, metavar="F")
    p.add_argument("--p-sav", type=float, default=0.5, metavar="F")
    p.add_argument("--n-seeds-voronoi", type=int, default=10, metavar="N")
    p.add_argument(
        "--role",
        default="train",
        choices=[r.value for r in SplitRole],
        help="manifest role tag",
    )
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("stats", help="class histogram and per-patch diversity")
    _add_split_flags(p)
    p.add_argument("--which", choices=["lr", "hr"], default="lr")
    p.add_argument("--out", default=None, help="also write the JSON report here")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("train", help="fit a pixel-wise model on LR labels")
    _add_split_flags(p)
    _add_mask_flag(p)
    p.add_argument("--model", required=True, choices=["kmeans", "rf", "logreg"])
    p.add_argument("--fusion", choices=["s2", "s1s2"], default="s2")
    p.add_argument("--out", required=True, help="model file path (.wlcm)")
    p.add_argument("--k", type=int, default=None, metavar="N",
                   help="k-means cluster count (default: distinct trainable classes)")
    p.add_argument("--trees", type=int, default=100, metavar="N")
    p.add_argument("--depth", type=int, default=10, metavar="N")
    p.add_argument("--epochs", type=int, default=50, metavar="N")
    p.add_argument("--lr", type=float, default=0.1, metavar="F")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="write predicted label containers")
    _add_split_flags(p)
    _add_mask_flag(p)
    p.add_argument("--model-file", required=True, help="trained .wlcm model")
    p.add_argument("--fusion", choices=["s2", "s1s2"], default="s2")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("evaluate", help="confusion-matrix report of one label slot vs another")
    _add_split_flags(p)
    _add_mask_flag(p)
    p.add_argument("--pred", choices=["lr", "hr"], default="lr")
    p.add_argument("--ref", choices=["lr", "hr"], default="hr")
    p.add_argument("--out", default=None, help="write the JSON summary here")
    p.add_argument("--csv", default=None, help="write the per-class CSV here")
    p.add_argument("--matrix", default=None, help="write the confusion-count CSV grid here")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("transition", help="LR to HR transition-probability matrix")
    _add_split_flags(p)
    p.add_argument("--out", required=True, help="transition CSV path")
    p.set_defaults(func=cmd_transition)

    p = sub.add_parser("render", help="render label rasters to PPM images")
    _add_split_flags(p)
    p.add_argument("--which", choices=["lr", "hr"], default="lr")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_render)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, FloatingPointError) as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
