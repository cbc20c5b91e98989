"""Command surface for the full pipeline.

Every command is seedable and draws no entropy from the environment, so a
seeded invocation repeated twice produces byte-identical files. Failures
print one machine-parsable JSON line to stderr: exit 2 for usage errors,
exit 1 for data and runtime errors.
"""

from __future__ import annotations

if __name__ == "__main__":  # ``python -m wlcbench.cli``: set before numpy loads
    from .entry import one_blas_thread

    one_blas_thread()

import argparse
import dataclasses
import importlib
import json
import os
import sys
from pathlib import Path
from typing import TYPE_CHECKING, Iterator

import numpy as np

from .dataset import (
    ContainerError,
    LabelRaster,
    Patch,
    Scheme,
    SplitManifest,
    SplitRole,
    atomic_write,
    class_histogram,
    iter_headers,
    iter_patches,
    load_manifest,
    save_manifest,
    subsample_manifest,
    write_patch,
)
from .labels import SAVANNA, SIMPLIFIED_CLASS_NAMES, as_simplified
from .render import render_labels

if TYPE_CHECKING:
    from .maskedlr import LogRegConfig
    from .preprocess import BandRows, FeatureMatrix, FusionConfig

# The model, feature and scene modules are imported inside the commands that
# run them, so a command compiles and loads only what it uses.


def _on_first_call(module: str, name: str):
    """A stand-in for ``wlcbench.<module>.<name>`` that imports the module
    when first called. The commands look these names up on this module, so
    ``perfbench/trace_child.py`` can wrap them and tests can patch them."""

    def call(*args, **kwargs):
        return getattr(importlib.import_module(f"{__package__}.{module}"), name)(
            *args, **kwargs
        )

    call.__name__ = call.__qualname__ = name
    return call


generate_scenes = _on_first_call("synth", "generate_scenes")
assemble_features = _on_first_call("preprocess", "assemble_features")
logreg_fit = _on_first_call("maskedlr", "logreg_fit")
logreg_predict = _on_first_call("maskedlr", "logreg_predict")


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

def _load_split(args) -> tuple[SplitManifest, Iterator[Patch]]:
    """Manifest plus a lazy stream of its patches, LR labels simplified to the
    10-class scheme. An empty manifest is refused before anything else is
    read; each patch is read when the stream reaches it, so a command that
    consumes the stream in one loop holds one patch at a time."""
    manifest = load_manifest(args.manifest)
    if getattr(args, "subsample", None) is not None:
        manifest = subsample_manifest(manifest, args.subsample, args.seed)
    if len(manifest) == 0:
        raise ValueError(f"manifest {manifest.name!r} lists no patches")
    patches = (
        dataclasses.replace(p, lr_labels=as_simplified(p.lr_labels))
        for p in iter_patches(manifest, args.data_dir)
    )
    return manifest, patches


def _band_rows_and_labels(args, fusion: FusionConfig) -> tuple[BandRows, np.ndarray]:
    """The band rows and LR labels of the split's training pixels: valid,
    labeled and, under --mask-savanna, not Savanna, in split order. One
    float32 matrix is sized from the container headers, and each patch's
    rows are written after the previous patch's as the stream reaches it,
    so the peak holds the rows a fit reads plus one patch; the rows of the
    pixels left out are never written, so their pages are never touched."""
    from .preprocess import BandRows, band_rows

    manifest, patches = _load_split(args)
    pixels = [header.pixels for header in iter_headers(manifest, args.data_dir)]
    n = sum(pixels)
    bands = np.empty((n, fusion.d), dtype=np.float32)
    labels = np.empty(n, dtype=np.uint8)
    exclude = frozenset({SAVANNA}) if args.mask_savanna else frozenset()
    stop = 0
    for patch, size in zip(patches, pixels):
        if patch.height * patch.width != size:
            raise ContainerError(
                f"patch {patch.id!r} has {patch.height * patch.width} pixels, "
                f"but its header read {size} when the split was sized"
            )
        keep = band_rows(patch, fusion, bands[stop:], exclude)
        start, stop = stop, stop + int(np.count_nonzero(keep))
        labels[start:stop] = patch.lr_labels.values.ravel()[keep]
    return BandRows(bands[:stop]), labels[:stop]


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_synth(args) -> int:
    from .synth import default_synth_config

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
    hist = class_histogram(patches, which=args.which)
    doc = {
        "manifest": manifest.name,
        "patches": hist.patches,
        "which": args.which,
        "class_counts": {
            name: int(c) for name, c in zip(SIMPLIFIED_CLASS_NAMES, hist.counts)
        },
        "class_fractions": {
            name: float(f) for name, f in zip(SIMPLIFIED_CLASS_NAMES, hist.fractions)
        },
        "classes_per_patch_histogram": [int(v) for v in hist.classes_per_patch],
        "with_hr_labels": hist.with_hr_labels,
    }
    if args.out:
        atomic_write(args.out, (json.dumps(doc, indent=2) + "\n").encode("utf-8"))
    _emit(doc)
    return 0


def _check_train_flags(args) -> LogRegConfig | None:
    """Refuse, before any data is read, hyperparameters that the model file
    cannot hold, that the fit would refuse or that would leave an untrained
    model. Returns the logreg config (None for the other models)."""
    from . import modelio, shallow
    from .maskedlr import LogRegConfig, LogRegModel

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
    from . import modelio, shallow
    from .preprocess import FusionConfig

    config = _check_train_flags(args)
    fusion = FusionConfig.from_string(args.fusion)
    feats, lab = _band_rows_and_labels(args, fusion)

    summary: dict = {"model": args.model, "fusion": args.fusion, "out": args.out}
    if args.model == "kmeans":
        k = args.k if args.k is not None else shallow.default_k(lab)
        model = shallow.kmeans_fit(feats, k, seed=args.seed)
        # align on the float32 centroids the model file stores and predict uses
        model.centroids = model.centroids.astype(np.float32).astype(np.float64)
        clusters = shallow.kmeans_cluster_ids(model, feats)
        model.cluster_to_class = shallow.align_clusters(clusters, lab)
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
    summary.update(curve=curve_path, training_rows=feats.n_rows)
    _emit(summary)
    return 0


def _predict_vector(model, feats: FeatureMatrix, mask_savanna: bool) -> np.ndarray:
    from . import shallow

    if isinstance(model, shallow.KMeansModel):
        return shallow.kmeans_predict(model, feats)
    if isinstance(model, shallow.ForestModel):
        return shallow.rf_predict(model, feats)
    exclude = frozenset({SAVANNA}) if mask_savanna else frozenset()
    return logreg_predict(model, feats, exclude_classes=exclude)


def cmd_predict(args) -> int:
    from . import modelio
    from .preprocess import ROW_BLOCK, FusionConfig, check_width, row_blocks

    manifest, patches = _load_split(args)
    # the model and its width are checked before any patch is read or written
    model = modelio.load_model(args.model_file)
    fusion = FusionConfig.from_string(args.fusion)
    check_width(fusion.d, model.d)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    # each patch is predicted one row block at a time through one feature
    # buffer, so no patch's float64 rows are held whole, whatever its size
    block = np.empty((ROW_BLOCK + 1, fusion.d))
    for patch in patches:
        pred = np.empty(patch.height * patch.width, dtype=np.uint8)
        for rows in row_blocks(len(pred)):
            feats = assemble_features(patch, fusion, out=block[: rows.stop - rows.start], rows=rows)
            pred[rows] = _predict_vector(model, feats, args.mask_savanna)
        raster = LabelRaster(pred.reshape(patch.height, patch.width), Scheme.SIMPLIFIED10)
        write_patch(dataclasses.replace(patch, lr_labels=raster), out / f"{patch.id}.wlcb")
    # last, so a run that fails partway leaves no manifest to read it by
    save_manifest(
        SplitManifest(f"{manifest.name}-pred", manifest.role, manifest.patch_ids),
        out / "manifest.json",
    )
    _emit({"patches": len(manifest), "out": str(out)})
    return 0


def cmd_evaluate(args) -> int:
    from . import metrics

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
    from . import metrics

    _, patches = _load_split(args)
    joint = metrics.aggregate_confusion(
        patches, pred="hr", ref="lr", masked_classes=frozenset()
    )
    tm = metrics.transition_matrix(joint)
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
    manifest, patches = _load_split(args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for patch in patches:
        atomic_write(out / f"{patch.id}.ppm", render_labels(patch.labels(args.which)))
    _emit({"rendered": len(manifest), "out": str(out)})
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
    except (ValueError, OSError, FloatingPointError, MemoryError) as exc:
        # a split too large for this machine is a data error, not a crash
        print(json.dumps({"error": str(exc) or type(exc).__name__}), file=sys.stderr)
        return 1


def run() -> None:
    """Run ``main`` as a process: flush stdout and stderr, then end with its
    exit status (2 for a usage error) without interpreter teardown, which
    costs tens of milliseconds with numpy loaded. Every file a command
    writes is closed before it returns."""
    try:
        status = main()
    except SystemExit as exc:
        status = exc.code
        if status is not None and not isinstance(status, int):
            print(status, file=sys.stderr)
            status = 1
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(status or 0)


if __name__ == "__main__":
    run()
