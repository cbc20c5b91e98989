"""Run one wlcbench command in-process, with or without layer spans.

    python3 perfbench/trace_child.py OUT.json MODE WORKLOAD RUN_ID ARGV...

MODE is ``traced`` or ``plain``. Both import ``wlcbench.cli`` and time
``wlcbench.cli.main(ARGV)`` alone, so the difference between the two modes
on the same ARGV is the tracing overhead. In ``traced`` mode the layer entry
points are wrapped at the module attributes where ``wlcbench.cli`` (or, for
``read_patch``, ``dataset.iter_patches``) looks them up; nothing in the
package itself is edited. Spans are kept in memory and written to OUT.json
when the command returns. The command's own stdout and exit code pass
through unchanged so the caller can check them.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time


class Tracer:
    """In-memory span recorder; one span per call of a wrapped function."""

    def __init__(self, workload: str, run_id: str):
        self.workload = workload
        self.run_id = run_id
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def wrap(self, owner, attr: str, name: str, count=None) -> None:
        """Replace owner.attr with a spanned wrapper named ``name``.

        ``count(result, *args, **kwargs)`` returns the work counters of one
        call; it runs after the span closes, so its cost lands in the parent.
        """
        fn = getattr(owner, attr)

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            span = {
                "name": name,
                "parent": self._stack[-1] if self._stack else None,
                "workload": self.workload,
                "run_id": self.run_id,
                "start": time.perf_counter(),
            }
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            if count is not None:
                span.update(count(result, *args, **kwargs))
            return result

        setattr(owner, attr, spanned)


def _labeled_rows(features, labels) -> int:
    """Rows a fit trains on: feature-valid (the CLI folds its mask in) and labeled."""
    return int((features.valid_mask & (labels.ravel() != 0)).sum())


def _arg(args, kwargs, index: int, key: str):
    return args[index] if len(args) > index else kwargs[key]


def install(tracer: Tracer, cli) -> None:
    """Wrap every layer entry point the CLI reaches."""
    from wlcbench import dataset, metrics, modelio, shallow

    def file_mb(_, *args, **kwargs):
        return {"mb": os.path.getsize(_arg(args, kwargs, 0, "path")) / 1e6}

    def written_mb(_, *args, **kwargs):
        return {"mb": os.path.getsize(_arg(args, kwargs, 1, "path")) / 1e6}

    def rf_fit_counts(model, features, labels, *args, **kwargs):
        rows = _labeled_rows(features, labels)
        return {
            "row_trees": rows * model.n_trees,
            "nodes": sum(t.n_nodes for t in model.trees),
        }

    def logreg_fit_counts(model, features, labels, *args, **kwargs):
        rows = _labeled_rows(features, labels)
        return {"row_epochs": rows * model.config.epochs}

    tracer.wrap(dataset, "read_patch", "dataset.read_patch", file_mb)
    tracer.wrap(cli, "write_patch", "dataset.write_patch", written_mb)
    tracer.wrap(cli, "class_histogram", "dataset.class_histogram")
    tracer.wrap(
        cli, "generate_scenes", "synth.generate_scenes",
        lambda patches, *a, **k: {"px": sum(p.height * p.width for p in patches)},
    )
    tracer.wrap(
        cli, "assemble_features", "preprocess.assemble_features",
        lambda feats, *a, **k: {"rows": feats.n_rows},
    )
    tracer.wrap(shallow, "rf_fit", "shallow.rf_fit", rf_fit_counts)
    tracer.wrap(
        shallow, "rf_predict", "shallow.rf_predict",
        lambda pred, model, *a, **k: {"px_trees": len(pred) * model.n_trees},
    )
    tracer.wrap(
        shallow, "kmeans_fit", "shallow.kmeans_fit",
        lambda model, *a, **k: {"lloyd_iters": len(model.inertia_history)},
    )
    tracer.wrap(shallow, "kmeans_cluster_ids", "shallow.kmeans_cluster_ids")
    tracer.wrap(shallow, "align_clusters", "shallow.align_clusters")
    tracer.wrap(shallow, "kmeans_predict", "shallow.kmeans_predict")
    tracer.wrap(cli, "logreg_fit", "maskedlr.logreg_fit", logreg_fit_counts)
    tracer.wrap(cli, "logreg_predict", "maskedlr.logreg_predict")
    tracer.wrap(metrics, "aggregate_confusion", "metrics.aggregate_confusion")
    tracer.wrap(metrics, "transition_matrix", "metrics.transition_matrix")
    tracer.wrap(
        cli, "render_labels", "render.render_labels",
        lambda _, raster, *a, **k: {"px": int(raster.values.size)},
    )
    tracer.wrap(
        modelio, "save_model", "modelio.save_model",
        lambda _, model, path: {"bytes": os.path.getsize(path)},
    )
    tracer.wrap(modelio, "load_model", "modelio.load_model")


def main() -> int:
    out, mode, workload, run_id, argv = (*sys.argv[1:5], sys.argv[5:])
    if mode not in ("traced", "plain"):
        raise SystemExit(f"unknown mode {mode!r}")
    import wlcbench.cli as cli

    tracer = Tracer(workload, run_id)
    if mode == "traced":
        install(tracer, cli)
        tracer.wrap(cli, "main", f"cli.{argv[0]}")
    start = time.perf_counter()
    try:
        rc = cli.main(argv)
    finally:
        wall = time.perf_counter() - start
        sys.stdout.flush()
        with open(out, "w", encoding="utf-8") as fh:
            json.dump({"wall": wall, "spans": tracer.spans}, fh)
    return rc


if __name__ == "__main__":
    raise SystemExit(main())
