"""Build patch containers by hand, write them, and browse a split.

Walks the storage layer end to end: a raster triplet goes into the binary
container, comes back byte-identical, lands in a split manifest, and the
split gets summarized with the class histogram helpers.
"""

import tempfile
from pathlib import Path

import numpy as np

from wlcbench.dataset import (
    BandStack,
    LabelRaster,
    Patch,
    Scheme,
    SplitManifest,
    SplitRole,
    S2_SURFACE_BANDS,
    class_histogram,
    iter_patches,
    load_manifest,
    patch_to_bytes,
    read_patch,
    save_manifest,
    subsample_manifest,
    write_patch,
)
from wlcbench.labels import SIMPLIFIED_CLASS_NAMES

tmp = tempfile.TemporaryDirectory(prefix="wlcbench-demo1-")
out = Path(tmp.name)
rng = np.random.default_rng(0)

# 1. two small patches: one water-heavy with HR truth, one forest-only
patches = []
for pid, fill in (("tile-a", 10), ("tile-b", 1)):
    size = 8
    lr = np.full((size, size), fill, dtype=np.uint8)
    lr[0, :3] = 0  # a little no-data never hurts
    patch = Patch(
        id=pid,
        s2=BandStack(
            rng.uniform(0, 1e4, (10, size, size)).astype(np.float32),
            S2_SURFACE_BANDS,
        ),
        lr_labels=LabelRaster(lr, Scheme.SIMPLIFIED10),
        s1=BandStack(
            rng.uniform(-25, 0, (2, size, size)).astype(np.float32), ("VV", "VH")
        ),
        hr_labels=LabelRaster(lr.copy(), Scheme.SIMPLIFIED10) if fill == 10 else None,
    )
    patches.append(patch)
    write_patch(patch, out / f"{pid}.wlcb")
    print(f"wrote {pid}.wlcb  ({len(patch_to_bytes(patch))} bytes, "
          f"hr={'yes' if patch.hr_labels is not None else 'no'})")

# 2. the round trip is byte-exact, not merely value-exact
back = read_patch(out / "tile-a.wlcb")
assert patch_to_bytes(back) == patch_to_bytes(patches[0])
print("round trip: byte-identical")

# 3. a manifest names the split; subsampling is seeded and reproducible
manifest = SplitManifest("demo", SplitRole.TRAIN, ("tile-a", "tile-b"))
save_manifest(manifest, out / "manifest.json")
again = load_manifest(out / "manifest.json")
half = subsample_manifest(again, 1, seed=4)
print(f"manifest {again.name!r} role={again.role.value} ids={list(again.patch_ids)}")
print(f"subsampled -> {half.name!r} ids={list(half.patch_ids)}")

# 4. split-level statistics
hist = class_histogram(iter_patches(again, out), which="lr")
print("\nclass histogram over LR labels:")
for name, c, f in zip(SIMPLIFIED_CLASS_NAMES, hist.counts, hist.fractions):
    if c:
        print(f"  {name:<15} {int(c):>4} px  {f:.3f}")
# entry i-1 counts the patches showing exactly i distinct classes
print("classes-per-patch histogram:", hist.classes_per_patch)
tmp.cleanup()
