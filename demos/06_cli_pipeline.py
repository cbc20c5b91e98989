"""Drive the whole benchmark from the command line, no Python API needed.

Every command prints one JSON line and exits 0/1/2, which makes the tool
easy to stitch into shell pipelines. Seeded runs are byte-reproducible.
This script shells out exactly as a user would:

  synth -> stats -> train -> predict -> evaluate -> transition -> render
"""

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

tmp = tempfile.TemporaryDirectory(prefix="wlcbench-demo6-")
root = Path(tmp.name)

# The commands run inside `root`, so hand them this checkout's src/ by its
# absolute path; an installed package or a relative PYTHONPATH is not needed.
src = Path(__file__).resolve().parent.parent / "src"
env = {
    **os.environ,
    "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])),
}


def wlcbench(*argv):
    cmd = [sys.executable, "-m", "wlcbench.cli", *map(str, argv)]
    print(f"$ wlcbench {' '.join(map(str, argv))}")
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=root, env=env)
    if proc.returncode != 0:
        sys.exit(f"command failed ({proc.returncode}): {proc.stderr.strip()}")
    doc = json.loads(proc.stdout.splitlines()[-1])
    return doc


size = ["--size", 64, "--block-factor", 8]

# two disjoint splits: fit on one, score on the other
doc = wlcbench("synth", "--out", "train", "--seed", 11, "--n-scenes", 8, *size)
print(f"  {doc['scenes']} scenes -> {doc['out']}")
doc = wlcbench("synth", "--out", "test", "--seed", 12, "--n-scenes", 4, *size,
               "--role", "validation")
print(f"  {doc['scenes']} scenes -> {doc['out']}")

doc = wlcbench("stats", "--manifest", "train/manifest.json", "--data-dir", "train")
top = sorted(doc["class_fractions"].items(), key=lambda kv: -kv[1])[:3]
print("  top classes:", ", ".join(f"{n} {f:.2f}" for n, f in top))

doc = wlcbench("train", "--model", "rf", "--trees", 20, "--depth", 8,
               "--manifest", "train/manifest.json", "--data-dir", "train",
               "--out", "rf.wlcm", "--seed", 1)
print(f"  {doc['training_rows']} rows -> {doc['out']} (curve: {doc['curve']})")

doc = wlcbench("predict", "--model-file", "rf.wlcm",
               "--manifest", "test/manifest.json", "--data-dir", "test",
               "--out", "pred")
print(f"  wrote {doc['patches']} predicted containers")

# predictions live in the LR slot of the copied containers
doc = wlcbench("evaluate", "--manifest", "test/manifest.json", "--data-dir", "test")
print(f"  weak-label floor : AA={doc['aa']:.3f} OA={doc['oa']:.3f}")
doc = wlcbench("evaluate", "--manifest", "pred/manifest.json", "--data-dir", "pred")
print(f"  forest prediction: AA={doc['aa']:.3f} OA={doc['oa']:.3f} mIoU={doc['miou']:.3f}")

doc = wlcbench("transition", "--manifest", "test/manifest.json", "--data-dir", "test",
               "--out", "transition.csv")
sav = doc["row_support"]["Savanna"]
print(f"  transition matrix -> transition.csv ({sav} Savanna-labeled pixels)")

doc = wlcbench("render", "--manifest", "pred/manifest.json", "--data-dir", "pred",
               "--which", "lr", "--out", "maps")
print(f"  {doc['rendered']} maps -> {doc['out']}")

print("\neverything it wrote:")
for path in sorted(root.rglob("*")):
    if path.is_file():
        print(f"  {path.relative_to(root)}  ({path.stat().st_size} bytes)")
tmp.cleanup()
