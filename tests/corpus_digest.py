"""Usage: python tests/corpus_digest.py OUT.json

Runs acceptance criterion 10's commands and one pass of each perfbench
workload plan at seeds 1 and 9001 through ``wlcbench.cli.main``, each in a
fresh temporary directory, and writes the sha256 of every output file and
of every stdout line as JSON: two checkouts that write the same bytes write
the same JSON. Not a test: pytest does not collect it.
"""

import contextlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

sys.dont_write_bytecode = True  # import perfbench/run.py without writing next to it
ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(ROOT / "perfbench")]

from wlcbench.entry import prepare_process  # noqa: E402

prepare_process()  # as the wlcbench command runs, before numpy loads

import hashlib  # noqa: E402  (after prepare_process: no _hashlib, as in the command)

import run as perfbench  # noqa: E402
from test_acceptance import _run_cli_corpus  # noqa: E402
from wlcbench.cli import main  # noqa: E402


def run_plan(workload: str, seed: int) -> None:
    for step in perfbench.plan(workload, seed, smoke=False):
        if main(list(step.argv)) != 0:
            raise SystemExit(f"{workload} at seed {seed} failed: {' '.join(step.argv)}")


def digest(name: str, job, out: dict) -> None:
    """Run job in a fresh working directory; record the sha256 of each file
    it leaves there and of each line it prints."""
    sha = lambda data: hashlib.sha256(data).hexdigest()  # noqa: E731
    here, printed = os.getcwd(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            with contextlib.redirect_stdout(printed):
                job()
        finally:
            os.chdir(here)
        for path in sorted(Path(tmp).rglob("*")):
            if path.is_file():
                out[f"{name}/{path.relative_to(tmp)}"] = sha(path.read_bytes())
    for i, line in enumerate(printed.getvalue().splitlines()):
        out[f"{name}/stdout/{i}"] = sha(line.encode())


if __name__ == "__main__":
    if len(sys.argv) != 2:
        raise SystemExit(__doc__)
    digests: dict[str, str] = {}
    digest("corpus", lambda: _run_cli_corpus(Path("corpus")), digests)
    for workload in perfbench.WORKLOADS:
        for seed in (1, 9001):
            digest(f"{workload}-{seed}", lambda: run_plan(workload, seed), digests)
    Path(sys.argv[1]).write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
