"""Process entry of the ``wlcbench`` command.

OpenBLAS sizes its thread pool when numpy loads. The commands' products are
small (n×d by d×k with d <= 12), and a second BLAS thread costs more CPU
than it saves wall time, so a process started as the command runs one BLAS
thread unless its environment sets a count. Importing this module, or any
other wlcbench module, leaves the environment as it is.
"""

from __future__ import annotations

import os

BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")


def one_blas_thread() -> None:
    """Set each BLAS thread-count variable the environment leaves unset to
    1. Has an effect only before numpy loads."""
    for name in BLAS_THREAD_VARIABLES:
        os.environ.setdefault(name, "1")


def run() -> None:
    """The ``wlcbench`` script: one BLAS thread by default, then ``cli.run``."""
    one_blas_thread()
    from .cli import run as run_cli

    run_cli()
