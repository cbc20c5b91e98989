"""Process entry of the ``wlcbench`` command.

A process started as the command is prepared before numpy loads, three
ways, each only where its environment says nothing else:

- one BLAS thread. OpenBLAS sizes its thread pool when numpy loads. The
  commands' products are small (n×d by d×k with d <= 12), and a second
  BLAS thread costs more CPU than it saves wall time;
- no huge pages (``NUMPY_MADVISE_HUGEPAGE=0``). numpy advises huge pages on
  arrays of 4 MB or more, so whether the kernel backs ``train``'s band
  matrix with one decided its peak RSS;
- no OpenSSL. ``numpy.random`` imports ``secrets``, which imports ``hmac``
  and through it ``_hashlib``, mapping ``libcrypto`` (about 3.3 MB resident).
  With ``_hashlib`` marked missing, ``hashlib`` and ``hmac`` use their
  built-in fallbacks (``compare_digest`` is ``_operator._compare_digest``).
  wlcbench hashes nothing and seeds every generator it draws from.

The last two took the peak RSS of ``train --model kmeans`` on eight 32 px
scenes from 39.5 to 36.4 MB, and of a logreg ``train`` on 400 32 px
patches from 47.4 to 42.5 MB (of that, roughly 3.7 MB from OpenSSL and
1.2 MB from huge pages, a split from separate runs not repeated since).
Importing this module, or any other wlcbench
module, leaves the process as it is.
"""

from __future__ import annotations

import os
import sys

BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")


def prepare_process() -> None:
    """Set each BLAS thread-count variable the environment leaves unset to
    1 and an unset ``NUMPY_MADVISE_HUGEPAGE`` to 0, and mark ``_hashlib``
    missing unless it has loaded. Has an effect only before numpy loads."""
    for name in BLAS_THREAD_VARIABLES:
        os.environ.setdefault(name, "1")
    os.environ.setdefault("NUMPY_MADVISE_HUGEPAGE", "0")
    sys.modules.setdefault("_hashlib", None)


def run() -> None:
    """The ``wlcbench`` script: ``prepare_process``, then ``cli.run``."""
    prepare_process()
    from .cli import run as run_cli

    run_cli()
