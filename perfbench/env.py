"""Process environment for the benchmark: source path and BLAS threads.

prepare() must run before numpy is first imported, because BLAS reads
its thread count once, at load time.
"""
from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BLAS_THREADS = "1"
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def prepare() -> None:
    """Pin BLAS to one thread and import parcornet from this checkout's src/.

    Raises FileNotFoundError when the checkout has no src/parcornet, so
    an installed copy can never stand in for the code under test.
    """
    if not (SRC / "parcornet" / "__init__.py").is_file():
        raise FileNotFoundError(f"no parcornet sources under {SRC}")
    for var in BLAS_VARS:
        os.environ[var] = BLAS_THREADS
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def nproc() -> int:
    return len(os.sched_getaffinity(0))
