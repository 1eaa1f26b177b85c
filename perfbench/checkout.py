"""Locate the scoutplan sources next to the benchmark and import them.

The benchmark always measures the package in the same checkout as itself
(``<checkout>/src/scoutplan``), never an installed copy, and pins OpenBLAS
to one thread before numpy loads.  The dense basis inverse in the simplex
goes through BLAS, and a different thread count sums in another order, which
can change pivots and therefore the branch-and-bound tree; a fixed count
keeps the answers the same on machines with any number of CPUs.  One thread
is also the steadier measure on a shared host: with two, every small BLAS
call waits for a second CPU, which more than doubles the tiny solves' time
and makes it depend on what the rest of the machine is doing.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
ABLATION8 = ROOT / "scenarios" / "ablation8.json"
OUT = Path(__file__).resolve().parent / "out"

BLAS_THREADS = 1


class MissingProgram(RuntimeError):
    """The checkout does not hold the program the benchmark measures."""


def prepare() -> None:
    """Pin BLAS threads and import scoutplan from this checkout's src/.

    Raises MissingProgram when src/scoutplan or the bundled scenario is
    absent, or when another copy of scoutplan shadows this one.
    """
    for path in (SRC / "scoutplan" / "__init__.py", ABLATION8):
        if not path.is_file():
            raise MissingProgram(f"{path.relative_to(ROOT)} not found under {ROOT}")
    os.environ["OPENBLAS_NUM_THREADS"] = str(BLAS_THREADS)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import scoutplan

    origin = Path(scoutplan.__file__).resolve().parent
    if origin != SRC / "scoutplan":
        raise MissingProgram(f"scoutplan imported from {origin}, not {SRC}")
