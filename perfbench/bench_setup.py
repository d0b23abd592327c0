"""Make the checkout's own switchosc importable, single-threaded.

Imported first by every benchmark module: the thread variables must be set
before numpy is loaded, and the program must come from ``<checkout>/src``,
never from an installed copy.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


class ProgramMissing(RuntimeError):
    """The checkout holds no importable switchosc source tree."""


def single_threaded_env() -> dict:
    return {**os.environ, **{var: "1" for var in THREAD_VARS}}


os.environ.update(single_threaded_env())


def import_program():
    """Import switchosc from ``<checkout>/src`` and return the package."""
    if not (SRC / "switchosc" / "__init__.py").is_file():
        raise ProgramMissing(f"no switchosc sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import switchosc

    origin = Path(switchosc.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise ProgramMissing(f"switchosc was imported from {origin}, not from {SRC}")
    return switchosc
