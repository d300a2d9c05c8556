"""Benchmark of the qndsim command layer and the modules beneath it.

``python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1``
runs one seeded workload against the package sources of this checkout
(``src/qndsim``) and prints its metrics; see ``perfbench/README.md``.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


class MissingSource(RuntimeError):
    """The checkout holds no ``src/qndsim`` package to benchmark."""


def use_checkout_source() -> None:
    """Put this checkout's ``src`` first on ``sys.path``.

    The benchmark measures the package as it stands in the checkout, never an
    installed copy, so a checkout without ``src/qndsim`` is an error.
    """
    if not (SRC / "qndsim" / "__init__.py").is_file():
        raise MissingSource(f"no qndsim package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
