"""The seeded change of basis of ``perfbench/transport.py``, for tests.

The benchmark's module is loaded by its path under a private name that is
kept out of ``sys.modules``, and called with the package modules it reads.
"""

import importlib.util
from pathlib import Path
from types import SimpleNamespace

from hopfexact import comodule, linalg

_spec = importlib.util.spec_from_file_location(
    "_perfbench_transport",
    Path(__file__).resolve().parents[1] / "perfbench" / "transport.py")
_benchmark = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_benchmark)
_HX = SimpleNamespace(comodule=comodule, linalg=linalg)


def transport(a, rng):
    """The comodule algebra ``a`` in the basis of a seeded P = L*U, moved
    as ``transport`` of ``perfbench/transport.py`` moves it."""
    return _benchmark.transport(_HX, a, rng)
