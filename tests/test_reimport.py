"""Fresh imports of the package.

A fresh import must not keep an earlier import alive.  Module-level
``typing.Union[...]`` aliases would: typing caches every subscripted union
process-wide, and the cached union holds the classes.

The benchmark's tracer (``perfbench/tracer.py``) wraps named functions of a
freshly imported package; it must still find every one of them.
"""

import gc
import importlib
import importlib.util
import sys
import weakref
from pathlib import Path
from types import SimpleNamespace

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"

MODULES = ("errors", "field", "linalg", "algebra", "hopf", "comodule",
           "constructions", "exactness", "morita", "poly", "replay")


def _package_modules() -> dict:
    return {k: v for k, v in sys.modules.items()
            if k == "hopfexact" or k.startswith("hopfexact.")}


def _drop_package() -> None:
    for name in _package_modules():
        del sys.modules[name]


def _fresh_field_element_ref() -> weakref.ref:
    _drop_package()
    for m in MODULES:
        importlib.import_module(f"hopfexact.{m}")
    return weakref.ref(sys.modules["hopfexact.field"].FieldElement)


def test_reimport_releases_the_old_modules():
    saved = _package_modules()
    try:
        ref = _fresh_field_element_ref()
        assert ref() is not None
        _drop_package()
        for m in MODULES:
            importlib.import_module(f"hopfexact.{m}")
        gc.collect()
        assert ref() is None
    finally:
        _drop_package()
        sys.modules.update(saved)


def test_tracer_finds_every_function_it_wraps():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer_module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer_module)
    saved = _package_modules()
    try:
        _drop_package()
        hx = SimpleNamespace(**{m: importlib.import_module(f"hopfexact.{m}")
                                for m in MODULES})
        tracer = tracer_module.Tracer(hx)
        # raises when a function it wraps is gone or renamed
        tracer.install()
        assert hasattr(hx.linalg.rref, "__wrapped__")
        tracer.uninstall()
        assert not hasattr(hx.linalg.rref, "__wrapped__")
    finally:
        _drop_package()
        sys.modules.update(saved)
