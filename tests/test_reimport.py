"""A fresh import of the package must not keep an earlier import alive.

Module-level ``typing.Union[...]`` aliases would: typing caches every
subscripted union process-wide, and the cached union holds the classes.
"""

import gc
import importlib
import sys
import weakref

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
