"""Fresh imports of the package.

A fresh import must not keep an earlier import alive.  Module-level
``typing.Union[...]`` aliases would: typing caches every subscripted union
process-wide, and the cached union holds the classes.

The benchmark's tracer (``perfbench/tracer.py``) wraps named functions of a
freshly imported package; it must still find every one of them.

The benchmark's set-up (``build`` of ``perfbench/workloads.py``) must decide
no verdict: a pass that found one stored on its inputs, or a filled replay
cache, would time less than a fresh command-line run does.
"""

import gc
import importlib
import importlib.util
import sys
import weakref
from pathlib import Path
from types import SimpleNamespace

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACER = PERFBENCH / "tracer.py"

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


# the verdicts an object stores once decided: Light's test, the comodule
# algebra axioms and exactness, with the generators and the multiplication
# matrix they are read from
STORED_VERDICTS = ("_associative", "_axiom_problems", "_exactness",
                   "_generators", "_mult_matrix")


def _load_workloads():
    """``perfbench/workloads.py``, with the benchmark modules it imports by
    their plain names, left outside ``sys.modules`` afterwards."""
    # its dataclasses look their module up while they are made
    names = ("oracle", "transport", "perfbench_workloads")
    before = {n: sys.modules[n] for n in names if n in sys.modules}
    sys.path.insert(0, str(PERFBENCH))
    try:
        spec = importlib.util.spec_from_file_location(
            "perfbench_workloads", PERFBENCH / "workloads.py")
        workloads = sys.modules[spec.name] = \
            importlib.util.module_from_spec(spec)
        spec.loader.exec_module(workloads)
    finally:
        sys.path.remove(str(PERFBENCH))
        for n in names:
            sys.modules.pop(n, None)
        sys.modules.update(before)
    return workloads


def test_the_benchmark_set_up_decides_no_verdict():
    workloads = _load_workloads()
    saved = _package_modules()
    try:
        for name in sorted(workloads.EXPECTED_LAYERS):
            _drop_package()
            hx = SimpleNamespace(**{m: importlib.import_module(f"hopfexact.{m}")
                                    for m in MODULES})
            wl = workloads.build(hx, name, 1)
            held = [*wl.inputs, *(a.hopf for a in wl.inputs
                                  if hasattr(a, "hopf"))]
            # and every kp built at set-up
            for kp in hx.constructions._KP.values():
                held.append(kp)
            decided = [(repr(a), v) for a in held if a is not None
                       for v in STORED_VERDICTS
                       if getattr(a, v, None) is not None]
            assert decided == [], name
            assert hx.replay._REPLAY_CACHE == {}, name
    finally:
        _drop_package()
        sys.modules.update(saved)
