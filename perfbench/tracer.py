"""Per-layer tracing of ``hopfexact`` from outside the package.

The tracer replaces public functions and methods with wrappers that record a
span (name, start, end, parent) around each call.  A function imported with
``from .linalg import kernel`` is bound separately in every importing module,
so each binding of a wrapped function object is replaced, not only the one in
its defining module.  Class methods are patched on the class, which covers
every caller.

Two kinds of boundary are too hot for one stored span per call:

* field operations are only counted;
* leaf layers (``Mat @ Mat``, ``MultiPoly * MultiPoly``) are timed per call,
  and their time is charged to the enclosing span, but no span record is kept.

A layer's self time is its span time minus the time of the traced spans
nested inside it.  Spans and counts live in memory until :meth:`Tracer.dump`.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter, defaultdict
from pathlib import Path
from typing import Callable, Optional

_clock = time.perf_counter


class Tracer:
    def __init__(self, hx):
        self.hx = hx
        self.spans: list[tuple[str, float, float, int]] = []
        self.counts: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        # frames of open spans: [span index, name, start, child time]
        self._stack: list[list] = []
        self._undo: list[Callable[[], None]] = []

    # -- wrappers ------------------------------------------------------------

    def _span(self, name: str, fn: Callable, *,
              before: Optional[Callable] = None,
              after: Optional[Callable] = None) -> Callable:
        """A wrapper that records one span per call.

        ``before(*args, **kwargs)`` sees the arguments; ``after(result)``
        sees the result and may return another span name to charge the call
        to.  A typed refusal is counted as ``<name>_refused``.
        """
        spans, stack, counts = self.spans, self._stack, self.counts
        self_s = self.self_s
        refusal = self.hx.errors.HopfExactError

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(*args, **kwargs)
            frame = [len(spans), name, _clock(), 0.0]
            spans.append(None)
            stack.append(frame)
            final = name
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    final = after(result) or name
                return result
            except refusal:
                counts[name + "_refused"] += 1
                raise
            finally:
                end = _clock()
                stack.pop()
                duration = end - frame[2]
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[3] += duration
                spans[frame[0]] = (final, frame[2], end,
                                   parent[0] if parent else -1)
                counts[final] += 1
                self_s[final] += duration - frame[3]
        return wrapper

    def _leaf(self, name: str, fn: Callable,
              counted_parents: frozenset = frozenset()) -> Callable:
        """A wrapper for a hot call with no traced children.  A call made
        directly inside a span named in ``counted_parents`` also adds one to
        that span's ``_candidates`` counter."""
        stack, counts, self_s = self._stack, self.counts, self.self_s

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = _clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = _clock() - start
                counts[name] += 1
                self_s[name] += duration
                if stack:
                    stack[-1][3] += duration
                    if stack[-1][1] in counted_parents:
                        counts[stack[-1][1] + "_candidates"] += 1
        return wrapper

    def _count_field_mul(self, fn: Callable) -> Callable:
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(x, y):
            counts["field.mul"] += 1
            if x.ctx.has_layer:
                counts["field.layer_mul"] += 1
            return fn(x, y)
        return wrapper

    def _count(self, name: str, fn: Callable) -> Callable:
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    # -- installation --------------------------------------------------------

    def _rebind(self, original: Callable, wrapper: Callable) -> None:
        """Point every module-level binding of ``original`` at ``wrapper``."""
        found = False
        for module in vars(self.hx).values():
            names = [k for k, v in vars(module).items() if v is original]
            for key in names:
                setattr(module, key, wrapper)
                self._undo.append(
                    functools.partial(setattr, module, key, original))
                found = True
        if not found:
            raise LookupError(f"no module binds {original.__qualname__}")

    def _patch(self, cls: type, attrs: tuple[str, ...], wrapper: Callable
               ) -> None:
        for attr in attrs:
            original = cls.__dict__[attr]
            setattr(cls, attr, wrapper)
            self._undo.append(functools.partial(setattr, cls, attr, original))

    def install(self) -> None:
        hx = self.hx
        fe, mat = hx.field.FieldElement, hx.linalg.Mat
        poly = hx.poly.MultiPoly
        self._patch(fe, ("__mul__", "__rmul__"),
                    self._count_field_mul(fe.__mul__))
        self._patch(fe, ("inverse",), self._count("field.inv", fe.inverse))
        self._patch(mat, ("__matmul__",),
                    self._leaf("linalg.matmul", mat.__matmul__,
                               frozenset({"algebra.closure"})))
        self._patch(poly, ("__mul__", "__rmul__"),
                    self._leaf("poly.mul", poly.__mul__))
        verify = hx.replay.VanishingReport.verify
        self._patch(hx.replay.VanishingReport, ("verify",),
                    self._span("replay.verify", verify))

        counts = self.counts

        def tally(key: str, size: Callable) -> Callable:
            def before(*args, **kwargs) -> None:
                counts[key] += size(*args, **kwargs)
            return before

        def closure_basis(basis) -> None:
            counts["algebra.closure_basis"] += len(basis)

        def by_method(verdict) -> str:
            return f"exactness.{verdict.method}"

        spans = [
            (hx.linalg.rref, "linalg.rref", dict(before=tally(
                "linalg.rref_cells", lambda m: m.nrows * m.ncols))),
            (hx.linalg.solve, "linalg.rref", dict(before=tally(
                "linalg.rref_cells", lambda m, rhs: m.nrows * (m.ncols + 1)))),
            (hx.linalg.inverse, "linalg.rref", dict(before=tally(
                "linalg.rref_cells", lambda m: m.nrows * 2 * m.ncols))),
            (hx.linalg.spin, "linalg.spin", {}),
            (hx.algebra.generated_operator_algebra, "algebra.closure", dict(
                before=tally("algebra.closure_candidates",
                             lambda gens, include_identity=True:
                             len(gens) + int(include_identity)),
                after=closure_basis)),
            (hx.hopf.check_hopf, "hopf.check", {}),
            (hx.comodule.check_comodule_algebra, "comodule.check", {}),
            (hx.exactness.check_exactness, "exactness.check",
             dict(after=by_method)),
            (hx.morita.simple_modules, "morita.split", {}),
            (hx.morita.simple_modules_split, "morita.split", {}),
            (hx.morita.intertwiners, "morita.intertwiners", {}),
            (hx.morita.fusion_fingerprint, "morita.fusion", {}),
            (hx.morita.colinear_iso_search, "morita.iso", {}),
            (hx.poly.concrete_solutions, "poly.solve", {}),
            (hx.replay.associativity_constraints, "replay.constraints", {}),
            (hx.replay.eliminate, "replay.eliminate", {}),
            (hx.replay.verify_combination, "replay.verify", {}),
            (hx.constructions.catalog, "constructions.catalog", {}),
        ]
        for fn, name, options in spans:
            self._rebind(fn, self._span(name, fn, **options))

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    # -- results -------------------------------------------------------------

    def dump(self, path: Path, meta: dict) -> None:
        """Write the spans and counters collected so far as JSON."""
        path.parent.mkdir(parents=True, exist_ok=True)
        names = sorted({s[0] for s in self.spans if s is not None})
        index = {n: i for i, n in enumerate(names)}
        payload = {
            **meta,
            "span_names": names,
            "spans": [[index[s[0]], round(s[1], 7), round(s[2], 7), s[3]]
                      for s in self.spans if s is not None],
            "counts": dict(self.counts),
            "self_s": dict(self.self_s),
        }
        path.write_text(json.dumps(payload, separators=(",", ":")))
