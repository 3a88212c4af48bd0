"""Sparse multivariate polynomials over a field context, plus a small exact
solver for the zero-dimensional systems produced elsewhere in the package.

Variables are plain strings; a monomial is a sorted tuple of (name, exponent)
pairs.  Coefficients are :class:`~hopfexact.field.FieldElement` values, so the
arithmetic stays exact whatever the base field looks like.

A polynomial is a *term dict* mapping monomials to coefficients, and the
invariant is that no stored coefficient is ever zero.  The public
constructor ``MultiPoly(ctx, terms)`` filters zeros out of whatever it is
given; the internal constructor :func:`_poly` takes a fresh dict that already
holds no zero coefficient and wraps it without copying or filtering, so it
must only ever see a dict that nothing else will mutate.

The ring operations run through one fused kernel, :func:`_addmul`, which
adds ``+-a*b`` into a term dict in place (the sparse-polynomial accumulation
of Monagan and Pearce, without intermediate sums): a monomial whose sum
cancels is deleted, and a product that is zero is never stored -- a
perfect-square quadratic layer has zero divisors, so two nonzero
coefficients can multiply to zero.  ``+``, ``-``, negation, ``*`` and
:meth:`MultiPoly.substitute` are thin wrappers around it, and callers that
build many sums of products (the isomorphism search of
:mod:`~hopfexact.morita`) accumulate into term dicts with it directly.  The
associativity constraints of :mod:`~hopfexact.replay` form each product of
two table entries once, as a list of terms (:func:`_product_terms`), and add
it wherever it recurs with :func:`_addterms`, the kernel's sum step.

The solver enumerates *all* solutions of a polynomial system by repeatedly
eliminating a variable: isolating one that occurs linearly with an invertible
constant coefficient, or branching over the complete root list of a univariate
equation.  It refuses to guess: a system it cannot reduce raises instead of
returning a partial answer.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Optional, Sequence, Union

from .errors import HopfExactError
from .field import FieldContext, FieldElement, polynomial_roots

Monomial = tuple[tuple[str, int], ...]
Terms = dict[Monomial, FieldElement]

_ONE: Monomial = ()


def _mono_mul(a: Monomial, b: Monomial) -> Monomial:
    if not a:
        return b
    if not b:
        return a
    out = dict(a)
    for name, exp in b:
        out[name] = out.get(name, 0) + exp
    return tuple(sorted(out.items()))


def _addterms(out: Terms, items: Iterable[tuple[Monomial, FieldElement]]
              ) -> None:
    """Add nonzero ``(monomial, coefficient)`` terms into the term dict
    ``out`` one by one, in place; a monomial whose sum cancels is deleted.
    ``items`` may repeat a monomial."""
    for mono, c in items:
        old = out.get(mono)
        if old is None:
            out[mono] = c
        else:
            total = old + c
            if not any(total.num):
                del out[mono]
            else:
                out[mono] = total


def _addmul(out: Terms, a: Mapping[Monomial, FieldElement],
            b: Optional[Mapping[Monomial, FieldElement]],
            negate: bool = False) -> None:
    """``out += a*b`` (``out -= a*b`` when ``negate``), in place.

    ``out`` is a term dict; ``a`` and ``b`` hold no zero coefficient, and
    ``b=None`` stands for the constant polynomial 1 (plain ``out += a``, no
    multiplications).  A monomial whose sum cancels is deleted and a zero
    product is never stored, so ``out`` keeps the no-zero invariant.
    ``out`` must not be ``a`` or ``b``.
    """
    if b is None:
        _addterms(out, ((m, -c) for m, c in a.items()) if negate
                  else a.items())
        return
    for m1, c1 in a.items():
        if negate:
            c1 = -c1
        for m2, c2 in b.items():
            mono = _mono_mul(m1, m2)
            prod = c1 * c2
            old = out.get(mono)
            if old is None:
                if any(prod.num):
                    out[mono] = prod
            else:
                total = old + prod
                if not any(total.num):
                    del out[mono]
                else:
                    out[mono] = total


def _product_terms(a: Mapping[Monomial, FieldElement],
                   b: Mapping[Monomial, FieldElement]
                   ) -> list[tuple[Monomial, FieldElement]]:
    """The nonzero terms of ``a*b``, one per pair of terms, in the order in
    which :func:`_addmul` forms them; terms that share a monomial are kept
    apart, so ``_addterms(out, _product_terms(a, b))`` is ``_addmul(out, a,
    b)``."""
    return [(_mono_mul(m1, m2), prod) for m1, c1 in a.items()
            for m2, c2 in b.items() if any((prod := c1 * c2).num)]


def _poly(ctx: FieldContext, terms: Terms) -> "MultiPoly":
    """Wrap a fresh term dict that holds no zero coefficient (not copied)."""
    p = _new_poly(MultiPoly)
    _set_ctx(p, ctx)
    _set_terms(p, terms)
    return p


class MultiPoly:
    """Immutable sparse polynomial; ``terms`` maps monomials to nonzero
    coefficients."""

    __slots__ = ("ctx", "terms")

    def __init__(self, ctx: FieldContext, terms: Mapping[Monomial, FieldElement]):
        _set_ctx(self, ctx)
        _set_terms(self, {m: c for m, c in terms.items() if not c.is_zero()})

    def __setattr__(self, name, value):
        raise AttributeError("MultiPoly is immutable")

    # -- constructors ---------------------------------------------------------

    @classmethod
    def const(cls, ctx: FieldContext, value) -> "MultiPoly":
        c = value if isinstance(value, FieldElement) else ctx.scalar(value)
        return _poly(ctx, {} if c.is_zero() else {_ONE: c})

    @classmethod
    def var(cls, ctx: FieldContext, name: str) -> "MultiPoly":
        return _poly(ctx, {((name, 1),): ctx.one()})

    # -- structure ------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def as_constant(self) -> Optional[FieldElement]:
        if not self.terms:
            return self.ctx.zero()
        if len(self.terms) == 1 and _ONE in self.terms:
            return self.terms[_ONE]
        return None

    def variables(self) -> set[str]:
        return {name for mono in self.terms for name, _ in mono}

    def degree_in(self, name: str) -> int:
        deg = 0
        for mono in self.terms:
            for v, e in mono:
                if v == name:
                    deg = max(deg, e)
        return deg

    def coefficient_of(self, name: str, power: int) -> "MultiPoly":
        """The polynomial coefficient of name**power (name removed)."""
        out = {}
        for mono, c in self.terms.items():
            exp = dict(mono).get(name, 0)
            if exp == power:
                rest = tuple((v, e) for v, e in mono if v != name)
                out[rest] = out.get(rest, self.ctx.zero()) + c
        return MultiPoly(self.ctx, out)

    def univariate_in(self) -> Optional[tuple[str, list[FieldElement]]]:
        """If the polynomial mentions exactly one variable, its coefficient
        list (low to high); otherwise None."""
        names = self.variables()
        if len(names) != 1:
            return None
        name = next(iter(names))
        deg = self.degree_in(name)
        coeffs = [self.ctx.zero()] * (deg + 1)
        for mono, c in self.terms.items():
            exp = dict(mono).get(name, 0)
            coeffs[exp] = coeffs[exp] + c
        return name, coeffs

    # -- arithmetic -----------------------------------------------------------

    def _lift(self, other) -> "MultiPoly":
        if isinstance(other, MultiPoly):
            return other
        return MultiPoly.const(self.ctx, other)

    def __add__(self, other) -> "MultiPoly":
        out = dict(self.terms)
        _addmul(out, self._lift(other).terms, None)
        return _poly(self.ctx, out)

    __radd__ = __add__

    def __neg__(self) -> "MultiPoly":
        out: Terms = {}
        _addmul(out, self.terms, None, negate=True)
        return _poly(self.ctx, out)

    def __sub__(self, other) -> "MultiPoly":
        out = dict(self.terms)
        _addmul(out, self._lift(other).terms, None, negate=True)
        return _poly(self.ctx, out)

    def __rsub__(self, other) -> "MultiPoly":
        out = dict(self._lift(other).terms)
        _addmul(out, self.terms, None, negate=True)
        return _poly(self.ctx, out)

    def __mul__(self, other) -> "MultiPoly":
        out: Terms = {}
        _addmul(out, self.terms, self._lift(other).terms)
        return _poly(self.ctx, out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "MultiPoly":
        if n < 0:
            raise ValueError("negative powers of polynomials are not defined")
        result = MultiPoly.const(self.ctx, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __eq__(self, other) -> bool:
        if not isinstance(other, MultiPoly):
            other = self._lift(other)
        return self.ctx == other.ctx and self.terms == other.terms

    def __hash__(self):
        return hash((self.ctx, tuple(sorted(self.terms.items(),
                                            key=lambda kv: kv[0]))))

    def substitute(self, assignment: Mapping[str, Union[FieldElement, "MultiPoly"]]
                   ) -> "MultiPoly":
        """Replace variables by constants or polynomials.

        A constant value is folded into each term's coefficient
        (``c * value**exp``); polynomial values are multiplied in through
        :func:`_addmul`.
        """
        if not assignment:
            return self
        out: Terms = {}
        for mono, c in self.terms.items():
            kept = []
            factors = []
            for name, exp in mono:
                value = assignment.get(name)
                if value is None:
                    kept.append((name, exp))
                elif isinstance(value, MultiPoly):
                    factors.append(value ** exp)
                else:
                    c = c * value ** exp
            if c.is_zero():
                continue
            term = {tuple(kept): c}
            for f in factors:
                prod: Terms = {}
                _addmul(prod, term, f.terms)
                term = prod
            _addmul(out, term, None)
        return _poly(self.ctx, out)

    def __repr__(self):
        if not self.terms:
            return "0"
        parts = []
        for mono, c in sorted(self.terms.items()):
            factors = [f"{v}^{e}" if e > 1 else v for v, e in mono]
            body = "*".join(factors)
            coeff = repr(c)
            parts.append(f"({coeff})*{body}" if body else f"({coeff})")
        return " + ".join(parts)


_new_poly = object.__new__
_set_ctx = MultiPoly.ctx.__set__
_set_terms = MultiPoly.terms.__set__


# -- exact enumeration of zero-dimensional systems -----------------------------


def _find_linear_isolation(eqs: Sequence[MultiPoly]
                           ) -> Optional[tuple[int, str, MultiPoly]]:
    """An equation of the form c*v + rest = 0 with c a nonzero constant and
    rest free of v; returns (equation index, v, solved expression for v)."""
    for idx, eq in enumerate(eqs):
        for name in sorted(eq.variables()):
            if eq.degree_in(name) != 1:
                continue
            coeff = eq.coefficient_of(name, 1).as_constant()
            if coeff is None or coeff.is_zero():
                continue
            rest = eq.coefficient_of(name, 0)
            if name in rest.variables():
                continue
            solved = rest * (-coeff.inverse())
            return idx, name, solved
    return None


def _resolve_assignments(assignments: dict[str, MultiPoly]
                         ) -> dict[str, FieldElement]:
    """Back-substitute expression assignments until every value is constant."""
    out: dict[str, FieldElement] = {}
    pending = dict(assignments)
    while pending:
        progressed = False
        for name in list(pending):
            value = pending[name].substitute(out)
            const = value.as_constant()
            if const is not None:
                out[name] = const
                del pending[name]
                progressed = True
            else:
                pending[name] = value
        if not progressed:
            raise HopfExactError(
                f"circular or underdetermined assignments: {sorted(pending)}")
    return out


def concrete_solutions(eqs: Sequence[MultiPoly], ctx: FieldContext
                       ) -> list[dict[str, FieldElement]]:
    """All solutions of the system ``eqs == 0`` over the field context.

    The enumeration is complete: every returned assignment is a solution and
    every solution appears.  Raises when the system is underdetermined or
    needs factoring beyond what :func:`polynomial_roots` provides, a
    quadratic whose roots it cannot decide included (see there).
    """
    all_vars = sorted({v for eq in eqs for v in eq.variables()})
    solutions: list[dict[str, FieldElement]] = []
    stack: list[tuple[list[MultiPoly], dict[str, MultiPoly]]] = [
        ([eq for eq in eqs], {})]
    while stack:
        current, assigned = stack.pop()
        current = [eq for eq in current if not eq.is_zero()]
        dead = False
        for eq in current:
            c = eq.as_constant()
            if c is not None and not c.is_zero():
                dead = True
                break
        if dead:
            continue
        current = [eq for eq in current if eq.as_constant() is None]
        if not current:
            resolved = _resolve_assignments(assigned)
            missing = [v for v in all_vars if v not in resolved]
            if missing:
                raise HopfExactError(
                    f"solution set is not finite: {missing} stay free")
            solutions.append(resolved)
            continue
        found = _find_linear_isolation(current)
        if found is not None:
            idx, name, expr = found
            sub = {name: expr}
            rest = [eq.substitute(sub)
                    for k, eq in enumerate(current) if k != idx]
            assigned2 = dict(assigned)
            assigned2[name] = expr
            stack.append((rest, assigned2))
            continue
        branched = False
        for idx, eq in enumerate(current):
            uni = eq.univariate_in()
            if uni is None:
                continue
            name, coeffs = uni
            roots = polynomial_roots(ctx, coeffs)
            if roots is None:
                continue
            for root in roots:
                sub = {name: root}
                rest = [e.substitute(sub)
                        for k, e in enumerate(current) if k != idx]
                assigned2 = dict(assigned)
                assigned2[name] = MultiPoly.const(ctx, root)
                stack.append((rest, assigned2))
            branched = True
            break
        if not branched:
            raise HopfExactError(
                "cannot reduce the polynomial system with the supported rules")
    return solutions
