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

The certified linear elimination, :func:`eliminate`, works on the Macaulay
matrix of a system (Lazard, EUROCAL 1983): each polynomial is one sparse row
of :func:`~hopfexact.linalg._echelon`, with a column per monomial and a
multiplier column per ``(constraint index, monomial)`` that records the
certificate.  Reduction is Gauss-Jordan on the non-constant monomials, and
substituting a pinned variable is a row operation too: the row loses a
polynomial multiple of the pin's row, each term of the multiple shifting
every column's monomial.  The replays of :mod:`~hopfexact.replay` and the
solver below both reduce through it.

The solver enumerates *all* solutions of a polynomial system.  Each system
it meets first goes through one linear pass of :func:`eliminate`; it then
branches over the complete root list of a univariate residual row, or,
failing that, isolates a variable that occurs linearly with an invertible
constant coefficient.  It refuses to guess: a system it cannot reduce
raises instead of returning a partial answer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Sequence, Union

from .errors import HopfExactError
from .field import FieldContext, FieldElement, polynomial_roots
from .linalg import _echelon, _subtract_multiple

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


# -- certified linear elimination ----------------------------------------------


Certificate = dict[int, MultiPoly]


def _is_multiplier(key) -> bool:
    """A multiplier column ``(constraint index, monomial)``; a polynomial
    column is a monomial, a tuple of ``(name, exponent)`` pairs."""
    return bool(key) and isinstance(key[0], int)


def _polynomial_part(row: dict) -> dict:
    return {key: c for key, c in row.items() if not _is_multiplier(key)}


def _shift(row: dict, mono) -> dict:
    """``mono`` times a Macaulay row: every column's monomial times ``mono``."""
    return {(key[0], _mono_mul(key[1], mono)) if _is_multiplier(key)
            else _mono_mul(key, mono): c for key, c in row.items()}


def _certificate(ctx: FieldContext, row: dict) -> Certificate:
    """The multiplier columns of a row, gathered into one polynomial per
    constraint."""
    terms: dict[int, dict] = {}
    for key, c in row.items():
        if _is_multiplier(key):
            terms.setdefault(key[0], {})[key[1]] = c
    return {idx: _poly(ctx, t) for idx, t in terms.items()}


def _mono_degree(mono) -> int:
    return sum(e for _, e in mono)


def _column_key(mono) -> tuple:
    """The pivot order of :func:`eliminate`: highest degree first."""
    return (-_mono_degree(mono), mono)


def _linear_quotient(terms: dict, name: str, value: FieldElement) -> dict:
    """The terms of U with poly == poly.substitute({name: value}) +
    U * (name - value), for the polynomial with the given terms.

    A term ``c * rest * name**e`` contributes ``c * rest`` times
    ``name**(e-1) + name**(e-2) * value + ... + value**(e-1)``, with the
    powers of ``name`` ascending; the terms accumulate into one term dict."""
    out: dict = {}
    powers = [value.ctx.one()]
    for mono, c in terms.items():
        exp = dict(mono).get(name, 0)
        if exp == 0:
            continue
        while len(powers) < exp:
            powers.append(powers[-1] * value)
        rest = tuple((v, e) for v, e in mono if v != name)
        geom = {}
        for t in range(exp):
            v = powers[exp - 1 - t]
            if any(v.num):
                geom[((name, t),) if t else ()] = v
        _addmul(out, {rest: c}, geom)
    return out


@dataclass
class Elimination:
    """Outcome of the iterated linear elimination with provenance.

    ``residual`` holds the reduced constraints left when no new pin
    appears; at a contradiction it is the constant row alone, as the one
    constant polynomial ``contradiction_value``.
    """

    pins: dict[str, FieldElement]
    certificates: dict[str, Certificate]
    residual: list[MultiPoly]
    contradiction: Optional[Certificate]
    contradiction_value: Optional[FieldElement]


def eliminate(constraints: Sequence[MultiPoly]) -> Elimination:
    """Repeatedly row-reduce and substitute pinned variables.

    Each constraint is one sparse row of a Macaulay matrix: a column per
    monomial of the constraint, plus multiplier columns keyed by
    ``(constraint index, monomial)`` that start as the unit vector of the
    constraint and record how the row was formed.  A reduction pass is
    :func:`~hopfexact.linalg._echelon` over the non-constant monomials,
    highest degree first; the constant column and the multiplier columns are
    never pivots.  Every reduced row of the shape ``x - v`` then pins the
    variable ``x``.  Substituting a pin is a row operation too: with
    ``poly == poly.substitute({x: v}) + U * (x - v)``, the row loses ``U``
    times the pin's row, where a monomial times a row multiplies the
    monomial of every column.  The loop repeats until no new pin appears.

    Every pin carries a certificate, the multiplier columns of its row:
    multipliers m_i with  sum m_i * constraints[i] == x - value.
    """
    if not constraints:
        return Elimination({}, {}, [], None, None)
    ctx = constraints[0].ctx
    zero, one = ctx.zero(), ctx.one()
    rows = [{**p.terms, (idx, ()): one} for idx, p in enumerate(constraints)
            if not p.is_zero()]
    pins: dict[str, FieldElement] = {}
    certs: dict[str, Certificate] = {}
    max_rounds = len({v for p in constraints for v in p.variables()}) + 2
    for _ in range(max_rounds):
        cols = sorted({key for row in rows for key in row
                       if key and not _is_multiplier(key)}, key=_column_key)
        rows, _ = _echelon(rows, cols)
        polys = [_polynomial_part(row) for row in rows]
        rows = [row for row, poly in zip(rows, polys) if poly]
        polys = [poly for poly in polys if poly]
        # inconsistency and fresh pins
        new_pins: list[tuple[str, FieldElement, dict]] = []
        for row, poly in zip(rows, polys):
            if list(poly) == [()]:
                return Elimination(pins, certs,
                                   [MultiPoly.const(ctx, poly[()])],
                                   _certificate(ctx, row), poly[()])
            nonconst = [m for m in poly if m]
            if len(nonconst) == 1 and len(nonconst[0]) == 1 \
                    and nonconst[0][0][1] == 1:
                # a pivot row, so the coefficient of its variable is one
                new_pins.append((nonconst[0][0][0], -poly.get((), zero), row))
        if not new_pins:
            return Elimination(pins, certs, [_poly(ctx, p) for p in polys],
                               None, None)
        for name, value, pin_row in new_pins:
            pins[name] = value
            certs[name] = _certificate(ctx, pin_row)
            for i, row in enumerate(rows):
                quot = _linear_quotient(polys[i], name, value)
                for mono, c in quot.items():
                    _subtract_multiple(row, c, _shift(pin_row, mono))
                if quot:
                    polys[i] = _polynomial_part(row)
    raise HopfExactError("elimination did not stabilize")


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


def concrete_solutions(eqs: Sequence[MultiPoly], ctx: FieldContext
                       ) -> list[dict[str, FieldElement]]:
    """All solutions of the system ``eqs == 0`` over the field context.

    Each system, the given one and each branch's, first goes through one
    linear pass of :func:`eliminate`; a contradiction closes it.  The solver
    then branches over the roots of a univariate residual row, each branch
    ``pins + residual + [x - root]``, or else isolates a variable that
    occurs linearly with an invertible constant coefficient.  An isolated
    expression mentions only variables still in the system, so one pass in
    reverse isolation order resolves them.  Keys come in sorted order.

    The enumeration is complete: every returned assignment is a solution and
    every solution appears.  Raises when the system is underdetermined or
    needs factoring beyond what :func:`polynomial_roots` provides, a
    quadratic whose roots it cannot decide included (see there).
    """
    all_vars = sorted({v for eq in eqs for v in eq.variables()})
    solutions: list[dict[str, FieldElement]] = []
    stack: list[tuple[list[MultiPoly], list[tuple[str, MultiPoly]]]] = [
        (list(eqs), [])]
    while stack:
        system, isolated = stack.pop()
        elim = eliminate(system)
        if elim.contradiction is not None:
            continue
        pins = [MultiPoly.var(ctx, x) - v for x, v in elim.pins.items()]
        residual = elim.residual
        if not residual:
            values = dict(elim.pins)
            for name, expr in reversed(isolated):
                value = expr.substitute(values).as_constant()
                if value is not None:
                    values[name] = value
            missing = [v for v in all_vars if v not in values]
            if missing:
                raise HopfExactError(
                    f"solution set is not finite: {missing} stay free")
            solutions.append({v: values[v] for v in all_vars})
            continue
        for eq in residual:
            uni = eq.univariate_in()
            roots = None if uni is None else polynomial_roots(ctx, uni[1])
            if roots is not None:
                for root in roots:
                    stack.append((pins + residual
                                  + [MultiPoly.var(ctx, uni[0]) - root],
                                  isolated))
                break
        else:
            found = _find_linear_isolation(residual)
            if found is None:
                raise HopfExactError("cannot reduce the polynomial system "
                                     "with the supported rules")
            idx, name, expr = found
            rest = [eq.substitute({name: expr})
                    for k, eq in enumerate(residual) if k != idx]
            stack.append((pins + rest, isolated + [(name, expr)]))
    return solutions
