"""Exact scalar arithmetic: cyclotomic fields with an optional quadratic layer.

A :class:`FieldContext` fixes the coefficient ring for everything else in the
package.  It is the field Q(zeta_n) for a chosen root-of-unity order ``n``
(so the rationals are ``n == 1``), optionally extended by a single *formal*
square root ``s`` of a chosen discriminant ``d``:  elements are then
``a + b*s`` with ``s**2 == d``.  The layer is formal on purpose — adjoining a
perfect square is allowed and produces a ring with zero divisors; division
raises :class:`DivisionByZero` when the conjugate-norm trick divides by zero
instead of pretending ``s`` simplifies.

Coordinates are taken over the power basis ``1, zeta, ..., zeta**(phi(n)-1)``
(doubled when a layer is present: the base part, then the coefficient of
``s``).  An element is stored packed, as a tuple of integer numerators ``num``
over one shared integer denominator ``den``, always in canonical form:
``den > 0`` and ``gcd(den, *num) == 1``, so zero is ``(0, ..., 0) / 1``.
Equal values therefore have equal ``(num, den)``, which is what ``==`` and
``hash`` compare.  Arithmetic works on the integers alone and reduces once per
result with :func:`math.gcd`; :class:`fractions.Fraction` appears only where
values come in or go out (``element``, ``scalar``, ``coeffs``, literals and
the square-root helpers).  A product with a factor equal to 1 or -1 is the
other factor or its negation, with no multiplication and no reduction; this
is exact in every context, zero-divisor layers included, because +-1 are
units, and most products inside the symbolic replays' eliminations have
such a factor.  Reduction uses the n-th cyclotomic polynomial, computed by
the classic recursive exact division ``Phi_n = (x**n - 1) / prod Phi_d``; it
is monic with integer coefficients, so the reduction table for ``zeta**k``
holds plain integers.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt, lcm
from typing import Iterable, Optional, Sequence

from .errors import (
    AlreadyExtended,
    DivisionByZero,
    FieldMismatch,
    HopfExactError,
    NeedsFieldExtension,
    ZeroDiscriminant,
)

Rat = int | Fraction


def divisors(n: int) -> list[int]:
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def _poly_divmod(num: list[Fraction], den: list[Fraction]) -> list[Fraction]:
    """Exact quotient of polynomials given low-to-high; remainder must vanish."""
    num = list(num)
    q = [Fraction(0)] * (len(num) - len(den) + 1)
    for k in range(len(q) - 1, -1, -1):
        c = num[k + len(den) - 1] / den[-1]
        q[k] = c
        if c:
            for j, dj in enumerate(den):
                num[k + j] -= c * dj
    if any(num):
        raise HopfExactError("non-exact polynomial division")
    return q


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[Fraction, ...]:
    """Coefficients (low to high) of the n-th cyclotomic polynomial."""
    if n == 1:
        return (Fraction(-1), Fraction(1))
    num = [Fraction(0)] * (n + 1)
    num[0], num[n] = Fraction(-1), Fraction(1)
    den = [Fraction(1)]
    for d in divisors(n)[:-1]:
        phi_d = cyclotomic_polynomial(d)
        new = [Fraction(0)] * (len(den) + len(phi_d) - 1)
        for i, a in enumerate(den):
            for j, b in enumerate(phi_d):
                new[i + j] += a * b
        den = new
    return tuple(_poly_divmod(num, den))


def euler_phi(n: int) -> int:
    return len(cyclotomic_polynomial(n)) - 1


def _as_fraction(x: Rat) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected int or Fraction, got {type(x).__name__}")


class FieldContext:
    """A coefficient field: Q(zeta_n), optionally with a quadratic layer."""

    def __init__(self, cyclotomic_order: int = 1,
                 discriminant: Optional["FieldElement"] = None):
        if cyclotomic_order < 1:
            raise ValueError("cyclotomic order must be >= 1")
        self.order = cyclotomic_order
        self.base_dim = euler_phi(cyclotomic_order)
        # the discriminant as Fractions (the context's key) and packed as
        # (numerators, denominator) for arithmetic
        self._disc_coeffs: Optional[tuple[Fraction, ...]] = None
        self._disc: Optional[tuple[tuple[int, ...], int]] = None
        self._base = self
        if discriminant is not None:
            if discriminant.ctx.has_layer:
                raise AlreadyExtended("discriminant must come from the base field")
            if discriminant.ctx.order != cyclotomic_order:
                raise FieldMismatch("discriminant from a different base field")
            if discriminant.is_zero():
                raise ZeroDiscriminant("discriminant is zero")
            self._disc_coeffs = discriminant.coeffs
            self._disc = (discriminant.num, discriminant.den)
            self._base = FieldContext(cyclotomic_order)
        self.dim = self.base_dim * (2 if self.has_layer else 1)
        self._hash = hash(self._key())
        # Integer power table zeta**k long enough both for reducing products
        # of two reduced polynomials (2*base_dim - 1) and for direct zeta(k)
        # lookups (k < order).  Phi_n is monic and integral, so every entry
        # is an int.
        m = self.base_dim
        phi = [int(c) for c in cyclotomic_polynomial(cyclotomic_order)]
        powers: list[tuple[int, ...]] = []
        for k in range(max(2 * m - 1, cyclotomic_order)):
            if k == 0:
                powers.append((1,) + (0,) * (m - 1))
                continue
            prev = powers[k - 1]
            shifted = [0] + list(prev[: m - 1])
            top = prev[m - 1]
            if top:
                for j in range(m):
                    shifted[j] -= top * phi[j]
            powers.append(tuple(shifted))
        self._zeta_powers = powers
        # for each k < 2*base_dim - 1, the nonzero (j, c) entries of zeta**k
        self._reduction = [[(j, c) for j, c in enumerate(powers[k]) if c]
                           for k in range(2 * m - 1)]
        self._zero = _packed(self, (0,) * self.dim, 1)
        self._one = _packed(self, (1,) + (0,) * (self.dim - 1), 1)
        self._minus_one_num = (-1,) + (0,) * (self.dim - 1)

    @property
    def has_layer(self) -> bool:
        return self._disc is not None

    @property
    def discriminant(self) -> Optional["FieldElement"]:
        if self._disc is None:
            return None
        return _packed(self._base, *self._disc)

    def base_context(self) -> "FieldContext":
        return self._base

    def _key(self):
        return (self.order, self._disc_coeffs)

    def __eq__(self, other):
        if self is other:
            return True
        return isinstance(other, FieldContext) and self._key() == other._key()

    def __hash__(self):
        return self._hash

    def __repr__(self):
        if self.has_layer:
            return (f"FieldContext(order={self.order}, "
                    f"s^2={render_literal(self.discriminant)})")
        return f"FieldContext(order={self.order})"

    # -- element constructors --------------------------------------------

    def element(self, coeffs: Iterable[Rat]) -> "FieldElement":
        cs = [_as_fraction(c) for c in coeffs]
        if len(cs) == self.dim:
            return FieldElement(self, cs)
        if self.has_layer and len(cs) == self.base_dim:
            return FieldElement(self, cs + [0] * self.base_dim)
        raise FieldMismatch(f"expected {self.dim} coefficients, got {len(cs)}")

    def zero(self) -> "FieldElement":
        return self._zero

    def one(self) -> "FieldElement":
        return self._one

    def scalar(self, x: Rat) -> "FieldElement":
        x = _as_fraction(x)
        return _packed(self, (x.numerator,) + (0,) * (self.dim - 1),
                       x.denominator)

    def zeta(self, power: int = 1) -> "FieldElement":
        """zeta_n**power as an element of this context."""
        base = self._zeta_powers[power % self.order]
        if self.has_layer:
            base = base + (0,) * self.base_dim
        return _packed(self, base, 1)

    def i(self) -> "FieldElement":
        """The imaginary unit, available whenever 4 divides the order."""
        if self.order % 4 != 0:
            raise FieldMismatch("imaginary unit needs 4 | cyclotomic order")
        return self.zeta(self.order // 4)

    def sqrt_symbol(self) -> "FieldElement":
        if not self.has_layer:
            raise FieldMismatch("context has no quadratic layer")
        num = [0] * self.dim
        num[self.base_dim] = 1
        return _packed(self, tuple(num), 1)

    # -- base-field arithmetic on integer coefficient vectors --------------

    def _mul_base(self, a: Sequence[int], b: Sequence[int]) -> list[int]:
        """The product of two base-field integer vectors, reduced modulo
        Phi_n (the denominators are the caller's)."""
        m = self.base_dim
        if m == 1:
            return [a[0] * b[0]]
        prod = [0] * (2 * m - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    if bj:
                        prod[i + j] += ai * bj
        out = prod[:m]
        reduction = self._reduction
        for k in range(m, 2 * m - 1):
            c = prod[k]
            if c:
                for j, t in reduction[k]:
                    out[j] += c * t
        return out

    def _inv_base(self, a: Sequence[int]) -> tuple[list[int], int]:
        """``(num, den)`` with ``a * num / den == 1``, for a nonzero integer
        vector ``a``; the pair is not yet in canonical form."""
        m = self.base_dim
        if not any(a):
            raise DivisionByZero("division by zero")
        if not any(a[1:]):
            # a rational number: 1 / a[0]
            return [1] + [0] * (m - 1), a[0]
        # Solve (multiplication-by-a matrix) x = e0 by fraction-free
        # Gauss-Jordan elimination: cross-multiply, then divide each row by
        # the gcd of its entries.  The result is diagonal, d_i * x_i = r_i.
        cols = [self._mul_base(a, self._zeta_powers[j]) for j in range(m)]
        aug = [[cols[j][i] for j in range(m)] + [1 if i == 0 else 0]
               for i in range(m)]
        for col in range(m):
            piv = next((r for r in range(col, m) if aug[r][col]), None)
            if piv is None:
                raise DivisionByZero("non-invertible element")
            aug[col], aug[piv] = aug[piv], aug[col]
            prow = aug[col]
            p = prow[col]
            for r in range(m):
                f = aug[r][col]
                if r != col and f:
                    row = [p * x - f * y for x, y in zip(aug[r], prow)]
                    g = gcd(*row)
                    aug[r] = [x // g for x in row] if g > 1 else row
        den = lcm(*(aug[i][i] for i in range(m)))
        return [aug[i][m] * (den // aug[i][i]) for i in range(m)], den


def _packed(ctx: FieldContext, num: tuple[int, ...], den: int) -> "FieldElement":
    """An element from numerators and denominator already in canonical form."""
    x = _new_element(FieldElement)
    _set_ctx(x, ctx)
    _set_num(x, num)
    _set_den(x, den)
    return x


def _canon(ctx: FieldContext, num: list[int], den: int) -> "FieldElement":
    """An element from any numerators over a nonzero denominator: divide out
    the common gcd and make the denominator positive."""
    if den != 1:
        g = gcd(den, *num)
        if den < 0:
            g = -g
        if g != 1:
            num = [c // g for c in num]
            den //= g
    return _packed(ctx, tuple(num), den)


class FieldElement:
    """An element of a :class:`FieldContext`; immutable and hashable.

    ``num`` and ``den`` hold the canonical packed form described in the
    module docstring; ``coeffs`` gives the same value as a tuple of
    :class:`~fractions.Fraction`.
    """

    __slots__ = ("ctx", "num", "den")

    def __init__(self, ctx: FieldContext, coeffs: Sequence[Rat]):
        # each Fraction is in lowest terms, so over the lcm of their
        # denominators the numerators already have gcd 1 with it
        den = lcm(*(c.denominator for c in coeffs))
        _set_ctx(self, ctx)
        _set_num(self, tuple(c.numerator * (den // c.denominator) for c in coeffs))
        _set_den(self, den)

    def __setattr__(self, name, value):
        raise AttributeError("FieldElement is immutable")

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        den = self.den
        return tuple(Fraction(c, den) for c in self.num)

    # -- parts -------------------------------------------------------------

    def base_part(self) -> "FieldElement":
        """The s-free part, as an element of the base context."""
        ctx = self.ctx
        return _canon(ctx.base_context(), self.num[:ctx.base_dim], self.den)

    def layer_part(self) -> "FieldElement":
        """The coefficient of s, as an element of the base context."""
        ctx = self.ctx
        if not ctx.has_layer:
            return ctx.zero()
        return _canon(ctx.base_context(), self.num[ctx.base_dim:], self.den)

    def is_zero(self) -> bool:
        return not any(self.num)

    def is_rational(self) -> bool:
        return not any(self.num[1:])

    def as_rational(self) -> Fraction:
        if not self.is_rational():
            raise FieldMismatch(f"not a rational number: {self}")
        return Fraction(self.num[0], self.den)

    # -- coercion ------------------------------------------------------------

    def coerce(self, target: FieldContext) -> "FieldElement":
        """Embed into ``target`` if a canonical embedding exists."""
        ctx = self.ctx
        if target is ctx or target == ctx:
            return self
        m = ctx.base_dim
        a, b = self.num[:m], self.num[m:]
        if any(b):
            if target.has_layer and target.order % ctx.order == 0:
                disc_t = ctx.discriminant.coerce(target.base_context())
                if disc_t == target.discriminant:
                    return _canon(target, _embed(ctx, target, a)
                                  + _embed(ctx, target, b), self.den)
            raise FieldMismatch(f"cannot embed {ctx} into {target}")
        if target.order % ctx.order != 0:
            raise FieldMismatch(
                f"no embedding of order {ctx.order} into order {target.order}")
        out = _embed(ctx, target, a)
        if target.has_layer:
            out += [0] * target.base_dim
        return _canon(target, out, self.den)

    def _pair_with(self, other) -> tuple["FieldElement", "FieldElement"]:
        if isinstance(other, (int, Fraction)):
            other = self.ctx.scalar(other)
        if not isinstance(other, FieldElement):
            raise TypeError(f"cannot combine FieldElement with {type(other).__name__}")
        if other.ctx is self.ctx or other.ctx == self.ctx:
            return self, other
        try:
            return self.coerce(other.ctx), other
        except FieldMismatch:
            pass
        try:
            return self, other.coerce(self.ctx)
        except FieldMismatch:
            raise FieldMismatch(f"incompatible contexts {self.ctx} and {other.ctx}")

    # -- ring operations -----------------------------------------------------

    def __add__(self, other):
        if other.__class__ is FieldElement and other.ctx is self.ctx:
            x, y = self, other
        else:
            x, y = self._pair_with(other)
        dx, dy = x.den, y.den
        if dx == dy:
            return _canon(x.ctx, [p + q for p, q in zip(x.num, y.num)], dx)
        return _canon(x.ctx, [p * dy + q * dx for p, q in zip(x.num, y.num)],
                      dx * dy)

    __radd__ = __add__

    def __neg__(self):
        return _packed(self.ctx, tuple(-c for c in self.num), self.den)

    def __sub__(self, other):
        if other.__class__ is FieldElement and other.ctx is self.ctx:
            x, y = self, other
        else:
            x, y = self._pair_with(other)
        dx, dy = x.den, y.den
        if dx == dy:
            return _canon(x.ctx, [p - q for p, q in zip(x.num, y.num)], dx)
        return _canon(x.ctx, [p * dy - q * dx for p, q in zip(x.num, y.num)],
                      dx * dy)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        if other.__class__ is FieldElement and other.ctx is self.ctx:
            x, y = self, other
        else:
            x, y = self._pair_with(other)
            if y.ctx is not x.ctx:
                y = _packed(x.ctx, y.num, y.den)
        ctx = x.ctx
        # a factor of 1 or -1 gives the other factor or its negation
        if y.den == 1:
            if y.num == ctx._one.num:
                return x
            if y.num == ctx._minus_one_num:
                return _packed(ctx, tuple(-c for c in x.num), x.den)
        if x.den == 1:
            if x.num == ctx._one.num:
                return y
            if x.num == ctx._minus_one_num:
                return _packed(ctx, tuple(-c for c in y.num), y.den)
        mul = ctx._mul_base
        if ctx._disc is None:
            return _canon(ctx, mul(x.num, y.num), x.den * y.den)
        # (a1 + b1 s)(a2 + b2 s) = a1 a2 + b1 b2 d + (a1 b2 + b1 a2) s, with
        # d = dn / dd brought over the common denominator dd
        m = ctx.base_dim
        a1, b1 = x.num[:m], x.num[m:]
        a2, b2 = y.num[:m], y.num[m:]
        dn, dd = ctx._disc
        bbd = mul(mul(b1, b2), dn)
        real = [dd * p + q for p, q in zip(mul(a1, a2), bbd)]
        layer = [dd * (p + q) for p, q in zip(mul(a1, b2), mul(b1, a2))]
        return _canon(ctx, real + layer, x.den * y.den * dd)

    __rmul__ = __mul__

    def inverse(self) -> "FieldElement":
        ctx = self.ctx
        if self.is_zero():
            raise DivisionByZero("division by zero")
        if ctx._disc is None:
            num, den = ctx._inv_base(self.num)
            d = self.den
            return _canon(ctx, [c * d for c in num], den)
        # 1 / (a + b s) = (a - b s) / (a**2 - d b**2), with d = dn / dd
        m = ctx.base_dim
        a, b = self.num[:m], self.num[m:]
        dn, dd = ctx._disc
        mul = ctx._mul_base
        norm = [dd * p - q for p, q in zip(mul(a, a), mul(mul(b, b), dn))]
        if not any(norm):
            raise DivisionByZero(f"zero divisor in quadratic layer: {self}")
        u, w = ctx._inv_base(norm)
        k = self.den * dd
        return _canon(ctx, [k * c for c in mul(a, u)]
                      + [-k * c for c in mul(b, u)], w)

    def __truediv__(self, other):
        a, b = self._pair_with(other)
        return a * b.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        acc = self.ctx.one()
        base = self
        while n:
            if n & 1:
                acc = acc * base
            base = base * base
            n >>= 1
        return acc

    def __eq__(self, other):
        if other.__class__ is FieldElement and other.ctx is self.ctx:
            return self.den == other.den and self.num == other.num
        if isinstance(other, (int, Fraction)):
            other = self.ctx.scalar(other)
        if not isinstance(other, FieldElement):
            return NotImplemented
        try:
            a, b = self._pair_with(other)
        except FieldMismatch:
            return False
        return a.den == b.den and a.num == b.num

    def __hash__(self):
        return hash((self.ctx, self.num, self.den))

    def __bool__(self):
        return not self.is_zero()

    def __repr__(self):
        return render_literal(self)


_new_element = object.__new__
_set_ctx = FieldElement.ctx.__set__
_set_num = FieldElement.num.__set__
_set_den = FieldElement.den.__set__


def _embed(src: FieldContext, target: FieldContext, a: Sequence[int]) -> list[int]:
    """Base-field numerators of ``src`` mapped into the base field of
    ``target``, where ``src.order`` divides ``target.order``:
    zeta_src**j goes to zeta_target**(j*step)."""
    step = target.order // src.order
    out = [0] * target.base_dim
    for j, c in enumerate(a):
        if c:
            for i, t in enumerate(target._zeta_powers[j * step]):
                out[i] += c * t
    return out


# -- literals -------------------------------------------------------------


def render_literal(x: FieldElement) -> str:
    """Render an element in the literal grammar accepted by :func:`scal`."""
    ctx = x.ctx
    terms: list[str] = []

    def emit(c: Fraction, sym: str):
        if c == 0:
            return
        if sym == "":
            terms.append(str(c))
        elif c == 1:
            terms.append(sym)
        elif c == -1:
            terms.append(f"-{sym}")
        else:
            terms.append(f"{c}*{sym}")

    cs = x.coeffs
    a, b = cs[:ctx.base_dim], cs[ctx.base_dim:]
    n = ctx.order
    for j, c in enumerate(a):
        emit(c, "" if j == 0 else _power_symbol(n, j))
    if ctx.has_layer:
        for j, c in enumerate(b):
            sym = "s" if j == 0 else f"{_power_symbol(n, j)}*s"
            emit(c, sym)
    if not terms:
        return "0"
    out = terms[0]
    for t in terms[1:]:
        out += f" - {t[1:]}" if t.startswith("-") else f" + {t}"
    return out


def _power_symbol(order: int, j: int) -> str:
    if order % 4 == 0 and j == order // 4:
        return "i"
    return f"z({order},{j})"


class _Parser:
    """Recursive-descent parser for the scalar literal grammar.

    expr   := term (('+'|'-') term)*
    term   := factor ('*' factor)*
    factor := '-' factor | '(' expr ')' | atom
    atom   := INT ('/' INT)? | 'i' | 's' | 'z' '(' INT ',' INT ')'
    """

    def __init__(self, ctx: FieldContext, text: str):
        self.ctx = ctx
        self.text = text
        self.pos = 0

    def _skip(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def _peek(self) -> str:
        self._skip()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def _expect(self, ch: str):
        if self._peek() != ch:
            raise ValueError(f"expected {ch!r} at position {self.pos} in {self.text!r}")
        self.pos += 1

    def parse(self) -> FieldElement:
        v = self.expr()
        self._skip()
        if self.pos != len(self.text):
            raise ValueError(f"trailing input at position {self.pos} in {self.text!r}")
        return v

    def expr(self) -> FieldElement:
        v = self.term()
        while self._peek() in ("+", "-"):
            op = self._peek()
            self.pos += 1
            t = self.term()
            v = v + t if op == "+" else v - t
        return v

    def term(self) -> FieldElement:
        v = self.factor()
        while self._peek() == "*":
            self.pos += 1
            v = v * self.factor()
        return v

    def factor(self) -> FieldElement:
        ch = self._peek()
        if ch == "-":
            self.pos += 1
            return -self.factor()
        if ch == "(":
            self.pos += 1
            v = self.expr()
            self._expect(")")
            return v
        return self.atom()

    def _int(self) -> int:
        self._skip()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if start == self.pos:
            raise ValueError(f"expected integer at position {start} in {self.text!r}")
        return int(self.text[start:self.pos])

    def atom(self) -> FieldElement:
        ch = self._peek()
        if ch.isdigit():
            num = self._int()
            if self._peek() == "/":
                self.pos += 1
                den = self._int()
                return self.ctx.scalar(Fraction(num, den))
            return self.ctx.scalar(num)
        if ch == "i":
            self.pos += 1
            return self.ctx.i()
        if ch == "s":
            self.pos += 1
            return self.ctx.sqrt_symbol()
        if ch == "z":
            self.pos += 1
            self._expect("(")
            n = self._int()
            self._expect(",")
            k = self._int()
            self._expect(")")
            if self.ctx.order % n != 0:
                raise FieldMismatch(
                    f"z({n},{k}) does not embed into order {self.ctx.order}")
            return self.ctx.zeta(k * (self.ctx.order // n))
        raise ValueError(f"unexpected character {ch!r} at {self.pos} in {self.text!r}")


def scal(ctx: FieldContext, value: str | int | Fraction | FieldElement) -> FieldElement:
    """Parse a scalar literal (or coerce an already-scalar value) into ctx."""
    if isinstance(value, FieldElement):
        return value.coerce(ctx)
    if isinstance(value, (int, Fraction)):
        return ctx.scalar(value)
    return _Parser(ctx, value).parse()


def adjoin_sqrt(ctx: FieldContext, d: str | int | Fraction | FieldElement) -> FieldContext:
    """Extend ``ctx`` by a formal square root of ``d``.

    The extension is purely formal: no attempt is made to detect that ``d``
    is already a square, so the result may contain zero divisors.
    """
    if ctx.has_layer:
        raise AlreadyExtended("context already has a quadratic layer")
    disc = d.coerce(ctx) if isinstance(d, FieldElement) else scal(ctx, d)
    if disc.is_zero():
        raise ZeroDiscriminant("cannot adjoin sqrt(0)")
    return FieldContext(ctx.order, discriminant=disc)


# -- polynomial roots ---------------------------------------------------------


def _eval_poly(cs: Sequence["FieldElement"], x: "FieldElement") -> "FieldElement":
    acc = x.ctx.zero()
    for c in reversed(cs):
        acc = acc * x + c
    return acc


def _divide_linear(cs: list["FieldElement"], root: "FieldElement") -> list["FieldElement"]:
    """Synthetic division by (t - root); the remainder must vanish."""
    out = [None] * (len(cs) - 1)
    carry = cs[-1]
    for k in range(len(cs) - 2, -1, -1):
        out[k] = carry
        carry = cs[k] + carry * root
    if not carry.is_zero():
        raise HopfExactError(f"not a root: {root}")
    return out


def polynomial_roots(ctx: FieldContext, coeffs: Sequence[Rat | FieldElement]
                     ) -> Optional[list["FieldElement"]]:
    """All distinct roots in ``ctx``, or None if completeness is uncertain.

    Complete for degree <= 2 (quadratic formula plus :func:`sqrt_in_context`),
    over the plain rationals for any degree (rational root theorem), and for
    anything that reduces to those after stripping roots at zero.
    """
    cs = [c if isinstance(c, FieldElement) else ctx.scalar(c) for c in coeffs]
    cs = [c.coerce(ctx) for c in cs]
    while cs and cs[-1].is_zero():
        cs.pop()
    if not cs:
        raise ValueError("the zero polynomial has every root")
    roots: list[FieldElement] = []
    while cs[0].is_zero() and len(cs) > 1:
        if not roots:
            roots.append(ctx.zero())
        cs = cs[1:]

    def low_degree(poly: list[FieldElement]) -> Optional[list[FieldElement]]:
        deg = len(poly) - 1
        if deg <= 0:
            return []
        if deg == 1:
            return [-poly[0] / poly[1]]
        if deg == 2:
            a, b, c = poly[2], poly[1], poly[0]
            disc = b * b - a * c * 4
            try:
                r = sqrt_in_context(disc)
            except NeedsFieldExtension:
                return []
            found = [(-b + r) / (a * 2)]
            if not r.is_zero():
                found.append((-b - r) / (a * 2))
            return found
        return None

    low = low_degree(cs)
    if low is not None:
        return roots + low
    if ctx.order != 1 or ctx.has_layer:
        return None
    # rational context: clear denominators and test rational-root candidates
    scale = lcm(*(c.as_rational().denominator for c in cs))
    ints = [c.as_rational() * scale for c in cs]
    a0, an = int(ints[0]), int(ints[-1])
    candidates = set()
    for p in divisors(abs(a0)):
        for q in divisors(abs(an)):
            candidates.add(Fraction(p, q))
            candidates.add(Fraction(-p, q))
    for cand in sorted(candidates):
        x = ctx.scalar(cand)
        while len(cs) > 1 and _eval_poly(cs, x).is_zero():
            if x not in roots:
                roots.append(x)
            cs = _divide_linear(cs, x)
    remaining = low_degree(cs)
    if remaining is not None:
        for r in remaining:
            if r not in roots:
                roots.append(r)
        return roots
    # whatever is left has no rational roots, and every root of a rational
    # polynomial lying in Q is rational, so the list is already complete
    return roots


# -- square roots -----------------------------------------------------------


def _rational_sqrt(q: Fraction) -> Optional[Fraction]:
    if q < 0:
        return None
    p, r = q.numerator, q.denominator
    sp, sr = isqrt(p), isqrt(r)
    if sp * sp == p and sr * sr == r:
        return Fraction(sp, sr)
    return None


def _gaussian_sqrt(ctx4: FieldContext, x: FieldElement) -> Optional[FieldElement]:
    """Square root in Q(i); ``x`` lives in a context of order 4."""
    c, d = x.coeffs[0], x.coeffs[1]
    if d == 0:
        r = _rational_sqrt(c)
        if r is not None:
            return ctx4.scalar(r)
        r = _rational_sqrt(-c)
        if r is not None:
            return ctx4.element((0, r))
        return None
    r = _rational_sqrt(c * c + d * d)
    if r is None:
        return None
    u = _rational_sqrt((c + r) / 2)
    if u is not None and u != 0:
        v = d / (2 * u)
        cand = ctx4.element((u, v))
        if cand * cand == x:
            return cand
    v = _rational_sqrt((r - c) / 2)
    if v is not None and v != 0:
        u = d / (2 * v)
        cand = ctx4.element((u, v))
        if cand * cand == x:
            return cand
    return None


def _base_sqrt(x: FieldElement) -> Optional[FieldElement]:
    """Square root in a layer-free cyclotomic context, or None."""
    ctx = x.ctx
    if x.is_zero():
        return ctx.zero()
    if x.is_rational():
        r = _rational_sqrt(x.as_rational())
        if r is not None:
            return ctx.scalar(r)
        if ctx.order % 4 == 0:
            r = _rational_sqrt(-x.as_rational())
            if r is not None:
                return ctx.i() * ctx.scalar(r)
        if ctx.order % 8 != 0 and ctx.order != 4:
            return None
    if ctx.order == 4:
        return _gaussian_sqrt(ctx, x)
    if ctx.order == 8:
        return _sqrt_order8(ctx, x)
    if ctx.order % 4 == 0 and not x.is_rational():
        # the element may live in the Q(i) subfield: x = c + d*i
        c = x.coeffs[0]
        rem = x - ctx.scalar(c)
        ratio = rem * ctx.i().inverse()
        if ratio.is_rational():
            sub = FieldContext(4)
            g = _gaussian_sqrt(sub, sub.element((c, ratio.as_rational())))
            if g is not None:
                return g.coerce(ctx)
    return None


def _sqrt_order8(ctx8: FieldContext, x: FieldElement) -> Optional[FieldElement]:
    """Square root in Q(zeta_8), treated as the quadratic pair u + v*zeta_8
    over Q(i), where i = zeta_8**2 and zeta_8**2 acts as multiplication by i."""
    ctx4 = FieldContext(4)
    c0, c1, c2, c3 = x.coeffs
    a = ctx4.element((c0, c2))
    b = ctx4.element((c1, c3))

    def embed(u: FieldElement, v: FieldElement) -> FieldElement:
        return ctx8.element((u.coeffs[0], v.coeffs[0], u.coeffs[1], v.coeffs[1]))

    i4 = ctx4.element((0, 1))
    if b.is_zero():
        g = _gaussian_sqrt(ctx4, a)
        if g is not None:
            return embed(g, ctx4.zero())
        g = _gaussian_sqrt(ctx4, a * (-i4))  # (v*zeta8)**2 = i*v**2
        if g is not None:
            return embed(ctx4.zero(), g)
        return None
    disc = a * a - i4 * b * b
    g = _gaussian_sqrt(ctx4, disc)
    if g is None:
        return None
    for sign in (1, -1):
        t = (a + g * sign) * Fraction(1, 2)
        u = _gaussian_sqrt(ctx4, t)
        if u is not None and not u.is_zero():
            v = b / (2 * u)
            cand = embed(u, v)
            if cand * cand == x:
                return cand
    return None


def sqrt_in_context(x: FieldElement) -> FieldElement:
    """A square root of ``x`` in its own context.

    Raises :class:`NeedsFieldExtension` (carrying ``x`` as the discriminant)
    when no square root exists in the context; the caller may then
    ``adjoin_sqrt`` and retry, where the new symbol itself is the answer.
    """
    ctx = x.ctx
    if x.is_zero():
        return ctx.zero()
    if not ctx.has_layer:
        y = _base_sqrt(x)
        if y is not None and y * y == x:
            return y
        raise NeedsFieldExtension(x)
    a, b = x.base_part(), x.layer_part()
    d0 = ctx.discriminant
    if b.is_zero():
        y = _base_sqrt(a)
        if y is not None:
            y2 = y.coerce(ctx)
            if y2 * y2 == x:
                return y2
        c = _base_sqrt(a / d0)
        if c is not None:
            cand = c.coerce(ctx) * ctx.sqrt_symbol()
            if cand * cand == x:
                return cand
        raise NeedsFieldExtension(x)
    disc = a * a - d0 * b * b
    g = _base_sqrt(disc)
    if g is not None:
        for sign in (1, -1):
            t = (a + g * sign) * Fraction(1, 2)
            u = _base_sqrt(t)
            if u is not None and not u.is_zero():
                v = b / (2 * u)
                cand = u.coerce(ctx) + v.coerce(ctx) * ctx.sqrt_symbol()
                if cand * cand == x:
                    return cand
    raise NeedsFieldExtension(x)
