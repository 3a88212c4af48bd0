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

Every product of base-field vectors, in every context of order n (the base
products, the products inside a layer and the conjugate products of an
inverse), runs through one straight-line function per order, generated from
that table and compiled once (:func:`_mul_kernel`): it unpacks both vectors
into locals, forms each coefficient of the unreduced product as one sum of
products, and folds each coefficient of degree >= phi(n) into the lower
ones with the table's integers.  No loop runs per product.  The generated
source is safe to compile: it is assembled from nothing but fixed text,
coordinate indices and the integers of the table for Phi_n, never from a
value passed in by a caller.

The field solves no linear system.  A nonzero ``a`` in Q(zeta_n) is
inverted as the product of its other Galois conjugates ``sigma_k(a)``
(zeta -> zeta**k, k a unit mod n, k != 1) over its rational norm ``N(a)``,
the product of all of them; a layer element ``a + b*s`` is inverted as
``(a - b*s) / (a**2 - d*b**2)``, whose denominator lies in the base.  One
map, ``zeta**j -> zeta**(j*k)``, gives both the conjugations and the
embeddings Q(zeta_m) -> Q(zeta_n).

Square roots (:func:`sqrt_in_context`) take one quadratic step per level of
a tower.  Read ``x = a + b*t`` over the field one step down, with
``t**2 = d``: ``t = s`` over the base for a layer, and ``t = zeta_n``,
``d = zeta_{n/2}`` for Q(zeta_n) over Q(zeta_{n/2}) when n is a power of
two, with ``a``, ``b`` the even and odd power-basis coefficients.  A root
``u + v*t`` has ``u = sqrt(a)`` or ``v = sqrt(a/d)`` when ``b == 0``, else
``u = sqrt((a +- g)/2)`` and ``v = b/(2u)`` with ``g = sqrt(a**2 - d*b**2)``;
each root is taken one step down, down to Q, and a candidate is kept only
if it squares back to ``x``.  Other orders reach only Q(i) (when 4 | n) or Q.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt, lcm
from typing import Callable, Iterable, Iterator, Optional, Sequence

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


def _poly_divmod(num: Sequence, den: Sequence) -> list:
    """Exact quotient of polynomials given low-to-high, with coefficients
    all :class:`~fractions.Fraction` or all :class:`FieldElement` of one
    context; the remainder must vanish."""
    num = list(num)
    q = [None] * (len(num) - len(den) + 1)
    for k in range(len(q) - 1, -1, -1):
        c = q[k] = num[k + len(den) - 1] / den[-1]
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


@lru_cache(maxsize=None)
def _zeta_power_table(n: int) -> tuple[tuple[int, ...], ...]:
    """zeta_n**k over the power basis, as integer vectors, for every k below
    both 2*phi(n) - 1 (the degrees of a product of two reduced vectors) and
    n (direct zeta(k) lookups).  Phi_n is monic and integral, so every entry
    is an int."""
    m = euler_phi(n)
    phi = [int(c) for c in cyclotomic_polynomial(n)]
    powers = [(1,) + (0,) * (m - 1)]
    for _ in range(1, max(2 * m - 1, n)):
        prev = powers[-1]
        shifted = [0] + list(prev[:m - 1])
        top = prev[m - 1]
        if top:
            for j in range(m):
                shifted[j] -= top * phi[j]
        powers.append(tuple(shifted))
    return tuple(powers)


def _mul_kernel_source(n: int) -> str:
    """The source of the straight-line product of two base-field integer
    vectors of Q(zeta_n), reduced modulo Phi_n.

    With m = phi(n), it names every coordinate (``a0 .. a{m-1}``), forms the
    coefficient ``p_k`` of x**k for each k >= m as one sum of products, and
    returns, for each j < m, the sum of the products of degree j plus
    ``c * p_k`` over the entries ``(j, c)`` of the reduction table row for
    zeta**k (its nonzero coordinates).  Over Q(i) it reads ``p2 = a1*b1``
    and returns ``(a0*b0 - p2, a0*b1 + a1*b0)``."""
    m = euler_phi(n)
    powers = _zeta_power_table(n)
    reduction = {k: [(j, c) for j, c in enumerate(powers[k]) if c]
                 for k in range(m, 2 * m - 1)}

    def degree(k: int) -> str:
        return " + ".join(f"a{i}*b{k - i}"
                          for i in range(max(0, k - m + 1), min(k, m - 1) + 1))

    out = [degree(j) for j in range(m)]
    for k, row in reduction.items():
        for j, c in row:
            sign = "-" if c < 0 else "+"
            out[j] += f" {sign} p{k}" if abs(c) == 1 else \
                f" {sign} {abs(c)}*p{k}"
    return "\n".join(
        [f"def _mul_base_{n}(a, b):",
         f"    {', '.join(f'a{i}' for i in range(m))}, = a",
         f"    {', '.join(f'b{i}' for i in range(m))}, = b"]
        + [f"    p{k} = {degree(k)}" for k in reduction]
        + [f"    return ({', '.join(out)},)"])


@lru_cache(maxsize=None)
def _mul_kernel(n: int) -> Callable[[Sequence[int], Sequence[int]],
                                    tuple[int, ...]]:
    """The function of :func:`_mul_kernel_source`, compiled once per order;
    the denominators are the caller's."""
    namespace: dict = {}
    exec(_mul_kernel_source(n), namespace)
    return namespace[f"_mul_base_{n}"]


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
        self._zeta_powers = _zeta_power_table(cyclotomic_order)
        # the straight-line product of base-field vectors, shared by every
        # context of this order (see _mul_kernel)
        self._mul_base = _mul_kernel(cyclotomic_order)
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

    def _inv_base(self, a: Sequence[int]) -> tuple[list[int], int]:
        """``(num, den)`` with ``a * num / den == 1``, for a nonzero integer
        vector ``a``; the pair is not yet in canonical form.

        ``num`` is the product of the other Galois conjugates of ``a``, the
        images under zeta -> zeta**k for the units k != 1 mod n, and ``den``
        is ``a * num``, the rational norm of ``a``."""
        if not any(a):
            raise DivisionByZero("division by zero")
        num = [1] + [0] * (self.base_dim - 1)
        if not any(a[1:]):
            # a rational number: 1 / a[0]
            return num, a[0]
        n = self.order
        for k in range(2, n):
            if gcd(k, n) == 1:
                num = self._mul_base(num, _power_map(self, a, k))
        return num, self._mul_base(a, num)[0]


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
                    k = target.order // ctx.order
                    return _canon(target, _power_map(target, a, k)
                                  + _power_map(target, b, k), self.den)
            raise FieldMismatch(f"cannot embed {ctx} into {target}")
        if target.order % ctx.order != 0:
            raise FieldMismatch(
                f"no embedding of order {ctx.order} into order {target.order}")
        out = _power_map(target, a, target.order // ctx.order)
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


def _power_map(target: FieldContext, a: Sequence[int], k: int) -> list[int]:
    """Base-field numerators ``a`` with each zeta**j sent to
    zeta_target**(j*k), reduced in the base field of ``target``.

    With ``target`` the context of ``a`` and k a unit mod its order this is
    the Galois conjugation zeta -> zeta**k; with ``a`` from Q(zeta_m) and
    ``k = target.order // m`` it is the embedding zeta_m -> zeta_target**k."""
    n = target.order
    out = [0] * target.base_dim
    for j, c in enumerate(a):
        if c:
            for i, t in enumerate(target._zeta_powers[j * k % n]):
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

    It is kept as the inverse of :func:`render_literal`: ``scal(ctx,
    render_literal(x)) == x`` for every element ``x`` of ``ctx``, so that a
    rendered scalar reads back exactly and a literal such as ``"1+i"`` can
    stand for a scalar wherever :func:`scal` reads one.

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


def polynomial_roots(ctx: FieldContext, coeffs: Sequence[Rat | FieldElement]
                     ) -> Optional[list["FieldElement"]]:
    """All distinct roots in ``ctx``, or None if completeness is uncertain.

    Complete for degree <= 2 (quadratic formula plus :func:`sqrt_in_context`)
    wherever that square root is complete (see there), over the plain
    rationals for any degree (rational root theorem), and for anything that
    reduces to those after stripping roots at zero.  Elsewhere a quadratic
    whose discriminant has no square root found gives None.
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
                # a proof of no roots only where the square root is complete
                return None if ctx.order & (ctx.order - 1) else []
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
            cs = _poly_divmod(cs, [-x, ctx.one()])
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


def _sqrt_candidates(x: FieldElement) -> Iterator[FieldElement]:
    """Candidate square roots of a nonzero ``x``, in the order they are
    tried; each is a root unless a step below it went wrong."""
    ctx = x.ctx
    n = ctx.order
    if ctx.has_layer:
        t, d = ctx.sqrt_symbol(), ctx.discriminant
        a, b = x.base_part(), x.layer_part()
    elif n <= 2:
        r = _rational_sqrt(x.as_rational())
        if r is not None:
            yield ctx.scalar(r)
        return
    elif n & (n - 1):
        # other orders reach only the subfield Q(i) when 4 | n, else Q:
        # read x as c + e*i with rational c and e (e = 0 without i)
        c = x.coeffs[0]
        sub = FieldContext(4 if n % 4 == 0 else 1)
        e = (x - c) / ctx.i() if sub.order == 4 else x - c
        if e.is_rational():
            y = _tower_sqrt(sub.scalar(c) + sub.zeta() * e.as_rational())
            if y is not None:
                yield y.coerce(ctx)
        return
    else:
        # n a power of two: Q(zeta_n) over Q(zeta_{n/2})
        sub, t = FieldContext(n // 2), ctx.zeta()
        d = sub.zeta()
        a, b = sub.element(x.coeffs[0::2]), sub.element(x.coeffs[1::2])
    if b.is_zero():
        u = _tower_sqrt(a)
        if u is not None:
            yield u.coerce(ctx)
        v = _tower_sqrt(a / d)
        if v is not None:
            yield v.coerce(ctx) * t
        return
    g = _tower_sqrt(a * a - d * b * b)
    if g is None:
        return
    for sign in (1, -1):
        u = _tower_sqrt((a + g * sign) * Fraction(1, 2))
        if u is not None and not u.is_zero():
            yield u.coerce(ctx) + (b / (2 * u)).coerce(ctx) * t


def _tower_sqrt(x: FieldElement) -> Optional[FieldElement]:
    """The first candidate of :func:`_sqrt_candidates` that squares to
    ``x``, or None."""
    if x.is_zero():
        return x.ctx.zero()
    return next((y for y in _sqrt_candidates(x) if y * y == x), None)


def sqrt_in_context(x: FieldElement) -> FieldElement:
    """A square root of ``x`` in its own context.

    Raises :class:`NeedsFieldExtension` (carrying ``x`` as the discriminant)
    when no square root is found; the caller may then ``adjoin_sqrt`` and
    retry, where the new symbol itself is the answer.

    Complete (a refusal proves there is no root) over Q(zeta_n) for ``n`` a
    power of two, and over a layer on such a base that is a field; over other
    orders only roots in Q, or in Q(i) when 4 | n, are found.  A layer from
    ``adjoin_sqrt`` of a square has zero divisors, and an element may have
    more square roots there than the one returned.
    """
    y = _tower_sqrt(x)
    if y is None:
        raise NeedsFieldExtension(x)
    return y
