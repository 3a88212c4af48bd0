"""Exact-arithmetic kernel: cyclotomic contexts, literals, square roots."""

from fractions import Fraction
import io
from math import gcd, isqrt, lcm
import random
import tokenize

import pytest

from hopfexact import field
from hopfexact.errors import (
    AlreadyExtended,
    DivisionByZero,
    FieldMismatch,
    HopfExactError,
    NeedsFieldExtension,
    ZeroDiscriminant,
)
from hopfexact.field import (
    FieldContext,
    FieldElement,
    _poly_divmod,
    adjoin_sqrt,
    cyclotomic_polynomial,
    euler_phi,
    render_literal,
    scal,
    sqrt_in_context,
)

Q = FieldContext(1)
QI = FieldContext(4)
Q8 = FieldContext(8)


def F(*args):
    return Fraction(*args)


# -- cyclotomic polynomials ------------------------------------------------

@pytest.mark.parametrize("n,coeffs", [
    (1, (-1, 1)),
    (2, (1, 1)),
    (3, (1, 1, 1)),
    (4, (1, 0, 1)),
    (5, (1, 1, 1, 1, 1)),
    (6, (1, -1, 1)),
    (8, (1, 0, 0, 0, 1)),
    (12, (1, 0, -1, 0, 1)),
])
def test_cyclotomic_polynomial(n, coeffs):
    assert cyclotomic_polynomial(n) == tuple(map(Fraction, coeffs))


@pytest.mark.parametrize("n,phi", [(1, 1), (2, 1), (4, 2), (8, 4), (9, 6), (12, 4), (15, 8)])
def test_euler_phi(n, phi):
    assert euler_phi(n) == phi


# -- basic arithmetic --------------------------------------------------------

def test_half_plus_half_is_one():
    h = Q.scalar(F(1, 2))
    assert h + h == Q.one()


def test_i_squares_to_minus_one():
    assert QI.i() * QI.i() == QI.scalar(-1)
    assert Q8.i() == Q8.zeta(2)
    assert Q8.zeta(1) * Q8.zeta(3) == Q8.scalar(-1)


def test_order_two_root_is_minus_one():
    ctx2 = FieldContext(2)
    assert ctx2.zeta(1) == ctx2.scalar(-1)
    assert ctx2.zeta(1) * ctx2.zeta(1) == ctx2.one()


def test_gaussian_inverse_frozen():
    x = scal(QI, "1+i")
    assert x.inverse() == QI.element((F(1, 2), F(-1, 2)))
    assert x * x.inverse() == QI.one()


def test_fifth_root_power_basis_reduction():
    ctx5 = FieldContext(5)
    # zeta^4 = -(1 + zeta + zeta^2 + zeta^3) from the minimal polynomial
    assert ctx5.zeta(4).coeffs == (F(-1), F(-1), F(-1), F(-1))
    total = ctx5.zero()
    for k in range(5):
        total = total + ctx5.zeta(k)
    assert total.is_zero()


def test_pow_and_negative_pow():
    x = scal(QI, "2+i")
    assert x ** 0 == QI.one()
    assert x ** 3 == x * x * x
    assert x ** -2 == (x * x).inverse()


def test_division_by_zero_raises():
    with pytest.raises(DivisionByZero):
        QI.zero().inverse()
    with pytest.raises(DivisionByZero):
        QI.one() / QI.zero()


def test_inexact_divisions_raise_typed_errors():
    # t**2 + 1 is not a multiple of t - 1, and 2 is not a root of t - 1
    with pytest.raises(HopfExactError):
        _poly_divmod([F(1), F(0), F(1)], [F(-1), F(1)])
    with pytest.raises(HopfExactError):
        _poly_divmod([Q.scalar(-1), Q.one()], [Q.scalar(-2), Q.one()])
    assert _poly_divmod([F(-1), F(0), F(1)], [F(-1), F(1)]) == [F(1), F(1)]


# -- coercion ---------------------------------------------------------------

def test_rational_embeds_into_gaussian():
    a = Q.scalar(F(3, 7))
    b = a.coerce(QI)
    assert b.ctx == QI and b.as_rational() == F(3, 7)
    assert a + QI.i() == QI.element((F(3, 7), 1))


def test_fourth_root_embeds_into_eighth():
    assert QI.zeta(1).coerce(Q8) == Q8.zeta(2)
    assert QI.zeta(1) == Q8.zeta(2)  # mixed-context equality coerces


def test_no_embedding_between_incompatible_orders():
    ctx3 = FieldContext(3)
    with pytest.raises(FieldMismatch):
        ctx3.zeta(1).coerce(QI)
    assert (ctx3.zeta(1) == QI.i()) is False


def test_layer_coercion_from_base():
    ext = adjoin_sqrt(Q, 2)
    x = Q.scalar(5).coerce(ext)
    assert x == ext.scalar(5)
    assert ext.sqrt_symbol() * ext.sqrt_symbol() == ext.scalar(2)


# -- literal grammar ----------------------------------------------------------

@pytest.mark.parametrize("text,coeffs", [
    ("0", (0, 0)),
    ("1/2", (F(1, 2), 0)),
    ("1 - i", (1, -1)),
    ("-3/2*i", (0, F(-3, 2))),
    ("(1+i)*(1-i)", (2, 0)),
    ("2*i*i", (-2, 0)),
])
def test_literal_parse_gaussian(text, coeffs):
    assert scal(QI, text) == QI.element(tuple(map(F, coeffs)))


def test_literal_parse_zeta():
    assert scal(Q8, "z(8,1)") == Q8.zeta(1)
    assert scal(Q8, "z(4,1)") == Q8.zeta(2)
    assert scal(Q8, "z(8,3) - i") == Q8.zeta(3) - Q8.i()


def test_literal_parse_layer_symbol():
    ext = adjoin_sqrt(QI, "1+i")
    x = scal(ext, "1/2 + i*s - s")
    assert x.base_part() == QI.scalar(F(1, 2))
    assert x.layer_part() == scal(QI, "i - 1")


def test_literal_rejects_trailing_garbage():
    with pytest.raises(ValueError):
        scal(QI, "1 + ")
    with pytest.raises(ValueError):
        scal(QI, "2 2")


def test_literal_rejects_non_embedding_root():
    with pytest.raises(FieldMismatch):
        scal(Q8, "z(3,1)")


def test_imaginary_unit_requires_order_divisible_by_four():
    with pytest.raises(FieldMismatch):
        scal(FieldContext(6), "i")


def test_render_round_trip_seeded():
    rng = random.Random(20260815)
    contexts = [Q, QI, Q8, adjoin_sqrt(QI, "1+i"), adjoin_sqrt(Q, 2)]
    for _ in range(60):
        ctx = rng.choice(contexts)
        coeffs = [F(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(ctx.dim)]
        x = ctx.element(coeffs)
        assert scal(ctx, render_literal(x)) == x


# -- quadratic layer ----------------------------------------------------------

def test_adjoining_perfect_square_gives_zero_divisors():
    ext = adjoin_sqrt(Q, 4)
    s = ext.sqrt_symbol()
    a = ext.scalar(2) + s
    b = ext.scalar(2) - s
    assert (a * b).is_zero()
    with pytest.raises(DivisionByZero):
        b.inverse()


def test_adjoin_guards():
    ext = adjoin_sqrt(Q, 2)
    with pytest.raises(AlreadyExtended):
        adjoin_sqrt(ext, 3)
    with pytest.raises(ZeroDiscriminant):
        adjoin_sqrt(Q, 0)


def test_layered_inverse_in_honest_extension():
    ext = adjoin_sqrt(Q, 2)
    x = scal(ext, "1 + s")  # (1+s)(−1+s) = 1 → inverse is s−1
    assert x.inverse() == scal(ext, "s - 1")
    assert x * x.inverse() == ext.one()


# -- square roots --------------------------------------------------------------

def test_sqrt_rational_cases():
    assert sqrt_in_context(Q.scalar(F(9, 4))) == Q.scalar(F(3, 2))
    assert sqrt_in_context(Q.zero()) == Q.zero()
    with pytest.raises(NeedsFieldExtension):
        sqrt_in_context(Q.scalar(2))


def test_sqrt_negative_rational_needs_i():
    assert sqrt_in_context(QI.scalar(-4)) == QI.element((0, 2))
    with pytest.raises(NeedsFieldExtension):
        sqrt_in_context(Q.scalar(-1))


def test_sqrt_gaussian():
    y = sqrt_in_context(scal(QI, "2*i"))
    assert y * y == scal(QI, "2*i")
    assert y == scal(QI, "1+i") or y == scal(QI, "-1-i")


def test_sqrt_two_in_eighth_cyclotomic():
    y = sqrt_in_context(Q8.scalar(2))
    assert y * y == Q8.scalar(2)
    assert y in (Q8.zeta(1) - Q8.zeta(3), Q8.zeta(3) - Q8.zeta(1))


def test_sqrt_failure_carries_discriminant():
    x = scal(Q8, "1 - i")
    with pytest.raises(NeedsFieldExtension) as exc:
        sqrt_in_context(x)
    assert exc.value.discriminant == x


def test_sqrt_after_adjoining():
    ext = adjoin_sqrt(Q8, "1 + i")
    x = scal(ext, "1 - i")
    y = sqrt_in_context(x)
    assert y * y == x
    # frozen value: zeta_8^3 * s squares to -i*(1+i) = 1-i
    assert y in (scal(ext, "z(8,3)*s"), scal(ext, "-z(8,3)*s"))


def test_sqrt_layered_quadratic_formula():
    ext = adjoin_sqrt(Q, 2)
    x = scal(ext, "3 + 2*s")
    assert sqrt_in_context(x) == scal(ext, "1 + s")


def test_sqrt_of_discriminant_is_the_symbol():
    ext = adjoin_sqrt(Q8, "1 + i")
    y = sqrt_in_context(scal(ext, "1 + i"))
    assert y * y == scal(ext, "1 + i")
    assert y in (ext.sqrt_symbol(), -ext.sqrt_symbol())


# -- algebraic laws on random elements -----------------------------------------

def _random_element(ctx, rng):
    return ctx.element([F(rng.randint(-5, 5), rng.randint(1, 3))
                        for _ in range(ctx.dim)])


# one fixed seed per context: a seed derived from hash(ctx) would change from
# process to process, since the key of an unlayered context holds None
@pytest.mark.parametrize("ctx,seed", [(Q, 4101), (QI, 4102), (Q8, 4103),
                                      (adjoin_sqrt(Q8, "1+i"), 4104)],
                         ids=["Q", "Q(i)", "Q(z8)", "Q(z8)[s]"])
def test_field_axioms_seeded(ctx, seed):
    rng = random.Random(seed)
    for _ in range(40):
        x, y, z = (_random_element(ctx, rng) for _ in range(3))
        assert (x + y) + z == x + (y + z)
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z
        assert x + (-x) == ctx.zero()
        if not x.is_zero():
            assert x * x.inverse() == ctx.one()


def test_sqrt_round_trip_seeded():
    rng = random.Random(7)
    Q16 = FieldContext(16)
    for ctx in (QI, Q8, Q16):
        for _ in range(30):
            x = _random_element(ctx, rng)
            y = x * x
            r = sqrt_in_context(y)
            assert r * r == y
    # the step from Q(zeta_8) up to Q(zeta_16) reaches roots that Q(zeta_8)
    # lacks
    assert sqrt_in_context(Q16.zeta(2)) == Q16.zeta(1)
    assert sqrt_in_context(Q16.scalar(2)) == Q16.zeta(2) - Q16.zeta(6)


def test_sqrt_refuses_a_candidate_that_does_not_square_back(monkeypatch):
    # a wrong root from the rational base case must surface as a refusal,
    # never as a returned value
    monkeypatch.setattr(field, "_rational_sqrt", lambda q: q + 1)
    for x in (scal(QI, "2*i"), QI.scalar(-4), Q8.scalar(2),
              scal(adjoin_sqrt(Q, 2), "3 + 2*s")):
        with pytest.raises(NeedsFieldExtension):
            sqrt_in_context(x)


# -- square roots against a copy of the per-field helpers they replaced -------
#
# The reference below is the square-root code as it was before one recursive
# step served every level of the tower: a Q(i) routine, a Q(zeta_8) routine
# over Q(i), the Q(i)-subfield branch for other orders divisible by 4, and
# the layer branch.  The tower must return the same root, sign included, and
# refuse the same inputs.

def _ref_rational_sqrt(q):
    if q < 0:
        return None
    p, r = q.numerator, q.denominator
    sp, sr = isqrt(p), isqrt(r)
    if sp * sp == p and sr * sr == r:
        return F(sp, sr)
    return None


def _ref_gaussian_sqrt(ctx4, x):
    c, d = x.coeffs[0], x.coeffs[1]
    if d == 0:
        r = _ref_rational_sqrt(c)
        if r is not None:
            return ctx4.scalar(r)
        r = _ref_rational_sqrt(-c)
        if r is not None:
            return ctx4.element((0, r))
        return None
    r = _ref_rational_sqrt(c * c + d * d)
    if r is None:
        return None
    u = _ref_rational_sqrt((c + r) / 2)
    if u is not None and u != 0:
        cand = ctx4.element((u, d / (2 * u)))
        if cand * cand == x:
            return cand
    v = _ref_rational_sqrt((r - c) / 2)
    if v is not None and v != 0:
        cand = ctx4.element((d / (2 * v), v))
        if cand * cand == x:
            return cand
    return None


def _ref_sqrt_order8(ctx8, x):
    ctx4 = FieldContext(4)
    c0, c1, c2, c3 = x.coeffs
    a, b = ctx4.element((c0, c2)), ctx4.element((c1, c3))

    def embed(u, v):
        return ctx8.element((u.coeffs[0], v.coeffs[0], u.coeffs[1], v.coeffs[1]))

    i4 = ctx4.element((0, 1))
    if b.is_zero():
        g = _ref_gaussian_sqrt(ctx4, a)
        if g is not None:
            return embed(g, ctx4.zero())
        g = _ref_gaussian_sqrt(ctx4, a * (-i4))
        if g is not None:
            return embed(ctx4.zero(), g)
        return None
    g = _ref_gaussian_sqrt(ctx4, a * a - i4 * b * b)
    if g is None:
        return None
    for sign in (1, -1):
        u = _ref_gaussian_sqrt(ctx4, (a + g * sign) * F(1, 2))
        if u is not None and not u.is_zero():
            cand = embed(u, b / (2 * u))
            if cand * cand == x:
                return cand
    return None


def _ref_base_sqrt(x):
    ctx = x.ctx
    if x.is_zero():
        return ctx.zero()
    if x.is_rational():
        r = _ref_rational_sqrt(x.as_rational())
        if r is not None:
            return ctx.scalar(r)
        if ctx.order % 4 == 0:
            r = _ref_rational_sqrt(-x.as_rational())
            if r is not None:
                return ctx.i() * ctx.scalar(r)
        if ctx.order % 8 != 0 and ctx.order != 4:
            return None
    if ctx.order == 4:
        return _ref_gaussian_sqrt(ctx, x)
    if ctx.order == 8:
        return _ref_sqrt_order8(ctx, x)
    if ctx.order % 4 == 0 and not x.is_rational():
        c = x.coeffs[0]
        ratio = (x - ctx.scalar(c)) * ctx.i().inverse()
        if ratio.is_rational():
            sub = FieldContext(4)
            g = _ref_gaussian_sqrt(sub, sub.element((c, ratio.as_rational())))
            if g is not None:
                return g.coerce(ctx)
    return None


def _ref_sqrt_in_context(x):
    ctx = x.ctx
    if x.is_zero():
        return ctx.zero()
    if not ctx.has_layer:
        y = _ref_base_sqrt(x)
        if y is not None and y * y == x:
            return y
        raise NeedsFieldExtension(x)
    a, b = x.base_part(), x.layer_part()
    d0 = ctx.discriminant
    if b.is_zero():
        y = _ref_base_sqrt(a)
        if y is not None and y.coerce(ctx) * y.coerce(ctx) == x:
            return y.coerce(ctx)
        c = _ref_base_sqrt(a / d0)
        if c is not None:
            cand = c.coerce(ctx) * ctx.sqrt_symbol()
            if cand * cand == x:
                return cand
        raise NeedsFieldExtension(x)
    g = _ref_base_sqrt(a * a - d0 * b * b)
    if g is not None:
        for sign in (1, -1):
            u = _ref_base_sqrt((a + g * sign) * F(1, 2))
            if u is not None and not u.is_zero():
                cand = (u.coerce(ctx)
                        + (b / (2 * u)).coerce(ctx) * ctx.sqrt_symbol())
                if cand * cand == x:
                    return cand
    raise NeedsFieldExtension(x)


def _sqrt_outcome(fn, x):
    try:
        return ("root", fn(x))
    except NeedsFieldExtension as exc:
        return ("refused", exc.discriminant)


# the last two layers adjoin a square, so they have zero divisors and an
# element may have several roots: they pin which root is tried first
_SQRT_FIELDS = [(1, None), (4, None), (8, None), (12, None), (20, None),
                (24, None), (3, None), (1, "2"), (4, "1+i"), (4, "3"),
                (8, "1+i"), (12, "2"), (1, "4"), (4, "-1")]


@pytest.mark.parametrize("order,disc", _SQRT_FIELDS,
                         ids=[f"{o}-{d}" for o, d in _SQRT_FIELDS])
def test_sqrt_matches_the_per_field_reference(order, disc):
    base = FieldContext(order)
    ctx = base if disc is None else adjoin_sqrt(base, disc)
    rng = random.Random(9000 + 31 * order + len(disc or ""))
    qi = FieldContext(4)
    for k in range(24):
        # full elements, elements of the Q(i) subfield, rationals
        if k % 3 == 0:
            x = _random_element(ctx, rng)
        elif k % 3 == 1 and order % 4 == 0:
            x = _random_element(qi, rng).coerce(ctx)
        else:
            x = ctx.scalar(F(rng.randint(-6, 6), rng.randint(1, 3)))
        for y in (x, x * x, -(x * x), 2 * x * x):
            assert _sqrt_outcome(sqrt_in_context, y) == \
                _sqrt_outcome(_ref_sqrt_in_context, y), y


# -- packed arithmetic against a Fraction-tuple reference ------------------------
#
# The reference keeps every element as a tuple of Fractions over the power
# basis (base part, then the coefficient of s) and reduces products modulo
# cyclotomic_polynomial(n) directly; inverses solve the multiplication matrix
# by plain Gaussian elimination, so a zero divisor shows as a singular matrix.

def _ref_mul_base(a, b, n):
    phi = cyclotomic_polynomial(n)
    m = len(phi) - 1
    prod = [F(0)] * (2 * m - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                prod[i + j] += x * y
    for k in range(2 * m - 2, m - 1, -1):
        c = prod[k]
        if c:
            for j in range(m + 1):
                prod[k - m + j] -= c * phi[j]
    return tuple(prod[:m])


def _ref_mul(x, y, n, disc):
    if disc is None:
        return _ref_mul_base(x, y, n)
    m = len(x) // 2
    a1, b1, a2, b2 = x[:m], x[m:], y[:m], y[m:]
    bbd = _ref_mul_base(_ref_mul_base(b1, b2, n), disc, n)
    real = tuple(p + q for p, q in zip(_ref_mul_base(a1, a2, n), bbd))
    layer = tuple(p + q for p, q in zip(_ref_mul_base(a1, b2, n),
                                         _ref_mul_base(b1, a2, n)))
    return real + layer


def _ref_inverse(x, n, disc):
    """The inverse as a Fraction tuple, or None for a zero divisor."""
    dim = len(x)
    unit = [tuple(F(int(i == j)) for i in range(dim)) for j in range(dim)]
    cols = [_ref_mul(x, e, n, disc) for e in unit]
    aug = [[cols[j][i] for j in range(dim)] + [F(int(i == 0))]
           for i in range(dim)]
    for c in range(dim):
        piv = next((r for r in range(c, dim) if aug[r][c]), None)
        if piv is None:
            return None
        aug[c], aug[piv] = aug[piv], aug[c]
        aug[c] = [v / aug[c][c] for v in aug[c]]
        for r in range(dim):
            if r != c and aug[r][c]:
                f = aug[r][c]
                aug[r] = [v - f * w for v, w in zip(aug[r], aug[c])]
    return tuple(aug[i][dim] for i in range(dim))


def _ref_zeta(n, k, dim):
    phi = cyclotomic_polynomial(n)
    m = len(phi) - 1
    x = (F(1),) + (F(0),) * (m - 1)
    z = (-phi[0],) if m == 1 else (F(0), F(1)) + (F(0),) * (m - 2)
    for _ in range(k % n):
        x = _ref_mul_base(x, z, n)
    return x + (F(0),) * (dim - m)


def _assert_canonical(x):
    assert type(x.den) is int and x.den > 0
    assert len(x.num) == x.ctx.dim and all(type(c) is int for c in x.num)
    assert gcd(x.den, *x.num) == 1
    assert x.coeffs == tuple(F(c, x.den) for c in x.num)
    again = x.ctx.element(x.coeffs)
    assert again == x and hash(again) == hash(x)
    assert (again.num, again.den) == (x.num, x.den)


def _random_coeffs(dim, rng):
    shape = rng.randrange(4)
    if shape == 0:      # sparse
        cs = [F(0)] * dim
        cs[rng.randrange(dim)] = F(rng.randint(-9, 9), rng.randint(1, 6))
        return cs
    if shape == 1:      # a common factor to divide out
        k = rng.choice([2, 3, 6])
        return [F(k * rng.randint(-4, 4), 6) for _ in range(dim)]
    if shape == 2:      # large numerators and denominators
        return [F(rng.randint(-10**9, 10**9), rng.randint(1, 10**6))
                for _ in range(dim)]
    return [F(rng.randint(-6, 6), rng.randint(1, 5)) for _ in range(dim)]


_DIFF_FIELDS = [
    (1, None), (1, "2"), (1, "4"),
    (3, None), (3, "z(3,1)"),
    (4, None), (4, "1+i"), (4, "4"),
    (5, None), (5, "2 + z(5,1)"),
    (8, None), (8, "1+i"),
    (12, None), (12, "3 - z(12,1)"),
]


@pytest.mark.parametrize("order,disc", _DIFF_FIELDS,
                         ids=[f"{n}[{d}]" for n, d in _DIFF_FIELDS])
def test_packed_arithmetic_matches_fraction_reference(order, disc):
    base = FieldContext(order)
    ctx = base if disc is None else adjoin_sqrt(base, disc)
    ref_disc = None if disc is None else scal(base, disc).coeffs
    n, dim = order, ctx.dim

    def mul(x, y):
        return _ref_mul(x, y, n, ref_disc)

    rng = random.Random(f"packed:{order}:{disc}")
    pool = [ctx.zero(), ctx.one(), ctx.scalar(-1), ctx.scalar(F(-7, 3))]
    pool += [ctx.element(_random_coeffs(dim, rng)) for _ in range(12)]
    if disc is not None:
        # s - 2 and s + 2 are zero divisors when d = 4
        root = ctx.sqrt_symbol()
        pool += [root, root - 2, root + 2]
    for x in pool:
        _assert_canonical(x)
    # a factor of 1 or -1 on either side, against the reference product
    for unit in (ctx.one(), ctx.scalar(-1)):
        for x in pool:
            for got in (unit * x, x * unit):
                _assert_canonical(got)
                assert got.ctx is ctx
                assert got.coeffs == mul(unit.coeffs, x.coeffs)
    for _ in range(60):
        x, y = rng.choice(pool), rng.choice(pool)
        rx, ry = x.coeffs, y.coeffs
        for got, want in [
            (x + y, tuple(p + q for p, q in zip(rx, ry))),
            (x - y, tuple(p - q for p, q in zip(rx, ry))),
            (-x, tuple(-p for p in rx)),
            (x * y, mul(rx, ry)),
        ]:
            _assert_canonical(got)
            assert got.coeffs == want
        assert (x == y) == (rx == ry)
        assert x * y == y * x and hash(x * y) == hash(y * x)
        assert (x + y) - y == x and hash((x + y) - y) == hash(x)
        if x.is_zero():
            with pytest.raises(DivisionByZero):
                x.inverse()
            continue
        want = _ref_inverse(rx, n, ref_disc)
        if want is None:
            with pytest.raises(DivisionByZero):
                x.inverse()
            continue
        inv = x.inverse()
        _assert_canonical(inv)
        assert inv.coeffs == want
        assert x * inv == ctx.one() and hash(x * inv) == hash(ctx.one())
        k = rng.randint(-3, 4)
        power = x ** k
        _assert_canonical(power)
        want_pow = (F(1),) + (F(0),) * (dim - 1)
        for _ in range(abs(k)):
            want_pow = mul(want_pow, rx if k > 0 else want)
        assert power.coeffs == want_pow

    # equal values built by different routes
    for k in range(-order, 2 * order + 1):
        z = ctx.zeta(k)
        _assert_canonical(z)
        assert z.coeffs == _ref_zeta(n, k, dim)
        assert z == ctx.zeta(1) ** (k % order) == ctx.element(z.coeffs)
        assert hash(z) == hash(ctx.zeta(1) ** (k % order))
    for q in (F(0), F(1), F(-5, 4), F(12, 8)):
        s = ctx.scalar(q)
        _assert_canonical(s)
        routes = [ctx.element([q] + [0] * (dim - 1)), ctx.one() * q,
                  q * ctx.one(), ctx.zero() + q, FieldContext(1).scalar(q)]
        for r in routes:
            assert r == s and hash(r.coerce(ctx)) == hash(s)

    # rational inputs, negative ones included, invert by the rational path;
    # with a layer, a + b*s with rational a, b has a rational norm
    rationals = [ctx.scalar(q) for q in (F(1), F(-1), F(2), F(-5), F(3, 7),
                                         F(-9, 4), F(-10**9, 7))]
    if disc is not None:
        rationals += [ctx.scalar(a) + ctx.scalar(b) * ctx.sqrt_symbol()
                      for a, b in ((F(2, 3), F(-1, 2)), (F(-3), F(1, 5)))]
    for x in rationals:
        rx = x.coeffs
        want = _ref_inverse(rx, n, ref_disc)
        if want is None:
            with pytest.raises(DivisionByZero):
                x.inverse()
            continue
        inv = x.inverse()
        _assert_canonical(inv)
        assert inv.coeffs == want
        for y in pool[:6]:
            got = x * y
            _assert_canonical(got)
            assert got.coeffs == mul(rx, y.coeffs)
            assert (y / x).coeffs == mul(y.coeffs, want)


def test_perfect_square_layer_has_zero_divisors_everywhere():
    # zeta_3 = (zeta_3**2)**2, so s - zeta_3**2 is a zero divisor over Q(zeta_3)
    ext = adjoin_sqrt(FieldContext(3), "z(3,1)")
    s, z2 = ext.sqrt_symbol(), ext.zeta(2)
    assert ((s - z2) * (s + z2)).is_zero()
    for x in (s - z2, (s + z2) * ext.scalar(F(5, 3))):
        with pytest.raises(DivisionByZero):
            x.inverse()
        with pytest.raises(DivisionByZero):
            ext.one() / x


# -- the conjugate-product inverse against the Gauss-Jordan it replaced ---------
#
# ``_ref_inv_base`` is the earlier fraction-free Gauss-Jordan solve of
# (multiplication-by-a matrix) x = e0, and ``_ref_inverse_packed`` applies it
# through ``_canon`` exactly as ``FieldElement.inverse`` does.  An inverse is
# unique and the packed form canonical, so both give the same ``(num, den)``.

def _ref_inv_base(ctx, a):
    m = ctx.base_dim
    if not any(a):
        raise DivisionByZero("division by zero")
    if not any(a[1:]):
        return [1] + [0] * (m - 1), a[0]
    cols = [ctx._mul_base(a, ctx._zeta_powers[j]) for j in range(m)]
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


def _ref_inverse_packed(x):
    ctx = x.ctx
    if x.is_zero():
        raise DivisionByZero("division by zero")
    if ctx._disc is None:
        num, den = _ref_inv_base(ctx, x.num)
        return field._canon(ctx, [c * x.den for c in num], den)
    m = ctx.base_dim
    a, b = x.num[:m], x.num[m:]
    dn, dd = ctx._disc
    mul = ctx._mul_base
    norm = [dd * p - q for p, q in zip(mul(a, a), mul(mul(b, b), dn))]
    if not any(norm):
        raise DivisionByZero(f"zero divisor in quadratic layer: {x}")
    u, w = _ref_inv_base(ctx, norm)
    k = x.den * dd
    return field._canon(ctx, [k * c for c in mul(a, u)]
                        + [-k * c for c in mul(b, u)], w)


def _sparse_element(ctx, rng):
    """A seeded element with about 30 % of its coordinates zero."""
    return ctx.element([F(0) if rng.random() < 0.3
                        else F(rng.randint(-9, 9), rng.randint(1, 6))
                        for _ in range(ctx.dim)])


def _outcome(fn, x):
    try:
        y = fn(x)
    except DivisionByZero as exc:
        return ("refused", str(exc))
    return (y.num, y.den)


_INV_FIELDS = [(n, None) for n in (1, 2, 3, 4, 5, 6, 8, 12, 16, 20, 24)] + [
    (4, "4"), (4, "1+i"), (8, "2"), (1, "4"), (12, "3")]


@pytest.mark.parametrize("order,disc", _INV_FIELDS,
                         ids=[f"{n}[{d}]" for n, d in _INV_FIELDS])
def test_inverse_matches_the_gauss_jordan_reference(order, disc):
    base = FieldContext(order)
    ctx = base if disc is None else adjoin_sqrt(base, disc)
    rng = random.Random(f"conjugates:{order}:{disc}")
    refused = 0
    for _ in range(200):
        x = _sparse_element(ctx, rng)
        got = _outcome(FieldElement.inverse, x)
        assert got == _outcome(_ref_inverse_packed, x)
        if got[0] == "refused":
            refused += not x.is_zero()
            continue
        assert x * x.inverse() == ctx.one()
    # Q(i)[sqrt 4] and Q[sqrt 4] have nonzero zero divisors among the samples
    assert (refused > 0) == (disc == "4")


def test_layer_to_layer_coercion_commutes_with_arithmetic():
    src = adjoin_sqrt(QI, "1+i")
    dst = adjoin_sqrt(Q8, "1+i")
    assert src.sqrt_symbol().coerce(dst) == dst.sqrt_symbol()
    assert QI.i().coerce(src).coerce(dst) == dst.zeta(2)
    rng = random.Random("layer-coercion")
    pool = [_sparse_element(src, rng) for _ in range(30)]
    for x, y in zip(pool, pool[1:]):
        xd, yd = x.coerce(dst), y.coerce(dst)
        assert xd.ctx is dst
        assert (x * y).coerce(dst) == xd * yd
        assert (x + y).coerce(dst) == xd + yd
        if not x.is_zero():
            assert x.inverse().coerce(dst) == xd.inverse()
    with pytest.raises(FieldMismatch):
        dst.sqrt_symbol().coerce(src)
    with pytest.raises(FieldMismatch):
        src.sqrt_symbol().coerce(adjoin_sqrt(Q8, "2"))


# -- the straight-line multiply kernel against the looped reference ------------

_KERNEL_ORDERS = (1, 3, 4, 5, 7, 8, 9, 12, 15, 16, 20, 24)


def _integer_vector(m, rng):
    """A seeded integer vector: sparse, small, or with large entries."""
    shape = rng.randrange(3)
    if shape == 0:
        return tuple(0 if rng.random() < 0.6 else rng.randint(-9, 9)
                     for _ in range(m))
    if shape == 1:
        return tuple(rng.randint(-3, 3) for _ in range(m))
    return tuple(rng.randint(-10**12, 10**12) for _ in range(m))


@pytest.mark.parametrize("order", _KERNEL_ORDERS)
def test_mul_kernel_matches_the_looped_reference(order):
    ctx = FieldContext(order)
    m = ctx.base_dim
    mul = ctx._mul_base
    rng = random.Random(f"kernel:{order}")
    units = [tuple(int(i == j) for i in range(m)) for j in range(m)]
    vectors = [_integer_vector(m, rng) for _ in range(40)]
    for a in units + vectors:
        for b in units + vectors[:10]:
            got = mul(a, b)
            assert type(got) is tuple and len(got) == m
            assert all(type(c) is int for c in got)
            assert got == _ref_mul_base(a, b, order)
            # list inputs, as the conjugate products pass them, read alike
            assert mul(list(a), list(b)) == got


@pytest.mark.parametrize("order", _KERNEL_ORDERS)
def test_mul_kernel_source_holds_only_the_tables_integers(order):
    """The source is fixed text, coordinate names and the integers of the
    reduction table: no string literal, no loop, no other number."""
    source = field._mul_kernel_source(order)
    m = euler_phi(order)
    powers = field._zeta_power_table(order)
    table = {abs(c) for k in range(m, 2 * m - 1) for c in powers[k] if c}
    tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
    numbers = {int(t.string) for t in tokens if t.type == tokenize.NUMBER}
    names = {t.string for t in tokens if t.type == tokenize.NAME}
    assert numbers <= table
    assert not any(t.type == tokenize.STRING for t in tokens)
    assert names.isdisjoint({"for", "while", "import", "lambda"})
    # one kernel per order, shared by every context of that order
    layered = adjoin_sqrt(FieldContext(order), 2)
    assert FieldContext(order)._mul_base is field._mul_kernel(order)
    assert layered._mul_base is field._mul_kernel(order)
    assert "_mul_base" not in vars(FieldContext)
