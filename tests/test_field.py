"""Exact-arithmetic kernel: cyclotomic contexts, literals, square roots."""

from fractions import Fraction
from math import gcd
import random

import pytest

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
    _divide_linear,
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
        _divide_linear([Q.scalar(-1), Q.one()], Q.scalar(2))
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
    for ctx in (QI, Q8):
        for _ in range(30):
            x = _random_element(ctx, rng)
            y = x * x
            r = sqrt_in_context(y)
            assert r * r == y


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
    (4, None), (4, "1+i"),
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
        pool.append(ctx.sqrt_symbol())
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
