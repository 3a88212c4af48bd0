"""Exact-arithmetic kernel: cyclotomic contexts, literals, square roots."""

from fractions import Fraction
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


@pytest.mark.parametrize("ctx", [Q, QI, Q8, adjoin_sqrt(Q8, "1+i")],
                         ids=["Q", "Q(i)", "Q(z8)", "Q(z8)[s]"])
def test_field_axioms_seeded(ctx):
    rng = random.Random(hash(ctx) & 0xFFFF)
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
