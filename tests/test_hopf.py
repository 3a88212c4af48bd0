"""Hopf axioms, the antipode inverse, minimal polynomials and root finding."""

from fractions import Fraction

import pytest

from hopfexact.comodule import ComoduleAlgebra, check_comodule_algebra
from hopfexact.constructions import a_xy_gamma_over, build_klein4, build_kp
from hopfexact.errors import DimensionMismatch, SingularAntipode
from hopfexact.field import FieldContext, polynomial_roots
from hopfexact.hopf import (
    AXIOM_FAMILIES,
    Hopf,
    antipode_inverse,
    check_hopf,
    hopf_axiom_report,
    rebase_comodule_algebra,
    same_hopf,
)
from hopfexact.linalg import Mat, basis_vector, minimal_polynomial

Q = FieldContext(1)
QI = FieldContext(4)


def test_klein4_satisfies_all_axioms():
    h = build_klein4()
    assert check_hopf(h) == []


def test_kp_satisfies_all_axiom_families():
    h = build_kp()
    report = hopf_axiom_report(h)
    assert set(report) == set(AXIOM_FAMILIES)
    for fam in AXIOM_FAMILIES:
        assert report[fam] == [], f"family {fam}: {report[fam]}"


def test_the_same_hopf_algebra_is_one_object_or_five_equal_fields():
    kp = build_kp(QI)
    fields = dict(labels=kp.labels, unit=kp.unit, table=kp.table,
                  comult=kp.comult, counit=kp.counit, antipode=kp.antipode)
    assert same_hopf(kp, kp) and same_hopf(kp, Hopf(QI, **fields))
    half = QI.scalar(Fraction(1, 2))
    for name, other in [("counit", (1,) * 7 + (-1,)),
                        ("antipode", Mat.identity(QI, 8)),
                        ("comult", kp.comult.scale(half)),
                        ("table", kp.table[::-1])]:
        assert not same_hopf(kp, Hopf(QI, **{**fields, name: other})), name
    assert not same_hopf(kp, rebase_comodule_algebra(kp, FieldContext(8)))
    assert not same_hopf(kp, build_klein4(QI))


def test_an_antipode_over_another_context_is_refused():
    kp = build_kp(QI)
    with pytest.raises(DimensionMismatch,
                       match="antipode and Hopf algebra contexts differ"):
        Hopf(QI, kp.labels, kp.unit, kp.table, kp.comult, kp.counit,
             kp.antipode.coerce(FieldContext(8)))


def test_a_hopf_algebra_rebases_to_a_hopf_algebra():
    q8 = FieldContext(8)
    r = rebase_comodule_algebra(build_kp(QI), q8)
    assert isinstance(r, Hopf) and r.hopf is r and r.ctx == q8
    assert check_hopf(r) == [] and same_hopf(r, build_kp(q8))
    # any other comodule algebra rebases over its rebased Hopf algebra
    a = rebase_comodule_algebra(a_xy_gamma_over(build_kp(QI), QI.i()), q8)
    assert type(a) is ComoduleAlgebra and a.ctx == q8
    assert same_hopf(a.hopf, build_kp(q8))
    assert check_comodule_algebra(a) == []


def test_kp_product_relations():
    h = build_kp()
    x, y, z = h.basis_element("x"), h.basis_element("y"), h.basis_element("z")
    zx, zy = h.basis_element("zx"), h.basis_element("zy")
    assert h.multiply(x, z) == zy
    assert h.multiply(y, z) == zx
    assert h.multiply(z, x) == zx
    q = h.element({"1": Fraction(1, 2), "x": Fraction(1, 2),
                   "y": Fraction(1, 2), "xy": Fraction(-1, 2)})
    assert h.multiply(z, z) == q
    # (z + zx)(z - zx) = 1 - x + y - xy
    plus = h.element({"z": 1, "zx": 1})
    minus = h.element({"z": 1, "zx": -1})
    assert h.multiply(plus, minus) == h.element({"1": 1, "x": -1, "y": 1, "xy": -1})
    assert h.multiply(minus, plus) == h.element({"1": 1, "x": 1, "y": -1, "xy": -1})


def _mutated_kp(which: str):
    h = build_kp()
    ctx = h.ctx
    table = [list(row) for row in h.table]
    comult, counit, antipode = h.comult, list(h.counit), h.antipode
    bump = ctx.scalar(Fraction(1, 3))
    if which == "mult":
        row = list(table[4][4])
        row[0] = row[0] + bump
        table[4][4] = tuple(row)
    elif which == "comult":
        rows = [list(r) for r in comult.rows]
        rows[0][4] = rows[0][4] + bump
        comult = Mat(ctx, rows)
    elif which == "counit":
        counit[2] = counit[2] + bump
    elif which == "antipode":
        rows = [list(r) for r in antipode.rows]
        rows[5][6] = rows[5][6] + bump
        antipode = Mat(ctx, rows)
    return Hopf(ctx, h.labels, h.unit, table, comult, counit, antipode)


@pytest.mark.parametrize("which", ["mult", "comult", "counit", "antipode"])
def test_single_entry_mutations_detected(which):
    assert check_hopf(_mutated_kp(which)) != []


# the coalgebra message of each leg's counit law; the left leg's is H's
# comodule counit law
_COUNIT_LAW = {"left": "coaction fails the counit law",
               "right": "counit fails on the right tensor leg"}


@pytest.mark.parametrize("leg", list(_COUNIT_LAW))
def test_counit_mutation_breaks_one_tensor_leg(leg):
    # comult(x) = x (x) x becomes 1 (x) x (right) or x (x) 1 (left), by
    # adding (1 - x) (x) x or x (x) (1 - x); counit(1) = counit(x), so the
    # map stays coassociative and the counit law fails on one leg only
    h = build_kp()
    ctx, n = h.ctx, h.dim
    one, x = h.label_index("1"), h.label_index("x")
    moved = one * n + x if leg == "right" else x * n + one
    rows = [list(r) for r in h.comult.rows]
    rows[moved][x] = rows[moved][x] + ctx.one()
    rows[x * n + x][x] = rows[x * n + x][x] - ctx.one()
    bad = Hopf(ctx, h.labels, h.unit, h.table, Mat(ctx, rows), h.counit,
               h.antipode)
    assert hopf_axiom_report(bad)["coalgebra"] == [_COUNIT_LAW[leg]]


def test_non_multiplicative_coproduct_detected():
    # g grouplike, but g**2 = 1 + g: a coalgebra whose coproduct and counit
    # are not algebra maps
    ctx = Q
    one, g = basis_vector(ctx, 2, 0), basis_vector(ctx, 2, 1)
    table = [[one, g], [g, (ctx.one(), ctx.one())]]
    comult = Mat.from_columns(ctx, [(1, 0, 0, 0), (0, 0, 0, 1)])
    h = Hopf(ctx, ("1", "g"), one, table, comult, (1, 1),
             Mat.identity(ctx, 2))
    report = hopf_axiom_report(h)
    assert report["coalgebra"] == []
    assert report["comult-morphism"] == ["coaction is not an algebra morphism"]
    assert report["counit-morphism"] == ["counit is not an algebra morphism"]


def test_antipode_inverse_is_antipode_for_involutive_cases():
    kp = build_kp()
    assert antipode_inverse(kp) == kp.antipode  # the antipode is an involution
    k4 = build_klein4()
    assert antipode_inverse(k4) == Mat.identity(k4.ctx, 4)


def test_singular_antipode_detected():
    h = build_klein4()
    bad = Hopf(h.ctx, h.labels, h.unit, h.table, h.comult, h.counit,
               Mat(h.ctx, [[0] * 4] * 4))
    with pytest.raises(SingularAntipode):
        antipode_inverse(bad)


def test_minimal_polynomial_small_cases():
    nil = Mat(Q, [[0, 1], [0, 0]])
    assert minimal_polynomial(nil) == [Q.zero(), Q.zero(), Q.one()]
    scalar2 = Mat(Q, [[2, 0], [0, 2]])
    assert minimal_polynomial(scalar2) == [Q.scalar(-2), Q.one()]


def test_polynomial_roots_complete_cases():
    assert sorted(polynomial_roots(Q, [-1, 0, 1]), key=repr) == \
        sorted([Q.one(), Q.scalar(-1)], key=repr)
    assert polynomial_roots(Q, [1, 0, 1]) == []
    assert set(polynomial_roots(QI, [1, 0, 1])) == {QI.i(), -QI.i()}
    assert polynomial_roots(QI, [-3, 0, 1]) == []
    # (t-1)(t-2)(t-3)
    assert set(polynomial_roots(Q, [-6, 11, -6, 1])) == \
        {Q.one(), Q.scalar(2), Q.scalar(3)}
    # t*(t**2 - 2): only the root at zero lives in either field
    assert polynomial_roots(Q, [0, -2, 0, 1]) == [Q.zero()]
    assert polynomial_roots(QI, [0, -2, 0, 1]) == [QI.zero()]
    # completeness cannot be certified: cubic over a cyclotomic field
    assert polynomial_roots(QI, [-2, 0, 0, 1]) is None
