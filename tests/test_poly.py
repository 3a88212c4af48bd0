from fractions import Fraction
import random

import pytest

from hopfexact.errors import HopfExactError
from hopfexact.field import FieldContext, adjoin_sqrt
from hopfexact.poly import (MultiPoly, _addmul, _addterms, _product_terms,
                            concrete_solutions)

Q = FieldContext(1)
QI = FieldContext(4)


def _xy(ctx):
    return MultiPoly.var(ctx, "x"), MultiPoly.var(ctx, "y")


def test_product_of_conjugates():
    x, _ = _xy(Q)
    assert (x + 1) * (x - 1) == x * x - 1


def test_substitute_polynomial_values():
    x, y = _xy(Q)
    p = x * x + y
    q = p.substitute({"x": y + 1})
    assert q == y * y + 3 * y + 1


def test_divide_out_requires_common_factor():
    x, y = _xy(Q)
    p = x * x * y + x * y
    assert p.divide_out("x") == x * y + y
    assert (p + 1).divide_out("x") is None


def test_univariate_detection():
    x, y = _xy(Q)
    assert (x * x - 2).univariate_in() == ("x", [Q.scalar(-2), Q.zero(), Q.one()])
    assert (x + y).univariate_in() is None


def test_solutions_of_a_split_system():
    x, y = _xy(Q)
    sols = concrete_solutions([x * x - 1, x * y - x], Q)
    assert sorted((s["x"].as_rational(), s["y"].as_rational())
                  for s in sols) == [(-1, 1), (1, 1)]


def test_solution_requires_the_right_field():
    x, _ = _xy(Q)
    eqs = [x * x + 1, 0 * x]
    assert concrete_solutions(eqs, Q) == []
    xi = MultiPoly.var(QI, "x")
    sols = concrete_solutions([xi * xi + 1], QI)
    assert {repr(s["x"]) for s in sols} == {"i", "-i"}


def test_linear_chain_resolves_backwards():
    x, y = _xy(Q)
    sols = concrete_solutions([x - y, y * y - 4], Q)
    assert sorted(s["x"].as_rational() for s in sols) == [-2, 2]
    for s in sols:
        assert s["x"] == s["y"]


def test_underdetermined_systems_are_refused():
    x, y = _xy(Q)
    with pytest.raises(HopfExactError):
        concrete_solutions([x * y - 1], Q)


# -- differential test of the fused arithmetic against a naive reference -------

QS4 = adjoin_sqrt(Q, 4)     # s^2 = 4: (2 + s) * (2 - s) == 0
_NAMES = ("x", "y", "z")


def _ref_mono_mul(m1, m2):
    d = dict(m1)
    for v, e in m2:
        d[v] = d.get(v, 0) + e
    return tuple(sorted(d.items()))


def _ref_nonzero(terms):
    return {m: c for m, c in terms.items() if not c.is_zero()}


def _ref_add(a, b, sign, zero):
    out = dict(a)
    for m, c in b.items():
        out[m] = out.get(m, zero) + (c if sign > 0 else -c)
    return _ref_nonzero(out)


def _ref_mul(a, b, zero):
    out = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            m = _ref_mono_mul(m1, m2)
            out[m] = out.get(m, zero) + c1 * c2
    return _ref_nonzero(out)


def _ref_pow(a, k, ctx):
    out = {(): ctx.one()}
    for _ in range(k):
        out = _ref_mul(out, a, ctx.zero())
    return out


def _ref_substitute(a, assignment, ctx):
    out = {}
    for mono, c in a.items():
        term = {(): c}
        for v, e in mono:
            value = assignment.get(v)
            if value is None:
                factor = {((v, e),): ctx.one()}
            elif isinstance(value, MultiPoly):
                factor = _ref_pow(value.terms, e, ctx)
            else:
                factor = _ref_nonzero({(): value ** e})
            term = _ref_mul(term, factor, ctx.zero())
        out = _ref_add(out, term, 1, ctx.zero())
    return out


def _coefficient_pool(ctx):
    pool = [ctx.zero(), ctx.one(), -ctx.one(), ctx.scalar(Fraction(-3, 2)),
            ctx.scalar(7)]
    if ctx.order % 4 == 0:
        i = ctx.i()
        pool += [i, 1 - i, i * Fraction(2, 5)]
    if ctx.has_layer:
        s = ctx.sqrt_symbol()
        pool += [s, 2 + s, 2 - s, (2 - s) * Fraction(1, 3)]
    return pool


def _random_poly(ctx, rng, pool):
    terms = {}
    for _ in range(rng.randint(0, 4)):
        mono = tuple((v, e) for v in _NAMES if (e := rng.randint(0, 2)))
        terms[mono] = rng.choice(pool)
    return MultiPoly(ctx, terms)


def _assert_no_zero(p):
    assert all(not c.is_zero() for c in p.terms.values())


@pytest.mark.parametrize("ctx,seed", [(Q, 5101), (QI, 5102), (QS4, 5103)],
                         ids=["Q", "Q(i)", "Q[s^2=4]"])
def test_arithmetic_matches_naive_reference(ctx, seed):
    rng = random.Random(seed)
    pool = _coefficient_pool(ctx)
    zero = ctx.zero()
    for _ in range(150):
        p, q = _random_poly(ctx, rng, pool), _random_poly(ctx, rng, pool)
        a, b = p.terms, q.terms
        results = [
            (p + q, _ref_add(a, b, 1, zero)),
            (p - q, _ref_add(a, b, -1, zero)),
            (-p, _ref_add({}, a, -1, zero)),
            (p * q, _ref_mul(a, b, zero)),
            (p - p, {}),
            (p ** 3, _ref_pow(a, 3, ctx)),
        ]
        c = rng.choice(pool)
        results.append((p.substitute({"x": c, "z": q}),
                        _ref_substitute(a, {"x": c, "z": q}, ctx)))
        results.append((p.substitute({"y": c}),
                        _ref_substitute(a, {"y": c}, ctx)))
        results.append((p.substitute({"x": q, "y": q - 1}),
                        _ref_substitute(a, {"x": q, "y": q - 1}, ctx)))
        for got, want in results:
            _assert_no_zero(got)
            assert got.terms == want
        # a product listed term by term and added into p is p + p*q, with
        # its terms in the same order as the fused kernel gives them
        fused, listed = dict(a), dict(a)
        _addmul(fused, a, b)
        _addterms(listed, _product_terms(a, b))
        assert list(listed.items()) == list(fused.items())
    # x*y cancels against the start, then comes back last but one; a product
    # summed before it is added would leave x*y first
    x, y = _xy(ctx)
    a, b = (x + y).terms, (x - y).terms
    fused, listed = dict((x * y).terms), dict((x * y).terms)
    _addmul(fused, a, b)
    _addterms(listed, _product_terms(a, b))
    assert list(listed.items()) == list(fused.items())
    assert list(fused) == [(("x", 2),), (("x", 1), ("y", 1)), (("y", 2),)]


def test_zero_divisor_products_are_not_stored():
    x, y = _xy(QS4)
    s = QS4.sqrt_symbol()
    p = x * (2 + s) + y
    q = x * (2 - s)
    prod = p * q
    assert prod.terms == {(("x", 1), ("y", 1)): 2 - s}
    _assert_no_zero(prod)
    assert (x * (2 + s) * q).is_zero()
    assert (x * (2 + s)).substitute({"x": 2 - s}).is_zero()
