"""Structure-constant algebras: axioms, radical, closures, morphisms."""

import random

import pytest

from hopfexact import constructions
from hopfexact.algebra import (
    Algebra,
    _trace_form,
    algebra_on_span,
    check_algebra,
    direct_sum,
    generated_operator_algebra,
    is_algebra_isomorphism,
    is_algebra_morphism,
    is_associative,
    trace,
    trace_radical,
)
from hopfexact.comodule import check_comodule_algebra
from hopfexact.constructions import build_kp, catalog
from hopfexact.errors import NotAnAlgebra
from hopfexact.exactness import costable_operators
from hopfexact.field import FieldContext
from hopfexact.linalg import Mat, Subspace, kron

from _transport import transport

Q = FieldContext(1)
QI = FieldContext(4)


def dual_numbers():
    return Algebra(Q, ("1", "t"), (1, 0),
                   [[(1, 0), (0, 1)],
                    [(0, 1), (0, 0)]])


def mat2_algebra():
    labels = ("e11", "e12", "e21", "e22")
    z = (0, 0, 0, 0)

    def e(k):
        return tuple(1 if i == k else 0 for i in range(4))

    # E_ab * E_cd = delta(b, c) E_ad, basis order (11, 12, 21, 22)
    table = [
        [e(0), e(1), z, z],
        [z, z, e(0), e(1)],
        [e(2), e(3), z, z],
        [z, z, e(2), e(3)],
    ]
    return Algebra(Q, labels, (1, 0, 0, 1), table)


def test_axioms_pass_for_standard_examples():
    assert check_algebra(dual_numbers()) == []
    assert check_algebra(mat2_algebra()) == []


def test_non_associative_table_detected():
    bad = Algebra(Q, ("1", "u", "v"), (1, 0, 0),
                  [[(1, 0, 0), (0, 1, 0), (0, 0, 1)],
                   [(0, 1, 0), (0, 0, 1), (1, 0, 0)],
                   [(0, 0, 1), (0, 0, 0), (0, 0, 0)]])
    assert "multiplication is not associative" in check_algebra(bad)


def test_broken_unit_detected():
    bad = Algebra(Q, ("1", "t"), (1, 0),
                  [[(1, 0), (0, 2)],
                   [(0, 1), (0, 0)]])
    assert any("unit" in p for p in check_algebra(bad))


def test_multiply_and_mult_operators():
    d = dual_numbers()
    t = d.basis_element("t")
    assert d.multiply(t, t) == d.zero()
    assert d.left_mult(t) == Mat(Q, [[0, 0], [1, 0]])
    assert d.right_mult(t) == Mat(Q, [[0, 0], [1, 0]])  # commutative


def test_trace_radical_of_dual_numbers():
    d = dual_numbers()
    rad = trace_radical(d)
    assert rad == Subspace.from_vectors(Q, 2, [[0, 1]])


def test_trace_radical_of_matrix_algebra_is_zero():
    assert trace_radical(mat2_algebra()).dim == 0


def _matmul_trace_form(alg):
    """tr(L_i L_j) from the products of the left regular matrices."""
    lefts = [alg.left_mult(alg.basis_element(i)) for i in range(alg.dim)]
    return Mat(alg.ctx, [[trace(a @ b) for b in lefts] for a in lefts])


def _non_associative(ctx):
    """A three-dimensional unital table with seeded products of a and b."""
    rng = random.Random(3)
    e = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    table = [[e[j] if i == 0 else e[i] if j == 0 else
              tuple(rng.randint(-2, 2) for _ in range(3))
              for j in range(3)] for i in range(3)]
    return Algebra(ctx, ("1", "a", "b"), e[0], table)


@pytest.mark.parametrize("ctx", [QI, FieldContext(8)], ids=["q4", "q8"])
def test_trace_form_matches_the_matrix_products(ctx):
    nonassoc = _non_associative(ctx)
    assert any("associativ" in p for p in check_algebra(nonassoc))
    for alg in [*catalog(ctx).values(), nonassoc]:
        assert _trace_form(alg) == _matmul_trace_form(alg)


def test_generated_operator_algebra_fills_mat2():
    e12 = Mat(Q, [[0, 1], [0, 0]])
    e21 = Mat(Q, [[0, 0], [1, 0]])
    basis = generated_operator_algebra([e12, e21])
    assert len(basis) == 4
    span = Subspace.from_vectors(Q, 4, [m.vec() for m in basis])
    for a in basis:
        for b in basis:
            assert span.contains((a @ b).vec())


def _extends(echelon, v) -> bool:
    """Dense independence test: reduce ``v`` by the stored rows on every
    entry (each row vanishes at the pivots of the rows before it), and store
    it when something is left."""
    v = list(v)
    for c, row in echelon:
        if not v[c].is_zero():
            f = v[c] * row[c].inverse()
            v = [a - f * b for a, b in zip(v, row)]
    lead = next((c for c, e in enumerate(v) if not e.is_zero()), None)
    if lead is None:
        return False
    echelon.append((lead, v))
    return True


def _reference_closure(gens):
    """The same worklist closure, deciding independence densely."""
    ctx, n = gens[0].ctx, gens[0].nrows
    basis, echelon = [], []
    queue = [Mat.identity(ctx, n)] + list(gens)
    while queue:
        m = queue.pop()
        if _extends(echelon, m.vec()):
            queue += [m @ g for g in gens]
            basis.append(m)
    return basis


def _seeded_generators(seed, ctx):
    rng = random.Random(seed)
    n = rng.randint(2, 4)
    values = [0, 0, 0, 1, -1, 2, ctx.i() if ctx.dim > 1 else 3]
    return [Mat(ctx, [[rng.choice(values) for _ in range(n)]
                      for _ in range(n)])
            for _ in range(rng.randint(1, 3))]


def _same_closure(basis, reference):
    """Bases of one algebra: as many words, spanning the same space."""
    ctx, n = reference[0].ctx, reference[0].nrows

    def span(words):
        return Subspace.from_vectors(ctx, n * n, [w.vec() for w in words])

    return len(basis) == len(reference) and span(basis) == span(reference)


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("ctx", [Q, QI], ids=["Q", "Q(i)"])
def test_generated_operator_algebra_matches_dense_closure(ctx, seed):
    gens = _seeded_generators(seed, ctx)
    assert _same_closure(generated_operator_algebra(gens),
                         _reference_closure(gens))


def test_generated_operator_algebra_of_kp_regular_action():
    kp = build_kp()
    gens = [kp.left_mult(kp.basis_element(i)) for i in range(kp.dim)]
    basis = generated_operator_algebra(gens)
    assert _same_closure(basis, _reference_closure(gens))
    assert len(basis) == kp.dim


def test_closure_forms_only_the_products_it_tries(monkeypatch):
    # the costable operators of kp, slices first, generate all 64 operators
    # on it; trying the shortest words first reaches them in at most 128
    # products, where extending every kept word by every generator at once
    # forms 1,024
    kp = catalog(QI)["kp"]
    ops = costable_operators(kp)
    products = []
    matmul = Mat.__matmul__

    def counted(a, b):
        products.append(1)
        return matmul(a, b)

    monkeypatch.setattr(Mat, "__matmul__", counted)
    basis = generated_operator_algebra(ops[kp.dim:] + ops[:kp.dim])
    assert len(basis) == kp.dim ** 2
    assert len(products) <= 128


def _word_rank(alg, gens):
    """Dense rank of the words ``g_1(g_2(...g_k))`` of ``gens``, k <= dim.

    Words of length k + 1 are ``g w`` for the words w of length k, so their
    span is the span of the ``g v``, v a basis of the span of the words of
    length at most k."""
    echelon, frontier = [], [alg.basis_element(g) for g in gens]
    for _ in range(alg.dim):
        frontier = [v for v in frontier if _extends(echelon, v)]
        frontier = [alg.multiply(alg.basis_element(g), v)
                    for g in gens for v in frontier]
    return len(echelon)


def test_generators_span_every_catalog_entry_and_its_transports():
    for name, a in catalog(QI).items():
        moved = [transport(a, random.Random(f"{seed}:{name}"))
                 for seed in (1, 2, 3)]
        for alg in [a, *moved]:
            assert _word_rank(alg, alg.generators()) == alg.dim, name


def test_each_generator_of_kp_widens_the_words_before_it():
    kp = build_kp(QI)
    gens = kp.generators()
    assert gens == (1, 2, 4)  # x, y, z; the unit is a power of x
    assert [_word_rank(kp, gens[:k]) for k in (1, 2, 3)] == [2, 4, 8]
    # without z the words stay in the group algebra; G is irredundant in
    # its order, not minimal: z z = (1 + x + y - xy) / 2, so y and z alone
    # generate kp
    assert _word_rank(kp, gens[:2]) < kp.dim
    assert _word_rank(kp, gens[1:]) == kp.dim


def test_generators_span_a_table_whose_unit_laws_fail():
    # test_broken_unit_detected's table: 1 t = 2t, so 1 is not a unit, and
    # t t = 0, so t alone spans only itself
    bad = Algebra(Q, ("1", "t"), (1, 0),
                  [[(1, 0), (0, 2)],
                   [(0, 1), (0, 0)]])
    assert bad.generators() == (1, 0)
    assert _word_rank(bad, bad.generators()) == bad.dim


def test_lights_verdict_is_computed_once_per_algebra(monkeypatch):
    # a kp of its own, which no earlier test can have decided
    monkeypatch.setattr(constructions, "_KP", {})
    kp, bad = build_kp(QI), Algebra(Q, ("1", "u", "v"), (1, 0, 0),
                                    [[(1, 0, 0), (0, 1, 0), (0, 0, 1)],
                                     [(0, 1, 0), (0, 0, 1), (1, 0, 0)],
                                     [(0, 0, 1), (0, 0, 0), (0, 0, 0)]])
    lefts = []
    real = Algebra.left_mult

    def left_mult(self, x):
        lefts.append(self)
        return real(self, x)

    monkeypatch.setattr(Algebra, "left_mult", left_mult)
    assert [is_associative(a) for a in (kp, bad, kp, bad)] \
        == [True, False, True, False]
    # Light's test forms L_g for each g in G on the first call only
    assert {id(a) for a in lefts} == {id(kp), id(bad)}
    lefts.clear()
    # the comodule check of an entry over kp reads kp's verdict
    assert check_comodule_algebra(catalog(QI, kp)["ga_x"]) == []
    assert all(a is not kp for a in lefts)


def test_direct_sum_blocks():
    d = dual_numbers()
    s = direct_sum(d, d)
    assert s.dim == 4 and check_algebra(s) == []
    t1 = s.basis_element("t.1")
    t2 = s.basis_element("t.2")
    assert s.multiply(t1, t2) == s.zero()
    assert trace_radical(s).dim == 2


def test_algebra_morphism_checks():
    d = dual_numbers()
    m2 = mat2_algebra()
    # t -> E12 embeds the dual numbers into 2x2 matrices
    phi = Mat.from_columns(Q, [m2.unit, m2.basis_element("e12")])
    assert is_algebra_morphism(d, m2, phi)
    bad = Mat.from_columns(Q, [m2.unit, m2.basis_element("e11")])
    assert not is_algebra_morphism(d, m2, bad)  # E11**2 != 0
    assert not is_algebra_isomorphism(d, m2, phi)


def test_trace_helper():
    assert trace(Mat(Q, [[1, 5], [7, 3]])) == Q.scalar(4)


def _span_algebra(h, labels):
    body = Mat.from_columns(h.ctx, [h.basis_element(lab) for lab in labels])
    return algebra_on_span(body, h.unit, h.mult_matrix() @ kron(body, body))


def test_algebra_on_span_reads_the_table_over_the_span():
    kp = build_kp(QI)
    unit, table = _span_algebra(kp, ["1", "x"])
    e0, e1 = (QI.one(), QI.zero()), (QI.zero(), QI.one())
    assert unit == e0
    assert table == [[e0, e1], [e1, e0]]


def test_algebra_on_span_refuses_a_span_without_the_unit():
    with pytest.raises(NotAnAlgebra, match="misses the unit"):
        _span_algebra(build_kp(QI), ["x", "y", "xy"])


def test_algebra_on_span_refuses_a_span_not_closed_under_the_product():
    # z z = (1 + x + y - xy) / 2 lies outside span{1, z}
    with pytest.raises(NotAnAlgebra, match="not closed under the product"):
        _span_algebra(build_kp(QI), ["1", "z"])
