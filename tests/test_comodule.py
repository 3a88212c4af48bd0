from fractions import Fraction
import random

import pytest

from hopfexact import constructions
from hopfexact.comodule import (
    Comodule,
    ComoduleAlgebra,
    check_comodule,
    check_comodule_algebra,
    coaction_slice,
    coideal_generated,
    coinvariants,
    isotypic_part,
    phi_embed,
    rebase_comodule_algebra,
)
from hopfexact.constructions import (
    PSI_STANDARD,
    a_xy_gamma_over,
    basis_coaction,
    build_kp,
    catalog,
    group_algebra_comodule_over,
    paper_map_f,
    twisted_group_algebra_over,
)
from hopfexact.errors import (
    BadWitness,
    GammaNotPrimitiveFourthRoot,
    NotACocycle,
)
from hopfexact.algebra import is_algebra_isomorphism, tensor_product
from hopfexact.field import FieldContext, FieldElement, adjoin_sqrt
from hopfexact.linalg import (Mat, Subspace, _checked_row, _insert_row,
                              _sparse, basis_vector, kron, slice_left, vadd,
                              vscale, vsub)
from hopfexact.replay import generic_extension, replay_lemma

from _transport import transport

QI = FieldContext(4)
CATALOG = catalog(QI)
KP = CATALOG["kp"].hopf

EXPECTED_DIMS = {
    "k": 1, "ga_x": 2, "ga_y": 2, "ga_xy": 2,
    "ga_k": 4, "a_i_xy": 4, "kp": 8, "kpsi": 4,
}


def test_catalog_names_and_dims():
    assert set(CATALOG) == set(EXPECTED_DIMS)
    for name, a in CATALOG.items():
        assert a.dim == EXPECTED_DIMS[name]


def test_catalog_builds_every_entry_over_one_kp(monkeypatch):
    # a kp of its own, which no earlier test can have multiplied
    monkeypatch.setattr(constructions, "_KP", {})
    cat = catalog(QI)
    kp = cat["kp"].hopf
    assert all(a.hopf is kp for a in cat.values())
    # nothing multiplied yet: a pass that starts from this catalog starts cold
    assert all(a._mult_matrix is None for a in [*cat.values(), kp])
    assert all(a.hopf is KP for a in catalog(kp=KP).values())
    # the entries are those of the same builders over a kp built apart
    monkeypatch.setattr(constructions, "_KP", {})
    for name, built in [
            ("ga_xy", group_algebra_comodule_over(build_kp(QI), (0, 3))),
            ("a_i_xy", a_xy_gamma_over(build_kp(QI), QI.i())),
            ("kpsi", twisted_group_algebra_over(build_kp(QI)))]:
        assert built.hopf is not kp and built.hopf.table == kp.table
        assert (cat[name].table, cat[name].coaction) \
            == (built.table, built.coaction)


@pytest.mark.parametrize("name", sorted(EXPECTED_DIMS))
def test_catalog_entries_satisfy_all_axioms(name):
    assert check_comodule_algebra(CATALOG[name]) == []


def test_broken_coaction_is_detected():
    a = a_xy_gamma_over(build_kp(QI), QI.i())
    rows = [list(r) for r in a.coaction.rows]
    rows[2][2] = rows[2][2] + QI.scalar(Fraction(1, 3))
    bad = Comodule(a.hopf, a.dim, Mat(QI, rows))
    assert check_comodule(bad) != []


def _non_multiplicative_ga_x():
    """The x-grading of ga_x on the algebra with t**2 = 1 + t: a comodule
    whose coaction is not an algebra map."""
    a = CATALOG["ga_x"]
    one, t = a.table[0][0], a.table[0][1]
    return ComoduleAlgebra(a.hopf, a.labels, a.unit,
                           [[one, t], [t, vadd(one, t)]], a.coaction)


def test_non_multiplicative_coaction_detected():
    assert check_comodule_algebra(_non_multiplicative_ga_x()) == [
        "coaction is not an algebra morphism"]


def test_an_equal_table_with_another_coaction_gets_its_own_verdict():
    good = CATALOG["ga_x"]
    # e_x coacted on by z, which is not grouplike: not coassociative
    bad = ComoduleAlgebra(good.hopf, good.labels, good.unit, good.table,
                          basis_coaction(good.hopf, 2, [0, 4]))
    assert check_comodule_algebra(good) == []
    assert "coaction is not coassociative" in check_comodule_algebra(bad)
    assert check_comodule_algebra(good) == []
    # and in the other order, on objects that no call has decided
    fresh = ComoduleAlgebra(good.hopf, good.labels, good.unit, good.table,
                            good.coaction)
    assert (check_comodule_algebra(bad) != []
            and check_comodule_algebra(fresh) == [])


def test_a_changed_problem_list_leaves_the_stored_verdict_alone():
    bad = _non_multiplicative_ga_x()
    first = check_comodule_algebra(bad)
    first.append("noted by the caller")
    first.clear()
    assert check_comodule_algebra(bad) == [
        "coaction is not an algebra morphism"]
    good = check_comodule_algebra(CATALOG["kp"])
    good.append("noted by the caller")
    assert check_comodule_algebra(CATALOG["kp"]) == []


def test_non_multiplicative_coaction_detected_in_a_dense_basis():
    built = _non_multiplicative_ga_x()
    bad = transport(built, random.Random("ga_x"))
    # the images of the basis under the coaction are denser than as built
    assert (sum(len(_sparse(bad.coaction.col(j))) for j in range(2))
            > sum(len(_sparse(built.coaction.col(j))) for j in range(2)))
    assert check_comodule_algebra(bad) == [
        "coaction is not an algebra morphism"]


def test_trivial_mixed_tensor_product():
    a = CATALOG["ga_x"]
    one = _sparse(a.coaction.apply(a.unit))
    assert tensor_product(a.hopf.terms, a.terms, one, one, a.dim) == one


QS = adjoin_sqrt(QI, 4)   # s**2 == 4: (2 - s)(2 + s) == 0, so zero divisors


def _dense_vector(rng, ctx, n):
    """n nonzero coordinates; over QS a third of them are 2 - s or 2 + s,
    whose products with each other vanish."""
    out = []
    while len(out) < n:
        if ctx.has_layer and rng.random() < 1 / 3:
            two, s = ctx.scalar(2), ctx.sqrt_symbol()
            c = two - s if rng.random() < 0.5 else two + s
        else:
            c = (ctx.scalar(Fraction(rng.randint(-3, 3), rng.choice((1, 2, 3))))
                 + ctx.scalar(rng.randint(-2, 2)) * ctx.i())
        if not c.is_zero():
            out.append(c)
    return tuple(out)


def _ref_multiply(alg, x, y):
    out = [alg.ctx.zero()] * alg.dim
    for i in range(alg.dim):
        for j in range(alg.dim):
            for k in range(alg.dim):
                out[k] = out[k] + x[i] * y[j] * alg.table[i][j][k]
    return tuple(out)


def _ref_tensor(left, right, u, v, shape):
    """The two-leg product over every coordinate pair, with dense tables:
    ``left[a][c]`` has ``shape[0]`` coordinates, ``right[b][d]`` has
    ``shape[1]``."""
    nb, nd = len(right), len(right[0])
    out = [u[0].ctx.zero()] * (shape[0] * shape[1])
    for a in range(len(left)):
        for b in range(nb):
            for c in range(len(left[0])):
                for d in range(nd):
                    coeff = u[a * nb + b] * v[c * nd + d]
                    for k, lk in enumerate(left[a][c]):
                        clk = coeff * lk
                        for l, rl in enumerate(right[b][d]):
                            idx = k * shape[1] + l
                            out[idx] = out[idx] + clk * rl
    return tuple(out)


@pytest.mark.parametrize("layered", [False, True], ids=["Q(i)", "Q(i)[s], s^2=4"])
def test_sparse_products_match_nested_loops(layered):
    a = CATALOG["a_i_xy"]
    if layered:
        a = rebase_comodule_algebra(a, QS)
    h, ctx = a.hopf, a.ctx
    rng = random.Random(f"a_i_xy:{layered}")
    for alg in (a, h):
        for _ in range(3):
            x, y = (_dense_vector(rng, ctx, alg.dim) for _ in range(2))
            assert alg.multiply(x, y) == _ref_multiply(alg, x, y)
    u, v = (_dense_vector(rng, ctx, h.dim * a.dim) for _ in range(2))
    assert tensor_product(h.terms, a.terms, _sparse(u), _sparse(v),
                          a.dim) == _sparse(_ref_tensor(
                              h.table, a.table, u, v, (h.dim, a.dim)))


def _sparse_vector(rng, ctx, n, zero_at=()):
    """About two thirds of the n coordinates nonzero, as in _dense_vector,
    and zero at the indices in ``zero_at``."""
    values = _dense_vector(rng, ctx, n)
    return tuple(ctx.zero() if j in zero_at or rng.random() < 1 / 3 else x
                 for j, x in enumerate(values))


def _random_table(rng, ctx, rows, cols, n):
    return [[_sparse_vector(rng, ctx, n) for _ in range(cols)]
            for _ in range(rows)]


def _cancelling_input():
    """Tables and tensors over QS whose right-leg sums vanish twice: the sum
    for (b, c) = (0, 0) is (2 - s)(2 + s) = 0 at l = 0, and the one for
    (1, 1) is 1 - 1 = 0 at l = 0; and (2 + s)(2 - s) = 0 in the left leg."""
    ctx = QS
    one, s = ctx.one(), ctx.sqrt_symbol()
    two, zero = ctx.scalar(2), ctx.zero()
    left = [[(two - s, one), (one, zero)], [(zero, one), (one, two - s)]]
    right = [[(two + s, one), (one, zero)], [(one, one), (-one, two - s)]]
    u = (two + s, one, one, two + s)
    v = (two - s, zero, one, one)
    return left, right, u, v, (2, 2)


def _tensor_case(name):
    """``(left, right, u, v, shape)`` with dense tables."""
    if name == "cancelling":
        return _cancelling_input()
    rng = random.Random(name)
    if name == "acting":
        # a left table of 6 x 3 basis pairs into 2 coordinates: tables need
        # not be square, as the right table (m, b) -> action[b].col(m) of
        # check_module_comodule is not
        left = _random_table(rng, QI, 6, 3, 2)
        right = _random_table(rng, QI, 3, 4, 5)
        return (left, right, _sparse_vector(rng, QI, 18),
                _sparse_vector(rng, QI, 12), (2, 5))
    left = _random_table(rng, QI, 3, 4, 3)
    right = _random_table(rng, QI, 4, 3, 4)
    if name == "zero legs":
        # u vanishes at a = 1 and at b = 2, v at c = 0 and at d = 1
        u = _sparse_vector(rng, QI, 12, {2, 4, 5, 6, 7, 10})
        v = _sparse_vector(rng, QI, 12, {0, 1, 2, 4, 7, 10})
    else:
        # every term of u has right index b = 1
        u = tuple(x if j % 4 == 1 else QI.zero()
                  for j, x in enumerate(_dense_vector(rng, QI, 12)))
        v = _dense_vector(rng, QI, 12)
    return left, right, u, v, (3, 4)


@pytest.mark.parametrize("name",
                         ["acting", "zero legs", "shared b", "cancelling"])
def test_tensor_product_matches_nested_loops(monkeypatch, name):
    left, right, u, v, shape = _tensor_case(name)
    expected = _ref_tensor(left, right, u, v, shape)
    sparse = [tuple(tuple(map(_sparse, row)) for row in table)
              for table in (left, right)]
    mul = FieldElement.__mul__

    def nonzero_mul(x, y):
        assert not (x.is_zero() or y.is_zero()), "a product with a zero factor"
        return mul(x, y)

    # the kernel multiplies only nonzero coordinates, terms and sums
    with monkeypatch.context() as m:
        m.setattr(FieldElement, "__mul__", nonzero_mul)
        got = tensor_product(*sparse, _sparse(u), _sparse(v), shape[1])
    assert got == _sparse(expected)


@pytest.mark.parametrize("name", sorted(EXPECTED_DIMS))
def test_catalog_coinvariants_are_scalars(name):
    a = CATALOG[name]
    space = coinvariants(a)
    assert space.dim == 1
    assert space.contains(a.unit)


def test_isotypic_parts_of_group_gradings():
    ga_k = CATALOG["ga_k"]
    x_part = isotypic_part(ga_k, KP.basis_element("x"))
    assert x_part.dim == 1 and x_part.contains(ga_k.basis_element("x"))
    kp = CATALOG["kp"]
    x_part = isotypic_part(kp, KP.basis_element("x"))
    assert x_part.dim == 1 and x_part.contains(basis_vector(QI, 8, 1))
    assert isotypic_part(CATALOG["a_i_xy"], KP.basis_element("x")).dim == 0


# -- builders: error paths -----------------------------------------------------


def test_twisted_builder_rejects_bad_tables():
    broken = dict(PSI_STANDARD)
    broken[(1, 2)] = -1
    with pytest.raises(NotACocycle):
        twisted_group_algebra_over(build_kp(QI), broken)
    zeroed = dict(PSI_STANDARD)
    zeroed[(3, 3)] = 0
    with pytest.raises(NotACocycle):
        twisted_group_algebra_over(build_kp(QI), zeroed)
    missing = dict(PSI_STANDARD)
    del missing[(2, 3)]
    with pytest.raises(NotACocycle):
        twisted_group_algebra_over(build_kp(QI), missing)


def test_gamma_must_be_a_primitive_fourth_root():
    with pytest.raises(GammaNotPrimitiveFourthRoot):
        a_xy_gamma_over(build_kp(QI), 1)
    with pytest.raises(GammaNotPrimitiveFourthRoot):
        a_xy_gamma_over(build_kp(QI), -1)
    other = a_xy_gamma_over(build_kp(QI), QI.scalar(-1) * QI.i())
    assert check_comodule_algebra(other) == []


def test_group_algebra_builder_needs_a_subgroup():
    with pytest.raises(ValueError):
        group_algebra_comodule_over(build_kp(QI), (0, 1, 2))


# -- phi -----------------------------------------------------------------------


def _extended_a_xy():
    ctx8 = FieldContext(8)
    ext = adjoin_sqrt(ctx8, ctx8.one() + ctx8.i())
    return a_xy_gamma_over(build_kp(ext), ext.i())


# the small entries of the benchmark's small-mixed workload
_SMALL = ("k", "ga_x", "ga_y", "ga_xy", "ga_k", "a_i_xy", "kpsi")


def _mult_inputs():
    yield from catalog(QI).items()
    for seed in (1, 2):
        for name in _SMALL:
            moved = transport(CATALOG[name], random.Random(f"{seed}:{name}"))
            yield f"{name}@{seed}", moved
    yield "a_i_xy over Q(zeta8)[sqrt(1+i)]", _extended_a_xy()


@pytest.mark.parametrize("a", [pytest.param(a, id=name)
                               for name, a in _mult_inputs()])
def test_multiplication_matrices_match_products_column_by_column(a):
    ctx, n = a.ctx, a.dim
    e = [basis_vector(ctx, n, j) for j in range(n)]
    dense = tuple(ctx.scalar(k + 2) - ctx.i() for k in range(n))
    for x in e + [a.unit, dense]:
        assert a.left_mult(x) == Mat.from_columns(
            ctx, [a.multiply(x, y) for y in e])
        assert a.right_mult(x) == Mat.from_columns(
            ctx, [a.multiply(y, x) for y in e])
    assert a.mult_matrix() == Mat.from_columns(
        ctx, [a.multiply(x, y) for x in e for y in e])


def test_phi_embed_lands_in_the_generated_coideal():
    a = _extended_a_xy()
    ctx = a.ctx
    i, s = ctx.i(), ctx.sqrt_symbol()
    witness = [ctx.one(), ctx.one(), s, ctx.scalar(-1) * i * s]
    report = phi_embed(a, witness)
    assert report.injective
    assert report.algebra_morphism
    assert report.image_is_left_coideal
    assert report.image_is_subalgebra
    h = a.hopf
    seed = vadd(h.basis_element("z"), vscale(i, h.basis_element("zx")))
    assert coideal_generated(h, [seed]) == report.image


def test_phi_embed_rejects_non_characters():
    a = _extended_a_xy()
    ctx = a.ctx
    with pytest.raises(BadWitness):
        phi_embed(a, [ctx.one(), ctx.one(), ctx.zero(), ctx.zero()])
    with pytest.raises(BadWitness):
        phi_embed(a, [ctx.one()])


def _paper_f(sign):
    """The map f: A -> kp of PAPER.md on the basis 1, ex, ey, exy, v1, v2,
    w1, w2, with w_i sent to ``sign`` times the paper's image.  In kp's basis
    yz = zx, xz = zy and xyz = zxy, so f(v1) = zx + z, f(v2) = zx - z,
    f(w1) = zxy - zy and f(w2) = zxy + zy before the sign."""
    e = KP.basis_element
    return Mat.from_columns(QI, [
        e("1"), e("x"), e("y"), e("xy"),
        vadd(e("zx"), e("z")), vsub(e("zx"), e("z")),
        vscale(sign, vsub(e("zxy"), e("zy"))),
        vscale(sign, vadd(e("zxy"), e("zy")))])


def test_phi_embed_rebuilds_the_papers_map_f():
    # the full extension's solution for the signs of PAPER.md; the paper's
    # f matches it after the change of convention w_i -> -w_i
    case = replay_lemma("group-full-extension", QI).cases[0]
    assert case.signs == ((1, 1), (-1, -1))
    a = generic_extension("ga_K", 2, case.signs, QI).specialize(
        case.solution, KP)
    f = _paper_f(QI.scalar(-1))
    counit_of_f = [KP.counit_value(f.col(j)) for j in range(a.dim)]
    assert phi_embed(a, counit_of_f).matrix == f
    assert is_algebra_isomorphism(a, KP, f)
    # colinear: comult o f = (id (x) f) o coaction
    assert KP.comult @ f == kron(Mat.identity(QI, KP.dim), f) @ a.coaction
    # without the sign change counit o f is not a character of A
    unchanged = _paper_f(QI.one())
    with pytest.raises(BadWitness):
        phi_embed(a, [KP.counit_value(unchanged.col(j))
                      for j in range(a.dim)])


def test_paper_map_f_is_the_papers_f_with_w_negated():
    assert paper_map_f(KP) == _paper_f(QI.scalar(-1))
    assert paper_map_f(CATALOG["kp"]) == _paper_f(QI.scalar(-1))


def test_coideal_generated_by_one_slope():
    i = QI.i()
    seed = vadd(KP.basis_element("z"), vscale(i, KP.basis_element("zx")))
    c = coideal_generated(KP, [seed])
    assert c.dim == 4
    assert c.contains(KP.unit)
    assert c.contains(KP.basis_element("xy"))
    partner = vadd(KP.basis_element("zy"),
                   vscale(QI.scalar(-1) * i, KP.basis_element("zxy")))
    assert c.contains(partner)


def _coideal_by_queue(h, seeds):
    """The closure loop that coideal_generated ran before it was two spins:
    one queue of vectors, each new one followed by its left coproduct
    slices and its products with every vector kept so far."""
    n = h.dim
    slices = [slice_left(h.comult, n, n, idx) for idx in range(n)]
    pivot_rows, basis = {}, []
    queue = [h.unit] + [tuple(s) for s in seeds]
    while queue:
        v = queue.pop()
        if _insert_row(pivot_rows, _checked_row(n, v)):
            queue.extend(sl.apply(v) for sl in slices)
            for b in basis:
                queue.append(h.multiply(v, b))
                queue.append(h.multiply(b, v))
            queue.append(h.multiply(v, v))
            basis.append(v)
    return Subspace(h.ctx, n, pivot_rows)


def _sparse_seed(ctx, rng):
    """An element of kp on one to three basis vectors, with coefficients
    among +-1, 2 and the powers of the context's root of unity."""
    coeffs = [ctx.one(), ctx.scalar(-1), ctx.scalar(2),
              *(ctx.zeta(k) for k in range(1, ctx.order))]
    v = [ctx.zero()] * 8
    for idx in rng.sample(range(8), rng.randint(1, 3)):
        v[idx] = rng.choice(coeffs)
    return tuple(v)


@pytest.mark.parametrize("order", [4, 8])
def test_coideal_generated_matches_the_queue_closure(order):
    ctx = FieldContext(order)
    kp = build_kp(ctx)
    rng = random.Random(order)
    dims = set()
    for _ in range(60):
        seeds = [_sparse_seed(ctx, rng) for _ in range(rng.randint(1, 2))]
        got = coideal_generated(kp, seeds)
        assert got == _coideal_by_queue(kp, seeds)
        dims.add(got.dim)
    # the seed sets reach proper coideal subalgebras as well as all of kp
    assert len(dims) > 2 and 8 in dims


def test_the_slope_coideal_matches_the_queue_closure():
    i = QI.i()
    seed = vadd(KP.basis_element("z"), vscale(i, KP.basis_element("zx")))
    assert coideal_generated(KP, [seed]) == _coideal_by_queue(KP, [seed])
    a = _extended_a_xy()
    h, i = a.hopf, a.ctx.i()
    seed = vadd(h.basis_element("z"), vscale(i, h.basis_element("zx")))
    assert coideal_generated(h, [seed]) == _coideal_by_queue(h, [seed])


def test_coaction_slice_of_graded_algebra_is_a_projector():
    a = CATALOG["ga_k"]
    sl = coaction_slice(a, KP.label_index("x"))
    assert sl @ sl == sl
    assert sl.apply(a.basis_element("x")) == a.basis_element("x")
