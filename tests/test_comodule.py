from fractions import Fraction
import random

import pytest

from hopfexact.comodule import (
    Comodule,
    ComoduleAlgebra,
    check_comodule,
    check_comodule_algebra,
    coaction_slice,
    coideal_generated,
    coinvariants,
    isotypic_part,
    kappa_map,
    kp_decompose,
    loewy_filtration,
    associated_graded,
    mixed_tensor_product,
    mu_decompose,
    phi_embed,
    rebase_comodule_algebra,
)
from hopfexact.constructions import (
    PSI_STANDARD,
    build_a_xy_gamma,
    build_group_algebra_comodule,
    build_klein4,
    build_kp,
    build_twisted_group_algebra,
    catalog,
)
from hopfexact.errors import (
    BadWitness,
    FiltrationNotExhaustive,
    GammaNotPrimitiveFourthRoot,
    MissingGrouplikeUnits,
    NotACocycle,
    NotOverKp,
)
from hopfexact.field import FieldContext, adjoin_sqrt
from hopfexact.linalg import Mat, Subspace, basis_vector, vadd, vscale

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


@pytest.mark.parametrize("name", sorted(EXPECTED_DIMS))
def test_catalog_entries_satisfy_all_axioms(name):
    assert check_comodule_algebra(CATALOG[name]) == []


def test_broken_coaction_is_detected():
    a = build_a_xy_gamma(QI.i(), QI)
    rows = [list(r) for r in a.coaction.rows]
    rows[2][2] = rows[2][2] + QI.scalar(Fraction(1, 3))
    bad = Comodule(a.hopf, a.dim, Mat(QI, rows))
    assert check_comodule(bad) != []


def test_non_multiplicative_coaction_detected():
    # the x-grading of ga_x on the algebra with t**2 = 1 + t: a comodule
    # whose coaction is not an algebra map
    a = CATALOG["ga_x"]
    one, t = a.table[0][0], a.table[0][1]
    bad = ComoduleAlgebra(a.hopf, a.labels, a.unit,
                          [[one, t], [t, vadd(one, t)]], a.coaction)
    assert check_comodule_algebra(bad) == [
        "coaction is not an algebra morphism"]


def test_trivial_mixed_tensor_product():
    a = CATALOG["ga_x"]
    one = a.coaction.apply(a.unit)
    assert mixed_tensor_product(a.hopf, a, one, one) == one


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


def _ref_mixed(h, a, u, v):
    nh, na = h.dim, a.dim
    out = [h.ctx.zero()] * (nh * na)
    for h1 in range(nh):
        for a1 in range(na):
            for h2 in range(nh):
                for a2 in range(na):
                    c = u[h1 * na + a1] * v[h2 * na + a2]
                    for p, lp in enumerate(h.table[h1][h2]):
                        clp = c * lp
                        for q, rq in enumerate(a.table[a1][a2]):
                            out[p * na + q] = out[p * na + q] + clp * rq
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
    assert mixed_tensor_product(h, a, u, v) == _ref_mixed(h, a, u, v)


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


# -- decomposition over the eight-dimensional Hopf algebra --------------------


def test_kp_decompose_of_regular_comodule():
    parts = kp_decompose(CATALOG["kp"])
    assert parts.group_part.dim == 4 and parts.two_part.dim == 4
    assert parts.v_leg.dim == 2 and parts.w_leg.dim == 2
    for lab in ("z", "zx"):
        assert parts.v_leg.contains(KP.basis_element(lab))
    for lab in ("zy", "zxy"):
        assert parts.w_leg.contains(KP.basis_element(lab))
    # tau exchanges the two legs and kills the group part
    assert parts.tau.apply(KP.basis_element("z")) == KP.basis_element("zy")
    assert parts.tau.apply(KP.basis_element("zy")) == KP.basis_element("z")
    assert parts.tau.apply(KP.basis_element("zx")) == vscale(
        QI.scalar(-1), KP.basis_element("zxy"))
    assert all(c.is_zero() for c in parts.tau.apply(KP.basis_element("x")))
    # and is an involution on the 2-corep part
    square = parts.tau @ parts.tau
    for v in parts.two_part.basis():
        assert square.apply(v) == v


def test_kp_decompose_of_a_xy():
    a = CATALOG["a_i_xy"]
    parts = kp_decompose(a)
    assert parts.group_part.dim == 2 and parts.two_part.dim == 2
    assert parts.v_leg.basis() == (a.basis_element("v"),)
    assert parts.w_leg.basis() == (a.basis_element("w"),)
    assert parts.tau.apply(a.basis_element("v")) == a.basis_element("w")
    assert parts.tau.apply(a.basis_element("w")) == a.basis_element("v")


def test_kp_decompose_needs_the_right_hopf_algebra():
    k4 = build_klein4(QI)
    triv = Comodule(k4, 1, Mat.from_columns(QI, [basis_vector(QI, 4, 0)]))
    with pytest.raises(NotOverKp):
        kp_decompose(triv)


def test_mu_decompose_of_regular_comodule():
    mu = mu_decompose(CATALOG["kp"])
    assert mu.x_unit == KP.basis_element("x")
    assert mu.y_unit == KP.basis_element("y")
    z, zx = KP.basis_element("z"), KP.basis_element("zx")
    zy, zxy = KP.basis_element("zy"), KP.basis_element("zxy")
    assert mu.v_parts[(1, 1)].dim == 1
    assert mu.v_parts[(1, 1)].contains(vadd(z, zx))
    assert mu.v_parts[(-1, -1)].contains(vadd(z, vscale(QI.scalar(-1), zx)))
    assert mu.v_parts[(1, -1)].dim == 0 and mu.v_parts[(-1, 1)].dim == 0
    assert mu.w_parts[(1, 1)].contains(vadd(zy, zxy))
    assert mu.w_parts[(-1, -1)].dim == 1


def test_mu_decompose_without_group_units_fails():
    with pytest.raises(MissingGrouplikeUnits):
        mu_decompose(CATALOG["a_i_xy"])


def test_mu_decompose_of_twisted_group_algebra_is_flat():
    mu = mu_decompose(CATALOG["kpsi"])
    assert mu.x_unit == CATALOG["kpsi"].basis_element("ex")
    assert all(s.dim == 0 for s in mu.v_parts.values())


# -- builders: error paths -----------------------------------------------------


def test_twisted_builder_rejects_bad_tables():
    broken = dict(PSI_STANDARD)
    broken[(1, 2)] = -1
    with pytest.raises(NotACocycle):
        build_twisted_group_algebra(broken, QI)
    zeroed = dict(PSI_STANDARD)
    zeroed[(3, 3)] = 0
    with pytest.raises(NotACocycle):
        build_twisted_group_algebra(zeroed, QI)
    missing = dict(PSI_STANDARD)
    del missing[(2, 3)]
    with pytest.raises(NotACocycle):
        build_twisted_group_algebra(missing, QI)


def test_gamma_must_be_a_primitive_fourth_root():
    with pytest.raises(GammaNotPrimitiveFourthRoot):
        build_a_xy_gamma(1, QI)
    with pytest.raises(GammaNotPrimitiveFourthRoot):
        build_a_xy_gamma(-1, QI)
    other = build_a_xy_gamma(QI.scalar(-1) * QI.i(), QI)
    assert check_comodule_algebra(other) == []


def test_group_algebra_builder_needs_a_subgroup():
    with pytest.raises(ValueError):
        build_group_algebra_comodule((0, 1, 2), QI)


# -- filtration, kappa, phi ----------------------------------------------------


def test_loewy_filtration_over_the_full_coradical():
    a = CATALOG["kp"]
    full = Subspace.full(QI, 8)
    chain = loewy_filtration(a, full)
    assert [s.dim for s in chain] == [8]
    layers = associated_graded(chain)
    assert len(layers) == 1 and len(layers[0]) == 8


def test_loewy_filtration_propagates_non_exhaustive_coradical():
    a = CATALOG["kp"]
    group_span = Subspace.from_vectors(
        QI, 8, [basis_vector(QI, 8, j) for j in range(4)])
    with pytest.raises(FiltrationNotExhaustive):
        loewy_filtration(a, group_span)


def test_kappa_for_cosemisimple_base_is_the_coaction():
    a = CATALOG["a_i_xy"]
    report = kappa_map(a, Subspace.full(QI, 8))
    assert report.injective
    assert report.algebra_morphism
    assert report.comodule_morphism
    assert report.degree_zero_closed
    assert report.matrix == a.coaction


def _extended_a_xy():
    ctx8 = FieldContext(8)
    ext = adjoin_sqrt(ctx8, ctx8.one() + ctx8.i())
    return build_a_xy_gamma(ext.i(), ext)


def test_phi_embed_lands_in_the_generated_coideal():
    a = _extended_a_xy()
    ctx = a.ctx
    i, s = ctx.i(), ctx.sqrt_symbol()
    witness = [ctx.one(), ctx.one(), s, ctx.scalar(-1) * i * s]
    report = phi_embed(a, Subspace.full(ctx, 8), witness)
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
        phi_embed(a, Subspace.full(ctx, 8),
                  [ctx.one(), ctx.one(), ctx.zero(), ctx.zero()])
    with pytest.raises(BadWitness):
        phi_embed(a, Subspace.full(ctx, 8), [ctx.one()])


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


def test_coaction_slice_of_graded_algebra_is_a_projector():
    a = CATALOG["ga_k"]
    sl = coaction_slice(a, KP.label_index("x"))
    assert sl @ sl == sl
    assert sl.apply(a.basis_element("x")) == a.basis_element("x")
