import pytest

from hopfexact.algebra import is_algebra_isomorphism, trace_radical
from hopfexact.comodule import (
    check_comodule_algebra,
    coideal_generated,
    comodule_algebra_from_subspace,
    isotypic_part,
)
from hopfexact.constructions import (
    PSI_STANDARD,
    build_a_xy_gamma,
    build_bimodule_V,
    build_graded_free_module,
    build_klein_subgroup_comodule,
    build_kp,
    build_matrix2_trivial,
    build_twisted_group_algebra,
    catalog,
)
from hopfexact.errors import (
    CoactionUnsolvable,
    HopfExactError,
    NeedsFieldExtension,
    NotSemisimple,
)
from hopfexact.field import FieldContext, adjoin_sqrt
from hopfexact.linalg import Mat, basis_vector, kron, tensor_vec, vadd, vscale
from hopfexact.morita import (
    RightComodModule,
    check_module_comodule,
    colinear_iso_search,
    colinear_maps,
    end_comodule_algebra,
    fingerprint_distinguishes,
    free_module_rank,
    fusion_fingerprint,
    intertwiners,
    kp_simple_modules,
    simple_modules,
    simple_modules_split,
)

QI = FieldContext(4)
CATALOG = catalog(QI)
KP = CATALOG["kp"].hopf


def _is_colinear(a, b, t: Mat) -> bool:
    ident = Mat.identity(a.ctx, a.hopf.dim)
    return b.coaction @ t == kron(ident, t) @ a.coaction


# -- plain-algebra structure of the twisted group algebra ----------------------


def test_kpsi_anticommutation_and_matrix_units():
    kpsi = CATALOG["kpsi"]
    ex = kpsi.basis_element("ex")
    ey = kpsi.basis_element("ey")
    assert kpsi.multiply(ey, ex) == vscale(QI.scalar(-1), kpsi.multiply(ex, ey))

    m2 = build_matrix2_trivial(QI)
    # ex -> E11 - E22, ey -> E12 + E21, exy = ex*ey -> E12 - E21
    cols = [
        vadd(m2.basis_element("E11"), m2.basis_element("E22")),
        vadd(m2.basis_element("E11"),
             vscale(QI.scalar(-1), m2.basis_element("E22"))),
        vadd(m2.basis_element("E12"), m2.basis_element("E21")),
        vadd(m2.basis_element("E12"),
             vscale(QI.scalar(-1), m2.basis_element("E21"))),
    ]
    phi = Mat.from_columns(QI, cols)
    assert is_algebra_isomorphism(kpsi, m2, phi)


def test_kpsi_is_semisimple():
    assert trace_radical(CATALOG["kpsi"]).dim == 0


# -- simple modules -------------------------------------------------------------


@pytest.mark.parametrize("name,dims,mults", [
    ("k", [1], [1]),
    ("ga_x", [1, 1], [1, 1]),
    ("ga_y", [1, 1], [1, 1]),
    ("ga_xy", [1, 1], [1, 1]),
    ("ga_k", [1, 1, 1, 1], [1, 1, 1, 1]),
    ("kp", [1, 1, 1, 1, 2], [1, 1, 1, 1, 2]),
    ("kpsi", [2], [2]),
])
def test_simple_module_decompositions(name, dims, mults):
    dec = simple_modules(CATALOG[name])
    assert [s.dim for s in dec.simples] == dims
    assert dec.multiplicities == mults
    assert dec.split


def test_simple_modules_are_actual_modules_and_distinct():
    a = CATALOG["kp"]
    dec = simple_modules(a)
    for s in dec.simples:
        for i in range(a.dim):
            for j in range(a.dim):
                want = Mat.zeros(a.ctx, s.dim, s.dim)
                for k, c in enumerate(a.table[i][j]):
                    if not c.is_zero():
                        want = want + s.action[k].scale(c)
                assert s.action[i] @ s.action[j] == want
    for i in range(len(dec.simples)):
        for j in range(i + 1, len(dec.simples)):
            assert not intertwiners(dec.simples[i].action,
                                    dec.simples[j].action)


def test_a_i_xy_needs_a_square_root_then_splits():
    a = CATALOG["a_i_xy"]
    with pytest.raises(NeedsFieldExtension) as info:
        simple_modules(a)
    disc = info.value.discriminant
    # the discriminant of t**2 = 1 + i up to a square factor
    assert disc == QI.scalar(4) * (QI.one() + QI.i())
    used, dec = simple_modules_split(a)
    assert used.ctx != QI and used.ctx.has_layer
    assert [s.dim for s in dec.simples] == [1, 1, 1, 1]
    assert dec.split


def test_not_semisimple_is_refused():
    # dual numbers: 1, t with t*t = 0
    h = build_kp(QI)
    zero = (QI.zero(), QI.zero())
    one = (QI.one(), QI.zero())
    t = (QI.zero(), QI.one())
    from hopfexact.constructions import with_trivial_coaction
    from hopfexact.algebra import Algebra
    dual = with_trivial_coaction(h, Algebra(QI, ("1", "t"), one,
                                            [[one, t], [t, zero]]))
    with pytest.raises(NotSemisimple):
        simple_modules(dual)


# -- the five built-in simple modules of the eight-dimensional Hopf algebra -----


def test_kp_simple_modules_are_valid_and_complete():
    kp = KP
    mods = kp_simple_modules(QI)
    assert [name for name, _ in mods] == ["k_1", "k_i", "k_-1", "k_-i", "W"]
    for _, mats in mods:
        for i in range(8):
            for j in range(8):
                want = Mat.zeros(QI, mats[0].nrows, mats[0].nrows)
                for k, c in enumerate(kp.table[i][j]):
                    if not c.is_zero():
                        want = want + mats[k].scale(c)
                assert mats[i] @ mats[j] == want
    for i in range(len(mods)):
        for j in range(i + 1, len(mods)):
            assert not intertwiners(mods[i][1], mods[j][1])
    assert sum(m[1][0].nrows ** 2 for m in mods) == 8


def test_kp_simple_module_characters_on_z():
    mods = dict(kp_simple_modules(QI))
    assert mods["k_1"][4][0, 0] == QI.one()
    assert mods["k_i"][4][0, 0] == QI.i()
    assert mods["k_-1"][4][0, 0] == QI.scalar(-1)
    assert mods["k_-i"][4][0, 0] == -QI.i()


# -- fusion fingerprints ---------------------------------------------------------


def test_fingerprint_tensoring_with_characters_permutes_ga_x_simples():
    fp = fusion_fingerprint(CATALOG["ga_x"])
    assert fp.simple_dims == (1, 1)
    rows = dict(zip(fp.row_names, fp.table))
    # z acting by a primitive fourth root swaps the two characters,
    # z acting by +-1 fixes them
    assert rows["k_1"] == ((1, 0), (0, 1))
    assert rows["k_-1"] == ((1, 0), (0, 1))
    assert rows["k_i"] == ((0, 1), (1, 0))
    assert rows["k_-i"] == ((0, 1), (1, 0))
    # the two-dimensional module fuses to both characters at once
    assert rows["W"] == ((1, 1), (1, 1))


def test_fingerprint_characters_fix_every_ga_xy_simple():
    fp = fusion_fingerprint(CATALOG["ga_xy"])
    rows = dict(zip(fp.row_names, fp.table))
    ident = ((1, 0), (0, 1))
    for name in ("k_1", "k_i", "k_-1", "k_-i"):
        assert rows[name] == ident
    assert rows["W"] == ((0, 2), (2, 0))


def test_fingerprint_minus_one_deranges_a_i_xy_simples():
    fp = fusion_fingerprint(CATALOG["a_i_xy"])
    assert fp.simple_dims == (1, 1, 1, 1)
    rows = dict(zip(fp.row_names, fp.table))
    for i in range(4):
        assert rows["k_-1"][i][i] == 0
    # contrast: the same row over the plain group algebra fixes every simple
    fp_k = fusion_fingerprint(CATALOG["ga_k"])
    rows_k = dict(zip(fp_k.row_names, fp_k.table))
    for i in range(4):
        assert rows_k["k_-1"][i][i] == 1


def test_fingerprint_distinguishability_verdicts():
    fx = fusion_fingerprint(CATALOG["ga_x"])
    fy = fusion_fingerprint(CATALOG["ga_y"])
    fxy = fusion_fingerprint(CATALOG["ga_xy"])
    fk = fusion_fingerprint(CATALOG["ga_k"])
    fa = fusion_fingerprint(CATALOG["a_i_xy"])
    assert fingerprint_distinguishes(fx, fxy)
    assert fingerprint_distinguishes(fk, fa)
    assert not fingerprint_distinguishes(fx, fy)


# -- colinear isomorphism search --------------------------------------------------


def test_iso_search_finds_gamma_conjugate():
    a = CATALOG["a_i_xy"]
    b = build_a_xy_gamma(-QI.i(), QI)
    t = colinear_iso_search(a, b)
    assert t is not None
    assert is_algebra_isomorphism(a, b, t)
    assert _is_colinear(a, b, t)


def test_explicit_gamma_conjugate_map_is_an_isomorphism():
    # 1 -> 1, exy -> -exy, v -> -v, w -> -w
    a = CATALOG["a_i_xy"]
    b = build_a_xy_gamma(-QI.i(), QI)
    minus = QI.scalar(-1)
    t = Mat.from_columns(QI, [
        b.basis_element("1"),
        vscale(minus, b.basis_element("exy")),
        vscale(minus, b.basis_element("v")),
        vscale(minus, b.basis_element("w")),
    ])
    assert is_algebra_isomorphism(a, b, t)
    assert _is_colinear(a, b, t)


def test_iso_search_matches_the_generated_coideal_over_the_right_field():
    # the coideal generated by z + i*(y*z) = z + i*zx
    seed = vadd(basis_vector(QI, 8, 4), vscale(QI.i(), basis_vector(QI, 8, 5)))
    space = coideal_generated(KP, [seed])
    assert space.dim == 4
    coideal = comodule_algebra_from_subspace(KP, space)
    assert check_comodule_algebra(coideal) == []
    a = CATALOG["a_i_xy"]

    # over the Gaussian rationals the squares of v and of its image differ
    # by 1 + i, which is not a square there: the complete search proves
    # there is no colinear isomorphism over this field
    assert colinear_iso_search(a, coideal) is None

    ext = adjoin_sqrt(FieldContext(8), FieldContext(8).one() + FieldContext(8).i())
    kp8 = build_kp(ext)
    seed8 = vadd(basis_vector(ext, 8, 4),
                 vscale(ext.i(), basis_vector(ext, 8, 5)))
    coideal8 = comodule_algebra_from_subspace(kp8,
                                              coideal_generated(kp8, [seed8]))
    a8 = build_a_xy_gamma(ext.i(), ext)
    t = colinear_iso_search(a8, coideal8)
    assert t is not None
    assert is_algebra_isomorphism(a8, coideal8, t)
    assert _is_colinear(a8, coideal8, t)


def test_iso_search_negatives():
    assert colinear_iso_search(CATALOG["ga_x"], CATALOG["ga_y"]) is None
    assert colinear_iso_search(CATALOG["kpsi"], CATALOG["ga_k"]) is None
    assert colinear_iso_search(CATALOG["ga_k"], CATALOG["a_i_xy"]) is None
    # different dimensions short-circuit
    assert colinear_iso_search(CATALOG["k"], CATALOG["ga_x"]) is None


@pytest.mark.xfail(strict=True, raises=HopfExactError,
                   reason="the polynomial system for (kp, kp) is outside the "
                          "supported reduction rules")
def test_iso_search_finds_a_kp_automorphism():
    kp = CATALOG["kp"]
    t = colinear_iso_search(kp, kp)
    assert t is not None
    assert is_algebra_isomorphism(kp, kp, t)
    assert _is_colinear(kp, kp, t)


def test_ga_x_and_ga_y_have_no_colinear_maps_at_all():
    maps = colinear_maps(CATALOG["ga_x"], CATALOG["ga_y"])
    # gradings sit over different grouplikes, so only the unit lines match
    assert len(maps) == 1


def test_cohomologous_cocycles_give_isomorphic_twists():
    beta = {0: 1, 1: -1, 2: 1, 3: 1}
    twisted = {pair: val * beta[pair[0]] * beta[pair[1]] * beta[pair[0] ^ pair[1]]
               for pair, val in PSI_STANDARD.items()}
    other = build_twisted_group_algebra(twisted, QI)
    t = colinear_iso_search(CATALOG["kpsi"], other)
    assert t is not None
    assert is_algebra_isomorphism(CATALOG["kpsi"], other, t)
    assert _is_colinear(CATALOG["kpsi"], other, t)


# -- the equivariant bimodule V and endomorphism algebras -------------------------


def test_bimodule_v_satisfies_module_and_comodule_axioms():
    for target in ("kpsi", "ga_x"):
        v = build_bimodule_V(target, QI)
        assert check_module_comodule(v) == []


def test_bimodule_v_displayed_products():
    v = build_bimodule_V("kpsi", QI)
    kp, b = v.hopf, v.algebra

    def pair_product(hvec, mvec, hgen, bname):
        left = kp.multiply(hvec, hgen)
        right = v.act(b.basis_element(bname)).apply(mvec)
        return tensor_vec(left, right)

    yz_plus = vadd(basis_vector(QI, 8, 5), basis_vector(QI, 8, 4))   # yz + z
    yz_minus = vadd(basis_vector(QI, 8, 5),
                    vscale(QI.scalar(-1), basis_vector(QI, 8, 4)))   # yz - z
    x = basis_vector(QI, 8, 1)
    y = basis_vector(QI, 8, 2)
    vv = basis_vector(QI, 2, 0)
    ww = basis_vector(QI, 2, 1)

    assert pair_product(yz_plus, vv, x, "ex") == tensor_vec(yz_plus, vv)
    assert pair_product(yz_minus, ww, x, "ex") == tensor_vec(yz_minus, ww)
    assert pair_product(yz_plus, vv, y, "ey") == \
        tensor_vec(kp.multiply(x, yz_plus), ww)
    assert pair_product(yz_minus, ww, y, "ey") == \
        tensor_vec(kp.multiply(x, yz_minus), vv)


def test_bimodule_v_squares_of_generators():
    v = build_bimodule_V("kpsi", QI)
    b = v.algebra
    ey_sq = b.multiply(b.basis_element("ey"), b.basis_element("ey"))
    assert v.act(ey_sq) == Mat.identity(QI, 2)


def test_bimodule_v_restricted_splits_into_two_distinct_characters():
    v = build_bimodule_V("ga_x", QI)
    # x acts diagonally with different eigenvalues: two non-isomorphic
    # one-dimensional modules
    assert v.action[1][0, 0] == QI.one()
    assert v.action[1][1, 1] == QI.scalar(-1)


def test_end_over_twisted_algebra_is_trivial():
    v = build_bimodule_V("kpsi", QI)
    e = end_comodule_algebra(v)
    assert e.dim == 1
    assert e.coaction.col(0) == tensor_vec(KP.unit, e.unit)
    assert colinear_iso_search(e, CATALOG["k"]) is not None


def test_end_over_ga_x_is_ga_y():
    v = build_bimodule_V("ga_x", QI)
    e = end_comodule_algebra(v)
    assert e.dim == 2
    # the nontrivial endomorphism F sits in degree y and squares to 1
    y_part = isotypic_part(e, basis_vector(QI, 8, 2))
    assert y_part.dim == 1
    f = y_part.basis()[0]
    assert e.multiply(f, f) == e.unit
    assert colinear_iso_search(e, CATALOG["ga_y"]) is not None
    assert colinear_iso_search(e, CATALOG["ga_x"]) is None


def test_end_of_right_regular_module_recovers_the_algebra():
    b = CATALOG["ga_x"]
    regular = RightComodModule(b, b.dim, b.coaction,
                               [b.right_mult(b.basis_element(i))
                                for i in range(b.dim)])
    assert check_module_comodule(regular) == []
    e = end_comodule_algebra(regular)
    assert e.dim == b.dim
    assert colinear_iso_search(e, b) is not None


def test_end_rejects_incompatible_coaction():
    v = build_bimodule_V("kpsi", QI)
    bad_cols = [tensor_vec(basis_vector(QI, 8, 4), basis_vector(QI, 2, j))
                for j in range(2)]
    bad = RightComodModule(v.algebra, 2, Mat.from_columns(QI, bad_cols),
                           v.action)
    with pytest.raises(CoactionUnsolvable):
        end_comodule_algebra(bad)


def test_check_module_comodule_reports_broken_colinearity():
    v = build_bimodule_V("kpsi", QI)
    bad_action = list(v.action)
    bad_action[1] = Mat.identity(QI, 2)
    bad = RightComodModule(v.algebra, 2, v.coaction, bad_action)
    assert check_module_comodule(bad) != []


# -- two-dimensional graded modules over the Klein group algebra ------------------


def test_every_graded_line_module_yields_ga_y_never_ga_x():
    gy = build_klein_subgroup_comodule((0, 2), QI)
    gx = build_klein_subgroup_comodule((0, 1), QI)
    for degree in range(4):
        p = build_graded_free_module((0, 2), degree, QI)
        assert check_module_comodule(p) == []
        e = end_comodule_algebra(p)
        assert e.dim == 2
        assert colinear_iso_search(e, gy) is not None
        assert colinear_iso_search(e, gx) is None


# -- freeness ---------------------------------------------------------------------


def test_free_module_ranks():
    assert free_module_rank(build_bimodule_V("ga_x", QI)) == 1
    # dimension 2 is not divisible by the 4-dimensional twisted algebra
    assert free_module_rank(build_bimodule_V("kpsi", QI)) is None
    for degree in range(4):
        assert free_module_rank(build_graded_free_module((0, 2), degree,
                                                         QI)) == 1
