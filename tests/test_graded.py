"""Smash products, bosonization, the comparison maps on graded instances,
and graded module endomorphisms.

The recurring toy: B = k[v]/(v**2) over the group algebra of Z/2, with the
sign action and the coaction  v |-> g (x) v.  Its bosonization is the
four-dimensional Hopf algebra with basis 1, g, v, vg.
"""

import pytest

from hopfexact.comodule import (
    ComoduleAlgebra,
    Comodule,
    check_comodule,
    check_comodule_algebra,
    comodule_algebra_from_subspace,
    kappa_map,
    loewy_filtration,
    phi_embed,
)
from hopfexact.constructions import (
    SmashInput,
    bosonize,
    build_bimodule_V,
    build_coideal_subalgebra,
    build_klein4,
    catalog,
    comodule_direct_sum,
    smash_containment,
    smash_product,
    sweedler_smash_input,
    trivial_comodule_algebra_over,
    trivial_smash_input,
)
from hopfexact.errors import (
    HopfExactError,
    NotGeneratedInDegreeZero,
    NotModuleAlgebra,
    NotSemisimple,
)
from hopfexact.exactness import check_exactness
from hopfexact.field import FieldContext
from hopfexact.hopf import check_hopf, coradical_zero, grouplike_elements
from hopfexact.linalg import Mat, Subspace, basis_vector
from hopfexact.morita import (
    check_module_comodule,
    loewy_graded_end,
    module_direct_sum,
    regular_module,
    RightComodModule,
    simple_modules,
)

QI = FieldContext(4)
INP = sweedler_smash_input(ctx=QI)
H4 = bosonize(INP)
FULL = smash_product(INP)
LINE_INP = sweedler_smash_input(a0=trivial_comodule_algebra_over(INP.hopf0))
LINE = smash_product(LINE_INP)
C0 = coradical_zero(H4)


def _vec(*cs):
    return tuple(QI.scalar(c) for c in cs)


# -- the bosonization itself ----------------------------------------------------


def test_bosonization_passes_every_hopf_axiom():
    assert check_hopf(H4) == []
    assert H4.dim == 4
    assert H4.labels == ("1", "g", "v", "v#g")


def test_bosonization_structure_constants():
    one, g, x, y = (basis_vector(QI, 4, j) for j in range(4))
    assert tuple(H4.table[2][2]) == _vec(0, 0, 0, 0)      # v * v = 0
    assert tuple(H4.table[2][1]) == y                     # v * g = vg
    assert tuple(H4.table[1][2]) == _vec(0, 0, 0, -1)     # g * v = -vg
    dx = H4.comult.col(2)
    assert dx[2 * 4 + 0] == QI.one() and dx[1 * 4 + 2] == QI.one()
    assert sum(1 for c in dx if not c.is_zero()) == 2     # v (x) 1 + g (x) v
    dy = H4.comult.col(3)
    assert dy[3 * 4 + 1] == QI.one() and dy[0 * 4 + 3] == QI.one()
    assert sum(1 for c in dy if not c.is_zero()) == 2     # vg (x) g + 1 (x) vg
    assert [tuple(H4.antipode.col(j)) for j in range(4)] == [
        one, g, y, _vec(0, 0, -1, 0)]


def test_bosonization_grouplikes_are_the_group_part():
    assert {tuple(g) for g in grouplike_elements(H4)} == {
        basis_vector(QI, 4, 0), basis_vector(QI, 4, 1)}


def test_toy_coradical_is_the_group_part():
    assert C0.basis() == (basis_vector(QI, 4, 0), basis_vector(QI, 4, 1))


def test_cosemisimple_coradicals_are_everything():
    assert coradical_zero(build_klein4(QI)).dim == 4
    assert coradical_zero(catalog(QI)["kp"].hopf).dim == 8


# -- the two degenerate smash instances ------------------------------------------


def test_smash_against_the_base_recovers_the_bosonization():
    a = FULL.algebra
    assert a.labels == H4.labels
    assert all(tuple(a.table[i][j]) == tuple(H4.table[i][j])
               for i in range(4) for j in range(4))
    assert a.coaction == H4.comult


def test_smash_against_the_base_field_is_exact():
    a = LINE.algebra
    assert a.labels == ("1", "v")
    assert a.dim == 2
    verdict = check_exactness(a)
    assert verdict.am_exact
    assert verdict.coinvariants_dim == 1


def test_trivial_diagram_returns_the_coefficients():
    a0 = catalog(QI)["ga_x"]
    out = smash_product(trivial_smash_input(a0))
    assert out.algebra.labels == tuple(a0.labels)
    assert all(tuple(out.algebra.table[i][j]) == tuple(a0.table[i][j])
               for i in range(a0.dim) for j in range(a0.dim))
    assert out.algebra.coaction == a0.coaction


@pytest.mark.parametrize("result", [FULL, LINE], ids=["base", "field"])
def test_smash_grading_partial_sums_are_the_loewy_filtration(result):
    a = result.algebra
    filtration = loewy_filtration(a, C0)
    acc = []
    partials = []
    for layer in result.grading:
        acc += list(layer.basis())
        partials.append(Subspace.from_vectors(QI, a.dim, acc))
    assert partials == filtration


# -- rejected inputs -------------------------------------------------------------


def test_action_that_breaks_composition_is_rejected():
    bad = SmashInput(INP.hopf0, INP.algebra,
                     [Mat.identity(QI, 2), Mat(QI, [[1, 0], [0, 2]])],
                     INP.coaction, INP.grading, INP.a0)
    with pytest.raises(NotModuleAlgebra):
        bosonize(bad)


def test_coaction_without_a_primitive_coproduct_is_rejected():
    e0 = basis_vector(QI, 2, 0)
    e1 = basis_vector(QI, 2, 1)
    trivial = Mat.from_columns(QI, [
        (QI.one(), QI.zero(), QI.zero(), QI.zero()),
        (QI.zero(), QI.one(), QI.zero(), QI.zero())])
    bad = SmashInput(INP.hopf0, INP.algebra, INP.action, trivial,
                     INP.grading, INP.a0)
    with pytest.raises(HopfExactError, match="primitive"):
        bosonize(bad)


# -- the comparison maps on smash instances ---------------------------------------


@pytest.mark.parametrize("algebra", [LINE.algebra, FULL.algebra],
                         ids=["field", "base"])
def test_kappa_is_an_embedding_on_exact_instances(algebra):
    report = kappa_map(algebra, C0)
    assert report.injective
    assert report.algebra_morphism
    assert report.comodule_morphism
    assert report.degree_zero_closed


def test_kappa_stays_injective_without_exactness():
    # a costable ideal (the witness below) does not have to meet the kernel
    # of kappa, so non-exact inputs still embed.
    doubled = comodule_direct_sum(LINE.algebra, LINE.algebra)
    verdict = check_exactness(doubled)
    assert not verdict.am_exact
    assert verdict.witness is not None and verdict.witness.dim == 2
    assert kappa_map(doubled, C0).injective

    cat = catalog(QI)
    doubled_k = comodule_direct_sum(cat["ga_k"], cat["ga_k"])
    verdict_k = check_exactness(doubled_k)
    assert not verdict_k.am_exact
    assert verdict_k.witness is not None and verdict_k.witness.dim == 4
    kp_coradical = coradical_zero(cat["kp"].hopf)
    assert kappa_map(doubled_k, kp_coradical).injective


def test_phi_image_is_the_braided_half():
    report = phi_embed(LINE.algebra, C0, [QI.one()])
    assert report.injective
    assert report.algebra_morphism
    assert report.image_is_left_coideal
    assert report.image_is_subalgebra
    assert report.image.basis() == (basis_vector(QI, 4, 0),
                                    basis_vector(QI, 4, 2))
    packed = comodule_algebra_from_subspace(H4, report.image)
    assert check_comodule_algebra(packed) == []


def test_phi_on_the_regular_instance_fills_the_bosonization():
    report = phi_embed(FULL.algebra, C0, [QI.one(), QI.one()])
    assert report.injective
    assert report.algebra_morphism
    assert report.image_is_left_coideal
    assert report.image.dim == 4


# -- graded endomorphism algebras -------------------------------------------------


def test_graded_end_of_the_regular_module():
    ge = loewy_graded_end(regular_module(FULL.algebra), FULL.grading,
                          FULL.grading)
    assert ge.algebra.dim == 4
    assert [layer.dim for layer in ge.grading] == [2, 2]
    assert ge.zero_algebra.dim == 2
    split = simple_modules(ge.zero_algebra)
    assert sorted(s.dim for s in split.simples) == [1, 1]
    assert ge.zero_iso.nrows == 2 and ge.zero_iso.ncols == 2


def test_graded_end_of_a_free_double():
    double = module_direct_sum(regular_module(LINE.algebra),
                               regular_module(LINE.algebra))
    assert check_module_comodule(double) == []
    grading = []
    for layer in LINE.grading:
        vecs = []
        for w in layer.basis():
            vecs.append(tuple(w) + (QI.zero(), QI.zero()))
            vecs.append((QI.zero(), QI.zero()) + tuple(w))
        grading.append(Subspace.from_vectors(QI, 4, vecs))
    ge = loewy_graded_end(double, LINE.grading, grading)
    assert ge.algebra.dim == 8
    assert [layer.dim for layer in ge.grading] == [4, 4]
    split = simple_modules(ge.zero_algebra)
    assert [s.dim for s in split.simples] == [2]
    assert split.multiplicities == [2]


@pytest.mark.parametrize("target,end_dim", [("kpsi", 1), ("ga_x", 2)])
def test_graded_end_in_a_single_degree(target, end_dim):
    v = build_bimodule_V(target)
    ge = loewy_graded_end(v, [Subspace.full(v.ctx, v.algebra.dim)],
                          [Subspace.full(v.ctx, v.dim)])
    assert ge.algebra.dim == end_dim
    assert [layer.dim for layer in ge.grading] == [end_dim]
    assert ge.zero_algebra.dim == end_dim


def test_graded_end_requires_generation_in_degree_zero():
    z, o = QI.zero(), QI.one()
    co = [[z] * 4 for _ in range(4 * 4)]
    co[0 * 4 + 0][0] = o                        # p0 |-> 1 (x) p0
    co[1 * 4 + 1][1] = o                        # q  |-> g (x) q
    co[2 * 4 + 0][2] = o
    co[1 * 4 + 2][2] = o                        # p1 |-> v (x) p0 + g (x) p1
    co[3 * 4 + 1][3] = o
    co[0 * 4 + 3][3] = o                        # u  |-> vg (x) q + 1 (x) u
    assert check_comodule(Comodule(H4, 4, Mat(QI, co))) == []
    stranded = RightComodModule(LINE.algebra, 4, Mat(QI, co),
                                [Mat.identity(QI, 4), Mat.zeros(QI, 4, 4)])
    grading = [
        Subspace.from_vectors(QI, 4, [basis_vector(QI, 4, 0),
                                      basis_vector(QI, 4, 1)]),
        Subspace.from_vectors(QI, 4, [basis_vector(QI, 4, 2),
                                      basis_vector(QI, 4, 3)]),
    ]
    with pytest.raises(NotGeneratedInDegreeZero):
        loewy_graded_end(stranded, LINE.grading, grading)


def _exterior_pair():
    """The exterior algebra on two odd generators v, w, coacted through the
    bosonization with  v, w |-> v (x) 1 + g (x) (v or w)."""
    z, o = QI.zero(), QI.one()
    e = [basis_vector(QI, 4, j) for j in range(4)]
    zero = _vec(0, 0, 0, 0)
    table = [
        [e[0], e[1], e[2], e[3]],
        [e[1], zero, e[3], zero],
        [e[2], _vec(0, 0, 0, -1), zero, zero],
        [e[3], zero, zero, zero],
    ]
    co = [[z] * 4 for _ in range(4 * 4)]
    co[0 * 4 + 0][0] = o
    co[2 * 4 + 0][1] = o
    co[1 * 4 + 1][1] = o
    co[2 * 4 + 0][2] = o
    co[1 * 4 + 2][2] = o
    co[0 * 4 + 3][3] = o
    co[3 * 4 + 2][3] = o
    co[3 * 4 + 1][3] = QI.scalar(-1)
    return ComoduleAlgebra(H4, ("1", "v", "w", "vw"), e[0], table,
                           Mat(QI, co))


def test_graded_end_requires_a_semisimple_degree_zero_part():
    ext = _exterior_pair()
    assert check_comodule_algebra(ext) == []
    e = [basis_vector(QI, 4, j) for j in range(4)]
    grading = [Subspace.from_vectors(QI, 4, [e[0], _vec(0, 1, -1, 0)]),
               Subspace.from_vectors(QI, 4, [e[2], e[3]])]
    with pytest.raises(NotSemisimple):
        loewy_graded_end(regular_module(ext), grading, grading)


# -- containment in the smash with the degree-zero layer --------------------------


def test_the_bosonization_fills_its_own_smash():
    report = smash_containment(INP, FULL.algebra)
    assert report.contained and report.injective
    assert report.algebra_morphism and report.colinear
    assert report.zero_part.dim == 2
    assert report.smash.algebra.dim == FULL.algebra.dim


def test_the_line_fills_its_own_smash():
    report = smash_containment(INP, LINE.algebra)
    assert report.contained and report.injective
    assert report.algebra_morphism and report.colinear
    assert report.zero_part.dim == 1
    assert report.smash.algebra.dim == LINE.algebra.dim


def test_the_group_part_sits_properly_inside_its_smash():
    grp = build_coideal_subalgebra(H4, [basis_vector(QI, 4, 1)])
    assert grp.dim == 2
    report = smash_containment(INP, grp)
    assert report.contained and report.injective
    assert report.algebra_morphism and report.colinear
    assert report.smash.algebra.dim == 4
    assert grp.dim < report.smash.algebra.dim
