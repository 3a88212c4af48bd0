import functools
import importlib.util
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

from hopfexact import algebra, linalg, morita
from hopfexact.algebra import (is_algebra_isomorphism, is_associative, trace,
                               trace_radical)
from hopfexact.comodule import (
    ComoduleAlgebra,
    RightComodModule,
    check_comodule_algebra,
    coideal_generated,
    comodule_algebra_from_subspace,
    isotypic_part,
)
from hopfexact.constructions import (
    PSI_STANDARD,
    a_xy_gamma_over,
    build_bimodule_V,
    build_klein4,
    build_kp,
    build_matrix2_trivial,
    catalog,
    comodule_direct_sum,
    group_algebra_comodule_over,
    trivial_comodule_algebra_over,
    twisted_group_algebra_over,
    with_trivial_coaction,
)
from hopfexact.errors import (
    CoactionUnsolvable,
    DimensionMismatch,
    HopfExactError,
    NeedsFieldExtension,
    NotOverKp,
    NotSemisimple,
)
from hopfexact.exactness import check_exactness
from hopfexact.field import FieldContext, adjoin_sqrt
from hopfexact.hopf import Hopf, same_hopf
from hopfexact.linalg import (Mat, _dense, _sparse, basis_vector, kernel, kron,
                              linear_combination, rank, solve, tensor_vec,
                              vadd, vscale)
from hopfexact.morita import (
    FusionFingerprint,
    _character_solver,
    _colinear_system,
    _commutant,
    check_module_comodule,
    colinear_iso_search,
    colinear_maps,
    end_comodule_algebra,
    fingerprint_distinguishes,
    fusion_fingerprint,
    intertwiners,
    kp_simple_modules,
    simple_modules,
    simple_modules_split,
)
from hopfexact.poly import MultiPoly, concrete_solutions

from _transport import transport

QI = FieldContext(4)
CATALOG = catalog(QI)
KP = CATALOG["kp"].hopf


def _is_colinear(a, b, t: Mat) -> bool:
    ident = Mat.identity(a.ctx, a.hopf.dim)
    return b.coaction @ t == kron(ident, t) @ a.coaction


Q = FieldContext(1)
QS = adjoin_sqrt(QI, "1+i")
# catalog entries of dimension <= 4, the small entries of the benchmark
SMALL = ("k", "ga_x", "ga_y", "ga_xy", "ga_k", "a_i_xy", "kpsi")


@functools.lru_cache(maxsize=None)
def _small_mixed_inputs(seed):
    """The transported small entries of the benchmark's small-mixed seed."""
    return {name: transport(CATALOG[name], random.Random(f"{seed}:{name}"))
            for name in SMALL}


def _left_mults(a):
    return [a.left_mult(a.basis_element(i)) for i in range(a.dim)]


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
                want = Mat(a.ctx, [[0] * s.dim] * s.dim)
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
    # the first split is by right multiplication with exy, whose square is
    # 1; the worklist pops its -1 eigenspace first, where the remaining
    # generator squares to 1 - i: the discriminant of t**2 = 1 - i up to a
    # square factor
    assert disc == QI.scalar(4) * (QI.one() - QI.i())
    used, dec = simple_modules_split(a)
    assert used.ctx != QI and used.ctx.has_layer
    assert [s.dim for s in dec.simples] == [1, 1, 1, 1]
    assert dec.split


def test_no_formal_root_is_adjoined_where_the_root_may_exist():
    # over Q(zeta_24) the square roots of 2, 3 and -3 exist, but
    # sqrt_in_context finds only those in Q(i); a formal root of one of them
    # would give a ring with zero divisors
    ctx = FieldContext(12)
    for d in (2, 3, -3):
        with pytest.raises(NeedsFieldExtension) as info:
            morita._extended_context(ctx, ctx.scalar(d))
        assert info.value.discriminant == ctx.scalar(d)
        assert info.value.discriminant.ctx == ctx
    # over a power-of-two order the refusal is a proof, and the root is
    # adjoined
    assert morita._extended_context(QI, QI.scalar(3)).has_layer


@pytest.mark.parametrize("order", [12, 20])
def test_a_fingerprint_refusal_can_be_retried_over_the_callers_context(order):
    # the refusal is raised over the raised order 24 or 40, where the root
    # of 4 - 4i is still missing; it carries the discriminant over ctx, so
    # the documented retry adjoins its root to ctx
    ctx = FieldContext(order)
    with pytest.raises(NeedsFieldExtension) as info:
        fusion_fingerprint(catalog(ctx)["a_i_xy"])
    assert info.value.discriminant.ctx == ctx
    assert str(info.value) == "no square root in context: 4 - 4*i"
    bigger = adjoin_sqrt(ctx, info.value.discriminant)
    assert bigger.has_layer and bigger.order == order


def test_leaves_are_sorted_into_classes_without_an_intertwiner_kernel(
        monkeypatch):
    """Leaves are matched by character: every intertwiner kernel left is a
    commutant, one module against itself."""
    pairs = []
    real = morita.intertwiners

    def spy(m1, m2):
        pairs.append(m1 is m2)
        return real(m1, m2)

    monkeypatch.setattr(morita, "intertwiners", spy)
    dec = simple_modules(CATALOG["kp"])
    assert dec.multiplicities == [1, 1, 1, 1, 2]
    assert pairs and all(pairs)


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


def _q_times_gaussian():
    """Q x Q(i) over Q on f0 = (1, 1), f1 = (1, i), f2 = (0, i), with the
    trivial coaction of kp over Q."""
    q = FieldContext(1)
    f0, f1, f2 = (1, 0, 0), (0, 1, 0), (0, 0, 1)
    minus_one = (-1, 1, -1)     # (0, -1) = f1*f2 = f2*f2
    table = [[f0, f1, f2], [f1, (-1, 2, -2), minus_one],
             [f2, minus_one, minus_one]]
    return with_trivial_coaction(
        build_kp(q), algebra.Algebra(q, ("f0", "f1", "f2"), f0, table))


def test_split_peels_a_rational_eigenspace_and_keeps_the_rest_as_a_block():
    # R_f1 has minimal polynomial (t - 1)(t**2 + 1): its one rational root
    # covers one dimension, and the kernel of R_f1 - 1 is peeled off beside
    # the invariant plane on which t**2 + 1 acts
    a = _q_times_gaussian()
    lefts = [a.left_mult(a.basis_element(i)) for i in range(3)]
    rights = [a.right_mult(a.basis_element(i)) for i in range(3)]
    assert linalg.minimal_polynomial(rights[1]) == [
        a.ctx.scalar(c) for c in (-1, 1, -1, 1)]
    spaces = morita._split_once(lefts, rights)
    assert [s.dim for s in spaces] == [1, 2]
    for s in spaces:
        restricted = [linalg.restrict_operator(m, s) for m in lefts]
        assert restricted[0] == Mat.identity(a.ctx, s.dim)
    # the plane is handed the restriction of R_f1, whose minimal polynomial
    # t**2 + 1 has discriminant -4, in the square class of -1
    with pytest.raises(NeedsFieldExtension) as exc:
        simple_modules(a)
    assert exc.value.discriminant == -4
    rebased, dec = simple_modules_split(a)
    assert rebased.ctx == FieldContext(4)
    assert [m.dim for m in dec.simples] == [1, 1, 1]
    assert dec.multiplicities == [1, 1, 1] and dec.split


def test_a_hopf_algebra_split_over_a_larger_field_stays_a_hopf_algebra():
    used, dec = simple_modules_split(build_kp(FieldContext(1)))
    assert used.ctx == QI and dec.split
    assert isinstance(used, Hopf) and used.hopf is used
    assert same_hopf(used, build_kp(QI))


# -- the five built-in simple modules of the eight-dimensional Hopf algebra -----


def test_kp_simple_modules_are_valid_and_complete():
    kp = KP
    mods = kp_simple_modules(QI)
    assert [name for name, _ in mods] == ["k_1", "k_i", "k_-1", "k_-i", "W"]
    for _, mats in mods:
        for i in range(8):
            for j in range(8):
                d = mats[0].nrows
                want = Mat(QI, [[0] * d] * d)
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


def test_fingerprint_refuses_a_coaction_over_klein4():
    k4 = build_klein4(QI)
    with pytest.raises(NotOverKp):
        fusion_fingerprint(group_algebra_comodule_over(k4, range(4)))


def _bent_kp():
    """kp's labels and table, with the z (x) z coefficient of Delta(z)
    negated."""
    kp = build_kp(QI)
    rows = [dict(r) for r in kp.comult.entries]
    z = kp.label_index("z")
    rows[z * kp.dim + z][z] = -rows[z * kp.dim + z][z]
    return Hopf(QI, kp.labels, kp.unit, kp.table,
                Mat.from_entries(QI, rows, kp.dim), kp.counit, kp.antipode)


def test_fingerprint_refuses_kp_labels_on_another_structure():
    # the labels pass, the structure check does not
    kp, bent = build_kp(QI), _bent_kp()
    assert bent.labels == kp.labels and bent.comult != kp.comult
    with pytest.raises(NotOverKp):
        fusion_fingerprint(trivial_comodule_algebra_over(bent))
    assert fusion_fingerprint(trivial_comodule_algebra_over(kp)) \
        == fusion_fingerprint(CATALOG["k"])


def test_a_direct_sum_over_kp_and_a_bent_kp_is_refused():
    # the same table, another coproduct: not the same Hopf algebra, for the
    # direct sum as for the iso search
    k = trivial_comodule_algebra_over(build_kp(QI))
    k_bent = trivial_comodule_algebra_over(_bent_kp())
    with pytest.raises(DimensionMismatch):
        comodule_direct_sum(k, k_bent)
    with pytest.raises(DimensionMismatch):
        colinear_iso_search(k, k_bent)


def test_regular_module_is_split_without_a_commutant_kernel(monkeypatch):
    """The commutant of the regular module is read off the table: no kernel
    in dim**2 unknowns is built, only those of the smaller pieces."""
    kp = CATALOG["kp"]
    sizes = []
    real = morita._kernel_rows

    def spy(ctx, rows, n):
        sizes.append(n)
        return real(ctx, rows, n)

    monkeypatch.setattr(morita, "_kernel_rows", spy)
    dec = simple_modules(kp)
    assert [s.dim for s in dec.simples] == [1, 1, 1, 1, 2]
    assert sizes and max(sizes) < kp.dim ** 2


def test_a_non_commuting_top_level_candidate_is_refused(monkeypatch):
    """A candidate that does not commute with the left regular action has
    eigenspaces that are not submodules; restricting to one is refused, so
    a non-associative table cannot give a wrong split."""
    a = CATALOG["ga_x"]
    regular = _left_mults(a)
    bad = Mat(QI, [[1, 0], [0, -1]])
    assert any(bad @ m != m @ bad for m in regular)
    real = morita._split_once

    def swapped(action, comm, first=()):
        return real(action, comm, [bad] if first else first)

    monkeypatch.setattr(morita, "_split_once", swapped)
    with pytest.raises(DimensionMismatch):
        simple_modules(a)


# -- splits under a change of basis ------------------------------------------------


@functools.lru_cache(maxsize=None)
def _moved_kp():
    return transport(CATALOG["kp"], random.Random(2))


def test_moved_kp_has_the_verdicts_of_kp():
    """Every piece of the split is handed the right multiplications by the
    homogeneous elements that leave it invariant, so moved kp is split as
    kp is: its fingerprint is kp's up to a relabelling of the simples."""
    kp, moved = CATALOG["kp"], _moved_kp()
    assert not fingerprint_distinguishes(fusion_fingerprint(moved),
                                         fusion_fingerprint(kp))
    got, want = check_exactness(moved), check_exactness(kp)
    assert (got.method, got.am_exact, got.coinvariants_dim) \
        == (want.method, want.am_exact, want.coinvariants_dim)
    assert check_comodule_algebra(moved) == []


def test_the_top_level_candidates_alone_do_not_split_moved_kp(monkeypatch):
    """The mutation of the rule: with the homogeneous candidates at the top
    level only, a lower piece of moved kp is left to its commutant basis,
    whose cubic minimal polynomials are not factored."""
    real = morita._split_once
    n = CATALOG["kp"].dim

    def top_only(action, comm, first=()):
        return real(action, comm, first if action[0].nrows == n else ())

    monkeypatch.setattr(morita, "_split_once", top_only)
    with pytest.raises(HopfExactError, match="cannot split"):
        fusion_fingerprint(_moved_kp())


@pytest.mark.parametrize("left, right, seed",
                         [("ga_k", "ga_k", 2), ("kpsi", "ga_k", 4)])
def test_moved_direct_sums_split_as_built(left, right, seed):
    built = comodule_direct_sum(CATALOG[left], CATALOG[right])
    _, want = simple_modules_split(built)
    _, got = simple_modules_split(transport(built, random.Random(seed)))
    assert [s.dim for s in got.simples] == [s.dim for s in want.simples]
    assert got.multiplicities == want.multiplicities


def _intertwiner_cells(used, dec):
    """The fusion cells from intertwiners: the action on X (x) M built with
    kron through the coaction, and one intertwiner kernel per target."""
    na = used.dim
    rows = []
    for _, x_action in kp_simple_modules(used.ctx):
        row = []
        for m in dec.simples:
            product_action = []
            for idx in range(na):
                terms = _sparse(used.coaction.col(idx)).items()
                product_action.append(linear_combination(
                    [c for _, c in terms],
                    [kron(x_action[pos // na], m.action[pos % na])
                     for pos, _ in terms]))
            row.append(tuple(len(intertwiners(t.action, product_action))
                             for t in dec.simples))
        rows.append(tuple(row))
    return tuple(rows)


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_character_cells_match_the_intertwiner_cells(name):
    used, dec = simple_modules_split(CATALOG[name])
    assert fusion_fingerprint(CATALOG[name]).table \
        == _intertwiner_cells(used, dec)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_character_cells_match_the_intertwiner_cells_on_moved_entries(seed):
    for moved in _small_mixed_inputs(seed).values():
        used, dec = simple_modules_split(moved)
        assert fusion_fingerprint(moved).table \
            == _intertwiner_cells(used, dec)


def _per_cell_fingerprint(a):
    """``fusion_fingerprint`` as it was before the tr M leg was contracted
    once per simple: two products per coaction term, per (X, M) cell."""
    used, dec = simple_modules_split(a)
    ctx, na = used.ctx, used.dim
    hmods = kp_simple_modules(ctx)
    chars = [tuple(trace(m) for m in s.action) for s in dec.simples]
    multiplicities = _character_solver(Mat.from_columns(ctx, chars))
    lam = used.coaction.transpose().entries
    rows = []
    for _, x_action in hmods:
        x_char = [trace(m) for m in x_action]
        rows.append(tuple(
            multiplicities(tuple(
                sum((c * x_char[pos // na] * m_char[pos % na]
                     for pos, c in terms.items()), ctx.zero())
                for terms in lam))
            for m_char in chars))
    return FusionFingerprint(tuple(name for name, _ in hmods),
                             tuple(s.dim for s in dec.simples), tuple(rows))


@pytest.mark.parametrize("ctx", [QI, FieldContext(8)], ids=["Q(i)", "Q(z8)"])
def test_contracted_cells_match_the_per_cell_sums(ctx):
    """Every catalog entry over Q(i) and Q(zeta_8), then, over Q(i), moved
    kp and the small entries moved by seeds 1-3."""
    inputs = list(catalog(ctx).values())
    if ctx is QI:
        inputs.append(_moved_kp())
        inputs += [moved for seed in (1, 2, 3)
                   for moved in _small_mixed_inputs(seed).values()]
    for a in inputs:
        assert fusion_fingerprint(a) == _per_cell_fingerprint(a)


def _simple_characters(a):
    return [[trace(m) for m in s.action] for s in simple_modules(a).simples]


def test_a_wrong_trace_in_a_target_character_is_refused():
    chars = _simple_characters(CATALOG["ga_k"])
    # tensoring with the trivial module k_1 changes nothing, so the cell of
    # a simple under k_1 is that simple, read from its own character
    solve_good = _character_solver(Mat.from_columns(QI, chars))
    assert solve_good(tuple(chars[1])) == (0, 1, 0, 0)
    wrong = [list(c) for c in chars]
    wrong[1][1] = wrong[1][1] + QI.one()
    bad = Mat.from_columns(QI, wrong)
    assert rank(bad) == len(chars)
    with pytest.raises(HopfExactError, match="not a natural number"):
        _character_solver(bad)(tuple(chars[1]))


def test_a_character_outside_the_span_of_the_targets_is_refused():
    chars = _simple_characters(CATALOG["ga_k"])
    # a simple left out of the targets: its own character has no solution
    with pytest.raises(HopfExactError, match="no combination"):
        _character_solver(Mat.from_columns(QI, chars[1:]))(tuple(chars[0]))


def test_dependent_simple_characters_are_refused():
    chars = _simple_characters(CATALOG["ga_x"])
    with pytest.raises(HopfExactError, match="dependent"):
        _character_solver(Mat.from_columns(QI, chars + chars[:1]))

# -- colinear isomorphism search --------------------------------------------------


def test_iso_search_finds_gamma_conjugate():
    a = CATALOG["a_i_xy"]
    b = a_xy_gamma_over(build_kp(QI), -QI.i())
    t = colinear_iso_search(a, b)
    assert t is not None
    assert is_algebra_isomorphism(a, b, t)
    assert _is_colinear(a, b, t)


def test_explicit_gamma_conjugate_map_is_an_isomorphism():
    # 1 -> 1, exy -> -exy, v -> -v, w -> -w
    a = CATALOG["a_i_xy"]
    b = a_xy_gamma_over(build_kp(QI), -QI.i())
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
    a8 = a_xy_gamma_over(build_kp(ext), ext.i())
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


def _general_search(monkeypatch):
    """Switch off the search's identity-first check, so that it solves its
    system even where the identity is the answer."""
    monkeypatch.setattr(morita, "is_colinear_isomorphism",
                        lambda a, b, t: False)


def test_iso_search_finds_a_kp_automorphism(monkeypatch):
    """The (kp, kp) system has four solutions, one per character of kp;
    each solves every equation, and the map built from it is a colinear
    algebra automorphism.  The identity-first check is switched off, so
    the system is solved."""
    kp = CATALOG["kp"]
    calls = []
    real = morita.concrete_solutions
    _general_search(monkeypatch)

    def spy(eqs, ctx):
        sols = real(eqs, ctx)
        calls.append((eqs, sols))
        return sols

    monkeypatch.setattr(morita, "concrete_solutions", spy)
    t = colinear_iso_search(kp, kp)
    assert t is not None
    [(eqs, sols)] = calls
    assert len(sols) == 4
    for sol in sols:
        assert all(eq.substitute(sol).is_zero() for eq in eqs)
    characters = set()
    for sol in sols:
        # the search builds its map from the one solution it is given
        monkeypatch.setattr(morita, "concrete_solutions",
                            lambda eqs, ctx, sol=sol: [sol])
        t = colinear_iso_search(kp, kp)
        assert t is not None
        assert is_algebra_isomorphism(kp, kp, t)
        assert _is_colinear(kp, kp, t)
        # t is (id (x) chi) o lambda with chi = eps o t, and chi is a
        # character of kp
        chi = [KP.counit_value(t.col(j)) for j in range(kp.dim)]

        def value(vec):
            return sum((c * x for c, x in zip(vec, chi)), QI.zero())

        assert all(value(kp.table[i][j]) == chi[i] * chi[j]
                   for i in range(kp.dim) for j in range(kp.dim))
        characters.add(tuple(repr(c) for c in chi))
    assert len(characters) == 4


# -- the search on generators, and its one canonical map -------------------------


def _every_pair_search(a, b):
    """The search as it ran before it wrote its equations on generators:
    ``T(e_i e_j) = T(e_i) T(e_j)`` for every pair (i, j), and the first
    invertible solution in the solver's order."""
    if a.dim != b.dim:
        return None
    ctx, n = a.ctx, a.dim
    maps = colinear_maps(a, b)
    if not maps:
        return None
    unit_images = Mat.from_columns(ctx, [t.apply(a.unit) for t in maps])
    particular = solve(unit_images, b.unit)
    if particular is None:
        return None
    t0 = linear_combination(particular, maps)
    directions = [linear_combination(hv, maps) for hv in kernel(unit_images)]
    names = [f"s{i}" for i in range(len(directions))]
    symbolic = [[MultiPoly.const(ctx, t0[i, j]) for j in range(n)]
                for i in range(n)]
    for name, d in zip(names, directions):
        for i in range(n):
            for j in range(n):
                symbolic[i][j] = symbolic[i][j] + MultiPoly.var(ctx, name) \
                    * d[i, j]

    zero = MultiPoly.const(ctx, ctx.zero())
    images = [[row[j] for row in symbolic] for j in range(n)]
    eqs = []
    for i in range(n):
        for j in range(n):
            lhs = [sum((p * x for p, x in zip(row, a.table[i][j])), zero)
                   for row in symbolic]
            rhs = [zero] * n
            for p in range(n):
                for q in range(n):
                    prod = images[i][p] * images[j][q]
                    rhs = [r if c.is_zero() else r + prod * c
                           for r, c in zip(rhs, b.table[p][q])]
            eqs += [left - right for left, right in zip(lhs, rhs)]
    for sol in concrete_solutions(eqs, ctx):
        t = t0
        for name, d in zip(names, directions):
            t = t + d.scale(sol[name])
        if rank(t) == n:
            return t
    return None


def _iso_pairs(ctx):
    """Every catalog pair of equal dimension, then each entry moved by
    seeds 1-3 against the entry as built, kp by seed 1 only."""
    cat = catalog(ctx)
    pairs = [(cat[x], cat[y]) for x in cat for y in cat
             if cat[x].dim == cat[y].dim]
    for seed in (1, 2, 3):
        pairs += [(transport(a, random.Random(f"{seed}:{name}")), a)
                  for name, a in cat.items() if name != "kp" or seed == 1]
    return pairs


def _verdict(search, a, b):
    try:
        return search(a, b) is not None
    except HopfExactError as exc:
        return type(exc).__name__


@pytest.mark.parametrize("ctx", [QI, FieldContext(8)], ids=["Q(i)", "Q(z8)"])
def test_iso_search_on_generators_matches_the_every_pair_search(ctx):
    for a, b in _iso_pairs(ctx):
        assert is_associative(a) and is_associative(b)
        want = _verdict(_every_pair_search, a, b)
        assert want in (True, False)
        t = colinear_iso_search(a, b)
        assert (t is not None) == want, (a.labels, b.labels)
        if t is not None:
            assert is_algebra_isomorphism(a, b, t)
            assert _is_colinear(a, b, t)


def test_every_catalog_entry_is_its_own_identity():
    for name, a in CATALOG.items():
        assert colinear_iso_search(a, a) == Mat.identity(QI, a.dim), name


def test_the_map_does_not_depend_on_the_order_of_the_equations(monkeypatch):
    pairs = [(transport(CATALOG[name], random.Random(f"{seed}:{name}")),
              CATALOG[name]) for seed in (1, 2) for name in SMALL]
    pairs.append((CATALOG["a_i_xy"], a_xy_gamma_over(KP, -QI.i())))
    want = [colinear_iso_search(a, b) for a, b in pairs]
    # some map is not the identity, so the choice among solutions is made
    assert any(t is not None and t != Mat.identity(QI, t.nrows)
               for t in want)
    real = morita.concrete_solutions
    for seed in (1, 2, 3):
        rng = random.Random(seed)

        def shuffled(eqs, ctx):
            eqs = list(eqs)
            rng.shuffle(eqs)
            return real(eqs, ctx)[::-1]

        monkeypatch.setattr(morita, "concrete_solutions", shuffled)
        assert [colinear_iso_search(a, b) for a, b in pairs] == want


def test_a_non_associative_input_takes_every_pair(monkeypatch):
    # ga_k with e_x e_y doubled: (e_x e_x) e_y = e_y but e_x (e_x e_y) = 2 e_y
    ga_k = CATALOG["ga_k"]
    table = [list(row) for row in ga_k.table]
    table[1][2] = vscale(QI.scalar(2), table[1][2])
    a = ComoduleAlgebra(KP, ga_k.labels, ga_k.unit, table, ga_k.coaction)
    assert not is_associative(a) and len(a.generators()) < a.dim
    sizes = []
    real = morita.concrete_solutions

    def spy(eqs, ctx):
        sizes.append(len(eqs))
        return real(eqs, ctx)

    monkeypatch.setattr(morita, "concrete_solutions", spy)
    _general_search(monkeypatch)
    assert colinear_iso_search(a, a) == Mat.identity(QI, 4)
    assert colinear_iso_search(ga_k, ga_k) == Mat.identity(QI, 4)
    # one equation per pair and output coordinate, then per generator
    assert sizes == [4 ** 3, len(ga_k.generators()) * 4 ** 2]


def test_the_map_does_not_depend_on_the_hash_seed():
    script = ("import random\n"
              "from hopfexact.constructions import catalog\n"
              "from hopfexact.field import FieldContext\n"
              "from hopfexact.morita import colinear_iso_search\n"
              "from _transport import transport\n"
              "kp = catalog(FieldContext(4))['kp']\n"
              "moved = transport(kp, random.Random('1:kp'))\n"
              "print(colinear_iso_search(moved, kp).rows)\n")
    tests = Path(__file__).resolve().parent
    path = os.pathsep.join([str(tests.parent / "src"), str(tests)])
    texts = [subprocess.run([sys.executable, "-c", script], check=True,
                            capture_output=True, text=True,
                            env={**os.environ, "PYTHONPATH": path,
                                 "PYTHONHASHSEED": seed}).stdout
             for seed in ("0", "1")]
    assert texts[0] == texts[1] and texts[0].startswith("((")


def test_ga_x_and_ga_y_have_no_colinear_maps_at_all():
    maps = colinear_maps(CATALOG["ga_x"], CATALOG["ga_y"])
    # gradings sit over different grouplikes, so only the unit lines match
    assert len(maps) == 1


# -- the identity before the system --------------------------------------------


@pytest.mark.parametrize("ctx", [QI, FieldContext(8)], ids=["Q(i)", "Q(z8)"])
def test_the_identity_first_is_the_systems_map(ctx, monkeypatch):
    """Every catalog entry and two direct sums against themselves: the
    identity, with no system solved, and the system's own answer."""
    cat = catalog(ctx)
    inputs = [*cat.values(), comodule_direct_sum(cat["ga_k"], cat["ga_k"]),
              comodule_direct_sum(cat["kpsi"], cat["ga_k"])]
    calls = []
    real = morita.concrete_solutions

    def spy(eqs, ctx):
        calls.append(eqs)
        return real(eqs, ctx)

    monkeypatch.setattr(morita, "concrete_solutions", spy)
    first = [colinear_iso_search(a, a) for a in inputs]
    assert first == [Mat.identity(ctx, a.dim) for a in inputs]
    # kp moved by seed 1, whose own system the solver cannot reduce
    moved = transport(cat["kp"], random.Random(1))
    assert colinear_iso_search(moved, moved) == Mat.identity(ctx, 8)
    assert not calls
    _general_search(monkeypatch)
    assert [colinear_iso_search(a, a) for a in inputs] == first
    assert len(calls) == len(inputs)


def test_an_algebra_with_a_radical_has_no_map_onto_kp():
    # k[t]/(t**8), with the trivial coaction: t spans a nilpotent ideal
    n = 8
    powers = [basis_vector(QI, n, k) for k in range(n)]
    zero = tuple(QI.zero() for _ in range(n))
    table = [[powers[i + j] if i + j < n else zero for j in range(n)]
             for i in range(n)]
    a = with_trivial_coaction(KP, algebra.Algebra(
        QI, [f"t{k}" for k in range(n)], powers[0], table))
    assert colinear_iso_search(a, CATALOG["kp"]) is None


def test_a_target_that_the_identity_does_not_reach_solves_one_system(
        monkeypatch):
    calls = []
    real = morita.concrete_solutions

    def spy(eqs, ctx):
        calls.append(eqs)
        return real(eqs, ctx)

    monkeypatch.setattr(morita, "concrete_solutions", spy)
    kp = CATALOG["kp"]
    moved = transport(kp, random.Random(1))
    assert not morita.is_colinear_isomorphism(kp, moved, Mat.identity(QI, 8))
    assert colinear_iso_search(kp, moved) is not None
    assert len(calls) == 1


def _kron_colinear_system(a, b) -> Mat:
    """kron(lambda_b, I) minus the blocks of lambda_a, entry by entry."""
    ctx = a.ctx
    na, nb, nh = a.dim, b.dim, a.hopf.dim
    lhs = kron(b.coaction, Mat.identity(ctx, na))
    rows = []
    for h in range(nh):
        for m in range(nb):
            for j in range(na):
                r = (h * nb + m) * na + j
                rhs = [ctx.zero()] * (nb * na)
                for k in range(na):
                    rhs[m * na + k] = a.coaction[h * na + k, j]
                rows.append([lhs[r, c] - rhs[c] for c in range(nb * na)])
    return Mat(ctx, rows)


@pytest.mark.parametrize("src,dst", [("kp", "kp"), ("ga_k", "kpsi"),
                                     ("ga_x", "ga_y"), ("a_i_xy", "ga_k")])
def test_colinear_system_matches_the_kron_formulation(src, dst):
    a, b = CATALOG[src], CATALOG[dst]
    reference = _kron_colinear_system(a, b)
    n = a.dim * b.dim
    assert Mat(QI, [_dense(QI, r, n) for r in _colinear_system(a, b)]) \
        == reference
    want = [Mat.unvec(QI, t, b.dim, a.dim) for t in kernel(reference)]
    maps = colinear_maps(a, b)
    assert maps == want
    assert maps and all(_is_colinear(a, b, t) for t in maps)


def _kron_intertwiners(m1, m2):
    """The dense formulation: the kernel of the stacked blocks
    ``kron(I, rho_1(a)^T) - kron(rho_2(a), I)``."""
    ctx = m1[0].ctx
    d1, d2 = m1[0].ncols, m2[0].nrows
    i1, i2 = Mat.identity(ctx, d1), Mat.identity(ctx, d2)
    blocks = [kron(i2, r1.transpose()) - kron(r2, i1)
              for r1, r2 in zip(m1, m2, strict=True)]
    stacked = Mat.from_entries(ctx, [r for b in blocks for r in b.entries],
                               d2 * d1)
    return [Mat.unvec(ctx, t, d2, d1) for t in kernel(stacked)]


def _block_diagonal(a, b):
    ctx, n, m = a.ctx, a.nrows, b.nrows
    z = ctx.zero()
    return Mat(ctx, [list(r) + [z] * m for r in a.rows]
               + [[z] * n + list(r) for r in b.rows])


def _seeded_action_pair(seed, ctx):
    """Actions of a few seeded matrices on two spaces.  Seeds 0 mod 3 draw
    both actions at random, on spaces of different dimensions; seeds 1 mod 3
    put the first action beside a random block, so the inclusion
    intertwines; seeds 2 mod 3 give the same action twice, the direct sum
    of two copies of a random one."""
    rng = random.Random(seed)
    values = [0, 0, 0, 1, -1, 2, Fraction(1, 2)]
    if ctx.dim > 1:
        values.append(ctx.i())
    if ctx.has_layer:
        values.append(ctx.sqrt_symbol())

    def rand(d):
        return Mat(ctx, [[rng.choice(values) for _ in range(d)]
                         for _ in range(d)])

    count, d1, extra = rng.randint(1, 3), rng.randint(1, 3), rng.randint(1, 2)
    m1 = [rand(d1) for _ in range(count)]
    if seed % 3 == 0:
        return m1, [rand(d1 + extra) for _ in range(count)]
    if seed % 3 == 1:
        return m1, [_block_diagonal(r, rand(extra)) for r in m1]
    doubled = [_block_diagonal(r, r) for r in m1]
    return doubled, doubled


def test_sparse_intertwiners_match_the_kron_formulation_on_seeded_actions():
    sizes = []
    for ctx in (Q, QI, QS):
        for seed in range(9):
            m1, m2 = _seeded_action_pair(seed, ctx)
            want = _kron_intertwiners(m1, m2)
            assert intertwiners(m1, m2) == want
            if m1 is m2:
                assert _commutant(m1) == want
            sizes.append(len(want))
    assert 0 in sizes and max(sizes) > 1


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_commutant_of_regular_module_matches_the_kron_formulation(name):
    regular = _left_mults(CATALOG[name])
    assert _commutant(regular) == _kron_intertwiners(regular, regular)


@pytest.mark.parametrize("seed", [1, 5])
def test_sparse_intertwiners_match_the_kron_formulation_on_moved_entries(seed):
    for name, moved in _small_mixed_inputs(seed).items():
        regular, built = _left_mults(moved), _left_mults(CATALOG[name])
        assert _commutant(regular) == _kron_intertwiners(regular, regular)
        assert intertwiners(regular, built) \
            == _kron_intertwiners(regular, built)


def test_cohomologous_cocycles_give_isomorphic_twists():
    beta = {0: 1, 1: -1, 2: 1, 3: 1}
    twisted = {pair: val * beta[pair[0]] * beta[pair[1]] * beta[pair[0] ^ pair[1]]
               for pair, val in PSI_STANDARD.items()}
    other = twisted_group_algebra_over(build_kp(QI), twisted)
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


@pytest.mark.parametrize("name", ["ga_k", "kpsi", "a_i_xy", "ga_xy"])
def test_end_of_right_regular_module_recovers_each_small_algebra(name):
    b = CATALOG[name]
    regular = RightComodModule(b, b.dim, b.coaction,
                               [b.right_mult(b.basis_element(i))
                                for i in range(b.dim)])
    assert check_module_comodule(regular) == []
    e = end_comodule_algebra(regular)
    assert e.dim == b.dim
    assert check_comodule_algebra(e) == []
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


# -- refusals on the benchmark's basis-changed inputs ----------------------------

ORACLE_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "oracle.py"
# the ops refused on small-mixed seeds, exactly: a refusal that comes back
# and one that goes away both fail the test.  Every piece of a split tries
# first right multiplication by the homogeneous elements of the coaction,
# which do not depend on the basis, so no seed refuses anything.  The seeds
# are those on which a top level split from the commutant basis and its
# pairwise sums alone refuses fusion_fingerprint(a_i_xy') (each seed but
# 25) or fusion_fingerprint(ga_k') (seeds 1, 11, 14 and 18)
KNOWN_REFUSALS = {seed: set() for seed in (1, 2, 5, 11, 14, 18, 25)}


def _oracle():
    spec = importlib.util.spec_from_file_location("perfbench_oracle",
                                                  ORACLE_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("seed", sorted(KNOWN_REFUSALS))
def test_moved_small_entries_are_refused_no_more_than_known(seed):
    oracle = _oracle()
    hx = SimpleNamespace(algebra=algebra, linalg=linalg, morita=morita)
    refused = set()
    for name, moved in _small_mixed_inputs(seed).items():
        built = CATALOG[name]
        ops = [
            (f"fusion_fingerprint({name}')", lambda: fusion_fingerprint(moved),
             lambda fp: oracle.check_fusion(hx, name, fp)),
            (f"colinear_iso_search({name}', {name})",
             lambda: colinear_iso_search(moved, built),
             lambda t: oracle.check_iso(hx, moved, built, True, t)),
        ]
        for op, run, check in ops:
            try:
                verdict = run()
            except HopfExactError:
                refused.add(op)
                continue
            assert check(verdict) is None, op
    assert refused == KNOWN_REFUSALS[seed]
