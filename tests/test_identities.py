"""The structure laws as matrix identities, against reference loops.

``hopf``, ``algebra`` and ``comodule`` check each law that is not a product
of two tensor legs as one identity of sparse structure matrices.  The
loops below check the same laws basis vector by basis vector, pair by pair
or triple by triple.  On seeded single-entry flips of kp's structure maps
and of four coactions, both give the same report, and every flip fails the
family of the map it changes.
"""

import random

import pytest

from hopfexact.algebra import (NOT_ASSOCIATIVE, Algebra, _combine,
                               check_algebra, multiplicative_into_tensor)
from hopfexact.comodule import (ComoduleAlgebra, check_comodule,
                                check_comodule_algebra, phi_embed)
from hopfexact.constructions import catalog
from hopfexact.field import FieldContext, adjoin_sqrt
from hopfexact.hopf import (AXIOM_FAMILIES, Hopf, hopf_axiom_report,
                            rebase_comodule_algebra)
from hopfexact.linalg import (Mat, Subspace, basis_vector, linear_combination,
                              slice_left, tensor_vec, vadd, vscale)
from hopfexact.morita import colinear_iso_search

from _transport import transport

QI = FieldContext(4)
CATALOG = catalog(QI)
KP = CATALOG["kp"].hopf
SEEDS = range(1, 6)


# -- the basis loops -----------------------------------------------------------


def _loop_comodule_laws(h, dim, coaction):
    nh = h.dim
    zero = h.ctx.zero()
    comult = h.comult.transpose().entries
    cols = coaction.transpose().entries
    coassoc_ok = True
    for col in cols:
        lhs, rhs = {}, {}
        for idx, coef in col.items():
            a, k = divmod(idx, dim)
            for idx2, c2 in comult[a].items():
                key = idx2 * dim + k
                lhs[key] = lhs.get(key, zero) + coef * c2
            for idx2, c2 in cols[k].items():
                key = a * nh * dim + idx2
                rhs[key] = rhs.get(key, zero) + coef * c2
        if any(lhs.get(k, zero) != rhs.get(k, zero) for k in lhs.keys() | rhs):
            coassoc_ok = False
            break
    counit_ok = linear_combination(
        h.counit, [slice_left(coaction, nh, dim, a) for a in range(nh)]
    ) == Mat.identity(h.ctx, dim)
    return coassoc_ok, counit_ok


def _loop_multiplicative(phi, a, h, b):
    """Whether ``phi: A -> H (x) B`` sends ``e_i e_j`` to ``phi(e_i)
    phi(e_j)`` for every basis pair, the product taken term by term:
    ``(h1 (x) b1)(h2 (x) b2) = h1 h2 (x) b1 b2``."""
    nb, zero = b.dim, a.ctx.zero()
    images = phi.transpose().entries
    hterms, bterms = (
        [[[(u, x) for u, x in enumerate(cell) if x] for cell in row]
         for row in alg.table] for alg in (h, b))
    for i in range(a.dim):
        for j in range(a.dim):
            rhs = {}
            for p, c in images[i].items():
                for q, d in images[j].items():
                    for u, x in hterms[p // nb][q // nb]:
                        for v, y in bterms[p % nb][q % nb]:
                            key = u * nb + v
                            rhs[key] = rhs.get(key, zero) + c * d * x * y
            lhs = phi.apply(a.table[i][j])
            if any(t != rhs.get(k, zero) for k, t in enumerate(lhs)):
                return False
    return True


def _loop_right_counit(h):
    n = h.dim
    return linear_combination(
        h.counit, [Mat.from_entries(h.ctx, h.comult.entries[b::n], n)
                   for b in range(n)]) == Mat.identity(h.ctx, n)


def _loop_antipode(h):
    n = h.dim
    left_ok = right_ok = True
    for j, col in enumerate(h.comult.transpose().entries):
        target = vscale(h.counit[j], h.unit)
        left = right = h.zero()
        for idx, c in col.items():
            a, b = divmod(idx, n)
            left = vadd(left, vscale(c, h.multiply(h.antipode.col(a),
                                                   h.basis_element(b))))
            right = vadd(right, vscale(c, h.multiply(h.basis_element(a),
                                                     h.antipode.col(b))))
        left_ok = left_ok and left == target
        right_ok = right_ok and right == target
    return left_ok, right_ok


def _loop_associative(alg):
    n, t = alg.dim, alg.terms
    cols = [[t[m][k] for m in range(n)] for k in range(n)]
    return all(_combine(t[i][j], cols[k]) == _combine(t[j][k], t[i])
               for i in range(n) for j in range(n) for k in range(n))


def _loop_counit_multiplicative(h):
    n = h.dim
    return all(h.counit_value(h.table[i][j]) == h.counit[i] * h.counit[j]
               for i in range(n) for j in range(n))


def _loop_in_tensor_right(h, right_space, vec_hh):
    n = h.dim
    gens = [tensor_vec(basis_vector(h.ctx, n, j), s)
            for j in range(n) for s in right_space.basis()]
    return Subspace.from_vectors(h.ctx, n * n, gens).contains(vec_hh)


def _loop_left_coideal(h, space):
    return all(_loop_in_tensor_right(h, space, h.comult.apply(v))
               for v in space.basis())


def _failed(checks):
    """The message of each check that fails, in order."""
    return [message for ok, message in checks if not ok]


def _loop_algebra(alg):
    ident = Mat.identity(alg.ctx, alg.dim)
    return _failed([
        (alg.left_mult(alg.unit) == ident, "unit is not a left unit"),
        (alg.right_mult(alg.unit) == ident, "unit is not a right unit"),
        (_loop_associative(alg), "multiplication is not associative")])


def _loop_hopf_report(h):
    coassoc, counit_left = _loop_comodule_laws(h, h.dim, h.comult)
    left, right = _loop_antipode(h)
    return {
        "algebra": _loop_algebra(h),
        "coalgebra": _failed([
            (coassoc, "coaction is not coassociative"),
            (counit_left, "coaction fails the counit law"),
            (_loop_right_counit(h), "counit fails on the right tensor leg")]),
        "comult-morphism": _failed([
            (_loop_multiplicative(h.comult, h, h, h),
             "coaction is not an algebra morphism"),
            (h.comult.apply(h.unit) == tensor_vec(h.unit, h.unit),
             "coaction does not send the unit to 1 (x) 1")]),
        "counit-morphism": _failed([
            (_loop_counit_multiplicative(h),
             "counit is not an algebra morphism"),
            (h.counit_value(h.unit) == h.ctx.one(),
             "counit does not send the unit to 1")]),
        "antipode": _failed([
            (left, "antipode fails the left convolution identity"),
            (right, "antipode fails the right convolution identity")]),
    }


def _loop_comodule_algebra_report(a):
    coassoc, counit = _loop_comodule_laws(a.hopf, a.dim, a.coaction)
    return _loop_algebra(a) + _failed([
        (coassoc, "coaction is not coassociative"),
        (counit, "coaction fails the counit law"),
        (_loop_multiplicative(a.coaction, a, a.hopf, a),
         "coaction is not an algebra morphism"),
        (a.coaction.apply(a.unit) == tensor_vec(a.hopf.unit, a.unit),
         "coaction does not send the unit to 1 (x) 1")])


# -- the inputs ----------------------------------------------------------------


def _flip(mat, rng):
    """``mat`` with 1 added to one seeded entry."""
    rows = [list(r) for r in mat.rows]
    i, j = rng.randrange(mat.nrows), rng.randrange(mat.ncols)
    rows[i][j] = rows[i][j] + mat.ctx.one()
    return Mat(mat.ctx, rows)


def _flipped_kp(which, rng):
    n, one = KP.dim, QI.one()
    table = [[list(cell) for cell in row] for row in KP.table]
    comult, counit, antipode = KP.comult, list(KP.counit), KP.antipode
    if which == "table":
        i, j, k = (rng.randrange(n) for _ in range(3))
        table[i][j][k] = table[i][j][k] + one
    elif which == "comult":
        comult = _flip(comult, rng)
    elif which == "counit":
        k = rng.randrange(n)
        counit[k] = counit[k] + one
    else:
        antipode = _flip(antipode, rng)
    return Hopf(QI, KP.labels, KP.unit, table, comult, counit, antipode)


# the axiom family that a flip of each structure map breaks
_FAMILY = {"table": "algebra", "comult": "coalgebra", "counit": "coalgebra",
           "antipode": "antipode"}


def test_kp_reports_agree_with_the_loops():
    assert hopf_axiom_report(KP) == _loop_hopf_report(KP) \
        == {fam: [] for fam in AXIOM_FAMILIES}


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("which", list(_FAMILY))
def test_flipped_kp_reports_agree_with_the_loops(which, seed):
    h = _flipped_kp(which, random.Random(f"{seed}:{which}"))
    report = hopf_axiom_report(h)
    assert report == _loop_hopf_report(h)
    assert report[_FAMILY[which]] != []


def _with_witness(name):
    """kp over itself with its counit, or a small entry moved by the seeded
    basis change of seed 1 with its trivial character read through a
    colinear isomorphism onto the entry as built."""
    if name == "kp":
        return CATALOG["kp"], list(KP.counit)
    built = CATALOG[name]
    moved = transport(built, random.Random(f"1:{name}"))
    iso = colinear_iso_search(moved, built)
    return moved, (Mat(QI, [[1] * built.dim]) @ iso).rows[0]


_COACTED = ("kp", "ga_x", "ga_xy", "ga_k")


@pytest.mark.parametrize("name", _COACTED)
def test_coaction_reports_agree_with_the_loops(name):
    a, witness = _with_witness(name)
    assert check_comodule_algebra(a) == _loop_comodule_algebra_report(a) == []
    report = phi_embed(a, witness)
    assert report.image_is_left_coideal
    assert _loop_left_coideal(a.hopf, report.image)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", _COACTED)
def test_flipped_coaction_reports_agree_with_the_loops(name, seed):
    a, witness = _with_witness(name)
    flipped = ComoduleAlgebra(a.hopf, a.labels, a.unit, a.table,
                              _flip(a.coaction, random.Random(f"{seed}:{name}")))
    assert check_comodule_algebra(flipped) \
        == _loop_comodule_algebra_report(flipped)
    assert check_comodule(flipped) != []
    report = phi_embed(flipped, witness)
    assert report.image_is_left_coideal \
        == _loop_left_coideal(flipped.hopf, report.image)


def test_phi_embed_image_of_a_coaction_that_is_not_coassociative():
    # e_x -> x (x) e_x + (z - zx) (x) e_x: the counit of z - zx is 0, so
    # only coassociativity fails, and phi sends e_x to x + z - zx, whose
    # coproduct leaves H (x) span{1, x + z - zx}
    a = CATALOG["ga_x"]
    rows = [list(r) for r in a.coaction.rows]
    rows[KP.label_index("z") * a.dim + 1][1] = QI.one()
    rows[KP.label_index("zx") * a.dim + 1][1] = QI.scalar(-1)
    bad = ComoduleAlgebra(KP, a.labels, a.unit, a.table, Mat(QI, rows))
    assert check_comodule(bad) == ["coaction is not coassociative"]
    report = phi_embed(bad, [1, 1])
    assert report.algebra_morphism is False
    assert report.image_is_left_coideal is False
    assert _loop_left_coideal(KP, report.image) is False


# -- the checks reduced to generators ------------------------------------------
#
# check_algebra proves associativity by Light's test on A's generators, and
# the coproduct and coaction are tested for multiplicativity on the products
# of the generators with the basis once both legs are associative.  The loop
# reports test every triple and every pair, so each reduced report must
# equal its loop report, whether or not the legs are associative.

_SMALL = ("k", "ga_x", "ga_y", "ga_xy", "ga_k", "a_i_xy", "kpsi")


def _moved(name):
    """kp as built, or a small entry moved by the seeded basis change of
    seed 1."""
    if name == "kp":
        return CATALOG["kp"]
    return transport(CATALOG[name], random.Random(f"1:{name}"))


def _flipped_table(a, rng):
    """``a`` with 1 added to one seeded coordinate of one product."""
    n = a.dim
    table = [[list(cell) for cell in row] for row in a.table]
    i, j, k = (rng.randrange(n) for _ in range(3))
    table[i][j][k] = table[i][j][k] + a.ctx.one()
    return ComoduleAlgebra(a.hopf, a.labels, a.unit, table, a.coaction)


def _non_associative_flip(a, rng):
    """A flip of ``a``'s table, drawn again until the loop finds it not
    associative; every flip of a one-dimensional table is associative, and
    the first is taken."""
    while True:
        flipped = _flipped_table(a, rng)
        if a.dim == 1 or not _loop_associative(flipped):
            return flipped


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", ("kp",) + _SMALL)
def test_flipped_algebra_table_reports_agree_with_the_loops(name, seed):
    flipped = _non_associative_flip(_moved(name),
                                    random.Random(f"{seed}:table:{name}"))
    report = check_comodule_algebra(flipped)
    assert report == _loop_comodule_algebra_report(flipped)
    assert (NOT_ASSOCIATIVE in report) == (flipped.dim > 1)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", _COACTED)
def test_coaction_over_a_flipped_hopf_table_agrees_with_the_loops(name, seed):
    a = _moved(name)
    h = _flipped_kp("table", random.Random(f"{seed}:hopf:{name}"))
    assert not _loop_associative(h)
    over_flipped = ComoduleAlgebra(h, a.labels, a.unit, a.table, a.coaction)
    report = check_comodule_algebra(over_flipped)
    assert report == _loop_comodule_algebra_report(over_flipped)


def test_reports_over_the_quadratic_layer_agree_with_the_loops():
    layer = adjoin_sqrt(QI, QI.one() + QI.i())
    a = rebase_comodule_algebra(_moved("a_i_xy"), layer)
    assert check_comodule_algebra(a) == _loop_comodule_algebra_report(a) == []
    rng = random.Random("layer")
    for bad in (_non_associative_flip(a, rng),
                ComoduleAlgebra(a.hopf, a.labels, a.unit, a.table,
                                _flip(a.coaction, rng))):
        report = check_comodule_algebra(bad)
        assert report != [] and report == _loop_comodule_algebra_report(bad)


def test_light_test_sees_failures_outside_the_generator_triples():
    # 1, a, b with a a = -1 - b, a b = b a = b b = 1 + a - b: the unit laws
    # hold and a alone generates, but (a a) a == a (a a), so no triple of
    # generators fails; (a a) b != a (a b) does
    q = FieldContext(1)
    e = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    ab = (1, 1, -1)
    alg = Algebra(q, ("1", "a", "b"), e[0],
                  [e, [e[1], (-1, 0, -1), ab], [e[2], ab, ab]])
    assert alg.generators() == (1,)
    a, b = alg.basis_element("a"), alg.basis_element("b")
    aa = alg.multiply(a, a)
    assert alg.multiply(aa, a) == alg.multiply(a, aa)
    assert alg.multiply(aa, b) != alg.multiply(a, alg.multiply(a, b))
    assert check_algebra(alg) == _loop_algebra(alg) == [NOT_ASSOCIATIVE]


@pytest.mark.parametrize("seed", SEEDS)
def test_flipped_unit_row_of_kp_agrees_with_the_loops(seed):
    # a flip of 1 e_j leaves G = (x, y, z), which misses the unit, and on G
    # the coproduct still looks multiplicative; H is not associative, so
    # the report tests every pair of basis vectors and finds the failure
    rng = random.Random(f"{seed}:unit-row")
    table = [[list(cell) for cell in row] for row in KP.table]
    j, k = rng.randrange(KP.dim), rng.randrange(KP.dim)
    table[0][j][k] = table[0][j][k] + QI.one()
    h = Hopf(QI, KP.labels, KP.unit, table, KP.comult, KP.counit,
             KP.antipode)
    assert h.generators() == (1, 2, 4)
    assert multiplicative_into_tensor(h.comult, h, h, h, h.generators())
    report = hopf_axiom_report(h)
    assert report == _loop_hopf_report(h)
    assert "coaction is not an algebra morphism" \
        in report["comult-morphism"]
