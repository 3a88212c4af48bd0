"""Exact linear algebra: elimination, Kronecker conventions, subspaces."""

from fractions import Fraction
import random

import pytest

from hopfexact.errors import DimensionMismatch, HopfExactError
from hopfexact.field import FieldContext, FieldElement, adjoin_sqrt
from hopfexact.linalg import (
    Mat,
    RrefAccumulator,
    Subspace,
    basis_vector,
    complement_in,
    inverse,
    kernel,
    kron,
    rank,
    rref,
    solve,
    spin,
)

Q = FieldContext(1)
QI = FieldContext(4)


def M(ctx, rows):
    return Mat(ctx, rows)


def test_rref_frozen():
    red, pivots = rref(M(Q, [[1, 2], [2, 4]]))
    assert red == M(Q, [[1, 2], [0, 0]]) and pivots == (0,)
    red, pivots = rref(M(Q, [[0, 1, 2], [1, 0, 3], [1, 1, 5]]))
    assert red == M(Q, [[1, 0, 3], [0, 1, 2], [0, 0, 0]]) and pivots == (0, 1)


def test_kernel_frozen():
    ker = kernel(M(Q, [[1, 2, 3]]))
    assert ker == [(Q.scalar(-2), Q.one(), Q.zero()),
                   (Q.scalar(-3), Q.zero(), Q.one())]
    assert kernel(Mat.identity(Q, 3)) == []


def test_solve_consistent_and_inconsistent():
    a = M(Q, [[1, 1], [1, -1]])
    x = solve(a, (Q.scalar(3), Q.one()))
    assert x == (Q.scalar(2), Q.one())
    b = M(Q, [[1, 1], [2, 2]])
    assert solve(b, (Q.one(), Q.scalar(3))) is None
    assert solve(b, (Q.one(), Q.scalar(2))) is not None


def test_matmul_and_apply():
    a = M(QI, [["i", 0], [0, 1]])
    b = M(QI, [[1, 1], [0, "i"]])
    assert a @ b == M(QI, [["i", "i"], [0, "i"]])
    assert a.apply((QI.one(), QI.one())) == (QI.i(), QI.one())


def test_inverse_round_trip_seeded():
    rng = random.Random(3)
    for _ in range(15):
        n = rng.randint(1, 4)
        a = M(Q, [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)])
        if rank(a) < n:
            with pytest.raises(DimensionMismatch):
                inverse(a)
            continue
        assert a @ inverse(a) == Mat.identity(Q, n)


def test_rank_nullity_seeded():
    rng = random.Random(11)
    for _ in range(20):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        a = M(Q, [[rng.randint(-3, 3) for _ in range(n)] for _ in range(m)])
        assert rank(a) + len(kernel(a)) == n
        for v in kernel(a):
            assert all(e.is_zero() for e in a.apply(v))


def test_kron_index_convention():
    a = M(Q, [[1, 2], [3, 4]])
    b = M(Q, [[0, 5], [6, 7]])
    k = kron(a, b)
    # left factor on the coarse index: K[i*2+k][j*2+l] = a[i][j]*b[k][l]
    assert k[0, 1] == Q.scalar(5)       # a[0][0]*b[0][1]
    assert k[1, 2] == Q.scalar(12)      # a[0][1]*b[1][0]
    assert k[2, 0] == Q.zero()          # a[1][0]*b[0][0]
    assert k[3, 3] == Q.scalar(28)      # a[1][1]*b[1][1]


def test_vec_of_product_matches_kron():
    rng = random.Random(5)
    for _ in range(10):
        a = M(Q, [[rng.randint(-2, 2) for _ in range(2)] for _ in range(2)])
        x = M(Q, [[rng.randint(-2, 2) for _ in range(3)] for _ in range(2)])
        b = M(Q, [[rng.randint(-2, 2) for _ in range(2)] for _ in range(3)])
        lhs = (a @ x @ b).vec()
        rhs = kron(a, b.transpose()).apply(x.vec())
        assert lhs == rhs


def test_unvec_round_trip():
    a = M(Q, [[1, 2, 3], [4, 5, 6]])
    assert Mat.unvec(Q, a.vec(), 2, 3) == a


def test_subspace_canonical_equality():
    s1 = Subspace.from_vectors(Q, 3, [[1, 1, 0], [0, 0, 1]])
    s2 = Subspace.from_vectors(Q, 3, [[2, 2, 2], [1, 1, 3]])
    assert s1 == s2 and s1.dim == 2
    assert s1.contains((Q.scalar(5), Q.scalar(5), Q.scalar(-1)))
    assert not s1.contains((Q.one(), Q.zero(), Q.zero()))


def test_subspace_sum_and_intersection():
    x = basis_vector(Q, 3, 0)
    y = basis_vector(Q, 3, 1)
    z = basis_vector(Q, 3, 2)
    plane_xy = Subspace.from_vectors(Q, 3, [x, y])
    plane_yz = Subspace.from_vectors(Q, 3, [y, z])
    assert plane_xy.sum(plane_yz) == Subspace.full(Q, 3)
    line = plane_xy.intersect(plane_yz)
    assert line.dim == 1 and line.contains(y)
    assert plane_xy.intersect(Subspace.zero(Q, 3)) == Subspace.zero(Q, 3)


def test_subspace_dimension_formula_seeded():
    rng = random.Random(17)
    for _ in range(15):
        n = 4
        s = Subspace.from_vectors(Q, n, [[rng.randint(-2, 2) for _ in range(n)]
                                         for _ in range(rng.randint(0, 3))])
        t = Subspace.from_vectors(Q, n, [[rng.randint(-2, 2) for _ in range(n)]
                                         for _ in range(rng.randint(0, 3))])
        assert s.sum(t).dim + s.intersect(t).dim == s.dim + t.dim


def test_preimage_under():
    # projection (x, y, z) -> (x, y); preimage of the line through (1, 1)
    proj = M(Q, [[1, 0, 0], [0, 1, 0]])
    line = Subspace.from_vectors(Q, 2, [[1, 1]])
    pre = line.preimage_under(proj)
    assert pre.dim == 2
    assert pre.contains((Q.one(), Q.one(), Q.zero()))
    assert pre.contains((Q.zero(), Q.zero(), Q.one()))
    assert not pre.contains((Q.one(), Q.zero(), Q.zero()))


def test_image_under():
    rot = M(Q, [[0, -1], [1, 0]])
    line = Subspace.from_vectors(Q, 2, [[1, 0]])
    assert line.image_under(rot) == Subspace.from_vectors(Q, 2, [[0, 1]])


def test_accumulator_reports_new_vectors():
    acc = RrefAccumulator(Q, 3)
    assert acc.add((Q.one(), Q.one(), Q.zero()))
    assert not acc.add((Q.scalar(2), Q.scalar(2), Q.zero()))
    assert acc.add((Q.zero(), Q.one(), Q.one()))
    assert acc.dim == 2
    assert acc.contains((Q.one(), Q.zero(), Q.scalar(-1)))
    assert acc.subspace() == Subspace.from_vectors(Q, 3, [[1, 1, 0], [0, 1, 1]])


def test_spin_closes_under_operators():
    rot = M(Q, [[0, -1, 0], [1, 0, 0], [0, 0, 1]])
    closed = spin(Q, 3, [basis_vector(Q, 3, 0)], [rot])
    assert closed.dim == 2
    assert closed.contains(basis_vector(Q, 3, 1))
    assert not closed.contains(basis_vector(Q, 3, 2))


def test_complement_in_extends_pivotwise():
    inner = Subspace.from_vectors(Q, 3, [[1, 0, 1]])
    outer = Subspace.full(Q, 3)
    ext = complement_in(inner, outer)
    assert len(ext) == 2
    total = Subspace.from_vectors(Q, 3, list(inner.basis()) + ext)
    assert total == outer
    with pytest.raises(DimensionMismatch):
        complement_in(outer, inner)


# -- differential check against a naive dense reference ----------------------
#
# The kernels skip structural zeros; the reference below multiplies and adds
# every entry.  Results must agree element for element (same context, same
# coefficients), including the RREF rows, the pivots and the kernel order.

QS4 = adjoin_sqrt(Q, 4)   # s**2 == 4: (2 - s)(2 + s) == 0, so zero divisors


def _exact(x):
    if isinstance(x, FieldElement):
        return (x.ctx, x.coeffs)
    if isinstance(x, (int, type(None))):
        return x
    if isinstance(x, Mat):
        x = x.rows
    return tuple(_exact(e) for e in x)


def _random_element(rng, ctx):
    while True:
        cs = [Fraction(rng.randint(-3, 3), rng.choice((1, 1, 2, 3)))
              for _ in range(ctx.dim)]
        if any(cs):
            return ctx.element(cs)


def _random_rows(rng, ctx, m, n, density, zero_rows=(), zero_cols=()):
    return [[ctx.zero() if i in zero_rows or j in zero_cols
             or rng.random() >= density else _random_element(rng, ctx)
             for j in range(n)] for i in range(m)]


def _random_cases(seed, ctx):
    """Dense, about 5 % dense, and dense with all-zero rows and columns."""
    rng = random.Random(seed)
    for _ in range(4):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        yield rng, _random_rows(rng, ctx, m, n, 1.0)
    for _ in range(4):
        m, n = rng.randint(8, 14), rng.randint(8, 14)
        yield rng, _random_rows(rng, ctx, m, n, 0.05)
    for _ in range(4):
        m, n = rng.randint(3, 6), rng.randint(3, 6)
        yield rng, _random_rows(rng, ctx, m, n, 0.8,
                                zero_rows={rng.randrange(m)},
                                zero_cols={rng.randrange(n), rng.randrange(n)})


def _ref_dot(ctx, a, b):
    acc = ctx.zero()
    for x, y in zip(a, b, strict=True):
        acc = acc + x * y
    return acc


def _ref_matmul(ctx, a, b):
    return [[_ref_dot(ctx, r, [row[j] for row in b]) for j in range(len(b[0]))]
            for r in a]


def _ref_kron(a, b):
    return [[a[i][j] * b[k][l] for j in range(len(a[0])) for l in range(len(b[0]))]
            for i in range(len(a)) for k in range(len(b))]


def _ref_rref(rows):
    rows = [list(r) for r in rows]
    pivots, r = [], 0
    for c in range(len(rows[0])):
        piv = next((k for k in range(r, len(rows)) if not rows[k][c].is_zero()), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = rows[r][c].inverse()
        rows[r] = [e * inv for e in rows[r]]
        for k in range(len(rows)):
            if k != r:
                f = rows[k][c]
                rows[k] = [a - f * b for a, b in zip(rows[k], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows, pivots


def _ref_kernel(ctx, rows):
    red, pivots = _ref_rref(rows)
    out = []
    for j in (j for j in range(len(rows[0])) if j not in pivots):
        v = [ctx.zero()] * len(rows[0])
        v[j] = ctx.one()
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][j]
        out.append(tuple(v))
    return out


def _same_or_same_error(ours, reference):
    """Both raise the same error type, or both return identical results."""
    try:
        want = reference()
    except HopfExactError as exc:
        with pytest.raises(type(exc)):
            ours()
        return
    assert _exact(ours()) == _exact(want)


@pytest.mark.parametrize("ctx", [Q, QI, QS4], ids=["Q", "Q(i)", "Q[s], s^2=4"])
def test_kernels_match_dense_reference(ctx):
    for rng, rows in _random_cases(23, ctx):
        m, n = len(rows), len(rows[0])
        a = Mat(ctx, rows)
        other = _random_rows(rng, ctx, n, rng.randint(1, 6), rng.choice((1.0, 0.3, 0.05)))
        assert _exact(a @ Mat(ctx, other)) == _exact(_ref_matmul(ctx, rows, other))
        v = [row[0] for row in other]
        assert _exact(a.apply(v)) == _exact([_ref_dot(ctx, r, v) for r in rows])
        small = _random_rows(rng, ctx, 2, 3, 0.5)
        assert _exact(kron(a, Mat(ctx, small))) == _exact(_ref_kron(rows, small))
        assert _exact(kron(Mat(ctx, small), a)) == _exact(_ref_kron(small, rows))

        def ref_rref():
            red, pivots = _ref_rref(rows)
            return Mat(ctx, red), tuple(pivots)

        _same_or_same_error(lambda: rref(a), ref_rref)
        _same_or_same_error(lambda: kernel(a), lambda: _ref_kernel(ctx, rows))
        for rhs in (a.apply(v), _random_rows(rng, ctx, 1, m, 0.5)[0]):

            def ref_solve():
                red, pivots = _ref_rref([list(r) + [b] for r, b in zip(rows, rhs)])
                if n in pivots:
                    return None
                x = [ctx.zero()] * n
                for r, pc in enumerate(pivots):
                    x[pc] = red[r][n]
                return tuple(x)

            _same_or_same_error(lambda: solve(a, rhs), ref_solve)
        if m == n:

            def ref_inverse():
                ident = Mat.identity(ctx, n).rows
                red, pivots = _ref_rref([list(r) + list(ident[i])
                                         for i, r in enumerate(rows)])
                if pivots != list(range(n)):
                    raise DimensionMismatch("matrix is singular")
                return [r[n:] for r in red]

            _same_or_same_error(lambda: inverse(a), ref_inverse)
        if ctx is not QS4:
            # over a field the accumulated basis is the nonzero part of the RREF
            red, _ = _ref_rref(rows)
            nonzero = [r for r in red if not all(e.is_zero() for e in r)]
            space = Subspace.from_vectors(ctx, n, rows)
            assert _exact(space.basis()) == _exact(nonzero)
            assert all(space.contains(r) for r in rows)


def test_empty_inner_dimension_is_refused():
    with pytest.raises(DimensionMismatch):
        Mat(Q, [[], []]).apply(())
    with pytest.raises(DimensionMismatch):
        M(Q, [[1, 2]]) @ M(Q, [[1, 2]])
