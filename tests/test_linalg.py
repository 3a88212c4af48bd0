"""Exact linear algebra: elimination, Kronecker conventions, subspaces."""

from fractions import Fraction
import random

import pytest

from hopfexact.errors import DimensionMismatch, HopfExactError
from hopfexact.field import FieldContext, FieldElement, adjoin_sqrt
from hopfexact.linalg import (
    Mat,
    Subspace,
    _insert_row,
    _reduce,
    _sparse,
    basis_vector,
    inverse,
    kernel,
    kron,
    kron_matmul,
    linear_combination,
    rank,
    restrict_operator,
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
    assert (Subspace.from_vectors(Q, 3, plane_xy.basis() + plane_yz.basis())
            == Subspace.full(Q, 3))


def _restrict_reference(op, space):
    """One solve per basis vector against a freshly built basis matrix."""
    basis = space.basis()
    return Mat.from_columns(space.ctx, [
        solve(Mat.from_columns(space.ctx, basis), op.apply(b))
        for b in basis])


@pytest.mark.parametrize("seed", range(6))
def test_restrict_operator_matches_per_vector_solve(seed):
    rng = random.Random(seed)
    n, k = 5, 2 + seed % 2

    def entry():
        return QI.element([rng.randint(-3, 3), rng.randint(-3, 3)])

    # block upper triangular: the span of the first k basis vectors is
    # invariant; a seeded change of basis hides it
    tri = M(QI, [[entry() if (r < k or c >= k) else QI.zero()
                  for c in range(n)] for r in range(n)])
    while True:
        p = M(QI, [[entry() for _ in range(n)] for _ in range(n)])
        if rank(p) == n:
            break
    op = p @ tri @ inverse(p)
    invariant = Subspace.from_vectors(QI, n, [p.col(c) for c in range(k)])
    spun = spin(QI, n, [invariant.basis()[0]], [op])
    for space in (invariant, spun, Subspace.full(QI, n),
                  Subspace.from_vectors(QI, n, [])):
        got = restrict_operator(op, space)
        assert got == _restrict_reference(op, space)
        assert (got.nrows, got.ncols) == ((space.dim, space.dim)
                                          if space.dim else (0, 0))
    assert restrict_operator(op, Subspace.full(QI, n)) == op


def test_restrict_operator_refuses_a_subspace_that_is_not_invariant():
    rot = M(Q, [[0, -1, 0], [1, 0, 0], [0, 0, 1]])
    for rows in ([[1, 0, 0]], [[1, 0, 1]], [[1, 0, 0], [0, 0, 1]]):
        with pytest.raises(DimensionMismatch, match="not invariant"):
            restrict_operator(rot, Subspace.from_vectors(Q, 3, rows))
    # the plane of the rotation and the fixed axis are invariant
    plane = Subspace.from_vectors(Q, 3, [[1, 0, 0], [0, 1, 0]])
    assert restrict_operator(rot, plane) == M(Q, [[0, -1], [1, 0]])
    axis = Subspace.from_vectors(Q, 3, [[0, 0, 1]])
    assert restrict_operator(rot, axis) == M(Q, [[1]])
    # an operator whose columns do not match the ambient space is refused
    for wrong in (M(Q, [[1, 0], [0, 1], [0, 0]]),
                  M(Q, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]])):
        with pytest.raises(DimensionMismatch, match="columns"):
            restrict_operator(wrong, plane)


def test_insert_row_reports_new_vectors():
    rows = {}
    assert _insert_row(rows, _sparse((Q.one(), Q.one(), Q.zero())))
    assert not _insert_row(rows, _sparse((Q.scalar(2), Q.scalar(2), Q.zero())))
    assert _insert_row(rows, _sparse((Q.zero(), Q.one(), Q.one())))
    assert len(rows) == 2
    assert not _reduce(_sparse((Q.one(), Q.zero(), Q.scalar(-1))), rows)
    assert Subspace(Q, 3, rows) == Subspace.from_vectors(Q, 3, [[1, 1, 0],
                                                         [0, 1, 1]])


def _stored(space):
    """A copy of everything in ``space`` that could change: its row dicts
    and its basis (field elements are immutable)."""
    return {p: dict(r) for p, r in space.pivot_rows.items()}, space.basis()


@pytest.mark.parametrize("seed", range(4))
def test_subspace_calls_leave_the_stored_rows_as_they_were(seed):
    rng = random.Random(seed)
    n = 5

    def entry():
        return QI.element([rng.randint(-3, 3), rng.randint(-3, 3)])

    # the span of the first two columns of p is invariant under op
    tri = M(QI, [[entry() if (r < 2 or c >= 2) else QI.zero()
                  for c in range(n)] for r in range(n)])
    while True:
        p = M(QI, [[entry() for _ in range(n)] for _ in range(n)])
        if rank(p) == n:
            break
    op = p @ tri @ inverse(p)
    space = spin(QI, n, [p.col(0), p.col(1)], [op])
    other = Subspace.from_vectors(QI, n, [[entry() for _ in range(n)]
                                          for _ in range(3)])
    before = _stored(space), _stored(other)
    for v in space.basis() + other.basis():
        space.contains(v)
        other.contains(v)
    space.annihilator()
    assert restrict_operator(op, space).nrows == space.dim == 2
    assert (_stored(space), _stored(other)) == before


@pytest.mark.parametrize("seed", range(4))
def test_from_vectors_is_canonical_under_permutation(seed):
    rng = random.Random(seed)
    vectors = _random_rows(rng, QI, 4, 6, 0.6)
    vectors += [[a + b for a, b in zip(vectors[0], vectors[1])],
                [QI.zero()] * 6]
    first = Subspace.from_vectors(QI, 6, vectors)
    for _ in range(5):
        rng.shuffle(vectors)
        again = Subspace.from_vectors(QI, 6, vectors)
        assert again == first and hash(again) == hash(first)
        assert again.basis() == first.basis()
        assert list(again.pivot_rows) == sorted(again.pivot_rows)


def test_spin_closes_under_operators():
    rot = M(Q, [[0, -1, 0], [1, 0, 0], [0, 0, 1]])
    closed = spin(Q, 3, [basis_vector(Q, 3, 0)], [rot])
    assert closed.dim == 2
    assert closed.contains(basis_vector(Q, 3, 1))
    assert not closed.contains(basis_vector(Q, 3, 2))


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
    # the linear-combination case draws from its own generator, so the data
    # of the other kernels stay as they were
    side = random.Random(29)
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
        mats = [rows] + [_random_rows(side, ctx, m, n, side.choice((1.0, 0.3)))
                         for _ in range(side.randint(0, 3))]
        coeffs = _random_rows(side, ctx, 1, len(mats), 0.6)[0]
        want = [[sum((c * x[i][j] for c, x in zip(coeffs, mats)), ctx.zero())
                 for j in range(n)] for i in range(m)]
        got = linear_combination(coeffs, [Mat(ctx, x) for x in mats])
        assert _exact(got) == _exact(want)

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
            # each row is new exactly when it raises the reference rank
            ranks = [0] + [len(_ref_rref(rows[:k + 1])[1]) for k in range(m)]
            pivot_rows = {}
            for k, r in enumerate(rows):
                assert (_insert_row(pivot_rows, _sparse(r))
                        == (ranks[k + 1] > ranks[k]))


def test_empty_inner_dimension_is_refused():
    with pytest.raises(DimensionMismatch):
        Mat(Q, [[], []]).apply(())
    with pytest.raises(DimensionMismatch):
        M(Q, [[1, 2]]) @ M(Q, [[1, 2]])


def test_zero_divisor_product_leaves_no_entry():
    # (2 - s)(2 + s) == 0: eliminating column 0 leaves row 1 zero, so column
    # 1 has no pivot; a stored zero entry would be taken as one and inverted
    s = QS4.sqrt_symbol()
    two = QS4.scalar(2)
    rows = [[QS4.one(), two + s], [two - s, QS4.zero()]]

    def ref_rref():
        red, pivots = _ref_rref(rows)
        return Mat(QS4, red), tuple(pivots)

    _same_or_same_error(lambda: rref(Mat(QS4, rows)), ref_rref)
    pivot_rows = {}
    assert (_insert_row(pivot_rows, _sparse(rows[0]))
            and not _insert_row(pivot_rows, _sparse(rows[1])))


@pytest.mark.parametrize("ctx", [Q, QI, QS4], ids=["Q", "Q(i)", "Q[s], s^2=4"])
def test_kron_matmul_matches_the_formed_product(ctx):
    rng = random.Random(31)
    for _ in range(12):
        shapes = [(rng.randint(1, 3), rng.randint(1, 3)) for _ in range(2)]
        density = rng.choice((1.0, 0.4))
        a, b = (Mat(ctx, _random_rows(rng, ctx, r, c, density))
                for r, c in shapes)
        m = Mat(ctx, _random_rows(rng, ctx, a.ncols * b.ncols,
                                  rng.randint(1, 4), density))
        assert _exact(kron_matmul(a, b, m)) == _exact(kron(a, b) @ m)
        ia, ib = (Mat.identity(ctx, x.ncols) for x in (a, b))
        assert kron_matmul(None, b, m) == kron(ia, b) @ m
        assert kron_matmul(a, None, m) == kron(a, ib) @ m
    with pytest.raises(DimensionMismatch):
        kron_matmul(None, None, Mat.identity(Q, 4))
    with pytest.raises(DimensionMismatch):
        kron_matmul(Mat.identity(Q, 2), Mat.identity(Q, 2),
                    Mat.identity(Q, 3))
