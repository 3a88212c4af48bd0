"""Exact linear algebra over a :class:`~hopfexact.field.FieldContext`.

Vectors are plain tuples of field elements; matrices act on column vectors.
Everything is computed by fraction-exact Gaussian elimination — no floating
point anywhere.  Subspaces carry a canonical reduced-row-echelon basis so
that equality of subspaces is literal equality of their stored bases.

Matrices are stored dense, and ``@``, ``apply`` and ``kron`` skip
structural zeros: a product with a zero factor is never formed.  Elimination
runs on sparse rows, dicts ``{column: entry}`` of the nonzero entries, with
one helper that subtracts a multiple of a pivot row.  Two drivers share it:

* ``_echelon`` eliminates a list of rows column by column, taking the first
  remaining nonzero row as pivot.  ``rref``/``rank``/``solve``/``inverse``
  run it on a whole matrix, and ``_kernel_rows`` reads a null-space basis
  from its pivot rows.  ``kernel`` is ``_kernel_rows`` on the rows of a
  matrix; ``morita.intertwiners`` and ``morita.colinear_maps`` write their
  operator-space systems as sparse rows and call ``_kernel_rows`` directly,
  with no dense matrix in between.
* :class:`RrefAccumulator` inserts one row at a time into fully reduced rows
  keyed by pivot (``_add_row``); ``add`` takes a dense vector, and
  ``algebra.generated_operator_algebra`` inserts its sparse words directly.

Exact arithmetic makes the results identical to dense elimination, entry for
entry, pivots and basis order included.

Conventions used throughout the package:

* matrices are stored row-major; ``kron(a, b)`` places the left factor on
  the coarse index, ``K[i*rb + k][j*cb + l] = a[i][j] * b[k][l]``;
* with row-major ``vec`` (rows concatenated), ``vec(A @ X @ B) ==
  kron(A, B.transpose()) @ vec(X)``.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .errors import DimensionMismatch
from .field import FieldContext, FieldElement, scal

Vec = tuple[FieldElement, ...]
Scalar = int | Fraction | str | FieldElement


def vzero(ctx: FieldContext, n: int) -> Vec:
    z = ctx.zero()
    return (z,) * n


def vadd(a: Vec, b: Vec) -> Vec:
    return tuple(x + y for x, y in zip(a, b, strict=True))


def vsub(a: Vec, b: Vec) -> Vec:
    return tuple(x - y for x, y in zip(a, b, strict=True))


def vscale(c: FieldElement, a: Vec) -> Vec:
    return tuple(c * x for x in a)


def is_zero_vec(a: Vec) -> bool:
    return all(x.is_zero() for x in a)


def basis_vector(ctx: FieldContext, n: int, j: int) -> Vec:
    return tuple(ctx.one() if k == j else ctx.zero() for k in range(n))


def tensor_vec(a: Vec, b: Vec) -> Vec:
    """Coordinates of ``a (x) b``, left factor on the coarse index."""
    return tuple(x * y for x in a for y in b)


class Mat:
    """A dense matrix of field elements over a single context."""

    __slots__ = ("ctx", "rows")

    def __init__(self, ctx: FieldContext, rows: Iterable[Iterable[Scalar]]):
        # entries already in ``ctx`` (results of ``@``, ``kron``, ``rref``)
        # are taken as they are; anything else is parsed or coerced
        normalized = [
            tuple(e if e.__class__ is FieldElement and e.ctx is ctx
                  else scal(ctx, e) for e in row)
            for row in rows]
        if normalized and any(len(r) != len(normalized[0]) for r in normalized):
            raise DimensionMismatch("ragged rows")
        object.__setattr__(self, "ctx", ctx)
        object.__setattr__(self, "rows", tuple(normalized))

    def __setattr__(self, name, value):
        raise AttributeError("Mat is immutable")

    @classmethod
    def zeros(cls, ctx: FieldContext, m: int, n: int) -> "Mat":
        z = ctx.zero()
        return cls(ctx, [[z] * n for _ in range(m)])

    @classmethod
    def identity(cls, ctx: FieldContext, n: int) -> "Mat":
        one, z = ctx.one(), ctx.zero()
        return cls(ctx, [[one if i == j else z for j in range(n)] for i in range(n)])

    @classmethod
    def from_columns(cls, ctx: FieldContext, cols: Sequence[Sequence[Scalar]]) -> "Mat":
        cols = [tuple(scal(ctx, e) for e in c) for c in cols]
        if not cols:
            return cls(ctx, [])
        m = len(cols[0])
        return cls(ctx, [[c[i] for c in cols] for i in range(m)])

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return len(self.rows[0]) if self.rows else 0

    def __getitem__(self, ij: tuple[int, int]) -> FieldElement:
        i, j = ij
        return self.rows[i][j]

    def row(self, i: int) -> Vec:
        return self.rows[i]

    def col(self, j: int) -> Vec:
        return tuple(r[j] for r in self.rows)

    def transpose(self) -> "Mat":
        return Mat(self.ctx, [self.col(j) for j in range(self.ncols)])

    def __add__(self, other: "Mat") -> "Mat":
        self._same_shape(other)
        return Mat(self.ctx, [vadd(a, b) for a, b in zip(self.rows, other.rows)])

    def __sub__(self, other: "Mat") -> "Mat":
        self._same_shape(other)
        return Mat(self.ctx, [vsub(a, b) for a, b in zip(self.rows, other.rows)])

    def __neg__(self) -> "Mat":
        return Mat(self.ctx, [tuple(-e for e in r) for r in self.rows])

    def _same_shape(self, other: "Mat"):
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise DimensionMismatch(
                f"{self.nrows}x{self.ncols} vs {other.nrows}x{other.ncols}")

    def scale(self, c: Scalar) -> "Mat":
        c = scal(self.ctx, c)
        return Mat(self.ctx, [vscale(c, r) for r in self.rows])

    def __matmul__(self, other: "Mat") -> "Mat":
        if self.ncols != other.nrows:
            raise DimensionMismatch(
                f"cannot multiply {self.nrows}x{self.ncols} by "
                f"{other.nrows}x{other.ncols}")
        n = other.ncols
        zero = self.ctx.zero()
        other_terms = [_terms(r) for r in other.rows]
        out = []
        for r in self.rows:
            acc: list[Optional[FieldElement]] = [None] * n
            for a, terms in zip(r, other_terms):
                if not terms or a.is_zero():
                    continue
                for j, b in terms:
                    t = a * b
                    acc[j] = t if acc[j] is None else acc[j] + t
            out.append([zero if e is None else e for e in acc])
        return Mat(self.ctx, out)

    def apply(self, v: Sequence[FieldElement]) -> Vec:
        if self.ncols != len(v):
            raise DimensionMismatch(f"matrix has {self.ncols} columns, vector {len(v)}")
        if self.rows and not v:
            raise DimensionMismatch("empty dot product")
        terms = _terms(v)
        return tuple(_dot(r, terms, self.ctx) for r in self.rows)

    def is_zero(self) -> bool:
        return all(is_zero_vec(r) for r in self.rows)

    def __eq__(self, other):
        if not isinstance(other, Mat):
            return NotImplemented
        return self.ctx == other.ctx and self.rows == other.rows

    def __hash__(self):
        return hash((self.ctx, self.rows))

    def vec(self) -> Vec:
        """Row-major flattening."""
        out: list[FieldElement] = []
        for r in self.rows:
            out.extend(r)
        return tuple(out)

    @classmethod
    def unvec(cls, ctx: FieldContext, v: Sequence[FieldElement], m: int, n: int) -> "Mat":
        if len(v) != m * n:
            raise DimensionMismatch(f"cannot reshape {len(v)} entries to {m}x{n}")
        return cls(ctx, [v[i * n:(i + 1) * n] for i in range(m)])

    def __repr__(self):
        body = "; ".join(" ".join(repr(e) for e in r) for r in self.rows)
        return f"Mat({self.nrows}x{self.ncols}: {body})"


def _terms(v: Sequence[FieldElement]) -> list[tuple[int, FieldElement]]:
    """The nonzero entries of ``v`` with their positions."""
    return [(j, e) for j, e in enumerate(v) if not e.is_zero()]


def _dot(a: Sequence[FieldElement], terms: list[tuple[int, FieldElement]],
         ctx: FieldContext) -> FieldElement:
    """``sum a[k] * y`` over the nonzero ``(k, y)`` of the other factor."""
    acc = None
    for k, y in terms:
        x = a[k]
        if not x.is_zero():
            term = x * y
            acc = term if acc is None else acc + term
    return ctx.zero() if acc is None else acc


def kron(a: Mat, b: Mat) -> Mat:
    """Kronecker product with the left factor on the coarse index."""
    zero = a.ctx.zero()
    rows = []
    for i in range(a.nrows):
        for k in range(b.nrows):
            row = []
            for j in range(a.ncols):
                aij = a[i, j]
                if aij.is_zero():
                    row.extend([zero] * b.ncols)
                else:
                    row.extend(aij * b[k, l] for l in range(b.ncols))
            rows.append(row)
    return Mat(a.ctx, rows)


def linear_combination(coeffs: Sequence[FieldElement],
                       mats: Sequence[Mat]) -> Mat:
    """``sum c_k * M_k`` over the nonzero ``c_k``; the ``M_k`` share one
    shape, and zero entries of the ``M_k`` are skipped."""
    if not mats or len(coeffs) != len(mats):
        raise DimensionMismatch(
            f"{len(coeffs)} coefficients for {len(mats)} matrices")
    first = mats[0]
    zero = first.ctx.zero()
    rows = [[zero] * first.ncols for _ in range(first.nrows)]
    for c, m in zip(coeffs, mats):
        m._same_shape(first)
        if c.is_zero():
            continue
        for acc, r in zip(rows, m.rows):
            for j, x in enumerate(r):
                if not x.is_zero():
                    acc[j] = acc[j] + c * x
    return Mat(first.ctx, rows)


def slice_left(mat: Mat, dim_left: int, dim_right: int, h: int) -> Mat:
    """Apply the h-th coordinate functional to the left tensor leg of the
    codomain: rows ``h*dim_right .. h*dim_right + dim_right - 1``."""
    if mat.nrows != dim_left * dim_right:
        raise DimensionMismatch(
            f"codomain has {mat.nrows} rows, expected {dim_left}*{dim_right}")
    return Mat(mat.ctx, [mat.rows[h * dim_right + b] for b in range(dim_right)])


def slice_right(mat: Mat, dim_left: int, dim_right: int, k: int) -> Mat:
    """Apply the k-th coordinate functional to the right tensor leg."""
    if mat.nrows != dim_left * dim_right:
        raise DimensionMismatch(
            f"codomain has {mat.nrows} rows, expected {dim_left}*{dim_right}")
    return Mat(mat.ctx, [mat.rows[a * dim_right + k] for a in range(dim_left)])


def minimal_polynomial(mat: Mat) -> list[FieldElement]:
    """Monic minimal polynomial, coefficients low-to-high."""
    if mat.nrows != mat.ncols:
        raise DimensionMismatch("minimal polynomial needs a square matrix")
    ctx = mat.ctx
    powers = [Mat.identity(ctx, mat.nrows)]
    while True:
        nxt = powers[-1] @ mat
        body = Mat(ctx, [p.vec() for p in powers]).transpose()
        coords = solve(body, nxt.vec())
        if coords is not None:
            return [-c for c in coords] + [ctx.one()]
        powers.append(nxt)


def restrict_operator(op: Mat, space: Subspace) -> Mat:
    """Matrix of ``op`` on the canonical basis of an invariant subspace."""
    basis = space.basis()
    body = Mat.from_columns(space.ctx, basis)
    cols = []
    for b in basis:
        coords = solve(body, op.apply(b))
        if coords is None:  # the image lies outside the span of the basis
            raise DimensionMismatch("subspace is not invariant under the operator")
        cols.append(coords)
    return Mat.from_columns(space.ctx, cols)


def eigenspace(op: Mat, value: FieldElement) -> Subspace:
    shifted = op - Mat.identity(op.ctx, op.nrows).scale(value)
    return Subspace.from_vectors(op.ctx, op.ncols, kernel(shifted))


def vstack(mats: Sequence[Mat]) -> Mat:
    n = mats[0].ncols
    if any(x.ncols != n for x in mats):
        raise DimensionMismatch("vstack needs equal column counts")
    rows: list[Vec] = []
    for x in mats:
        rows.extend(x.rows)
    return Mat(mats[0].ctx, rows)


# -- elimination -------------------------------------------------------------
#
# Every elimination below works on one sparse row format, a dict
# {column: entry} that holds only the nonzero entries of a row, and
# eliminates with one helper, ``_subtract_multiple``.  ``replay.eliminate``
# reduces its Macaulay rows, keyed by monomial, with ``_echelon`` too.

Row = dict[int, FieldElement]


def _sparse(v: Sequence[FieldElement]) -> Row:
    return {j: e for j, e in enumerate(v) if not e.is_zero()}


def _dense(ctx: FieldContext, row: Row, n: int) -> list[FieldElement]:
    zero = ctx.zero()
    return [row.get(j, zero) for j in range(n)]


def _subtract_multiple(row: Row, c: FieldElement, pivot_row: Row) -> None:
    """``row -= c * pivot_row`` in place; an entry that cancels is dropped,
    and so is a zero product (a perfect-square layer has zero divisors)."""
    for j, p in pivot_row.items():
        t = c * p
        old = row.get(j)
        if old is None:
            if not t.is_zero():
                row[j] = -t
        else:
            new = old - t
            if new.is_zero():
                del row[j]
            else:
                row[j] = new


def _reduce(row: Row, pivot_rows: dict[int, Row]) -> Row:
    """Reduce ``row`` in place modulo fully reduced rows keyed by pivot.

    A pivot row vanishes at every other pivot, so subtracting it leaves the
    entries of ``row`` at the other pivots as they are, and the order of the
    subtractions does not change the result."""
    for p in [p for p in row if p in pivot_rows]:
        _subtract_multiple(row, row[p], pivot_rows[p])
    return row


def _echelon(rows: list[dict], cols: Iterable) -> tuple[list[dict], list]:
    """Gauss-Jordan elimination of sparse rows, in place.

    The pivot columns ``cols`` are taken in order, and the first remaining
    row with a nonzero entry in the column becomes its pivot row; a column
    not in ``cols`` is never a pivot.  The returned rows are the reduced
    rows, pivot rows first."""
    pivots: list = []
    r = 0
    for c in cols:
        piv = next((k for k in range(r, len(rows)) if c in rows[k]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = rows[r][c].inverse()
        prow = rows[r] = {j: e * inv for j, e in rows[r].items()}
        for k, row in enumerate(rows):
            f = row.get(c)
            if k != r and f is not None:
                _subtract_multiple(row, f, prow)
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows, pivots


def rref(mat: Mat) -> tuple[Mat, tuple[int, ...]]:
    ctx, n = mat.ctx, mat.ncols
    rows, pivots = _echelon([_sparse(r) for r in mat.rows], range(n))
    return Mat(ctx, [_dense(ctx, r, n) for r in rows]), tuple(pivots)


def rank(mat: Mat) -> int:
    return len(rref(mat)[1])


def kernel(mat: Mat) -> list[Vec]:
    """Basis of the right null space, one vector per free column."""
    return _kernel_rows(mat.ctx, [_sparse(r) for r in mat.rows], mat.ncols)


def _kernel_rows(ctx: FieldContext, rows: list[Row], n: int) -> list[Vec]:
    """Basis of the vectors of length ``n`` that every sparse row annihilates,
    one per free column of ``_echelon(rows, range(n))``; ``rows`` is
    reduced in place."""
    red, pivots = _echelon(rows, range(n))
    pivset = set(pivots)
    zero, one = ctx.zero(), ctx.one()
    basis = []
    for j in range(n):
        if j in pivset:
            continue
        v = [zero] * n
        v[j] = one
        for row, pc in zip(red, pivots):
            e = row.get(j)
            if e is not None:
                v[pc] = -e
        basis.append(tuple(v))
    return basis


def solve(mat: Mat, rhs: Sequence[FieldElement]) -> Optional[Vec]:
    """One solution of ``mat @ x == rhs``, or None when inconsistent."""
    if len(rhs) != mat.nrows:
        raise DimensionMismatch(f"matrix has {mat.nrows} rows, rhs {len(rhs)}")
    ctx = mat.ctx
    n = mat.ncols
    aug = []
    for r, b in zip(mat.rows, rhs):
        row = _sparse(r)
        b = scal(ctx, b)
        if not b.is_zero():
            row[n] = b
        aug.append(row)
    red, pivots = _echelon(aug, range(n + 1))
    if n in pivots:
        return None  # pivot in the augmented column
    zero = ctx.zero()
    x = [zero] * n
    for row, pc in zip(red, pivots):
        x[pc] = row.get(n, zero)
    return tuple(x)


def inverse(mat: Mat) -> Mat:
    if mat.nrows != mat.ncols:
        raise DimensionMismatch("only square matrices invert")
    n = mat.nrows
    ctx = mat.ctx
    one = ctx.one()
    aug = []
    for i, r in enumerate(mat.rows):
        row = _sparse(r)
        row[n + i] = one
        aug.append(row)
    red, pivots = _echelon(aug, range(2 * n))
    if len(pivots) != n or any(p >= n for p in pivots):
        raise DimensionMismatch("matrix is singular")
    zero = ctx.zero()
    return Mat(ctx, [[r.get(n + j, zero) for j in range(n)] for r in red])


# -- subspaces ---------------------------------------------------------------


class Subspace:
    """A subspace of ``ctx**ambient`` held in canonical RREF basis form."""

    __slots__ = ("ctx", "ambient", "rows")

    def __init__(self, ctx: FieldContext, ambient: int, rows: tuple[Vec, ...]):
        object.__setattr__(self, "ctx", ctx)
        object.__setattr__(self, "ambient", ambient)
        object.__setattr__(self, "rows", rows)

    def __setattr__(self, name, value):
        raise AttributeError("Subspace is immutable")

    @classmethod
    def from_vectors(cls, ctx: FieldContext, ambient: int,
                     vectors: Iterable[Sequence[Scalar]]) -> "Subspace":
        acc = RrefAccumulator(ctx, ambient)
        for v in vectors:
            acc.add(tuple(scal(ctx, e) for e in v))
        return acc.subspace()

    @classmethod
    def zero(cls, ctx: FieldContext, ambient: int) -> "Subspace":
        return cls(ctx, ambient, ())

    @classmethod
    def full(cls, ctx: FieldContext, ambient: int) -> "Subspace":
        return cls.from_vectors(ctx, ambient,
                                [basis_vector(ctx, ambient, j) for j in range(ambient)])

    @property
    def dim(self) -> int:
        return len(self.rows)

    def basis(self) -> tuple[Vec, ...]:
        return self.rows

    def contains(self, v: Sequence[FieldElement]) -> bool:
        if len(v) != self.ambient:
            raise DimensionMismatch(f"ambient {self.ambient}, vector {len(v)}")
        pivot_rows = {min(r): r for r in map(_sparse, self.rows)}
        return not _reduce(_sparse(v), pivot_rows)

    def contains_subspace(self, other: "Subspace") -> bool:
        return all(self.contains(v) for v in other.rows)

    def __le__(self, other: "Subspace") -> bool:
        return other.contains_subspace(self)

    def __eq__(self, other):
        if not isinstance(other, Subspace):
            return NotImplemented
        return (self.ctx == other.ctx and self.ambient == other.ambient
                and self.rows == other.rows)

    def __hash__(self):
        return hash((self.ctx, self.ambient, self.rows))

    def sum(self, other: "Subspace") -> "Subspace":
        self._check_compatible(other)
        return Subspace.from_vectors(self.ctx, self.ambient,
                                     list(self.rows) + list(other.rows))

    def annihilator(self) -> list[Vec]:
        """Basis of the functionals vanishing on this subspace."""
        if self.dim == 0:
            ctx = self.ctx
            return [basis_vector(ctx, self.ambient, j) for j in range(self.ambient)]
        return kernel(Mat(self.ctx, self.rows))

    def intersect(self, other: "Subspace") -> "Subspace":
        self._check_compatible(other)
        constraints = self.annihilator() + other.annihilator()
        if not constraints:
            return Subspace.full(self.ctx, self.ambient)
        return Subspace.from_vectors(self.ctx, self.ambient,
                                     kernel(Mat(self.ctx, constraints)))

    def preimage_under(self, mat: Mat) -> "Subspace":
        """The subspace ``{x : mat @ x in self}`` of the matrix's domain."""
        if mat.nrows != self.ambient:
            raise DimensionMismatch(
                f"map lands in dimension {mat.nrows}, subspace ambient {self.ambient}")
        ann = self.annihilator()
        if not ann:
            return Subspace.full(self.ctx, mat.ncols)
        test = Mat(self.ctx, [f for f in ann]) @ mat
        return Subspace.from_vectors(self.ctx, mat.ncols, kernel(test))

    def _check_compatible(self, other: "Subspace"):
        if self.ctx != other.ctx or self.ambient != other.ambient:
            raise DimensionMismatch("subspaces live in different ambient spaces")

    def __repr__(self):
        return f"Subspace(dim={self.dim}, ambient={self.ambient})"


class RrefAccumulator:
    """Incrementally built RREF basis; reports whether each vector was new.

    The rows are kept fully reduced, as sparse rows keyed by their pivot."""

    def __init__(self, ctx: FieldContext, ambient: int):
        self.ctx = ctx
        self.ambient = ambient
        self._rows: dict[int, Row] = {}

    @property
    def dim(self) -> int:
        return len(self._rows)

    def contains(self, v: Sequence[FieldElement]) -> bool:
        return not _reduce(_sparse(v), self._rows)

    def add(self, v: Sequence[FieldElement]) -> bool:
        if len(v) != self.ambient:
            raise DimensionMismatch(f"ambient {self.ambient}, vector {len(v)}")
        return self._add_row(_sparse(v))

    def _add_row(self, row: Row) -> bool:
        """Insert a sparse row of length ``ambient``, reducing it in place;
        whether it was independent of the rows so far."""
        red = _reduce(row, self._rows)
        if not red:
            return False
        lead = min(red)
        inv = red[lead].inverse()
        new = {j: e * inv for j, e in red.items()}
        # back-substitute into the existing rows
        for row in self._rows.values():
            c = row.get(lead)
            if c is not None:
                _subtract_multiple(row, c, new)
        self._rows[lead] = new
        return True

    def basis(self) -> tuple[Vec, ...]:
        return tuple(tuple(_dense(self.ctx, self._rows[p], self.ambient))
                     for p in sorted(self._rows))

    def subspace(self) -> Subspace:
        return Subspace(self.ctx, self.ambient, self.basis())


def spin(ctx: FieldContext, ambient: int, seeds: Iterable[Sequence[FieldElement]],
         operators: Sequence[Mat]) -> Subspace:
    """Smallest subspace containing the seeds and stable under the operators."""
    acc = RrefAccumulator(ctx, ambient)
    queue = [tuple(v) for v in seeds]
    while queue:
        v = queue.pop()
        if acc.add(v):
            for op in operators:
                queue.append(op.apply(v))
    return acc.subspace()
