"""Exact linear algebra over a :class:`~hopfexact.field.FieldContext`.

Vectors are plain tuples of field elements; matrices act on column vectors.
Everything is computed by fraction-exact Gaussian elimination — no floating
point anywhere.  Subspaces carry a canonical reduced-row-echelon basis so
that equality of subspaces is literal equality of their stored bases.

A :class:`Mat` stores each row as a :data:`Row`, the dict ``{column:
entry}`` of its nonzero entries, and every kernel reads and builds those
rows: ``@`` sums rows of the right factor row by row, and ``transpose``
moves each entry once (Gustavson, ACM TOMS 4(3), 1978); a sum or product
that vanishes is never stored.  A :class:`Subspace` stores its canonical
basis the same way, as the fully reduced row of each basis vector keyed by
its pivot column, in ascending order.  The stored rows of a ``Mat`` and of
a ``Subspace`` may be shared and are never modified; ``rows``, ``col``,
``m[i, j]`` and ``basis()`` are dense views, computed on each read.

Elimination runs on the same rows, with one helper that subtracts a
multiple of a pivot row, and two drivers:

* ``_echelon`` eliminates a list of rows column by column, in place, taking
  the first remaining nonzero row as pivot.  ``rref``/``rank``/``solve``/
  ``inverse`` run it on copies of a matrix's rows, and ``_kernel_rows``
  reads a null-space basis from its pivot rows, for ``kernel``,
  ``Subspace.annihilator`` and the operator-space systems that ``morita``
  writes as rows.
* ``_insert_row`` adds one row to fully reduced rows keyed by pivot,
  reducing it with ``_reduce`` and back-substituting the new pivot row.
  ``Subspace.from_vectors``, ``spin`` and
  ``algebra.generated_operator_algebra`` (shortest words first) build their
  bases with it, and ``comodule.coideal_generated`` is two spins; the rows
  belong to the builder until they become a ``Subspace``.

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
#: the nonzero entries of a row, ``{column: entry}``
Row = dict[int, FieldElement]
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
    """A matrix of field elements over a single context.

    Row ``i`` is stored as ``entries[i]``, the :data:`Row` of its nonzero
    entries; ``rows``, ``col`` and ``m[i, j]`` are dense views, computed
    each time they are read.  The stored dicts may be shared between
    matrices and must never be modified."""

    __slots__ = ("ctx", "ncols", "entries")

    def __init__(self, ctx: FieldContext, rows: Iterable[Iterable[Scalar]]):
        # entries already in ``ctx`` are taken as they are; anything else is
        # parsed or coerced
        dense = [[e if e.__class__ is FieldElement and e.ctx is ctx
                  else scal(ctx, e) for e in row] for row in rows]
        if any(len(r) != len(dense[0]) for r in dense):
            raise DimensionMismatch("ragged rows")
        object.__setattr__(self, "ctx", ctx)
        object.__setattr__(self, "ncols", len(dense[0]) if dense else 0)
        object.__setattr__(self, "entries", tuple(map(_sparse, dense)))

    def __setattr__(self, name, value):
        raise AttributeError("Mat is immutable")

    @classmethod
    def from_entries(cls, ctx: FieldContext, entries: Iterable[Row],
                     ncols: int) -> "Mat":
        """The matrix with the given stored rows, taken as they are: each
        dict holds only nonzero elements of ``ctx``, keyed by column."""
        m = object.__new__(cls)
        object.__setattr__(m, "ctx", ctx)
        object.__setattr__(m, "ncols", ncols)
        object.__setattr__(m, "entries", tuple(entries))
        return m

    @classmethod
    def identity(cls, ctx: FieldContext, n: int) -> "Mat":
        one = ctx.one()
        return cls.from_entries(ctx, ({i: one} for i in range(n)), n)

    @classmethod
    def from_columns(cls, ctx: FieldContext, cols: Sequence[Sequence[Scalar]]) -> "Mat":
        return cls(ctx, cols).transpose()

    @property
    def nrows(self) -> int:
        return len(self.entries)

    @property
    def rows(self) -> tuple[Vec, ...]:
        return tuple(tuple(_dense(self.ctx, r, self.ncols))
                     for r in self.entries)

    def __getitem__(self, ij: tuple[int, int]) -> FieldElement:
        i, j = ij
        return self.entries[i].get(j, self.ctx.zero())

    def col(self, j: int) -> Vec:
        zero = self.ctx.zero()
        return tuple(r.get(j, zero) for r in self.entries)

    def coerce(self, ctx: FieldContext) -> "Mat":
        """The same matrix over ``ctx``, which contains ``self.ctx``."""
        return Mat.from_entries(
            ctx, ({j: e.coerce(ctx) for j, e in r.items()}
                  for r in self.entries), self.ncols)

    def transpose(self) -> "Mat":
        cols: list[Row] = [{} for _ in range(self.ncols)]
        for i, r in enumerate(self.entries):
            for j, e in r.items():
                cols[j][i] = e
        return Mat.from_entries(self.ctx, cols, self.nrows)

    def __add__(self, other: "Mat") -> "Mat":
        one = self.ctx.one()
        return linear_combination((one, one), (self, other))

    def __sub__(self, other: "Mat") -> "Mat":
        return linear_combination((self.ctx.one(), self.ctx.scalar(-1)),
                                  (self, other))

    def _same_shape(self, other: "Mat"):
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise DimensionMismatch(
                f"{self.nrows}x{self.ncols} vs {other.nrows}x{other.ncols}")

    def scale(self, c: Scalar) -> "Mat":
        """``c * self``; a product that vanishes, as one of zero divisors
        does, is dropped."""
        c = scal(self.ctx, c)
        return Mat.from_entries(
            self.ctx, (_nonzero({j: c * e for j, e in r.items()})
                       for r in self.entries), self.ncols)

    def __matmul__(self, other: "Mat") -> "Mat":
        """Row by row: row ``i`` of the product is the sum of the stored
        rows ``k`` of ``other``, each times the entry ``(i, k)``."""
        if self.ncols != other.nrows:
            raise DimensionMismatch(
                f"cannot multiply {self.nrows}x{self.ncols} by "
                f"{other.nrows}x{other.ncols}")
        return Mat.from_entries(
            self.ctx, (_combine(r, other.entries) for r in self.entries),
            other.ncols)

    def apply(self, v: Sequence[FieldElement]) -> Vec:
        if self.ncols != len(v):
            raise DimensionMismatch(f"matrix has {self.ncols} columns, vector {len(v)}")
        if self.entries and not v:
            raise DimensionMismatch("empty dot product")
        x = _sparse(v)
        zero = self.ctx.zero()
        out = []
        for r in self.entries:
            acc = None
            for k, a in r.items():
                y = x.get(k)
                if y is not None:
                    t = a * y
                    acc = t if acc is None else acc + t
            out.append(zero if acc is None else acc)
        return tuple(out)

    def __eq__(self, other):
        if not isinstance(other, Mat):
            return NotImplemented
        return (self.ctx == other.ctx and self.ncols == other.ncols
                and self.entries == other.entries)

    def __hash__(self):
        return hash((self.ctx, self.ncols,
                     tuple(frozenset(r.items()) for r in self.entries)))

    def vec(self) -> Vec:
        """Row-major flattening."""
        return tuple(_dense(self.ctx, _vec_row(self), self.nrows * self.ncols))

    @classmethod
    def unvec(cls, ctx: FieldContext, v: Sequence[FieldElement], m: int, n: int) -> "Mat":
        if len(v) != m * n:
            raise DimensionMismatch(f"cannot reshape {len(v)} entries to {m}x{n}")
        return cls(ctx, [v[i * n:(i + 1) * n] for i in range(m)])

    def __repr__(self):
        body = "; ".join(" ".join(repr(e) for e in r) for r in self.rows)
        return f"Mat({self.nrows}x{self.ncols}: {body})"


def _combine(coeffs: Row, rows: Sequence[Row] | dict[int, Row]) -> Row:
    """``sum_k coeffs[k] * rows[k]``, the rows indexed by the keys of
    ``coeffs``: a row vector times the matrix with the stored rows ``rows``."""
    acc: Row = {}
    for k, c in coeffs.items():
        for j, x in rows[k].items():
            t = c * x
            old = acc.get(j)
            acc[j] = t if old is None else old + t
    return _nonzero(acc)


def _nonzero(row: Row) -> Row:
    """``row`` without the entries that are zero."""
    return {j: e for j, e in row.items() if not e.is_zero()}


def _vec_row(mat: Mat) -> Row:
    """The stored row of ``mat.vec()``."""
    n = mat.ncols
    return {i * n + j: e
            for i, r in enumerate(mat.entries) for j, e in r.items()}


def kron(a: Mat, b: Mat) -> Mat:
    """Kronecker product with the left factor on the coarse index."""
    nb = b.ncols
    rows = [_nonzero({j * nb + l: x * y for j, x in ra.items()
                      for l, y in rb.items()})
            for ra in a.entries for rb in b.entries]
    return Mat.from_entries(a.ctx, rows, a.ncols * nb)


def kron_matmul(a: Optional[Mat], b: Optional[Mat], m: Mat) -> Mat:
    """``kron(a, b) @ m`` without forming the Kronecker product; ``None``
    is an identity factor, of the size that ``m`` leaves for it.

    Row ``j*cb + l`` of ``m`` is its (j, l) row, with ``cb`` the columns of
    ``b``.  The b leg is contracted first, row by row: ``r[j][k] = sum_l
    b[k, l] m[j*cb + l]``, one ``_combine`` each; then row ``i*rb + k`` of
    the result is ``sum_j a[i, j] r[j][k]``.  An identity leg only relabels
    rows and multiplies nothing."""
    if a is None and b is None:
        raise DimensionMismatch("at most one factor may be the identity")
    ca = a.ncols if a is not None else m.nrows // b.ncols
    cb = b.ncols if b is not None else m.nrows // ca
    if ca * cb != m.nrows:
        raise DimensionMismatch(
            f"kron with {ca * cb} columns times {m.nrows} rows")
    rows = m.entries
    blocks = [rows[j * cb:(j + 1) * cb] for j in range(ca)]
    if b is not None:
        blocks = [[_combine(r, block) for r in b.entries] for block in blocks]
    if a is None:
        out = [r for block in blocks for r in block]
    else:
        by_k = list(zip(*blocks))
        out = [_combine(ra, col) for ra in a.entries for col in by_k]
    return Mat.from_entries(m.ctx, out, m.ncols)


def linear_combination(coeffs: Sequence[FieldElement],
                       mats: Sequence[Mat]) -> Mat:
    """``sum c_k * M_k`` over the nonzero ``c_k``; the ``M_k`` share one
    shape."""
    if not mats or len(coeffs) != len(mats):
        raise DimensionMismatch(
            f"{len(coeffs)} coefficients for {len(mats)} matrices")
    first = mats[0]
    for m in mats:
        m._same_shape(first)
    nonzero = _sparse(coeffs)
    return Mat.from_entries(
        first.ctx, (_combine(nonzero, rows) for rows in
                    zip(*(m.entries for m in mats))), first.ncols)


def slice_left(mat: Mat, dim_left: int, dim_right: int, h: int) -> Mat:
    """Apply the h-th coordinate functional to the left tensor leg of the
    codomain: rows ``h*dim_right .. h*dim_right + dim_right - 1``."""
    if mat.nrows != dim_left * dim_right:
        raise DimensionMismatch(
            f"codomain has {mat.nrows} rows, expected {dim_left}*{dim_right}")
    return Mat.from_entries(
        mat.ctx, mat.entries[h * dim_right:(h + 1) * dim_right], mat.ncols)


def minimal_polynomial(mat: Mat) -> list[FieldElement]:
    """Monic minimal polynomial, coefficients low-to-high."""
    if mat.nrows != mat.ncols:
        raise DimensionMismatch("minimal polynomial needs a square matrix")
    ctx, n = mat.ctx, mat.nrows
    powers = [Mat.identity(ctx, n)]
    while True:
        nxt = powers[-1] @ mat
        body = Mat.from_entries(ctx, map(_vec_row, powers), n * n).transpose()
        coords = solve(body, nxt.vec())
        if coords is not None:
            return [-c for c in coords] + [ctx.one()]
        powers.append(nxt)


def restrict_operator(op: Mat, space: Subspace) -> Mat:
    """Matrix of ``op`` on the canonical basis of an invariant subspace.

    The basis is fully reduced, so a vector of the subspace has its
    coordinates at the pivot columns; an image that its coordinates do not
    rebuild lies outside the subspace."""
    if op.ncols != space.ambient:
        raise DimensionMismatch(
            f"operator has {op.ncols} columns, subspace ambient {space.ambient}")
    cols = op.transpose().entries
    pivot_rows = space.pivot_rows
    out: list[Row] = [{} for _ in pivot_rows]
    for k, b in enumerate(pivot_rows.values()):
        image = _combine(b, cols)
        for i, p in enumerate(pivot_rows):
            if p in image:
                out[i][k] = image[p]
        if _reduce(image, pivot_rows):
            raise DimensionMismatch("subspace is not invariant under the operator")
    return Mat.from_entries(space.ctx, out, space.dim)


def eigenspace(op: Mat, value: FieldElement) -> Subspace:
    shifted = op - Mat.identity(op.ctx, op.nrows).scale(value)
    return Subspace.from_vectors(op.ctx, op.ncols, kernel(shifted))


# -- elimination -------------------------------------------------------------
#
# Every elimination below works on the stored row format of ``Mat``, and
# eliminates with one helper, ``_subtract_multiple``.  ``replay.eliminate``
# reduces its Macaulay rows, keyed by monomial, with ``_echelon`` too.


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


def _insert_row(pivot_rows: dict[int, Row], row: Row) -> bool:
    """Insert ``row`` into the fully reduced rows ``pivot_rows``, keyed by
    pivot, and return whether it was independent of them.  ``row`` is
    reduced and ``pivot_rows`` back-substituted, both in place."""
    red = _reduce(row, pivot_rows)
    if not red:
        return False
    lead = min(red)
    inv = red[lead].inverse()
    new = {j: e * inv for j, e in red.items()}
    for old in pivot_rows.values():
        c = old.get(lead)
        if c is not None:
            _subtract_multiple(old, c, new)
    pivot_rows[lead] = new
    return True


def _checked_row(ambient: int, v: Sequence[FieldElement]) -> Row:
    """The stored row of a vector that must have ``ambient`` coordinates."""
    if len(v) != ambient:
        raise DimensionMismatch(f"ambient {ambient}, vector {len(v)}")
    return _sparse(v)


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
    rows, pivots = _echelon(list(map(dict, mat.entries)), range(mat.ncols))
    return Mat.from_entries(mat.ctx, rows, mat.ncols), tuple(pivots)


def rank(mat: Mat) -> int:
    return len(rref(mat)[1])


def kernel(mat: Mat) -> list[Vec]:
    """Basis of the right null space, one vector per free column."""
    return _kernel_rows(mat.ctx, list(map(dict, mat.entries)), mat.ncols)


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
    ctx, n = mat.ctx, mat.ncols
    aug = list(map(dict, mat.entries))
    for row, b in zip(aug, rhs):
        if not (b := scal(ctx, b)).is_zero():
            row[n] = b
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
    ctx, n = mat.ctx, mat.nrows
    aug = [{**r, n + i: ctx.one()} for i, r in enumerate(mat.entries)]
    red, pivots = _echelon(aug, range(2 * n))
    if len(pivots) != n or any(p >= n for p in pivots):
        raise DimensionMismatch("matrix is singular")
    return Mat.from_entries(
        ctx, ({j - n: e for j, e in r.items() if j >= n} for r in red), n)


# -- subspaces ---------------------------------------------------------------


class Subspace:
    """A subspace of ``ctx**ambient`` held in canonical RREF basis form.

    ``pivot_rows`` maps the pivot column of each canonical basis vector, in
    ascending order, to its fully reduced :data:`Row`; the rows are never
    modified, and ``basis()`` is their dense view."""

    __slots__ = ("ctx", "ambient", "pivot_rows")

    def __init__(self, ctx: FieldContext, ambient: int,
                 pivot_rows: dict[int, Row]):
        object.__setattr__(self, "ctx", ctx)
        object.__setattr__(self, "ambient", ambient)
        object.__setattr__(self, "pivot_rows",
                           {p: pivot_rows[p] for p in sorted(pivot_rows)})

    def __setattr__(self, name, value):
        raise AttributeError("Subspace is immutable")

    @classmethod
    def from_vectors(cls, ctx: FieldContext, ambient: int,
                     vectors: Iterable[Sequence[Scalar]]) -> "Subspace":
        pivot_rows: dict[int, Row] = {}
        for v in vectors:
            _insert_row(pivot_rows, _checked_row(
                ambient, [scal(ctx, e) for e in v]))
        return cls(ctx, ambient, pivot_rows)

    @classmethod
    def full(cls, ctx: FieldContext, ambient: int) -> "Subspace":
        one = ctx.one()
        return cls(ctx, ambient, {j: {j: one} for j in range(ambient)})

    @property
    def dim(self) -> int:
        return len(self.pivot_rows)

    def basis(self) -> tuple[Vec, ...]:
        return tuple(tuple(_dense(self.ctx, r, self.ambient))
                     for r in self.pivot_rows.values())

    def contains(self, v: Sequence[FieldElement]) -> bool:
        return not _reduce(_checked_row(self.ambient, v), self.pivot_rows)

    def __eq__(self, other):
        if not isinstance(other, Subspace):
            return NotImplemented
        return (self.ctx == other.ctx and self.ambient == other.ambient
                and self.pivot_rows == other.pivot_rows)

    def __hash__(self):
        return hash((self.ctx, self.ambient,
                     tuple((p, frozenset(r.items()))
                           for p, r in self.pivot_rows.items())))

    def annihilator(self) -> list[Vec]:
        """Basis of the functionals vanishing on this subspace."""
        return _kernel_rows(self.ctx, list(map(dict, self.pivot_rows.values())),
                            self.ambient)

    def __repr__(self):
        return f"Subspace(dim={self.dim}, ambient={self.ambient})"


def spin(ctx: FieldContext, ambient: int, seeds: Iterable[Sequence[FieldElement]],
         operators: Sequence[Mat]) -> Subspace:
    """Smallest subspace containing the seeds and stable under the operators."""
    pivot_rows: dict[int, Row] = {}
    queue = [tuple(v) for v in seeds]
    while queue:
        v = queue.pop()
        if _insert_row(pivot_rows, _checked_row(ambient, v)):
            queue.extend(op.apply(v) for op in operators)
    return Subspace(ctx, ambient, pivot_rows)
