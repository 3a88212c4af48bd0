"""Exact linear algebra over a :class:`~hopfexact.field.FieldContext`.

Vectors are plain tuples of field elements; matrices act on column vectors.
Everything is computed by fraction-exact Gaussian elimination — no floating
point anywhere.  Subspaces carry a canonical reduced-row-echelon basis so
that equality of subspaces is literal equality of their stored bases.

Matrices are stored dense, but the kernels (``@``, ``apply``, ``kron`` and
elimination) skip structural zeros: a product with a zero factor is never
formed, and a pivot row eliminates only on its nonzero columns.  Exact
arithmetic makes the results identical to dense elimination, entry for
entry, pivots and basis order included.

Conventions used throughout the package:

* matrices are stored row-major; ``kron(a, b)`` places the left factor on
  the coarse index, ``K[i*rb + k][j*cb + l] = a[i][j] * b[k][l]``;
* with row-major ``vec`` (rows concatenated), ``vec(A @ X @ B) ==
  kron(A, B.transpose()) @ vec(X)``.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Optional, Sequence, Union

from .errors import DimensionMismatch
from .field import FieldContext, FieldElement, scal

Vec = tuple[FieldElement, ...]
Scalar = Union[int, Fraction, str, FieldElement]


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
        normalized = []
        for row in rows:
            normalized.append(tuple(scal(ctx, e) for e in row))
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


def _support(row: Sequence[FieldElement], start: int) -> list[int]:
    """Positions of the nonzero entries of ``row`` from ``start`` on."""
    return [j for j in range(start, len(row)) if not row[j].is_zero()]


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
    cols = []
    for b in basis:
        w = op.apply(b)
        if not space.contains(w):
            raise DimensionMismatch("subspace is not invariant under the operator")
        coords = solve(Mat.from_columns(space.ctx, basis), w)
        cols.append(coords)
    if not basis:
        return Mat(space.ctx, [])
    return Mat.from_columns(space.ctx, cols)


def eigenspace(op: Mat, value: FieldElement) -> Subspace:
    shifted = op - Mat.identity(op.ctx, op.nrows).scale(value)
    return Subspace.from_vectors(op.ctx, op.ncols, kernel(shifted))


def hstack(mats: Sequence[Mat]) -> Mat:
    m = mats[0].nrows
    if any(x.nrows != m for x in mats):
        raise DimensionMismatch("hstack needs equal row counts")
    return Mat(mats[0].ctx, [sum((list(x.rows[i]) for x in mats), []) for i in range(m)])


def vstack(mats: Sequence[Mat]) -> Mat:
    n = mats[0].ncols
    if any(x.ncols != n for x in mats):
        raise DimensionMismatch("vstack needs equal column counts")
    rows: list[Vec] = []
    for x in mats:
        rows.extend(x.rows)
    return Mat(mats[0].ctx, rows)


# -- elimination -------------------------------------------------------------


def _rref_rows(ctx: FieldContext, rows: list[list[FieldElement]]) -> tuple[list[list[FieldElement]], list[int]]:
    rows = [list(r) for r in rows]
    ncols = len(rows[0]) if rows else 0
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        piv = next((k for k in range(r, len(rows)) if not rows[k][c].is_zero()), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        prow = rows[r]
        inv = prow[c].inverse()
        # rows from r on vanish left of column c, so the pivot row does too
        support = _support(prow, c)
        for j in support:
            prow[j] = prow[j] * inv
        for k, row in enumerate(rows):
            f = row[c]
            if k != r and not f.is_zero():
                for j in support:
                    row[j] = row[j] - f * prow[j]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows, pivots


def rref(mat: Mat) -> tuple[Mat, tuple[int, ...]]:
    rows, pivots = _rref_rows(mat.ctx, [list(r) for r in mat.rows])
    return Mat(mat.ctx, rows), tuple(pivots)


def rank(mat: Mat) -> int:
    return len(rref(mat)[1])


def kernel(mat: Mat) -> list[Vec]:
    """Basis of the right null space, one vector per free column."""
    red, pivots = rref(mat)
    pivset = set(pivots)
    free = [j for j in range(mat.ncols) if j not in pivset]
    ctx = mat.ctx
    basis = []
    for j in free:
        v = [ctx.zero()] * mat.ncols
        v[j] = ctx.one()
        for r, pc in enumerate(pivots):
            v[pc] = -red[r, j]
        basis.append(tuple(v))
    return basis


def solve(mat: Mat, rhs: Sequence[FieldElement]) -> Optional[Vec]:
    """One solution of ``mat @ x == rhs``, or None when inconsistent."""
    if len(rhs) != mat.nrows:
        raise DimensionMismatch(f"matrix has {mat.nrows} rows, rhs {len(rhs)}")
    ctx = mat.ctx
    aug = [list(r) + [scal(ctx, b)] for r, b in zip(mat.rows, rhs)]
    red, pivots = _rref_rows(ctx, aug)
    n = mat.ncols
    if n in pivots:
        return None  # pivot in the augmented column
    x = [ctx.zero()] * n
    for r, pc in enumerate(pivots):
        x[pc] = red[r][n]
    return tuple(x)


def inverse(mat: Mat) -> Mat:
    if mat.nrows != mat.ncols:
        raise DimensionMismatch("only square matrices invert")
    n = mat.nrows
    ctx = mat.ctx
    ident = Mat.identity(ctx, n)
    aug = [list(r) + list(ident.rows[i]) for i, r in enumerate(mat.rows)]
    red, pivots = _rref_rows(ctx, aug)
    if len(pivots) != n or any(p >= n for p in pivots):
        raise DimensionMismatch("matrix is singular")
    return Mat(ctx, [r[n:] for r in red])


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
        r = _reduce_against(list(v), self.rows)
        return is_zero_vec(tuple(r))

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

    def image_under(self, mat: Mat) -> "Subspace":
        if mat.ncols != self.ambient:
            raise DimensionMismatch(
                f"map expects dimension {mat.ncols}, subspace ambient {self.ambient}")
        return Subspace.from_vectors(self.ctx, mat.nrows,
                                     [mat.apply(v) for v in self.rows])

    def _check_compatible(self, other: "Subspace"):
        if self.ctx != other.ctx or self.ambient != other.ambient:
            raise DimensionMismatch("subspaces live in different ambient spaces")

    def __repr__(self):
        return f"Subspace(dim={self.dim}, ambient={self.ambient})"


def _reduce_against(v: list[FieldElement], rows: Sequence[Vec]) -> list[FieldElement]:
    """Reduce ``v`` modulo RREF rows (each row has a leading-one pivot)."""
    for row in rows:
        lead = next(j for j, e in enumerate(row) if not e.is_zero())
        c = v[lead]
        if not c.is_zero():
            for j in _support(row, lead):
                v[j] = v[j] - c * row[j]
    return v


class RrefAccumulator:
    """Incrementally built RREF basis; reports whether each vector was new."""

    def __init__(self, ctx: FieldContext, ambient: int):
        self.ctx = ctx
        self.ambient = ambient
        self._rows: list[Vec] = []   # kept fully reduced, sorted by pivot
        self._pivots: list[int] = []

    @property
    def dim(self) -> int:
        return len(self._rows)

    def contains(self, v: Sequence[FieldElement]) -> bool:
        return is_zero_vec(tuple(_reduce_against(list(v), self._rows)))

    def add(self, v: Sequence[FieldElement]) -> bool:
        if len(v) != self.ambient:
            raise DimensionMismatch(f"ambient {self.ambient}, vector {len(v)}")
        red = _reduce_against(list(v), self._rows)
        lead = next((j for j, e in enumerate(red) if not e.is_zero()), None)
        if lead is None:
            return False
        inv = red[lead].inverse()
        support = _support(red, lead)
        for j in support:
            red[j] = red[j] * inv
        newrow = tuple(red)
        # back-substitute into the existing rows, then insert in pivot order
        for i, row in enumerate(self._rows):
            c = row[lead]
            if not c.is_zero():
                row = list(row)
                for j in support:
                    row[j] = row[j] - c * newrow[j]
                self._rows[i] = tuple(row)
        pos = next((i for i, p in enumerate(self._pivots) if p > lead),
                   len(self._pivots))
        self._rows.insert(pos, newrow)
        self._pivots.insert(pos, lead)
        return True

    def basis(self) -> tuple[Vec, ...]:
        return tuple(self._rows)

    def subspace(self) -> Subspace:
        return Subspace(self.ctx, self.ambient, tuple(self._rows))


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


def complement_in(inner: Subspace, outer: Subspace) -> list[Vec]:
    """Pivot-echelon complement: vectors from ``outer``'s canonical basis
    extending ``inner`` to ``outer``."""
    if not outer.contains_subspace(inner):
        raise DimensionMismatch("inner subspace is not contained in outer")
    acc = RrefAccumulator(inner.ctx, inner.ambient)
    for v in inner.basis():
        acc.add(v)
    out = []
    for v in outer.basis():
        if acc.add(v):
            out.append(v)
    return out
