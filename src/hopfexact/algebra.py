"""Finite-dimensional associative algebras given by exact structure constants.

An :class:`Algebra` is a labelled basis, a unit vector, and the full
multiplication table ``table[i][j] = e_i * e_j`` (each entry a coordinate
vector).  The table is immutable, so the algebra also keeps it once in
sparse form: ``terms[i][j]`` is the :data:`~hopfexact.linalg.Row` of the
nonzero coordinates of ``e_i * e_j``, and :meth:`Algebra.multiply` and the
multiplication matrix ``m`` (:meth:`Algebra.mult_matrix`) read only those.
An axiom that is not a product of two tensor legs is checked exactly as
identities of sparse matrices built from ``m`` with ``kron`` and ``@``, on a
generating set G of the algebra (:meth:`Algebra.generators`): associativity
is Light's test ``L_g m == m (L_g (x) id)`` for each g in G
(:func:`is_associative`).  An identity of matrices holds on every element,
and the set of elements on which an associativity or multiplicativity law
holds is a subalgebra, so holding on G proves it over the coefficient
field, not on a sample.

Products of tensors go through one kernel, :func:`tensor_product`: a tensor
with two legs multiplies leg by leg when each leg has its own sparse product
table, ``(a (x) b)(c (x) d) = left[a][c] (x) right[b][d]``.  The product of
H (x) A, the multiplicativity of a coproduct or coaction and the colinearity
of a module action are all this one contraction with different tables.  It
contracts the right leg first: ``sum_d v[c, d] right[b][d]`` is formed once
for each ``(b, c)`` that a term of ``u`` meets, and the left-table terms are
applied to it after.
"""

from __future__ import annotations

from itertools import chain, islice
from typing import Iterable, Optional, Sequence, Union

from .errors import DimensionMismatch, NotAnAlgebra
from .field import FieldContext, FieldElement, scal
from .linalg import (
    Mat,
    Row,
    Scalar,
    Subspace,
    Vec,
    _combine,
    _dense,
    _insert_row,
    _nonzero,
    _sparse,
    _vec_row,
    basis_vector,
    kernel,
    kron,
    kron_matmul,
    rank,
    solve,
    spin,
    vzero,
)

#: ``table[a][c]``: the nonzero coordinates of the product of basis vectors
#: ``a`` and ``c``
Table = tuple[tuple[Row, ...], ...]


class Algebra:
    """An associative unital algebra over a fixed field context."""

    def __init__(self, ctx: FieldContext, labels: Sequence[str],
                 unit: Sequence[Scalar],
                 table: Sequence[Sequence[Sequence[Scalar]]]):
        n = len(labels)
        if len(set(labels)) != n:
            raise NotAnAlgebra(f"duplicate basis labels: {labels}")
        if len(unit) != n or len(table) != n or any(len(r) != n for r in table):
            raise DimensionMismatch("unit/table sizes do not match the basis")
        self.ctx = ctx
        self.labels = tuple(labels)
        self.unit: Vec = tuple(scal(ctx, c) for c in unit)
        self.table: tuple[tuple[Vec, ...], ...] = tuple(
            tuple(self._as_vec(entry) for entry in row) for row in table)
        self.terms: Table = tuple(tuple(map(_sparse, row))
                                  for row in self.table)
        self._index = {lab: i for i, lab in enumerate(self.labels)}
        self._mult_matrix: Optional[Mat] = None
        self._generators: Optional[tuple[int, ...]] = None
        self._associative: Optional[bool] = None

    def _as_vec(self, v: Sequence[Scalar]) -> Vec:
        if len(v) != len(self.labels):
            raise DimensionMismatch(
                f"expected {len(self.labels)} coordinates, got {len(v)}")
        return tuple(scal(self.ctx, c) for c in v)

    @property
    def dim(self) -> int:
        return len(self.labels)

    def label_index(self, label: str) -> int:
        if label not in self._index:
            raise KeyError(f"no basis label {label!r}; have {list(self.labels)}")
        return self._index[label]

    def basis_element(self, key: Union[int, str]) -> Vec:
        i = key if isinstance(key, int) else self.label_index(key)
        return basis_vector(self.ctx, self.dim, i)

    def element(self, coeffs: dict[str, Scalar]) -> Vec:
        v = [self.ctx.zero()] * self.dim
        for lab, c in coeffs.items():
            v[self.label_index(lab)] = scal(self.ctx, c)
        return tuple(v)

    def zero(self) -> Vec:
        return vzero(self.ctx, self.dim)

    def multiply(self, x: Sequence[FieldElement], y: Sequence[FieldElement]) -> Vec:
        xs, ys = _sparse(x), _sparse(y)
        prod = _combine(xs, {i: _combine(ys, self.terms[i]) for i in xs})
        return tuple(_dense(self.ctx, prod, self.dim))

    def mult_matrix(self) -> Mat:
        """Multiplication as a ``dim x dim**2`` matrix on ``x (x) y``."""
        if self._mult_matrix is None:
            self._mult_matrix = Mat.from_entries(
                self.ctx, (t for row in self.terms for t in row),
                self.dim).transpose()
        return self._mult_matrix

    def generators(self) -> tuple[int, ...]:
        """The basis indices G whose nonempty words ``g_1(g_2(...g_k))``
        span the algebra, computed once.  An index joins G when its basis
        vector lies outside the span of the words of G so far; the unit is
        tried last, as powers of the others usually span it.  No unit law
        is used, and G spans, since each of its indices is a word."""
        if self._generators is None:
            ctx, n, unit = self.ctx, self.dim, _sparse(self.unit)
            gens: list[int] = []
            words = Subspace(ctx, n, {})
            for i in sorted(range(n), key=lambda i: unit == {i: ctx.one()}):
                if not words.contains(self.basis_element(i)):
                    gens.append(i)
                    seeds = [self.basis_element(g) for g in gens]
                    words = spin(ctx, n, seeds, list(map(self.left_mult, seeds)))
            self._generators = tuple(gens)
        return self._generators

    def left_mult(self, x: Sequence[FieldElement]) -> Mat:
        """``L_x``: column ``j`` is ``x e_j = sum_i x_i terms[i][j]``."""
        xs = _sparse(x)
        return Mat.from_entries(
            self.ctx, (_combine(xs, col) for col in zip(*self.terms)),
            self.dim).transpose()

    def right_mult(self, x: Sequence[FieldElement]) -> Mat:
        """``R_x``: column ``i`` is ``e_i x = sum_j x_j terms[i][j]``."""
        xs = _sparse(x)
        return Mat.from_entries(
            self.ctx, (_combine(xs, row) for row in self.terms),
            self.dim).transpose()

    def __repr__(self):
        return f"Algebra(dim={self.dim}, labels={list(self.labels)})"


def tensor_product(left: Table, right: Table, u: Row, v: Row,
                   right_dim: int) -> Row:
    """Product of two tensors of two legs, each leg by its own table.

    ``(a (x) b)(c (x) d) = left[a][c] (x) right[b][d]``, extended bilinearly,
    with the left leg on the coarse index of ``u``, ``v`` and the result,
    each given by its nonzero coordinates.  ``u`` has ``len(left) *
    len(right)`` coordinates and ``v`` has ``len(left[0]) * len(right[0])``;
    the legs of the result are indexed by the ``k`` of the left table terms
    and the ``l < right_dim`` of the right ones.

    The right leg of ``v`` is contracted first.  For each ``(b, c)`` that a
    term of ``u`` meets, ``r_bc = sum_d v[c, d] right[b][d]`` is formed once
    and reused by every term of ``u`` with right index ``b``; then a term
    ``x`` of ``u`` at ``(a, b)`` adds ``x p r_bc`` at ``(k, l)`` for each
    term ``(k, p)`` of ``left[a][c]``.  With at most ``L`` terms per left
    table entry and ``R`` per right one, that is at most
    ``len(right) nnz(v) R + nnz(u) len(left[0]) L (1 + R)``
    products, where visiting every pair of terms of ``u`` and ``v`` costs
    up to ``nnz(u) nnz(v) (1 + L + L R)``.  On the coaction of ``a_i_xy``
    in a seeded dense basis (13 of the 32 coordinates of an image nonzero)
    a product of two images takes about 820 products instead of 1920.
    Only nonzero coordinates, table terms and sums are multiplied: the zero
    divisors of a perfect-square layer can make a sum or a product of
    nonzero elements vanish.
    """
    nu, nv = len(right), len(right[0])
    acc: Row = {}
    # the terms of v grouped by their left index c, as {d: y}
    v_rows: dict[int, Row] = {}
    for j, y in v.items():
        c, d = divmod(j, nv)
        v_rows.setdefault(c, {})[d] = y
    contracted: dict[tuple[int, int], Row] = {}
    for i, x in u.items():
        a, b = divmod(i, nu)
        left_row = left[a]
        for c, v_row in v_rows.items():
            lt = left_row[c]
            if not lt:
                continue
            rt = contracted.get((b, c))
            if rt is None:
                rt = contracted[b, c] = _combine(v_row, right[b])
            if not rt:
                continue
            for k, p in lt.items():
                w = x * p
                if w.is_zero():
                    continue
                base = k * right_dim
                for l, q in rt.items():
                    t = w * q
                    old = acc.get(base + l)
                    acc[base + l] = t if old is None else old + t
    return _nonzero(acc)


def multiplicative_into_tensor(phi: Mat, a: Algebra, h: Algebra,
                               b: Algebra,
                               first: Optional[Iterable[int]] = None) -> bool:
    """Whether ``phi: A -> H (x) B`` sends ``e_i e_j`` to the product of the
    images for each ``i`` in ``first`` (default: every index) and every
    ``j``.  On the whole basis that is multiplicativity, by bilinearity; so
    is it on ``first = a.generators()`` when A and H (x) B are associative,
    as the x with ``phi(xb) = phi(x) phi(b)`` for all b then form a
    subalgebra S: ``phi((xy)b) = phi(x(yb)) = phi(x) (phi(y) phi(b)) =
    (phi(x) phi(y)) phi(b) = phi(xy) phi(b)`` for x, y in S."""
    images = phi.transpose().entries
    return all(_combine(a.terms[i][j], images)
               == tensor_product(h.terms, b.terms, images[i], y, b.dim)
               for i in (range(a.dim) if first is None else first)
               for j, y in enumerate(images))


NOT_ASSOCIATIVE = "multiplication is not associative"


def is_associative(alg: Algebra) -> bool:
    """Light's test: ``L_g m == m (L_g (x) id)``, that is ``g(xy) ==
    (gx)y``, for each g in ``alg.generators()``, compared transposed as
    ``m^T L_g^T == (L_g^T (x) id) m^T``.  The x with ``(xb)c ==
    x(bc)`` for all b, c form a subspace T, and for x, y in T ``((xy)b)c =
    (x(yb))c = x((yb)c) = x(y(bc)) = (xy)(bc)``: T is a subalgebra, holds
    G and so is all of A (Clifford and Preston, The Algebraic Theory of
    Semigroups I, 1961, section 1.2).  The verdict is computed once per
    algebra, as its table never changes."""
    if alg._associative is None:
        # m^T, whose row i*n + j is e_i e_j, and L_g^T, whose row j is g e_j
        ctx, n = alg.ctx, alg.dim
        mt = Mat.from_entries(ctx, chain.from_iterable(alg.terms), n)
        lefts = (Mat.from_entries(ctx, alg.terms[g], n)
                 for g in alg.generators())
        alg._associative = all(mt @ lt == kron_matmul(lt, None, mt)
                               for lt in lefts)
    return alg._associative


def check_algebra(alg: Algebra) -> list[str]:
    """Return the list of violated algebra axioms (empty means all hold).

    Associativity is Light's test on a generating set
    (:func:`is_associative`), which proves it for all elements.
    """
    problems = []
    ident = Mat.identity(alg.ctx, alg.dim)
    if alg.left_mult(alg.unit) != ident:
        problems.append("unit is not a left unit")
    if alg.right_mult(alg.unit) != ident:
        problems.append("unit is not a right unit")
    if not is_associative(alg):
        problems.append(NOT_ASSOCIATIVE)
    return problems


def algebra_on_span(body: Mat, unit: Sequence[FieldElement], product: Mat
                    ) -> tuple[Vec, list[list[Vec]]]:
    """The unit and table of the algebra that the columns of ``body`` span,
    in coordinates over those columns.

    ``body`` has independent columns, ``unit`` is the unit of the ambient
    algebra, and column ``i * d + j`` of ``product`` is the product of
    columns ``i`` and ``j`` of ``body``, all in ambient coordinates.  Raises
    :class:`NotAnAlgebra` when the span misses the unit or is not closed
    under the product.
    """
    unit_coords = solve(body, unit)
    if unit_coords is None:
        raise NotAnAlgebra("the span misses the unit")
    coords = [solve(body, col) for col in product.transpose().rows]
    if any(c is None for c in coords):
        raise NotAnAlgebra("the span is not closed under the product")
    d = body.ncols
    return unit_coords, [coords[i * d:(i + 1) * d] for i in range(d)]


def trace(mat: Mat) -> FieldElement:
    if mat.nrows != mat.ncols:
        raise DimensionMismatch("trace needs a square matrix")
    acc = mat.ctx.zero()
    for i in range(mat.nrows):
        acc = acc + mat[i, i]
    return acc


def _trace_form(alg: Algebra) -> Mat:
    """The Gram matrix ``tr(L_i L_j)`` of the left regular representation.

    With ``e_i e_m = sum_k c_imk e_k`` it is read off the table as
    ``tr(L_i L_j) = sum_{k,m} c_imk c_jkm``, with no product of matrices and
    no use of associativity."""
    n, ctx = alg.dim, alg.ctx
    # the nonzero c_jkm of each pair (k, m), as (j, c_jkm)
    by_pair: list[list[list]] = [[[] for _ in range(n)] for _ in range(n)]
    for j in range(n):
        for k in range(n):
            for m, c in alg.terms[j][k].items():
                by_pair[k][m].append((j, c))
    gram = [[ctx.zero()] * n for _ in range(n)]
    for i in range(n):
        row = gram[i]
        for m in range(n):
            for k, c in alg.terms[i][m].items():
                for j, d in by_pair[k][m]:
                    row[j] = row[j] + c * d
    return Mat(ctx, gram)


def trace_radical(alg: Algebra) -> Subspace:
    """Radical of the trace form  t(a, b) = tr(L_a L_b)  of the left regular
    representation; over characteristic zero this is the Jacobson radical."""
    return Subspace.from_vectors(alg.ctx, alg.dim, kernel(_trace_form(alg)))


def generated_operator_algebra(gens: Sequence[Mat]) -> list[Mat]:
    """Basis of the unital matrix algebra generated by ``gens``, shortest
    words first: the candidates are I, ``gens``, then ``w @ g`` for each
    kept word ``w`` other than I, in the order kept, and each ``g``, each
    formed only when it is tried.  A word is kept when
    ``linalg._insert_row`` finds its ``vec`` independent of the words kept.
    Their span holds I and is closed under right multiplication by
    ``gens``; the closure stops at n**2 words, as no further word is new.
    """
    if not gens:
        raise DimensionMismatch("need at least one generator")
    ctx = gens[0].ctx
    n = gens[0].nrows
    if any(g.nrows != n or g.ncols != n or g.ctx != ctx for g in gens):
        raise DimensionMismatch("generators must be square of equal size")
    pivot_rows: dict[int, Row] = {}
    basis: list[Mat] = []
    # I @ g is g; the list iterator sees the words kept after it was made
    products = (w @ g for w in islice(basis, 1, None) for g in gens)
    for w in chain([Mat.identity(ctx, n)], gens, products):
        if _insert_row(pivot_rows, _vec_row(w)):
            basis.append(w)
            if len(basis) == n * n:
                break
    return basis


def direct_sum(a: Algebra, b: Algebra) -> Algebra:
    if a.ctx != b.ctx:
        raise DimensionMismatch("direct sum needs a common field context")
    ctx = a.ctx
    n, m = a.dim, b.dim
    labels = [f"{lab}.1" for lab in a.labels] + [f"{lab}.2" for lab in b.labels]
    zero_n, zero_m = vzero(ctx, n), vzero(ctx, m)
    unit = a.unit + b.unit

    def pad_a(v: Vec) -> Vec:
        return v + zero_m

    def pad_b(v: Vec) -> Vec:
        return zero_n + v

    table = []
    for i in range(n + m):
        row = []
        for j in range(n + m):
            if i < n and j < n:
                row.append(pad_a(a.table[i][j]))
            elif i >= n and j >= n:
                row.append(pad_b(b.table[i - n][j - n]))
            else:
                row.append(zero_n + zero_m)
        table.append(row)
    return Algebra(ctx, labels, unit, table)


def is_algebra_morphism(src: Algebra, dst: Algebra, phi: Mat) -> bool:
    """Does ``phi`` send unit to unit and products to products?"""
    if phi.nrows != dst.dim or phi.ncols != src.dim:
        raise DimensionMismatch(
            f"map must be {dst.dim}x{src.dim}, got {phi.nrows}x{phi.ncols}")
    if phi.apply(src.unit) != dst.unit:
        return False
    return phi @ src.mult_matrix() == dst.mult_matrix() @ kron(phi, phi)


def is_algebra_isomorphism(src: Algebra, dst: Algebra, phi: Mat) -> bool:
    return (src.dim == dst.dim and is_algebra_morphism(src, dst, phi)
            and rank(phi) == src.dim)
