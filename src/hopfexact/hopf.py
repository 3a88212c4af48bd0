"""Hopf algebras as exact data: axioms, grouplikes, wedge, coradical filtration.

A :class:`Hopf` extends :class:`~hopfexact.algebra.Algebra` with a
comultiplication matrix (``dim**2 x dim``, the column for basis vector ``j``
holding the coordinates of its coproduct with the left tensor leg on the
coarse index), a counit functional, and an antipode matrix.  Every axiom is
checked exactly and sparsely, basis vector by basis vector or basis pair by
basis pair, over the nonzero structure constants only; by linearity that
proves it for all elements.  The coalgebra laws are the comodule laws of H
coacting on itself by its coproduct (:func:`coaction_laws`, which the
comodule checks share), plus the counit law on the right tensor leg.
"""

from __future__ import annotations

from typing import Sequence

from .algebra import Algebra, check_algebra, multiplicative_into_tensor
from .errors import (
    DimensionMismatch,
    FiltrationNotExhaustive,
    HopfExactError,
    NotASubcoalgebra,
    SingularAntipode,
)
from .field import FieldContext, FieldElement, polynomial_roots, scal
from .linalg import (
    Mat,
    Scalar,
    Subspace,
    Vec,
    _terms,
    basis_vector,
    eigenspace,
    inverse,
    linear_combination,
    minimal_polynomial,
    restrict_operator,
    slice_left,
    slice_right,
    tensor_vec,
    vadd,
    vscale,
)


class Hopf(Algebra):
    """A Hopf algebra presented by exact structure matrices."""

    def __init__(self, ctx: FieldContext, labels: Sequence[str],
                 unit: Sequence[Scalar],
                 table: Sequence[Sequence[Sequence[Scalar]]],
                 comult: Mat, counit: Sequence[Scalar], antipode: Mat):
        super().__init__(ctx, labels, unit, table)
        n = self.dim
        if comult.nrows != n * n or comult.ncols != n:
            raise DimensionMismatch(
                f"comultiplication must be {n * n}x{n}, got "
                f"{comult.nrows}x{comult.ncols}")
        if len(counit) != n:
            raise DimensionMismatch(f"counit must have {n} coordinates")
        if antipode.nrows != n or antipode.ncols != n:
            raise DimensionMismatch(f"antipode must be {n}x{n}")
        self.comult = comult
        self.counit: Vec = tuple(scal(ctx, c) for c in counit)
        self.antipode = antipode

    def counit_value(self, v: Sequence[FieldElement]) -> FieldElement:
        acc = self.ctx.zero()
        for c, x in zip(self.counit, v):
            acc = acc + c * x
        return acc

    def __repr__(self):
        return f"Hopf(dim={self.dim}, labels={list(self.labels)})"


# -- axiom checks -------------------------------------------------------------


def coaction_laws(h: Hopf, dim: int, coaction: Mat) -> tuple[bool, bool]:
    """Whether a left coaction of ``h`` on a space of dimension ``dim``
    (a ``(h.dim * dim) x dim`` matrix) is coassociative and satisfies the
    counit law, checked column by column over the nonzero entries."""
    nh = h.dim
    zero = h.ctx.zero()
    comult = [_terms(h.comult.col(a)) for a in range(nh)]
    cols = [_terms(coaction.col(j)) for j in range(dim)]
    coassoc_ok = True
    for col in cols:
        lhs: dict[int, FieldElement] = {}
        rhs: dict[int, FieldElement] = {}
        for idx, coef in col:
            a, k = divmod(idx, dim)
            for idx2, c2 in comult[a]:
                key = idx2 * dim + k
                lhs[key] = lhs.get(key, zero) + coef * c2
            for idx2, c2 in cols[k]:
                key = a * nh * dim + idx2
                rhs[key] = rhs.get(key, zero) + coef * c2
        if any(lhs.get(k, zero) != rhs.get(k, zero) for k in lhs.keys() | rhs):
            coassoc_ok = False
            break
    counit_ok = linear_combination(
        h.counit, [slice_left(coaction, nh, dim, a) for a in range(nh)]
    ) == Mat.identity(h.ctx, dim)
    return coassoc_ok, counit_ok


def check_coalgebra(h: Hopf) -> list[str]:
    problems = []
    n = h.dim
    coassoc_ok, counit_left_ok = coaction_laws(h, n, h.comult)
    counit_right_ok = linear_combination(
        h.counit, [slice_right(h.comult, n, n, b) for b in range(n)]
    ) == Mat.identity(h.ctx, n)
    if not coassoc_ok:
        problems.append("comultiplication is not coassociative")
    if not counit_left_ok:
        problems.append("counit fails on the left tensor leg")
    if not counit_right_ok:
        problems.append("counit fails on the right tensor leg")
    return problems


def check_bialgebra_compat(h: Hopf) -> list[str]:
    problems = []
    n = h.dim
    counit_ok = all(h.counit_value(h.table[i][j]) == h.counit[i] * h.counit[j]
                    for i in range(n) for j in range(n))
    if not multiplicative_into_tensor(h.comult, h, h, h):
        problems.append("comultiplication is not an algebra morphism")
    if h.comult.apply(h.unit) != tensor_vec(h.unit, h.unit):
        problems.append("comultiplication does not fix the unit")
    if not counit_ok:
        problems.append("counit is not an algebra morphism")
    if h.counit_value(h.unit) != h.ctx.one():
        problems.append("counit does not send the unit to 1")
    return problems


def check_antipode(h: Hopf) -> list[str]:
    problems = []
    n = h.dim
    left_ok = True
    right_ok = True
    for j in range(n):
        target = vscale(h.counit[j], h.unit)
        left = h.zero()
        right = h.zero()
        for idx, c in enumerate(h.comult.col(j)):
            if c.is_zero():
                continue
            a, b = divmod(idx, n)
            left = vadd(left, vscale(c, h.multiply(h.antipode.col(a),
                                                   h.basis_element(b))))
            right = vadd(right, vscale(c, h.multiply(h.basis_element(a),
                                                     h.antipode.col(b))))
        if left != target:
            left_ok = False
        if right != target:
            right_ok = False
    if not left_ok:
        problems.append("antipode fails the left convolution identity")
    if not right_ok:
        problems.append("antipode fails the right convolution identity")
    return problems


AXIOM_FAMILIES = ("algebra", "coalgebra", "comult-morphism", "counit-morphism",
                  "antipode")


def hopf_axiom_report(h: Hopf) -> dict[str, list[str]]:
    """Violations grouped into the five axiom families (empty lists = pass)."""
    compat = check_bialgebra_compat(h)
    return {
        "algebra": check_algebra(h),
        "coalgebra": check_coalgebra(h),
        "comult-morphism": [p for p in compat if p.startswith("comultiplication")],
        "counit-morphism": [p for p in compat if p.startswith("counit")],
        "antipode": check_antipode(h),
    }


def check_hopf(h: Hopf) -> list[str]:
    report = hopf_axiom_report(h)
    return [p for fam in AXIOM_FAMILIES for p in report[fam]]


def antipode_inverse(h: Hopf) -> Mat:
    try:
        return inverse(h.antipode)
    except DimensionMismatch:
        raise SingularAntipode("the antipode matrix is singular")


# -- grouplikes ---------------------------------------------------------------


def is_grouplike(h: Hopf, v: Sequence[FieldElement]) -> bool:
    v = tuple(v)
    return (h.comult.apply(v) == tensor_vec(v, v)
            and h.counit_value(v) == h.ctx.one())


def coalgebra_components(h: Hopf) -> list[list[int]]:
    """Connected components of the basis under appearing together in some
    coproduct; each component spans a subcoalgebra direct summand."""
    n = h.dim
    parent = list(range(n))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    def union(a, b):
        parent[find(a)] = find(b)

    for j in range(n):
        col = h.comult.col(j)
        touched = set()
        for idx, c in enumerate(col):
            if not c.is_zero():
                touched.add(idx // n)
                touched.add(idx % n)
        for t in touched:
            union(j, t)
    groups: dict[int, list[int]] = {}
    for j in range(n):
        groups.setdefault(find(j), []).append(j)
    return [sorted(g) for g in sorted(groups.values())]


def _right_slice_op(h: Hopf, k: int) -> Mat:
    return slice_right(h.comult, h.dim, h.dim, k)


def grouplike_elements(h: Hopf) -> list[Vec]:
    """All grouplike elements, exactly.

    A grouplike lies inside one coalgebra component.  If every basis vector
    of a component is itself grouplike, the component contributes exactly
    those (coefficients there satisfy c_g*c_h = delta*c_g, so over a field
    exactly one coefficient is 1).  Otherwise each coordinate of a grouplike
    is an eigenvalue of the matching right coproduct slice, and the search
    branches over the exactly-computed spectra.
    """
    out: list[Vec] = []
    for comp in coalgebra_components(h):
        members = [basis_vector(h.ctx, h.dim, j) for j in comp]
        if all(is_grouplike(h, v) for v in members):
            out.extend(members)
            continue
        out.extend(_grouplikes_by_slices(h, comp))
    return out


def _grouplikes_by_slices(h: Hopf, comp: list[int]) -> list[Vec]:
    ctx = h.ctx
    n = h.dim
    span = Subspace.from_vectors(ctx, n, [basis_vector(ctx, n, j) for j in comp])
    found: list[Vec] = []

    def recurse(space: Subspace, assignment: dict[int, FieldElement],
                remaining: list[int]):
        if space.dim == 0:
            return
        if not remaining:
            v = [ctx.zero()] * n
            for k, c in assignment.items():
                v[k] = c
            v = tuple(v)
            if space.contains(v) and is_grouplike(h, v):
                found.append(v)
            return
        k, rest = remaining[0], remaining[1:]
        op = _right_slice_op(h, k)
        restricted = restrict_operator(op, span)
        minpoly = minimal_polynomial(restricted)
        roots = polynomial_roots(ctx, minpoly)
        if roots is None:
            raise HopfExactError(
                f"grouplike enumeration cannot decide the roots of slice {k}'s "
                f"minimal polynomial (degree {len(minpoly) - 1}) in this field")
        for c in roots:
            refined = space.intersect(eigenspace(op, c))
            recurse(refined, {**assignment, k: c}, rest)

    recurse(span, {}, list(comp))
    return found


# -- wedge and coradical filtration -------------------------------------------


def wedge(h: Hopf, x: Subspace, y: Subspace) -> Subspace:
    """The subspace of vectors whose coproduct lies in X(x)H + H(x)Y."""
    n = h.dim
    if x.ambient != n or y.ambient != n:
        raise DimensionMismatch("wedge arguments must live in the Hopf algebra")
    ctx = h.ctx
    gens = []
    for xv in x.basis():
        for j in range(n):
            gens.append(tensor_vec(xv, basis_vector(ctx, n, j)))
    for j in range(n):
        ej = basis_vector(ctx, n, j)
        for yv in y.basis():
            gens.append(tensor_vec(ej, yv))
    target = Subspace.from_vectors(ctx, n * n, gens)
    return target.preimage_under(h.comult)


def is_subcoalgebra(h: Hopf, c: Subspace) -> bool:
    n = h.dim
    gens = [tensor_vec(a, b) for a in c.basis() for b in c.basis()]
    tensor_sq = Subspace.from_vectors(h.ctx, n * n, gens)
    return all(tensor_sq.contains(h.comult.apply(v)) for v in c.basis())


def coradical_filtration(h: Hopf, c0: Subspace) -> list[Subspace]:
    """Ascending filtration C0 <= C1 <= ... <= H obtained by wedging with C0.

    ``c0`` must be a subcoalgebra; if the chain stabilises before reaching
    the whole algebra, :class:`FiltrationNotExhaustive` is raised.
    """
    if c0.ambient != h.dim:
        raise DimensionMismatch("filtration seed must live in the Hopf algebra")
    if not is_subcoalgebra(h, c0):
        raise NotASubcoalgebra("the seed is not a subcoalgebra")
    chain = [c0]
    while chain[-1].dim < h.dim:
        nxt = wedge(h, c0, chain[-1])
        if nxt == chain[-1]:
            raise FiltrationNotExhaustive(
                f"filtration stabilised at dimension {nxt.dim} of {h.dim}")
        chain.append(nxt)
    return chain


def rebase_hopf(h: Hopf, ctx: FieldContext) -> Hopf:
    """The same Hopf algebra with every structure constant coerced into ctx.

    The target context must contain the original one (larger cyclotomic
    order, or an extra adjoined square root); coercion failures propagate
    from the scalar layer.
    """
    unit = [c.coerce(ctx) for c in h.unit]
    table = [[[c.coerce(ctx) for c in cell] for cell in row] for row in h.table]
    comult = Mat(ctx, h.comult.rows)
    counit = [c.coerce(ctx) for c in h.counit]
    antipode = Mat(ctx, h.antipode.rows)
    return Hopf(ctx, h.labels, unit, table, comult, counit, antipode)
