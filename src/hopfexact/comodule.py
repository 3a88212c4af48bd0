"""Comodules and comodule algebras over a Hopf algebra, with exact verdicts.

A left coaction on V is stored as a ``(dim_H * dim_V) x dim_V`` matrix: the
column for basis vector ``j`` holds the coordinates of its coaction image in
H (x) V, with the Hopf leg on the coarse index.  All axioms are checked
sparsely, basis column by basis column.

The module also hosts the decomposition machinery that is special to the
eight-dimensional Hopf algebra from :func:`~hopfexact.constructions.build_kp`:
splitting a comodule into its group-graded part and the 2-dimensional-corep
part, the involution tau exchanging the two legs of the latter, and the
further eigenvalue decomposition of comodule algebras under their grouplike
units.  Last come the map (id (x) chi) o coaction from a comodule algebra
into H for a character chi, which is the shape of every colinear algebra map
into H, and the left coideal subalgebras of H that such maps land in.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Sequence

from .algebra import Algebra, check_algebra, multiplicative_into_tensor
# mixed_tensor_product is re-exported for callers that import it from here
from .algebra import mixed_tensor_product  # noqa: F401
from .errors import (
    BadWitness,
    DimensionMismatch,
    HopfExactError,
    MissingGrouplikeUnits,
    NotOverKp,
)
from .field import FieldContext, FieldElement, sqrt_in_context
from .hopf import Hopf, coaction_laws, rebase_hopf
from .linalg import (
    Mat,
    Scalar,
    Subspace,
    Vec,
    _kernel_rows,
    _sparse,
    _subtract_multiple,
    basis_vector,
    eigenspace,
    inverse,
    kernel,
    kron,
    rank,
    slice_left,
    solve,
    tensor_vec,
    vscale,
)


class Comodule:
    """A left H-comodule presented by its coaction matrix."""

    def __init__(self, hopf: Hopf, dim: int, coaction: Mat):
        if coaction.nrows != hopf.dim * dim or coaction.ncols != dim:
            raise DimensionMismatch(
                f"coaction must be {hopf.dim * dim}x{dim}, got "
                f"{coaction.nrows}x{coaction.ncols}")
        if coaction.ctx != hopf.ctx:
            raise DimensionMismatch("coaction and Hopf algebra contexts differ")
        self.hopf = hopf
        self.dim = dim
        self.coaction = coaction

    @property
    def ctx(self) -> FieldContext:
        return self.hopf.ctx

    def __repr__(self):
        return f"Comodule(dim={self.dim} over Hopf dim={self.hopf.dim})"


class ComoduleAlgebra(Algebra):
    """An algebra in the category of left H-comodules."""

    def __init__(self, hopf: Hopf, labels, unit, table, coaction: Mat):
        super().__init__(hopf.ctx, labels, unit, table)
        if coaction.nrows != hopf.dim * self.dim or coaction.ncols != self.dim:
            raise DimensionMismatch(
                f"coaction must be {hopf.dim * self.dim}x{self.dim}, got "
                f"{coaction.nrows}x{coaction.ncols}")
        self.hopf = hopf
        self.coaction = coaction

    def __repr__(self):
        return (f"ComoduleAlgebra(dim={self.dim}, labels={list(self.labels)}, "
                f"over Hopf dim={self.hopf.dim})")


ComoduleLike = Comodule | ComoduleAlgebra


def coaction_slice(c: ComoduleLike, h_index: int) -> Mat:
    """The operator (h-th coordinate functional (x) id) o coaction on V."""
    return slice_left(c.coaction, c.hopf.dim, c.dim, h_index)


def direct_sum_coaction(nh: int, first: Mat, second: Mat) -> Mat:
    """The block-diagonal coaction on V (+) W, given the coaction matrices
    of V and W over a Hopf algebra of dimension ``nh``."""
    ctx = first.ctx
    n, m = first.ncols, second.ncols
    cols = []
    for coaction, dim, offset in ((first, n, 0), (second, m, n)):
        for j in range(dim):
            col = [ctx.zero()] * (nh * (n + m))
            for idx, c in enumerate(coaction.col(j)):
                hh, k = divmod(idx, dim)
                col[hh * (n + m) + offset + k] = c
            cols.append(tuple(col))
    return Mat.from_columns(ctx, cols)


def check_comodule(c: ComoduleLike) -> list[str]:
    problems = []
    coassoc_ok, counit_ok = coaction_laws(c.hopf, c.dim, c.coaction)
    if not coassoc_ok:
        problems.append("coaction is not coassociative")
    if not counit_ok:
        problems.append("coaction fails the counit law")
    return problems


def check_comodule_algebra(a: ComoduleAlgebra) -> list[str]:
    problems = check_algebra(a) + check_comodule(a)
    if not multiplicative_into_tensor(a.coaction, a, a.hopf, a):
        problems.append("coaction is not an algebra morphism")
    if a.coaction.apply(a.unit) != tensor_vec(a.hopf.unit, a.unit):
        problems.append("coaction does not send the unit to 1 (x) 1")
    return problems


# -- invariants and isotypic parts -------------------------------------------


def isotypic_part(c: ComoduleLike, g: Sequence[FieldElement]) -> Subspace:
    """The subspace {v : coaction(v) = g (x) v} for a fixed element g of H:
    the kernel of ``coaction - g (x) id``, whose row ``h*dim + k`` is row
    ``h*dim + k`` of the coaction less ``g[h]`` at column k."""
    ctx, n = c.ctx, c.dim
    one = ctx.one()
    rows = []
    for idx, r in enumerate(c.coaction.rows):
        h, k = divmod(idx, n)
        row = _sparse(r)
        _subtract_multiple(row, g[h], {k: one})
        rows.append(row)
    return Subspace.from_vectors(ctx, n, _kernel_rows(ctx, rows, n))


def coinvariants(c: ComoduleLike) -> Subspace:
    """Vectors on which the coaction is trivial."""
    return isotypic_part(c, c.hopf.unit)


def graded_component_span(c: ComoduleLike, h_subspace: Subspace) -> Subspace:
    """The preimage of (subspace of H) (x) V under the coaction."""
    nh, nv = c.hopf.dim, c.dim
    gens = []
    for hv in h_subspace.basis():
        for j in range(nv):
            gens.append(tensor_vec(hv, basis_vector(c.ctx, nv, j)))
    target = Subspace.from_vectors(c.ctx, nh * nv, gens)
    return target.preimage_under(c.coaction)


# -- decomposition over the eight-dimensional Hopf algebra --------------------


@dataclass
class KpParts:
    """Comodule split over the 8-dimensional Hopf algebra: the group-graded
    part, the 2-corep part with its two canonical legs, and the exchange
    involution tau (given as an operator on the whole comodule that is zero
    on the group-graded part)."""
    group_part: Subspace
    two_part: Subspace
    v_leg: Subspace
    w_leg: Subspace
    tau: Mat


@lru_cache(maxsize=None)
def _reference_kp(ctx: FieldContext) -> Hopf:
    """The standard kp over ``ctx``, built once per context."""
    from .constructions import build_kp
    return build_kp(ctx)


def _require_over_kp(c: ComoduleLike) -> Hopf:
    h = c.hopf
    reference = _reference_kp(h.ctx)
    same = (h.dim == reference.dim and h.table == reference.table
            and h.comult == reference.comult and h.counit == reference.counit
            and h.antipode == reference.antipode)
    if not same:
        raise NotOverKp(
            "this decomposition needs the 8-dimensional Hopf algebra with its "
            "standard basis order")
    return h


def kp_decompose(c: ComoduleLike) -> KpParts:
    h = _require_over_kp(c)
    ctx = c.ctx
    n = c.dim
    group_span = Subspace.from_vectors(ctx, 8,
                                       [basis_vector(ctx, 8, j) for j in range(4)])
    z_span = Subspace.from_vectors(ctx, 8,
                                   [basis_vector(ctx, 8, 4 + j) for j in range(4)])
    group_part = graded_component_span(c, group_span)
    two_part = graded_component_span(c, z_span)
    if group_part.dim + two_part.dim != n:
        raise HopfExactError(
            "comodule does not split into group-graded and 2-corep parts")
    iz, izx, izy, izxy = (h.label_index(lab) for lab in ("z", "zx", "zy", "zxy"))
    v_leg = two_part.intersect(
        Subspace.from_vectors(ctx, n, kernel(coaction_slice(c, izy))))
    w_leg = two_part.intersect(
        Subspace.from_vectors(ctx, n, kernel(coaction_slice(c, iz))))
    if v_leg.dim + w_leg.dim != two_part.dim:
        raise HopfExactError("the two legs of the 2-corep part do not split it")
    tau_on_v = coaction_slice(c, iz) - coaction_slice(c, izx)
    tau_on_w = coaction_slice(c, izy) - coaction_slice(c, izxy)
    columns_in = (list(v_leg.basis()) + list(w_leg.basis())
                  + list(group_part.basis()))
    columns_out = ([tau_on_v.apply(v) for v in v_leg.basis()]
                   + [tau_on_w.apply(w) for w in w_leg.basis()]
                   + [tuple(ctx.zero() for _ in range(n))
                      for _ in group_part.basis()])
    base = Mat.from_columns(ctx, columns_in)
    tau = Mat.from_columns(ctx, columns_out) @ inverse(base)
    return KpParts(group_part, two_part, v_leg, w_leg, tau)


@dataclass
class MuParts:
    """Eigen-decomposition of the 2-corep legs of a comodule algebra under
    right multiplication by the x-unit and left multiplication by the y-unit.
    Keys are (right-x eigenvalue, left-y eigenvalue) as integers +-1."""
    x_unit: Vec
    y_unit: Vec
    v_parts: dict[tuple[int, int], Subspace]
    w_parts: dict[tuple[int, int], Subspace]


def _normalized_grouplike_unit(a: ComoduleAlgebra, label: str) -> Vec:
    g = a.hopf.basis_element(label)
    part = isotypic_part(a, g)
    if part.dim != 1:
        raise MissingGrouplikeUnits(
            f"the {label}-graded component has dimension {part.dim}, need 1")
    u = part.basis()[0]
    square = a.multiply(u, u)
    coeff = None
    for c, unit_c in zip(square, a.unit):
        if unit_c.is_zero():
            if not c.is_zero():
                raise MissingGrouplikeUnits(
                    f"the square of the {label}-graded generator is not scalar")
        else:
            coeff = c / unit_c
    if coeff is None or coeff.is_zero():
        raise MissingGrouplikeUnits(
            f"the {label}-graded generator squares to zero")
    if vscale(coeff, a.unit) != square:
        raise MissingGrouplikeUnits(
            f"the square of the {label}-graded generator is not scalar")
    root = sqrt_in_context(coeff)
    return vscale(root.inverse(), u)


def mu_decompose(a: ComoduleAlgebra) -> MuParts:
    parts = kp_decompose(a)
    ex = _normalized_grouplike_unit(a, "x")
    ey = _normalized_grouplike_unit(a, "y")
    right_x = a.right_mult(ex)
    left_y = a.left_mult(ey)
    ctx = a.ctx
    one, minus = ctx.one(), ctx.scalar(-1)
    v_parts = {}
    w_parts = {}
    for s_r, ev_r in ((1, one), (-1, minus)):
        for s_l, ev_l in ((1, one), (-1, minus)):
            cell = eigenspace(right_x, ev_r).intersect(eigenspace(left_y, ev_l))
            v_parts[(s_r, s_l)] = parts.v_leg.intersect(cell)
            w_parts[(s_r, s_l)] = parts.w_leg.intersect(cell)
    if sum(s.dim for s in v_parts.values()) != parts.v_leg.dim:
        raise HopfExactError("the 2-corep leg is not split by the unit actions")
    return MuParts(ex, ey, v_parts, w_parts)


# -- the map phi into H and the coideal subalgebras it lands in --------------


@dataclass
class PhiReport:
    """The map (id (x) character) o coaction from the algebra into H, with
    its verdicts."""
    matrix: Mat
    injective: bool
    algebra_morphism: bool
    image: Subspace
    image_is_left_coideal: bool
    image_is_subalgebra: bool


def phi_embed(a: ComoduleAlgebra, witness: Sequence[Scalar]) -> PhiReport:
    """Collapse the algebra leg of the coaction with a character and land in H.

    ``witness`` gives the character chi: A -> k by its values on A's own
    basis; it is rejected with :class:`BadWitness` unless it is a unital
    algebra character.  The map is (id (x) chi) o coaction.  Every colinear
    algebra map f: A -> H has this form, with chi = counit o f, since
    f = (id (x) counit) o comult o f = (id (x) counit o f) o coaction.
    """
    ctx = a.ctx
    nh, na = a.hopf.dim, a.dim
    w = [c if isinstance(c, FieldElement) else ctx.scalar(c) for c in witness]
    if len(w) != na:
        raise BadWitness(
            f"witness has {len(w)} coordinates, the algebra has {na}")

    def char(vec: Sequence[FieldElement]) -> FieldElement:
        acc = ctx.zero()
        for c, x in zip(w, vec):
            acc = acc + c * x
        return acc

    if char(a.unit) != ctx.one():
        raise BadWitness("witness does not send the unit to 1")
    for i in range(na):
        for j in range(na):
            if char(a.table[i][j]) != w[i] * w[j]:
                raise BadWitness("witness is not multiplicative")
    phi = kron(Mat.identity(ctx, nh), Mat(ctx, [w])) @ a.coaction
    injective = rank(phi) == na
    algebra_ok = (phi.apply(a.unit) == a.hopf.unit)
    if algebra_ok:
        for i in range(na):
            for j in range(na):
                if phi.apply(a.table[i][j]) != a.hopf.multiply(phi.col(i),
                                                               phi.col(j)):
                    algebra_ok = False
    image = Subspace.from_vectors(ctx, nh, [phi.col(j) for j in range(na)])
    coideal_ok = all(
        _in_tensor_right(a.hopf, image, a.hopf.comult.apply(v))
        for v in image.basis())
    subalg_ok = all(image.contains(a.hopf.multiply(u, v))
                    for u in image.basis() for v in image.basis())
    return PhiReport(phi, injective, algebra_ok, image, coideal_ok, subalg_ok)


def _in_tensor_right(h: Hopf, right_space: Subspace, vec_hh: Vec) -> bool:
    """Is a vector of H (x) H inside H (x) (subspace)?"""
    n = h.dim
    gens = []
    for j in range(n):
        ej = basis_vector(h.ctx, n, j)
        for s in right_space.basis():
            gens.append(tensor_vec(ej, s))
    return Subspace.from_vectors(h.ctx, n * n, gens).contains(vec_hh)


def coideal_generated(h: Hopf, seeds: Sequence[Vec]) -> Subspace:
    """Smallest subspace containing the seeds and the unit that is closed
    under all left coproduct slices (so its coproduct lies in H (x) itself)
    and under multiplication."""
    from .linalg import RrefAccumulator
    n = h.dim
    ctx = h.ctx
    slices = [slice_left(h.comult, n, n, idx) for idx in range(n)]
    acc = RrefAccumulator(ctx, n)
    basis: list[Vec] = []
    queue: list[Vec] = [h.unit] + [tuple(s) for s in seeds]
    while queue:
        v = queue.pop()
        if acc.add(v):
            for sl in slices:
                queue.append(sl.apply(v))
            for b in basis:
                queue.append(h.multiply(v, b))
                queue.append(h.multiply(b, v))
            queue.append(h.multiply(v, v))
            basis.append(v)
    return acc.subspace()


def _subalgebra_on_basis(a: Algebra, basis: Sequence[Vec]
                         ) -> Optional[Algebra]:
    """Express a multiplicatively closed subspace as an algebra of its own,
    in the coordinates over ``basis``; None when the subspace is not closed
    under multiplication or misses the unit.
    """
    span = Subspace.from_vectors(a.ctx, a.dim, basis)
    if not span.contains(a.unit):
        return None
    body = Mat.from_columns(a.ctx, basis)
    unit_coords = solve(body, a.unit)
    table = []
    for u in basis:
        row = []
        for v in basis:
            prod = a.multiply(u, v)
            if not span.contains(prod):
                return None
            row.append(solve(body, prod))
        table.append(row)
    labels = [f"b{i}" for i in range(len(basis))]
    return Algebra(a.ctx, labels, unit_coords, table)


def comodule_algebra_from_subspace(h: Hopf, space: Subspace
                                   ) -> ComoduleAlgebra:
    """Realise a unital subalgebra of H that is also a left coideal as a
    comodule algebra in its own right, coacted on by the restricted coproduct.

    Raises :class:`HopfExactError` when the subspace misses the unit, is not
    closed under multiplication, or its coproduct leaves H (x) (subspace).
    """
    basis = space.basis()
    sub = _subalgebra_on_basis(h, basis)
    if sub is None:
        raise HopfExactError(
            "subspace is not a unital subalgebra of the Hopf algebra")
    n, d = h.dim, len(basis)
    body = Mat.from_columns(h.ctx, basis)
    rows: list[list[FieldElement]] = [[h.ctx.zero()] * d for _ in range(n * d)]
    for j, v in enumerate(basis):
        dv = h.comult.apply(v)
        for a_idx in range(n):
            piece = tuple(dv[a_idx * n + k] for k in range(n))
            if all(c.is_zero() for c in piece):
                continue
            coords = solve(body, piece)
            if coords is None:
                raise HopfExactError(
                    "coproduct of the subspace leaves H (x) (subspace)")
            for k in range(d):
                rows[a_idx * d + k][j] = coords[k]
    return ComoduleAlgebra(h, sub.labels, sub.unit, sub.table,
                           Mat(h.ctx, rows))


def rebase_comodule_algebra(a: ComoduleAlgebra,
                            ctx: FieldContext) -> ComoduleAlgebra:
    """The same comodule algebra with every scalar coerced into ctx, the
    Hopf algebra included."""
    h = rebase_hopf(a.hopf, ctx)
    unit = [c.coerce(ctx) for c in a.unit]
    table = [[[c.coerce(ctx) for c in cell] for cell in row]
             for row in a.table]
    return ComoduleAlgebra(h, a.labels, unit, table, Mat(ctx, a.coaction.rows))
