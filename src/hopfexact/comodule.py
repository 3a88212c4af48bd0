"""Comodules and comodule algebras over a Hopf algebra, with exact verdicts.

A left coaction on V is stored as a ``(dim_H * dim_V) x dim_V`` matrix: the
column for basis vector ``j`` holds the coordinates of its coaction image in
H (x) V, with the Hopf leg on the coarse index.  The comodule laws are
identities of sparse matrices (:func:`~hopfexact.hopf.coaction_laws`), and
the multiplicativity of a coaction, a product of two tensor legs, goes
through :func:`~hopfexact.algebra.tensor_product`, on A's generators once A
and H are associative.

The module also reads off the isotypic parts of a coaction, the vectors v
with coaction(v) = g (x) v for a fixed g of H.  Last come the map (id (x)
chi) o coaction from a comodule algebra into H for a character chi, which
is the shape of every colinear algebra map into H, and the left coideal
subalgebras of H that such maps land in.  Their checks are identities too:
chi is multiplicative when ``chi m == chi (x) chi``, and the image of phi is
a left coideal when ``(id (x) quotient) Delta phi`` vanishes, ``quotient``
being the functionals that vanish on the image.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Optional, Sequence

from .algebra import (NOT_ASSOCIATIVE, Algebra, algebra_on_span,
                      check_algebra, is_algebra_morphism, is_associative,
                      multiplicative_into_tensor)
from .errors import BadWitness, DimensionMismatch, HopfExactError
from .field import FieldContext, FieldElement
from .hopf import Hopf, coaction_laws, rebase_hopf
from .linalg import (
    Mat,
    Row,
    Scalar,
    Subspace,
    Vec,
    _sparse,
    kernel,
    kron,
    kron_matmul,
    rank,
    slice_left,
    solve,
    spin,
    tensor_vec,
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
        # the verdicts of check_comodule_algebra and check_exactness, each
        # decided once per object
        self._axiom_problems: Optional[tuple[str, ...]] = None
        self._exactness = None

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
    n, m = first.ncols, second.ncols
    rows: list[Row] = [{} for _ in range(nh * (n + m))]
    for coaction, dim, offset in ((first, n, 0), (second, m, n)):
        for idx, r in enumerate(coaction.entries):
            hh, k = divmod(idx, dim)
            rows[hh * (n + m) + offset + k] = {offset + j: c
                                               for j, c in r.items()}
    return Mat.from_entries(first.ctx, rows, n + m)


def check_comodule(c: ComoduleLike) -> list[str]:
    problems = []
    coassoc_ok, counit_ok = coaction_laws(c.hopf, c.dim, c.coaction)
    if not coassoc_ok:
        problems.append("coaction is not coassociative")
    if not counit_ok:
        problems.append("coaction fails the counit law")
    return problems


def check_comodule_algebra(a: ComoduleAlgebra) -> list[str]:
    """The algebra and comodule laws, and that the coaction is a unital
    algebra map, on A's generators if A and H are associative.

    The verdict is decided once and stored on ``a``, whose table, coaction
    and Hopf algebra never change; each call returns a fresh list."""
    if a._axiom_problems is None:
        algebra = check_algebra(a)
        problems = algebra + check_comodule(a)
        associative = NOT_ASSOCIATIVE not in algebra and is_associative(a.hopf)
        if not multiplicative_into_tensor(
                a.coaction, a, a.hopf, a,
                a.generators() if associative else None):
            problems.append("coaction is not an algebra morphism")
        if a.coaction.apply(a.unit) != tensor_vec(a.hopf.unit, a.unit):
            problems.append("coaction does not send the unit to 1 (x) 1")
        a._axiom_problems = tuple(problems)
    return list(a._axiom_problems)


# -- invariants and isotypic parts -------------------------------------------


def isotypic_part(c: ComoduleLike, g: Sequence[FieldElement]) -> Subspace:
    """The subspace {v : coaction(v) = g (x) v} for a fixed element g of H:
    the kernel of ``coaction - g (x) id``."""
    ctx, n = c.ctx, c.dim
    shifted = c.coaction - kron(Mat.from_columns(ctx, [g]),
                                Mat.identity(ctx, n))
    return Subspace.from_vectors(ctx, n, kernel(shifted))


def coinvariants(c: ComoduleLike) -> Subspace:
    """Vectors on which the coaction is trivial."""
    return isotypic_part(c, c.hopf.unit)


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
    ctx, h = a.ctx, a.hopf
    nh, na = h.dim, a.dim
    w = [c if isinstance(c, FieldElement) else ctx.scalar(c) for c in witness]
    if len(w) != na:
        raise BadWitness(
            f"witness has {len(w)} coordinates, the algebra has {na}")
    chi = Mat(ctx, [w])
    if chi.apply(a.unit) != (ctx.one(),):
        raise BadWitness("witness does not send the unit to 1")
    if chi @ a.mult_matrix() != kron(chi, chi):
        raise BadWitness("witness is not multiplicative")
    phi = kron_matmul(None, chi, a.coaction)
    injective = rank(phi) == na
    algebra_ok = is_algebra_morphism(a, h, phi)
    image = Subspace.from_vectors(ctx, nh, phi.transpose().rows)
    # the functionals that vanish on the image: the image is a left coideal
    # when (id (x) quotient) Delta phi is zero, and a subalgebra when
    # quotient m (phi (x) phi) is
    quotient = Mat.from_entries(ctx, map(_sparse, image.annihilator()), nh)
    coideal_ok = not any(
        kron_matmul(None, quotient, h.comult @ phi).entries)
    subalg_ok = not any(
        (quotient @ h.mult_matrix() @ kron(phi, phi)).entries)
    return PhiReport(phi, injective, algebra_ok, image, coideal_ok, subalg_ok)


def coideal_generated(h: Hopf, seeds: Sequence[Vec]) -> Subspace:
    """Smallest subalgebra of H that contains the seeds and is a left
    coideal, as two spins: the seeds and the unit under the left coproduct
    slices span the smallest left coideal C containing them, and the unit
    and C under left multiplication by the basis of C span words(C), the
    subalgebra that C generates.  It is a left coideal, since
    Delta(c_1...c_k) = Delta(c_1)...Delta(c_k) lies in H (x) words(C) when
    each Delta(c_i) lies in H (x) C; and a left coideal subalgebra that
    contains the seeds contains C, and so words(C)."""
    n, ctx = h.dim, h.ctx
    slices = [slice_left(h.comult, n, n, idx) for idx in range(n)]
    coideal = spin(ctx, n, [h.unit, *seeds], slices).basis()
    return spin(ctx, n, [h.unit, *coideal], [h.left_mult(c) for c in coideal])


def comodule_algebra_from_subspace(h: Hopf, space: Subspace
                                   ) -> ComoduleAlgebra:
    """Realise a unital subalgebra of H that is also a left coideal as a
    comodule algebra in its own right, coacted on by the restricted coproduct.

    The algebra is the span of the canonical basis of ``space``, labelled
    ``b0, b1, ...``; the coaction column of a basis vector holds the
    coordinates of each left slice of its coproduct over that basis.
    Raises :class:`HopfExactError` when the subspace misses the unit, is not
    closed under multiplication, or its coproduct leaves H (x) (subspace).
    """
    ctx, n, d = h.ctx, h.dim, space.dim
    body = Mat.from_entries(ctx, space.pivot_rows.values(), n).transpose()
    unit, table = algebra_on_span(body, h.unit,
                                  h.mult_matrix() @ kron(body, body))
    cols = []
    for dv in (h.comult @ body).transpose().rows:
        coords = [solve(body, dv[k * n:(k + 1) * n]) for k in range(n)]
        if any(c is None for c in coords):
            raise HopfExactError(
                "coproduct of the subspace leaves H (x) (subspace)")
        cols.append(tuple(chain.from_iterable(coords)))
    return ComoduleAlgebra(h, [f"b{i}" for i in range(d)], unit, table,
                           Mat.from_columns(ctx, cols))


def rebase_comodule_algebra(a: ComoduleAlgebra,
                            ctx: FieldContext) -> ComoduleAlgebra:
    """The same comodule algebra with every scalar coerced into ctx, the
    Hopf algebra included."""
    h = rebase_hopf(a.hopf, ctx)
    unit = [c.coerce(ctx) for c in a.unit]
    table = [[[c.coerce(ctx) for c in cell] for cell in row]
             for row in a.table]
    return ComoduleAlgebra(h, a.labels, unit, table, a.coaction.coerce(ctx))
