"""Hopf algebras as exact data: the axiom checks and the antipode inverse.

A :class:`Hopf` is an :class:`~hopfexact.algebra.Algebra` with a
comultiplication matrix (``dim**2 x dim``, the column for basis vector ``j``
holding the coordinates of its coproduct with the left tensor leg on the
coarse index), a counit functional, and an antipode matrix.  H coacting on
itself by its coproduct is its regular comodule algebra (Montgomery, Hopf
Algebras and Their Actions on Rings, 1993, section 4.1), so a Hopf algebra
is a :class:`ComoduleAlgebra`, defined here and checked in
:mod:`hopfexact.comodule`, with ``h.hopf is h`` and ``h.coaction is
h.comult``.  Every axiom is checked exactly, and an axiom that is not a
product of two tensor legs is one identity of sparse structure matrices,
built with ``kron`` and ``@``, or with :func:`~hopfexact.linalg.kron_matmul`
where a tensor factor is the identity: with ``m`` the multiplication matrix,
the antipode law is ``m (S (x) id) Delta == unit counit``, and the counit is
multiplicative when ``counit m == counit (x) counit``.  An identity of
matrices holds on every element.  The Hopf axioms are H's regular
comodule-algebra axioms (:func:`~hopfexact.comodule.check_comodule_algebra`:
the algebra laws, coassociativity, the left counit law and the coproduct
as a unital algebra map) plus three laws of H's own: the right counit
law, the counit as a unital algebra map, and the antipode identities.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .algebra import Algebra
from .errors import DimensionMismatch, SingularAntipode
from .field import FieldContext, FieldElement, scal
from .linalg import Mat, Scalar, Vec, inverse, kron, kron_matmul


def require_coaction_shape(hopf: Hopf, dim: int, coaction: Mat) -> None:
    """Refuse a coaction on a space of dimension ``dim`` that is not a
    ``(hopf.dim * dim) x dim`` matrix over ``hopf``'s context."""
    if coaction.nrows != hopf.dim * dim or coaction.ncols != dim:
        raise DimensionMismatch(
            f"coaction must be {hopf.dim * dim}x{dim}, got "
            f"{coaction.nrows}x{coaction.ncols}")
    if coaction.ctx != hopf.ctx:
        raise DimensionMismatch("coaction and Hopf algebra contexts differ")


class ComoduleAlgebra(Algebra):
    """An algebra in the category of left H-comodules."""

    def __init__(self, hopf: Hopf, labels, unit, table, coaction: Mat):
        super().__init__(hopf.ctx, labels, unit, table)
        require_coaction_shape(hopf, self.dim, coaction)
        self.hopf = hopf
        self.coaction = coaction
        # the verdicts of check_comodule_algebra and check_exactness, each
        # decided once per object
        self._axiom_problems: Optional[tuple[str, ...]] = None
        self._exactness = None

    def __repr__(self):
        return (f"ComoduleAlgebra(dim={self.dim}, labels={list(self.labels)}, "
                f"over Hopf dim={self.hopf.dim})")


class Hopf(ComoduleAlgebra):
    """A Hopf algebra by exact structure matrices, coacting on itself."""

    def __init__(self, ctx: FieldContext, labels: Sequence[str],
                 unit: Sequence[Scalar],
                 table: Sequence[Sequence[Sequence[Scalar]]],
                 comult: Mat, counit: Sequence[Scalar], antipode: Mat):
        # the coacting Hopf algebra is self, whose context is read first
        self.ctx = ctx
        super().__init__(self, labels, unit, table, comult)
        n = self.dim
        if len(counit) != n:
            raise DimensionMismatch(f"counit must have {n} coordinates")
        if antipode.nrows != n or antipode.ncols != n:
            raise DimensionMismatch(f"antipode must be {n}x{n}")
        self.counit: Vec = tuple(scal(ctx, c) for c in counit)
        self.antipode = antipode

    @property
    def comult(self) -> Mat:
        return self.coaction

    def counit_value(self, v: Sequence[FieldElement]) -> FieldElement:
        acc = self.ctx.zero()
        for c, x in zip(self.counit, v):
            acc = acc + c * x
        return acc

    def __repr__(self):
        return f"Hopf(dim={self.dim}, labels={list(self.labels)})"


def same_hopf(h: Hopf, k: Hopf) -> bool:
    """Whether ``h`` and ``k`` are the same Hopf algebra: one object, or
    equal context, table, coproduct, counit and antipode."""
    return h is k or (h.ctx == k.ctx and h.table == k.table
                      and h.comult == k.comult and h.counit == k.counit
                      and h.antipode == k.antipode)


# -- axiom checks -------------------------------------------------------------


def check_antipode(h: Hopf) -> list[str]:
    """The convolution identities ``m (S (x) id) Delta == unit counit ==
    m (id (x) S) Delta``."""
    problems = []
    m = h.mult_matrix()
    unit_counit = Mat.from_columns(h.ctx, [h.unit]) @ Mat(h.ctx, [h.counit])
    if m @ kron_matmul(h.antipode, None, h.comult) != unit_counit:
        problems.append("antipode fails the left convolution identity")
    if m @ kron_matmul(None, h.antipode, h.comult) != unit_counit:
        problems.append("antipode fails the right convolution identity")
    return problems


AXIOM_FAMILIES = ("algebra", "coalgebra", "comult-morphism", "counit-morphism",
                  "antipode")


def hopf_axiom_report(h: Hopf) -> dict[str, list[str]]:
    """Violations grouped into the five axiom families (empty lists = pass).

    The Hopf axioms are H's regular comodule-algebra axioms, whose verdict
    :func:`~hopfexact.comodule.check_comodule_algebra` stores on H and whose
    messages are the comodule check's, plus three laws: the right counit
    law, the counit as a unital algebra map, and the antipode identities.
    """
    # comodule.py imports this module
    from .comodule import COMODULE_LAWS, MORPHISM_LAWS, check_comodule_algebra
    shared = check_comodule_algebra(h)
    counit = Mat(h.ctx, [h.counit])
    coalgebra = [p for p in shared if p in COMODULE_LAWS]
    if kron_matmul(None, counit, h.comult) != Mat.identity(h.ctx, h.dim):
        coalgebra.append("counit fails on the right tensor leg")
    counit_morphism = []
    if counit @ h.mult_matrix() != kron(counit, counit):
        counit_morphism.append("counit is not an algebra morphism")
    if h.counit_value(h.unit) != h.ctx.one():
        counit_morphism.append("counit does not send the unit to 1")
    return {
        "algebra": [p for p in shared
                    if p not in COMODULE_LAWS + MORPHISM_LAWS],
        "coalgebra": coalgebra,
        "comult-morphism": [p for p in shared if p in MORPHISM_LAWS],
        "counit-morphism": counit_morphism,
        "antipode": check_antipode(h),
    }


def check_hopf(h: Hopf) -> list[str]:
    """Every violated Hopf axiom, family by family in the order of
    :data:`AXIOM_FAMILIES` (see :func:`hopf_axiom_report`)."""
    report = hopf_axiom_report(h)
    return [p for fam in AXIOM_FAMILIES for p in report[fam]]


def antipode_inverse(h: Hopf) -> Mat:
    try:
        return inverse(h.antipode)
    except DimensionMismatch:
        raise SingularAntipode("the antipode matrix is singular")


def rebase_hopf(h: Hopf, ctx: FieldContext) -> Hopf:
    """The same Hopf algebra with every structure constant coerced into ctx.

    The target context must contain the original one (larger cyclotomic
    order, or an extra adjoined square root); coercion failures propagate
    from the scalar layer.
    """
    unit = [c.coerce(ctx) for c in h.unit]
    table = [[[c.coerce(ctx) for c in cell] for cell in row] for row in h.table]
    counit = [c.coerce(ctx) for c in h.counit]
    return Hopf(ctx, h.labels, unit, table, h.comult.coerce(ctx), counit,
                h.antipode.coerce(ctx))
