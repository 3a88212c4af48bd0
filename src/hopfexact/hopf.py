"""Hopf algebras as exact data: the axiom checks and the antipode inverse.

A :class:`Hopf` is an :class:`~hopfexact.algebra.Algebra` with a
comultiplication matrix (``dim**2 x dim``, the column for basis vector ``j``
holding the coordinates of its coproduct with the left tensor leg on the
coarse index), a counit functional, and an antipode matrix.  H coacting on
itself by its coproduct is its regular comodule algebra (Montgomery, Hopf
Algebras and Their Actions on Rings, 1993, section 4.1), so a Hopf algebra
is a :class:`~hopfexact.comodule.ComoduleAlgebra`, with ``h.hopf is h`` and
``h.coaction is h.comult``.  The comodules sit in the module below, which
this one imports: :mod:`hopfexact.comodule` defines and checks them, and
names H only in annotations.  Every axiom is checked exactly, and an axiom
that is not a product of two tensor legs is one identity of sparse
structure matrices, built with ``kron`` and ``@``, or with
:func:`~hopfexact.linalg.kron_matmul` where a tensor factor is the
identity: with ``m`` the multiplication matrix,
the antipode law is ``m (S (x) id) Delta == unit counit``, and the counit is
multiplicative when ``counit m == counit (x) counit``.  An identity of
matrices holds on every element.  The Hopf axioms are H's regular
comodule-algebra axioms (:func:`~hopfexact.comodule.check_comodule_algebra`:
the algebra laws, coassociativity, the left counit law and the coproduct
as a unital algebra map) plus three laws of H's own: the right counit
law, the counit as a unital algebra map, and the antipode identities.
"""

from __future__ import annotations

from typing import Sequence

from .comodule import (COMODULE_LAWS, MORPHISM_LAWS, ComoduleAlgebra,
                       check_comodule_algebra)
from .errors import DimensionMismatch, SingularAntipode
from .field import FieldContext, FieldElement, scal
from .linalg import Mat, Scalar, Vec, inverse, kron, kron_matmul


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
        if antipode.ctx != ctx:
            raise DimensionMismatch("antipode and Hopf algebra contexts differ")
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


def rebase_comodule_algebra(a: ComoduleAlgebra,
                            ctx: FieldContext) -> ComoduleAlgebra:
    """The same comodule algebra with every scalar coerced into ctx, the
    Hopf algebra included: a Hopf algebra, its own regular comodule
    algebra, rebases to a :class:`Hopf`, and any other comodule algebra
    over its rebased Hopf algebra.

    The target context must contain the original one (larger cyclotomic
    order, or an extra adjoined square root); coercion failures propagate
    from the scalar layer, which coerces the unit, table and counit as the
    structures are built.
    """
    coaction = a.coaction.coerce(ctx)
    if a.hopf is a:
        return Hopf(ctx, a.labels, a.unit, a.table, coaction, a.counit,
                    a.antipode.coerce(ctx))
    return ComoduleAlgebra(rebase_comodule_algebra(a.hopf, ctx), a.labels,
                           a.unit, a.table, coaction)
