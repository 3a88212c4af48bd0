"""Hopf algebras as exact data: the axiom checks and the antipode inverse.

A :class:`Hopf` extends :class:`~hopfexact.algebra.Algebra` with a
comultiplication matrix (``dim**2 x dim``, the column for basis vector ``j``
holding the coordinates of its coproduct with the left tensor leg on the
coarse index), a counit functional, and an antipode matrix.  Every axiom is
checked exactly, and an axiom that is not a product of two tensor legs is
one identity of sparse structure matrices, built with ``kron`` and ``@``,
or with :func:`~hopfexact.linalg.kron_matmul` where a tensor factor is the
identity: with ``m`` the multiplication matrix, the antipode law is ``m (S
(x) id) Delta == unit counit``, and the counit is multiplicative when
``counit m == counit (x) counit``.  An identity of matrices holds on every
element.  The multiplicativity of the coproduct, a product of two tensor
legs, goes through :func:`~hopfexact.algebra.tensor_product`, on H's
generators once Light's test finds H associative.  The coalgebra laws are
the comodule laws of H coacting on itself by its coproduct
(:func:`coaction_laws`, which the comodule checks share), plus the counit
law on the right tensor leg.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .algebra import (NOT_ASSOCIATIVE, Algebra, check_algebra,
                      multiplicative_into_tensor)
from .errors import DimensionMismatch, SingularAntipode
from .field import FieldContext, FieldElement, scal
from .linalg import Mat, Scalar, Vec, inverse, kron, kron_matmul, tensor_vec


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
        # H coacting on itself, built once by
        # constructions.regular_comodule_algebra
        self._regular: Optional[Algebra] = None

    def counit_value(self, v: Sequence[FieldElement]) -> FieldElement:
        acc = self.ctx.zero()
        for c, x in zip(self.counit, v):
            acc = acc + c * x
        return acc

    def __repr__(self):
        return f"Hopf(dim={self.dim}, labels={list(self.labels)})"


# -- axiom checks -------------------------------------------------------------


def coaction_laws(h: Hopf, dim: int, coaction: Mat) -> tuple[bool, bool]:
    """Whether a left coaction ``lambda`` of ``h`` on a space of dimension
    ``dim`` (a ``(h.dim * dim) x dim`` matrix) is coassociative,
    ``(Delta (x) id) lambda == (id (x) lambda) lambda``, and satisfies the
    counit law, ``(counit (x) id) lambda == id``."""
    coassoc_ok = (kron_matmul(h.comult, None, coaction)
                  == kron_matmul(None, coaction, coaction))
    counit_ok = (kron_matmul(Mat(h.ctx, [h.counit]), None, coaction)
                 == Mat.identity(h.ctx, dim))
    return coassoc_ok, counit_ok


def check_coalgebra(h: Hopf) -> list[str]:
    problems = []
    ident = Mat.identity(h.ctx, h.dim)
    coassoc_ok, counit_left_ok = coaction_laws(h, h.dim, h.comult)
    counit_right_ok = kron_matmul(None, Mat(h.ctx, [h.counit]),
                                  h.comult) == ident
    if not coassoc_ok:
        problems.append("comultiplication is not coassociative")
    if not counit_left_ok:
        problems.append("counit fails on the left tensor leg")
    if not counit_right_ok:
        problems.append("counit fails on the right tensor leg")
    return problems


def check_bialgebra_compat(h: Hopf, first: Optional[Sequence[int]] = None
                           ) -> list[str]:
    """The coproduct and counit are unital algebra maps; the coproduct is
    tested on the indices ``first`` (see ``multiplicative_into_tensor``)."""
    problems = []
    counit = Mat(h.ctx, [h.counit])
    if not multiplicative_into_tensor(h.comult, h, h, h, first):
        problems.append("comultiplication is not an algebra morphism")
    if h.comult.apply(h.unit) != tensor_vec(h.unit, h.unit):
        problems.append("comultiplication does not fix the unit")
    if counit @ h.mult_matrix() != kron(counit, counit):
        problems.append("counit is not an algebra morphism")
    if h.counit_value(h.unit) != h.ctx.one():
        problems.append("counit does not send the unit to 1")
    return problems


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
    """Violations grouped into the five axiom families (empty lists = pass)."""
    algebra = check_algebra(h)
    compat = check_bialgebra_compat(
        h, None if NOT_ASSOCIATIVE in algebra else h.generators())
    return {
        "algebra": algebra,
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
