"""Module-level comparisons between comodule algebras.

This module answers the questions that involve modules rather than the
algebras alone: computing the comodule algebra of module endomorphisms,
searching for isomorphisms that respect both the product and the coaction,
splitting an algebra into its simple modules, and fusing simple modules with
the simple modules of the base Hopf algebra to produce an isomorphism-
fingerprint table.

All module actions here are left actions: ``action[i]`` is the matrix of the
i-th basis element, and ``action`` of a product composes left-to-right
(``rho(ab) = rho(a) @ rho(b)``).  The one exception is
:class:`RightComodModule`, whose name says it all.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import permutations
from typing import Optional, Sequence

from .algebra import Algebra, is_algebra_isomorphism, trace_radical
from .comodule import (
    Comodule,
    ComoduleAlgebra,
    _require_over_kp,
    _subalgebra_on_basis,
    check_comodule,
    check_comodule_algebra,
    loewy_filtration,
    rebase_comodule_algebra,
)
from .errors import (
    CoactionUnsolvable,
    DimensionMismatch,
    HopfExactError,
    NeedsFieldExtension,
    NotGeneratedInDegreeZero,
    NotSemisimple,
    UnsupportedDimension,
)
from .field import (FieldContext, FieldElement, adjoin_sqrt, polynomial_roots,
                    sqrt_in_context)
from .hopf import antipode_inverse, coradical_zero
from .linalg import (
    Mat,
    Subspace,
    Vec,
    eigenspace,
    kernel,
    kron,
    minimal_polynomial,
    rank,
    restrict_operator,
    solve,
    vstack,
)
from .poly import MultiPoly, concrete_solutions


# -- modules in the category of comodules --------------------------------------


class RightComodModule:
    """A right B-module with an H-coaction making the action colinear."""

    def __init__(self, algebra: ComoduleAlgebra, dim: int, coaction: Mat,
                 action: Sequence[Mat]):
        self.algebra = algebra
        self.hopf = algebra.hopf
        self.dim = dim
        self.coaction = coaction
        self.action = list(action)
        if len(self.action) != algebra.dim:
            raise DimensionMismatch("need one action matrix per basis element")
        for m in self.action:
            if m.nrows != dim or m.ncols != dim:
                raise DimensionMismatch("action matrices must be square of "
                                        "the module dimension")

    @property
    def ctx(self) -> FieldContext:
        return self.algebra.ctx

    def act(self, b: Vec) -> Mat:
        """The matrix of right multiplication by the algebra element b."""
        out = Mat.zeros(self.ctx, self.dim, self.dim)
        for i, c in enumerate(b):
            if not c.is_zero():
                out = out + self.action[i].scale(c)
        return out


def check_module_comodule(v: RightComodModule) -> list[str]:
    problems = []
    ctx = v.ctx
    b = v.algebra
    if v.act(b.unit) != Mat.identity(ctx, v.dim):
        problems.append("unit does not act as the identity")
    assoc_ok = all(
        v.act(b.table[i][j]) == v.action[j] @ v.action[i]
        for i in range(b.dim) for j in range(b.dim))
    if not assoc_ok:
        problems.append("right action does not respect products")
    problems += check_comodule(Comodule(v.hopf, v.dim, v.coaction))
    colinear_ok = True
    nh, nv, nb = v.hopf.dim, v.dim, b.dim
    for p in range(nv):
        for i in range(nb):
            lhs = v.coaction.apply(v.action[i].col(p))
            rhs = [ctx.zero()] * (nh * nv)
            for idx1, c1 in enumerate(v.coaction.col(p)):
                if c1.is_zero():
                    continue
                h1, m1 = divmod(idx1, nv)
                for idx2, c2 in enumerate(b.coaction.col(i)):
                    if c2.is_zero():
                        continue
                    h2, b2 = divmod(idx2, nb)
                    c = c1 * c2
                    hvec = v.hopf.table[h1][h2]
                    bcol = v.action[b2].col(m1)
                    for hh, hc in enumerate(hvec):
                        if hc.is_zero():
                            continue
                        chc = c * hc
                        for mm, mc in enumerate(bcol):
                            if not mc.is_zero():
                                rhs[hh * nv + mm] = (rhs[hh * nv + mm]
                                                     + chc * mc)
            if lhs != tuple(rhs):
                colinear_ok = False
    if not colinear_ok:
        problems.append("coaction is not compatible with the action")
    return problems


def regular_module(a: ComoduleAlgebra) -> RightComodModule:
    """The algebra as a right module over itself, carrying its own coaction."""
    action = [Mat.from_columns(a.ctx, [a.table[j][i] for j in range(a.dim)])
              for i in range(a.dim)]
    return RightComodModule(a, a.dim, a.coaction, action)


def module_direct_sum(u: RightComodModule, v: RightComodModule
                      ) -> RightComodModule:
    """Direct sum of two modules over the same algebra, with the block
    action and the block coaction."""
    if u.algebra is not v.algebra and (
            u.algebra.table != v.algebra.table
            or u.algebra.coaction != v.algebra.coaction):
        raise DimensionMismatch("summands are modules over different "
                                "comodule algebras")
    ctx = u.ctx
    n, m = u.dim, v.dim
    action = []
    for ru, rv in zip(u.action, v.action, strict=True):
        rows = [tuple(ru.rows[i]) + (ctx.zero(),) * m for i in range(n)]
        rows += [(ctx.zero(),) * n + tuple(rv.rows[i]) for i in range(m)]
        action.append(Mat(ctx, rows))
    cols = []
    for j in range(n):
        col = [ctx.zero()] * (u.hopf.dim * (n + m))
        for idx, c in enumerate(u.coaction.col(j)):
            hh, k = divmod(idx, n)
            col[hh * (n + m) + k] = c
        cols.append(tuple(col))
    for j in range(m):
        col = [ctx.zero()] * (u.hopf.dim * (n + m))
        for idx, c in enumerate(v.coaction.col(j)):
            hh, k = divmod(idx, m)
            col[hh * (n + m) + n + k] = c
        cols.append(tuple(col))
    return RightComodModule(u.algebra, n + m, Mat.from_columns(ctx, cols),
                            action)


def end_comodule_algebra(v: RightComodModule) -> ComoduleAlgebra:
    """B-linear endomorphisms of V as a comodule algebra.

    The coaction on an endomorphism T is recovered by solving

        sum T(-1) (x) T(0)(p)  =  sum T(p(0))(-1) S^{-1}(p(-1)) (x) T(p(0))(0)

    for every p; if that system has no unique solution for some basis
    endomorphism, :class:`CoactionUnsolvable` is raised.
    """
    ctx = v.ctx
    n = v.dim
    nh = v.hopf.dim
    blocks = []
    ident = Mat.identity(ctx, n)
    for r in v.action:
        blocks.append(kron(ident, r.transpose()) - kron(r, ident))
    commutant = kernel(vstack(blocks)) if blocks else []
    basis = [Mat.unvec(ctx, t, n, n) for t in commutant]
    d = len(basis)
    if d == 0:
        raise CoactionUnsolvable("the commutant is zero, which cannot happen "
                                 "for a unital action")
    body = Mat.from_columns(ctx, [t.vec() for t in basis])
    unit_coords = solve(body, ident.vec())
    if unit_coords is None:
        raise CoactionUnsolvable("identity is not in the computed commutant")
    table = []
    for t in basis:
        row = []
        for u in basis:
            prod = solve(body, (t @ u).vec())
            if prod is None:
                raise CoactionUnsolvable("commutant is not closed under "
                                         "composition")
            row.append(prod)
        table.append(row)

    s_inv = antipode_inverse(v.hopf)
    coaction_cols = []
    for t in basis:
        # unknowns: coefficients of lambda(T) over (H basis) x (commutant basis)
        rows = []
        rhs_all = []
        for p in range(n):
            rhs = [ctx.zero()] * (nh * n)
            for idx, c in enumerate(v.coaction.col(p)):
                if c.is_zero():
                    continue
                h1, k = divmod(idx, n)
                shifted = v.coaction.apply(t.col(k))
                left = s_inv.col(h1)
                for idx2, c2 in enumerate(shifted):
                    if c2.is_zero():
                        continue
                    a, m = divmod(idx2, n)
                    prod_h = v.hopf.multiply(v.hopf.basis_element(a), left)
                    cc = c * c2
                    for hh, hc in enumerate(prod_h):
                        if not hc.is_zero():
                            rhs[hh * n + m] = rhs[hh * n + m] + cc * hc
            for a in range(nh):
                for m in range(n):
                    row = []
                    for h in range(nh):
                        for j in range(d):
                            row.append(basis[j][m, p] if h == a else ctx.zero())
                    rows.append(row)
                    rhs_all.append(rhs[a * n + m])
        system = Mat(ctx, rows)
        sol = solve(system, tuple(rhs_all))
        if sol is None or kernel(system):
            raise CoactionUnsolvable(
                "the endomorphism coaction is not uniquely determined")
        coaction_cols.append(sol)
    coaction = Mat.from_columns(ctx, coaction_cols)
    labels = [f"T{i}" for i in range(d)]
    out = ComoduleAlgebra(v.hopf, labels, unit_coords, table, coaction)
    problems = check_comodule_algebra(out)
    if problems:
        raise CoactionUnsolvable(
            "solved coaction does not make the endomorphisms a comodule "
            "algebra (the input is not an equivariant module): "
            + "; ".join(problems))
    return out


@dataclass
class GradedEnd:
    """The endomorphism comodule algebra of a graded module, its degree
    layers, and the restriction isomorphism in degree zero."""
    algebra: ComoduleAlgebra
    grading: list[Subspace]
    zero_algebra: Algebra
    zero_iso: Mat


def _algebra_of_matrices(ctx: FieldContext, mats: Sequence[Mat],
                         prefix: str = "E") -> Algebra:
    """Structure constants of a span of matrices that is closed under
    composition and contains the identity."""
    body = Mat.from_columns(ctx, [m.vec() for m in mats])
    unit = solve(body, Mat.identity(ctx, mats[0].nrows).vec())
    if unit is None:
        raise HopfExactError("the identity is outside the matrix span")
    table = []
    for t in mats:
        row = []
        for u in mats:
            prod = solve(body, (t @ u).vec())
            if prod is None:
                raise HopfExactError("the matrix span is not closed under "
                                     "composition")
            row.append(prod)
        table.append(row)
    labels = [f"{prefix}{i}" for i in range(len(mats))]
    return Algebra(ctx, labels, unit, table)


def _partial_sums(ctx: FieldContext, ambient: int,
                  layers: Sequence[Subspace]) -> list[Subspace]:
    out = []
    vecs: list[Vec] = []
    for layer in layers:
        vecs += list(layer.basis())
        out.append(Subspace.from_vectors(ctx, ambient, vecs))
    return out


def loewy_graded_end(v: RightComodModule, b_grading: Sequence[Subspace],
                     p_grading: Sequence[Subspace]) -> GradedEnd:
    """Endomorphisms of a graded module generated in degree zero, graded by
    where they send the degree-zero part.

    The hypotheses are checked up front: both gradings must decompose their
    spaces with partial sums equal to the respective Loewy filtrations, the
    module grading must be compatible with the algebra grading, the module
    must satisfy  P = P(0) B,  and the degree-zero part of the algebra must
    be semisimple.  The conclusions are then verified rather than assumed:
    the layers  S(n) = {T : T(P(0)) in P(n)}  decompose the endomorphism
    algebra, multiply like a grading whose partial sums are its Loewy
    filtration, and restriction onto the degree-zero part is an algebra
    isomorphism  S(0) -> End_{B(0)}(P(0)).
    """
    ctx = v.ctx
    b = v.algebra
    c0 = coradical_zero(v.hopf)
    for name, grading, ambient in (("algebra", b_grading, b.dim),
                                   ("module", p_grading, v.dim)):
        joint = [w for layer in grading for w in layer.basis()]
        if (sum(layer.dim for layer in grading) != ambient
                or Subspace.from_vectors(ctx, ambient, joint).dim != ambient):
            raise HopfExactError(f"the {name} grading does not decompose "
                                 "the space")
    top_b, top_p = len(b_grading), len(p_grading)
    for i in range(top_b):
        for j in range(top_b):
            for x in b_grading[i].basis():
                for y in b_grading[j].basis():
                    prod = b.multiply(x, y)
                    ok = (not any(c for c in prod if not c.is_zero())
                          if i + j >= top_b
                          else b_grading[i + j].contains(prod))
                    if not ok:
                        raise HopfExactError(
                            "the algebra grading is not multiplicative on "
                            f"degrees {i} and {j}")
    for n in range(top_p):
        for k in range(top_b):
            for p in p_grading[n].basis():
                for x in b_grading[k].basis():
                    w = v.act(x).apply(p)
                    ok = (not any(c for c in w if not c.is_zero())
                          if n + k >= top_p
                          else p_grading[n + k].contains(w))
                    if not ok:
                        raise HopfExactError(
                            "the module grading is not compatible with the "
                            f"algebra grading on degrees {n} and {k}")
    if _partial_sums(ctx, b.dim, b_grading) != loewy_filtration(b, c0):
        raise HopfExactError("the algebra grading does not refine its Loewy "
                             "filtration")
    as_comodule = Comodule(v.hopf, v.dim, v.coaction)
    if _partial_sums(ctx, v.dim, p_grading) != loewy_filtration(as_comodule,
                                                                c0):
        raise HopfExactError("the module grading does not refine its Loewy "
                             "filtration")

    p0_basis = list(p_grading[0].basis())
    spun = Subspace.from_vectors(ctx, v.dim, p0_basis)
    while True:
        grown = Subspace.from_vectors(
            ctx, v.dim,
            list(spun.basis()) + [r.apply(w) for w in spun.basis()
                                  for r in v.action])
        if grown.dim == spun.dim:
            break
        spun = grown
    if spun.dim != v.dim:
        raise NotGeneratedInDegreeZero(
            f"the degree-zero part generates only {spun.dim} of {v.dim} "
            "dimensions")

    packed = _subalgebra_on_basis(b, list(b_grading[0].basis()))
    if packed is None:
        raise HopfExactError("the degree-zero part of the algebra is not a "
                             "unital subalgebra")
    b0_sub, _ = packed
    if trace_radical(b0_sub).dim:
        raise NotSemisimple("the degree-zero part of the algebra has a "
                            "radical")

    s = end_comodule_algebra(v)
    mats = _commutant(v.action)
    d = s.dim
    p0_body = Mat.from_columns(ctx, p0_basis)
    layers = []
    for n in range(top_p):
        ann = kernel(Mat.from_columns(ctx,
                                      list(p_grading[n].basis())).transpose())
        rows = []
        for u in p0_basis:
            images = [m.apply(u) for m in mats]
            for f in ann:
                rows.append(tuple(
                    sum((fc * img[i] for i, fc in enumerate(f)
                         if not fc.is_zero()),
                        start=ctx.zero()) for img in images))
        space = (Subspace.full(ctx, d) if not rows
                 else Subspace.from_vectors(ctx, d, kernel(Mat(ctx, rows))))
        layers.append(space)
    joint = [w for layer in layers for w in layer.basis()]
    if (sum(layer.dim for layer in layers) != d
            or Subspace.from_vectors(ctx, d, joint).dim != d):
        raise HopfExactError("the endomorphism layers do not decompose the "
                             "endomorphism algebra")
    for n in range(top_p):
        for k in range(top_p):
            for x in layers[n].basis():
                for y in layers[k].basis():
                    prod = s.multiply(x, y)
                    ok = (not any(c for c in prod if not c.is_zero())
                          if n + k >= top_p
                          else layers[n + k].contains(prod))
                    if not ok:
                        raise HopfExactError(
                            "the endomorphism layers do not multiply as a "
                            f"grading on degrees {n} and {k}")
    if _partial_sums(ctx, d, layers) != loewy_filtration(s, c0):
        raise HopfExactError("the endomorphism layers do not refine the "
                             "Loewy filtration of the endomorphism algebra")

    restricted = []
    for w in b_grading[0].basis():
        act = v.act(w)
        cols = []
        for u in p0_basis:
            c = solve(p0_body, act.apply(u))
            if c is None:
                raise HopfExactError("the degree-zero part of the module is "
                                     "not stable under the degree-zero part "
                                     "of the algebra")
            cols.append(c)
        restricted.append(Mat.from_columns(ctx, cols))
    e_mats = _commutant(restricted)
    e_alg = _algebra_of_matrices(ctx, e_mats)
    e_body = Mat.from_columns(ctx, [m.vec() for m in e_mats])
    s0_basis = list(layers[0].basis())
    s0_packed = _subalgebra_on_basis(s, s0_basis)
    if s0_packed is None:
        raise HopfExactError("the degree-zero endomorphism layer is not a "
                             "unital subalgebra")
    s0_sub, _ = s0_packed
    iso_cols = []
    for coords in s0_basis:
        t = Mat.zeros(ctx, v.dim, v.dim)
        for j, c in enumerate(coords):
            if not c.is_zero():
                t = t + mats[j].scale(c)
        cols = []
        for u in p0_basis:
            c = solve(p0_body, t.apply(u))
            if c is None:
                raise HopfExactError("a degree-zero endomorphism does not "
                                     "preserve the degree-zero part")
            cols.append(c)
        e_coords = solve(e_body, Mat.from_columns(ctx, cols).vec())
        if e_coords is None:
            raise HopfExactError("a restricted endomorphism does not commute "
                                 "with the restricted action")
        iso_cols.append(e_coords)
    zero_iso = Mat.from_columns(ctx, iso_cols)
    if not is_algebra_isomorphism(s0_sub, e_alg, zero_iso):
        raise HopfExactError("restriction to the degree-zero part is not an "
                             "algebra isomorphism")
    return GradedEnd(s, layers, e_alg, zero_iso)


# -- colinear isomorphism search ------------------------------------------------


def colinear_maps(a: ComoduleAlgebra, b: ComoduleAlgebra) -> list[Mat]:
    """Basis of the space of linear maps T with lambda_b T = (id (x) T) lambda_a."""
    if a.hopf.table != b.hopf.table or a.hopf.comult != b.hopf.comult:
        raise DimensionMismatch("the two algebras live over different Hopf "
                                "algebras")
    ctx = a.ctx
    na, nb, nh = a.dim, b.dim, a.hopf.dim
    lhs = kron(b.coaction, Mat.identity(ctx, na))
    rows = []
    for h in range(nh):
        for m in range(nb):
            for j in range(na):
                row = [ctx.zero()] * (nb * na)
                for k in range(na):
                    row[m * na + k] = a.coaction[h * na + k, j]
                rows.append(row)
    rhs = Mat(ctx, rows)
    diff_rows = []
    for h in range(nh):
        for m in range(nb):
            for j in range(na):
                r = (h * nb + m) * na + j
                diff_rows.append(tuple(
                    lhs[r, c] - rhs[r, c] for c in range(nb * na)))
    return [Mat.unvec(ctx, t, nb, na) for t in kernel(Mat(ctx, diff_rows))]


def colinear_iso_search(a: ComoduleAlgebra, b: ComoduleAlgebra
                        ) -> Optional[Mat]:
    """An invertible unital algebra map commuting with the coactions, or None.

    Every candidate lives in the (finite-dimensional) space of colinear maps,
    the unit condition cuts out an affine subspace, and the remaining
    multiplicativity constraints form a polynomial system whose solutions
    are enumerated exactly by :func:`~hopfexact.poly.concrete_solutions`.
    ``None`` therefore means no such isomorphism exists over the current
    field.  A system outside the supported reduction rules (linear isolation
    and univariate roots) is refused with a typed :class:`HopfExactError`
    rather than answered; ``(kp, kp)`` is such a case.
    """
    if a.dim != b.dim:
        return None
    if a.dim > 8:
        raise UnsupportedDimension(
            f"isomorphism search is supported up to dimension 8, got {a.dim}")
    ctx = a.ctx
    n = a.dim
    maps = colinear_maps(a, b)
    if not maps:
        return None
    # affine slice: T(1_a) = 1_b
    unit_images = Mat.from_columns(ctx, [t.apply(a.unit) for t in maps])
    particular = solve(unit_images, b.unit)
    if particular is None:
        return None
    homogeneous = kernel(unit_images)

    def combine(coords: Sequence[FieldElement]) -> Mat:
        out = Mat.zeros(ctx, n, n)
        for c, t in zip(coords, maps):
            if not c.is_zero():
                out = out + t.scale(c)
        return out

    t0 = combine(particular)
    directions = [combine(hv) for hv in homogeneous]
    names = [f"s{i}" for i in range(len(directions))]

    def entry_poly(i: int, j: int) -> MultiPoly:
        p = MultiPoly.const(ctx, t0[i, j])
        for name, d in zip(names, directions):
            p = p + MultiPoly.var(ctx, name) * d[i, j]
        return p

    symbolic = [[entry_poly(i, j) for j in range(n)] for i in range(n)]

    def apply_symbolic(vec: Vec) -> list[MultiPoly]:
        return [sum((row[k] * vec[k] for k in range(n)),
                    MultiPoly.const(ctx, 0)) for row in symbolic]

    eqs = []
    for i in range(n):
        ti = apply_symbolic(a.basis_element(i))
        for j in range(n):
            tj = apply_symbolic(a.basis_element(j))
            lhs = apply_symbolic(a.table[i][j])
            # product of the two symbolic images inside b
            rhs = [MultiPoly.const(ctx, 0) for _ in range(n)]
            for p in range(n):
                for q in range(n):
                    coeffs = b.table[p][q]
                    factor = ti[p] * tj[q]
                    for m in range(n):
                        if not coeffs[m].is_zero():
                            rhs[m] = rhs[m] + factor * coeffs[m]
            eqs.extend(lhs[m] - rhs[m] for m in range(n))
    solutions = concrete_solutions(eqs, ctx)
    for sol in solutions:
        t = t0
        for name, d in zip(names, directions):
            t = t + d.scale(sol[name])
        if rank(t) == n:
            return t
    return None


def free_module_rank(v: RightComodModule) -> Optional[int]:
    """Rank of V as a free right module, or None when no free basis is found.

    Requires dim V divisible by dim B, then greedily extracts generators
    whose orbits under the algebra basis stay jointly independent.  A None
    from the greedy search is not a proof of non-freeness, but a returned
    rank comes with an explicit basis check behind it.
    """
    b = v.algebra
    if v.dim % b.dim:
        return None
    rank_needed = v.dim // b.dim
    ctx = v.ctx
    pool: list[Vec] = [tuple(Mat.identity(ctx, v.dim).rows[j])
                       for j in range(v.dim)]
    for bits in range(3, 1 << v.dim):
        if bits.bit_count() < 2:
            continue
        pool.append(tuple(ctx.one() if (bits >> j) & 1 else ctx.zero()
                          for j in range(v.dim)))
    chosen: list[Vec] = []
    columns: list[Vec] = []
    for p in pool:
        orbit = [m.apply(p) for m in v.action]
        stacked = columns + orbit
        if rank(Mat.from_columns(ctx, stacked).transpose()) == len(stacked):
            chosen.append(p)
            columns = stacked
            if len(chosen) == rank_needed:
                return rank_needed
    return None


# -- simple modules --------------------------------------------------------------


@dataclass
class SimpleModule:
    """A simple left module given by the action matrices of the algebra basis."""
    dim: int
    action: list[Mat]


@dataclass
class ModuleDecomposition:
    simples: list[SimpleModule]
    multiplicities: list[int]
    split: bool


def intertwiners(m1: Sequence[Mat], m2: Sequence[Mat]) -> list[Mat]:
    """Basis of maps T with T rho_1(a) = rho_2(a) T for all basis elements."""
    ctx = m1[0].ctx
    d1, d2 = m1[0].ncols, m2[0].nrows
    blocks = []
    i1 = Mat.identity(ctx, d1)
    i2 = Mat.identity(ctx, d2)
    for r1, r2 in zip(m1, m2, strict=True):
        blocks.append(kron(i2, r1.transpose()) - kron(r2, i1))
    return [Mat.unvec(ctx, t, d2, d1) for t in kernel(vstack(blocks))]


def _commutant(action: Sequence[Mat]) -> list[Mat]:
    return intertwiners(action, action)


def _quadratic_roots(ctx: FieldContext, coeffs: Sequence[FieldElement]
                     ) -> list[FieldElement]:
    """Roots of c0 + c1 t + c2 t**2, letting missing square roots escape."""
    c0, c1, c2 = coeffs
    disc = c1 * c1 - ctx.scalar(4) * c2 * c0
    root = sqrt_in_context(disc)   # may raise NeedsFieldExtension
    two_a = ctx.scalar(2) * c2
    out = [(-c1 + root) / two_a]
    if not root.is_zero():
        out.append((-c1 - root) / two_a)
    return out


def _split_once(action: list[Mat]) -> Optional[list[Subspace]]:
    """One splitting step: invariant proper subspaces summing to everything,
    or None when the module is simple (trivial commutant)."""
    ctx = action[0].ctx
    d = action[0].nrows
    comm = _commutant(action)
    if len(comm) == 1:
        return None
    candidates = list(comm)
    for i in range(len(comm)):
        for j in range(i + 1, len(comm)):
            candidates.append(comm[i] + comm[j])
    pending_quadratic = None
    for t in candidates:
        scalar = t[0, 0]
        if t == Mat.identity(ctx, d).scale(scalar):
            continue
        minpoly = minimal_polynomial(t)
        roots = polynomial_roots(ctx, minpoly)
        if roots:
            spaces = [eigenspace(t, r) for r in roots]
            covered = sum(s.dim for s in spaces)
            if covered == d and len(spaces) > 1:
                return spaces
            if 0 < covered < d:
                # peel the eigenspaces, keep the rest as one invariant block;
                # a defective t (nilpotent part) makes the block overlap the
                # eigenspaces, so demand a genuine direct sum before using it
                residual = Mat.identity(ctx, d)
                for r in roots:
                    shift = t - Mat.identity(ctx, d).scale(r)
                    residual = residual @ shift
                rest = Subspace.from_vectors(
                    ctx, d, [residual.col(j) for j in range(d)])
                together = Subspace.from_vectors(
                    ctx, d,
                    [v for s in spaces for v in s.basis()] + list(rest.basis()))
                if rest.dim + covered == d and together.dim == d:
                    return spaces + [rest]
        if len(minpoly) == 3 and pending_quadratic is None:
            pending_quadratic = minpoly
    if pending_quadratic is not None:
        # the quadratic had no roots here; surface the extension it needs
        _quadratic_roots(ctx, pending_quadratic)
    raise HopfExactError("cannot split a non-simple module with the "
                         "supported factoring rules")


def _restrict_action(action: list[Mat], space: Subspace) -> list[Mat]:
    return [restrict_operator(m, space) for m in action]


def simple_modules(a: Algebra) -> ModuleDecomposition:
    """Split the left regular module into simple modules.

    Raises :class:`NotSemisimple` when the algebra has a radical, and lets
    :class:`NeedsFieldExtension` escape when a splitting needs a square root
    that the current field does not have.
    """
    if trace_radical(a).dim != 0:
        raise NotSemisimple("the algebra has a nonzero radical")
    ctx = a.ctx
    regular = [a.left_mult(a.basis_element(i)) for i in range(a.dim)]
    worklist: list[list[Mat]] = [regular]
    leaves: list[list[Mat]] = []
    while worklist:
        action = worklist.pop()
        spaces = _split_once(action)
        if spaces is None:
            leaves.append(action)
            continue
        for s in spaces:
            worklist.append(_restrict_action(action, s))
    classes: list[SimpleModule] = []
    mults: list[int] = []
    for action in leaves:
        matched = False
        for idx, cls in enumerate(classes):
            if cls.dim == action[0].nrows and intertwiners(action, cls.action):
                mults[idx] += 1
                matched = True
                break
        if not matched:
            classes.append(SimpleModule(action[0].nrows, action))
            mults.append(1)
    order = sorted(range(len(classes)), key=lambda k: (classes[k].dim, k))
    classes = [classes[k] for k in order]
    mults = [mults[k] for k in order]
    split = (sum(c.dim * c.dim for c in classes) == a.dim
             and all(m == c.dim for m, c in zip(mults, classes)))
    return ModuleDecomposition(classes, mults, split)


def _extended_context(ctx: FieldContext, discriminant: FieldElement
                      ) -> FieldContext:
    """A context where the missing square root exists: bump the cyclotomic
    order to include the eighth roots of unity, then adjoin the root formally
    if it still is not there."""
    if ctx.has_layer:
        raise NeedsFieldExtension(discriminant)
    order = ctx.order
    new_order = order * 8 // math.gcd(order, 8)
    base = FieldContext(new_order)
    d = discriminant.coerce(base)
    try:
        sqrt_in_context(d)
        return base
    except NeedsFieldExtension:
        return adjoin_sqrt(base, d)


def simple_modules_split(a: ComoduleAlgebra
                         ) -> tuple[ComoduleAlgebra, ModuleDecomposition]:
    """Like :func:`simple_modules`, but when a square root is missing the
    algebra is rebuilt over an extended field once and the split is retried.
    Returns the (possibly rebased) algebra together with its decomposition."""
    try:
        return a, simple_modules(a)
    except NeedsFieldExtension as exc:
        bigger = _extended_context(a.ctx, exc.discriminant)
        rebased = rebase_comodule_algebra(a, bigger)
        return rebased, simple_modules(rebased)


# -- fusion fingerprints ----------------------------------------------------------


def kp_simple_modules(ctx: FieldContext) -> list[tuple[str, list[Mat]]]:
    """The five simple left modules of the eight-dimensional Hopf algebra:
    four characters indexed by the fourth roots of unity (the value on the
    generator in degree two), and one two-dimensional module."""
    i = ctx.i()
    out: list[tuple[str, list[Mat]]] = []
    for name, zeta in (("k_1", ctx.one()), ("k_i", i),
                       ("k_-1", ctx.scalar(-1)), ("k_-i", -i)):
        zeta2 = zeta * zeta
        chars = []
        for g in range(4):
            val = zeta2 if g in (1, 2) else ctx.one()
            chars.append(val)
        mats = [Mat(ctx, [[chars[g]]]) for g in range(4)]
        mats += [Mat(ctx, [[zeta * chars[g]]]) for g in range(4)]
        out.append((name, mats))
    one, minus = ctx.one(), ctx.scalar(-1)
    zero = ctx.zero()
    rx = Mat(ctx, [[one, zero], [zero, minus]])
    ry = Mat(ctx, [[minus, zero], [zero, one]])
    rz = Mat(ctx, [[zero, one], [one, zero]])
    group = [Mat.identity(ctx, 2), rx, ry, rx @ ry]
    w = group + [rz @ g for g in group]
    out.append(("W", w))
    return out


@dataclass
class FusionFingerprint:
    row_names: tuple[str, ...]
    simple_dims: tuple[int, ...]
    table: tuple[tuple[tuple[int, ...], ...], ...]


def fusion_fingerprint(a: ComoduleAlgebra) -> FusionFingerprint:
    """Decomposition multiplicities of (simple H-module) (x) (simple A-module).

    Entry ``table[r][i][j]`` is the multiplicity of the j-th simple A-module
    inside X_r (x) M_i, where the A-action on the product twists through the
    coaction.
    """
    _require_over_kp(a)
    used, dec = simple_modules_split(a)
    if not dec.split:
        raise HopfExactError("multiplicities need a split decomposition "
                             "(endomorphisms of every simple = scalars)")
    ctx = used.ctx
    hmods = kp_simple_modules(ctx)
    na = used.dim
    rows = []
    for name, x_action in hmods:
        dx = x_action[0].nrows
        row = []
        for m in dec.simples:
            product_action = []
            for idx in range(na):
                acc = Mat.zeros(ctx, dx * m.dim, dx * m.dim)
                for pos, c in enumerate(used.coaction.col(idx)):
                    if c.is_zero():
                        continue
                    h, k = divmod(pos, na)
                    acc = acc + kron(x_action[h], m.action[k]).scale(c)
                product_action.append(acc)
            mults = []
            for target in dec.simples:
                homs = intertwiners(target.action, product_action)
                mults.append(len(homs))
            if sum(mu * s.dim for mu, s in zip(mults, dec.simples)) \
                    != dx * m.dim:
                raise HopfExactError(
                    "fusion cell does not decompose into the known simples")
            row.append(tuple(mults))
        rows.append(tuple(row))
    return FusionFingerprint(tuple(name for name, _ in hmods),
                             tuple(s.dim for s in dec.simples),
                             tuple(rows))


def fingerprint_distinguishes(fa: FusionFingerprint, fb: FusionFingerprint
                              ) -> bool:
    """True when no relabeling of simples makes the two tables equal.  This
    is a necessary condition for isomorphism only: ``False`` does not mean
    the algebras are isomorphic."""
    if fa.row_names != fb.row_names:
        return True
    if sorted(fa.simple_dims) != sorted(fb.simple_dims):
        return True
    k = len(fa.simple_dims)
    for perm in permutations(range(k)):
        if any(fa.simple_dims[i] != fb.simple_dims[perm[i]] for i in range(k)):
            continue
        ok = all(
            ra[i][j] == rb[perm[i]][perm[j]]
            for ra, rb in zip(fa.table, fb.table)
            for i in range(k) for j in range(k))
        if ok:
            return False
    return True
