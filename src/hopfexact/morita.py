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
from itertools import chain, combinations, permutations
from typing import Callable, Optional, Sequence

from .algebra import Algebra, tensor_product, trace, trace_radical
from .comodule import (
    Comodule,
    ComoduleAlgebra,
    _require_over_kp,
    check_comodule,
    check_comodule_algebra,
    isotypic_part,
    rebase_comodule_algebra,
)
from .errors import (
    CoactionUnsolvable,
    DimensionMismatch,
    HopfExactError,
    NeedsFieldExtension,
    NotSemisimple,
    UnsupportedDimension,
)
from .field import (FieldContext, FieldElement, adjoin_sqrt, polynomial_roots,
                    sqrt_in_context)
from .hopf import Hopf, antipode_inverse
from .linalg import (
    Mat,
    Row,
    Subspace,
    Vec,
    _kernel_rows,
    _subtract_multiple,
    _terms,
    eigenspace,
    inverse,
    kernel,
    linear_combination,
    minimal_polynomial,
    rank,
    restrict_operator,
    rref,
    solve,
    tensor_vec,
)
from .poly import MultiPoly, _addmul, _poly, concrete_solutions


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
        return linear_combination(b, self.action)


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
    # rho(p . b) = rho(p) rho(b): the H legs multiply in H, the module leg
    # of rho(p) is acted on by the algebra leg of rho(b)
    nh, nv, nb = v.hopf.dim, v.dim, b.dim
    acting = tuple(tuple(tuple(_terms(v.action[i].col(m))) for i in range(nb))
                   for m in range(nv))
    colinear_ok = all(
        v.coaction.apply(v.action[i].col(p)) == tensor_product(
            v.hopf.terms, acting, v.coaction.col(p), b.coaction.col(i),
            (nh, nv))
        for p in range(nv) for i in range(nb))
    if not colinear_ok:
        problems.append("coaction is not compatible with the action")
    return problems


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
    basis = _commutant(v.action)
    d = len(basis)
    if d == 0:
        raise CoactionUnsolvable("the commutant is zero, which cannot happen "
                                 "for a unital action")
    endo = _algebra_of_matrices(ctx, basis)

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
    out = ComoduleAlgebra(v.hopf, endo.labels, endo.unit, endo.table,
                          coaction)
    problems = check_comodule_algebra(out)
    if problems:
        raise CoactionUnsolvable(
            "solved coaction does not make the endomorphisms a comodule "
            "algebra (the input is not an equivariant module): "
            + "; ".join(problems))
    return out


def _algebra_of_matrices(ctx: FieldContext, mats: Sequence[Mat]) -> Algebra:
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
    labels = [f"T{i}" for i in range(len(mats))]
    return Algebra(ctx, labels, unit, table)


# -- colinear isomorphism search ------------------------------------------------


def _commutation_rows(ctx: FieldContext, pairs) -> list[Row]:
    """Sparse rows of ``vec(T) -> vec(T A - B T)``, one block per pair.

    A pair gives ``A`` (d1 x d1) by the nonzero ``(k, A[k, j])`` of each
    column j and ``B`` (d2 x d2) by the nonzero ``(p, B[i, p])`` of each row
    i; T is d2 x d1, vecced row-major.  Row ``i*d1 + j`` of a block holds
    ``+A[k, j]`` at column ``i*d1 + k`` and ``-B[i, p]`` at column
    ``p*d1 + j``, an entry that cancels dropped: the rows of
    ``kron(I, A^T) - kron(B, I)``, written from the nonzero entries alone.
    """
    one = ctx.one()
    rows: list[Row] = []
    for a_cols, b_rows in pairs:
        d1 = len(a_cols)
        for i, b_row in enumerate(b_rows):
            for j, a_col in enumerate(a_cols):
                row = {i * d1 + k: x for k, x in a_col}
                _subtract_multiple(row, one,
                                   {p * d1 + j: x for p, x in b_row})
                rows.append(row)
    return rows


def _colinear_system(a: ComoduleAlgebra, b: ComoduleAlgebra) -> list[Row]:
    """The sparse rows of vec(T) -> lambda_b T - (id (x) T) lambda_a.

    Row ``(h*nb + m)*na + j`` holds ``+b.coaction[h*nb + m, m']`` at column
    ``m'*na + j`` and ``-a.coaction[h*na + k, j]`` at column ``m*na + k``:
    the rows of ``kron(b.coaction, I) - (blocks of a.coaction)``.  For each
    h this is ``T A - B T`` with ``A``, ``B`` the negated h-th blocks of the
    two coactions.
    """
    if a.hopf.table != b.hopf.table or a.hopf.comult != b.hopf.comult:
        raise DimensionMismatch("the two algebras live over different Hopf "
                                "algebras")
    na, nb = a.dim, b.dim
    ca, cb = a.coaction, b.coaction
    pairs = [([[(k, -x) for k in range(na)
                if not (x := ca[h * na + k, j]).is_zero()] for j in range(na)],
              [[(p, -x) for p, x in _terms(cb.row(h * nb + m))]
               for m in range(nb)])
             for h in range(a.hopf.dim)]
    return _commutation_rows(a.ctx, pairs)


def colinear_maps(a: ComoduleAlgebra, b: ComoduleAlgebra) -> list[Mat]:
    """Basis of the space of linear maps T with lambda_b T = (id (x) T) lambda_a."""
    return [Mat.unvec(a.ctx, t, b.dim, a.dim)
            for t in _kernel_rows(a.ctx, _colinear_system(a, b),
                                  a.dim * b.dim)]


def colinear_iso_search(a: ComoduleAlgebra, b: ComoduleAlgebra
                        ) -> Optional[Mat]:
    """An invertible unital algebra map commuting with the coactions, or None.

    Every candidate lives in the (finite-dimensional) space of colinear maps,
    the unit condition cuts out an affine subspace, and the remaining
    multiplicativity constraints form a polynomial system whose solutions
    are enumerated exactly by :func:`~hopfexact.poly.concrete_solutions`.
    ``None`` therefore means no such isomorphism exists over the current
    field.  A system outside the supported reduction rules (the linear pass,
    univariate roots and linear isolation) is refused with a typed
    :class:`HopfExactError` rather than answered.
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
    t0 = linear_combination(particular, maps)
    directions = [linear_combination(hv, maps) for hv in homogeneous]
    names = [f"s{i}" for i in range(len(directions))]

    def entry_poly(i: int, j: int) -> MultiPoly:
        p = MultiPoly.const(ctx, t0[i, j])
        for name, d in zip(names, directions):
            p = p + MultiPoly.var(ctx, name) * d[i, j]
        return p

    symbolic = [[entry_poly(i, j).terms for j in range(n)] for i in range(n)]

    def apply_symbolic(vec: Vec) -> list[dict]:
        # the image of vec, one term dict per coordinate
        out = []
        for row in symbolic:
            acc: dict = {}
            for k, x in enumerate(vec):
                if not x.is_zero():
                    _addmul(acc, row[k], {(): x})
            out.append(acc)
        return out

    # the nonzero structure constants of b, per pair of basis elements
    b_table = [[[(m, c) for m, c in enumerate(b.table[p][q]) if not c.is_zero()]
                for q in range(n)] for p in range(n)]
    # the image of basis vector j is column j of the symbolic map; these
    # term dicts are shared and only read
    images = [[row[j] for row in symbolic] for j in range(n)]
    eqs = []
    for i, ti in enumerate(images):
        for j, tj in enumerate(images):
            lhs = apply_symbolic(a.table[i][j])
            # product of the two symbolic images inside b
            rhs: list[dict] = [{} for _ in range(n)]
            for p in range(n):
                for q in range(n):
                    if not b_table[p][q]:
                        continue
                    factor: dict = {}
                    _addmul(factor, ti[p], tj[q])
                    for m, c in b_table[p][q]:
                        _addmul(rhs[m], factor, {(): c})
            for m in range(n):
                _addmul(lhs[m], rhs[m], None, negate=True)
                eqs.append(_poly(ctx, lhs[m]))
    solutions = concrete_solutions(eqs, ctx)
    for sol in solutions:
        t = t0
        for name, d in zip(names, directions):
            t = t + d.scale(sol[name])
        if rank(t) == n:
            return t
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
    """Basis of maps T with T rho_1(a) = rho_2(a) T for all basis elements.

    The system is written as sparse rows straight from the nonzero entries
    of each ``rho_1(a)`` and ``rho_2(a)`` (:func:`_commutation_rows`), the
    rows of ``kron(I, rho_1(a)^T) - kron(rho_2(a), I)`` stacked in basis
    order, and solved by the sparse kernel of :mod:`~hopfexact.linalg`."""
    ctx = m1[0].ctx
    d1, d2 = m1[0].ncols, m2[0].nrows
    pairs = [([_terms(r1.col(j)) for j in range(d1)],
              [_terms(r) for r in r2.rows])
             for r1, r2 in zip(m1, m2, strict=True)]
    rows = _commutation_rows(ctx, pairs)
    return [Mat.unvec(ctx, t, d2, d1)
            for t in _kernel_rows(ctx, rows, d2 * d1)]


def _commutant(action: Sequence[Mat]) -> list[Mat]:
    return intertwiners(action, action)


def _split_once(action: list[Mat], comm: Sequence[Mat],
                first: Sequence[Mat] = ()) -> Optional[list[Subspace]]:
    """One splitting step: invariant proper subspaces summing to everything,
    or None when the module is simple (a commutant of scalars only).

    ``comm`` is a basis of the commutant of ``action``.  The candidates are
    ``first``, then the basis, then its pairwise sums; the eigenspaces of the
    first candidate that splits are returned.  Nothing here checks that a
    candidate commutes with the action: a piece that is not invariant is
    refused when the action is restricted to it."""
    if len(comm) == 1:
        return None
    ctx = action[0].ctx
    d = action[0].nrows
    candidates = chain(first, comm,
                       (s + t for s, t in combinations(comm, 2)))
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
        c0, c1, c2 = pending_quadratic
        sqrt_in_context(c1 * c1 - c2 * c0 * 4)
    raise HopfExactError("cannot split a non-simple module with the "
                         "supported factoring rules")


def _restrict_action(action: list[Mat], space: Subspace) -> list[Mat]:
    return [restrict_operator(m, space) for m in action]


def _grouplikes(h: Hopf) -> list[Vec]:
    """The basis elements g of H with Delta(g) = g (x) g."""
    out = []
    for j in range(h.dim):
        g = h.basis_element(j)
        if h.comult.col(j) == tensor_vec(g, g):
            out.append(g)
    return out


def simple_modules(a: ComoduleAlgebra) -> ModuleDecomposition:
    """Split the left regular module into simple modules.

    The commutant of the left regular module is the right multiplications:
    a map commuting with every ``L_b`` is ``R_c`` with ``c`` the image of
    the unit.  So the first split reads its candidates off the table, and
    tries first ``R_h`` for ``h`` in the isotypic part of each grouplike
    basis element of H under the coaction; those subspaces do not depend on
    the basis of ``a``.  Every smaller piece is split by its commutant
    kernel, which is also what proves a piece simple.

    Raises :class:`NotSemisimple` when the algebra has a radical, and lets
    :class:`NeedsFieldExtension` escape when a splitting needs a square root
    that the current field does not have.
    """
    if trace_radical(a).dim != 0:
        raise NotSemisimple("the algebra has a nonzero radical")
    regular = [a.left_mult(a.basis_element(i)) for i in range(a.dim)]
    rights = [a.right_mult(a.basis_element(j)) for j in range(a.dim)]
    homogeneous = [a.right_mult(h) for g in _grouplikes(a.hopf)
                   for h in isotypic_part(a, g).basis()]
    # a piece's commutant is left as None until the piece is popped
    worklist: list[tuple[list[Mat], Optional[list[Mat]], list[Mat]]] = [
        (regular, rights, homogeneous)]
    leaves: list[list[Mat]] = []
    while worklist:
        action, comm, first = worklist.pop()
        if comm is None:
            comm = _commutant(action)
        spaces = _split_once(action, comm, first)
        if spaces is None:
            leaves.append(action)
            continue
        for s in spaces:
            worklist.append((_restrict_action(action, s), None, []))
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


def _character_solver(chars: Mat) -> Callable[[Vec], tuple[int, ...]]:
    """Multiplicities against the characters in the columns of ``chars``.

    The returned function maps a character to the natural numbers ``mu``
    with ``sum_j mu_j chars.col(j) == character``.  It is read off ``k``
    basis elements on which the ``k`` characters are independent, and
    checked on all of them.  Dependent characters are refused here; a
    character with no such ``mu`` is refused when it is solved."""
    ctx, k = chars.ctx, chars.ncols
    _, basis_rows = rref(chars.transpose())
    if len(basis_rows) != k:
        raise HopfExactError("the characters of the simples are dependent")
    inv = inverse(Mat(ctx, [chars.row(b) for b in basis_rows]))

    def multiplicities(character: Vec) -> tuple[int, ...]:
        mu = inv.apply([character[b] for b in basis_rows])
        if chars.apply(mu) != tuple(character):
            raise HopfExactError("fusion cell character is no combination "
                                 "of the simple characters")
        out = []
        for m in mu:
            q = m.as_rational() if m.is_rational() else None
            if q is None or q.denominator != 1 or q < 0:
                raise HopfExactError(f"fusion cell multiplicity {m} is not "
                                     "a natural number")
            out.append(int(q))
        return tuple(out)

    return multiplicities


def fusion_fingerprint(a: ComoduleAlgebra) -> FusionFingerprint:
    """Decomposition multiplicities of (simple H-module) (x) (simple A-module).

    Entry ``table[r][i][j]`` is the multiplicity of the j-th simple A-module
    inside X_r (x) M_i, where the A-action on the product twists through the
    coaction.  The multiplicities come from characters: the character of
    X (x) M at b is the sum of ``c tr X(h) tr M(a)`` over the terms
    ``c (h (x) a)`` of lambda(b), and it is solved against the characters of
    the simples, which are independent for a split semisimple algebra in
    characteristic zero.  A cell without a unique natural solution, or whose
    multiplicities do not add up to ``dim X * dim M``, is refused.
    """
    _require_over_kp(a)
    used, dec = simple_modules_split(a)
    if not dec.split:
        raise HopfExactError("multiplicities need a split decomposition "
                             "(endomorphisms of every simple = scalars)")
    ctx = used.ctx
    hmods = kp_simple_modules(ctx)
    na = used.dim
    chars = [tuple(trace(m) for m in s.action) for s in dec.simples]
    multiplicities = _character_solver(Mat.from_columns(ctx, chars))
    lam = [_terms(used.coaction.col(b)) for b in range(na)]
    rows = []
    for name, x_action in hmods:
        dx = x_action[0].nrows
        x_char = [trace(m) for m in x_action]
        row = []
        for m, m_char in zip(dec.simples, chars):
            character = tuple(
                sum((c * x_char[pos // na] * m_char[pos % na]
                     for pos, c in terms), ctx.zero())
                for terms in lam)
            mults = multiplicities(character)
            if sum(mu * s.dim for mu, s in zip(mults, dec.simples)) \
                    != dx * m.dim:
                raise HopfExactError(
                    "fusion cell does not decompose into the known simples")
            row.append(mults)
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
