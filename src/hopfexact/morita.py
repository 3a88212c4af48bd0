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
:class:`~hopfexact.comodule.RightComodModule`, defined with the other
comodules in :mod:`hopfexact.comodule`, whose name says it all.

The colinear maps between two comodules also give the sign patterns of
kp's two-dimensional block (:func:`block_patterns`), which the replays of
:mod:`hopfexact.replay` read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, permutations
from typing import Callable, Optional, Sequence

from .algebra import (algebra_on_span, is_algebra_isomorphism, is_associative,
                      tensor_product, trace, trace_radical)
from .comodule import (
    Comodule,
    ComoduleAlgebra,
    RightComodModule,
    check_comodule,
    check_comodule_algebra,
    isotypic_part,
)
from .constructions import _require_over_kp, basis_coaction, build_kp
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
from .hopf import Hopf, antipode_inverse, rebase_comodule_algebra, same_hopf
from .linalg import (
    Mat,
    Row,
    Subspace,
    Vec,
    _combine,
    _dense,
    _kernel_rows,
    _subtract_multiple,
    _vec_row,
    eigenspace,
    inverse,
    kernel,
    kron,
    kron_matmul,
    linear_combination,
    minimal_polynomial,
    rank,
    restrict_operator,
    rref,
    slice_left,
    solve,
)
from .poly import MultiPoly, _addmul, _poly, concrete_solutions


# -- modules in the category of comodules --------------------------------------


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
    problems += check_comodule(v)
    # rho(p . b) = rho(p) rho(b): the H legs multiply in H, the module leg
    # of rho(p) is acted on by the algebra leg of rho(b)
    # acting[m][i]: the stored column m of action[i]
    acting = tuple(zip(*(m.transpose().entries for m in v.action)))
    rho_v = v.coaction.transpose().entries
    rho_b = b.coaction.transpose().entries
    colinear_ok = all(
        _combine(acting[p][i], rho_v) == tensor_product(
            v.hopf.terms, acting, rho_v[p], rho_b[i], v.dim)
        for p in range(v.dim) for i in range(b.dim))
    if not colinear_ok:
        problems.append("coaction is not compatible with the action")
    return problems


def end_comodule_algebra(v: RightComodModule) -> ComoduleAlgebra:
    """B-linear endomorphisms of V as a comodule algebra.

    The coaction on an endomorphism T is recovered from

        sum T(-1) (x) T(0)(p)  =  sum T(p(0))(-1) S^{-1}(p(-1)) (x) T(p(0))(0),

    whose right side, as a map of p, is the matrix ``(m_op (x) id)
    (S^{-1} (x) rho T) rho`` with ``m_op`` the opposite multiplication of H.
    Each of its H-slices is an endomorphism of V, solved for over the
    commutant basis ``T0, T1, ...``; if one lies outside the commutant,
    :class:`CoactionUnsolvable` is raised.
    """
    ctx = v.ctx
    n = v.dim
    h = v.hopf
    basis = _commutant(v.action)
    if not basis:
        raise CoactionUnsolvable("the commutant is zero, which cannot happen "
                                 "for a unital action")
    body = Mat.from_entries(ctx, map(_vec_row, basis), n * n).transpose()
    unit, table = algebra_on_span(
        body, Mat.identity(ctx, n).vec(),
        Mat.from_entries(ctx, (_vec_row(t @ u) for t in basis for u in basis),
                         n * n).transpose())
    rho = v.coaction
    # column a*nh + b of m_op is the product b a
    m_op = Mat.from_entries(ctx, chain.from_iterable(zip(*h.terms)),
                            h.dim).transpose()
    s_inv = antipode_inverse(h)
    coaction_cols = []
    for t in basis:
        rhs = kron_matmul(m_op, None, kron(s_inv, rho @ t) @ rho)
        coords = [solve(body, slice_left(rhs, h.dim, n, k).vec())
                  for k in range(h.dim)]
        if any(c is None for c in coords):
            raise CoactionUnsolvable(
                "the endomorphism coaction is not uniquely determined")
        coaction_cols.append(tuple(chain.from_iterable(coords)))
    out = ComoduleAlgebra(h, [f"T{i}" for i in range(len(basis))], unit,
                          table, Mat.from_columns(ctx, coaction_cols))
    problems = check_comodule_algebra(out)
    if problems:
        raise CoactionUnsolvable(
            "solved coaction does not make the endomorphisms a comodule "
            "algebra (the input is not an equivariant module): "
            + "; ".join(problems))
    return out


# -- colinear isomorphism search ------------------------------------------------


def _commutation_rows(ctx: FieldContext, pairs) -> list[Row]:
    """Sparse rows of ``vec(T) -> vec(T A - B T)``, one block per pair.

    A pair gives ``A`` (d1 x d1) by the stored rows of ``A^T``, ``{k: A[k,
    j]}`` for each column j, and ``B`` (d2 x d2) by its stored rows; T is
    d2 x d1, vecced row-major.  Row ``i*d1 + j`` of a block holds
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
                row = {i * d1 + k: x for k, x in a_col.items()}
                _subtract_multiple(row, one,
                                   {p * d1 + j: x for p, x in b_row.items()})
                rows.append(row)
    return rows


def _require_same_hopf(a: Comodule, b: Comodule) -> None:
    if not same_hopf(a.hopf, b.hopf):
        raise DimensionMismatch("the two algebras live over different Hopf "
                                "algebras")


def _colinear_system(a: Comodule, b: Comodule) -> list[Row]:
    """The sparse rows of vec(T) -> lambda_b T - (id (x) T) lambda_a.

    Row ``(h*nb + m)*na + j`` holds ``+b.coaction[h*nb + m, m']`` at column
    ``m'*na + j`` and ``-a.coaction[h*na + k, j]`` at column ``m*na + k``:
    the rows of ``kron(b.coaction, I) - (blocks of a.coaction)``.  For each
    h this is ``T A - B T`` with ``A``, ``B`` the negated h-th blocks of the
    two coactions.
    """
    _require_same_hopf(a, b)
    na, nb, nh = a.dim, b.dim, a.hopf.dim
    # the columns of the negated blocks of a.coaction, from its rows
    a_cols: list[list[Row]] = [[{} for _ in range(na)] for _ in range(nh)]
    for idx, r in enumerate(a.coaction.entries):
        h, k = divmod(idx, na)
        for j, x in r.items():
            a_cols[h][j][k] = -x
    b_rows = [{p: -x for p, x in r.items()} for r in b.coaction.entries]
    pairs = [(a_cols[h], b_rows[h * nb:(h + 1) * nb]) for h in range(nh)]
    return _commutation_rows(a.ctx, pairs)


def colinear_maps(a: Comodule, b: Comodule) -> list[Mat]:
    """Basis of the space of linear maps T with lambda_b T = (id (x) T) lambda_a."""
    return [Mat.unvec(a.ctx, t, b.dim, a.dim)
            for t in _kernel_rows(a.ctx, _colinear_system(a, b),
                                  a.dim * b.dim)]


def _tensor_comodule(a: Comodule, b: Comodule) -> Comodule:
    """A (x) B, coacted on by a (x) b -> a_(-1) b_(-1) (x) a_(0) (x) b_(0)."""
    h, n, one = a.hopf, a.dim * b.dim, a.ctx.one()
    # pairs[k][l] is the basis element a_k (x) b_l
    pairs = [[{k * b.dim + l: one} for l in range(b.dim)]
             for k in range(a.dim)]
    cols = [tensor_product(h.terms, pairs, x, y, n)
            for x in a.coaction.transpose().entries
            for y in b.coaction.transpose().entries]
    return Comodule(h, n, Mat.from_entries(h.ctx, cols, h.dim * n).transpose())


def block_patterns(ctx: Optional[FieldContext] = None
                   ) -> dict[tuple[str, int], tuple[tuple[int, int], ...]]:
    """The sign patterns that colinearity forces on products with the block
    V = span{v, w} of :func:`basis_coaction`, solved over one kp.

    For each grouplike mask g, with C_g the line coacted on by g, the
    colinear maps C_g (x) V -> V (key ``("l", g)``: e_g acting on the left),
    V (x) C_g -> V (``("r", g)``) and V (x) V -> C_g (``("p", g)``: the e_g
    component of a block product) each form a line.  Its spanning map is
    given as the table P, P[s][t] the coefficient of leg t in the image of
    leg s, or of e_g in the product of legs s and t (leg 0 is v, leg 1 is
    w), scaled so that the image of v, or of v (x) v, has first nonzero
    coordinate 1: every entry is then 1, -1 or 0.  Only these integers
    leave the function, so it solves over the kp of the context
    (:func:`build_kp`)."""
    h = build_kp(ctx)
    one = h.ctx.one()
    as_int = {one: 1, -one: -1, h.ctx.zero(): 0}
    block = Comodule(h, 2, basis_coaction(h, 2, [], [(0, 1)]))
    square = _tensor_comodule(block, block)
    out = {}
    for g in range(4):
        line = Comodule(h, 1, basis_coaction(h, 1, [g]))
        for key, src, dst in (("l", _tensor_comodule(line, block), block),
                              ("r", _tensor_comodule(block, line), block),
                              ("p", square, line)):
            (t,) = colinear_maps(src, dst)
            # the images of the source's basis, one after the other
            cells = t.transpose().vec()
            lead = next(c for c in cells if not c.is_zero()).inverse()
            ints = [as_int[c * lead] for c in cells]
            out[key, g] = (tuple(ints[:2]), tuple(ints[2:]))
    return out


def colinear_iso_search(a: ComoduleAlgebra, b: ComoduleAlgebra
                        ) -> Optional[Mat]:
    """An invertible unital algebra map commuting with the coactions, or None.

    The identity is tried first, with :func:`is_colinear_isomorphism`; it
    is the answer whenever it is one, so A against itself solves nothing.

    Every candidate lives in the (finite-dimensional) space of colinear maps,
    the unit condition cuts out an affine subspace, and the remaining
    multiplicativity constraints form a polynomial system whose solutions
    are enumerated exactly by :func:`~hopfexact.poly.concrete_solutions`.
    ``None`` therefore means no such isomorphism exists over the current
    field.  A system outside the supported reduction rules (the linear pass,
    univariate roots and linear isolation) is refused with a typed
    :class:`HopfExactError` rather than answered.

    ``T(e_i e_j) = T(e_i) T(e_j)`` is written for i in ``a.generators()``
    only when A and B are associative (:func:`is_associative`), else for
    every i.  With T(1) = 1 the x with ``T(xy) = T(x) T(y)`` for all y form
    a subalgebra: for x, x' in it ``T((xx')y) = T(x) (T(x') T(y)) =
    T(xx') T(y)``.  It holds G, so it is A.

    The map depends on A and B alone: the identity when it is a solution,
    else the least invertible one, comparing entries in row-major order,
    each by its rational coordinates over the field's basis.
    """
    if a.dim != b.dim:
        return None
    if a.dim > 8:
        raise UnsupportedDimension(
            f"isomorphism search is supported up to dimension 8, got {a.dim}")
    _require_same_hopf(a, b)
    ctx = a.ctx
    n = a.dim
    ident = Mat.identity(ctx, n)
    if is_colinear_isomorphism(a, b, ident):
        return ident
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
    associative = is_associative(a) and is_associative(b)
    eqs = []
    for i in a.generators() if associative else range(n):
        ti = images[i]
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
    found = []
    for sol in concrete_solutions(eqs, ctx):
        t = t0
        for name, d in zip(names, directions):
            t = t + d.scale(sol[name])
        if t == ident:
            return t
        found.append(t)
    found.sort(key=lambda t: [x.coeffs for row in t.rows for x in row])
    return next((t for t in found if rank(t) == n), None)


def is_colinear_isomorphism(a: ComoduleAlgebra, b: ComoduleAlgebra, t: Mat
                            ) -> bool:
    """Is ``t`` an algebra isomorphism from A onto B with ``lambda_b t =
    (id (x) t) lambda_a``?"""
    return (b.coaction @ t == kron_matmul(None, t, a.coaction)
            and is_algebra_isomorphism(a, b, t))


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
    pairs = [(r1.transpose().entries, r2.entries)
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
    ``first``, then that basis; the eigenspaces of the first candidate that
    splits are returned, with the rest of the module as one more block when
    the eigenvalues in the field do not cover it.  Nothing here checks that
    a candidate commutes with the action: a piece that is not invariant is
    refused when the action is restricted to it."""
    if len(comm) == 1:
        return None
    ctx = action[0].ctx
    d = action[0].nrows
    pending_quadratic = None
    for t in chain(first, comm):
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
    """The basis elements g of H with Delta(g) = g (x) g, read off the
    stored columns of the coproduct."""
    one, n = h.ctx.one(), h.dim
    return [h.basis_element(j)
            for j, col in enumerate(h.comult.transpose().entries)
            if col == {j * n + j: one}]


def simple_modules(a: ComoduleAlgebra) -> ModuleDecomposition:
    """Split the left regular module into simple modules.

    The commutant of the left regular module is the right multiplications:
    a map commuting with every ``L_b`` is ``R_c`` with ``c`` the image of
    the unit, so the first split reads its commutant off the table.  Each
    piece tries first the ``R_h`` for ``h`` homogeneous under the coaction
    (in the isotypic part of a grouplike of H), restricted to the piece
    where they leave it invariant; they do not depend on the basis of ``a``.
    Then it tries its commutant kernel, which also proves a piece simple,
    and the simple pieces are sorted into classes by their characters.

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
            handed = []
            for t in first:
                try:
                    handed.append(restrict_operator(t, s))
                except DimensionMismatch:
                    pass  # t does not leave s invariant
            worklist.append((_restrict_action(action, s), None, handed))
    # a leaf has a commutant of scalars, so it is absolutely simple, and in
    # characteristic zero two such modules with one character are isomorphic
    classes: list[SimpleModule] = []
    characters: list[tuple[FieldElement, ...]] = []
    mults: list[int] = []
    for action in leaves:
        character = tuple(trace(m) for m in action)
        if character in characters:
            mults[characters.index(character)] += 1
        else:
            classes.append(SimpleModule(action[0].nrows, action))
            characters.append(character)
            mults.append(1)
    order = sorted(range(len(classes)), key=lambda k: (classes[k].dim, k))
    classes = [classes[k] for k in order]
    mults = [mults[k] for k in order]
    split = (sum(c.dim * c.dim for c in classes) == a.dim
             and all(m == c.dim for m, c in zip(mults, classes)))
    return ModuleDecomposition(classes, mults, split)


def _extended_context(ctx: FieldContext, discriminant: FieldElement
                      ) -> FieldContext:
    """A context where the missing square root exists: raise the cyclotomic
    order to include the fourth roots of unity, then the eighth, and adjoin
    the root formally if it still is not there.

    A root is adjoined only over an order that is a power of two, where
    :func:`~hopfexact.field.sqrt_in_context` is complete; over any other
    order the root may lie in the raised field already (the square roots
    of 2, 3 and -3 all lie in Q(zeta_24)), and a formal root of a square
    would make a ring with zero divisors, so the extension is refused."""
    if ctx.has_layer:
        raise NeedsFieldExtension(discriminant)
    for order in dict.fromkeys(math.lcm(ctx.order, k) for k in (4, 8)):
        base = FieldContext(order)
        d = discriminant.coerce(base)
        try:
            sqrt_in_context(d)
            return base
        except NeedsFieldExtension:
            pass
    if order & (order - 1):
        # the refusal carries the caller's discriminant, over ctx
        raise NeedsFieldExtension(discriminant)
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
    inv = inverse(Mat.from_entries(ctx, [chars.entries[b] for b in basis_rows],
                                   k))

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
    X (x) M at b is ``(tr X (x) tr M)(lambda(b))``, solved against the
    characters of the simples, which are independent for a split semisimple
    algebra in characteristic zero.  A cell without a unique natural
    solution, or whose multiplicities do not add up to ``dim X * dim M``, is
    refused.

    The cells are read by contraction.  For each simple M the tr M leg is
    contracted once: ``(id (x) tr M) lambda`` is a table with a row per
    basis element h of H and a column per b, whose row h is the sum of
    ``tr M(a)`` times the coaction's row for ``h (x) a`` (its coefficients
    by b).  The character of each X (x) M is then the sum of ``tr X(h)``
    times row h, over the h with ``tr X(h) != 0``; both sums run over
    stored nonzero entries only.  The ring is commutative, so this
    regrouping gives each character its exact value, in a layer with zero
    divisors too.
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
    # row h * na + a of the coaction: the coefficients of h (x) a, by b
    lam = used.coaction.entries
    contracted = [
        [_combine({h * na + a: t for a, t in enumerate(m_char) if t}, lam)
         for h in range(used.hopf.dim)]
        for m_char in chars]
    rows = []
    for name, x_action in hmods:
        dx = x_action[0].nrows
        x_char = {h: t for h, t in enumerate(map(trace, x_action)) if t}
        row = []
        for m, table in zip(dec.simples, contracted):
            mults = multiplicities(_dense(ctx, _combine(x_char, table), na))
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
