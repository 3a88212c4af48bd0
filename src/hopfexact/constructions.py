"""Builders for the concrete algebras the package ships.

Everything here is constructed multiplicatively from a small presentation
and then frozen into structure-constant tables; nothing is entered as an
opaque table of numbers, so a typo in a relation shows up as a failed axiom
check rather than silently wrong data.

The recurring cast:

* ``build_klein4`` — the group algebra of the Klein four-group K = <x, y>.
* ``build_kp`` — the eight-dimensional Hopf algebra generated over the
  group algebra of K by an element z with  z**2 = (1 + x + y - xy)/2,
  x*z = z*y,  y*z = z*x, and the mixing coproduct
  2*comult(z) = (z + zx) (x) z + (z - zx) (x) zy.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Mapping, Optional, Sequence, Union

from .algebra import (Algebra, Table, direct_sum, is_algebra_morphism,
                      tensor_product)
from .comodule import (ComoduleAlgebra, _subalgebra_on_basis,
                       check_comodule_algebra, coideal_generated,
                       comodule_algebra_from_subspace,
                       degree_zero_projection, direct_sum_coaction,
                       kappa_map, loewy_filtration)
from .errors import (DimensionMismatch, GammaNotPrimitiveFourthRoot,
                     HopfExactError, NotACocycle, NotModuleAlgebra,
                     SingularAntipode)
from .field import FieldContext, FieldElement
from .hopf import Hopf, check_hopf, coradical_zero
from .linalg import (Mat, Scalar, Subspace, Vec, _terms, basis_vector, hstack,
                     inverse, kron, linear_combination, rank, solve,
                     tensor_vec, vadd, vscale, vstack, vsub, vzero)

#: basis masks for the Klein four-group; bit 0 is x, bit 1 is y
_KLEIN_LABELS = ("1", "x", "y", "xy")


def _phi(mask: int) -> int:
    """The flip automorphism of K exchanging x and y."""
    return ((mask & 1) << 1) | ((mask >> 1) & 1)


def build_klein4(ctx: Optional[FieldContext] = None) -> Hopf:
    """Group algebra of the Klein four-group, with its usual Hopf structure."""
    ctx = ctx or FieldContext(4)
    n = 4
    e = [basis_vector(ctx, n, j) for j in range(n)]
    table = [[e[g ^ h] for h in range(n)] for g in range(n)]
    comult = Mat.from_columns(ctx, [tensor_vec(e[g], e[g]) for g in range(n)])
    counit = [1] * n
    antipode = Mat.from_columns(ctx, e)  # every element is its own inverse
    return Hopf(ctx, _KLEIN_LABELS, e[0], table, comult, counit, antipode)


def build_kp(ctx: Optional[FieldContext] = None) -> Hopf:
    """The eight-dimensional Hopf algebra on basis {1, x, y, xy, z, zx, zy, zxy}.

    Basis index g < 4 is the group element with mask g; index 4 + g is z
    times that group element.  Products follow the normal form
    (z^d g)(h) = z^d (gh)  and  g(z h) = z(phi(g) h), with
    (z g)(z h) = Q phi(g) h  for  Q = (1 + x + y - xy)/2.
    """
    ctx = ctx or FieldContext(4)
    n = 8
    labels = list(_KLEIN_LABELS) + ["z" + (lab if lab != "1" else "")
                                    for lab in _KLEIN_LABELS]
    e = [basis_vector(ctx, n, j) for j in range(n)]
    half = ctx.scalar(Fraction(1, 2))
    q_coeffs = {0: half, 1: half, 2: half, 3: -half}

    def q_shifted(m: int) -> Vec:
        # the group-algebra element Q * (group element with mask m)
        v = list(vzero(ctx, n))
        for k, c in q_coeffs.items():
            v[k ^ m] = c
        return tuple(v)

    def product(i: int, j: int) -> Vec:
        gi, zi = i & 3, i & 4
        gj, zj = j & 3, j & 4
        if not zi and not zj:
            return e[gi ^ gj]
        if not zi and zj:
            return e[4 + (_phi(gi) ^ gj)]
        if zi and not zj:
            return e[4 + (gi ^ gj)]
        return q_shifted(_phi(gi) ^ gj)

    table = [[product(i, j) for j in range(n)] for i in range(n)]

    def z(m: int) -> Vec:
        return e[4 + m]

    cols = []
    for g in range(4):
        cols.append(tensor_vec(e[g], e[g]))
    for g in range(4):
        # 2*comult(zg) = (zg + z(xg)) (x) zg + (zg - z(xg)) (x) z(yg)
        plus = vadd(z(g), z(1 ^ g))
        minus = vsub(z(g), z(1 ^ g))
        total = vadd(tensor_vec(plus, z(g)), tensor_vec(minus, z(2 ^ g)))
        cols.append(vscale(half, total))
    comult = Mat.from_columns(ctx, cols)

    counit = [1] * n
    antipode = Mat.from_columns(
        ctx, [e[g] for g in range(4)] + [e[4 + _phi(g)] for g in range(4)])
    return Hopf(ctx, labels, e[0], table, comult, counit, antipode)


# -- comodule algebras over the eight-dimensional Hopf algebra ----------------


def _graded_coaction(hopf: Hopf, dim: int, h_index_of: Callable[[int], int]
                     ) -> Mat:
    """Coaction sending the j-th basis vector to (one H basis vector) (x) it."""
    ctx = hopf.ctx
    cols = []
    for j in range(dim):
        cols.append(tensor_vec(basis_vector(ctx, hopf.dim, h_index_of(j)),
                               basis_vector(ctx, dim, j)))
    return Mat.from_columns(ctx, cols)


def trivial_comodule_algebra_over(h: Hopf) -> ComoduleAlgebra:
    """The base field with the trivial coaction, over the given Hopf algebra."""
    unit = (h.ctx.one(),)
    return ComoduleAlgebra(h, ("1",), unit, [[unit]],
                           _graded_coaction(h, 1, lambda j: 0))


def regular_comodule_algebra(h: Hopf) -> ComoduleAlgebra:
    """A Hopf algebra coacting on itself by its own coproduct."""
    return ComoduleAlgebra(h, h.labels, h.unit,
                           [[h.table[i][j] for j in range(h.dim)]
                            for i in range(h.dim)],
                           h.comult)


def build_trivial_comodule_algebra(ctx: Optional[FieldContext] = None
                                   ) -> ComoduleAlgebra:
    """The base field with the trivial coaction."""
    return trivial_comodule_algebra_over(build_kp(ctx))


def _subgroup_comodule(h: Hopf, masks: Sequence[int]) -> ComoduleAlgebra:
    masks = list(masks)
    if 0 not in masks or any((g ^ k) not in masks for g in masks for k in masks):
        raise ValueError(f"masks {masks} do not form a subgroup")
    n = len(masks)
    pos = {m: j for j, m in enumerate(masks)}
    e = [basis_vector(h.ctx, n, j) for j in range(n)]
    table = [[e[pos[g ^ k]] for k in masks] for g in masks]
    labels = [_KLEIN_LABELS[m] for m in masks]
    return ComoduleAlgebra(h, labels, e[pos[0]], table,
                           _graded_coaction(h, n, lambda j: masks[j]))


def build_group_algebra_comodule(masks: Sequence[int],
                                 ctx: Optional[FieldContext] = None
                                 ) -> ComoduleAlgebra:
    """Group algebra of a subgroup of the Klein four-group, graded by itself.

    ``masks`` lists the subgroup's elements (bit 0 = x, bit 1 = y); it must be
    closed under the group operation and contain the identity.  The result
    coacts under the eight-dimensional Hopf algebra; see
    :func:`build_klein_subgroup_comodule` for the plain group-Hopf version.
    """
    return _subgroup_comodule(build_kp(ctx), masks)


def build_klein_subgroup_comodule(masks: Sequence[int],
                                  ctx: Optional[FieldContext] = None
                                  ) -> ComoduleAlgebra:
    """Subgroup algebra graded by itself over the Klein-four group algebra."""
    return _subgroup_comodule(build_klein4(ctx), masks)


#: the sign table realized by e_x -> E11 - E22, e_y -> E12 + E21 in 2x2
#: matrices; products follow u_g u_h = psi(g, h) u_{gh}
PSI_STANDARD: dict[tuple[int, int], int] = {
    (1, 2): 1, (2, 1): -1,
    (1, 3): 1, (3, 1): -1,
    (2, 3): -1, (3, 2): 1,
    (1, 1): 1, (2, 2): 1, (3, 3): -1,
}


def build_twisted_group_algebra(psi: Optional[Mapping[tuple[int, int], Scalar]]
                                = None,
                                ctx: Optional[FieldContext] = None
                                ) -> ComoduleAlgebra:
    """Klein-four group algebra with multiplication twisted by a 2-cocycle.

    ``psi`` maps pairs of group masks to nonzero scalars; pairs involving the
    identity may be omitted (they must be 1 if present).  The default is the
    sign table :data:`PSI_STANDARD`, which yields an algebra isomorphic to
    2x2 matrices.
    """
    h = build_kp(ctx)
    ctx = h.ctx
    if psi is None:
        psi = PSI_STANDARD

    def val(g: int, k: int) -> FieldElement:
        if g == 0 or k == 0:
            raw = psi.get((g, k), 1)
        else:
            try:
                raw = psi[(g, k)]
            except KeyError:
                raise NotACocycle(f"psi is missing the pair {(g, k)}") from None
        return raw if isinstance(raw, FieldElement) else ctx.scalar(raw)

    for g in range(4):
        if val(0, g) != ctx.one() or val(g, 0) != ctx.one():
            raise NotACocycle("psi is not normalized at the identity")
    for g in range(4):
        for k in range(4):
            if val(g, k).is_zero():
                raise NotACocycle(f"psi({g}, {k}) is zero")
            for m in range(4):
                if val(g, k) * val(g ^ k, m) != val(k, m) * val(g, k ^ m):
                    raise NotACocycle(
                        f"cocycle identity fails at {(g, k, m)}")
    e = [basis_vector(ctx, 4, j) for j in range(4)]
    table = [[vscale(val(g, k), e[g ^ k]) for k in range(4)] for g in range(4)]
    labels = ["e" + lab if lab != "1" else "1" for lab in _KLEIN_LABELS]
    return ComoduleAlgebra(h, labels, e[0], table,
                           _graded_coaction(h, 4, lambda j: j))


def kp_corep_columns(h: Hopf, v: Vec, w: Vec) -> tuple[Vec, Vec]:
    """The coaction columns of v and w when they span a copy of the
    two-dimensional simple corepresentation of kp:

        2 v -> (z + zx) (x) v + (z - zx) (x) w,
        2 w -> (zy - zxy) (x) v + (zy + zxy) (x) w.
    """
    half = h.ctx.scalar(Fraction(1, 2))
    hz = [h.basis_element(lab) for lab in ("z", "zx", "zy", "zxy")]
    col_v = vscale(half, vadd(tensor_vec(vadd(hz[0], hz[1]), v),
                              tensor_vec(vsub(hz[0], hz[1]), w)))
    col_w = vscale(half, vadd(tensor_vec(vsub(hz[2], hz[3]), v),
                              tensor_vec(vadd(hz[2], hz[3]), w)))
    return col_v, col_w


def build_a_xy_gamma(gamma: Union[Scalar, FieldElement],
                     ctx: Optional[FieldContext] = None) -> ComoduleAlgebra:
    """The four-dimensional comodule algebra with basis {1, exy, v, w}.

    ``gamma`` must square to -1.  The grouplike unit exy sits in degree xy,
    and v, w span a single 2-dimensional corepresentation with

        exy * v = v * exy = gamma * w,     exy * w = w * exy = -gamma * v,
        v*v = 1 + gamma*exy,   v*w = w*v = 1 - gamma*exy,
        w*w = -(1 + gamma*exy).
    """
    h = build_kp(ctx)
    ctx = h.ctx
    g = gamma if isinstance(gamma, FieldElement) else ctx.scalar(gamma)
    if g * g != ctx.scalar(-1):
        raise GammaNotPrimitiveFourthRoot(
            f"gamma = {g!r} does not square to -1")
    n = 4
    one, exy, v, w = (basis_vector(ctx, n, j) for j in range(n))
    gw = vscale(g, w)
    mgv = vscale(-g, v)
    one_plus = vadd(one, vscale(g, exy))
    one_minus = vsub(one, vscale(g, exy))
    table = [
        [one, exy, v, w],
        [exy, one, gw, mgv],
        [v, gw, one_plus, one_minus],
        [w, mgv, one_minus, vscale(ctx.scalar(-1), one_plus)],
    ]
    coaction = Mat.from_columns(ctx, [
        tensor_vec(h.unit, one),
        tensor_vec(h.basis_element("xy"), exy),
        *kp_corep_columns(h, v, w),
    ])
    return ComoduleAlgebra(h, ("1", "exy", "v", "w"), one, table, coaction)


def build_regular_comodule_algebra(ctx: Optional[FieldContext] = None
                                   ) -> ComoduleAlgebra:
    """The eight-dimensional Hopf algebra coacting on itself by its coproduct."""
    return regular_comodule_algebra(build_kp(ctx))


def with_trivial_coaction(hopf: Hopf, alg: "Algebra") -> ComoduleAlgebra:
    """Wrap a plain algebra as a comodule algebra with coaction a -> 1 (x) a."""
    return ComoduleAlgebra(hopf, alg.labels, alg.unit,
                           [[alg.table[i][j] for j in range(alg.dim)]
                            for i in range(alg.dim)],
                           _graded_coaction(hopf, alg.dim, lambda j: 0))


def build_matrix2_trivial(ctx: Optional[FieldContext] = None
                          ) -> ComoduleAlgebra:
    """2x2 matrices with the trivial coaction (simple, but not H-simple)."""
    h = build_kp(ctx)
    ctx = h.ctx
    e = [basis_vector(ctx, 4, j) for j in range(4)]
    z = vzero(ctx, 4)
    # basis order E11, E12, E21, E22; E_{ij} E_{kl} = delta_{jk} E_{il}
    table = [
        [e[0], e[1], z, z],
        [z, z, e[0], e[1]],
        [e[2], e[3], z, z],
        [z, z, e[2], e[3]],
    ]
    alg = Algebra(ctx, ("E11", "E12", "E21", "E22"), vadd(e[0], e[3]), table)
    return with_trivial_coaction(h, alg)


def comodule_direct_sum(a: ComoduleAlgebra, b: ComoduleAlgebra
                        ) -> ComoduleAlgebra:
    """Direct sum of comodule algebras with the block-diagonal coaction."""
    if a.hopf is not b.hopf and a.hopf.table != b.hopf.table:
        raise DimensionMismatch("summands live over different Hopf algebras")
    plain = direct_sum(a, b)
    n = a.dim + b.dim
    return ComoduleAlgebra(a.hopf, plain.labels, plain.unit,
                           [[plain.table[i][j] for j in range(n)]
                            for i in range(n)],
                           direct_sum_coaction(a.hopf.dim, a.coaction,
                                               b.coaction))


def build_bimodule_V(target: str, ctx: Optional[FieldContext] = None
                     ) -> "RightComodModule":
    """The two-dimensional comodule whose endomorphism algebras realize the
    catalog equivalences.

    The underlying space is the 2-dimensional corepresentation span{v, w};
    the right action of the twisted group algebra is

        v*ex = v,   w*ex = -w,   v*ey = w,   w*ey = v,

    and ``target="ga_x"`` restricts it to the subgroup algebra on {1, x}
    acting through x -> ex.
    """
    from .morita import RightComodModule
    if target == "kpsi":
        b = build_twisted_group_algebra(None, ctx)
    elif target == "ga_x":
        b = build_group_algebra_comodule((0, 1), ctx)
    else:
        raise ValueError(f"build_bimodule_V target must be 'kpsi' or 'ga_x', "
                         f"got {target!r}")
    h = b.hopf
    ctx = h.ctx
    one, minus, zero = ctx.one(), ctx.scalar(-1), ctx.zero()
    rx = Mat(ctx, [[one, zero], [zero, minus]])
    ry = Mat(ctx, [[zero, one], [one, zero]])
    ident = Mat.identity(ctx, 2)
    # right action composes contravariantly: the matrix for e_xy = ex*ey is
    # R(ey) after R(ex)
    action = [ident, rx, ry, ry @ rx] if target == "kpsi" else [ident, rx]
    v, w = basis_vector(ctx, 2, 0), basis_vector(ctx, 2, 1)
    coaction = Mat.from_columns(ctx, kp_corep_columns(h, v, w))
    return RightComodModule(b, 2, coaction, action)


def build_graded_free_module(masks: Sequence[int], degree: int,
                             ctx: Optional[FieldContext] = None
                             ) -> "RightComodModule":
    """Rank-one free right module over a Klein subgroup algebra, with the
    generator graded by the group element ``degree``.

    The basis vector indexed by subgroup element m sits in degree
    (degree XOR m); the action is the regular one.  Varying ``degree`` over
    the four group elements enumerates every 2-dimensional graded module
    when the subgroup has two elements.
    """
    from .morita import RightComodModule
    b = build_klein_subgroup_comodule(masks, ctx)
    h = b.hopf
    ctx = h.ctx
    masks = list(masks)
    if degree not in range(4):
        raise ValueError(f"degree must be a Klein mask, got {degree!r}")
    pos = {m: j for j, m in enumerate(masks)}
    n = len(masks)
    action = []
    for k in masks:
        cols = [basis_vector(ctx, n, pos[m ^ k]) for m in masks]
        action.append(Mat.from_columns(ctx, cols))
    cols = []
    for j, m in enumerate(masks):
        cols.append(tensor_vec(basis_vector(ctx, h.dim, degree ^ m),
                               basis_vector(ctx, n, j)))
    return RightComodModule(b, n, Mat.from_columns(ctx, cols), action)


# -- coideal subalgebras as standalone comodule algebras ----------------------


def build_coideal_subalgebra(h: Hopf, gens: Sequence[Vec],
                             labels: Optional[Sequence[str]] = None
                             ) -> ComoduleAlgebra:
    """Close the generators under products and coproduct slices inside h and
    return the result as a comodule algebra coacted by the restricted
    coproduct."""
    return comodule_algebra_from_subspace(h, coideal_generated(h, gens),
                                          labels)


# -- smash products and bosonization -------------------------------------------


class SmashInput:
    """A graded algebra B carrying both an action and a coaction of a base
    Hopf algebra, together with the comodule algebra it will be smashed with.

    * ``action[h]`` is the matrix on B of the h-th basis element of the base.
    * ``coaction`` is a ``(dim H0 * dim B) x dim B`` matrix in the usual
      left-coarse layout.
    * ``grading`` lists the degree layers of B, degree zero first; the zero
      layer must be the span of the unit.
    """

    def __init__(self, hopf0: Hopf, algebra: Algebra, action: Sequence[Mat],
                 coaction: Mat, grading: Sequence[Subspace],
                 a0: ComoduleAlgebra):
        self.hopf0 = hopf0
        self.algebra = algebra
        self.action = list(action)
        self.coaction = coaction
        self.grading = list(grading)
        self.a0 = a0
        nb, n0 = algebra.dim, hopf0.dim
        if len(self.action) != n0:
            raise DimensionMismatch("need one action matrix per base basis "
                                    "element")
        for m in self.action:
            if m.nrows != nb or m.ncols != nb:
                raise DimensionMismatch("action matrices must be square of "
                                        "the algebra dimension")
        if coaction.nrows != n0 * nb or coaction.ncols != nb:
            raise DimensionMismatch(
                f"coaction must be {n0 * nb}x{nb}, got "
                f"{coaction.nrows}x{coaction.ncols}")


def check_smash_input(inp: SmashInput) -> list[str]:
    """All the checkable preconditions for smashing, as problem strings.

    Module-algebra failures are prefixed with ``action:`` so the constructor
    can raise the specific error type for them.
    """
    problems = []
    h0, b = inp.hopf0, inp.algebra
    ctx = b.ctx
    n0, nb = h0.dim, b.dim
    if (inp.a0.hopf is not h0 and (inp.a0.hopf.table != h0.table
                                   or inp.a0.hopf.comult != h0.comult)):
        problems.append("the comodule algebra lives over a different base "
                        "Hopf algebra")
    if linear_combination(h0.unit, inp.action) != Mat.identity(ctx, nb):
        problems.append("action: the unit of the base does not act as the "
                        "identity")
    for g in range(n0):
        for h in range(n0):
            expected = linear_combination(h0.table[g][h], inp.action)
            if inp.action[g] @ inp.action[h] != expected:
                problems.append(f"action: composition fails on basis pair "
                                f"({g}, {h})")
    for h in range(n0):
        # h |> 1 = counit(h) 1
        lhs = inp.action[h].apply(b.unit)
        if lhs != tuple(c * h0.counit[h] for c in b.unit):
            problems.append(f"action: basis element {h} does not scale the "
                            "unit by its counit")
        dh = h0.comult.col(h)
        for r in range(nb):
            for s in range(nb):
                lhs = inp.action[h].apply(b.table[r][s])
                rhs = [ctx.zero()] * nb
                for idx, c in enumerate(dh):
                    if c.is_zero():
                        continue
                    h1, h2 = divmod(idx, n0)
                    term = b.multiply(inp.action[h1].col(r),
                                      inp.action[h2].col(s))
                    for m, tc in enumerate(term):
                        if not tc.is_zero():
                            rhs[m] = rhs[m] + c * tc
                if lhs != tuple(rhs):
                    problems.append(
                        f"action: module-algebra law fails for basis element "
                        f"{h} on the product of basis vectors {r} and {s}")
    coacted = ComoduleAlgebra(h0, b.labels, b.unit,
                              [[b.table[i][j] for j in range(nb)]
                               for i in range(nb)], inp.coaction)
    problems += check_comodule_algebra(coacted)
    layers = inp.grading
    if not layers or layers[0].dim != 1 or not layers[0].contains(b.unit):
        problems.append("the zero layer of the grading must be the span of "
                        "the unit")
    joint = [v for layer in layers for v in layer.basis()]
    if (sum(layer.dim for layer in layers) != nb
            or Subspace.from_vectors(ctx, nb, joint).dim != nb):
        problems.append("the grading layers do not decompose the algebra")
    top = len(layers)
    for i, li in enumerate(layers):
        for j, lj in enumerate(layers):
            for u in li.basis():
                for v in lj.basis():
                    prod = b.multiply(u, v)
                    if i + j >= top:
                        if any(not c.is_zero() for c in prod):
                            problems.append(
                                f"the grading is not multiplicative: degrees "
                                f"{i} and {j} overflow with a nonzero product")
                    elif not layers[i + j].contains(prod):
                        problems.append(
                            f"the grading is not multiplicative on degrees "
                            f"{i} and {j}")
    for n, layer in enumerate(layers):
        for v in layer.basis():
            for h in range(n0):
                if not layer.contains(inp.action[h].apply(v)):
                    problems.append(f"the action does not preserve degree "
                                    f"{n}")
            image = inp.coaction.apply(v)
            for h in range(n0):
                piece = tuple(image[h * nb + k] for k in range(nb))
                if any(not c.is_zero() for c in piece) \
                        and not layer.contains(piece):
                    problems.append(f"the coaction does not preserve degree "
                                    f"{n}")
                    break
    return problems


def _acting_table(inp: SmashInput) -> Table:
    """The left leg of every twisted product over B: the product table
    ``(b_i (x) g, b_p) -> b_i (g |> b_p)`` of B (x) H0 against B."""
    b = inp.algebra
    return tuple(
        tuple(tuple(_terms(b.multiply(b.basis_element(i), act.col(p))))
              for p in range(b.dim))
        for i in range(b.dim) for act in inp.action)


def _primitive_coproduct(inp: SmashInput, acting: Table) -> Mat:
    """The coproduct on B determined by making every degree-one basis vector
    primitive and extending multiplicatively through the braided square.

    The braided square is the twisted product with A = B under the coaction
    of B: in ``(b_i (x) b_j)(b_p (x) b_q)`` the leg b_j coacts on the
    first leg of the second factor before the legs multiply pairwise, so it
    is the product of ``(id (x) coaction) u`` and ``v`` with ``acting`` on
    the left leg.

    Raises :class:`HopfExactError` when degree one does not generate B or the
    extension is inconsistent (some relation of B is not a coalgebra
    relation)."""
    b = inp.algebra
    ctx = b.ctx
    nb = b.dim
    lift = kron(Mat.identity(ctx, nb), inp.coaction)
    pairs: list[tuple[Vec, Vec]] = []

    def record(vec: Vec, image: Vec) -> bool:
        known = Subspace.from_vectors(ctx, nb, [p[0] for p in pairs])
        if known.contains(vec):
            coords = solve(Mat.from_columns(ctx, [p[0] for p in pairs]), vec)
            images = Mat.from_columns(ctx, [p[1] for p in pairs])
            if images.apply(coords) != tuple(image):
                raise HopfExactError(
                    "no multiplicative coproduct makes the degree-one "
                    "layer primitive")
            return False
        pairs.append((tuple(vec), tuple(image)))
        return True

    record(b.unit, tensor_vec(b.unit, b.unit))
    ones = inp.grading[1].basis() if len(inp.grading) > 1 else ()
    for v in ones:
        record(v, vadd(tensor_vec(v, b.unit), tensor_vec(b.unit, v)))
    changed = True
    while changed:
        changed = False
        for b1, t1 in list(pairs):
            for b2, t2 in list(pairs):
                prod = b.multiply(b1, b2)
                image = tensor_product(acting, b.terms, lift.apply(t1), t2,
                                       (nb, nb))
                if record(prod, image):
                    changed = True
    if len(pairs) != nb:
        raise HopfExactError("the degree-one layer does not generate the "
                             "algebra, so no coproduct can be inferred")
    # pairs holds nb independent vectors, so the body is invertible
    body = Mat.from_columns(ctx, [p[0] for p in pairs])
    return Mat.from_columns(ctx, [p[1] for p in pairs]) @ inverse(body)


def _graded_counit(b: Algebra, grading: Sequence[Subspace]) -> Vec:
    """The functional that is 1 on the unit and kills the higher layers."""
    rows = [list(b.unit)]
    rhs = [b.ctx.one()]
    for layer in grading[1:]:
        for v in layer.basis():
            rows.append(list(v))
            rhs.append(b.ctx.zero())
    sol = solve(Mat(b.ctx, rows), tuple(rhs))
    if sol is None:
        raise HopfExactError("the grading does not determine a counit")
    return sol


def _solve_antipode(ctx: FieldContext, n: int, unit: Vec,
                    table: Sequence[Sequence[Vec]], comult: Mat,
                    counit: Vec) -> Mat:
    """The convolution inverse of the identity, by one linear solve."""
    rmul = []
    for q in range(n):
        cols = [table[p][q] for p in range(n)]
        rmul.append(Mat.from_columns(ctx, cols))
    block_rows = []
    rhs: list[FieldElement] = []
    for m in range(n):
        blocks = [linear_combination([comult[p * n + q, m] for q in range(n)],
                                     rmul) for p in range(n)]
        block_rows.append(hstack(blocks))
        rhs.extend(c * counit[m] for c in unit)
    sol = solve(vstack(block_rows), tuple(rhs))
    if sol is None:
        raise SingularAntipode("the identity has no convolution inverse")
    cols = [tuple(sol[p * n:(p + 1) * n]) for p in range(n)]
    return Mat.from_columns(ctx, cols)


def _join_labels(left: str, right: str) -> str:
    if left == "1":
        return right
    if right == "1":
        return left
    return f"{left}#{right}"


def _require_smash_input(inp: SmashInput) -> None:
    problems = check_smash_input(inp)
    action_problems = [p for p in problems if p.startswith("action:")]
    if action_problems:
        raise NotModuleAlgebra("; ".join(
            p[len("action: "):] for p in action_problems))
    if problems:
        raise HopfExactError("; ".join(problems))


def bosonize(inp: SmashInput) -> Hopf:
    """The Hopf algebra on B (x) H0 whose coradically graded structure has
    diagram B: the product twists through the action, the coproduct through
    the coaction, and the antipode is solved as the convolution inverse of
    the identity."""
    _require_smash_input(inp)
    return _bosonize_unchecked(inp)


def _twisted_product(inp: SmashInput, a: Algebra, a_coaction: Mat
                     ) -> tuple[list[str], Vec, list[list[Vec]], Mat]:
    """Labels, unit, product table and coaction of B (x) A for an algebra A
    with a left H0-coaction ``a_coaction``.

    The product twists through the action of H0 on B,
    ``(b # a)(b' # a') = b (a(-1) |> b') # a(0) a'``, and the coaction on
    B (x) A lands in the bosonization B (x) H0.  With A = H0 coacting on
    itself by its coproduct this is the bosonization's own product and
    coproduct; with A = A0 it is the smash product."""
    h0, b = inp.hopf0, inp.algebra
    ctx = b.ctx
    n0, nb, na = h0.dim, b.dim, a.dim
    labels = [_join_labels(b.labels[i], a.labels[k])
              for i in range(nb) for k in range(na)]
    unit = tensor_vec(b.unit, a.unit)
    # (b_i # a_k)(b_p # a_q) is the product of b_i (x) coaction(a_k), with
    # legs b_i (x) g and a_m, and b_p (x) a_q
    acting = _acting_table(inp)
    lifted = kron(Mat.identity(ctx, nb), a_coaction)
    basis = [basis_vector(ctx, nb * na, j) for j in range(nb * na)]
    table = [[tensor_product(acting, a.terms, u, y, (nb, na)) for y in basis]
             for u in map(lifted.col, range(nb * na))]
    # the coaction of b_i # a_k is the product of
    # (id (x) coaction_B) comult_B(b_i), with legs b_r (x) f and b_s, and
    # coaction(a_k), with legs g and a_m: the H0 legs multiply into
    # b_r (x) fg, and the legs b_s and a_m sit side by side
    lifted_delta = (kron(Mat.identity(ctx, nb), inp.coaction)
                    @ _primitive_coproduct(inp, acting))
    into_bosonization = tuple(
        tuple(tuple((r * n0 + k, c) for k, c in h0.terms[f][g])
              for g in range(n0))
        for r in range(nb) for f in range(n0))
    one = ctx.one()
    side_by_side = tuple(tuple(((s * na + m, one),) for m in range(na))
                         for s in range(nb))
    cols = [tensor_product(into_bosonization, side_by_side, lifted_delta.col(i),
                           a_coaction.col(k), (nb * n0, nb * na))
            for i in range(nb) for k in range(na)]
    return labels, unit, table, Mat.from_columns(ctx, cols)


def _bosonize_unchecked(inp: SmashInput) -> Hopf:
    h0, b = inp.hopf0, inp.algebra
    ctx = b.ctx
    n0, nb = h0.dim, b.dim
    labels, unit, table, comult = _twisted_product(inp, h0, h0.comult)
    eps_b = _graded_counit(b, inp.grading)
    counit = tuple(eps_b[i] * h0.counit[j]
                   for i in range(nb) for j in range(n0))
    antipode = _solve_antipode(ctx, nb * n0, unit, table, comult, counit)
    out = Hopf(ctx, labels, unit, table, comult, counit, antipode)
    problems = check_hopf(out)
    if problems:
        raise HopfExactError("the smash data does not assemble into a Hopf "
                             "algebra: " + "; ".join(problems))
    return out


@dataclass
class SmashResult:
    """A smash product comodule algebra, its degree grading, and the Hopf
    algebra (on B (x) H0) it coacts under."""
    algebra: ComoduleAlgebra
    grading: list[Subspace]
    bosonization: Hopf


def smash_product(inp: SmashInput) -> SmashResult:
    """The comodule algebra on B (x) A0 with the twisted product and the
    diagonal coaction, graded by B-degree, over the bosonization of B."""
    _require_smash_input(inp)
    hopf = _bosonize_unchecked(inp)
    b, a0 = inp.algebra, inp.a0
    ctx = b.ctx
    na = a0.dim
    labels, unit, table, coaction = _twisted_product(inp, a0, a0.coaction)
    out = ComoduleAlgebra(hopf, labels, unit, table, coaction)
    problems = check_comodule_algebra(out)
    if problems:
        raise HopfExactError("the smash product fails its own axioms: "
                             + "; ".join(problems))
    grading = []
    for layer in inp.grading:
        vecs = [tensor_vec(v, basis_vector(ctx, na, k))
                for v in layer.basis() for k in range(na)]
        grading.append(Subspace.from_vectors(ctx, b.dim * na, vecs))
    return SmashResult(out, grading, hopf)


def build_cyclic2_hopf(ctx: Optional[FieldContext] = None) -> Hopf:
    """Group algebra of Z/2, with its usual Hopf structure."""
    ctx = ctx or FieldContext(4)
    e = [basis_vector(ctx, 2, j) for j in range(2)]
    table = [[e[g ^ h] for h in range(2)] for g in range(2)]
    comult = Mat.from_columns(ctx, [tensor_vec(e[g], e[g]) for g in range(2)])
    antipode = Mat.from_columns(ctx, e)
    return Hopf(ctx, ("1", "g"), e[0], table, comult, [1, 1], antipode)


def sweedler_smash_input(a0: Optional[ComoduleAlgebra] = None,
                         ctx: Optional[FieldContext] = None) -> SmashInput:
    """The nilpotent line B = k[v]/(v**2) over the group algebra of Z/2,
    with g acting by sign and v coacting as g (x) v.

    Smashing against the base itself (the default ``a0``) bosonizes to
    Sweedler's four-dimensional Hopf algebra; smashing against the base
    field gives the two-dimensional comodule algebra it coacts on.
    """
    h0 = build_cyclic2_hopf(ctx) if a0 is None else a0.hopf
    if h0.dim != 2 or h0.table != build_cyclic2_hopf(h0.ctx).table:
        raise DimensionMismatch(
            "a0 must live over the group algebra of Z/2")
    ctx = h0.ctx
    e = [basis_vector(ctx, 2, j) for j in range(2)]
    b = Algebra(ctx, ("1", "v"), e[0],
                [[e[0], e[1]], [e[1], (ctx.zero(), ctx.zero())]])
    action = [Mat.identity(ctx, 2),
              Mat.from_columns(ctx, [e[0], vscale(ctx.scalar(-1), e[1])])]
    coaction = Mat.from_columns(ctx, [tensor_vec(e[0], e[0]),
                                      tensor_vec(e[1], e[1])])
    grading = [Subspace.from_vectors(ctx, 2, [e[0]]),
               Subspace.from_vectors(ctx, 2, [e[1]])]
    if a0 is None:
        a0 = regular_comodule_algebra(h0)
    return SmashInput(h0, b, action, coaction, grading, a0)


def trivial_smash_input(a0: ComoduleAlgebra) -> SmashInput:
    """Smash data with B the base field: the product and coaction reduce to
    those of a0 itself."""
    h0 = a0.hopf
    ctx = h0.ctx
    unit = (ctx.one(),)
    b = Algebra(ctx, ("1",), unit, [[unit]])
    action = [Mat(ctx, [[h0.counit[h]]]) for h in range(h0.dim)]
    coaction = Mat.from_columns(ctx, [tuple(h0.unit)])
    grading = [Subspace.full(ctx, 1)]
    return SmashInput(h0, b, action, coaction, grading, a0)


@dataclass
class SmashContainment:
    """An embedding of a comodule algebra into the smash product of the
    diagram with the algebra's own degree-zero layer, with its verdicts."""
    zero_part: ComoduleAlgebra
    smash: SmashResult
    embedding: Optional[Mat]
    contained: bool
    injective: bool
    algebra_morphism: bool
    colinear: bool


def _corestrict_zero_part(inp: SmashInput, a: ComoduleAlgebra,
                          zero_layer: Sequence[Vec]) -> ComoduleAlgebra:
    """Pack the degree-zero Loewy layer of ``a`` as a comodule algebra over
    the base Hopf algebra.

    The layer must be a subalgebra whose coaction legs lie inside the copy
    ``1 # H0`` of the bosonization; anything else raises.
    """
    h0, b = inp.hopf0, inp.algebra
    ctx = a.ctx
    n0, na, nh = h0.dim, a.dim, a.hopf.dim
    packed = _subalgebra_on_basis(a, zero_layer)
    if packed is None:
        raise HopfExactError(
            "the degree-zero layer is not a unital subalgebra")
    sub, _ = packed
    d0 = len(zero_layer)
    body = Mat.from_columns(ctx, list(zero_layer))
    base_copy = Mat.from_columns(
        ctx, [tensor_vec(b.unit, basis_vector(ctx, n0, g))
              for g in range(n0)])
    rows = [[ctx.zero()] * d0 for _ in range(n0 * d0)]
    for j, v in enumerate(zero_layer):
        image = a.coaction.apply(v)
        legs = [[ctx.zero()] * na for _ in range(n0)]
        for k in range(na):
            h_leg = tuple(image[h * na + k] for h in range(nh))
            coords_h = solve(base_copy, h_leg)
            if coords_h is None:
                raise HopfExactError("the degree-zero layer coacts outside "
                                     "the base Hopf algebra")
            for g in range(n0):
                legs[g][k] = coords_h[g]
        for g in range(n0):
            coords = solve(body, tuple(legs[g]))
            if coords is None:
                raise HopfExactError("the coaction does not preserve the "
                                     "degree-zero layer")
            for k, c in enumerate(coords):
                rows[g * d0 + k][j] = c
    out = ComoduleAlgebra(h0, sub.labels, sub.unit, sub.table, Mat(ctx, rows))
    problems = check_comodule_algebra(out)
    if problems:
        raise HopfExactError("the degree-zero layer fails to corestrict: "
                             + "; ".join(problems))
    return out


def smash_containment(inp: SmashInput, a: ComoduleAlgebra
                      ) -> SmashContainment:
    """Realize ``a`` inside the smash product  B # A(0)  of the diagram with
    the degree-zero Loewy layer of ``a`` itself.

    Both sides are compared through their degree-zero comparison maps into
    H (x) A(0); the embedding solves one against the other column by column.
    """
    h = bosonize(inp)
    if a.hopf.table != h.table or a.hopf.comult != h.comult:
        raise DimensionMismatch(
            "the comodule algebra does not coact under the bosonization")
    ctx = a.ctx
    c0 = coradical_zero(h)
    filtration = loewy_filtration(a, c0)
    _, zero_layer = degree_zero_projection(a, filtration)
    d0 = len(zero_layer)
    a0 = _corestrict_zero_part(inp, a, zero_layer)
    sm = smash_product(SmashInput(inp.hopf0, inp.algebra, inp.action,
                                  inp.coaction, inp.grading, a0))
    big = sm.algebra
    zl_big = degree_zero_projection(big, loewy_filtration(big, c0))[1]
    expected = [basis_vector(ctx, big.dim, k) for k in range(d0)]
    if list(zl_big) != expected:
        raise HopfExactError("the smash product's degree-zero layer is not "
                             "the expected copy of the layer of a")
    kc = kappa_map(big, c0)
    ka = kappa_map(a, c0)
    cols = []
    contained = True
    for j in range(a.dim):
        x = solve(kc.matrix, ka.matrix.col(j))
        if x is None:
            contained = False
            break
        cols.append(x)
    if not contained:
        return SmashContainment(a0, sm, None, False, False, False, False)
    emb = Mat.from_columns(ctx, cols)
    injective = rank(emb) == a.dim
    algebra_ok = is_algebra_morphism(a, big, emb)
    colinear = (big.coaction @ emb
                == kron(Mat.identity(ctx, h.dim), emb) @ a.coaction)
    return SmashContainment(a0, sm, emb, True, injective, algebra_ok,
                            colinear)


def catalog(ctx: Optional[FieldContext] = None) -> dict[str, ComoduleAlgebra]:
    """All the built-in comodule algebras, keyed by their short names."""
    ctx = ctx or FieldContext(4)
    return {
        "k": build_trivial_comodule_algebra(ctx),
        "ga_x": build_group_algebra_comodule((0, 1), ctx),
        "ga_y": build_group_algebra_comodule((0, 2), ctx),
        "ga_xy": build_group_algebra_comodule((0, 3), ctx),
        "ga_k": build_group_algebra_comodule((0, 1, 2, 3), ctx),
        "a_i_xy": build_a_xy_gamma(ctx.i(), ctx),
        "kp": build_regular_comodule_algebra(ctx),
        "kpsi": build_twisted_group_algebra(None, ctx),
    }
