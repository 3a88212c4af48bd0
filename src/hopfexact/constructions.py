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
* one builder per catalog entry, each over the kp it is given:
  ``trivial_comodule_algebra_over`` (k), ``group_algebra_comodule_over``
  (the ga_*), ``a_xy_gamma_over`` (a_i_xy), ``regular_comodule_algebra``
  (kp) and ``twisted_group_algebra_over`` (kpsi); ``catalog`` calls each.
* ``block_patterns`` — the signs that colinearity forces on the products
  of kp's two-dimensional block with grouplikes and with itself.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, Optional, Sequence, Union

from .algebra import Algebra, direct_sum, tensor_product
from .comodule import (Comodule, ComoduleAlgebra, ComoduleLike,
                       direct_sum_coaction)
from .errors import (DimensionMismatch, GammaNotPrimitiveFourthRoot,
                     NotACocycle, NotOverKp)
from .field import FieldContext, FieldElement
from .hopf import Hopf
from .linalg import (Mat, Scalar, Vec, basis_vector, tensor_vec, vadd, vscale,
                     vsub, vzero)

#: basis masks for the Klein four-group; bit 0 is x, bit 1 is y
_KLEIN_LABELS = ("1", "x", "y", "xy")
#: the basis labels of kp: index g < 4 is a group element, 4 + g is z times it
_KP_LABELS = _KLEIN_LABELS + ("z", "zx", "zy", "zxy")


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


#: kp per field context, keyed by context equality: :func:`build_kp`
_KP: dict[FieldContext, Hopf] = {}


def build_kp(ctx: Optional[FieldContext] = None) -> Hopf:
    """The eight-dimensional Hopf algebra on basis {1, x, y, xy, z, zx, zy, zxy}.

    Basis index g < 4 is the group element with mask g; index 4 + g is z
    times that group element.  Products follow the normal form
    (z^d g)(h) = z^d (gh)  and  g(z h) = z(phi(g) h), with
    (z g)(z h) = Q phi(g) h  for  Q = (1 + x + y - xy)/2.

    It is built once per context per run: every call with an equal context
    returns the same object, so the verdicts stored on it and on its
    regular comodule algebra are decided once.
    """
    ctx = ctx or FieldContext(4)
    if ctx in _KP:
        return _KP[ctx]
    n = 8
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
    h = _KP[ctx] = Hopf(ctx, _KP_LABELS, e[0], table, comult, counit,
                        antipode)
    return h


def _require_over_kp(c: ComoduleLike) -> None:
    """Raise :class:`~hopfexact.errors.NotOverKp` unless ``c`` is over kp
    itself: the structure of :func:`build_kp`, in its basis order."""
    h = c.hopf
    reference = build_kp(h.ctx)
    same = (h.dim == reference.dim and h.table == reference.table
            and h.comult == reference.comult and h.counit == reference.counit
            and h.antipode == reference.antipode)
    if not same:
        raise NotOverKp(
            "this needs the 8-dimensional Hopf algebra kp with its standard "
            "basis order")


# -- comodule algebras over the eight-dimensional Hopf algebra ----------------


def basis_coaction(h: Hopf, dim: int, grouplikes: Sequence[int],
                   blocks: Sequence[tuple[int, int]] = ()) -> Mat:
    """The coaction on a space with basis e_0, ..., e_{dim-1} that sends
    e_j to h_g (x) e_j for the j-th index g of ``grouplikes`` (an H basis
    element that is grouplike), and makes each pair (v, w) of ``blocks``
    a copy of the two-dimensional simple corepresentation of kp:

        2 v -> (z + zx) (x) v + (z - zx) (x) w,
        2 w -> (zy - zxy) (x) v + (zy + zxy) (x) w.

    The columns are written from their nonzero entries.  Blocks need ``h``
    to be kp: its labels must be those of :func:`build_kp`, else
    :class:`~hopfexact.errors.NotOverKp` is raised."""
    ctx = h.ctx
    one = ctx.one()
    cols = [{g * dim + j: one} for j, g in enumerate(grouplikes)]
    cols += [{} for _ in range(dim - len(cols))]
    if blocks:
        if h.labels != _KP_LABELS:
            raise NotOverKp(f"blocks need kp's basis {list(_KP_LABELS)}, "
                            f"got {list(h.labels)}")
        half = ctx.scalar(Fraction(1, 2))
        z, zx, zy, zxy = (k * dim for k in range(4, 8))
        for v, w in blocks:
            cols[v] = {z + v: half, zx + v: half, z + w: half, zx + w: -half}
            cols[w] = {zy + v: half, zxy + v: -half, zy + w: half,
                       zxy + w: half}
    return Mat.from_entries(ctx, cols, h.dim * dim).transpose()


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
    from .morita import colinear_maps
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


def trivial_comodule_algebra_over(h: Hopf) -> ComoduleAlgebra:
    """The base field with the trivial coaction, over the given Hopf algebra."""
    unit = (h.ctx.one(),)
    return ComoduleAlgebra(h, ("1",), unit, [[unit]],
                           basis_coaction(h, 1, [0]))


def regular_comodule_algebra(h: Hopf) -> ComoduleAlgebra:
    """A Hopf algebra coacting on itself by its own coproduct; over kp this
    is the eight-dimensional comodule algebra ``kp`` of the catalog.

    It is built once per Hopf algebra per run and stored on ``h``, so every
    caller over one kp reads the verdicts decided on one object."""
    if h._regular is None:
        h._regular = ComoduleAlgebra(h, h.labels, h.unit, h.table, h.comult)
    return h._regular


def group_algebra_comodule_over(h: Hopf, masks: Sequence[int]
                                ) -> ComoduleAlgebra:
    """Group algebra of a subgroup of the Klein four-group, graded by itself.

    ``masks`` lists the subgroup's elements (bit 0 = x, bit 1 = y); it must be
    closed under the group operation and contain the identity.  The result
    coacts under ``h``, which must be kp.
    """
    masks = list(masks)
    if 0 not in masks or any((g ^ k) not in masks for g in masks for k in masks):
        raise ValueError(f"masks {masks} do not form a subgroup")
    n = len(masks)
    pos = {m: j for j, m in enumerate(masks)}
    e = [basis_vector(h.ctx, n, j) for j in range(n)]
    table = [[e[pos[g ^ k]] for k in masks] for g in masks]
    labels = [_KLEIN_LABELS[m] for m in masks]
    return ComoduleAlgebra(h, labels, e[pos[0]], table,
                           basis_coaction(h, n, masks))


#: the sign table realized by e_x -> E11 - E22, e_y -> E12 + E21 in 2x2
#: matrices; products follow u_g u_h = psi(g, h) u_{gh}
PSI_STANDARD: dict[tuple[int, int], int] = {
    (1, 2): 1, (2, 1): -1,
    (1, 3): 1, (3, 1): -1,
    (2, 3): -1, (3, 2): 1,
    (1, 1): 1, (2, 2): 1, (3, 3): -1,
}


def twisted_group_algebra_over(h: Hopf,
                               psi: Optional[Mapping[tuple[int, int], Scalar]]
                               = None) -> ComoduleAlgebra:
    """Klein-four group algebra with multiplication twisted by a 2-cocycle,
    graded by the group and coacted on by ``h``, which must be kp.

    ``psi`` maps pairs of group masks to nonzero scalars; pairs involving the
    identity may be omitted (they must be 1 if present).  The default is the
    sign table :data:`PSI_STANDARD`, which yields an algebra isomorphic to
    2x2 matrices.
    """
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
                           basis_coaction(h, 4, range(4)))


def paper_map_f(kp: Algebra) -> Mat:
    """The paper's isomorphism f: A -> H_8 of the full extension, from A's
    basis 1, ex, ey, exy, v1, v2, w1, w2 onto the labels of ``kp``: f(g) =
    g on K, f(v1) = yz + z, f(v2) = yz - z, and w_i goes to minus the
    paper's image (the replay's convention w_i -> -w_i), so f(w1) = xz -
    xyz, f(w2) = -xyz - xz.  In kp's basis yz = zx, xz = zy, xyz = zxy."""
    e = kp.basis_element
    return Mat.from_columns(kp.ctx, [
        e("1"), e("x"), e("y"), e("xy"),
        vadd(e("zx"), e("z")), vsub(e("zx"), e("z")),
        vsub(e("zy"), e("zxy")),
        vscale(kp.ctx.scalar(-1), vadd(e("zxy"), e("zy")))])


def a_xy_gamma_over(h: Hopf, gamma: Union[Scalar, FieldElement]
                    ) -> ComoduleAlgebra:
    """The four-dimensional comodule algebra over ``h`` = kp with basis
    {1, exy, v, w}.

    ``gamma`` must square to -1.  The grouplike unit exy sits in degree xy,
    and v, w span a single 2-dimensional corepresentation with

        exy * v = v * exy = gamma * w,     exy * w = w * exy = -gamma * v,
        v*v = 1 + gamma*exy,   v*w = w*v = 1 - gamma*exy,
        w*w = -(1 + gamma*exy).
    """
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
    coaction = basis_coaction(h, n, [0, h.label_index("xy")], [(2, 3)])
    return ComoduleAlgebra(h, ("1", "exy", "v", "w"), one, table, coaction)


def with_trivial_coaction(hopf: Hopf, alg: "Algebra") -> ComoduleAlgebra:
    """Wrap a plain algebra as a comodule algebra with coaction a -> 1 (x) a."""
    return ComoduleAlgebra(hopf, alg.labels, alg.unit, alg.table,
                           basis_coaction(hopf, alg.dim, [0] * alg.dim))


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
    return ComoduleAlgebra(a.hopf, plain.labels, plain.unit, plain.table,
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
        b = twisted_group_algebra_over(build_kp(ctx))
    elif target == "ga_x":
        b = group_algebra_comodule_over(build_kp(ctx), (0, 1))
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
    return RightComodModule(b, 2, basis_coaction(h, 2, [], [(0, 1)]), action)


def catalog(ctx: Optional[FieldContext] = None, kp: Optional[Hopf] = None
            ) -> dict[str, ComoduleAlgebra]:
    """All the built-in comodule algebras, keyed by their short names.

    Every entry coacts under one kp: ``kp`` when given (its context is
    used), else kp built once over ``ctx``."""
    h = kp or build_kp(ctx)
    return {
        "k": trivial_comodule_algebra_over(h),
        "ga_x": group_algebra_comodule_over(h, (0, 1)),
        "ga_y": group_algebra_comodule_over(h, (0, 2)),
        "ga_xy": group_algebra_comodule_over(h, (0, 3)),
        "ga_k": group_algebra_comodule_over(h, (0, 1, 2, 3)),
        "a_i_xy": a_xy_gamma_over(h, h.ctx.i()),
        "kp": regular_comodule_algebra(h),
        "kpsi": twisted_group_algebra_over(h),
    }
