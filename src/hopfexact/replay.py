"""Symbolic engine for extensions of grouplike bases by two-dimensional blocks.

Every comodule algebra studied in this package decomposes as a grouplike base
``A_K`` (one of six kinds) plus ``n_2`` copies of the two-dimensional simple
corepresentation, spanned by pairs ``v_i, w_i``.  This module builds the
*generic* such algebra: a multiplication table whose block products carry
indeterminate structure constants, with every coefficient pattern derived
from ``basis_coaction``, by colinearity of the standard block coaction
(:func:`~hopfexact.morita.block_patterns`).  Associativity then becomes
a system of polynomial constraints, and the classification arguments reduce
to exact linear eliminations over those constraints.

The three layers:

* :func:`generic_extension` / :func:`associativity_constraints` — build the
  symbolic table and harvest the constraint polynomials;
* ``_vanishing_report`` — reads off the certified linear elimination
  :func:`~hopfexact.poly.eliminate` whether the constraints force given
  structure constants to vanish, with the expressing combination as a
  replayable certificate;
* :func:`replay_lemma` / :func:`classify_n2_le_1` — the named collapse
  arguments as one case table run by ``_vanishing_replay``, plus the full
  extension and ``classify_n2_le_1``, the exhaustive classification of exact
  extensions with at most one block.

The elimination lives in :mod:`~hopfexact.poly`, where the polynomial solver
reduces through it too: it works on the Macaulay matrix of the constraints
(Lazard, EUROCAL 1983), and every pin and contradiction carries the
multipliers that combine the constraints into it.

Only linear reasoning is ever used: case splits over sign assignments and
fourth roots of unity keep everything linear, and a system that still needs
nonlinear reasoning raises :class:`~hopfexact.errors.NonlinearResidue` rather
than guessing.

The characters of K act on the sign cases over ga_K and kpsi: the 16
two-block cases form 4 orbits of 4, and the 4 one-block cases one orbit (the
paper's "without loss of generality"; McKay, J. Algorithms 26, 1998).
``_system`` builds one system per orbit, its first case.  Every other
member's constraints and eliminations are carried from it by exact sign
changes, once a check has shown that the member's own table is the
representative's under the character (the equivariance is checked, not
assumed: Gatermann, LNM 1728, 2000).  A member that fails the check is built
directly, and every case's certificates are checked again against its own
constraints.  The full extension's second case is the paper's moved by a
character, and its map onto kp is the paper's f after that character's sign
change, checked to be a colinear algebra isomorphism.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import cache
from typing import Mapping, Optional, Sequence, Union

from .comodule import ComoduleAlgebra, check_comodule_algebra
from .constructions import (PSI_STANDARD, basis_coaction, build_kp, catalog,
                            paper_map_f)
from .errors import HopfExactError, InvalidKind, NonlinearResidue
from .exactness import check_exactness
from .field import FieldContext, FieldElement
from .linalg import Mat, basis_vector
from .morita import (block_patterns, colinear_iso_search,
                     is_colinear_isomorphism)
from .poly import (Certificate, Elimination, MultiPoly, _addmul, _addterms,
                   _column_key, _mono_degree, _poly, _product_terms,
                   concrete_solutions, eliminate)

KINDS = ("trivial", "ga_x", "ga_y", "ga_xy", "ga_K", "kpsi")

_BASE_MASKS = {
    "trivial": (0,),
    "ga_x": (0, 1),
    "ga_y": (0, 2),
    "ga_xy": (0, 3),
    "ga_K": (0, 1, 2, 3),
    "kpsi": (0, 1, 2, 3),
}
_MASK_LABEL = {0: "1", 1: "ex", 2: "ey", 3: "exy"}

SymVec = tuple[MultiPoly, ...]


def _require_kind(kind: str) -> None:
    if kind not in KINDS:
        raise InvalidKind(f"unknown generic-extension kind {kind!r}; "
                          f"expected one of {KINDS}")


@dataclass(frozen=True)
class GenericExtension:
    """A generic block extension: symbolic table over a concrete base.

    ``table[i][j]`` is the coordinate vector of ``e_i * e_j`` with
    :class:`~hopfexact.poly.MultiPoly` entries.  ``unknowns`` lists the block
    structure constants, ``action_symbols`` the indeterminate entries of the
    base action on the blocks; everything else in the table is concrete.
    """

    kind: str
    n2: int
    signs: Optional[tuple[tuple[int, int], ...]]
    ctx: FieldContext
    labels: tuple[str, ...]
    base_dim: int
    table: tuple[tuple[SymVec, ...], ...]
    unknowns: tuple[str, ...]
    action_symbols: tuple[str, ...]

    @property
    def dim(self) -> int:
        return len(self.labels)

    def v_index(self, i: int) -> int:
        return self.base_dim + (i - 1)

    def w_index(self, i: int) -> int:
        return self.base_dim + self.n2 + (i - 1)

    def specialize(self, values: Mapping[str, Union[FieldElement, int,
                                                    Fraction]]
                   ) -> ComoduleAlgebra:
        """Substitute concrete values for every symbol and build the algebra
        over ``build_kp(self.ctx)``, the context's one kp."""
        ctx, zero = self.ctx, self.ctx.zero()
        assignment = {name: val if isinstance(val, FieldElement)
                      else ctx.scalar(val) for name, val in values.items()}
        table = []
        for row in self.table:
            new_row = []
            for vec in row:
                coords = []
                for p in vec:
                    c = p.substitute(assignment).as_constant() if p.terms \
                        else zero
                    if c is None:
                        missing = sorted(p.variables() - set(assignment))
                        raise HopfExactError(
                            f"cannot specialize: unresolved symbols {missing}")
                    coords.append(c)
                new_row.append(coords)
            table.append(new_row)
        # the coaction does not depend on the values: the base elements are
        # graded by their masks, and each v_i, w_i is a block
        hopf = build_kp(ctx)
        coaction = basis_coaction(
            hopf, self.dim, _BASE_MASKS[self.kind],
            [(self.v_index(i), self.w_index(i))
             for i in range(1, self.n2 + 1)])
        return ComoduleAlgebra(hopf, self.labels,
                               basis_vector(ctx, self.dim, 0), table, coaction)

    def __repr__(self) -> str:
        return (f"GenericExtension(kind={self.kind!r}, n2={self.n2}, "
                f"signs={self.signs}, dim={self.dim})")


def _base_coeff(kind: str, g: int, h: int) -> int:
    if kind != "kpsi" or g == 0 or h == 0:
        return 1
    return PSI_STANDARD[(g, h)]


def generic_extension(kind: str, n2: int,
                      signs: Optional[Sequence[tuple[int, int]]] = None,
                      ctx: Optional[FieldContext] = None) -> GenericExtension:
    """The generic extension of the given base kind by ``n2`` blocks.

    ``signs`` assigns each block index i the pair ``(a_i, b_i)`` of
    eigenvalues of right multiplication by e_x and left multiplication by
    e_y on v_i; it is required exactly for the four-dimensional base kinds
    (``ga_K``, ``kpsi``) with ``n2 > 0`` and must be omitted otherwise.

    The signs of every product with a block element are derived from
    ``basis_coaction`` (:func:`~hopfexact.morita.block_patterns`,
    once per run); the kind enters only through its base masks, its
    cocycle and, over ga_K and kpsi, the sign pairs.
    """
    _require_kind(kind)
    ctx = ctx or FieldContext(4)
    if not isinstance(n2, int) or n2 < 0:
        raise HopfExactError(f"n2 must be a non-negative integer, got {n2!r}")
    if n2 > 9:
        raise HopfExactError("block counts above 9 are not supported")
    needs_signs = kind in ("ga_K", "kpsi") and n2 > 0
    if needs_signs:
        if signs is None:
            raise HopfExactError(
                f"kind {kind!r} needs a sign pair (a_i, b_i) per block")
        signs = tuple((int(a), int(b)) for a, b in signs)
        if len(signs) != n2 or any(a * a != 1 or b * b != 1
                                   for a, b in signs):
            raise HopfExactError(
                f"signs must be {n2} pairs from {{+1, -1}}, got {signs!r}")
    elif signs is not None:
        raise HopfExactError(
            f"kind {kind!r} takes no sign assignment")

    masks = _BASE_MASKS[kind]
    base_dim = len(masks)
    dim = base_dim + 2 * n2
    labels = tuple(_MASK_LABEL[m] for m in masks) \
        + tuple(f"v{i}" for i in range(1, n2 + 1)) \
        + tuple(f"w{i}" for i in range(1, n2 + 1))

    zero = MultiPoly(ctx, {})

    @cache
    def const(x) -> MultiPoly:
        return MultiPoly.const(ctx, x)

    def var(name: str) -> MultiPoly:
        return MultiPoly.var(ctx, name)

    def leg(s: int, i: int) -> int:
        # v_{i+1} is leg 0 of block i, w_{i+1} its leg 1
        return base_dim + s * n2 + i

    def matmul(x, y, start):
        return [[sum((p * q for p, q in zip(row, col)), start)
                 for col in zip(*y)] for row in x]

    # base x base: group law, twisted for kpsi
    table = [[None] * dim for _ in range(dim)]
    for p, g in enumerate(masks):
        for q, h in enumerate(masks):
            table[p][q] = [const(_base_coeff(kind, g, h)) if m == g ^ h
                           else zero for m in masks] + [zero] * (2 * n2)
    unknowns: list[str] = []
    action_symbols: list[str] = []
    blocks = range(n2)
    # the sign patterns, derived from basis_coaction once per run and kept
    # in the module's one cache
    key = ("block patterns", ctx)
    patterns = _REPLAY_CACHE.get(key)
    if patterns is None:
        patterns = _REPLAY_CACHE[key] = block_patterns(ctx)

    # the unit and the generators e_g of the base act on the blocks: each
    # side of e_g takes leg r of block i to sum_{t, m} P[r][t] M[i][m] (leg
    # t of block m), P the derived pattern and M an n2 x n2 matrix of
    # symbols.  M is fixed on the sides whose P is diagonal for the unit
    # (the identity) and, over ga_K and kpsi, for e_x and e_y (the sign
    # hypotheses: diag(a_i) on the right, diag(b_i) on the left).  There
    # e_xy = psi(x, y) e_x e_y acts through e_x and e_y, with the products
    # of their patterns and of their matrices.
    fixed = {0: (1,) * n2}
    if needs_signs:
        fixed.update(zip((1, 2), zip(*signs)))
    actions = {}
    for g in masks[:3]:
        for side in "lr":
            pattern = patterns[side, g]
            if g in fixed and not pattern[0][1]:
                mat = [[const(fixed[g][i]) if i == m else zero
                        for m in blocks] for i in blocks]
            else:
                names = [[f"{side}{_MASK_LABEL[g][1:]}_{i + 1}{m + 1}"
                          for m in blocks] for i in blocks]
                action_symbols += itertools.chain(*names)
                mat = [[var(x) for x in row] for row in names]
            actions[side, g] = (pattern, mat)
    if len(masks) == 4:
        psi = _base_coeff(kind, 1, 2)
        for side, first, then in (("l", 2, 1), ("r", 1, 2)):
            (p1, m1), (p2, m2) = actions[side, first], actions[side, then]
            actions[side, 3] = ([[psi * c for c in row]
                                 for row in matmul(p1, p2, 0)],
                                matmul(m1, m2, zero))
    for (side, g), (pattern, mat) in actions.items():
        for r, i in itertools.product((0, 1), blocks):
            vec = [zero] * base_dim + [const(c) * x if c and x.terms
                                       else zero
                                       for c in pattern[r] for x in mat[i]]
            if side == "l":
                table[masks.index(g)][leg(r, i)] = vec
            else:
                table[leg(r, i)][masks.index(g)] = vec

    # block x block: the product of legs s and t of blocks i and j has e_g
    # component P[s][t] c_g, with P the derived pattern of e_g.  The c_g
    # are alpha_ij on the unit and beta_ij, gamma_ij or delta_ij on e_x,
    # e_y or e_xy; over ga_K and kpsi they are alpha_ij times a_j, b_i and
    # psi(y, x) a_j b_i.
    for i, j in itertools.product(blocks, repeat=2):
        ij = f"{i + 1}{j + 1}"
        if needs_signs:
            alpha = var(f"alpha_{ij}")
            unknowns.append(f"alpha_{ij}")
            a_j, b_i = fixed[1][j], fixed[2][i]
            comps = [alpha, const(a_j) * alpha, const(b_i) * alpha,
                     const(_base_coeff(kind, 2, 1) * a_j * b_i) * alpha]
        else:
            names = [f"{('alpha', 'beta', 'gamma', 'delta')[g]}_{ij}"
                     for g in masks]
            unknowns += names
            comps = [var(x) for x in names]
        for s, t in itertools.product((0, 1), repeat=2):
            table[leg(s, i)][leg(t, j)] = [
                const(patterns["p", g][s][t]) * c
                for g, c in zip(masks, comps)
            ] + [zero] * (2 * n2)

    frozen = tuple(tuple(tuple(vec) for vec in row) for row in table)
    return GenericExtension(kind=kind, n2=n2,
                            signs=signs if needs_signs else None,
                            ctx=ctx, labels=labels, base_dim=base_dim,
                            table=frozen, unknowns=tuple(unknowns),
                            action_symbols=tuple(action_symbols))


def _normalize(poly: MultiPoly) -> MultiPoly:
    """Scale so that the coefficient of the least monomial is one."""
    terms = poly.terms
    c = terms[min(terms)]
    if c == poly.ctx.one():
        return poly
    inv = c.inverse()
    # a nonzero coefficient times a unit is nonzero, even with zero divisors
    return _poly(poly.ctx, {m: v * inv for m, v in terms.items()})


def associativity_constraints(g: GenericExtension) -> list[MultiPoly]:
    """Constraint polynomials: both association orders of every basis triple.

    Each returned polynomial is required to vanish; the list is deduplicated
    up to scalar multiples and ordered by first occurrence.  The two products
    of a triple accumulate into one term dict per output coordinate.

    A table holds few distinct entry polynomials, and the triple loop meets
    each pair of them many times.  So each distinct entry (and each negated
    entry, for the subtracted association order) gets an id, and the product
    of a pair of ids is formed once per call, as the list of its terms.  The
    loop adds those terms one by one, in the order in which ``_addmul`` would
    form them, so every constraint keeps the same terms in the same order.

    When row 0 and column 0 of the table are the identity with coefficient 1
    (``e_0 e_j == e_j == e_j e_0`` exactly), the triples that contain index
    0 are skipped.  Both association orders of such a triple read the same
    entry (``e_j e_k``, ``e_i e_k`` or ``e_i e_j``), so the loop would add
    each of its terms and subtract it again, and the triple would add
    nothing to the output.  Any other table keeps every triple.
    """
    dim = g.dim
    ctx = g.ctx
    one = MultiPoly.const(ctx, 1).terms

    def unit_vec(vec: SymVec, j: int) -> bool:
        return all(p.terms == (one if m == j else {})
                   for m, p in enumerate(vec))

    first = int(all(unit_vec(g.table[0][j], j) and unit_vec(g.table[j][0], j)
                    for j in range(dim)))
    out: list[MultiPoly] = []
    seen: set = set()
    # raw constraints already met, term for term: most of them repeat, and
    # a repeat need not be normalised to be found
    seen_raw: set = set()
    # each distinct entry, its terms in order, to its id
    ids: dict = {}

    def entry_id(terms) -> int:
        return ids.setdefault(tuple(terms.items()), len(ids))

    # table entries by id, restricted to their nonzero coordinates, and the
    # same entries negated for the subtracted association order
    sparse = [[[(m, entry_id(p.terms)) for m, p in enumerate(vec) if p.terms]
               for vec in row] for row in g.table]
    negated = [[[(m, entry_id((-p).terms)) for m, p in enumerate(vec)
                 if p.terms] for vec in row] for row in g.table]
    entries = [dict(key) for key in ids]
    products: dict[tuple[int, int], list] = {}
    for i in range(first, dim):
        for j in range(first, dim):
            tij = sparse[i][j]
            for k in range(first, dim):
                acc: list[dict] = [{} for _ in range(dim)]
                pairs = [(c, t, p) for m, c in tij for t, p in sparse[m][k]]
                pairs += [(c, t, p) for m, c in negated[j][k]
                          for t, p in sparse[i][m]]
                for c, t, p in pairs:
                    prods = products.get((c, p))
                    if prods is None:
                        prods = products[c, p] = _product_terms(entries[c],
                                                                entries[p])
                    _addterms(acc[t], prods)
                for terms in acc:
                    raw = tuple(terms.items())
                    if not terms or raw in seen_raw:
                        continue
                    seen_raw.add(raw)
                    norm = _normalize(_poly(ctx, terms))
                    key = tuple(sorted(norm.terms.items()))
                    if key not in seen:
                        seen.add(key)
                        out.append(norm)
    return out


# -- certified vanishing -------------------------------------------------------


def verify_combination(constraints: Sequence[MultiPoly], cert: Certificate,
                       expected: MultiPoly) -> bool:
    """Check that the certified combination of constraints equals ``expected``."""
    if not cert:
        return False
    terms: dict = {}
    for idx, mult in cert.items():
        _addmul(terms, mult.terms, constraints[idx].terms)
    return _poly(expected.ctx, terms) == expected


@dataclass(frozen=True)
class VanishingReport:
    """Whether constraints force target variables to zero, with replayable
    certificates.

    When ``forced`` is true, ``certificates[t]`` maps constraint indices to
    polynomial multipliers whose weighted sum equals the bare variable ``t``
    — substituting the constraints back in therefore yields zero.  A
    ``vacuous`` report means the constraint system itself is contradictory
    (no algebra exists at all), which forces everything.
    """

    forced: bool
    certificates: dict[str, Certificate]
    pins: dict[str, FieldElement]
    undecided: tuple[str, ...]
    nonzero: tuple[str, ...]
    vacuous: bool = False

    def __bool__(self) -> bool:
        return self.forced

    def verify(self, constraints: Sequence[MultiPoly]) -> bool:
        """Recheck every certificate against the constraint list."""
        if not self.forced:
            return False
        for target, cert in self.certificates.items():
            ctx = constraints[0].ctx
            if not verify_combination(constraints, cert,
                                      MultiPoly.var(ctx, target)):
                return False
        return True


def _vanishing_report(elim: Elimination,
                      targets: Sequence[str]) -> VanishingReport:
    """Whether the eliminated constraints force every target variable to
    zero.

    True exactly when each target lies in the span of the constraints (after
    substituting the variables the span already pins); the certificates are
    the expressing combinations.  A target pinned to a nonzero value yields
    False.  Undecided targets entangled with nonlinear residue raise
    :class:`~hopfexact.errors.NonlinearResidue` — never silently ignored.
    """
    targets = list(targets)
    if elim.contradiction is not None:
        ctx = elim.contradiction_value.ctx
        scale = elim.contradiction_value.inverse()
        certs = {}
        for t in targets:
            factor = MultiPoly.var(ctx, t) * MultiPoly.const(ctx, scale)
            certs[t] = {idx: factor * mult
                        for idx, mult in elim.contradiction.items()}
        return VanishingReport(forced=True, certificates=certs,
                               pins=dict(elim.pins), undecided=(),
                               nonzero=(), vacuous=True)
    nonzero = tuple(t for t in targets
                    if t in elim.pins and not elim.pins[t].is_zero())
    if nonzero:
        return VanishingReport(forced=False, certificates={},
                               pins=dict(elim.pins), undecided=(),
                               nonzero=nonzero)
    undecided = tuple(t for t in targets if t not in elim.pins)
    if not undecided:
        certs = {t: elim.certificates[t] for t in targets}
        return VanishingReport(forced=True, certificates=certs,
                               pins=dict(elim.pins), undecided=(),
                               nonzero=())
    if any(_mono_degree(m) > 1 for p in elim.residual for m in p.terms):
        raise NonlinearResidue(
            f"cannot decide {sorted(undecided)}: nonlinear constraints "
            f"remain after elimination")
    return VanishingReport(forced=False, certificates={},
                           pins=dict(elim.pins), undecided=undecided,
                           nonzero=())


# -- scripted replays ------------------------------------------------------------


@dataclass(frozen=True)
class ReplayCase:
    """One sign assignment (or hypothesis variant) inside a replay.

    ``constraints`` is the exact polynomial system the case was decided on
    (associativity plus injected hypotheses), kept so that the certificates
    in ``report`` or ``elimination`` can be re-verified independently.
    ``iso`` is the colinear algebra isomorphism onto kp of a full-extension
    case that passed, the paper's f after the case's sign change; it is
    left out of ``repr`` and of comparisons.
    """

    kind: str
    n2: int
    signs: Optional[tuple[tuple[int, int], ...]]
    hypotheses: tuple[str, ...]
    ok: bool
    detail: str
    constraints: tuple[MultiPoly, ...] = ()
    report: Optional[VanishingReport] = None
    solution: Optional[dict[str, FieldElement]] = None
    elimination: Optional["Elimination"] = None
    iso: Optional[Mat] = field(default=None, repr=False, compare=False)


@dataclass(frozen=True)
class ReplayReport:
    """Outcome of one named elimination argument across all its cases."""

    name: str
    conclusion: str
    cases: tuple[ReplayCase, ...]
    passed: bool


_SIGN_PAIRS = tuple(itertools.product((1, -1), repeat=2))


def _sign_cases(kind: str, n2: int):
    """The sign assignments of ``n2`` blocks over ``kind``: one pair
    ``(a_i, b_i)`` per block over ga_K and kpsi, none over the other kinds."""
    if kind in ("ga_K", "kpsi"):
        return itertools.product(_SIGN_PAIRS, repeat=n2)
    return [None]


# A character eps = (e1, e2) of K takes the sign pairs (a_i, b_i) of a ga_K
# or kpsi extension to (e1*a_i, e2*b_i).  It scales e_g by eps(g) and fixes
# the blocks, so it scales each action symbol of e_g (``lx_12``, ``ry_21``:
# a side, then e_g's label as generic_extension writes it) by eps(g) as well;
# the alpha_ij are fixed.
_LABEL_MASK = {label[1:]: m for m, label in _MASK_LABEL.items()}


def _character_value(eps, mask: int) -> int:
    """eps(g) for the element g of K with the given mask."""
    return (eps[0] if mask & 1 else 1) * (eps[1] if mask & 2 else 1)


@cache
def _symbol_mask(name: str) -> int:
    """The mask of g when ``name`` is an action symbol of e_g, else 0."""
    prefix = name.partition("_")[0]
    if prefix[:1] not in ("l", "r"):
        return 0
    return _LABEL_MASK.get(prefix[1:], 0)


def _mono_sign(mono, eps) -> int:
    """The sign that the character ``eps`` gives the monomial ``mono``: eps
    of the product of the e_g whose symbols occur to an odd power."""
    mask = 0
    for name, e in mono:
        if e & 1:
            mask ^= _symbol_mask(name)
    return _character_value(eps, mask) if mask else 1


def _act(poly: MultiPoly, eps, scale: int = 1) -> MultiPoly:
    """``scale`` times the image of ``poly`` under the character ``eps``: the
    same terms in the same order, some of them negated."""
    return _poly(poly.ctx, {m: c if _mono_sign(m, eps) == scale else -c
                            for m, c in poly.terms.items()})


def _carry(elim: Elimination, eps, row_signs: Sequence[int]
           ) -> Elimination:
    """``elim`` carried by ``eps`` to the system whose row i is
    ``row_signs[i]`` times the image of row i of ``elim``'s system.

    A pin ``x = v`` becomes ``x = s(x)*v``, with ``s(x)`` the sign of ``x``,
    and its multipliers ``m_i`` become ``s(x)*row_signs[i]*eps(m_i)``.  A
    residual row is normalised at its pivot, so it is its image times the
    sign of its pivot monomial.  A contradiction keeps its value, with the
    multipliers ``row_signs[i]*eps(m_i)``: they combine the carried rows to
    the image of the value, which is the value."""
    def carried(cert: Certificate, scale: int) -> Certificate:
        return {i: _act(m, eps, scale * row_signs[i])
                for i, m in cert.items()}

    pins, certs = {}, {}
    for x, v in elim.pins.items():
        s = _mono_sign(((x, 1),), eps)
        pins[x] = v if s == 1 else -v
        certs[x] = carried(elim.certificates[x], s)
    if elim.contradiction is not None:
        return Elimination(pins, certs, elim.residual,
                           carried(elim.contradiction, 1),
                           elim.contradiction_value)
    residual = [_act(p, eps, _mono_sign(min(filter(None, p.terms),
                                                key=_column_key), eps))
                for p in elim.residual]
    return Elimination(pins, certs, residual, None, None)


@dataclass
class _System:
    """A generic extension and its associativity constraints, with their
    eliminations, alone or with hypotheses, formed on first request.

    A system carried from its orbit representative keeps ``(representative,
    eps, row signs)`` in ``source``: its constraint i is ``row signs[i]``
    times the image under ``eps`` of the representative's, and it carries
    every elimination whose hypotheses ``eps`` fixes from the
    representative's elimination of the same hypotheses."""

    g: GenericExtension
    constraints: list[MultiPoly]
    source: Optional[tuple] = None
    _eliminations: dict = field(default_factory=dict)

    def elimination(self, hypotheses: tuple[MultiPoly, ...] = ()
                    ) -> Elimination:
        elim = self._eliminations.get(hypotheses)
        if elim is None:
            rep, eps, row_signs = self.source or (None, None, None)
            if rep is not None and all(_mono_sign(m, eps) == 1
                                       for h in hypotheses for m in h.terms):
                elim = _carry(rep.elimination(hypotheses), eps,
                              row_signs + [1] * len(hypotheses))
            else:
                elim = eliminate(self.constraints + list(hypotheses))
            self._eliminations[hypotheses] = elim
        return elim


def _representative(kind: str, n2: int, signs):
    """The first member, in :func:`_sign_cases` order, of the orbit of
    ``signs`` under the characters of K."""
    order = list(_sign_cases(kind, n2))
    return min((tuple((e1 * a, e2 * b) for a, b in signs)
                for e1, e2 in _SIGN_PAIRS), key=order.index)


def _basis_signs(g: GenericExtension, eps) -> list[int]:
    """eps(i) for each basis element i of ``g``: the character's value on
    the grouplike of a base element, and 1 on a block element."""
    return [_character_value(eps, m)
            for m in _BASE_MASKS[g.kind]] + [1] * (2 * g.n2)


def _carried_system(rep: _System, g: GenericExtension, eps
                    ) -> Optional[_System]:
    """The system of ``g`` carried from ``rep`` by the character ``eps``, or
    None when ``g``'s table is not ``rep``'s under ``eps``: entry (i, j, k)
    must be ``eps(i)*eps(j)*eps(k)`` times the image of ``rep``'s, with
    eps(i) from :func:`_basis_signs`."""
    scale = _basis_signs(g, eps)
    for i, row in enumerate(rep.g.table):
        for j, vec in enumerate(row):
            for k, p in enumerate(vec):
                if _act(p, eps, scale[i] * scale[j] * scale[k]) \
                        != g.table[i][j][k]:
                    return None
    row_signs = [_mono_sign(min(c.terms), eps) for c in rep.constraints]
    return _System(g, [_act(c, eps, s)
                       for c, s in zip(rep.constraints, row_signs)],
                   (rep, eps, row_signs))


def _system(kind: str, n2: int, signs, ctx: FieldContext) -> _System:
    """The system of one sign case, built once per run and kept in
    ``_REPLAY_CACHE`` under ``(kind, n2, signs, ctx)``: the one place where
    this module builds a generic extension and its constraints.  Blocks
    over a base kind whose own system has constraints are refused: every
    case would hold vacuously, on the base's own contradiction.

    Only the representative of each orbit of sign assignments under the
    characters of K (:func:`_representative`) is built and eliminated.
    Every other member is carried from it by exact sign changes, after a
    check that the member's own table is the representative's under the
    character; a member that fails the check is built directly."""
    key = (kind, n2, signs, ctx)
    if key not in _REPLAY_CACHE:
        if n2 and _system(kind, 0, None, ctx).constraints:
            raise HopfExactError(
                f"base kind {kind!r} is not associative on its own")
        g = generic_extension(kind, n2, signs, ctx)
        system = None
        rep_signs = _representative(kind, n2, signs) if signs else signs
        if rep_signs != signs:
            system = _carried_system(
                _system(kind, n2, rep_signs, ctx), g,
                (signs[0][0] * rep_signs[0][0], signs[0][1] * rep_signs[0][1]))
        _REPLAY_CACHE[key] = system or _System(g, associativity_constraints(g))
    return _REPLAY_CACHE[key]


def _vanishing_replay(name: str, conclusion: str, forced_detail: str,
                      cases: Sequence, ctx: FieldContext) -> ReplayReport:
    """Decide one collapse lemma over its case table.

    ``cases`` lists ``(kind, signs, variants)``; a variant is a tuple of
    ``(text, polynomial)`` hypotheses added to the associativity constraints
    of the two-block extension.  A case holds when its constraints force
    every block structure constant to vanish, with certificates that check
    again.  A case decided by a contradiction of its constraints alone holds
    vacuously, and its detail says so; when every case does, so does the
    conclusion.

    Each sign case's constraints and their elimination are formed once per
    run (:func:`_system`) and shared by every variant and every replay that
    meets the case; over ga_K and kpsi only one system per orbit of sign
    assignments is built and eliminated, and the other members are carried
    from it once their tables pass the check.  A variant reuses the case's
    elimination when it adds no hypothesis, or when the constraints alone
    are contradictory: the contradiction's certificate names only
    associativity rows, which keep their indices in the variant's system.  A
    variant with hypotheses over a consistent system is eliminated once per
    orbit when the characters fix its hypotheses, as every variant here
    does, and once per case otherwise.
    """
    out = []
    for kind, signs, variants in cases:
        system = _system(kind, 2, signs, ctx)
        g, cons = system.g, system.constraints
        base = system.elimination()
        for variant in variants:
            hypotheses = tuple(poly for _, poly in variant)
            full = cons + list(hypotheses)
            elim = base if base.contradiction is not None \
                else system.elimination(hypotheses)
            report = _vanishing_report(elim, g.unknowns)
            detail = ("vacuous: no extension with these signs exists"
                      if report.vacuous else
                      forced_detail if report.forced else "NOT forced")
            out.append(ReplayCase(
                kind=kind, n2=2, signs=signs,
                hypotheses=tuple(text for text, _ in variant),
                ok=bool(report) and report.verify(full), detail=detail,
                constraints=tuple(full), report=report))
    if all(c.report.vacuous for c in out):
        conclusion = ("no extension with these signs exists; the lemma "
                      f"holds vacuously: {conclusion}")
    return ReplayReport(name=name, conclusion=conclusion, cases=tuple(out),
                        passed=all(c.ok for c in out))


def _null_products(ctx: FieldContext) -> tuple:
    """One variant per vanishing product: alpha_12 = 0, then alpha_11 = 0."""
    return tuple(((f"{x} = 0", MultiPoly.var(ctx, x)),)
                 for x in ("alpha_12", "alpha_11"))


def _dependent_pair(ctx: FieldContext) -> tuple[str, MultiPoly]:
    """v_1^2 = c * (v_2 v_1) with c an unresolved scalar; both products
    share the same grouplike support (b_1 = b_2, right factor v_1), so the
    dependence reduces to one scalar relation."""
    alpha_11, c, alpha_21 = (MultiPoly.var(ctx, x)
                             for x in ("alpha_11", "c", "alpha_21"))
    return ("alpha_11 - c*alpha_21 = 0", alpha_11 - c * alpha_21)


def _full_extension_report(ctx: FieldContext) -> ReplayReport:
    """The paper's full extension: two blocks over ga_K, of equal parity,
    normalised by alpha_11 = 1 and alpha_12 = -1.  Reaching alpha_11 = 1
    needs a square root of the scale in the field, so the report holds up
    to block scaling, which merges forms: over Q(i) the point alpha_11 = 3,
    alpha_12 = -1 is exact and not colinearly isomorphic to kp.

    Each of the two sign cases must pin every structure constant with
    certificates that check again, and its specialised algebra A must be
    colinearly isomorphic to kp along one map, ``f @ D``: the paper's f
    after the sign change D (:func:`_basis_signs`) of the character eps of
    K that takes the paper's signs to the case's.  The first case is the
    paper's, with eps = (1, 1) and D the identity; the second is the
    paper's moved by eps = (1, -1), the paper's "without loss of
    generality".  The map is checked with
    :func:`~hopfexact.morita.is_colinear_isomorphism`, never assumed.

    Along that map A's product, unit and coaction are kp's carried back, so
    each law holds on A exactly when it holds on kp, and a costable subspace
    of one is carried to a costable subspace of the other, as are the
    coinvariants.  So each case whose map passes reads the axioms and
    exactness of kp (:func:`~hopfexact.constructions.build_kp`) coacting on
    itself by its coproduct, whose verdicts are stored on it.  A case whose
    map fails is not exact/iso.
    """
    cases = []
    # the one kp of the context, the catalog's, whose verdicts an earlier
    # stage may have stored
    kp = build_kp(ctx)
    f = paper_map_f(kp)
    paper = ((1, 1), (-1, -1))
    for eps in ((1, 1), (1, -1)):
        signs = tuple((eps[0] * a, eps[1] * b) for a, b in paper)
        # the normalised system is eliminated whole: an elimination of the
        # constraints alone would be done for nothing
        system = _system("ga_K", 2, signs, ctx)
        g, cons = system.g, system.constraints
        hyps = (MultiPoly.var(ctx, "alpha_11") - 1,
                MultiPoly.var(ctx, "alpha_12") + 1)
        full = cons + list(hyps)
        elim = system.elimination(hyps)
        ok = elim.contradiction is None and not elim.residual
        expected = {"alpha_11": ctx.one(), "alpha_12": -ctx.one(),
                    "alpha_21": -ctx.one(), "alpha_22": -ctx.one()}
        ok = ok and all(elim.pins.get(k) == v for k, v in expected.items())
        ok = ok and all(
            verify_combination(full, elim.certificates[name],
                               MultiPoly.var(ctx, name) - value)
            for name, value in elim.pins.items())
        solution = dict(elim.pins)
        detail, iso = "solved constants do not match", None
        if ok:
            missing = set(g.unknowns) | set(g.action_symbols)
            missing -= set(solution)
            ok = not missing
            if ok:
                algebra = g.specialize(solution)
                d = _basis_signs(g, eps)
                iso = f @ Mat(ctx, [[s if i == j else 0 for j in range(g.dim)]
                                    for i, s in enumerate(d)])
                problems = []
                ok = is_colinear_isomorphism(algebra, kp, iso)
                if ok:
                    # along the map the verdicts are kp's
                    problems = check_comodule_algebra(kp)
                    ok = not problems and check_exactness(kp).am_exact
                detail = ("unique solution: the eight-dimensional extension, "
                          "isomorphic to the ambient Hopf algebra as a "
                          "comodule algebra") if ok else \
                    f"specialization failed: {problems or 'not exact/iso'}"
        cases.append(ReplayCase(
            kind="ga_K", n2=2, signs=signs,
            hypotheses=("alpha_11 = 1", "alpha_12 = -1"),
            ok=ok, detail=detail, constraints=tuple(full),
            solution=solution, elimination=elim, iso=iso if ok else None))
    return ReplayReport(
        name="group-full-extension",
        conclusion=("with two blocks of equal parity and the normalization "
                    "alpha_11 = 1, alpha_12 = -1, associativity pins every "
                    "remaining constant (alpha_21 = alpha_22 = -1) and the "
                    "resulting algebra is the full eight-dimensional one"),
        cases=tuple(cases),
        passed=all(c.ok for c in cases))


_NULL_PRODUCT = ("a single vanishing product between block generators "
                 "forces every block product to vanish, so the algebra "
                 "collapses onto its grouplike base")
_DEPENDENT_PAIR_SIGNS = tuple(((a, b), (-a, b)) for a, b in _SIGN_PAIRS)

# one row per lemma: its conclusion, the detail of a forced case, and its
# cases, each (kind, signs, hypothesis variants); ((),) is one variant
# without hypotheses
_REPLAYS = {
    "group-null-product": lambda ctx: _vanishing_replay(
        "group-null-product", _NULL_PRODUCT,
        "one vanishing product collapses all of them",
        [("ga_K", signs, _null_products(ctx))
         for signs in _sign_cases("ga_K", 2)], ctx),
    "twisted-null-product": lambda ctx: _vanishing_replay(
        "twisted-null-product", _NULL_PRODUCT,
        "one vanishing product collapses all of them",
        [("kpsi", signs, _null_products(ctx))
         for signs in _sign_cases("kpsi", 2)], ctx),
    # only mixed-parity assignments are at stake
    "group-dimension-bound": lambda ctx: _vanishing_replay(
        "group-dimension-bound",
        "two blocks whose sign pairs have opposite parity force all block "
        "products to vanish: a nontrivial extension holds at most two blocks "
        "of equal parity, bounding the dimension by eight",
        "blocks of opposite parity cannot both multiply nontrivially",
        [("ga_K", ((a1, b1), (a2, b2)), ((),))
         for (a1, b1), (a2, b2) in _sign_cases("ga_K", 2)
         if a1 * b1 != a2 * b2], ctx),
    "group-dependent-collapse": lambda ctx: _vanishing_replay(
        "group-dependent-collapse",
        "a linear dependence between v_1^2 and v_2 v_1 forces every block "
        "product to vanish: no eigenspace of the sign action holds two "
        "independent generators",
        "the dependent pair forces total collapse",
        [("ga_K", signs, ((_dependent_pair(ctx),),))
         for signs in _DEPENDENT_PAIR_SIGNS], ctx),
    "twisted-no-extension": lambda ctx: _vanishing_replay(
        "twisted-no-extension",
        "over the twisted base the dependent pair collapses as well; the "
        "twisted base admits no block extension whatsoever",
        "the dependent pair forces total collapse",
        [("kpsi", signs, ((_dependent_pair(ctx),),))
         for signs in _DEPENDENT_PAIR_SIGNS], ctx),
    "plain-base-collapse": lambda ctx: _vanishing_replay(
        "plain-base-collapse",
        "over the one-dimensional base and the bases generated by e_x or "
        "e_y alone, every block product vanishes: those bases admit no "
        "extension at all",
        "all block structure constants vanish unconditionally",
        [(kind, None, ((),)) for kind in ("trivial", "ga_x", "ga_y")], ctx),
    "diagonal-base-pair-bound": lambda ctx: _vanishing_replay(
        "diagonal-base-pair-bound",
        "the base generated by e_xy supports at most one block: with two "
        "blocks every structure constant is forced to vanish",
        "two blocks over the e_xy base cannot multiply nontrivially",
        [("ga_xy", None, ((),))], ctx),
    "group-full-extension": _full_extension_report,
}

# replay reports under (name, ctx), the systems of _system, those of the
# replays and of classify_n2_le_1, under (kind, n2, signs, ctx) and
# generic_extension's block patterns under ("block patterns", ctx): one
# cache, so that a check for a cold cache and a reset of the cache cover all
# three; a test that changes a table empties it first
_REPLAY_CACHE: dict[tuple, Union[ReplayReport, _System, dict]] = {}


def replay_names() -> tuple[str, ...]:
    return tuple(sorted(_REPLAYS))


def replay_lemma(name: str, ctx: Optional[FieldContext] = None
                 ) -> ReplayReport:
    """Run one of the named elimination replays and report pass/fail."""
    if name not in _REPLAYS:
        raise HopfExactError(
            f"unknown replay {name!r}; available: {', '.join(replay_names())}")
    ctx = ctx or FieldContext(4)
    key = (name, ctx)
    if key not in _REPLAY_CACHE:
        _REPLAY_CACHE[key] = _REPLAYS[name](ctx)
    return _REPLAY_CACHE[key]


# -- classification for at most one block ----------------------------------------


@dataclass(frozen=True)
class SolutionFamily:
    """One family of exact extensions found by :func:`classify_n2_le_1`."""

    kind: str
    n2: int
    signs: Optional[tuple[tuple[int, int], ...]]
    constants: dict[str, FieldElement]
    presentations: tuple[dict[str, FieldElement], ...]
    algebra: ComoduleAlgebra
    catalog_match: str


def classify_n2_le_1(ctx: Optional[FieldContext] = None
                     ) -> tuple[SolutionFamily, ...]:
    """The exact extensions with at most one block, solved symbolically, up
    to colinear isomorphism and block scaling.

    For every base kind and n2 in {0, 1} the associativity constraints are
    solved exactly, under the scale normalization alpha_11 = 1 (one block
    generator can always be rescaled; families differing only by that scale
    are identified).  The rescaling multiplies alpha_11 by a square, so over
    a field that is not quadratically closed it merges forms: over Q(i),
    ``a_i_xy`` with its block products times 1 + i is exact and not
    colinearly isomorphic to ``a_i_xy``, as it is over Q(zeta_8)(sqrt(1+i)).
    Over ga_K and kpsi the four one-block sign cases are one orbit, of which
    :func:`_system` builds one and carries three.  Solutions related by a
    colinear isomorphism are merged into a single family.  The result is
    checked two ways before returning: every family specializes to an
    algebra that passes the comodule-algebra axioms and is exact, and the
    families are in bijection with the built-in catalog entries of
    dimension below eight.
    """
    ctx = ctx or FieldContext(4)
    scale = MultiPoly.var(ctx, "alpha_11") - 1
    families: list[SolutionFamily] = []
    for kind in KINDS:
        families.append(SolutionFamily(
            kind=kind, n2=0, signs=None, constants={}, presentations=({},),
            algebra=_system(kind, 0, None, ctx).g.specialize({}),
            catalog_match=""))
        # one block
        found: list[tuple] = []
        for signs in _sign_cases(kind, 1):
            system = _system(kind, 1, signs, ctx)
            for sol in concrete_solutions(system.constraints + [scale], ctx):
                found.append((signs, sol, system.g.specialize(sol)))
        # merge presentations of isomorphic algebras into one family each
        groups: list[list[tuple]] = []
        for item in found:
            for grp in groups:
                if colinear_iso_search(item[2], grp[0][2]) is not None:
                    grp.append(item)
                    break
            else:
                groups.append([item])
        for grp in groups:
            grp_sorted = sorted(
                grp, key=lambda it: sorted(
                    (k, repr(v)) for k, v in it[1].items()))
            signs, sol, algebra = grp_sorted[0]
            problems = check_comodule_algebra(algebra)
            if problems:
                raise HopfExactError(
                    f"classified family {kind!r} n2=1 is not a comodule "
                    f"algebra: {problems}")
            if not check_exactness(algebra).am_exact:
                raise HopfExactError(
                    f"classified family {kind!r} n2=1 is not exact")
            families.append(SolutionFamily(
                kind=kind, n2=1, signs=signs, constants=dict(sol),
                presentations=tuple(dict(s) for _, s, _ in grp_sorted),
                algebra=algebra, catalog_match=""))
    shape = {(f.kind, f.n2) for f in families}
    expected = {(k, 0) for k in KINDS} | {("ga_xy", 1)}
    if shape != expected:
        raise HopfExactError(
            f"classification shape {sorted(shape)} does not match the "
            f"expected list {sorted(expected)}")
    # bijection against the catalog entries of dimension < 8
    cat = {k: v for k, v in catalog(ctx).items() if v.dim < 8}
    matched: dict[str, str] = {}
    final: list[SolutionFamily] = []
    for fam in families:
        match = None
        for key, entry in cat.items():
            if key in matched or entry.dim != fam.algebra.dim:
                continue
            if colinear_iso_search(fam.algebra, entry) is not None:
                match = key
                break
        if match is None:
            raise HopfExactError(
                f"family {fam.kind!r} n2={fam.n2} matches no catalog entry")
        matched[match] = f"{fam.kind}/{fam.n2}"
        final.append(replace(fam, catalog_match=match))
    if set(matched) != set(cat):
        raise HopfExactError(
            f"catalog entries {sorted(set(cat) - set(matched))} have no "
            f"classified counterpart")
    return tuple(final)
