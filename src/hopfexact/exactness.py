"""Deciding whether a comodule algebra is right simple with scalar coinvariants.

A subspace of A is *costable* when it is simultaneously a right ideal and a
subcomodule; equivalently, when it is invariant under every right
multiplication operator and every left slice of the coaction.  A is right
H-simple when 0 and A are the only costable subspaces.

Two certification routes are used:

* ``burnside``: the unital operator algebra generated by the costable
  operators is the full matrix algebra, which forces irreducibility.
* ``witness``: a proper nonzero costable subspace is exhibited (the spin of
  some seed vector), refuting simplicity.  Witnesses are re-verified against
  every generator before being reported.

If neither route resolves, an error is raised rather than guessing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .algebra import generated_operator_algebra
from .comodule import ComoduleAlgebra, coaction_slice, coinvariants
from .errors import BadWitness, HopfExactError
from .linalg import Mat, Subspace, Vec, basis_vector, is_zero_vec, kernel, spin


def costable_operators(a: ComoduleAlgebra) -> list[Mat]:
    """Right multiplications by basis elements and coaction slices."""
    ops = [a.right_mult(a.basis_element(j)) for j in range(a.dim)]
    ops += [coaction_slice(a, h_idx) for h_idx in range(a.hopf.dim)]
    return ops


@dataclass(frozen=True)
class ExactnessVerdict:
    right_h_simple: bool
    coinvariants_dim: int
    am_exact: bool
    witness: Optional[Subspace]
    method: str


def _is_costable(a: ComoduleAlgebra, space: Subspace, ops: list[Mat]) -> bool:
    return all(space.contains(op.apply(v))
               for v in space.basis() for op in ops)


def _witness_search(a: ComoduleAlgebra, ops: list[Mat]) -> Optional[Subspace]:
    ctx = a.ctx
    n = a.dim
    seeds: list[Vec] = [basis_vector(ctx, n, j) for j in range(n)]
    for op in ops:
        seeds.extend(kernel(op))
    for seed in seeds:
        if is_zero_vec(seed):
            continue
        spun = spin(ctx, n, [seed], ops)
        if 0 < spun.dim < n:
            if not _is_costable(a, spun, ops):
                raise BadWitness(
                    f"spun subspace of dimension {spun.dim} is not costable")
            return spun
    return None


def check_exactness(a: ComoduleAlgebra) -> ExactnessVerdict:
    """Decide right H-simplicity and measure the coinvariants.

    The verdict is decided once and stored on ``a``, whose table, coaction
    and Hopf algebra never change; a refusal is not stored."""
    if a._exactness is None:
        a._exactness = _decide_exactness(a)
    return a._exactness


def _decide_exactness(a: ComoduleAlgebra) -> ExactnessVerdict:
    ops = costable_operators(a)
    n = a.dim
    coinv_dim = coinvariants(a).dim
    # slices first: with them the shortest words reach n**2 soonest
    generated = generated_operator_algebra(ops[n:] + ops[:n])
    if len(generated) == n * n:
        return ExactnessVerdict(
            right_h_simple=True,
            coinvariants_dim=coinv_dim,
            am_exact=coinv_dim == 1,
            witness=None,
            method="burnside",
        )
    witness = _witness_search(a, ops)
    if witness is not None:
        return ExactnessVerdict(
            right_h_simple=False,
            coinvariants_dim=coinv_dim,
            am_exact=False,
            witness=witness,
            method="witness",
        )
    raise HopfExactError(
        "cannot certify simplicity either way: the costable operators do not "
        "generate the full matrix algebra, yet no proper costable subspace "
        "was found from the standard seeds")
