"""Seeded change of basis for comodule algebras.

The seed picks P = L*U with L lower and U upper unitriangular integer
matrices.  Their entries below (in L) or above (in U) the diagonal are each
-1 or 1, never 0, so every seed gives a basis change of the same density and
the pass time varies little with the seed.  Then det P = 1, the inverse is
integral too, and transporting an algebra introduces no denominators.  A
comodule algebra is carried to the basis e'_j = P e_j by

    table'    = P^-1 * m * (P (x) P)
    unit'     = P^-1 * unit
    coaction' = (I (x) P^-1) * coaction * P

which gives an isomorphic comodule algebra whose structure constants are
denser than the as-built ones.
"""

from __future__ import annotations

import random


def _unitriangular(rng: random.Random, n: int, lower: bool) -> list[list[int]]:
    return [[1 if i == j else
             (rng.choice((-1, 1)) if (i > j) == lower else 0)
             for j in range(n)] for i in range(n)]


def basis_change(hx, rng: random.Random, ctx, n: int):
    """A seeded P = L*U of determinant 1 and its inverse, as matrices."""
    Mat = hx.linalg.Mat
    p = Mat(ctx, _unitriangular(rng, n, lower=True)) \
        @ Mat(ctx, _unitriangular(rng, n, lower=False))
    return p, hx.linalg.inverse(p)


def transport(hx, a, rng: random.Random):
    """The comodule algebra ``a`` rewritten in the basis given by the
    columns of a seeded P; ``hx`` holds the imported ``hopfexact`` modules."""
    Mat, kron = hx.linalg.Mat, hx.linalg.kron
    ctx, n = a.ctx, a.dim
    pm, pim = basis_change(hx, rng, ctx, n)
    mult = Mat.from_columns(ctx, [a.table[i][j]
                                  for i in range(n) for j in range(n)])
    moved = pim @ mult @ kron(pm, pm)
    table = [[moved.col(i * n + j) for j in range(n)] for i in range(n)]
    coaction = (kron(Mat.identity(ctx, a.hopf.dim), pim) @ a.coaction) @ pm
    labels = [f"{label}'" for label in a.labels]
    return hx.comodule.ComoduleAlgebra(a.hopf, labels, pim.apply(a.unit),
                                       table, coaction)
