"""The seeded change of basis of ``perfbench/transport.py``, for tests."""

from hopfexact.comodule import ComoduleAlgebra
from hopfexact.linalg import Mat, inverse, kron


def transport(a, rng):
    """The comodule algebra ``a`` in a seeded basis: P = L*U with L lower and
    U upper unitriangular, their entries off the diagonal each -1 or 1, and
    then ``table' = P^-1 m (P (x) P)``, ``unit' = P^-1 unit`` and
    ``coaction' = (I (x) P^-1) coaction P``."""
    ctx, n = a.ctx, a.dim

    def unitriangular(lower):
        return [[1 if i == j else
                 (rng.choice((-1, 1)) if (i > j) == lower else 0)
                 for j in range(n)] for i in range(n)]

    pm = Mat(ctx, unitriangular(True)) @ Mat(ctx, unitriangular(False))
    pim = inverse(pm)
    mult = Mat.from_columns(ctx, [a.table[i][j]
                                  for i in range(n) for j in range(n)])
    moved = pim @ mult @ kron(pm, pm)
    table = [[moved.col(i * n + j) for j in range(n)] for i in range(n)]
    coaction = (kron(Mat.identity(ctx, a.hopf.dim), pim) @ a.coaction) @ pm
    return ComoduleAlgebra(a.hopf, [f"{label}'" for label in a.labels],
                           pim.apply(a.unit), table, coaction)
