"""Splits under a change of basis: every split must be decided.

Runs ``morita.simple_modules_split`` on the eight catalog entries and on the
direct sums ga_x+ga_y, ga_k+ga_k and kpsi+ga_k, each as built and moved by
seeds 1-10 (``tests/_transport.py`` with ``random.Random(seed)``), over
Q(i) and Q(zeta_8): 242 splits.  Fails when a split is refused, or when a
moved input's simples differ from the built input's in their dimensions and
multiplicities.  Run it from the repository root:
``python3 .github/check_moved_splits.py``.
"""

import random
import sys

sys.path[:0] = ["src", "tests"]

from _transport import transport  # noqa: E402
from hopfexact.constructions import catalog, comodule_direct_sum  # noqa: E402
from hopfexact.errors import HopfExactError  # noqa: E402
from hopfexact.field import FieldContext  # noqa: E402
from hopfexact.morita import simple_modules_split  # noqa: E402

ORDERS = (4, 8)
SEEDS = range(1, 11)
SUMS = (("ga_x", "ga_y"), ("ga_k", "ga_k"), ("kpsi", "ga_k"))


def inputs(ctx):
    built = catalog(ctx)
    for left, right in SUMS:
        built[f"{left}+{right}"] = comodule_direct_sum(built[left],
                                                       built[right])
    return built


def shape(a):
    """The sorted (dimension, multiplicity) pairs of the simples of a."""
    _, dec = simple_modules_split(a)
    return sorted((s.dim, m) for s, m in zip(dec.simples, dec.multiplicities))


def main() -> int:
    problems = []
    runs = 0
    for order in ORDERS:
        for name, a in inputs(FieldContext(order)).items():
            want = None
            for seed in (None, *SEEDS):
                moved = a if seed is None else transport(a,
                                                         random.Random(seed))
                runs += 1
                where = f"Q(zeta_{order}) {name} seed {seed}"
                try:
                    got = shape(moved)
                except HopfExactError as exc:
                    problems.append(f"{where}: {type(exc).__name__}: {exc}")
                    continue
                if seed is None:
                    want = got
                elif want is not None and got != want:
                    problems.append(f"{where}: simples {got}, built {want}")
    print(f"{runs} splits, {len(problems)} problems")
    for problem in problems:
        print(problem, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
