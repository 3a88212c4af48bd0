"""Pinned sha256 digests of the verdicts that the comparison stage and the
classification return, with every matrix and table written out entry by
entry: a change to any structure constant, fusion table, isomorphism,
exactness method or witness basis changes a digest."""

import hashlib
import random

from hopfexact import replay
from hopfexact.comodule import (coideal_generated,
                                comodule_algebra_from_subspace)
from hopfexact.constructions import (build_bimodule_V, build_matrix2_trivial,
                                     catalog, comodule_direct_sum)
from hopfexact.exactness import check_exactness
from hopfexact.field import FieldContext
from hopfexact.linalg import vadd, vscale
from hopfexact.morita import (RightComodModule, colinear_iso_search,
                              end_comodule_algebra, fusion_fingerprint)
from hopfexact.replay import classify_n2_le_1

from _transport import transport

QI = FieldContext(4)
CATALOG = catalog(QI)
# catalog entries of dimension <= 4, the small entries of the benchmark
SMALL = ("k", "ga_x", "ga_y", "ga_xy", "ga_k", "a_i_xy", "kpsi")


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _rows(mat) -> str:
    return "None" if mat is None else repr(mat.rows)


def _verdicts(name, a, iso_target) -> str:
    """The fusion table, the exactness verdict and the map found from ``a``
    to ``iso_target``, written out in full."""
    fp = fusion_fingerprint(a)
    ex = check_exactness(a)
    witness = None if ex.witness is None else ex.witness.basis()
    return (f"{name}: {fp!r} {ex.method} {ex.am_exact} {ex.coinvariants_dim} "
            f"{witness!r} {_rows(colinear_iso_search(a, iso_target))}\n")


# sha256 of the table and coaction of every classify_n2_le_1 family, over Q(i)
_FAMILIES_SHA256 = ("55dc8e6191ae9f9df5c5c9fb0ccd2f36"
                    "07a7c5f65d919e9f21c31c53594d0120")
# sha256 of _verdicts on every catalog entry over Q(i) (against itself) and on
# the small entries moved by the seeded basis changes of seeds 1 and 2
# (against the as-built entry), then of the witnesses of three inputs
# that are not exact
_VERDICTS_SHA256 = ("1850fee85562a29ef91de90327f20e89"
                    "a46e8494a1211a9902544431f5e7eca1")


def test_every_family_matches_its_pinned_digest(monkeypatch):
    monkeypatch.setattr(replay, "_REPLAY_CACHE", {})
    text = "".join(f"{f.kind} {f.n2} {f.signs}: {f.algebra.table!r} "
                   f"{_rows(f.algebra.coaction)}\n"
                   for f in classify_n2_le_1(QI))
    assert _digest(text) == _FAMILIES_SHA256


def test_every_comparison_verdict_matches_its_pinned_digest():
    text = "".join(_verdicts(name, a, a) for name, a in CATALOG.items())
    for seed in (1, 2):
        for name in SMALL:
            moved = transport(CATALOG[name], random.Random(f"{seed}:{name}"))
            text += _verdicts(f"{name}' {seed}", moved, CATALOG[name])
    non_exact = [build_matrix2_trivial(QI),
                 comodule_direct_sum(CATALOG["ga_x"], CATALOG["ga_y"]),
                 comodule_direct_sum(CATALOG["kpsi"], CATALOG["ga_k"])]
    for a in non_exact:
        ex = check_exactness(a)
        text += f"{ex.method} {ex.witness.basis()!r}\n"
    assert _digest(text) == _VERDICTS_SHA256


# sha256 of the table, unit and coaction of End(V) over Q(i), for V each of
# five small entries as a right module over itself and the bimodules V over
# kpsi and ga_x, then of the comodule algebra on the left coideal of kp
# generated by z + i zx
_SOLVED_SHA256 = ("99118760d15a8a49adb7ff7cc17bc380"
                  "576cd20047dcd77a547e92147176d211")


def _structure(name, a) -> str:
    return f"{name}: {a.table!r} {a.unit!r} {_rows(a.coaction)}\n"


def test_every_solved_coaction_matches_its_pinned_digest():
    text = ""
    for name in ("ga_x", "ga_k", "kpsi", "a_i_xy", "ga_xy"):
        b = CATALOG[name]
        regular = RightComodModule(b, b.dim, b.coaction,
                                   [b.right_mult(b.basis_element(i))
                                    for i in range(b.dim)])
        text += _structure(f"End({name})", end_comodule_algebra(regular))
    for target in ("kpsi", "ga_x"):
        v = build_bimodule_V(target, QI)
        text += _structure(f"End(V {target})", end_comodule_algebra(v))
    kp = CATALOG["kp"].hopf
    seed = vadd(kp.basis_element("z"), vscale(QI.i(), kp.basis_element("zx")))
    text += _structure("coideal", comodule_algebra_from_subspace(
        kp, coideal_generated(kp, [seed])))
    assert _digest(text) == _SOLVED_SHA256
