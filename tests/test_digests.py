"""Pinned sha256 digests of the verdicts that the comparison stage and the
classification return, with every matrix and table written out entry by
entry: a change to any structure constant, fusion table, isomorphism,
exactness method or witness basis changes a digest."""

import hashlib
import random

from hopfexact import replay
from hopfexact.constructions import (build_matrix2_trivial, catalog,
                                     comodule_direct_sum)
from hopfexact.exactness import check_exactness
from hopfexact.field import FieldContext
from hopfexact.morita import colinear_iso_search, fusion_fingerprint
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
_VERDICTS_SHA256 = ("e71f1ef2d0df2079f4d6b3ffe50a4d59"
                    "03043fb92465e4a1e96400c810805f24")


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
