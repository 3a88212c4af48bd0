"""The symbolic classification replays: constraint harvesting, certified
eliminations, the n2 <= 1 classification and a negative control."""

import pytest

from hopfexact import replay
from hopfexact.constructions import catalog
from hopfexact.errors import HopfExactError
from hopfexact.field import FieldContext
from hopfexact.poly import MultiPoly
from hopfexact.replay import (associativity_constraints, classify_n2_le_1,
                              generic_extension, replay_lemma)

CTX = FieldContext(4)


def _reference_constraints(g):
    """The triple loop over plain MultiPoly sums and products."""
    dim, table, ctx = g.dim, g.table, g.ctx
    zero = MultiPoly(ctx, {})
    out, seen = [], set()
    for i in range(dim):
        for j in range(dim):
            for k in range(dim):
                acc = [zero] * dim
                for m in range(dim):
                    for t in range(dim):
                        acc[t] = acc[t] + table[i][j][m] * table[m][k][t]
                for m in range(dim):
                    for t in range(dim):
                        acc[t] = acc[t] - table[j][k][m] * table[i][m][t]
                for poly in acc:
                    if poly.is_zero():
                        continue
                    lead = poly.terms[min(poly.terms)]
                    norm = poly * lead.inverse()
                    key = tuple(sorted(norm.terms.items()))
                    if key not in seen:
                        seen.add(key)
                        out.append(norm)
    return out


@pytest.mark.parametrize("kind,n2,signs", [
    ("ga_xy", 2, None),
    ("ga_K", 2, ((1, 1), (-1, -1))),
    ("kpsi", 1, ((1, -1),)),
], ids=["ga_xy-2", "ga_K-2", "kpsi-1"])
def test_constraints_match_the_plain_triple_loop(kind, n2, signs):
    g = generic_extension(kind, n2, signs, CTX)
    got = associativity_constraints(g)
    want = _reference_constraints(g)
    assert got
    assert [repr(p) for p in got] == [repr(p) for p in want]
    assert got == want
    for p in got:
        assert all(not c.is_zero() for c in p.terms.values())
        assert p.terms[min(p.terms)] == CTX.one()


@pytest.mark.parametrize("name", ["diagonal-base-pair-bound",
                                  "plain-base-collapse"])
def test_replay_passes_and_certificates_reverify(name):
    report = replay_lemma(name, CTX)
    assert report.passed and report.cases
    for case in report.cases:
        assert case.ok and case.report.forced
        assert case.report.verify(list(case.constraints))
        for target, cert in case.report.certificates.items():
            assert replay.verify_combination(
                list(case.constraints), cert, MultiPoly.var(CTX, target))


def test_classification_of_at_most_one_block():
    families = classify_n2_le_1(CTX)
    shape = {(f.kind, f.n2) for f in families}
    assert shape == {(k, 0) for k in replay.KINDS} | {("ga_xy", 1)}
    small = {k for k, v in catalog(CTX).items() if v.dim < 8}
    assert {f.catalog_match for f in families} == small


# flipping slot 0 or slot 3 of one product's component signs breaks the
# classification; slots 1 and 2 are not seen at n2 <= 1
_FLIPS = [(key, slot) for key in replay._COMPONENT_SIGNS for slot in (0, 3)]


@pytest.mark.parametrize("key,slot", _FLIPS,
                         ids=[f"{a}{b}-{s}" for (a, b), s in _FLIPS])
def test_flipped_component_sign_is_caught(monkeypatch, key, slot):
    signs = list(replay._COMPONENT_SIGNS[key])
    signs[slot] = -signs[slot]
    monkeypatch.setitem(replay._COMPONENT_SIGNS, key, tuple(signs))
    with pytest.raises(HopfExactError, match="classification shape"):
        classify_n2_le_1(CTX)
