"""The symbolic classification replays: constraint harvesting, certified
eliminations, the n2 <= 1 classification and a negative control."""

import pytest

from hopfexact import replay
from hopfexact.constructions import catalog
from hopfexact.errors import HopfExactError
from hopfexact.field import FieldContext, adjoin_sqrt
from hopfexact.poly import MultiPoly, _addmul, _poly
from hopfexact.replay import (associativity_constraints, classify_n2_le_1,
                              generic_extension, replay_lemma)

CTX = FieldContext(4)
# a formal square root of a perfect square: a ring with zero divisors
SQRT4 = adjoin_sqrt(FieldContext(4), 4)


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


def _addmul_constraints(g):
    """The triple loop with one ``_addmul`` per pair of table entries: sets
    the order in which each constraint's terms are inserted."""
    dim, ctx = g.dim, g.ctx
    out, seen = [], set()
    sparse = [[[(m, p.terms) for m, p in enumerate(vec) if p.terms]
               for vec in row] for row in g.table]
    negated = [[[(m, (-p).terms) for m, p in enumerate(vec) if p.terms]
                for vec in row] for row in g.table]
    for i in range(dim):
        for j in range(dim):
            for k in range(dim):
                acc = [{} for _ in range(dim)]
                for m, c in sparse[i][j]:
                    for t, p in sparse[m][k]:
                        _addmul(acc[t], c, p)
                for m, c in negated[j][k]:
                    for t, p in sparse[i][m]:
                        _addmul(acc[t], c, p)
                for terms in acc:
                    if not terms:
                        continue
                    lead = terms[min(terms)]
                    if lead != ctx.one():
                        inv = lead.inverse()
                        terms = {m: v * inv for m, v in terms.items()}
                    key = tuple(sorted(terms.items()))
                    if key not in seen:
                        seen.add(key)
                        out.append(_poly(ctx, terms))
    return out


@pytest.mark.parametrize("kind,n2,signs,ctx", [
    ("ga_xy", 2, None, CTX),
    ("ga_K", 2, ((1, 1), (-1, -1)), CTX),
    ("kpsi", 1, ((1, -1),), CTX),
    ("ga_x", 2, None, CTX),
    ("ga_xy", 2, None, SQRT4),
    ("ga_xy", 2, None, FieldContext(8)),
], ids=["ga_xy-2", "ga_K-2", "kpsi-1", "ga_x-2", "ga_xy-2-sqrt4",
        "ga_xy-2-q8"])
def test_constraints_match_the_plain_triple_loop(kind, n2, signs, ctx):
    g = generic_extension(kind, n2, signs, ctx)
    got = associativity_constraints(g)
    want = _reference_constraints(g)
    assert got
    assert [repr(p) for p in got] == [repr(p) for p in want]
    assert got == want
    # the same terms in the same order as one _addmul per pair of entries
    assert ([list(p.terms.items()) for p in got]
            == [list(p.terms.items()) for p in _addmul_constraints(g)])
    for p in got:
        assert all(not c.is_zero() for c in p.terms.values())
        assert p.terms[min(p.terms)] == ctx.one()


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
