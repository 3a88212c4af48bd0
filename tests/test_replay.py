"""The symbolic classification replays: constraint harvesting, certified
eliminations, the n2 <= 1 classification and negative controls."""

import dataclasses
import hashlib
import itertools
import random
import sys
from fractions import Fraction
from types import SimpleNamespace

import pytest

from hopfexact import (algebra, comodule, constructions, exactness, hopf,
                       linalg, morita, replay)
from hopfexact.algebra import (Algebra, is_algebra_isomorphism,
                               multiplicative_into_tensor)
from hopfexact.comodule import ComoduleAlgebra, check_comodule_algebra
from hopfexact.constructions import (PSI_STANDARD, build_bimodule_V, build_kp,
                                     catalog, paper_map_f,
                                     with_trivial_coaction)
from hopfexact.errors import HopfExactError, NonlinearResidue
from hopfexact.exactness import check_exactness
from hopfexact.field import FieldContext, adjoin_sqrt
from hopfexact.linalg import (Mat, basis_vector, kron, tensor_vec, vadd, vscale,
                              vsub)
from hopfexact.hopf import check_hopf, rebase_comodule_algebra
from hopfexact.morita import (block_patterns, colinear_iso_search,
                             fusion_fingerprint, is_colinear_isomorphism)
from hopfexact.poly import (Elimination, MultiPoly, _addmul, _addterms,
                            _linear_quotient, _poly, _product_terms,
                            concrete_solutions, eliminate)
from hopfexact.replay import (_sign_cases, _vanishing_report,
                              associativity_constraints, classify_n2_le_1,
                              generic_extension, replay_lemma, replay_names)

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


def _every_triple_constraints(g, first=0):
    """A copy of ``associativity_constraints`` as it was before unit triples
    were skipped: every triple with indices from ``first`` up is run."""
    dim, ctx = g.dim, g.ctx
    out, seen, seen_raw, ids = [], set(), set(), {}

    def entry_id(terms):
        return ids.setdefault(tuple(terms.items()), len(ids))

    sparse = [[[(m, entry_id(p.terms)) for m, p in enumerate(vec) if p.terms]
               for vec in row] for row in g.table]
    negated = [[[(m, entry_id((-p).terms)) for m, p in enumerate(vec)
                 if p.terms] for vec in row] for row in g.table]
    entries = [dict(key) for key in ids]
    products = {}
    for i in range(first, dim):
        for j in range(first, dim):
            tij = sparse[i][j]
            for k in range(first, dim):
                acc = [{} for _ in range(dim)]
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
                    norm = replay._normalize(_poly(ctx, terms))
                    key = tuple(sorted(norm.terms.items()))
                    if key not in seen:
                        seen.add(key)
                        out.append(norm)
    return out


def _term_lists(polys):
    return [(p.ctx, list(p.terms.items())) for p in polys]


# with no blocks the one sign case is the empty one, passed as None
_EVERY_SYSTEM = [(kind, n2, signs or None) for kind in replay.KINDS
                 for n2 in (0, 1, 2) for signs in _sign_cases(kind, n2)]


def _pair_count(g, first):
    """The products of entry pairs that the triples with indices from
    ``first`` up accumulate."""
    nonzero = [[[m for m, p in enumerate(vec) if p.terms] for vec in row]
               for row in g.table]
    span = range(first, g.dim)
    return sum(sum(len(nonzero[m][k]) for m in nonzero[i][j])
               + sum(len(nonzero[i][m]) for m in nonzero[j][k])
               for i in span for j in span for k in span)


@pytest.mark.parametrize("kind", replay.KINDS)
def test_skipping_unit_triples_keeps_every_constraint_in_order(kind,
                                                               monkeypatch):
    """Every n2 <= 2 and every sign case: the same polynomials, term for
    term, in the same order as the loop over every triple, from the pairs
    of the triples without index 0 alone."""
    systems = [(n2, signs) for k, n2, signs in _EVERY_SYSTEM if k == kind]
    assert len(systems) == (21 if kind in ("ga_K", "kpsi") else 3)
    calls = []
    monkeypatch.setattr(replay, "_addterms",
                        lambda acc, prods: calls.append(_addterms(acc, prods)))
    for n2, signs in systems:
        g = generic_extension(kind, n2, signs, CTX)
        calls.clear()
        got = associativity_constraints(g)
        assert len(calls) == _pair_count(g, first=1) < _pair_count(g, 0)
        assert _term_lists(got) == _term_lists(_every_triple_constraints(g))


@pytest.mark.parametrize("where", ["column", "row"])
def test_a_perturbed_unit_keeps_its_unit_triples(where):
    """With e_1 e_0 (or e_0 e_1) scaled by 1 + u, index 0 is no unit with
    coefficient 1, and the triples through it are run: they give
    constraints that the other triples do not."""
    g = generic_extension("ga_K", 1, ((1, -1),), CTX)
    table = [list(row) for row in g.table]
    i, j = (1, 0) if where == "column" else (0, 1)
    vec = list(table[i][j])
    vec[1] = vec[1] * (MultiPoly.var(CTX, "u") + 1)
    table[i][j] = tuple(vec)
    bent = dataclasses.replace(g, table=tuple(tuple(r) for r in table))
    got = associativity_constraints(bent)
    assert _term_lists(got) == _term_lists(_every_triple_constraints(bent))
    assert _term_lists(got) \
        != _term_lists(_every_triple_constraints(bent, first=1))
    assert any("u" in repr(p) for p in got)


@pytest.mark.parametrize("name", replay_names())
def test_replay_passes_and_certificates_reverify(name):
    report = replay_lemma(name, CTX)
    assert report.passed and report.cases
    for case in report.cases:
        constraints = list(case.constraints)
        assert case.ok
        assert case.report is not None or case.elimination is not None
        if case.report is not None:
            assert case.report.forced
            assert case.report.verify(constraints)
            for target, cert in case.report.certificates.items():
                assert replay.verify_combination(
                    constraints, cert, MultiPoly.var(CTX, target))
        if case.elimination is not None:
            elim = case.elimination
            for var, value in elim.pins.items():
                assert replay.verify_combination(
                    constraints, elim.certificates[var],
                    MultiPoly.var(CTX, var) - value)


def _summed_combination(constraints, cert, expected):
    """``verify_combination`` as it was: one MultiPoly sum per multiplier."""
    if not cert:
        return False
    total = MultiPoly(expected.ctx, {})
    for idx, mult in cert.items():
        total = total + mult * constraints[idx]
    return total == expected


def _replay_certificates(name):
    """Every (constraints, certificate, expected) of one replay's cases."""
    for case in replay_lemma(name, CTX).cases:
        constraints = list(case.constraints)
        if case.report is not None:
            for target, cert in case.report.certificates.items():
                yield constraints, cert, MultiPoly.var(CTX, target)
        elim = case.elimination
        if elim is not None:
            for var, value in elim.pins.items():
                yield (constraints, elim.certificates[var],
                       MultiPoly.var(CTX, var) - value)
            if elim.contradiction is not None:
                yield (constraints, elim.contradiction,
                       MultiPoly.const(CTX, elim.contradiction_value))


@pytest.mark.parametrize("name", replay_names())
def test_verify_combination_matches_the_summed_check(name):
    """The same verdict as the sum of MultiPoly products on every replay
    certificate, and a refusal once one multiplier is altered."""
    checked = 0
    for constraints, cert, expected in _replay_certificates(name):
        assert replay.verify_combination(constraints, cert, expected)
        assert _summed_combination(constraints, cert, expected)
        idx = min(cert)
        altered = dict(cert)
        altered[idx] = cert[idx] + MultiPoly.const(CTX, 1)
        assert not replay.verify_combination(constraints, altered, expected)
        assert not _summed_combination(constraints, altered, expected)
        checked += 1
    assert checked


# the sign pairs (a, b) in the order of the case table
_PAIRS = [(1, 1), (1, -1), (-1, 1), (-1, -1)]
_NO_HYPOTHESES = ()
_DEPENDENT = ("alpha_11 - c*alpha_21 = 0",)


def _expected_cases(name):
    """Each vanishing replay's cases as (kind, signs, hypotheses), written
    out here independently of the case table."""
    two_blocks = [(s1, s2) for s1 in _PAIRS for s2 in _PAIRS]
    if name in ("group-null-product", "twisted-null-product"):
        kind = "ga_K" if name.startswith("group") else "kpsi"
        return [(kind, signs, hyp) for signs in two_blocks
                for hyp in (("alpha_12 = 0",), ("alpha_11 = 0",))]
    if name == "group-dimension-bound":
        return [("ga_K", ((a1, b1), (a2, b2)), _NO_HYPOTHESES)
                for (a1, b1), (a2, b2) in two_blocks if a1 * b1 == -a2 * b2]
    if name in ("group-dependent-collapse", "twisted-no-extension"):
        kind = "ga_K" if name.startswith("group") else "kpsi"
        return [(kind, ((a, b), (-a, b)), _DEPENDENT) for a, b in _PAIRS]
    if name == "plain-base-collapse":
        return [(kind, None, _NO_HYPOTHESES)
                for kind in ("trivial", "ga_x", "ga_y")]
    assert name == "diagonal-base-pair-bound"
    return [("ga_xy", None, _NO_HYPOTHESES)]


# vanishing replay -> (vacuous cases, all cases)
_VACUOUS = {
    "group-null-product": (24, 32),
    "twisted-null-product": (32, 32),
    "group-dimension-bound": (8, 8),
    "group-dependent-collapse": (4, 4),
    "twisted-no-extension": (4, 4),
    "plain-base-collapse": (0, 3),
    "diagonal-base-pair-bound": (0, 1),
}


@pytest.mark.parametrize("name", sorted(_VACUOUS))
def test_vanishing_replay_case_table(name):
    cases = replay_lemma(name, CTX).cases
    assert ([(c.kind, c.signs, c.hypotheses) for c in cases]
            == _expected_cases(name))
    assert all(c.n2 == 2 for c in cases)


@pytest.mark.parametrize("name", sorted(_VACUOUS))
def test_vacuous_cases_are_labelled_as_vacuous(name):
    report = replay_lemma(name, CTX)
    flags = [c.report.vacuous for c in report.cases]
    for case, vacuous in zip(report.cases, flags):
        assert case.detail.startswith("vacuous") == vacuous
        assert vacuous or case.detail != "NOT forced"
    assert (sum(flags), len(flags)) == _VACUOUS[name]
    assert (report.conclusion.startswith(
        "no extension with these signs exists") == all(flags))


def test_every_vanishing_replay_is_pinned():
    # with the two cases of the full extension: 72 of 86 cases are vacuous
    assert set(replay_names()) == set(_VACUOUS) | {"group-full-extension"}


def test_forces_vanishing_reads_each_outcome():
    x, y = MultiPoly.var(CTX, "x"), MultiPoly.var(CTX, "y")
    one = MultiPoly.const(CTX, 1)
    forced = _vanishing_report(eliminate([x + y, y]), ["x", "y"])
    assert forced and forced.verify([x + y, y]) and not forced.vacuous
    vacuous = _vanishing_report(eliminate([x, x - one]), ["y"])
    assert vacuous.vacuous and vacuous.verify([x, x - one])
    assert _vanishing_report(eliminate([x - one]), ["x"]).nonzero == ("x",)
    assert _vanishing_report(eliminate([x + y]), ["x"]).undecided == ("x",)
    with pytest.raises(NonlinearResidue):
        _vanishing_report(eliminate([x * y + x]), ["x"])


def test_vacuous_cases_are_contradictions_of_their_constraints_alone():
    for name in sorted(_VACUOUS):
        for case in replay_lemma(name, CTX).cases:
            if not case.report.vacuous:
                continue
            rows = len(case.constraints) - len(case.hypotheses)
            assert all(idx < rows
                       for cert in case.report.certificates.values()
                       for idx in cert)


def test_vanishing_replays_build_and_eliminate_each_system_once(monkeypatch):
    # 36 distinct two-block systems: the 4 one-system bases are built, and so
    # is one representative of each of the 4 sign orbits over ga_K and over
    # kpsi; the other 24 are carried from their representatives.  One
    # elimination per built system, plus the 2 group-null-product variants of
    # the one consistent orbit's representative
    monkeypatch.setattr(replay, "_REPLAY_CACHE", {})
    built, eliminations = [], []
    real_constraints, real_eliminate = (replay.associativity_constraints,
                                        replay.eliminate)

    def constraints(g):
        if g.n2 == 2:
            built.append((g.kind, g.signs))
        return real_constraints(g)

    def eliminate(rows):
        eliminations.append(len(rows))
        return real_eliminate(rows)

    monkeypatch.setattr(replay, "associativity_constraints", constraints)
    monkeypatch.setattr(replay, "eliminate", eliminate)
    for name in sorted(_VACUOUS):
        replay_lemma(name, CTX)
    assert len(built) == len(set(built)) == 12
    assert len(eliminations) == 14
    assert _carried_count(replay._REPLAY_CACHE) == 24


def test_every_system_of_a_replay_symbolic_pass_is_built_by_system(
        monkeypatch):
    # the seven vanishing replays and the classification from a cold cache:
    # each base kind's system is built once and shared by the base checks
    # and the classification's base algebras, and over ga_K and kpsi the
    # four one-block sign cases are one orbit, so one is built and three
    # are carried
    monkeypatch.setattr(replay, "_REPLAY_CACHE", {})
    built, callers = [], set()
    for name in ("generic_extension", "associativity_constraints"):
        def wrapper(*args, _real=getattr(replay, name), _name=name):
            callers.add((_name, sys._getframe(1).f_code.co_name))
            if _name == "associativity_constraints":
                built.append(args[0].n2)
            return _real(*args)
        monkeypatch.setattr(replay, name, wrapper)
    for name in sorted(_VACUOUS):
        replay_lemma(name, CTX)
    classify_n2_le_1(CTX)
    assert sorted(built) == [0] * 6 + [1] * 6 + [2] * 12
    assert _carried_count(replay._REPLAY_CACHE) == 30
    assert callers == {("generic_extension", "_system"),
                       ("associativity_constraints", "_system")}


def _carried_count(cache):
    """The systems in a replay cache carried from an orbit representative."""
    return sum(isinstance(s, replay._System) and s.source is not None
               for s in cache.values())


def _character(signs, rep):
    """The character of K that takes the sign pairs ``rep`` to ``signs``."""
    return signs[0][0] * rep[0][0], signs[0][1] * rep[0][1]


@pytest.mark.parametrize("kind", ["ga_K", "kpsi"])
def test_each_sign_orbit_is_represented_by_its_first_case(kind):
    cases = list(replay._sign_cases(kind, 2))
    reps = set()
    for signs in cases:
        orbit = {tuple((e1 * a, e2 * b) for a, b in signs)
                 for e1 in (1, -1) for e2 in (1, -1)}
        rep = replay._representative(kind, 2, signs)
        assert len(orbit) == 4 and rep in orbit
        assert cases.index(rep) == min(cases.index(s) for s in orbit)
        reps.add(rep)
    # every orbit holds exactly one case whose first block has signs (1, 1)
    assert sorted(reps) == sorted(((1, 1), pair) for pair in _PAIRS)


@pytest.mark.parametrize("kind", ["ga_K", "kpsi"])
def test_the_table_check_accepts_exactly_each_characters_image(kind):
    # kpsi's cocycle is checked on its own: its table too is carried by all
    # four characters, the trivial one included.  A sign case mapped to the
    # wrong member of its orbit fails the check.
    for rep_signs in sorted(((1, 1), pair) for pair in _PAIRS):
        rep = replay._system(kind, 2, rep_signs, CTX)
        orbit = [tuple((e1 * a, e2 * b) for a, b in rep_signs)
                 for e1, e2 in _PAIRS]
        for eps, image in zip(_PAIRS, orbit):
            for member in orbit:
                g = generic_extension(kind, 2, member, CTX)
                carried = replay._carried_system(rep, g, eps)
                assert (carried is not None) == (member == image)


def test_a_swapped_action_is_refused_where_it_differs(monkeypatch):
    # the rule with x and y exchanged, so lx is signed by e2 and ry by e1:
    # the table check refuses exactly the
    # members reached by a character with e1 != e2; under (-1, -1) the
    # swapped action is the true one
    members = []
    for kind in ("ga_K", "kpsi"):
        for signs in replay._sign_cases(kind, 2):
            rep_signs = replay._representative(kind, 2, signs)
            if rep_signs != signs:
                members.append((replay._system(kind, 2, rep_signs, CTX),
                                generic_extension(kind, 2, signs, CTX),
                                _character(signs, rep_signs)))
    real, swap = replay._symbol_mask, {0: 0, 1: 2, 2: 1, 3: 3}
    monkeypatch.setattr(replay, "_symbol_mask",
                        lambda name: swap[real(name)])
    refused = [eps for rep, g, eps in members
               if replay._carried_system(rep, g, eps) is None]
    assert len(members) == 24
    assert sorted(refused) == sorted(eps for _, _, eps in members
                                     if eps[0] != eps[1])
    assert len(refused) == 16


@pytest.fixture(scope="module")
def refused_run():
    """Every replay and the classification under an action that leaves the
    symbols unsigned.  The table check refuses it on every member, so every
    system is built and eliminated directly, as without the orbit path.
    Holds the reports' reprs by name, the classification's repr, the replay
    cache, and the two-block systems built, the eliminations run and the kp
    structures built by the replays and the classification."""
    run = SimpleNamespace(cache={}, built=[], eliminations=[])
    real_constraints, real_eliminate = (replay.associativity_constraints,
                                        replay.eliminate)

    def constraints(g):
        if g.n2 == 2:
            run.built.append((g.kind, g.signs))
        return real_constraints(g)

    def eliminate(rows):
        run.eliminations.append(len(rows))
        return real_eliminate(rows)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(replay, "_REPLAY_CACHE", run.cache)
        mp.setattr(replay, "_symbol_mask", lambda name: 0)
        mp.setattr(replay, "associativity_constraints", constraints)
        mp.setattr(replay, "eliminate", eliminate)
        run.kp = _kp_builds(mp)
        run.reports = {name: repr(replay_lemma(name, CTX))
                       for name in replay_names()}
        run.classified = repr(classify_n2_le_1(CTX))
    return run


def test_a_refused_action_builds_every_system_directly(refused_run):
    assert len(refused_run.built) == len(set(refused_run.built)) == 36
    # the 44 of the vanishing replays and the full extension's two
    assert len(refused_run.eliminations) == 46
    assert _carried_count(refused_run.cache) == 0
    # one kp is built, the full extension's, and every
    # specialisation is over it
    assert refused_run.kp == [CTX]


@pytest.mark.parametrize("name", replay_names())
def test_reports_match_the_direct_build(refused_run, name):
    assert repr(replay_lemma(name, CTX)) == refused_run.reports[name]


def test_the_classification_matches_the_direct_build(refused_run):
    assert repr(classify_n2_le_1(CTX)) == refused_run.classified


def _terms(polys):
    return [list(p.terms.items()) for p in polys]


# the hypotheses of every variant in the replays
_VARIANTS = ([tuple(p for _, p in v) for v in replay._null_products(CTX)]
             + [(replay._dependent_pair(CTX)[1],),
                (MultiPoly.var(CTX, "alpha_11") - 1,
                 MultiPoly.var(CTX, "alpha_12") + 1)])
# the orbits whose members are checked under every variant as well: the
# dependent pair's, and the one consistent orbit over ga_K
_ALL_VARIANT_ORBITS = (((1, 1), (-1, 1)), ((1, 1), (-1, -1)))


@pytest.mark.parametrize("kind", ["ga_K", "kpsi"])
def test_carried_systems_match_the_direct_build(refused_run, kind):
    # the two-block members of the replays, and the one-block members of
    # the classification with its normalisation
    direct_cache = refused_run.cache
    carried = 0
    for n2, signs in [(n2, signs) for n2 in (1, 2)
                      for signs in replay._sign_cases(kind, n2)]:
        direct = direct_cache[(kind, n2, signs, CTX)]
        system = replay._system(kind, n2, signs, CTX)
        assert direct.source is None
        if replay._representative(kind, n2, signs) == signs:
            assert system.source is None
            continue
        carried += 1
        rep_signs = system.source[0].g.signs
        assert system.source[1] == _character(signs, rep_signs)
        # the same constraints, term order included
        assert _terms(system.constraints) == _terms(direct.constraints)
        variants = [(MultiPoly.var(CTX, "alpha_11") - 1,)] if n2 == 1 \
            else _VARIANTS * (rep_signs in _ALL_VARIANT_ORBITS)
        for hyps in [()] + variants:
            got, want = system.elimination(hyps), direct.elimination(hyps)
            assert list(got.pins.items()) == list(want.pins.items())
            assert got.certificates == want.certificates
            assert _terms(got.residual) == _terms(want.residual)
            assert got.contradiction == want.contradiction
            assert got.contradiction_value == want.contradiction_value
    assert carried == 3 + 12


def test_a_hypothesis_the_character_moves_is_eliminated_directly(monkeypatch):
    member = replay._system("ga_K", 2, ((1, -1), (-1, 1)), CTX)
    assert member.source is not None and member.source[1] == (1, -1)
    hyps = (MultiPoly.var(CTX, "ry_11"),)
    calls = []
    real = replay.eliminate

    def eliminate(rows):
        calls.append(len(rows))
        return real(rows)

    monkeypatch.setattr(replay, "eliminate", eliminate)
    got = member.elimination(hyps)
    assert calls == [len(member.constraints) + 1]
    want = real(member.constraints + list(hyps))
    assert got.pins == want.pins and got.certificates == want.certificates


def test_kp_is_built_once_per_classification(monkeypatch):
    builds = _kp_builds(monkeypatch)
    families = classify_n2_le_1(CTX)
    assert builds == [CTX]
    assert [(f.kind, f.n2, f.signs, f.catalog_match) for f in families] == [
        ("trivial", 0, None, "k"), ("ga_x", 0, None, "ga_x"),
        ("ga_y", 0, None, "ga_y"), ("ga_xy", 0, None, "ga_xy"),
        ("ga_xy", 1, None, "a_i_xy"), ("ga_K", 0, None, "ga_k"),
        ("kpsi", 0, None, "kpsi")]
    i = CTX.i()
    assert families[4].constants == {"alpha_11": CTX.one(), "rxy_11": -i,
                                     "lxy_11": -i, "delta_11": -i}
    assert all(f.algebra.hopf is families[0].algebra.hopf for f in families)



# -- the full extension: each case's map is the paper's f after its sign change

_FULL_CHECKS = ("check_comodule_algebra", "check_exactness",
                "colinear_iso_search", "paper_map_f")
# the calls of one report: f formed once, no search, and kp's two verdicts
# read by each of the two cases, whose maps pass
_ONE_REPORT = {"check_comodule_algebra": 2, "check_exactness": 2,
               "colinear_iso_search": 0, "paper_map_f": 1}
# the signs of the full extension's two cases, the paper's first, and the
# character of K that takes the paper's signs to each
_REP_SIGNS, _MEMBER_SIGNS = ((1, 1), (-1, -1)), ((1, -1), (-1, 1))
_CASE_EPS = {_REP_SIGNS: (1, 1), _MEMBER_SIGNS: (1, -1)}
_NORMALISATION = (MultiPoly.var(CTX, "alpha_11") - 1,
                  MultiPoly.var(CTX, "alpha_12") + 1)


def _count_full_checks(monkeypatch):
    """Count the calls that ``replay`` makes to each check of a case."""
    calls = dict.fromkeys(_FULL_CHECKS, 0)
    for name in _FULL_CHECKS:
        def wrapper(*args, _real=getattr(replay, name), _name=name):
            calls[_name] += 1
            return _real(*args)
        monkeypatch.setattr(replay, name, wrapper)
    return calls


def _sign_change(signs):
    """D of a full-extension case: the diagonal matrix of the signs that
    the case's character gives the basis."""
    g = replay._system("ga_K", 2, signs, CTX).g
    d = replay._basis_signs(g, _CASE_EPS[signs])
    return Mat(CTX, [[s if i == j else 0 for j in range(g.dim)]
                     for i, s in enumerate(d)])


def _specialized(signs):
    """The specialised algebra A of a full-extension case."""
    system = replay._system("ga_K", 2, signs, CTX)
    return system.g.specialize(system.elimination(_NORMALISATION).pins)


def _flip_v1(monkeypatch):
    """Make ``replay`` read the paper's f with f(v1) negated, which is no
    algebra map, from a cold cache."""
    real = replay.paper_map_f

    def flipped(kp):
        f = real(kp)
        return Mat.from_columns(CTX, [
            vscale(CTX.scalar(-1), f.col(j)) if j == 4 else f.col(j)
            for j in range(f.ncols)])

    monkeypatch.setattr(replay, "paper_map_f", flipped)
    monkeypatch.setattr(replay, "_REPLAY_CACHE", {})


def test_a_cold_full_extension_decides_one_case_in_full(monkeypatch):
    monkeypatch.setattr(replay, "_REPLAY_CACHE", {})
    calls = _count_full_checks(monkeypatch)
    report = replay_lemma("group-full-extension", CTX)
    assert report.passed
    assert calls == _ONE_REPORT
    member = replay._system("ga_K", 2, _MEMBER_SIGNS, CTX)
    assert member.source[0] is replay._system("ga_K", 2, _REP_SIGNS, CTX)


def test_the_carried_iso_is_a_colinear_algebra_isomorphism_onto_kp():
    kp = build_kp(CTX)
    alg = _specialized(_MEMBER_SIGNS)
    f = paper_map_f(kp)
    iso = f @ _sign_change(_MEMBER_SIGNS)
    assert is_colinear_isomorphism(alg, kp, iso)
    assert is_algebra_isomorphism(alg, kp, iso)
    assert kp.coaction @ iso \
        == kron(Mat.identity(CTX, 8), iso) @ alg.coaction
    # the moved case needs its sign change: f alone is not its map, and the
    # map is refused for an algebra whose coaction is not A's
    assert not is_colinear_isomorphism(alg, kp, f)
    not_colinear = with_trivial_coaction(alg.hopf, alg)
    assert not is_colinear_isomorphism(not_colinear, kp, iso)


def test_each_full_extension_case_keeps_its_iso_onto_kp():
    kp = build_kp(CTX)
    report = replay_lemma("group-full-extension", CTX)
    assert [c.signs for c in report.cases] == [_REP_SIGNS, _MEMBER_SIGNS]
    for case in report.cases:
        a = replay._system("ga_K", 2, case.signs, CTX).g.specialize(
            case.solution)
        assert case.iso == paper_map_f(kp) @ _sign_change(case.signs)
        assert is_colinear_isomorphism(a, kp, case.iso)
        assert is_algebra_isomorphism(a, kp, case.iso)
        assert kp.comult @ case.iso \
            == kron(Mat.identity(CTX, 8), case.iso) @ a.coaction


def test_the_papers_case_holds_the_papers_map_f_as_its_iso(monkeypatch):
    monkeypatch.setattr(replay, "_REPLAY_CACHE", {})
    report = replay_lemma("group-full-extension", CTX)
    assert report.cases[0].signs == _REP_SIGNS
    assert _sign_change(_REP_SIGNS) == Mat.identity(CTX, 8)
    assert report.cases[0].iso == paper_map_f(build_kp(CTX))
    # with the sign of f(v1) flipped f is no algebra map, and neither is f
    # after the sign change: both cases fail, and nothing is checked on A
    # or on kp
    _flip_v1(monkeypatch)
    calls = _count_full_checks(monkeypatch)
    report = replay_lemma("group-full-extension", CTX)
    assert [c.ok for c in report.cases] == [False, False]
    assert [c.iso for c in report.cases] == [None, None]
    assert all(c.detail == "specialization failed: not exact/iso"
               for c in report.cases)
    assert calls == {**_ONE_REPORT, "check_comodule_algebra": 0,
                     "check_exactness": 0}


def test_a_wrong_sign_change_fails_only_the_moved_case(monkeypatch):
    monkeypatch.setattr(replay, "_REPLAY_CACHE", {})
    want = replay_lemma("group-full-extension", CTX)
    # the systems stay cached; only the report is formed again, with e_x's
    # sign flipped in the moved case's D, which keeps D colinear but not
    # multiplicative
    del replay._REPLAY_CACHE[("group-full-extension", CTX)]
    real = replay._basis_signs

    def flipped(g, eps):
        signs = real(g, eps)
        if eps != (1, 1):
            signs[1] = -signs[1]
        return signs

    monkeypatch.setattr(replay, "_basis_signs", flipped)
    calls = _count_full_checks(monkeypatch)
    report = replay_lemma("group-full-extension", CTX)
    assert [c.ok for c in report.cases] == [True, False]
    assert report.cases[0] == want.cases[0]
    assert report.cases[1].iso is None
    assert report.cases[1].detail == "specialization failed: not exact/iso"
    # the moved case's elimination is untouched: only its map failed
    assert repr(report.cases[1].elimination) \
        == repr(want.cases[1].elimination)
    # kp's verdicts are read by the paper's case alone
    assert calls == {**_ONE_REPORT, "check_comodule_algebra": 1,
                     "check_exactness": 1}


# a refused verdict on kp, the detail that both cases give for it, and the
# calls that differ from a passing report's
_KP_REFUSALS = {
    "check_comodule_algebra": (lambda a: ["refused for the test"],
                               "specialization failed: "
                               "['refused for the test']",
                               {"check_exactness": 0}),
    "check_exactness": (lambda a: SimpleNamespace(am_exact=False),
                        "specialization failed: not exact/iso", {}),
}


@pytest.mark.parametrize("name", sorted(_KP_REFUSALS))
def test_a_refused_kp_check_fails_both_cases(monkeypatch, name):
    refusal, detail, calls_differing = _KP_REFUSALS[name]
    monkeypatch.setattr(replay, "_REPLAY_CACHE", {})
    monkeypatch.setattr(replay, name, refusal)
    calls = _count_full_checks(monkeypatch)
    report = replay_lemma("group-full-extension", CTX)
    assert [c.ok for c in report.cases] == [False, False]
    assert [c.iso for c in report.cases] == [None, None]
    assert [c.detail for c in report.cases] == [detail, detail]
    # each case asks kp for its verdict; exactness is not asked once the
    # axioms fail
    assert calls == {**_ONE_REPORT, **calls_differing}


def _spy_checked(monkeypatch):
    """The algebras that the full extension checks, in call order."""
    seen = []
    for name in ("check_comodule_algebra", "check_exactness"):
        def wrapper(a, _real=getattr(replay, name), _name=name):
            seen.append((_name, a))
            return _real(a)
        monkeypatch.setattr(replay, name, wrapper)
    return seen


def test_an_accepted_map_moves_the_checks_onto_kp(monkeypatch):
    monkeypatch.setattr(replay, "_REPLAY_CACHE", {})
    seen = _spy_checked(monkeypatch)
    assert replay_lemma("group-full-extension", CTX).passed
    # once per case, on the context's one kp, not on either A
    assert [name for name, _ in seen] \
        == ["check_comodule_algebra", "check_exactness"] * 2
    kp = build_kp(CTX)
    assert all(a is kp for _, a in seen)
    # the verdicts along the map are each case's own
    on_kp = (check_comodule_algebra(kp), check_exactness(kp))
    for signs in (_REP_SIGNS, _MEMBER_SIGNS):
        a = _specialized(signs)
        exact = check_exactness(a)
        assert check_comodule_algebra(a) == on_kp[0] == []
        assert (exact.am_exact, exact.coinvariants_dim) \
            == (on_kp[1].am_exact, on_kp[1].coinvariants_dim)


def _dense_corep_columns(h, v, w):
    """The coaction columns of a block pair v, w as dense tensors:
    2 v -> (z + zx) (x) v + (z - zx) (x) w and 2 w -> (zy - zxy) (x) v +
    (zy + zxy) (x) w."""
    half = h.ctx.scalar(Fraction(1, 2))
    z, zx, zy, zxy = (h.basis_element(lab) for lab in ("z", "zx", "zy", "zxy"))
    return (vscale(half, vadd(tensor_vec(vadd(z, zx), v),
                              tensor_vec(vsub(z, zx), w))),
            vscale(half, vadd(tensor_vec(vsub(zy, zxy), v),
                              tensor_vec(vadd(zy, zxy), w))))


def _dense_specialize(g, values, h):
    """The specialisation as it was written before, with every table entry
    substituted and the coaction built from dense tensors."""
    ctx, dim = g.ctx, g.dim
    table = [[[p.substitute(values).as_constant() for p in vec]
              for vec in row] for row in g.table]
    labels = {0: "1", 1: "x", 2: "y", 3: "xy"}
    cols = [tensor_vec(h.basis_element(labels[m]), basis_vector(ctx, dim, pos))
            for pos, m in enumerate(replay._BASE_MASKS[g.kind])]
    cols += [None] * (2 * g.n2)
    for i in range(1, g.n2 + 1):
        vi, wi = g.v_index(i), g.w_index(i)
        cols[vi], cols[wi] = _dense_corep_columns(
            h, basis_vector(ctx, dim, vi), basis_vector(ctx, dim, wi))
    return table, Mat.from_columns(ctx, cols)


def test_catalog_coactions_match_the_dense_build():
    kp = build_kp(CTX)
    cat = catalog(CTX)
    e = [basis_vector(CTX, 4, j) for j in range(4)]
    graded = {"k": (0,), "ga_x": (0, 1), "ga_y": (0, 2), "ga_xy": (0, 3),
              "ga_k": (0, 1, 2, 3), "kpsi": (0, 1, 2, 3)}
    for name, masks in graded.items():
        n = len(masks)
        want = [tensor_vec(kp.basis_element(g), basis_vector(CTX, n, j))
                for j, g in enumerate(masks)]
        assert cat[name].coaction == Mat.from_columns(CTX, want), name
    want = [tensor_vec(kp.unit, e[0]), tensor_vec(kp.basis_element("xy"), e[1]),
            *_dense_corep_columns(kp, e[2], e[3])]
    assert cat["a_i_xy"].coaction == Mat.from_columns(CTX, want)
    bimodule = build_bimodule_V("kpsi", CTX)
    assert bimodule.coaction == Mat.from_columns(CTX, _dense_corep_columns(
        bimodule.hopf, basis_vector(CTX, 2, 0), basis_vector(CTX, 2, 1)))


@pytest.mark.parametrize("kind", replay.KINDS)
def test_specialisations_match_the_dense_build(kind):
    kp = build_kp(CTX)
    rng = random.Random(kind)
    for n2 in (0, 1, 2):
        for signs in _sign_cases(kind, n2):
            g = generic_extension(kind, n2, signs or None, CTX)
            values = {name: CTX.scalar(rng.randint(-3, 3))
                      for name in g.unknowns + g.action_symbols}
            a = g.specialize(values)
            table, coaction = _dense_specialize(g, values, kp)
            assert [[list(vec) for vec in row] for row in a.table] == table
            assert a.coaction == coaction


# sha256 of the repr of every replay report, in replay_names() order, and of
# classify_n2_le_1(), over Q(i); any change to a verdict, a certificate or a
# constraint changes it
_REPORTS_SHA256 = ("a114474cb87a4bd57e62c5cc25c5e87d"
                   "42a2c5c91baa7dbf32d68cda11c9162d")


def test_every_report_matches_its_pinned_digest(monkeypatch):
    monkeypatch.setattr(replay, "_REPLAY_CACHE", {})
    text = "".join(repr(replay_lemma(name, CTX)) for name in replay_names())
    text += repr(classify_n2_le_1(CTX))
    assert hashlib.sha256(text.encode()).hexdigest() == _REPORTS_SHA256

# -- eliminate against the hand-written loop it replaced ------------------------


class _Row:
    __slots__ = ("poly", "prov")

    def __init__(self, poly, prov):
        self.poly = poly
        self.prov = prov


def _prov_add(a, factor, b):
    """``a + factor * b``, multiplier by multiplier; a multiplier that
    cancels is dropped."""
    out = dict(a)
    for idx, mult in b.items():
        old = out.get(idx)
        terms = {} if old is None else dict(old.terms)
        if len(factor.terms) == 1:
            _addmul(terms, factor.terms, mult.terms)
        else:
            _addmul(terms, (factor * mult).terms, None)
        if terms:
            out[idx] = _poly(factor.ctx, terms)
        elif old is not None:
            del out[idx]
    return out


def _prov_scale(a, factor):
    return {idx: factor * mult for idx, mult in a.items()}


def _reference_eliminate(constraints):
    """Row-reduce and substitute pins with a pivot scan of its own: each
    column, highest degree first, takes the first row in the given order
    that is not yet a pivot, and provenance is a dict of multipliers per
    row."""
    ctx = constraints[0].ctx
    one = MultiPoly.const(ctx, 1)
    rows = [_Row(p, {idx: one}) for idx, p in enumerate(constraints)
            if not p.is_zero()]
    pins, certs = {}, {}
    max_rounds = len({v for p in constraints for v in p.variables()}) + 2
    for _ in range(max_rounds):
        cols = sorted({m for r in rows for m in r.poly.terms if m != ()},
                      key=lambda m: (-sum(e for _, e in m), m))
        free = list(rows)
        for col in cols:
            pick = next((r for r in free if col in r.poly.terms), None)
            if pick is None:
                continue
            free.remove(pick)
            inv = MultiPoly.const(ctx, pick.poly.terms[col].inverse())
            pick.poly = pick.poly * inv
            pick.prov = _prov_scale(pick.prov, inv)
            for r in rows:
                if r is pick or col not in r.poly.terms:
                    continue
                c = MultiPoly.const(ctx, -r.poly.terms[col])
                terms = dict(r.poly.terms)
                _addmul(terms, c.terms, pick.poly.terms)
                r.poly = _poly(ctx, terms)
                r.prov = _prov_add(r.prov, c, pick.prov)
        rows = [r for r in rows if not r.poly.is_zero()]
        new_pins = []
        for r in rows:
            monos = list(r.poly.terms)
            if monos == [()]:
                return Elimination(pins, certs, [r.poly for r in rows],
                                   r.prov, r.poly.terms[()])
            nonconst = [m for m in monos if m != ()]
            if len(nonconst) != 1:
                continue
            mono = nonconst[0]
            if len(mono) != 1 or mono[0][1] != 1:
                continue
            name = mono[0][0]
            if name in pins or any(name == n for n, _, _ in new_pins):
                continue
            c1 = r.poly.terms[mono]
            value = -r.poly.terms.get((), ctx.zero()) / c1
            inv = MultiPoly.const(ctx, c1.inverse())
            new_pins.append((name, value, _prov_scale(r.prov, inv)))
        if not new_pins:
            return Elimination(pins, certs, [r.poly for r in rows],
                               None, None)
        for name, value, prov in new_pins:
            pins[name] = value
            certs[name] = prov
            next_rows = []
            for r in rows:
                if name not in r.poly.variables():
                    next_rows.append(r)
                    continue
                quot = _poly(ctx, _linear_quotient(r.poly.terms, name, value))
                r.poly = r.poly.substitute({name: value})
                r.prov = _prov_add(r.prov, -quot, prov)
                if not r.poly.is_zero():
                    next_rows.append(r)
            rows = next_rows
    raise HopfExactError("elimination did not stabilize")


def _check_against_reference(constraints):
    """``eliminate`` finds the reference's pins, residual and contradiction,
    and each of its certificates checks again.

    At a contradiction the residual is the constant row alone; the
    reference's is the system as it stood when the constant row appeared,
    which depends on the pivot rows chosen, so it is not compared."""
    got = replay.eliminate(constraints)
    want = _reference_eliminate(constraints)
    ctx = constraints[0].ctx
    assert got.pins == want.pins
    assert (got.contradiction is None) == (want.contradiction is None)
    if got.contradiction is None:
        assert set(got.residual) == set(want.residual)
    else:
        assert got.residual == [MultiPoly.const(ctx, got.contradiction_value)]
        assert replay.verify_combination(
            constraints, got.contradiction,
            MultiPoly.const(ctx, got.contradiction_value))
    for name, value in got.pins.items():
        assert replay.verify_combination(
            constraints, got.certificates[name],
            MultiPoly.var(ctx, name) - value)
    return got


@pytest.mark.parametrize("name", replay_names())
def test_eliminate_matches_the_reference_on_replay_cases(name):
    for case in replay_lemma(name, CTX).cases:
        constraints = list(case.constraints)
        if case.report is not None and case.report.vacuous:
            # the replay's own elimination met the contradiction: the report
            # holds its pins, and its certificates are checked above
            want = _reference_eliminate(constraints)
            assert want.contradiction is not None
            assert case.report.pins == want.pins
        else:
            _check_against_reference(constraints)


def _seeded_system(seed):
    """A small system over Q(i) that vanishes at a seeded point.

    The k-th variable enters multiplied by powers of the earlier ones, so it
    is pinned only after they are substituted, and the certificates of the
    later pins carry polynomial multipliers.  A multiple of one constraint by
    a variable is added, so that rows share monomials.  Seeds 1 mod 3 add a
    row that contradicts the value of the last variable, and seeds 2 mod 3
    drop the row of the second one, which leaves a residual."""
    rng = random.Random(seed)

    def coeff():
        while True:
            c = CTX.element([rng.randint(-2, 2), rng.randint(-2, 2)])
            if not c.is_zero():
                return c

    names = ["a", "b", "c", "d"]
    x = {n: MultiPoly.var(CTX, n) for n in names}
    point = {n: coeff() for n in names}
    polys = []
    for k, name in enumerate(names):
        poly = MultiPoly.const(CTX, coeff()) * x[name]
        for m in rng.sample(names[:k], rng.randint(0, k)):
            poly = poly * x[m] ** rng.randint(1, 2)
        for m in rng.sample(names[:k], min(k, rng.randint(0, 2))):
            poly = poly + MultiPoly.const(CTX, coeff()) * x[m] ** rng.randint(1, 2)
        polys.append(poly - poly.substitute(point))
    if seed % 3 == 2:
        del polys[1]
    polys.append(x[rng.choice(names)] * polys[rng.randrange(len(polys))])
    rng.shuffle(polys)
    if seed % 3 == 1:
        polys.append(x["d"] - point["d"] - 1)
    return polys


@pytest.mark.parametrize("seed", range(24))
def test_eliminate_matches_the_reference_on_seeded_systems(seed):
    constraints = _seeded_system(seed)
    got = _check_against_reference(constraints)
    assert (got.contradiction is not None) == (seed % 3 == 1)


def test_classification_of_at_most_one_block():
    families = classify_n2_le_1(CTX)
    shape = {(f.kind, f.n2) for f in families}
    assert shape == {(k, 0) for k in replay.KINDS} | {("ga_xy", 1)}
    small = {k for k, v in catalog(CTX).items() if v.dim < 8}
    assert {f.catalog_match for f in families} == small


def test_a_scaled_form_of_a_i_xy_is_another_algebra_over_q_i():
    # the four block products of a_i_xy times c = 1 + i: exact over Q(i),
    # merged with a_i_xy by the scale normalization, and isomorphic to it
    # only once the square root of c is adjoined
    a = catalog(CTX)["a_i_xy"]
    c = CTX.one() + CTX.i()
    table = [list(row) for row in a.table]
    for i in (2, 3):
        for j in (2, 3):
            table[i][j] = vscale(c, table[i][j])
    form = ComoduleAlgebra(a.hopf, a.labels, a.unit, table, a.coaction)
    assert check_comodule_algebra(form) == []
    assert check_exactness(form).am_exact
    assert colinear_iso_search(form, a) is None
    q8 = FieldContext(8)
    for ctx, found in ((q8, False), (adjoin_sqrt(q8, c.coerce(q8)), True)):
        iso = colinear_iso_search(rebase_comodule_algebra(form, ctx),
                                  rebase_comodule_algebra(a, ctx))
        assert (iso is not None) == found, ctx


def test_the_full_extension_at_alpha_11_three_is_exact_and_not_kp():
    # the paper's signs with alpha_11 = 3 in place of 1: one solution, an
    # exact algebra that the normalization alpha_11 = 1 merges with kp
    system = replay._system("ga_K", 2, ((1, 1), (-1, -1)), CTX)
    hyps = [MultiPoly.var(CTX, "alpha_11") - 3,
            MultiPoly.var(CTX, "alpha_12") + 1]
    solutions = concrete_solutions(system.constraints + hyps, CTX)
    assert len(solutions) == 1
    algebra = system.g.specialize(solutions[0])
    assert check_comodule_algebra(algebra) == []
    assert check_exactness(algebra).am_exact
    assert colinear_iso_search(algebra, build_kp(CTX)) is None


_ONE_BLOCK = [((1, 1),), ((1, -1),), ((-1, 1),), ((-1, -1),)]


def test_classification_runs_every_one_block_sign_case(monkeypatch):
    monkeypatch.setattr(replay, "_REPLAY_CACHE", {})
    calls = []
    real = replay.generic_extension

    def recorder(kind, n2, signs=None, ctx=None):
        calls.append((kind, n2, signs))
        return real(kind, n2, signs, ctx)

    monkeypatch.setattr(replay, "generic_extension", recorder)
    classify_n2_le_1(CTX)
    one_block = [(kind, signs) for kind, n2, signs in calls if n2 == 1]
    assert one_block == ([(kind, None)
                          for kind in ("trivial", "ga_x", "ga_y", "ga_xy")]
                         + [("ga_K", s) for s in _ONE_BLOCK]
                         + [("kpsi", s) for s in _ONE_BLOCK])


@pytest.mark.parametrize("kind", replay.KINDS)
def test_sign_cases_of_zero_one_and_two_blocks(kind):
    cases = [list(replay._sign_cases(kind, n2)) for n2 in (0, 1, 2)]
    if kind not in ("ga_K", "kpsi"):
        assert cases == [[None], [None], [None]]
        return
    assert cases[0] == [()]
    assert cases[1] == [((1, 1),), ((1, -1),), ((-1, 1),), ((-1, -1),)]
    assert cases[2] == [
        ((1, 1), (1, 1)), ((1, 1), (1, -1)), ((1, 1), (-1, 1)),
        ((1, 1), (-1, -1)), ((1, -1), (1, 1)), ((1, -1), (1, -1)),
        ((1, -1), (-1, 1)), ((1, -1), (-1, -1)), ((-1, 1), (1, 1)),
        ((-1, 1), (1, -1)), ((-1, 1), (-1, 1)), ((-1, 1), (-1, -1)),
        ((-1, -1), (1, 1)), ((-1, -1), (1, -1)), ((-1, -1), (-1, 1)),
        ((-1, -1), (-1, -1))]


def _flip_pattern(monkeypatch, key, s, t):
    """Derive the block patterns with cell (s, t) of ``key`` negated, and
    empty the replay cache, so that the next generic extension reads them."""
    real = replay.block_patterns

    def flipped(ctx=None):
        patterns = real(ctx)
        cells = [list(row) for row in patterns[key]]
        cells[s][t] = -cells[s][t]
        return {**patterns, key: tuple(map(tuple, cells))}

    monkeypatch.setattr(replay, "block_patterns", flipped)
    monkeypatch.setattr(replay, "_REPLAY_CACHE", {})


def _legs(s, t):
    return "vw"[s] + "vw"[t]


# flipping the sign of the unit or the e_xy component of one product of two
# block legs breaks the classification; e_x and e_y are not seen at n2 <= 1
_FLIPS = [(s, t, g) for s in (0, 1) for t in (0, 1) for g in (0, 3)]


@pytest.mark.parametrize("s,t,g", _FLIPS,
                         ids=[f"{_legs(s, t)}-{g}" for s, t, g in _FLIPS])
def test_flipped_component_sign_is_caught(monkeypatch, s, t, g):
    _flip_pattern(monkeypatch, ("p", g), s, t)
    with pytest.raises(HopfExactError, match="classification shape"):
        classify_n2_le_1(CTX)


# flipping the e_x component of v_i w_j or the e_y component of w_i v_j
# leaves the classification and the collapse lemmas standing, but makes the
# normalised system of the full extension contradictory; so does flipping
# the w-side sign of e_x acting on the left (w -> v)
_PIN_FLIPS = [(("p", 1), 0, 1), (("p", 2), 1, 0), (("l", 1), 1, 0)]


def _flip_id(key, s, t):
    side, g = key
    return f"{_legs(s, t)}-{g}" if side == "p" else f"{side}{g}-{_legs(s, t)}"


@pytest.mark.parametrize("key,s,t", _PIN_FLIPS,
                         ids=[_flip_id(*flip) for flip in _PIN_FLIPS])
def test_flipped_component_sign_breaks_the_full_extension(monkeypatch, key,
                                                          s, t):
    _flip_pattern(monkeypatch, key, s, t)
    assert not replay_lemma("group-full-extension", CTX).passed


def test_a_cache_reset_drops_the_shared_systems(monkeypatch):
    monkeypatch.setattr(replay, "_REPLAY_CACHE", {})
    replay_lemma("group-null-product", CTX)
    # the full extension's first sign case is one of the warmed systems, and
    # the block patterns are kept beside it
    assert ("ga_K", 2, ((1, 1), (-1, -1)), CTX) in replay._REPLAY_CACHE
    assert ("block patterns", CTX) in replay._REPLAY_CACHE
    _flip_pattern(monkeypatch, *_PIN_FLIPS[0])
    assert not replay_lemma("group-full-extension", CTX).passed


# The generic extension as it was written by hand before its sign patterns
# were derived from the block coaction: the grouplike-component signs of the
# four products of block legs, the extra constant of each two-dimensional
# base, and one action branch per kind.
_HAND_COMPONENT_SIGNS = {
    ("v", "v"): (1, 1, 1, 1),
    ("v", "w"): (1, -1, 1, -1),
    ("w", "v"): (1, 1, -1, -1),
    ("w", "w"): (-1, 1, 1, -1),
}
_HAND_EXTRA_CONSTANT = {"trivial": None, "ga_x": "beta", "ga_y": "gamma",
                        "ga_xy": "delta"}


def _hand_written_extension(kind, n2, signs, ctx):
    """Labels, table, unknowns and action symbols of the hand-written
    builder."""
    masks = replay._BASE_MASKS[kind]
    base_dim = len(masks)
    dim = base_dim + 2 * n2
    labels = tuple(replay._MASK_LABEL[m] for m in masks) \
        + tuple(f"v{i}" for i in range(1, n2 + 1)) \
        + tuple(f"w{i}" for i in range(1, n2 + 1))
    zero, one = MultiPoly(ctx, {}), MultiPoly.const(ctx, 1)

    def const(x):
        return MultiPoly.const(ctx, x)

    def unit_vec(idx, coeff):
        vec = [zero] * dim
        vec[idx] = coeff
        return vec

    table = [[None] * dim for _ in range(dim)]
    pos_of = {m: p for p, m in enumerate(masks)}
    for p, gm in enumerate(masks):
        for q, hm in enumerate(masks):
            table[p][q] = unit_vec(pos_of[gm ^ hm],
                                   const(replay._base_coeff(kind, gm, hm)))
    unknowns, action_symbols = [], []
    rng = range(1, n2 + 1)

    def vi(i):
        return base_dim + (i - 1)

    def wi(i):
        return base_dim + n2 + (i - 1)

    for i in rng:
        for idx in (vi(i), wi(i)):
            table[0][idx] = unit_vec(idx, one)
            table[idx][0] = unit_vec(idx, one)

    def matrix_symbols(prefix):
        out = {}
        for i in rng:
            for m in rng:
                action_symbols.append(f"{prefix}_{i}{m}")
                out[(i, m)] = MultiPoly.var(ctx, f"{prefix}_{i}{m}")
        return out

    def span(coeffs, which):
        vec = [zero] * dim
        for m, c in coeffs.items():
            vec[(vi if which == "v" else wi)(m)] = c
        return vec

    if kind in ("ga_K", "kpsi"):
        lx, ry = matrix_symbols("lx"), matrix_symbols("ry")
        a = {i: signs[i - 1][0] for i in rng}
        b = {i: signs[i - 1][1] for i in rng}
        px, py, pxy = pos_of[1], pos_of[2], pos_of[3]
        for i in rng:
            table[px][vi(i)] = span({m: lx[(i, m)] for m in rng}, "w")
            table[px][wi(i)] = span({m: lx[(i, m)] for m in rng}, "v")
            table[vi(i)][px] = unit_vec(vi(i), const(a[i]))
            table[wi(i)][px] = unit_vec(wi(i), const(-a[i]))
            table[py][vi(i)] = unit_vec(vi(i), const(b[i]))
            table[py][wi(i)] = unit_vec(wi(i), const(-b[i]))
            table[vi(i)][py] = span({m: ry[(i, m)] for m in rng}, "w")
            table[wi(i)][py] = span({m: ry[(i, m)] for m in rng}, "v")
            table[pxy][vi(i)] = span(
                {m: const(b[i]) * lx[(i, m)] for m in rng}, "w")
            table[pxy][wi(i)] = span(
                {m: const(-b[i]) * lx[(i, m)] for m in rng}, "v")
            table[vi(i)][pxy] = span(
                {m: const(a[i]) * ry[(i, m)] for m in rng}, "w")
            table[wi(i)][pxy] = span(
                {m: const(-a[i]) * ry[(i, m)] for m in rng}, "v")
    elif kind == "ga_x":
        lx, rx = matrix_symbols("lx"), matrix_symbols("rx")
        px = pos_of[1]
        for i in rng:
            table[px][vi(i)] = span({m: lx[(i, m)] for m in rng}, "w")
            table[px][wi(i)] = span({m: lx[(i, m)] for m in rng}, "v")
            table[vi(i)][px] = span({m: rx[(i, m)] for m in rng}, "v")
            table[wi(i)][px] = span({m: -rx[(i, m)] for m in rng}, "w")
    elif kind == "ga_y":
        ly, ry = matrix_symbols("ly"), matrix_symbols("ry")
        py = pos_of[2]
        for i in rng:
            table[py][vi(i)] = span({m: ly[(i, m)] for m in rng}, "v")
            table[py][wi(i)] = span({m: -ly[(i, m)] for m in rng}, "w")
            table[vi(i)][py] = span({m: ry[(i, m)] for m in rng}, "w")
            table[wi(i)][py] = span({m: ry[(i, m)] for m in rng}, "v")
    elif kind == "ga_xy":
        lxy, rxy = matrix_symbols("lxy"), matrix_symbols("rxy")
        pxy = pos_of[3]
        for i in rng:
            table[pxy][vi(i)] = span({m: lxy[(i, m)] for m in rng}, "w")
            table[pxy][wi(i)] = span({m: -lxy[(i, m)] for m in rng}, "v")
            table[vi(i)][pxy] = span({m: rxy[(i, m)] for m in rng}, "w")
            table[wi(i)][pxy] = span({m: -rxy[(i, m)] for m in rng}, "v")

    extra = _HAND_EXTRA_CONSTANT.get(kind)
    for i in rng:
        for j in rng:
            alpha = MultiPoly.var(ctx, f"alpha_{i}{j}")
            unknowns.append(f"alpha_{i}{j}")
            comps = [zero, zero, zero, zero]
            comps[0] = alpha
            if kind in ("ga_K", "kpsi"):
                aj = const(signs[j - 1][0])
                bi = const(signs[i - 1][1])
                eps = const(-1) if kind == "kpsi" else one
                comps[1] = aj * alpha
                comps[2] = bi * alpha
                comps[3] = eps * aj * bi * alpha
            elif extra is not None:
                unknowns.append(f"{extra}_{i}{j}")
                slot = {"beta": 1, "gamma": 2, "delta": 3}[extra]
                comps[slot] = MultiPoly.var(ctx, f"{extra}_{i}{j}")
            for (s, si), (t, tj) in itertools.product(
                    (("v", vi(i)), ("w", wi(i))),
                    (("v", vi(j)), ("w", wi(j)))):
                sgn = _HAND_COMPONENT_SIGNS[(s, t)]
                vec = [zero] * dim
                for mask in masks:
                    if not comps[mask].is_zero():
                        vec[pos_of[mask]] = const(sgn[mask]) * comps[mask]
                table[si][tj] = vec
    return labels, table, tuple(unknowns), tuple(action_symbols)


@pytest.mark.parametrize("ctx", [CTX, FieldContext(8)], ids=["Q(i)", "Q(z8)"])
@pytest.mark.parametrize("kind", replay.KINDS)
def test_the_derived_extension_is_the_hand_written_one(kind, ctx):
    count = 0
    for n2 in range(4):
        for signs in _sign_cases(kind, n2):
            signs = signs or None
            g = generic_extension(kind, n2, signs, ctx)
            labels, table, unknowns, symbols = _hand_written_extension(
                kind, n2, signs, ctx)
            assert (g.labels, g.unknowns, g.action_symbols) \
                == (labels, unknowns, symbols)
            assert [[_terms(vec) for vec in row] for row in g.table] \
                == [[_terms(vec) for vec in row] for row in table]
            count += 1
    assert count == (85 if kind in ("ga_K", "kpsi") else 4)


def _coaction_is_multiplicative(kind):
    """Whether a seeded specialisation of every generic extension of
    ``kind`` with one or two blocks has a multiplicative coaction."""
    rng = random.Random(kind)
    for n2 in (1, 2):
        for signs in _sign_cases(kind, n2):
            g = generic_extension(kind, n2, signs, CTX)
            a = g.specialize({name: rng.randint(1, 9) for name
                              in g.unknowns + g.action_symbols})
            if not multiplicative_into_tensor(a.coaction, a, a.hopf, a, None):
                return False
    return True


@pytest.mark.parametrize("kind", replay.KINDS)
def test_every_generic_extension_has_a_colinear_product(kind):
    assert _coaction_is_multiplicative(kind)


# the w-side sign of every pattern that a generic extension reads: the
# actions of e_x, e_y and e_xy on either side and the block products
_PATTERN_KEYS = [(side, g) for side in "lr" for g in (1, 2, 3)] \
    + [("p", g) for g in range(4)]


@pytest.mark.parametrize("key", _PATTERN_KEYS,
                         ids=[f"{side}{g}" for side, g in _PATTERN_KEYS])
def test_a_flipped_pattern_breaks_the_colinearity(monkeypatch, key):
    w_image = block_patterns(CTX)[key][1]
    _flip_pattern(monkeypatch, key, 1, w_image.index(next(filter(None,
                                                                w_image))))
    assert not all(_coaction_is_multiplicative(kind)
                   for kind in replay.KINDS)


def test_the_block_patterns_are_derived_once_per_run(monkeypatch):
    calls = []
    real = replay.block_patterns

    def counted(ctx=None):
        calls.append(ctx)
        return real(ctx)

    monkeypatch.setattr(replay, "block_patterns", counted)
    monkeypatch.setattr(replay, "_REPLAY_CACHE", {})
    for name in ("plain-base-collapse", "diagonal-base-pair-bound"):
        replay_lemma(name, CTX)
    assert calls == [CTX]


def _kp_builds(monkeypatch) -> list:
    """The contexts of the kp structures built from here on, starting from
    an empty cache of kp."""
    builds = []
    real = constructions.Hopf

    def counted(ctx, labels, *rest):
        if tuple(labels) == constructions._KP_LABELS:
            builds.append(ctx)
        return real(ctx, labels, *rest)

    monkeypatch.setattr(constructions, "Hopf", counted)
    monkeypatch.setattr(constructions, "_KP", {})
    return builds


def test_the_block_patterns_use_the_reference_kp(monkeypatch):
    kp = build_kp(CTX)
    builds = _kp_builds(monkeypatch)
    fusion_fingerprint(kp)
    patterns = block_patterns(CTX)
    # this kp is not the cached one, so the fingerprint's kp check
    # builds the kp of the context, and the patterns are solved over it
    assert builds == [CTX]
    assert patterns == block_patterns(FieldContext(4))
    assert {c for table in patterns.values() for row in table
            for c in row} == {-1, 0, 1}
    # the cached kp passes the structural check with no kp built
    fusion_fingerprint(build_kp(FieldContext(4)))
    assert builds == [CTX]


def test_one_kp_per_context_over_a_kp_dim8_and_a_replay_symbolic_pass(
        monkeypatch):
    builds = _kp_builds(monkeypatch)
    monkeypatch.setattr(replay, "_REPLAY_CACHE", {})
    # the verdicts of a kp-dim8 pass, over the catalog of a fresh context;
    # the replay makes a context of its own
    kp = catalog(FieldContext(4))["kp"]
    assert check_hopf(kp.hopf) == [] and check_comodule_algebra(kp) == []
    assert check_exactness(kp).am_exact
    fusion_fingerprint(kp)
    assert colinear_iso_search(kp, kp) is not None
    assert replay_lemma("group-full-extension").passed
    assert builds == [CTX]
    # a replay-symbolic pass, from a run of its own
    builds.clear()
    monkeypatch.setattr(constructions, "_KP", {})
    monkeypatch.setattr(replay, "_REPLAY_CACHE", {})
    catalog(FieldContext(4))
    for name in replay_names():
        if name != "group-full-extension":
            assert replay_lemma(name).passed
    classify_n2_le_1()
    assert builds == [CTX]


def test_lights_test_and_the_generators_run_once_over_a_kp_dim8_pass(
        monkeypatch):
    monkeypatch.setattr(constructions, "_KP", {})
    monkeypatch.setattr(replay, "_REPLAY_CACHE", {})
    kp = catalog(CTX)["kp"]
    # each computation on an algebra with kp's table, not read from one
    # stored before
    runs = []
    real_associative, real_generators = algebra.is_associative, \
        Algebra.generators

    def is_associative(alg):
        if alg._associative is None and alg.table == kp.table:
            runs.append("is_associative")
        return real_associative(alg)

    def generators(self):
        if self._generators is None and self.table == kp.table:
            runs.append("generators")
        return real_generators(self)

    for module in (algebra, comodule, morita):
        monkeypatch.setattr(module, "is_associative", is_associative)
    monkeypatch.setattr(Algebra, "generators", generators)
    # the six ops of a kp-dim8 pass
    assert check_hopf(kp.hopf) == [] and check_comodule_algebra(kp) == []
    assert check_exactness(kp).am_exact
    fusion_fingerprint(kp)
    assert colinear_iso_search(kp, kp) is not None
    assert replay_lemma("group-full-extension").passed
    assert sorted(runs) == ["generators", "is_associative"]


def test_the_shared_hopf_laws_run_once_on_kps_coproduct_over_a_kp_dim8_pass(
        monkeypatch):
    monkeypatch.setattr(constructions, "_KP", {})
    monkeypatch.setattr(replay, "_REPLAY_CACHE", {})
    kp = catalog(CTX)["kp"]
    counit = Mat(CTX, [kp.counit])
    # the left sides of coassociativity, (Delta (x) id) Delta, and of the
    # left counit law, (counit (x) id) Delta, and the multiplicativity of
    # Delta, each on a coproduct equal to kp's
    runs = []
    real_kron_matmul = linalg.kron_matmul
    real_multiplicative = algebra.multiplicative_into_tensor

    def kron_matmul(a, b, m):
        if b is None and m == kp.comult:
            if a == kp.comult:
                runs.append("coassociativity")
            elif a == counit:
                runs.append("counit")
        return real_kron_matmul(a, b, m)

    def multiplicative_into_tensor(phi, *args):
        if phi == kp.comult:
            runs.append("multiplicative")
        return real_multiplicative(phi, *args)

    for module in (algebra, comodule, hopf, morita):
        for name, spy in (("kron_matmul", kron_matmul),
                          ("multiplicative_into_tensor",
                           multiplicative_into_tensor)):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, spy)
    # the six ops of a kp-dim8 pass
    assert check_hopf(kp.hopf) == [] and check_comodule_algebra(kp) == []
    assert check_exactness(kp).am_exact
    fusion_fingerprint(kp)
    assert colinear_iso_search(kp, kp) is not None
    assert replay_lemma("group-full-extension").passed
    assert sorted(runs) == ["coassociativity", "counit", "multiplicative"]


def test_the_full_extension_reads_the_exactness_verdict_of_the_pass(
        monkeypatch):
    monkeypatch.setattr(constructions, "_KP", {})
    monkeypatch.setattr(replay, "_REPLAY_CACHE", {})
    closures = []
    real = algebra.generated_operator_algebra

    def counted(gens, *args, **kwargs):
        closures.append(len(gens))
        return real(gens, *args, **kwargs)

    for module in (algebra, exactness, morita, replay):
        if hasattr(module, "generated_operator_algebra"):
            monkeypatch.setattr(module, "generated_operator_algebra", counted)
    kp = catalog(CTX)["kp"]
    assert check_exactness(kp).am_exact
    assert replay_lemma("group-full-extension").passed
    # the replay's kp is the catalog's, whose verdict is already decided
    assert closures == [16]


# flipping any one entry of the twisted base's cocycle makes the base itself
# non-associative: every replay over it and the classification must refuse
# rather than pass each case vacuously on the base's own contradiction
@pytest.mark.parametrize("pair", sorted(PSI_STANDARD),
                         ids=[f"{g}{h}" for g, h in sorted(PSI_STANDARD)])
def test_flipped_cocycle_entry_is_refused(monkeypatch, pair):
    monkeypatch.setitem(PSI_STANDARD, pair, -PSI_STANDARD[pair])
    monkeypatch.setattr(replay, "_REPLAY_CACHE", {})
    for name in ("twisted-null-product", "twisted-no-extension"):
        with pytest.raises(HopfExactError, match="'kpsi' is not associative"):
            replay_lemma(name, CTX)
    with pytest.raises(HopfExactError, match="'kpsi' is not associative"):
        classify_n2_le_1(CTX)
