"""The symbolic classification replays: constraint harvesting, certified
eliminations, the n2 <= 1 classification and negative controls."""

import random
from types import SimpleNamespace

import pytest

from hopfexact import replay
from hopfexact.constructions import PSI_STANDARD, catalog
from hopfexact.errors import HopfExactError, NonlinearResidue
from hopfexact.field import FieldContext, adjoin_sqrt
from hopfexact.poly import (Elimination, MultiPoly, _addmul, _linear_quotient,
                            _poly)
from hopfexact.replay import (associativity_constraints, classify_n2_le_1,
                              forces_vanishing, generic_extension,
                              replay_lemma, replay_names)

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
    forced = forces_vanishing([x + y, y], ["x", "y"])
    assert forced and forced.verify([x + y, y]) and not forced.vacuous
    vacuous = forces_vanishing([x, x - one], ["y"])
    assert vacuous.vacuous and vacuous.verify([x, x - one])
    assert forces_vanishing([x - one], ["x"]).nonzero == ("x",)
    assert forces_vanishing([x + y], ["x"]).undecided == ("x",)
    with pytest.raises(NonlinearResidue):
        forces_vanishing([x * y + x], ["x"])


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
    # lx signed by e2 and ry by e1: the table check refuses exactly the
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
    monkeypatch.setattr(replay, "_CHARACTER_SLOT", {"lx": 1, "ry": 0})
    refused = [eps for rep, g, eps in members
               if replay._carried_system(rep, g, eps) is None]
    assert len(members) == 24
    assert sorted(refused) == sorted(eps for _, _, eps in members
                                     if eps[0] != eps[1])
    assert len(refused) == 16


@pytest.fixture(scope="module")
def refused_run():
    """Every replay under an action that leaves the symbols unsigned.  The
    table check refuses it on every member, so every system is built and
    eliminated directly, as without the orbit path.  Holds the reports'
    reprs by name, the replay cache, and the systems built, the
    eliminations run and the kp built by the replays."""
    run = SimpleNamespace(cache={}, built=[], eliminations=[], kp=[])
    real_constraints, real_eliminate, real_kp = (
        replay.associativity_constraints, replay.eliminate, replay.build_kp)

    def constraints(g):
        if g.n2 == 2:
            run.built.append((g.kind, g.signs))
        return real_constraints(g)

    def eliminate(rows):
        run.eliminations.append(len(rows))
        return real_eliminate(rows)

    def build_kp(ctx=None):
        run.kp.append(ctx)
        return real_kp(ctx)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(replay, "_REPLAY_CACHE", run.cache)
        mp.setattr(replay, "_CHARACTER_SLOT", {})
        mp.setattr(replay, "associativity_constraints", constraints)
        mp.setattr(replay, "eliminate", eliminate)
        mp.setattr(replay, "build_kp", build_kp)
        run.reports = {name: repr(replay_lemma(name, CTX))
                       for name in replay_names()}
    return run


def test_a_refused_action_builds_every_system_directly(refused_run):
    assert len(refused_run.built) == len(set(refused_run.built)) == 36
    # the 44 of the vanishing replays and the full extension's two
    assert len(refused_run.eliminations) == 46
    assert _carried_count(refused_run.cache) == 0
    # the full extension specialises over its regular algebra's kp
    assert refused_run.kp == []


@pytest.mark.parametrize("name", replay_names())
def test_reports_match_the_direct_build(refused_run, name):
    assert repr(replay_lemma(name, CTX)) == refused_run.reports[name]


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
    direct_cache = refused_run.cache
    carried = 0
    for signs in replay._sign_cases(kind, 2):
        direct = direct_cache[(kind, 2, signs, CTX)]
        system = replay._system(kind, 2, signs, CTX)
        assert direct.source is None
        if replay._representative(kind, 2, signs) == signs:
            assert system.source is None
            continue
        carried += 1
        rep_signs = system.source[0].g.signs
        assert system.source[1] == _character(signs, rep_signs)
        # the same constraints, term order included
        assert _terms(system.constraints) == _terms(direct.constraints)
        for hyps in [()] + _VARIANTS * (rep_signs in _ALL_VARIANT_ORBITS):
            got, want = system.elimination(hyps), direct.elimination(hyps)
            assert list(got.pins.items()) == list(want.pins.items())
            assert got.certificates == want.certificates
            assert _terms(got.residual) == _terms(want.residual)
            assert got.contradiction == want.contradiction
            assert got.contradiction_value == want.contradiction_value
    assert carried == 12


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
    calls = []
    real = replay.build_kp

    def build_kp(ctx=None):
        calls.append(ctx)
        return real(ctx)

    monkeypatch.setattr(replay, "build_kp", build_kp)
    families = classify_n2_le_1(CTX)
    assert calls == [CTX]
    assert [(f.kind, f.n2, f.signs, f.catalog_match) for f in families] == [
        ("trivial", 0, None, "k"), ("ga_x", 0, None, "ga_x"),
        ("ga_y", 0, None, "ga_y"), ("ga_xy", 0, None, "ga_xy"),
        ("ga_xy", 1, None, "a_i_xy"), ("ga_K", 0, None, "ga_k"),
        ("kpsi", 0, None, "kpsi")]
    i = CTX.i()
    assert families[4].constants == {"alpha_11": CTX.one(), "rxy_11": -i,
                                     "lxy_11": -i, "delta_11": -i}
    assert all(f.algebra.hopf is families[0].algebra.hopf for f in families)


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


_ONE_BLOCK = [((1, 1),), ((1, -1),), ((-1, 1),), ((-1, -1),)]


def test_classification_runs_every_one_block_sign_case(monkeypatch):
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


# flipping slot 1 or slot 2 of one product's component signs leaves the
# classification and the collapse lemmas standing, but makes the normalised
# system of the full extension contradictory
_PIN_FLIPS = [(("v", "w"), 1), (("w", "v"), 2)]


@pytest.mark.parametrize("key,slot", _PIN_FLIPS,
                         ids=[f"{a}{b}-{s}" for (a, b), s in _PIN_FLIPS])
def test_flipped_component_sign_breaks_the_full_extension(monkeypatch, key,
                                                          slot):
    signs = list(replay._COMPONENT_SIGNS[key])
    signs[slot] = -signs[slot]
    monkeypatch.setitem(replay._COMPONENT_SIGNS, key, tuple(signs))
    monkeypatch.setattr(replay, "_REPLAY_CACHE", {})
    assert not replay_lemma("group-full-extension", CTX).passed


def test_a_cache_reset_drops_the_shared_systems(monkeypatch):
    monkeypatch.setattr(replay, "_REPLAY_CACHE", {})
    replay_lemma("group-null-product", CTX)
    # the full extension's first sign case is one of the warmed systems
    assert ("ga_K", 2, ((1, 1), (-1, -1)), CTX) in replay._REPLAY_CACHE
    key, slot = _PIN_FLIPS[0]
    signs = list(replay._COMPONENT_SIGNS[key])
    signs[slot] = -signs[slot]
    monkeypatch.setitem(replay._COMPONENT_SIGNS, key, tuple(signs))
    monkeypatch.setattr(replay, "_REPLAY_CACHE", {})
    assert not replay_lemma("group-full-extension", CTX).passed


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
