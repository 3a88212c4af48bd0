import dataclasses

import pytest

from hopfexact import exactness
from hopfexact.comodule import coinvariants
from hopfexact.constructions import (
    build_matrix2_trivial,
    catalog,
    comodule_direct_sum,
    with_trivial_coaction,
)
from hopfexact.errors import BadWitness, HopfExactError
from hopfexact.exactness import check_exactness, costable_operators
from hopfexact.field import FieldContext
from hopfexact.linalg import Subspace

QI = FieldContext(4)
CATALOG = catalog(QI)


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_every_catalog_entry_is_exact(name):
    verdict = check_exactness(CATALOG[name])
    assert verdict.right_h_simple
    assert verdict.coinvariants_dim == 1
    assert verdict.am_exact
    assert verdict.method == "burnside"
    assert verdict.witness is None


def test_an_equal_table_with_another_coaction_gets_its_own_verdict():
    ga_k = CATALOG["ga_k"]
    trivial = with_trivial_coaction(ga_k.hopf, ga_k)
    assert trivial.table == ga_k.table
    assert check_exactness(ga_k).am_exact
    # every element is coinvariant under the trivial coaction, so it is not
    # exact; the standard seeds find no witness, and the refusal is not
    # stored, so each call refuses again, and never with ga_k's verdict
    assert coinvariants(trivial).dim == 4
    for _ in range(2):
        with pytest.raises(HopfExactError, match="cannot certify"):
            check_exactness(trivial)
    assert trivial._exactness is None
    assert check_exactness(ga_k).coinvariants_dim == 1


def test_the_verdict_is_stored_and_cannot_be_changed():
    a = comodule_direct_sum(CATALOG["ga_x"], CATALOG["ga_y"])
    verdict = check_exactness(a)
    assert check_exactness(a) is verdict
    with pytest.raises(dataclasses.FrozenInstanceError):
        verdict.am_exact = True
    assert not check_exactness(a).am_exact


def test_matrix_algebra_with_trivial_coaction_is_not_exact():
    a = build_matrix2_trivial(QI)
    verdict = check_exactness(a)
    assert not verdict.right_h_simple
    assert not verdict.am_exact
    assert verdict.method == "witness"
    assert 0 < verdict.witness.dim < a.dim
    # simple as an algebra, so the failure is purely comodule-theoretic
    assert verdict.coinvariants_dim == a.dim


def test_doubled_group_algebra_is_not_exact_with_verified_witness():
    a = comodule_direct_sum(CATALOG["ga_k"], CATALOG["ga_k"])
    verdict = check_exactness(a)
    assert not verdict.right_h_simple
    assert not verdict.am_exact
    assert verdict.coinvariants_dim == 2
    witness = verdict.witness
    assert witness is not None and 0 < witness.dim < a.dim
    assert witness.dim == 4
    ops = costable_operators(a)
    for v in witness.basis():
        for op in ops:
            assert witness.contains(op.apply(v))
    assert not witness.contains(a.unit)


def test_coinvariant_dimensions_match_verdicts():
    a = comodule_direct_sum(CATALOG["ga_x"], CATALOG["ga_x"])
    assert coinvariants(a).dim == 2
    verdict = check_exactness(a)
    assert verdict.coinvariants_dim == 2 and not verdict.am_exact


def test_non_costable_spin_is_refused(monkeypatch):
    a = comodule_direct_sum(CATALOG["ga_k"], CATALOG["ga_k"])

    def seed_line(ctx, ambient, seeds, operators):
        # the seed's line alone: proper, nonzero, not closed under the operators
        return Subspace.from_vectors(ctx, ambient, seeds)

    monkeypatch.setattr(exactness, "spin", seed_line)
    with pytest.raises(BadWitness):
        check_exactness(a)
