"""Cyclotomic rationals and group algebra idempotents, all exact."""

from fractions import Fraction

import pytest

from deodhar.errors import ConfigError, PreconditionError

from cyclotomic import (
    CyclotomicRational,
    IdempotentReport,
    all_linear_characters,
    e_psi_check,
    linear_character,
    unitriangular_group,
)


def test_zeta_relations():
    z3 = CyclotomicRational.zeta(3)
    one = CyclotomicRational.one(3)
    assert (z3 * z3 * z3 - one).is_zero
    assert (one + z3 + z3 * z3).is_zero
    z2 = CyclotomicRational.zeta(2)
    assert z2.coeffs == (Fraction(-1),)
    assert (z2 * z2 - CyclotomicRational.one(2)).is_zero


def test_cyclotomic_inverse():
    samples = [
        CyclotomicRational.from_rational(3, Fraction(3, 7)),
        CyclotomicRational.zeta(3),
        CyclotomicRational.one(3) + CyclotomicRational.zeta(3).scale(2),
        CyclotomicRational.from_rational(2, Fraction(-5, 3)),
    ]
    for x in samples:
        assert (x * x.inverse() - CyclotomicRational.one(x.p)).is_zero
    with pytest.raises(ZeroDivisionError):
        CyclotomicRational.zero(3).inverse()


def test_unsupported_p():
    with pytest.raises(ConfigError):
        CyclotomicRational.zeta(5)


def test_group_orders_and_derived_subgroups():
    u22 = unitriangular_group(2, 2)
    u23 = unitriangular_group(2, 3)
    u32 = unitriangular_group(3, 2)
    assert (u22.order, u23.order, u32.order) == (2, 3, 8)
    assert u22.derived_subgroup() == {u22.identity}
    assert u23.derived_subgroup() == {u23.identity}
    derived = u32.derived_subgroup()
    assert len(derived) == 2  # the centre, the long-root subgroup
    assert u32.identity in derived
    with pytest.raises(ConfigError):
        unitriangular_group(4, 2)


def test_group_laws():
    g = unitriangular_group(3, 2)
    for a in g.elements:
        assert g.mul(a, g.identity) == a
        assert g.mul(a, g.inv(a)) == g.identity
        for b in g.elements:
            for c in g.elements:
                assert g.mul(a, g.mul(b, c)) == g.mul(g.mul(a, b), c)


def test_characters_are_homomorphisms_trivial_on_derived():
    for n, p in ((2, 2), (2, 3), (3, 2)):
        group = unitriangular_group(n, p)
        for mult in all_linear_characters(group):
            psi = linear_character(group, mult)
            for a in group.elements:
                for b in group.elements:
                    assert (
                        psi[group.mul(a, b)] - psi[a] * psi[b]
                    ).is_zero
            for d in group.derived_subgroup():
                assert (psi[d] - CyclotomicRational.one(p)).is_zero


def test_e_psi_gl2_f2_explicit():
    group = unitriangular_group(2, 2)
    psi = linear_character(group, (1,))
    u = (1,)
    # e_psi = (1 - u)/2 in the group algebra
    half = Fraction(1, 2)
    e_coeffs = {
        group.identity: CyclotomicRational.from_rational(2, half),
        u: CyclotomicRational.from_rational(2, -half),
    }
    inv_order = Fraction(1, group.order)
    for g in group.elements:
        expected = e_coeffs[g]
        actual = psi[group.inv(g)].scale(inv_order)
        assert (actual - expected).is_zero
    report = e_psi_check(group, psi)
    assert report == IdempotentReport(2, True, True, 1)


@pytest.mark.parametrize("n,p", [(2, 2), (2, 3), (3, 2)])
def test_e_psi_all_characters(n, p):
    group = unitriangular_group(n, p)
    for mult in all_linear_characters(group):
        psi = linear_character(group, mult)
        report = e_psi_check(group, psi)
        assert report.is_idempotent
        assert report.is_central
        assert report.image_rank == 1


def test_e_psi_rejects_character_nontrivial_on_derived():
    group = unitriangular_group(3, 2)
    # value map sensitive to the central entry: not trivial on D(U)
    z = CyclotomicRational.zeta(2)
    one = CyclotomicRational.one(2)
    fake = {g: (z if g[1] else one) for g in group.elements}
    # g = (a, c, b) entries in row-major strict upper triangle: (0,1),(0,2),(1,2)
    assert any(fake[d].coeffs[0] == -1 for d in group.derived_subgroup())
    with pytest.raises(PreconditionError):
        e_psi_check(group, fake)
