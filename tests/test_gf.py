"""Finite field tables: axioms checked exhaustively on small orders."""

import itertools

import pytest
from hypothesis import given, strategies as st

from deodhar import frobenius
from deodhar.errors import BudgetError, ConfigError
from deodhar.frobenius import xq_point_count, yqs_point_count
from deodhar.gf import _MODULUS, _difference_walk, _factor_prime_power, field
from deodhar.sweeps import xq_brute_count, xq_full_product_count

ALL_ORDERS = sorted(
    {2, 3, 5, 7} | set(_MODULUS.keys())
)
SMALL_ORDERS = [2, 3, 4, 5, 7, 8, 9, 16, 25, 27, 49]


@pytest.mark.parametrize("q", ALL_ORDERS)
def test_fields_construct(q):
    f = field(q)
    assert f.order == q
    assert f.char in (2, 3, 5, 7)
    # the generator really has full multiplicative order
    seen = set()
    x = 1
    for _ in range(q - 1):
        seen.add(x)
        x = f.mul(x, f.generator)
    assert len(seen) == q - 1


def test_bad_orders_rejected():
    with pytest.raises(ConfigError):
        field(11)
    with pytest.raises(ConfigError):
        field(1024)
    with pytest.raises(ConfigError):
        field(6)


@pytest.mark.parametrize("q", SMALL_ORDERS)
def test_field_axioms_exhaustive(q):
    f = field(q)
    els = list(f.elements())
    for a in els:
        assert f.add(a, 0) == a
        assert f.mul(a, 1) == a
        assert f.add(a, f.neg(a)) == 0
        if a != 0:
            assert f.mul(a, f.inv(a)) == 1
            assert f.mul(f.div(1, a), a) == 1
        # x^q = x
        assert f.pow(a, q) == a
    for a in els:
        for b in els:
            assert f.add(a, b) == f.add(b, a)
            assert f.mul(a, b) == f.mul(b, a)
    # spot associativity and distributivity on a grid
    grid = els[: min(len(els), 6)]
    for a in grid:
        for b in grid:
            for c in grid:
                assert f.mul(a, f.mul(b, c)) == f.mul(f.mul(a, b), c)
                assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))


@pytest.mark.parametrize("q", SMALL_ORDERS)
def test_frobenius_is_additive(q):
    f = field(q)
    for a in f.elements():
        for b in f.elements():
            assert f.frobenius(f.add(a, b)) == f.add(f.frobenius(a), f.frobenius(b))


def test_f4_explicit_table():
    f = field(4)
    # 2 encodes x, 3 encodes x+1, modulo x^2 + x + 1
    assert f.mul(2, 2) == 3
    assert f.mul(2, 3) == 1
    assert f.inv(2) == 3
    assert f.add(2, 3) == 1
    assert f.add(2, 2) == 0


def test_artin_schreier_image_f4():
    f = field(4)
    image = {f.sub(f.mul(c, c), c) for c in f.elements()}
    assert image == {0, 1}


@given(st.sampled_from([64, 81, 125, 128, 243, 256, 343, 512]), st.data())
def test_axioms_sampled_large(q, data):
    f = field(q)
    a = data.draw(st.integers(0, q - 1))
    b = data.draw(st.integers(0, q - 1))
    c = data.draw(st.integers(0, q - 1))
    assert f.add(a, b) == f.add(b, a)
    assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
    assert f.mul(a, f.mul(b, c)) == f.mul(f.mul(a, b), c)
    if a != 0:
        assert f.mul(a, f.inv(a)) == 1
    assert f.pow(a, q) == a


@pytest.mark.parametrize("q", ALL_ORDERS)
def test_tables_agree_with_reference_operations(q):
    f = field(q)
    sub, mul = f.sub_table(), f.mul_table()
    assert len(sub) == len(mul) == q
    for a in f.elements():
        assert sub[a] == [f.add(a, f.neg(b)) for b in f.elements()]
        assert mul[a] == [f.mul(a, b) for b in f.elements()]
        assert [f.sub(a, b) for b in f.elements()] == sub[a]
    # built once and kept on the interned field
    assert field(q).sub_table() is sub and field(q).mul_table() is mul


@pytest.mark.parametrize("q", [9, 25, 27])
def test_xq_brute_counts_match_point_count_odd_extensions(q):
    for n in range(3):
        for m in range(3 - n):
            expected = xq_point_count(q, n, m)
            assert xq_brute_count(q, n, m) == expected
            assert xq_full_product_count(q, n, m) == expected


@pytest.mark.parametrize("q,k", [(2, 3), (3, 2), (4, 2)])
def test_xq_brute_counts_match_point_count_extensions(q, k):
    # over F_{q^k} with k > 1 the model still reads zeta^q, not zeta^(q^k)
    for n in range(3):
        for m in range(3 - n):
            expected = xq_point_count(q, n, m, k)
            assert xq_brute_count(q, n, m, k) == expected
            assert xq_full_product_count(q, n, m, k) == expected
    assert xq_brute_count(q, 0, 0, k) == q


def test_artin_schreier_count_budgets(monkeypatch):
    with pytest.raises(BudgetError, match="field of order 1024"):
        xq_point_count(2, 0, 1, 10)
    # F_128 with m = 3 walks 128 * 127^2 = 2,064,512 tuples, below the cap;
    # F_5 with m = 11 would walk 5 * 4^10 = 5,242,880, above it
    assert frobenius.MAX_MODEL_TUPLES == 4 * 10**6
    assert xq_point_count(2, 0, 3, 7) == xq_brute_count(2, 0, 3, 7)
    with pytest.raises(BudgetError, match="tuple budget"):
        xq_point_count(5, 0, 11)
    # the cap is inclusive: F_4 with m = 3 walks 4 * 3^2 = 36 tuples
    monkeypatch.setattr(frobenius, "MAX_MODEL_TUPLES", 36)
    assert xq_point_count(4, 0, 3) == xq_brute_count(4, 0, 3) == 24
    assert yqs_point_count(4, 5, 0, 3) == xq_brute_count(4, 0, 3)
    monkeypatch.setattr(frobenius, "MAX_MODEL_TUPLES", 35)
    with pytest.raises(BudgetError, match="tuple budget"):
        xq_point_count(4, 0, 3)


def _product_count(f, acc, ranges, fibre=None):
    # plain enumeration with add/neg, independent of the subtraction table
    total = 0
    for c in itertools.product(*ranges):
        a = acc
        for x in c:
            a = f.add(a, f.neg(x))
        total += (a == 0) if fibre is None else fibre[a]
    return total


@pytest.mark.parametrize("q", [4, 8, 9, 25])
def test_difference_walk_matches_product_enumeration(q):
    f = field(q)
    sub = f.sub_table()
    kinds = {"E": f.elements(), "N": f.nonzero()}
    fibre = [f.pow(x, 3) for x in f.elements()]  # arbitrary weights
    for spec in ("", "E", "N", "EE", "NN", "EN", "NE", "EEN", "NNN", "NEE", "ENE"):
        if q ** len(spec) > 1000:
            continue
        ranges = [kinds[c] for c in spec]
        for acc in f.elements():
            count = _difference_walk(sub, acc, ranges)
            assert type(count) is int
            assert count == _product_count(f, acc, ranges)
            assert _difference_walk(sub, acc, ranges, fibre) == _product_count(
                f, acc, ranges, fibre
            )
    # the empty tuple alone: counted iff the start value is already 0
    assert _difference_walk(sub, 0, []) == 1
    assert _difference_walk(sub, 1, []) == 0
    # from 0 the one zero end value is the lambda = 0 entry, which nonzero() skips
    assert _difference_walk(sub, 0, [f.elements()]) == 1
    assert _difference_walk(sub, 0, [f.nonzero()]) == 0
    assert _difference_walk(sub, 0, [f.elements(), f.nonzero()]) == q - 1


@pytest.mark.parametrize("q", [0, 1, 6, 12, 11, -4])
def test_factor_prime_power_rejects(q):
    with pytest.raises(ConfigError):
        _factor_prime_power(q)


def test_factor_prime_power_examples():
    assert _factor_prime_power(2) == (2, 1)
    assert _factor_prime_power(512) == (2, 9)
    assert _factor_prime_power(343) == (7, 3)
    assert _factor_prime_power(729) == (3, 6)


def test_zero_division():
    f = field(9)
    with pytest.raises(ZeroDivisionError):
        f.inv(0)


def test_negative_power_of_zero_raises():
    f = field(4)
    with pytest.raises(ZeroDivisionError):
        f.pow(0, -1)
    assert f.pow(0, 0) == 1 and f.pow(0, 3) == 0


@pytest.mark.parametrize("q", [5, 8, 9])
def test_power_minus_one_is_the_inverse(q):
    f = field(q)
    for a in f.nonzero():
        assert f.pow(a, -1) == f.inv(a)
