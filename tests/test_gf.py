"""Finite field tables: axioms checked exhaustively on small orders."""

import itertools
import math
import sys

import pytest
from hypothesis import given, strategies as st

from deodhar import frobenius, gf
from deodhar.errors import BudgetError, ConfigError
from deodhar.frobenius import xq_point_count, yqs_point_count
from deodhar.gf import _MODULUS, _difference_walk, _factor_prime_power, field
from deodhar.sweeps import xq_brute_count, xq_full_product_count, xq_model_rows

ALL_ORDERS = sorted(
    {2, 3, 5, 7} | set(_MODULUS.keys())
)
SMALL_ORDERS = [2, 3, 4, 5, 7, 8, 9, 16, 25, 27, 49]

# the smallest primitive element of every supported order; the log tables
# are laid out over it
GENERATORS = {
    2: 1, 3: 2, 4: 2, 5: 2, 7: 3, 8: 2, 9: 3, 16: 2, 25: 5, 27: 3, 32: 2,
    49: 7, 64: 2, 81: 3, 125: 5, 128: 2, 243: 3, 256: 2, 343: 7, 512: 2,
}


@pytest.mark.parametrize("q", ALL_ORDERS)
def test_fields_construct(q):
    f = field(q)
    assert f.order == q
    assert f.char in (2, 3, 5, 7)
    assert f.generator == GENERATORS[q]
    # the generator really has full multiplicative order
    seen = set()
    x = 1
    for _ in range(q - 1):
        seen.add(x)
        x = f.mul(x, f.generator)
    assert len(seen) == q - 1


@pytest.mark.parametrize(
    "q,modulus",
    [
        (4, (1, 0, 1)),  # x^2 + 1 = (x + 1)^2 over F_2
        (16, (1, 0, 1, 0, 1)),  # (x^2 + x + 1)^2 over F_2
        (27, (0, 0, 0, 1)),  # x^3
    ],
)
def test_reducible_modulus_rejected(monkeypatch, q, modulus):
    monkeypatch.setitem(gf._MODULUS, q, modulus)
    with pytest.raises(ConfigError, match=f"field order {q} is reducible"):
        gf.FqField(q)


def test_irreducible_replacement_modulus_accepted(monkeypatch):
    # x^2 + 1 has no root over F_3, so it is irreducible
    monkeypatch.setitem(gf._MODULUS, 9, (1, 0, 1))
    f = gf.FqField(9)
    assert f is not field(9)
    assert len({f.pow(f.generator, i) for i in range(8)}) == 8
    # x = 3 squares to -1 = 2
    assert f.mul(3, 3) == 2


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
    p = f.char
    for a in f.elements():
        for b in f.elements():
            assert f.pow(f.add(a, b), p) == f.add(f.pow(a, p), f.pow(b, p))


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


def test_tables_cached_once_per_field():
    f = gf.FqField(5)  # not interned, so its tables are new
    before = gf.FqField.sub_table.cache_info()
    rows = f.sub_table()
    assert f.sub(3, 4) == 4 and f.packed_sub_table()[3] == bytes(rows[3])
    after = gf.FqField.sub_table.cache_info()
    assert after.misses == before.misses + 1
    assert after.hits == before.hits + 2
    assert after.currsize == before.currsize + 1


def test_artin_schreier_targets_built_once_per_field():
    frobenius._artin_schreier_targets.cache_clear()
    rows = list(xq_model_rows(32, 3))
    info = frobenius._artin_schreier_targets.cache_info()
    # one (q^k, q) pair for each prime power q and k with q^k <= 32
    orders = (2, 3, 4, 5, 7, 8, 9, 16, 25, 27, 32)
    pairs = {(q**k, q) for q in orders for k in range(1, 6) if q**k <= 32}
    assert info.misses == info.currsize == len(pairs) == 19
    assert all(row["match"] for row in rows)
    targets = frobenius._artin_schreier_targets(9, 3)
    assert type(targets) is tuple and len(targets) == 9
    # zeta -> zeta^3 - zeta is F_3-linear with kernel F_3: each value three times
    assert sorted(targets.count(v) for v in set(targets)) == [3, 3, 3]


def test_power_fibres_built_once_per_power():
    frobenius._power_fibre.cache_clear()
    pow_calls = []
    pow_ = gf.FqField.pow

    def counted(self, a, n):
        pow_calls.append(n)
        return pow_(self, a, n)

    try:
        gf.FqField.pow = counted
        first = frobenius.yqs_point_count(9, 2, 0, 3)
        cold = len(pow_calls)
        assert frobenius.yqs_point_count(9, 2, 0, 3) == first
    finally:
        gf.FqField.pow = pow_
    # the second count reads the cached fibre and raises nothing to a power
    assert len(pow_calls) == cold
    assert frobenius._power_fibre.cache_info().misses == 1
    powers, fibre = frobenius._power_fibre(9, 2)
    assert type(powers) is tuple and type(fibre) is tuple
    # squaring on F_9^*: each nonzero square is hit twice, 0 never
    assert fibre[0] == 0 and sorted(set(fibre[1:])) == [0, 2] and sum(fibre) == 8


@pytest.mark.parametrize("q", [9, 25, 27])
def test_xq_brute_counts_match_point_count_odd_extensions(q):
    for n in range(3):
        for m in range(3 - n):
            expected = xq_point_count(q, n, m)
            assert xq_brute_count(q, n, m, 1) == expected
            assert xq_full_product_count(q, n, m, 1) == expected


@pytest.mark.parametrize("q,k", [(2, 3), (3, 2), (4, 2)])
def test_xq_brute_counts_match_point_count_extensions(q, k):
    # over F_{q^k} with k > 1 the model still reads zeta^q, not zeta^(q^k)
    for n in range(3):
        for m in range(3 - n):
            expected = xq_point_count(q, n, m, k)
            assert xq_brute_count(q, n, m, k) == expected
            assert xq_full_product_count(q, n, m, k) == expected
    assert xq_brute_count(q, 0, 0, k) == q


@pytest.mark.parametrize("count", [xq_brute_count, xq_full_product_count, xq_point_count])
@pytest.mark.parametrize("n,m,k", [(-1, 0, 1), (0, -1, 1), (-1, 2, 1), (1, -2, 1), (0, 0, 0), (1, 1, -1)])
def test_brute_counters_reject_negative_exponents(count, n, m, k):
    with pytest.raises(ConfigError, match="n, m must be nonnegative and k positive"):
        count(2, n, m, k)


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
    assert xq_point_count(4, 0, 3) == xq_brute_count(4, 0, 3, 1) == 24
    assert yqs_point_count(4, 5, 0, 3) == xq_brute_count(4, 0, 3, 1)
    monkeypatch.setattr(frobenius, "MAX_MODEL_TUPLES", 35)
    with pytest.raises(BudgetError, match="tuple budget"):
        xq_point_count(4, 0, 3)


def test_artin_schreier_walks_once_per_count():
    frobenius._artin_schreier_walk.cache_clear()
    rows = list(xq_model_rows(32, 3))
    info = frobenius._artin_schreier_walk.cache_info()
    # n = 0 and m = 0..3 for each of the 19 (q^k, q) pairs: the closed-vs-brute
    # row walks each count, and the yqs-s1-equals-xq row reads it back
    assert info.misses == info.currsize == 19 * 4 == 76
    assert info.hits == 76
    assert all(row["match"] for row in rows)


def test_cached_artin_schreier_count_still_checks_the_cap(monkeypatch):
    frobenius._artin_schreier_walk.cache_clear()
    monkeypatch.setattr(frobenius, "MAX_MODEL_TUPLES", 36)
    assert xq_point_count(4, 0, 3) == 24
    assert frobenius._artin_schreier_walk.cache_info().currsize == 1
    # the count is cached, and the lowered cap still refuses it
    monkeypatch.setattr(frobenius, "MAX_MODEL_TUPLES", 35)
    with pytest.raises(BudgetError, match="tuple budget"):
        xq_point_count(4, 0, 3)
    assert frobenius._artin_schreier_walk.cache_info().hits == 0
    monkeypatch.setattr(frobenius, "MAX_MODEL_TUPLES", 36)
    assert xq_point_count(4, 0, 3) == 24
    assert frobenius._artin_schreier_walk.cache_info().hits == 1


def test_artin_schreier_count_not_divisible_by_q_is_not_cached(monkeypatch):
    frobenius._artin_schreier_walk.cache_clear()
    monkeypatch.setattr(frobenius, "_difference_walk", lambda *args: 1)
    for _ in range(2):
        with pytest.raises(AssertionError, match="not divisible by q"):
            xq_point_count(4, 0, 2)
    info = frobenius._artin_schreier_walk.cache_info()
    assert info.misses == 2 and info.currsize == 0


def test_xq_brute_count_budget_is_inclusive(monkeypatch):
    monkeypatch.setattr(frobenius, "MAX_MODEL_TUPLES", 36)
    # F_4 with n = 0, m = 3: 4 targets times 3^2 tuples
    assert xq_brute_count(4, 0, 3, 1) == xq_point_count(4, 0, 3) == 24
    # n = 1, m = 2: 4 targets times 4 * 3 tuples
    with pytest.raises(BudgetError, match=r"X_4\(1,2\) over F_4 walks 48 pairs > 36"):
        xq_brute_count(4, 1, 2, 1)
    # m = 0 is read off the pair count, so it has no walk to refuse
    assert xq_brute_count(4, 3, 0, 1) == xq_point_count(4, 3, 0) == 4**3


def test_sub_table_lifts_the_prime_rows(monkeypatch):
    calls = {"add": 0, "neg": 0}
    add, neg = gf.FqField.add, gf.FqField.neg

    def counted_add(self, a, b):
        calls["add"] += 1
        return add(self, a, b)

    def counted_neg(self, a):
        calls["neg"] += 1
        return neg(self, a)

    f = gf.FqField(343)  # not interned, so its table is new
    monkeypatch.setattr(gf.FqField, "add", counted_add)
    monkeypatch.setattr(gf.FqField, "neg", counted_neg)
    rows = f.sub_table()
    # only the 7 x 7 prime-field rows call add and neg
    assert calls == {"add": 49, "neg": 7}
    assert rows == field(343).sub_table()
    assert rows[5] == [f.add(5, f.neg(b)) for b in f.elements()]


def _product_counts(f, roots, ranges, fibre):
    # plain enumeration with add/neg, independent of the subtraction table:
    # the number of end values equal to 0, and the fibre weights of all of them
    negated = [[f.neg(x) for x in r] for r in ranges]
    zeros = weight = 0
    for acc in roots:
        for c in itertools.product(*negated):
            a = acc
            for nx in c:
                a = f.add(a, nx)
            zeros += a == 0
            weight += fibre[a]
    return zeros, weight


def _walk_counts(rows, roots, ranges, fibre):
    return (
        _difference_walk(rows, roots, ranges),
        _difference_walk(rows, roots, ranges, fibre),
    )


def _walk_kinds(f):
    q = f.order
    return {
        "E": f.elements(),
        "N": f.nonzero(),
        # explicit lists with repeated entries
        "P": [f.pow(x, 3) for x in f.nonzero()],
        "R": [0, 1, 1, q - 1, 0],
    }


@pytest.mark.parametrize("q", [4, 5, 7, 8, 9, 25, 27])
def test_difference_walk_matches_product_enumeration(q):
    f = field(q)
    rows = f.packed_sub_table()
    kinds = _walk_kinds(f)
    fibre = [(x * x + 1) % 11 for x in f.elements()]  # arbitrary weights, fibre[0] > 0
    root_sets = (
        list(f.elements()),
        [0, 0, 1, 1, 1, q - 1],  # repeated roots each count on their own
        [f.sub(f.pow(z, f.char), z) for z in f.elements()],  # p-to-1 targets
    )
    for spec in ("", "E", "N", "P", "R", "EE", "NN", "EN", "NE", "PR", "RP", "EEN", "NNN", "NEE", "ENE", "RRR"):
        ranges = [kinds[c] for c in spec]
        if math.prod(map(len, ranges)) > 1000:
            continue
        for roots in root_sets:
            counts = _walk_counts(rows, roots, ranges, fibre)
            assert type(counts[0]) is int
            assert counts == _product_counts(f, roots, ranges, fibre)
    # the empty tuple alone: each root counts iff it is already 0
    assert _difference_walk(rows, [0], []) == 1
    assert _difference_walk(rows, [1], []) == 0
    assert _difference_walk(rows, [0, 1, 0], []) == 2
    # from 0 the one zero end value is the lambda = 0 entry, which nonzero() skips
    assert _difference_walk(rows, [0], [f.elements()]) == 1
    assert _difference_walk(rows, [0], [f.nonzero()]) == 0
    assert _difference_walk(rows, [0], [f.elements(), f.nonzero()]) == q - 1


@pytest.mark.parametrize("q", [343, 512])
def test_difference_walk_on_two_byte_rows(q):
    f = field(q)
    rows = f.packed_sub_table()
    assert rows[0].typecode == "H" and rows[q - 1][0] == q - 1
    fibre = [f.pow(x, 5) for x in f.elements()]
    short = [
        [range(0, 6)],
        [range(q - 4, q), [1, 1, q - 1, 300]],
        [[300, 2, 2], range(1, 5), [q - 1, 0]],
    ]
    roots = [0, 1, 1, 300, q - 1, 0]
    for ranges in short:
        assert _walk_counts(rows, roots, ranges, fibre) == _product_counts(
            f, roots, ranges, fibre
        )
    # whole rows: from every root, each tuple has exactly one completion
    assert _difference_walk(rows, list(f.elements()), [f.elements()]) == q
    assert _difference_walk(rows, list(f.elements()), [f.nonzero()]) == q - 1


@pytest.mark.parametrize("q", [4, 5, 9])
@pytest.mark.parametrize("walk_slice", [1, 3, 7, 64])
def test_difference_walk_slice_path(monkeypatch, q, walk_slice):
    f = field(q)
    rows = f.packed_sub_table()
    kinds = _walk_kinds(f)
    fibre = [(x * x + 1) % 11 for x in f.elements()]
    roots = list(f.elements()) + [0, 1]
    monkeypatch.setattr(gf, "WALK_SLICE", walk_slice)
    for spec in ("E", "NE", "ENR", "PPN"):
        ranges = [kinds[c] for c in spec]
        assert _walk_counts(rows, roots, ranges, fibre) == _product_counts(
            f, roots, ranges, fibre
        )


def test_difference_walk_depth_beyond_the_recursion_limit():
    # F_2 has one nonzero element, so every level keeps one entry per root
    f = field(2)
    depth = sys.getrecursionlimit() + 10
    rows = f.packed_sub_table()
    assert _difference_walk(rows, [0, 1], [f.nonzero()] * depth) == 1
    assert _difference_walk(rows, [0, 1], [f.nonzero()] * (depth + 1)) == 1


def _reached_entries(f, roots, ranges):
    # every (a, c) the enumeration subtracts: a partial difference, c its next coordinate
    reached = set()
    level = list(roots)
    for r in ranges:
        reached.update((a, c) for a in level for c in r)
        level = [f.sub(a, c) for a in level for c in r]
    return reached


@pytest.mark.parametrize("q", [4, 5])
def test_difference_walk_reads_every_entry(q):
    f = field(q)
    rows = f.packed_sub_table()
    kinds = _walk_kinds(f)
    root_sets = [[r] for r in f.elements()] + [list(f.elements())]
    # one indicator fibre per value: together they tell apart any two
    # multisets of end values, with every weight a byte
    indicators = [[int(x == v) for x in f.elements()] for v in f.elements()]

    def counts(rows, ranges, fibres):
        return [_difference_walk(rows, r, ranges, w) for r in root_sets for w in fibres]

    for spec in ("E", "N", "R", "EN", "NN", "PE", "NR"):
        ranges = [kinds[c] for c in spec]
        reached = set()
        for roots in root_sets:
            reached |= _reached_entries(f, roots, ranges)
        for fibres in ([None], indicators):
            base = counts(rows, ranges, fibres)
            for a, b in itertools.product(f.elements(), repeat=2):
                changed = False
                for value in f.elements():
                    if value == rows[a][b]:
                        continue
                    corrupted = list(rows)
                    row = bytearray(rows[a])
                    row[b] = value
                    corrupted[a] = bytes(row)
                    changed |= base != counts(corrupted, ranges, fibres)
                # a reached entry changes the count for some root set; an
                # entry no tuple reaches is not read at all
                assert changed == ((a, b) in reached), (spec, fibres == [None], a, b)


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
