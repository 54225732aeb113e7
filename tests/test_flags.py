"""Flag enumeration, Bruhat cells, Deligne-Lusztig pieces and torus orders."""

import functools
import itertools
import tracemalloc
from collections import Counter

import pytest

from deodhar import flags
from deodhar.errors import BudgetError, ConfigError
from deodhar.flags import (
    _perm_cycles,
    _permutation_table,
    canonical_flag,
    double_cell_census,
    dl_piece_count,
    enumerate_flags,
    gaussian_flag_count,
    gl3_example_counts,
    permutation_of,
    torus_order,
)
from deodhar.gf import MAX_FIELD_ORDER, field
from deodhar.rootdata import RootSystem, build_root_system


def _matrices(n, q):
    f = field(q)
    for entries in itertools.product(f.elements(), repeat=n * n):
        yield tuple(tuple(entries[i * n + j] for j in range(n)) for i in range(n))


def _rank(f, rows):
    """The rank of a nonempty matrix over f, by ``_reduce`` on a copy of its rows."""
    return flags._reduce(f, [list(r) for r in rows], len(rows[0]))


def _invertible_matrices(n, q):
    f = field(q)
    return (rows for rows in _matrices(n, q) if _rank(f, rows) == n)


def _product(f, a, b):
    """The matrix product a b over f, entry by entry from f.add and f.mul."""
    return tuple(
        tuple(functools.reduce(f.add, map(f.mul, row, col), 0) for col in zip(*b))
        for row in a
    )


# -- reference routes: each reaches the library's answer another way ---------


def rank_profile_word(f, rows):
    """Pivot permutation of a flag from the ranks of its lower-left blocks."""
    n = len(rows)

    def r(i, j):
        if j == 0:
            return 0
        return _rank(f, [[rows[a][b] for b in range(j)] for a in range(i, n)])

    return tuple(max(i for i in range(n) if r(i, j + 1) > r(i, j)) for j in range(n))


def opposite_rank_profile_word(f, rows):
    """Permutation v with the flag in the opposite cell of v (upper-left ranks)."""
    n = len(rows)

    def r(i, j):
        if j == 0:
            return 0
        return _rank(f, [[rows[a][b] for b in range(j)] for a in range(i + 1)])

    return tuple(min(i for i in range(n) if r(i, j + 1) > r(i, j)) for j in range(n))


def torus_order_enumerated(w, q):
    """Brute-force |T^{wF}|: count Lang-twisted diagonal tuples cycle by cycle."""
    out = 1
    for c in _perm_cycles(w):
        qc = q**c
        if qc > MAX_FIELD_ORDER:
            raise BudgetError(
                f"torus enumeration needs a field of order {qc} > {MAX_FIELD_ORDER}"
            )
        f = field(qc)
        count = 0
        for x0 in f.nonzero():
            x = x0
            for _ in range(c):
                x = f.pow(x, q)
            if x == x0:
                count += 1
        out *= count
    return out


def dl_total_count(n, q, w, k=1):
    """Points of X(w) over F_{q^k}, counted in one pass over all flags."""
    f = flags._extension_field(q, k)
    w_perm = flags._gl_permutation(n, w)
    all_flags = enumerate_flags(n, f.order)
    return sum(1 for fl in all_flags if flags._lang_perm(f, fl.matrix, q) == w_perm)


def test_solve_against_a_product_in_the_test():
    # a is classified by its determinant, not by a rank: that is _solve's
    # own elimination
    f = field(3)
    bs = [((1, 0), (0, 1)), ((2, 1), (0, 2)), ((0, 1), (1, 1)), ((1, 2), (1, 2))]
    invertible = 0
    for a in _matrices(2, 3):
        (a00, a01), (a10, a11) = a
        if f.sub(f.mul(a00, a11), f.mul(a01, a10)) == 0:
            with pytest.raises(ZeroDivisionError, match="singular"):
                flags._solve(f, a, bs[0])
            continue
        invertible += 1
        for b in bs:
            assert _product(f, a, flags._solve(f, a, b)) == b
    assert invertible == 48  # |GL_2(F_3)|


def test_canonical_form_idempotent_gl2_f3():
    f = field(3)
    for rows in _invertible_matrices(2, 3):
        flag = canonical_flag(f, rows)
        again = canonical_flag(f, flag.matrix)
        assert again == flag


def test_canonical_form_idempotent_gl3_f2():
    f = field(2)
    for rows in _invertible_matrices(3, 2):
        flag = canonical_flag(f, rows)
        assert canonical_flag(f, flag.matrix) == flag


def test_canonical_form_is_coset_invariant():
    # right multiplication by upper triangular invertible keeps the flag
    f = field(3)
    uppers = [
        ((a, b), (0, c))
        for a in f.nonzero()
        for c in f.nonzero()
        for b in f.elements()
    ]
    sample = list(_invertible_matrices(2, 3))[::5]
    for rows in sample:
        base = canonical_flag(f, rows)
        for b in uppers:
            assert canonical_flag(f, _product(f, rows, b)) == base


def test_enumerate_flag_counts():
    assert len(enumerate_flags(2, 2)) == 3
    assert len(enumerate_flags(3, 2)) == 21
    assert len(enumerate_flags(3, 3)) == 52
    assert len(enumerate_flags(4, 2)) == 315
    assert gaussian_flag_count(3, 2) == 21
    with pytest.raises(BudgetError):
        enumerate_flags(4, 16)
    # the field is built first, so q = 1 is refused, not divided by q - 1
    with pytest.raises(ConfigError, match="field order 1"):
        enumerate_flags(3, 1)


def test_enumerated_flags_are_canonical_and_distinct():
    f = field(3)
    flags = enumerate_flags(3, 3)
    assert len({fl.matrix for fl in flags}) == len(flags)
    for fl in flags[::7]:
        assert canonical_flag(f, fl.matrix) == fl


def test_bruhat_cell_identity_and_permutations():
    rs = build_root_system("A", 2)
    f = field(2)
    identity = tuple(tuple(int(i == j) for j in range(3)) for i in range(3))
    assert canonical_flag(f, identity).pivots == (0, 1, 2)
    for w in rs.weyl_elements():
        sigma = permutation_of(w)
        p = tuple(tuple(int(sigma[j] == i) for j in range(3)) for i in range(3))
        assert canonical_flag(f, p).pivots == sigma
        assert flags._opposite_perm(f, canonical_flag(f, p)) == sigma


def test_gl3_minor_criterion():
    # lower unitriangular matrices with c != 0 and ab - c != 0 lie in the
    # big cell and in the opposite cell of the identity
    rs = build_root_system("A", 2)
    w0 = rs.longest_element()
    f = field(3)
    hits = 0
    for a in f.elements():
        for b in f.elements():
            for c in f.elements():
                rows = ((1, 0, 0), (b, 1, 0), (c, a, 1))
                flag = canonical_flag(f, rows)
                if c != 0 and f.sub(f.mul(a, b), c) != 0:
                    hits += 1
                    assert flag.pivots == permutation_of(w0)
                    assert flags._opposite_perm(f, flag) == (0, 1, 2)
    assert hits > 0


def test_rank_profile_cross_check():
    f = field(2)
    for flag in enumerate_flags(3, 2):
        assert rank_profile_word(f, flag.matrix) == flag.pivots
        rev = tuple(flag.matrix[2 - i] for i in range(3))
        tau = canonical_flag(f, rev).pivots
        assert opposite_rank_profile_word(f, flag.matrix) == tuple(
            2 - tau[j] for j in range(3)
        )


def test_double_cell_census_keeps_the_flag_budget(monkeypatch):
    with pytest.raises(ConfigError, match="2 <= n <= 4"):
        enumerate_flags(5, 2)
    with pytest.raises(ConfigError, match="2 <= n <= 4"):
        double_cell_census(5, 2)

    def refuse(*args):
        raise AssertionError("no flag may be built past the budget")

    monkeypatch.setattr(flags, "_cell_flags", refuse)
    monkeypatch.setattr(flags, "Flag", refuse)
    with pytest.raises(BudgetError, match="more than"):
        double_cell_census(4, 512)


def test_dl_piece_count_keeps_the_flag_budget(monkeypatch):
    a4, a1 = build_root_system("A", 4), build_root_system("A", 1)
    with pytest.raises(ConfigError, match="2 <= n <= 4"):
        dl_total_count(5, 2, a4.identity())
    with pytest.raises(ConfigError, match="2 <= n <= 4"):
        dl_piece_count(5, 2, a4.identity(), a4.identity())
    with pytest.raises(ConfigError, match="2 <= n <= 4"):
        dl_piece_count(1, 2, a1.identity(), a1.identity())

    def refuse(*args):
        raise AssertionError("no flag may be built past the budget")

    monkeypatch.setattr(flags, "_cell_flags", refuse)
    a3 = build_root_system("A", 3)
    with pytest.raises(BudgetError, match="more than"):
        dl_piece_count(4, 8, a3.identity(), a3.identity(), 3)


def test_double_cell_counts():
    rs = build_root_system("A", 2)
    e, w0 = rs.identity(), rs.longest_element()
    census = double_cell_census(3, 2)
    assert census[w0, e] == 3
    for w in rs.weyl_elements():
        assert census[w, w] == 1
    a1 = build_root_system("A", 1)
    assert double_cell_census(2, 5)[a1.simple_reflection(0), a1.identity()] == 4


def test_double_cell_census_cross_foot():
    # GL_4 over F_7 is 182,400 flags
    for n, q in [(3, 2), (3, 3), (4, 7)]:
        rs = build_root_system("A", n - 1)
        census = double_cell_census(n, q)
        assert sum(census.values()) == gaussian_flag_count(n, q)
        for w in rs.weyl_elements():
            assert sum(c for (a, _), c in census.items() if a == w) == q**w.length


@pytest.mark.parametrize(
    "n,q",
    [
        (2, 5), (3, 2), (3, 3), (3, 4), (3, 9), (4, 2), (4, 3), (4, 4),
        # the last field whose pair index a * q + b fits a byte, the first odd
        # extension field past it, and elements wider than a byte
        (3, 16), (3, 25), (2, 343),
    ],
)
def test_double_cell_census_equals_per_flag_route(monkeypatch, n, q):
    # the per-flag route: build every flag and reduce its reversed rows
    f = field(q)
    elements = _permutation_table(build_root_system("A", n - 1))[1]
    reference = Counter(
        (elements[fl.pivots], elements[flags._opposite_perm(f, fl)])
        for fl in enumerate_flags(n, q)
    )
    double_cell_census.cache_clear()

    def refuse(n, q):
        raise AssertionError("the census must not build the flag list")

    monkeypatch.setattr(flags, "enumerate_flags", refuse)
    census = double_cell_census(n, q)
    assert census == reference
    assert list(census) == list(reference)


@pytest.mark.parametrize("size", [flags.CENSUS_SLICE, 7, 1])
def test_double_cell_census_checks_each_pair_once(monkeypatch, size):
    # on (4, 3) a cell has at most 243 prefixes before its last free column,
    # so only the smaller slices split it; pairs first reached in a later
    # slice keep their order and their one check
    reference = dict(double_cell_census(4, 3))
    double_cell_census.cache_clear()
    checked = []
    opposite = flags._opposite_perm

    def counted(f, flag):
        checked.append(flag)
        return opposite(f, flag)

    monkeypatch.setattr(flags, "_opposite_perm", counted)
    monkeypatch.setattr(flags, "CENSUS_SLICE", size)
    try:
        census = double_cell_census(4, 3)
    finally:
        double_cell_census.cache_clear()
    assert list(census.items()) == list(reference.items())
    assert len(checked) == len(census) == 213
    # each is the first flag of its pair in enumerate_flags order
    f = field(3)
    firsts = {}
    for fl in enumerate_flags(4, 3):
        firsts.setdefault((fl.pivots, opposite(f, fl)), fl)
    assert checked == list(firsts.values())


def test_double_cell_census_refuses_codes_wider_than_a_byte(monkeypatch):
    # with the cap raised, the per-flag route reaches every flag of GL_5 over
    # F_2, and their base-5 opposite-cell codes pass 255, so byte lanes would
    # wrap: the census refuses instead of miscounting
    monkeypatch.setattr(flags, "MAX_MATRIX_SIZE", 5)
    f = field(2)
    all_flags = enumerate_flags(5, 2)
    assert len(all_flags) == 9765
    codes = {
        sum(t * 5**e for e, t in enumerate(flags._opposite_perm(f, fl)[-2::-1]))
        for fl in all_flags
    }
    # v = (4, 3, 2, 1, 0) reads 4321 in base 5
    assert max(codes) == 586
    double_cell_census.cache_clear()
    with pytest.raises(ConfigError, match="byte lanes"):
        double_cell_census(5, 2)


def test_double_cell_census_memory_is_bounded_by_the_slice():
    f = field(5)
    f.sub_table(), f.mul_table()
    double_cell_census.cache_clear()
    tracemalloc.start()
    try:
        double_cell_census(4, 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2**20


def test_double_cell_census_checks_each_pair_through_canonical_flag(monkeypatch):
    double_cell_census.cache_clear()
    calls = []

    def wrong(f, flag):
        calls.append(flag)
        return tuple(reversed(flag.pivots))

    monkeypatch.setattr(flags, "_opposite_perm", wrong)
    try:
        with pytest.raises(AssertionError, match="canonical_flag disagree"):
            double_cell_census(3, 2)
    finally:
        double_cell_census.cache_clear()
    assert len(calls) == 1


def test_double_cell_census_is_read_only():
    census = double_cell_census(3, 2)
    key = next(iter(census))
    with pytest.raises(TypeError):
        census[key] = 0
    assert double_cell_census(3, 2) is census


def test_dl_piece_counts():
    rs = build_root_system("A", 2)
    w0 = rs.longest_element()
    assert dl_piece_count(3, 2, w0, w0, 1) == 0
    assert dl_piece_count(3, 3, w0, w0, 1) == 0
    a1 = build_root_system("A", 1)
    e1, s1 = a1.identity(), a1.simple_reflection(0)
    total = sum(dl_piece_count(2, 2, s1, x, 2) for x in a1.weyl_elements())
    assert total == 2  # X(s) = P^1 minus its rational points, q^2 - q at q=2
    # X(e) over F_q is all rational flags, distributed over the cells
    assert dl_piece_count(2, 3, e1, e1, 1) == 1
    assert dl_piece_count(2, 3, e1, s1, 1) == 3
    assert sum(dl_piece_count(2, 3, e1, x, 1) for x in a1.weyl_elements()) == 4


@pytest.mark.parametrize("q,k,w_letters", [(2, 1, (0, 1, 0)), (2, 2, (0,)), (3, 1, (0, 1))])
def test_dl_partition(q, k, w_letters):
    rs = build_root_system("A", 2)
    w = rs.element_from_word(w_letters)
    total = dl_total_count(3, q, w, k)
    by_pieces = sum(dl_piece_count(3, q, w, x, k) for x in rs.weyl_elements())
    assert total == by_pieces


def test_gl3_example_counts():
    c21 = gl3_example_counts(2, 1)
    assert (c21.x_full, c21.closed_orbits + c21.open_orbits) == (0, 0)
    assert (c21.closed_points, c21.open_points) == (4, 0)
    c22 = gl3_example_counts(2, 2)
    assert c22.x_full == 40
    assert (c22.closed_orbits, c22.open_orbits) == (8, 12)
    assert (c22.closed_points, c22.open_points) == (24, 20)
    assert c22.closed_points == 2 * 4 * 3  # |F_q| x |Ga(F_4)| x |Gm(F_4)|
    assert c22.closed_points + c22.open_points == 44
    assert c22.closed_orbits + c22.open_orbits == 20
    c31 = gl3_example_counts(3, 1)
    assert (c31.x_full, c31.closed_orbits + c31.open_orbits) == (0, 0)
    assert (c31.closed_points, c31.open_points) == (3 * 3 * 2, 0)
    c32 = gl3_example_counts(3, 2)
    assert c32.x_full == 3 * (c32.closed_orbits + c32.open_orbits)
    assert c32.x_full == dl_piece_count(
        3, 3, build_root_system("A", 2).longest_element(),
        build_root_system("A", 2).longest_element(), 2,
    )


def test_gl3_model_rows_q3_k2():
    from deodhar import sweeps

    rows = list(sweeps.gl3_rows(3, 2))
    assert rows and all(r["match"] for r in rows)


def test_torus_orders():
    a1 = build_root_system("A", 1)
    e, s = a1.identity(), a1.simple_reflection(0)
    for q in (2, 3, 5):
        assert torus_order(e, q) == (q - 1) ** 2
        assert torus_order(s, q) == q**2 - 1
        assert torus_order_enumerated(e, q) == (q - 1) ** 2
        assert torus_order_enumerated(s, q) == q**2 - 1
    a2 = build_root_system("A", 2)
    cycle3 = a2.element_from_word((0, 1))  # a 3-cycle in S_3
    assert permutation_of(cycle3) in {(1, 2, 0), (2, 0, 1)}
    for q in (2, 3, 5):
        assert torus_order(cycle3, q) == q**3 - 1
        assert torus_order_enumerated(cycle3, q) == q**3 - 1
    # GL4 four-cycle at q = 2, enumerated in F_16
    cycle4 = _permutation_table(build_root_system("A", 3))[1][(1, 2, 3, 0)]
    assert torus_order(cycle4, 2) == torus_order_enumerated(cycle4, 2) == 15


def test_permutation_round_trip():
    for n in (2, 3, 4):
        rs = build_root_system("A", n - 1)
        for w in rs.weyl_elements():
            sigma = permutation_of(w)
            assert _permutation_table(rs)[1][sigma] == w
            inv_count = sum(
                1
                for i in range(n)
                for j in range(i + 1, n)
                if sigma[i] > sigma[j]
            )
            assert inv_count == w.length


def test_census_is_keyed_by_weyl_elements():
    rs = build_root_system("A", 3)
    census = double_cell_census(4, 2)
    assert len(census) == 213
    assert all(w.system is rs and v.system is rs for w, v in census)
    w0, e = rs.longest_element(), rs.identity()
    # the walk starts in the one-flag cell of e, which lies in the opposite cell of e
    assert next(iter(census)) == (e, e) and census[e, e] == 1
    assert (e, w0) not in census and census[e, w0] == 0


def test_permutation_table_is_checked_before_it_is_cached():
    rs = RootSystem("A", 2)
    lengths = list(rs._lengths)
    lengths[3] += 1
    rs._lengths = tuple(lengths)
    cached = _permutation_table.cache_info().currsize
    for _ in range(2):  # nothing was cached, so the check runs again
        with pytest.raises(AssertionError, match="inversion count"):
            permutation_of(rs.weyl_elements()[3])
    assert _permutation_table.cache_info().currsize == cached
    a2 = build_root_system("A", 2)
    assert a2 is not rs and a2._lengths == (0, 1, 1, 2, 2, 3)
    assert permutation_of(a2.weyl_elements()[3]) == (1, 2, 0)


def test_permutation_table_is_built_once_per_system():
    rs = RootSystem("A", 3)
    sigmas = [permutation_of(w) for w in rs.weyl_elements()]
    misses = _permutation_table.cache_info().misses
    table = _permutation_table(rs)  # a hit: permutation_of built the table
    assert _permutation_table.cache_info().misses == misses
    assert len(set(sigmas)) == 24
    # a rebuild would trip over the tampered tables
    rs._words = rs._lmul = rs._lengths = None
    assert [permutation_of(w) for w in rs.weyl_elements()] == sigmas
    assert [_permutation_table(rs)[1][s] for s in sigmas] == list(rs.weyl_elements())
    assert _permutation_table(rs) is table
    assert _permutation_table.cache_info().misses == misses


def test_elements_outside_gl_n_are_config_errors():
    a1, a2 = build_root_system("A", 1), build_root_system("A", 2)
    b2 = build_root_system("B", 2)
    w0, e = a2.longest_element(), a2.identity()
    s = a1.simple_reflection(0)
    with pytest.raises(ConfigError, match="GL_2"):
        dl_piece_count(2, 2, w0, e)
    with pytest.raises(ConfigError, match="GL_3"):
        dl_piece_count(3, 2, s, a1.identity())
    with pytest.raises(ConfigError, match="GL_4"):
        dl_total_count(4, 2, w0)
    with pytest.raises(ConfigError, match="GL_3"):
        dl_piece_count(3, 2, b2.identity(), b2.identity())


def test_dl_counts_reject_bad_q_and_k():
    a2 = build_root_system("A", 2)
    w0 = a2.longest_element()
    with pytest.raises(ConfigError, match="field order 1"):
        dl_piece_count(3, 1, w0, w0)
    for k in (0, -1):
        with pytest.raises(ConfigError, match="k >= 1"):
            dl_piece_count(3, 2, w0, w0, k)
        with pytest.raises(ConfigError, match="k >= 1"):
            dl_total_count(3, 2, w0, k)
        with pytest.raises(ConfigError, match="k >= 1"):
            gl3_example_counts(2, k)
