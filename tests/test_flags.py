"""Flag enumeration, Bruhat cells, Deligne-Lusztig pieces and torus orders."""

import itertools

import pytest

from deodhar.errors import BudgetError
from deodhar.flags import (
    canonical_flag,
    bruhat_cell,
    bruhat_word,
    double_cell_census,
    double_cell_count,
    dl_piece_count,
    dl_total_count,
    enumerate_flags,
    gaussian_flag_count,
    gl3_example_counts,
    mat_mul,
    opposite_cell,
    opposite_rank_profile_word,
    permutation_of,
    rank_profile_word,
    torus_order,
    torus_order_enumerated,
    weyl_from_permutation,
)
from deodhar.gf import field
from deodhar.rootdata import build_root_system


def _invertible_matrices(n, q):
    f = field(q)
    for entries in itertools.product(f.elements(), repeat=n * n):
        rows = tuple(tuple(entries[i * n + j] for j in range(n)) for i in range(n))
        try:
            from deodhar.flags import mat_inverse

            mat_inverse(f, rows)
        except ZeroDivisionError:
            continue
        yield rows


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
            assert canonical_flag(f, mat_mul(f, rows, b)) == base


def test_enumerate_flag_counts():
    assert len(enumerate_flags(2, 2)) == 3
    assert len(enumerate_flags(3, 2)) == 21
    assert len(enumerate_flags(3, 3)) == 52
    assert len(enumerate_flags(4, 2)) == 315
    assert gaussian_flag_count(3, 2) == 21
    with pytest.raises(BudgetError):
        enumerate_flags(4, 16)


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
    assert bruhat_cell(canonical_flag(f, identity)).is_identity
    for w in rs.weyl_elements():
        sigma = permutation_of(w)
        p = tuple(tuple(int(sigma[j] == i) for j in range(3)) for i in range(3))
        assert bruhat_cell(canonical_flag(f, p)) == w
        assert opposite_cell(canonical_flag(f, p)) == w


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
                    assert bruhat_cell(flag) == w0
                    assert opposite_cell(flag).is_identity
    assert hits > 0


def test_rank_profile_cross_check():
    f = field(2)
    for flag in enumerate_flags(3, 2):
        assert rank_profile_word(f, flag.matrix) == flag.pivots
        rev = tuple(flag.matrix[2 - i] for i in range(3))
        tau = bruhat_word(f, rev)
        assert opposite_rank_profile_word(f, flag.matrix) == tuple(
            2 - tau[j] for j in range(3)
        )


def test_double_cell_counts():
    rs = build_root_system("A", 2)
    e, w0 = rs.identity(), rs.longest_element()
    assert double_cell_count(3, 2, w0, e) == 3
    for w in rs.weyl_elements():
        assert double_cell_count(3, 2, w, w) == 1
    a1 = build_root_system("A", 1)
    assert double_cell_count(2, 5, a1.simple_reflection(0), a1.identity()) == 4


def test_double_cell_census_cross_foot():
    rs = build_root_system("A", 2)
    for q in (2, 3):
        census = double_cell_census(3, q)
        assert sum(census.values()) == gaussian_flag_count(3, q)
        for w in rs.weyl_elements():
            wp = permutation_of(w)
            assert sum(c for (a, _), c in census.items() if a == wp) == q**w.length


@pytest.mark.parametrize("q", [2, 3])
def test_double_cell_count_matches_census(q):
    # the per-cell route and the all-flags route share the opposite-cell
    # reduction; pin them against each other on every pair, zeros included
    rs = build_root_system("A", 2)
    census = double_cell_census(3, q)
    for w in rs.weyl_elements():
        for v in rs.weyl_elements():
            key = (permutation_of(w), permutation_of(v))
            assert double_cell_count(3, q, w, v) == census[key]


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
    assert (c21.x_full, c21.orbit_total) == (0, 0)
    assert (c21.closed_points, c21.open_points) == (4, 0)
    c22 = gl3_example_counts(2, 2)
    assert c22.x_full == 40
    assert (c22.closed_orbits, c22.open_orbits) == (8, 12)
    assert (c22.closed_points, c22.open_points) == (24, 20)
    assert c22.closed_points == 2 * 4 * 3  # |F_q| x |Ga(F_4)| x |Gm(F_4)|
    assert c22.point_total == 44 and c22.orbit_total == 20
    c31 = gl3_example_counts(3, 1)
    assert (c31.x_full, c31.orbit_total) == (0, 0)
    assert (c31.closed_points, c31.open_points) == (3 * 3 * 2, 0)
    c32 = gl3_example_counts(3, 2)
    assert c32.x_full == 3 * c32.orbit_total
    assert c32.x_full == dl_piece_count(
        3, 3, build_root_system("A", 2).longest_element(),
        build_root_system("A", 2).longest_element(), 2,
    )


def test_gl3_model_rows_q3_k2():
    from deodhar import sweeps

    rows = sweeps.gl3_rows(3, 2)
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
    assert torus_order_enumerated((1, 2, 3, 0), 2) == 15


def test_permutation_round_trip():
    for n in (2, 3, 4):
        rs = build_root_system("A", n - 1)
        for w in rs.weyl_elements():
            sigma = permutation_of(w)
            assert weyl_from_permutation(rs, sigma) == w
            inv_count = sum(
                1
                for i in range(n)
                for j in range(i + 1, n)
                if sigma[i] > sigma[j]
            )
            assert inv_count == w.length
