"""Point-count polynomials: hand-unrolled values, the oracle triangle and the
reduced-word tree against enumeration."""

from collections import Counter
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, strategies as st

from deodhar import frobenius, sweeps
from deodhar.cells import CellShape, ReducedWord, enumerate_distinguished
from deodhar.counting import (
    IntPolynomial,
    cell_count_poly,
    r_polynomial,
    schubert_cell_poly,
)
from deodhar.errors import ConfigError
from deodhar.flags import double_cell_census
from deodhar.rootdata import (
    RootSystem,
    build_root_system,
    bruhat_leq,
    reduced_words,
    word_str,
)

coeff_lists = st.lists(st.integers(-50, 50), max_size=6)


def deodhar_poly(word, v):
    """Point-count polynomial of the double cell, summed over Gamma_v.

    Zero when v is not below the word's target in Bruhat order.
    """
    out = IntPolynomial.zero()
    for gamma in enumerate_distinguished(word, v):
        out = out + cell_count_poly(gamma.cell_shape())
    return out


def test_polynomial_normalisation():
    assert IntPolynomial.from_coeffs([1, 2, 0, 0]).coeffs == (1, 2)
    assert IntPolynomial.from_coeffs([0, 0]).coeffs == ()
    assert IntPolynomial.zero().coeffs == ()
    assert IntPolynomial.q_power(3).coeffs == (0, 0, 0, 1)


@pytest.mark.parametrize("coeffs", [[0.5, 1.9], [Fraction(1, 2)], [1, True]])
def test_polynomial_coefficients_must_be_ints(coeffs):
    # int() would truncate [0.5, 1.9] to q
    with pytest.raises(ConfigError, match="coefficients must be ints"):
        IntPolynomial.from_coeffs(coeffs)


def test_polynomial_str():
    assert str(IntPolynomial.zero()) == "0"
    assert str(IntPolynomial.from_coeffs([-1, 2, -2, 1])) == "q^3 - 2q^2 + 2q - 1"
    assert str(IntPolynomial.from_coeffs([1, -1])) == "-q + 1"


@given(coeff_lists, coeff_lists, coeff_lists)
def test_polynomial_ring_axioms(a, b, c):
    pa = IntPolynomial.from_coeffs(a)
    pb = IntPolynomial.from_coeffs(b)
    pc = IntPolynomial.from_coeffs(c)
    assert pa + pb == pb + pa
    assert pa * pb == pb * pa
    assert (pa + pb) + pc == pa + (pb + pc)
    assert pa * (pb + pc) == pa * pb + pa * pc
    assert (pa - pb) + pb == pa


@given(coeff_lists, coeff_lists, st.integers(-7, 7))
def test_polynomial_evaluation_homomorphism(a, b, x):
    pa = IntPolynomial.from_coeffs(a)
    pb = IntPolynomial.from_coeffs(b)
    assert (pa * pb)(x) == pa(x) * pb(x)
    assert (pa + pb)(x) == pa(x) + pb(x)


def test_cell_count_poly():
    assert cell_count_poly(CellShape(0, 3)).coeffs == (-1, 3, -3, 1)
    assert cell_count_poly(CellShape(1, 1)).coeffs == (0, -1, 1)
    assert cell_count_poly(CellShape(0, 0)).coeffs == (1,)


def test_deodhar_poly_a2():
    rs = build_root_system("A", 2)
    word = ReducedWord.from_letters(rs, (0, 1, 0))
    e = rs.identity()
    # expand (q-1)^3 + q(q-1) independently
    q_minus_1 = IntPolynomial.from_coeffs([-1, 1])
    expected = q_minus_1 * q_minus_1 * q_minus_1 + IntPolynomial.q_power(1) * q_minus_1
    assert expected.coeffs == (-1, 2, -2, 1)
    assert deodhar_poly(word, e) == expected
    assert deodhar_poly(word, rs.longest_element()) == IntPolynomial.one()


def test_deodhar_poly_rank_one_vs_flag_count():
    rs = build_root_system("A", 1)
    word = ReducedWord.from_letters(rs, (0,))
    e, s = rs.identity(), rs.simple_reflection(0)
    poly = deodhar_poly(word, e)
    assert poly.coeffs == (-1, 1)
    for q in (2, 3, 5):
        assert poly(q) == double_cell_census(2, q)[s, e]


def test_deodhar_poly_not_comparable_is_zero():
    rs = build_root_system("A", 2)
    word = ReducedWord.from_letters(rs, (0,))
    assert deodhar_poly(word, rs.simple_reflection(1)) == IntPolynomial.zero()


def test_r_polynomial_base_cases():
    rs = build_root_system("B", 2)
    for w in rs.weyl_elements():
        assert r_polynomial(w, w) == IntPolynomial.one()
    e, s = rs.identity(), rs.simple_reflection(0)
    assert r_polynomial(e, s).coeffs == (-1, 1)
    assert r_polynomial(s, e) == IntPolynomial.zero()


def test_r_polynomial_a2_unrolled():
    # unrolling the recursion for R_{e, sts} by hand:
    #   R_{e,sts} = (q-1) R_{e,ts} + q R_{s,ts}
    #   R_{e,ts}  = (q-1) R_{e,s}  + q R_{t,s} = (q-1)^2
    #   R_{s,ts}  = (q-1) R_{s,s}  + q R_{ts,s} = q-1
    # hence (q-1)^3 + q(q-1) = q^3 - 2q^2 + 2q - 1
    rs = build_root_system("A", 2)
    e = rs.identity()
    assert r_polynomial(e, rs.longest_element()).coeffs == (-1, 2, -2, 1)


@lru_cache(maxsize=None)
def r_polynomial_largest_descent(v, w):
    """R_{v,w} by the two-case recursion on the largest left descent of w,
    summed with IntPolynomial arithmetic: no code or cache shared with
    ``r_polynomial``, which takes the smallest."""
    if v == w:
        return IntPolynomial.one()
    if not bruhat_leq(v, w):
        return IntPolynomial.zero()
    s = v.system.simple_reflection(max(w.left_descents()))
    sw, sv = s * w, s * v
    if sv.length < v.length:
        return r_polynomial_largest_descent(sv, sw)
    lower = r_polynomial_largest_descent(v, sw)
    upper = r_polynomial_largest_descent(sv, sw)
    return IntPolynomial((-1, 1)) * lower + IntPolynomial.q_power(1) * upper


@pytest.mark.parametrize(
    "type_label,rank",
    [("A", 1), ("A", 2), ("A", 3), ("A", 4), ("B", 2), ("B", 3), ("C", 2),
     ("C", 3), ("D", 4), ("G", 2)],
)
def test_r_polynomial_descent_independence(type_label, rank):
    rs = build_root_system(type_label, rank)
    for w in rs.weyl_elements():
        for v in rs.weyl_elements():
            assert r_polynomial(v, w) == r_polynomial_largest_descent(v, w)


def test_r_polynomial_on_an_uninterned_system_equals_the_interned():
    # a fresh system gets its own table, with the same values
    fresh, interned = RootSystem("B", 3), build_root_system("B", 3)
    assert fresh is not interned
    for w, w2 in zip(fresh.weyl_elements(), interned.weyl_elements()):
        for v, v2 in zip(fresh.weyl_elements(), interned.weyl_elements()):
            assert r_polynomial(v, w) == r_polynomial(v2, w2)
    with pytest.raises(ConfigError, match="share a root system"):
        r_polynomial(fresh.identity(), interned.longest_element())


@pytest.mark.parametrize("type_label,rank", [("A", 2), ("B", 2), ("G", 2)])
def test_r_polynomial_degree_and_positivity(type_label, rank):
    rs = build_root_system(type_label, rank)
    for w in rs.weyl_elements():
        for v in rs.weyl_elements():
            if bruhat_leq(v, w):
                poly = r_polynomial(v, w)
                assert len(poly.coeffs) - 1 == w.length - v.length
                assert poly.coeffs[-1] == 1
                for q in (2, 3, 4, 5):
                    assert poly(q) >= 0


@pytest.mark.parametrize("type_label,rank", [("C", 2), ("C", 3)])
def test_oracle_triangle_type_c(type_label, rank):
    # the B/C pairs share a Weyl group but exercise transposed Cartan data
    rows = list(sweeps.oracle_triangle_rows(type_label, rank))
    assert rows and all(r["match"] for r in rows)


@pytest.mark.parametrize("type_label,rank", [("A", 3), ("B", 2), ("G", 2)])
def test_oracle_triangle_rows_come_in_report_order(type_label, rank):
    # the report orders rows by (v, w, word); the sweep yields them so, unsorted
    rows = list(sweeps.oracle_triangle_rows(type_label, rank))
    assert rows == sorted(
        rows, key=lambda r: (r["parameters"]["v"], r["parameters"]["w"], r["parameters"]["word"])
    )


def test_schubert_cell_poly():
    rs = build_root_system("A", 2)
    assert schubert_cell_poly(rs.identity()) == IntPolynomial.one()
    assert schubert_cell_poly(rs.longest_element()).coeffs == (0, 0, 0, 1)
    assert sum(schubert_cell_poly(w)(2) for w in rs.weyl_elements()) == 21
    assert sum(schubert_cell_poly(w)(3) for w in rs.weyl_elements()) == 52


@pytest.mark.parametrize("type_label,rank", sweeps.RANK_LE_3_TYPES)
def test_word_tree_equals_enumeration(type_label, rank):
    # the tree walk against the enumeration route, word by word and v by v:
    # one walk per word, its cell polynomials summed by end; on rank <= 2
    # also against deodhar_poly itself, one walk per (word, v).  The tree
    # keys each end by its element index
    rs = build_root_system(type_label, rank)
    tree = sweeps.word_tree_polys(rs)
    zero = IntPolynomial.zero()
    cell_polys = {}
    words = 0
    for w in rs.weyl_elements():
        for letters in reduced_words(w):
            words += 1
            word = ReducedWord.from_letters(rs, letters)
            polys = tree[letters]
            sums = {}
            for gamma in enumerate_distinguished(word):
                shape = gamma.cell_shape()
                if shape not in cell_polys:
                    cell_polys[shape] = cell_count_poly(shape)
                x = gamma.end.index
                sums[x] = sums.get(x, zero) + cell_polys[shape]
            # no sum of cell polynomials is zero, and the tree keeps no zero
            assert polys == sums, letters
            if rank <= 2:
                for v in rs.weyl_elements():
                    assert polys.get(v.index, zero) == deodhar_poly(word, v), (letters, v)
    assert len(tree) == words
    assert sweeps.word_tree_polys(rs) is tree


@pytest.mark.parametrize("type_label,rank", sweeps.RANK_LE_3_TYPES)
def test_partition_rows_column_sum_equals_polynomial_sum(type_label, rank):
    # the sweep sums coefficient columns; IntPolynomial.__add__ is the
    # second route, over the same tree nodes
    rs = build_root_system(type_label, rank)
    tree = sweeps.word_tree_polys(rs)
    rows = list(sweeps.partition_rows(type_label, rank))
    assert [row["parameters"]["w"] for row in rows] == [
        w.word_str for w in rs.weyl_elements()
    ]
    for w, row in zip(rs.weyl_elements(), rows):
        total = IntPolynomial.zero()
        for poly in tree[w.canonical_word].values():
            total = total + poly
        assert row["lhs"] == list(total.coeffs), w


def test_partition_rows_drops_a_cancelled_top(monkeypatch):
    # a tree no walk makes: the top coefficients cancel, and the column sum
    # drops them as IntPolynomial.__add__ does
    rs = build_root_system("A", 1)
    polys = {0: IntPolynomial((0, 1, 2)), 1: IntPolynomial((1, -1, -2))}
    tree = {w.canonical_word: polys for w in rs.weyl_elements()}
    monkeypatch.setattr(sweeps, "word_tree_polys", lambda rs: tree)
    lhs = [row["lhs"] for row in sweeps.partition_rows("A", 1)]
    assert lhs == [list((polys[0] + polys[1]).coeffs)] * 2 == [[1], [1]]


@pytest.mark.parametrize(
    "type_label,rank", sweeps.RANK_LE_3_TYPES + (("A", 4), ("D", 4))
)
def test_word_tree_walks_every_reduced_word_once(type_label, rank):
    # no forced letter shifts, so only the walk itself is under test; the
    # walk is stopped at the first word longer than w0 or past the count, so
    # a walk without the prune fails instead of running on
    rs = build_root_system(type_label, rank)
    elements = rs.weyl_elements()
    walk = sweeps._word_tree(rs, [[0] * len(elements)] * rank)
    expected = None
    if (type_label, rank) != ("D", 4):
        expected = {letters for w in elements for letters in reduced_words(w)}
        for w in elements:  # the triangle's word order is the display order
            displays = [word_str(letters) for letters in reduced_words(w)]
            assert displays == sorted(displays), w
    count = {"B3": 209, "A4": 3061, "D4": 9719}.get(
        f"{type_label}{rank}", len(expected or ())
    )
    top = rs.longest_element().length
    words = []
    for letters, states in walk:
        assert len(letters) <= top, letters
        words.append(letters)
        assert len(words) <= count
        assert states.get(0, 0) >= 1  # the all-skip path ends at e
    assert len(words) == count
    assert len(set(words)) == count
    if expected is not None:
        assert set(words) == expected


def _slot_counts(v, slot):
    # {CellShape(n, m): count} of a packed walker state, read slot by slot
    counts, k, mask = {}, 0, (1 << slot) - 1
    while v:
        if v & mask:
            counts[CellShape(*divmod(k, slot))] = v & mask
        k, v = k + 1, v >> slot
    return counts


@pytest.mark.parametrize("type_label,rank", [("A", 4), ("D", 4)])
def test_word_tree_slots_do_not_carry_on_w0(type_label, rank):
    # the canonical word of w0 has the largest counts: at every end x each
    # slot holds the number of cells of its shape in Gamma_x, and the digit
    # sum read by % is |Gamma_x|
    rs = build_root_system(type_label, rank)
    elements = rs.weyl_elements()
    slot = len(rs.positive_roots) + 1
    word = ReducedWord.from_letters(rs, rs.longest_element().canonical_word)
    walk = sweeps._word_tree(rs, [[slot * slot] * len(elements)] * rank)
    states = next(states for letters, states in walk if letters == word.letters)
    assert len(states) == len(elements)  # every x is below w0
    for x, v in states.items():
        gamma_x = enumerate_distinguished(word, elements[x])
        assert v % ((1 << slot) - 1) == len(gamma_x), x
        assert _slot_counts(v, slot) == Counter(g.cell_shape() for g in gamma_x), x


def _vanishing_shifts(rs):
    # word_tree_vanishing's forced_shift: (N+1)^2 bits for a witnessing letter
    slot = len(rs.positive_roots) + 1
    return [
        [slot * slot if simple else 0 for simple in row]
        for row in frobenius._w0_image_simple(rs)
    ]


@pytest.mark.parametrize("type_label,rank", [("A", 4), ("D", 4)])
def test_word_tree_vanishing_digit_sums_are_slot_sums(type_label, rank):
    # word_tree_vanishing reads Gamma_e's counts by %, against the same walk
    # read slot by slot on every node: a witnessing letter shifts n + 1
    rs = build_root_system(type_label, rank)
    slot = len(rs.positive_roots) + 1
    digits = (1 << slot) - 1
    shifts = _vanishing_shifts(rs)
    tree = sweeps.word_tree_vanishing(rs)
    nodes = 0
    for letters, states in sweeps._word_tree(rs, shifts):
        nodes += 1
        v = states[0]
        counts = _slot_counts(v, slot)
        total = sum(counts.values())
        witnessed = sum(c for shape, c in counts.items() if shape.n_affine)
        all_skip = counts.get(CellShape(0, len(letters)), 0)
        assert (v % digits, (v >> slot * slot) % digits) == (total, witnessed)
        assert tree[letters][:3] == (witnessed, total - all_skip, all_skip), letters
    assert nodes == len(tree)


@pytest.mark.parametrize(
    "type_label,rank", sweeps.RANK_LE_3_TYPES + (("A", 4),)
)
def test_word_tree_to_e_drops_only_states_that_cannot_reach_e(type_label, rank):
    # node by node, the walk word_tree_vanishing runs keeps exactly the
    # states of the full walk no longer than the letters left below the
    # node, so its state at e is the full walk's
    rs = build_root_system(type_label, rank)
    slot = len(rs.positive_roots) + 1
    shifts = _vanishing_shifts(rs)
    pruned = list(sweeps._word_tree(rs, shifts, only_e=True))
    full = list(sweeps._word_tree(rs, shifts))
    assert len(pruned) == len(full)
    for (letters, states), (full_letters, full_states) in zip(pruned, full):
        assert letters == full_letters
        assert states[0] == full_states[0]
        room = slot - 1 - len(letters)
        kept = {x: v for x, v in full_states.items() if rs._lengths[x] <= room}
        assert states == kept, letters


def test_word_tree_corrupted_length_trips_j_check():
    # a fresh system, so the interned one and its tables are never touched
    rs = RootSystem("A", 2)
    lengths = list(rs._lengths)
    s = rs.simple_reflection(0).index
    lengths[s] = 0  # now l(s * s) < l(s) fails although s is a right descent of s
    rs._lengths = tuple(lengths)
    cached = sweeps.word_tree_polys.cache_info().currsize
    for _ in range(2):  # nothing was cached, so the check runs again
        with pytest.raises(AssertionError, match="descent and root-sign"):
            sweeps.word_tree_polys(rs)
    assert sweeps.word_tree_polys.cache_info().currsize == cached
    assert build_root_system("A", 2)._lengths[s] == 1
    assert len(sweeps.word_tree_polys(RootSystem("A", 2))) == 7
