"""Subexpression combinatorics against hand-computed and exhaustive oracles."""

import itertools
from collections import Counter

import pytest
from hypothesis import given, strategies as st

from deodhar import cells
from deodhar.cells import (
    _forced_letters,
    _walk,
    CellShape,
    ReducedWord,
    Subexpression,
    enumerate_distinguished,
    filtration,
    preceq,
)
from deodhar.errors import ConfigError, EmptyCellError, NotComparableError
from deodhar.rootdata import RootSystem, build_root_system, bruhat_leq, reduced_words
from deodhar.sweeps import RANK_LE_3_TYPES

SMALL_TYPES = [("A", 1), ("A", 2), ("B", 2), ("G", 2), ("A", 3)]


def _a2_word():
    rs = build_root_system("A", 2)
    return rs, ReducedWord.from_letters(rs, (0, 1, 0))


def test_reduced_word_validation():
    rs = build_root_system("A", 2)
    with pytest.raises(ConfigError) as err:
        ReducedWord.from_letters(rs, (0, 0, 1))
    assert "not reduced" in str(err.value)
    assert ReducedWord.from_letters(rs, ()).target.is_identity


def test_subexpression_counts():
    rs, word = _a2_word()
    assert len(_walk(word, prune=False)) == 8
    assert len(_walk(ReducedWord.from_letters(rs, (0,)), prune=False)) == 2
    assert len(_walk(ReducedWord.from_letters(rs, ()), prune=False)) == 1


def test_partial_products_consistency():
    rs, word = _a2_word()
    for gamma in _walk(word, prune=False):
        for i in range(1, word.r + 1):
            step = gamma.partials[i - 1]
            if gamma.bits[i - 1]:
                step = step * rs.simple_reflection(word.letters[i - 1])
            assert gamma.partials[i] == step
        assert gamma.end == gamma.partials[-1]


def test_index_sets_examples():
    rs, word = _a2_word()
    empty = Subexpression(word, (0, 0, 0))
    assert (empty.I, empty.J) == (frozenset(), frozenset())
    full = Subexpression(word, (1, 1, 1))
    assert full.I == full.J == frozenset({1, 2, 3})
    mixed = Subexpression(word, (1, 0, 1))
    assert mixed.I == frozenset({1, 3})
    assert mixed.J == frozenset({1})
    # the twisted roots behind that J: (alpha_s, -alpha_s-alpha_t, -alpha_s)
    assert mixed.tilde_betas == ((1, 0), (-1, -1), (-1, 0))


def test_distinguished_census_a2():
    rs, word = _a2_word()
    all_gammas = _walk(word, prune=False)
    non_dist = [g for g in all_gammas if not g.is_distinguished]
    assert [g.bits for g in non_dist] == [(1, 0, 0)]
    assert non_dist[0].violation_index() == 3
    assert sum(1 for g in all_gammas if g.is_distinguished) == 7
    assert Subexpression(word, (0, 0, 0)).is_distinguished
    # both characterisations agree everywhere
    for g in all_gammas:
        assert (g.violation_index() is None) == (g.J <= g.I)



@pytest.mark.parametrize("type_label, rank", SMALL_TYPES)
def test_forced_letters_match_length_descents(type_label, rank):
    # J and the first violation, recomputed from l(x s) < l(x) by multiplying
    rs = build_root_system(type_label, rank)
    word = ReducedWord.from_letters(rs, rs.longest_element().canonical_word)
    for gamma in _walk(word, prune=False):
        j, skipped = set(), []
        for i, letter in enumerate(word.letters):
            s = rs.simple_reflection(letter)
            prev, x = gamma.partials[i], gamma.partials[i + 1]
            if (x * s).length < x.length:
                j.add(i + 1)
            if not gamma.bits[i] and (prev * s).length < prev.length:
                skipped.append(i + 1)
        assert gamma.J == j
        assert gamma.violation_index() == min(skipped, default=None)


def test_corrupted_length_trips_forced_letter_check():
    # a fresh system, so the interned one and its tables are never touched
    rs = RootSystem("A", 2)
    lengths = list(rs._lengths)
    s = rs.simple_reflection(0).index
    lengths[s] = 0  # now l(s * s) < l(s) fails although s is a right descent of s
    rs._lengths = tuple(lengths)
    word = ReducedWord.from_letters(rs, (1, 0))
    cached = _forced_letters.cache_info().currsize
    for _ in range(2):  # nothing was cached, so the check runs again
        with pytest.raises(AssertionError, match="descent and root-sign"):
            enumerate_distinguished(word)
    assert _forced_letters.cache_info().currsize == cached
    assert build_root_system("A", 2)._lengths[s] == 1

def test_enumerate_distinguished():
    rs, word = _a2_word()
    e, w0 = rs.identity(), rs.longest_element()
    gamma_e = enumerate_distinguished(word, e)
    assert [g.bits for g in gamma_e] == [(0, 0, 0), (1, 0, 1)]
    assert [g.bits for g in enumerate_distinguished(word, w0)] == [(1, 1, 1)]
    short = ReducedWord.from_letters(rs, (0,))
    assert enumerate_distinguished(short, rs.simple_reflection(1)) == []
    # pruned enumeration agrees with filtering the full enumeration
    for type_label, rank in SMALL_TYPES:
        sys2 = build_root_system(type_label, rank)
        w = sys2.longest_element()
        word2 = ReducedWord.from_letters(sys2, w.canonical_word)
        pruned = {g.bits for g in enumerate_distinguished(word2)}
        full = {g.bits for g in _walk(word2, prune=False) if g.is_distinguished}
        assert pruned == full


def test_cell_shapes():
    rs, word = _a2_word()
    assert Subexpression(word, (0, 0, 0)).cell_shape() == CellShape(0, 3)
    assert Subexpression(word, (1, 0, 1)).cell_shape() == CellShape(1, 1)
    assert Subexpression(word, (1, 1, 1)).cell_shape() == CellShape(0, 0)
    with pytest.raises(EmptyCellError):
        Subexpression(word, (1, 0, 0)).cell_shape()


def test_phi_gamma_examples():
    rs, word = _a2_word()
    a_s, a_t = (1, 0), (0, 1)

    def neg(v):
        return tuple(-c for c in v)

    def phi_roots(g):
        # the twisted roots at the positions outside J, in order
        return tuple(b for i, b in enumerate(g.tilde_betas, 1) if i not in g.J)

    assert phi_roots(Subexpression(word, (0, 0, 0))) == (neg(a_s), neg(a_t), neg(a_s))
    assert phi_roots(Subexpression(word, (1, 0, 1))) == ((-1, -1), neg(a_s))
    assert phi_roots(Subexpression(word, (1, 1, 1))) == ()
    for g in _walk(word, prune=False):
        assert len(phi_roots(g)) == word.r - len(g.J)


def test_preceq():
    rs, word = _a2_word()
    top = Subexpression(word, (0, 0, 0))
    mixed = Subexpression(word, (1, 0, 1))
    for g in _walk(word, prune=False):
        assert preceq(g, top)
        assert preceq(g, g)
    assert not preceq(top, mixed)
    other_word = ReducedWord.from_letters(rs, (1, 0, 1))
    with pytest.raises(ConfigError):
        preceq(Subexpression(other_word, (0, 0, 0)), top)


def test_subexpression_rejects_bits_that_are_not_integers():
    _, word = _a2_word()
    with pytest.raises(ConfigError, match="0/1 vector"):
        Subexpression(word, (0.5, 1, 1.9))
    with pytest.raises(ConfigError, match="0/1 vector"):
        Subexpression(word, (0, 1.0, 0))
    assert Subexpression(word, (True, False, True)).bits == (1, 0, 1)


def test_preceq_is_a_partial_order():
    rs = build_root_system("B", 2)
    word = ReducedWord.from_letters(rs, rs.longest_element().canonical_word)
    gammas = _walk(word, prune=False)
    for a in gammas:
        for b in gammas:
            if preceq(a, b) and preceq(b, a):
                assert a == b
            for c in gammas:
                if preceq(a, b) and preceq(b, c):
                    assert preceq(a, c)


def test_filtration_examples():
    rs, word = _a2_word()
    e = rs.identity()
    order = filtration(word, e)
    assert [g.bits for g in order] == [(0, 0, 0), (1, 0, 1)]
    assert len(filtration(word, rs.longest_element())) == 1
    with pytest.raises(NotComparableError):
        filtration(ReducedWord.from_letters(rs, (0,)), rs.simple_reflection(1))


def test_filtration_is_not_a_sort_by_dimension():
    # The closure preorder is not graded by dimension.  In Gamma_tu of this A4
    # word a 6-dimensional cell lies below a 5-dimensional one, so the
    # filtration puts it after; a sort on (-dimension, bits) would not.
    rs = build_root_system("A", 4)
    word = ReducedWord.from_letters(rs, rs.parse_word("tuvutstuv"))
    order = filtration(word, rs.element_from_word(rs.parse_word("tu")))
    shown = [g.display for g in order]
    assert shown == [
        "(1,1,1,1,1,1,t,u,1)",
        "(1,u,1,u,1,1,t,u,1)",
        "(t,1,1,1,t,1,t,u,1)",
        "(t,u,1,u,t,1,t,u,1)",
        "(t,u,v,1,1,1,1,1,v)",
        "(t,u,v,1,t,1,t,1,v)",
        "(t,u,v,u,1,1,1,u,v)",
        "(t,u,v,u,t,1,t,u,v)",
    ]
    high, low = order[3], order[4]
    assert high.cell_shape().dimension == 5 and low.cell_shape().dimension == 6
    assert preceq(low, high) and not preceq(high, low)
    by_dimension = sorted(order, key=lambda g: (-g.cell_shape().dimension, g.bits))
    assert by_dimension.index(low) < by_dimension.index(high)


@pytest.mark.parametrize("type_label,rank", SMALL_TYPES)
def test_filtration_refines_closure_order(type_label, rank):
    rs = build_root_system(type_label, rank)
    w0 = rs.longest_element()
    word = ReducedWord.from_letters(rs, w0.canonical_word)
    for v in rs.weyl_elements():
        order = list(filtration(word, v))
        # the one I = J subexpression comes first
        assert [g for g in order if g.I == g.J] == order[:1]
        for i, gamma in enumerate(order):
            for j in range(i + 1, len(order)):
                # nothing later may lie strictly above an earlier element
                assert not (order[j] != gamma and preceq(gamma, order[j]))


@pytest.mark.parametrize("type_label,rank", SMALL_TYPES)
def test_word_independence_of_cell_data(type_label, rank):
    """Cell counts and shape multisets agree across all reduced words of w."""
    rs = build_root_system(type_label, rank)
    for w in rs.weyl_elements():
        reference = None
        for letters in reduced_words(w):
            word = ReducedWord.from_letters(rs, letters)
            data = {}
            for g in enumerate_distinguished(word):
                data.setdefault(g.end, Counter())[g.cell_shape()] += 1
            if reference is None:
                reference = data
            else:
                assert data == reference


@pytest.mark.parametrize("type_label,rank", SMALL_TYPES)
def test_gamma_v_empty_iff_not_below(type_label, rank):
    rs = build_root_system(type_label, rank)
    w0 = rs.longest_element()
    for w in rs.weyl_elements():
        word = ReducedWord.from_letters(rs, w.canonical_word)
        ends = {g.end for g in enumerate_distinguished(word)}
        for v in rs.weyl_elements():
            assert (v in ends) == bruhat_leq(v, w)


@given(st.data())
def test_subexpression_properties(data):
    type_label, rank = data.draw(st.sampled_from(SMALL_TYPES))
    rs = build_root_system(type_label, rank)
    letters = data.draw(st.lists(st.integers(0, rank - 1), max_size=6))
    w = rs.element_from_word(letters)
    word = ReducedWord.from_letters(rs, w.canonical_word)
    bits = data.draw(
        st.lists(st.integers(0, 1), min_size=word.r, max_size=word.r)
    )
    gamma = Subexpression(word, bits)
    # J via root signs equals J via descents (asserted internally); check the
    # defining property once more through public data
    for i in range(word.r):
        positive = rs.is_positive(gamma.tilde_betas[i])
        assert ((i + 1) in gamma.J) == positive
        beta_i = rs.simple_roots[word.letters[i]]
        neg_beta = tuple(-c for c in beta_i)
        assert gamma.tilde_betas[i] == gamma.partials[i + 1].act(neg_beta)
    if gamma.is_distinguished:
        shape = gamma.cell_shape()
        bound = w.length - gamma.end.length
        assert shape.dimension <= bound
        assert (shape.dimension == bound) == (gamma.I == gamma.J)
        assert shape.n_affine + shape.m_torus == word.r - len(gamma.J)


def _bits(subs) -> list:
    return [g.bits for g in subs]


def _bits_by_end(subs) -> dict:
    """{v: the bits of the subexpressions ending at v, in their order}."""
    out: dict = {}
    for g in subs:
        out.setdefault(g.end, []).append(g.bits)
    return out


# B3 and C3 are left out: their 209 reduced words by 48 ends each took over
# 5 s, and test_word_tree_vanishing_equals_enumeration checks the end filter
# at e on every reduced word of every rank-3 system
@pytest.mark.parametrize(
    "type_label, rank", [("A", 1), ("A", 2), ("A", 3), ("B", 2), ("C", 2), ("G", 2)]
)
def test_end_pruned_walks_equal_the_filtered_walks(type_label, rank):
    # every reduced word and every v: the walks restricted to an end keep
    # exactly the leaves of the full walks that end there, in their order
    rs = build_root_system(type_label, rank)
    elements = rs.weyl_elements()
    for w in elements:
        for letters in reduced_words(w):
            word = ReducedWord.from_letters(rs, letters)
            dist = _bits_by_end(enumerate_distinguished(word))
            every = _bits_by_end(_walk(word, prune=False))
            for v in elements:
                assert _bits(enumerate_distinguished(word, v)) == dist.get(v, [])
                assert _bits(_walk(word, prune=False, end=v)) == every.get(v, [])


@pytest.mark.parametrize("type_label, rank", [("A", 4), ("D", 4)])
def test_end_pruned_walk_at_identity_on_rank_four(type_label, rank):
    rs = build_root_system(type_label, rank)
    e = rs.identity()
    for w in rs.weyl_elements():
        word = ReducedWord.from_letters(rs, w.canonical_word)
        assert _bits(enumerate_distinguished(word, e)) == _bits(
            g for g in enumerate_distinguished(word) if g.end == e
        )


@pytest.mark.parametrize("type_label, rank", RANK_LE_3_TYPES)
def test_table_built_subexpression_equals_products_and_action(type_label, rank):
    rs = build_root_system(type_label, rank)
    for w in rs.weyl_elements():
        word = ReducedWord.from_letters(rs, w.canonical_word)
        for bits in itertools.product((0, 1), repeat=word.r):
            gamma = Subexpression(word, bits)
            parts = [rs.identity()]
            for letter, b in zip(word.letters, bits):
                parts.append(parts[-1] * rs.simple_reflection(letter) if b else parts[-1])
            betas = tuple(
                parts[i + 1].act(tuple(-c for c in rs.simple_roots[word.letters[i]]))
                for i in range(word.r)
            )
            assert gamma.partials == tuple(parts)
            assert gamma.end == parts[-1]
            assert gamma.tilde_betas == betas
            assert gamma.I == {i + 1 for i, b in enumerate(bits) if b}
            assert gamma.J == {i + 1 for i, beta in enumerate(betas) if rs.is_positive(beta)}


def test_flipped_forced_letter_trips_the_subexpression_j_check(monkeypatch):
    rs, word = _a2_word()
    table = [list(row) for row in _forced_letters(rs)]
    s = rs.simple_reflection(0).index
    table[0][s] = not table[0][s]  # s is a right descent of s: forced, now not
    flipped = tuple(map(tuple, table))
    monkeypatch.setattr(cells, "_forced_letters", lambda system: flipped)
    with pytest.raises(AssertionError, match="descent and root-sign"):
        Subexpression(word, (1, 0, 0))
