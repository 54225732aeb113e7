"""Root system and Weyl group arithmetic, checked against exhaustive oracles."""

import pytest
from hypothesis import given, strategies as st

from deodhar import rootdata
from deodhar.errors import ConfigError
from deodhar.rootdata import (
    RootSystem,
    build_root_system,
    bruhat_leq,
    reduced_words,
    word_str,
)

ALL_TYPES = [
    ("A", 1),
    ("A", 2),
    ("A", 3),
    ("A", 4),
    ("B", 2),
    ("B", 3),
    ("C", 2),
    ("C", 3),
    ("D", 4),
    ("G", 2),
]
SMALL_TYPES = [("A", 1), ("A", 2), ("B", 2), ("G", 2), ("A", 3)]
RANK3_TYPES = [("A", 1), ("A", 2), ("A", 3), ("B", 2), ("B", 3), ("C", 2), ("C", 3), ("G", 2)]

ROOT_COUNTS = {
    ("A", 1): 2,
    ("A", 2): 6,
    ("A", 3): 12,
    ("A", 4): 20,
    ("B", 2): 8,
    ("B", 3): 18,
    ("C", 2): 8,
    ("C", 3): 18,
    ("D", 4): 24,
    ("G", 2): 12,
}

WEYL_ORDERS = {
    ("A", 1): 2,
    ("A", 2): 6,
    ("A", 3): 24,
    ("A", 4): 120,
    ("B", 2): 8,
    ("B", 3): 48,
    ("C", 2): 8,
    ("C", 3): 48,
    ("D", 4): 192,
    ("G", 2): 12,
}


def _sample_pairs(elements, count=60):
    n = len(elements)
    return [(elements[(7 * i + 3) % n], elements[(11 * i + 5) % n]) for i in range(count)]


@pytest.mark.parametrize("type_label,rank", ALL_TYPES)
def test_root_counts(type_label, rank):
    rs = build_root_system(type_label, rank)
    assert len(rs.roots) == ROOT_COUNTS[(type_label, rank)]
    assert len(rs.positive_roots) == len(rs.roots) // 2


@pytest.mark.parametrize("type_label,rank", ALL_TYPES)
def test_weyl_group_order(type_label, rank):
    rs = build_root_system(type_label, rank)
    elements = rs.weyl_elements()
    assert len(elements) == len(set(elements)) == WEYL_ORDERS[(type_label, rank)]
    assert [w.index for w in elements] == list(range(len(elements)))
    keys = [(w.length, w.canonical_word) for w in elements]
    assert keys == sorted(keys)
    assert elements[0] == rs.identity() and rs.identity().is_identity
    assert elements[-1] == rs.longest_element()
    assert rs.longest_element().length == len(rs.positive_roots)


@pytest.mark.parametrize("type_label,rank", ALL_TYPES)
def test_product_acts_as_composition(type_label, rank):
    rs = build_root_system(type_label, rank)
    for x, y in _sample_pairs(rs.weyl_elements()):
        for r in rs.roots:
            assert (x * y).act(r) == x.act(y.act(r))


@pytest.mark.parametrize("type_label,rank", ALL_TYPES)
def test_tables_agree_with_action(type_label, rank):
    """Length, descents and inverse, recomputed from the action on roots."""
    rs = build_root_system(type_label, rank)
    for w in rs.weyl_elements():
        inversions = sum(1 for r in rs.positive_roots if not rs.is_positive(w.act(r)))
        assert w.length == inversions
        winv = w.inverse()
        assert {winv.act(w.act(r)) for r in rs.roots} == set(rs.roots)
        assert all(winv.act(w.act(r)) == r for r in rs.roots)
        assert rs._right_descents[w.index] == {
            i for i, a in enumerate(rs.simple_roots) if not rs.is_positive(w.act(a))
        }
        assert w.left_descents() == {
            i for i, a in enumerate(rs.simple_roots) if not rs.is_positive(winv.act(a))
        }


@pytest.mark.parametrize("type_label,rank", ALL_TYPES)
def test_act_rejects_non_roots(type_label, rank):
    rs = build_root_system(type_label, rank)
    w = rs.longest_element()
    with pytest.raises(ConfigError):
        w.act((0,) * rank)
    with pytest.raises(ConfigError):
        w.act(tuple(2 * c for c in rs.simple_roots[0]))


@pytest.mark.parametrize("type_label,rank", ALL_TYPES)
def test_root_sign_invariants(type_label, rank):
    rs = build_root_system(type_label, rank)
    for r in rs.roots:
        assert all(c >= 0 for c in r) or all(c <= 0 for c in r)
        assert tuple(-c for c in r) in set(rs.roots)


@pytest.mark.parametrize("type_label,rank", ALL_TYPES)
def test_simple_reflection_permutes_other_positives(type_label, rank):
    rs = build_root_system(type_label, rank)
    for i in range(rs.rank):
        s = rs.simple_reflection(i)
        others = set(rs.positive_roots) - {rs.simple_roots[i]}
        assert {s.act(r) for r in others} == others
        assert s.act(rs.simple_roots[i]) == tuple(-c for c in rs.simple_roots[i])


def test_unsupported_configurations():
    with pytest.raises(ConfigError):
        build_root_system("A", 5)
    with pytest.raises(ConfigError):
        build_root_system("E", 6)
    with pytest.raises(ConfigError):
        build_root_system("D", 3)
    # the interning key is the label as passed, so "a" would build a second A2
    with pytest.raises(ConfigError, match="unsupported root system a2"):
        build_root_system("a", 2)


@pytest.mark.parametrize("text", ["", "st"])
def test_letter_index_takes_exactly_one_letter(text):
    # LETTERS.find would read "" as s and "st" as s
    rs = build_root_system("A", 3)
    with pytest.raises(ConfigError, match=f"letter {text!r} is not a simple"):
        rs.letter_index(text)


def test_simple_reflection_examples():
    rs = build_root_system("A", 2)
    s, t = rs.simple_reflection(0), rs.simple_reflection(1)
    assert (s * s).is_identity
    # apply the Cartan row: s(alpha_t) = alpha_t + alpha_s
    assert s.act(rs.simple_roots[1]) == (1, 1)


def test_group_laws():
    rs = build_root_system("A", 2)
    e = rs.identity()
    s, t = rs.simple_reflection(0), rs.simple_reflection(1)
    w = s * t
    assert e * w == w
    assert (s * t).inverse() == t * s
    sts = s * t * s
    assert sts.length == 3 == len(rs.positive_roots)
    for u in rs.weyl_elements():
        assert (u * u.inverse()).is_identity


def test_lengths():
    rs = build_root_system("A", 2)
    s, t = rs.simple_reflection(0), rs.simple_reflection(1)
    assert rs.identity().length == 0
    assert (s * t).length == 2
    assert rs.longest_element().length == 3
    # count inversions directly as an independent check
    st_ = s * t
    inv = sum(1 for r in rs.positive_roots if not rs.is_positive(st_.act(r)))
    assert inv == 2


@pytest.mark.parametrize("type_label,rank", ALL_TYPES)
def test_length_symmetries(type_label, rank):
    rs = build_root_system(type_label, rank)
    w0 = rs.longest_element()
    for w in rs.weyl_elements():
        assert w.length == w.inverse().length
        assert (w0 * w).length == w0.length - w.length


def test_longest_element():
    a1 = build_root_system("A", 1)
    assert a1.longest_element() == a1.simple_reflection(0)
    rs = build_root_system("A", 2)
    s, t = rs.simple_reflection(0), rs.simple_reflection(1)
    w0 = rs.longest_element()
    assert w0 == s * t * s == t * s * t
    assert (w0 * w0).is_identity
    # needed downstream: w0 swaps the two simple roots up to sign
    assert w0.act(rs.simple_roots[0]) == (0, -1)
    assert {w0.act(r) for r in rs.positive_roots} == {
        tuple(-c for c in r) for r in rs.positive_roots
    }


def test_reduced_words_of_longest_element():
    rs = build_root_system("A", 2)
    assert reduced_words(rs.longest_element()) == ((0, 1, 0), (1, 0, 1))


def test_canonical_word_is_least_reduced_word():
    for type_label, rank in SMALL_TYPES:
        rs = build_root_system(type_label, rank)
        for w in rs.weyl_elements():
            words = reduced_words(w)
            assert w.canonical_word == min(words)


@pytest.mark.parametrize("type_label,rank", ALL_TYPES)
def test_word_str_reads_the_canonical_word(type_label, rank):
    for w in build_root_system(type_label, rank).weyl_elements():
        assert w.word_str == word_str(w.canonical_word)
    assert build_root_system(type_label, rank).identity().word_str == "e"


def test_element_names_built_on_first_use():
    before = rootdata._word_names.cache_info()
    rs = RootSystem("B", 2)  # not interned, so its names are new
    # construction builds no names
    assert rootdata._word_names.cache_info() == before
    assert rs.longest_element().word_str == "stst"
    assert [w.word_str for w in rs.weyl_elements()][:3] == ["e", "s", "t"]
    after = rootdata._word_names.cache_info()
    assert after.misses == before.misses + 1
    assert after.hits == before.hits + 8


def test_descents_nonempty_iff_nonidentity():
    rs = build_root_system("B", 2)
    for w in rs.weyl_elements():
        assert bool(w.left_descents()) == (not w.is_identity)
        assert bool(rs._right_descents[w.index]) == (not w.is_identity)


def test_bruhat_basics():
    rs = build_root_system("A", 2)
    e = rs.identity()
    s, t = rs.simple_reflection(0), rs.simple_reflection(1)
    for w in rs.weyl_elements():
        assert bruhat_leq(e, w)
    assert not bruhat_leq(s * t * s, s * t)
    assert bruhat_leq(s, s * t)
    assert not bruhat_leq(s, t)


def _subword_products(rs, letters):
    """Elements obtained as reduced subwords of `letters`, by prefix-sharing DFS.

    Unreduced prefixes are pruned: a subword that stops tracking its own
    letter count can never recover minimal length.
    """
    out = set()

    def rec(i, element, used):
        if element.length != used:
            return
        if i == len(letters):
            out.add(element)
            return
        rec(i + 1, element, used)
        rec(i + 1, element * rs.simple_reflection(letters[i]), used + 1)

    rec(0, rs.identity(), 0)
    return out


@pytest.mark.parametrize("type_label,rank", RANK3_TYPES)
def test_bruhat_subword_property_word_independent(type_label, rank):
    """v <= w iff ANY reduced word of w has a reduced subword multiplying to v."""
    rs = build_root_system(type_label, rank)
    elements = rs.weyl_elements()
    for w in elements:
        expected = {v for v in elements if bruhat_leq(v, w)}
        for letters in reduced_words(w):
            assert _subword_products(rs, letters) == expected


@pytest.mark.parametrize("type_label,rank", [("A", 4), ("D", 4)])
def test_bruhat_subword_property_rank4(type_label, rank):
    """v <= w iff the canonical word of w has a reduced subword multiplying to v."""
    rs = build_root_system(type_label, rank)
    elements = rs.weyl_elements()
    for w in elements:
        expected = {v for v in elements if bruhat_leq(v, w)}
        assert _subword_products(rs, w.canonical_word) == expected


def test_poincare_counts_a2():
    rs = build_root_system("A", 2)
    hist = {}
    for w in rs.weyl_elements():
        hist[w.length] = hist.get(w.length, 0) + 1
    assert [hist.get(i, 0) for i in range(4)] == [1, 2, 2, 1]


def test_mismatched_systems_rejected():
    a2 = build_root_system("A", 2)
    b2 = build_root_system("B", 2)
    with pytest.raises(ConfigError):
        a2.simple_reflection(0) * b2.simple_reflection(0)


def test_weyl_element_hashes_differ_across_systems():
    # module-level caches keyed by Weyl elements (rootdata.reduced_words) hold
    # elements of every system at once
    elements = [
        w
        for type_label, rank in (("A", 3), ("B", 3), ("C", 3))
        for w in build_root_system(type_label, rank).weyl_elements()
    ]
    assert len(elements) == 24 + 48 + 48
    assert len({hash(w) for w in elements}) == len(elements)


@given(
    st.sampled_from(SMALL_TYPES),
    st.lists(st.integers(0, 3), max_size=8),
)
def test_element_roundtrip_properties(type_rank, letters):
    rs = build_root_system(*type_rank)
    letters = [i % rs.rank for i in letters]
    w = rs.element_from_word(letters)
    assert w.length <= len(letters)
    assert (w * w.inverse()).is_identity
    assert rs.element_from_word(w.canonical_word) == w
    # the action permutes the root set
    assert {w.act(r) for r in rs.roots} == set(rs.roots)
