"""Twist data, cell invariants, Artin-Schreier models and predictions."""

import pytest

from deodhar import frobenius, sweeps
from deodhar.cells import ReducedWord, Subexpression, enumerate_distinguished
from deodhar.errors import ConfigError, EmptyCellError, PreconditionError
from deodhar.frobenius import (
    CellInvariants,
    RegularCharacter,
    _prediction_from_invariants,
    _w0_image_simple,
    cell_invariants,
    diagram_automorphisms,
    is_regular,
    orbit_data,
    quotient_model,
    theorem_table,
    vanishing_witness,
    xq_point_count,
    yqs_point_count,
)
from deodhar.gf import field
from deodhar.rootdata import RootSystem, build_root_system, reduced_words

RANK3_TYPES = [("A", 1), ("A", 2), ("A", 3), ("B", 2), ("B", 3), ("C", 2), ("C", 3), ("G", 2)]


def _split_a2(q=2):
    rs = build_root_system("A", 2)
    return rs, orbit_data(rs, q)


def test_orbit_data_split():
    rs, od = _split_a2()
    assert od.orbits == ((0,), (1,))
    assert od.d(0) == od.d(1) == 1
    assert od.q_alpha(0) == od.q_alpha(1) == 2


def test_orbit_data_twisted_a2():
    rs = build_root_system("A", 2)
    od = orbit_data(rs, 2, (1, 0))
    assert od.orbits == ((0, 1),)
    assert od.d(0) == od.d(1) == 2
    assert od.q_alpha(0) == 4


def test_orbit_data_d4_triality():
    rs = build_root_system("D", 4)
    phi = (2, 1, 3, 0)  # 3-cycle on the outer nodes, fixing the branch node
    od = orbit_data(rs, 2, phi)
    assert sorted(len(o) for o in od.orbits) == [1, 3]
    assert {od.q_alpha(rep) for rep in od.representatives} == {2, 8}


@pytest.mark.parametrize("phi", [None, (1, 0)])
def test_orbit_lookups_reject_indices_outside_the_rank(phi):
    rs = build_root_system("A", 2)
    od = orbit_data(rs, 2, phi)
    with pytest.raises(ConfigError, match="-1 is not a simple index"):
        od.orbit_of(-1)
    with pytest.raises(ConfigError, match="2 is not a simple index"):
        od.d(rs.rank)
    with pytest.raises(ConfigError, match="-1 is not a simple index"):
        od.q_alpha(-1)


def test_twist_validation():
    rs = build_root_system("B", 2)
    with pytest.raises(ConfigError, match="preserve the Cartan matrix"):
        orbit_data(rs, 2, (1, 0))  # swaps long and short
    with pytest.raises(ConfigError, match="not a permutation"):
        orbit_data(rs, 2, (0, 0))
    # checked in order: q a prime power, phi a permutation, phi of full rank
    with pytest.raises(ConfigError, match="field order 6"):
        orbit_data(rs, 6, (0, 0))
    with pytest.raises(ConfigError, match="rank does not match"):
        orbit_data(rs, 2, (0,))


def test_diagram_automorphism_counts():
    expected = {
        ("A", 1): 1,
        ("A", 2): 2,
        ("A", 3): 2,
        ("B", 2): 1,
        ("B", 3): 1,
        ("C", 2): 1,
        ("C", 3): 1,
        ("G", 2): 1,
        ("D", 4): 6,
    }
    for (type_label, rank), count in expected.items():
        rs = build_root_system(type_label, rank)
        assert len(diagram_automorphisms(rs)) == count


def test_vanishing_witness_examples():
    rs = build_root_system("A", 2)
    assert vanishing_witness(rs.identity()) == 0
    assert vanishing_witness(rs.longest_element()) is None
    st_ = rs.element_from_word((0, 1))
    witness = vanishing_witness(st_)
    assert witness is not None
    assert rs.is_positive(st_.inverse().act(rs.simple_roots[witness]))


@pytest.mark.parametrize("type_label,rank", RANK3_TYPES)
def test_vanishing_witness_iff_not_longest(type_label, rank):
    rs = build_root_system(type_label, rank)
    w0 = rs.longest_element()
    for x in rs.weyl_elements():
        witness = vanishing_witness(x)
        assert (witness is None) == (x == w0)
        if witness is not None:
            assert rs.is_positive(x.inverse().act(rs.simple_roots[witness]))


def test_witness_rows_check_the_descent_table_against_the_action(monkeypatch):
    # a fresh A2 whose table says s has no left descent: alpha_s, the witness
    # read off it, is sent to a negative root by s^{-1} = s
    rs = RootSystem("A", 2)
    s = rs.simple_reflection(0).index
    rs._left_descents = tuple(
        frozenset() if k == s else d for k, d in enumerate(rs._left_descents)
    )
    monkeypatch.setattr(
        sweeps,
        "build_root_system",
        lambda t, r: rs if (t, r) == ("A", 2) else build_root_system(t, r),
    )
    valid = {
        row["parameters"]["x"]: row["lhs"][1]
        for row in sweeps.witness_rows(2)
        if row["parameters"]["type"] == "A" and row["parameters"]["rank"] == 2
    }
    assert valid.pop("s") is False
    assert all(valid.values())


def test_cell_invariants_examples():
    rs, od = _split_a2()
    word = ReducedWord.from_letters(rs, (0, 1, 0))
    inv = cell_invariants(Subexpression(word, (1, 0, 1)), od)
    assert inv.n == {0: 0, 1: 1}
    assert inv.m == {0: 0, 1: 0}
    assert (inv.n_bar, inv.m_bar) == (0, 1)

    inv0 = cell_invariants(Subexpression(word, (0, 0, 0)), od)
    assert inv0.n == {0: 0, 1: 0}
    assert inv0.m == {0: 1, 1: 2}
    assert (inv0.n_bar, inv0.m_bar) == (0, 0)

    full = cell_invariants(Subexpression(word, (1, 1, 1)), od)
    assert full.n == {0: 0, 1: 0}
    assert full.m == {0: 0, 1: 0}
    assert (full.n_bar, full.m_bar) == (0, 0)

    with pytest.raises(EmptyCellError):
        cell_invariants(Subexpression(word, (1, 0, 0)), od)


def test_quotient_model_examples():
    rs, od = _split_a2()
    word = ReducedWord.from_letters(rs, (0, 1, 0))
    closed = quotient_model(Subexpression(word, (1, 0, 1)), od)
    assert str(closed) == "(Gm)^1 x X_2(0,0) x X_2(1,0)"
    assert closed.dimension == 2
    open_ = quotient_model(Subexpression(word, (0, 0, 0)), od)
    assert str(open_) == "X_2(0,1) x X_2(0,2)"
    point = quotient_model(Subexpression(word, (1, 1, 1)), od)
    assert str(point) == "X_2(0,0) x X_2(0,0)"
    assert point.point_count(1) == 4  # two copies of F_q
    twisted = orbit_data(rs, 2, (1, 0))
    model = quotient_model(Subexpression(word, (0, 0, 0)), twisted)
    with pytest.raises(ConfigError):
        model.point_count(1)


def test_xq_point_counts():
    for q in (2, 3, 4):
        for k in (1, 2):
            if q**k <= 64:
                assert xq_point_count(q, 0, 0, k) == q
                assert xq_point_count(q, 1, 0, k) == q**k
    assert xq_point_count(2, 0, 1, 2) == 2
    assert xq_point_count(2, 2, 1, 1) == 2**2 * 1
    assert xq_point_count(3, 1, 2, 1) == 3 * 4



@pytest.mark.parametrize("q", [0, 1, 6, 12])
def test_point_counts_reject_non_prime_power_q(q):
    with pytest.raises(ConfigError, match="not a power of a prime"):
        xq_point_count(q, 1, 0)
    with pytest.raises(ConfigError, match="not a power of a prime"):
        yqs_point_count(q, 1, 1, 0)

def test_yqs_point_counts():
    assert yqs_point_count(2, 1, 0, 2, 2) == xq_point_count(2, 0, 2, 2)
    for m in (0, 1, 2):
        assert yqs_point_count(2, 3, 1, m, 2) == 4 * 3**m
    # Y_{2,3}(0,1) over F_4: q times the nonzero cubes inside the image of
    # the Artin-Schreier map
    f = field(4)
    image = {f.sub(f.mul(z, z), z) for z in f.elements()}
    expected = 2 * sum(1 for lam in f.nonzero() if f.pow(lam, 3) in image)
    assert yqs_point_count(2, 3, 0, 1, 2) == expected == 6
    with pytest.raises(ConfigError):
        yqs_point_count(2, 4, 0, 1, 1)  # s divisible by the characteristic
    with pytest.raises(ConfigError):
        yqs_point_count(3, 3, 0, 1, 1)


def test_yqs_against_full_enumeration():
    # independent naive count of Y_{q,s}(0, m) over small fields
    for q, s, m, k in ((2, 3, 1, 2), (2, 3, 2, 2), (3, 2, 1, 1), (3, 2, 2, 2), (2, 5, 2, 2)):
        f = field(q**k)
        count = 0
        for zeta in f.elements():
            target = f.sub(f.pow(zeta, q), zeta)
            stack = [(target, m)]
            while stack:
                acc, remaining = stack.pop()
                if remaining == 0:
                    count += int(acc == 0)
                    continue
                for lam in f.nonzero():
                    stack.append((f.sub(acc, f.pow(lam, s)), remaining - 1))
        assert yqs_point_count(q, s, 0, m, k) == count


def test_regular_characters():
    rs, od = _split_a2()
    psi = RegularCharacter.regular_default(od)
    assert is_regular(psi, od)
    partial = RegularCharacter(((0, 1), (1, 0)))
    assert not is_regular(partial, od)
    with pytest.raises(ConfigError):
        is_regular(RegularCharacter(((0, 1),)), od)
    # multipliers are element codes of F_{q_a} = F_2
    for bad in (2, -1):
        with pytest.raises(ConfigError, match="0..1"):
            is_regular(RegularCharacter(((0, bad), (1, 1))), od)
    # the twisted orbit {s, t} has q_a = 4, so 2 is a valid code there
    twisted = orbit_data(rs, 2, (1, 0))
    assert is_regular(RegularCharacter(((0, 2),)), twisted)


def test_cell_invariants_are_frozen():
    rs, od = _split_a2()
    word = ReducedWord.from_letters(rs, (0, 1, 0))
    inv = cell_invariants(Subexpression(word, (1, 0, 1)), od)
    with pytest.raises(AttributeError):
        inv.n_bar = 5
    assert inv.n_bar == 0
    for field_map in (inv.n, inv.m):
        with pytest.raises(TypeError):
            field_map[0] = 7
    assert inv.n_bar + inv.m_bar + sum(inv.n.values()) + sum(inv.m.values()) == 2
    assert inv.n == {0: 0, 1: 1} and inv.m == {0: 0, 1: 0}


def test_cell_invariants_hash_by_value():
    rs, od = _split_a2()
    word = ReducedWord.from_letters(rs, (0, 1, 0))
    inv = cell_invariants(Subexpression(word, (1, 0, 1)), od)
    # the same values, built apart and with the keys inserted in another order
    twin = CellInvariants(n={1: 1, 0: 0}, m={1: 0, 0: 0}, n_bar=inv.n_bar, m_bar=inv.m_bar)
    assert twin == inv and hash(twin) == hash(inv)
    assert len({inv, twin, cell_invariants(Subexpression(word, (0, 0, 0)), od)}) == 2
    # the mappings passed in are copied, so changing them later changes nothing
    n = {0: 0, 1: 1}
    held = CellInvariants(n=n, m={0: 0, 1: 0}, n_bar=0, m_bar=0)
    n[0] = 7
    assert held.n == {0: 0, 1: 1}


def test_isotypic_predictions():
    rs, od = _split_a2()
    word = ReducedWord.from_letters(rs, (0, 1, 0))

    def predict(bits):
        gamma = Subexpression(word, bits)
        return _prediction_from_invariants(gamma, cell_invariants(gamma, od))

    surviving = predict((0, 0, 0))
    assert not surviving.vanishes
    assert surviving.shift == 3
    assert "regular module" in surviving.module_description
    gone = predict((1, 0, 1))
    assert gone.vanishes and gone.shift is None


def test_theorem_table_a2():
    rs, od = _split_a2()
    word = ReducedWord.from_letters(rs, (0, 1, 0))
    psi = RegularCharacter.regular_default(od)
    table = theorem_table(word, od, psi)
    assert len(table.rows) == 6
    w0 = rs.longest_element()
    for row in table.rows:
        if row.x == w0:
            assert row.gamma_rows is not None
            assert [g.bits for g, _, _ in row.gamma_rows] == [(0, 0, 0), (1, 0, 1)]
        else:
            assert row.vanishes and row.witness is not None
    assert table.survivor.bits == (0, 0, 0)
    assert table.shift == 3
    assert table.torus_order == 3  # (q^2-1)(q-1) at q=2


def test_theorem_table_identity_word():
    rs, od = _split_a2()
    word = ReducedWord.from_letters(rs, ())
    psi = RegularCharacter.regular_default(od)
    table = theorem_table(word, od, psi)
    assert table.shift == 0
    assert table.survivor.bits == ()
    assert table.torus_order == 1  # (q-1)^3 at q=2


@pytest.mark.parametrize("q, order", [(2, 3), (3, 16)])
def test_theorem_table_reads_q_from_orbit_data(q, order):
    rs, od = _split_a2(q)
    word = ReducedWord.from_letters(rs, rs.longest_element().canonical_word)
    table = theorem_table(word, od, RegularCharacter.regular_default(od))
    assert table.torus_order == order  # (q^2-1)(q-1)


def test_theorem_table_rejects_nonregular():
    rs, od = _split_a2()
    word = ReducedWord.from_letters(rs, (0, 1, 0))
    with pytest.raises(PreconditionError) as err:
        theorem_table(word, od, RegularCharacter(((0, 1), (1, 0))))
    assert "alpha_t" in str(err.value)


def test_torus_order_a1_q3():
    rs = build_root_system("A", 1)
    od = orbit_data(rs, 3)
    word = ReducedWord.from_letters(rs, (0,))
    psi = RegularCharacter.regular_default(od)
    table = theorem_table(word, od, psi)
    assert table.shift == 1
    assert table.torus_order == 8


@pytest.mark.parametrize("type_label,rank", [("A", 2), ("B", 2), ("G", 2), ("A", 3)])
def test_largest_affine_index_structure(type_label, rank):
    """The mechanism behind the vanishing criterion, checked exhaustively.

    For a non-trivial distinguished subexpression ending at the identity the
    largest index of I minus J has identity partial product, simple previous
    partial, and contributes an affine coordinate on a simple-root orbit.
    """
    rs = build_root_system(type_label, rank)
    e = rs.identity()
    w0 = rs.longest_element()
    simple_roots = set(rs.simple_roots)
    for w in rs.weyl_elements():
        for letters in reduced_words(w):
            word = ReducedWord.from_letters(rs, letters)
            for gamma in enumerate_distinguished(word, e):
                if not any(gamma.bits):
                    continue
                affine = sorted(gamma.I - gamma.J)
                assert affine, f"{gamma.display} has I = J but ends at e"
                i0 = affine[-1]
                assert gamma.partials[i0].is_identity
                assert gamma.partials[i0 - 1].length == 1
                assert w0.act(gamma.tilde_betas[i0 - 1]) in simple_roots


@pytest.mark.parametrize("type_label,rank", [("A", 2), ("B", 2), ("G", 2), ("A", 3)])
def test_dimension_bookkeeping(type_label, rank):
    """n_bar + m_bar + sum (n_a + m_a) equals the cell dimension."""
    rs = build_root_system(type_label, rank)
    for phi in diagram_automorphisms(rs):
        od = orbit_data(rs, 2, phi)
        for w in rs.weyl_elements():
            word = ReducedWord.from_letters(rs, w.canonical_word)
            for gamma in enumerate_distinguished(word):
                inv = cell_invariants(gamma, od)
                exponents = sum(inv.n.values()) + sum(inv.m.values())
                assert inv.n_bar + inv.m_bar + exponents == gamma.cell_shape().dimension


@pytest.mark.parametrize("type_label,rank", [("A", 2), ("B", 2), ("G", 2)])
def test_all_skip_shift_is_length(type_label, rank):
    rs = build_root_system(type_label, rank)
    for phi in diagram_automorphisms(rs):
        od = orbit_data(rs, 2, phi)
        for w in rs.weyl_elements():
            word = ReducedWord.from_letters(rs, w.canonical_word)
            gamma = Subexpression(word, (0,) * word.r)
            inv = cell_invariants(gamma, od)
            assert sum(inv.m.values()) == w.length
            assert all(c == 0 for c in inv.n.values())
            assert inv.n_bar == inv.m_bar == 0


@pytest.mark.parametrize("type_label,rank", RANK3_TYPES + [("A", 4), ("D", 4)])
def test_w0_image_table_matches_root_action(type_label, rank):
    rs = build_root_system(type_label, rank)
    w0 = rs.longest_element()
    simple_roots = set(rs.simple_roots)
    table = _w0_image_simple(rs)
    for s, alpha in enumerate(rs.simple_roots):
        neg = tuple(-c for c in alpha)
        for y in rs.weyl_elements():
            assert table[s][y.index] == (w0.act(y.act(neg)) in simple_roots)
    assert _w0_image_simple(rs) is table


def test_w0_image_table_corrupted_lmul_trips_its_check():
    # a fresh system, so the interned one and its tables are never touched
    rs = RootSystem("A", 2)
    lmul = [list(row) for row in rs._lmul]
    lmul[0][0], lmul[0][1] = lmul[0][1], lmul[0][0]  # s * e and s * s swapped
    rs._lmul = tuple(map(tuple, lmul))
    cached = _w0_image_simple.cache_info().currsize
    for _ in range(2):  # nothing was cached, so the check runs again
        with pytest.raises(AssertionError, match="table and root action"):
            _w0_image_simple(rs)
    assert _w0_image_simple.cache_info().currsize == cached


@pytest.mark.parametrize("type_label,rank", RANK3_TYPES)
def test_word_tree_vanishing_equals_enumeration(type_label, rank):
    # every reduced word, not only the canonical ones the sweep cross-checks
    rs = build_root_system(type_label, rank)
    e = rs.identity()
    tree = sweeps.word_tree_vanishing(rs)
    ods = [orbit_data(rs, 2, phi) for phi in diagram_automorphisms(rs)]
    words = 0
    for w in rs.weyl_elements():
        for letters in reduced_words(w):
            words += 1
            gamma_e = enumerate_distinguished(ReducedWord.from_letters(rs, letters), e)
            for od in ods:
                assert sweeps._vanishing_by_enumeration(gamma_e, od) == tree[letters]
    assert len(tree) == words


def _flip_first_image(build):
    def corrupted(rs):
        table = [list(row) for row in build(rs)]
        table[0][0] = not table[0][0]
        return tuple(map(tuple, table))

    return corrupted


def _bump_w0_witness(walk):
    def corrupted(rs):
        tree = dict(walk(rs))
        letters = rs.longest_element().canonical_word
        with_witness, *rest = tree[letters]
        tree[letters] = (with_witness + 1, *rest)
        return tree

    return corrupted


@pytest.mark.parametrize(
    "owner,name,corrupt",
    [
        (frobenius, "_w0_image_simple", _flip_first_image),
        (sweeps, "word_tree_vanishing", _bump_w0_witness),
    ],
    ids=["image-table", "tree"],
)
def test_vanishing_rows_cross_check_trips_on_corruption(
    monkeypatch, owner, name, corrupt
):
    _w0_image_simple.cache_clear()
    monkeypatch.setattr(owner, name, corrupt(getattr(owner, name)))
    with pytest.raises(AssertionError, match="word tree and enumeration disagree"):
        list(sweeps.vanishing_rows(max_rank=2))
    monkeypatch.undo()
    _w0_image_simple.cache_clear()
    assert all(row["match"] for row in sweeps.vanishing_rows(max_rank=2))


@pytest.mark.parametrize("sweep", [sweeps.vanishing_rows, sweeps.witness_rows])
def test_vanishing_sweeps_refuse_a_rank_they_do_not_reach(sweep):
    # no rank-4 system is swept, so rank 4 must not pass for the rank <= 3 rows
    with pytest.raises(ConfigError, match="rank at most 3; got 4"):
        next(sweep(4))
    assert sweeps.systems_up_to(3) == sweeps.RANK_LE_3_TYPES
    assert sweeps.systems_up_to(1) == (("A", 1),)


@pytest.mark.parametrize("type_label,rank", [("A", 4), ("D", 4)])
def test_word_tree_vanishing_on_rank_4(type_label, rank):
    # the vanishing criterion on every reduced word of A4 and D4: every
    # non-trivial member of Gamma_e has a witness, and one clean all-skip
    # member survives
    tree = sweeps.word_tree_vanishing(build_root_system(type_label, rank))
    assert len(tree) == {"A": 3061, "D": 9719}[type_label]
    for letters, (with_witness, nontrivial, all_skip, clean) in tree.items():
        assert with_witness == nontrivial, letters
        assert all_skip == 1 and clean, letters
