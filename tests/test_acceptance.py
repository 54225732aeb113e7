"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines; every criterion also enforces its runtime bound.
"""

import time

import pytest

from deodhar import cells, counting, sweeps
from deodhar.cells import CellShape, ReducedWord, Subexpression, _walk
from deodhar.errors import NotComparableError
from deodhar.flags import dl_piece_count, enumerate_flags, gl3_example_counts
from deodhar.frobenius import cell_invariants, orbit_data, quotient_model
from deodhar.rootdata import LETTERS, build_root_system, bruhat_leq, reduced_words

from cyclotomic import all_linear_characters, e_psi_check, linear_character, unitriangular_group

# the root systems whose oracle triangles and cell partitions are swept here
ORACLE_TYPES = (("A", 2), ("A", 3), ("B", 2), ("B", 3), ("G", 2))


class _Timer:
    def __init__(self, limit_seconds):
        self.limit = limit_seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.start
        return False


def _report(name, timer, detail):
    print(f"PASS {name} ({timer.elapsed:.2f}s): {detail}")
    assert timer.elapsed < timer.limit, f"{name} exceeded {timer.limit}s"


def _assert_rows(rows):
    rows = list(rows)
    bad = [r for r in rows if not r["match"]]
    assert not bad, f"{len(bad)} failing checks, first: {bad[:3]}"
    return len(rows)


def test_criterion_1_gl3_deodhar_census():
    with _Timer(1.0) as t:
        rs = build_root_system("A", 2)
        word = ReducedWord.from_letters(rs, (0, 1, 0))
        gammas = _walk(word, prune=False)
        distinguished = [g for g in gammas if g.is_distinguished]
        assert len(distinguished) == 7
        non_dist = [g for g in gammas if not g.is_distinguished]
        assert [g.bits for g in non_dist] == [(1, 0, 0)]
        assert non_dist[0].end == rs.simple_reflection(0)
        gamma_1 = [g for g in distinguished if g.end.is_identity]
        assert [g.bits for g in gamma_1] == [(0, 0, 0), (1, 0, 1)]
        assert gamma_1[0].cell_shape() == CellShape(0, 3)
        assert gamma_1[1].cell_shape() == CellShape(1, 1)
    _report(
        "criterion-1 gl3-deodhar-census",
        t,
        "7 distinguished, (s,1,1) flagged, Gamma_1 shapes (Gm)^3 and Ga x Gm",
    )


def test_criterion_2_oracle_triangle():
    with _Timer(300.0) as t:
        total = 0
        for type_label, rank in ORACLE_TYPES:
            total += _assert_rows(sweeps.oracle_triangle_rows(type_label, rank))
        brute = 0
        for n, q in ((3, 2), (3, 3), (4, 2)):
            brute += _assert_rows(sweeps.double_cell_rows(n, q))
    _report(
        "criterion-2 oracle-triangle",
        t,
        f"{total} polynomial identities over every reduced word, "
        f"{brute} brute-force double-cell comparisons",
    )


def test_a4_oracle_triangle_and_partition(monkeypatch):
    # both sweeps read one reduced-word tree, walked once per system
    with _Timer(30.0) as t:
        rows = list(sweeps.oracle_triangle_rows("A", 4))
        assert len(rows) == 256_005
        _assert_rows(rows)
    _report("a4 oracle-triangle", t, f"{len(rows)} polynomial identities")
    del rows
    a4 = build_root_system("A", 4)
    misses = sweeps.word_tree_polys.cache_info().misses
    tree = sweeps.word_tree_polys(a4)  # a hit: the triangle sweep left the tree
    assert sweeps.word_tree_polys.cache_info().misses == misses
    assert len(tree) == 3061
    walks = []
    cell_count_poly = counting.cell_count_poly

    def counted(shape):
        walks.append(shape)
        return cell_count_poly(shape)

    monkeypatch.setattr(counting, "cell_count_poly", counted)
    with _Timer(5.0) as t:
        rows = list(sweeps.partition_rows("A", 4))
        assert len(rows) == 120
        _assert_rows(rows)
    assert walks == []
    assert sweeps.word_tree_polys.cache_info().misses == misses
    assert sweeps.word_tree_polys(a4) is tree
    _report("a4 cell-partition", t, f"{len(rows)} symbolic partitions, no second walk")


def test_criterion_3_partition_cross_foot():
    with _Timer(60.0) as t:
        total = 0
        for type_label, rank in ORACLE_TYPES:
            total += _assert_rows(sweeps.partition_rows(type_label, rank))
        assert len(enumerate_flags(3, 2)) == 21
        assert len(enumerate_flags(3, 3)) == 52
        rs = build_root_system("A", 2)
        assert sum(2**w.length for w in rs.weyl_elements()) == 21
        assert sum(3**w.length for w in rs.weyl_elements()) == 52
    _report(
        "criterion-3 partition-cross-foot",
        t,
        f"{total} symbolic partitions, flag census 21 and 52",
    )


def unique_IJ_equal(word, v):
    """The unique distinguished subexpression ending at v with I = J.

    Its cell is the dense torus (G_m)^{l(w)-l(v)} of the double cell.
    """
    if not bruhat_leq(v, word.target):
        raise NotComparableError(
            f"{v.word_str} is not below {word.target.word_str} in Bruhat order"
        )
    found = [g for g in cells.enumerate_distinguished(word, v) if g.I == g.J]
    if len(found) != 1:
        raise AssertionError(
            f"expected exactly one I=J subexpression in Gamma_{v.word_str}, "
            f"found {len(found)}"
        )
    return found[0]


def unique_torus_rows(type_label, rank):
    """Exactly one I = J subexpression per Gamma_v: shape, maximality, order."""
    rs = build_root_system(type_label, rank)
    for w in rs.weyl_elements():
        for letters in reduced_words(w):
            word = ReducedWord.from_letters(rs, letters)
            groups: dict = {}
            for gamma in cells.enumerate_distinguished(word):
                groups.setdefault(gamma.end, []).append(gamma)
            for v, dist in sorted(
                groups.items(), key=lambda kv: (kv[0].length, kv[0].canonical_word)
            ):
                torus_like = [g for g in dist if g.I == g.J]
                ok_count = len(torus_like) == 1
                ok_shape = ok_maximal = ok_first = False
                if ok_count:
                    g0 = torus_like[0]
                    shape = g0.cell_shape()
                    ok_shape = shape == CellShape(0, w.length - v.length)
                    ok_maximal = not any(
                        h is not g0 and cells.preceq(g0, h) for h in dist
                    )
                    ok_first = cells._filtration_sequence(dist)[0] == g0
                yield sweeps._row(
                    "unique-torus-cell",
                    {
                        "type": type_label,
                        "rank": rank,
                        "w": w.word_str,
                        "word": word.display,
                        "v": v.word_str,
                    },
                    [ok_count, ok_shape, ok_maximal, ok_first],
                    [True, True, True, True],
                )


def test_unique_IJ_equal():
    rs = build_root_system("A", 2)
    word = ReducedWord.from_letters(rs, (0, 1, 0))
    e, w0 = rs.identity(), rs.longest_element()
    assert unique_IJ_equal(word, e).bits == (0, 0, 0)
    assert unique_IJ_equal(word, w0).bits == (1, 1, 1)
    g_s = unique_IJ_equal(word, rs.simple_reflection(0))
    assert g_s.bits == (0, 0, 1)
    assert g_s.cell_shape() == CellShape(0, 2)
    short = ReducedWord.from_letters(rs, (0,))
    with pytest.raises(NotComparableError):
        unique_IJ_equal(short, rs.simple_reflection(1))


def test_criterion_4_unique_torus_subexpression():
    with _Timer(60.0) as t:
        total = 0
        for type_label, rank in sweeps.RANK_LE_3_TYPES:
            total += _assert_rows(unique_torus_rows(type_label, rank))
    _report(
        "criterion-4 unique-torus-cell",
        t,
        f"{total} (w, word, v) triples: unique I=J, shape, maximality, order",
    )


def test_criterion_5_vanishing_criterion():
    with _Timer(120.0) as t:
        rows = sweeps.vanishing_rows(max_rank=3)
        total = _assert_rows(rows)
    _report(
        "criterion-5 vanishing-criterion",
        t,
        f"{total} checks across all rank<=3 types and diagram automorphisms",
    )


def test_vanishing_rows_do_not_depend_on_the_twist():
    # n_a sums split counts over a phi-orbit, so a twisted row repeats its split row
    split, twisted = {}, []
    for row in sweeps.vanishing_rows(max_rank=3):
        p = row["parameters"]
        key = (row["test"], p["type"], p["rank"], p["w"], p["word"])
        if p["phi"] == LETTERS[: p["rank"]]:
            split[key] = row
        else:
            twisted.append((key, row))
    assert {key[1:3] for key, _ in twisted} == {("A", 2), ("A", 3)}
    assert len(twisted) == 14 + 132  # one non-trivial twist each
    for key, row in twisted:
        assert (row["lhs"], row["rhs"]) == (split[key]["lhs"], split[key]["rhs"]), key


def test_criterion_6_gl3_worked_example():
    with _Timer(300.0) as t:
        rs = build_root_system("A", 2)
        od = orbit_data(rs, 2)
        word = ReducedWord.from_letters(rs, (0, 1, 0))
        closed = Subexpression(word, (1, 0, 1))
        inv = cell_invariants(closed, od)
        assert inv.n == {0: 0, 1: 1} and inv.m == {0: 0, 1: 0}
        assert (inv.n_bar, inv.m_bar) == (0, 1)
        assert str(quotient_model(closed, od)) == "(Gm)^1 x X_2(0,0) x X_2(1,0)"
        w0 = rs.longest_element()
        for q, k in ((2, 1), (2, 2), (3, 1)):
            counts = gl3_example_counts(q, k)
            x_c, x_o = counts.closed_orbits, counts.open_orbits
            assert q * (x_c + x_o) == counts.x_full
            assert counts.x_full == dl_piece_count(3, q, w0, w0, k)
            if k == 1:
                assert counts.x_full == 0 and x_c + x_o == 0
        _assert_rows(
            [*sweeps.gl3_rows(2, 1), *sweeps.gl3_rows(2, 2), *sweeps.gl3_rows(3, 1)]
        )
    _report(
        "criterion-6 gl3-worked-example",
        t,
        "X_C invariants, quotient/point identities and flag cross-checks "
        "at (2,1), (2,2), (3,1)",
    )


def test_criterion_7_artin_schreier_models():
    with _Timer(60.0) as t:
        rows = sweeps.xq_model_rows(max_qk=64, max_nm=3)
        total = _assert_rows(rows)
    _report(
        "criterion-7 artin-schreier-models",
        t,
        f"{total} checks: closed form vs brute force, s=1 equality, divisibility",
    )


def test_criterion_8_group_algebra_idempotents():
    with _Timer(60.0) as t:
        cases = 0
        for n, p in ((2, 2), (2, 3), (3, 2)):
            group = unitriangular_group(n, p)
            for mult in all_linear_characters(group):
                psi = linear_character(group, mult)
                report = e_psi_check(group, psi)
                assert report.is_idempotent
                assert report.is_central
                assert report.image_rank == 1
                cases += 1
        assert cases == 2 + 3 + 4
    _report(
        "criterion-8 group-algebra-idempotents",
        t,
        f"{cases} characters: idempotent, central, rank-1 image",
    )


def test_criterion_9_witness_predicate():
    with _Timer(10.0) as t:
        rows = sweeps.witness_rows(max_rank=3)
        total = _assert_rows(rows)
    _report(
        "criterion-9 witness-predicate",
        t,
        f"{total} elements: witness exists iff x != w0, validated by the action",
    )
