"""Exhaustive verification sweeps shared by the CLI and the test suite.

Every ``*_rows`` function is a generator of comparison rows
``{"test", "parameters", "lhs", "rhs", "match"}`` in a canonical order, so
identical configurations produce byte-identical reports; no sweep keeps its
rows, so a consumer that does not keep them either runs in memory that does
not grow with the number of checks.  Rows may share their ``lhs`` and ``rhs``
lists, with each other and with other rows (``oracle_triangle_rows`` makes
one list per distinct coefficient tuple), so every consumer treats a row as
read-only.  The helpers they share return plain values: ``word_tree_polys``
the Deodhar polynomials and ``word_tree_vanishing`` the vanishing-criterion
counts of every reduced word, each read off one walk of the reduced-word tree
(``_word_tree``), and ``xq_brute_count`` and ``xq_full_product_count`` point
counts.  Every sweep runs serially in the calling process.
"""

from __future__ import annotations

import math
from collections import Counter
from functools import lru_cache
from itertools import zip_longest
from typing import Iterator

from . import cells, counting, flags, frobenius
from .counting import IntPolynomial
from .errors import BudgetError, ConfigError
from .gf import _difference_walk, _factor_prime_power, field
from .rootdata import (
    _SUPPORTED_RANKS,
    RootSystem,
    build_root_system,
    bruhat_leq,
    reduced_words,
    word_str,
)

# the supported root systems of rank at most 3, by type and then rank
RANK_LE_3_TYPES = tuple(
    (t, rank) for t, ranks in _SUPPORTED_RANKS.items() for rank in ranks if rank <= 3
)
# one row per (w, word, v) check.  Rows are not kept, so the cap bounds time
# and report size: A4 (256,005) takes seconds and prints 98 MB of json, D4
# (1,379,685) would print over 500 MB
MAX_TRIANGLE_CHECKS = 300_000
# the most (zeta, tuple) pairs the naive leg of ``xq_model_rows`` enumerates
MAX_FULL_PRODUCT_TUPLES = 70_000


def _row(test: str, parameters: dict, lhs, rhs) -> dict:
    return {
        "test": test,
        "parameters": parameters,
        "lhs": lhs,
        "rhs": rhs,
        "match": lhs == rhs,
    }


# -- the tree of reduced words and the oracle triangle ------------------------


def _word_tree(rs: RootSystem, forced_shift) -> Iterator[tuple]:
    """Yield ``(letters, states)`` for every reduced word of W, depth first.

    Every prefix of a reduced word is reduced, so the words form one tree
    rooted at the empty word; a node at w has a child for each letter s with
    l(ws) > l(w).  states ``{x: packed}`` counts the word's distinguished
    subexpressions by end index x and label (n, m): label (n, m) is counted
    in slot n (N+1) + m of the packed int, each slot N+1 bits wide, where
    N = l(w0); the root's one state is ``{e: 1}``, label (0, 0).  Appending
    s reads Deodhar's cell structure left to right: if s is forced at x,
    l(xs) < l(x) in the one checked table ``cells._forced_letters``, it is
    taken to xs and the state shifted by ``forced_shift[s][xs]`` bits;
    otherwise it is skipped (stay at x, shifted one slot: m + 1) or taken
    (go to xs, unshifted).  No slot carries: it counts subexpressions of a
    word of length r <= N, at most 2^N < 2^(N+1) - 1.  Consumers only read
    states.
    """
    rmul, down = rs._rmul, cells._forced_letters(rs)
    slot = len(rs.positive_roots) + 1
    stack = [((), 0, {0: 1})]
    while stack:
        letters, w, states = stack.pop()
        yield letters, states
        for s, row in enumerate(rmul):
            forced = down[s]
            if forced[w]:
                continue
            shift = forced_shift[s]
            child: dict = {}
            get = child.get
            for x, v in states.items():
                xs = row[x]
                if forced[x]:
                    child[xs] = get(xs, 0) + (v << shift[xs])
                else:
                    child[x] = get(x, 0) + (v << slot)
                    child[xs] = get(xs, 0) + v
            stack.append((letters + (s,), row[w], child))


@lru_cache(maxsize=None)
def word_tree_polys(rs: RootSystem) -> dict:
    """Deodhar polynomial of every reduced word of W at every end v.

    Returns ``{letters: {x: P}}`` for every reduced word, keyed like the
    ``_word_tree`` states by the index x of the end v, P the sum of the cell
    polynomials over Gamma_v, with only the nonzero polynomials kept,
    from one ``_word_tree`` walk per root system; it is cached, so a failed
    check while walking caches nothing.  Every forced letter shifts by
    (N+1)^2 bits, n + 1, so a label is the cell shape (n, m) itself, forced
    and skipped letters so far, and a state's polynomial sums c q^n (q-1)^m
    over its slots; it is read once per distinct packed state.  Summing cell
    polynomials over ``cells.enumerate_distinguished`` is the cross-check
    route, run word by word in ``tests/test_counting.py``.

    >>> from deodhar.counting import r_polynomial
    >>> from deodhar.rootdata import build_root_system
    >>> a2 = build_root_system("A", 2)
    >>> tree = word_tree_polys(a2)
    >>> len(tree)
    7
    >>> e, w0 = a2.identity(), a2.longest_element()
    >>> tree[w0.canonical_word][e.index] == r_polynomial(e, w0)
    True
    """
    slot = len(rs.positive_roots) + 1
    mask = (1 << slot) - 1
    polys: dict = {}  # packed state -> polynomial, never zero, so truthy
    get = polys.get

    def poly(v: int) -> IntPolynomial:
        acc = [0] * slot  # n + m <= r <= N
        k, rest = 0, v
        while rest:
            c = rest & mask
            if c:
                cell = cells.CellShape(*divmod(k, slot))
                for j, a in enumerate(counting.cell_count_poly(cell).coeffs):
                    acc[j] += c * a
            k, rest = k + 1, rest >> slot
        p = polys[v] = IntPolynomial.from_coeffs(acc)
        return p

    walk = _word_tree(rs, [[slot * slot] * len(rs.weyl_elements())] * rs.rank)
    return {
        letters: {x: get(v) or poly(v) for x, v in states.items()}
        for letters, states in walk
    }


def _by_name(elements) -> list:
    return sorted(elements, key=lambda x: x.word_str)


def oracle_triangle_rows(type_label: str, rank: int) -> Iterator[dict]:
    """Deodhar polynomial == r_polynomial for every v <= w and every reduced word.

    The checks are counted before the word tree is walked or any row is
    made, and more than ``MAX_TRIANGLE_CHECKS`` raise ``BudgetError``.  Rows
    come in report order, which sorts them by stringified parameters: with
    type and rank fixed, v by name, then w by name, then the word.  Every
    lhs and rhs with the same coefficients is one shared list.
    """
    rs = build_root_system(type_label, rank)
    elements = _by_name(rs.weyl_elements())
    plan = [
        (w, reduced_words(w), {v.index for v in elements if bruhat_leq(v, w)})
        for w in elements
    ]
    checks = sum(len(words) * len(below) for _, words, below in plan)
    if checks > MAX_TRIANGLE_CHECKS:
        raise BudgetError(
            f"the {type_label}{rank} triangle has {checks} checks, more than "
            f"{MAX_TRIANGLE_CHECKS}"
        )
    tree = word_tree_polys(rs)
    plan = [
        (w, w.word_str, below, [(word_str(word), tree[word]) for word in words])
        for w, words, below in plan
    ]
    zero = IntPolynomial.zero()
    lists: dict[tuple, list] = {}  # coefficients -> the one list of them
    for v in elements:
        x, v_str = v.index, v.word_str
        for w, w_str, below, nodes in plan:
            if x not in below:
                continue
            coeffs = counting.r_polynomial(v, w).coeffs
            rhs = lists.get(coeffs) or lists.setdefault(coeffs, list(coeffs))
            for display, node in nodes:
                params = {
                    "type": type_label,
                    "rank": rank,
                    "w": w_str,
                    "word": display,
                    "v": v_str,
                }
                coeffs = node.get(x, zero).coeffs
                lhs = lists.get(coeffs) or lists.setdefault(coeffs, list(coeffs))
                yield _row("deodhar-vs-rpoly", params, lhs, rhs)


def partition_rows(type_label: str, rank: int) -> Iterator[dict]:
    """Deodhar polynomials summed over v == q^{l(w)} symbolically, canonical words.

    The sum is taken in one pass over the coefficient columns of the word's
    polynomials.
    """
    rs = build_root_system(type_label, rank)
    tree = word_tree_polys(rs)
    for w in rs.weyl_elements():
        coeffs = [poly.coeffs for poly in tree[w.canonical_word].values()]
        total = [sum(column) for column in zip_longest(*coeffs, fillvalue=0)]
        yield _row(
            "cell-partition",
            {"type": type_label, "rank": rank, "w": w.word_str},
            list(counting._trimmed(total).coeffs),
            list(counting.schubert_cell_poly(w).coeffs),
        )


# -- brute-force flag legs ----------------------------------------------------


def double_cell_rows(n: int, q: int) -> Iterator[dict]:
    """Flag-variety double-cell counts against both polynomial routes.

    Rows come in report order, which sorts them by test and stringified
    parameters: the Deodhar rows, then the R-polynomial rows, each by v and
    then w by name.
    """
    census = flags.double_cell_census(n, q)
    rs = build_root_system("A", n - 1)
    tree = word_tree_polys(rs)
    elements = _by_name(rs.weyl_elements())
    zero = IntPolynomial.zero()
    for test in ("double-cell-vs-deodhar", "double-cell-vs-rpoly"):
        for v in elements:
            for w in elements:
                if test == "double-cell-vs-rpoly":
                    count = counting.r_polynomial(v, w)(q)
                else:
                    count = tree[w.canonical_word].get(v.index, zero)(q)
                params = {"n": n, "q": q, "w": w.word_str, "v": v.word_str}
                yield _row(test, params, census[w, v], count)


def flag_census_rows(n: int, q: int) -> Iterator[dict]:
    """Flag count identities: Gaussian factorial, length generating function."""
    census = flags.double_cell_census(n, q)
    rs = build_root_system("A", n - 1)
    # the census walks every flag exactly once, so its total is the flag count
    total = sum(census.values())
    by_length = sum(q**w.length for w in rs.weyl_elements())
    params = {"n": n, "q": q}
    yield _row("flag-census-total", params, total, flags.gaussian_flag_count(n, q))
    yield _row("flag-census-poincare", params, total, by_length)
    in_cell = Counter()
    for (w, _), c in census.items():
        in_cell[w] += c
    for w in rs.weyl_elements():
        params = {"n": n, "q": q, "w": w.word_str}
        yield _row("flag-census-cell", params, in_cell[w], q**w.length)


# -- GL3 worked example -------------------------------------------------------


def gl3_rows(q: int, k: int) -> Iterator[dict]:
    rs = build_root_system("A", 2)
    w0 = rs.longest_element()
    counts = flags.gl3_example_counts(q, k)
    dl = flags.dl_piece_count(3, q, w0, w0, k)
    params = {"q": q, "k": k}
    od = frobenius.orbit_data(rs, q)
    word = cells.ReducedWord.from_letters(rs, (0, 1, 0))
    closed_gamma = cells.Subexpression(word, (1, 0, 1))
    open_gamma = cells.Subexpression(word, (0, 0, 0))
    inv = frobenius.cell_invariants(closed_gamma, od)
    yield _row("gl3-unipotent-vs-flags", params, counts.x_full, dl)
    yield _row(
        "gl3-free-quotient",
        params,
        q * (counts.closed_orbits + counts.open_orbits),
        counts.x_full,
    )
    yield _row(
        "gl3-closed-model",
        params,
        counts.closed_points,
        frobenius.quotient_model(closed_gamma, od).point_count(k),
    )
    yield _row(
        "gl3-open-model",
        params,
        counts.open_points,
        frobenius.quotient_model(open_gamma, od).point_count(k),
    )
    yield _row(
        "gl3-closed-invariants",
        params,
        [sorted(inv.n.items()), sorted(inv.m.items()), inv.n_bar, inv.m_bar],
        [[(0, 0), (1, 1)], [(0, 0), (1, 0)], 0, 1],
    )
    if k == 1:
        yield _row("gl3-k1-empty", params, counts.x_full, 0)


# -- vanishing criterion ------------------------------------------------------


def word_tree_vanishing(rs: RootSystem) -> dict:
    """Vanishing data of Gamma_e for every reduced word of W, from one walk.

    Returns ``{letters: (with_witness, nontrivial, all_skip, clean)}``: of
    the distinguished subexpressions ending at e, how many have a positive
    affine orbit exponent, how many are not all-skip, how many are all-skip,
    and whether the all-skip one has no leftover coordinates (w0(-alpha_s)
    simple at every letter, read off the letters alone).  A forced letter
    taken to xs is a position in I minus J (J is read after the letter); it
    witnesses n_a > 0 when w0(xs(-alpha_s)) is a simple root
    (``frobenius._w0_image_simple``), and only such a letter shifts the
    ``_word_tree`` state, by (N+1)^2 bits.  So at e the all-skip count is
    slot (0, r) and every label n > 0 is witnessed.  Not cached:
    ``vanishing_rows`` checks it against the enumeration route.
    """
    slot = len(rs.positive_roots) + 1
    witness = slot * slot
    image = frobenius._w0_image_simple(rs)
    shifts = [[witness if simple else 0 for simple in row] for row in image]
    unclean = {s for s, row in enumerate(image) if not row[0]}
    # 2^slot = 1 mod digits, so v % digits is v's digit sum: the slots count
    # at most 2^r <= 2^N < digits subexpressions in all, so it never wraps
    digits = (1 << slot) - 1
    out: dict = {}
    for letters, states in _word_tree(rs, shifts):
        v = states.get(0, 0)
        all_skip = (v >> slot * len(letters)) & digits
        out[letters] = (
            (v >> witness) % digits,
            v % digits - all_skip,
            all_skip,
            unclean.isdisjoint(letters),
        )
    return out


def _vanishing_by_enumeration(
    gamma_e: list[cells.Subexpression], od: frobenius.OrbitData
) -> tuple:
    """``word_tree_vanishing``'s entry for one word, by the enumeration route.

    gamma_e is the word's ``cells.enumerate_distinguished(word, e)``; each
    subexpression's ``cell_invariants`` are read under the twist od, and
    clean also requires the all-skip prediction to survive in degree l(w).
    """
    with_witness = nontrivial = all_skip = 0
    clean = False
    for gamma in gamma_e:
        inv = frobenius.cell_invariants(gamma, od)
        if any(gamma.bits):
            nontrivial += 1
            with_witness += any(c > 0 for c in inv.n.values())
            continue
        all_skip += 1
        pred = frobenius._prediction_from_invariants(gamma, inv)
        clean = (
            all(c == 0 for c in inv.n.values())
            and inv.n_bar == 0
            and inv.m_bar == 0
            and not pred.vanishes
            and pred.shift == gamma.r
        )
    return with_witness, nontrivial, all_skip, clean and all_skip == 1


def systems_up_to(max_rank: int) -> tuple:
    """The ``RANK_LE_3_TYPES`` of rank at most max_rank, the systems that
    ``vanishing_rows`` and ``witness_rows`` sweep.

    A max_rank above 3 is a ConfigError: no larger system is swept, and
    returning the rank <= 3 systems would report them as if it had been.
    """
    top = max(rank for _, rank in RANK_LE_3_TYPES)
    if max_rank > top:
        raise ConfigError(
            f"the vanishing sweeps reach rank at most {top}; got {max_rank}"
        )
    return tuple((t, rank) for t, rank in RANK_LE_3_TYPES if rank <= max_rank)


def vanishing_rows(max_rank: int) -> Iterator[dict]:
    """Core of the vanishing theorem, swept over all diagram automorphisms.

    For every reduced word of every w, over the distinguished subexpressions
    ending at the identity: every non-trivial one has a positive affine orbit
    exponent, and exactly one is all-skip, with no affine exponents, no
    leftover coordinates and surviving shift l(w).  The counts come from one walk of
    the tree of reduced words per root system (``word_tree_vanishing``).  On
    the canonical word of every element and under every twist they are
    checked against the enumeration route: Gamma_e enumerated, then
    ``cell_invariants`` and the prediction of each subexpression; a
    disagreement raises AssertionError.

    No row depends on the twist: n_a sums split counts over a phi-orbit, so
    "some n_a > 0" holds for a twist exactly when it holds split, and n_bar,
    m_bar and the shift do not depend on phi either.  Each twisted row of A2
    and A3 repeats the lhs and rhs of its split row (a tested property), so
    the twist adds no check of its own here; a brute-force oracle for the
    twisted Frobenius is still missing.
    """
    for type_label, rank in systems_up_to(max_rank):
        rs = build_root_system(type_label, rank)
        tree = word_tree_vanishing(rs)
        twists = [
            ("".join(rs.letter(i) for i in phi), frobenius.orbit_data(rs, 2, phi))
            for phi in frobenius.diagram_automorphisms(rs)
        ]
        e = rs.identity()
        for w in rs.weyl_elements():
            word = cells.ReducedWord.from_letters(rs, w.canonical_word)
            gamma_e = cells.enumerate_distinguished(word, e)
            for phi_str, od in twists:
                if _vanishing_by_enumeration(gamma_e, od) != tree[word.letters]:
                    raise AssertionError(
                        f"word tree and enumeration disagree on Gamma_e of "
                        f"{type_label}{rank} word {word.display} under twist {phi_str}"
                    )
        plan = [(w, w.word_str, reduced_words(w)) for w in rs.weyl_elements()]
        for phi_str, _ in twists:
            for w, w_str, words in plan:
                for letters in words:
                    with_witness, nontrivial, all_skip, clean = tree[letters]
                    params = {
                        "type": type_label,
                        "rank": rank,
                        "phi": phi_str,
                        "w": w_str,
                        "word": word_str(letters),
                    }
                    yield _row("vanishing-nontrivial", params, with_witness, nontrivial)
                    # the all-skip piece survives in degree r - |I| = l(w)
                    yield _row(
                        "vanishing-survivor",
                        params,
                        [all_skip, clean, len(letters)],
                        [1, True, w.length],
                    )


def witness_rows(max_rank: int) -> Iterator[dict]:
    """vanishing_witness(x) exists iff x != w0, validated by the action.

    ``vanishing_witness`` reads the left-descent table; valid says that it
    found the smallest a with x^{-1}(alpha_a) positive, by the root action.
    """
    for type_label, rank in systems_up_to(max_rank):
        rs = build_root_system(type_label, rank)
        w0 = rs.longest_element()
        for x in rs.weyl_elements():
            witness = frobenius.vanishing_witness(x)
            xinv = x.inverse()
            ascents = (
                a
                for a, alpha in enumerate(rs.simple_roots)
                if rs.is_positive(xinv.act(alpha))
            )
            valid = witness == next(ascents, None)
            yield _row(
                "witness-root",
                {"type": type_label, "rank": rank, "x": x.word_str},
                [witness is not None, valid],
                [x != w0, True],
            )


# -- Artin-Schreier models ------------------------------------------------------


def xq_brute_count(q: int, n: int, m: int, k: int) -> int:
    """Exhaustive count of X_q(n, m)(F_{q^k}), independent of the closed form.

    Counts the pairs of a zeta and a tuple of every coordinate but the last,
    each with its admissible completions.  The last affine coordinate always
    completes uniquely, so with m = 0 each zeta adds the number of tuples.
    A last torus coordinate completes when the difference left is nonzero,
    so with m >= 1 the count is the number of pairs less those that one
    ``_difference_walk`` from every zeta^q - zeta finds with difference 0.
    That walk reads every pair, so with m >= 1 more pairs than
    ``frobenius.MAX_MODEL_TUPLES`` raise ``BudgetError``; with m = 0 there
    is no walk to bound.
    """
    frobenius._check_model_exponents(n, m, k)
    f = field(q**k)
    if m == 0:
        ranges = [f.elements()] * (n - 1)
    else:
        ranges = [f.elements()] * n + [f.nonzero()] * (m - 1)
    targets = frobenius._artin_schreier_targets(f.order, q)
    pairs = len(targets) * math.prod(map(len, ranges))
    if m:
        if pairs > frobenius.MAX_MODEL_TUPLES:
            raise BudgetError(
                f"exhaustive count of X_{q}({n},{m}) over F_{f.order} walks "
                f"{pairs} pairs > {frobenius.MAX_MODEL_TUPLES}"
            )
        return pairs - _difference_walk(f.packed_sub_table(), targets, ranges)
    if n:
        return pairs
    return targets.count(0)


def xq_full_product_count(q: int, n: int, m: int, k: int) -> int:
    """Naive full-product count of X_q(n, m)(F_{q^k}): every coordinate is
    enumerated and each (zeta, tuple) is tested against the equation, in one
    ``_difference_walk`` from every zeta^q - zeta.

    ``xq_model_rows`` runs it only where the q^k * q^{kn} * (q^k - 1)^m
    tuples number at most ``MAX_FULL_PRODUCT_TUPLES``.
    """
    frobenius._check_model_exponents(n, m, k)
    f = field(q**k)
    ranges = [f.elements()] * n + [f.nonzero()] * m
    targets = frobenius._artin_schreier_targets(f.order, q)
    return _difference_walk(f.packed_sub_table(), targets, ranges)


def xq_model_rows(max_qk: int, max_nm: int) -> Iterator[dict]:
    """Closed-form X_q(n, m) point counts against the brute-force counters.

    Each row is yielded as soon as it is made: when a count exceeds its
    budget, the consumer already holds every row made before the BudgetError.
    """
    for q in range(2, max_qk + 1):
        try:
            _factor_prime_power(q)
        except ConfigError:
            continue
        k = 1
        while q**k <= max_qk:
            qk = q**k
            for n in range(max_nm + 1):
                for m in range(max_nm + 1 - n):
                    params = {"q": q, "k": k, "n": n, "m": m}
                    count = frobenius.xq_point_count(q, n, m, k)
                    yield _row(
                        "xq-closed-vs-brute", params, count, xq_brute_count(q, n, m, k)
                    )
                    if qk ** (1 + n) * (qk - 1) ** m <= MAX_FULL_PRODUCT_TUPLES:
                        yield _row(
                            "xq-full-product",
                            params,
                            count,
                            xq_full_product_count(q, n, m, k),
                        )
                    yield _row(
                        "yqs-s1-equals-xq",
                        params,
                        frobenius.yqs_point_count(q, 1, n, m, k),
                        count,
                    )
                    if n == 0:
                        yield _row("xq-divisible-by-q", params, count % q, 0)
            k += 1
