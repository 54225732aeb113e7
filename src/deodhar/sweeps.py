"""Exhaustive verification sweeps shared by the CLI and the test suite.

Every function returns a list of comparison rows
``{"test", "parameters", "lhs", "rhs", "match"}`` in a canonical order, so
identical configurations produce byte-identical reports.  The oracle-triangle
sweep can be partitioned across processes (environment variable
DEODHAR_WORKERS); results are merged and re-sorted, so the output does not
depend on scheduling.
"""

from __future__ import annotations

import itertools
import os
from concurrent.futures import ProcessPoolExecutor

from . import cells, counting, flags, frobenius
from .counting import IntPolynomial
from .errors import ConfigError
from .gf import _factor_prime_power, field
from .rootdata import build_root_system, bruhat_leq, reduced_words

RANK_LE_3_TYPES = (
    ("A", 1),
    ("A", 2),
    ("A", 3),
    ("B", 2),
    ("B", 3),
    ("C", 2),
    ("C", 3),
    ("G", 2),
)
ORACLE_TYPES = (("A", 2), ("A", 3), ("B", 2), ("B", 3), ("G", 2))


def _row(test: str, parameters: dict, lhs, rhs) -> dict:
    return {
        "test": test,
        "parameters": parameters,
        "lhs": lhs,
        "rhs": rhs,
        "match": lhs == rhs,
    }


def worker_count() -> int:
    """DEODHAR_WORKERS (default 1), capped at the machine's cpu count."""
    raw = os.environ.get("DEODHAR_WORKERS", "1")
    try:
        n = int(raw)
    except ValueError:
        n = 0
    if n < 1:
        raise ConfigError(f"DEODHAR_WORKERS must be an integer >= 1, got {raw!r}")
    return min(n, os.cpu_count() or 1)


# -- oracle triangle ----------------------------------------------------------


def _grouped_cell_polys(word: cells.ReducedWord) -> dict:
    groups: dict = {}
    for gamma in cells.enumerate_distinguished(word):
        poly = counting.cell_count_poly(gamma.cell_shape())
        key = gamma.end
        groups[key] = groups.get(key, IntPolynomial.zero()) + poly
    return groups


def _element_rows(args: tuple[str, int, tuple[int, ...]]) -> list[dict]:
    type_label, rank, w_word = args
    rs = build_root_system(type_label, rank)
    w = rs.element_from_word(w_word)
    below = [v for v in rs.weyl_elements() if bruhat_leq(v, w)]
    rpolys = {v: counting.r_polynomial(v, w) for v in below}
    rows = []
    for letters in reduced_words(w):
        word = cells.ReducedWord.from_letters(rs, letters)
        groups = _grouped_cell_polys(word)
        for v in below:
            dp = groups.get(v, IntPolynomial.zero())
            rp = rpolys[v]
            rows.append(
                _row(
                    "deodhar-vs-rpoly",
                    {
                        "type": type_label,
                        "rank": rank,
                        "w": w.word_str,
                        "word": word.display,
                        "v": v.word_str,
                    },
                    list(dp.coeffs),
                    list(rp.coeffs),
                )
            )
    return rows


def _row_sort_key(row: dict):
    params = row["parameters"]
    return (row["test"], tuple(sorted((k, str(v)) for k, v in params.items())))


def oracle_triangle_rows(type_label: str, rank: int) -> list[dict]:
    """deodhar_poly == r_polynomial for every v <= w and every reduced word."""
    rs = build_root_system(type_label, rank)
    args = [(type_label, rank, w.canonical_word) for w in rs.weyl_elements()]
    n = worker_count()
    if n > 1:
        with ProcessPoolExecutor(max_workers=n) as pool:
            chunks = list(pool.map(_element_rows, args))
    else:
        chunks = [_element_rows(a) for a in args]
    rows = [r for chunk in chunks for r in chunk]
    rows.sort(key=_row_sort_key)
    return rows


def partition_rows(type_label: str, rank: int) -> list[dict]:
    """sum_v deodhar_poly(word, v) == q^{l(w)} symbolically, canonical words."""
    rs = build_root_system(type_label, rank)
    rows = []
    for w in rs.weyl_elements():
        word = cells.ReducedWord.from_letters(rs, w.canonical_word)
        total = IntPolynomial.zero()
        for poly in _grouped_cell_polys(word).values():
            total = total + poly
        rows.append(
            _row(
                "cell-partition",
                {"type": type_label, "rank": rank, "w": w.word_str},
                list(total.coeffs),
                list(counting.schubert_cell_poly(w).coeffs),
            )
        )
    return rows


# -- brute-force flag legs ----------------------------------------------------


def double_cell_rows(n: int, q: int) -> list[dict]:
    """Flag-variety double-cell counts against both polynomial routes."""
    rs = build_root_system("A", n - 1)
    census = flags.double_cell_census(n, q)
    rows = []
    elements = rs.weyl_elements()
    for w in elements:
        word = cells.ReducedWord.from_letters(rs, w.canonical_word)
        groups = _grouped_cell_polys(word)
        for v in elements:
            brute = census[(flags.permutation_of(w), flags.permutation_of(v))]
            rp = counting.r_polynomial(v, w)(q)
            dp = groups.get(v, IntPolynomial.zero())(q)
            params = {"n": n, "q": q, "w": w.word_str, "v": v.word_str}
            rows.append(_row("double-cell-vs-rpoly", params, brute, rp))
            rows.append(_row("double-cell-vs-deodhar", params, brute, dp))
    rows.sort(key=_row_sort_key)
    return rows


def flag_census_rows(n: int, q: int) -> list[dict]:
    """Flag count identities: Gaussian factorial, length generating function."""
    rs = build_root_system("A", n - 1)
    census = flags.double_cell_census(n, q)
    # the census walks every flag exactly once, so its total is the flag count
    total = sum(census.values())
    by_length = sum(q**w.length for w in rs.weyl_elements())
    params = {"n": n, "q": q}
    rows = [
        _row("flag-census-total", params, total, flags.gaussian_flag_count(n, q)),
        _row("flag-census-poincare", params, total, by_length),
    ]
    for w in rs.weyl_elements():
        wp = flags.permutation_of(w)
        in_cell = sum(c for (a, _), c in census.items() if a == wp)
        params = {"n": n, "q": q, "w": w.word_str}
        rows.append(_row("flag-census-cell", params, in_cell, q**w.length))
    return rows


# -- GL3 worked example -------------------------------------------------------


def gl3_rows(q: int, k: int) -> list[dict]:
    rs = build_root_system("A", 2)
    w0 = rs.longest_element()
    counts = flags.gl3_example_counts(q, k)
    dl = flags.dl_piece_count(3, q, w0, w0, k)
    params = {"q": q, "k": k}
    od = frobenius.orbit_data(rs, frobenius.TwistData.split(2, q))
    word = cells.ReducedWord.from_letters(rs, (0, 1, 0))
    closed_gamma = cells.Subexpression(word, (1, 0, 1))
    open_gamma = cells.Subexpression(word, (0, 0, 0))
    inv = frobenius.cell_invariants(closed_gamma, od)
    rows = [
        _row("gl3-unipotent-vs-flags", params, counts.x_full, dl),
        _row(
            "gl3-free-quotient",
            params,
            q * (counts.closed_orbits + counts.open_orbits),
            counts.x_full,
        ),
        _row(
            "gl3-closed-model",
            params,
            counts.closed_points,
            frobenius.quotient_model(closed_gamma, od).point_count(k),
        ),
        _row(
            "gl3-open-model",
            params,
            counts.open_points,
            frobenius.quotient_model(open_gamma, od).point_count(k),
        ),
        _row(
            "gl3-closed-invariants",
            params,
            [sorted(inv.n.items()), sorted(inv.m.items()), inv.n_bar, inv.m_bar],
            [[(0, 0), (1, 1)], [(0, 0), (1, 0)], 0, 1],
        ),
    ]
    if k == 1:
        rows.append(_row("gl3-k1-empty", params, counts.x_full, 0))
    return rows


# -- vanishing criterion ------------------------------------------------------


def vanishing_rows(max_rank: int = 3) -> list[dict]:
    """Core of the vanishing theorem, swept over all diagram automorphisms.

    For every reduced word of every w and every distinguished subexpression
    ending at the identity: a non-trivial one has a positive affine orbit
    exponent, and the all-skip one has no affine exponents, no leftover
    coordinates and surviving shift l(w).
    """
    rows = []
    for type_label, rank in RANK_LE_3_TYPES:
        if rank > max_rank:
            continue
        rs = build_root_system(type_label, rank)
        e = rs.identity()
        # one bucket of rows per twist, so each word's Gamma_e is enumerated
        # once and the rows still come out twist by twist
        twists = []
        for phi in frobenius.diagram_automorphisms(rs):
            od = frobenius.orbit_data(rs, frobenius.TwistData.twisted(phi, 2))
            psi = frobenius.RegularCharacter.regular_default(od)
            twists.append((phi, od, psi, []))
        for w in rs.weyl_elements():
            for letters in reduced_words(w):
                word = cells.ReducedWord.from_letters(rs, letters)
                dist = cells.enumerate_distinguished(word, e)
                nontrivial = [g for g in dist if any(g.bits)]
                all_skip = [g for g in dist if not any(g.bits)]
                for phi, od, psi, bucket in twists:
                    with_witness = 0
                    for gamma in nontrivial:
                        inv = frobenius.cell_invariants(gamma, od)
                        if any(c > 0 for c in inv.n.values()):
                            with_witness += 1
                    shift = None
                    clean = False
                    if len(all_skip) == 1:
                        inv0 = frobenius.cell_invariants(all_skip[0], od)
                        pred = frobenius.isotypic_prediction(all_skip[0], psi, od)
                        clean = (
                            all(c == 0 for c in inv0.n.values())
                            and inv0.n_bar == 0
                            and inv0.m_bar == 0
                            and not pred.vanishes
                        )
                        shift = pred.shift
                    params = {
                        "type": type_label,
                        "rank": rank,
                        "phi": "".join(rs.letter(i) for i in phi),
                        "w": w.word_str,
                        "word": word.display,
                    }
                    bucket.append(
                        _row(
                            "vanishing-nontrivial",
                            params,
                            with_witness,
                            len(nontrivial),
                        )
                    )
                    bucket.append(
                        _row(
                            "vanishing-survivor",
                            params,
                            [len(all_skip), clean, shift],
                            [1, True, w.length],
                        )
                    )
        for *_, bucket in twists:
            rows.extend(bucket)
    return rows


def witness_rows(max_rank: int = 3) -> list[dict]:
    """vanishing_witness(x) exists iff x != w0, validated by the action."""
    rows = []
    for type_label, rank in RANK_LE_3_TYPES:
        if rank > max_rank:
            continue
        rs = build_root_system(type_label, rank)
        w0 = rs.longest_element()
        for x in rs.weyl_elements():
            witness = frobenius.vanishing_witness(x)
            valid = witness is None or rs.is_positive(
                x.inverse().act(rs.simple_roots[witness])
            )
            rows.append(
                _row(
                    "witness-root",
                    {"type": type_label, "rank": rank, "x": x.word_str},
                    [witness is not None, valid],
                    [x != w0, True],
                )
            )
    return rows


# -- uniqueness of the I = J subexpression -------------------------------------


def unique_torus_rows(type_label: str, rank: int) -> list[dict]:
    """Exactly one I = J subexpression per Gamma_v: shape, maximality, order."""
    rs = build_root_system(type_label, rank)
    rows = []
    for w in rs.weyl_elements():
        for letters in reduced_words(w):
            word = cells.ReducedWord.from_letters(rs, letters)
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
                    ok_shape = shape == cells.CellShape(0, w.length - v.length)
                    ok_maximal = not any(
                        h is not g0 and cells.preceq(g0, h) for h in dist
                    )
                    ok_first = cells._filtration_sequence(dist)[0] == g0
                rows.append(
                    _row(
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
                )
    return rows


# -- Artin-Schreier models ------------------------------------------------------


def xq_brute_count(q: int, n: int, m: int, k: int = 1) -> int:
    """Exhaustive count of X_q(n, m)(F_{q^k}), independent of the closed form.

    Enumerates all coordinates except the last one and counts admissible
    completions: the last affine coordinate always completes uniquely, a last
    torus coordinate completes when the solved value is nonzero.
    """
    f = field(q**k)
    sub = f.sub_table()
    elements, nonzero = f.elements(), f.nonzero()
    free_n = n - 1 if m == 0 else n
    free_m = m - 1 if m >= 1 else 0
    count = 0
    for zeta in elements:
        target = f.sub(f.pow(zeta, q), zeta)
        if n == 0 and m == 0:
            count += target == 0
            continue
        for mus in itertools.product(elements, repeat=free_n):
            acc = target
            for mu in mus:
                acc = sub[acc][mu]
            for lams in itertools.product(nonzero, repeat=free_m):
                s = acc
                for lam in lams:
                    s = sub[s][lam]
                # the remaining coordinate is s itself
                count += 1 if m == 0 else s != 0
    return count


def xq_full_product_count(q: int, n: int, m: int, k: int = 1) -> int:
    """Naive full-product enumeration, affordable only for tiny fields."""
    f = field(q**k)
    sub = f.sub_table()
    elements, nonzero = f.elements(), f.nonzero()
    count = 0
    for zeta in elements:
        target = f.sub(f.pow(zeta, q), zeta)
        for mus in itertools.product(elements, repeat=n):
            acc = target
            for mu in mus:
                acc = sub[acc][mu]
            for lams in itertools.product(nonzero, repeat=m):
                s = acc
                for lam in lams:
                    s = sub[s][lam]
                count += s == 0
    return count


def xq_model_rows(max_qk: int = 64, max_nm: int = 3) -> list[dict]:
    rows = []
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
                    rows.append(
                        _row(
                            "xq-closed-vs-brute",
                            params,
                            count,
                            xq_brute_count(q, n, m, k),
                        )
                    )
                    if qk ** (1 + n) * max(1, (qk - 1) ** m) <= 70_000:
                        rows.append(
                            _row(
                                "xq-full-product",
                                params,
                                count,
                                xq_full_product_count(q, n, m, k),
                            )
                        )
                    rows.append(
                        _row(
                            "yqs-s1-equals-xq",
                            params,
                            frobenius.yqs_point_count(q, 1, n, m, k),
                            count,
                        )
                    )
                    if n == 0:
                        rows.append(
                            _row("xq-divisible-by-q", params, count % q, 0)
                        )
            k += 1
    return rows
