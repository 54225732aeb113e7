"""Brute-force oracles over small finite flag varieties of GL_n.

A flag coset gB is stored by its unique column-reduced representative: pivots
are the bottom-most nonzero entries, normalised to 1, with the rest of each
pivot row cleared to the right.  The pivot positions of the canonical form
read off the Schubert cell directly, and the same reduction applied to the
Lang image g^{-1} F(g), found by one Gauss-Jordan solve of g x = F(g), decides
membership of Deligne-Lusztig pieces.  That solve runs the row elimination
``_reduce``; ``canonical_flag`` reduces columns on its own.  Everything here
is exhaustive enumeration; these counts are the independent ground truth
against which the polynomial formulas are checked.

Weyl elements of A_{n-1} and permutations of range(n) correspond through one
table per root system, built from the group's own tables and checked
(inversion count equals length, all permutations distinct) before it is
kept; every conversion either way is a lookup into it.  The permutation
model stays inside this module: the census below is keyed by Weyl elements.

The double-cell census reaches every flag without building it.  The
opposite cell of a flag reads, column by column, the top-most nonzero row of
each column once it is reduced against the reduced columns before it, and
that reduction depends only on the columns so far.  So each Schubert cell is
gone through one column at a time, over all of its column prefixes at once.
A reduced unit column is one ``bytes`` string, its n rows concatenated, one
byte lane per prefix, so each step is a few C calls: the next column's
choices are joined from q-lane chunks; top-most rows, pivots and base-n
opposite-cell codes (below n^(n-1), so n <= 4) come from ``translate`` masks
and big ints; and each field op of the unit reduction is one ``translate``
of the pair index a * q + b, or a comprehension once q * q > 256.  The last
column has no free entries and its pivot is the one row left over, so every
flag is one lane of the last free column's codes; that column is expanded
``CENSUS_SLICE`` prefixes at a time, which bounds the memory, and keeps only
nonzero masks, so F_343 and F_512 (n = 2 only) store no element.  Nothing is
counted in closed form and no prefixes are merged.  The first flag reaching
each (cell, opposite cell) pair is rebuilt from its index and checked
through ``canonical_flag``.
"""

from __future__ import annotations

import itertools
from collections import Counter
from collections.abc import Mapping
from functools import lru_cache, partial
from types import MappingProxyType

from .errors import BudgetError, ConfigError, Record
from .gf import FqField, field
from .rootdata import RootSystem, WeylElement, build_root_system

Perm = tuple[int, ...]
Rows = tuple[tuple[int, ...], ...]

MAX_FLAG_COUNT = 10**6
# the census's opposite-cell codes, below n^(n-1), fit its byte lanes up to
# n = 4; it refuses a larger n
MAX_MATRIX_SIZE = 4
# prefixes of the census's last free column expanded at once, which bounds
# its memory
CENSUS_SLICE = 256


# -- permutations <-> type A Weyl elements ----------------------------------


@lru_cache(maxsize=None)
def _permutation_table(
    rs: RootSystem,
) -> tuple[tuple[Perm, ...], dict[Perm, WeylElement]]:
    """One-line permutation of every element of a type A system, and back.

    Element k with canonical word starting with i is s_i x for the shorter
    x = s_i w_k, so its permutation is x's with the values i and i+1 swapped.
    Built once per system; before the table is returned, every permutation's
    inversion count is asserted equal to its element's length and all of them
    are asserted distinct, so a failed check caches nothing.
    """
    if rs.type_label != "A":
        raise ConfigError("permutation model applies to type A only")
    perms = [tuple(range(rs.rank + 1))]
    for k in range(1, len(rs._words)):
        i = rs._words[k][0]
        swap = {i: i + 1, i + 1: i}
        perms.append(tuple(swap.get(a, a) for a in perms[rs._lmul[i][k]]))
    for sigma, length in zip(perms, rs._lengths):
        if sum(a > b for a, b in itertools.combinations(sigma, 2)) != length:
            raise AssertionError(
                f"permutation {sigma} of {rs} has the wrong inversion count"
            )
    elements = dict(zip(perms, rs.weyl_elements()))
    if len(elements) != len(perms):
        raise AssertionError(f"permutations of {rs} are not distinct")
    return tuple(perms), elements


def permutation_of(w: WeylElement) -> Perm:
    """One-line permutation of a type A Weyl element: s_i swaps i and i+1.

    >>> a2 = build_root_system("A", 2)
    >>> permutation_of(a2.simple_reflection(0))
    (1, 0, 2)
    >>> permutation_of(a2.element_from_word((0, 1)))
    (1, 2, 0)
    """
    return _permutation_table(w.system)[0][w.index]


def _gl_permutation(n: int, w: WeylElement) -> Perm:
    """Permutation of w, which must lie in the Weyl group A_{n-1} of GL_n."""
    rs = w.system
    if rs.type_label != "A" or rs.rank != n - 1:
        raise ConfigError(f"{w.word_str} of {rs} is not in the Weyl group of GL_{n}")
    return permutation_of(w)


# -- matrices over FqField ---------------------------------------------------


def _reduce(f: FqField, rows: list[list[int]], ncols: int) -> int:
    """Gauss-Jordan elimination of rows on their first ncols columns, in
    place: pivots scaled to 1 and moved up, cleared in every other row.
    Returns the rank."""
    sub, mul = f.sub_table(), f.mul_table()
    rank = 0
    for col in range(ncols):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        mul_inv = mul[f.inv(rows[rank][col])]
        rows[rank] = [mul_inv[x] for x in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col] != 0:
                mul_c = mul[rows[r][col]]
                rows[r] = [sub[x][mul_c[y]] for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def _solve(f: FqField, a: Rows, b: Rows) -> Rows:
    """a^{-1} b, by ``_reduce`` on the rows of [a | b] over the columns of a;
    ZeroDivisionError when a is singular."""
    n = len(a)
    aug = [list(a_row) + list(b_row) for a_row, b_row in zip(a, b)]
    if _reduce(f, aug, n) < n:
        raise ZeroDivisionError("singular matrix")
    return tuple(tuple(row[n:]) for row in aug)


# -- canonical flags ----------------------------------------------------------


class Flag(Record):
    """Canonical representative of a coset gB, with its pivot permutation."""

    __slots__ = ("matrix", "pivots")

    def __init__(self, matrix: Rows, pivots: Perm):
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "pivots", pivots)

    @property
    def n(self) -> int:
        return len(self.matrix)


def canonical_flag(f: FqField, rows: Rows) -> Flag:
    """Column-reduce an invertible matrix to the unique flag representative."""
    sub, mul = f.sub_table(), f.mul_table()
    n = len(rows)
    cols = [[rows[i][j] for i in range(n)] for j in range(n)]
    pivots = []
    for j in range(n):
        col = cols[j]
        p = max(i for i in range(n) if col[i] != 0)
        mul_inv = mul[f.inv(col[p])]
        cols[j] = [mul_inv[x] for x in col]
        for j2 in range(j + 1, n):
            c = cols[j2][p]
            if c != 0:
                mul_c = mul[c]
                cols[j2] = [sub[x][mul_c[y]] for x, y in zip(cols[j2], cols[j])]
        pivots.append(p)
    matrix = tuple(tuple(cols[j][i] for j in range(n)) for i in range(n))
    return Flag(matrix, tuple(pivots))


def gaussian_flag_count(n: int, q: int) -> int:
    """[n]_q! , the number of complete flags of F_q^n."""
    total = 1
    for i in range(1, n + 1):
        total *= (q**i - 1) // (q - 1)
    return total


def _free_rows(sigma: Perm) -> list[list[int]]:
    """Rows of the free entries of each column in the cell of sigma: those
    above the column's pivot and outside the earlier pivot rows."""
    return [
        [i for i in range(sigma[j]) if i not in sigma[:j]] for j in range(len(sigma))
    ]


def _cell_matrix(sigma: Perm, free: list[list[int]], values) -> Rows:
    """Canonical matrix in the cell of sigma, free entries given column by column."""
    n = len(sigma)
    cols = [[0] * n for _ in range(n)]
    entries = iter(values)
    for j in range(n):
        cols[j][sigma[j]] = 1
        for i in free[j]:
            cols[j][i] = next(entries)
    return tuple(zip(*cols))


def _cell_flags(f: FqField, sigma: Perm):
    """Flags whose pivot permutation is sigma, i.e. the cell of sigma."""
    free = _free_rows(sigma)
    for values in itertools.product(f.elements(), repeat=sum(map(len, free))):
        yield Flag(_cell_matrix(sigma, free, values), sigma)


def _check_flag_budget(n: int, q: int) -> None:
    if not 2 <= n <= MAX_MATRIX_SIZE:
        raise ConfigError(f"n must satisfy 2 <= n <= {MAX_MATRIX_SIZE}, got {n}")
    if gaussian_flag_count(n, q) > MAX_FLAG_COUNT:
        raise BudgetError(
            f"flag variety of GL_{n}(F_{q}) has more than {MAX_FLAG_COUNT} points"
        )


def enumerate_flags(n: int, q: int) -> list[Flag]:
    """All flags of F_q^n, grouped by Schubert cell, cells in lex perm order."""
    f = field(q)
    _check_flag_budget(n, q)
    out = []
    for sigma in itertools.permutations(range(n)):
        out.extend(_cell_flags(f, sigma))
    return out


# -- Bruhat cells -------------------------------------------------------------


def _opposite_perm(f: FqField, flag: Flag) -> Perm:
    """Permutation v with the flag in B^- v . B: reverse the rows, reduce, flip."""
    n = flag.n
    tau = canonical_flag(f, flag.matrix[::-1]).pivots
    return tuple(n - 1 - t for t in tau)


# -- cell counting oracles ----------------------------------------------------


# the nonzero mask of a row of byte lanes: 0xff where the entry is nonzero
_NONZERO = bytes(1) + b"\xff" * 255
# byte lanes read as one big int, the first lane most significant
_int = partial(int.from_bytes, byteorder="big")


class _Chunks(dict):
    """x + a c for every a of F_q, as lanes or, with ``masks``, their nonzero
    masks, at the key x * q + c; each chunk is built on first use."""

    def __init__(self, q: int, masks: bool):
        self.f, self.masks = field(q), masks

    def __missing__(self, key: int) -> bytes:
        sub, mul = self.f.sub_table(), self.f.mul_table()
        x, c = divmod(key, self.f.order)
        lanes = [sub[x][m] for m in mul[sub[0][c]]]
        chunk = bytes([255 * (y != 0) for y in lanes] if self.masks else lanes)
        self[key] = chunk
        return chunk


_chunks = lru_cache(maxsize=None)(_Chunks)


@lru_cache(maxsize=None)
def _field_pair_tables(q: int) -> tuple:
    """1 / b (0 for b = 0) as a ``translate`` table, then a * b and a - b at
    the pair index a * q + b: ``translate`` tables while q * q <= 256, else
    lists of one-lane chunks."""
    f = field(q)
    inv = bytes([0, *map(f.inv, f.nonzero())]).ljust(256, b"\0")
    tables = [bytes(itertools.chain(*t)) for t in (f.mul_table(), f.sub_table())]
    if q * q <= 256:
        return inv, *(t.ljust(256, b"\0") for t in tables)
    return inv, *([bytes((y,)) for y in t] for t in tables)


def _pair_op(table, a: bytes, b: bytes, q: int) -> bytes:
    """``table[x * q + y]`` for each lane x of a and its lane y of b, joined:
    while q * q <= 256 the index is one big-int lane add read by one
    ``translate`` or join, past that bound a comprehension."""
    if q * q > 256:
        return b"".join([table[x * q + y] for x, y in zip(a, b)])
    index = (_int(a) * q + _int(b)).to_bytes(len(a), "big")
    if type(table) is bytes:
        return index.translate(table)
    return b"".join(map(table.__getitem__, index))


@lru_cache(maxsize=None)
def _repeat_chunks(k: int) -> list[bytes]:
    return [bytes((y,)) * k for y in range(256)]


def _repeat(lanes: bytes, k: int) -> bytes:
    """Each lane k times in a row: a prefix's lane for each of its k children."""
    return lanes if k == 1 else b"".join(map(_repeat_chunks(k).__getitem__, lanes))


def _expand_column(
    units: dict[int, bytes], pivot_row: int, free_rows: list[int], q: int, masks: bool
) -> tuple[bytes, int]:
    """Column lanes, rows concatenated, of every child of every prefix, and
    the number of children per prefix; with ``masks``, the last free row
    gives nonzero masks.

    A child is its prefix's reduced base unit plus a multiple of each reduced
    free unit, the free rows taken in turn, so children come in product order.
    """
    col, k = units[pivot_row], 1
    for i in free_rows:
        chunks = _chunks(q, masks and i == free_rows[-1])
        col = _pair_op(chunks, col, _repeat(units[i], k), q)
        k *= q
    return col, k


def _child_codes(
    masks: bytes, n: int, codes: bytes, k: int
) -> tuple[bytes, list[int]]:
    """Each child's opposite-cell code, its prefix's code then its top-most
    nonzero row in base n, from the nonzero masks of the column's n rows;
    and per row, the mask of the lanes whose top-most nonzero row it is."""
    size = len(masks) // n
    seen, picks = 0, []
    for x in range(0, len(masks), size):
        picks.append(_int(masks[x : x + size]) & ~seen)
        seen |= picks[-1]
    top = sum(x * pick for x, pick in enumerate(picks)) // 255
    return (_int(_repeat(codes, k)) * n + top).to_bytes(size, "big"), picks


def _gather(col: bytes, picks: list[int]) -> bytes:
    """Each lane's entry in the row that ``picks`` selects for it."""
    size = len(col) // len(picks)
    rows = [_int(col[x : x + size]) for x in range(0, len(col), size)]
    return sum(map(int.__and__, rows, picks)).to_bytes(size, "big")


@lru_cache(maxsize=None)
def double_cell_census(
    n: int, q: int
) -> Mapping[tuple[WeylElement, WeylElement], int]:
    """Counts of every (Bruhat cell w, opposite cell v) pair over all flags.

    Goes through each Schubert cell one column at a time, over all of its
    column prefixes at once (see the module docstring), and reaches every
    flag as its own entry, in ``enumerate_flags`` order.  The last free
    column is expanded ``CENSUS_SLICE`` prefixes at a time.  The first flag
    of each pair is rebuilt from its index and checked against
    ``_opposite_perm``.  Keyed by Weyl elements of A_{n-1}, in the order the
    flags first reach each pair.  Interned per (n, q) and read-only; a pair
    with no flags reads 0.
    """
    f = field(q)
    _check_flag_budget(n, q)
    if n ** (n - 1) > 256:
        raise ConfigError(f"census codes below {n}^{n - 1} overflow the byte lanes")
    elements = _permutation_table(build_root_system("A", n - 1))[1]
    census: Counter = Counter()
    for sigma in itertools.permutations(range(n)):
        free = _free_rows(sigma)
        # units[r]: the unit column e_r reduced against the columns so far, its
        # n rows concatenated, one byte lane per prefix; codes: the opposite
        # cell so far, base n, one lane per prefix
        units = {r: bytes(int(x == r) for x in range(n)) for r in range(n)}
        codes = bytes(1)
        for j in range(n - 2):
            inv, mul, sub = _field_pair_tables(q)
            col, k = _expand_column(units, sigma[j], free[j], q, masks=False)
            codes, picks = _child_codes(col.translate(_NONZERO), n, codes, k)
            # scale: 1 / (pivot entry) of each child; each unit a later free
            # column reads subtracts the multiple of the column that clears
            # its entry in the pivot row
            scale = _gather(col, picks).translate(inv)
            later = {r for l in range(j + 1, n - 1) for r in (sigma[l], *free[l])}
            reduced = {}
            for r in later:
                u = _repeat(units[r], k)
                factor = _pair_op(mul, _gather(u, picks), scale, q)
                reduced[r] = _pair_op(sub, u, _pair_op(mul, factor * n, col, q), q)
            units = reduced

        # the last column has no free entries and its pivot is the row left
        # over, so each flag's opposite cell is its code after the last free
        # column; each slice reads only the units that column needs
        pivot_row, free_last = sigma[n - 2], free[n - 2]
        prefixes = len(codes)
        per_prefix = q ** len(free_last)
        row_starts = range(0, n * prefixes, prefixes)
        cell: Counter = Counter()
        for start in range(0, prefixes, CENSUS_SLICE):
            stop = min(start + CENSUS_SLICE, prefixes)
            needed = {
                r: b"".join(units[r][x + start : x + stop] for x in row_starts)
                for r in (pivot_row, *free_last)
            }
            col, k = _expand_column(needed, pivot_row, free_last, q, masks=True)
            masks = col if free_last else col.translate(_NONZERO)
            keys = _child_codes(masks, n, codes[start:stop], k)[0]
            counts = Counter(keys)
            for key in counts:
                if key not in cell:
                    index = start * per_prefix + keys.index(key)
                    v = _opposite_from_code(n, key)
                    _check_first_flag(f, sigma, free, index, v)
            cell.update(counts)
        for key, count in cell.items():
            census[elements[sigma], elements[_opposite_from_code(n, key)]] = count
    return MappingProxyType(census)


def _opposite_from_code(n: int, code: int) -> Perm:
    """Opposite-cell permutation from the base-n code of its first n - 1 rows."""
    tops = [code // n**e % n for e in range(n - 2, -1, -1)]
    return (*tops, n * (n - 1) // 2 - sum(tops))


def _check_first_flag(
    f: FqField, sigma: Perm, free: list[list[int]], index: int, v: Perm
) -> None:
    """Rebuild the flag at a flat index of the cell of sigma, whose base-q
    digits are its free values in product order, and check through
    ``_opposite_perm`` that it lies in the opposite cell of v."""
    values = []
    for _ in range(sum(map(len, free))):
        index, a = divmod(index, f.order)
        values.append(a)
    flag = Flag(_cell_matrix(sigma, free, values[::-1]), sigma)
    if _opposite_perm(f, flag) != v:
        raise AssertionError(
            "column-prefix walk and canonical_flag disagree on the "
            f"opposite cell of {flag.matrix}"
        )


def _lang_perm(f: FqField, g: Rows, q: int) -> Perm:
    """Bruhat cell of the Lang image g^{-1} F(g), F the entrywise q-power,
    found by one solve of g x = F(g)."""
    frob_g = tuple(tuple(f.pow(x, q) for x in row) for row in g)
    return canonical_flag(f, _solve(f, g, frob_g)).pivots


def _extension_field(q: int, k: int) -> FqField:
    if k < 1:
        raise ConfigError(f"k must satisfy k >= 1, got {k}")
    return field(q**k)


def dl_piece_count(n: int, q: int, w: WeylElement, x: WeylElement, k: int = 1) -> int:
    """Points of the Deligne-Lusztig piece X_x(w) over F_{q^k}.

    Counts flags g of F_{q^k}^n inside the Schubert cell of x whose Lang
    image g^{-1} F(g) lies in the double coset B w B, F being the entrywise
    q-power Frobenius.
    """
    f = _extension_field(q, k)
    _check_flag_budget(n, f.order)
    w_perm = _gl_permutation(n, w)
    cell = _cell_flags(f, _gl_permutation(n, x))
    return sum(1 for flag in cell if _lang_perm(f, flag.matrix, q) == w_perm)


# -- the GL_3 worked example --------------------------------------------------


class Gl3ExampleCounts(Record):
    """Point counts of X_{w0}(w0) for GL_3 and of its quotient by D(U)^F.

    ``x_full`` counts rational points of the variety itself, in unipotent
    coordinates (a, b, c) with both Lang conditions nonzero.  The closed and
    open pieces are split by a^q - a = 0 versus != 0.

    Two different quotient counts are exposed, because they genuinely differ:

    * ``*_orbits``: D(U)^F-orbits on the rational points (the set quotient of
      X(F_{q^k}) by the free translation action on c).  q times their total
      recovers ``x_full`` exactly.
    * ``*_points``: fixed points of the induced Frobenius on the quotient
      variety, enumerated in the (a, b, C) chart with C = c^q - c - a(b^q - b).
      These match the product models F_q x G_a x G_m and the Artin-Schreier
      factor counts; they do NOT equal x_full / q in general, because the
      Artin-Schreier fibres are torsors without rational points.
    """

    __slots__ = ("x_full", "closed_orbits", "open_orbits", "closed_points", "open_points")


def gl3_example_counts(q: int, k: int = 1) -> Gl3ExampleCounts:
    qk = q**k
    if qk**3 > 2 * 10**6:
        raise BudgetError("GL_3 example enumeration exceeds the triple budget")
    f = _extension_field(q, k)
    sub = f.sub_table()
    frob = [f.pow(x, q) for x in f.elements()]
    lang = [sub[frob[x]][x] for x in f.elements()]  # x^q - x

    x_full = 0
    closed_rational = 0
    for a in f.elements():
        la = lang[a]
        aq = frob[a]
        for lb in lang:
            t1 = f.mul(a, lb)
            t2 = f.mul(aq, lb)
            for lc in lang:
                if lc != t1 and lc != t2:
                    x_full += 1
                    if la == 0:
                        closed_rational += 1
    if closed_rational % q or (x_full - closed_rational) % q:
        raise AssertionError("free translation action did not split rational points")

    closed_points = 0
    open_points = 0
    for la in lang:
        for lb in lang:
            t = f.mul(la, lb)
            for big_c in f.nonzero():
                if big_c != t:
                    if la == 0:
                        closed_points += 1
                    else:
                        open_points += 1

    return Gl3ExampleCounts(
        x_full=x_full,
        closed_orbits=closed_rational // q,
        open_orbits=(x_full - closed_rational) // q,
        closed_points=closed_points,
        open_points=open_points,
    )


# -- torus orders -------------------------------------------------------------


def _perm_cycles(w: WeylElement) -> list[int]:
    """Cycle lengths of w's permutation."""
    sigma = permutation_of(w)
    seen = [False] * len(sigma)
    lengths = []
    for i in range(len(sigma)):
        if not seen[i]:
            length = 0
            j = i
            while not seen[j]:
                seen[j] = True
                j = sigma[j]
                length += 1
            lengths.append(length)
    return lengths


def torus_order(w: WeylElement, q: int) -> int:
    """|T^{wF}| for the diagonal torus of GL_n: product of q^c - 1 over cycles.

    This is |det(q Id - A_w)| for the permutation action A_w on the
    cocharacter lattice.
    """
    out = 1
    for c in _perm_cycles(w):
        out *= q**c - 1
    return out
