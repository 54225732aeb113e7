"""Brute-force oracles over small finite flag varieties of GL_n.

A flag coset gB is stored by its unique column-reduced representative: pivots
are the bottom-most nonzero entries, normalised to 1, with the rest of each
pivot row cleared to the right.  The pivot positions of the canonical form
read off the Schubert cell directly, and the same reduction applied to
g^{-1} F(g) decides membership of Deligne-Lusztig pieces.  Everything here is
exhaustive enumeration; these counts are the independent ground truth against
which the polynomial formulas are checked.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import BudgetError, ConfigError
from .gf import FqField, field
from .rootdata import RootSystem, WeylElement, build_root_system

Perm = tuple[int, ...]
Rows = tuple[tuple[int, ...], ...]

MAX_FLAG_COUNT = 10**6
MAX_MATRIX_SIZE = 4


# -- permutations <-> type A Weyl elements ----------------------------------


def compose(f: Perm, g: Perm) -> Perm:
    return tuple(f[g[i]] for i in range(len(f)))


def identity_perm(n: int) -> Perm:
    return tuple(range(n))


def adjacent_transposition(n: int, i: int) -> Perm:
    out = list(range(n))
    out[i], out[i + 1] = out[i + 1], out[i]
    return tuple(out)


def inversions(sigma: Perm) -> int:
    n = len(sigma)
    return sum(1 for i in range(n) for j in range(i + 1, n) if sigma[i] > sigma[j])


def permutation_of(w: WeylElement) -> Perm:
    """One-line permutation of a type A Weyl element (s_i maps to (i, i+1))."""
    rs = w.system
    if rs.type_label != "A":
        raise ConfigError("permutation model applies to type A only")
    n = rs.rank + 1
    sigma = identity_perm(n)
    for i in w.canonical_word:
        sigma = compose(sigma, adjacent_transposition(n, i))
    return sigma


def weyl_from_permutation(rs: RootSystem, sigma: Perm) -> WeylElement:
    if rs.type_label != "A" or len(sigma) != rs.rank + 1:
        raise ConfigError("permutation does not match the type A system")
    letters = []
    s = list(sigma)
    changed = True
    while changed:
        changed = False
        for i in range(len(s) - 1):
            if s[i] > s[i + 1]:
                s[i], s[i + 1] = s[i + 1], s[i]
                letters.append(i)
                changed = True
    letters.reverse()
    w = rs.element_from_word(letters)
    if permutation_of(w) != sigma:
        raise AssertionError("permutation decomposition is inconsistent")
    return w


def _type_a_system(n: int) -> RootSystem:
    if not 2 <= n <= MAX_MATRIX_SIZE:
        raise ConfigError(f"GL_n supported for 2 <= n <= {MAX_MATRIX_SIZE}")
    return build_root_system("A", n - 1)


# -- matrices over FqField ---------------------------------------------------


def mat_mul(f: FqField, a: Rows, b: Rows) -> Rows:
    n = len(a)
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            acc = 0
            for k in range(n):
                acc = f.add(acc, f.mul(a[i][k], b[k][j]))
            row.append(acc)
        out.append(tuple(row))
    return tuple(out)


def mat_inverse(f: FqField, a: Rows) -> Rows:
    sub, mul = f.sub_table(), f.mul_table()
    n = len(a)
    aug = [list(a[i]) + [int(i == j) for j in range(n)] for i in range(n)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot is None:
            raise ZeroDivisionError("singular matrix")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        mul_inv = mul[f.inv(aug[col][col])]
        aug[col] = [mul_inv[x] for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                mul_c = mul[aug[r][col]]
                aug[r] = [sub[x][mul_c[y]] for x, y in zip(aug[r], aug[col])]
    return tuple(tuple(row[n:]) for row in aug)


def mat_frobenius(f: FqField, a: Rows, q: int) -> Rows:
    return tuple(tuple(f.pow(x, q) for x in row) for row in a)


def mat_rank(f: FqField, rows: list[list[int]]) -> int:
    sub, mul = f.sub_table(), f.mul_table()
    rows = [list(r) for r in rows]
    rank = 0
    ncols = len(rows[0]) if rows else 0
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


# -- canonical flags ----------------------------------------------------------


@dataclass(frozen=True)
class Flag:
    """Canonical representative of a coset gB, with its pivot permutation."""

    field_order: int
    matrix: Rows
    pivots: Perm

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
    return Flag(f.order, matrix, tuple(pivots))


def gaussian_flag_count(n: int, q: int) -> int:
    """[n]_q! , the number of complete flags of F_q^n."""
    total = 1
    for i in range(1, n + 1):
        total *= (q**i - 1) // (q - 1)
    return total


def _cell_flags(f: FqField, sigma: Perm):
    """Flags whose pivot permutation is sigma, i.e. the cell of sigma."""
    n = len(sigma)
    free = []
    for j in range(n):
        earlier = set(sigma[:j])
        free.append([i for i in range(n) if i < sigma[j] and i not in earlier])
    slots = [(j, i) for j in range(n) for i in free[j]]
    for values in itertools.product(f.elements(), repeat=len(slots)):
        cols = [[0] * n for _ in range(n)]
        for j in range(n):
            cols[j][sigma[j]] = 1
        for (j, i), v in zip(slots, values):
            cols[j][i] = v
        matrix = tuple(tuple(cols[j][i] for j in range(n)) for i in range(n))
        yield Flag(f.order, matrix, sigma)


def enumerate_flags(n: int, q: int) -> list[Flag]:
    """All flags of F_q^n, grouped by Schubert cell, cells in lex perm order."""
    if not 2 <= n <= MAX_MATRIX_SIZE:
        raise ConfigError(f"flag enumeration supports 2 <= n <= {MAX_MATRIX_SIZE}")
    if gaussian_flag_count(n, q) > MAX_FLAG_COUNT:
        raise BudgetError(
            f"flag variety of GL_{n}(F_{q}) has more than {MAX_FLAG_COUNT} points"
        )
    f = field(q)
    out = []
    for sigma in itertools.permutations(range(n)):
        out.extend(_cell_flags(f, sigma))
    return out


# -- Bruhat cells -------------------------------------------------------------


def bruhat_word(f: FqField, rows: Rows) -> Perm:
    """Pivot permutation sigma with rows in B.P_sigma.B (lower-left rank data)."""
    return canonical_flag(f, rows).pivots


def rank_profile_word(f: FqField, rows: Rows) -> Perm:
    """Independent computation of the same permutation from lower-left ranks."""
    n = len(rows)

    def r(i, j):
        if j == 0:
            return 0
        return mat_rank(f, [[rows[a][b] for b in range(j)] for a in range(i, n)])

    return tuple(max(i for i in range(n) if r(i, j + 1) > r(i, j)) for j in range(n))


def opposite_rank_profile_word(f: FqField, rows: Rows) -> Perm:
    """Permutation v with the flag in the opposite cell of v (upper-left ranks)."""
    n = len(rows)

    def r(i, j):
        if j == 0:
            return 0
        return mat_rank(f, [[rows[a][b] for b in range(j)] for a in range(i + 1)])

    return tuple(min(i for i in range(n) if r(i, j + 1) > r(i, j)) for j in range(n))


def bruhat_cell(flag: Flag) -> WeylElement:
    """The w with the flag inside the Schubert cell B w . B."""
    return weyl_from_permutation(_type_a_system(flag.n), flag.pivots)


def opposite_cell(flag: Flag) -> WeylElement:
    """The v with the flag inside the opposite cell B^- v . B."""
    f = field(flag.field_order)
    n = flag.n
    reversed_rows = tuple(flag.matrix[n - 1 - i] for i in range(n))
    tau = bruhat_word(f, reversed_rows)
    v = tuple(n - 1 - tau[j] for j in range(n))
    return weyl_from_permutation(_type_a_system(n), v)


# -- cell counting oracles ----------------------------------------------------


def double_cell_count(n: int, q: int, w: WeylElement, v: WeylElement) -> int:
    """Number of F_q flags in the double cell (Bruhat cell w, opposite cell v)."""
    w_perm = permutation_of(w)
    v_perm = permutation_of(v)
    f = field(q)
    count = 0
    for flag in _cell_flags(f, w_perm):
        n_ = flag.n
        reversed_rows = tuple(flag.matrix[n_ - 1 - i] for i in range(n_))
        tau = bruhat_word(f, reversed_rows)
        if tuple(n_ - 1 - tau[j] for j in range(n_)) == v_perm:
            count += 1
    return count


def double_cell_census(n: int, q: int) -> dict[tuple[Perm, Perm], int]:
    """Counts of every (Bruhat cell, opposite cell) pair over all flags."""
    f = field(q)
    census: dict[tuple[Perm, Perm], int] = {}
    for flag in enumerate_flags(n, q):
        n_ = flag.n
        reversed_rows = tuple(flag.matrix[n_ - 1 - i] for i in range(n_))
        tau = bruhat_word(f, reversed_rows)
        v = tuple(n_ - 1 - tau[j] for j in range(n_))
        key = (flag.pivots, v)
        census[key] = census.get(key, 0) + 1
    return census


def dl_piece_count(n: int, q: int, w: WeylElement, x: WeylElement, k: int = 1) -> int:
    """Points of the Deligne-Lusztig piece X_x(w) over F_{q^k}.

    Counts flags g of F_{q^k}^n inside the Schubert cell of x whose Lang
    image g^{-1} F(g) lies in the double coset B w B, F being the entrywise
    q-power Frobenius.
    """
    qk = q**k
    if gaussian_flag_count(n, qk) > MAX_FLAG_COUNT:
        raise BudgetError("Deligne-Lusztig piece enumeration exceeds the flag budget")
    f = field(qk)
    w_perm = permutation_of(w)
    x_perm = permutation_of(x)
    count = 0
    for flag in _cell_flags(f, x_perm):
        g = flag.matrix
        h = mat_mul(f, mat_inverse(f, g), mat_frobenius(f, g, q))
        if bruhat_word(f, h) == w_perm:
            count += 1
    return count


def dl_total_count(n: int, q: int, w: WeylElement, k: int = 1) -> int:
    """Points of X(w) over F_{q^k}, counted in one pass over all flags."""
    qk = q**k
    f = field(qk)
    w_perm = permutation_of(w)
    count = 0
    for flag in enumerate_flags(n, qk):
        g = flag.matrix
        h = mat_mul(f, mat_inverse(f, g), mat_frobenius(f, g, q))
        if bruhat_word(f, h) == w_perm:
            count += 1
    return count


# -- the GL_3 worked example --------------------------------------------------


@dataclass(frozen=True)
class Gl3ExampleCounts:
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

    q: int
    k: int
    x_full: int
    closed_orbits: int
    open_orbits: int
    closed_points: int
    open_points: int

    @property
    def orbit_total(self) -> int:
        return self.closed_orbits + self.open_orbits

    @property
    def point_total(self) -> int:
        return self.closed_points + self.open_points


def gl3_example_counts(q: int, k: int = 1) -> Gl3ExampleCounts:
    qk = q**k
    if qk**3 > 2 * 10**6:
        raise BudgetError("GL_3 example enumeration exceeds the triple budget")
    f = field(qk)

    def lang(x: int) -> int:
        return f.sub(f.pow(x, q), x)

    x_full = 0
    closed_rational = 0
    for a in f.elements():
        la = lang(a)
        aq = f.pow(a, q)
        for b in f.elements():
            lb = lang(b)
            t1 = f.mul(a, lb)
            t2 = f.mul(aq, lb)
            for c in f.elements():
                lc = lang(c)
                if lc != t1 and lc != t2:
                    x_full += 1
                    if la == 0:
                        closed_rational += 1
    if closed_rational % q or (x_full - closed_rational) % q:
        raise AssertionError("free translation action did not split rational points")

    closed_points = 0
    open_points = 0
    for a in f.elements():
        la = lang(a)
        for b in f.elements():
            t = f.mul(la, lang(b))
            for big_c in f.nonzero():
                if big_c != t:
                    if la == 0:
                        closed_points += 1
                    else:
                        open_points += 1

    return Gl3ExampleCounts(
        q=q,
        k=k,
        x_full=x_full,
        closed_orbits=closed_rational // q,
        open_orbits=(x_full - closed_rational) // q,
        closed_points=closed_points,
        open_points=open_points,
    )


# -- torus orders -------------------------------------------------------------


def _perm_cycles(sigma: Perm) -> list[int]:
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


def torus_order(w: WeylElement | Perm, q: int) -> int:
    """|T^{wF}| for the diagonal torus of GL_n: product of q^c - 1 over cycles.

    This is |det(q Id - A_w)| for the permutation action A_w on the
    cocharacter lattice.
    """
    sigma = permutation_of(w) if isinstance(w, WeylElement) else tuple(w)
    out = 1
    for c in _perm_cycles(sigma):
        out *= q**c - 1
    return out


def torus_order_enumerated(w: WeylElement | Perm, q: int) -> int:
    """Brute-force |T^{wF}|: count Lang-twisted diagonal tuples cycle by cycle."""
    sigma = permutation_of(w) if isinstance(w, WeylElement) else tuple(w)
    out = 1
    for c in _perm_cycles(sigma):
        qc = q**c
        if qc > 512:
            raise BudgetError(f"torus enumeration needs a field of order {qc} > 512")
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
