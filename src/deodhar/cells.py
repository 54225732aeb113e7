"""Subexpressions of a fixed reduced word and their Deodhar cell data.

Fix a reduced word w = s_1 ... s_r.  A subexpression is a choice gamma_i in
{1, s_i} at every letter, recorded here as a 0/1 bit vector.  Writing
gamma^i for the i-th partial product, the two index sets

    I(gamma) = { i : gamma_i = s_i }
    J(gamma) = { i : gamma^i s_i < gamma^i }

drive everything: gamma is distinguished (indexes a non-empty cell of the
double Schubert cell decomposition) iff J(gamma) is contained in I(gamma),
equivalently iff no forced letter was skipped, and the cell is then a product
of |I|-|J| affine lines and r-|I| tori.

Whether a letter s is forced after a partial product x, l(x s) < l(x), is
read from one table per root system (``_forced_letters``), checked entry by
entry against the root-sign test x(alpha_s) < 0 when it is built.  J, the
first violation of a subexpression and the pruning of the walk all read that
table; every ``Subexpression`` also asserts that its J equals the set of
positions whose twisted root beta~_i = gamma^i(-beta_i) is positive, reading
beta~_i and its sign from the root system's permutation table at the index
of -beta_i (``_negative_simple_roots``).
"""

from __future__ import annotations

import heapq
from functools import lru_cache
from itertools import repeat
from typing import Iterable, Optional

from .errors import BudgetError, ConfigError, EmptyCellError, NotComparableError, Record
from .rootdata import Root, RootSystem, WeylElement, bruhat_leq, word_str

MAX_WORD_LENGTH = 20
_BITS = frozenset((0, 1))


class ReducedWord(Record):
    """A fixed reduced expression of a Weyl group element."""

    __slots__ = ("system", "letters", "target")

    @classmethod
    def from_letters(cls, system: RootSystem, letters: Iterable[int]) -> "ReducedWord":
        letters = tuple(letters)
        target = system.element_from_word(letters)
        if target.length != len(letters):
            raise ConfigError(
                f"word {word_str(letters)!r} is not reduced: the product has "
                f"length {target.length}, a reduced form is {target.word_str!r}"
            )
        return cls(system, letters, target)

    @property
    def r(self) -> int:
        return len(self.letters)

    def simple_root(self, i: int) -> Root:
        """beta_i, the simple root of the i-th letter (0-based)."""
        return self.system.simple_roots[self.letters[i]]

    @property
    def display(self) -> str:
        return word_str(self.letters)

    def __repr__(self) -> str:
        return f"ReducedWord({self.display!r} in {self.system.type_label}{self.system.rank})"


class CellShape(Record):
    """Cell isomorphic to (G_a)^n_affine x (G_m)^m_torus."""

    __slots__ = ("n_affine", "m_torus")

    def __init__(self, n_affine: int, m_torus: int):
        object.__setattr__(self, "n_affine", n_affine)
        object.__setattr__(self, "m_torus", m_torus)

    @property
    def dimension(self) -> int:
        return self.n_affine + self.m_torus

    def __str__(self) -> str:
        return f"(Ga)^{self.n_affine} x (Gm)^{self.m_torus}"


class Subexpression:
    """A bit vector over a reduced word with all derived index data cached.

    Immutable like a ``Record``, with its own equality and hash, and copies
    as itself.  ``__init__`` stores each field through its slot's member
    descriptor (``_SET_FIELDS``), which the assignment guard does not reach.
    """

    __slots__ = ("word", "bits", "partials", "end", "I", "J", "tilde_betas")
    __setattr__ = Record.__setattr__
    __delattr__ = Record.__delattr__
    __copy__ = Record.__copy__
    __deepcopy__ = Record.__deepcopy__

    def __init__(self, word: ReducedWord, bits: Iterable[int]):
        bits = tuple(bits)
        if (
            len(bits) != word.r
            or not all(map(isinstance, bits, repeat(int)))
            or not _BITS.issuperset(bits)
        ):
            raise ConfigError("bits must be a 0/1 vector matching the word length")
        bits = tuple(map(int, bits))
        set_word, set_bits, set_partials, set_end, set_I, set_J, set_tilde = _SET_FIELDS
        set_word(self, word)
        set_bits(self, bits)
        sys = word.system
        letters = word.letters
        y = sys.identity()
        parts, ys = [y], []  # gamma^0..gamma^r; the indices of gamma^1..gamma^r
        for s, b in zip(letters, bits):
            if b:
                y = y * sys.simple_reflection(s)
            parts.append(y)
            ys.append(y.index)
        set_partials(self, tuple(parts))
        set_end(self, y)
        set_I(self, frozenset([i for i, b in enumerate(bits, 1) if b]))
        # beta~_i = gamma^i(-beta_i), a root index read off gamma^i's permutation
        perms, neg = sys._perms, _negative_simple_roots(sys)
        images = [perms[y][neg[s]] for y, s in zip(ys, letters)]
        roots = sys.roots
        set_tilde(self, tuple([roots[k] for k in images]))
        forced = _forced_letters(sys)
        J = frozenset(
            [i for i, (s, y) in enumerate(zip(letters, ys), 1) if forced[s][y]]
        )
        set_J(self, J)
        # the negative roots come first, so a root index at or past n_neg is positive
        n_neg = len(roots) - len(sys.positive_roots)
        if J != frozenset([i for i, k in enumerate(images, 1) if k >= n_neg]):
            raise AssertionError(
                f"descent and root-sign computations of J disagree on {self}"
            )

    # -- derived data ------------------------------------------------------

    @property
    def r(self) -> int:
        return self.word.r

    @property
    def is_distinguished(self) -> bool:
        return self.J <= self.I

    def violation_index(self) -> Optional[int]:
        """First 1-based position where a forced letter was skipped, if any."""
        return min(self.J - self.I, default=None)

    def cell_shape(self) -> CellShape:
        if not self.is_distinguished:
            raise EmptyCellError(f"{self.display} is not distinguished: empty cell")
        return CellShape(len(self.I) - len(self.J), self.r - len(self.I))

    def phi_roots(self) -> tuple[Root, ...]:
        """The sequence of negative twisted roots, positions outside J in order."""
        return tuple(
            self.tilde_betas[i] for i in range(self.r) if i + 1 not in self.J
        )

    @property
    def display(self) -> str:
        sys = self.word.system
        parts = [
            sys.letter(self.word.letters[i]) if b else "1"
            for i, b in enumerate(self.bits)
        ]
        return "(" + ",".join(parts) + ")" if parts else "()"

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Subexpression)
            and self.word == other.word
            and self.bits == other.bits
        )

    def __hash__(self) -> int:
        return hash((self.word.letters, self.bits))

    def __repr__(self) -> str:
        return f"Subexpression{self.display}"


# the __set__ of each slot's member descriptor, in __slots__ order
_SET_FIELDS = tuple(
    Subexpression.__dict__[name].__set__ for name in Subexpression.__slots__
)


@lru_cache(maxsize=None)
def _forced_letters(rs: RootSystem) -> tuple[tuple[bool, ...], ...]:
    """forced[s][x] = l(x s) < l(x), for every letter s and element index x.

    The one place Deodhar's forced-letter rule is decided: after a partial
    product x the letter s must be taken exactly when this holds.  Built once
    per root system; every entry is asserted equal to the root-sign test (s is
    a right descent of x, i.e. x(alpha_s) < 0) before the table is returned,
    so a failed check caches nothing.
    """
    lengths, right = rs._lengths, rs._right_descents
    table = []
    for s, row in enumerate(rs._rmul):
        forced = tuple([lengths[xs] < lengths[x] for x, xs in enumerate(row)])
        for x, flag in enumerate(forced):
            if flag != (s in right[x]):
                raise AssertionError(
                    f"descent and root-sign tests disagree on "
                    f"{rs.weyl_elements()[x].word_str} * {rs.letter(s)}"
                )
        table.append(forced)
    return tuple(table)


@lru_cache(maxsize=None)
def _negative_simple_roots(rs: RootSystem) -> tuple[int, ...]:
    """neg[s]: the index in ``rs.roots`` of -alpha_s, for every letter s."""
    return tuple(rs._root_index[tuple(-c for c in a)] for a in rs.simple_roots)


def _walk(
    word: ReducedWord, prune: bool, end: Optional[WeylElement] = None
) -> list[Subexpression]:
    """Depth-first walk over the subexpressions of word, in lexicographic bit order.

    With prune, a forced letter (one the running partial product has as a
    right descent) must be taken, so only distinguished subexpressions are
    reached.  When end is given, the walk is restricted at its leaves only:
    a leaf becomes a ``Subexpression`` when its product is end.
    """
    if word.r > MAX_WORD_LENGTH:
        raise BudgetError(
            f"word length {word.r} exceeds the enumeration cap {MAX_WORD_LENGTH}"
        )
    sys = word.system
    r = word.r
    letters = word.letters
    rmul, forced = sys._rmul, _forced_letters(sys)
    target = None if end is None else end.index
    out: list[Subexpression] = []

    def rec(i: int, bits: list[int], x: int) -> None:
        if i == r:
            if target is None or x == target:
                out.append(Subexpression(word, bits))
            return
        s = letters[i]
        xs = rmul[s][x]
        for b in (1,) if prune and forced[s][x] else (0, 1):
            bits.append(b)
            rec(i + 1, bits, xs if b else x)
            bits.pop()

    rec(0, [], 0)
    return out


def subexpressions(word: ReducedWord) -> list[Subexpression]:
    """All 2^r subexpressions, in lexicographic bit order."""
    return _walk(word, prune=False)


def enumerate_distinguished(
    word: ReducedWord, v: Optional[WeylElement] = None
) -> list[Subexpression]:
    """Distinguished subexpressions in lexicographic bit order, restricted to
    those ending at v if given.

    Enumerated by a pruned search: whenever the running partial product has
    the next letter as a right descent, taking the letter is forced.
    """
    if v is not None and v.system is not word.system:
        raise ConfigError("v belongs to a different root system")
    return _walk(word, prune=True, end=v)


def unique_IJ_equal(word: ReducedWord, v: WeylElement) -> Subexpression:
    """The unique distinguished subexpression ending at v with I = J.

    Its cell is the dense torus (G_m)^{l(w)-l(v)} of the double cell.
    """
    if not bruhat_leq(v, word.target):
        raise NotComparableError(
            f"{v.word_str} is not below {word.target.word_str} in Bruhat order"
        )
    found = [g for g in enumerate_distinguished(word, v) if g.I == g.J]
    if len(found) != 1:
        raise AssertionError(
            f"expected exactly one I=J subexpression in Gamma_{v.word_str}, "
            f"found {len(found)}"
        )
    return found[0]


def preceq(delta: Subexpression, gamma: Subexpression) -> bool:
    """Closure-order comparison: delta <= gamma iff gamma^i <= delta^i for all i."""
    if delta.word != gamma.word:
        raise ConfigError("subexpressions of different reduced words are incomparable")
    return all(
        bruhat_leq(gamma.partials[i], delta.partials[i])
        for i in range(1, gamma.r + 1)
    )


def _filtration_sequence(dist: list[Subexpression]) -> tuple[Subexpression, ...]:
    # Kahn's algorithm from the top of the closure order; ties broken by
    # (descending cell dimension, lexicographically smallest bits).  The
    # preorder is not graded by dimension (on A4 a 6-dimensional cell can lie
    # below a 5-dimensional one), so a sort on that key alone is no filtration.
    k = len(dist)
    above = [
        [j for j in range(k) if j != i and preceq(dist[i], dist[j])] for i in range(k)
    ]
    below = [[] for _ in range(k)]
    for i in range(k):
        for j in above[i]:
            below[j].append(i)
    above_count = [len(above[i]) for i in range(k)]

    def key(i: int):
        return (-dist[i].cell_shape().dimension, dist[i].bits, i)

    ready = [key(i) for i in range(k) if above_count[i] == 0]
    heapq.heapify(ready)
    order = []
    while ready:
        _, _, m = heapq.heappop(ready)
        order.append(dist[m])
        for i in below[m]:
            above_count[i] -= 1
            if above_count[i] == 0:
                heapq.heappush(ready, key(i))
    if len(order) != k:
        raise AssertionError("closure order contains a cycle")
    return tuple(order)


def filtration(word: ReducedWord, v: WeylElement) -> tuple[Subexpression, ...]:
    """Numbering of Gamma_v refining the closure order, maximal cell first."""
    if not bruhat_leq(v, word.target):
        raise NotComparableError(
            f"{v.word_str} is not below {word.target.word_str} in Bruhat order"
        )
    return _filtration_sequence(enumerate_distinguished(word, v))
