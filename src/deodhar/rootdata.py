"""Exact root systems and Weyl groups over the root lattice.

Roots are integer coordinate vectors in the simple-root basis, so reflections,
lengths and Bruhat comparisons are all exact integer computations; no floating
point appears anywhere.  No supported Weyl group has more than 192 elements,
so each root system tabulates its group once, when it is built: for every
element its permutation of the roots, its length (the number of positive roots
it sends to negative ones), its canonical word, its inverse, its products with
each simple reflection on either side, its left and right descent sets and its
lower Bruhat interval as an int bitset.  A Weyl group element is an index into
these tables.  Indices run in (length, canonical word) order, where the
canonical word is the lexicographically least reduced word.

Supported Cartan types: A1..A4, B2, B3, C2, C3, D4, G2.  Rank is capped at 4
because downstream cell enumeration is exponential in the word length.

The Cartan matrix convention used here is ``C[i][j] = 2(a_i, a_j)/(a_i, a_i)``
so that the simple reflection acts by ``s_i(a_j) = a_j - C[i][j] a_i``.
"""

from __future__ import annotations

from functools import lru_cache
from operator import mul
from typing import Iterable

from .errors import ConfigError, Record

Root = tuple[int, ...]
Matrix = tuple[tuple[int, ...], ...]

# Letters for simple reflections, in the order of the simple roots.
LETTERS = "stuv"

_SUPPORTED_RANKS = {"A": (1, 2, 3, 4), "B": (2, 3), "C": (2, 3), "D": (4,), "G": (2,)}


def _cartan_matrix(type_label: str, rank: int) -> Matrix:
    c = [[2 * (i == j) for j in range(rank)] for i in range(rank)]

    def bond(i, j, cij=-1, cji=-1):
        c[i][j] = cij
        c[j][i] = cji

    if type_label in ("A", "B", "C"):
        for i in range(rank - 1):
            bond(i, i + 1)
        if type_label == "B":
            # last simple root short: the double bond points at it
            bond(rank - 2, rank - 1, -1, -2)
        elif type_label == "C":
            bond(rank - 2, rank - 1, -2, -1)
    elif type_label == "D":
        # node 1 is the branch node; D4 only
        for i in (0, 2, 3):
            bond(1, i)
    elif type_label == "G":
        bond(0, 1, -3, -1)
    return tuple(tuple(row) for row in c)


class RootSystem:
    """Root system of a finite Weyl group, with the group's lookup tables.

    Use :func:`build_root_system` to obtain the interned instance for a
    type/rank pair; Weyl elements compare systems by identity, so
    ``copy.copy`` and ``copy.deepcopy`` return the system itself.
    """

    __copy__ = Record.__copy__
    __deepcopy__ = Record.__deepcopy__

    def __init__(self, type_label: str, rank: int):
        if type_label not in _SUPPORTED_RANKS or rank not in _SUPPORTED_RANKS[type_label]:
            raise ConfigError(f"unsupported root system {type_label}{rank}")
        self.type_label = type_label
        self.rank = rank
        self.cartan_matrix = _cartan_matrix(type_label, rank)
        self.simple_roots: tuple[Root, ...] = tuple(
            tuple(int(i == j) for j in range(rank)) for i in range(rank)
        )
        self.roots, self.positive_roots, images = self._generate_roots()
        self._positive_set = frozenset(self.positive_roots)
        self._root_index = {r: k for k, r in enumerate(self.roots)}
        self._build_tables(
            [tuple(self._root_index[img[r]] for r in self.roots) for img in images]
        )

    # -- construction ----------------------------------------------------

    def _generate_roots(
        self,
    ) -> tuple[tuple[Root, ...], tuple[Root, ...], list[dict[Root, Root]]]:
        """All roots (negatives first), the positive roots, and each s_i as a map on roots."""
        images: list[dict[Root, Root]] = [{} for _ in range(self.rank)]
        roots = set(self.simple_roots)
        frontier = list(self.simple_roots)
        while frontier:
            new = []
            for r in frontier:
                for i, row in enumerate(self.cartan_matrix):
                    # s_i(r) = r - <r, a_i^vee> a_i: only coordinate i changes
                    img = list(r)
                    img[i] -= sum(map(mul, row, r))
                    img = images[i][r] = tuple(img)
                    if img not in roots:
                        roots.add(img)
                        new.append(img)
            frontier = new
        pos = sorted(r for r in roots if all(c >= 0 for c in r))
        neg = sorted(r for r in roots if all(c <= 0 for c in r))
        if len(pos) + len(neg) != len(roots) or len(pos) != len(neg):
            raise ConfigError("root generation produced mixed-sign vectors")
        # the same order as sorted(roots): every negative root sorts first
        return tuple(neg + pos), tuple(pos), images

    def _build_tables(self, reflections: list[tuple[int, ...]]) -> None:
        """Intern every element and tabulate the group, once.

        ``reflections[i][k]`` is the index of s_i(roots[k]).  Elements are
        found level by level: level L+1 is s_i (level L) for the i that raise
        the length.  Scanning letters in the outer loop and level L in
        canonical-word order means the first time an element is reached is
        through its least left descent, so the new level comes out in
        lexicographic order of canonical words and each element's index is
        its position in (length, canonical word) order.
        """
        n_neg = len(self.roots) - len(self.positive_roots)
        negative = frozenset(range(n_neg))
        start = tuple(range(len(self.roots)))
        perms = [start]
        words: list[tuple[int, ...]] = [()]
        index = {start: 0}
        lmul: list[dict[int, int]] = [{} for _ in range(self.rank)]
        level = [0]
        while level:
            nxt = []
            for i, refl in enumerate(reflections):
                row = lmul[i]
                for k in level:
                    img = tuple([refl[x] for x in perms[k]])
                    j = index.get(img)
                    if j is None:
                        j = index[img] = len(perms)
                        perms.append(img)
                        words.append((i,) + words[k])
                        nxt.append(j)
                    row[k] = j
            level = nxt
        order = len(perms)
        self._perms = tuple(perms)
        self._words = tuple(words)
        self._lmul = tuple(tuple(row[k] for k in range(order)) for row in lmul)
        # l(w) = #{positive roots sent to negative roots}
        self._lengths = tuple(len(negative.intersection(p[n_neg:])) for p in perms)
        inverse = []
        for p in perms:
            q = list(p)
            for k, x in enumerate(p):
                q[x] = k
            inverse.append(index[tuple(q)])
        self._inverses = tuple(inverse)
        # w s_i = (s_i w^{-1})^{-1}
        self._rmul = tuple(
            tuple([inverse[row[inverse[k]]] for k in range(order)]) for row in self._lmul
        )
        # s_i is a right descent of w iff w(a_i) < 0, a left descent iff w^{-1}(a_i) < 0
        simple = [self._root_index[a] for a in self.simple_roots]
        right = tuple(
            frozenset([i for i, a in enumerate(simple) if p[a] < n_neg]) for p in perms
        )
        self._right_descents = right
        self._left_descents = tuple(right[k] for k in inverse)
        # [e, w] = [e, sw] u s[e, sw] for a left descent s of w; one int bitset each
        intervals = [{0}]
        for k in range(1, order):
            row = self._lmul[words[k][0]]
            below = intervals[row[k]]
            intervals.append(below.union(map(row.__getitem__, below)))
        self._bruhat = tuple(sum(map((1).__lshift__, iv)) for iv in intervals)
        self._elements = tuple(WeylElement(self, k) for k in range(order))

    # -- elements ---------------------------------------------------------

    def identity(self) -> "WeylElement":
        return self._elements[0]

    def simple_reflection(self, i: int) -> "WeylElement":
        if not 0 <= i < self.rank:
            raise ConfigError(f"simple index {i} out of range for rank {self.rank}")
        return self._elements[self._lmul[i][0]]

    def element_from_word(self, letters: Iterable[int]) -> "WeylElement":
        k = 0
        for i in letters:
            if not 0 <= i < self.rank:
                raise ConfigError(f"simple index {i} out of range for rank {self.rank}")
            k = self._rmul[i][k]
        return self._elements[k]

    def weyl_elements(self) -> tuple["WeylElement", ...]:
        """All group elements, sorted by (length, canonical word)."""
        return self._elements

    def longest_element(self) -> "WeylElement":
        return self._elements[-1]

    # -- helpers ----------------------------------------------------------

    def is_positive(self, root: Root) -> bool:
        return root in self._positive_set

    def letter(self, i: int) -> str:
        return LETTERS[i]

    def letter_index(self, ch: str) -> int:
        idx = LETTERS.find(ch) if len(ch) == 1 else -1
        if idx < 0 or idx >= self.rank:
            raise ConfigError(f"letter {ch!r} is not a simple reflection of {self}")
        return idx

    def parse_word(self, text: str) -> tuple[int, ...]:
        """Parse a word like ``"sts"``; ``""`` and ``"e"`` mean the identity."""
        if text in ("", "e"):
            return ()
        return tuple(self.letter_index(ch) for ch in text)

    def __repr__(self) -> str:
        return f"RootSystem({self.type_label}{self.rank})"


@lru_cache(maxsize=None)
def build_root_system(type_label: str, rank: int) -> RootSystem:
    """Interned constructor; raises ConfigError on unsupported pairs."""
    return RootSystem(type_label, rank)


class WeylElement:
    """Element of a Weyl group: an index into its root system's tables.

    Indices follow (length, canonical word) order, so index 0 is the
    identity and the last index is the longest element.  Elements are
    interned per root system and immutable like a ``Record``, and copy as
    themselves.
    """

    __slots__ = ("system", "index", "_hash")
    __setattr__ = Record.__setattr__
    __delattr__ = Record.__delattr__
    __copy__ = Record.__copy__
    __deepcopy__ = Record.__deepcopy__

    def __init__(self, system: RootSystem, index: int):
        object.__setattr__(self, "system", system)
        object.__setattr__(self, "index", index)
        # with the system in it, equal indices of different systems do not
        # collide in the caches that all systems share (reduced_words)
        object.__setattr__(self, "_hash", hash((system, index)))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, WeylElement)
            and self.system is other.system
            and self.index == other.index
        )

    def __hash__(self) -> int:
        return self._hash

    def __mul__(self, other: "WeylElement") -> "WeylElement":
        sys = self.system
        if sys is not other.system:
            raise ConfigError("cannot multiply elements of different root systems")
        k = self.index
        for i in sys._words[other.index]:
            k = sys._rmul[i][k]
        return sys._elements[k]

    def act(self, root: Root) -> Root:
        sys = self.system
        k = sys._root_index.get(root)
        if k is None:
            raise ConfigError(f"{root} is not a root of {sys}")
        return sys.roots[sys._perms[self.index][k]]

    def inverse(self) -> "WeylElement":
        return self.system._elements[self.system._inverses[self.index]]

    @property
    def length(self) -> int:
        return self.system._lengths[self.index]

    @property
    def is_identity(self) -> bool:
        return self.index == 0

    @property
    def canonical_word(self) -> tuple[int, ...]:
        """Lexicographically least reduced word (greedy smallest left descent)."""
        return self.system._words[self.index]

    @property
    def word_str(self) -> str:
        return _word_names(self.system)[self.index]

    def left_descents(self) -> frozenset[int]:
        return self.system._left_descents[self.index]

    def __repr__(self) -> str:
        return f"<{self.word_str} in {self.system.type_label}{self.system.rank}>"


def bruhat_leq(v: WeylElement, w: WeylElement) -> bool:
    """Bruhat order, read from the lower-interval bitset of w.

    Equivalent to the subword characterisation: v <= w iff some (equivalently
    any) reduced word of w contains some reduced word of v as a subword.
    """
    if v.system is not w.system:
        raise ConfigError("cannot compare elements of different root systems")
    return bool(v.system._bruhat[w.index] >> v.index & 1)


@lru_cache(maxsize=None)
def reduced_words(w: WeylElement) -> tuple[tuple[int, ...], ...]:
    """All reduced words of w, sorted lexicographically; cached per element.

    The words of w are (i,) + a word of s_i w for each left descent i; taking
    the descents in increasing order keeps the result sorted.
    """
    if w.is_identity:
        return ((),)
    sys = w.system
    return tuple(
        (i,) + rest
        for i in sorted(w.left_descents())
        for rest in reduced_words(sys._elements[sys._lmul[i][w.index]])
    )


@lru_cache(maxsize=None)
def _word_names(rs: RootSystem) -> tuple[str, ...]:
    """``word_str`` of every element's canonical word, built on first use."""
    return tuple(map(word_str, rs._words))


def word_str(letters: Iterable[int]) -> str:
    letters = tuple(letters)
    return "".join(LETTERS[i] for i in letters) if letters else "e"
