"""Subexpressions of a fixed reduced word and their Deodhar cell data.

Fix a reduced word w = s_1 ... s_r.  A subexpression is a choice gamma_i in
{1, s_i} at every letter, recorded here as a 0/1 bit vector.  Writing
gamma^i for the i-th partial product, the two index sets

    I(gamma) = { i : gamma_i = s_i }
    J(gamma) = { i : gamma^i s_i < gamma^i }

drive everything: gamma is distinguished (indexes a non-empty cell of the
double Schubert cell decomposition) iff J(gamma) is contained in I(gamma),
equivalently iff no forced letter was skipped, and the cell is then a product
of |I|-|J| affine lines and r-|I| tori.  J is computed both by the descent
test and by the sign of the twisted roots beta~_i = gamma^i(-beta_i); the two
characterisations must agree and this is asserted on every construction.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Iterable, Optional

from .errors import BudgetError, ConfigError, EmptyCellError, NotComparableError
from .rootdata import Root, RootSystem, WeylElement, bruhat_leq, word_str

MAX_WORD_LENGTH = 20


@dataclass(frozen=True)
class ReducedWord:
    """A fixed reduced expression of a Weyl group element."""

    system: RootSystem
    letters: tuple[int, ...]
    target: WeylElement

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


@dataclass(frozen=True)
class CellShape:
    """Cell isomorphic to (G_a)^n_affine x (G_m)^m_torus."""

    n_affine: int
    m_torus: int

    @property
    def dimension(self) -> int:
        return self.n_affine + self.m_torus

    def __str__(self) -> str:
        return f"(Ga)^{self.n_affine} x (Gm)^{self.m_torus}"


class Subexpression:
    """A bit vector over a reduced word with all derived index data cached."""

    __slots__ = ("word", "bits", "partials", "end", "I", "J", "tilde_betas")

    def __init__(
        self,
        word: ReducedWord,
        bits: Iterable[int],
        _partials: Optional[tuple[WeylElement, ...]] = None,
    ):
        bits = tuple(int(b) for b in bits)
        if len(bits) != word.r or any(b not in (0, 1) for b in bits):
            raise ConfigError("bits must be a 0/1 vector matching the word length")
        self.word = word
        self.bits = bits
        sys = word.system
        if _partials is None:
            parts = [sys.identity()]
            for i, b in enumerate(bits):
                parts.append(
                    parts[-1] * sys.simple_reflection(word.letters[i]) if b else parts[-1]
                )
            _partials = tuple(parts)
        self.partials = _partials
        self.end = _partials[-1]
        self.I = frozenset(i + 1 for i, b in enumerate(bits) if b)
        # beta~_i = gamma^i(-beta_i)
        self.tilde_betas = tuple(
            _partials[i + 1].act(tuple(-c for c in word.simple_root(i)))
            for i in range(word.r)
        )
        j_sign = frozenset(
            i + 1 for i in range(word.r) if sys.is_positive(self.tilde_betas[i])
        )
        j_descent = frozenset(
            i + 1
            for i in range(word.r)
            if self._partial_times_letter(i).length < _partials[i + 1].length
        )
        if j_sign != j_descent:
            raise AssertionError(
                f"descent and root-sign computations of J disagree on {self}"
            )
        self.J = j_sign

    def _partial_times_letter(self, i: int) -> WeylElement:
        """gamma^i * s_i (1-based position i+1); reuses gamma^{i-1} when taken."""
        if self.bits[i]:
            return self.partials[i]
        return self.partials[i + 1] * self.word.system.simple_reflection(
            self.word.letters[i]
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
        for i in range(self.r):
            if self.bits[i]:
                continue
            prev = self.partials[i]
            s = self.word.system.simple_reflection(self.word.letters[i])
            if (prev * s).length < prev.length:
                return i + 1
        return None

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


def _walk(
    word: ReducedWord, prune: bool, end: Optional[WeylElement] = None
) -> list[Subexpression]:
    """Depth-first walk over the subexpressions of word, in lexicographic bit order.

    With prune, a letter that is a right descent of the running partial
    product must be taken, so only distinguished subexpressions are reached.
    Only leaves ending at end are kept when end is given.
    """
    if word.r > MAX_WORD_LENGTH:
        raise BudgetError(
            f"word length {word.r} exceeds the enumeration cap {MAX_WORD_LENGTH}"
        )
    sys = word.system
    r = word.r
    reflections = [sys.simple_reflection(i) for i in word.letters]
    out: list[Subexpression] = []

    def rec(i: int, bits: list[int], partials: list[WeylElement]) -> None:
        if i == r:
            if end is None or partials[-1] == end:
                out.append(Subexpression(word, tuple(bits), tuple(partials)))
            return
        prev = partials[-1]
        taken = prev * reflections[i]
        forced = prune and taken.length < prev.length
        for b in (1,) if forced else (0, 1):
            bits.append(b)
            partials.append(taken if b else prev)
            rec(i + 1, bits, partials)
            bits.pop()
            partials.pop()

    rec(0, [], [sys.identity()])
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
    # (descending cell dimension, lexicographically smallest bits).
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
