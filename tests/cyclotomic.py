"""Exact p-th cyclotomic rationals and group-algebra idempotent checks.

Elements of Q(zeta_p) are residues modulo the cyclotomic polynomial
1 + x + ... + x^{p-1}, stored as length p-1 tuples of Fractions, so that the
averaging idempotent e_psi = (1/|U|) sum_u psi(u^{-1}) u of a linear character
can be manipulated with no rounding at all.  The unipotent groups involved
are the strictly upper triangular matrices of GL_n(F_p) for tiny n and p.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from deodhar.errors import ConfigError, PreconditionError

_SUPPORTED_P = (2, 3)


@dataclass(frozen=True)
class CyclotomicRational:
    """An element of Q(zeta_p), p prime in {2, 3}."""

    p: int
    coeffs: tuple[Fraction, ...]

    def __post_init__(self):
        if self.p not in _SUPPORTED_P:
            raise ConfigError(f"cyclotomic field supported for p in {_SUPPORTED_P}")
        if len(self.coeffs) != self.p - 1:
            raise ConfigError("coefficient vector must have length p - 1")

    @classmethod
    def from_rational(cls, p: int, value) -> "CyclotomicRational":
        coeffs = [Fraction(0)] * (p - 1)
        coeffs[0] = Fraction(value)
        return cls(p, tuple(coeffs))

    @classmethod
    def zero(cls, p: int) -> "CyclotomicRational":
        return cls.from_rational(p, 0)

    @classmethod
    def one(cls, p: int) -> "CyclotomicRational":
        return cls.from_rational(p, 1)

    @classmethod
    def zeta(cls, p: int) -> "CyclotomicRational":
        if p == 2:
            return cls.from_rational(2, -1)
        coeffs = [Fraction(0)] * (p - 1)
        coeffs[1] = Fraction(1)
        return cls(p, tuple(coeffs))

    @property
    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def __add__(self, other: "CyclotomicRational") -> "CyclotomicRational":
        self._check(other)
        return CyclotomicRational(
            self.p, tuple(a + b for a, b in zip(self.coeffs, other.coeffs))
        )

    def __sub__(self, other: "CyclotomicRational") -> "CyclotomicRational":
        self._check(other)
        return CyclotomicRational(
            self.p, tuple(a - b for a, b in zip(self.coeffs, other.coeffs))
        )

    def __neg__(self) -> "CyclotomicRational":
        return CyclotomicRational(self.p, tuple(-a for a in self.coeffs))

    def __mul__(self, other: "CyclotomicRational") -> "CyclotomicRational":
        self._check(other)
        p = self.p
        prod = [Fraction(0)] * (2 * (p - 1) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    prod[i + j] += a * b
        # reduce by x^{p-1} = -(1 + x + ... + x^{p-2})
        for d in range(len(prod) - 1, p - 2, -1):
            c = prod[d]
            if c:
                prod[d] = Fraction(0)
                for i in range(p - 1):
                    prod[d - (p - 1) + i] -= c
        return CyclotomicRational(p, tuple(prod[: p - 1]))

    def scale(self, r) -> "CyclotomicRational":
        r = Fraction(r)
        return CyclotomicRational(self.p, tuple(r * c for c in self.coeffs))

    def inverse(self) -> "CyclotomicRational":
        if self.is_zero:
            raise ZeroDivisionError("inverse of zero")
        if self.p == 2:
            return CyclotomicRational(2, (1 / self.coeffs[0],))
        # (a + b zeta)^{-1} = (a + b zeta^2) / norm, zeta^2 = -1 - zeta
        a, b = self.coeffs
        norm = a * a - a * b + b * b
        return CyclotomicRational(3, ((a - b) / norm, -b / norm))

    def _check(self, other: "CyclotomicRational") -> None:
        if self.p != other.p:
            raise ConfigError("mixed cyclotomic fields")

    def __str__(self) -> str:
        if self.p == 2:
            return str(self.coeffs[0])
        a, b = self.coeffs
        return f"{a} + {b}*zeta3"


# -- unipotent groups ---------------------------------------------------------

GroupElement = tuple[int, ...]  # strict upper-triangle entries, row major


@dataclass(frozen=True)
class UnipotentGroup:
    """Upper unitriangular matrices of GL_n(F_p), elements as entry tuples."""

    n: int
    p: int
    elements: tuple[GroupElement, ...]

    @property
    def order(self) -> int:
        return len(self.elements)

    def _positions(self) -> list[tuple[int, int]]:
        return [(i, j) for i in range(self.n) for j in range(i + 1, self.n)]

    def to_matrix(self, g: GroupElement) -> list[list[int]]:
        m = [[int(i == j) for j in range(self.n)] for i in range(self.n)]
        for (i, j), v in zip(self._positions(), g):
            m[i][j] = v
        return m

    def from_matrix(self, m) -> GroupElement:
        return tuple(m[i][j] for (i, j) in self._positions())

    def mul(self, a: GroupElement, b: GroupElement) -> GroupElement:
        ma, mb = self.to_matrix(a), self.to_matrix(b)
        n, p = self.n, self.p
        prod = [
            [sum(ma[i][k] * mb[k][j] for k in range(n)) % p for j in range(n)]
            for i in range(n)
        ]
        return self.from_matrix(prod)

    def inv(self, a: GroupElement) -> GroupElement:
        # the groups here have at most 8 elements; a scan is fine
        for y in self.elements:
            if self.mul(a, y) == self.identity:
                return y
        raise AssertionError("group element without inverse")

    @property
    def identity(self) -> GroupElement:
        return tuple(0 for _ in self._positions())

    def superdiagonal(self, g: GroupElement) -> tuple[int, ...]:
        """Entries u_{i,i+1}, the coordinates of the abelianisation."""
        pos = self._positions()
        return tuple(v for (i, j), v in zip(pos, g) if j == i + 1)

    def derived_subgroup(self) -> frozenset[GroupElement]:
        """Subgroup generated by all commutators (closure computed explicitly)."""
        comms = {
            self.mul(self.mul(a, b), self.inv(self.mul(b, a)))
            for a in self.elements
            for b in self.elements
        }
        closure = set(comms) | {self.identity}
        frontier = set(closure)
        while frontier:
            new = set()
            for x in frontier:
                for y in comms:
                    z = self.mul(x, y)
                    if z not in closure:
                        new.add(z)
            closure |= new
            frontier = new
        return frozenset(closure)


def unitriangular_group(n: int, p: int) -> UnipotentGroup:
    """U_n(F_p) for the supported tiny cases."""
    if (n, p) not in ((2, 2), (2, 3), (3, 2)):
        raise ConfigError("supported unipotent groups: GL2(F2), GL2(F3), GL3(F2)")
    count = n * (n - 1) // 2
    elements = tuple(itertools.product(range(p), repeat=count))
    return UnipotentGroup(n, p, elements)


def linear_character(
    group: UnipotentGroup, multipliers: tuple[int, ...]
) -> dict[GroupElement, CyclotomicRational]:
    """psi(u) = zeta_p^{sum c_i u_{i,i+1}}; trivial on the derived subgroup."""
    if len(multipliers) != group.n - 1:
        raise ConfigError("one multiplier per superdiagonal position required")
    p = group.p
    zeta_powers = [CyclotomicRational.one(p)]
    for _ in range(p - 1):
        zeta_powers.append(zeta_powers[-1] * CyclotomicRational.zeta(p))
    values = {}
    for g in group.elements:
        exponent = sum(
            c * v for c, v in zip(multipliers, group.superdiagonal(g))
        ) % p
        values[g] = zeta_powers[exponent]
    return values


def all_linear_characters(group: UnipotentGroup) -> list[tuple[int, ...]]:
    """Multiplier tuples of every linear character trivial on D(U)."""
    return list(itertools.product(range(group.p), repeat=group.n - 1))


# -- the averaging idempotent ---------------------------------------------------


@dataclass(frozen=True)
class IdempotentReport:
    group_order: int
    is_idempotent: bool
    is_central: bool
    image_rank: int


def _algebra_mul(group, a, b):
    out = {g: CyclotomicRational.zero(group.p) for g in group.elements}
    for g, cg in a.items():
        if cg.is_zero:
            continue
        for h, ch in b.items():
            if ch.is_zero:
                continue
            gh = group.mul(g, h)
            out[gh] = out[gh] + cg * ch
    return out


def _matrix_rank(rows: list[list[CyclotomicRational]]) -> int:
    rows = [list(r) for r in rows]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    for col in range(ncols):
        pivot = next((r for r in range(rank, len(rows)) if not rows[r][col].is_zero), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = rows[rank][col].inverse()
        rows[rank] = [inv * x for x in rows[rank]]
        for r in range(len(rows)):
            if r != rank and not rows[r][col].is_zero:
                c = rows[r][col]
                rows[r] = [x - c * y for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def e_psi_check(
    group: UnipotentGroup, psi: Mapping[GroupElement, CyclotomicRational]
) -> IdempotentReport:
    """Verify the averaging idempotent of a linear character in exact arithmetic.

    Raises PreconditionError when psi is not trivial on the derived subgroup
    (computed explicitly from commutators).
    """
    one = CyclotomicRational.one(group.p)
    for d in group.derived_subgroup():
        if (psi[d] - one).is_zero:
            continue
        raise PreconditionError(
            "character is not trivial on the derived subgroup"
        )
    inv_order = Fraction(1, group.order)
    e = {
        g: psi[group.inv(g)].scale(inv_order) for g in group.elements
    }
    ee = _algebra_mul(group, e, e)
    is_idempotent = all((ee[g] - e[g]).is_zero for g in group.elements)
    is_central = True
    for u in group.elements:
        delta = {u: one}
        left = _algebra_mul(group, delta, e)
        right = _algebra_mul(group, e, delta)
        if any(not (left[g] - right[g]).is_zero for g in group.elements):
            is_central = False
            break
    # right multiplication by e on the group algebra, in the group basis
    rows = []
    for g in group.elements:
        row_map = _algebra_mul(group, {g: one}, e)
        rows.append([row_map[h] for h in group.elements])
    rank = _matrix_rank(rows)
    return IdempotentReport(
        group_order=group.order,
        is_idempotent=is_idempotent,
        is_central=is_central,
        image_rank=rank,
    )
