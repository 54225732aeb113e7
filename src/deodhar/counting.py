"""Exact point-count polynomials in one variable q.

Counting an affine line as q points and a torus as q-1, a Deodhar cell of
shape (n, m) has q^n (q-1)^m rational points and a double Schubert cell has
the sum of its cell polynomials.  The same polynomial is produced, completely
independently, by the classical two-case R-polynomial recursion; the equality
of the two routes is the package's central oracle.  The R-polynomials of a
root system are one table, filled once, in length order, by that recursion
on the smallest left descent of w.
"""

from __future__ import annotations

from functools import lru_cache

from . import cells
from .errors import ConfigError, Record
# bruhat_leq stays a name of this module: perfbench's tracer test pins that
# every module importing it is patched, counting among them
from .rootdata import RootSystem, WeylElement, bruhat_leq


class IntPolynomial(Record):
    """Dense integer polynomial with ascending coefficients, no trailing zeros.

    >>> p = IntPolynomial.from_coeffs([-1, 1])   # q - 1
    >>> str(p * p)
    'q^2 - 2q + 1'
    >>> (p * p)(3)
    4
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: tuple[int, ...]):
        object.__setattr__(self, "coeffs", coeffs)

    @staticmethod
    def from_coeffs(coeffs) -> "IntPolynomial":
        coeffs = list(coeffs)
        if not all(type(c) is int for c in coeffs):
            raise ConfigError(f"polynomial coefficients must be ints, got {coeffs}")
        return _trimmed(coeffs)

    @staticmethod
    def zero() -> "IntPolynomial":
        return IntPolynomial(())

    @staticmethod
    def one() -> "IntPolynomial":
        return IntPolynomial((1,))

    @staticmethod
    def q_power(n: int) -> "IntPolynomial":
        return IntPolynomial(tuple([0] * n + [1]))

    def __add__(self, other: "IntPolynomial") -> "IntPolynomial":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return _trimmed(out)

    def __sub__(self, other: "IntPolynomial") -> "IntPolynomial":
        out = list(self.coeffs) + [0] * max(0, len(other.coeffs) - len(self.coeffs))
        for i, c in enumerate(other.coeffs):
            out[i] -= c
        return _trimmed(out)

    def __mul__(self, other: "IntPolynomial") -> "IntPolynomial":
        if not self.coeffs or not other.coeffs:
            return IntPolynomial.zero()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return _trimmed(out)

    def __call__(self, q: int) -> int:
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * q + c
        return acc

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        terms = []
        for i in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[i]
            if c == 0:
                continue
            sign = "-" if c < 0 else "+"
            mag = abs(c)
            if i == 0:
                body = str(mag)
            else:
                var = "q" if i == 1 else f"q^{i}"
                body = var if mag == 1 else f"{mag}{var}"
            terms.append((sign, body))
        first_sign, first_body = terms[0]
        text = ("-" if first_sign == "-" else "") + first_body
        for sign, body in terms[1:]:
            text += f" {sign} {body}"
        return text


def _trimmed(coeffs: list) -> IntPolynomial:
    """The polynomial of a list of ints, its trailing zeros dropped in place."""
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return IntPolynomial(tuple(coeffs))


_Q_MINUS_1 = IntPolynomial((-1, 1))


def cell_count_poly(shape: cells.CellShape) -> IntPolynomial:
    """q^n (q-1)^m for a cell of shape (n, m)."""
    out = IntPolynomial.q_power(shape.n_affine)
    for _ in range(shape.m_torus):
        out = out * _Q_MINUS_1
    return out


def schubert_cell_poly(w: WeylElement) -> IntPolynomial:
    """q^{l(w)}, the point count of the Schubert cell of w."""
    return IntPolynomial.q_power(w.length)


def r_polynomial(v: WeylElement, w: WeylElement) -> IntPolynomial:
    """Kazhdan-Lusztig R-polynomial R_{v,w}, read from its root system's table.

    The table (``_r_table``) is built on the first call for a root system,
    by the two-case recursion on the smallest left descent s of w.

    >>> from deodhar.rootdata import build_root_system
    >>> rs = build_root_system("A", 2)
    >>> e, s = rs.identity(), rs.simple_reflection(0)
    >>> str(r_polynomial(e, s))
    'q - 1'
    """
    if v.system is not w.system:
        raise ConfigError("R-polynomial arguments must share a root system")
    return _r_table(v.system)[w.index][v.index]


@lru_cache(maxsize=None)
def _r_table(rs: RootSystem) -> tuple[tuple[IntPolynomial, ...], ...]:
    """table[w][v] = R_{v,w} for every pair of element indices of rs.

    Take s the smallest left descent of w, so sw < w.  If sv < v then
    R_{v,w} = R_{sv,sw}; otherwise R_{v,w} = (q-1) R_{v,sw} + q R_{sv,sw}.
    Bases: R_{w,w} = 1 and R_{v,w} = 0 unless v <= w.  Element indices run in
    length order, so the row of sw is made before the row of w, and v <= w
    implies v = w or v < w as indices.  The result does not depend on the
    descent taken; the tests check that against a recursion on the largest
    descent.
    """
    lmul, lengths, bruhat = rs._lmul, rs._lengths, rs._bruhat
    order = len(lengths)
    zero, one = IntPolynomial.zero(), IntPolynomial.one()
    table = [(one,) + (zero,) * (order - 1)]
    for w in range(1, order):
        step = lmul[min(rs._left_descents[w])]
        prev = table[step[w]]  # R_{., sw}
        below = bruhat[w]
        row = []
        for v in range(w):
            if not below >> v & 1:
                row.append(zero)
                continue
            sv = step[v]
            if lengths[sv] < lengths[v]:
                row.append(prev[sv])
                continue
            # (q - 1) R_{v,sw} + q R_{sv,sw}, coefficient by coefficient
            lower, upper = prev[v].coeffs, prev[sv].coeffs
            out = [0] * (max(len(lower), len(upper)) + 1)
            for j, c in enumerate(lower):
                out[j] -= c
                out[j + 1] += c
            for j, c in enumerate(upper):
                out[j + 1] += c
            row.append(_trimmed(out))
        row.append(one)
        row.extend([zero] * (order - w - 1))
        table.append(tuple(row))
    return tuple(table)
