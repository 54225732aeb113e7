"""Exact arithmetic in small finite fields F_q, q = p^e <= 512, p in {2,3,5,7}.

Elements are integer codes 0..q-1: the code of a residue polynomial
sum d_i x^i modulo the fixed irreducible polynomial below is sum d_i p^i.
The modulus table is part of the package contract so that every brute-force
count in this repository is bit-for-bit reproducible:

    q    modulus (ascending coefficients, monic)
    4    x^2 + x + 1
    8    x^3 + x + 1
    16   x^4 + x + 1
    32   x^5 + x^2 + 1
    64   x^6 + x + 1
    128  x^7 + x + 1
    256  x^8 + x^4 + x^3 + x^2 + 1
    512  x^9 + x^4 + 1
    9    x^2 + 2x + 2
    27   x^3 + 2x + 1
    81   x^4 + 2x^3 + 2
    243  x^5 + 2x + 1
    25   x^2 + 4x + 2
    125  x^3 + 3x + 3
    49   x^2 + 6x + 3
    343  x^3 + 6x^2 + 4

The modulus is proved irreducible at construction time by the search for
the smallest primitive element: F_p[x]/(f) has an element of multiplicative
order q - 1 exactly when every nonzero residue is a unit, so a reducible
modulus raises ``ConfigError``.  Multiplication runs through discrete-log
tables over that generator; addition is XOR in characteristic 2 and digit
arithmetic otherwise.  Subtraction and multiplication also have q x q lookup
tables, ``sub_table()`` and ``mul_table()``, built on first use (subtraction
lifted digit by digit from the prime field's ``add``/``neg`` rows,
multiplication from the log tables) and kept through ``functools.lru_cache``
on the interned field, like every table kept across calls: ``sub`` is one
lookup, and the brute-force oracles index table rows in their inner loops.
The Artin-Schreier point counters walk ``packed_sub_table()``, the same
rows packed into bytes, in ``_difference_walk``.
"""

from __future__ import annotations

from collections.abc import Sequence
from functools import lru_cache

from .errors import ConfigError

MAX_FIELD_ORDER = 512
# the most entries in one level slice of ``_difference_walk``
WALK_SLICE = 1 << 14
_PRIMES = (2, 3, 5, 7)

# ascending coefficient tuples, including the leading 1
_MODULUS: dict[int, tuple[int, ...]] = {
    4: (1, 1, 1),
    8: (1, 1, 0, 1),
    16: (1, 1, 0, 0, 1),
    32: (1, 0, 1, 0, 0, 1),
    64: (1, 1, 0, 0, 0, 0, 1),
    128: (1, 1, 0, 0, 0, 0, 0, 1),
    256: (1, 0, 1, 1, 1, 0, 0, 0, 1),
    512: (1, 0, 0, 0, 1, 0, 0, 0, 0, 1),
    9: (2, 2, 1),
    27: (1, 2, 0, 1),
    81: (2, 0, 0, 2, 1),
    243: (1, 2, 0, 0, 0, 1),
    25: (2, 4, 1),
    125: (3, 3, 0, 1),
    49: (3, 6, 1),
    343: (4, 0, 6, 1),
}


def _factor_prime_power(q: int) -> tuple[int, int]:
    """(p, e) with q = p^e, e >= 1 and p in _PRIMES; ConfigError otherwise."""
    for p in _PRIMES:
        if q >= 2 and q % p == 0:
            e = 0
            m = q
            while m % p == 0:
                m //= p
                e += 1
            if m != 1:
                break
            return p, e
    raise ConfigError(f"field order {q} is not a power of a prime in {_PRIMES}")


def _poly_mul_mod(a: list[int], b: list[int], modulus: tuple[int, ...], p: int) -> list[int]:
    e = len(modulus) - 1
    prod = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                prod[i + j] = (prod[i + j] + x * y) % p
    # reduce by the monic modulus
    for d in range(len(prod) - 1, e - 1, -1):
        c = prod[d]
        if c:
            prod[d] = 0
            for i in range(e):
                prod[d - e + i] = (prod[d - e + i] - c * modulus[i]) % p
    out = prod[:e]
    out += [0] * (e - len(out))
    return out


class FqField:
    """The finite field with q elements; obtain instances via :func:`field`."""

    def __init__(self, q: int):
        if q > MAX_FIELD_ORDER:
            raise ConfigError(f"field order {q} exceeds the cap {MAX_FIELD_ORDER}")
        p, e = _factor_prime_power(q)
        self.order = q
        self.char = p
        self.degree = e
        if e == 1:
            self.modulus = None
        else:
            if q not in _MODULUS:
                raise ConfigError(f"no modulus table entry for field order {q}")
            self.modulus = _MODULUS[q]
        self._digits = [self._decode(a) for a in range(q)]
        self._build_log_tables()

    # -- encoding ---------------------------------------------------------

    def _decode(self, a: int) -> list[int]:
        p, e = self.char, self.degree
        digits = []
        for _ in range(e):
            digits.append(a % p)
            a //= p
        return digits

    def _encode(self, digits: list[int]) -> int:
        a = 0
        for d in reversed(digits):
            a = a * self.char + d
        return a

    def _build_log_tables(self) -> None:
        q, p = self.order, self.char

        def raw_mul(a: int, b: int) -> int:
            if self.degree == 1:
                return (a * b) % p
            return self._encode(
                _poly_mul_mod(self._digits[a], self._digits[b], self.modulus, p)
            )

        # the smallest element of multiplicative order q - 1 (g = 1 only for
        # q = 2); powers are followed for at most q - 1 steps, as a zero
        # divisor's never reach 1
        for generator in range(1, q):
            x, order = generator, 1
            while x != 1 and order < q - 1:
                x = raw_mul(x, generator)
                order += 1
            if x == 1 and order == q - 1:
                break
        else:
            raise ConfigError(
                f"the modulus for field order {q} is reducible: "
                f"no element has multiplicative order {q - 1}"
            )
        self.generator = generator
        exp = [1] * (2 * (q - 1))
        log = [0] * q
        x = 1
        for i in range(q - 1):
            exp[i] = x
            log[x] = i
            x = raw_mul(x, generator)
        for i in range(q - 1, 2 * (q - 1)):
            exp[i] = exp[i - (q - 1)]
        self._exp = exp
        self._log = log

    # -- arithmetic --------------------------------------------------------

    def add(self, a: int, b: int) -> int:
        if self.char == 2:
            return a ^ b
        p = self.char
        if self.degree == 1:
            return (a + b) % p
        return self._encode([(x + y) % p for x, y in zip(self._digits[a], self._digits[b])])

    def neg(self, a: int) -> int:
        if self.char == 2:
            return a
        p = self.char
        if self.degree == 1:
            return (-a) % p
        return self._encode([(-d) % p for d in self._digits[a]])

    def sub(self, a: int, b: int) -> int:
        return self.sub_table()[a][b]

    @lru_cache(maxsize=None)
    def sub_table(self) -> list[list[int]]:
        """Rows ``t[a][b] == a - b``.

        The p x p prime-field rows come from ``add`` and ``neg``.  Addition
        is digit by digit, so the additive group is F_p^e: with a = p a' + a0
        and b = p b' + b0, a - b = p (a' - b') + (a0 - b0).  Each pass lifts
        the table one base-p digit from those rows.
        """
        p = self.char
        negs = [self.neg(b) for b in range(p)]
        prime = [[self.add(a, nb) for nb in negs] for a in range(p)]
        rows = prime
        for _ in range(self.degree - 1):
            rows = [
                [h + lo for h in hi for lo in prime_row]
                for hi in ([p * x for x in row] for row in rows)
                for prime_row in prime
            ]
        return rows

    @lru_cache(maxsize=None)
    def packed_sub_table(self) -> list[Sequence[int]]:
        """``sub_table()`` rows as ``bytes``, or ``array('H')`` above q = 256."""
        rows = self.sub_table()
        if self.order <= 256:
            return list(map(bytes, rows))
        from array import array

        return [array("H", row) for row in rows]

    @lru_cache(maxsize=None)
    def mul_table(self) -> list[list[int]]:
        """Rows ``t[a][b] == a * b``, built from the log-table ``mul``."""
        return [[self.mul(a, b) for b in range(self.order)] for a in range(self.order)]

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return self._exp[self._log[a] + self._log[b]]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of zero in a finite field")
        n = self.order - 1
        return self._exp[(n - self._log[a]) % n]

    def pow(self, a: int, n: int) -> int:
        if n == 0:
            return 1
        if a == 0:
            if n < 0:
                raise ZeroDivisionError("negative power of zero in a finite field")
            return 0
        return self._exp[(self._log[a] * n) % (self.order - 1)]

    def elements(self) -> range:
        return range(self.order)

    def nonzero(self) -> range:
        return range(1, self.order)

    def __repr__(self) -> str:
        return f"FqField({self.order})"


@lru_cache(maxsize=None)
def field(q: int) -> FqField:
    """Interned field constructor."""
    return FqField(q)


def _difference_walk(
    rows: list[Sequence[int]],
    roots: Sequence[int],
    ranges: list[Sequence[int]],
    fibre: Sequence[int] | None = None,
) -> int:
    """Exhaustive count of the pairs (root, c), c in ``product(*ranges)``,
    with ``root - c_1 - ... - c_r == 0``; with ``fibre``, the sum of
    ``fibre[root - c_1 - ... - c_r]`` (weights below 256 on byte rows).

    ``rows`` is a ``packed_sub_table()``; repeated roots count on their own.
    Each level of partial differences is joined from row slices in C, in
    slices of at most ``WALK_SLICE`` entries, and the last is read whole, so
    every pair's end value is tested.
    """
    row = rows[0]
    pack = bytes if type(row) is bytes else lambda data: type(row)(row.typecode, data)
    # per level, entry a is a - c packed over the level's range
    parts = [
        [x[r.start : r.stop : r.step] for x in rows]
        if isinstance(r, range)
        else [pack(map(x.__getitem__, r)) for x in rows]
        for r in ranges
    ]
    if fibre is None:
        read = lambda level: level.count(0)
    elif pack is bytes:
        # each byte translated to its weight in C
        weights = bytes(fibre) + bytes(256 - len(fibre))
        read = lambda level: sum(level.translate(weights))
    else:
        read = lambda level: sum(map(fibre.__getitem__, level))
    steps = [max(1, WALK_SLICE // len(r)) for r in ranges]
    end = len(ranges)
    total = 0
    # (level slice, depth, next start); a model may be deeper than the recursion limit
    stack = [(pack(roots), 0, 0)]
    while stack:
        level, depth, start = stack.pop()
        if depth == end:
            total += read(level)
            continue
        stop = start + steps[depth]
        if stop < len(level):
            stack.append((level, depth, stop))
        picked = map(parts[depth].__getitem__, level[start:stop])
        stack.append((pack(b"".join(picked)), depth + 1, 0))
    return total
