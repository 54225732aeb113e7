"""Frobenius diagram data and the twisted cell invariants behind the
regular-character vanishing criterion.

A Frobenius endomorphism F over F_q acts on the root datum through a
Cartan-preserving permutation phi of the simple roots.  For such a phi, F
raises every root subgroup to the same power q: unequal powers occur only for
the Suzuki-Ree isogenies, whose phi swaps long and short roots and fails the
Cartan check.  So each phi-orbit O_a of length d_a has orbit group a copy of
F_{q_a} with q_a = q^{d_a}.  A linear character of U trivial on the derived
group restricts to each orbit group, and it is regular when every restriction
is nontrivial.

For a distinguished subexpression gamma ending at the identity, the quotient
of its Deligne-Lusztig piece by D(U)^F factors as

    (G_a)^{n_bar} x (G_m)^{m_bar} x prod_a  X_{q_a}(n_a, m_a)

where X_q(n, m) is the Artin-Schreier model cut out by
zeta^q - zeta = sum mu_i + sum lambda_j, and the exponents count positions i
of the word by where w0 sends the twisted root beta~_i.  The regular isotypic
part of the cohomology survives exactly when every n_a vanishes, which for
distinguished gamma in Gamma_1 happens only for the all-skip subexpression;
the surviving piece sits in degree l(w).
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from types import MappingProxyType
from typing import Mapping, Optional

from . import cells
from .errors import BudgetError, ConfigError, EmptyCellError, PreconditionError, Record
from .flags import torus_order
from .gf import MAX_FIELD_ORDER, _difference_walk, _factor_prime_power, field
from .rootdata import RootSystem, WeylElement

MAX_MODEL_TUPLES = 4 * 10**6


def _preserves_cartan(rs: RootSystem, sigma: tuple[int, ...]) -> bool:
    c = rs.cartan_matrix
    n = rs.rank
    return all(c[sigma[i]][sigma[j]] == c[i][j] for i in range(n) for j in range(n))


def diagram_automorphisms(rs: RootSystem) -> list[tuple[int, ...]]:
    """All Cartan-preserving permutations of the simple roots."""
    return [
        sigma
        for sigma in itertools.permutations(range(rs.rank))
        if _preserves_cartan(rs, sigma)
    ]


class OrbitData(Record):
    """A Frobenius twist over F_q: phi, its orbits on the simple roots, and
    the orbit of each simple root (built by orbit_data).

    ``root_orbits[i]`` is the orbit of the simple index i.
    """

    __slots__ = ("system", "q", "phi", "orbits", "root_orbits")

    @property
    def representatives(self) -> tuple[int, ...]:
        return tuple(o[0] for o in self.orbits)

    def orbit_of(self, i: int) -> tuple[int, ...]:
        # a bare tuple index would let -1 wrap around
        if not 0 <= i < len(self.root_orbits):
            raise ConfigError(f"{i} is not a simple index")
        return self.root_orbits[i]

    def d(self, i: int) -> int:
        return len(self.orbit_of(i))

    def q_alpha(self, i: int) -> int:
        return self.q ** self.d(i)

    @property
    def is_split(self) -> bool:
        return self.phi == tuple(range(len(self.phi)))


def orbit_data(
    rs: RootSystem, q: int, phi: Optional[tuple[int, ...]] = None
) -> OrbitData:
    """Validate the twist phi over F_q and compute its orbits; None is split.

    >>> from deodhar.rootdata import build_root_system
    >>> a2 = build_root_system("A", 2)
    >>> split = orbit_data(a2, 2)
    >>> split.orbits, split.d(0)
    (((0,), (1,)), 1)
    >>> unitary = orbit_data(a2, 2, (1, 0))
    >>> unitary.orbits, unitary.q_alpha(0)
    (((0, 1),), 4)
    """
    _factor_prime_power(q)
    n = rs.rank
    phi = tuple(range(n)) if phi is None else tuple(phi)
    if sorted(phi) != list(range(len(phi))):
        raise ConfigError("phi is not a permutation of the simple roots")
    if len(phi) != n:
        raise ConfigError("twist rank does not match the root system")
    if not _preserves_cartan(rs, phi):
        raise ConfigError("phi does not preserve the Cartan matrix")
    root_orbits: list = [None] * n
    orbits = []
    for i in range(n):
        if root_orbits[i] is not None:
            continue
        orbit = [i]
        j = phi[i]
        while j != i:
            orbit.append(j)
            j = phi[j]
        orbit = tuple(orbit)
        for j in orbit:
            root_orbits[j] = orbit
        orbits.append(orbit)
    return OrbitData(rs, q, phi, tuple(orbits), tuple(root_orbits))


# -- the vanishing witness ----------------------------------------------------


def vanishing_witness(x: WeylElement) -> Optional[int]:
    """Smallest simple index a with x^{-1}(alpha_a) positive, None for w0.

    Such a root lets the finite orbit group acting on the quotient of the
    piece indexed by x extend to a connected group, which kills every regular
    isotypic part; only x = w0 has no witness.  x^{-1}(alpha_a) > 0 exactly
    when s_a is not a left descent of x, so it is read off the left-descent
    table; ``sweeps.witness_rows`` checks it against the root action.
    """
    return min(set(range(x.system.rank)) - x.left_descents(), default=None)


@lru_cache(maxsize=None)
def _w0_image_simple(rs: RootSystem) -> tuple[tuple[bool, ...], ...]:
    """simple[s][y]: w0(y(-alpha_s)) is a simple root, for every letter s and
    element index y.

    For a letter s taken to the partial product y this says whether the
    position counts towards an orbit exponent of ``cell_invariants``.  w0
    sends the negative simple roots onto the simple roots, so it holds exactly
    when y(alpha_s) is a simple root alpha_t, that is when y s = s_t y and
    l(y s) > l(y); the table is read off the multiplication tables that way.
    Built once per root system; every entry is asserted equal to the root
    action test before the table is returned, so a failed check caches
    nothing.
    """
    lengths, lmul = rs._lengths, rs._lmul
    w0 = rs.longest_element()
    simple_set = frozenset(rs.simple_roots)
    table = []
    for s, row in enumerate(rs._rmul):
        neg = tuple(-c for c in rs.simple_roots[s])
        entries = []
        for y, ys in enumerate(row):
            flag = lengths[ys] > lengths[y] and any(ys == left[y] for left in lmul)
            if flag != (w0.act(rs._elements[y].act(neg)) in simple_set):
                raise AssertionError(
                    f"table and root action disagree on w0 "
                    f"{rs._elements[y].word_str}(-alpha_{rs.letter(s)})"
                )
            entries.append(flag)
        table.append(tuple(entries))
    return tuple(table)


@lru_cache(maxsize=None)
def _w0_simple_index(rs: RootSystem) -> dict:
    """{root: a} for every root whose image under w0 is the simple root alpha_a.

    Read off w0's row of the permutation table; built once per root system.
    """
    simple = {rs._root_index[a]: i for i, a in enumerate(rs.simple_roots)}
    w0 = rs._perms[-1]
    return {root: simple[w0[k]] for k, root in enumerate(rs.roots) if w0[k] in simple}


# -- regular characters -------------------------------------------------------


class RegularCharacter(Record):
    """Additive character tags per phi-orbit: 0 is trivial, nonzero is a
    multiplier c in F_{q_a} composed with the trace and a fixed primitive
    p-th root of unity.

    ``components`` holds (orbit representative, multiplier) pairs.
    """

    __slots__ = ("components",)

    @classmethod
    def regular_default(cls, od: OrbitData) -> "RegularCharacter":
        return cls(tuple((rep, 1) for rep in od.representatives))

    def multiplier(self, rep: int) -> int:
        for r, c in self.components:
            if r == rep:
                return c
        raise ConfigError(f"character has no component for orbit representative {rep}")


def is_regular(psi: RegularCharacter, od: OrbitData) -> bool:
    """True when psi has a nontrivial component on every phi-orbit.

    Raises ConfigError unless psi tags exactly the orbit representatives,
    each with a multiplier that is a code of F_{q_a}, i.e. in 0..q_a-1.
    """
    reps = set(od.representatives)
    tagged = {r for r, _ in psi.components}
    if tagged != reps:
        raise ConfigError(
            f"character components {sorted(tagged)} do not match orbit "
            f"representatives {sorted(reps)}"
        )
    for rep, c in psi.components:
        q_a = od.q_alpha(rep)
        if not 0 <= c < q_a:
            raise ConfigError(
                f"multiplier {c} on the orbit of alpha_{od.system.letter(rep)} "
                f"is not an element code of F_{q_a} (0..{q_a - 1})"
            )
    return all(psi.multiplier(rep) != 0 for rep in od.representatives)


def _require_regular(psi: RegularCharacter, od: OrbitData) -> None:
    """PreconditionError naming the first orbit on which psi is trivial."""
    if is_regular(psi, od):
        return
    rep = next(r for r in od.representatives if psi.multiplier(r) == 0)
    raise PreconditionError(
        f"character is trivial on the orbit of alpha_{od.system.letter(rep)}; "
        "the prediction requires a regular character"
    )


# -- cell invariants ----------------------------------------------------------


class CellInvariants(Record):
    """Per-orbit exponents of the quotient factorisation of one cell.

    ``n`` and ``m`` map each orbit representative a to n_a(gamma) and
    m_a(gamma).
    """

    __slots__ = ("n", "m", "n_bar", "m_bar")

    def __init__(
        self, n: Mapping[int, int], m: Mapping[int, int], n_bar: int, m_bar: int
    ):
        """Keep read-only copies of ``n`` and ``m``: they compare equal to
        plain dicts, and equal values hash equal."""
        object.__setattr__(self, "n", MappingProxyType(dict(n)))
        object.__setattr__(self, "m", MappingProxyType(dict(m)))
        object.__setattr__(self, "n_bar", n_bar)
        object.__setattr__(self, "m_bar", m_bar)

    def __hash__(self) -> int:
        return hash(
            (frozenset(self.n.items()), frozenset(self.m.items()), self.n_bar, self.m_bar)
        )


def cell_invariants(gamma: cells.Subexpression, od: OrbitData) -> CellInvariants:
    """Count word positions by the simple-root orbit of w0(beta~_i).

    n_a counts positions in I minus J (affine coordinates), m_a positions
    outside I (torus coordinates); n_bar and m_bar absorb the positions whose
    w0-image is not a simple root.  The simple root w0(beta~_i), if any, is
    read from the per-system table ``_w0_simple_index``.
    """
    if not gamma.is_distinguished:
        raise EmptyCellError(f"{gamma.display} is not distinguished")
    sys = gamma.word.system
    if od.system is not sys:
        raise ConfigError("orbit data belongs to a different root system")
    w0_simple = _w0_simple_index(sys)
    reps, orbits = od.representatives, od.root_orbits
    n = dict.fromkeys(reps, 0)
    m = dict.fromkeys(reps, 0)
    I, J = gamma.I, gamma.J
    for pos, beta in enumerate(gamma.tilde_betas, 1):
        idx = w0_simple.get(beta)
        if idx is None:
            continue
        rep = orbits[idx][0]
        if pos not in I:
            m[rep] += 1
        elif pos not in J:
            n[rep] += 1
    shape = gamma.cell_shape()
    n_bar = shape.n_affine - sum(n.values())
    m_bar = shape.m_torus - sum(m.values())
    if n_bar < 0 or m_bar < 0:
        raise AssertionError("orbit exponents exceed the cell shape")
    return CellInvariants(n=n, m=m, n_bar=n_bar, m_bar=m_bar)


# -- Artin-Schreier models ----------------------------------------------------


def xq_point_count(q: int, n: int, m: int, k: int = 1) -> int:
    """Rational points of X_q(n, m) over F_{q^k}.

    X_q(n, m) is the hypersurface zeta^q - zeta = sum mu_i + sum lambda_j in
    (G_a)^{n+1} x (G_m)^m.  With n >= 1 the closed form q^{nk} (q^k - 1)^m
    applies (solve for mu_1); with n = 0 the count is exhaustive.  X_q(n, m)
    is Y_{q,1}(n, m), so both are counted by ``yqs_point_count``.
    """
    return yqs_point_count(q, 1, n, m, k)


def yqs_point_count(q: int, s: int, n: int, m: int, k: int = 1) -> int:
    """Rational points of Y_{q,s}(n, m) over F_{q^k}.

    Same equation with the torus coordinates raised to the s-th power:
    zeta^q - zeta = sum mu_i + sum lambda_j^s, s coprime to the characteristic.
    """
    if s < 1:
        raise ConfigError("the covering exponent s must be a positive integer")
    p = _factor_prime_power(q)[0]
    if s % p == 0:
        raise ConfigError(f"s={s} must be coprime to the characteristic {p}")
    _check_model_exponents(n, m, k)
    if n >= 1:
        return q ** (n * k) * (q**k - 1) ** m
    return _artin_schreier_count(q, m, k, power=s)


def _check_model_exponents(n: int, m: int, k: int) -> None:
    if n < 0 or m < 0 or k < 1:
        raise ConfigError("n, m must be nonnegative and k positive")


@lru_cache(maxsize=None)
def _artin_schreier_targets(qk: int, q: int) -> tuple[int, ...]:
    """zeta^q - zeta for every zeta of F_{qk}, in element order, repeats kept."""
    f = field(qk)
    return tuple(f.sub(f.pow(zeta, q), zeta) for zeta in f.elements())


@lru_cache(maxsize=None)
def _power_fibre(qk: int, power: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """lambda^power for every nonzero lambda of F_{qk}, in element order, and
    the number of nonzero lambda with lambda^power equal to each value."""
    f = field(qk)
    powers = tuple(f.pow(lam, power) for lam in f.nonzero())
    fibre = [0] * qk
    for x in powers:
        fibre[x] += 1
    return powers, tuple(fibre)


def _artin_schreier_count(q: int, m: int, k: int, power: int) -> int:
    """Exhaustive count of zeta^q - zeta = lambda_1^power + ... + lambda_m^power
    over F_{q^k}, the lambda_j nonzero.

    The field order and ``MAX_MODEL_TUPLES`` are checked on every call; the
    count itself is ``_artin_schreier_walk``'s, made once per argument and
    cached, so a lowered cap refuses a count that is already cached.
    """
    qk = q**k
    if qk > MAX_FIELD_ORDER:
        raise BudgetError(
            f"brute-force model count needs a field of order {qk} > {MAX_FIELD_ORDER}"
        )
    if m >= 1 and qk * (qk - 1) ** (m - 1) > MAX_MODEL_TUPLES:
        raise BudgetError("brute-force model count exceeds the tuple budget")
    return _artin_schreier_walk(qk, q, m, power)


@lru_cache(maxsize=None)
def _artin_schreier_walk(qk: int, q: int, m: int, power: int) -> int:
    """``_artin_schreier_count`` over F_{qk}, with no budget check.

    One ``_difference_walk`` from every zeta^q - zeta runs over the first
    m - 1 coordinates; the last is read through its power fibre, the number
    of nonzero lambda with each value of lambda^power.  A count not divisible
    by q raises ``AssertionError``, so it is never cached.
    """
    targets = _artin_schreier_targets(qk, q)
    if m == 0:
        count = targets.count(0)
    else:
        powers, power_fibre = _power_fibre(qk, power)
        rows = field(qk).packed_sub_table()
        count = _difference_walk(rows, targets, [powers] * (m - 1), power_fibre)
    if count % q:
        raise AssertionError("Artin-Schreier count is not divisible by q")
    return count


# -- quotient model -----------------------------------------------------------


class ModelFactor(Record):
    __slots__ = ("q_alpha", "d_alpha", "n_alpha", "m_alpha")

    def __str__(self) -> str:
        return f"X_{self.q_alpha}({self.n_alpha},{self.m_alpha})"


class QuotientModel(Record):
    """(G_a)^{n_bar} x (G_m)^{m_bar} x prod_a X_{q_a}(n_a, m_a)."""

    __slots__ = ("base_q", "n_bar", "m_bar", "factors")

    @property
    def dimension(self) -> int:
        return (
            self.n_bar
            + self.m_bar
            + sum(fac.n_alpha + fac.m_alpha for fac in self.factors)
        )

    def point_count(self, k: int = 1) -> int:
        """Rational points over F_{q^k}; split twists only."""
        if any(fac.d_alpha != 1 for fac in self.factors):
            raise ConfigError(
                "point counts of twisted quotient models are not supported"
            )
        q = self.base_q
        out = q ** (self.n_bar * k) * (q**k - 1) ** self.m_bar
        for fac in self.factors:
            out *= xq_point_count(fac.q_alpha, fac.n_alpha, fac.m_alpha, k)
        return out

    def __str__(self) -> str:
        parts = []
        if self.n_bar:
            parts.append(f"(Ga)^{self.n_bar}")
        if self.m_bar:
            parts.append(f"(Gm)^{self.m_bar}")
        parts.extend(str(fac) for fac in self.factors)
        return " x ".join(parts) if parts else "point"


def quotient_model(gamma: cells.Subexpression, od: OrbitData) -> QuotientModel:
    inv = cell_invariants(gamma, od)
    factors = tuple(
        ModelFactor(od.q_alpha(rep), od.d(rep), inv.n[rep], inv.m[rep])
        for rep in od.representatives
    )
    model = QuotientModel(
        base_q=od.q,
        n_bar=inv.n_bar,
        m_bar=inv.m_bar,
        factors=factors,
    )
    if model.dimension != gamma.cell_shape().dimension:
        raise AssertionError("quotient model dimension mismatch")
    return model


# -- isotypic predictions -----------------------------------------------------


class IsotypicPrediction(Record):
    __slots__ = ("vanishes", "shift", "module_description")


def _prediction_from_invariants(
    gamma: cells.Subexpression, inv: CellInvariants
) -> IsotypicPrediction:
    """Predicted regular-isotypic cohomology of the piece attached to gamma,
    from gamma's invariants.

    For a distinguished gamma ending at the identity and a character already
    checked to be regular: the isotypic part vanishes iff some n_a(gamma) > 0,
    and the surviving all-skip subexpression contributes the regular torus
    module in degree l(w).
    """
    if any(c > 0 for c in inv.n.values()):
        return IsotypicPrediction(True, None, "zero")
    if any(gamma.bits):
        raise AssertionError(
            "a non-trivial distinguished subexpression ending at the identity "
            "must have a positive affine orbit exponent"
        )
    shift = gamma.r - len(gamma.I)
    return IsotypicPrediction(False, shift, "regular module of T^{wF}")


class PredictionRow(Record):
    """One piece x of the table; ``gamma_rows`` (for x = w0 only) holds
    (gamma, its CellInvariants, its IsotypicPrediction) triples."""

    __slots__ = ("x", "vanishes", "witness", "gamma_rows")


class PredictionTable(Record):
    __slots__ = ("word", "rows", "survivor", "shift", "torus_order")


def theorem_table(
    word: cells.ReducedWord, od: OrbitData, psi: RegularCharacter
) -> PredictionTable:
    """Per-piece ledger of the regular-isotypic cohomology of Y(w).

    One row per x in W: for x != w0 the row records the witness root that
    forces vanishing; for x = w0 the nested table runs over the distinguished
    subexpressions ending at the identity, of which only the all-skip one
    survives, in degree l(w).  For split type A systems the order of the
    torus T^{wF} over F_q, q = od.q, is included via the GL_n diagonal model.
    """
    sys = word.system
    _require_regular(psi, od)
    w0 = sys.longest_element()
    rows = []
    survivor = None
    shift = None
    for x in sys.weyl_elements():
        if x == w0:
            gamma_rows = []
            for gamma in cells.filtration(word, sys.identity()):
                inv = cell_invariants(gamma, od)
                pred = _prediction_from_invariants(gamma, inv)
                gamma_rows.append((gamma, inv, pred))
                if not pred.vanishes:
                    survivor = gamma
                    shift = pred.shift
            rows.append(PredictionRow(x, False, None, tuple(gamma_rows)))
        else:
            witness = vanishing_witness(x)
            if witness is None:
                raise AssertionError("only w0 lacks a vanishing witness")
            rows.append(PredictionRow(x, True, witness, None))
    if survivor is None or shift != word.target.length:
        raise AssertionError("prediction table lost its surviving piece")
    t_order = None
    if sys.type_label == "A" and od.is_split:
        # the split GL_n diagonal-torus model; no twisted analogue is kept
        t_order = torus_order(word.target, od.q)
    return PredictionTable(word, tuple(rows), survivor, shift, t_order)
