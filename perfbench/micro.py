"""Per-operation timings of single layers, untraced.

Each timing is the median over a few repeats of one batch of calls; the
per-call figures include the cost of the Python ``for`` loop that drives
them.  Operand lists are fixed, so every run times the same calls.  Lazy
tables (the F_81 and F_343 addition tables, Weyl length and Bruhat caches)
are filled by a first untimed pass, so the figures are what a sweep sees
once it is running; the ``_cold`` timing and ``gf.field.build_s`` are the
exceptions and name the cold work they time.
"""

from __future__ import annotations

import statistics
import time

from deodhar import cells, counting, flags, gf
from deodhar.rootdata import RootSystem, build_root_system, bruhat_leq

GF_ORDERS = (64, 81, 343)
WEYL_TYPES = (("B", 3), ("D", 4))
# the eleven fields the field-models workload builds (prime powers q <= 32)
FIELD_MODEL_ORDERS = (2, 3, 4, 5, 7, 8, 9, 16, 25, 27, 32)
REPEATS = 5


def _median_time(fn, repeats: int = REPEATS) -> float:
    """Median wall time of ``fn()`` in seconds."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _per_call_ns(fn, operands) -> float:
    def batch():
        for a, b in operands:
            fn(a, b)

    batch()
    return _median_time(batch) / len(operands) * 1e9


def gf_timings() -> dict[str, float]:
    out = {}
    for q in GF_ORDERS:
        f = gf.field(q)
        pairs = [((7 * i + 3) % q, (11 * i + 5) % q) for i in range(2000)]
        exps = [(a, 2 + i % 61) for i, (a, _) in enumerate(pairs)]
        out[f"gf.add_ns.q{q}"] = _per_call_ns(f.add, pairs)
        out[f"gf.sub_ns.q{q}"] = _per_call_ns(f.sub, pairs)
        out[f"gf.mul_ns.q{q}"] = _per_call_ns(f.mul, pairs)
        out[f"gf.pow_ns.q{q}"] = _per_call_ns(f.pow, exps)
    out["gf.field.build_s"] = _median_time(
        lambda: [gf.FqField(q) for q in FIELD_MODEL_ORDERS]
    )
    return out


def rootdata_timings() -> dict[str, float]:
    out = {}
    for type_label, rank in WEYL_TYPES:
        rs = build_root_system(type_label, rank)
        els = rs.weyl_elements()
        n = len(els)
        pairs = [(els[(7 * i + 3) % n], els[(11 * i + 5) % n]) for i in range(1000)]
        label = f"{type_label}{rank}"
        out[f"rootdata.mul_ns.{label}"] = _per_call_ns(lambda a, b: a * b, pairs)
        out[f"rootdata.length_ns.{label}"] = _per_call_ns(lambda a, b: a.length, pairs)
        out[f"rootdata.inverse_ns.{label}"] = _per_call_ns(lambda a, b: a.inverse(), pairs)
        out[f"rootdata.bruhat_leq_ns.{label}"] = _per_call_ns(bruhat_leq, pairs)
    return out


def cells_timings() -> dict[str, float]:
    out = {}
    for type_label, rank in WEYL_TYPES:
        rs = build_root_system(type_label, rank)
        word = cells.ReducedWord.from_letters(rs, rs.longest_element().canonical_word)
        out[f"cells.enumerate_w0_ms.{type_label}{rank}"] = (
            _median_time(lambda: cells.enumerate_distinguished(word), repeats=3) * 1e3
        )
    return out


def counting_timings() -> dict[str, float]:
    def cold():
        rs = RootSystem("B", 3)  # uninterned: empty memo and caches
        e, w0 = rs.identity(), rs.longest_element()
        t0 = time.perf_counter()
        counting.r_polynomial(e, w0)
        return time.perf_counter() - t0

    cold_s = statistics.median(cold() for _ in range(REPEATS))
    rs = build_root_system("B", 3)
    e, w0 = rs.identity(), rs.longest_element()
    counting.r_polynomial(e, w0)
    warm_s = _median_time(lambda: [counting.r_polynomial(e, w0) for _ in range(100)]) / 100
    return {
        "counting.r_polynomial_cold_us": cold_s * 1e6,
        "counting.r_polynomial_warm_us": warm_s * 1e6,
    }


def flags_timings() -> dict[str, float]:
    f = gf.field(5)
    matrices = [flag.matrix for flag in flags.enumerate_flags(4, 5)[::97]]
    batch = [(f, m) for m in matrices]
    out = {"flags.canonical_flag_us": _per_call_ns(flags.canonical_flag, batch) / 1e3}
    rs = build_root_system("A", 2)
    w0 = rs.longest_element()
    out["flags.dl_piece_count_ms"] = (
        _median_time(lambda: flags.dl_piece_count(3, 3, w0, w0, 2), repeats=3) * 1e3
    )
    return out


def measure_all() -> dict[str, float]:
    out = {}
    for section in (gf_timings, rootdata_timings, cells_timings, counting_timings, flags_timings):
        out.update(section())
    return out
