"""One cold run in a fresh interpreter; prints one JSON object on stdout.

    python3 perfbench/child.py run '<instance JSON>' plain|wrap|profile
    python3 perfbench/child.py micro

``run`` times ``import deodhar`` plus the workload's public constructors
(``setup_wall_s``), then ``deodhar.cli.main`` with stdout captured
(``solve_s``), and reports the exit code, the sha256 of the captured
stdout, the parsed ``status``/``checks``/``failures``, the peak RSS and
``reference_s``, the mean time of a fixed pure-Python workload run just
before and just after.  The caller sets ``PYTHONPATH`` to the checkout's
``src`` and ``DEODHAR_WORKERS=1``.

Modes: ``plain`` is untraced; ``wrap`` installs the counters and spans of
``tracer.py`` after the import; ``profile`` runs ``cProfile`` from before the
import and reports the self time of each library module (its functions'
``tottime``, module bodies included).

``micro`` runs the per-operation timings of ``micro.py`` untraced.
"""

from __future__ import annotations

import contextlib
import cProfile
import hashlib
import io
import json
import marshal
import os
import pstats
import resource
import sys
import time

REFERENCE_ROUNDS = 15
# The reference workload: a module of 60 small classes and functions that is
# unmarshalled and executed, then made to build objects, call methods, run
# list comprehensions and fill small dicts -- the same kinds of work as the
# library's import and sweeps.
_REFERENCE_CODE = marshal.dumps(
    compile(
        "\n".join(
            f"class C{i}:\n"
            f"    def __init__(self, a, b):\n"
            f"        self.a = a; self.b = b\n"
            f"    def f(self, x):\n"
            f"        return [self.a * x + k for k in range(self.b) if k % 3]\n"
            f"def g{i}(n):\n"
            f"    d = {{}}\n"
            f"    for k in range(n):\n"
            f"        d[(k, {i})] = C{i}(k, 3).f(k)\n"
            f"    return d\n"
            for i in range(60)
        ),
        "<reference>",
        "exec",
    )
)


def reference_s() -> float:
    """Seconds for a fixed run of the reference workload.

    On a shared 2-core Xeon VM everything ran up to 1.9x slower for minutes
    at a time; the reference slows with the host, so ``solve_s /
    reference_s`` drifts far less than ``solve_s``.  Across 25 cold runs of
    each of three workloads, the spread (IQR over median) of that ratio was
    0.10-0.17 with this reference and 0.14-0.24 with a tight loop of dict
    and integer work.  It adds about 1 MiB to the peak RSS, the same on
    every workload.
    """
    t0 = time.perf_counter()
    for _ in range(REFERENCE_ROUNDS):
        namespace: dict = {}
        exec(marshal.loads(_REFERENCE_CODE), namespace)
        for i in range(60):
            namespace[f"g{i}"](20)
    return time.perf_counter() - t0


def _constructors():
    from deodhar.gf import field
    from deodhar.rootdata import build_root_system

    return {"build_root_system": build_root_system, "field": field}


def _module_self_times(profiler: cProfile.Profile, src: str) -> dict[str, float]:
    out: dict[str, float] = {}
    for (filename, _, _), (_, _, tottime, _, _) in pstats.Stats(profiler).stats.items():
        if filename.startswith(src):
            module = os.path.splitext(os.path.basename(filename))[0]
            out[module] = out.get(module, 0.0) + tottime
    return out


def run(instance: dict, mode: str) -> dict:
    reference_before = reference_s()
    profiler = cProfile.Profile(builtins=False) if mode == "profile" else None
    clock = time.perf_counter
    t0 = clock()
    if profiler is not None:
        profiler.enable()
    import deodhar
    import deodhar.cli

    tracer = None
    if mode == "wrap":
        from tracer import Tracer

        tracer = Tracer().install()
    constructors = _constructors()
    for name, *args in instance["setup"]:
        constructors[name](*args)
    t1 = clock()
    with contextlib.redirect_stdout(io.StringIO()) as buf:
        exit_code = deodhar.cli.main(instance["argv"])
    t2 = clock()
    if profiler is not None:
        profiler.disable()
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        tracer.uninstall()
    reference = (reference_before + reference_s()) / 2
    out = buf.getvalue().encode()
    result = {
        "module_file": deodhar.__file__,
        "exit_code": exit_code,
        "sha256": hashlib.sha256(out).hexdigest(),
        "output_bytes": len(out),
        "setup_wall_s": t1 - t0,
        "solve_s": t2 - t1,
        "peak_rss_mb": peak_kib / 1024,
        "reference_s": reference,
    }
    try:
        report = json.loads(out)
        result.update({k: report.get(k) for k in ("status", "checks", "failures")})
    except ValueError:
        pass
    if tracer is not None:
        result["calls"] = tracer.calls
        result["spans"] = tracer.spans
    if profiler is not None:
        src = os.path.dirname(deodhar.__file__) + os.sep
        result["self_s"] = _module_self_times(profiler, src)
    return result


def main(argv: list[str]) -> int:
    if argv[:1] == ["micro"]:
        import micro

        result = micro.measure_all()
    elif argv[:1] == ["run"] and len(argv) == 3 and argv[2] in ("plain", "wrap", "profile"):
        result = run(json.loads(argv[1]), argv[2])
    else:
        print(__doc__, file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
