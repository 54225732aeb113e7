"""Benchmark of the deodhar library: cold ``deodhar verify`` runs.

Every real ``deodhar verify`` call is one fresh interpreter, so every
measured run here is one too (``child.py``): the interned root systems and
fields and the ``r_polynomial`` memo start cold each time.  Runs follow one
another from this single process (closed loop, one client), with
``DEODHAR_WORKERS=1`` so the library starts no process pool.
``PYTHONHASHSEED`` is removed from the children's environment, so the digest
gate also tests that output does not depend on hash randomisation.

Driver interface (run from the root of a checkout)::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

``--trace 0`` runs untraced children for S seconds and reports the medians
of the end-to-end metrics.  Both bounded times are divided by
``reference_s`` (``child.reference_s``, measured in the same child): on a
shared 2-core Xeon VM, whole minutes ran up to 1.9x slower, which put the
run-to-run spread (IQR over median, ten seeds) of the ``solve_s`` medians at
0.12-0.25 and moved the median of the raw set-up time by up to 58% between
two sets of runs.  With the reference, two sets of ten seeds per workload on
that VM gave spreads of 0.03-0.08 for ``solve_ref``, and medians within 7%
(``solve_ref``) and 2% (``setup_s``) of each other.  ``solve_ref`` is the
solve time in units of ``reference_s``; ``setup_s`` is the set-up time
rescaled to a host on which ``reference_s`` reads ``REFERENCE_NOMINAL_S``.
The raw ``setup_wall_s``, ``solve_s`` and ``checks_per_s`` are reported with
``--trace 1`` and ``--report``.  ``--trace 1`` runs the micro-timings
(``micro.py``) once, then repeats the pass untraced -> wrapped
(``tracer.py``) -> profiled until S seconds are up, at least once, and
reports the per-layer metrics.
Either way the last stdout line is ``{"correct", "attempted", "failed",
"metrics"}``: ``attempted`` counts children, ``failed`` those that failed
the correctness gate (``gate``).  Metric names and units are the ones in
``BENCHMARK.json``; workloads, instances and expected outputs are in
``workloads.json``.

Full report (every metric of every workload, with units)::

    python3 perfbench/run.py --report [--seed N] [--out FILE]

runs the workloads round-robin, ``REPORT_ROUNDS`` untraced runs each, then
one traced pass each and the micro-timings; prints one line per metric,
optionally writes the result with the machine's details to FILE, and fails
if any wrapped name counted zero calls on every workload.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracer import TARGETS, span_self, span_totals  # noqa: E402

HARD_LIMIT_S = 170.0
REPORT_ROUNDS = 3
# Scale of ``setup_s``: set-up seconds on a host where ``reference_s`` takes this long.
REFERENCE_NOMINAL_S = 0.05
LAYERS = ("rootdata", "cells", "counting", "frobenius", "gf", "flags", "sweeps", "cli")


def gate(result: dict, instance: dict) -> list[str]:
    """Reasons why a child's result fails the correctness gate (empty if it passes)."""
    reasons = []
    if result.get("exit_code") != 0:
        reasons.append(f"exit code {result.get('exit_code')}")
    if result.get("status") != "PASS":
        reasons.append(f"status {result.get('status')!r}")
    if result.get("failures") != 0:
        reasons.append(f"{result.get('failures')} failures")
    if result.get("checks") != instance["checks"]:
        reasons.append(f"{result.get('checks')} checks, expected {instance['checks']}")
    if result.get("sha256") != instance["sha256"]:
        reasons.append(f"stdout sha256 {result.get('sha256')}, expected {instance['sha256']}")
    return reasons


def _child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["DEODHAR_WORKERS"] = "1"
    env.pop("PYTHONHASHSEED", None)
    return env


class Runner:
    """Starts children one at a time and keeps the tally of the correctness gate."""

    def __init__(self, hard_deadline: float):
        self.hard_deadline = hard_deadline
        self.attempted = 0
        self.failed = 0
        self.env = _child_env()

    def child(self, args: list[str], instance: dict | None = None) -> dict | None:
        """Run ``child.py args``; gate the result if ``instance`` is given."""
        self.attempted += 1
        result, error = self._spawn(args)
        if result is not None and instance is not None:
            reasons = gate(result, instance)
            error = "; ".join(reasons) if reasons else None
        if error is not None:
            self.failed += 1
            print(f"run failed ({' '.join(args[:1] + args[2:])}): {error}", file=sys.stderr)
        return result

    def _spawn(self, args: list[str]) -> tuple[dict | None, str | None]:
        timeout = self.hard_deadline - time.perf_counter()
        if timeout <= 0:
            return None, "no time left"
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "child.py"), *args],
                cwd=ROOT,
                env=self.env,
                capture_output=True,
                text=True,
                timeout=timeout,
            )
        except subprocess.TimeoutExpired:
            return None, "timed out"
        if proc.returncode != 0:
            return None, f"child exit {proc.returncode}: {proc.stderr.strip()[-400:]}"
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        module_file = result.get("module_file")
        if module_file is not None and not Path(module_file).is_relative_to(ROOT / "src"):
            return None, f"imported deodhar from {module_file}, not from this checkout"
        return result, None


def _instance(workload: dict, seed: int) -> dict:
    instances = workload["instances"]
    return instances[seed % len(instances)]


def _run_args(instance: dict, mode: str) -> list[str]:
    return ["run", json.dumps(instance), mode]


def end_to_end(samples: list[dict]) -> dict[str, float]:
    """Medians over untraced children."""
    return {
        "setup_s": statistics.median(
            r["setup_wall_s"] * REFERENCE_NOMINAL_S / r["reference_s"] for r in samples
        ),
        "setup_wall_s": statistics.median(r["setup_wall_s"] for r in samples),
        "solve_s": statistics.median(r["solve_s"] for r in samples),
        "solve_ref": statistics.median(r["solve_s"] / r["reference_s"] for r in samples),
        "checks_per_s": statistics.median((r.get("checks") or 0) / r["solve_s"] for r in samples),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in samples),
        "reference_s": statistics.median(r["reference_s"] for r in samples),
    }


def per_layer(passes: list[dict], micro: dict) -> dict[str, float]:
    """Per-layer metrics from traced passes (``plain``/``wrap``/``profile``) and micro-timings."""
    plain = [p["plain"] for p in passes]
    wrap = [p["wrap"] for p in passes]
    profile = [p["profile"] for p in passes]
    out = end_to_end(plain)
    for name in TARGETS:
        out[f"{name}.calls"] = wrap[0]["calls"][name]
    for layer in LAYERS:
        out[f"{layer}.self_s"] = statistics.median(r["self_s"].get(layer, 0.0) for r in profile)
    out["cli.emit_s"] = statistics.median(span_self(r["spans"], "cli.main") for r in wrap)
    out["cli.output_bytes"] = plain[0]["output_bytes"]
    totals = [span_totals(r["spans"]) for r in wrap]
    for name in totals[0]:
        if name.startswith("sweeps."):
            out[f"{name}.total_s"] = statistics.median(t[name] for t in totals)
    out["trace.wrap_overhead"] = statistics.median(r["solve_s"] for r in wrap) / out["solve_s"]
    out["trace.profile_overhead"] = statistics.median(r["solve_s"] for r in profile) / out["solve_s"]
    out.update(micro)
    return out


def measure_untraced(runner: Runner, instance: dict, until: float) -> list[dict]:
    """Untraced children until ``until``: another starts only if a typical one still fits."""
    samples, walls = [], []
    while True:
        t0 = time.perf_counter()
        result = runner.child(_run_args(instance, "plain"), instance)
        walls.append(time.perf_counter() - t0)
        if result is not None:
            samples.append(result)
        if time.perf_counter() + statistics.median(walls) > until:
            return samples


def traced_pass(runner: Runner, instance: dict) -> dict | None:
    results = {}
    for mode in ("plain", "wrap", "profile"):
        results[mode] = runner.child(_run_args(instance, mode), instance)
        if results[mode] is None:
            return None
    return results


def measure_traced(runner: Runner, instance: dict, until: float) -> tuple[list[dict], dict | None]:
    """Micro-timings first, then traced passes until ``until`` (at least one)."""
    micro = runner.child(["micro"])
    passes = []
    while True:
        t0 = time.perf_counter()
        result = traced_pass(runner, instance)
        if result is not None:
            passes.append(result)
        if time.perf_counter() + (time.perf_counter() - t0) > until:
            return passes, micro


def _declared(bench: dict, key: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in bench[key]}


def _select(metrics: dict[str, float], units: dict[str, str]) -> dict:
    missing = sorted(set(units) - set(metrics))
    if missing:
        raise RuntimeError(f"metrics declared in BENCHMARK.json but not measured: {missing}")
    return {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()}


def driver(args, spec: dict, bench: dict) -> int:
    start = time.perf_counter()
    runner = Runner(start + HARD_LIMIT_S)
    until = start + args.seconds
    instance = _instance(spec["workloads"][args.workload], args.seed)
    print(f"{args.workload}: instance {instance['label']} (seed {args.seed})", file=sys.stderr)
    if args.trace:
        passes, micro = measure_traced(runner, instance, until)
        ok = bool(passes) and micro is not None
        metrics = _select(per_layer(passes, micro), _declared(bench, "per_layer")) if ok else {}
    else:
        samples = measure_untraced(runner, instance, until)
        ok = bool(samples)
        metrics = _select(end_to_end(samples), _declared(bench, "end_to_end")) if ok else {}
    print(
        json.dumps(
            {
                "correct": ok and runner.failed == 0,
                "attempted": runner.attempted,
                "failed": runner.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


def _machine() -> dict:
    try:
        revision = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        revision = "unknown"
    return {
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "git_revision": revision,
        "loadavg_at_start": os.getloadavg(),
    }


def report(args, spec: dict, bench: dict) -> int:
    machine = _machine()
    runner = Runner(time.perf_counter() + 3600)
    workloads = {name: _instance(w, args.seed) for name, w in spec["workloads"].items()}
    samples: dict[str, list[dict]] = {name: [] for name in workloads}
    for _ in range(REPORT_ROUNDS):
        for name, instance in workloads.items():
            samples[name] += measure_untraced(runner, instance, 0.0)
    micro = runner.child(["micro"])
    units = {**_declared(bench, "end_to_end"), **_declared(bench, "per_layer")}
    results = {}
    for name, instance in workloads.items():
        traced = traced_pass(runner, instance)
        if not samples[name] or traced is None or micro is None:
            continue
        metrics = {**per_layer([traced], micro), **end_to_end(samples[name])}
        results[name] = {
            "instance": instance["label"],
            "runs": len(samples[name]),
            "metrics": {k: {"value": v, "unit": units.get(k, "count" if k.endswith(".calls") else "s")}
                        for k, v in metrics.items()},
        }
    print(f"machine: {json.dumps(machine)}")
    for name, res in results.items():
        print(f"\n{name} ({res['instance']}, medians of {res['runs']} runs)")
        for metric, m in res["metrics"].items():
            print(f"  {metric:34} {m['value']:>16.6g} {m['unit']}")
    never = [
        t for t in TARGETS
        if results and all(r["metrics"][f"{t}.calls"]["value"] == 0 for r in results.values())
    ]
    if never:
        print(f"wrapped names with zero calls on every workload: {never}", file=sys.stderr)
    if args.out:
        payload = {"machine": machine, "seed": args.seed, "failed_runs": runner.failed,
                   "attempted_runs": runner.attempted, "workloads": results}
        Path(args.out).write_text(json.dumps(payload, indent=2) + "\n")
    print(f"\n{runner.failed} of {runner.attempted} runs failed")
    complete = len(results) == len(workloads)
    return 0 if complete and runner.failed == 0 and not never else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--report", action="store_true")
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "deodhar" / "__init__.py").is_file():
        print(f"error: no deodhar sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((HERE / "workloads.json").read_text())
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.report:
        return report(args, spec, bench)
    if args.workload not in spec["workloads"]:
        parser.error(f"--workload must be one of {sorted(spec['workloads'])}")
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return driver(args, spec, bench)


if __name__ == "__main__":
    sys.exit(main())
