"""Call counters and spans for the deodhar library, installed from outside.

The library has no tracing hooks, so the benchmark patches them in: every
target below is replaced by a wrapper in the class that defines it, or, for a
module-level function, in every ``deodhar`` module that holds a reference to
it (``from .rootdata import bruhat_leq`` copies the name into the importer).

Two kinds of wrapper:

* ``count`` targets are leaf or near-leaf operations called millions of
  times; the wrapper only increments a counter.  Their time comes from the
  profiled run (see ``child.py``), because timing each call from Python
  would multiply the run time.
* ``span`` targets are coarse boundaries (``cli.main``, the suite functions,
  ``enumerate_distinguished``); each call records ``[name, parent, start,
  end]`` with the index of the enclosing span as ``parent``.

Wrappers return what the wrapped callable returns and raise what it raises,
so installing them leaves the CLI output byte-identical.
"""

from __future__ import annotations

import functools
import sys
import time

# metric prefix -> (module, class or None, attribute, kind)
TARGETS = {
    "rootdata.mul": ("deodhar.rootdata", "WeylElement", "__mul__", "count"),
    "rootdata.length": ("deodhar.rootdata", "WeylElement", "length", "count"),
    "rootdata.inverse": ("deodhar.rootdata", "WeylElement", "inverse", "count"),
    "rootdata.act": ("deodhar.rootdata", "WeylElement", "act", "count"),
    "rootdata.bruhat_leq": ("deodhar.rootdata", None, "bruhat_leq", "count"),
    "rootdata.reduced_words": ("deodhar.rootdata", None, "reduced_words", "count"),
    "rootdata.build_root_system": ("deodhar.rootdata", None, "build_root_system", "count"),
    "cells.subexpression": ("deodhar.cells", "Subexpression", "__init__", "count"),
    "cells.enumerate_distinguished": ("deodhar.cells", None, "enumerate_distinguished", "span"),
    "counting.r_polynomial": ("deodhar.counting", None, "r_polynomial", "count"),
    "counting.cell_count_poly": ("deodhar.counting", None, "cell_count_poly", "count"),
    "frobenius.cell_invariants": ("deodhar.frobenius", None, "cell_invariants", "count"),
    "frobenius.xq_point_count": ("deodhar.frobenius", None, "xq_point_count", "count"),
    "gf.add": ("deodhar.gf", "FqField", "add", "count"),
    "gf.sub": ("deodhar.gf", "FqField", "sub", "count"),
    "gf.neg": ("deodhar.gf", "FqField", "neg", "count"),
    "gf.mul": ("deodhar.gf", "FqField", "mul", "count"),
    "gf.inv": ("deodhar.gf", "FqField", "inv", "count"),
    "gf.pow": ("deodhar.gf", "FqField", "pow", "count"),
    "gf.field": ("deodhar.gf", None, "field", "count"),
    "flags.canonical_flag": ("deodhar.flags", None, "canonical_flag", "count"),
    "sweeps.oracle_triangle_rows": ("deodhar.sweeps", None, "oracle_triangle_rows", "span"),
    "sweeps.partition_rows": ("deodhar.sweeps", None, "partition_rows", "span"),
    "sweeps.flag_census_rows": ("deodhar.sweeps", None, "flag_census_rows", "span"),
    "sweeps.double_cell_rows": ("deodhar.sweeps", None, "double_cell_rows", "span"),
    "sweeps.vanishing_rows": ("deodhar.sweeps", None, "vanishing_rows", "span"),
    "sweeps.witness_rows": ("deodhar.sweeps", None, "witness_rows", "span"),
    "sweeps.xq_model_rows": ("deodhar.sweeps", None, "xq_model_rows", "span"),
    "cli.main": ("deodhar.cli", None, "main", "span"),
}


class Tracer:
    """Counters and spans; ``install`` patches the library, ``uninstall`` undoes it."""

    def __init__(self):
        self.spans: list[list] = []
        self.patched: dict[str, list[str]] = {}
        self._cells: dict[str, list[int]] = {}
        self._open = -1
        self._patches: list[tuple[object, str, object]] = []

    def _counted(self, name, fn):
        cell = self._cells.setdefault(name, [0])

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        return counted

    def _spanned(self, name, fn):
        cell = self._cells.setdefault(name, [0])
        spans = self.spans
        clock = time.perf_counter

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            cell[0] += 1
            parent = self._open
            record = [name, parent, clock(), None]
            self._open = len(spans)
            spans.append(record)
            try:
                return fn(*args, **kwargs)
            finally:
                record[3] = clock()
                self._open = parent

        return spanned

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> "Tracer":
        for name, (module_name, cls_name, attr, kind) in TARGETS.items():
            wrap = self._counted if kind == "count" else self._spanned
            module = sys.modules[module_name]
            if cls_name is not None:
                cls = getattr(module, cls_name)
                original = cls.__dict__[attr]
                if isinstance(original, property):
                    self._patch(cls, attr, property(wrap(name, original.fget)))
                else:
                    self._patch(cls, attr, wrap(name, original))
                continue
            original = getattr(module, attr)
            wrapped = wrap(name, original)
            for mod_name, mod in sorted(sys.modules.items()):
                if mod_name != "deodhar" and not mod_name.startswith("deodhar."):
                    continue
                if vars(mod).get(attr) is original:
                    self._patch(mod, attr, wrapped)
                    self.patched.setdefault(name, []).append(mod_name)
        return self

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    @property
    def calls(self) -> dict[str, int]:
        return {name: cell[0] for name, cell in self._cells.items()}


def span_totals(spans: list[list]) -> dict[str, float]:
    """Total seconds per span name."""
    out: dict[str, float] = {}
    for name, _, start, end in spans:
        out[name] = out.get(name, 0.0) + (end - start)
    return out


def span_self(spans: list[list], name: str) -> float:
    """Seconds inside spans called ``name`` not covered by their child spans."""
    own: dict[int, float] = {}
    for i, (span_name, parent, start, end) in enumerate(spans):
        if span_name == name:
            own[i] = end - start
        elif parent in own:
            own[parent] -= end - start
    return sum(own.values())
