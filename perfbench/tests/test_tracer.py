import contextlib
import io

import deodhar.cli
import deodhar.flags
import deodhar.gf
import deodhar.rootdata
import tracer

ARGV = ["verify", "gl3-example", "--q", "2", "--k", "1", "--format", "json"]


def _cli_output() -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert deodhar.cli.main(ARGV) == 0
    return buf.getvalue()


def test_wrappers_leave_output_byte_identical_and_uninstall_restores():
    originals = (deodhar.gf.FqField.add, deodhar.rootdata.WeylElement.length, deodhar.flags.field)
    before = _cli_output()
    t = tracer.Tracer().install()
    try:
        assert deodhar.flags.field is not originals[2]
        traced = _cli_output()
    finally:
        t.uninstall()
    assert traced == before
    assert (deodhar.gf.FqField.add, deodhar.rootdata.WeylElement.length, deodhar.flags.field) == originals
    calls = t.calls
    for name in ("gf.field", "gf.mul", "rootdata.mul", "rootdata.length", "cells.subexpression",
                 "frobenius.cell_invariants", "flags.canonical_flag", "cli.main"):
        assert calls[name] > 0, name


def test_every_importing_module_is_patched():
    t = tracer.Tracer().install()
    t.uninstall()
    for name, modules in {
        "rootdata.build_root_system": ["deodhar.sweeps", "deodhar.flags", "deodhar.cli"],
        "rootdata.bruhat_leq": ["deodhar.sweeps", "deodhar.cells", "deodhar.counting", "deodhar.cli"],
        "rootdata.reduced_words": ["deodhar.sweeps"],
        "gf.field": ["deodhar.flags", "deodhar.frobenius"],
    }.items():
        assert set(modules) <= set(t.patched[name]), name


def test_span_self_subtracts_child_spans():
    spans = [
        ["cli.main", -1, 0.0, 10.0],
        ["sweeps.a", 0, 1.0, 4.0],
        ["cells.x", 1, 2.0, 3.0],
        ["sweeps.b", 0, 5.0, 9.0],
    ]
    assert tracer.span_self(spans, "cli.main") == 3.0
    assert tracer.span_self(spans, "sweeps.a") == 2.0
    assert tracer.span_totals(spans)["sweeps.a"] == 3.0
