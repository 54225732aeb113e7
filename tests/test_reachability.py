"""Every function of the package is run by some command.

The probe runs each ``GOLDEN`` case of ``test_golden_cli.py`` in every
format, and each instance of ``perfbench/workloads.json``, through
``deodhar.cli.main`` under ``sys.setprofile``, and names every function
defined in the package's modules that no case reached.  It runs in a fresh
interpreter, so that a cache warmed by an earlier test cannot hide a call.
Exempt are dunders, which the data model calls, and the entries of
``ALLOWED``: functions whose caller lies outside the CLI, each with the file
that holds that caller.

Run as a script, this module is the probe: it reads the argv lists as json
on stdin and prints the unreached functions, one a line, as
``module.qualname``.
"""

import ast
import contextlib
import functools
import io
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# function -> (the file, from the repository root, that calls it; the text of
# that call)
ALLOWED = {
    "cli.run": ("pyproject.toml", '"deodhar.cli:run"'),
    "flags.enumerate_flags": ("perfbench/micro.py", "flags.enumerate_flags("),
}


def _defs(node, prefix):
    """(qualified name, name, first line) of every function under node; the
    first line is that of its first decorator, as in its code object."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            first = min([child.lineno, *(d.lineno for d in child.decorator_list)])
            yield prefix + child.name, child.name, first
            yield from _defs(child, f"{prefix}{child.name}.")
        elif isinstance(child, ast.ClassDef):
            yield from _defs(child, f"{prefix}{child.name}.")
        else:
            yield from _defs(child, prefix)


def probe(cases) -> list:
    """Run each argv list through ``deodhar.cli.main``, its output dropped;
    return the package's functions, dunders aside, that none of them ran.

    The profile function records the code of every frame it sees, so a
    function counts as run once any of its lines ran; the package is
    imported under it, so calls made at import count too.
    """
    ran = set()

    def record(frame, event, arg):
        ran.add(frame.f_code)

    sys.setprofile(record)
    try:
        from deodhar import cli

        for argv in cases:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(
                io.StringIO()
            ):
                cli.main(argv)
    finally:
        sys.setprofile(None)
    starts = {(code.co_filename, code.co_firstlineno) for code in ran}
    unreached = []
    for path in sorted(Path(cli.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for qualname, name, first in _defs(tree, path.stem + "."):
            dunder = name.startswith("__") and name.endswith("__")
            if not dunder and (str(path), first) not in starts:
                unreached.append(qualname)
    return unreached


@functools.lru_cache(maxsize=None)
def _unreached() -> tuple:
    """The probe's answer, from a fresh interpreter importing this package."""
    # not at the top of the module: the probe runs this module before it
    # starts recording, so a top-level import of the package would run unseen
    import deodhar
    from deodhar.cli import FORMATS
    from test_golden_cli import GOLDEN

    workloads = json.loads((ROOT / "perfbench" / "workloads.json").read_text())
    cases = [[*argv, "--format", fmt] for argv in GOLDEN for fmt in FORMATS]
    cases += [
        instance["argv"]
        for workload in workloads["workloads"].values()
        for instance in workload["instances"]
    ]
    # a workload instance may also be a golden case; run each argv once
    cases = [list(argv) for argv in dict.fromkeys(map(tuple, cases))]
    env = dict(os.environ)
    source = str(Path(deodhar.__file__).parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [source, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, __file__],
        input=json.dumps(cases),
        capture_output=True,
        text=True,
        env=env,
    )
    assert done.returncode == 0, done.stderr
    return tuple(done.stdout.split())


def test_every_function_is_run_by_a_cli_case():
    stray = [name for name in _unreached() if name not in ALLOWED]
    assert not stray, "run by no CLI case: " + ", ".join(stray)


def test_each_allowed_function_has_its_caller_and_no_cli_case():
    # a stale entry would hide dead code
    unreached, stale = _unreached(), []
    for name, (caller, call) in ALLOWED.items():
        if name not in unreached:
            stale.append(f"{name} is run by a CLI case")
        if call not in (ROOT / caller).read_text(encoding="utf-8"):
            stale.append(f"{caller} no longer holds {call!r}, the call of {name}")
    assert not stale, "stale ALLOWED entries: " + "; ".join(stale)


if __name__ == "__main__":
    print("\n".join(probe(json.load(sys.stdin))))
