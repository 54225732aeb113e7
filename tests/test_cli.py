"""Command line behaviour: outputs, exit codes, determinism."""

import contextlib
import csv
import io
import json
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import example, given, strategies as st

import deodhar
from deodhar.errors import BudgetError
from deodhar import cells, cli, flags, frobenius, sweeps
from deodhar.cli import (
    EXIT_BROKEN_PIPE,
    _cell_text,
    _CsvRows,
    _json_text,
    _JsonRows,
    main,
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_decompose_gamma_e(capsys):
    code, out, err = run_cli(
        capsys, "decompose", "A", "2", "--word", "sts", "--v", "e", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    rows = payload["rows"]
    assert len(rows) == 2
    assert rows[0]["gamma"] == "(1,1,1)"
    assert rows[0]["filtration_index"] == 0
    assert rows[1]["gamma"] == "(s,1,s)"
    assert rows[1]["n"] == 1 and rows[1]["m"] == 1


def test_decompose_all_v_has_seven_rows(capsys):
    code, out, _ = run_cli(
        capsys, "decompose", "A", "2", "--word", "sts", "--all-v", "--format", "json"
    )
    assert code == 0
    rows = json.loads(out)["rows"]
    assert len(rows) == 7
    assert all(r["distinguished"] for r in rows)



def test_decompose_all_v_walks_the_word_once(capsys, monkeypatch):
    calls = []
    enumerate_distinguished = cells.enumerate_distinguished

    def counted(word, v=None):
        calls.append(v)
        return enumerate_distinguished(word, v)

    monkeypatch.setattr(cells, "enumerate_distinguished", counted)
    code, out, _ = run_cli(
        capsys, "decompose", "B", "2", "--word", "stst", "--all-v", "--format", "json"
    )
    assert code == 0
    assert calls == [None]
    # every element of B2 is below w0 = stst
    assert len({row["v"] for row in json.loads(out)["rows"]}) == 8


def test_decompose_v_builds_only_subexpressions_ending_at_v(capsys, monkeypatch):
    calls = []
    init = cells.Subexpression.__init__

    def counted(self, word, bits):
        calls.append(tuple(bits))
        init(self, word, bits)

    monkeypatch.setattr(cells.Subexpression, "__init__", counted)
    code, out, _ = run_cli(
        capsys, "decompose", "A", "3", "--word", "stust", "--v", "s", "--format", "json"
    )
    assert code == 0
    rows = json.loads(out)["rows"]
    # one walk keeps the 3 subexpressions ending at s, one table row each
    assert len(rows) == 3
    assert len(calls) == 3
    assert [r["distinguished"] for r in rows] == [True, True, False]


def test_decompose_flags_non_distinguished_candidate(capsys):
    code, out, _ = run_cli(
        capsys, "decompose", "A", "2", "--word", "sts", "--v", "s", "--format", "json"
    )
    assert code == 0
    rows = json.loads(out)["rows"]
    gammas = {r["gamma"]: r for r in rows}
    assert gammas["(s,1,1)"]["distinguished"] is False
    assert gammas["(s,1,1)"]["violation_index"] == 3
    assert gammas["(1,1,s)"]["distinguished"] is True
    assert len(rows) == 2


def test_decompose_rank_one(capsys):
    code, out, _ = run_cli(
        capsys, "decompose", "A", "1", "--word", "s", "--v", "s", "--format", "json"
    )
    assert code == 0
    rows = json.loads(out)["rows"]
    assert len(rows) == 1
    assert (rows[0]["n"], rows[0]["m"]) == (0, 0)


def test_decompose_non_reduced_word_is_config_error(capsys):
    code, out, err = run_cli(capsys, "decompose", "A", "2", "--word", "ss", "--v", "e")
    assert code == 2
    assert "not reduced" in err


def test_decompose_incomparable_warns_with_empty_table(capsys):
    code, out, err = run_cli(
        capsys, "decompose", "A", "2", "--word", "s", "--v", "t", "--format", "json"
    )
    assert code == 0
    assert "warning" in err
    assert json.loads(out)["rows"] == []


def test_decompose_deterministic(capsys):
    args = ["decompose", "B", "2", "--word", "stst", "--all-v", "--format", "json"]
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    assert first == second


def test_verify_deodhar_vs_rpoly(capsys):
    code, out, _ = run_cli(
        capsys,
        "verify",
        "deodhar-vs-rpoly",
        "--type",
        "A",
        "--rank",
        "2",
        "--format",
        "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["status"] == "PASS"
    assert payload["failures"] == 0
    assert payload["checks"] == 31  # 25 pairs over all words plus 6 partitions


def test_verify_flags(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "flags", "--n", "3", "--q", "2", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["status"] == "PASS"
    census = [r for r in payload["rows"] if r["test"] == "flag-census-total"]
    assert census[0]["lhs"] == 21


def test_verify_flags_enumerates_flag_variety_once(capsys):
    # the census is the one walk over the flag variety; every row reads it
    flags.double_cell_census.cache_clear()
    code, _, _ = run_cli(capsys, "verify", "flags", "--n", "3", "--q", "2")
    assert code == 0
    info = flags.double_cell_census.cache_info()
    assert (info.misses, info.hits) == (1, 1)


def _refused_in_every_format(capsys, *argv) -> str:
    """Run argv in each format: each exits 2 with empty stdout and the same
    stderr, which is returned."""
    errs = set()
    for fmt in cli.FORMATS:
        code, out, err = run_cli(capsys, *argv, "--format", fmt)
        assert (code, out) == (2, ""), fmt
        errs.add(err)
    (err,) = errs
    return err


@pytest.mark.parametrize("n", ["0", "1", "5", "6"])
def test_verify_flags_rejects_n_out_of_range(capsys, n):
    # the census refuses n before a sweep builds A_{n-1}, which A0 and A5 are not
    err = _refused_in_every_format(capsys, "verify", "flags", "--n", n, "--q", "2")
    assert "2 <= n <= 4" in err and f"got {n}" in err
    assert "root system" not in err


def test_verify_gl3_example(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "gl3-example", "--q", "2", "--k", "2", "--format", "json"
    )
    assert code == 0
    assert json.loads(out)["status"] == "PASS"


@pytest.mark.parametrize("k", ["0", "-1"])
def test_verify_gl3_example_rejects_k_below_one(capsys, k):
    err = _refused_in_every_format(capsys, "verify", "gl3-example", "--q", "2", "--k", k)
    assert f"k must satisfy k >= 1, got {k}" in err
    assert "power of a prime" not in err


@pytest.mark.parametrize("q", ["0", "1", "12"])
def test_field_order_not_a_prime_power_is_config_error(capsys, q):
    code, out, err = run_cli(capsys, "verify", "gl3-example", "--q", q)
    assert code == 2 and out == ""
    assert "not a power of a prime" in err
    code, out, err = run_cli(capsys, "predict", "A", "2", "--word", "sts", "--q", q)
    assert code == 2 and out == ""


def test_verify_budget_exit_code(capsys):
    code, out, err = run_cli(capsys, "verify", "flags", "--n", "4", "--q", "16")
    assert code == 3
    assert "budget" in err.lower()


def test_verify_d4_triangle_stops_before_the_word_tree(capsys, monkeypatch):
    def refuse(rs):
        raise AssertionError("the check count must be refused before the walk")

    monkeypatch.setattr(sweeps, "word_tree_polys", refuse)
    code, out, err = run_cli(
        capsys, "verify", "deodhar-vs-rpoly", "--type", "D", "--rank", "4",
        "--format", "json",
    )
    assert code == 3
    payload = json.loads(out)
    assert payload["status"] == "BUDGET-EXCEEDED"
    assert payload["checks"] == 0 and payload["rows"] == []
    assert "1379685 checks" in payload["budget_exceeded"]
    assert "budget" in err.lower()


def test_verify_vanishing_small(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "vanishing", "--max-rank", "2", "--format", "json"
    )
    assert code == 0
    assert json.loads(out)["status"] == "PASS"


def test_verify_xq_models_small(capsys):
    code, out, _ = run_cli(
        capsys,
        "verify",
        "xq-models",
        "--max-qk",
        "9",
        "--max-nm",
        "2",
        "--format",
        "json",
    )
    assert code == 0
    assert json.loads(out)["status"] == "PASS"



@pytest.mark.parametrize("max_rank", ["4", "9"])
def test_verify_vanishing_rejects_max_rank_above_three(capsys, max_rank):
    err = _refused_in_every_format(capsys, "verify", "vanishing", "--max-rank", max_rank)
    assert f"rank at most 3; got {max_rank}" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            ("flags", "--n", "3", "--q", "2", "--type", "G"),
            "--type is not an option of suite 'flags'",
        ),
        (
            ("vanishing", "--max-rank", "2", "--n", "9"),
            "--n is not an option of suite 'vanishing'",
        ),
    ],
    ids=["flags-type", "vanishing-n"],
)
def test_verify_rejects_an_option_of_another_suite(capsys, argv, message):
    code, out, err = run_cli(capsys, "verify", *argv)
    assert code == 2
    assert out == ""
    assert message in err


def _readme_command_block() -> str:
    readme = Path(__file__).resolve().parents[1] / "README.md"
    return readme.read_text(encoding="utf-8").split("## Command line", 1)[1]


def test_readme_verify_lines_pass_the_option_check():
    text = _readme_command_block()
    lines = [
        line.split("#")[0].split()[1:]
        for line in text.split("```")[1].splitlines()
        if line.startswith("deodhar verify")
    ]
    assert {argv[1] for argv in lines} == set(cli.SUITES)
    parser = cli._build_parser()
    for argv in lines:
        # one row each: a sweep refuses a value before its first row
        next(cli._verify_rows(parser.parse_args(argv)))
    # the suite table lists each suite's options, defaults and csv columns
    for suite, (options, _, columns) in cli.SUITES.items():
        given = " ".join(f"--{o.replace('_', '-')} {d}" for o, d in options.items())
        assert f"| `{suite}` | `{given}` | `{', '.join(columns)}` |" in text


def test_verify_help_names_the_suites_of_each_option(capsys, monkeypatch):
    # wide enough that no help line wraps inside a suite name
    monkeypatch.setenv("COLUMNS", "200")
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--help"])
    assert exc.value.code == 0
    helps = {}
    for line in capsys.readouterr().out.splitlines():
        words = line.split()
        if words and words[0].startswith("--") and words[0] != "--format":
            helps[words[0][2:].replace("-", "_")] = line
    readers = {}
    for suite, (options, *_) in cli.SUITES.items():
        for option, default in options.items():
            readers.setdefault(option, {})[suite] = str(default)
    assert set(helps) == set(readers)
    for option, line in helps.items():
        assert dict(re.findall(r"([\w-]+) \(default ([^)]*)\)", line)) == readers[option]


def test_verify_gl3_example_runs_on_the_suite_defaults(capsys):
    code, out, _ = run_cli(capsys, "verify", "gl3-example", "--q", "2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["status"] == "PASS"
    # k defaults to 1, where the rational points of the big piece are empty
    assert [r["parameters"]["k"] for r in payload["rows"] if r["test"] == "gl3-k1-empty"] == [1]


@pytest.mark.parametrize(
    "argv",
    [("xq-models", "--max-nm", "-1"), ("vanishing", "--max-rank", "0")],
)
@pytest.mark.parametrize("fmt", ["table", "csv", "json"])
def test_verify_zero_checks_is_config_error(capsys, argv, fmt):
    # a stream must not print a header or a table line before a row exists
    code, out, err = run_cli(capsys, "verify", *argv, "--format", fmt)
    assert code == 2
    assert out == ""
    assert "zero checks" in err


def test_verify_looks_up_each_sweep_when_it_runs(capsys, monkeypatch):
    # perfbench/tracer.py wraps the sweeps after ``import deodhar.cli``
    calls = []
    for name in ("oracle_triangle_rows", "partition_rows"):
        sweep = getattr(sweeps, name)
        monkeypatch.setattr(
            sweeps, name, lambda *a, _s=sweep, _n=name: calls.append(_n) or _s(*a)
        )
    code, _, _ = run_cli(capsys, "verify", "deodhar-vs-rpoly", "--format", "json")
    assert code == 0
    assert calls == ["oracle_triangle_rows", "partition_rows"]


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_verify_b3_memory_does_not_grow_with_the_rows(fmt):
    # 6,587 rows, 2.4 MB of json or 0.57 MB of csv; before the stream the
    # rows and the joined json report peaked at 9.5 MiB traced
    argv = ["verify", "deodhar-vs-rpoly", "--type", "B", "--rank", "3", "--format", fmt]
    with open(os.devnull, "w") as null, contextlib.redirect_stdout(null):
        tracemalloc.start()
        try:
            code = main(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert code == 0
    assert peak < 3 * 2**20


def test_verify_csv_format(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "gl3-example", "--q", "2", "--k", "1", "--format", "csv"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "test,k,q,lhs,rhs,match"
    assert len(lines) > 1


def test_verify_oracle_csv_columns(capsys):
    # the oracle comparison table carries its parameters as columns
    code, out, _ = run_cli(
        capsys,
        "verify",
        "deodhar-vs-rpoly",
        "--type",
        "A",
        "--rank",
        "2",
        "--format",
        "csv",
    )
    assert code == 0
    assert out.splitlines()[0] == "test,rank,type,v,w,word,lhs,rhs,match"


def test_verify_budget_partial_report(capsys):
    code, out, err = run_cli(
        capsys, "verify", "flags", "--n", "4", "--q", "16", "--format", "json"
    )
    assert code == 3
    payload = json.loads(out)
    assert payload["status"] == "BUDGET-EXCEEDED"
    assert "budget_exceeded" in payload


def test_verify_xq_models_brute_budget_mid_sweep(capsys, monkeypatch):
    # under a cap of 36 the brute count of X_2(1,2) over F_4 walks 48 pairs;
    # every F_2 row and the F_4 rows up to n = 1, m = 1 come before it
    full = list(sweeps.xq_model_rows(4, 3))
    monkeypatch.setattr(frobenius, "MAX_MODEL_TUPLES", 36)
    code, out, err = run_cli(
        capsys, "verify", "xq-models", "--max-qk", "4", "--max-nm", "3",
        "--format", "json",
    )
    assert code == 3
    assert "X_2(1,2) over F_4 walks 48 pairs > 36" in err
    report = json.loads(out)
    assert report["status"] == "BUDGET-EXCEEDED"
    assert "walks 48 pairs" in report["budget_exceeded"]
    made = report["rows"]
    assert report["checks"] == len(made) and all(row["match"] for row in made)
    assert made == full[: len(made)]
    ks = {(r["parameters"]["q"], r["parameters"]["k"]) for r in made}
    assert ks == {(2, 1), (2, 2)}
    assert made[-1]["parameters"] == {"q": 2, "k": 2, "n": 1, "m": 1}
    assert full[len(made)]["parameters"] == {"q": 2, "k": 2, "n": 1, "m": 2}


def test_predict_a2(capsys):
    code, out, _ = run_cli(
        capsys,
        "predict",
        "A",
        "2",
        "--word",
        "sts",
        "--q",
        "2",
        "--format",
        "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["survivor"] == {
        "x": "sts",
        "gamma": "(1,1,1)",
        "shift": 3,
        "torus_order": 3,
    }
    zero_rows = [r for r in payload["rows"] if r["prediction"] == "zero"]
    assert len(zero_rows) == 5
    assert all("witness_root" in r for r in zero_rows)


def test_predict_a1_q3(capsys):
    code, out, _ = run_cli(
        capsys, "predict", "A", "1", "--word", "s", "--q", "3", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["survivor"]["shift"] == 1
    assert payload["survivor"]["torus_order"] == 8


def test_predict_identity_word(capsys):
    code, out, _ = run_cli(
        capsys, "predict", "A", "2", "--word", "e", "--q", "2", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["survivor"]["shift"] == 0
    assert payload["survivor"]["gamma"] == "()"


def test_cell_invariants_computed_once_per_subexpression(capsys, monkeypatch):
    calls = []
    cell_invariants = frobenius.cell_invariants

    def counted(gamma, od):
        calls.append(gamma)
        return cell_invariants(gamma, od)

    monkeypatch.setattr(frobenius, "cell_invariants", counted)
    code, _, _ = run_cli(capsys, "predict", "A", "3", "--word", "stutst")
    assert code == 0
    # Gamma_e of stutst has 5 subexpressions
    assert len(calls) == len(set(calls)) == 5
    calls.clear()
    code, _, _ = run_cli(capsys, "verify", "vanishing", "--max-rank", "1")
    assert code == 0
    # A1 has one twist; the words e and s each have only the all-skip Gamma_e
    assert len(calls) == 2


def test_predict_rejects_nonregular_character(capsys):
    code, out, err = run_cli(
        capsys,
        "predict",
        "A",
        "2",
        "--word",
        "sts",
        "--q",
        "2",
        "--psi",
        "s=1,t=0",
    )
    assert code == 2
    assert "alpha_t" in err


@pytest.mark.parametrize("psi", ["s=1,t=1", "t=1,s=1"])
def test_predict_accepts_components_in_any_order(capsys, psi):
    # the components are kept sorted by orbit, so either order is the default
    argv = ("predict", "A", "2", "--word", "sts", "--q", "2", "--format", "json")
    code, out, _ = run_cli(capsys, *argv, "--psi", psi)
    assert code == 0
    assert out == run_cli(capsys, *argv)[1]


@pytest.mark.parametrize("psi", ["s=2,t=1", "s=-1,t=1"])
def test_predict_rejects_multiplier_outside_field(capsys, psi):
    code, out, err = run_cli(
        capsys, "predict", "A", "2", "--word", "sts", "--q", "2", "--psi", psi
    )
    assert code == 2
    assert out == ""
    assert "0..1" in err



@pytest.mark.parametrize(
    "psi, bad",
    [("s=x,t=1", "'s=x'"), ("s,t=1", "'s'"), ("regular-default", "'regular-default'")],
)
def test_predict_rejects_non_integer_psi_component(capsys, psi, bad):
    code, out, err = run_cli(
        capsys, "predict", "A", "2", "--word", "sts", "--psi", psi
    )
    assert code == 2
    assert out == ""
    assert f"bad character component {bad}" in err


@pytest.mark.parametrize("psi, bad", [("=1,t=1,u=1", "''"), ("tu=1,s=1,u=1", "'tu'")])
def test_predict_rejects_psi_letter_that_is_not_one_letter(capsys, psi, bad):
    code, out, err = run_cli(
        capsys, "predict", "A", "3", "--word", "stu", "--q", "2", "--psi", psi
    )
    assert code == 2
    assert out == ""
    assert f"letter {bad} is not a simple reflection" in err


@pytest.mark.parametrize(
    "twist, psi, first, second",
    [
        ("ts", "s=0,t=1", "s", "t"),
        ("ts", "s=1,t=0", "s", "t"),
        ("split", "s=0,s=1,t=1", "s", "s"),
    ],
)
def test_predict_rejects_two_components_on_one_orbit(capsys, twist, psi, first, second):
    code, out, err = run_cli(
        capsys, "predict", "A", "2", "--word", "sts", "--q", "2",
        "--twist", twist, "--psi", psi,
    )
    assert code == 2
    assert out == ""
    assert f"components '{first}' and '{second}' both name the orbit of alpha_s" in err


def test_predict_twisted_a2(capsys):
    code, out, _ = run_cli(
        capsys,
        "predict",
        "A",
        "2",
        "--word",
        "sts",
        "--q",
        "2",
        "--twist",
        "ts",
        "--format",
        "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["survivor"]["shift"] == 3


@pytest.mark.parametrize(
    "twist, message",
    [("s", "twist rank does not match"), ("sts", "not a permutation")],
    ids=["short", "not-a-permutation"],
)
def test_predict_rejects_a_twist_that_is_not_a_diagram_permutation(
    capsys, twist, message
):
    # frobenius.orbit_data is the one check of a twist's length and shape
    err = _refused_in_every_format(
        capsys, "predict", "A", "2", "--word", "sts", "--twist", twist
    )
    assert message in err


def test_predict_deterministic(capsys):
    args = ["predict", "A", "2", "--word", "sts", "--q", "2", "--format", "json"]
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    assert first == second


def test_verify_deterministic(capsys):
    args = ["verify", "gl3-example", "--q", "2", "--k", "2", "--format", "json"]
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    assert first == second


def test_workers_env_is_ignored(capsys, monkeypatch):
    args = ["verify", "deodhar-vs-rpoly", "--type", "A", "--rank", "2"]
    monkeypatch.delenv("DEODHAR_WORKERS", raising=False)
    _, plain, _ = run_cli(capsys, *args)
    monkeypatch.setenv("DEODHAR_WORKERS", "abc")
    code, out, err = run_cli(capsys, *args)
    assert code == 0
    assert err == ""
    assert out == plain


def test_cli_import_loads_no_process_pool():
    probe = (
        "import sys, deodhar.cli; "
        "print(sorted(m for m in sys.modules "
        "if m.split('.')[0] in ('concurrent', 'multiprocessing')))"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(deodhar.__file__).parents[1]))
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert out == "[]\n"


def test_cli_import_loads_every_shipped_module():
    # a module that no command imports is code that no user runs; a
    # cross-check that only tests call belongs in tests/
    probe = (
        "import pkgutil, sys, deodhar, deodhar.cli; "
        "names = [m.name for m in pkgutil.iter_modules(deodhar.__path__)]; "
        "print(len(names), sorted(n for n in names if 'deodhar.' + n not in sys.modules))"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(deodhar.__file__).parents[1]))
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    ).stdout
    count, missing = out.split(" ", 1)
    assert int(count) >= 9
    assert missing == "[]\n"


def test_cli_import_leaves_dataclasses_unloaded():
    # the package's records are plain __slots__ classes: importing the CLI
    # loads dataclasses (and inspect, ast, dis behind it) only if something
    # else already had
    probe = (
        "import sys; before = 'dataclasses' in sys.modules; import deodhar.cli; "
        "print(before, 'dataclasses' in sys.modules)"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(deodhar.__file__).parents[1]))
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    ).stdout
    before, after = out.split()
    assert after == before


# Text with the characters JSON must escape: quotes, backslashes, control
# characters, non-ASCII (inside and outside the BMP) and lone surrogates.
JSON_TEXT = st.text(
    st.one_of(
        st.sampled_from('"\\/\x00\x08\t\n\x1f\x7f\u00e9\u2028\U0001f600'),
        st.integers(0xD800, 0xDFFF).map(chr),
        st.characters(),
    ),
    max_size=8,
)
JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=-(10**40), max_value=-(2**63))
    | JSON_TEXT,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(JSON_TEXT, inner, max_size=4),
    max_leaves=20,
)


@given(JSON_VALUES)
@example({"": [], "\ud800": {}, "k\\\"": ((), [-(10**30)], True, False, None)})
def test_json_text_equals_indented_json_dumps(value):
    assert _json_text(value) == json.dumps(value, indent=2, sort_keys=True)


def test_json_text_pad_indents_a_nested_value():
    row = {"lhs": [1, -1], "test": "t"}
    whole = _json_text({"rows": [row]})
    assert _json_text(row, "    ") in whole
    assert whole == json.dumps({"rows": [row]}, indent=2, sort_keys=True)


class _Int(int):
    pass


@pytest.mark.parametrize(
    "value",
    [1.5, {1: "a"}, [0, {"x": _Int(3)}]],
    ids=["float", "int-key", "int-subclass"],
)
def test_json_text_rejects_what_json_dumps_accepts(value):
    # Reports hold no floats, and json.dumps sorts int keys by value, not by
    # the strings it prints; so the narrower contract is deliberate.
    json.dumps(value, indent=2, sort_keys=True)
    with pytest.raises(TypeError):
        _json_text(value)


def test_json_text_rejects_a_set():
    with pytest.raises(TypeError):
        _json_text({"a": {0, 1}})


# Sides of a verify row: flat lists of exact ints (list or tuple), whose text
# the row encoder keeps in its memo, lists that mix ints and bools, which it
# must not look up there, and any other report value.
INT_LISTS = st.lists(st.integers(-1, 2) | st.integers(), max_size=5)
ROW_SIDES = (
    INT_LISTS
    | INT_LISTS.map(tuple)
    | st.lists(st.sampled_from([0, 1, True, False]), max_size=3)
    | JSON_VALUES
)
PARAMETERS = st.dictionaries(
    st.sampled_from(["rank", "type", "v", "w", "word"]) | JSON_TEXT,
    st.integers() | JSON_TEXT | JSON_VALUES,
    max_size=5,
)


def _flip_bools(side):
    """side with 0, 1 and False, True swapped: equal to side, printed otherwise."""
    if type(side) not in (list, tuple):
        return side
    return type(side)(
        bool(x) if type(x) is int and x in (0, 1) else int(x) if type(x) is bool else x
        for x in side
    )


@st.composite
def verify_rows(draw) -> dict:
    lhs = draw(ROW_SIDES)
    rhs = draw(st.just(_flip_bools(lhs)) | st.just(lhs) | ROW_SIDES)
    return sweeps._row(draw(JSON_TEXT), draw(PARAMETERS), lhs, rhs)


@st.composite
def verify_row_lists(draw) -> list:
    """Rows of verify_rows, some of whose sides are a side object of an
    earlier row, as the triangle sweep shares one list per coefficient
    tuple; a row may take the parameters of the row before, so shared
    objects also meet inside one block."""
    rows, seen = [], []
    for row in draw(st.lists(verify_rows(), max_size=8)):
        sides = [row["lhs"], row["rhs"]]
        for i in range(2):
            if seen and draw(st.booleans()):
                sides[i] = draw(st.sampled_from(seen))
        seen += sides
        params = row["parameters"]
        if rows and draw(st.booleans()):
            params = rows[-1]["parameters"]
        rows.append(sweeps._row(row["test"], params, *sides))
    return rows


# The json sink takes rows as sweeps._row makes them, and only those.
ROWS = verify_row_lists()
VERIFY_PAYLOADS = st.fixed_dictionaries(
    {
        "schema": st.just("deodhar.v1"),
        "command": st.just("verify"),
        "suite": JSON_TEXT,
        "checks": st.integers(min_value=0),
        "failures": st.integers(min_value=0),
        "status": st.sampled_from(["PASS", "FAIL", "BUDGET-EXCEEDED"]),
        "rows": ROWS,
    },
    optional={"budget_exceeded": JSON_TEXT},
)


def _verify_json(payload: dict, block=None) -> str:
    """The json ``verify`` prints for payload: each row through the json sink,
    then the head around the spooled rows; block, if given, replaces
    ``cli.JSON_ROW_BLOCK``."""
    out = io.StringIO()
    with pytest.MonkeyPatch.context() as mp:
        if block is not None:
            mp.setattr(cli, "JSON_ROW_BLOCK", block)
        sink = _JsonRows(io.StringIO(), out)
    for row in payload["rows"]:
        sink.put(row)
    sink.write_report({k: v for k, v in payload.items() if k != "rows"})
    return out.getvalue()


def _verify_payload(rows, **extra) -> dict:
    return {
        "schema": "deodhar.v1",
        "command": "verify",
        "suite": "deodhar-vs-rpoly",
        "checks": len(rows),
        "failures": sum(1 for r in rows if not r["match"]),
        "status": "PASS",
        "rows": rows,
        **extra,
    }


def _row(lhs, rhs, **parameters) -> dict:
    return sweeps._row("t", parameters, lhs, rhs)


# [1] == [True] and hash((1,)) == hash((True,)), but they print 1 and true
KEEPS_APART = {
    "int-then-bool": [
        _row([1], [1], w="s"), _row([True], [True], w="s"), _row([1], [True], w="t")
    ],
    "bool-then-int": [
        _row([True], [1], w="s"), _row((1,), [1], w="s"), _row([1, 0], (True, 0))
    ],
    "mismatch": [_row([0, -1, 1], [0, 1], v="e", w="s"), _row(2, [2], v="e")],
    "empty-lists": [_row([], [], w="e"), _row([], (), w="e"), _row([], [0], w="e")],
    "no-rows": [],
}
# Flat lists of ints, bools, strings and None share the memo, keyed apart.
KEEPS_APART_IN_BLOCKS = {
    **KEEPS_APART,
    "scalar-lists": [
        _row([1, True, 3], [1, True, 3], w="s"),
        _row([1, 1, 3], [1, True, 3], w="s"),
        _row(["1", None], ["1", None], w="s"),
        _row([None, "1"], ["1", None], w="t"),
        _row([True, "a"], [1, "a"], w="t"),
    ],
}


@pytest.mark.parametrize("rows", KEEPS_APART.values(), ids=KEEPS_APART)
def test_verify_json_keeps_ints_bools_and_mismatches_apart(rows):
    for payload in (_verify_payload(rows), _verify_payload(rows, budget_exceeded="x")):
        assert _verify_json(payload) == json.dumps(payload, indent=2, sort_keys=True) + "\n"


@given(VERIFY_PAYLOADS)
def test_verify_json_equals_indented_json_dumps_in_small_blocks(payload):
    # None: the module's JSON_ROW_BLOCK
    expected = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    for block in (1, 2, 3, None):
        assert _verify_json(payload, block) == expected


@pytest.mark.parametrize("block", [1, 2, 3])
@pytest.mark.parametrize(
    "rows", KEEPS_APART_IN_BLOCKS.values(), ids=KEEPS_APART_IN_BLOCKS
)
def test_verify_json_keeps_ints_bools_and_mismatches_apart_in_blocks(rows, block):
    for payload in (_verify_payload(rows), _verify_payload(rows, budget_exceeded="x")):
        expected = json.dumps(payload, indent=2, sort_keys=True) + "\n"
        assert _verify_json(payload, block) == expected


@pytest.mark.parametrize("block", [2, 3, 4, None])
def test_verify_json_layout_changes_inside_a_block(block):
    # parameter key sets (and orders) change from row to row, one row has no
    # parameters, and a parameter key and value hold "%"
    rows = [
        _row([1], [1], w="s"),
        _row([1, 2], [1, 2], v="e", w="t"),
        _row([1], [1], w="s", v="e"),
        _row([3], [3], w="u"),
        _row([1], [1]),
        _row(4, 4, **{"%s": "%d", "w%": 1}),
        _row([True], [1], w="s"),
    ]
    payload = _verify_payload(rows)
    text = _verify_json(payload, block)
    assert text == json.dumps(payload, indent=2, sort_keys=True) + "\n"
    assert '"parameters": {},' in text


@pytest.mark.parametrize(
    "runs, block",
    [((3, 3, 1), 3), ((2, 4, 2), 2), ((4, 1), 4), ((6,), 3), ((1, 1, 1), 1)],
)
def test_verify_json_layout_run_ends_on_a_block_boundary(runs, block):
    # runs of alternating layouts whose lengths are multiples of the block,
    # so a block fills up on the last row of a run (the last run may be short)
    rows = [
        _row([i], [i], **({"w": "s"} if r % 2 else {"v": "e", "w": "t"}))
        for r, length in enumerate(runs)
        for i in range(length)
    ]
    payload = _verify_payload(rows)
    assert _verify_json(payload, block) == json.dumps(payload, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("key", sorted(sweeps._row("t", {}, 0, 0)))
def test_verify_json_rejects_a_row_without_a_row_key(key):
    row = _row([1], [1], w="s")
    del row[key]
    sink = _JsonRows(io.StringIO(), io.StringIO())
    with pytest.raises(KeyError):
        sink.put(row)
        sink.write_report({})


# small options for each verify suite; a suite missing here fails below
SMALL_SUITES = {
    "deodhar-vs-rpoly": ("--type", "A", "--rank", "2"),
    "flags": ("--n", "3", "--q", "2"),
    "gl3-example": ("--q", "2", "--k", "2"),
    "vanishing": ("--max-rank", "2"),
    "xq-models": ("--max-qk", "9", "--max-nm", "2"),
}


@pytest.mark.parametrize("suite", cli.SUITES)
def test_every_suite_row_has_the_keys_of_sweeps_row(suite):
    # the shape the sinks rely on: _row's keys, parameters a dict whose keys
    # are among the suite's csv columns, and every column used by some row
    keys = sweeps._row("t", {}, 0, 0).keys()
    _, _, columns = cli.SUITES[suite]
    assert list(columns) == sorted(set(columns))
    args = cli._build_parser().parse_args(["verify", suite, *SMALL_SUITES[suite]])
    count, used = 0, set()
    for row in cli._verify_rows(args):
        assert type(row) is dict and row.keys() == keys
        assert type(row["parameters"]) is dict
        assert row["parameters"].keys() <= set(columns), row
        used.update(row["parameters"])
        count += 1
    assert count
    assert used == set(columns)


@pytest.mark.parametrize("made", [2, 3, 5])
def test_verify_json_budget_after_a_partial_block_keeps_every_row(
    capsys, monkeypatch, made
):
    monkeypatch.setattr(cli, "JSON_ROW_BLOCK", 3)
    rows = [sweeps._row("t", {"i": i, "w": "s"}, [i], [i]) for i in range(made)]

    def sweep(max_qk, max_nm):
        yield from rows
        raise BudgetError("no more rows")

    monkeypatch.setattr(sweeps, "xq_model_rows", sweep)
    code, out, err = run_cli(capsys, "verify", "xq-models", "--format", "json")
    assert code == 3
    assert "no more rows" in err
    report = json.loads(out)
    assert report["status"] == "BUDGET-EXCEEDED"
    assert report["checks"] == made
    assert report["rows"] == rows


_SHARED = [0, -1, 1]
_SURVIVOR = [1, True, 3]
# One layout, so each side is one column of a block: a column that holds a
# list or tuple takes the lookup by id, any other column the per-value memo,
# and both share it.
COLUMN_PATHS = {
    "int-lhs-mixed-rhs": [
        _row([1, 2], [1, True], w="s"),
        _row([1, 0], [1, 2], w="s"),
        _row([1, 1], [1, 1], w="s"),
    ],
    "lists-with-a-tuple-and-empty": [
        _row([1], (1,), w="s"),
        _row([], [2, -3], w="s"),
        _row((0, 1), [], w="s"),
        _row([0, 1], (), w="s"),
    ],
    # one list object on many rows and both sides, encoded once per block
    "one-object-repeated": [_row(_SHARED, _SHARED, w="s") for _ in range(3)]
    + [_row(_SHARED, [0, -1, 1], w="s"), _row([0, -1, 1], _SHARED, w="s")],
    # distinct objects equal as tuples, (1,) == (True,), that print apart
    "one-and-true": [
        _row([1], [True], w="s"),
        _row([True], [1], w="s"),
        _row([1], [1], w="s"),
        _row([True], [True], w="s"),
    ],
    # ints, one shared list and [1, True, 0]-style lists in both columns, as
    # the vanishing rows alternate a count and a survivor list
    "ints-and-lists-mixed": [
        _row(2, 2, w="s"),
        _row(_SURVIVOR, _SURVIVOR, w="s"),
        _row(0, 1, w="s"),
        _row([1, True, 0], _SURVIVOR, w="s"),
        _row(_SURVIVOR, [1, 1, 3], w="s"),
        _row([1, 1, 0], [1, True, 0], w="s"),
        _row(10**20, _SURVIVOR, w="s"),
    ],
}


@pytest.mark.parametrize("block", [2, None])
@pytest.mark.parametrize("rows", COLUMN_PATHS.values(), ids=COLUMN_PATHS)
def test_verify_json_column_paths_share_the_memo(rows, block):
    payload = _verify_payload(rows)
    assert _verify_json(payload, block) == json.dumps(payload, indent=2, sort_keys=True) + "\n"


def test_verify_json_column_looks_up_each_object_once():
    looked_up = []

    class Counted(cli._IntListMemo):
        __slots__ = ()

        def __call__(self, value):
            looked_up.append(value)
            return super().__call__(value)

    memo, one, true = Counted(json.dumps), [1], [True]
    column = (_SHARED, one, true, _SHARED, one)
    assert list(memo.column(column)) == list(map(json.dumps, column))
    assert list(map(id, looked_up)) == [id(_SHARED), id(one), id(true)]
    # a column with no list or tuple takes no id pass: every value is encoded
    looked_up.clear()
    column = (2, "s", 2, True)
    assert list(memo.column(column)) == list(map(json.dumps, column))
    assert looked_up == list(column)
    # a mixed column looks up each distinct object once, ints included
    looked_up.clear()
    big, flags = 10**20, [1, True, 0]
    column = (2, _SHARED, big, _SHARED, flags, 2, big, flags)
    assert list(memo.column(column)) == list(map(json.dumps, column))
    assert list(map(id, looked_up)) == [id(2), id(_SHARED), id(big), id(flags)]


def test_verify_json_column_lookup_and_per_value_keys():
    sink = _JsonRows(io.StringIO(), io.StringIO())
    for row in COLUMN_PATHS["int-lhs-mixed-rhs"]:
        sink.put(row)
    sink.write_report({})
    # the lhs column is all-int; the rhs column falls back for its [1, True]
    assert set(sink.side.memo) == {(1, 2), (1, 0), (1, 1), ((int, bool), (1, True))}


@pytest.mark.parametrize("at", ["lhs", "rhs"])
def test_verify_json_int_subclass_in_an_int_column_raises(at):
    rows = [_row([1], [1], w="s"), _row([2, 3], [2, 3], w="s")]
    rows[1][at] = [2, _Int(3)]
    with pytest.raises(TypeError):
        _verify_json(_verify_payload(rows))


def test_verify_json_rejects_what_json_text_rejects():
    for bad in (1.5, [_Int(3)], {"x": {0}}):
        with pytest.raises(TypeError):
            _verify_json(_verify_payload([_row(bad, bad)]))
    with pytest.raises(TypeError):
        _verify_json(_verify_payload([_row([1], [1], w=1.5)]))


def _csv_by_projection(columns, rows) -> str:
    """csv of rows as the whole report is projected onto the suite's columns:
    a blank cell where a row has no such parameter, lhs and rhs as json."""
    names = ["test", *columns, "lhs", "rhs", "match"]
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(names)
    for r in rows:
        flat = {
            "test": r["test"],
            **r["parameters"],
            "lhs": json.dumps(r["lhs"]),
            "rhs": json.dumps(r["rhs"]),
            "match": r["match"],
        }
        writer.writerow([_cell_text(flat.get(c)) for c in names])
    return buf.getvalue()


# csv cells: text with a delimiter, a quote or a line break in it, column
# names that are such text, and rows that leave some columns blank.
CSV_TEXT = st.text(st.sampled_from('ab,"\r\n \\'), max_size=4)
CSV_COLUMNS = st.sets(
    st.sampled_from(["rank", "type", "v", "w", "word"])
    | CSV_TEXT.filter(lambda k: k not in ("test", "lhs", "rhs", "match")),
    max_size=4,
).map(lambda names: tuple(sorted(names)))


@st.composite
def csv_reports(draw) -> tuple:
    """(columns, rows) whose parameter keys are among the columns."""
    columns = draw(CSV_COLUMNS)
    keys = st.sampled_from(columns) if columns else st.nothing()
    row = st.fixed_dictionaries(
        {
            "test": CSV_TEXT,
            "parameters": st.dictionaries(
                keys, st.integers() | CSV_TEXT | st.lists(CSV_TEXT, max_size=2)
            ),
            "lhs": ROW_SIDES,
            "rhs": ROW_SIDES,
            "match": st.booleans(),
        }
    )
    return columns, draw(st.lists(row, max_size=8))


@given(csv_reports())
@example((("v", "w"), [_row([1], [True], w="a\rb")]))
def test_verify_csv_sink_equals_the_whole_report_projection(report):
    columns, rows = report
    out = io.StringIO()
    sink = _CsvRows(columns, out)
    for row in rows:
        sink.put(row)
    sink.write_report({})
    assert out.getvalue() == _csv_by_projection(columns, rows)


def test_verify_csv_rejects_a_parameter_outside_the_columns():
    out = io.StringIO()
    sink = _CsvRows(("w",), out)
    sink.put(_row([1], [1], w="s"))
    with pytest.raises(KeyError, match="'v'"):
        sink.put(_row([1], [1], v="e", w="s"))
    assert out.getvalue() == 'test,w,lhs,rhs,match\nt,s,[1],[1],True\n'


@pytest.mark.parametrize("fmt", ["table", "csv", "json"])
def test_verify_config_error_inside_a_sweep_prints_nothing(capsys, fmt):
    # q = 6 passes the suite's option check and fails in the sweep, before
    # its first row: no csv header, no table line, no json head
    argv = ("verify", "gl3-example", "--q", "6", "--format", fmt)
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "field order 6 is not a power of a prime" in err


def test_closed_pipe_exits_141_without_a_traceback():
    # 2.4 MB of json, far more than a pipe holds, so the writer is still
    # writing when the reader goes away after one line.
    argv = ["verify", "deodhar-vs-rpoly", "--type", "B", "--rank", "3", "--format", "json"]
    env = dict(os.environ, PYTHONPATH=str(Path(deodhar.__file__).parents[1]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "deodhar.cli", *argv],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    assert proc.stdout.readline() == b"{\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == EXIT_BROKEN_PIPE == 141
    assert err == b""
