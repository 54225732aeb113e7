"""Command line behaviour: outputs, exit codes, determinism."""

import json
import os

import pytest

from deodhar import flags, sweeps
from deodhar.cli import main
from deodhar.errors import ConfigError


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


def test_verify_flags_enumerates_flag_variety_once(capsys, monkeypatch):
    calls = []
    enumerate_flags = flags.enumerate_flags

    def counted(n, q):
        calls.append((n, q))
        return enumerate_flags(n, q)

    flags.double_cell_census.cache_clear()
    monkeypatch.setattr(flags, "enumerate_flags", counted)
    code, _, _ = run_cli(capsys, "verify", "flags", "--n", "3", "--q", "2")
    assert code == 0
    assert calls == [(3, 2)]


def test_verify_gl3_example(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "gl3-example", "--q", "2", "--k", "2", "--format", "json"
    )
    assert code == 0
    assert json.loads(out)["status"] == "PASS"


@pytest.mark.parametrize("k", ["0", "-1"])
def test_verify_gl3_example_rejects_k_below_one(capsys, k):
    code, out, err = run_cli(capsys, "verify", "gl3-example", "--q", "2", "--k", k)
    assert code == 2
    assert out == ""
    assert "--k" in err and "k >= 1" in err
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


@pytest.mark.parametrize(
    "argv",
    [("xq-models", "--max-nm", "-1"), ("vanishing", "--max-rank", "0")],
)
@pytest.mark.parametrize("fmt", ["table", "csv", "json"])
def test_verify_zero_checks_is_config_error(capsys, argv, fmt):
    code, out, err = run_cli(capsys, "verify", *argv, "--format", fmt)
    assert code == 2
    assert "PASS" not in out
    assert "zero checks" in err


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


@pytest.mark.parametrize("psi", ["s=2,t=1", "s=-1,t=1"])
def test_predict_rejects_multiplier_outside_field(capsys, psi):
    code, out, err = run_cli(
        capsys, "predict", "A", "2", "--word", "sts", "--q", "2", "--psi", psi
    )
    assert code == 2
    assert out == ""
    assert "0..1" in err


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


def test_workers_env_does_not_change_results(capsys, monkeypatch):
    serial = sweeps.oracle_triangle_rows("A", 2)
    monkeypatch.setenv("DEODHAR_WORKERS", "2")
    parallel = sweeps.oracle_triangle_rows("A", 2)
    assert serial == parallel


def test_worker_count_default_is_one(monkeypatch):
    monkeypatch.delenv("DEODHAR_WORKERS", raising=False)
    assert sweeps.worker_count() == 1


@pytest.mark.parametrize("value", ["abc", "1.5", "", "0", "-3"])
def test_worker_count_rejects_bad_values(monkeypatch, value):
    monkeypatch.setenv("DEODHAR_WORKERS", value)
    with pytest.raises(ConfigError, match="DEODHAR_WORKERS"):
        sweeps.worker_count()


@pytest.mark.parametrize("cpus,expected", [(2, 2), (8, 5), (None, 1)])
def test_worker_count_capped_at_cpu_count(monkeypatch, cpus, expected):
    monkeypatch.setenv("DEODHAR_WORKERS", "5")
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    assert sweeps.worker_count() == expected


def test_bad_workers_env_exits_2_before_any_work(capsys, monkeypatch):
    monkeypatch.setenv("DEODHAR_WORKERS", "abc")
    code, out, err = run_cli(
        capsys, "verify", "deodhar-vs-rpoly", "--type", "A", "--rank", "1"
    )
    assert code == 2
    assert out == ""
    assert "DEODHAR_WORKERS" in err
