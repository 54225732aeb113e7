import run

INSTANCE = {"label": "x", "argv": [], "setup": [], "checks": 10, "sha256": "ab" * 32}
GOOD = {"exit_code": 0, "status": "PASS", "failures": 0, "checks": 10, "sha256": "ab" * 32}


def test_good_result_passes():
    assert run.gate(GOOD, INSTANCE) == []


def test_wrong_digest_fails():
    assert run.gate({**GOOD, "sha256": "cd" * 32}, INSTANCE)


def test_nonzero_exit_fails():
    assert run.gate({**GOOD, "exit_code": 1, "status": "FAIL", "failures": 3}, INSTANCE)


def test_short_check_count_fails():
    assert run.gate({**GOOD, "checks": 9}, INSTANCE)


def test_unparsed_output_fails():
    result = {k: v for k, v in GOOD.items() if k not in ("status", "checks", "failures")}
    assert run.gate(result, INSTANCE)


def test_runner_counts_every_failed_run(monkeypatch):
    results = iter(
        [
            (GOOD, None),
            ({**GOOD, "sha256": "cd" * 32}, None),
            ({**GOOD, "exit_code": 2}, None),
            ({**GOOD, "checks": 3}, None),
            (None, "timed out"),
        ]
    )
    runner = run.Runner(hard_deadline=float("inf"))
    monkeypatch.setattr(runner, "_spawn", lambda args: next(results))
    for _ in range(5):
        runner.child(["run", "{}", "plain"], INSTANCE)
    assert (runner.attempted, runner.failed) == (5, 4)
