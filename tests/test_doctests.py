"""Run the docstring examples of the numeric modules and the CLI."""

import doctest

from deodhar import cli, counting, flags, frobenius, sweeps


def test_cli_doctests():
    results = doctest.testmod(cli, verbose=False)
    assert results.failed == 0
    assert results.attempted >= 1


def test_counting_doctests():
    results = doctest.testmod(counting, verbose=False)
    assert results.failed == 0
    assert results.attempted >= 2


def test_flags_doctests():
    results = doctest.testmod(flags, verbose=False)
    assert results.failed == 0
    assert results.attempted >= 3


def test_frobenius_doctests():
    results = doctest.testmod(frobenius, verbose=False)
    assert results.failed == 0
    assert results.attempted >= 2


def test_sweeps_doctests():
    results = doctest.testmod(sweeps, verbose=False)
    assert results.failed == 0
    assert results.attempted >= 5
