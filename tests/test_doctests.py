"""Run the docstring examples of the numeric modules."""

import doctest

from deodhar import counting, flags, frobenius


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
