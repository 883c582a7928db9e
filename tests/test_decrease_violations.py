"""The one strict-monotonicity helper: every index where a sequence
fails to fall by the signed tolerance, with NaN counted as a failure."""

import math

import pytest

from plshoot.model import decrease_violations


def test_strictly_falling_values_pass():
    assert decrease_violations([3.0, 2.0, 1.0, -5.0]) == []
    assert decrease_violations([]) == []
    assert decrease_violations([1.0]) == []


def test_every_rise_is_reported():
    assert decrease_violations([3.0, 4.0, 2.0, 2.5, 1.0], tol=0.0) == [0, 2]


def test_positive_tol_tolerates_plateaus():
    values = [1.0, 1.0 + 1e-13, 0.5]
    assert decrease_violations(values, tol=1e-12) == []
    assert decrease_violations(values, tol=0.0) == [0]


def test_negative_tol_demands_a_fall():
    # each step must fall by at least 1e-3 (1 + |v|)
    assert decrease_violations([1.0, 0.999, 0.0], tol=-1e-3) == [0]
    assert decrease_violations([1.0, 0.99, 0.0], tol=-1e-3) == []


@pytest.mark.parametrize("values,expected", [
    ([1.0, math.nan, 0.0], [0, 1]),
    ([math.nan, 1.0], [0]),
])
def test_nan_is_a_violation(values, expected):
    assert decrease_violations(values, tol=1e-12) == expected


def test_zero_tol_is_the_strict_comparison():
    # -E with tol 0 is exactly "E[i+1] > E[i]"
    E = [1.0, 1.0 + 2.0**-52, 1.0 + 2.0**-52, 3.0]
    neg = [-e for e in E]
    assert decrease_violations(neg, tol=0.0) == [
        i for i in range(len(E) - 1) if not E[i + 1] > E[i]]
