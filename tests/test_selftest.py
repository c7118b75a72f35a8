"""The judge that turns each criterion's rows into (passed, detail)."""
import math

import numpy as np
import pytest

from torusq.selftest import _judged


def judge(*rows):
    return _judged(lambda rng: list(rows))(None)


@pytest.mark.parametrize(
    "comparison,limit", [("<", 1e-10), (">", 1e-6), ("==", 0.0), ("in", (0.15, 0.35))]
)
def test_nan_fails_every_comparison(comparison, limit):
    passed, detail = judge(("value", math.nan, comparison, limit))
    assert passed is False
    assert detail.startswith("value nan")


def test_nan_entry_of_a_tuple_fails():
    assert judge(("ratios", (0.25, math.nan), "in", (0.15, 0.35)))[0] is False
    assert judge(("ratios", (0.25, 0.3), "in", (0.15, 0.35)))[0] is True


@pytest.mark.parametrize("comparison,limit", [("<", 1e-10), (">", 1e-6)])
def test_value_at_a_strict_limit_fails(comparison, limit):
    assert judge(("value", limit, comparison, limit))[0] is False
    assert judge(("value", limit * (0.5 if comparison == "<" else 2.0), comparison, limit))[0]


def test_exact_zero_is_exact():
    assert judge(("residual", 0.0, "==", 0.0))[0] is True
    assert judge(("residual", 5e-324, "==", 0.0))[0] is False
    assert judge(("wrong ranks", 0, "==", 0)) == (True, "wrong ranks 0 (== 0)")
    assert judge(("wrong ranks", 1, "==", 0))[0] is False


def test_range_is_inclusive_at_both_ends():
    for value in (10.0, 24.0):
        assert judge(("ratio", value, "in", (10.0, 24.0)))[0] is True
    for value in (np.nextafter(10.0, 0.0), np.nextafter(24.0, 30.0)):
        assert judge(("ratio", float(value), "in", (10.0, 24.0)))[0] is False


def test_one_failing_row_fails_the_criterion():
    assert judge(("a", 1e-15, "<", 1e-12), ("b", 1e-11, "<", 1e-12))[0] is False


def test_detail_names_every_row_and_limit():
    passed, detail = judge(
        ("mass", 3.79e-15, "<", 1e-12),
        ("response", 7.29e-2, ">", 1e-6),
        ("symmetries", 0.0, "==", 0.0),
        ("ratios", (0.268, 0.251), "in", (0.15, 0.35)),
    )
    assert passed is True
    assert detail == (
        "mass 3.79e-15 (< 1e-12), response 7.29e-02 (> 1e-06), "
        "symmetries 0.00e+00 (== 0), ratios 2.68e-01, 2.51e-01 (in [0.15, 0.35])"
    )
