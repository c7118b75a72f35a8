"""Acceptance battery: every correctness criterion runs as its own test.

Each case prints one pass/fail line with the measured deviations so a
plain ``pytest -v tests/test_acceptance.py -s`` doubles as a report.  The
same battery backs the ``selftest`` CLI subcommand.
"""
import numpy as np
import pytest

from torusq.selftest import CRITERIA

SEED = 20260822


@pytest.mark.parametrize(
    "number,name,check", CRITERIA, ids=[f"{num:02d}-{name}" for num, name, _ in CRITERIA]
)
def test_criterion(number, name, check):
    rng = np.random.default_rng((SEED, number))
    passed, detail = check(rng)
    assert type(passed) is bool
    assert isinstance(detail, str) and detail
    status = "PASS" if passed else "FAIL"
    print(f"[criterion {number:02d}] {status} {name}: {detail}")
    assert passed, f"criterion {number:02d} {name}: {detail}"
