"""The acceptance gate: every criterion runs at its stated tolerance.

Each test prints one pass/fail line; `qwitt verify-suite` runs the same
functions from the command line, and each criterion must finish within
its stated time budget.
"""

import random
import time

import pytest

from qwitt.acceptance import CRITERIA, DEFAULT_SEED

# seconds; the tight ones are stated with the criteria themselves
BUDGETS = {
    "1 indecomposable Witt groups": 1.0,
    "2 quadratic tensor table": 10.0,
    "5 natural description": 60.0,
    "10 absorbing forms": 300.0,
}
DEFAULT_BUDGET = 120.0


@pytest.mark.parametrize(
    "name,fn", CRITERIA, ids=[name.replace(" ", "-") for name, _ in CRITERIA]
)
def test_criterion(name, fn, capsys):
    t0 = time.perf_counter()
    ok, detail = fn(random.Random(DEFAULT_SEED))
    dt = time.perf_counter() - t0
    with capsys.disabled():
        status = "PASS" if ok else "FAIL"
        print(f"\n[{status}] criterion {name} ({dt:.2f}s): {detail}")
    assert ok, f"criterion {name} failed: {detail}"
    budget = BUDGETS.get(name, DEFAULT_BUDGET)
    assert dt < budget, f"criterion {name} took {dt:.1f}s > {budget}s"
