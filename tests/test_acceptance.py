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
    "10 absorbing forms": 30.0,
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


def test_absorbing_oracle_is_three_valued():
    import qwitt.qform as qf
    from qwitt.acceptance import absorbing_oracle
    from qwitt.formparam import standard

    qp = standard("Q^+")
    unit = qf.QForm(qp, [[1]], [qp.carrier.element((1,))])
    # definite: no hyperbolic plane in up to three copies, certified by
    # inertia at 0 nodes, so at any budget
    assert absorbing_oracle(unit) is False
    assert absorbing_oracle(unit, node_budget=10) is False
    indefinite = qf.direct_sum(unit, qf.negate(unit))
    assert absorbing_oracle(indefinite) is True
    assert absorbing_oracle(indefinite, node_budget=1) is None
    # a budget that stops a search decides nothing
    minus3 = qf.direct_sum(qf.negate(unit), qf.direct_sum(qf.negate(unit), qf.negate(unit)))
    wide = qf.direct_sum(unit, minus3)
    assert absorbing_oracle(wide) is True
    assert absorbing_oracle(wide, node_budget=10) is None
