"""The acceptance gate: every criterion runs at its stated tolerance.

Each test prints one pass/fail line; `qwitt verify-suite` runs the same
functions from the command line, and each criterion must finish within
its stated time budget.
"""

import random
import time
from types import SimpleNamespace

import pytest

from qwitt import acceptance, witt
from qwitt.abelian import FinAbGroup
from qwitt.acceptance import CRITERIA, DEFAULT_SEED, run_all
from qwitt.formparam import quasi_wu, standard, standard_morphism

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


def test_budgets_name_criteria():
    # a budget under a name no criterion has would leave that criterion on
    # the default without an error
    assert set(BUDGETS) <= {name for name, _ in CRITERIA}


# (ok, detail) of each criterion at the default seed: the details hold
# counts, not times
DETAILS = {
    "1 indecomposable Witt groups": (True, "16 groups exact"),
    "2 quadratic tensor table": (True, "1052 tensor values exact"),
    "3 split-parameter examples": (True, "l = 1..12 exact with generators"),
    "4 induced-map matrices": (True, "38 matrices exact"),
    "5 natural description": (True, "25 random parameters exact"),
    "6 structure diagrams": (True, "13+7 diagrams verified"),
    "7 F/gamma round trip": (True, "200 round trips, 0 failures"),
    "8 stably-metabolic witness": (
        True, "witness exact (no lagrangian through bound 5, Arf-certified)"
    ),
    "9 Grothendieck-Witt": (True, "200 forms respect the parity constraint"),
    "10 absorbing forms": (
        True, "30 forms agree with the oracle (0 budget-limited), 60 embeddings verified"
    ),
    "11 rho well-definedness": (True, "100 forms, congruence and lift-independence exact"),
}


def test_every_detail_is_pinned():
    results = run_all(DEFAULT_SEED, verbose=False)
    assert {name: (r["ok"], r["detail"]) for name, r in results.items()} == DETAILS


def test_structure_diagrams_are_computed_once(monkeypatch):
    # the corner orders of Q+ and ZP_2 are read off the reports of the
    # loop; only the corner of Q^+ + Z6 takes a call of its own
    calls = {"sigma_diagram": 0, "lambda_diagram": 0}

    def counting(name):
        orig = getattr(witt, name)

        def counted(v):
            calls[name] += 1
            return orig(v)

        return counted

    for name in calls:
        monkeypatch.setattr(witt, name, counting(name))
    ok, detail = acceptance.criterion_6_diagrams(random.Random(DEFAULT_SEED))
    assert ok, detail
    assert calls == {"sigma_diagram": 14, "lambda_diagram": 7}


def test_induced_maps_check_every_case(monkeypatch):
    # Q+ -> ZP, 5 arrows ZP_k -> ZP_l and ZP -> ZP at n = -2..2, beta, and
    # beta_k, gamma_k for k = 2, 3, 4, as many as the detail names
    calls = []
    orig = witt.induced_witt_map

    def induced_witt_map(f):
        calls.append(f)
        return orig(f)

    monkeypatch.setattr(witt, "induced_witt_map", induced_witt_map)
    ok, detail = acceptance.criterion_4_induced_maps(random.Random(DEFAULT_SEED))
    assert ok, detail
    assert len(calls) == 1 + 6 * 5 + 1 + 3 * 2
    assert detail == f"{len(calls)} matrices exact"


# each injected fault fails its criterion, which names the faulty case


def test_table1_fault_at_z_is_named(monkeypatch):
    orig = acceptance.present

    def present(g, q):
        if g == FinAbGroup((0,)) and q == standard("Q^+"):
            return orig(FinAbGroup((2,)), q)  # Z4 where Z is right
        return orig(g, q)

    monkeypatch.setattr(acceptance, "present", present)
    ok, detail = acceptance.criterion_2_table1(random.Random(DEFAULT_SEED))
    assert not ok
    assert detail == "Q^+[None] n=0: (4,) != (0,)"


def test_induced_map_fault_is_named(monkeypatch):
    orig = witt.induced_witt_map
    wrong = standard_morphism("ZP_3", "ZP_2", 1)

    def induced_witt_map(f):
        return SimpleNamespace(matrix=((1, 0), (0, 0))) if f == wrong else orig(f)

    monkeypatch.setattr(witt, "induced_witt_map", induced_witt_map)
    ok, detail = acceptance.criterion_4_induced_maps(random.Random(DEFAULT_SEED))
    assert not ok
    assert detail == "ZP_3 -> ZP_2, n=1: ((1, 0), (0, 0)) != ((1, 0), (1, 1))"


def test_corner_fault_is_named(monkeypatch):
    orig = witt.sigma_diagram
    zp2 = quasi_wu(standard("ZP_k", 2))

    def sigma_diagram(v):
        rep = orig(v)
        return {**rep, "c_orders": (4,)} if v == zp2 else rep

    monkeypatch.setattr(witt, "sigma_diagram", sigma_diagram)
    ok, detail = acceptance.criterion_6_diagrams(random.Random(DEFAULT_SEED))
    assert not ok
    assert detail == "C(1_3) != Z8"


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
