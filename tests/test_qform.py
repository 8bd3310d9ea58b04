import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qwitt.qform as qf
from qwitt import _intmat
from qwitt.abelian import AbHom, FinAbGroup
from qwitt.formparam import split_sum, standard, standard_morphism
from qwitt.sampling import random_nonsingular_form, random_unimodular

QP = standard("Q^+")
QPLUS = standard("Q+")
QM = standard("Q-")

PARAMS = [
    QPLUS, QP, QM,
    standard("ZP"), standard("ZP_2"), standard("ZL_2"), standard("Q^-"),
    split_sum(QP, FinAbGroup((3,))),
    split_sum(QM, FinAbGroup((4,))),
]


def unit_form(sign=1):
    return qf.QForm(QP, [[sign]], [QP.carrier.element((sign,))])


def arf1():
    return qf.QForm(
        QM, [[0, 1], [-1, 0]], [QM.carrier.element((1,)), QM.carrier.element((1,))]
    )


def test_qform_validation():
    with pytest.raises(ValueError):
        qf.QForm(QP, [[1, 0], [1, 1]], [QP.carrier.element((1,))] * 2)
    with pytest.raises(ValueError):
        # diagonal incompatible with h(mu)
        qf.QForm(QP, [[2]], [QP.carrier.element((1,))])
    with pytest.raises(ValueError):
        # anti-symmetric parameter needs an alternating matrix
        qf.QForm(QM, [[1]], [QM.carrier.element((1,))])


def test_mu_eval_examples():
    f = unit_form()
    assert qf.mu_eval(f, [2]).coords == (4,)
    assert qf.mu_eval(f, [0]).is_zero
    g = arf1()
    assert qf.mu_eval(g, [1, 1]).coords == (1,)


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_mu_addition_and_trace_rules(data):
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    p = rng.choice(PARAMS)
    f = random_nonsingular_form(rng, p, max_rank=4)
    n = f.rank
    x = data.draw(st.lists(st.integers(-5, 5), min_size=n, max_size=n))
    y = data.draw(st.lists(st.integers(-5, 5), min_size=n, max_size=n))
    both = [a + b for a, b in zip(x, y)]
    lhs = qf.mu_eval(f, both)
    rhs = qf.mu_eval(f, x) + qf.mu_eval(f, y) + p.p(f.lam(x, y))
    assert lhs == rhs
    assert p.h_of(qf.mu_eval(f, x)) == f.lam(x, x)


def test_mu_eval_order_independent():
    rng = random.Random(5)
    for _ in range(30):
        p = rng.choice(PARAMS)
        f = random_nonsingular_form(rng, p, max_rank=3)
        if f.rank < 2:
            continue
        x = [rng.randint(-4, 4) for _ in range(f.rank)]
        perm = list(range(f.rank))
        rng.shuffle(perm)
        # evaluate after permuting the basis: pull back along the permutation
        mat = [[1 if perm[j] == i else 0 for j in range(f.rank)] for i in range(f.rank)]
        g = qf.pullback(f, mat)
        assert qf.mu_eval(g, [x[perm[j]] for j in range(f.rank)]) == qf.mu_eval(f, x)


def test_direct_sum_negate_pullback():
    f = unit_form()
    z = qf.QForm(QP, [], [])
    assert qf.direct_sum(f, z).lambda_matrix == f.lambda_matrix
    g = qf.negate(qf.negate(f))
    assert g.lambda_matrix == f.lambda_matrix and g.mu_basis == f.mu_basis

    # the worked pullback over Q^+ + Z_l
    p = split_sum(QP, FinAbGroup((5,)))
    f2 = qf.QForm(
        p,
        [[1, 0], [0, -1]],
        [p.carrier.element((1, 0)), p.carrier.element((-1, 1))],
    )
    b = [[1, 1], [1, 0]]
    pulled = qf.pullback(f2, b)
    assert pulled.lambda_matrix == ((0, 1), (1, 1))
    assert pulled.mu_basis[0].coords == (0, 1)
    assert pulled.mu_basis[1].coords == (1, 0)


def test_direct_sum_mu_compatibility():
    rng = random.Random(9)
    for _ in range(20):
        p = rng.choice(PARAMS)
        f = random_nonsingular_form(rng, p, max_rank=3)
        g = random_nonsingular_form(rng, p, max_rank=3)
        s = qf.direct_sum(f, g)
        x = [rng.randint(-3, 3) for _ in range(f.rank)]
        y = [rng.randint(-3, 3) for _ in range(g.rank)]
        assert qf.mu_eval(s, x + y) == qf.mu_eval(f, x) + qf.mu_eval(g, y)


def test_pushforward():
    f = arf1()
    alpha = standard_morphism("Q-", "ZL_2")
    g = qf.pushforward(f, alpha)
    assert g.parameter == standard("ZL_2")
    assert g.mu_basis[0].coords == (2,)
    assert qf.pushforward(f, __import__("qwitt.formparam", fromlist=["FPMorphism"]).FPMorphism.identity(QM)) == f


def test_pushforward_composite_initial_terminal():
    from qwitt.formparam import initial_morphism, terminal_morphism

    rng = random.Random(3)
    for p in PARAMS:
        i = initial_morphism(p)
        s = terminal_morphism(p)
        f = random_nonsingular_form(rng, i.source, max_rank=3)
        via = qf.pushforward(qf.pushforward(f, i), s)
        direct = qf.pushforward(f, s.compose(i))
        assert via == direct


def test_hyperbolic():
    h = qf.hyperbolic(QP, 1)
    assert h.lambda_matrix == ((0, 1), (1, 0))
    h0 = qf.hyperbolic(QM, 0)
    assert h0.rank == 0
    # block and interleaved orderings differ by the evident permutation
    h2 = qf.hyperbolic(QM, 2)
    twice = qf.direct_sum(qf.hyperbolic(QM, 1), qf.hyperbolic(QM, 1))
    perm = [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]]
    assert qf.isometry_verify(twice, h2, perm)


def test_nonsingular_full_indefinite():
    h = qf.hyperbolic(QP, 1)
    assert qf.is_nonsingular(h)
    assert not qf.is_full(h)  # S(Q^+) = Z2 but mu = 0
    assert qf.is_indefinite(h)

    f = qf.QForm(QP, [[1, 0], [0, -1]], [QP.carrier.element((1,)), QP.carrier.element((-1,))])
    assert qf.is_full(f) and qf.is_indefinite(f) and qf.is_absorbing(f)

    g = unit_form()
    assert not qf.is_indefinite(g)

    hm = qf.hyperbolic(QM, 1)
    assert qf.is_full(hm)  # S(Q-) = 0
    assert qf.is_indefinite(hm) and qf.is_absorbing(hm)

    singular = qf.QForm(QP, [[2]], [QP.carrier.element((2,))])
    assert not qf.is_nonsingular(singular)
    with pytest.raises(ValueError):
        qf.is_absorbing(singular)


def test_signature():
    assert qf.signature_of_matrix([[1, 0], [0, -1]]) == 0
    assert qf.signature_of_matrix([[0, 1], [1, 0]]) == 0
    assert qf.signature_of_matrix([[2, 1], [1, 2]]) == 2
    from qwitt.witt import _e8_matrix

    e8 = _e8_matrix()
    assert _intmat.determinant(e8) == 1
    assert qf.signature_of_matrix(e8) == 8


def test_characteristic_check():
    from qwitt.formparam import quasi_wu

    rng = random.Random(17)
    # v_Q o S(mu) is characteristic for every symmetric form
    for p in [QP, QPLUS, standard("ZP_2"), split_sum(QP, FinAbGroup((3,)))]:
        v = quasi_wu(p)
        for _ in range(6):
            f = random_nonsingular_form(rng, p, max_rank=4)
            c = v.v.compose(f.s_mu())
            assert qf.characteristic_check(f, c)
    # the zero map is characteristic for even forms
    h = qf.hyperbolic(QPLUS, 2)
    zero = AbHom.zero(FinAbGroup((0,) * 4), FinAbGroup((2,)))
    assert qf.characteristic_check(h, zero)
    one_form = unit_form()
    zero1 = AbHom.zero(FinAbGroup((0,)), FinAbGroup((2,)))
    assert not qf.characteristic_check(one_form, zero1)


def test_lagrangian_verify():
    h = qf.hyperbolic(QP, 2)
    assert qf.lagrangian_verify(h, [[1, 0, 0, 0], [0, 1, 0, 0]])
    assert not qf.lagrangian_verify(h, [[1, 0, 0, 0], [0, 0, 1, 0]])
    assert not qf.lagrangian_verify(h, [[2, 0, 0, 0], [0, 1, 0, 0]])
    assert not qf.lagrangian_verify(h, [[1, 0, 0, 0]])
    # mu must vanish: the Arf form has lambda-isotropic lines but no lagrangian
    assert not qf.lagrangian_verify(arf1(), [[1, 0]])


def test_metabolic_search_spec_cases():
    assert qf.metabolic_search(qf.hyperbolic(QM, 1), bound=2).found
    v = qf.metabolic_search(arf1(), bound=5)
    assert v.status == "no"
    odd = qf.metabolic_search(unit_form(), bound=2)
    assert odd.status == "no" and odd.reason == "odd rank"
    zp2 = standard("ZP_2")
    phi = qf.QForm(
        zp2,
        [[1, 1], [1, 0]],
        [zp2.carrier.element((1, 2)), zp2.carrier.element((0, 0))],
    )
    out = qf.metabolic_search(phi, bound=3)
    assert out.found and qf.lagrangian_verify(phi, out.witness)


def test_metabolic_found_forms_are_witt_zero():
    from qwitt.witt import witt_class

    rng = random.Random(23)
    hits = 0
    for _ in range(40):
        p = rng.choice(PARAMS)
        f = random_nonsingular_form(rng, p, max_rank=4)
        if f.rank % 2 or f.rank == 0:
            continue
        out = qf.metabolic_search(f, bound=2, node_budget=200_000)
        if out.found:
            hits += 1
            assert witt_class(f).is_zero
    assert hits >= 5


def test_isometry():
    h = qf.hyperbolic(QP, 1)
    assert qf.isometry_verify(h, h, [[1, 0], [0, 1]])
    assert qf.isometry_verify(h, h, [[0, 1], [1, 0]])
    f = unit_form()
    assert qf.isometry_search(f, f, bound=2).found
    assert qf.isometry_search(f, qf.negate(f), bound=3).status != "found"
    assert (
        qf.isometry_search(f, qf.hyperbolic(QP, 1), bound=2).reason
        == "different ranks"
    )

    # the rank-2 exchange isometry over the level-2 anti-symmetric parameter
    zl2 = standard("ZL_2")
    J = [[0, 1], [-1, 0]]

    def mk(a, b):
        return qf.QForm(zl2, J, [zl2.carrier.element((a,)), zl2.carrier.element((b,))])

    lhs = qf.direct_sum(mk(1, 1), mk(1, 0))
    rhs = qf.direct_sum(mk(0, 1), mk(1, 1))
    cols = [[1, 0, -1, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 1, 0, 1]]
    assert qf.isometry_verify(rhs, lhs, _intmat.transpose(cols))
    assert qf.isometry_search(lhs, rhs, bound=2).found


def test_isometry_search_matches_base_change():
    rng = random.Random(31)
    found = 0
    for _ in range(25):
        p = rng.choice(PARAMS)
        f = random_nonsingular_form(rng, p, max_rank=3, scramble=False)
        if f.rank == 0:
            continue
        b = random_unimodular(rng, f.rank, ops=3)
        g = qf.pullback(f, b)
        out = qf.isometry_search(g, f, bound=3, node_budget=400_000)
        if out.found:
            found += 1
            assert qf.isometry_verify(g, f, out.witness)
    assert found >= 10


def test_full_metabolic():
    fm = qf.full_metabolic(QP)
    assert fm.lambda_matrix == ((0, 1), (1, 1))
    assert fm.mu_basis[1].coords == (1,)
    assert qf.is_full(fm) and qf.is_nonsingular(fm)
    assert qf.lagrangian_verify(fm, [[1, 0]])

    fm = qf.full_metabolic(standard("Q^-"))
    assert fm.rank == 2  # trivial carrier falls back to the hyperbolic plane

    zl2 = standard("ZL_2")
    fm = qf.full_metabolic(zl2)
    assert fm.lambda_matrix == ((0, 1), (-1, 0))
    assert fm.mu_basis[1].coords == (1,)

    for p in PARAMS:
        fm = qf.full_metabolic(p)
        assert qf.is_full(fm)
        assert qf.metabolic_search(fm, bound=2).found


def test_absorb_embed_cases():
    base = qf.direct_sum(
        qf.hyperbolic(QP, 1), qf.direct_sum(unit_form(1), unit_form(-1))
    )
    eta = qf.QForm(QP, [[0, 1], [1, 0]], [QP.carrier.zero(), QP.carrier.zero()])
    emb = qf.absorb_embed(base, eta)
    assert emb.is_primitive
    pulled = qf.pullback(emb.target, [list(r) for r in emb.matrix])
    assert qf.isometry_verify(eta, pulled, [[1, 0], [0, 1]])

    # anti-symmetric: q = 0 gives delta = 0, q = p(1) forces delta = 1
    f3 = qf.hyperbolic(QM, 1)
    eta0 = qf.QForm(QM, [[0, 1], [-1, 0]], [QM.carrier.zero(), QM.carrier.zero()])
    eta1 = qf.QForm(
        QM, [[0, 1], [-1, 0]], [QM.carrier.zero(), QM.carrier.element((1,))]
    )
    for eta_, delta in [(eta0, 0), (eta1, 1)]:
        emb = qf.absorb_embed(f3, eta_)
        colf = [emb.matrix[i][1] for i in range(emb.target.rank)]
        mid = colf[f3.rank : 2 * f3.rank]
        assert all(v % 1 == 0 for v in mid)
        # the middle block is -delta * x
        if delta == 0:
            assert not any(mid)
        else:
            assert any(mid)

    with pytest.raises(ValueError):
        qf.absorb_embed(unit_form(), eta)  # not absorbing


def test_embedding_search():
    base = qf.direct_sum(
        qf.hyperbolic(QP, 1), qf.direct_sum(unit_form(1), unit_form(-1))
    )
    eta = qf.QForm(QP, [[0, 1], [1, 0]], [QP.carrier.zero(), QP.carrier.zero()])
    out = qf.embedding_search(eta, base, bound=2)
    assert out.found
    # definite target admits no isotropic image
    definite = qf.direct_sum(unit_form(1), unit_form(1))
    out = qf.embedding_search(eta, definite, bound=3)
    assert out.status == "unknown" and "within the bound" in out.reason


def test_embedding_search_passes_rank_deficient_tuples():
    # the search meets (c, c) first, c = (-1, -1, -1, 1); independent
    # columns such as e1, e2 come later and embed the zero form
    zero = qf.QForm(QP, [[0, 0], [0, 0]], [QP.carrier.zero()] * 2)
    target = qf.hyperbolic(QP, 2)
    out = qf.embedding_search(zero, target, bound=1)
    assert out.found
    qf.Embedding(zero, target, out.witness)


# -- the search driver -----------------------------------------------------------


def test_search_stops_at_node_budget(monkeypatch):
    from qwitt import search

    calls = []  # (nodes, exhausted) of every kernel call
    kernel = search.search_vectors

    def counted(*args):
        out = kernel(*args)
        calls.append(out[1:])
        return out

    monkeypatch.setattr(search, "search_vectors", counted)
    budget = 50
    h4 = qf.hyperbolic(QP, 2)
    scrambled = qf.pullback(h4, [[1, 1, 0, 0], [0, 1, 1, 0], [0, 0, 1, 1], [0, 0, 0, 1]])
    eta = qf.QForm(QP, [[0, 1], [1, 0]], [QP.carrier.zero()] * 2)
    definite = qf.direct_sum(unit_form(1), unit_form(1))
    runs = [
        lambda: qf.metabolic_search(h4, bound=3, node_budget=budget, use_obstructions=False),
        lambda: qf.metabolic_search(scrambled, bound=3, node_budget=budget, use_obstructions=False),
        lambda: qf.isometry_search(h4, scrambled, bound=3, node_budget=budget),
        lambda: qf.embedding_search(eta, qf.direct_sum(h4, h4), bound=3, node_budget=budget),
        lambda: qf.embedding_search(eta, qf.direct_sum(definite, definite), bound=3, node_budget=budget),
    ]
    stopped = 0
    for run in runs:
        calls.clear()
        out = run()
        assert out.nodes == sum(nodes for nodes, _ in calls)
        assert out.nodes <= budget + 1
        for i, (_, exhausted) in enumerate(calls):
            if not exhausted:
                assert i == len(calls) - 1, "kernel called after the budget ran out"
                assert out.found or out.reason == "node budget exhausted"
                stopped += 1
    assert stopped >= 3


def _pinned_queries():
    """Seeded searches over the criterion-10 parameters, small bounds and
    budgets: every outcome kind, including budget-limited ones."""
    params = [
        QP, QM, split_sum(QP, FinAbGroup((2,))), split_sum(QM, FinAbGroup((3,))), standard("ZL_2"),
    ]
    rng = random.Random(2404)
    for i in range(42):
        p = params[i % len(params)]
        f = random_nonsingular_form(rng, p, max_rank=4)
        budget = rng.choice([100, 1000, 20000])
        kind = i % 3
        if kind == 0:
            yield qf.metabolic_search(f, bound=2, node_budget=budget)
        elif kind == 1:
            g = qf.pullback(f, random_unimodular(rng, f.rank, ops=5))
            yield qf.isometry_search(f, g, bound=2, node_budget=budget)
        else:
            q = rng.choice([p.carrier.zero(), p.p_one] + p.carrier.gens())
            eta = qf.QForm(p, [[0, 1], [p.symmetry, p.h_of(q)]], [p.carrier.zero(), q])
            yield qf.embedding_search(eta, f, bound=2, node_budget=budget)


# (status, reason, witness) of each _pinned_queries() search, recorded with
# the per-search recursive drivers that the single driver replaced
PINNED = [
    ('no', 'odd rank', None),
    ('found', '', ((-2, 1), (-1, 1))),
    ('unknown', 'node budget exhausted', None),
    ('no', 'non-zero Witt class', None),
    ('found', '', ((-1, -2), (-1, -1))),
    ('unknown', 'node budget exhausted', None),
    ('found', '', ((0, 0, 0, 1), (0, 2, 1, -2))),
    ('unknown', 'node budget exhausted', None),
    ('unknown', 'no embedding with coordinates within the bound', None),
    ('unknown', 'node budget exhausted', None),
    ('found', '', ((-2, 1, 1), (0, 1, 0), (-1, 1, 1))),
    ('unknown', 'node budget exhausted', None),
    ('unknown', 'node budget exhausted', None),
    ('found', '', ((-2, 0, 1, 2), (-2, 1, 0, 0), (-1, 0, 0, 0), (0, 1, -1, -1))),
    ('unknown', 'node budget exhausted', None),
    ('no', 'odd rank', None),
    ('found', '', ((-2, 1), (-1, 1))),
    ('unknown', 'node budget exhausted', None),
    ('found', '', ((0, 1),)),
    ('unknown', 'node budget exhausted', None),
    ('unknown', 'no embedding with coordinates within the bound', None),
    ('found', '', ((0, 0, 1, -2), (1, -2, -1, 2))),
    ('found', '', ((-1, -1), (-2, -1))),
    ('unknown', 'node budget exhausted', None),
    ('found', '', ((0, 1),)),
    ('unknown', 'node budget exhausted', None),
    ('unknown', 'node budget exhausted', None),
    ('found', '', ((0, 1, -2, 0), (1, -2, 2, 0))),
    ('unknown', 'node budget exhausted', None),
    ('found', '', ((-2, -1), (-1, -1))),
    ('no', 'odd rank', None),
    ('unknown', 'node budget exhausted', None),
    ('unknown', 'no embedding with coordinates within the bound', None),
    ('no', 'non-zero Witt class', None),
    ('unknown', 'node budget exhausted', None),
    ('found', '', ((-2, -2), (-1, 0), (2, 1), (-2, 0))),
    ('unknown', 'node budget exhausted', None),
    ('unknown', 'node budget exhausted', None),
    ('found', '', ((-2, -2), (-2, 1), (-2, -1), (-1, -1))),
    ('unknown', 'node budget exhausted', None),
    ('found', '', ((-1, -1), (0, 1))),
    ('unknown', 'node budget exhausted', None),
]


def test_pinned_search_outcomes():
    got = [(o.status, o.reason, o.witness) for o in _pinned_queries()]
    assert got == PINNED
