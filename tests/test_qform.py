import itertools
import math
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qwitt.qform as qf
from qwitt import _intmat
from qwitt.abelian import AbHom, FinAbGroup
from qwitt.formparam import split_sum, standard, standard_morphism
from qwitt.sampling import random_nonsingular_form, random_unimodular
import reference

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


def test_qform_refuses_a_matrix_that_is_not_eps_symmetric():
    zp, zm = QPLUS.carrier.zero(), QM.carrier.zero()
    with pytest.raises(ValueError, match="eps-symmetric"):
        qf.QForm(QPLUS, [[0, 1], [0, 0]], [zp, zp])
    with pytest.raises(ValueError, match="eps-symmetric"):
        qf.QForm(QM, [[0, 1], [1, 0]], [zm, zm])
    with pytest.raises(ValueError, match="eps-symmetric"):
        qf.QForm(QM, [[2]], [zm])
    assert qf.QForm(QM, [[0, 1], [-1, 0]], [zm, zm]).rank == 2
    assert qf.QForm(QPLUS, [[0, 1], [1, 0]], [zp, zp]).rank == 2
    with pytest.raises(ValueError, match="outside the parameter carrier"):
        qf.QForm(QPLUS, [[0]], [zm])


def test_qform_refuses_a_non_integer_matrix():
    one = QP.carrier.element((1,))
    with pytest.raises(ValueError, match="1.9 is not an integer"):
        qf.QForm(QP, [[1.9]], [one])
    with pytest.raises(ValueError, match="is not an integer"):
        qf.QForm(QP, [[1, Fraction(0)], [0, 1]], [one, one])


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
    rhs = qf.mu_eval(f, x) + qf.mu_eval(f, y) + p.p(reference.lam(f, x, y))
    assert lhs == rhs
    assert p.h_of(qf.mu_eval(f, x)) == reference.lam(f, x, x)


def _nested_mu_scalar(m, x):
    """qform._mu_scalar as a nested generator over the column above each
    diagonal entry, as it was written before its row products."""
    return sum(
        (xi * (xi - 1) // 2) * m[i][i] + xi * sum(x[j] * m[j][i] for j in range(i))
        for i, xi in enumerate(x)
        if xi
    )


def test_mu_scalar_row_products_equal_the_nested_formula():
    # any square matrix, not only eps-symmetric ones, and vectors with zeros
    rng = random.Random(46)
    for _ in range(3000):
        n = rng.randint(0, 8)
        m = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        x = [rng.choice([0, rng.randint(-30, 30)]) for _ in range(n)]
        assert qf._mu_scalar(m, x) == _nested_mu_scalar(m, x)
    for p in PARAMS:
        f = random_nonsingular_form(rng, p, max_rank=8)
        x = [rng.randint(-5, 5) for _ in range(f.rank)]
        assert qf._mu_scalar(f.lambda_matrix, x) == _nested_mu_scalar(f.lambda_matrix, x)


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
    assert h.det() in (1, -1)
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
    assert singular.det() not in (1, -1)
    # semidefinite: |signature| 1 is below the rank 2, but no negative square
    semi = qf.QForm(QP, [[1, 0], [0, 0]], [QP.carrier.element((1,)), QP.carrier.zero()])
    assert not qf.is_indefinite(semi)
    assert qf.is_indefinite(qf.direct_sum(semi, unit_form(-1)))
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
    assert qf.inertia(e8) == (8, 0)
    # singular: the zero block counts in neither
    assert qf.inertia([[1, 0], [0, 0]]) == (1, 0)
    assert qf.inertia([[0, 0], [0, 0]]) == (0, 0)
    assert qf.inertia([]) == (0, 0)
    # a zero diagonal first takes a congruence step
    assert qf.inertia([[0, 1, 0], [1, 0, 0], [0, 0, -2]]) == (1, 2)
    # on an alternating matrix the congruence step would never end: the
    # new diagonal a_ii + a_ij + a_ji + a_jj stays 0
    for bad in ([[0, 1], [-1, 0]], [[1, 2], [3, 4]], [[1, 2]]):
        with pytest.raises(ValueError, match="symmetric"):
            qf.inertia(bad)
        with pytest.raises(ValueError, match="symmetric"):
            qf.signature_of_matrix(bad)


def _fraction_inertia(mat):
    """(n+, n-) by congruence diagonalization over Fraction, the reference
    for the fraction-free qf.inertia."""
    n = len(mat)
    a = [[Fraction(x) for x in row] for row in mat]
    pos = neg = 0
    rows = list(range(n))
    while rows:
        piv = next((i for i in rows if a[i][i] != 0), None)
        if piv is None:
            off = [(i, j) for i in rows for j in rows if i != j and a[i][j] != 0]
            if not off:
                break  # remaining block is zero
            i, j = off[0]
            for t in range(n):
                a[i][t] += a[j][t]
            for t in range(n):
                a[t][i] += a[t][j]
            continue
        rows.remove(piv)
        d = a[piv][piv]
        if d > 0:
            pos += 1
        else:
            neg += 1
        for i in list(rows):
            c = a[i][piv] / d
            if c:
                for t in range(n):
                    a[i][t] -= c * a[piv][t]
                for t in range(n):
                    a[t][i] -= c * a[t][piv]
    return pos, neg


def test_inertia_matches_fraction_elimination():
    from qwitt.witt import _e8_matrix

    rng = random.Random(1201)
    mats = [_e8_matrix()]
    kinds = set()
    for i in range(300):
        n = rng.randint(1, 7)
        if i % 3 == 0:
            # B^t D B with fewer rows than n: singular
            k = rng.randint(0, n - 1)
            b = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(k)]
            d = [rng.choice([-2, -1, 1, 3]) for _ in range(k)]
            mat = [[sum(b[t][i] * d[t] * b[t][j] for t in range(k)) for j in range(n)] for i in range(n)]
        else:
            mat = [[0] * n for _ in range(n)]
            for r in range(n):
                # a zero diagonal one time in three: the congruence step
                mat[r][r] = 0 if i % 3 == 1 else rng.randint(-4, 4)
                for c in range(r + 1, n):
                    mat[r][c] = mat[c][r] = rng.choice([0, 0, 1, -1, 2, -5])
        mats.append(mat)
    for mat in mats:
        pos, neg = qf.inertia(mat)
        assert (pos, neg) == _fraction_inertia(mat), mat
        assert qf.signature_of_matrix(mat) == pos - neg
        assert pos + neg == _intmat.rank(mat)
        kinds.add((pos + neg < len(mat), all(mat[i][i] == 0 for i in range(len(mat)))))
    # singular and nonsingular, with and without a zero diagonal
    assert kinds == {(False, False), (True, False), (False, True), (True, True)}, kinds


def test_det_and_inertia_from_one_elimination():
    """`_det_and_inertia` against `_intmat.determinant` and the congruence
    diagonalization over Fraction that `inertia` is checked against: on
    singular matrices, matrices with a zero diagonal (the congruence step)
    and matrices with entries beyond 2**70."""
    rng = random.Random(1213)
    kinds = set()
    for i in range(300):
        n = rng.randint(0, 6)
        big = [2**70 + rng.randint(-9, 9), -(2**71) + rng.randint(-9, 9)] if i % 4 == 3 else []
        if i % 4 == 0:
            # B^t D B with fewer rows than n: singular
            k = rng.randint(0, max(n - 1, 0))
            b = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(k)]
            d = [rng.choice([-2, -1, 1, 3]) for _ in range(k)]
            mat = [[sum(b[t][i] * d[t] * b[t][j] for t in range(k)) for j in range(n)] for i in range(n)]
        else:
            mat = [[0] * n for _ in range(n)]
            for r in range(n):
                mat[r][r] = 0 if i % 4 == 1 else rng.choice([-3, -1, 0, 2, 5] + big)
                for c in range(r + 1, n):
                    mat[r][c] = mat[c][r] = rng.choice([0, 0, 1, -1, 2, -5] + big)
        det, signs = qf._det_and_inertia(mat)
        assert det == _intmat.determinant(mat), mat
        assert signs == _fraction_inertia(mat) == qf.inertia(mat), mat
        zero_diagonal = n > 0 and all(mat[j][j] == 0 for j in range(n))
        kinds.add((det == 0, zero_diagonal, any(abs(x) > 2**64 for row in mat for x in row)))
    # singular and nonsingular, with and without a zero diagonal, with and
    # without large entries
    assert {(s, z, False) for s in (False, True) for z in (False, True)} <= kinds, kinds
    assert {(False, False, True), (True, False, True)} <= kinds, kinds


def test_span_test_matches_rank():
    """The driver's incremental span test against `_intmat.rank`: along
    seeded tuples of columns (zero, dependent and 2**70-sized candidates
    among them), a candidate is in the span of the columns chosen so far
    exactly when every row of their annihilator kills it.  The rows that
    `_annihilator` returns for each chosen column span the annihilator of
    one more column: n - d independent rows, each primitive and killing
    every chosen column."""
    from operator import mul

    rng = random.Random(1217)
    seen = set()
    for i in range(200):
        n = rng.randint(1, 6)
        scale = 2**70 if i % 3 == 0 else 1
        chosen, ann = [], _intmat.identity(n)
        for _ in range(3 * n):
            kind = rng.choice(["zero", "dependent", "free"]) if chosen else rng.choice(["zero", "free"])
            if kind == "zero":
                cand = [0] * n
            elif kind == "dependent":
                coefs = [rng.randint(-2, 2) * rng.choice([1, scale]) for _ in chosen]
                cand = [sum(c * col[j] for c, col in zip(coefs, chosen)) for j in range(n)]
            else:
                cand = [rng.randint(-2, 2) * rng.choice([1, scale]) + rng.randint(-1, 1) for _ in range(n)]
            dots = [sum(map(mul, r, cand)) for r in ann]
            in_span = not any(dots)
            assert in_span == (_intmat.rank(chosen + [cand]) == len(chosen)), (chosen, cand)
            seen.add((kind, in_span, scale > 1))
            if not in_span:
                ann = qf._annihilator(ann, dots)
                chosen.append(cand)
                assert len(ann) == n - len(chosen)
                assert not ann or _intmat.rank(ann) == len(ann)
                assert all(math.gcd(*r) == 1 for r in ann)
                assert all(sum(map(mul, r, col)) == 0 for r in ann for col in chosen)
    for scale in (False, True):
        assert {("zero", True, scale), ("dependent", True, scale), ("free", False, scale)} <= seen, seen


def test_root_certificate_matches_unsolvable():
    """The driver's root certificate, each row's gcd computed once by the
    whole target's plan and tested against a depth's constants
    (`Plan.solvable`), against `reference.unsolvable` on the full quadruples
    of `_mu_constraints` over the target pushed to its splitting: for every
    distinct mu value (the target's own, zero, p(1), each generator and
    small combinations) of seeded targets over the five criterion-10
    parameters and split ZP / ZL parameters.  The plan's parts with the
    depth's constants are those quadruples, and `_column_constraints`
    answers with a certificate exactly when the depth is unsolvable."""
    from qwitt.formparam import maximal_splitting

    params = [
        QP, QM, split_sum(QP, FinAbGroup((2,))), split_sum(QM, FinAbGroup((3,))), standard("ZL_2"),
        split_sum(standard("ZP"), FinAbGroup((2,))), split_sum(standard("ZP_2"), FinAbGroup((4,))),
        split_sum(standard("ZL_3"), FinAbGroup((2,))),
    ]
    rng = random.Random(1223)
    verdicts = {}
    for i in range(160):
        p = params[i % len(params)]
        target = random_nonsingular_form(rng, p, max_rank=4)
        if i % 3 == 0:
            k = rng.randint(1, 4)
            target = qf.pullback(target, [[rng.randint(-2, 2) for _ in range(k)] for _ in range(target.rank)])
        iso = maximal_splitting(p).iso
        split = qf.pushforward(target, iso)
        gens = p.carrier.gens()
        values = [p.carrier.zero(), p.p_one, *gens, *target.mu_basis]
        values += [p.carrier.combination([rng.randint(-3, 3) for _ in gens], gens) for _ in range(3)]
        passes, _, certificate = qf._column_constraints(target, [[0]], [p.carrier.zero()])
        assert certificate == ""
        plan = passes[-1][2]
        for mu in {m.coords: m for m in values}.values():
            rows = qf._mu_constraints(split, iso(mu))
            constants = qf._mu_values(iso.target, iso(mu).coords)
            assert [(a, l, c, m) for (a, l, m), c in zip(plan.parts, constants)] == rows
            solvable = not any(reference.unsolvable(row) for row in rows)
            assert plan.solvable(constants) == solvable
            _, _, certificate = qf._column_constraints(target, [[p.h_of(mu)]], [mu])
            assert (certificate == "") == solvable, (p, mu, certificate)
            verdicts[solvable] = verdicts.get(solvable, 0) + 1
    assert verdicts[True] >= 300 and verdicts[False] >= 50, verdicts


def test_quasi_wu_class_is_characteristic_on_the_cube():
    """The quasi-Wu property of a symmetric parameter: lambda(x, x) =
    v(S mu(x)) mod 2 for every x in {0, 1}^k, v = v_Q: SQ -> Z2 and S the
    linearisation Q_e -> SQ, on seeded forms (singular ones too) over the
    standard and split parameters and random symmetric ones, with the
    hyperbolic form over Q+ (even, mu = 0) and the odd unit form."""
    from qwitt.formparam import linearisation, quasi_wu
    from qwitt.sampling import random_form_parameter

    rng = random.Random(1301)
    params = [QP, QPLUS, standard("ZP_2"), split_sum(QP, FinAbGroup((3,)))]
    params += [random_form_parameter(rng, symmetric=True) for _ in range(4)]
    forms = [qf.hyperbolic(QPLUS, 2), unit_form()]
    for i in range(80):
        f = random_nonsingular_form(rng, params[i % len(params)], max_rank=4)
        if i % 3 == 0:
            f = qf.pullback(f, [[rng.randint(-1, 1) for _ in range(f.rank)] for _ in range(f.rank)])
        forms.append(f)
    parities = set()
    for f in forms:
        v, (_, proj, _) = quasi_wu(f.parameter), linearisation(f.parameter)
        for x in itertools.product((0, 1), repeat=f.rank):
            square = reference.lam(f, x, x) % 2
            assert square == v(proj(qf.mu_eval(f, x))), (f, x)
            parities.add(square)
    assert parities == {0, 1}


def test_lagrangian_verify():
    h = qf.hyperbolic(QP, 2)
    assert qf.lagrangian_verify(h, [[1, 0, 0, 0], [0, 1, 0, 0]])
    assert not qf.lagrangian_verify(h, [[1, 0, 0, 0], [0, 0, 1, 0]])
    assert not qf.lagrangian_verify(h, [[2, 0, 0, 0], [0, 1, 0, 0]])
    assert not qf.lagrangian_verify(h, [[1, 0, 0, 0]])
    # mu must vanish: the Arf form has lambda-isotropic lines but no lagrangian
    assert not qf.lagrangian_verify(arf1(), [[1, 0]])


def test_shape_errors_are_value_errors():
    h = qf.hyperbolic(QP, 1)
    # one row for a rank-2 form
    with pytest.raises(ValueError, match="one row per basis vector"):
        qf.pullback(h, [[1, 0]])
    with pytest.raises(ValueError, match="one row per basis vector"):
        qf.pullback(h, [[1], [0], [0]])
    # rows with no columns give the rank-0 form
    assert qf.pullback(h, [[], []]) == qf.QForm(QP, [], [])
    assert qf.pullback(qf.QForm(QP, [], []), []).rank == 0
    # a vector shorter or longer than the rank
    with pytest.raises(ValueError, match="vector length"):
        qf.lagrangian_verify(h, [[1]])
    with pytest.raises(ValueError, match="vector length"):
        qf.lagrangian_verify(h, [[1, 0, 0]])


def test_isometry_verify_refuses_a_ragged_matrix():
    h = qf.hyperbolic(QP, 1)
    with pytest.raises(ValueError, match="rows differ in length"):
        qf.isometry_verify(h, h, [[1, 0], [0]])
    with pytest.raises(ValueError, match="rows differ in length"):
        _intmat.rank([[1, 0], [0]])
    with pytest.raises(ValueError, match="rows differ in length"):
        qf.isometry_verify(h, h, [[1], [0, 1]])


def test_lam_refuses_a_vector_of_another_length():
    h = qf.hyperbolic(QP, 1)
    assert reference.lam(h, [1, 1], [1, 1]) == 2
    for x, y in (([1, 1, 5], [1, 1]), ([1], [1, 1]), ([1, 1], [1]), ([1, 1], [1, 1, 0])):
        with pytest.raises(ValueError, match="vector length"):
            reference.lam(h, x, y)


def test_hyperbolic_refuses_a_negative_count():
    with pytest.raises(ValueError, match="hyperbolic planes -1 is negative"):
        qf.hyperbolic(QP, -1)


def test_pullback_refuses_a_ragged_basis():
    h = qf.hyperbolic(QP, 1)
    for basis in ([[1, 0], [0]], [[1], [0, 1]], [[], [1]]):
        with pytest.raises(ValueError, match="rows differ in length"):
            qf.pullback(h, basis)


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
    # the one isometry of the rank-0 form is the empty matrix
    zero = qf.QForm(QP, [], [])
    assert qf.isometry_verify(zero, zero, [])
    assert not qf.isometry_verify(zero, zero, [[5]])
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
    assert qf.is_full(fm) and fm.det() in (1, -1)
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
    # a bounded miss: a RuntimeError, as before, that claims no non-existence
    with pytest.raises(RuntimeError, match="found within the bound") as miss:
        qf.absorb_embed(f3, eta0, bound=0)
    assert isinstance(miss.value, qf.IsotropicVectorNotFound)


def test_embedding_search():
    base = qf.direct_sum(
        qf.hyperbolic(QP, 1), qf.direct_sum(unit_form(1), unit_form(-1))
    )
    eta = qf.QForm(QP, [[0, 1], [1, 0]], [QP.carrier.zero(), QP.carrier.zero()])
    out = qf.embedding_search(eta, base, bound=2)
    assert out.found
    # a definite target admits no isotropic image: inertia certifies it
    definite = qf.direct_sum(unit_form(1), unit_form(1))
    out = qf.embedding_search(eta, definite, bound=3)
    assert (out.status, out.reason, out.nodes) == (
        "no", "target inertia (2, 0) lacks the source's (1, 1)", 0
    )
    # x^2 + y^2 = 3 z^2 has no non-zero solution (descent mod 3), so no
    # hyperbolic plane fits in <1, 1, -3>; no invariant here says so
    anisotropic = qf.direct_sum(definite, unit_form(-3))
    out = qf.embedding_search(eta, anisotropic, bound=3)
    assert out.status == "unknown" and "within the bound" in out.reason


def test_embedding_joins_forms_over_one_parameter():
    # H over Q+ and H over Q^+ have one lambda and zero mu values on one
    # carrier, Z, but no morphism of Q-forms joins two parameters
    src = qf.hyperbolic(QPLUS, 1)
    target = qf.hyperbolic(QP, 1)
    qf.Embedding(target, target, ((1, 0), (0, 1)))
    with pytest.raises(ValueError, match="pull the form back"):
        qf.Embedding(src, target, ((1, 0), (0, 1)))


def test_embedding_search_rank_certificate(monkeypatch):
    # an embedding is injective: a source of larger rank is a certified
    # "no" before any kernel call, at any bound
    calls = _record_kernel_calls(monkeypatch)
    eta = qf.QForm(QP, [[0, 1], [1, 0]], [QP.carrier.zero()] * 2)
    for bound in (0, 3, 50):
        out = qf.embedding_search(eta, unit_form(1), bound=bound)
        assert (out.status, out.reason, out.bound, out.nodes) == (
            "no", "source rank exceeds target rank", bound, 0
        )
    assert calls == []
    # equal ranks are no certificate
    assert qf.embedding_search(eta, qf.hyperbolic(QP, 1), bound=1).found


def _invariant_reason(reason):
    """The invariant behind an embedding_search certificate, or None."""
    for kind in ("target inertia", "equal ranks, singular target", "equal ranks, different Witt classes"):
        if reason.startswith(kind):
            return kind
    return None


def test_invariant_certificates_are_sound():
    """Every "no" that an invariant certifies, against brute force: the box
    of bound 2 holds no embedding (injective columns with the source's
    lambda and mu).  Targets: nonsingular forms of rank <= 3 and singular
    pullbacks of them; sources: battery forms, nonsingular forms and
    pullbacks of another form."""
    params = [
        QP, QM, split_sum(QP, FinAbGroup((2,))), split_sum(QM, FinAbGroup((3,))),
        standard("ZL_2"), standard("ZP"),
    ]
    rng = random.Random(1207)
    certified = {}
    for i in range(480):
        p = params[i % len(params)]
        target = random_nonsingular_form(rng, p, max_rank=3)
        if target.rank == 0:
            continue
        if i % 2:
            m = [[rng.randint(-2, 2) for _ in range(target.rank)] for _ in range(target.rank)]
            target = qf.pullback(target, m)  # often singular
        pick = i % 3
        if pick == 0:
            q = rng.choice([p.carrier.zero(), p.p_one] + p.carrier.gens())
            eta = qf.QForm(p, [[0, 1], [p.symmetry, p.h_of(q)]], [p.carrier.zero(), q])
        elif pick == 1:
            eta = random_nonsingular_form(rng, p, max_rank=target.rank)
        else:
            other = random_nonsingular_form(rng, p, max_rank=3)
            k = rng.randint(1, 2)
            eta = qf.pullback(other, [[rng.randint(-1, 1) for _ in range(k)] for _ in range(other.rank)])
        out = qf.embedding_search(eta, target, bound=2, node_budget=10**5)
        kind = _invariant_reason(out.reason)
        if out.status != "no" or kind is None:
            continue
        assert out.nodes == 0
        best = _brute_least_entry(
            target, eta.lambda_matrix, eta.mu_basis,
            lambda cols: _intmat.rank(_intmat.transpose(cols)) == eta.rank,
            2,
        )
        assert best is None, (i, out)
        certified[kind] = certified.get(kind, 0) + 1
    assert len(certified) == 3 and min(certified.values()) >= 10, certified


def test_witt_class_failure_gives_no_certificate(monkeypatch):
    from qwitt import witt

    # Arf 1 against the hyperbolic plane: another Witt class at equal rank
    eta = qf.hyperbolic(QM, 1)
    out = qf.embedding_search(eta, arf1(), bound=2)
    assert (out.status, out.reason, out.nodes) == ("no", "equal ranks, different Witt classes", 0)

    def refuse(f):
        raise ValueError("form is singular on the remaining block")

    # a class that cannot be computed certifies nothing: the search runs
    monkeypatch.setattr(witt, "witt_class", refuse)
    out = qf.embedding_search(eta, arf1(), bound=2)
    assert (out.status, out.reason) == ("unknown", "no embedding with coordinates within the bound")
    assert out.nodes > 0


def test_found_into_f_rules_out_no_into_f_plus_f():
    """Paired queries: an embedding into f is one into f + f (extended by
    zeros), so a found witness into f rules out a "no" into f + f."""
    from qwitt.acceptance import _battery

    params = [
        QP, QM, split_sum(QP, FinAbGroup((2,))), split_sum(QM, FinAbGroup((3,))), standard("ZL_2"),
    ]
    rng = random.Random(1213)
    pairs = set()
    for i in range(40):
        p = params[i % len(params)]
        f = random_nonsingular_form(rng, p, max_rank=3)
        for eta in _battery(p):
            one = qf.embedding_search(eta, f, bound=2, node_budget=1000)
            two = qf.embedding_search(eta, qf.direct_sum(f, f), bound=2, node_budget=1000)
            assert not (one.found and two.status == "no"), (f, eta, two.reason)
            pairs.add((one.status, two.status))
    assert {("found", "found"), ("no", "found"), ("no", "no")} <= pairs, pairs


def test_search_skips_blocks_too_small_for_independent_columns(monkeypatch):
    calls = _record_kernel_calls(monkeypatch)
    # a lagrangian of H + H is two independent isotropic columns, which no
    # nonsingular rank-2 block holds: only the whole target is searched
    h = qf.hyperbolic(QP, 1)
    assert qf.metabolic_search(qf.direct_sum(h, h), bound=1, use_obstructions=False).found
    assert {c.n for c in calls} == {4}
    # no <1> or <-1> block holds a non-zero isotropic vector
    calls.clear()
    f = qf.direct_sum(unit_form(1), qf.direct_sum(unit_form(1), unit_form(-1)))
    assert qf._primitive_isotropic(f, 1, 1000) is not None
    assert {c.n for c in calls} == {3}
    # a degenerate block is still searched: <0> holds the zero form
    calls.clear()
    zero = qf.QForm(QP, [[0]], [QP.carrier.zero()])
    target = qf.direct_sum(zero, h)
    out = qf.embedding_search(zero, target, bound=1)
    assert out.found and _blocks_met(target, out.witness) == [[0]]
    assert [c.n for c in calls] == [1]


def test_embedding_search_passes_rank_deficient_tuples(monkeypatch):
    # the zero form: the symmetry cuts take distinct non-zero columns only
    zero = qf.QForm(QP, [[0, 0], [0, 0]], [QP.carrier.zero()] * 2)
    target = qf.hyperbolic(QP, 2)
    out = qf.embedding_search(zero, target, bound=1)
    assert out.found
    qf.Embedding(zero, target, out.witness)
    # lambda = [[1, 1], [1, 1]] into <1> + H: the kernel meets (c, c) first,
    # c = (-1, -1, 0).  Its second column lies in the span of the first, so
    # the tuple never reaches `leaf`, although this one takes any tuple, and
    # the search goes on to independent columns
    eta = qf.QForm(QP, [[1, 1], [1, 1]], [QP.carrier.element((1,))] * 2)
    target = qf.direct_sum(unit_form(1), qf.hyperbolic(QP, 1))
    tuples = []

    def any_tuple(cols):
        tuples.append([tuple(c) for c in cols])
        return tuple(map(tuple, _intmat.transpose(cols)))

    calls = _record_kernel_calls(monkeypatch)
    out = qf._column_search(
        target, eta.lambda_matrix, eta.mu_basis, 1, 10**6, any_tuple, "embedding"
    )
    first, second = calls[:2]
    assert first.out[0][0] == second.out[0][0] == (-1, -1, 0) and second.rows
    assert tuples and all(_intmat.rank(t) == 2 for t in tuples)
    assert out.found and out == qf.embedding_search(eta, target, bound=1)
    qf.Embedding(eta, target, out.witness)


def test_embedding_search_root_certificate():
    # mu takes values in Z3 only through the summand's generator, which no
    # vector of the hyperbolic target (mu = 0 on its basis) reaches
    p = split_sum(QM, FinAbGroup((3,)))
    target = qf.hyperbolic(p, 1)
    eta = qf.QForm(p, [[0, 1], [-1, 0]], [p.carrier.zero(), p.carrier.element((0, 1))])
    out = qf.embedding_search(eta, target, bound=3)
    assert out.status == "no" and out.nodes == 0
    assert out.reason == "column 1: mu(x) = (0, 1) has no integer solution"
    # an odd square in an even lattice: mu(x) = 1 asks lambda(x, x) = 1,
    # which fails mod 2
    odd = qf.QForm(QP, [[0, 1], [1, 1]], [QP.carrier.zero(), QP.carrier.element((1,))])
    out = qf.embedding_search(odd, qf.hyperbolic(QP, 2), bound=3)
    assert out.status == "no" and out.nodes == 0
    assert out.reason == "column 1: mu(x) = (1) has no integer solution"
    # the certificate holds at any bound: a larger box costs no node either
    big = qf.embedding_search(odd, qf.hyperbolic(QP, 2), bound=50)
    assert (big.status, big.reason, big.nodes) == (out.status, out.reason, 0)
    # over ZP (h = e_0, p(1) = (2, -1)), mu(x) = (0, 1) asks lambda(x, x) =
    # 0 of row 0 and -lambda(x, x) = 2 of row 1: each row alone is solvable
    # on H, but row 1 with lambda(x, x) = 0 put in is not
    zp = standard("ZP")
    eta = qf.QForm(zp, [[0]], [zp.carrier.element((0, 1))])
    out = qf.embedding_search(eta, qf.hyperbolic(zp, 1), bound=3)
    assert (out.status, out.reason, out.nodes) == ("no", "column 0: mu(x) = (0, 1) has no integer solution", 0)


# -- the search driver -----------------------------------------------------------


class _KernelCall(tuple):
    """(box bound, nodes, exhausted) of one kernel call; `n` is the rank of
    the form it searched, `args` the call's positional arguments, `rows` its
    pair rows, `out` what it returned, `answers` what its on_result returned
    for each result, and `ended` the number of calls that had started when
    it returned."""

    n: int
    args: tuple
    rows: list
    constants: list
    out: tuple
    answers: list
    ended: int


def _record_kernel_calls(monkeypatch) -> list:
    """The _KernelCall of every kernel call from now on, in the order the
    calls started: the driver nests a call for the next column inside the
    call that found the column, so a call can return after later ones
    started.  Its `nodes` are its own, not its nested calls'."""
    from qwitt import search

    calls = []
    kernel = search.search_vectors

    def counted(*args, rows=(), on_result=None, constants=()):
        i = len(calls)
        calls.append(None)  # its place in the start order
        answers = []

        def answer(vec, remaining):
            answers.append(on_result(vec, remaining))
            return answers[-1]

        out = kernel(*args, rows=rows, on_result=answer if on_result else None, constants=constants)
        call = _KernelCall((args[2],) + out[1:])
        call.n, call.args, call.rows, call.constants, call.out = args[0], args, rows, constants, out
        call.answers, call.ended = answers, len(calls)
        calls[i] = call
        return out

    monkeypatch.setattr(search, "search_vectors", counted)
    return calls


def _assert_budget_kept(calls, out, budget):
    """The budget rule under nesting: the calls' own nodes add up to
    out.nodes, which is at most budget + 1 and over budget exactly when
    the search stopped on it, and no call starts after one has stopped
    early (on the budget, its own or a nested call's, or on the
    witness)."""
    assert out.nodes == sum(nodes for _, nodes, _ in calls)
    assert out.nodes <= budget + 1
    assert (out.reason == qf.BUDGET_EXHAUSTED) == (out.nodes > budget)
    for call in calls:
        if not call[2]:
            assert call.ended == len(calls), "kernel called after the budget ran out"


def test_driver_plans_match_raw_constraints(monkeypatch):
    """Every kernel call of a seeded mix of metabolic, isometry and
    embedding searches, replayed with its plan flattened to the raw
    quadruples (the plan's parts with the call's constants, then ((), l,
    c, 0) for each pair row), returns the same (results, nodes,
    exhausted)."""
    from qwitt import search

    kernel = search.search_vectors
    params = [
        QP, QM, split_sum(QP, FinAbGroup((2,))), split_sum(QM, FinAbGroup((3,))), standard("ZL_2"),
    ]
    rng = random.Random(2511)
    calls = _record_kernel_calls(monkeypatch)
    for i in range(66):
        p = params[i % len(params)]
        f = random_nonsingular_form(rng, p, max_rank=3)
        if i % 2:  # an orthogonal sum: block plans too
            f = qf.direct_sum(f, random_nonsingular_form(rng, p, max_rank=2))
        budget = rng.choice([200, 3000])
        kind = i % 3
        if kind == 0:
            qf.metabolic_search(f, bound=2, node_budget=budget, use_obstructions=False)
        elif kind == 1:
            g = qf.pullback(f, random_unimodular(rng, f.rank, ops=5))
            qf.isometry_search(f, g, bound=2, node_budget=budget)
        else:
            q = rng.choice([p.carrier.zero(), p.p_one] + p.carrier.gens())
            eta = qf.QForm(p, [[0, 1], [p.symmetry, p.h_of(q)]], [p.carrier.zero(), q])
            qf.embedding_search(eta, f, bound=2, node_budget=budget)
    assert len(calls) >= 300
    assert sum(bool(c.rows) for c in calls) >= 200  # calls with pair rows
    # the calls on one block or target share its plan, at every depth
    assert len({id(c.args[1]) for c in calls}) <= len(calls) // 2
    for call in calls:
        n, plan, *rest = call.args
        assert isinstance(plan, search.Plan)
        flat = [(a, l, c, m) for (a, l, m), c in zip(plan.parts, call.constants)]
        flat += [((), l, c, 0) for l, c in call.rows]
        answers = iter(call.answers)  # the driver's, result by result
        assert kernel(n, flat, *rest, on_result=lambda vec, remaining: next(answers)) == call.out


def test_search_stops_at_node_budget(monkeypatch):
    h4 = qf.hyperbolic(QP, 2)
    scrambled = qf.pullback(h4, [[1, 1, 0, 0], [0, 1, 1, 0], [0, 0, 1, 1], [0, 0, 0, 1]])
    eta = qf.QForm(QP, [[0, 1], [1, 0]], [QP.carrier.zero()] * 2)
    definite = qf.direct_sum(unit_form(1), unit_form(1))
    definite4 = qf.direct_sum(definite, definite)
    # a sum of four squares equal to 7 needs an entry 2: the inertia of
    # <7> fits the definite target, so only the search decides
    seven = qf.QForm(QP, [[7]], [QP.carrier.element((7,))])
    zero = qf.QForm(QP, [[0]], [QP.carrier.zero()])
    # a budget that the pass at bound 1 leaves a few nodes of, so the
    # pass at bound 2 is the one that runs out
    pass1 = qf.embedding_search(seven, definite4, bound=1).nodes
    calls = _record_kernel_calls(monkeypatch)
    budget = 50
    runs = [
        (budget, lambda: qf.metabolic_search(h4, bound=3, node_budget=budget, use_obstructions=False)),
        (budget, lambda: qf.metabolic_search(scrambled, bound=3, node_budget=budget, use_obstructions=False)),
        (budget, lambda: qf.isometry_search(h4, scrambled, bound=3, node_budget=budget)),
        (budget, lambda: qf.embedding_search(eta, qf.direct_sum(h4, h4), bound=3, node_budget=budget)),
        (budget, lambda: qf.embedding_search(seven, definite4, bound=3, node_budget=budget)),
        # a rank-0 target: every box is the same one point, searched once
        (0, lambda: qf.embedding_search(zero, qf.QForm(QP, [], []), bound=3, node_budget=0)),
        (pass1 + 3, lambda: qf.embedding_search(seven, definite4, bound=3, node_budget=pass1 + 3)),
    ]
    stopped = 0
    for limit, run in runs:
        calls.clear()
        out = run()
        _assert_budget_kept(calls, out, limit)
        if not all(done for _, _, done in calls):
            assert out.found or out.reason == "node budget exhausted"
            stopped += 1
    assert stopped >= 4
    # the last run: pass 1 complete, pass 2 budget-limited, no pass 3
    # (each pass searches the <1> block, then the whole target)
    assert [(b, done) for b, _, done in calls] == [(1, True)] * 2 + [(2, True), (2, False)]
    assert sum(nodes for b, nodes, _ in calls if b == 1) == pass1
    assert out.reason == "node budget exhausted"


def _eager_kernel(kernel):
    """The kernel as the driver used it before it searched below each column
    as the kernel found it: a call enumerates its whole box within its
    budget, and only then hands its results to on_result in turn, each
    with what the call and the nested calls before it left of the budget.
    A call given less than nothing (its parent spent the budget) visits no
    node and stops, as the eager driver made no deeper call then."""

    def eager(n, plan, bound, max_results, max_nodes, norm=False, rows=(), on_result=None, constants=()):
        if max_nodes < 0:
            return [], 0, False
        results, nodes, done = kernel(n, plan, bound, max_results, max_nodes, norm, rows=rows, constants=constants)
        left = max_nodes - nodes
        for vec in results:
            stop, used = on_result(vec, left)
            left -= used
            if stop:
                return results, nodes, False
        return results, nodes, done

    return eager


def _seeded_queries(rng, count):
    """`count` seeded metabolic, isometry and embedding queries over the
    criterion-10 parameters, forms of rank <= 4 (half of them orthogonal
    sums), as functions of the node budget."""
    params = [
        QP, QM, split_sum(QP, FinAbGroup((2,))), split_sum(QM, FinAbGroup((3,))), standard("ZL_2"),
    ]
    for i in range(count):
        p = params[i % len(params)]
        f = random_nonsingular_form(rng, p, max_rank=3)
        if i % 2:
            f = qf.direct_sum(f, random_nonsingular_form(rng, p, max_rank=1))
        kind = i % 3
        if kind == 0:
            yield lambda budget, f=f: qf.metabolic_search(f, bound=2, node_budget=budget)
        elif kind == 1:
            g = qf.pullback(f, random_unimodular(rng, f.rank, ops=5))
            yield lambda budget, f=f, g=g: qf.isometry_search(f, g, bound=2, node_budget=budget)
        else:
            q = rng.choice([p.carrier.zero(), p.p_one] + p.carrier.gens())
            eta = qf.QForm(p, [[0, 1], [p.symmetry, p.h_of(q)]], [p.carrier.zero(), q])
            yield lambda budget, f=f, eta=eta: qf.embedding_search(eta, f, bound=2, node_budget=budget)


def test_lazy_descent_keeps_every_eager_answer(monkeypatch):
    """The driver against the same driver over `_eager_kernel`, on 300
    seeded queries at budgets 50, 200, 2000 and 10**6.  The visiting order
    is the same, and a nested call gets every node not yet spent, so: every
    eager witness is found, the same tuple, with no more nodes; the only
    status change is "unknown" on the budget to "found"; every "no" keeps
    its reason, and every complete search ("no" or nothing in the box) its
    node total."""
    from qwitt import search

    lazy_kernel, eager_kernel = search.search_vectors, _eager_kernel(search.search_vectors)
    moved = {}
    for query in _seeded_queries(random.Random(4201), 300):
        for budget in (50, 200, 2000, 10**6):
            monkeypatch.setattr(search, "search_vectors", eager_kernel)
            eager = query(budget)
            monkeypatch.setattr(search, "search_vectors", lazy_kernel)
            lazy = query(budget)
            # the one stop rule: stopped on the budget is past it
            assert (lazy.reason == qf.BUDGET_EXHAUSTED) == (lazy.nodes > budget)
            if eager.found:
                assert (lazy.status, lazy.witness) == ("found", eager.witness)
                assert lazy.nodes <= eager.nodes
            elif eager.reason == qf.BUDGET_EXHAUSTED:
                assert lazy.found or lazy.reason == qf.BUDGET_EXHAUSTED
                assert lazy.nodes <= budget + 1
            else:
                assert (lazy.status, lazy.reason, lazy.nodes) == (eager.status, eager.reason, eager.nodes)
            key = (eager.status, lazy.status)
            moved[key] = moved.get(key, 0) + 1
    # every kind of outcome is met, and some budget-limited ones are found
    assert {("found", "found"), ("no", "no"), ("unknown", "unknown"), ("unknown", "found")} <= set(moved), moved
    assert moved[("found", "found")] >= 300 and moved[("unknown", "found")] >= 10, moved


def test_leaf_calls_are_at_most_the_nodes():
    """Every tuple that reaches `leaf` is a distinct result of a kernel call
    at the last depth, each found at a node of its own, so a search makes
    at most as many leaf calls as it visits nodes: here with a leaf that
    takes nothing, so that every search runs its box or its budget out."""
    rng = random.Random(4211)
    calls = searches = 0
    for query in range(120):
        p = (QP, QM, split_sum(QP, FinAbGroup((2,))))[query % 3]
        target = random_nonsingular_form(rng, p, max_rank=3)
        if query % 2:
            target = qf.direct_sum(target, target)
        k = rng.randint(1, min(3, target.rank))
        source = qf.pullback(target, [[rng.randint(-1, 1) for _ in range(k)] for _ in range(target.rank)])
        seen = 0

        def leaf(cols):
            nonlocal seen
            seen += 1
            return None

        for budget in (100, 5000):
            seen = 0
            out = qf._column_search(
                target, source.lambda_matrix, source.mu_basis, 2, budget, leaf, "nothing"
            )
            assert out.status == "unknown" and seen <= out.nodes, (query, seen, out)
            calls += seen
            searches += seen > 0
    assert searches >= 100 and calls >= 1000, (searches, calls)


def _unit_diagonal(rank):
    """<1> + ... + <1> over Q^+: its embeddings into a larger one are the
    signed coordinate vectors, so a search finds each column in a few nodes
    and nests one kernel call per column."""
    one = QP.carrier.element((1,))
    return qf.QForm(QP, _intmat.identity(rank), [one] * rank)


def _frames():
    frame, count = sys._getframe(1), 0
    while frame is not None:
        frame, count = frame.f_back, count + 1
    return count


def test_deep_nesting_stops_at_the_depth_limit(monkeypatch):
    """A search nests one kernel call per column chosen, a few frames each
    and not one per coordinate: a lagrangian of H^128 over Q^+ (rank 256)
    ends on the budget, and <1>^40 is found in <1>^41, 40 calls deep.  With
    the recursion limit 100 frames above the frames in use, that search
    stops at the depth limit instead: "unknown" with STACK_EXHAUSTED, no
    RecursionError, and the nodes of the calls that returned within the
    budget."""
    out = qf.metabolic_search(qf.hyperbolic(QP, 128), bound=3, node_budget=2000, use_obstructions=False)
    assert (out.status, out.reason, out.nodes) == ("unknown", qf.BUDGET_EXHAUSTED, 2001)
    eta, target = _unit_diagonal(40), _unit_diagonal(41)
    calls = _record_kernel_calls(monkeypatch)
    out = qf.embedding_search(eta, target, bound=1, node_budget=10**6)
    assert out.found and qf.pullback(target, out.witness) == eta
    _assert_budget_kept(calls, out, 10**6)
    # one call per column, each nested in the one before
    assert len(calls) == 40 and all(call.ended == 40 for call in calls)
    calls.clear()
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_frames() + 100)
    try:
        out = qf.embedding_search(eta, target, bound=1, node_budget=10**6)
    finally:
        sys.setrecursionlimit(limit)
    assert (out.status, out.reason) == ("unknown", qf.STACK_EXHAUSTED)
    assert 0 < len(calls) < 40
    returned = [call for call in calls if call is not None]  # the rest were cut short
    assert out.nodes == sum(nodes for _, nodes, _ in returned) <= 10**6 + 1


def _a2():
    """The definite rank-2 form 2(x^2 + xy + y^2), which no basis splits."""
    return qf.QForm(QP, [[2, 1], [1, 2]], [QP.carrier.element((2,))] * 2)


def test_block_constraints_are_restrictions_of_the_targets():
    """Each block's column constraints, as the driver restricts them from
    the target's, against `_column_constraints` of the block as a form of
    its own: the same parts and the same constants per depth; a block whose
    own constraints fail has a restricted row that `reference.unsolvable`
    rejects with some depth's constant.  Every block that the driver
    searches is one of these, with the restricted plan."""
    params = [
        QP, QM, split_sum(QP, FinAbGroup((2,))), split_sum(QM, FinAbGroup((3,))), standard("ZL_2"),
    ]
    rng = random.Random(1303)
    kinds = set()
    for i in range(60):
        p = params[i % len(params)]
        parts = [random_nonsingular_form(rng, p, max_rank=3) for _ in range(rng.randint(2, 3))]
        target = parts[0]
        for part in parts[1:]:
            target = qf.direct_sum(target, part)
        if i % 2:
            k = rng.choice([1, 2])
            m = [[rng.randint(-2, 2) for _ in range(k)] for _ in range(target.rank)]
            eta = qf.pullback(target, m)
        else:
            q = rng.choice([p.carrier.zero(), p.p_one] + p.carrier.gens())
            eta = qf.QForm(p, [[0, 1], [p.symmetry, p.h_of(q)]], [p.carrier.zero(), q])
        lam, mus = eta.lambda_matrix, eta.mu_basis
        passes, values, certificate = qf._column_constraints(target, lam, mus)
        if certificate:
            continue
        plan = passes[-1][2]
        restricted = {}
        for idx in qf._orthogonal_blocks(target.lambda_matrix):
            block = qf.QForm(
                p,
                [[target.lambda_matrix[i][j] for j in idx] for i in idx],
                [target.mu_basis[i] for i in idx],
            )
            want, want_values, unsolvable = qf._column_constraints(block, lam, mus)
            got = [qf._restrict(part, idx) for part in plan.parts]
            if unsolvable:
                assert any(
                    reference.unsolvable((a, l, c, m)) for cs in values for (a, l, m), c in zip(got, cs)
                ), (i, idx)
            else:
                assert (got, want_values) == (want[-1][2].parts, values), (i, idx)
            restricted[tuple(idx)] = got
            kinds.add(bool(unsolvable))
        for idx, _, block_plan in passes[:-1]:
            assert block_plan.parts == restricted[tuple(idx)]
    assert kinds == {True, False}


def _scrambled_column_query(rng, symmetric):
    """A target over a seeded scrambled parameter (nonsingular, or a
    pullback of one, often singular) and two mu values for its columns:
    zero, p(1), a generator or a small combination of the generators."""
    from qwitt.sampling import random_form_parameter

    p = random_form_parameter(rng, symmetric=symmetric)
    target = random_nonsingular_form(rng, p, max_rank=4)
    if rng.random() < 0.5:
        k = rng.randint(1, 4)
        target = qf.pullback(target, [[rng.randint(-2, 2) for _ in range(k)] for _ in range(target.rank)])
    gens = p.carrier.gens()
    values = [p.carrier.zero(), p.p_one] + gens
    values.append(p.carrier.combination([rng.randint(-2, 2) for _ in gens], gens))
    return p, target, [rng.choice(values) for _ in range(2)]


def test_lambda_square_row_prunes_nothing_more():
    """Over seeded scrambled symmetric parameters, the whole target's plan
    from `_column_constraints` with each depth's constants, and those rows
    with the row lambda(x, x) = h(mu_d) appended, give the kernel the same
    (results, nodes, exhausted) at boxes 1 and 2, with and without the
    normalisation, with and without a pair row: in the splitting's
    coordinates the mu row of coordinate 0 is p(1)_0 times the lambda(x, x)
    row."""
    from qwitt import search
    from qwitt.formparam import maximal_splitting

    kernel = search.search_vectors
    rng = random.Random(2806)
    compared = found = 0
    for _ in range(60):
        p, target, mus = _scrambled_column_query(rng, True)
        passes, values, certificate = qf._column_constraints(target, [[0, 0], [0, 0]], mus)
        if certificate or not target.rank:
            continue
        split = qf.pushforward(target, maximal_splitting(p).iso)
        n, plan = target.rank, passes[-1][2]
        for constants, mu in zip(values, mus):
            square = [(a, l, c, m) for (a, l, m), c in zip(plan.parts, constants)]
            square += qf._lambda_square_constraint(split, p.h_of(mu))
            row = ([rng.randint(-2, 2) for _ in range(n)], rng.randint(-2, 2))
            for box, first_positive, rows in itertools.product((1, 2), (False, True), ((), [row])):
                args = (box, 10**6, 10**6, first_positive)
                out = kernel(n, plan, *args, rows=rows, constants=constants)
                assert out == kernel(n, square, *args, rows=rows)
                compared += 1
                found += bool(out[0])
    assert compared >= 300 and found >= 100, (compared, found)


def test_mu_rows_over_split_parameters():
    """`_mu_constraints` directly.  Over `Q^+` its one row is p(1) times
    the upper triangle of lambda with mu's linear part, the row that the
    benchmark's isotropic8 case takes.  Over ZP + Z/2 and ZP_2 + Z/4, split
    parameters with three carrier coordinates, only row 0 is quadratic;
    the rows and the rows with lambda(x, x) = h(target) appended give the
    kernel the same (results, nodes, exhausted), and a complete search
    finds exactly the box vectors with mu(x) = target."""
    from qwitt import search

    def upper_triangle_row(f, t):
        pc, m, n = QP.p_one.coords[0], f.lambda_matrix, f.rank
        a = [[pc * m[i][j] * (2 - (i == j)) if i <= j else 0 for j in range(n)] for i in range(n)]
        return a, [2 * f.mu_basis[i].coords[0] - pc * m[i][i] for i in range(n)], -2 * t.coords[0], 0

    e = QP.carrier.element
    diag = qf.QForm(QP, [[1, 0], [0, -1]], [e((1,)), e((-1,))])
    f8 = qf.direct_sum(qf.hyperbolic(QP, 2), qf.direct_sum(diag, qf.hyperbolic(QP, 1)))
    rng = random.Random(2809)
    forms = [(f8, QP.carrier.zero())]
    forms += [(random_nonsingular_form(rng, QP, max_rank=4), e((rng.randint(-3, 3),))) for _ in range(20)]
    for f, t in forms:
        assert qf._mu_constraints(f, t) == [upper_triangle_row(f, t)]
    kernel = search.search_vectors
    complete = 0
    for p in (split_sum(standard("ZP"), FinAbGroup((2,))), split_sum(standard("ZP_2"), FinAbGroup((4,)))):
        gens = p.carrier.gens()
        for _ in range(25):
            f = random_nonsingular_form(rng, p, max_rank=3)
            t = rng.choice([p.carrier.zero(), p.p_one] + gens)
            rows = qf._mu_constraints(f, t)
            assert len(rows) == 3 and any(map(any, rows[0][0])) and [a for a, *_ in rows[1:]] == [(), ()]
            square = rows + qf._lambda_square_constraint(f, p.h_of(t))
            for box, first_positive in itertools.product((1, 2), (False, True)):
                out = kernel(f.rank, rows, box, 10**6, 10**6, first_positive)
                assert out == kernel(f.rank, square, box, 10**6, 10**6, first_positive)
                if not first_positive:
                    vecs = itertools.product(range(-box, box + 1), repeat=f.rank)
                    assert out[0] == [x for x in vecs if qf.mu_eval(f, x) == t]
                    complete += bool(out[0])
    assert complete >= 20, complete


def test_mu_root_certificates_are_sound():
    """Every "column d: mu(x) = ... has no integer solution" answer of an
    embedding search over seeded scrambled parameters of both symmetries,
    against brute force: no x in the box |x_i| <= 2 has mu(x) = mu_d."""
    rng = random.Random(2807)
    certified = 0
    for i in range(160):
        p, target, (_, q) = _scrambled_column_query(rng, bool(i % 2))
        eta = qf.QForm(p, [[0, 1], [p.symmetry, p.h_of(q)]], [p.carrier.zero(), q])
        out = qf.embedding_search(eta, target, bound=2, node_budget=2000)
        if not out.reason.endswith(" has no integer solution"):
            continue
        d = int(out.reason.split(":")[0].removeprefix("column "))
        assert out.reason == f"column {d}: mu(x) = {eta.mu_basis[d]} has no integer solution"
        assert (out.status, out.nodes) == ("no", 0)
        box = itertools.product(range(-2, 3), repeat=target.rank)
        assert all(qf.mu_eval(target, x) != eta.mu_basis[d] for x in box), (i, out)
        certified += 1
    assert certified >= 10, certified


def test_set_up_count_is_pinned(monkeypatch):
    """The kernel's set-ups (calls to `search._add_steps`) of two searches
    over orthogonal sums, pinned with their kernel calls and nodes: an
    isometry onto A2 + A2 whose witness needs box 2, and an embedding into
    A2 + A2 + A2 that the distinct block holds at box 2.  The plan of a
    block or of the target is set up once per box that its root rules
    admit (the block's box 1 cannot reach lambda(x, x) = 14, so it costs
    no set-up) and shared by the calls at every depth, so a set-up per
    call, per block copy or per depth would move the count."""
    from qwitt import search

    setups = 0
    add_steps = search._add_steps

    def counted(*args):
        nonlocal setups
        setups += 1
        return add_steps(*args)

    monkeypatch.setattr(search, "_add_steps", counted)
    calls = _record_kernel_calls(monkeypatch)
    f2 = qf.direct_sum(_a2(), _a2())
    source = qf.pullback(f2, [[1, 2, 0, 0], [0, 1, 0, 0], [0, 0, 1, -2], [0, 1, 0, 1]])
    eta = qf.pullback(_a2(), [[2, 0], [1, 1]])
    for run, want in (
        (lambda: qf.isometry_search(source, f2, bound=3), (198, 17, 2)),
        (lambda: qf.embedding_search(eta, qf.direct_sum(f2, _a2()), bound=3), (10850, 76, 2)),
    ):
        setups = 0
        calls.clear()
        out = run()
        assert out.found and max(abs(x) for row in out.witness for x in row) == 2
        assert (out.nodes, len(calls), setups) == want


def test_search_takes_each_distinct_block_first(monkeypatch):
    # lambda(x, x) = 14 on A2 + A2: x^2 + xy + y^2 = 7 in one block, at
    # (2, 1) and no smaller; two blocks at box 1 reach at most 3 + 3
    target = qf.direct_sum(_a2(), _a2())
    eta = qf.QForm(QP, [[14]], [QP.carrier.element((14,))])
    calls = _record_kernel_calls(monkeypatch)
    out = qf.embedding_search(eta, target, bound=3)
    assert out.witness == ((-2,), (-1,), (0,), (0,))
    # box 1: the one distinct block (not both copies), then the whole
    # target; box 2: the block holds the witness, and its call stops there
    assert [(c.n, c[0], c[2]) for c in calls] == [(2, 1, True), (4, 1, True), (2, 2, False)]
    assert out.nodes == sum(nodes for _, nodes, _ in calls)
    # a budget that runs out in the block pass of box 2: no call follows
    box1 = sum(nodes for b, nodes, _ in calls if b == 1)
    calls.clear()
    out = qf.embedding_search(eta, target, bound=3, node_budget=box1 + 2)
    assert [(c.n, c[0], c[2]) for c in calls] == [(2, 1, True), (4, 1, True), (2, 2, False)]
    assert (out.status, out.reason) == ("unknown", qf.BUDGET_EXHAUSTED)
    assert out.nodes == sum(nodes for _, nodes, _ in calls) == box1 + 3


def test_bound_zero_is_one_pass(monkeypatch):
    calls = _record_kernel_calls(monkeypatch)
    h2 = qf.hyperbolic(QP, 1)
    out = qf.metabolic_search(h2, bound=0, use_obstructions=False)
    assert (out.status, out.reason) == ("unknown", "no lagrangian with coordinates within the bound")
    assert [b for b, _, _ in calls] == [0]
    # the zero vector embeds the zero form, but not injectively
    zero = qf.QForm(QP, [[0]], [QP.carrier.zero()])
    assert qf.embedding_search(zero, h2, bound=0).reason == (
        "no embedding with coordinates within the bound"
    )
    assert qf.embedding_search(zero, h2, bound=1).found


def test_huge_bound_is_searched_box_by_box(monkeypatch):
    # the passes are generated one at a time: a bound of 10^12 costs what
    # bound 1 does when box 1 holds a witness
    calls = _record_kernel_calls(monkeypatch)
    h2 = qf.hyperbolic(QP, 1)
    out = qf.metabolic_search(h2, bound=10**12, use_obstructions=False)
    assert (out.status, out.bound) == ("found", 10**12)
    assert [b for b, _, _ in calls] == [1]


def test_passes_skip_the_boxes_the_root_rejects(monkeypatch):
    """After a pass, the next is at the least larger box that the whole
    target's depth-0 root rules admit: the boxes between cost 0 nodes and
    hold no column.  <N> into <1> + <1> makes four kernel calls (the <1>
    block and the whole target at box 1 and at box ceil(sqrt(N / 2)))
    where it used to make two per box, with the same outcome, nodes and
    witness."""
    calls = _record_kernel_calls(monkeypatch)
    one = unit_form(1)
    target = qf.direct_sum(one, one)

    def query(n, bound=10**6):
        calls.clear()
        eta = qf.QForm(QP, [[n]], [QP.carrier.element((n,))])
        return qf.embedding_search(eta, target, bound=bound, node_budget=2000)

    for n in (10**6, 10**10):
        out = query(n)
        assert (out.status, out.reason, out.nodes) == ("unknown", qf.BUDGET_EXHAUSTED, 2001)
        box = math.isqrt(n // 2 - 1) + 1
        assert [(c.n, c[0], c[1]) for c in calls] == [(1, 1, 0), (2, 1, 0), (1, box, 0), (2, box, 2001)]
    # 25 = 16 + 9: box 4 is the least that holds a witness and the least the
    # root admits (2 * 3^2 < 25); the block <1> needs box 5
    out = query(25)
    assert (out.witness, out.nodes) == (((-4,), (-3,)), 3)
    assert [(c.n, c[0]) for c in calls] == [(1, 1), (2, 1), (1, 4), (2, 4)]
    # every box after the first rejected within the bound: no further pass
    out = query(10**8, bound=1000)
    assert (out.status, out.reason, out.nodes) == (
        "unknown", "no embedding with coordinates within the bound", 0
    )
    assert [c[0] for c in calls] == [1, 1]
    # no column (a rank-0 source) or a rank-0 target: one pass at the bound,
    # found at 0 nodes with no kernel call; the embedding of a rank-0 source
    # has one empty row per basis vector of the target
    calls.clear()
    empty = qf.QForm(QP, [], [])
    out = qf.embedding_search(empty, one, bound=3)
    assert (out.status, out.witness, out.nodes) == ("found", ((),), 0)
    qf.Embedding(empty, one, out.witness)
    for out in (
        qf.embedding_search(empty, empty, bound=3),
        qf.isometry_search(empty, empty, bound=3),
        qf.metabolic_search(empty, bound=3, use_obstructions=False),
    ):
        assert (out.status, out.witness, out.nodes) == ("found", (), 0)
    qf.Embedding(empty, empty, ())
    assert calls == []


def test_negative_bound_is_refused(monkeypatch):
    calls = _record_kernel_calls(monkeypatch)
    h2 = qf.hyperbolic(QP, 1)
    with pytest.raises(ValueError, match="negative"):
        qf.metabolic_search(h2, bound=-1, use_obstructions=False)
    with pytest.raises(ValueError, match="negative"):
        qf.isometry_search(h2, h2, bound=-1)
    with pytest.raises(ValueError, match="negative"):
        qf.embedding_search(h2, h2, bound=-1)
    # and where a certificate answers before the driver
    with pytest.raises(ValueError, match="negative"):
        qf.metabolic_search(unit_form(), bound=-1)  # odd rank
    with pytest.raises(ValueError, match="negative"):
        qf.isometry_search(h2, qf.direct_sum(h2, h2), bound=-1)  # different ranks
    with pytest.raises(ValueError, match="negative"):
        qf.embedding_search(qf.direct_sum(h2, h2), h2, bound=-1)  # source rank
    with pytest.raises(ValueError, match="negative"):
        qf.SearchOutcome("unknown", bound=-1)
    # a search visits at most node_budget + 1 nodes, which no search meets
    # below 0: the driver refuses such a budget before any kernel call
    h4 = qf.hyperbolic(QP, 2)
    eta = qf.QForm(QM, [[0, 1], [-1, 0]], [QM.carrier.zero()] * 2)
    for run in (
        lambda: qf.metabolic_search(h4, node_budget=-5),
        lambda: qf.metabolic_search(h2, node_budget=-1, use_obstructions=False),
        lambda: qf.isometry_search(h2, h2, node_budget=-1),
        lambda: qf.embedding_search(h2, h2, node_budget=-1),
        lambda: qf.absorb_embed(qf.hyperbolic(QM, 1), eta, node_budget=-1),
    ):
        with pytest.raises(ValueError, match="negative"):
            run()
    assert calls == []
    # a budget of 0 is one node, then the budget is spent
    out = qf.metabolic_search(h4, node_budget=0)
    assert (out.status, out.reason, out.nodes) == ("unknown", qf.BUDGET_EXHAUSTED, 1)


def test_each_certificate_records_the_bound():
    h, hm = qf.hyperbolic(QP, 1), qf.hyperbolic(QM, 1)
    two = qf.direct_sum(unit_form(1), unit_form(1))
    singular = qf.QForm(QM, [[0, 0], [0, 0]], [QM.carrier.zero()] * 2)
    odd = qf.QForm(QP, [[0, 1], [1, 1]], [QP.carrier.zero(), QP.carrier.element((1,))])
    runs = [
        ("odd rank", lambda b: qf.metabolic_search(unit_form(), bound=b)),
        ("non-zero Witt class", lambda b: qf.metabolic_search(two, bound=b)),
        ("different form parameters", lambda b: qf.isometry_search(h, hm, bound=b)),
        ("different ranks", lambda b: qf.isometry_search(h, qf.direct_sum(h, h), bound=b)),
        ("different determinants", lambda b: qf.isometry_search(
            two, qf.direct_sum(unit_form(1), qf.QForm(QP, [[2]], [QP.carrier.element((2,))])), bound=b
        )),
        ("different signatures", lambda b: qf.isometry_search(
            two, qf.direct_sum(unit_form(1), unit_form(-1)), bound=b
        )),
        ("different form parameters", lambda b: qf.embedding_search(h, hm, bound=b)),
        ("source rank exceeds target rank", lambda b: qf.embedding_search(h, unit_form(), bound=b)),
        ("target inertia (2, 0) lacks the source's (1, 1)",
         lambda b: qf.embedding_search(h, two, bound=b)),
        ("equal ranks, singular target", lambda b: qf.embedding_search(hm, singular, bound=b)),
        ("equal ranks, different Witt classes", lambda b: qf.embedding_search(hm, arf1(), bound=b)),
        # W_0(ZL_2) = 0, so only the lift to Q- sees the Arf invariant
        ("Arf invariant 1 of the quadratic lift", lambda b: qf.metabolic_search(
            qf.pushforward(arf1(), standard_morphism("Q-", "ZL_2")), bound=b
        )),
        ("column 1: mu(x) = (1) has no integer solution", lambda b: qf.embedding_search(
            odd, qf.hyperbolic(QP, 2), bound=b
        )),
    ]
    for bound in (0, 2, 5):
        for reason, run in runs:
            out = run(bound)
            assert (out.status, out.reason, out.bound, out.nodes) == ("no", reason, bound, 0), out


def _brute_least_entry(target, lam, mus, accept, bound):
    """Least max |entry| over the column tuples of the box |x_i| <= bound
    that meet lambda(c_i, c_j) = lam[i][j], mu(c_i) = mus[i] and `accept`,
    or None when there is none."""
    box = list(itertools.product(range(-bound, bound + 1), repeat=target.rank))
    cands = [
        [v for v in box if reference.lam(target, v, v) == lam[d][d] and qf.mu_eval(target, v) == m]
        for d, m in enumerate(mus)
    ]
    best = None
    for cols in itertools.product(*cands):
        if all(
            reference.lam(target, cols[i], cols[j]) == lam[i][j]
            for i in range(len(cols)) for j in range(i + 1, len(cols))
        ) and accept(cols):
            entry = _entry_bound(cols)
            best = entry if best is None else min(best, entry)
    return best


def _entry_bound(vectors) -> int:
    return max((abs(x) for v in vectors for x in v), default=0)


def test_zero_source_searches_have_least_entry_bound():
    """A zero source (lambda = 0, mu = 0) switches on the symmetry cuts in
    embedding_search and isometry_search; lambda = 0 with a non-zero mu
    value leaves them off.  Against brute force at bound 2: a witness is
    found exactly when the box holds one, at the least entry bound.
    Targets: seeded forms of rank <= 3, singular pullbacks of them and
    zero forms with mu values in ker h."""
    params = [
        QP, QM, split_sum(QP, FinAbGroup((2,))), split_sum(QM, FinAbGroup((3,))), standard("ZL_2"),
    ]
    rng = random.Random(1307)
    # <1> + <-4>: its isotropic vectors need an entry 2; <0> with mu = g of
    # order 3: mu(x) = -g at x = -1 only, in the box of bound 1
    g3 = params[3].carrier.gens()[-1]
    targets = [
        qf.direct_sum(unit_form(1), qf.QForm(QP, [[-4]], [QP.carrier.element((-4,))])),
        qf.QForm(params[3], [[0]], [g3]),
    ]
    for i in range(45):
        p = params[i % len(params)]
        f = random_nonsingular_form(rng, p, max_rank=3)
        if i % 3 == 1:
            m = [[rng.randint(-2, 2) for _ in range(f.rank)] for _ in range(f.rank)]
            f = qf.pullback(f, m)
        elif i % 3 == 2:
            kernel = [m for m in [p.carrier.zero(), p.p_one] + p.carrier.gens() if p.h_of(m) == 0]
            n = rng.randint(1, 3)
            f = qf.QForm(p, [[0] * n for _ in range(n)], [rng.choice(kernel) for _ in range(n)])
        if f.rank:
            targets.append(f)
    seen = set()
    for target in targets:
        p = target.parameter
        kernel = [m for m in [p.carrier.zero(), p.p_one] + p.carrier.gens() if p.h_of(m) == 0]
        for k in range(1, min(target.rank, 2) + 1):
            mus = [p.carrier.zero()] * k
            if target is targets[1]:
                mus[-1] = -g3
            elif len(kernel) > 1 and rng.random() < 0.5:
                mus[-1] = rng.choice([1, -1]) * rng.choice(kernel[1:])
            zero = qf.QForm(p, [[0] * k for _ in range(k)], mus)
            if k == target.rank:
                out = qf.isometry_search(zero, target, bound=2, node_budget=10**6)
                accept = lambda cols: _intmat.determinant(_intmat.transpose(cols)) in (1, -1)
            else:
                out = qf.embedding_search(zero, target, bound=2, node_budget=10**6)
                accept = lambda cols, k=k: _intmat.rank(_intmat.transpose(cols)) == k
            best = _brute_least_entry(target, zero.lambda_matrix, zero.mu_basis, accept, 2)
            assert out.reason != qf.BUDGET_EXHAUSTED
            if out.found:
                assert _entry_bound(out.witness) == best, (target, k, out)
            else:
                assert best is None, (target, k, out)
            mixed = any(m != mus[0] for m in mus)
            seen.add((k == target.rank, mixed, out.status, best))
    assert {
        (False, False, "found", 1), (False, False, "found", 2), (False, False, "unknown", None),
        (True, False, "found", 1), (True, False, "no", None), (False, True, "found", 1),
    } <= seen, seen


def test_found_witness_has_least_entry_bound():
    """The search contract against brute force at bound 2: a found witness
    has the least entry bound of every witness in the box, and the whole
    box holds none exactly when the search says so."""
    params = [QP, QM, split_sum(QP, FinAbGroup((2,))), standard("ZL_2")]
    rng = random.Random(913)
    bound, budget = 2, 10**6
    seen = set()
    for i in range(40):
        p = params[i % len(params)]
        f = random_nonsingular_form(rng, p, max_rank=3)
        kind = i % 3
        if kind == 0 and f.rank == 2:
            out = qf.metabolic_search(f, bound=bound, node_budget=budget)
            best = _brute_least_entry(
                f, [[0]], [p.carrier.zero()],
                lambda cols: qf.lagrangian_verify(f, cols), bound,
            )
        elif kind == 1 and f.rank <= 2:
            g = qf.pullback(f, random_unimodular(rng, f.rank, ops=3))
            out = qf.isometry_search(f, g, bound=bound, node_budget=budget)
            best = _brute_least_entry(
                g, f.lambda_matrix, f.mu_basis,
                lambda cols: _intmat.determinant(_intmat.transpose(cols)) in (1, -1),
                bound,
            )
        else:
            k = rng.choice([1, 2])
            if rng.random() < 0.5:
                # a pullback of f, so often (not always) an embedding
                m = [[rng.randint(-2, 2) for _ in range(k)] for _ in range(f.rank)]
                eta = qf.pullback(f, m)
            else:
                q = rng.choice([p.carrier.zero(), p.p_one] + p.carrier.gens())
                eta = qf.QForm(p, [[0, 1], [p.symmetry, p.h_of(q)]], [p.carrier.zero(), q])
            out = qf.embedding_search(eta, f, bound=bound, node_budget=budget)
            best = _brute_least_entry(
                f, eta.lambda_matrix, eta.mu_basis,
                lambda cols: _intmat.rank(_intmat.transpose(cols)) == eta.rank,
                bound,
            )
        assert out.reason != qf.BUDGET_EXHAUSTED
        if out.found:
            assert _entry_bound(out.witness) == best, (i, out)
        else:
            assert best is None, (i, out)
        seen.add((out.status, best))
    assert {("found", 1), ("found", 2), ("no", None), ("unknown", None)} <= seen, seen


def _blocks_met(target, witness):
    """The orthogonal blocks of target on which the witness is not zero."""
    return [
        idx for idx in qf._orthogonal_blocks(target.lambda_matrix)
        if any(any(witness[i]) for i in idx)
    ]


def test_found_witness_on_orthogonal_sums_has_least_entry_bound():
    """The contract of test_found_witness_has_least_entry_bound on targets
    f + g and f + f, whose blocks the search takes before the whole target."""
    params = [
        QP, QM, split_sum(QP, FinAbGroup((2,))), split_sum(QM, FinAbGroup((3,))), standard("ZL_2"),
    ]
    rng = random.Random(929)
    bound, budget = 2, 10**6
    one = unit_form(1)
    # lambda(x, x) = 2 on <1> + <1> is (±1, ±1) only: it fits no block;
    # lambda(x, x) = 4 is (±2, 0) or (0, ±2) only: it fits one block
    cases = [
        (qf.QForm(QP, [[2]], [QP.carrier.element((2,))]), qf.direct_sum(one, one)),
        (qf.QForm(QP, [[4]], [QP.carrier.element((4,))]), qf.direct_sum(one, one)),
    ]
    for i in range(30):
        p = params[i % len(params)]
        f = random_nonsingular_form(rng, p, max_rank=2)
        g = f if i % 2 else random_nonsingular_form(rng, p, max_rank=2)
        target = qf.direct_sum(f, g)
        if rng.random() < 0.5:
            width = rng.choice([1, 2])
            m = [[rng.randint(-2, 2) for _ in range(width)] for _ in range(target.rank)]
            eta = qf.pullback(target, m)
        else:
            q = rng.choice([p.carrier.zero(), p.p_one] + p.carrier.gens())
            eta = qf.QForm(p, [[0, 1], [p.symmetry, p.h_of(q)]], [p.carrier.zero(), q])
        cases.append((eta, target))
    seen = set()
    for i, (eta, target) in enumerate(cases):
        def least(b):
            return _brute_least_entry(
                target, eta.lambda_matrix, eta.mu_basis,
                lambda cols: _intmat.rank(_intmat.transpose(cols)) == eta.rank,
                b,
            )

        # box 1 first, as it is small: a witness there is the least of box 2
        best = least(1)
        if best is None:
            best = least(bound)
        out = qf.embedding_search(eta, target, bound=bound, node_budget=budget)
        assert out.reason != qf.BUDGET_EXHAUSTED
        if out.found:
            qf.Embedding(eta, target, out.witness)  # a block's columns, extended
            assert _entry_bound(out.witness) == best, (i, out)
            met = len(_blocks_met(target, out.witness))
        else:
            # "no", or "unknown" after the whole box: the box holds none
            assert best is None, (i, out)
            met = None
        assert i or met == 2, "the first witness meets both blocks"
        seen.add((out.status, best, met))
    assert {("found", 1, 1), ("found", 2, 1), ("found", 1, 2), ("unknown", None, None)} <= seen, seen


def _found_form():
    """lambda = [[1, 7], [7, 48]] = (x + 6y)(x + 8y): its primitive
    isotropic vectors are ±(6, -1) and ±(8, -1), none in a box below 6."""
    return qf.pullback(qf.direct_sum(unit_form(1), unit_form(-1)), [[1, 7], [0, 1]])


def test_primitive_isotropic_has_least_entry_bound():
    """Against brute force at bound 2: the vector is primitive, isotropic
    and of least entry bound, and None comes exactly when the box holds no
    such vector."""
    params = [QP, QM, split_sum(QP, FinAbGroup((2,))), standard("ZL_2"), standard("ZP")]
    rng = random.Random(917)
    forms = [random_nonsingular_form(rng, params[i % len(params)], max_rank=3) for i in range(40)]
    forms += [_found_form(), qf.direct_sum(unit_form(1), qf.direct_sum(unit_form(1), unit_form(1)))]
    seen = set()
    for f in forms:
        box = itertools.product(range(-2, 3), repeat=f.rank)
        best = min(
            (_entry_bound([v]) for v in box if reference.lam(f, v, v) == 0 and math.gcd(*v) == 1),
            default=None,
        )
        x = qf._primitive_isotropic(f, 2, 10**6)
        if x is None:
            assert best is None, f
        else:
            assert reference.lam(f, x, x) == 0 and math.gcd(*x) == 1
            assert _entry_bound([x]) == best, (f, x)
        seen.add((f.rank, best))
    assert {(2, None), (3, None), (2, 1), (3, 1), (3, 2)} <= seen, seen


def test_primitive_isotropic_keeps_bound_and_budget(monkeypatch):
    f = _found_form()
    calls = _record_kernel_calls(monkeypatch)
    # one call at box 1, and no box above the requested bound
    assert qf._primitive_isotropic(f, 1, 50) is None
    assert calls == [(1, 4, True)]
    # the budget runs out in box 4, before box 6 holds (6, -1)
    calls.clear()
    assert qf._primitive_isotropic(f, 6, 50) is None
    assert sum(nodes for _, nodes, _ in calls) <= 51
    assert [done for _, _, done in calls] == [True] * (len(calls) - 1) + [False]
    assert max(b for b, _, _ in calls) <= 6
    calls.clear()
    assert qf._primitive_isotropic(f, 6, 10**6) == [6, -1]
    assert [b for b, _, _ in calls] == [1, 2, 3, 4, 5, 6]


def _pinned_queries():
    """Seeded searches over the criterion-10 parameters, small bounds and
    budgets, as (node budget, outcome): every outcome kind, including
    budget-limited ones."""
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
            yield budget, qf.metabolic_search(f, bound=2, node_budget=budget)
        elif kind == 1:
            g = qf.pullback(f, random_unimodular(rng, f.rank, ops=5))
            yield budget, qf.isometry_search(f, g, bound=2, node_budget=budget)
        else:
            q = rng.choice([p.carrier.zero(), p.p_one] + p.carrier.gens())
            eta = qf.QForm(p, [[0, 1], [p.symmetry, p.h_of(q)]], [p.carrier.zero(), q])
            yield budget, qf.embedding_search(eta, f, bound=2, node_budget=budget)


# (status, reason, witness) of each _pinned_queries() search, recorded with
# the per-search recursive drivers that the single driver replaced; rows 5,
# 17, 23, 26, 39 and 41 ("node budget exhausted" then) re-recorded when the
# kernel began to prune congruences and the driver to certify "no" at the
# root; rows 7, 9, 11, 12, 25 and 36 (then "node budget exhausted") and 15
# found rows (then with larger entries) re-recorded when the driver began
# to search the boxes of bound 1, 2, ... in turn; rows 5 and 38 (found
# then too, with entry bound 1) re-recorded when the driver began to search
# the target's orthogonal blocks first: each witness now lies in one block;
# rows 8, 20 and 26 ("no embedding ... within the bound" then) re-recorded
# when embedding_search began to certify "no" by inertia and, at equal
# ranks, by the Witt class; rows 14 and 37 ("node budget exhausted"
# then) re-recorded when the driver began to search below each column as
# the kernel finds it, so that a nested call gets every node not yet spent
PINNED = [
    ('no', 'odd rank', None),
    ('found', '', ((-1, -1), (0, 1))),
    ('unknown', 'node budget exhausted', None),
    ('no', 'non-zero Witt class', None),
    ('found', '', ((-1, -1), (-1, 0))),
    ('found', '', ((0, 0), (0, 0), (-1, -1), (0, -1))),
    ('found', '', ((0, 0, 0, 1), (1, -1, 0, -1))),
    ('found', '', ((-1, 0, 0, 0), (0, -1, 0, -1), (0, 0, -1, 0), (0, -1, 1, 0))),
    ('no', 'equal ranks, different Witt classes', None),
    ('found', '', ((0, 0, 0, 1), (0, 1, 0, -1))),
    ('found', '', ((-1, -1, -1), (0, -1, 0), (0, -1, -1))),
    ('found', '', ((-1, -1), (0, 1), (-1, -1), (0, -1))),
    ('found', '', ((0, 1, 0, 0), (1, -1, -1, 0))),
    ('found', '', ((-1, 0, 0, 1), (-1, 1, -1, -1), (0, 0, -1, -1), (0, 1, -1, -1))),
    ('found', '', ((-1, -1), (-1, -1), (-1, 0), (0, 0))),
    ('no', 'odd rank', None),
    ('found', '', ((-1, -1), (0, 1))),
    ('found', '', ((-1, 0), (0, -1), (0, -1), (0, 0))),
    ('found', '', ((0, 1),)),
    ('unknown', 'node budget exhausted', None),
    ('no', "target inertia (0, 2) lacks the source's (1, 1)", None),
    ('found', '', ((0, 0, 1, -1), (1, -1, -1, 1))),
    ('found', '', ((-1, -1), (-2, -1))),
    ('no', 'column 1: mu(x) = (0, 1) has no integer solution', None),
    ('found', '', ((0, 1),)),
    ('found', '', ((-1, 0, 0, 0), (-1, -1, 0, 1), (-1, 0, 1, 0), (0, 0, 0, -1))),
    ('no', 'equal ranks, different Witt classes', None),
    ('found', '', ((0, 1, 0, 0), (1, -1, 0, 0))),
    ('unknown', 'node budget exhausted', None),
    ('found', '', ((-1, -1), (0, -1))),
    ('no', 'odd rank', None),
    ('unknown', 'node budget exhausted', None),
    ('unknown', 'no embedding with coordinates within the bound', None),
    ('no', 'non-zero Witt class', None),
    ('unknown', 'node budget exhausted', None),
    ('found', '', ((-1, 1), (0, -1), (0, -1), (0, 0))),
    ('found', '', ((0, 0, 0, 1), (1, -1, 0, -1))),
    ('found', '', ((-1, -1, 0), (0, -2, 1), (-1, 0, -1))),
    ('found', '', ((-1, 0), (0, 0), (-1, -1), (0, 0))),
    ('found', '', ((0, 0, 1, 0), (1, 0, -1, 1))),
    ('found', '', ((-1, -1), (0, 1))),
    ('found', '', ((-1, 0), (-1, 0), (-1, 0), (-1, -1))),
]


def test_pinned_search_outcomes():
    runs = list(_pinned_queries())
    assert [(o.status, o.reason, o.witness) for _, o in runs] == PINNED
    # the one stop rule: a search stopped on its budget is one whose node
    # count passed it
    for budget, o in runs:
        assert (o.reason == qf.BUDGET_EXHAUSTED) == (o.nodes > budget) and o.nodes <= budget + 1
