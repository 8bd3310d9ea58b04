import random

from qwitt.search import search_vectors, unsolvable


def brute(n, constraints, bound, norm):
    out = []
    from itertools import product

    for vec in product(range(-bound, bound + 1), repeat=n):
        ok = True
        for a, l, c, m in constraints:
            v = (
                sum(a[i][j] * vec[i] * vec[j] for i in range(n) for j in range(n))
                + sum(l[i] * vec[i] for i in range(n))
                + c
            )
            if (v % m if m else v) != 0:
                ok = False
                break
        if ok and norm:
            for e in vec:
                if e:
                    ok = e > 0
                    break
        if ok:
            out.append(vec)
    return out


def random_constraints(rng, n, scale=1):
    cons = []
    for _ in range(rng.randint(0, 3)):
        a = [[scale * rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
        l = [scale * rng.randint(-2, 2) for _ in range(n)]
        c = scale * rng.randint(-3, 3)
        cons.append((a, l, c, scale * rng.choice([0, 0, 2, 3])))
    return cons


# Coefficients far beyond 64 bits: the kernel's arithmetic is exact.
A, K = 2**61, 2**200 + 7
SQUARES = ([[A, 0], [0, -A]], [0, 0], 0, 0)  # A x^2 - A y^2 = 0
LARGE = [
    # the 13 vectors with |x| = |y|
    (2, [SQUARES], 3, False),
    # K (x^2 - z^2) + (K + 1)(y - 1) = 0 forces y = 1 and |x| = |z|
    (3, [([[K, 0, 0], [0, 0, 0], [0, 0, -K]], [0, K + 1, 0], -K - 1, 0)], 2, False),
    # (K + 1) x^2 - y = 0 (mod K) and |x| = |y|: (0, 0) and (1, 1)
    (2, [([[K + 1, 0], [0, 0]], [0, -1], 0, K), SQUARES], 3, True),
]


def test_python_backend_vs_brute_force():
    rng = random.Random(11)
    cases = list(LARGE)
    for i in range(200):
        n = rng.randint(1, 3)
        # the last 50 scale coefficients and moduli by K: same solutions
        scale = 1 if i < 150 else K
        cons = random_constraints(rng, n, scale)
        cases.append((n, cons, rng.randint(1, 3), rng.random() < 0.5))
    for n, cons, b, norm in cases:
        got, _, exhausted = search_vectors(n, cons, b, 10**6, 10**7, norm)
        assert exhausted
        assert got == brute(n, cons, b, norm)
    assert len(search_vectors(*LARGE[0][:3], 10**6, 10**7)[0]) == 13


def test_budget_and_limits():
    # max_results truncates and reports non-exhaustion
    res, nodes, exhausted = search_vectors(2, [], 3, 5, 10**6, False)
    assert len(res) == 5 and not exhausted
    # node budget stops the walk
    res, nodes, exhausted = search_vectors(4, [], 2, 10**9, 10, False)
    assert not exhausted and nodes >= 10


def test_zero_dimensional():
    assert search_vectors(0, [], 3, 10, 10, False)[0] == [()]
    bad = [([[0]], [0], 1, 0)]
    # constant 1 != 0 means no solutions even in dimension zero
    assert search_vectors(0, [([], [], 1, 0)], 3, 10, 10, False)[0] == []
    assert search_vectors(0, [([], [], 4, 2)], 3, 10, 10, False)[0] == [()]


def mu_style_constraint(rng, n):
    """mu(x) == q over a cyclic carrier of order m, as the searches build it:
    doubled to clear the binomial denominators, so the modulus is 2m."""
    eps = rng.choice([1, -1])
    mat = [[0] * n for _ in range(n)]
    for i in range(n):
        mat[i][i] = rng.randint(-2, 2) if eps == 1 else 0
        for j in range(i + 1, n):
            mat[i][j] = rng.randint(-2, 2)
            mat[j][i] = eps * mat[i][j]
    m = rng.choice([0, 2, 3, 4])
    pc = rng.randint(1, 3)
    a = [[0] * n for _ in range(n)]
    for i in range(n):
        a[i][i] = pc * mat[i][i]
        for j in range(i + 1, n):
            a[i][j] = 2 * pc * mat[i][j]
    l = [2 * rng.randint(-3, 3) - pc * mat[i][i] for i in range(n)]
    return a, l, -2 * rng.randint(-3, 3), 2 * m


def test_congruence_pruning_vs_brute_force():
    rng = random.Random(23)
    for _ in range(300):
        n = rng.randint(1, 4)
        cons = [mu_style_constraint(rng, n) for _ in range(rng.randint(1, 2))]
        cons += random_constraints(rng, n)[:1]
        b = rng.randint(1, 3 if n < 4 else 2)
        norm = rng.random() < 0.5
        got, _, exhausted = search_vectors(n, cons, b, 10**6, 10**7, norm)
        assert exhausted
        assert got == brute(n, cons, b, norm)


def test_budget_limited_results_are_a_prefix():
    rng = random.Random(5)
    for _ in range(100):
        n = rng.randint(2, 4)
        cons = [mu_style_constraint(rng, n)] + random_constraints(rng, n)
        norm = rng.random() < 0.5
        full, nodes, _ = search_vectors(n, cons, 2, 10**6, 10**7, norm)
        for budget in (1, 5, 20, nodes // 2, nodes - 1):
            got, used, exhausted = search_vectors(n, cons, 2, 10**6, budget, norm)
            assert got == full[: len(got)]
            assert used <= budget + 1
            assert not exhausted or got == full


def test_unsolvable_has_no_solution_in_a_box():
    rng = random.Random(8)
    rejected = 0
    for _ in range(400):
        n = rng.randint(1, 3)
        a, l, c, m = rng.choice([mu_style_constraint(rng, n)] + random_constraints(rng, n, 1))
        if rng.random() < 0.5:
            # a common factor of every coefficient but the constant
            k = rng.choice([2, 3])
            a, l, m = [[k * e for e in r] for r in a], [k * e for e in l], k * m
        con = (a, l, c, m)
        if unsolvable(con):
            rejected += 1
            assert brute(n, [con], 4, False) == []
            # the kernel ends such a search at the root
            assert search_vectors(n, [con], 4, 10**6, 10**7) == ([], 0, True)
    assert rejected >= 100
    # 2x^2 + 4xy + 6y = 3 has no integer solution: the gcd is 2
    assert unsolvable(([[2, 1], [3, 0]], [0, 6], -3, 0))
    # but x^2 - 2 = 0 only fails by size, which the gcd rule cannot see
    assert not unsolvable(([[1]], [0], -2, 0))


def linear_constraint(rng, n):
    """A constraint without a quadratic part: A = 0, or an antisymmetric A,
    which symmetrises to zero (x^t A x vanishes identically)."""
    a = [[0] * n for _ in range(n)]
    if rng.random() < 0.5:
        for i in range(n):
            for j in range(i + 1, n):
                a[i][j] = rng.randint(-2, 2)
                a[j][i] = -a[i][j]
    l = [rng.randint(-3, 3) for _ in range(n)]
    return a, l, rng.randint(-4, 4), rng.choice([0, 0, 2, 3, 4])


def mixed_case(rng, kind, max_n=4):
    """(n, constraints, bound, normalize) with linear constraints
    ("linear"), quadratic ones ("quadratic") or both ("mixed"), in a
    random order."""
    n = rng.randint(1, max_n)
    cons = []
    if kind != "quadratic":
        cons += [linear_constraint(rng, n) for _ in range(rng.randint(1, 3))]
    if kind != "linear":
        cons += [mu_style_constraint(rng, n)] + random_constraints(rng, n)[:1]
    rng.shuffle(cons)
    return n, cons, rng.randint(1, 3 if n < 4 else 2), rng.random() < 0.5


def test_linear_constraints_vs_brute_force():
    rng = random.Random(29)
    for i in range(300):
        n, cons, b, norm = mixed_case(rng, ("linear", "mixed", "quadratic")[i % 3])
        full, nodes, exhausted = search_vectors(n, cons, b, 10**6, 10**7, norm)
        assert exhausted
        assert full == brute(n, cons, b, norm)
        for budget in (1, nodes // 3, nodes - 1):
            got, used, exhausted = search_vectors(n, cons, b, 10**6, budget, norm)
            assert got == full[: len(got)]
            assert used <= budget + 1
            assert not exhausted or got == full
        if full:
            got, _, exhausted = search_vectors(n, cons, b, 1, 10**7, norm)
            assert got == full[:1] and not exhausted  # stopped on max_results


# (len(results), nodes, exhausted) of 42 seeded kernel calls: node counts
# are part of the budget contract, so a faster kernel must visit the same
# nodes and stop at the same place.
KERNEL_PINNED = [
    (0, 301, False), (1, 10, True), (2, 124, False), (2, 21, False),
    (1, 31, False), (0, 8, True), (7, 301, False), (2, 15, True),
    (9, 260, True), (39, 155, True), (0, 4, True), (0, 6, True),
    (0, 0, True), (10, 63, True), (0, 228, True), (11, 31, False),
    (0, 18, True), (1, 301, False), (0, 0, True), (63, 6668, True),
    (0, 36, True), (6, 42, True), (2, 177, True), (0, 0, True),
    (7, 56, True), (200, 468, True), (1, 6, True), (37, 301, False),
    (1, 60, True), (0, 4, True), (8, 94, True), (0, 4, True),
    (0, 0, True), (2, 8, False), (2, 5, True), (0, 31, False),
    (1, 15, True), (2, 7, False), (0, 6, True), (2, 67, False),
    (2, 56, False), (0, 0, True),
]


def test_kernel_node_counts_are_pinned():
    rng = random.Random(37)
    got = []
    for i in range(len(KERNEL_PINNED)):
        n, cons, b, norm = mixed_case(rng, ("linear", "quadratic", "mixed")[i % 3], 6)
        budget = rng.choice([10**7, 10**7, 30, 300])
        cap = rng.choice([10**6, 10**6, 2])
        res, nodes, exhausted = search_vectors(n, cons, b, cap, budget, norm)
        got.append((len(res), nodes, exhausted))
    assert got == KERNEL_PINNED
