import random

from qwitt.search import search_vectors


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
