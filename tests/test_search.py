import random
import sys

from qwitt.search import Plan, search_vectors, unsolvable


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


def plan_of(n, constraints):
    """The plan of the constraints' parts (A, l, m), and their constants."""
    return Plan(n, [(a, l, m) for a, l, _, m in constraints]), [c for _, _, c, _ in constraints]


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


def test_rank_zero_visits_its_node_against_the_budget():
    """A rank-0 call visits one node, the empty vector, against its budget
    as a call of any rank visits its nodes: at budget 0 it stops there, as
    a rank-1 call does, with no result and no call of on_result; at budget
    1 the empty vector is a result, handed over with 0 nodes left, and a
    used past those ends the call as not exhausted."""
    handed = []

    def take(vec, remaining):
        handed.append(remaining)
        return False, 0

    for n in (0, 1):
        assert search_vectors(n, [], 3, 10, 0) == ([], 1, False)
        assert search_vectors(n, [], 3, 10, 0, on_result=take) == ([], 1, False)
    assert handed == []
    assert search_vectors(0, [], 3, 10, 1, on_result=take) == ([()], 1, True)
    assert handed == [0]
    assert search_vectors(0, [], 3, 10, 1, on_result=lambda vec, remaining: (False, 1)) == ([()], 1, False)


def test_rank_zero_rejected_at_the_root_costs_no_node():
    """A rank-0 call whose constraints or pair rows fail at the empty vector
    is rejected at the root, as a call of any other rank whose root rules
    fail is: 0 nodes, exhausted, and no call of on_result, at any budget.
    A rank-0 plan takes its constants per call."""

    def never(vec, remaining):
        raise AssertionError("a rejected call hands nothing over")

    rejected = (
        (0, [([], [], 1, 0)], ()),  # 1 == 0
        (0, [([], [], 3, 2)], ()),  # 3 == 0 (mod 2)
        (0, [([], [], 4, 2)], [([], 1)]),  # the constraint holds, the pair row not
        (1, [([[0]], [0], 1, 0)], ()),  # a rank-1 call that the gcd rule rejects
    )
    for budget in (0, 1, 10):
        for n, cons, rows in rejected:
            assert search_vectors(n, cons, 3, 10, budget, rows=rows, on_result=never) == ([], 0, True)
    plan = Plan(0, [([], [], 2)])
    assert search_vectors(0, plan, 3, 10, 10, constants=[4]) == ([()], 1, True)
    assert search_vectors(0, plan, 3, 10, 10, constants=[3]) == ([], 0, True)
    assert search_vectors(0, plan, 3, 10, 0, constants=[4]) == ([], 1, False)


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
    # three block-diagonal calls (BLOCK_CALLS): complete, stopped by the
    # budget inside a replayed subtree, stopped by max_results at a
    # replayed result
    (41, 7785, True), (25, 5001, False), (8, 1803, False),
]


def block_call_constraints():
    """Three Eisenstein blocks x^2 + xy + y^2 and <1> (rank 7): the form
    equal to 4, a congruence mod 3 on it, and one pair row; the depths 2 and
    4 split them."""
    n = 7
    a = [[0] * n for _ in range(n)]
    for i in (0, 2, 4):
        a[i][i] = a[i][i + 1] = a[i + 1][i + 1] = 1
    a[6][6] = 1
    cons = [(a, [0] * n, -4, 0), (a, [1, 0, 2, 0, 1, 0, 1], 0, 3)]
    return n, cons, [([1, -1, 0, 1, 0, 0, 1], 0)]


BLOCK_CALLS = [(10**6, 10**7), (10**6, 5000), (8, 10**7)]  # (max_results, max_nodes)


def test_kernel_node_counts_are_pinned():
    rng = random.Random(37)
    got = []
    for i in range(len(KERNEL_PINNED) - len(BLOCK_CALLS)):
        n, cons, b, norm = mixed_case(rng, ("linear", "quadratic", "mixed")[i % 3], 6)
        budget = rng.choice([10**7, 10**7, 30, 300])
        cap = rng.choice([10**6, 10**6, 2])
        res, nodes, exhausted = search_vectors(n, cons, b, cap, budget, norm)
        got.append((len(res), nodes, exhausted))
        # the one stop rule: stopped by neither max_results nor the budget
        assert exhausted == (len(res) < cap and nodes <= budget)
    n, cons, rows = block_call_constraints()
    plan, constants = plan_of(n, cons)
    assert plan.splits == [2, 4]
    for cap, budget in BLOCK_CALLS:
        res, nodes, exhausted = search_vectors(n, plan, 2, cap, budget, rows=rows, constants=constants)
        got.append((len(res), nodes, exhausted))
        assert exhausted == (len(res) < cap and nodes <= budget)
    assert got == KERNEL_PINNED


def test_plan_views_match_flat_constraints():
    """A plan searched with pair rows gives exactly what the flat list of
    its constraints and the rows' quadruples gives, as (results, nodes,
    exhausted); one plan serves bounds 0-3 and different rows in turn, so
    a set-up cached for one bound or one call must not leak into
    another.  A complete search is also checked against brute force."""
    rng = random.Random(41)
    complete = 0
    for i in range(150):
        n, fixed, _, _ = mixed_case(rng, ("linear", "quadratic", "mixed")[i % 3])
        plan, constants = plan_of(n, fixed)
        for _ in range(6):
            rows = [
                ([rng.randint(-2, 2) for _ in range(n)], rng.randint(-2, 2))
                for _ in range(rng.randint(0, 2))
            ]
            flat = fixed + [((), l, c, 0) for l, c in rows]
            b = rng.randint(0, 3 if n < 4 else 2)
            budget = rng.choice([10**7, 10**7, 1, 5, 40])
            cap = rng.choice([10**6, 1])
            norm = rng.random() < 0.5
            got = search_vectors(n, plan, b, cap, budget, norm, rows=rows, constants=constants)
            assert got == search_vectors(n, flat, b, cap, budget, norm), (i, rows, b)
            if got[2] and cap > 1:
                zero = [[0] * n for _ in range(n)]
                assert got[0] == brute(n, fixed + [(zero, l, c, 0) for l, c in rows], b, norm)
                complete += 1
        # without rows, a plan searches its own constraints
        assert search_vectors(n, plan, 2, 10**6, 10**7, constants=constants) == search_vectors(n, fixed, 2, 10**6, 10**7)
    assert complete >= 300


def test_least_bound_is_the_least_box_the_root_admits():
    """`Plan.least_bound(first, last, constants)` against a scan of every
    bound: the least bound in first..last at which a kernel call at budget
    0 visits its first node (a call that a root rule rejects visits none),
    or None.  The constants are large, so that the root's interval rule
    rejects the small boxes; the gcd rule rejects every box or none."""
    rng = random.Random(59)
    shapes = set()
    for i in range(300):
        n, cons, _, _ = mixed_case(rng, ("linear", "quadratic", "mixed")[i % 3], 3)
        cons = [(a, l, c * rng.randint(1, 15), m) for a, l, c, m in cons]
        admitted = [b for b in range(13) if search_vectors(n, cons, b, 1, 0)[1]]
        plan, constants = plan_of(n, cons)
        assert admitted == [b for b in range(13) if not plan.rejects(b, constants)]
        # the rejected bounds are a prefix
        assert admitted == list(range(13 - len(admitted), 13))
        for first, last in ((0, 12), (1, 12), (3, 7), (5, 5)):
            want = next((b for b in admitted if first <= b <= last), None)
            assert plan.least_bound(first, last, constants) == want, (i, first, last)
        shapes.add(min(admitted, default=None) if len(admitted) < 12 else 0)
    assert None in shapes and len(shapes) >= 5


def block_diagonal_case(rng):
    """(n, constraints, rows) whose symmetrised quadratic parts are
    block-diagonal: 2-3 blocks of rank 1-3, 1-3 exact or modular quadratic
    constraints (an antisymmetric entry across two blocks symmetrises to
    zero) and 0-2 pair rows."""
    sizes = [rng.randint(1, 3) for _ in range(rng.randint(2, 3))]
    block = [b for b, size in enumerate(sizes) for _ in range(size)]
    n = len(block)
    cons = []
    for _ in range(rng.randint(1, 3)):
        a = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                if block[i] == block[j]:
                    a[i][j] = rng.randint(-2, 2)
                elif rng.random() < 0.1:
                    a[i][j] = rng.randint(-2, 2)
                    a[j][i] = -a[i][j]
        l = [rng.randint(-2, 2) for _ in range(n)]
        cons.append((a, l, rng.randint(-3, 3), rng.choice([0, 0, 2, 3, 4])))
    rows = [([rng.randint(-1, 1) for _ in range(n)], rng.randint(-1, 1)) for _ in range(rng.randint(0, 2))]
    return n, cons, rows


def coupling(n):
    """x_0 x_{n-1} == 0 (mod 1): it never prunes, but it couples x_0 with
    x_{n-1}, so that no depth splits the constraints."""
    a = [[0] * n for _ in range(n)]
    a[0][n - 1] = 1
    return a, [0] * n, 0, 1


def test_replay_matches_the_walk():
    """A search with splits (subtrees below a split replayed) gives exactly
    the (results, nodes, exhausted) of the same search with the coupling
    constraint added (no split, every subtree walked): complete, stopped
    by budgets anywhere in the tree, and stopped by max_results 1 and 3,
    under both normalisations.  Complete searches also equal brute force."""
    rng = random.Random(53)
    split_cases = brute_checked = 0
    for i in range(300):
        n, cons, rows = block_diagonal_case(rng)
        b = rng.randint(0, 2 if n <= 5 else 1)
        norm = i % 2 == 0
        (split, constants), (walk, walk_constants) = plan_of(n, cons), plan_of(n, cons + [coupling(n)])
        assert walk.splits == []
        split_cases += bool(split.splits and not split.rejects(b, constants))
        full = search_vectors(n, walk, b, 10**6, 10**7, norm, rows=rows, constants=walk_constants)
        assert search_vectors(n, split, b, 10**6, 10**7, norm, rows=rows, constants=constants) == full, i
        if (2 * b + 1) ** n <= 3**5:
            zero = [[0] * n for _ in range(n)]
            assert full[0] == brute(n, cons + [(zero, l, c, 0) for l, c in rows], b, norm)
            brute_checked += 1
        budgets = [rng.randint(1, full[1]) for _ in range(3)] if full[1] else [0]
        for cap, budget in [(10**6, budget) for budget in budgets] + [(1, 10**7), (3, 10**7), (3, budgets[0])]:
            want = search_vectors(n, walk, b, cap, budget, norm, rows=rows, constants=walk_constants)
            assert search_vectors(n, split, b, cap, budget, norm, rows=rows, constants=constants) == want, (i, cap, budget)
    assert split_cases >= 180 and brute_checked >= 150


def test_on_result_sees_each_result_as_the_walk_finds_it():
    """With on_result, a call hands over each result with what is left of
    its budget, and counts what on_result used against that budget.
    Returning (False, 0) changes nothing: the same results, in the same
    order, and the same (results, nodes, exhausted).  With used > 0 and a
    stop, a search with splits (replayed subtrees) sees the same results
    with the same remaining budgets, and returns the same, as the search
    with every subtree walked.  A used that passes the budget stops the
    call at once, so the call's own nodes and every used add up to at most
    max_nodes + 1, and the call is exhausted exactly when it was not
    stopped and they add up to at most max_nodes."""
    rng = random.Random(67)
    stopped = replayed = 0
    for i in range(200):
        n, cons, rows = block_diagonal_case(rng)
        b = rng.randint(0, 2 if n <= 5 else 1)
        norm = i % 2 == 0
        (split, constants), (walk, walk_constants) = plan_of(n, cons), plan_of(n, cons + [coupling(n)])
        full = search_vectors(n, walk, b, 10**6, 10**7, norm, rows=rows, constants=walk_constants)
        seen = []
        out = search_vectors(n, split, b, 10**6, 10**7, norm, rows=rows, constants=constants,
                             on_result=lambda vec, remaining: (seen.append(vec), (False, 0))[1])
        assert out == full and seen == full[0]
        budget = rng.randint(0, full[1] + 5)
        stop_at, over_at = rng.randint(1, len(full[0]) + 1), rng.randint(1, len(full[0]) + 1)
        runs = []
        for plan, cs in ((split, constants), (walk, walk_constants)):
            handed = []

            def take(vec, remaining):
                # a nested search of up to 3 nodes within what is left, and
                # at one result one that runs one node past it
                used = remaining + 1 if len(handed) + 1 == over_at else min(sum(map(abs, vec)) % 4, remaining)
                handed.append((vec, remaining, used))
                return len(handed) == stop_at, used

            out = search_vectors(n, plan, b, 10**6, budget, norm, rows=rows, on_result=take, constants=cs)
            assert all(remaining >= 0 for _, remaining, _ in handed)
            assert out[0] == [vec for vec, _, _ in handed]
            spent = out[1] + sum(used for _, _, used in handed)
            assert spent <= budget + 1
            assert out[2] == (len(handed) != stop_at and spent <= budget)
            runs.append((out, handed))
        assert runs[0] == runs[1], i
        stopped += not runs[0][0][2]
        replayed += bool(split.splits and not split.rejects(b, constants))
    assert stopped >= 100 and replayed >= 100, (stopped, replayed)

def _inner_calls(call):
    """call()'s result and the number of frames of the kernel's inner
    functions (the walk and the replay) entered while it ran.  They are
    generators, and the profiler sees a "call" each time one resumes, so the
    frames are counted, not the events; holding them keeps each one's id
    its own."""
    frames = set()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_name in ("rec", "replay"):
            if frame.f_code.co_filename == search_vectors.__code__.co_filename:
                frames.add(frame)
    sys.setprofile(profile)
    try:
        out = call()
    finally:
        sys.setprofile(None)
    return out, len(frames)


def test_replay_skips_repeated_subtrees():
    """Four Eisenstein blocks x^2 + xy + y^2 (rank 8) at bound 2: with the
    splits the kernel enters its inner functions a small fraction of the
    times it does with the coupling constraint, for the same results and
    nodes.  An antisymmetric entry across two blocks symmetrises to zero,
    so it leaves the splits (and the count) as they are."""
    n = 8
    a = [[0] * n for _ in range(n)]
    for i in range(0, n, 2):
        a[i][i] = a[i][i + 1] = a[i + 1][i + 1] = 1
    skew = [list(r) for r in a]
    skew[1][6], skew[6][1] = 3, -3
    cons = [(a, [0] * n, -4, 0), (a, [1, 0, 0, 1, 1, 0, 0, 1], 0, 3)]
    skewed = [(skew, l, c, m) for _, l, c, m in cons]
    assert plan_of(n, cons)[0].splits == plan_of(n, skewed)[0].splits == [2, 4, 6]
    runs = [
        _inner_calls(lambda: search_vectors(n, c, 2, 10**6, 10**7))
        for c in (cons, skewed, cons + [coupling(n)])
    ]
    (out, replayed), (skew_out, skew_replayed), (walked_out, walked) = runs
    assert out == skew_out == walked_out and len(out[0]) == 584 and out[1:] == (60500, True)
    assert replayed == skew_replayed and 5 * replayed < walked


def test_splits_read_the_symmetrised_matrix():
    """A depth d splits the constraints when S_ij = A_ij + A_ji is zero for
    every i < d <= j: an entry below the diagonal couples as one above it
    does, and an antisymmetric pair does not.  Either way the searches
    equal brute force."""
    n = 4
    for entries, splits in (
        ({}, [1, 2]),
        ({(0, 3): 1}, []),
        ({(3, 0): 1}, []),
        ({(2, 1): 2}, [1]),
        ({(1, 2): 1, (2, 1): -1}, [1, 2]),
    ):
        a = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
        for (i, j), e in entries.items():
            a[i][j] = e
        cons = [(a, [0, 1, 0, -1], -3, 0), (a, [1, 0, 2, 0], 1, 3)]
        assert plan_of(n, cons)[0].splits == splits, entries
        for norm in (False, True):
            got, _, exhausted = search_vectors(n, cons, 2, 10**6, 10**7, norm)
            assert exhausted and got == brute(n, cons, 2, norm)


def steps_from_scratch(n, parts, bound):
    """Reference for `search._add_steps`: every depth's steps of the box of
    `bound`, each row's recurrence run from scratch at that bound.  A row
    is linear when A symmetrised is zero; a linear row's steps are (l_d,
    gcd(m, l_j for j > d), bound * sum(|l_j| for j > d), exact), a
    quadratic row's (S_dd, the row S_dj for j > d reversed, the gcd of m
    and every S_ij for i > d, the interval of the open quadratic part over
    the box, exact)."""
    from math import gcd

    b2 = bound * bound
    lin_steps, quad_steps = [[] for _ in range(n)], [[] for _ in range(n)]
    for a, l, m in parts:
        sym = [[a[i][j] + a[j][i] if a else 0 for j in range(n)] for i in range(n)]
        if not any(map(any, sym)):
            g, t = m, 0
            for d in range(n - 1, -1, -1):
                lin_steps[d].append((l[d], g, t, m == 0))
                g, t = gcd(g, l[d]), t + abs(l[d]) * bound
            continue
        g, lo, hi = m, 0, 0
        for d in range(n - 1, -1, -1):
            sdd, row = sym[d][d] // 2, sym[d][d + 1:]
            quad_steps[d].append((sdd, row[::-1], g, lo, hi, m == 0))
            g = gcd(g, sdd, *row)
            t = sum(map(abs, row)) * b2
            lo, hi = lo + min(sdd * b2, 0) - t, hi + max(sdd * b2, 0) + t
    return lin_steps, quad_steps


def test_scaled_steps_match_the_recurrence_at_each_bound():
    """A plan reads its rows' steps at bound 1 once; `_add_steps(plan, b)`
    scales them (a gcd stays, a reach grows by b, an interval by b^2).
    Seeded rows, exact and modular, quadratic, linear, empty and
    anti-symmetric A (linear once symmetrised), with coefficients near
    2**70, give at every bound 0..5 the steps that the recurrence run at
    that bound gives, and each row's root data is that recurrence's final
    values at bound 1."""
    from math import gcd

    from qwitt import search

    rng = random.Random(4040)
    big = 2**70
    kinds = set()
    for _ in range(300):
        n = rng.randint(0, 5)
        parts = []
        for _ in range(rng.randint(1, 4)):
            kind = rng.choice(["quadratic", "linear", "empty", "anti"])
            scale = rng.choice([1, big])

            def entry():
                return rng.choice([0, 0, 1, -1, 2, -3]) * scale + rng.choice([0, rng.randint(-9, 9)])

            a = [[entry() for _ in range(n)] for _ in range(n)]
            if kind == "anti":
                a = [[a[i][j] - a[j][i] for j in range(n)] for i in range(n)]
            elif kind == "empty":
                a = ()
            elif kind == "linear":
                a = [[0] * n for _ in range(n)]
            m = rng.choice([0, 0, 2, 6, big + 1])
            parts.append((a, [entry() for _ in range(n)], m))
            kinds.add((kind, m == 0, scale == big))
        plan = Plan(n, parts)
        for b in range(6):
            assert search._add_steps(plan, b) == steps_from_scratch(n, parts, b), (n, parts, b)
        # the root data: the recurrence's final values at bound 1, with l
        lin, quad = iter(plan.lin), iter(plan.quad)
        for i, (a, l, m) in enumerate(parts):
            sym = [[a[r][c] + a[c][r] if a else 0 for c in range(n)] for r in range(n)]
            entries = [sym[d][d] // 2 for d in range(n)] + [sym[r][c] for r in range(n) for c in range(r + 1, n)]
            lo = sum(min(sym[d][d] // 2, 0) for d in range(n)) - sum(abs(e) for e in entries[n:])
            hi = sum(max(sym[d][d] // 2, 0) for d in range(n)) + sum(abs(e) for e in entries[n:])
            assert next(quad if any(map(any, sym)) else lin) == i
            assert plan._root[i] == (gcd(m, *l, *entries), lo, hi, sum(map(abs, l)), m == 0)
    assert {(k, exact, large) for k in ("quadratic", "linear", "empty", "anti") for exact in (True, False) for large in (True, False)} <= kinds, kinds
