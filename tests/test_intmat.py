import random
from fractions import Fraction

import pytest

from qwitt import _intmat
from qwitt._intmat import (
    SNF,
    Solver,
    determinant,
    identity,
    kernel_basis,
    mat_mul,
    mat_vec,
    rank,
    smith_normal_form,
    solve,
    unimodular_inverse,
    xgcd,
)


def random_matrix(rng, m, n, lo=-9, hi=9):
    return [[rng.randint(lo, hi) for _ in range(n)] for _ in range(m)]


def is_unimodular(mat):
    return determinant(mat) in (1, -1)


def check_snf(mat):
    u, d, v = smith_normal_form(mat)
    assert mat_mul(mat_mul(u, mat), v) == d
    assert is_unimodular(u) and is_unimodular(v)
    m, n = len(mat), len(mat[0]) if mat else 0
    diag = [d[i][i] for i in range(min(m, n))]
    for i in range(m):
        for j in range(n):
            if i != j:
                assert d[i][j] == 0
    for a, b in zip(diag, diag[1:]):
        if a:
            assert b % a == 0
        else:
            assert b == 0
    assert all(x >= 0 for x in diag)
    return diag


def test_snf_spec_examples():
    diag = check_snf([[2, 4], [6, 8]])
    assert diag == [2, 4]
    assert check_snf(identity(3)) == [1, 1, 1]
    assert check_snf([[0]]) == [0]


def test_snf_transform_inverses():
    rng = random.Random(1)
    for _ in range(60):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        s = SNF(random_matrix(rng, m, n))
        assert mat_mul(s.u, s.uinv) == identity(m)


def test_snf_keeps_only_the_named_transforms():
    # every step is taken whatever is kept, so D, the rank, each kept
    # transform and the sequence of row and column operations are those of
    # the full form; a transform not named is None
    steps = []

    class Recording(SNF):
        __slots__ = ()

        def _add_row(self, a, src, dst, c):
            steps.append(("row", src, dst, c))
            SNF._add_row(self, a, src, dst, c)

        def _add_col(self, a, src, dst, c):
            steps.append(("col", src, dst, c))
            SNF._add_col(self, a, src, dst, c)

    rng = random.Random(4)
    names = ("u", "uinv", "v")
    for _ in range(60):
        mat = random_matrix(rng, rng.randint(1, 5), rng.randint(1, 5), -20, 20)
        full = Recording(mat)
        full_steps, steps[:] = steps[:], []
        for keep in [(), ("u", "uinv"), ("u", "v"), ("v",), ("uinv",)]:
            s = Recording(mat, keep)
            assert steps == full_steps
            steps.clear()
            assert (s.d, s.rank) == (full.d, full.rank)
            for name in names:
                assert getattr(s, name) == (getattr(full, name) if name in keep else None)


def test_snf_random():
    rng = random.Random(2)
    for _ in range(120):
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        check_snf(random_matrix(rng, m, n))


def test_determinant():
    assert determinant([[2, 0], [0, 3]]) == 6
    assert determinant([[1, 2], [3, 4]]) == -2
    assert determinant([[0, 1], [1, 0]]) == -1
    # singular, with a non-zero last pivot: rank and determinant share one
    # elimination, and a rank below n must give 0
    assert determinant([[1, 2], [2, 4]]) == determinant([[0, 0, 3], [0, 0, 6], [1, 0, 0]]) == 0
    rng = random.Random(3)
    for _ in range(50):
        n = rng.randint(1, 5)
        a = random_matrix(rng, n, n)
        b = random_matrix(rng, n, n)
        assert determinant(mat_mul(a, b)) == determinant(a) * determinant(b)


# an earlier SNF loop stalled on both, its multipliers growing without bound
STALL = [
    [-3, 5, 5, -1, 0, 2, 5, -1], [5, 5, -1, 2, 1, 5, 0, -3],
    [5, -1, 2, 0, 0, 0, 2, 0], [-1, 2, 0, 1, -3, 0, 5, -1],
    [0, 1, 0, -3, 1, 0, 0, 0], [2, 5, 0, 0, 0, 2, -1, 0],
    [5, 0, 2, 5, 0, -1, -3, 0], [-1, -3, 0, -1, 0, 0, 0, 0],
]
SIX_BY_FIVE = [
    [1, -7, 12, 4, -28], [-14, -4, -13, 3, 3], [-18, -18, -18, 0, 8],
    [6, 12, 1, 1, 9], [18, 8, -1, -8, -6], [-27, 10, -2, 20, -7],
]


class MultiplierTooLarge(Exception):
    pass


@pytest.fixture
def guarded_snf(monkeypatch):
    """Make every SNF raise at a row or column multiplier over 128 bits,
    the way the benchmark's generator guards its SNFs."""
    snf = _intmat.SNF

    def check(c):
        if abs(c).bit_length() > 128:
            raise MultiplierTooLarge(c)

    class Guarded(snf):
        __slots__ = ()

        def _add_row(self, a, src, dst, c):
            check(c)
            snf._add_row(self, a, src, dst, c)

        def _add_col(self, a, src, dst, c):
            check(c)
            snf._add_col(self, a, src, dst, c)

    monkeypatch.setattr(_intmat, "SNF", Guarded)
    return Guarded


def _check_guarded(snf, mat):
    diag = check_snf(mat)
    s = snf(mat)
    assert mat_mul(s.u, s.uinv) == identity(len(mat))
    return diag


def test_snf_six_by_five_multipliers_stay_small(guarded_snf):
    assert _check_guarded(guarded_snf, SIX_BY_FIVE) == [1, 1, 1, 1, 624]


def test_snf_stall_multipliers_stay_small(guarded_snf):
    assert _check_guarded(guarded_snf, STALL) == [1] * 7 + [34350]


def test_snf_sweep_multipliers_stay_small(guarded_snf):
    rng = random.Random(7)
    for _ in range(400):
        m, n = rng.randint(1, 7), rng.randint(1, 7)
        _check_guarded(guarded_snf, random_matrix(rng, m, n, -100, 100))


def _fraction_rank(mat):
    """Rank by Gaussian elimination over Fraction (the reference)."""
    a = [[Fraction(x) for x in row] for row in mat]
    r = 0
    for c in range(len(mat[0]) if mat else 0):
        piv = next((i for i in range(r, len(a)) if a[i][c]), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        for i in range(r + 1, len(a)):
            q = a[i][c] / a[r][c]
            a[i] = [x - q * y for x, y in zip(a[i], a[r])]
        r += 1
    return r


def test_rank():
    assert rank([]) == rank([[]]) == rank([[0, 0], [0, 0]]) == 0
    assert rank([[1, 2], [2, 4]]) == 1
    assert rank([[0, 0, 3], [0, 0, 6], [1, 0, 0]]) == 2
    # fraction-free elimination keeps every entry a minor (for SNF on
    # STALL, see test_snf_stall_multipliers_stay_small)
    assert rank(STALL) == 8 and determinant(STALL) == 34350
    rng = random.Random(6)
    deficient = 0
    for _ in range(300):
        m, n = rng.randint(1, 7), rng.randint(1, 7)
        k = rng.randint(0, min(m, n))
        # a product through k dimensions (rank <= k), or sparse entries
        a = [[0] * n for _ in range(m)]
        if k:
            a = mat_mul(random_matrix(rng, m, k, -3, 3), random_matrix(rng, k, n, -3, 3))
        if rng.random() < 0.3:
            a = [[rng.choice([0, 0, 0, 1, -2]) for _ in range(n)] for _ in range(m)]
        r = rank(a)
        assert r == _fraction_rank(a), a
        deficient += r < min(m, n)
    assert deficient >= 50


def test_solve_and_kernel():
    rng = random.Random(4)
    for _ in range(80):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        a = random_matrix(rng, m, n, -4, 4)
        x = [rng.randint(-3, 3) for _ in range(n)]
        b = mat_vec(a, x)
        got = solve(a, b)
        assert got is not None
        assert mat_vec(a, got) == b
        for col in kernel_basis(a):
            assert mat_vec(a, col) == [0] * m


def test_one_snf_solves_many_right_hand_sides():
    rng = random.Random(12)
    for _ in range(40):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        a = random_matrix(rng, m, n, -4, 4)
        s = Solver(SNF(a))
        for _ in range(5):
            x = [rng.randint(-3, 3) for _ in range(n)]
            b = mat_vec(a, x)
            assert s.solve(b) == solve(a, b)
            assert mat_vec(a, s.solve(b)) == b
            odd = [e + rng.randint(0, 2) for e in b]
            assert s.solve(odd) == solve(a, odd)
            assert s.solve(odd) is None or mat_vec(a, s.solve(odd)) == odd


def test_solve_unsolvable():
    assert solve([[2]], [1]) is None
    assert solve([[2, 0], [0, 2]], [1, 0]) is None
    # a zero row of the Smith form: the rows past the rank must vanish
    assert solve([[1], [1]], [1, 0]) is None


def test_unimodular_inverse():
    from qwitt.sampling import random_unimodular

    rng = random.Random(5)
    for _ in range(40):
        n = rng.randint(1, 5)
        mat = identity(n)
        for _ in range(8):
            i, j = rng.randrange(n), rng.randrange(n)
            if i != j:
                c = rng.randint(-2, 2)
                for r in range(n):
                    mat[r][j] += c * mat[r][i]
        inv = unimodular_inverse(mat)
        assert mat_mul(mat, inv) == identity(n)
    rng = random.Random(22)
    for t in range(3000):
        n = t % 9
        mat = random_unimodular(rng, n, ops=rng.randint(0, 4 * n))
        inv = unimodular_inverse(mat)
        assert mat_mul(mat, inv) == identity(n)
        assert mat_mul(inv, mat) == identity(n)
    assert unimodular_inverse([]) == []


def test_unimodular_inverse_of_matrices_with_zeros_in_the_pivot_columns():
    # permutations and block-diagonal matrices: the rows a pivot leaves
    # unchanged are the ones with a zero in its column
    import itertools

    cases = []
    for n in range(1, 5):
        for perm in itertools.permutations(range(n)):
            cases.append([[1 if perm[i] == j else 0 for j in range(n)] for i in range(n)])
    blocks = [[[2, 1], [1, 1]], [[0, 1], [1, 0]], [[-1]], [[1, 3], [0, -1]], [[0, -1], [1, 0]]]
    for a, b in itertools.product(blocks, repeat=2):
        n, m = len(a), len(b)
        mat = [row + [0] * m for row in a] + [[0] * n + row for row in b]
        cases.append(mat)
        cases.append(mat[::-1])
    for mat in cases:
        inv = unimodular_inverse(mat)
        n = len(mat)
        assert mat_mul(mat, inv) == identity(n), mat
        assert mat_mul(inv, mat) == identity(n), mat


@pytest.mark.parametrize(
    "mat",
    [
        [[1, 2], [2, 4]],  # singular
        [[0, 0, 3], [0, 0, 6], [1, 0, 0]],  # singular, no pivot in column 1
        [[2, 0], [0, 1]],  # det 2
        [[1, 1], [-1, 1]],  # det 2
        [[0, 1], [2, 0]],  # det -2
        [[1, 0, 0], [0, 1, 0]],  # not square
        [[1], [0]],  # not square
        [[0]],
    ],
)
def test_unimodular_inverse_refuses(mat):
    with pytest.raises(ValueError, match="matrix is not unimodular"):
        unimodular_inverse(mat)


def test_ragged_rows_are_refused():
    # the first row does not set the width, so no entry is dropped
    with pytest.raises(ValueError, match="rows differ in length"):
        _intmat.transpose([[1], [0, 1]])
    with pytest.raises(ValueError, match="rows differ in length"):
        mat_mul([[1, 2]], [[1], [0, 1]])
    for fn in (determinant, rank, SNF, kernel_basis):
        with pytest.raises(ValueError, match="rows differ in length"):
            fn([[1], [0, 1]])


def test_mat_vec_checks_every_row():
    # a short row after the first used to drop the vector's last entry
    with pytest.raises(ValueError, match="rows differ in length"):
        mat_vec([[1, 2], [3]], [1, 1])
    with pytest.raises(ValueError, match="rows differ in length"):
        mat_vec([[1], [2, 3]], [1])
    with pytest.raises(ValueError, match="dimension mismatch"):
        mat_vec([[1], [2]], [1, 1])
    assert mat_vec([[1, 2], [3, 4]], [1, -1]) == [-1, -1]
    assert mat_vec([], [1, 2]) == [] and mat_vec([[], []], []) == [0, 0]


def test_unimodular_inverse_builds_no_snf(monkeypatch):
    def no_snf(mat):
        raise AssertionError("unimodular_inverse built an SNF")

    monkeypatch.setattr(_intmat, "SNF", no_snf)
    assert unimodular_inverse([[2, 1], [1, 1]]) == [[1, -1], [-1, 2]]
    # a zero leading entry takes a row swap; det -1
    assert unimodular_inverse([[0, 1, 0], [1, 0, 0], [0, 3, 1]]) == [
        [0, 1, 0],
        [1, 0, 0],
        [-3, 0, 1],
    ]

def test_xgcd():
    for a in range(-12, 13):
        for b in range(-12, 13):
            g, x, y = xgcd(a, b)
            assert g == abs(__import__("math").gcd(a, b))
            assert x * a + y * b == g
