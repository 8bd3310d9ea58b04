"""Dense exact integer matrix routines: Smith normal form, solving, kernels.

Matrices are lists of row lists of Python ints.  Everything here is exact;
sizes stay small (rank <= ~60 in practice), so no effort is spent on
asymptotics beyond keeping SNF entries small: its pivot, the least non-zero
entry left, at least halves on each sweep that leaves a remainder (see SNF).
"""

from __future__ import annotations

from operator import mul
from typing import List, Optional, Sequence, Tuple

Matrix = List[List[int]]


def zeros(m: int, n: int) -> Matrix:
    return [[0] * n for _ in range(m)]


def identity(n: int) -> Matrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def copy(mat: Sequence[Sequence[int]]) -> Matrix:
    return [list(row) for row in mat]


def shape(mat: Sequence[Sequence[int]]) -> Tuple[int, int]:
    """(rows, columns); every routine that takes a matrix's width from here
    refuses one whose rows differ in length."""
    widths = set(map(len, mat))
    if len(widths) > 1:
        raise ValueError("matrix rows differ in length")
    return len(mat), widths.pop() if widths else 0


def transpose(mat: Sequence[Sequence[int]]) -> Matrix:
    shape(mat)
    return [list(col) for col in zip(*mat)]


def mat_mul(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> Matrix:
    m, k = shape(a)
    k2, n = shape(b)
    if k != k2:
        raise ValueError(f"dimension mismatch {k} != {k2}")
    bt = list(zip(*b))
    return [[sum(map(mul, row, col)) for col in bt] for row in a]


def mat_vec(a: Sequence[Sequence[int]], v: Sequence[int]) -> List[int]:
    if a and len(a[0]) != len(v):
        raise ValueError("dimension mismatch")
    return [sum(x * y for x, y in zip(row, v)) for row in a]


def _bareiss(mat: Sequence[Sequence[int]]) -> Tuple[int, int]:
    """(rank, sign * last pivot) by fraction-free (Bareiss) row echelon
    elimination, sign being that of the row permutation.

    Each entry stays a minor of `mat`, so entries grow no faster than a
    determinant; a column with no pivot left is passed over.  On a square
    matrix of full rank no column is passed over, and the last pivot is the
    determinant of the row-permuted matrix.
    """
    m, n = shape(mat)
    a = copy(mat)
    r, prev, sign = 0, 1, 1
    for c in range(n):
        piv = next((i for i in range(r, m) if a[i][c]), None)
        if piv is None:
            continue
        if piv != r:
            a[r], a[piv] = a[piv], a[r]
            sign = -sign
        p = a[r][c]
        for i in range(r + 1, m):
            row, q = a[i], a[i][c]
            for j in range(c + 1, n):
                row[j] = (row[j] * p - q * a[r][j]) // prev
            row[c] = 0
        prev = p
        r += 1
    return r, sign * prev


def determinant(mat: Sequence[Sequence[int]]) -> int:
    """Exact determinant via fraction-free Bareiss elimination."""
    m, n = shape(mat)
    if m != n:
        raise ValueError("determinant of a non-square matrix")
    r, d = _bareiss(mat)
    return d if r == n else 0


def rank(mat: Sequence[Sequence[int]]) -> int:
    """Rank by fraction-free (Bareiss) row echelon elimination."""
    return _bareiss(mat)[0]


class SNF:
    """Smith normal form with transforms: U @ A @ V == D.

    U, V are unimodular; D is diagonal with d1 | d2 | ... >= 0.  Uinv is
    maintained alongside so presentations can be lifted back.  `keep` names
    the transforms the caller reads, of "u", "uinv" and "v"; one not named
    is tracked as an empty matrix, which every step leaves as it is, and is
    None once the form is built.  The steps, and so D and the kept
    transforms, do not depend on `keep`.

    Step t moves the least non-zero |entry| of the remaining block to (t, t)
    and sweeps its column and row once with nearest-integer quotients (a tie
    takes the floor quotient), leaving remainders of at most half the pivot.
    A remainder left is the next pivot, so the pivot at least halves each
    round: the rounds are bounded by its bit length and multipliers stay
    small.  A cleared pivot not dividing the rest of the block takes an
    offending row into row t and goes round again.
    """

    __slots__ = ("d", "u", "v", "uinv", "rank")

    def __init__(
        self, mat: Sequence[Sequence[int]], keep: Sequence[str] = ("u", "uinv", "v")
    ):
        a = copy(mat)
        m, n = shape(a)
        # a transform not kept: U with rows of width 0, Uinv and V with no rows
        self.u = identity(m) if "u" in keep else [[] for _ in range(m)]
        self.uinv = identity(m) if "uinv" in keep else []
        self.v = identity(n) if "v" in keep else []
        self._reduce(a, m, n)
        for name in ("u", "uinv", "v"):
            if name not in keep:
                setattr(self, name, None)
        self.d = a
        self.rank = sum(1 for i in range(min(m, n)) if a[i][i] != 0)

    # -- elementary operations, mirrored into the transforms ---------------

    def _swap_rows(self, a: Matrix, i: int, j: int) -> None:
        a[i], a[j] = a[j], a[i]
        self.u[i], self.u[j] = self.u[j], self.u[i]
        for row in self.uinv:
            row[i], row[j] = row[j], row[i]

    def _swap_cols(self, a: Matrix, i: int, j: int) -> None:
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in self.v:
            row[i], row[j] = row[j], row[i]

    def _add_row(self, a: Matrix, src: int, dst: int, c: int) -> None:
        # row_dst += c * row_src
        a[dst] = [x + c * y for x, y in zip(a[dst], a[src])]
        self.u[dst] = [x + c * y for x, y in zip(self.u[dst], self.u[src])]
        for row in self.uinv:
            row[src] -= c * row[dst]

    def _add_col(self, a: Matrix, src: int, dst: int, c: int) -> None:
        for row in a:
            row[dst] += c * row[src]
        for row in self.v:
            row[dst] += c * row[src]

    def _negate_row(self, a: Matrix, i: int) -> None:
        a[i] = [-x for x in a[i]]
        self.u[i] = [-x for x in self.u[i]]
        for row in self.uinv:
            row[i] = -row[i]

    # -- main loop ----------------------------------------------------------

    def _pivot(self, a: Matrix, t: int, m: int, n: int):
        best = None
        for i in range(t, m):
            for j in range(t, n):
                x = abs(a[i][j])
                if x and (best is None or x < best[0]):
                    best = (x, i, j)
                    if x == 1:
                        return best[1], best[2]
        return None if best is None else (best[1], best[2])

    def _reduce(self, a: Matrix, m: int, n: int) -> None:
        t = 0
        while (piv := self._pivot(a, t, m, n)) is not None:
            i, j = piv
            if i != t:
                self._swap_rows(a, t, i)
            if j != t:
                self._swap_cols(a, t, j)
            # one sweep with nearest-integer quotients, a tie going to the
            # floor quotient: |remainder| <= |p|/2, for either sign of p
            p = a[t][t]
            for i in range(t + 1, m):
                if a[i][t]:
                    self._add_row(a, t, i, (p - 2 * a[i][t]) // (2 * p))
            for j in range(t + 1, n):
                if a[t][j]:
                    self._add_col(a, t, j, (p - 2 * a[t][j]) // (2 * p))
            if any(a[i][t] for i in range(t + 1, m)) or any(a[t][t + 1:]):
                continue  # a remainder is the next, at least halved, pivot
            if p < 0:
                self._negate_row(a, t)
                p = -p
            # force divisibility of the remaining block by the pivot; a unit
            # pivot divides every entry, so its block needs no scan
            for i in range(t + 1, m) if p != 1 else ():
                if any(x % p for x in a[i][t + 1:]):
                    self._add_row(a, i, t, 1)
                    break
            else:
                t += 1


class Solver:
    """What solving A @ x == rhs reads of an SNF of A: U, the non-zero
    diagonal entries of D, V and the rank.  One solver answers every
    right-hand side, and it holds neither D nor Uinv."""

    __slots__ = ("u", "diag", "v", "rank")
    # the transforms of the SNF it reads
    KEEP = ("u", "v")

    def __init__(self, snf: SNF):
        self.u, self.v, self.rank = snf.u, snf.v, snf.rank
        self.diag = [snf.d[i][i] for i in range(snf.rank)]

    def solve(self, rhs: Sequence[int]) -> Optional[List[int]]:
        """One integer solution x of A @ x == rhs, or None."""
        m, n = len(self.u), len(self.v)
        if len(rhs) != m:
            raise ValueError("dimension mismatch")
        c = mat_vec(self.u, list(rhs))
        z = [0] * n
        for i, d in enumerate(self.diag):
            if c[i] % d:
                return None
            z[i] = c[i] // d
        for i in range(self.rank, m):
            if c[i] != 0:
                return None
        return mat_vec(self.v, z)


def smith_normal_form(
    mat: Sequence[Sequence[int]],
) -> Tuple[Matrix, Matrix, Matrix]:
    """Return (U, D, V) with U @ mat @ V == D in Smith normal form."""
    s = SNF(mat)
    return s.u, s.d, s.v


def kernel_basis(mat: Sequence[Sequence[int]]) -> List[List[int]]:
    """Basis (as a list of vectors) of the integer kernel {x : mat @ x = 0}."""
    m, n = shape(mat)
    if n == 0:
        return []
    s = SNF(mat, keep=("v",))
    return [[s.v[i][j] for i in range(n)] for j in range(s.rank, n)]


def solve(
    mat: Sequence[Sequence[int]], rhs: Sequence[int]
) -> Optional[List[int]]:
    """One integer solution x of mat @ x == rhs, or None."""
    return Solver(SNF(mat, keep=Solver.KEEP)).solve(rhs)


def unimodular_inverse(mat: Sequence[Sequence[int]]) -> Matrix:
    """Inverse of a matrix with determinant +-1, by fraction-free (Bareiss)
    Gauss-Jordan elimination on [mat | I].

    Each column's pivot clears that column in every other row, above and
    below, so every entry stays a minor of [mat | I] and each division by
    the previous pivot is exact.  The left half ends as d * I, d being the
    last pivot, +-det(mat), and the right half as d * mat^-1: at d = +-1
    the inverse is d times the right half.  A row with a zero in the pivot
    column is left as it is when the pivot equals the previous one: its
    update (x * p - 0 * y) / p is the identity.
    """
    n = len(mat)
    if any(len(row) != n for row in mat):
        raise ValueError("matrix is not unimodular")
    a = [list(row) + e for row, e in zip(mat, identity(n))]
    prev = 1
    for c in range(n):
        piv = next((i for i in range(c, n) if a[i][c]), None)
        if piv is None:
            raise ValueError("matrix is not unimodular")
        a[c], a[piv] = a[piv], a[c]
        prow, p = a[c], a[c][c]
        for i in range(n):
            q = a[i][c]
            if i != c and (q or p != prev):
                a[i] = [(x * p - q * y) // prev for x, y in zip(a[i], prow)]
        prev = p
    if prev not in (1, -1):
        raise ValueError("matrix is not unimodular")
    return [[prev * x for x in row[n:]] for row in a]


def xgcd(a: int, b: int) -> Tuple[int, int, int]:
    """(g, x, y) with x*a + y*b == g == gcd(a, b) >= 0."""
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b:
        q, a, b = a // b, b, a % b
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    if a < 0:
        a, x0, y0 = -a, -x0, -y0
    return a, x0, y0


def _binom2(n: int) -> int:
    return n * (n - 1) // 2
