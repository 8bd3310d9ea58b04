"""Brute-force references that the tests check the library against.

Each takes the plain route on purpose, written apart from the library's
own: the library reads matrices, mu columns and plans, and has no use for
these.
"""

from itertools import product
from math import gcd


def elements(group):
    """Every element of a finite group, the first coordinate running
    fastest."""
    if group.free_rank:
        raise ValueError("cannot enumerate an infinite group")
    for coords in product(*map(range, reversed(group.orders))):
        yield group.element(coords[::-1])


def lam(f, x, y):
    """lambda(x, y) of the form f at the coordinate vectors x and y."""
    if len(x) != f.rank or len(y) != f.rank:
        raise ValueError("vector length does not match the rank")
    return sum(xi * m * yj for xi, row in zip(x, f.lambda_matrix) for m, yj in zip(row, y))


def unsolvable(constraint):
    """Whether the gcd rule shows that no integer vector x satisfies the
    kernel constraint (A, l, c, m), x^T A x + l.x + c = 0 mod m (m = 0:
    exactly), at any bound: the gcd of m, l and the coefficients of x^T A x
    (A_ii, and A_ij + A_ji for i < j) does not divide c."""
    a, l, c, m = constraint
    quadratic = [a[i][j] + a[j][i] if i < j else a[i][i] for i in range(len(a)) for j in range(i, len(a))]
    g = gcd(m, *l, *quadratic)
    return c % g != 0 if g else c != 0
