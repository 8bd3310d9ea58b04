"""The bounded integer vector search kernel.

A constraint is a quadruple (A, l, c, m) demanding

    sum_ij A[i][j] x_i x_j + sum_i l[i] x_i + c == 0      (m == 0)
    ... == 0 (mod m)                                      (m >  0)

over the box |x_i| <= bound.  Enumeration is depth-first in coordinate order
with values -bound..bound ascending, so results arrive in a fixed order and
a call stopped by its node budget returns a prefix of the full results.
All arithmetic is on Python integers, so it is exact at any coefficient
size.

Once x_0 .. x_{d-1} are set, what is left of a constraint is a polynomial
in the open coordinates x_d .. x_{n-1}: the purely open quadratic part
(fixed per depth) plus the linear coefficients l_j + sum_{i<d} S_ij x_i,
S being A symmetrised.  The kernel keeps those coefficients up to date as
coordinates are set, and precomputes per depth the gcd and the interval of
the open quadratic part, so a node costs O(n) per constraint.  A node is
pruned

- for every constraint, when g, the gcd of m, the open quadratic entries
  and the open linear coefficients, does not divide the value so far (or
  g == 0 and the value is not 0): every value of the open part is a
  multiple of g, so no integer completion satisfies the constraint;
- for an exact constraint, when the interval of the open part over the
  box cannot bring the value to 0.

At the root the gcd rule does not depend on the bound: a constraint that
`unsolvable` rejects has no integer solution at all, and the search costs
0 nodes.  With normalize_first_positive, a negative value of the first
non-zero coordinate is never visited.
"""

from __future__ import annotations

from math import gcd
from typing import List, Sequence, Tuple

Constraint = Tuple[Sequence[Sequence[int]], Sequence[int], int, int]

# The benchmark (perfbench/run.py, perfbench/kernels.py) reads BACKEND and
# available_backends(); there is one kernel, so both name only this one.
BACKEND = "python"


def _quadratic_entries(a: Sequence[Sequence[int]], n: int, i: int) -> List[int]:
    """Row i of A symmetrised, from the diagonal on: A_ii, then A_ij + A_ji."""
    return [a[i][i]] + [a[i][j] + a[j][i] for j in range(i + 1, n)]


def unsolvable(constraint: Constraint) -> bool:
    """Whether the gcd rule shows that no integer vector satisfies the
    constraint, at any bound: the gcd of m and every coefficient (A
    symmetrised) does not divide c."""
    a, l, c, m = constraint
    n = len(l)
    g = gcd(m, *l, *(e for i in range(n) for e in _quadratic_entries(a, n, i)))
    return c % g != 0 if g else c != 0


def search_vectors(
    n: int,
    constraints: Sequence[Constraint],
    bound: int,
    max_results: int,
    max_nodes: int,
    normalize_first_positive: bool = False,
) -> Tuple[List[Tuple[int, ...]], int, bool]:
    """Enumerate box vectors satisfying every constraint.

    Returns (results, nodes_visited, exhausted); exhausted is False when the
    search stopped early on max_results or max_nodes.  A node is one value
    tried for one coordinate.
    """
    if n == 0:
        ok = all((c % m == 0) if m else (c == 0) for _, _, c, m in constraints)
        return ([()] if ok else []), 1, True

    b2 = bound * bound
    # steps[d]: per constraint, what setting x_d needs: S_dd; the row S_dj,
    # j > d, reversed; the gcd g (with m) and the interval lo..hi of the
    # open quadratic part at depth d + 1; whether the constraint is exact
    steps: List[list] = [[] for _ in range(n)]
    values, coefs = [], []
    for a, l, c, m in constraints:
        g, lo, hi = m, 0, 0
        for d in range(n - 1, -1, -1):
            sdd, *row = _quadratic_entries(a, n, d)
            steps[d].append((sdd, row[::-1], g, lo, hi, m == 0))
            g = gcd(g, sdd, *row)
            t = sum(map(abs, row)) * b2
            lo += min(sdd * b2, 0) - t
            hi += max(sdd * b2, 0) + t
        g = gcd(g, *l)  # the root gcd rule, as `unsolvable` applies it
        if c % g if g else c:
            return [], 0, True
        values.append(c)
        # open linear coefficients, last coordinate first
        coefs.append(list(l)[::-1])
        if m == 0:
            t = sum(map(abs, l)) * bound
            if c + lo - t > 0 or c + hi + t < 0:
                return [], 0, True

    results: List[Tuple[int, ...]] = []
    x = [0] * n
    nodes = 0
    exhausted = True
    last = n - 1
    # at the last coordinate the open part is empty: g == m, and the rule
    # is the constraint itself
    last_step = [(sdd, g) for sdd, _, g, _, _, _ in steps[last]]

    def rec(d: int, values: list, coefs: list, lead: bool) -> bool:
        # lead: x_0 .. x_{d-1} are all zero
        nonlocal nodes, exhausted
        first = 0 if lead and normalize_first_positive else -bound
        if d == last:
            for val in range(first, bound + 1):
                nodes += 1
                if nodes > max_nodes:
                    exhausted = False
                    return False
                for (sdd, m), v, cs in zip(last_step, values, coefs):
                    v += (sdd * val + cs[0]) * val
                    if v % m if m else v:
                        break
                else:
                    x[d] = val
                    results.append(tuple(x))
                    if len(results) >= max_results:
                        exhausted = False
                        return False
            return True
        step = steps[d]
        for val in range(first, bound + 1):
            nodes += 1
            if nodes > max_nodes:
                exhausted = False
                return False
            x[d] = val
            child_values, child_coefs = [], []
            for (sdd, row, g, lo, hi, exact), v, cs in zip(step, values, coefs):
                v += (sdd * val + cs[-1]) * val
                cs = [c + s * val for c, s in zip(cs, row)]
                g = gcd(g, *cs)
                if v % g if g else v:
                    break
                if exact:
                    t = sum(map(abs, cs)) * bound
                    if v + lo - t > 0 or v + hi + t < 0:
                        break
                child_values.append(v)
                child_coefs.append(cs)
            else:
                if not rec(d + 1, child_values, child_coefs, lead and not val):
                    return False
        return True

    rec(0, values, coefs, True)
    rec = None  # break the closure's cycle: its lists go now, not at a gc
    return results, nodes, exhausted


def available_backends():
    return {"python": search_vectors}
