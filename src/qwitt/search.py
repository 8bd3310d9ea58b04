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
S being A symmetrised.  For a quadratic constraint (S != 0) the kernel
keeps those coefficients up to date as coordinates are set, and
precomputes per depth the gcd and the interval of the open quadratic part,
so a node costs O(n) for it.  For a linear one (S == 0) the open
coefficients are l_j at every node, so their gcd and their reach over the
box are precomputed per depth (as Fincke and Pohst, Math. Comp. 44 (1985),
precompute per depth), and a node costs O(1) for it.  A node is pruned

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
    # Per depth d, what setting x_d needs.  For a linear constraint
    # (A symmetrised is zero; its open coefficients never change):
    # lin_steps[d] holds l_d, g_d = gcd(m, l_j for j > d), t_d =
    # bound * sum(|l_j| for j > d), the reach of the open part, and whether
    # the constraint is exact.  For a quadratic one: quad_steps[d] holds
    # S_dd; the row S_dj, j > d, reversed; the gcd g (with m) and the
    # interval lo..hi of the open quadratic part at depth d + 1; whether the
    # constraint is exact.
    lin_steps: List[list] = [[] for _ in range(n)]
    quad_steps: List[list] = [[] for _ in range(n)]
    lin_values, quad_values, coefs = [], [], []
    for a, l, c, m in constraints:
        # A == 0 (a pair row) is linear at a glance; an antisymmetric A only
        # once symmetrised
        entries = [_quadratic_entries(a, n, d) for d in range(n)] if any(map(any, a)) else []
        g, lo, hi, t = m, 0, 0, 0
        if not any(map(any, entries)):
            for d in range(n - 1, -1, -1):
                lin_steps[d].append((l[d], g, t, m == 0))
                g = gcd(g, l[d])
                t += abs(l[d]) * bound
            lin_values.append(c)
        else:
            for d in range(n - 1, -1, -1):
                sdd, *row = entries[d]
                quad_steps[d].append((sdd, row[::-1], g, lo, hi, m == 0))
                g = gcd(g, sdd, *row)
                t = sum(map(abs, row)) * b2
                lo += min(sdd * b2, 0) - t
                hi += max(sdd * b2, 0) + t
            g = gcd(g, *l)
            t = sum(map(abs, l)) * bound
            quad_values.append(c)
            # open linear coefficients, last coordinate first
            coefs.append(list(l)[::-1])
        # the root rules, the gcd one as `unsolvable` applies it
        if c % g if g else c:
            return [], 0, True
        if m == 0 and (c + lo - t > 0 or c + hi + t < 0):
            return [], 0, True

    results: List[Tuple[int, ...]] = []
    x = [0] * n
    nodes = 0
    exhausted = True
    last = n - 1
    # at the last coordinate the open part is empty: g == m, and the rule
    # is the constraint itself
    lin_last = [(ld, g) for ld, g, _, _ in lin_steps[last]]
    quad_last = [(sdd, g) for sdd, _, g, _, _, _ in quad_steps[last]]

    def rec(d: int, lin: list, quad: list, coefs: list, lead: bool) -> bool:
        # lead: x_0 .. x_{d-1} are all zero
        nonlocal nodes, exhausted
        first = 0 if lead and normalize_first_positive else -bound
        if d == last:
            for val in range(first, bound + 1):
                nodes += 1
                if nodes > max_nodes:
                    exhausted = False
                    return False
                for (ld, m), v in zip(lin_last, lin):
                    v += ld * val
                    if v % m if m else v:
                        break
                else:
                    for (sdd, m), v, cs in zip(quad_last, quad, coefs):
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
        lin_step, quad_step = lin_steps[d], quad_steps[d]
        for val in range(first, bound + 1):
            nodes += 1
            if nodes > max_nodes:
                exhausted = False
                return False
            x[d] = val
            child_lin, child_quad, child_coefs = [], [], []
            for (ld, g, t, exact), v in zip(lin_step, lin):
                v += ld * val
                if (v % g if g else v) or exact and (v > t or v < -t):
                    break
                child_lin.append(v)
            else:
                for (sdd, row, g, lo, hi, exact), v, cs in zip(quad_step, quad, coefs):
                    v += (sdd * val + cs[-1]) * val
                    cs = [c + s * val for c, s in zip(cs, row)]
                    g = gcd(g, *cs)
                    if v % g if g else v:
                        break
                    if exact:
                        t = sum(map(abs, cs)) * bound
                        if v + lo - t > 0 or v + hi + t < 0:
                            break
                    child_quad.append(v)
                    child_coefs.append(cs)
                else:
                    if not rec(d + 1, child_lin, child_quad, child_coefs, lead and not val):
                        return False
        return True

    rec(0, lin_values, quad_values, coefs, True)
    rec = None  # break the closure's cycle: its lists go now, not at a gc
    return results, nodes, exhausted


def available_backends():
    return {"python": search_vectors}
