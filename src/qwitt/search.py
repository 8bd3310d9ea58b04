"""The bounded integer vector search kernel.

A constraint is a quadruple (A, l, c, m) demanding

    sum_ij A[i][j] x_i x_j + sum_i l[i] x_i + c == 0      (m == 0)
    ... == 0 (mod m)                                      (m >  0)

over the box |x_i| <= bound.  Exact constraints are pruned with interval
arithmetic on the not-yet-assigned coordinates; modular ones are checked on
completed vectors.  Enumeration is depth-first in coordinate order with
values -bound..bound ascending, so results arrive in a fixed order.  All
arithmetic is on Python integers, so it is exact at any coefficient size.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

# The benchmark (perfbench/run.py, perfbench/kernels.py) reads BACKEND and
# available_backends(); there is one kernel, so both name only this one.
BACKEND = "python"


def search_vectors(
    n: int,
    constraints: Sequence[Tuple[Sequence[Sequence[int]], Sequence[int], int, int]],
    bound: int,
    max_results: int,
    max_nodes: int,
    normalize_first_positive: bool = False,
) -> Tuple[List[Tuple[int, ...]], int, bool]:
    """Enumerate box vectors satisfying every constraint.

    Returns (results, nodes_visited, exhausted); exhausted is False when the
    search stopped early on max_results or max_nodes.
    """
    if n == 0:
        ok = all((c % m == 0) if m else (c == 0) for _, _, c, m in constraints)
        return ([()] if ok else []), 1, True

    # symmetrise: S[i][j] = A[i][j] + A[j][i] for i != j, S[i][i] = A[i][i]
    quads = []
    for a, l, c, m in constraints:
        s = [[0] * n for _ in range(n)]
        for i in range(n):
            s[i][i] = a[i][i]
            for j in range(i + 1, n):
                s[i][j] = a[i][j] + a[j][i]
        quads.append((s, list(l), c, m))

    results: List[Tuple[int, ...]] = []
    x = [0] * n
    nodes = 0
    exhausted = True
    b2 = bound * bound

    # value[k][d] = constraint k value restricted to coords < d
    values = [[0] * (n + 1) for _ in quads]
    for k, (_, _, c, _) in enumerate(quads):
        values[k][0] = c

    def remaining_interval(k: int, d: int) -> Tuple[int, int]:
        # range of the terms involving any coordinate >= d
        s, l, _, _ = quads[k]
        lo = hi = 0
        for j in range(d, n):
            coef = l[j]
            for i in range(d):
                coef += s[i][j] * x[i]
            t = abs(coef) * bound
            lo -= t
            hi += t
            q = s[j][j] * b2
            if q > 0:
                hi += q
            else:
                lo += q
            for i in range(d, j):
                t = abs(s[i][j]) * b2
                lo -= t
                hi += t
        return lo, hi

    def rec(d: int) -> bool:
        nonlocal nodes, exhausted
        if d == n:
            for k, (_, _, _, m) in enumerate(quads):
                v = values[k][n]
                if (v % m if m else v) != 0:
                    return True
            vec = tuple(x)
            if normalize_first_positive:
                for e in vec:
                    if e:
                        if e < 0:
                            return True
                        break
            results.append(vec)
            if len(results) >= max_results:
                exhausted = False
                return False
            return True
        # feasibility of exact constraints at this node
        for k, (_, _, _, m) in enumerate(quads):
            if m == 0:
                lo, hi = remaining_interval(k, d)
                v = values[k][d]
                if v + lo > 0 or v + hi < 0:
                    return True
        for val in range(-bound, bound + 1):
            nodes += 1
            if nodes > max_nodes:
                exhausted = False
                return False
            x[d] = val
            for k, (s, l, _, _) in enumerate(quads):
                lin = l[d]
                for i in range(d):
                    lin += s[i][d] * x[i]
                values[k][d + 1] = values[k][d] + s[d][d] * val * val + lin * val
            if not rec(d + 1):
                x[d] = 0
                return False
        x[d] = 0
        return True

    rec(0)
    return results, nodes, exhausted


def available_backends():
    return {"python": search_vectors}
