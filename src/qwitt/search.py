"""The bounded integer vector search kernel.

A constraint is a quadruple (A, l, c, m) demanding

    sum_ij A[i][j] x_i x_j + sum_i l[i] x_i + c == 0      (m == 0)
    ... == 0 (mod m)                                      (m >  0)

over the box |x_i| <= bound.  A may be empty, (), for a linear constraint
(a pair row or a later mu row of `qform._column_search`).  Enumeration is
depth-first in coordinate order with values -bound..bound ascending, so
results arrive in a fixed order and a call stopped by its node budget
returns a prefix of the full results.
All arithmetic is on Python integers, so it is exact at any coefficient
size.

The walk and the bookkeeping are apart.  The walkers are generators that
only walk: they yield each result as they find it and stop at the first
node past the call's limit.  One loop in `search_vectors` keeps the
results, stops at max_results and hands each result to the caller's
on_result before it resumes the walk.  The search driver searches the
next column there, with a kernel call of its own, so the tuples of
columns are visited depth-first without enumerating a whole box first.
The nodes such work used lower the limit, so a call and the calls nested
in it share one budget, and a call whose nested work passed it stops at
once.  While on_result runs the walk's frames are suspended, not on the
stack: a nested call costs a few frames, not one per coordinate.

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

Both rules are skipped where they cannot fire: the gcd rule when the set-up's
g is 1, and the interval rule while the value lies inside the interval of
the open quadratic part (the reach of the linear part is never negative).

A depth d is a split when no quadratic constraint couples x_0 .. x_{d-1}
with x_d .. x_{n-1}: S_ij = 0 for every i < d <= j, as in the constraints
on a column of an orthogonal sum.  At a split every open coefficient is the
constant l_j, so the subtree below the split depends only on the key
(whether the coordinates set so far are all zero under the normalisation,
the value of each linear constraint, the value of each quadratic one):
which values it tries, which it prunes, which suffixes x_d .. x_{n-1} it
returns and at which of its nodes each one appears.  Each call keeps a
table of them.  A subtree that runs to the end is recorded: its suffixes,
the node offset at which each was found, and its node total.  When the key
comes again the subtree is replayed, not walked: its suffixes go after the
current prefix, each yielded at its recorded node offset, and its nodes
are added, stopping at the limit exactly where the walk would.  A node
keeps its meaning, one value tried for one coordinate, whether it is
walked or replayed, so replaying changes no result and no node count.
The subtree of the last coordinate is one loop, cheaper walked than
looked up, so only splits before it are kept; a call whose constraints
have none records nothing.

At the root the gcd rule does not depend on the bound: a constraint that
`unsolvable` rejects has no integer solution at all, and the search costs
0 nodes.  With normalize_first_positive, a negative value of the first
non-zero coordinate is never visited.

The per-depth set-up (the symmetrised rows, the gcds, the intervals and
reaches, the root rules) depends only on the constraints and the bound,
so a `Plan` keeps it for the bound last asked for and the calls that
share the plan build it once; a call's own pair rows are its `rows`
argument, and only they are set up per call.
"""

from __future__ import annotations

from math import gcd
from typing import Callable, List, Optional, Sequence, Tuple

Constraint = Tuple[Sequence[Sequence[int]], Sequence[int], int, int]

# The benchmark (perfbench/run.py, perfbench/kernels.py) reads BACKEND and
# available_backends(); there is one kernel, so both name only this one.
BACKEND = "python"


def _quadratic_entries(a: Sequence[Sequence[int]], n: int, i: int) -> List[int]:
    """Row i of A symmetrised, from the diagonal on: A_ii, then A_ij + A_ji."""
    return [a[i][i]] + [a[i][j] + a[j][i] for j in range(i + 1, n)]


def _gcd_rejects(c: int, g: int) -> bool:
    """The gcd rule at the root: every value of the open part is a multiple
    of g, so c must be one too (g == 0: c must be 0)."""
    return c % g != 0 if g else c != 0


def unsolvable(constraint: Constraint) -> bool:
    """Whether the gcd rule shows that no integer vector satisfies the
    constraint, at any bound: the gcd of m and every coefficient (A
    symmetrised) does not divide c."""
    a, l, c, m = constraint
    n = len(l)
    g = gcd(m, *l, *(e for i in range(len(a)) for e in _quadratic_entries(a, n, i)))
    return _gcd_rejects(c, g)


def _add_linear(n: int, l: Sequence[int], m: int, bound: int, lin_steps: List[list]):
    """Add the steps of a linear constraint with coefficients l and modulus
    m to lin_steps, and return the root's (g, t): the gcd of m and l, and
    the reach of l over the box."""
    g, t = m, 0
    for d in range(n - 1, -1, -1):
        lin_steps[d].append((l[d], g, t, m == 0))
        g = gcd(g, l[d])
        t += abs(l[d]) * bound
    return g, t


def _add_steps(n: int, constraints: Sequence[Constraint], bound: int, steps: tuple) -> bool:
    """Add what the search of the box |x_i| <= bound needs of each
    constraint to steps = (lin_steps, quad_steps, lin_values, quad_values,
    coefs, splits); False, at the first constraint that a root rule shows no
    vector of the box satisfies."""
    b2 = bound * bound
    # Per depth d, what setting x_d needs.  For a linear constraint
    # (A symmetrised is zero; its open coefficients never change):
    # lin_steps[d] holds l_d, g_d = gcd(m, l_j for j > d), t_d =
    # bound * sum(|l_j| for j > d), the reach of the open part, and whether
    # the constraint is exact.  For a quadratic one: quad_steps[d] holds
    # S_dd; the row S_dj, j > d, reversed; the gcd g (with m) and the
    # interval lo..hi of the open quadratic part at depth d + 1; whether the
    # constraint is exact.
    lin_steps, quad_steps, lin_values, quad_values, coefs, splits = steps
    # coupled[i]: the last j with S_ij != 0 in some quadratic constraint
    coupled = list(range(n))
    for a, l, c, m in constraints:
        # an empty or zero A is linear at a glance; an antisymmetric A only
        # once symmetrised
        entries = [_quadratic_entries(a, n, d) for d in range(n)] if any(map(any, a)) else []
        lo = hi = 0
        if not any(map(any, entries)):
            g, t = _add_linear(n, l, m, bound, lin_steps)
            lin_values.append(c)
        else:
            g = m
            for d in range(n - 1, -1, -1):
                sdd, *row = entries[d]
                quad_steps[d].append((sdd, row[::-1], g, lo, hi, m == 0))
                g = gcd(g, sdd, *row)
                t = sum(map(abs, row)) * b2
                lo += min(sdd * b2, 0) - t
                hi += max(sdd * b2, 0) + t
                while row and not row[-1]:
                    row.pop()
                coupled[d] = max(coupled[d], d + len(row))
            g = gcd(g, *l)
            t = sum(map(abs, l)) * bound
            quad_values.append(c)
            # open linear coefficients, last coordinate first
            coefs.append(list(l)[::-1])
        # the root rules: g is the gcd of m and every coefficient
        if _gcd_rejects(c, g) or m == 0 and (c + lo - t > 0 or c + hi + t < 0):
            return False
    # depth d splits the constraints when no S_ij couples i < d with j >= d;
    # the last coordinate's subtree is one loop, cheaper walked than looked
    # up, so only the splits before it are kept
    reach = 0
    for d in range(1, n - 1):
        if coupled[d - 1] > reach:
            reach = coupled[d - 1]
        if reach < d:
            splits.append(d)
    return True


class Plan:
    """One depth's constraints, set up once for every call that shares them.

    The set-up (`_add_steps`) for a bound is built when a call first asks
    for that bound, and the one last asked for is kept: the driver searches
    one bound per pass.
    """

    __slots__ = ("n", "constraints", "_bound", "_steps")

    def __init__(self, n: int, constraints: Sequence[Constraint]):
        self.n = n
        self.constraints = constraints
        self._bound: Optional[int] = None  # _steps is the set-up of this bound
        self._steps = None

    def setup(self, bound: int):
        """The steps of the plan's own constraints for the box of `bound`,
        or None when a root rule rejects one."""
        if bound != self._bound:
            n = self.n
            steps = ([[] for _ in range(n)], [[] for _ in range(n)], [], [], [], [])
            ok = _add_steps(n, self.constraints, bound, steps)
            self._bound, self._steps = bound, steps if ok else None
        return self._steps

    def least_bound(self, first: int, last: int) -> Optional[int]:
        """The least bound in first..last whose box no root rule rejects,
        or None.  The gcd rule does not depend on the bound, and the interval
        rule is monotone in it (lo falls, hi and t grow with the bound), so
        the rejected bounds are a prefix: bisect for its end."""
        if self.setup(first) is not None:
            return first
        if self.setup(last) is None:
            return None
        while last - first > 1:  # first is rejected, last is not
            mid = (first + last) // 2
            if self.setup(mid) is None:
                first = mid
            else:
                last = mid
        return last


def search_vectors(
    n: int,
    plan: Plan | Sequence[Constraint],
    bound: int,
    max_results: int,
    max_nodes: int,
    normalize_first_positive: bool = False,
    rows: Sequence[Tuple[Sequence[int], int]] = (),
    on_result: Optional[Callable[[Tuple[int, ...], int], Tuple[bool, int]]] = None,
) -> Tuple[List[Tuple[int, ...]], int, bool]:
    """Enumerate box vectors satisfying every constraint.

    `plan` is a `Plan` or a list of quadruples, searched as the plan of that
    list.  Each of `rows` is an exact linear constraint (l, c), a call's own
    pair row: searching them is searching the plan's constraints followed by
    ((), l, c, 0) for each row.  Returns (results, nodes_visited,
    exhausted).  A node is one value tried for one coordinate, counted
    whether its subtree is walked or replayed from the table of a split
    (see the module docstring), so every result and node count is the one
    walking every subtree gives; a rank-0 call visits one node, the empty
    vector.

    With `on_result`, each result is handed to on_result(vec, remaining) as
    soon as it is found, before the walk goes on; remaining is what is left
    of max_nodes.  It returns (stop, used): stop ends the call, and used,
    the nodes that its own searches took, counts against max_nodes from
    then on.  nodes_visited is still the call's own nodes.

    The call stops at the first node at which its own nodes and every used
    add up to more than max_nodes, having visited max_nodes + 1 less every
    used; at once when a used brings them there; on stop; or at the result
    that reaches max_results, having visited the nodes up to its node.
    exhausted is True exactly when it was stopped by neither stop nor
    max_results and its nodes and every used add up to at most max_nodes.
    """
    if not isinstance(plan, Plan):
        plan = Plan(n, plan)
    x = [0] * n
    nodes = 0
    # the last node within the budget: max_nodes less every used so far
    limit = max_nodes
    # {(split depth, key): (nodes, [(node offset, suffix), ...])} of each
    # subtree below a split that ran to the end within the limit
    table = {}

    # The walkers, rec and replay, are generators that only walk: each
    # yields every result as it finds it and stops at the first node past
    # the limit.  The loop below may lower the limit while a result is out,
    # so after each result and each child they return once nodes > limit.
    def rec(d: int, lin: list, quad: list, coefs: list, lead: bool):
        # lead: x_0 .. x_{d-1} are all zero and the first non-zero coordinate
        # is to be positive
        nonlocal nodes
        first = 0 if lead else -bound
        if d == last:
            for val in range(first, bound + 1):
                nodes += 1
                if nodes > limit:
                    return
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
                        yield tuple(x)
                        if nodes > limit:
                            return
            return
        lin_step, quad_step = lin_steps[d], quad_steps[d]
        child = enter[d + 1]
        for val in range(first, bound + 1):
            nodes += 1
            if nodes > limit:
                return
            x[d] = val
            child_lin, child_quad, child_coefs = [], [], []
            for (ld, g, t, exact), v in zip(lin_step, lin):
                v += ld * val
                if (v % g if g else v) or exact and (v > t or v < -t):
                    break
                child_lin.append(v)
            else:
                for (sdd, row, g, lo, hi, exact), v, cs in zip(quad_step, quad, coefs):
                    if val:
                        v += (sdd * val + cs[-1]) * val
                        cs = [c + s * val for c, s in zip(cs, row)]
                    else:  # the value and the coefficients left stay
                        cs = cs[:-1]
                    if g != 1:  # every value is a multiple of 1
                        g = gcd(g, *cs)
                        if v % g if g else v:
                            break
                    # inside lo..hi the interval rule cannot fire: t >= 0
                    if exact and not lo <= -v <= hi:
                        t = sum(map(abs, cs)) * bound
                        if v + lo - t > 0 or v + hi + t < 0:
                            break
                    child_quad.append(v)
                    child_coefs.append(cs)
                else:
                    yield from child(d + 1, child_lin, child_quad, child_coefs, lead and not val)
                    if nodes > limit:
                        return

    def replay(d: int, lin: list, quad: list, coefs: list, lead: bool):
        # a split: the open coefficients are the constants l_j, so the subtree
        # depends on the key alone.  It is walked the first time, and kept
        # when it ran to the end within the limit; after that it is replayed,
        # stopping where the walk would: at the first node past the limit.
        nonlocal nodes
        key = (d, lead, *lin, *quad)
        known = table.get(key)
        start = nodes
        if known is None:
            found = []
            for vec in rec(d, lin, quad, coefs, lead):
                found.append((nodes - start, vec[d:]))
                yield vec
            if nodes <= limit:
                table[key] = (nodes - start, found)
            return
        total, found = known
        prefix = tuple(x[:d])
        for offset, suffix in found:
            if start + offset > limit:
                break
            nodes = start + offset
            yield prefix + suffix
            if nodes > limit:
                return
        nodes = min(start + total, limit + 1)

    if n == 0:
        # one node, the empty vector: a result when every constraint holds there
        nodes = 1
        ok = all((c % m == 0) if m else (c == 0) for _, _, c, m in plan.constraints)
        ok = ok and all(c == 0 for _, c in rows)
        walk = iter([()] if ok and nodes <= limit else [])
    else:
        steps = plan.setup(bound)
        if steps is None:
            return [], 0, True
        lin_steps, quad_steps, lin_values, quad_values, coefs, splits = steps
        if rows:
            # each row is an exact linear constraint: its steps go after the
            # plan's own, in copies of the plan's lists
            lin_steps = [list(depth) for depth in lin_steps]
            for l, c in rows:
                g, t = _add_linear(n, l, 0, bound, lin_steps)
                if _gcd_rejects(c, g) or c > t or c < -t:
                    return [], 0, True
            lin_values = lin_values + [c for _, c in rows]
        last = n - 1
        # at the last coordinate the open part is empty: g == m, and the rule
        # is the constraint itself
        lin_last = [(ld, g) for ld, g, _, _ in lin_steps[last]]
        quad_last = [(sdd, g) for sdd, _, g, _, _, _ in quad_steps[last]]
        # what searching x_d .. x_{n-1} is, per depth d
        enter = [rec] * n
        for d in splits:
            enter[d] = replay
        walk = rec(0, lin_values, quad_values, coefs, normalize_first_positive)
    # the one loop: it keeps the results, applies max_results and hands each
    # result to on_result, whose used lowers the limit the walkers stop at
    results: List[Tuple[int, ...]] = []
    stopped = False
    for vec in walk:
        results.append(vec)
        if on_result is not None:
            stopped, used = on_result(vec, limit - nodes)
            limit -= used
        if stopped or len(results) >= max_results:
            stopped = True
            break
    enter = None  # break the closures' cycle: their lists go now, not at a gc
    return results, nodes, not stopped and nodes <= limit


def available_backends():
    return {"python": search_vectors}
