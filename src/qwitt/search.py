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
`unsolvable` rejects has no integer solution at all.  A call that a root
rule rejects costs 0 nodes, whatever its rank.  With
normalize_first_positive, a negative value of the first non-zero
coordinate is never visited.

A plan is coefficients; a column depth of the search driver is only its
constants.  Every set-up (the symmetrised rows, the splits, the gcds, the
intervals and reaches) depends only on the coefficient parts (A, l, m) of
the constraints and the bound, never on their constants c, so a `Plan`
holds the parts with their steps at bound 1, read once by one recurrence
per row, and each call supplies the constants of the plan's rows.  Over
the box of bound b a gcd stays the same, a reach is b times its value at
bound 1 and an interval b^2 times it: a bound's steps are those scaled,
kept for the bound last asked for, and a call's root rules are read off
the recurrence's final values without a set-up.  A call's own pair rows
are its `rows` argument, and only they are set up per call.
"""

from __future__ import annotations

from math import gcd
from typing import Callable, List, Optional, Sequence, Tuple

Constraint = Tuple[Sequence[Sequence[int]], Sequence[int], int, int]
# a constraint without its constant: (A, l, m)
Part = Tuple[Sequence[Sequence[int]], Sequence[int], int]

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


def _root_rejects(c: int, g: int, low: int, high: int, exact: bool) -> bool:
    """The root rules for a row with constant c whose open part (the whole
    row but c) takes only multiples of g, within low..high: the gcd rule,
    and for an exact row the interval rule (the open part cannot bring c
    to 0)."""
    return _gcd_rejects(c, g) or exact and not low <= -c <= high


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


def _add_steps(plan: "Plan", bound: int) -> tuple:
    """What the search of the box |x_i| <= bound needs of each of the plan's
    rows, per depth d: (lin_steps, quad_steps), its `unit_steps` scaled (a
    gcd stays, a reach grows by bound and an interval by bound^2).  For a
    linear row (A symmetrised is zero; its open coefficients never
    change): lin_steps[d] holds l_d, g_d = gcd(m, l_j for j > d), t_d =
    bound * sum(|l_j| for j > d), the reach of the open part, and whether
    the row is exact.  For a quadratic one: quad_steps[d] holds S_dd; the
    row S_dj, j > d, reversed; the gcd g (with m) and the interval lo..hi
    of the open quadratic part at depth d + 1; whether the row is exact."""
    b2 = bound * bound
    lin_steps, quad_steps = plan.unit_steps
    return (
        [[(ld, g, t * bound, exact) for ld, g, t, exact in depth] for depth in lin_steps],
        [[(sdd, row, g, lo * b2, hi * b2, exact) for sdd, row, g, lo, hi, exact in depth] for depth in quad_steps],
    )


class Plan:
    """The coefficient parts (A, l, m) of a list of rows, set up once for
    every call that shares them; each call supplies the rows' constants c.

    One recurrence per row over the depths reads, once, what does not
    depend on the bound: the symmetrised quadratic rows, which rows are
    linear, the splits, the steps at bound 1 (`unit_steps`) and, as its
    final values, each row's root data: the gcd of m and every coefficient
    with the row's interval and reach over the box of bound 1.  So the root
    rules of any bound and constants cost O(1) per row (`rejects`,
    `least_bound`, `solvable`: the gcd rule of `unsolvable`).  A bound's
    steps, `unit_steps` scaled (`_add_steps`), are kept for the bound last
    asked for: `qform._column_search` searches one bound per pass.
    """

    __slots__ = ("n", "parts", "lin", "quad", "coefs", "splits", "unit_steps", "_root", "_bound", "_steps")

    def __init__(self, n: int, parts: Sequence[Part]):
        self.n = n
        self.parts = parts
        # the indices of the linear and of the quadratic rows, and of each
        # quadratic one its open linear coefficients, last coordinate first
        self.lin: List[int] = []
        self.quad: List[int] = []
        self.coefs: List[List[int]] = []
        lin_steps, quad_steps = [[] for _ in range(n)], [[] for _ in range(n)]
        self.unit_steps = lin_steps, quad_steps
        # per row: (g, lo, hi, t, exact) at bound 1
        self._root = []
        # coupled[i]: the last j with S_ij != 0 in some quadratic row
        coupled = list(range(n))
        for i, (a, l, m) in enumerate(parts):
            # an empty or zero A is linear at a glance; an antisymmetric A
            # only once symmetrised
            entries = [_quadratic_entries(a, n, d) for d in range(n)] if any(map(any, a)) else []
            if any(map(any, entries)):
                self.quad.append(i)
                self.coefs.append(list(l)[::-1])
                g, lo, hi = m, 0, 0
                for d in range(n - 1, -1, -1):
                    sdd, *row = entries[d]
                    quad_steps[d].append((sdd, row[::-1], g, lo, hi, m == 0))
                    g = gcd(g, sdd, *row)
                    t = sum(map(abs, row))
                    lo += min(sdd, 0) - t
                    hi += max(sdd, 0) + t
                    while row and not row[-1]:
                        row.pop()
                    coupled[d] = max(coupled[d], d + len(row))
                g, t = gcd(g, *l), sum(map(abs, l))
            else:
                self.lin.append(i)
                (g, t), lo, hi = _add_linear(n, l, m, 1, lin_steps), 0, 0
            self._root.append((g, lo, hi, t, m == 0))
        # depth d splits the rows when no S_ij couples i < d with j >= d;
        # the last coordinate's subtree is one loop, cheaper walked than
        # looked up, so only the splits before it are kept
        self.splits: List[int] = []
        reach = 0
        for d in range(1, n - 1):
            if coupled[d - 1] > reach:
                reach = coupled[d - 1]
            if reach < d:
                self.splits.append(d)
        self._bound: Optional[int] = None  # _steps is the set-up of this bound
        self._steps = None

    def setup(self, bound: int) -> tuple:
        """The steps of the plan's rows for the box of `bound`."""
        if bound != self._bound:
            self._bound, self._steps = bound, _add_steps(self, bound)
        return self._steps

    def solvable(self, constants: Sequence[int]) -> bool:
        """Whether the gcd rule admits every row with its constant: a row
        whose gcd does not divide its constant has no integer solution at
        any bound."""
        return not any(_gcd_rejects(c, root[0]) for root, c in zip(self._root, constants))

    def rejects(self, bound: int, constants: Sequence[int]) -> bool:
        """Whether a root rule (`_root_rejects`) shows that no vector of the
        box |x_i| <= bound satisfies the rows with these constants."""
        b2 = bound * bound
        for (g, lo, hi, t, exact), c in zip(self._root, constants):
            if _root_rejects(c, g, b2 * lo - bound * t, b2 * hi + bound * t, exact):
                return True
        return False

    def least_bound(self, first: int, last: int, constants: Sequence[int]) -> Optional[int]:
        """The least bound in first..last whose box no root rule rejects
        with these constants, or None.  The gcd rule does not depend on the
        bound, and the interval rule is monotone in it (lo falls, hi and t
        grow with the bound), so the rejected bounds are a prefix: bisect
        for its end."""
        if not self.rejects(first, constants):
            return first
        if self.rejects(last, constants):
            return None
        while last - first > 1:  # first is rejected, last is not
            mid = (first + last) // 2
            if self.rejects(mid, constants):
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
    constants: Sequence[int] = (),
) -> Tuple[List[Tuple[int, ...]], int, bool]:
    """Enumerate box vectors satisfying every constraint.

    `plan` is a `Plan` with the constants c of its rows in `constants`, one
    per row in the plan's order, or a list of quadruples (A, l, c, m),
    searched as the plan of their parts (A, l, m) with their constants.
    Each of `rows` is an exact linear constraint (l, c), a call's own pair
    row: searching them is searching the plan's constraints followed by
    ((), l, c, 0) for each row.  Returns (results, nodes_visited,
    exhausted).  A node is one value tried for one coordinate, counted
    whether its subtree is walked or replayed from the table of a split
    (see the module docstring), so every result and node count is the one
    walking every subtree gives.  A call that a root rule rejects costs 0
    nodes and is exhausted, whatever its rank; a rank-0 call that none
    rejects visits one node, the empty vector.

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
        constants = [c for _, _, c, _ in plan]
        plan = Plan(n, [(a, l, m) for a, l, _, m in plan])
    if len(constants) != len(plan.parts):
        raise ValueError("one constant is needed per row of the plan")
    if plan.rejects(bound, constants):
        return [], 0, True
    lin_steps, quad_steps = plan.setup(bound)
    if rows:
        # each row is an exact linear constraint: its steps go after the
        # plan's own, in copies of the plan's lists
        lin_steps = [list(depth) for depth in lin_steps]
        for l, c in rows:
            g, t = _add_linear(n, l, 0, bound, lin_steps)
            if _root_rejects(c, g, -t, t, True):
                return [], 0, True
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
        # one node, the empty vector, a result: the root rules at rank 0 are
        # the constraints themselves, and they admitted it
        nodes = 1
        walk = iter([()] if nodes <= limit else [])
    else:
        last = n - 1
        # at the last coordinate the open part is empty: g == m, and the rule
        # is the constraint itself
        lin_last = [(ld, g) for ld, g, _, _ in lin_steps[last]]
        quad_last = [(sdd, g) for sdd, _, g, _, _, _ in quad_steps[last]]
        # what searching x_d .. x_{n-1} is, per depth d
        enter = [rec] * n
        for d in plan.splits:
            enter[d] = replay
        lin_values = [constants[i] for i in plan.lin] + [c for _, c in rows]
        quad_values = [constants[i] for i in plan.quad]
        walk = rec(0, lin_values, quad_values, plan.coefs, normalize_first_positive)
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
