"""Extended quadratic forms (Q-forms) on free lattices.

A Q-form is (X, lambda, mu): an eps-symmetric integer bilinear form on
X = Z^k together with a quadratic refinement mu: X -> Q_e satisfying

    mu(x + y) = mu(x) + mu(y) + p(lambda(x, y)),   h(mu(x)) = lambda(x, x).

mu is stored on the basis only; every other value is computed through the
addition and scalar rules, never cached, so equality stays structural.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

from . import _intmat, search
from .abelian import AbHom, FinAbGroup, GroupElement
from .formparam import (
    FormParameter, FPMorphism, linearisation, terminal_morphism
)

__all__ = [
    "QForm",
    "Embedding",
    "SearchOutcome",
    "mu_eval",
    "direct_sum",
    "negate",
    "pullback",
    "pushforward",
    "hyperbolic",
    "is_nonsingular",
    "is_full",
    "is_indefinite",
    "inertia",
    "signature_of_matrix",
    "characteristic_check",
    "lagrangian_verify",
    "metabolic_search",
    "isometry_verify",
    "isometry_search",
    "embedding_search",
    "full_metabolic",
    "is_absorbing",
    "absorb_embed",
    "IsotropicVectorNotFound",
]

DEFAULT_BOUND = 3
DEFAULT_NODE_BUDGET = 4_000_000
# the reason of an "unknown" whose search stopped at its node budget
BUDGET_EXHAUSTED = "node budget exhausted"

@dataclass(frozen=True)
class QForm:
    parameter: FormParameter
    lambda_matrix: Tuple[Tuple[int, ...], ...]
    mu_basis: Tuple[GroupElement, ...]

    def __init__(
        self,
        parameter: FormParameter,
        lambda_matrix: Sequence[Sequence[int]],
        mu_basis: Sequence[GroupElement],
    ):
        mat = tuple(tuple(int(x) for x in row) for row in lambda_matrix)
        mus = tuple(mu_basis)
        k = len(mat)
        if any(len(r) != k for r in mat) or len(mus) != k:
            raise ValueError("rank mismatch between matrix and mu values")
        eps = parameter.symmetry
        for i in range(k):
            for j in range(k):
                if mat[i][j] != eps * mat[j][i]:
                    raise ValueError("matrix is not eps-symmetric")
        for i, m in enumerate(mus):
            if m.group != parameter.carrier:
                raise ValueError("mu value outside the parameter carrier")
            if parameter.h_of(m) != mat[i][i]:
                raise ValueError(
                    f"h(mu_{i}) = {parameter.h_of(m)} != diagonal {mat[i][i]}"
                )
        object.__setattr__(self, "parameter", parameter)
        object.__setattr__(self, "lambda_matrix", mat)
        object.__setattr__(self, "mu_basis", mus)

    @property
    def rank(self) -> int:
        return len(self.lambda_matrix)

    def lam(self, x: Sequence[int], y: Sequence[int]) -> int:
        return sum(
            x[i] * self.lambda_matrix[i][j] * y[j]
            for i in range(self.rank)
            for j in range(self.rank)
        )

    def mu(self, x: Sequence[int]) -> GroupElement:
        return mu_eval(self, x)

    def det(self) -> int:
        return _intmat.determinant(self.lambda_matrix)

    def s_mu(self) -> AbHom:
        """The linearisation X -> SQ of mu (a homomorphism)."""
        sq, proj, _ = linearisation(self.parameter)
        free = FinAbGroup((0,) * self.rank)
        return AbHom.from_columns(
            free, sq, [proj(m) for m in self.mu_basis]
        )

    def __repr__(self) -> str:
        return (
            f"QForm(rank={self.rank}, lambda={[list(r) for r in self.lambda_matrix]}, "
            f"mu={list(self.mu_basis)})"
        )


@dataclass(frozen=True)
class Embedding:
    source: QForm
    target: QForm
    matrix: Tuple[Tuple[int, ...], ...]  # target.rank x source.rank

    def __post_init__(self):
        if len(self.matrix) != self.target.rank or any(
            len(r) != self.source.rank for r in self.matrix
        ):
            raise ValueError("embedding matrix has the wrong shape")
        if pullback(self.target, self.matrix) != self.source:
            raise ValueError("matrix does not pull the form back exactly")
        if _intmat.rank(self.matrix) != self.source.rank:
            raise ValueError("embedding is not injective")

    @property
    def is_primitive(self) -> bool:
        if self.source.rank == 0:
            return True
        s = _intmat.SNF(self.matrix)
        return all(s.d[i][i] == 1 for i in range(self.source.rank))


@dataclass(frozen=True)
class SearchOutcome:
    """Three-valued verdict of a bounded search.

    A "no" always carries its certificate as the reason: an invariant
    obstruction (see each search: for an embedding, rank, inertia, and at
    equal ranks a singular target or another Witt class), or a column
    constraint that no integer vector satisfies (found at the root).
    Every one is checked before any kernel call, so it costs 0 nodes.
    Every outcome carries the requested bound, which is never negative.

    `nodes` counts the kernel's search-tree nodes, one per value tried for
    one coordinate, summed over the passes of the search (one per box
    |x_i| <= b, b = 1 .. bound; see `_column_search`) and, within a pass,
    over the target's distinct orthogonal blocks, searched before the
    whole target.  No kernel call is made after the node budget is spent,
    so it is at most node_budget + 1, and "node budget exhausted" is the
    reason when a call stopped early.  A witness comes from the first pass
    that finds one, so no box of a smaller bound holds a witness; one
    found in a block is zero outside it.
    """

    status: str  # "found" | "no" | "unknown"
    witness: Optional[Tuple[Tuple[int, ...], ...]] = None
    reason: str = ""
    bound: int = 0
    nodes: int = 0

    def __post_init__(self):
        if self.bound < 0:
            raise ValueError(f"search bound {self.bound} is negative")

    @property
    def found(self) -> bool:
        return self.status == "found"


def _binom2(n: int) -> int:
    return n * (n - 1) // 2


def mu_eval(f: QForm, x: Sequence[int]) -> GroupElement:
    """mu at an arbitrary vector, by the scalar and addition rules:
    mu(sum_i x_i b_i) = sum_i x_i mu(b_i) + p(s), with
    s = sum_i C(x_i, 2) lambda_ii + sum_{j<i} x_j x_i lambda_ji, since
    p(n) = n p(1) collects every p term into one."""
    if len(x) != f.rank:
        raise ValueError("vector length does not match the rank")
    m = f.lambda_matrix
    s = sum(
        _binom2(xi) * m[i][i] + xi * sum(x[j] * m[j][i] for j in range(i))
        for i, xi in enumerate(x)
        if xi
    )
    q = f.parameter
    return q.carrier.combination(x, f.mu_basis) + q.p(s)


def direct_sum(f: QForm, g: QForm) -> QForm:
    if f.parameter != g.parameter:
        raise ValueError("parameter mismatch")
    k, l = f.rank, g.rank
    mat = [list(r) + [0] * l for r in f.lambda_matrix] + [
        [0] * k + list(r) for r in g.lambda_matrix
    ]
    return QForm(f.parameter, mat, list(f.mu_basis) + list(g.mu_basis))


def negate(f: QForm) -> QForm:
    return QForm(
        f.parameter,
        [[-x for x in r] for r in f.lambda_matrix],
        [-m for m in f.mu_basis],
    )


def pullback(f: QForm, basis: Sequence[Sequence[int]]) -> QForm:
    """Pull back along the map sending new basis vector j to column j."""
    if len(basis) != f.rank:
        raise ValueError("basis needs one row per basis vector of the form")
    cols = [list(c) for c in zip(*basis)]
    k = len(cols)
    mat = [
        [f.lam(cols[i], cols[j]) for j in range(k)] for i in range(k)
    ]
    mus = [mu_eval(f, c) for c in cols]
    return QForm(f.parameter, mat, mus)


def pushforward(f: QForm, alpha: FPMorphism) -> QForm:
    if alpha.source != f.parameter:
        raise ValueError("morphism source does not match the form parameter")
    return QForm(
        alpha.target, f.lambda_matrix, [alpha(m) for m in f.mu_basis]
    )


def hyperbolic(q: FormParameter, m: int) -> QForm:
    eps = q.symmetry
    mat = [[0] * (2 * m) for _ in range(2 * m)]
    for i in range(m):
        mat[i][m + i] = 1
        mat[m + i][i] = eps
    return QForm(q, mat, [q.carrier.zero()] * (2 * m))


def is_nonsingular(f: QForm) -> bool:
    return f.det() in (1, -1)


def is_full(f: QForm) -> bool:
    return f.s_mu().is_surjective()


def inertia(mat: Sequence[Sequence[int]]) -> Tuple[int, int]:
    """(n+, n-) of a symmetric integer matrix: the numbers of positive and
    negative squares of a diagonal form congruent to it over Q.

    Fraction-free symmetric (Bareiss) elimination: after each pivot the
    remaining block is `prev` times the Schur complement, `prev` being the
    last pivot, so by the Jacobi rule a pivot d adds a positive square
    when d and `prev` have the same sign.  A remaining block with a zero
    diagonal and a non-zero a_ij first takes the congruence e_i -> e_i +
    e_j, which makes a_ii = 2 a_ij.  An all-zero block ends the
    elimination: its rank is the nullity.
    """
    a = [[int(x) for x in row] for row in mat]
    n = len(a)
    if any(len(row) != n for row in a) or any(
        a[i][j] != a[j][i] for i in range(n) for j in range(i)
    ):
        raise ValueError("inertia needs a symmetric matrix")
    pos = neg = 0
    prev = 1
    while a:
        p = next((i for i, row in enumerate(a) if row[i]), None)
        if p is None:
            i, j = next(
                ((i, j) for i, row in enumerate(a) for j, x in enumerate(row) if x),
                (None, None),
            )
            if i is None:
                break
            for row in a:
                row[i] += row[j]
            a[i] = [x + y for x, y in zip(a[i], a[j])]
            p = i
        d = a[p][p]
        if (d > 0) == (prev > 0):
            pos += 1
        else:
            neg += 1
        piv = a[p]
        a = [
            [(d * x - row[p] * y) // prev for j, (x, y) in enumerate(zip(row, piv)) if j != p]
            for i, row in enumerate(a)
            if i != p
        ]
        prev = d
    return pos, neg


def signature_of_matrix(mat: Sequence[Sequence[int]]) -> int:
    """Signature n+ - n- of a symmetric matrix (see `inertia`)."""
    pos, neg = inertia(mat)
    return pos - neg


def is_indefinite(f: QForm) -> bool:
    """Indefiniteness of the underlying bilinear form.

    Over a symmetric parameter: both a positive and a negative square
    (n+ >= 1 and n- >= 1).  For alternating nonsingular forms every vector
    is isotropic, so any form of positive rank counts as indefinite; rank
    >= 2 is required so that a primitive isotropic vector with a dual
    partner exists.
    """
    if f.parameter.is_symmetric:
        return min(inertia(f.lambda_matrix)) >= 1
    return f.rank >= 2


def characteristic_check(f: QForm, c: AbHom) -> bool:
    """Whether c: X -> C (cyclic) is characteristic for lambda.

    Checks lambda(x, x) = c(x) mod 2 on the basis, which suffices: both
    sides are homomorphisms X -> Z2, as lambda(x + y, x + y) =
    lambda(x, x) + lambda(y, y) + 2 lambda(x, y).
    """
    if not f.parameter.is_symmetric:
        raise ValueError("characteristic maps live over symmetric parameters")
    if c.target.ngens > 1:
        raise ValueError("target must be cyclic")
    # C/2C is Z2 for an even or infinite cyclic C, and trivial otherwise
    even = c.target.ngens == 1 and c.target.orders[0] % 2 == 0
    k = f.rank
    images = [c(c.source.element([int(i == j) for j in range(k)])) for i in range(k)]
    return all(
        f.lambda_matrix[i][i] % 2 == (img.coords[0] % 2 if even else 0)
        for i, img in enumerate(images)
    )


def lagrangian_verify(f: QForm, basis: Sequence[Sequence[int]]) -> bool:
    """Whether the given vectors span a lagrangian of f: a primitive
    half-rank summand on which the pullback of f is the zero form.  mu is
    additive where lambda vanishes, so mu = 0 on the basis vectors is
    mu = 0 on the whole summand.  Vectors of another length than the rank
    are refused with a ValueError.
    """
    vecs = [list(v) for v in basis]
    if any(len(v) != f.rank for v in vecs):
        raise ValueError("vector length does not match the rank")
    if 2 * len(vecs) != f.rank:
        return False
    cols = _intmat.transpose(vecs)
    s = _intmat.SNF(cols)
    if s.rank != len(vecs) or any(
        s.d[i][i] != 1 for i in range(len(vecs))
    ):
        return False
    pulled = pullback(f, cols)
    return not any(map(any, pulled.lambda_matrix)) and all(
        m.is_zero for m in pulled.mu_basis
    )


# -- bounded searches ---------------------------------------------------------


def _mu_constraints(
    f: QForm, target: GroupElement
) -> List[Tuple[List[List[int]], List[int], int, int]]:
    """Quadratic congruences expressing mu(x) == target, doubled to clear
    the binomial denominators."""
    q = f.parameter
    out = []
    m = f.lambda_matrix
    n = f.rank
    for cidx in range(q.carrier.ngens):
        pc = q.p_one.coords[cidx]
        # x^t A x must equal sum_i M_ii x_i^2 + 2 sum_{i<j} M_ij x_i x_j,
        # so build the upper triangle explicitly (x^t M x itself vanishes
        # for anti-symmetric M and would drop the cross terms)
        a = [[0] * n for _ in range(n)]
        for i in range(n):
            a[i][i] = pc * m[i][i]
            for j in range(i + 1, n):
                a[i][j] = 2 * pc * m[i][j]
        l = [
            2 * f.mu_basis[i].coords[cidx] - pc * m[i][i] for i in range(n)
        ]
        const = -2 * target.coords[cidx]
        modulus = q.carrier.orders[cidx]
        out.append((a, l, const, 2 * modulus if modulus else 0))
    return out


def _lambda_square_constraint(f: QForm, value: int):
    if f.parameter.is_symmetric:
        return [([list(r) for r in f.lambda_matrix], [0] * f.rank, -value, 0)]
    # alternating forms have lambda(x, x) = 0 identically
    return [] if value == 0 else None


def _column_constraints(
    target: QForm, lam: Sequence[Sequence[int]], mus: Sequence[GroupElement]
) -> Tuple[List[list], str]:
    """Each depth's own constraints on target (lambda(x, x) and mu(x)), and
    "" or the certificate that a depth has no integer column at any bound:
    a constraint that `search.unsolvable` rejects, or a non-zero
    lambda(x, x) on an alternating target."""
    fixed = []
    for d in range(len(mus)):
        square = _lambda_square_constraint(target, lam[d][d])
        if square is None:
            return [], (
                f"column {d}: lambda(x, x) = {lam[d][d]} has no solution on an "
                "alternating form"
            )
        mu = _mu_constraints(target, mus[d])
        for name, value, cons in (
            ("lambda(x, x)", lam[d][d], square), ("mu(x)", mus[d], mu)
        ):
            if any(search.unsolvable(c) for c in cons):
                return [], f"column {d}: {name} = {value} has no integer solution"
        fixed.append(square + mu)
    return fixed, ""


def _restrict(constraint, idx: Sequence[int]):
    """A constraint on the target's coordinates, restricted to those at
    `idx`: the rows and columns of A and the entries of l at idx."""
    a, l, c, m = constraint
    return [[a[i][j] for j in idx] for i in idx], [l[i] for i in idx], c, m


def _orthogonal_blocks(mat: Sequence[Sequence[int]]) -> List[List[int]]:
    """The basis indices of each orthogonal block of the form with matrix
    `mat`: the connected components of the graph with an edge i - j
    wherever mat[i][j] != 0, each ascending, in order of least index."""
    n = len(mat)
    blocks: List[List[int]] = []
    seen = set()
    for first in range(n):
        if first in seen:
            continue
        seen.add(first)
        block, todo = [], [first]
        while todo:
            i = todo.pop()
            block.append(i)
            for j in range(n):
                if mat[i][j] and j not in seen:
                    seen.add(j)
                    todo.append(j)
        blocks.append(sorted(block))
    return blocks


def _column_search(
    target: QForm,
    lam: Sequence[Sequence[int]],
    mus: Sequence[GroupElement],
    bound: int,
    node_budget: int,
    leaf: Callable[[List[List[int]]], Optional[Tuple[Tuple[int, ...], ...]]],
    what: str,
) -> SearchOutcome:
    """The backtracking driver behind every bounded search.

    Looks for columns c_0, ..., c_{k-1} of target with entries within
    `bound`, lambda(c_i, c_j) = lam[i][j] and mu(c_i) = mus[i].  The first
    complete tuple that `leaf` turns into a witness (anything but None)
    ends the search with "found".  `leaf` accepts only linearly
    independent columns (every caller's does: `injective`, `unimodular`,
    `_saturate_if_needed`'s rank check, and the primitive, so non-zero,
    vector of `_primitive_isotropic`); the block rule and the symmetry
    cuts below rest on it.

    Symmetry cuts: when lam and every mus[d] are zero (a lagrangian, a
    primitive isotropic vector, a zero source), columns may be negated (mu(-x) =
    p(lambda(x, x)) - mu(x) = 0) and reordered, and independent ones are
    distinct and non-zero.  So the kernel takes each column's first
    non-zero entry positive, and only non-zero, lexicographically
    increasing columns are taken: a witness is still found, in its box.

    Iterative deepening: the column recursion runs once per box
    |x_i| <= b, for b = 1, 2, ..., bound (bound 0 or a rank-0 target: one
    pass at `bound`), each pass in the kernel's enumeration order.  Pass b
    runs only after pass b - 1 ran to the end without a witness, so a
    found tuple has the least entry bound of any tuple that `leaf`
    accepts: none exists in box b - 1.  Only a complete pass at `bound`
    itself ends with "nothing in the box".

    Orthogonal blocks first: the target's basis splits into orthogonal
    blocks, the connected components of the graph of non-zero
    lambda_ij (mu of an orthogonal sum is the sum of the mus, so lambda
    alone decides them).  Pass b first searches each block of rank r,
    k <= r < n, as a target of its own, in order of its least basis index,
    and then the whole target.  Columns found in a block are extended by
    zeros before the cuts and `leaf` see them: an embedding into one summand
    is one into the whole form.  Each distinct block is searched once: a
    block with the same lambda submatrix and mu values as an earlier one
    gives the same answers.  A block whose own column constraints are
    unsolvable (below) is skipped, and so is a nondegenerate block (det !=
    0) of rank r < 2k - rank(lam): k independent columns whose Gram matrix
    lam has rank rho span a space whose radical, of dimension k - rho, is
    isotropic, and the columns lie in its orthogonal complement, of
    dimension r - (k - rho), so r >= 2k - rho.  Box b - 1 of the whole
    target was searched before any block at b, so a witness still has the
    least entry bound.

    The square and mu constraints of each depth are built once, for the
    whole target; a block's are their restrictions to its coordinates
    (`_restrict`), and no form is built per block.  The pair row M^t c of
    a column is built once, when the next column is searched for.

    Root certificate: before any kernel call, each depth's own constraints
    (lambda(x, x) and mu(x)) on the whole target go through
    `search.unsolvable`, and a non-zero lambda(x, x) on an alternating
    target is refused outright.  A depth that fails has no integer column
    at any bound, so the verdict is "no" at 0 nodes, its reason naming the
    depth and the constraint.

    Budget rule: the passes, blocks included, share one node count.  Each
    kernel call gets the nodes left of `node_budget`, and once a call
    reports that it stopped early no further call is made, in that pass or
    a later one.  The vectors that call did return are still tried, so a
    witness among them still reaches `leaf`, and the node count stays at
    most node_budget + 1.

    Otherwise the verdict is "unknown", with the reason "no `what` within
    the bound" when every call ran to the end, else "node budget
    exhausted".
    """
    if bound < 0:
        raise ValueError(f"search bound {bound} is negative")
    n, k = target.rank, len(mus)
    fixed, certificate = _column_constraints(target, lam, mus)
    if certificate:
        return SearchOutcome("no", bound=bound, reason=certificate)
    cut = not any(map(any, lam)) and all(m.is_zero for m in mus)
    # what each pass searches, in turn: every distinct block, then the whole
    # target, as (basis indices, lambda transposed, each depth's constraints)
    mat = target.lambda_matrix
    plans = []
    seen = set()
    least = 2 * k - _intmat.rank(lam)  # no nondegenerate block of lower rank fits
    for idx in _orthogonal_blocks(mat):
        if not k <= len(idx) < n:
            continue
        sub = tuple(tuple(mat[i][j] for j in idx) for i in idx)
        key = (sub, tuple(target.mu_basis[i] for i in idx))
        if key in seen:
            continue
        seen.add(key)
        if len(idx) < least and _intmat.determinant(sub):
            continue
        block_fixed = [[_restrict(c, idx) for c in cons] for cons in fixed]
        if not any(search.unsolvable(c) for cons in block_fixed for c in cons):
            plans.append((idx, _intmat.transpose(sub), block_fixed))
    plans.append((range(n), _intmat.transpose(mat), fixed))
    cols: List[List[int]] = []
    rows: List[List[int]] = []
    nodes = 0
    exhausted = True

    def rec(plan, depth: int, box: int) -> Optional[Tuple[Tuple[int, ...], ...]]:
        nonlocal nodes, exhausted
        if depth == k:
            return leaf(cols)
        idx, mt, fixed = plan
        if depth:
            rows[depth - 1:] = [_intmat.mat_vec(mt, [cols[-1][i] for i in idx])]
        else:
            rows.clear()  # a new pass: no column is chosen yet
        constraints = fixed[depth] + [
            ((), row, -lam[j][depth], 0) for j, row in enumerate(rows)
        ]
        results, used, done = search.search_vectors(
            len(idx), constraints, box, 1 << 30, node_budget - nodes, cut
        )
        nodes += used
        exhausted = exhausted and done
        for vec in results:
            if not exhausted and depth + 1 < k:
                break  # the budget is spent: no deeper kernel call
            col = [0] * n  # a block's vector, extended by zeros
            for i, x in zip(idx, vec):
                col[i] = x
            if cut and not (any(col) and (not cols or col > cols[-1])):
                continue
            cols.append(col)
            witness = rec(plan, depth + 1, box)
            cols.pop()
            if witness is not None:
                return witness
        return None

    # a rank-0 target has one box, {()}, at every bound: one pass
    boxes = range(min(bound, 1) if n else bound, bound + 1)
    for box, plan in itertools.product(boxes, plans):
        witness = rec(plan, 0, box)
        if witness is not None or not exhausted:
            break
    rec = None  # break the closure's cycle: its lists go now, not at a gc
    if witness is not None:
        return SearchOutcome("found", witness=witness, bound=bound, nodes=nodes)
    reason = f"no {what} within the bound" if exhausted else BUDGET_EXHAUSTED
    return SearchOutcome("unknown", reason=reason, bound=bound, nodes=nodes)


def isometry_verify(f: QForm, g: QForm, b: Sequence[Sequence[int]]) -> bool:
    """Whether b (columns = images of f's basis) is an isometry f -> g."""
    if f.parameter != g.parameter or f.rank != g.rank:
        return False
    return _intmat.determinant(b) in (1, -1) and pullback(g, b) == f


def isometry_search(
    f: QForm,
    g: QForm,
    bound: int = DEFAULT_BOUND,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> SearchOutcome:
    """Bounded exhaustive search for an isometry f -> g."""
    if f.parameter != g.parameter:
        return SearchOutcome("no", reason="different form parameters", bound=bound)
    if f.rank != g.rank:
        return SearchOutcome("no", reason="different ranks", bound=bound)
    if abs(f.det()) != abs(g.det()):
        return SearchOutcome("no", reason="different determinants", bound=bound)
    if f.parameter.is_symmetric and signature_of_matrix(
        f.lambda_matrix
    ) != signature_of_matrix(g.lambda_matrix):
        return SearchOutcome("no", reason="different signatures", bound=bound)

    def unimodular(cols):
        mat = _intmat.transpose(cols)
        if _intmat.determinant(mat) in (1, -1):
            return tuple(tuple(r) for r in mat)
        return None

    out = _column_search(
        g, f.lambda_matrix, f.mu_basis, bound, node_budget, unimodular,
        "isometry with matrix entries",
    )
    assert not out.found or isometry_verify(f, g, out.witness)
    return out


def metabolic_search(
    f: QForm,
    bound: int = DEFAULT_BOUND,
    node_budget: int = DEFAULT_NODE_BUDGET,
    use_obstructions: bool = True,
) -> SearchOutcome:
    """Bounded exhaustive search for a lagrangian of a nonsingular form.

    Certified "no" outcomes: odd rank; non-zero Witt class; and, over an
    anti-symmetric parameter with injective quasi-Wu class, a unit-valued
    quadratic lift with Arf invariant 1 (a lagrangian downstairs would be
    one upstairs).  A zero Witt class alone never upgrades "unknown" to
    "found": stably metabolic forms need not be metabolic.
    """
    if f.rank % 2:
        return SearchOutcome("no", reason="odd rank", bound=bound)
    if use_obstructions:
        obstruction = _metabolic_obstruction(f)
        if obstruction:
            return SearchOutcome("no", reason=obstruction, bound=bound)
    k = f.rank // 2
    out = _column_search(
        f,
        [[0] * k for _ in range(k)],
        [f.parameter.carrier.zero()] * k,
        bound,
        node_budget,
        lambda basis: _saturate_if_needed(f, basis),
        "lagrangian with coordinates",
    )
    assert not out.found or lagrangian_verify(f, out.witness)
    return out


def _metabolic_obstruction(f: QForm) -> str:
    """A certified reason why f cannot be metabolic, or ''. """
    from . import witt

    if is_nonsingular(f):
        if not witt.witt_class(f).is_zero:
            return "non-zero Witt class"
        arf_reason = _arf_lift_obstruction(f)
        if arf_reason:
            return arf_reason
    return ""


def _arf_lift_obstruction(f: QForm) -> str:
    """Arf obstruction through an injective quasi-Wu class.

    If every mu value lies in the image of v' and that image is a faithful
    copy of Z2, the form lifts to a quadratic refinement with Z2 values; a
    lagrangian of f would be a lagrangian of the lift, so Arf = 1 rules
    metabolicity out.
    """
    from .formparam import standard
    from . import witt

    q = f.parameter
    if q.is_symmetric or q.p_one.is_zero:
        return ""
    image_elts = {q.carrier.zero().coords, q.p_one.coords}
    if any(m.coords not in image_elts for m in f.mu_basis):
        return ""
    qminus = standard("Q-")
    lifted = QForm(
        qminus,
        f.lambda_matrix,
        [
            qminus.carrier.element(
                (0,) if m.is_zero else (1,)
            )
            for m in f.mu_basis
        ],
    )
    if witt.arf(lifted) == 1:
        return "Arf invariant 1 of the quadratic lift"
    return ""


def _saturate_if_needed(
    f: QForm, basis: Sequence[Sequence[int]]
) -> Optional[Tuple[Tuple[int, ...], ...]]:
    """Upgrade an isotropic sublattice to a lagrangian when possible."""
    vecs = [tuple(v) for v in basis]
    cols = [[v[i] for v in vecs] for i in range(f.rank)]
    s = _intmat.SNF(cols)
    if s.rank != len(vecs):
        return None
    if all(s.d[i][i] == 1 for i in range(len(vecs))):
        return tuple(vecs)
    sat = tuple(
        tuple(s.uinv[i][j] for i in range(f.rank)) for j in range(len(vecs))
    )
    if lagrangian_verify(f, sat):
        return sat
    return None


def embedding_search(
    eta: QForm,
    target: QForm,
    bound: int = DEFAULT_BOUND,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> SearchOutcome:
    """Bounded search for a morphism of Q-forms eta -> target.

    Certified "no" outcomes besides the driver's root certificates, all
    before any kernel call:
    - different form parameters;
    - a source of larger rank than the target (an embedding is injective);
    - over a symmetric parameter, fewer positive or negative squares in
      the target than in eta: the image of a subspace on which eta is
      positive (negative) definite is one of the same dimension on which
      the target is, so inertia can only grow along a morphism;
    - for a nonsingular eta of the target's rank, where an embedding is an
      isometry (det(B)^2 det(target) = det(eta) = +-1): a singular target,
      or a target of another Witt class.
    A Witt class that `witt.witt_class` cannot compute gives no
    certificate: the search runs.
    """
    if eta.parameter != target.parameter:
        return SearchOutcome("no", reason="different form parameters", bound=bound)
    if eta.rank > target.rank:
        return SearchOutcome(
            "no", bound=bound, reason="source rank exceeds target rank"
        )
    obstruction = _embedding_obstruction(eta, target)
    if obstruction:
        return SearchOutcome("no", bound=bound, reason=obstruction)

    def injective(cols):
        # a rank-deficient tuple is no embedding: the search goes on
        mat = _intmat.transpose(cols)
        if _intmat.rank(mat) == eta.rank:
            return tuple(tuple(r) for r in mat)
        return None

    return _column_search(
        target, eta.lambda_matrix, eta.mu_basis, bound, node_budget, injective,
        "embedding with coordinates",
    )


def _embedding_obstruction(eta: QForm, target: QForm) -> str:
    """An invariant that rules out every morphism eta -> target (same
    parameter, eta.rank <= target.rank), or ''; see `embedding_search`."""
    from . import witt

    if eta.parameter.is_symmetric:
        have, need = inertia(target.lambda_matrix), inertia(eta.lambda_matrix)
        if have[0] < need[0] or have[1] < need[1]:
            return f"target inertia {have} lacks the source's {need}"
    if eta.rank < target.rank or not is_nonsingular(eta):
        return ""
    if not is_nonsingular(target):
        return "equal ranks, singular target"
    try:
        if witt.witt_class(target) != witt.witt_class(eta):
            return "equal ranks, different Witt classes"
    except ValueError:
        pass  # a class that cannot be computed certifies nothing
    return ""


def full_metabolic(q: FormParameter) -> QForm:
    """A full metabolic form: hyperbolic block with mu hitting generators.

    Rank 2k with matrix [[0, I], [eps I, D]], D = diag(h(q_i)) over the
    carrier generators q_i; on a trivial carrier the rank-2 hyperbolic form
    is returned instead so downstream constructions get a non-empty form.
    """
    gens = q.carrier.gens()
    k = len(gens)
    if k == 0:
        return hyperbolic(q, 1)
    eps = q.symmetry
    mat = [[0] * (2 * k) for _ in range(2 * k)]
    for i in range(k):
        mat[i][k + i] = 1
        mat[k + i][i] = eps
        mat[k + i][k + i] = q.h_of(gens[i])
    mus = [q.carrier.zero()] * k + gens
    return QForm(q, mat, mus)


def is_absorbing(f: QForm) -> bool:
    """Absorbing = indefinite and full (nonsingular forms only)."""
    if not is_nonsingular(f):
        raise ValueError("absorbing is defined for nonsingular forms")
    return is_indefinite(f) and is_full(f)


class IsotropicVectorNotFound(RuntimeError):
    """absorb_embed found no primitive isotropic vector within its bound and
    node budget; one may still exist beyond them."""


def absorb_embed(
    f: QForm,
    eta: QForm,
    bound: int = DEFAULT_BOUND,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> Embedding:
    """Embed a rank-2 metabolic form eta = (Z^2, [[0,1],[eps,a]], (0, q))
    into f + f + f, with f absorbing.

    Construction: a primitive isotropic x, a dual y with lambda(x, y) = 1,
    z with S(mu)(z) = [q] - S(mu)(y), and a correction delta, giving
    i(e) = (x, -x, 0) and i(f) = (y + delta x, -delta x, z).  x is
    searched like every bounded search, within `bound` and `node_budget`;
    IsotropicVectorNotFound is raised when that search finds none.
    """
    eps = f.parameter.symmetry
    if eta.rank != 2 or eta.lambda_matrix[0] != (0, 1) or eta.lambda_matrix[1][0] != eps:
        raise ValueError("eta must have matrix [[0, 1], [eps, a]]")
    if not eta.mu_basis[0].is_zero:
        raise ValueError("eta must have mu(e) = 0")
    if not is_absorbing(f):
        raise ValueError("f is not absorbing")
    emb = try_rank2_embedding(f, eta, bound, node_budget)
    if emb is None:
        # f is full, so the linearisation meets every class: only the
        # bounded search for x can have come back empty
        raise IsotropicVectorNotFound(
            "no primitive isotropic vector found within the bound and the "
            "node budget"
        )
    return emb


def try_rank2_embedding(
    f: QForm,
    eta: QForm,
    bound: int = DEFAULT_BOUND,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> Optional[Embedding]:
    """The i(e) = (x, -x, 0) construction, or None if an ingredient is
    missing (no bounded isotropic vector, or the linearisation misses the
    required class)."""
    q = f.parameter
    qval = eta.mu_basis[1]
    x = _primitive_isotropic(f, bound, node_budget)
    if x is None:
        return None
    # dual vector: lambda(x, y) = 1 solvable since x is primitive and
    # lambda is unimodular
    mt = _intmat.transpose(f.lambda_matrix)
    row = _intmat.mat_vec(mt, x)
    y = _solve_unit_combination(row)
    _, proj, _ = linearisation(q)
    smu = f.s_mu()
    rhs = proj(qval) - smu(smu.source.element(y))
    z_el = smu.solve(rhs)
    if z_el is None:
        return None
    z = list(z_el.coords)
    mu_y = mu_eval(f, y)
    mu_z = mu_eval(f, z)
    if q.is_symmetric:
        d = q.h_of(qval - mu_y - mu_z)
        if d % 2:
            raise AssertionError("correction is not an even multiple")
        delta = d // 2
    else:
        delta = 0 if (mu_y + mu_z) == qval else 1
    n = f.rank
    col_e = x + [-xi for xi in x] + [0] * n
    col_f = (
        [yi + delta * xi for yi, xi in zip(y, x)]
        + [-delta * xi for xi in x]
        + z
    )
    triple = direct_sum(direct_sum(f, f), f)
    mat = [[col_e[i], col_f[i]] for i in range(3 * n)]
    return Embedding(eta, triple, tuple(tuple(r) for r in mat))


def _primitive_isotropic(
    f: QForm, bound: int, node_budget: int
) -> Optional[List[int]]:
    """A primitive x with lambda(x, x) = 0, of least entry bound, found
    within `bound` and `node_budget`, or None.

    Over the terminal parameter mu(x) is lambda(x, x) (Q^+) or 0 (Q^-),
    so it is the one-column search for lambda = [[0]] and mu = 0.
    """
    g = pushforward(f, terminal_morphism(f.parameter))
    out = _column_search(
        g, [[0]], [g.parameter.carrier.zero()], bound, node_budget,
        lambda cols: (tuple(cols[0]),) if _intmat.vec_gcd(cols[0]) == 1 else None,
        "primitive isotropic vector",
    )
    return list(out.witness[0]) if out.found else None


def _solve_unit_combination(row: Sequence[int]) -> List[int]:
    """Some y with row . y == 1 (row has gcd 1)."""
    sol = _intmat.solve([list(row)], [1])
    if sol is None:
        raise AssertionError("vector is not primitive")
    return sol
