"""Extended quadratic forms (Q-forms) on free lattices.

A Q-form is (X, lambda, mu): an eps-symmetric integer bilinear form on
X = Z^k together with a quadratic refinement mu: X -> Q_e satisfying

    mu(x + y) = mu(x) + mu(y) + p(lambda(x, y)),   h(mu(x)) = lambda(x, x).

mu is stored on the basis only; every other value is computed through the
addition and scalar rules, never cached, so equality stays structural.
`mu_eval` gives mu at a vector, and a pullback is B^T M B by two integer
matrix products.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from operator import mul
from typing import Callable, List, Optional, Sequence, Tuple

from . import _intmat, search
from ._intmat import _binom2
from .abelian import AbHom, FinAbGroup, GroupElement, _integers
from .formparam import (
    FormParameter, FPMorphism, linearisation, maximal_splitting, terminal_morphism
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
    "is_full",
    "is_indefinite",
    "inertia",
    "signature_of_matrix",
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
# the reason of an "unknown" whose search nested deeper than the stack holds
STACK_EXHAUSTED = "search nested deeper than the Python stack allows"


@dataclass(frozen=True, slots=True)
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
        mat = tuple(map(_integers, lambda_matrix))
        mus = tuple(mu_basis)
        k = len(mat)
        if any(len(r) != k for r in mat) or len(mus) != k:
            raise ValueError("rank mismatch between matrix and mu values")
        t = tuple(zip(*mat))
        if parameter.symmetry == -1:
            t = tuple(tuple([-x for x in row]) for row in t)
        if mat != t:
            raise ValueError("matrix is not eps-symmetric")
        carrier = parameter.carrier
        for i, m in enumerate(mus):
            if m.group is not carrier and m.group != carrier:
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


@dataclass(frozen=True, slots=True)
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
        return _saturation(self.matrix, self.source.rank)[0]


@dataclass(frozen=True, slots=True)
class SearchOutcome:
    """Three-valued verdict of a bounded search.

    A "no" always carries its certificate as the reason: an invariant
    obstruction (see each search: for an embedding, rank, inertia, and at
    equal ranks a singular target or another Witt class), or a column
    constraint that no integer vector satisfies (found at the root).
    Every one is checked before any kernel call, so it costs 0 nodes.
    Every outcome carries the requested bound, which is never negative.

    `nodes` counts the kernel's search-tree nodes, one per value tried for
    one coordinate: the sum of every kernel call's own nodes, over the
    passes of the search (one per box |x_i| <= b, 1 <= b <= bound, that the
    root rules admit; see `_column_search`), within a pass over the
    target's distinct orthogonal blocks, searched before the whole target,
    and over the calls nested for each column.  The calls share the node
    budget: a search stopped on it exactly when nodes > node_budget, and
    then nodes == node_budget + 1 and the reason is "node budget
    exhausted" (a search stopped at `_column_search`'s depth limit leaves
    out the calls that the overflow cut short).  A witness comes from the
    first pass that finds one, so no box of a smaller bound holds a witness;
    one found in a block is zero outside it.
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


def mu_eval(f: QForm, x: Sequence[int]) -> GroupElement:
    """mu at an arbitrary vector, by the scalar and addition rules:
    mu(sum_i x_i b_i) = sum_i x_i mu(b_i) + p(s), with
    s = sum_i C(x_i, 2) lambda_ii + sum_{i<j} x_i x_j lambda_ij, since
    p(n) = n p(1) collects every p term into one."""
    if len(x) != f.rank:
        raise ValueError("vector length does not match the rank")
    q = f.parameter
    return q.carrier.combination(x, f.mu_basis) + q.p(_mu_scalar(f.lambda_matrix, x))


def _mu_scalar(m: Sequence[Sequence[int]], x: Sequence[int]) -> int:
    """The s of mu_eval: sum_i C(x_i, 2) m_ii + sum_{i<j} x_i x_j m_ij,
    one row product per non-zero x_i, over the row of m right of its
    diagonal."""
    return sum(
        _binom2(xi) * m[i][i] + xi * sum(map(mul, m[i][i + 1:], x[i + 1:]))
        for i, xi in enumerate(x)
        if xi
    )


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
    """Pull back along the map B sending new basis vector j to column j:
    the matrix B^T M B, and mu at each column."""
    if len(basis) != f.rank:
        raise ValueError("basis needs one row per basis vector of the form")
    if len({len(row) for row in basis}) > 1:
        raise ValueError("basis rows differ in length")
    cols = [list(c) for c in zip(*basis)]
    mat = _intmat.mat_mul(cols, _intmat.mat_mul(f.lambda_matrix, basis)) if cols else []
    mus = [mu_eval(f, c) for c in cols]
    return QForm(f.parameter, mat, mus)


def pushforward(f: QForm, alpha: FPMorphism) -> QForm:
    if alpha.source != f.parameter:
        raise ValueError("morphism source does not match the form parameter")
    return QForm(
        alpha.target, f.lambda_matrix, [alpha(m) for m in f.mu_basis]
    )


def hyperbolic(q: FormParameter, m: int) -> QForm:
    if m < 0:
        raise ValueError(f"number of hyperbolic planes {m} is negative")
    eps = q.symmetry
    mat = [[0] * (2 * m) for _ in range(2 * m)]
    for i in range(m):
        mat[i][m + i] = 1
        mat[m + i][i] = eps
    return QForm(q, mat, [q.carrier.zero()] * (2 * m))


def is_full(f: QForm) -> bool:
    return f.s_mu().is_surjective()


def inertia(mat: Sequence[Sequence[int]]) -> Tuple[int, int]:
    """(n+, n-) of a symmetric integer matrix: the numbers of positive and
    negative squares of a diagonal form congruent to it over Q (see
    `_det_and_inertia`)."""
    return _det_and_inertia(mat)[1]


def _det_and_inertia(mat: Sequence[Sequence[int]]) -> Tuple[int, Tuple[int, int]]:
    """The determinant and the inertia (n+, n-) of a symmetric integer
    matrix, from one elimination.

    Fraction-free symmetric (Bareiss) elimination: after each pivot the
    remaining block is `prev` times the Schur complement, `prev` being the
    last pivot, so by the Jacobi rule a pivot d adds a positive square
    when d and `prev` have the same sign.  A remaining block with a zero
    diagonal and a non-zero a_ij first takes the congruence e_i -> e_i +
    e_j, which makes a_ii = 2 a_ij.  An all-zero block ends the
    elimination: its rank is the nullity, and the determinant is 0.
    Otherwise the last pivot is the determinant: each entry of the block
    is a minor of a matrix congruent to `mat` by a unimodular map, or by a
    permutation of the basis, neither of which changes the determinant.
    """
    a = [list(map(int, row)) for row in mat]
    n = len(a)
    if any(len(row) != n for row in a) or a != list(map(list, zip(*a))):
        raise ValueError("inertia needs a symmetric matrix")
    pos = neg = 0
    prev = 1
    while a:
        last = len(a) - 1
        for p in range(last + 1):
            if a[p][p]:
                break
        else:
            i, j = next(
                ((i, j) for i, row in enumerate(a) for j, x in enumerate(row) if x),
                (None, None),
            )
            if i is None:
                return 0, (pos, neg)
            for row in a:
                row[i] += row[j]
            a[i] = [x + y for x, y in zip(a[i], a[j])]
            p = i
        if p != last:  # move the pivot last: a symmetric permutation
            a[p], a[last] = a[last], a[p]
            for row in a:
                row[p], row[last] = row[last], row[p]
        piv = a.pop()
        d = piv.pop()
        if (d > 0) == (prev > 0):
            pos += 1
        else:
            neg += 1
        a = [[(d * x - r * y) // prev for x, y in zip(row, piv)] for row in a for r in [row.pop()]]
        prev = d
    return prev, (pos, neg)


def _det_and_inertia_of(f: QForm) -> Tuple[int, Tuple[int, int]]:
    """The determinant and the inertia (n+, n-) of f's bilinear form, from
    one elimination: `_det_and_inertia` if f is symmetric, else the
    determinant and (0, 0): every vector is isotropic, none definite."""
    if f.parameter.is_symmetric:
        return _det_and_inertia(f.lambda_matrix)
    return f.det(), (0, 0)


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
    return _saturation(cols, len(vecs))[0] and _pulls_back_to_zero(f, cols)


def _pulls_back_to_zero(f: QForm, cols: Sequence[Sequence[int]]) -> bool:
    """Whether the pullback of f along the columns of `cols` is the zero
    form: lambda vanishes on them and mu is zero at each."""
    pulled = pullback(f, cols)
    return not any(map(any, pulled.lambda_matrix)) and all(
        m.is_zero for m in pulled.mu_basis
    )


# -- bounded searches ---------------------------------------------------------


def _mu_parts(
    q: FormParameter, m: Sequence[Sequence[int]], mus: Sequence[Sequence[int]]
) -> List[search.Part]:
    """The coefficient parts (A, l, modulus) of the kernel's rows for
    mu(x) == t on the form with matrix m and mu coordinate columns mus over
    the split parameter q (the target of a maximal splitting, as `Q^+`
    is): one per coordinate c of the carrier, doubled to clear the binomial
    denominators.  They do not depend on t, whose constants are
    `_mu_values`.  Row 0's quadratic part is p(1)_0 lambda(x, x).  Over a
    symmetric split parameter h_0 p(1)_0 = 2 and h = h_0 e_0, so row 0
    states lambda(x, x) = h(t); over an alternating one h = 0 and p(1)_c =
    0 for c >= 1.  Either way every later row c is linear: its p(1)_c
    lambda(x, x) is the constant p(1)_c h(t)."""
    n = len(m)
    out = []
    for c, (pc, order) in enumerate(zip(q.p_one.coords, q.carrier.orders)):
        l = [2 * mus[c][i] - pc * m[i][i] for i in range(n)]
        if c:
            out.append(((), l, 2 * order))
            continue
        # x^t A x must equal sum_i M_ii x_i^2 + 2 sum_{i<j} M_ij x_i x_j,
        # so build the upper triangle explicitly (x^t M x itself vanishes
        # for anti-symmetric M and would drop the cross terms)
        a = [[0] * n for _ in range(n)]
        for i in range(n):
            a[i][i] = pc * m[i][i]
            for j in range(i + 1, n):
                a[i][j] = 2 * pc * m[i][j]
        out.append((a, l, 2 * order))
    return out


def _mu_values(q: FormParameter, t: Sequence[int]) -> List[int]:
    """The constants of the rows of `_mu_parts` for mu(x) == t over the
    split parameter q, t given by its coordinates: -2 t_0, then p(1)_c
    h(t) - 2 t_c."""
    h = sum(map(mul, q.h.matrix[0], t))
    return [pc * h - 2 * tc if c else -2 * tc for c, (pc, tc) in enumerate(zip(q.p_one.coords, t))]


# Read only by the benchmark (perfbench/kernels.py): the rows of `_mu_parts`
# with their constants, as the kernel's quadruples.
def _mu_constraints(
    f: QForm, target: GroupElement
) -> List[Tuple[List[List[int]], List[int], int, int]]:
    q = f.parameter
    mus = [[mu.coords[c] for mu in f.mu_basis] for c in range(q.carrier.ngens)]
    parts = _mu_parts(q, f.lambda_matrix, mus)
    return [(a, l, c, m) for (a, l, m), c in zip(parts, _mu_values(q, target.coords))]


# Read only by the benchmark (perfbench/kernels.py): mu rows imply this row.
def _lambda_square_constraint(f: QForm, value: int):
    if f.parameter.is_symmetric:
        return [([list(r) for r in f.lambda_matrix], [0] * f.rank, -value, 0)]
    return []  # lambda(x, x) = 0 identically on an alternating form


def _column_constraints(
    target: QForm, lam: Sequence[Sequence[int]], mus: Sequence[GroupElement]
) -> Tuple[List[Tuple[Sequence[int], List[List[int]], search.Plan]], List[List[int]], str]:
    """What each pass of `_column_search` searches, in turn: every distinct
    block that may hold the columns, then the whole target, as (basis
    indices, lambda transposed, plan); each depth's constants; and "" or
    the certificate that a depth has no integer column at any bound.

    The plan holds the coefficient parts of the rows of mu(x) = t
    (`_mu_parts`), which imply lambda(x, x) = h(t).  They are read in the
    coordinates of the parameter's maximal splitting, off the coordinates
    of each mu value of the target's basis sent through it (no form is
    pushed forward), and they do not depend on t: one plan serves every
    depth, and mus[d] gives depth d only its constants (`_mu_values`),
    computed once per distinct mus[d].  A block's plan is
    the target's parts restricted to its coordinates (`_restrict`), built
    once per distinct block.

    Root certificate: the gcd of each row is computed once, by the plan,
    and tested against each distinct depth's constants (`Plan.solvable`,
    the gcd rule).  A depth with a row that fails has no integer column at
    any bound.

    Blocks: the orthogonal blocks of rank r, k <= r < n, each distinct
    one (the same lambda submatrix and mu values as an earlier one give
    the same answers) once, in order of least basis index; a block is left
    out when its plan's gcd rule rejects a depth, or when it is
    nondegenerate (det != 0) of rank r < 2k - rank(lam): k independent
    columns whose Gram matrix lam has rank rho span a space whose radical,
    of dimension k - rho, is isotropic, and the columns lie in its
    orthogonal complement, of dimension r - (k - rho), so r >= 2k - rho.
    """
    n, k, mat = target.rank, len(mus), target.lambda_matrix
    iso = maximal_splitting(target.parameter).iso
    split = iso.target
    # the coordinate columns of the mu values through the splitting, one
    # integer row product each, reduced as iso(mu) reduces them
    plan = search.Plan(n, _mu_parts(split, mat, iso.map.map_rows([mu.coords for mu in target.mu_basis])))
    ts = iso.map.map_rows([mu.coords for mu in mus])
    values, distinct = [], {}
    for d, mu in enumerate(mus):
        if mu.coords not in distinct:
            distinct[mu.coords] = _mu_values(split, [t[d] for t in ts])
            if not plan.solvable(distinct[mu.coords]):
                return [], [], f"column {d}: mu(x) = {mu} has no integer solution"
        values.append(distinct[mu.coords])
    passes = []
    seen = set()
    blocks = [idx for idx in _orthogonal_blocks(mat) if k <= len(idx) < n]
    least = 2 * k - _intmat.rank(lam) if blocks else 0  # no nondegenerate block of lower rank fits
    for idx in blocks:
        sub = tuple(tuple(mat[i][j] for j in idx) for i in idx)
        key = (sub, tuple(target.mu_basis[i] for i in idx))
        if key in seen:
            continue
        seen.add(key)
        if len(idx) < least and _intmat.determinant(sub):
            continue
        block = search.Plan(len(idx), [_restrict(part, idx) for part in plan.parts])
        if all(block.solvable(c) for c in distinct.values()):
            passes.append((idx, _intmat.transpose(sub), block))
    passes.append((range(n), _intmat.transpose(mat), plan))
    return passes, values, ""


def _restrict(part: search.Part, idx: Sequence[int]) -> search.Part:
    """A row on the target's coordinates, restricted to those at `idx`: the
    rows and columns of A (if any) and the entries of l at idx."""
    a, l, m = part
    return [[a[i][j] for j in idx] for i in idx] if a else a, [l[i] for i in idx], m


def _annihilator(rows: List[List[int]], dots: List[int]) -> List[List[int]]:
    """Integer rows spanning {y in the span of rows : y . c = 0}, where the
    rows are independent and dots[i] = rows[i] . c is not all zero: with
    the pivot p, a least non-zero |dots[p]|, each other row r_i becomes
    dots[p] r_i - dots[i] r_p, fraction-free, divided by the gcd of its
    entries."""
    p = min((i for i, s in enumerate(dots) if s), key=lambda i: abs(dots[i]))
    sp, rp = dots[p], rows[p]
    out = []
    for i, (r, s) in enumerate(zip(rows, dots)):
        if i == p:
            continue
        if s:
            r = [sp * x - s * y for x, y in zip(r, rp)]
            g = gcd(*r)
            if g != 1:
                r = [x // g for x in r]
        out.append(r)
    return out


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

    Looks for linearly independent columns c_0, ..., c_{k-1} of target
    with entries within `bound`, lambda(c_i, c_j) = lam[i][j] and mu(c_i) =
    mus[i], where lam[i][i] = h(mus[i]) as in every Q-form.  The first
    complete tuple that `leaf` turns into a witness (anything but None)
    ends the search with "found".

    Depth-first descent: column d's kernel call hands each vector to the
    driver as soon as it finds it, and the driver searches the columns
    after it (a nested kernel call) before the call walks on, so the tuples
    are visited in the order of an eager enumeration, without enumerating
    the rest of a box first.  A vector in the span of the columns chosen
    before it ends its subtree there: every witness has independent
    columns, so no witness lies below it.  `leaf` therefore sees
    independent columns only; the block rule and the symmetry cuts below
    rest on that.  The span test is incremental: with columns chosen, the
    driver keeps integer rows spanning their annihilator, updated once per
    chosen column (`_annihilator`, fraction-free), and a vector is in
    their span exactly when every row kills it; with none chosen, exactly
    when it is zero.  No rank is taken per vector.

    Depth limit: a nested call stacks a few Python frames on the one it is
    nested in (its own, on_result's and the driver's), and the innermost
    walk one per coordinate of the target, so a search that nests k
    columns deep in a target of rank n needs about 4k + n frames.  At
    Python's default recursion limit of 1000 that is k of about 170 in a
    target of rank 171.  A search that runs out of stack stops there, as
    on the budget: the verdict is "unknown", with the reason
    STACK_EXHAUSTED, and its node count leaves out the calls that the
    overflow cut short.

    Symmetry cuts: when lam and every mus[d] are zero (a lagrangian, a
    primitive isotropic vector, a zero source), columns may be negated (mu(-x) =
    p(lambda(x, x)) - mu(x) = 0) and reordered, and independent ones are
    distinct and non-zero.  So the kernel takes each column's first
    non-zero entry positive, and only non-zero, lexicographically
    increasing columns are taken: a witness is still found, in its box.

    Iterative deepening: the column recursion runs once per box
    |x_i| <= b, for b = 1, 2, ..., bound (bound 0, no column or a rank-0
    target: one pass at `bound`), each pass in the kernel's enumeration
    order, except that after each pass the next one is at the least larger
    box that the root rules of the whole target's plan admit with the
    first column's constants (`search.Plan.least_bound`).  A box they
    reject holds no first column, in the whole target or in a block (a
    block's interval lies inside the whole target's, and the whole target's
    gcd divides the block's), so its pass would cost 0 nodes and find
    nothing.  A pass runs only after the one before ran to the end without
    a witness, so a found tuple has the least entry bound of any tuple that
    `leaf` accepts: none exists in a smaller box.  Only a complete pass at
    `bound` itself ends with "nothing in the box".

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
    unsolvable (below) is skipped, and so is a nondegenerate block of rank
    r < 2k - rank(lam) (see `_column_constraints`, which picks the blocks
    before the first pass).  Box b - 1 of the whole target was searched
    before any block at b, so a witness still has the least entry bound.
    In the whole-target pass over an orthogonal sum such as f + f, whose
    blocks are runs of consecutive coordinates, each column's constraints
    split at the block boundaries: the kernel walks a later block's subtree
    once per distinct key and replays it after that (see `qwitt.search`).

    One set-up per search: before the first pass, `_column_constraints`
    builds the columns' own constraints, the mu rows (which imply
    lambda(x, x) = lam[d][d]), as one `search.Plan` of coefficients for the
    whole target and one per distinct block, each shared by every call on
    that block or target, at every depth and in every pass, and each
    depth's constants, which its calls pass beside the plan; the kernel
    sets a plan up once per box.  The pair row M^t c of a column is built
    once, when the next column is searched for, and each call passes its
    pair rows lambda(c_j, x) = lam[j][depth] to the kernel beside the plan.

    Root certificate: a depth whose constants fail the gcd rule of a row
    (see `_column_constraints`) has no integer column at any bound, so the
    verdict is "no" at 0 nodes, before any kernel call, its reason naming
    the depth and mus[d].

    Budget rule: the passes, blocks and nested calls included, share one
    node count, the sum of every call's own nodes.  Each kernel call gets
    what is left of `node_budget` when it starts: a nested call gets what
    its parent has left (`search.search_vectors`'s on_result), and the
    parent counts what it used against its own limit, so a nested call
    that passes the budget ends every call it is nested in, and no further
    call is made, in that pass or a later one; each vector found before the
    stop has reached `leaf` or its own nested call.  So a search stopped on
    the budget exactly when the node count is over node_budget, and it is
    then node_budget + 1.  A negative bound or node_budget is refused with
    ValueError.

    Otherwise the verdict is "unknown", with the reason "node budget
    exhausted" when the node count is over node_budget (STACK_EXHAUSTED at
    the depth limit), else "no `what` within the bound".
    """
    if bound < 0:
        raise ValueError(f"search bound {bound} is negative")
    if node_budget < 0:
        raise ValueError(f"node budget {node_budget} is negative")
    n, k = target.rank, len(mus)
    passes, values, certificate = _column_constraints(target, lam, mus)
    if certificate:
        return SearchOutcome("no", bound=bound, reason=certificate)
    cut = not any(map(any, lam)) and all(m.is_zero for m in mus)
    cols: List[List[int]] = []
    rows: List[List[int]] = []
    nodes = 0
    witness = None

    def column(pass_, depth: int, box: int, budget: int, ann: List[List[int]]) -> int:
        # searches column `depth` within `budget` nodes, and each tuple below
        # every vector the kernel finds as it finds it; returns the nodes
        # that this call and its nested ones used.  ann: integer rows
        # spanning the annihilator of the columns chosen
        nonlocal nodes
        idx, mt, plan = pass_
        if depth:
            rows[depth - 1:] = [_intmat.mat_vec(mt, [cols[-1][i] for i in idx])]
        else:
            rows.clear()  # a new pass: no column is chosen yet

        def extend(vec, remaining):
            nonlocal witness
            col = [0] * n  # a block's vector, extended by zeros
            for i, x in zip(idx, vec):
                col[i] = x
            if cut and cols and col <= cols[-1]:
                return False, 0
            # in the span of the columns chosen exactly when every row of
            # their annihilator kills it (the zero vector, with none chosen):
            # no witness below it then
            if not (any(sum(map(mul, r, col)) for r in ann) if depth else any(col)):
                return False, 0
            cols.append(col)
            if depth + 1 == k:
                witness, used = leaf(cols), 0
            else:
                dots = [sum(map(mul, r, col)) for r in ann] if depth else col
                used = column(pass_, depth + 1, box, remaining, _annihilator(ann, dots))
            cols.pop()
            return witness is not None, used

        before = nodes
        _, own, _ = search.search_vectors(
            len(idx), plan, box, 1 << 30, budget, cut,
            rows=[(row, -lam[j][depth]) for j, row in enumerate(rows)], on_result=extend,
            constants=values[depth],
        )
        nodes += own
        return nodes - before

    def boxes():
        # no column or a rank-0 target (one box, {()}, at every bound): one
        # pass; else the next box is the least that the whole target's
        # depth-0 constants admit, asked for only when a pass ends without a
        # witness and within the budget, since bound may be huge
        box = min(bound, 1) if n and k else bound
        while box is not None:
            yield box
            if box == bound:
                return
            box = passes[-1][2].least_bound(box + 1, bound, values[0])

    unit = _intmat.identity(n)  # the annihilator of no column
    deep = False
    try:
        for box, pass_ in ((box, pass_) for box in boxes() for pass_ in passes):
            if k:
                column(pass_, 0, box, node_budget - nodes, unit)
            else:
                witness = leaf(cols)
            if witness is not None or nodes > node_budget:
                break
    except RecursionError:  # the depth limit: stop as on the budget
        deep = True
    column = None  # break the closure's cycle: its lists go now, not at a gc
    if witness is not None:
        return SearchOutcome("found", witness=witness, bound=bound, nodes=nodes)
    if deep:
        reason = STACK_EXHAUSTED
    elif nodes > node_budget:
        reason = BUDGET_EXHAUSTED
    else:
        reason = f"no {what} within the bound"
    return SearchOutcome("unknown", reason=reason, bound=bound, nodes=nodes)


def isometry_verify(f: QForm, g: QForm, b: Sequence[Sequence[int]]) -> bool:
    """Whether b (columns = images of f's basis) is an isometry f -> g:
    det(b) = +-1, b^T G b = F, and mu of g at each column is mu of f at its
    basis vector.  The matrices are compared as they are; no form is
    built."""
    if f.parameter != g.parameter or f.rank != g.rank:
        return False
    if _intmat.determinant(b) not in (1, -1):
        return False
    cols = _intmat.transpose(b)
    pulled = _intmat.mat_mul(cols, _intmat.mat_mul(g.lambda_matrix, b)) if cols else []
    return pulled == [list(r) for r in f.lambda_matrix] and all(
        mu_eval(g, c) == m for c, m in zip(cols, f.mu_basis)
    )


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
    # one elimination per form gives its determinant and its signature
    (det_f, (pos, neg)), (det_g, (pos_g, neg_g)) = map(_det_and_inertia_of, (f, g))
    if abs(det_f) != abs(det_g):
        return SearchOutcome("no", reason="different determinants", bound=bound)
    if pos - neg != pos_g - neg_g:
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
    """A certified reason why f cannot be metabolic, or '': a non-zero Witt
    class (`witt_class` inverts the matrix, which is the nonsingularity
    check: a singular form, or one whose class cannot be computed,
    certifies nothing), or Arf invariant 1 through an injective quasi-Wu
    class: if every mu value lies in the image of v', a faithful copy of
    Z2, f lifts to a Z2-valued quadratic refinement, read off f's matrix
    and the 0/1 column of its mu values, and a lagrangian of f would be one
    of the lift."""
    from . import witt

    try:
        if not witt.witt_class(f).is_zero:
            return "non-zero Witt class"
    except ValueError:
        return ""
    q = f.parameter
    image = {q.carrier.zero().coords, q.p_one.coords}
    if (
        not q.is_symmetric and not q.p_one.is_zero
        and all(m.coords in image for m in f.mu_basis)
        and witt._arf(f.lambda_matrix, [[0 if m.is_zero else 1 for m in f.mu_basis]]) == 1
    ):
        return "Arf invariant 1 of the quadratic lift"
    return ""


def _saturation(mat: Sequence[Sequence[int]], k: int) -> Tuple[bool, List[Tuple[int, ...]]]:
    """Of the k columns of the integer matrix `mat`, from one Smith form U
    mat V = D: whether they are primitive (independent, every d_ii 1: they
    span a summand), and a basis of the saturation of their span (the
    vectors some non-zero multiple of which lies in it), the first rank(D)
    columns of U^-1; its length is their rank."""
    s = _intmat.SNF(mat, keep=("uinv",))
    primitive = s.rank == k and all(s.d[i][i] == 1 for i in range(k))
    return primitive, [tuple(row[j] for row in s.uinv) for j in range(s.rank)]


def _saturate_if_needed(
    f: QForm, basis: Sequence[Sequence[int]]
) -> Optional[Tuple[Tuple[int, ...], ...]]:
    """Upgrade an isotropic sublattice to a lagrangian when possible; the
    driver passes independent columns only, so the basis has full rank.  A
    saturated basis, the first columns of a unimodular U^-1, is primitive,
    so only its isotropy is tested."""
    vecs = [tuple(v) for v in basis]
    primitive, sat = _saturation(_intmat.transpose(vecs), len(vecs))
    if primitive:
        return tuple(vecs)
    return tuple(sat) if _pulls_back_to_zero(f, _intmat.transpose(sat)) else None


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

    def matrix(cols):
        # the driver passes independent columns only, so the map is
        # injective.  One row per basis vector of the target, empty ones for
        # a rank-0 eta
        return tuple(tuple(col[i] for col in cols) for i in range(target.rank))

    return _column_search(
        target, eta.lambda_matrix, eta.mu_basis, bound, node_budget, matrix,
        "embedding with coordinates",
    )


def _embedding_obstruction(eta: QForm, target: QForm) -> str:
    """An invariant that rules out every morphism eta -> target (same
    parameter, eta.rank <= target.rank), or ''; see `embedding_search`."""
    from . import witt

    if eta.rank < target.rank and not eta.parameter.is_symmetric:
        return ""  # only the inertia would certify, and it is (0, 0)
    # one elimination per form gives its inertia and its determinant
    (det_target, have), (det_eta, need) = map(_det_and_inertia_of, (target, eta))
    if have[0] < need[0] or have[1] < need[1]:
        return f"target inertia {have} lacks the source's {need}"
    if eta.rank < target.rank or det_eta not in (1, -1):
        return ""
    if det_target not in (1, -1):
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
    """Absorbing = indefinite (see `is_indefinite`) and full, for
    nonsingular forms only; one elimination gives det and inertia."""
    det, (pos, neg) = _det_and_inertia_of(f)
    if det not in (1, -1):
        raise ValueError("absorbing is defined for nonsingular forms")
    indefinite = min(pos, neg) >= 1 if f.parameter.is_symmetric else f.rank >= 2
    return indefinite and is_full(f)


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
    z_el = smu.solver()(rhs)
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
        lambda cols: (tuple(cols[0]),) if gcd(*cols[0]) == 1 else None,
        "primitive isotropic vector",
    )
    return list(out.witness[0]) if out.found else None


def _solve_unit_combination(row: Sequence[int]) -> List[int]:
    """Some y with row . y == 1 (row has gcd 1)."""
    sol = _intmat.solve([list(row)], [1])
    if sol is None:
        raise AssertionError("vector is not primitive")
    return sol
