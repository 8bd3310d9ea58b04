"""Extended quadratic forms (Q-forms) on free lattices.

A Q-form is (X, lambda, mu): an eps-symmetric integer bilinear form on
X = Z^k together with a quadratic refinement mu: X -> Q_e satisfying

    mu(x + y) = mu(x) + mu(y) + p(lambda(x, y)),   h(mu(x)) = lambda(x, x).

mu is stored on the basis only; every other value is computed through the
addition and scalar rules, never cached, so equality stays structural.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, List, Optional, Sequence, Tuple, TypeVar

from . import _intmat, search
from .abelian import AbHom, FinAbGroup, GroupElement
from .formparam import FormParameter, FPMorphism, linearisation

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
]

DEFAULT_BOUND = 3
DEFAULT_NODE_BUDGET = 4_000_000

_W = TypeVar("_W")


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
        return _intmat.determinant([list(r) for r in self.lambda_matrix])

    def s_mu(self) -> AbHom:
        """The linearisation X -> SQ of mu (a homomorphism)."""
        sq, proj = linearisation(self.parameter)
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
        mat = [list(r) for r in self.matrix]
        if len(mat) != self.target.rank or any(
            len(r) != self.source.rank for r in mat
        ):
            raise ValueError("embedding matrix has the wrong shape")
        pulled = pullback(self.target, mat)
        if pulled.lambda_matrix != self.source.lambda_matrix or any(
            a != b for a, b in zip(pulled.mu_basis, self.source.mu_basis)
        ):
            raise ValueError("matrix does not pull the form back exactly")
        if _rank_of(mat) != self.source.rank:
            raise ValueError("embedding is not injective")

    @property
    def is_primitive(self) -> bool:
        cols = [list(r) for r in self.matrix]
        if self.source.rank == 0:
            return True
        s = _intmat.SNF(cols)
        return all(s.d[i][i] == 1 for i in range(self.source.rank))


def _rank_of(mat: Sequence[Sequence[int]]) -> int:
    if not mat or not mat[0]:
        return 0
    return _intmat.SNF([list(r) for r in mat]).rank


@dataclass(frozen=True)
class SearchOutcome:
    """Three-valued verdict of a bounded search.

    `nodes` counts the kernel's search-tree nodes.  No kernel call is made
    after the node budget is spent, so it is at most node_budget + 1, and
    "node budget exhausted" is the reason when a call stopped early.
    """

    status: str  # "found" | "no" | "unknown"
    witness: Optional[Tuple[Tuple[int, ...], ...]] = None
    reason: str = ""
    bound: int = 0
    nodes: int = 0

    @property
    def found(self) -> bool:
        return self.status == "found"


def _binom2(n: int) -> int:
    return n * (n - 1) // 2


def mu_eval(f: QForm, x: Sequence[int]) -> GroupElement:
    """mu at an arbitrary vector, by the scalar and addition rules."""
    if len(x) != f.rank:
        raise ValueError("vector length does not match the rank")
    q = f.parameter
    acc = q.carrier.zero()
    n = 0
    for i, xi in enumerate(x):
        if xi == 0:
            continue
        # mu(xi * b_i), then the cross term with the accumulated prefix
        term = xi * f.mu_basis[i] + q.p(
            _binom2(xi) * f.lambda_matrix[i][i]
        )
        cross = sum(
            x[j] * f.lambda_matrix[j][i] for j in range(i)
        )
        acc = acc + term + q.p(cross * xi)
    return acc


def direct_sum(f: QForm, g: QForm) -> QForm:
    if f.parameter != g.parameter:
        raise ValueError("parameter mismatch")
    k, l = f.rank, g.rank
    mat = [
        [
            f.lambda_matrix[i][j] if i < k and j < k else 0
            for j in range(k)
        ]
        + [0] * l
        for i in range(k)
    ] + [
        [0] * k + list(g.lambda_matrix[i])
        for i in range(l)
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
    cols = [list(c) for c in zip(*basis)] if basis and basis[0] else []
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


def signature_of_matrix(mat: Sequence[Sequence[int]]) -> int:
    """Signature of a symmetric matrix by exact congruence diagonalization."""
    n = len(mat)
    a = [[Fraction(x) for x in row] for row in mat]
    sig = 0
    rows = list(range(n))
    while rows:
        piv = next((i for i in rows if a[i][i] != 0), None)
        if piv is None:
            off = [
                (i, j)
                for i in rows
                for j in rows
                if i != j and a[i][j] != 0
            ]
            if not off:
                break  # remaining block is zero
            i, j = off[0]
            for t in range(n):
                a[i][t] += a[j][t]
            for t in range(n):
                a[t][i] += a[t][j]
            continue
        rows.remove(piv)
        d = a[piv][piv]
        sig += 1 if d > 0 else -1
        for i in list(rows):
            c = a[i][piv] / d
            if c:
                for t in range(n):
                    a[i][t] -= c * a[piv][t]
                for t in range(n):
                    a[t][i] -= c * a[t][piv]
    return sig


def is_indefinite(f: QForm) -> bool:
    """Indefiniteness of the underlying bilinear form.

    For alternating nonsingular forms every vector is isotropic, so any
    form of positive rank counts as indefinite; rank >= 2 is required so
    that a primitive isotropic vector with a dual partner exists.
    """
    if f.parameter.is_symmetric:
        return abs(signature_of_matrix(f.lambda_matrix)) < f.rank
    return f.rank >= 2


def characteristic_check(f: QForm, c: AbHom) -> bool:
    """Whether c: X -> C (cyclic) is characteristic for lambda.

    Checks lambda(x, x) = c(x) mod 2 on the basis and on pairwise sums
    (the polarized identity), which suffices by bilinearity.
    """
    if not f.parameter.is_symmetric:
        raise ValueError("characteristic maps live over symmetric parameters")
    if c.target.ngens > 1:
        raise ValueError("target must be cyclic")

    def c2(vec) -> int:
        img = c(c.source.element(vec))
        if c.target.ngens == 0:
            return 0
        n = c.target.orders[0]
        if n % 2 == 1 and n != 0:
            return 0  # odd cyclic: C/2C is trivial
        return img.coords[0] % 2

    k = f.rank
    for i in range(k):
        e = [0] * k
        e[i] = 1
        if f.lambda_matrix[i][i] % 2 != c2(e):
            return False
    for i in range(k):
        for j in range(i + 1, k):
            e = [0] * k
            e[i] = e[j] = 1
            if f.lam(e, e) % 2 != c2(e):
                return False
    return True


def lagrangian_verify(f: QForm, basis: Sequence[Sequence[int]]) -> bool:
    """Whether the given vectors span a lagrangian of f.

    Requires a primitive half-rank summand with lambda = 0 on it and mu = 0
    on the basis vectors and their pairwise sums (mu is not linear; with
    lambda vanishing this forces mu = 0 on the whole summand).
    """
    vecs = [list(v) for v in basis]
    if 2 * len(vecs) != f.rank:
        return False
    if len(vecs) == 0:
        return True
    cols = [[v[i] for v in vecs] for i in range(f.rank)]
    s = _intmat.SNF(cols)
    if s.rank != len(vecs) or any(
        s.d[i][i] != 1 for i in range(len(vecs))
    ):
        return False
    for i, v in enumerate(vecs):
        for w in vecs[i:]:
            if f.lam(v, w) != 0:
                return False
    for i, v in enumerate(vecs):
        if not mu_eval(f, v).is_zero:
            return False
        for w in vecs[i + 1:]:
            if not mu_eval(f, [a + b for a, b in zip(v, w)]).is_zero:
                return False
    return True


# -- bounded searches ---------------------------------------------------------


def _mu_constraints(
    f: QForm, target: GroupElement
) -> List[Tuple[List[List[int]], List[int], int, int]]:
    """Quadratic congruences expressing mu(x) == target, doubled to clear
    the binomial denominators."""
    q = f.parameter
    out = []
    m = [list(r) for r in f.lambda_matrix]
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


def _column_search(
    target: QForm,
    lam: Sequence[Sequence[int]],
    mus: Sequence[GroupElement],
    bound: int,
    node_budget: int,
    leaf: Callable[[List[List[int]]], Optional[_W]],
    keep: Optional[Callable[[Tuple[int, ...], List[List[int]]], bool]] = None,
    normalize: bool = False,
) -> Tuple[Optional[_W], int, bool]:
    """The backtracking driver behind every bounded search.

    Looks for columns c_0, ..., c_{k-1} of target with entries within
    `bound`, lambda(c_i, c_j) = lam[i][j] and mu(c_i) = mus[i], in the
    kernel's enumeration order; `keep` filters the candidates for a column,
    and `normalize` is passed to the kernel.  The first complete tuple that
    `leaf` turns into a witness (anything but None) ends the search.

    The square and mu constraints of each depth are built once, and the
    pair row M^t c of a column once, when the next column is searched for.

    Budget rule: each kernel call gets the nodes left of `node_budget`,
    and once a call reports that it stopped early no further call is made.
    The vectors that call did return are still tried, so a witness among
    them still reaches `leaf`, and the node count stays at most
    node_budget + 1.

    Returns (witness or None, nodes, whether every call ran to the end).
    """
    n, k = target.rank, len(mus)
    mt = _intmat.transpose(target.lambda_matrix)
    zero = [[0] * n for _ in range(n)]
    fixed = []
    for d in range(k):
        square = _lambda_square_constraint(target, lam[d][d])
        fixed.append(
            None if square is None
            else square + _mu_constraints(target, mus[d])
        )
    cols: List[List[int]] = []
    rows: List[List[int]] = []
    nodes = 0
    exhausted = True

    def rec(depth: int) -> Optional[_W]:
        nonlocal nodes, exhausted
        if depth == k:
            return leaf(cols)
        if fixed[depth] is None:
            return None
        if depth:
            rows[depth - 1:] = [_intmat.mat_vec(mt, cols[-1])]
        constraints = fixed[depth] + [
            (zero, row, -lam[j][depth], 0) for j, row in enumerate(rows)
        ]
        results, used, done = search.search_vectors(
            n, constraints, bound, 1 << 30, node_budget - nodes, normalize
        )
        nodes += used
        exhausted = exhausted and done
        for vec in results:
            if not exhausted and depth + 1 < k:
                break  # the budget is spent: no deeper kernel call
            if keep is not None and not keep(vec, cols):
                continue
            cols.append(list(vec))
            witness = rec(depth + 1)
            cols.pop()
            if witness is not None:
                return witness
        return None

    return rec(0), nodes, exhausted


def isometry_verify(f: QForm, g: QForm, b: Sequence[Sequence[int]]) -> bool:
    """Whether b (columns = images of f's basis) is an isometry f -> g."""
    if f.parameter != g.parameter or f.rank != g.rank:
        return False
    mat = [list(r) for r in b]
    if f.rank == 0:
        return True
    if _intmat.determinant(mat) not in (1, -1):
        return False
    pulled = pullback(g, mat)
    return (
        pulled.lambda_matrix == f.lambda_matrix
        and all(a == c for a, c in zip(pulled.mu_basis, f.mu_basis))
    )


def isometry_search(
    f: QForm,
    g: QForm,
    bound: int = DEFAULT_BOUND,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> SearchOutcome:
    """Bounded exhaustive search for an isometry f -> g."""
    if f.parameter != g.parameter:
        return SearchOutcome("no", reason="different form parameters")
    if f.rank != g.rank:
        return SearchOutcome("no", reason="different ranks")
    if abs(f.det()) != abs(g.det()):
        return SearchOutcome("no", reason="different determinants")
    if f.parameter.is_symmetric and signature_of_matrix(
        f.lambda_matrix
    ) != signature_of_matrix(g.lambda_matrix):
        return SearchOutcome("no", reason="different signatures")

    def unimodular(cols):
        mat = _intmat.transpose(cols)
        if _intmat.determinant(mat) in (1, -1):
            return tuple(tuple(r) for r in mat)
        return None

    witness, nodes_total, exhausted_all = _column_search(
        g, f.lambda_matrix, f.mu_basis, bound, node_budget, unimodular
    )
    if witness is not None:
        assert isometry_verify(f, g, witness)
        return SearchOutcome(
            "found", witness=witness, bound=bound, nodes=nodes_total
        )
    status = "unknown"
    reason = (
        "no isometry with matrix entries within the bound"
        if exhausted_all
        else "node budget exhausted"
    )
    return SearchOutcome(status, reason=reason, bound=bound, nodes=nodes_total)


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
        return SearchOutcome("no", reason="odd rank")
    if use_obstructions:
        obstruction = _metabolic_obstruction(f)
        if obstruction:
            return SearchOutcome("no", reason=obstruction, bound=bound)
    k = f.rank // 2

    def increasing(vec, basis):
        # non-zero, and lexicographically increasing bases only
        return any(vec) and (not basis or list(vec) > basis[-1])

    found, nodes_total, exhausted_all = _column_search(
        f,
        [[0] * k for _ in range(k)],
        [f.parameter.carrier.zero()] * k,
        bound,
        node_budget,
        lambda basis: _saturate_if_needed(f, basis),
        increasing,
        normalize=True,
    )
    if found is not None:
        assert lagrangian_verify(f, found)
        return SearchOutcome(
            "found",
            witness=tuple(tuple(v) for v in found),
            bound=bound,
            nodes=nodes_total,
        )
    reason = (
        "no lagrangian with coordinates within the bound"
        if exhausted_all
        else "node budget exhausted"
    )
    return SearchOutcome("unknown", reason=reason, bound=bound, nodes=nodes_total)


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
) -> Optional[List[List[int]]]:
    """Upgrade an isotropic sublattice to a lagrangian when possible."""
    vecs = [list(v) for v in basis]
    cols = [[v[i] for v in vecs] for i in range(f.rank)]
    s = _intmat.SNF(cols)
    if s.rank != len(vecs):
        return None
    if all(s.d[i][i] == 1 for i in range(len(vecs))):
        return vecs
    uinv = _intmat.unimodular_inverse(s.u)
    sat = [
        [uinv[i][j] for i in range(f.rank)] for j in range(len(vecs))
    ]
    if all(mu_eval(f, v).is_zero for v in sat) and lagrangian_verify(f, sat):
        return sat
    return None


def embedding_search(
    eta: QForm,
    target: QForm,
    bound: int = DEFAULT_BOUND,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> SearchOutcome:
    """Bounded search for a morphism of Q-forms eta -> target."""
    if eta.parameter != target.parameter:
        return SearchOutcome("no", reason="different form parameters")

    def injective(cols):
        # a rank-deficient tuple is no embedding: the search goes on
        mat = _intmat.transpose(cols)
        if _rank_of(mat) == eta.rank:
            return tuple(tuple(r) for r in mat)
        return None

    witness, nodes, exhausted = _column_search(
        target, eta.lambda_matrix, eta.mu_basis, bound, node_budget, injective
    )
    if witness is not None:
        return SearchOutcome("found", witness=witness, bound=bound, nodes=nodes)
    reason = (
        "no embedding with coordinates within the bound"
        if exhausted
        else "node budget exhausted"
    )
    return SearchOutcome("unknown", reason=reason, bound=bound, nodes=nodes)


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
    i(e) = (x, -x, 0) and i(f) = (y + delta x, -delta x, z).
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
        raise RuntimeError(
            "no primitive isotropic vector within the coefficient bound"
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
    mt = _intmat.transpose([list(r) for r in f.lambda_matrix])
    row = _intmat.mat_vec(mt, x)
    y = _solve_unit_combination(row)
    sq, proj = linearisation(q)
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
    """First primitive x with lambda(x, x) = 0 in the bounded box."""
    cons = _lambda_square_constraint(f, 0) or []
    b = bound
    while b <= max(bound, 6):
        results, _, exhausted = search.search_vectors(
            f.rank, cons, b, 1 << 30, node_budget, True
        )
        for vec in results:
            if any(vec) and _intmat.vec_gcd(list(vec)) == 1:
                return list(vec)
        if not exhausted:
            break
        b += 1
    return None


def _solve_unit_combination(row: Sequence[int]) -> List[int]:
    """Some y with row . y == 1 (row has gcd 1)."""
    sol = _intmat.solve([list(row)], [1])
    if sol is None:
        raise AssertionError("vector is not primitive")
    return sol
