"""Witt classes, Witt groups and Grothendieck-Witt groups of form parameters.

For an indecomposable parameter the Witt group is detected by classical
invariants: signature (divided by 8 over the even-symmetric parameter),
the signature-defect pair (sigma, rho) over the ZP family, the Arf
invariant over the rank-one anti-symmetric parameter, and zero otherwise.
A general parameter is split as Q + G; the reduced part of a class is the
tensor invariant F with values in G (x) Q, and (the classical invariants,
F) is a complete Witt invariant.  Inside this module a form is its matrix
and the coordinate columns of its mu values over Q + G: the classical
invariants read the Q columns and F reads both, so no form over Q or
Q + G is built to compute a class.  QForm is the validated type at the
module's boundary.

The natural model: the extended symmetrisation embeds W0(P) into
Z + Gamma(SP) with image Sigma(v_P); the extended quadratic lift maps
Z2 + Lambda1(P_e) onto W0(P) with kernel K(v'_P).  `_model` builds both
ambient groups and their tensor presentations, and every function of the
natural description reads them there.

The per-kind Witt data (name, order, representative, invariant and the
representative's signature of each generator) are one cached table,
`_indecomposables`, read by `witt_group`, `witt_class` and
`WittClass.signature`.  `witt_class` inverts the form's matrix once, which
is also its nonsingularity check, and takes the signature at most once;
every other step is an integer product over whole rows.  The mu values go
through the maximal splitting as one product of its matrix with their
coordinates, kept as one column per coordinate of Q + G.  The tensor
invariant's bracket sum is the product m^T U m over G's generators, U the
strict upper triangle of M^-T; its simple symbols take the values
mu(y_j), y_j column j of M^-1, whose scalar part over a symmetric
parameter is s_j = (M^-1[j][j] - sum_i M_ii M^-1[i][j]) / 2, because
y_j^T M y_j = M^-1[j][j].  `tensor_invariant(f, pres)` and `form_from_tensor(pres, t)`
read Q0 and G off the presentation, and `form_from_tensor` fills one
block-diagonal matrix and one mu list.  A description builds its group
once, when it is built.  `induced_witt_map` goes through the natural
models: `_natural(p)`, cached per parameter, gives a map into the model of
W0(P) and one out of it.

The structure diagrams are checked in straight lines, every
image-equals-kernel step an `is_kernel` call: `sigma_diagram` splits on
v = 0 in one place, which sets Upsilon(v), C(v), the images of the Z
summand and the columns of C(v) -> Upsilon(v) -> A (x) Z2 after one
quotient of Gamma(A) by Psi(v), and builds u_v from its formula on the
symbols; `lambda_diagram` reads the pieces of K(v') off `lambda_quotient`
once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache, partial
from operator import mul
from typing import Callable, List, NamedTuple, Optional, Sequence, Tuple

from . import _intmat
from .abelian import (
    Z2,
    AbHom,
    FinAbGroup,
    GroupElement,
    generated_group,
    is_kernel,
    kernel_generators,
    least_preimage_of_one,
    quotient_with_lift,
    subgroup,
    tensor_map,
    tensor_with_generators,
)
from .formparam import (
    CosliceHom,
    FormParameter,
    FPMorphism,
    MaximalSplitting,
    SliceHom,
    _recognise_standard,
    eql,
    es,
    linearisation,
    maximal_splitting,
    split_sum,
    standard,
    S_of,
)
from .qform import (
    QForm,
    _det_and_inertia_of,
    _mu_scalar,
    pushforward,
    signature_of_matrix,
)
from .qtensor import TensorPresentation, induced_map, present

__all__ = [
    "WittClass",
    "WittGroupDescription",
    "GWClass",
    "signature",
    "signature_defect",
    "tensor_invariant",
    "form_from_tensor",
    "witt_class",
    "witt_group",
    "induced_witt_map",
    "sigma_subgroup",
    "lambda_quotient",
    "es_witt",
    "eql_witt",
    "eql_witt_hom",
    "sigma_diagram",
    "lambda_diagram",
    "gw_class",
    "gw_group",
]


# -- classical invariants ------------------------------------------------------


def signature(f: QForm) -> int:
    if not f.parameter.is_symmetric:
        raise ValueError("signature needs a symmetric parameter")
    det, (pos, neg) = _det_and_inertia_of(f)  # one elimination
    if det not in (1, -1):
        raise ValueError("signature of a singular form")
    return pos - neg


def _omega_data(f: QForm, shift: Optional[Sequence[int]] = None):
    """(sigma, omega-hat squared, level k) for a nonsingular form over the
    ZP family (k = 0 for ZP itself).

    The linearisation of the carrier Z + Z_{2^k} is pinned to Z_{2^{k+1}}
    via (a, b) -> a + 2b (and to Z for the infinite member); rho is only
    invariant once this unit is fixed, so the generic canonical quotient
    is not used here.
    """
    try:
        kind, k = _recognise_standard(f.parameter)
    except ValueError:
        kind = None
    if kind not in ("ZP", "ZP_k"):
        raise ValueError("rho is defined over the ZP family only")
    if shift is not None and len(shift) != f.rank:
        raise ValueError(f"shift has {len(shift)} entries, the form has rank {f.rank}")
    lam, k = f.lambda_matrix, k or 0
    minv = _intmat.unimodular_inverse(lam)
    mus = _columns(f.mu_basis, 2)
    return signature_of_matrix(lam), _omega_square(mus, minv, k, shift), k


def _omega_square(mus, minv, k: int, shift=None) -> int:
    """omega-hat squared, where omega lifts the linearised mu, read off the
    first two mu columns, and omega-hat = M^-1 omega."""
    omega = [a + 2 * b for a, b in zip(mus[0], mus[1])]
    if k:
        omega = [w % 2 ** (k + 1) for w in omega]
    if shift is not None:
        step = 2 ** (k + 1) if k else 0
        omega = [w + step * s for w, s in zip(omega, shift)]
    return sum(a * b for a, b in zip(_intmat.mat_vec(minv, omega), omega))


def _defect(sig: int, osq: int, k: int) -> int:
    """(sigma - omega-hat^2)/8, reduced mod 2^(k-1) at a level k > 0."""
    if (sig - osq) % 8:
        raise AssertionError("characteristic square incongruent to signature mod 8")
    val = (sig - osq) // 8
    return val % 2 ** (k - 1) if k else val


def signature_defect(f: QForm, shift: Optional[Sequence[int]] = None) -> int:
    """The signature defect (sigma - omega_hat^2)/8.

    Over ZP the value is an integer; over ZP_k it is reduced mod 2^(k-1).
    The linearised refinement is lifted by smallest non-negative residues;
    `shift` adds 2^(k+1) times the given functional to the lift (the value
    is unchanged, which the tests assert).
    """
    return _defect(*_omega_data(f, shift))


def _rho(k: int, lam, mus, minv, sig: int) -> int:
    """`signature_defect` at level k, as an `_Indecomposable` invariant."""
    return _defect(sig, _omega_square(mus, minv, k), k)


def _arf(lam, mus, _minv=None, _sig=None) -> int:
    """The Arf invariant, the c* coordinate of a Witt class over Q-, of a
    nonsingular matrix whose first mu column holds the Q- coordinate; that
    coordinate of mu(x) is sum_i x_i mu(b_i) + s, as in qform.mu_eval with
    p(1) = 1.

    lambda mod 2 is nonsingular and mu depends only on x mod 2 (mu(2y) =
    2 mu(y) + p(lambda(y, y)) = 0 in Z2), so the Arf invariant is sum_i
    mu(e_i) mu(f_i) over any symplectic basis of lambda over F2.  Each pair
    takes the first remaining e and the first remaining f with lambda(e, f)
    = 1, then projects the rest onto their complement, w -> w + lambda(w,
    f) e + lambda(w, e) f (mod 2)."""

    def times_m(v: Sequence[int]) -> List[int]:
        return [x % 2 for x in _intmat.mat_vec(lam, v)]

    def dot(v: Sequence[int], w: Sequence[int]) -> int:
        return sum(a * b for a, b in zip(v, w)) % 2

    def mu(v: Sequence[int]) -> int:
        return (sum(map(mul, v, mus[0])) + _mu_scalar(lam, v)) % 2

    rem = _intmat.identity(len(lam))
    total = 0
    while rem:
        e = rem.pop(0)
        me = times_m(e)
        fv = rem.pop(next(i for i, w in enumerate(rem) if dot(w, me)))
        mf = times_m(fv)
        total += mu(e) * mu(fv)
        for w in rem:
            a, b = dot(w, mf), dot(w, me)
            w[:] = [(wi + a * ei + b * fi) % 2 for wi, ei, fi in zip(w, e, fv)]
    return total % 2


# -- the F / gamma correspondence ---------------------------------------------


def tensor_invariant(f: QForm, pres: TensorPresentation) -> GroupElement:
    """The reduced-part invariant in G (x) Q0 of a nonsingular form over
    Q0 + G, where G and Q0 are pres.g and pres.q.

    With (y_j) the basis dual to the chosen one (x_i), this is
    sum_{i<j} [mu_G(x_i), mu_G(x_j)] (x) lambda(y_i, y_j)
    + sum_j mu_G(x_j) (x) mu_Q(y_j); it vanishes on metabolic forms and is
    independent of the basis.  y_j is column j of M^-1, so the Gram matrix
    of the y is M^-T and lambda(y_i, y_j) = M^-1[j][i]; a singular form has
    no inverse, and unimodular_inverse refuses it.  The form's parameter must
    be split_sum(Q0, G): its carrier, h row and p(1) are compared with Q0's,
    padded with zeros over G, coordinate by coordinate.

    The sum is taken on integer coordinates.  [x, y] (x) a is bilinear in x
    and y and linear in a, so with m the matrix whose row i holds the G
    coordinates of mu(x_i), the brackets add up to the one matrix
    B = m^T U m over G's generator pairs, U being the strict upper triangle
    of M^-T (U_ij = M^-1[j][i] for i < j).  The values mu_Q(y_j) =
    sum_i M^-1[i][j] mu_Q(x_i) + p(s_j) (see qform.mu_eval) are the rows of
    M^-T times the matrix of Q0 coordinates of the mu(x_i), plus s_j p(1);
    the abstract coefficients are reduced once, in the presented group
    (see `_tensor_invariant` for the product forms).
    """
    q0, p, pad = pres.q, f.parameter, (0,) * pres.g.ngens
    if (
        p.carrier.orders != q0.carrier.orders + pres.g.orders
        or p.h.matrix[0] != q0.h.matrix[0] + pad
        or p.p_one.coords != q0.p_one.coords + pad
    ):
        raise ValueError("form is not over the expected split parameter")
    lam = f.lambda_matrix
    mus = _columns(f.mu_basis, p.carrier.ngens)
    return _tensor_invariant(lam, mus, pres, _intmat.unimodular_inverse(lam))


def _columns(xs: Sequence[GroupElement], width: int) -> List[List[int]]:
    """The first `width` coordinate columns of the elements xs: column t
    holds coordinate t of each."""
    return [[x.coords[t] for x in xs] for t in range(width)]


def _tensor_invariant(
    lam: Sequence[Sequence[int]],
    mus: Sequence[Sequence[int]],
    pres: TensorPresentation,
    minv: Sequence[Sequence[int]],
) -> GroupElement:
    """`tensor_invariant` of the form with matrix `lam`, inverse `minv` and
    mu values with coordinate columns `mus` over Q0 + G.

    Every step is a row product over whole columns.  With y_j row j of
    M^-T and m_a the column of G coordinate a of the mu(x_i), the bracket
    matrix is B_ab = m_a . (U m_b), (U m_b)_i = y_i[i+1:] . m_b[i+1:].
    The scalar s_j of mu(y_j) (qform.mu_eval) over a symmetric parameter
    is (M^-1[j][j] - sum_i M_ii M^-1[i][j]) / 2: x^T M x = sum_i x_i^2 M_ii
    + 2 sum_{i<k} x_i x_k M_ik, and y_j^T M y_j = M^-1[j][j] since M^-1 is
    symmetric; over an anti-symmetric one it is qform._mu_scalar(M, y_j)."""
    if pres.group.is_trivial:
        return pres.group.zero()
    q0 = pres.q
    nq = q0.carrier.ngens
    y = list(zip(*minv))
    qcols, gcols = mus[:nq], mus[nq:]
    upper = [(yi[i + 1:], i + 1) for i, yi in enumerate(y)]
    ucols = [[sum(map(mul, yu, gc[i:])) for yu, i in upper] for gc in gcols]
    c = [0] * len(pres.symbols)
    pres.add_brackets(c, [[sum(map(mul, ga, ub)) for ub in ucols] for ga in gcols])
    if nq:
        if q0.is_symmetric:
            diag = [row[i] for i, row in enumerate(lam)]
            s = [(yj[j] - sum(map(mul, diag, yj))) // 2 for j, yj in enumerate(y)]
        else:
            s = [_mu_scalar(lam, yj) for yj in y]
        # mu(y_j) = sum_i y_ji mu(x_i) + p(s_j), as in qform.mu_eval, on
        # integer lifts: the relations of G (x) Q0 kill the torsion of Q0
        p1 = q0.p_one.coords
        muq = [
            [sum(map(mul, yj, qc)) + sj * pk for qc, pk in zip(qcols, p1)]
            for yj, sj in zip(y, s)
        ]
        pres.add_simples(c, list(zip(*gcols)), muq)
    return pres.group.combination(c, pres.basis_map)


def form_from_tensor(pres: TensorPresentation, t: GroupElement) -> QForm:
    """A nonsingular form over Q0 + G whose reduced invariant is t in
    G (x) Q0, where G and Q0 are pres.g and pres.q: the blocks of
    `_tensor_blocks` filled into one block-diagonal matrix and one list of
    mu values."""
    split = split_sum(pres.q, pres.g)
    diag, rows = _tensor_blocks(pres, t)
    mus = [split.carrier.element(r) for r in rows]
    return QForm(split, _block_matrix(diag, pres.q.symmetry), mus)


def _tensor_blocks(
    pres: TensorPresentation, t: GroupElement
) -> Tuple[List[int], List[List[int]]]:
    """An orthogonal sum of rank-2 blocks ((0, 1), (eps, d)) over an integer
    lift of t: the corner d of each block and the coordinate rows over
    Q0 + G of its two mu values.  A bracket symbol [g1, g2] (x) n gives
    d = 0 with mu values (n g1, g2); a simple symbol g (x) q gives d = -h(q)
    with mu values (g, q - p(h(q)))."""
    q0, comp = pres.q, pres.g
    nq, ng = q0.carrier.ngens, comp.ngens

    def over_g(i: int, c: int = 1) -> List[int]:
        row = [0] * (nq + ng)
        row[nq + i] = c
        return row

    diag: List[int] = []
    rows: List[List[int]] = []
    for (kind, i, j), c in zip(pres.symbols, pres.lift(t)):
        if c == 0:
            continue
        if kind == "b":
            diag.append(0)
            rows += [over_g(i, c), over_g(j)]
        else:
            qv = c * q0.carrier.gen(j)
            h = q0.h_of(qv)
            diag.append(-h)
            rows += [over_g(i), list((qv - q0.p(h)).coords) + [0] * ng]
    return diag, rows


def _block_matrix(diag: Sequence[int], eps: int) -> List[List[int]]:
    """The block-diagonal matrix of the blocks ((0, 1), (eps, d)), d in diag."""
    n = 2 * len(diag)
    mat = [[0] * n for _ in range(n)]
    for b, d in enumerate(diag):
        x, y = 2 * b, 2 * b + 1
        mat[x][y], mat[y][x], mat[y][y] = 1, eps, d
    return mat


# -- Witt classes and groups ----------------------------------------------------


@dataclass(frozen=True, slots=True)
class WittGroupDescription:
    parameter: FormParameter
    splitting: MaximalSplitting
    names: Tuple[str, ...]
    orders: Tuple[int, ...]
    representatives: Tuple[QForm, ...]  # forms over the original parameter
    tensor_pres: TensorPresentation
    n_indec: int
    # FinAbGroup(orders), set by __post_init__; equality, hash and repr see
    # only the fields above
    group: FinAbGroup = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "group", FinAbGroup(self.orders))

    def canonical_orders(self) -> Tuple[int, ...]:
        return self.group.canonical_orders()


@dataclass(frozen=True, slots=True)
class WittClass:
    description: WittGroupDescription
    coords: Tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(
            self,
            "coords",
            self.description.group.reduce_coords(self.coords),
        )

    @property
    def parameter(self) -> FormParameter:
        return self.description.parameter

    @property
    def is_zero(self) -> bool:
        return not any(self.coords)

    @property
    def signature(self) -> int:
        """The signature of every form in the class (symmetric parameters):
        each indecomposable coordinate times the signature of its
        representative."""
        if not self.parameter.is_symmetric:
            raise ValueError("signature needs a symmetric parameter")
        ms = self.description.splitting
        table = _indecomposables(ms.standard_kind, ms.k)
        return sum(a * e.signature for a, e in zip(self.coords, table))

    def __add__(self, other: "WittClass") -> "WittClass":
        if self.description != other.description:
            raise ValueError("classes over different parameters")
        return WittClass(
            self.description,
            tuple(a + b for a, b in zip(self.coords, other.coords)),
        )


def _e8_matrix() -> List[List[int]]:
    # Dynkin graph: chain 1-3-4-5-6-7-8 with 2 attached to 4
    edges = [(0, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (1, 3)]
    mat = [[0] * 8 for _ in range(8)]
    for i in range(8):
        mat[i][i] = 2
    for a, b in edges:
        mat[a][b] = mat[b][a] = -1
    return mat


def _sigma(lam, mus, minv, sig: int) -> int:
    return sig


def _sigma_over_8(lam, mus, minv, sig: int) -> int:
    if sig % 8:
        raise AssertionError("even symmetric form with signature not divisible by 8")
    return sig // 8


class _Indecomposable(NamedTuple):
    """A generator of W0 of a standard parameter Q.  The invariant takes a
    nonsingular form over Q + G as its matrix, the coordinate columns of
    its mu values (the Q coordinates first), the inverse of its matrix and,
    over a symmetric parameter, its signature (else None); it reads only the
    Q coordinates and is the form's coordinate on this generator, so it
    maps the representatives to the unit vectors."""

    name: str
    order: int
    representative: QForm
    invariant: Callable[..., int]
    signature: Optional[int]  # of the representative


@lru_cache(maxsize=None)
def _indecomposables(kind: str, k: Optional[int]) -> Tuple[_Indecomposable, ...]:
    """The generators of W0 of standard(kind, k)."""
    q = standard(kind, k)
    c = q.carrier
    if kind == "Q+":
        e8 = QForm(q, _e8_matrix(), [c.element((1,))] * 8)
        table = [("8sigma*", 0, e8, _sigma_over_8)]
    elif kind == "Q^+":
        table = [("sigma*", 0, QForm(q, [[1]], [c.element((1,))]), _sigma)]
    elif kind in ("ZP", "ZP_k"):
        table = [("sigma*", 0, QForm(q, [[1]], [c.element((1, 0))]), _sigma)]
        rho = QForm(q, [[0, 1], [1, 0]], [c.element((0, 1)), c.element((0, -1))])
        if kind == "ZP":
            table.append(("rho_inf*", 0, rho, partial(_rho, 0)))
        elif k >= 2:
            table.append((f"rho_{k}*", 2 ** (k - 1), rho, partial(_rho, k)))
    elif kind == "Q-":
        c_star = QForm(q, [[0, 1], [-1, 0]], [c.element((1,))] * 2)
        table = [("c*", 2, c_star, _arf)]
    else:
        table = []
    return tuple(
        _Indecomposable(
            *entry,
            signature_of_matrix(entry[2].lambda_matrix) if q.is_symmetric else None,
        )
        for entry in table
    )


@lru_cache(maxsize=None)
def witt_group(p: FormParameter) -> WittGroupDescription:
    """The Witt group of P in canonical coordinates with named generators.

    Each representative is built once, over P: its matrix, and its mu rows
    over Q + G (an indecomposable's padded by zeros, a tensor generator's
    from `_tensor_blocks`) sent through the splitting's inverse."""
    ms = maximal_splitting(p)
    pres = present(ms.complement, ms.standard)
    table = _indecomposables(ms.standard_kind, ms.k)
    pad = (0,) * ms.complement.ngens
    blocks = []
    for e in table:
        rep = e.representative
        blocks.append((rep.lambda_matrix, [m.coords + pad for m in rep.mu_basis]))
    for t in pres.group.gens():
        diag, rows = _tensor_blocks(pres, t)
        blocks.append((_block_matrix(diag, p.symmetry), rows))
    back = ms.inverse.map.columns()
    return WittGroupDescription(
        p,
        ms,
        tuple(e.name for e in table)
        + tuple(f"t{t + 1}" for t in range(pres.group.ngens)),
        tuple(e.order for e in table) + pres.group.orders,
        tuple(
            QForm(p, mat, [p.carrier.combination(r, back) for r in rows])
            for mat, rows in blocks
        ),
        pres,
        len(table),
    )


def witt_class(f: QForm) -> WittClass:
    """The complete Witt invariant of a nonsingular form.

    The mu values are mapped through the maximal splitting in one matrix
    product into coordinate columns over Q + G, which every invariant reads
    with the form's matrix (see `_witt_class`)."""
    desc = witt_group(f.parameter)
    mus = desc.splitting.iso.map.map_rows([m.coords for m in f.mu_basis])
    return _witt_class(desc, f.lambda_matrix, mus)


def _witt_class(
    desc: WittGroupDescription,
    lam: Sequence[Sequence[int]],
    mus: Sequence[Sequence[int]],
) -> WittClass:
    """The class in desc of the form with matrix `lam` whose mu values have
    the coordinate columns `mus` over Q + G.  The inverse of the matrix is its
    nonsingularity check; it and the signature, taken once and only over a
    symmetric parameter with indecomposables, serve every invariant."""
    try:
        minv = _intmat.unimodular_inverse(lam)
    except ValueError:
        raise ValueError("Witt classes are defined for nonsingular forms") from None
    ms = desc.splitting
    table = _indecomposables(ms.standard_kind, ms.k)
    coords = []
    if table:
        sig = signature_of_matrix(lam) if desc.parameter.is_symmetric else None
        coords = [e.invariant(lam, mus, minv, sig) for e in table]
    coords += _tensor_invariant(lam, mus, desc.tensor_pres, minv).coords
    return WittClass(desc, tuple(coords))


# -- the natural description ---------------------------------------------------


@dataclass(frozen=True, slots=True)
class SigmaSubgroup:
    """Sigma(v) inside Z + Gamma(A), with generators and canonical form.

    `base` is x0 (x) 1 in Gamma(A) for the chosen x0 with v(x0) = 1 (None
    when v = 0) and `psi` generates Psi(v) inside Gamma(A); the generators
    are (8, 0), (1, base) and (0, w) for w in psi.
    """

    ambient: FinAbGroup
    pres: TensorPresentation
    generators: Tuple[GroupElement, ...]
    group: FinAbGroup
    base: Optional[GroupElement]
    psi: Tuple[GroupElement, ...]


@lru_cache(maxsize=None)
def _model(a: FinAbGroup, symmetric: bool) -> Tuple[TensorPresentation, FinAbGroup]:
    """The natural model of W0 over the group A: the presentation of
    Gamma(A) = A (x) Q^+ and Z + Gamma(A) for a symmetric parameter (A = SP),
    of Lambda1(A) = A (x) Q- and Z2 + Lambda1(A) for an anti-symmetric one
    (A = P_e).  An element (n, t) of the ambient group has coordinates
    (n,) + t.coords."""
    pres = present(a, standard("Q^+" if symmetric else "Q-"))
    return pres, FinAbGroup((0 if symmetric else 2,) + pres.group.orders)


def sigma_subgroup(v: SliceHom) -> SigmaSubgroup:
    """Generators: (8, 0); (1, x0 (x) 1), x0 the first generator with v = 1,
    and its Ker(v)-translates; brackets over Ker(v) generator pairs."""
    a = v.domain
    pres, ambient = _model(a, True)
    if v.is_zero:
        base = None
        kgens = a.gens()
        psi = []
    else:
        # a kernel-basis vector of [v | relations] can reduce to 0 in A
        kgens = [kg for kg in kernel_generators(v.v) if not kg.is_zero]
        x0 = a.gen(v.v.matrix[0].index(1))
        one = pres.q.carrier.element((1,))
        base = pres.simple(x0, one)
        psi = [pres.simple(x0 + kg, one) - base for kg in kgens]
    for i, k1 in enumerate(kgens):
        for k2 in kgens[i:]:
            psi.append(pres.bracket(k1, k2, 1))
    pairs = [(8, pres.group.zero())] + ([] if base is None else [(1, base)])
    pairs += [(0, w) for w in psi]
    gens = [ambient.element((n,) + t.coords) for n, t in pairs]
    grp = generated_group(ambient, gens)
    return SigmaSubgroup(ambient, pres, tuple(gens), grp, base, tuple(psi))


@dataclass(frozen=True, slots=True)
class LambdaQuotient:
    """Generators of K(v') and Lambda(v') = (Z2 + Lambda1(A)) / K(v')."""

    ambient: FinAbGroup
    pres: TensorPresentation
    k_generators: Tuple[GroupElement, ...]
    group: FinAbGroup
    projection: AbHom


def lambda_quotient(v: CosliceHom) -> LambdaQuotient:
    """Generators of K(v'): (1, [v'(1), v'(1)]) and (0, [x, x] + [x, v'(1)])
    over the generators x of A."""
    a = v.codomain
    pres, ambient = _model(a, False)
    v1 = v.v_one
    pairs = [(1, pres.bracket(v1, v1, 1))] + [
        (0, pres.bracket(x, x, 1) + pres.bracket(x, v1, 1)) for x in a.gens()
    ]
    kgens = [ambient.element((n,) + t.coords) for n, t in pairs]
    lam, proj, _ = quotient_with_lift(kgens, ambient)
    return LambdaQuotient(ambient, pres, tuple(kgens), lam, proj)


def es_witt(f: QForm) -> GroupElement:
    """(signature, reduced invariant of the extended symmetrisation) as an
    element of Z + Gamma(SP)."""
    p = f.parameter
    if not p.is_symmetric:
        raise ValueError("extended symmetrisation needs a symmetric parameter")
    lam = f.lambda_matrix
    minv = _intmat.unimodular_inverse(lam)  # refuses a singular form
    pres, ambient = _model(linearisation(p)[0], True)
    mus = es(p).map.map_rows([m.coords for m in f.mu_basis])
    t = _tensor_invariant(lam, mus, pres, minv)
    return ambient.element((signature_of_matrix(lam),) + t.coords)


def eql_witt(p: FormParameter, c: int, t: GroupElement) -> WittClass:
    """Witt class of the lift of (c, t) along the extended quadratic lift.

    The lift is the form of `_tensor_blocks(t)` over Q- + P_e, after an Arf
    block ((0, 1), (-1, 0)) with both mu values (1, 0) when c is odd.  Its
    mu rows go through eql(p) and the maximal splitting of P in one matrix
    product each, and its class is read as `witt_class` reads a form's."""
    if p.is_symmetric:
        raise ValueError("extended quadratic lift needs an anti-symmetric parameter")
    pres = _model(p.carrier, False)[0]
    if t.group != pres.group:
        raise ValueError("tensor element is not in Lambda1 of the carrier")
    diag, rows = _tensor_blocks(pres, t)
    if c % 2:
        arf_mu = [1] + [0] * p.carrier.ngens
        diag, rows = [0] + diag, [arf_mu, arf_mu] + rows
    mus = _eql_to_split(p).map_rows(rows)
    return _witt_class(witt_group(p), _block_matrix(diag, -1), mus)


@lru_cache(maxsize=None)
def _eql_to_split(p: FormParameter) -> AbHom:
    """Q- + P_e -> P -> Q + G, eql(p) followed by the maximal splitting of
    P: every eql_witt over p maps its mu rows through it."""
    return maximal_splitting(p).iso.map.compose(eql(p).map)


def eql_witt_hom(p: FormParameter) -> AbHom:
    """The extended quadratic lift as a homomorphism
    Z2 + Lambda1(P_e) -> W0(P) in canonical coordinates."""
    pres, domain = _model(p.carrier, False)
    desc = witt_group(p)
    cols = []
    cols.append(desc.group.element(eql_witt(p, 1, pres.group.zero()).coords))
    for gen in pres.group.gens():
        cols.append(desc.group.element(eql_witt(p, 0, gen).coords))
    return AbHom.from_columns(domain, desc.group, cols)


def es_witt_hom(p: FormParameter) -> AbHom:
    """W0(P) -> Z + Gamma(SP) on the canonical generators."""
    desc = witt_group(p)
    ambient = _model(linearisation(p)[0], True)[1]
    cols = [es_witt(rep) for rep in desc.representatives]
    return AbHom.from_columns(desc.group, ambient, cols)


@lru_cache(maxsize=None)
def _natural(p: FormParameter) -> Tuple[Callable, Callable]:
    """W0(P) into its natural model and back, the data of W0(alpha) that
    depends on one end of alpha only: es_witt_hom(p) and a preimage through
    it over a symmetric parameter, a preimage through eql_witt_hom(p) and
    eql_witt_hom(p) over an anti-symmetric one.  The preimage builds its
    Smith form at its first call; a missing preimage is a library fault."""
    hom = es_witt_hom(p) if p.is_symmetric else eql_witt_hom(p)
    solve = hom.solver()

    def preimage(y: GroupElement) -> GroupElement:
        x = solve(y)
        if x is None:
            raise AssertionError("no preimage through the natural homomorphism")
        return x

    return (hom, preimage) if p.is_symmetric else (preimage, hom)


def induced_witt_map(alpha: FPMorphism) -> AbHom:
    """W0(alpha) in the canonical coordinates of witt_group: each generator
    goes into the natural model of the source (`_natural`), through
    Id + Gamma(S alpha) (symmetric) or Id + Lambda1(alpha) (anti-symmetric),
    and out of the target's model.  The anti-symmetric case is the square
    W0(alpha) o eql_P = eql_P' o (Id + Lambda1(alpha)); the symmetric one
    conjugates through the extended symmetrisation embeddings.
    """
    p1, p2 = alpha.source, alpha.target
    symmetric = p1.is_symmetric
    if symmetric != p2.is_symmetric:
        raise ValueError("morphism mixes symmetries")
    f = S_of(alpha) if symmetric else alpha.map
    pres, _ = _model(f.source, symmetric)
    _, ambient = _model(f.target, symmetric)
    t_map = induced_map(f, FPMorphism.identity(pres.q))
    into, out = _natural(p1)[0], _natural(p2)[1]
    d1, d2 = witt_group(p1), witt_group(p2)
    cols = []
    for x in d1.group.gens():
        y = into(x)
        t = t_map(pres.group.element(y.coords[1:]))
        cols.append(out(ambient.element(y.coords[:1] + t.coords)))
    return AbHom.from_columns(d1.group, d2.group, cols)


def induced_witt_map_via_forms(alpha: FPMorphism) -> AbHom:
    """W0(alpha) computed directly by pushing representative forms."""
    d1, d2 = witt_group(alpha.source), witt_group(alpha.target)
    cols = []
    for rep in d1.representatives:
        cls = witt_class(pushforward(rep, alpha))
        cols.append(d2.group.element(cls.coords))
    return AbHom.from_columns(d1.group, d2.group, cols)


# -- explicit descriptions of Sigma(v) and Lambda(v') ---------------------------


def _slice_kind(v: SliceHom) -> Tuple[str, int]:
    """Indecomposable type of v: ("0", 0), ("1_k", k) or ("1_inf", 0)."""
    if v.is_zero:
        return "0", 0
    g = least_preimage_of_one(v.v)
    if g is not None:
        return "1_k", g.order().bit_length() - 1
    return "1_inf", 0


def sigma_diagram(v: SliceHom) -> dict:
    """Verify the two-row description of Sigma(v).

    Rows: 0 -> Sigma(v) -> Z + Phi(v) -> C(v) -> 0 and
          0 -> Sigma(v) -> Z + Gamma(A) -> Upsilon(v) -> 0;
    columns: Gamma(A)/Phi(v) = Ker(v_2) via u_v, and C(v) -> Upsilon(v)
    -> Ker(v_2) exact.  C(v) is Z4 exactly when v has a unit torsion value
    of order two, else Z8.
    """
    a = v.domain
    sig = sigma_subgroup(v)
    pres, gam = sig.pres, sig.pres.group
    psi = list(sig.psi)
    phi_gens = psi if v.is_zero else [sig.base] + psi
    phi_grp, phi_incl = subgroup(gam, phi_gens)
    in_phi = phi_incl.solver()

    # u_v: Gamma(A) -> A (x) Z2 on the symbols, x (x) 1 -> (1 + v(x)) x (x) 1
    # and [x, y] (x) 1 -> v(y) x (x) 1 + v(x) y (x) 1; v_2 = v (x) Id_Z2
    az2, az2_gen = tensor_with_generators(a, Z2)
    e = [row[0] for row in az2_gen]
    vx = [v(x) for x in a.gens()]
    u_images = [
        (1 + vx[i]) * e[i] if s == "s" else vx[j] * e[i] + vx[i] * e[j]
        for s, i, j in pres.symbols
    ]
    u_v = pres.hom(u_images, az2)
    v2 = tensor_map(v.v, AbHom.identity(Z2))

    # Upsilon(v) and C(v), the images of the Z summand in each, and the
    # columns of C(v) -> Upsilon(v) -> A (x) Z2; for v = 0, Phi(v) = Psi(v)
    # and a Z8 summand carries the image of Z
    quot, proj, lifts = quotient_with_lift(psi, gam)
    if v.is_zero:
        c_grp = FinAbGroup((8,))
        ups = FinAbGroup((8,) + quot.orders)
        z_ups, z_c = ups.gen(0), c_grp.gen(0)
        gam_cols = [ups.element((0,) + x.coords) for x in proj.columns()]
        phi_cols = [c_grp.zero()] * phi_grp.ngens
        c_to_ups_cols = [z_ups]
        ut_cols = [az2.zero()] + [u_v(z) for z in lifts]
    else:
        psi_in_phi = [in_phi(w) for w in psi]
        assert all(x is not None for x in psi_in_phi)
        c_grp, c_proj, c_lifts = quotient_with_lift(psi_in_phi, phi_grp)
        ups = quot
        z_ups, z_c = proj(sig.base), c_proj(in_phi(sig.base))
        gam_cols, phi_cols = proj.columns(), c_proj.columns()
        c_to_ups_cols = [proj(phi_incl(z)) for z in c_lifts]
        ut_cols = [u_v(z) for z in lifts]

    kind, k = _slice_kind(v)
    c_orders = c_grp.canonical_orders()
    report: dict = {
        "v_zero": v.is_zero,
        "u_well_defined": all(
            u_v(x) == img for x, img in zip(pres.basis_map, u_images)
        ),
        "phi_is_kernel_of_u": is_kernel(u_v, phi_gens),
        "u_image_is_ker_v2": is_kernel(v2, u_v.columns()),
        "c_orders": c_orders,
        "slice_kind": f"{kind}{k if kind == '1_k' else ''}",
        "c_matches_classification": c_orders == ((4,) if (kind, k) == ("1_k", 1) else (8,)),
    }

    # row 2: (n, t) -> n z - qbar(t) on Z + Gamma(A) has kernel Sigma(v)
    row2 = AbHom.from_columns(sig.ambient, ups, [z_ups] + [-x for x in gam_cols])
    report["row2_exact"] = row2.is_surjective() and is_kernel(row2, sig.generators)

    # row 1: the same with Phi(v) in place of Gamma(A)
    zphi = FinAbGroup((0,) + phi_grp.orders)
    row1 = AbHom.from_columns(zphi, c_grp, [z_c] + [-x for x in phi_cols])
    sigma_in_phi = [in_phi(gam.element(g.coords[1:])) for g in sig.generators]
    inside = all(x is not None for x in sigma_in_phi)
    report["sigma_inside_z_phi"] = inside
    report["row1_exact"] = inside and row1.is_surjective() and is_kernel(
        row1,
        [zphi.element(g.coords[:1] + x.coords) for g, x in zip(sig.generators, sigma_in_phi)],
    )

    # right column: C(v) -> Upsilon(v) -> Ker(v_2) exact
    ut = AbHom.from_columns(ups, az2, ut_cols)
    c_to_ups = AbHom.from_columns(c_grp, ups, c_to_ups_cols)
    report["col_right_exact"] = (
        c_to_ups.is_injective()
        and is_kernel(ut, c_to_ups.columns())
        and is_kernel(v2, ut.columns())
    )
    report["ok"] = _all_checks_pass(report)
    return report


def _all_checks_pass(report: dict) -> bool:
    """Every boolean entry of a diagram report but "v_zero" is true."""
    return all(
        val for key, val in report.items() if isinstance(val, bool) and key != "v_zero"
    )


def lambda_diagram(v: CosliceHom) -> dict:
    """Verify the dual description of Lambda(v').

    Rows: 0 -> K(v') -> Z2 + Lambda1(A) -> Lambda(v') -> 0 and
          0 -> Z2 -> Z2 + Xi(v') -> Lambda(v') -> 0;
    left column: 0 -> Coker(v'_2) -> K(v') -> Z2 -> 0.
    """
    lq = lambda_quotient(v)
    lam1, amb, to_lam = lq.pres.group, lq.ambient, lq.projection
    # K(v') is generated by (1, vv), vv = [v'(1), v'(1)], and the (0, e(x))
    # of lambda_quotient; Xi(v') = Lambda1(A) / <e(x)>
    vv, *l_gens = [lam1.element(k.coords[1:]) for k in lq.k_generators]
    e_gens = lq.k_generators[1:]
    xi, xi_proj, xi_lifts = quotient_with_lift(l_gens, lam1)
    z2xi = FinAbGroup((2,) + xi.orders)
    report: dict = {
        "v_zero": v.is_zero,
        # exact by construction; verified anyway
        "row_mid_exact": to_lam.is_surjective() and is_kernel(to_lam, lq.k_generators),
        "xi_orders": xi.canonical_orders(),
    }

    # bottom row: Z2 -> Z2 + Xi -> Lambda(v'), through lifts of Z2 + Xi's
    # generators to Z2 + Lambda1(A)
    iota = AbHom.from_columns(Z2, z2xi, [z2xi.element((1,) + xi_proj(vv).coords)])
    lifts = [amb.gen(0)] + [amb.element((0,) + z.coords) for z in xi_lifts]
    bot = AbHom.from_columns(z2xi, lq.group, [to_lam(x) for x in lifts])
    report["row_bot_exact"] = bot.is_surjective() and is_kernel(bot, iota.columns())

    # left column: Coker(v'_2) -> K(v') -> Z2, r the Z2 coordinate
    az2, az2_gen = tensor_with_generators(v.codomain, Z2)
    v2 = tensor_map(AbHom.from_columns(Z2, v.codomain, [v.v_one]), AbHom.identity(Z2))
    cok, _, cok_lifts = quotient_with_lift(v2.columns(), az2)
    e_hom = AbHom.from_columns(
        az2, amb, [e for e, gen in zip(e_gens, az2_gen) if not gen[0].is_zero]
    )
    uprime = AbHom.from_columns(cok, amb, [e_hom(x) for x in cok_lifts])
    kgrp, kincl = subgroup(amb, lq.k_generators)
    kelts = kincl.columns()
    r = AbHom.from_columns(kgrp, Z2, [Z2.element(k.coords[:1]) for k in kelts])
    in_k = kincl.solver()
    uprime_in_k = [in_k(x) for x in uprime.columns()]
    inside = all(x is not None for x in uprime_in_k)
    report["uprime_lands_in_k"] = inside
    uk = AbHom.from_columns(cok, kgrp, uprime_in_k) if inside else None
    report["col_left_exact"] = inside and (
        uk.is_injective() and is_kernel(r, uk.columns()) and r.is_surjective()
    )

    # the connecting square commutes on K's generators
    report["square_commutes"] = all(
        iota(r(g)) == z2xi.element(k.coords[:1] + xi_proj(lam1.element(k.coords[1:])).coords)
        for g, k in zip(kgrp.gens(), kelts)
    )
    report["ok"] = _all_checks_pass(report)
    return report


# -- Grothendieck-Witt ----------------------------------------------------------


@dataclass(frozen=True, slots=True)
class GWClass:
    rank: int
    witt: WittClass

    def __post_init__(self):
        if self.witt.parameter.is_symmetric:
            if (self.rank - self.witt.signature) % 2:
                raise ValueError("rank and signature have different parities")
        elif self.rank % 2:
            raise ValueError("anti-symmetric forms have even rank")


def gw_class(f: QForm) -> GWClass:
    return GWClass(f.rank, witt_class(f))


def gw_group(q: FormParameter) -> dict:
    """GW0(Q) = 2Z + W0(Q): canonical orders, generators, and the image
    constraint of (rank, class) inside Z + W0(Q)."""
    desc = witt_group(q)
    return {
        "names": ("2rk*",) + desc.names,
        "canonical_orders": FinAbGroup((0,) + desc.orders).canonical_orders(),
        "image_constraint": "rank = signature mod 2" if q.is_symmetric else "rank even",
    }
