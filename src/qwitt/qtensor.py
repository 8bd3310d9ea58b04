"""The quadratic tensor product of an abelian group with a form parameter.

G (x) Q is generated by symbols g (x) q and [g, h] (x) a subject to

    (g + h) (x) q  =  g (x) q + h (x) q + [g, h] (x) h(q)
    [g, g] (x) a   =  g (x) p(a)

with g (x) q linear in q and [g, h] (x) a linear in each slot.  We present
it on the finite generator set {g_i (x) e_j, [g_i, g_j] (x) 1 (i <= j)}
drawn from the fixed cyclic decompositions of G and Q_e (one table of
symbols and their indices per shape, the generator counts of G and Q_e,
shared by every presentation of that shape); every symbol rewrites into
that set by bilinear expansion, the addition rule and the scalar rule
(n g) (x) q = n (g (x) q) + C(n,2) [g, g] (x) h(q).
`TensorPresentation.simple(x, q)` and `TensorPresentation.bracket(x, y, a)`
return the value of x (x) q and of [x, y] (x) a in the presented group;
`add_simples` and `add_brackets` add the abstract coefficients of a sum of
symbols, given by integer coordinates and a matrix of bracket coefficients,
into a caller's list instead, so that the sum is reduced once: each
coefficient is one row product over the whole sum, and a symbol is found
by its position (g_i (x) e_j at i * n + j, n the generator count of Q_e,
then the brackets [g_i, g_k], i <= k, in row order), with no lookup.  `present`
hands integer relation columns to `abelian.free_quotient`, so no element of
a free group is built.  `check_sequences` verifies the defining exact
sequence and square through `abelian`'s kernel tests, direct-sum maps and
`tensor_map`: it splits on the symmetry once, to set the row's inclusion
and projection and to check the square, and reads the row's three
exactness keys off that pair for both symmetries.  Criterion 2 of the
acceptance suite (`acceptance.criterion_2_table1`, run by `qwitt
verify-suite`) calls it on every (Z_n, Q) of its Table 1 loop and on 25
random (G, Q).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from operator import mul
from typing import Dict, List, Sequence, Tuple

from ._intmat import _binom2
from .abelian import (
    AbHom,
    FinAbGroup,
    GroupElement,
    free_quotient,
    hom_pair,
    hom_sum,
    is_kernel,
    tensor_map,
    tensor_with_generators,
)
from .formparam import (
    FormParameter,
    FPMorphism,
    initial_morphism,
    linearisation,
    quasi_wu,
    standard,
    terminal_morphism,
)

__all__ = [
    "TensorPresentation",
    "present",
    "induced_map",
    "check_sequences",
]


@dataclass(frozen=True, slots=True)
class TensorPresentation:
    g: FinAbGroup
    q: FormParameter
    group: FinAbGroup
    # abstract generators: ("s", i, j) for g_i (x) e_j, ("b", i, j) i <= j;
    # with _position (symbol -> its index), the one table of this shape,
    # set by __post_init__
    symbols: Tuple[Tuple[str, int, int], ...] = field(init=False)
    basis_map: Tuple[GroupElement, ...]
    # integer lift of each canonical generator over the abstract symbols
    section: Tuple[Tuple[int, ...], ...]
    # equality, hash and repr see only the fields above
    _position: Dict[Tuple[str, int, int], int] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self):
        symbols, position = _symbol_table(self.g.ngens, self.q.carrier.ngens)
        object.__setattr__(self, "symbols", symbols)
        object.__setattr__(self, "_position", position)

    def __reduce__(self):
        # copy, deepcopy and pickle rebuild through the constructor, so the
        # copy holds its shape's one symbol table
        return TensorPresentation, (self.g, self.q, self.group, self.basis_map, self.section)

    def index(self, kind: str, i: int, j: int) -> int:
        return self._position[(kind, i, j)]

    def simple(self, x: GroupElement, q: GroupElement) -> GroupElement:
        """The value of the symbol x (x) q."""
        if x.group != self.g or q.group != self.q.carrier:
            raise ValueError("symbol does not match the presentation")
        c = [0] * len(self.symbols)
        self.add_simples(c, [x.coords], [q.coords])
        return self.group.combination(c, self.basis_map)

    def bracket(self, x: GroupElement, y: GroupElement, a: int) -> GroupElement:
        """The value of the symbol [x, y] (x) a."""
        if x.group != self.g or y.group != self.g:
            raise ValueError("symbol does not match the presentation")
        c = [0] * len(self.symbols)
        self.add_brackets(c, [[a * xi * yj for yj in y.coords] for xi in x.coords])
        return self.group.combination(c, self.basis_map)

    def add_simples(
        self, c: List[int], xs: Sequence[Sequence[int]], qs: Sequence[Sequence[int]]
    ) -> None:
        """Add the abstract coefficients of sum_r x_r (x) q_r into c, x_r and
        q_r being coordinates of G and Q_e.  The symbol is linear in the
        q-slot, and the addition and scalar rules expand the x-slot:
        x (x) q = sum_i x_i g_i (x) q + sum_i C(x_i, 2) [g_i, g_i] (x) h(q)
        + sum_{i<k} x_i x_k [g_i, g_k] (x) h(q).

        Summed over r, with X the matrix of rows x_r, Q that of rows q_r and
        H the diagonal of the h(q_r), the g_i (x) e_j coefficient (symbol
        i * nq + j) is (X^T Q)_ij, the [g_i, g_k] one (i < k) is
        (X^T H X)_ik, and the [g_i, g_i] one is ((X^T H X)_ii - sum_r
        h(q_r) x_ri) / 2: one row product per entry."""
        nq = self.q.carrier.ngens
        hrow = self.q.h.matrix[0]
        xcols = list(zip(*xs))
        qcols = list(zip(*qs))
        for i, xc in enumerate(xcols):
            for j, qc in enumerate(qcols, i * nq):
                c[j] += sum(map(mul, xc, qc))
        hs = [sum(map(mul, hrow, q)) for q in qs]
        if any(hs):
            hx = [list(map(mul, hs, xc)) for xc in xcols]
            b = [
                [sum(map(mul, xc, hxk)) if k >= i else 0 for k, hxk in enumerate(hx)]
                for i, xc in enumerate(xcols)
            ]
            for i, hxi in enumerate(hx):
                b[i][i] = (b[i][i] - sum(hxi)) // 2
            self.add_brackets(c, b)

    def add_brackets(self, c: List[int], b: Sequence[Sequence[int]]) -> None:
        """Add sum_{i,k} [g_i, g_k] (x) b[i][k] into c, g_i being G's
        generators; [g_k, g_i] = eps [g_i, g_k] for i < k, with eps the
        parameter's symmetry.  The bracket symbols follow the simple ones,
        [g_i, g_k] (i <= k) in row order."""
        eps = self.q.symmetry
        m = len(b)
        a = m * self.q.carrier.ngens
        for i, row in enumerate(b):
            c[a] += row[i]
            a += 1
            for k in range(i + 1, m):
                c[a] += row[k] + eps * b[k][i]
                a += 1

    def hom(self, images: Sequence[GroupElement], target: FinAbGroup) -> AbHom:
        """The homomorphism group -> target sending abstract symbol a to
        images[a]; the images are trusted to satisfy the relations."""
        rows = [[im.coords[r] for im in images] for r in range(target.ngens)]
        return AbHom(
            self.group,
            target,
            [
                [sum(x * y for x, y in zip(row, sec)) for sec in self.section]
                for row in rows
            ],
        )

    def lift(self, value: GroupElement) -> List[int]:
        """An integer combination of abstract symbols mapping to value."""
        return [
            sum(c * sec[a] for c, sec in zip(value.coords, self.section))
            for a in range(len(self.symbols))
        ]


@lru_cache(maxsize=None)
def _symbol_table(
    m: int, n: int
) -> Tuple[Tuple[Tuple[str, int, int], ...], Dict[Tuple[str, int, int], int]]:
    """The canonical symbols of G (x) Q for m generators of G and n of Q_e,
    and each symbol's index: one table per shape, shared by every
    presentation of that shape."""
    symbols = tuple(("s", i, j) for i in range(m) for j in range(n)) + tuple(
        ("b", i, j) for i in range(m) for j in range(i, m)
    )
    return symbols, {s: a for a, s in enumerate(symbols)}


@lru_cache(maxsize=None)
def present(g: FinAbGroup, q: FormParameter) -> TensorPresentation:
    """Presentation of G (x) Q on the canonical symbol set.

    The relations are the defining ones instantiated on the cyclic
    generators: torsion of Q_e kills g_i (x) e_j, torsion n_i of G expands
    through the scalar rule into n_i (g_i (x) e_j) + C(n_i, 2) h(e_j)
    [g_i, g_i] (x) 1 = 0, brackets are killed by the torsion of either
    argument, and [g_i, g_i] (x) 1 = g_i (x) p(1).  They are integer
    columns over the symbols, and `free_quotient` reads the group, the
    value of each symbol and the section off one Smith form.
    """
    m = g.ngens
    qe = q.carrier
    hrow = q.h.matrix[0]
    symbols, sym_index = _symbol_table(m, qe.ngens)
    n_abs = len(symbols)

    def col() -> List[int]:
        return [0] * n_abs

    rels: List[List[int]] = []
    for i in range(m):
        ni = g.orders[i]
        for j in range(qe.ngens):
            mj = qe.orders[j]
            if mj:
                c = col()
                c[sym_index[("s", i, j)]] = mj
                rels.append(c)
            if ni:
                c = col()
                c[sym_index[("s", i, j)]] = ni
                c[sym_index[("b", i, i)]] = _binom2(ni) * hrow[j]
                rels.append(c)
    for i in range(m):
        for j in range(i, m):
            for n in {g.orders[i], g.orders[j]}:
                if n:
                    c = col()
                    c[sym_index[("b", i, j)]] = n
                    rels.append(c)
    for i in range(m):
        c = col()
        c[sym_index[("b", i, i)]] = 1
        for j in range(qe.ngens):
            c[sym_index[("s", i, j)]] -= q.p_one.coords[j]
        rels.append(c)

    group, basis_map, section = free_quotient(n_abs, rels)
    return TensorPresentation(g, q, group, basis_map, section)


def induced_map(f: AbHom, alpha: FPMorphism) -> AbHom:
    """The homomorphism G (x) Q -> H (x) Q' induced by (f, alpha)."""
    pres = present(f.source, alpha.source)
    pres2 = present(f.target, alpha.target)
    fg = [f(x) for x in pres.g.gens()]
    aq = [alpha(e) for e in pres.q.carrier.gens()]
    sym_images = [
        pres2.simple(fg[i], aq[j]) if kind == "s" else pres2.bracket(fg[i], fg[j], 1)
        for kind, i, j in pres.symbols
    ]
    return pres.hom(sym_images, pres2.group)


# -- exact sequence / square checks ------------------------------------------


def _to_linear_tensor(pres: TensorPresentation) -> AbHom:
    """G (x) Q -> G (x) SQ, killing brackets and projecting q-slots."""
    sq, proj, _ = linearisation(pres.q)
    sq_grp, sq_gen = tensor_with_generators(pres.g, sq)
    sym_images = []
    for kind, i, j in pres.symbols:
        if kind == "b":
            sym_images.append(sq_grp.zero())
        else:
            pi_e = proj(pres.q.carrier.gen(j))
            sym_images.append(sq_grp.combination(pi_e.coords, sq_gen[i]))
    return pres.hom(sym_images, sq_grp)


def _from_plain_tensor(pres: TensorPresentation) -> AbHom:
    """G (x) Q_e -> G (x) Q on the simple symbols."""
    grp, gen = tensor_with_generators(pres.g, pres.q.carrier)
    cols = [
        pres.basis_map[pres.index("s", i, j)]
        for i in range(pres.g.ngens)
        for j in range(pres.q.carrier.ngens)
        if not gen[i][j].is_zero
    ]
    return AbHom.from_columns(grp, pres.group, cols)


def check_sequences(g: FinAbGroup, q: FormParameter) -> dict:
    """Verify the defining exact sequence and square for G (x) Q.

    Symmetric q: 0 -> S2(G) -> G(x)Q -> G(x)SQ -> 0 is exact and the square
    joining it to 0 -> S2(G) -> Gamma(G) -> G(x)Z2 -> 0 is a pullback.
    Anti-symmetric q: 0 -> G(x)Q_e -> G(x)Q -> Lambda(G) -> 0 is exact and
    the square from 0 -> G(x)Z2 -> Lambda1(G) -> Lambda(G) -> 0 is a pushout.

    Any failure is a library bug; the report carries a witness key.
    """
    pres = present(g, q)
    ident = AbHom.identity(g)
    report = {"symmetric": q.is_symmetric, "group": pres.group.orders}
    if q.is_symmetric:
        # the row G(x)S2 -> G(x)Q -> G(x)SQ, and the pullback square over
        # G(x)Z2: (to_gamma, proj) is injective onto the fiber product
        inc = induced_map(ident, initial_morphism(q))
        proj = _to_linear_tensor(pres)
        to_gamma = induced_map(ident, terminal_morphism(q))
        pi2 = _to_linear_tensor(present(g, standard("Q^+")))
        sq_to_z2 = tensor_map(ident, quasi_wu(q).v)
        report["square_commutes"] = (
            sq_to_z2.compose(proj).matrix == pi2.compose(to_gamma).matrix
        )
        cmp_map = hom_pair(to_gamma, proj)
        diff = hom_sum(pi2, -sq_to_z2)
        report["square_pullback"] = cmp_map.is_injective() and is_kernel(
            diff, cmp_map.columns()
        )
    else:
        # the row G(x)Q_e -> G(x)Q -> Lambda(G), and the pushout square:
        # G(x)Z2 -> Lambda1(G), g (x) 1 -> g (x) e over Q-, and
        # G(x)Z2 -> G(x)Q_e
        inc = _from_plain_tensor(pres)
        proj = induced_map(ident, terminal_morphism(q))
        top = _from_plain_tensor(present(g, standard("Q-")))
        alpha = initial_morphism(q)
        left = tensor_map(ident, alpha.map)
        right = induced_map(ident, alpha)
        report["square_commutes"] = (
            right.compose(top).matrix == inc.compose(left).matrix
        )
        push = hom_sum(right, inc)
        glue = hom_pair(top, -left)
        report["square_pushout"] = push.is_surjective() and is_kernel(
            push, glue.columns()
        )
    report["row_exact_left"] = inc.is_injective()
    report["row_exact_middle"] = is_kernel(proj, inc.columns())
    report["row_exact_right"] = proj.is_surjective()
    failed = {k: v for k, v in report.items() if k.startswith(("row", "square")) and not v}
    report["ok"] = not failed
    if failed:
        report["witness"] = failed
    return report
