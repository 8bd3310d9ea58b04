"""Quadratic form parameters over Z and their classification.

A form parameter is a triple (Q_e, h, p) with h: Q_e -> Z, p: Z -> Z -> Q_e
and hph = 2h, php = 2p.  Its symmetry is h(p(1)) - 1 in {+1, -1}.  Every
parameter splits as (standard indecomposable) + (abelian group); symmetry,
height and complement classify parameters up to isomorphism.

p is stored as the single element p(1); the full homomorphism n -> n*p(1)
is reconstructed on demand.  A parameter is interned like a group: there is
one object per value, validated once, when it is first built, and its
symmetry h(p(1)) - 1 is computed then and kept in a field that equality,
hash and repr leave out.

The seven standard kinds are one table, `_kind_data` (carrier, h, p(1),
height and Aut generators of each), read by `standard`, `height_of`,
`aut_generators` and `parse_name`; a standard parameter's kind and level
are read off its maximal splitting.  `standard_morphism` is one rule: the
arrow out of the initial Q+/Q- or into the terminal Q^+/Q^-, else the
ZP-family map [[1, 0], [n, 2n+1]] or the ZL-family map [[2^(l-k)]].  The
linearisation SQ = Q_e / <p(1)> comes with its projection and a section
from one Smith form, cached per parameter like the quasi-Wu class;
`quasi_wu`, `S_of`, the splitting and `morphism_from_slice` read every lift
off that section.  A maximal splitting takes one path per symmetry: each
case returns its kind, level, complement and one morphism Q + G -> P onto
the splitting's basis, and `maximal_splitting` alone inverts it (one Smith
form, which also checks both compositions) and builds the
`MaximalSplitting`; a case map that does not invert is an AssertionError,
a library fault.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from math import inf
from operator import mul
from typing import Dict, List, Optional, Tuple, Union

from .abelian import (
    Z,
    Z2,
    AbHom,
    FinAbGroup,
    GroupElement,
    quotient_with_lift,
    split_off_cyclic,
    split_off_free,
    split_off_hom_summand,
    subgroup,
)

__all__ = [
    "FormParameter",
    "FPMorphism",
    "SliceHom",
    "CosliceHom",
    "FPClassification",
    "MaximalSplitting",
    "standard",
    "parse_name",
    "split_sum",
    "linearisation",
    "quasi_wu",
    "maximal_splitting",
    "classify",
    "height_of",
    "S_of",
    "morphism_from_slice",
    "es",
    "eql",
    "aut_generators",
    "initial_morphism",
    "terminal_morphism",
    "standard_morphism",
    "standard_name",
]


# the interned parameters, one per value (see FormParameter.__new__), kept
# for the life of the process like the library's caches
_PARAMETERS: Dict[Tuple[FinAbGroup, AbHom, GroupElement], "FormParameter"] = {}


@dataclass(frozen=True, slots=True)
class FormParameter:
    """The form parameter (Q_e, h, p), p given by p(1).

    There is one object per value: FormParameter(carrier, h, p_one) returns
    the parameter first built with that value, and validated then, so a
    parameter parsed again costs no memory and a cache keyed on it finds
    its entry by identity.  Equality, hash and repr stay value-based:
    compare parameters with `==`."""

    carrier: FinAbGroup
    h: AbHom
    p_one: GroupElement
    # h(p(1)) - 1, set when the parameter is first built; equality, hash and
    # repr see only carrier, h and p(1)
    _symmetry: int = field(init=False, repr=False, compare=False)

    def __new__(
        cls, carrier: FinAbGroup, h: AbHom, p_one: GroupElement
    ) -> "FormParameter":
        key = (carrier, h, p_one)
        param = _PARAMETERS.get(key)
        if param is None:
            # validated once, when first built; an invalid value is not kept
            symmetry = _symmetry_of(carrier, h, p_one)
            param = object.__new__(cls)
            object.__setattr__(param, "carrier", carrier)
            object.__setattr__(param, "h", h)
            object.__setattr__(param, "p_one", p_one)
            object.__setattr__(param, "_symmetry", symmetry)
            # setdefault is atomic: of two threads building one parameter,
            # both return the object stored first
            param = _PARAMETERS.setdefault(key, param)
        return param

    def __init__(self, carrier: FinAbGroup, h: AbHom, p_one: GroupElement):
        """Nothing to do: __new__ returns the built parameter."""

    def __reduce__(self):
        # copy, deepcopy and pickle rebuild through __new__, so they return
        # the interned parameter
        return FormParameter, (self.carrier, self.h, self.p_one)

    @property
    def symmetry(self) -> int:
        return self._symmetry

    @property
    def is_symmetric(self) -> bool:
        return self.symmetry == 1

    def p(self, n: int) -> GroupElement:
        return n * self.p_one

    def h_of(self, x: GroupElement) -> int:
        if x.group is not self.carrier and x.group != self.carrier:
            raise ValueError("element not in the source group")
        return sum(map(mul, self.h.matrix[0], x.coords))

    def __repr__(self) -> str:
        return (
            f"FormParameter({self.carrier}, h={list(self.h.matrix[0]) if self.h.matrix else []},"
            f" p1={self.p_one})"
        )


def _symmetry_of(carrier: FinAbGroup, h: AbHom, p_one: GroupElement) -> int:
    """h(p(1)) - 1 of the parameter (carrier, h, p(1)), after checking its
    axioms; ValueError names the one that fails."""
    if h.source != carrier or h.target != Z:
        raise ValueError("h must be a homomorphism carrier -> Z")
    if p_one.group != carrier:
        raise ValueError("p(1) must lie in the carrier")
    hp = h(p_one).coords[0]
    if hp not in (0, 2):
        raise ValueError(f"h(p(1)) = {hp}, expected 0 or 2")
    # p h p = 2p reduces to h(p(1)) * p(1) = 2 p(1)
    if hp * p_one != 2 * p_one:
        raise ValueError("p h p = 2p fails")
    # h p h = 2h on generators: h(x) * (h(p(1)) - 2) = 0
    if hp == 0 and not h.is_zero():
        raise ValueError("anti-symmetric parameter must have h = 0")
    return hp - 1


@dataclass(frozen=True, slots=True)
class FPMorphism:
    source: FormParameter
    target: FormParameter
    map: AbHom

    def __post_init__(self):
        if (
            self.map.source != self.source.carrier
            or self.map.target != self.target.carrier
        ):
            raise ValueError("carrier map does not match source/target")
        for i, g in enumerate(self.source.carrier.gens()):
            if self.target.h_of(self.map(g)) != self.source.h_of(g):
                raise ValueError(
                    f"h is not preserved on generator {i}"
                )
        if self.map(self.source.p_one) != self.target.p_one:
            raise ValueError("p(1) is not preserved")

    def __call__(self, x: GroupElement) -> GroupElement:
        return self.map(x)

    def compose(self, other: "FPMorphism") -> "FPMorphism":
        if other.target != self.source:
            raise ValueError("composition mismatch")
        return FPMorphism(
            other.source, self.target, self.map.compose(other.map)
        )

    def is_isomorphism(self) -> bool:
        return self.map.is_isomorphism()

    def inverse(self) -> "FPMorphism":
        return FPMorphism(self.target, self.source, self.map.inverse())

    @classmethod
    def identity(cls, q: FormParameter) -> "FPMorphism":
        return cls(q, q, AbHom.identity(q.carrier))


@dataclass(frozen=True, slots=True)
class SliceHom:
    """A homomorphism v: A -> Z2 (an object of the slice over Z2); its
    domain A is v.source."""

    v: AbHom

    def __post_init__(self):
        if self.v.target != Z2:
            raise ValueError("expected a homomorphism to Z2")

    @property
    def domain(self) -> FinAbGroup:
        return self.v.source

    def __call__(self, x: GroupElement) -> int:
        return self.v(x).coords[0]

    @property
    def is_zero(self) -> bool:
        return self.v.is_zero()


@dataclass(frozen=True, slots=True)
class CosliceHom:
    """A homomorphism v': Z2 -> A, stored as the image v'(1) of order <= 2;
    its codomain A is v'(1)'s group."""

    v_one: GroupElement

    def __post_init__(self):
        if not (2 * self.v_one).is_zero:
            raise ValueError("v'(1) must have order dividing 2")

    @property
    def codomain(self) -> FinAbGroup:
        return self.v_one.group

    @property
    def is_zero(self) -> bool:
        return self.v_one.is_zero


Height = Union[int, float]


@dataclass(frozen=True, slots=True)
class FPClassification:
    symmetry: int
    height: Height
    complement: Tuple[int, ...]

    def __repr__(self) -> str:
        h = "inf" if self.height == inf else self.height
        return f"(sym={self.symmetry:+d}, ht={h}, G={list(self.complement)})"


@dataclass(frozen=True, slots=True)
class MaximalSplitting:
    standard_kind: str
    k: Optional[int]  # level within the ZP_k / ZL_k families, else None
    standard: FormParameter
    complement: FinAbGroup
    iso: FPMorphism  # P -> standard + complement
    # standard + complement -> P onto the splitting's basis, iso's inverse;
    # not part of repr or ==
    inverse: FPMorphism = field(repr=False, compare=False)

    @property
    def split_parameter(self) -> FormParameter:
        return self.iso.target


_BETA = [[1, 0], [-1, -1]]
# The one list of the standard kinds.  Each kind with no level maps to
# (carrier orders, h row, p(1), height, matrices of the generators of Aut),
# each family (ZP_k, ZL_k) to its lowest level.
_FIXED_KINDS = {
    "Q+": ((0,), (2,), (1,), 0, []),
    "Q^+": ((0,), (1,), (2,), 1, []),
    "Q-": ((2,), (0,), (1,), 1, []),
    "Q^-": ((), (), (), 0, []),
    "ZP": ((0, 0), (1, 0), (2, -1), inf, [_BETA]),
}
_FAMILIES = {"ZP_k": 1, "ZL_k": 2}


def _kind_data(kind: str, k: Optional[int]):
    """(carrier orders, h row, p(1), height, Aut generator matrices) of the
    standard `kind` at level k; k is None for a kind with no level."""
    if kind in _FIXED_KINDS:
        if k is not None:
            raise ValueError(f"{kind} takes no level, got k = {k}")
        return _FIXED_KINDS[kind]
    if kind not in _FAMILIES:
        raise ValueError(f"unknown standard parameter {kind!r}")
    if k is None or k < _FAMILIES[kind]:
        raise ValueError(f"{kind} requires k >= {_FAMILIES[kind]}")
    if kind == "ZP_k":
        gens = [_BETA] + ([[[1, 0], [1, 3]]] if k >= 2 else [])
        return (0, 2**k), (1, 0), (2, -1), k + 1, gens
    gens = [[[-1]]] + ([[[3]]] if k >= 3 else [])
    return (2**k,), (0,), (2 ** (k - 1),), k, gens  # ht(ZL_k) = (k - 1) + 1


@lru_cache(maxsize=None)
def standard(name: str, k: Optional[int] = None) -> FormParameter:
    """Standard indecomposable parameters by name.

    ZP_k requires k >= 1 and ZL_k requires k >= 2, also when the family
    name comes with no level; plain "ZP" is the infinite member of the ZP
    family.  Composite names like "ZP_2" also parse.
    """
    if k is None and "_" in name and name not in _FAMILIES:
        name, k = parse_name(name)
    orders, hrow, p1, _, _ = _kind_data(name, k)
    g = FinAbGroup(orders)
    return FormParameter(g, AbHom(g, Z, [hrow]), g.element(p1))


def parse_name(text: str) -> Tuple[str, Optional[int]]:
    if text in _FIXED_KINDS:
        return text, None
    family, _, level = text.partition("_")
    if family + "_k" in _FAMILIES and level.isascii() and level.isdigit():
        return family + "_k", int(level)
    raise ValueError(f"unknown parameter name {text!r}")


def standard_name(kind: str, k: Optional[int]) -> str:
    return kind if k is None else f"{kind[:2]}_{k}"


def split_sum(q: FormParameter, g: FinAbGroup) -> FormParameter:
    """The split parameter Q + G: h extended by zero, p(1) in the Q block."""
    carrier = FinAbGroup(q.carrier.orders + g.orders)
    hrow = list(q.h.matrix[0]) + [0] * g.ngens
    p1 = carrier.element(tuple(q.p_one.coords) + (0,) * g.ngens)
    return FormParameter(carrier, AbHom(carrier, Z, [hrow]), p1)


@lru_cache(maxsize=None)
def linearisation(
    q: FormParameter,
) -> Tuple[FinAbGroup, AbHom, Tuple[GroupElement, ...]]:
    """SQ = Q_e / <p(1)> with the quotient projection and a section: lifts[i]
    is a preimage in Q_e of the i-th generator of SQ.  Two preimages differ
    by a multiple of p(1), so every lift through SQ is read off the section."""
    return quotient_with_lift([q.p_one], q.carrier)


@lru_cache(maxsize=None)
def quasi_wu(q: FormParameter) -> Union[SliceHom, CosliceHom]:
    """v_Q: SQ -> Z2 induced by h (symmetric), or v'_Q: Z2 -> Q_e (anti);
    h(p(1)) = 2, so h mod 2 does not depend on the chosen lift."""
    if q.is_symmetric:
        sq, _, lifts = linearisation(q)
        return SliceHom(AbHom(sq, Z2, [[q.h_of(x) for x in lifts]]))
    return CosliceHom(q.p_one)


def S_of(alpha: FPMorphism) -> AbHom:
    """The induced homomorphism on linearisations."""
    sp, _, lifts = linearisation(alpha.source)
    sq, proj_q, _ = linearisation(alpha.target)
    return AbHom.from_columns(sp, sq, [proj_q(alpha(x)) for x in lifts])


def morphism_from_slice(
    p: FormParameter, q: FormParameter, f: AbHom
) -> FPMorphism:
    """The unique morphism alpha: P -> Q with S(alpha) = f.

    Both parameters must be symmetric and f must satisfy v_Q o f = v_P,
    which is checked on the matrices.  The carrier map is recovered through
    the pullback description of the carrier: alpha(x) is the unique element
    with h(alpha(x)) = h(x) and pi(alpha(x)) = f(pi(x)).  In integers,
    U = L F pi, L having the lifts of SQ as columns, F = f and pi P's
    projection, has the right projection; column j then moves by
    p(1) * d_j / 2, d = h_P - h_Q U, to the right h.  Any integer
    representative of U does, as two differ by multiples of p(1).
    """
    if not (p.is_symmetric and q.is_symmetric):
        raise ValueError("slice lifting requires symmetric parameters")
    sp, proj_p, _ = linearisation(p)
    sq, _, lifts = linearisation(q)
    if f.source != sp or f.target != sq:
        raise ValueError("map does not connect the linearisations")
    vp, vq = quasi_wu(p).v.matrix[0], quasi_wu(q).v.matrix[0]
    fcols = [[row[k] for row in f.matrix] for k in range(sp.ngens)]
    if [sum(map(mul, vq, c)) % 2 for c in fcols] != list(vp):
        raise ValueError("map is not a morphism of quasi-Wu classes")
    lrows = [[x.coords[i] for x in lifts] for i in range(q.carrier.ngens)]
    lf = [[sum(map(mul, row, c)) for c in fcols] for row in lrows]
    pcols = [[row[j] for row in proj_p.matrix] for j in range(p.carrier.ngens)]
    u = [[sum(map(mul, row, c)) for c in pcols] for row in lf]
    hq = q.h.matrix[0]
    d = [hj - sum(map(mul, hq, c)) for hj, c in zip(p.h.matrix[0], zip(*u))]
    if any(dj % 2 for dj in d):
        raise AssertionError("parity broke in the pullback lift")
    rows = [
        [x + pi * dj // 2 for x, dj in zip(row, d)]
        for row, pi in zip(u, q.p_one.coords)
    ]
    return FPMorphism(p, q, AbHom(p.carrier, q.carrier, rows))


@lru_cache(maxsize=None)
def maximal_splitting(p: FormParameter) -> MaximalSplitting:
    """Split P as Q + G with Q standard indecomposable.

    Symmetric parameters are split through their quasi-Wu class v_P using
    the torsion/free summand lemmas; anti-symmetric ones through maximal
    2-divisibility of v'_P(1).  Each case returns its kind, level,
    complement and the morphism Q + G -> P sending the generators to the
    splitting's basis; its inverse, one Smith form that also checks both
    compositions, is the splitting's isomorphism.
    """
    split = _split_symmetric if p.is_symmetric else _split_antisymmetric
    kind, k, comp, back = split(p)
    try:
        iso = back.inverse()
    except ValueError as exc:
        raise AssertionError("maximal splitting produced a non-isomorphism") from exc
    return MaximalSplitting(kind, k, standard(kind, k), comp, iso, back)


_Case = Tuple[str, Optional[int], FinAbGroup, FPMorphism]


def _split_symmetric(p: FormParameter) -> _Case:
    sp, _, _ = linearisation(p)
    v = quasi_wu(p)
    assert isinstance(v, SliceHom)
    if v.is_zero:
        # P = Q+ + SP: no head generator, SP is its own complement
        kind, k, comp, basis = "Q+", None, sp, sp.gens()
    else:
        if any(v(g) for g, n in zip(sp.gens(), sp.orders) if n):
            g0, rest = split_off_hom_summand(v.v)
            m = g0.order().bit_length() - 1  # order = 2^m
            kind, k = ("Q^+", None) if m == 1 else ("ZP_k", m - 1)
        else:
            # v lives on the free part: split it there, keep torsion in G
            g0, rest = split_off_free(v.v)
            kind, k = "ZP", None
        comp, incl = subgroup(sp, rest)
        basis = [g0] + incl.columns()
    q0 = standard(kind, k)
    target = split_sum(q0, comp)
    # the slice map S(Q0 + G) -> SP sends a class to the basis combination
    # of its lift's Q0 coordinates, projected to SQ0, and its G coordinates;
    # p(1) lies in Q0, so this kills p(1)
    _, proj_q, _ = linearisation(q0)
    s_tgt, _, lifts = linearisation(target)
    nq = q0.carrier.ngens
    cols = [
        sp.combination(
            [sum(map(mul, row, y.coords[:nq])) for row in proj_q.matrix]
            + list(y.coords[nq:]),
            basis,
        )
        for y in lifts
    ]
    return kind, k, comp, morphism_from_slice(
        target, p, AbHom.from_columns(s_tgt, sp, cols)
    )


def _split_antisymmetric(p: FormParameter) -> _Case:
    a = p.carrier
    if p.p_one.is_zero:
        kind, k, head, rest = "Q^-", None, [], a.gens()
    else:
        h0, rest = split_off_cyclic(p.p_one)
        head = [h0]
        order = h0.order()  # 2^(l+1) with l the 2-divisibility exponent of p(1)
        kind, k = ("Q-", None) if order == 2 else ("ZL_k", order.bit_length() - 1)
    comp, incl = subgroup(a, rest)
    target = split_sum(standard(kind, k), comp)
    basis = head + incl.columns()
    return kind, k, comp, FPMorphism(
        target, p, AbHom.from_columns(target.carrier, a, basis)
    )


def height_of(kind: str, k: Optional[int]) -> Height:
    return _kind_data(kind, k)[3]


def classify(p: FormParameter) -> FPClassification:
    ms = maximal_splitting(p)
    return FPClassification(
        p.symmetry,
        height_of(ms.standard_kind, ms.k),
        ms.complement.canonical_orders(),
    )


@lru_cache(maxsize=None)
def es(p: FormParameter) -> FPMorphism:
    """Extended symmetrisation P -> Q^+ + SP, carrier map (h, pi)."""
    if not p.is_symmetric:
        raise ValueError("extended symmetrisation needs a symmetric parameter")
    sp, proj, _ = linearisation(p)
    target = split_sum(standard("Q^+"), sp)
    rows = [p.h.matrix[0], *proj.matrix]
    return FPMorphism(p, target, AbHom(p.carrier, target.carrier, rows))


def eql(p: FormParameter) -> FPMorphism:
    """Extended quadratic lift Q- + P_e -> P, carrier map v' + Id."""
    if p.is_symmetric:
        raise ValueError("extended quadratic lift needs an anti-symmetric parameter")
    source = split_sum(standard("Q-"), p.carrier)
    cols = [p.p_one] + p.carrier.gens()
    return FPMorphism(
        source, p, AbHom.from_columns(source.carrier, p.carrier, cols)
    )


def initial_morphism(q: FormParameter) -> FPMorphism:
    """The unique morphism from Q_eps (eps = symmetry of q)."""
    src = standard("Q+" if q.is_symmetric else "Q-")
    return FPMorphism(
        src, q, AbHom.from_columns(src.carrier, q.carrier, [q.p_one])
    )


def terminal_morphism(q: FormParameter) -> FPMorphism:
    """The unique morphism to Q^eps."""
    tgt = standard("Q^+" if q.is_symmetric else "Q^-")
    rows = [list(q.h.matrix[0])] if q.is_symmetric else []
    return FPMorphism(q, tgt, AbHom(q.carrier, tgt.carrier, rows))


def aut_generators(q: FormParameter) -> List[FPMorphism]:
    """Generators of Aut(Q) for a standard indecomposable parameter."""
    c = q.carrier
    return [
        FPMorphism(q, q, AbHom(c, c, m))
        for m in _kind_data(*_recognise_standard(q))[4]
    ]


def _recognise_standard(q: FormParameter) -> Tuple[str, Optional[int]]:
    """(kind, level) of a standard parameter, read off its maximal splitting."""
    ms = maximal_splitting(q)
    if not (ms.complement.is_trivial and ms.standard == q):
        raise ValueError("not a standard indecomposable parameter")
    return ms.standard_kind, ms.k


def standard_morphism(
    src_name: str, dst_name: str, n: int = 0
) -> FPMorphism:
    """The standard morphism between two standard indecomposables.

    Q+ and Q- are initial and Q^+ and Q^- terminal (for their symmetry), so
    an arrow out of the initial or into the terminal parameter is the
    unique one.  Otherwise, ZP_k -> ZP_l (k >= l, with plain ZP the
    infinite member) has carrier map [[1, 0], [n, 2n+1]], and ZL_k -> ZL_l
    (k <= l) has [[2^(l-k)]].  Any other pair has no standard morphism.
    """
    src, dst = standard(src_name), standard(dst_name)
    alpha = initial_morphism(dst)
    if alpha.source == src:
        return alpha
    alpha = terminal_morphism(src)
    if alpha.target == dst:
        return alpha
    (skind, sk), (dkind, dk) = parse_name(src_name), parse_name(dst_name)
    if skind[:2] == dkind[:2] == "ZP":
        matrix = [[1, 0], [n, 2 * n + 1]]
    elif skind == dkind == "ZL_k":
        if dk < sk:
            raise ValueError("no morphisms ZL_k -> ZL_l with l < k")
        matrix = [[2 ** (dk - sk)]]
    else:
        raise ValueError(f"no standard morphism {src_name} -> {dst_name}")
    return FPMorphism(src, dst, AbHom(src.carrier, dst.carrier, matrix))
