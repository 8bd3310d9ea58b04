"""Finitely generated abelian groups, homomorphisms, and summand splitting.

A group is a fixed direct sum of cyclic factors: order 0 encodes an infinite
cyclic factor, n >= 2 a finite one (order-1 factors are rejected).  Canonical
form is the ascending invariant-factor chain d1 | d2 | ... followed by the
free factors; two groups are isomorphic iff their canonical forms coincide.

Elements carry one coordinate per factor, reduced into [0, n) on finite
factors.  Homomorphisms are integer matrices whose column j is the image of
source generator j in target coordinates.  All values are immutable, and
each is a slotted dataclass with no per-instance dict.  A group is interned:
there is one object per orders tuple, so `x.group is g` is the common case
of `x.group == g`, but groups are still compared with `==`, which is
value-based.  Orders, coordinates and matrix entries must be integers
(`operator.index`); anything else raises ValueError.  An element that the
group's own arithmetic produces (`zero`, `gen`, `combination`, `+`, `-`,
`k *`, a map's value and its columns) is built from coordinates already
reduced, through the private `_reduced`; `GroupElement(...)` and
`FinAbGroup.element` reduce a caller's coordinates.  `combination` adds on
coordinates and reduces once.

One routine per job: every quotient is read off `free_quotient` (integer
relation columns over a free group in; the group, the value of each free
generator and an integer section out), which `quotient_with_lift`, the
spans of `subgroup` and `generated_group` and the summand complement read;
every membership question goes through `member_solver`, which
`AbHom.solver` and `AbHom.inverse` use and which keeps only the U,
diagonal, V and rank of its Smith form (`_intmat.Solver`).
`AbHom.is_isomorphism` is one Smith form (a surjection between isomorphic
groups, exact because finitely generated abelian groups are Hopfian), and
`is_surjective` reads only the cokernel group.  `tensor_map(f, g)` is
f (x) g between the groups of `tensor_with_generators`.  Summands are
split off by coordinate arithmetic on the cyclic factors through one
complement loop, `_complement`; no group is enumerated.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, lcm
from operator import index, mul
from typing import (
    Callable, Dict, Iterable, List, Optional, Sequence, Tuple
)

from . import _intmat
from ._intmat import Matrix

__all__ = [
    "FinAbGroup",
    "GroupElement",
    "AbHom",
    "Z",
    "Z2",
    "TRIVIAL",
    "free_quotient",
    "generated_group",
    "hom_pair",
    "hom_sum",
    "is_kernel",
    "kernel",
    "kernel_generators",
    "subgroup",
    "subgroup_equal",
    "tensor",
    "tensor_with_generators",
    "tensor_map",
    "direct_sum",
    "least_preimage_of_one",
    "split_off_hom_summand",
    "split_off_free",
    "split_off_cyclic",
]


def _integer(value) -> int:
    try:
        return index(value)
    except TypeError:
        raise ValueError(f"{value!r} is not an integer") from None


def _integers(values: Iterable) -> Tuple[int, ...]:
    """The values as a tuple of ints, through `operator.index`: a float, a
    string or any other value that is not an integer raises ValueError
    naming it, where int() would truncate or parse it."""
    values = tuple(values)
    try:
        return tuple(map(index, values))
    except TypeError:
        return tuple(map(_integer, values))  # raises at the first non-integer


# the interned groups, one per orders tuple (see FinAbGroup.__new__), kept
# for the life of the process like the library's caches
_GROUPS: Dict[Tuple[int, ...], "FinAbGroup"] = {}


@dataclass(frozen=True, slots=True)
class FinAbGroup:
    """Direct sum of cyclic groups with a fixed factor ordering.

    There is one object per orders tuple: FinAbGroup(orders) returns the
    group first built with those orders, so a group built again costs no
    memory and `x.group is g` holds in the common case.  Equality, hash and
    repr stay value-based: compare groups with `==`."""

    orders: Tuple[int, ...]

    def __new__(cls, orders: Iterable[int]) -> "FinAbGroup":
        orders = _integers(orders)
        group = _GROUPS.get(orders)
        if group is None:
            # validated once, when first built; an invalid tuple is not kept
            if any(n < 0 or n == 1 for n in orders):
                raise ValueError(f"invalid cyclic orders {orders}")
            group = object.__new__(cls)
            object.__setattr__(group, "orders", orders)
            # setdefault is atomic: of two threads building one group, both
            # return the object stored first
            group = _GROUPS.setdefault(orders, group)
        return group

    def __init__(self, orders: Iterable[int]):
        """Nothing to do: __new__ returns the built group."""

    def __reduce__(self):
        # copy, deepcopy and pickle rebuild through __new__, so they return
        # the interned group
        return FinAbGroup, (self.orders,)

    # -- structure -----------------------------------------------------------

    @property
    def ngens(self) -> int:
        return len(self.orders)

    @property
    def free_rank(self) -> int:
        return sum(1 for n in self.orders if n == 0)

    @property
    def torsion_orders(self) -> Tuple[int, ...]:
        return tuple(n for n in self.orders if n)

    @property
    def is_trivial(self) -> bool:
        return not self.orders

    def canonical_orders(self) -> Tuple[int, ...]:
        """Ascending invariant factors, then zeros for the free part.

        Z_a + Z_b = Z_gcd(a, b) + Z_lcm(a, b), so replacing every pair of
        torsion orders (i < j) by (gcd, lcm) leaves each order dividing
        every later one; nothing is factored, so a large prime costs no
        more than a small one.
        """
        d = list(self.torsion_orders)
        for i in range(len(d)):
            for j in range(i + 1, len(d)):
                d[i], d[j] = gcd(d[i], d[j]), lcm(d[i], d[j])
        return tuple(n for n in d if n != 1) + (0,) * self.free_rank

    # -- elements ------------------------------------------------------------

    def element(self, coords: Sequence[int]) -> "GroupElement":
        return GroupElement(self, coords)

    def zero(self) -> "GroupElement":
        return _reduced(self, (0,) * self.ngens)

    def gen(self, i: int) -> "GroupElement":
        c = [0] * self.ngens
        c[i] = 1
        return _reduced(self, tuple(c))

    def gens(self) -> List["GroupElement"]:
        return [self.gen(i) for i in range(self.ngens)]

    def combination(
        self, coeffs: Sequence[int], elements: Sequence["GroupElement"]
    ) -> "GroupElement":
        """sum_i coeffs[i] * elements[i]: the coordinates are added as plain
        integers and reduced once, so only the sum is built."""
        if len(coeffs) != len(elements):
            raise ValueError(
                f"{len(coeffs)} coefficients for {len(elements)} elements"
            )
        acc = [0] * self.ngens
        for c, x in zip(coeffs, elements):
            if x.group is not self and x.group != self:
                raise ValueError("elements of different groups")
            if c:
                acc = [a + c * b for a, b in zip(acc, x.coords)]
        return _reduced(
            self, tuple([a % n if n else a for a, n in zip(acc, self.orders)])
        )

    def relation_columns(self) -> List[List[int]]:
        """Columns n_i * e_i over the finite factors (the defining relations)."""
        cols = []
        for i, n in enumerate(self.orders):
            if n:
                col = [0] * self.ngens
                col[i] = n
                cols.append(col)
        return cols

    def reduce_coords(self, coords: Sequence[int]) -> Tuple[int, ...]:
        if len(coords) != self.ngens:
            raise ValueError(
                f"expected {self.ngens} coordinates, got {len(coords)}"
            )
        return tuple([
            c % n if n else c for c, n in zip(_integers(coords), self.orders)
        ])

    def __repr__(self) -> str:
        if not self.orders:
            return "0"
        return " + ".join("Z" if n == 0 else f"Z{n}" for n in self.orders)


Z = FinAbGroup((0,))
Z2 = FinAbGroup((2,))
TRIVIAL = FinAbGroup(())


@dataclass(frozen=True, slots=True)
class GroupElement:
    group: FinAbGroup
    coords: Tuple[int, ...]

    def __init__(self, group: FinAbGroup, coords: Sequence[int]):
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "coords", group.reduce_coords(coords))

    def __add__(self, other: "GroupElement") -> "GroupElement":
        g = self.group
        if other.group is not g and other.group != g:
            raise ValueError("elements of different groups")
        return _reduced(g, tuple([
            (a + b) % n if n else a + b
            for a, b, n in zip(self.coords, other.coords, g.orders)
        ]))

    def __sub__(self, other: "GroupElement") -> "GroupElement":
        return self + (-other)

    def __neg__(self) -> "GroupElement":
        g = self.group
        return _reduced(
            g, tuple([-a % n if n else -a for a, n in zip(self.coords, g.orders)])
        )

    def __rmul__(self, k: int) -> "GroupElement":
        g = self.group
        return _reduced(g, tuple([
            k * a % n if n else k * a for a, n in zip(self.coords, g.orders)
        ]))

    @property
    def is_zero(self) -> bool:
        return not any(self.coords)

    def order(self) -> int:
        """Element order; 0 means infinite."""
        t = 1
        for c, n in zip(self.coords, self.group.orders):
            if n == 0:
                if c:
                    return 0
            elif c:
                t = lcm(t, n // gcd(n, c))
        return t

    def __repr__(self) -> str:
        return f"({', '.join(map(str, self.coords))})"


def _reduced(group: FinAbGroup, coords: Tuple[int, ...]) -> GroupElement:
    """The element with coordinates the group's own arithmetic has already
    reduced: no length or integer check and no second reduction.  Caller
    input goes through GroupElement(...) or FinAbGroup.element, which check
    the length and that every coordinate is an integer, and reduce."""
    x = object.__new__(GroupElement)
    object.__setattr__(x, "group", group)
    object.__setattr__(x, "coords", coords)
    return x


@dataclass(frozen=True, slots=True)
class AbHom:
    """Homomorphism given on generators; column j = image of source gen j."""

    source: FinAbGroup
    target: FinAbGroup
    matrix: Tuple[Tuple[int, ...], ...]

    def __init__(
        self,
        source: FinAbGroup,
        target: FinAbGroup,
        matrix: Sequence[Sequence[int]],
    ):
        # convert and reduce entries into target coordinates, row by row
        red = tuple(
            tuple([x % m for x in _integers(row)]) if m else _integers(row)
            for row, m in zip(matrix, target.orders)
        )
        if len(matrix) != target.ngens or any(
            len(r) != source.ngens for r in red
        ):
            raise ValueError("matrix shape does not match source/target")
        # well-defined: n * (image of a generator of order n) is zero
        for j, n in enumerate(source.orders):
            if n and any(
                n * row[j] % m if m else n * row[j]
                for row, m in zip(red, target.orders)
            ):
                raise ValueError(
                    f"not a homomorphism: {n} * (image of generator {j}) != 0"
                )
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "matrix", red)

    @classmethod
    def from_columns(
        cls,
        source: FinAbGroup,
        target: FinAbGroup,
        cols: Sequence[GroupElement],
    ) -> "AbHom":
        if len(cols) != source.ngens:
            raise ValueError("one column per source generator required")
        mat = [[col.coords[i] for col in cols] for i in range(target.ngens)]
        return cls(source, target, mat)

    @classmethod
    def zero(cls, source: FinAbGroup, target: FinAbGroup) -> "AbHom":
        return cls(
            source, target, _intmat.zeros(target.ngens, source.ngens)
        )

    @classmethod
    def identity(cls, group: FinAbGroup) -> "AbHom":
        return cls(group, group, _intmat.identity(group.ngens))

    def __call__(self, x: GroupElement) -> GroupElement:
        if x.group is not self.source and x.group != self.source:
            raise ValueError("element not in the source group")
        v = x.coords
        sums = [sum(map(mul, row, v)) for row in self.matrix]
        return _reduced(self.target, tuple([
            s % n if n else s for s, n in zip(sums, self.target.orders)
        ]))

    def map_rows(self, rows: Sequence[Sequence[int]]) -> List[List[int]]:
        """The coordinate columns of the values at source elements given by
        their coordinate rows, as `__call__` computes them but building no
        element: one row product of the matrix with each row, each column
        reduced by its target order."""
        return [
            [x % n for x in col] if n else col
            for col, n in zip([[sum(map(mul, h, r)) for r in rows] for h in self.matrix], self.target.orders)
        ]

    def compose(self, other: "AbHom") -> "AbHom":
        """self after other."""
        if other.target != self.source:
            raise ValueError("composition mismatch")
        if 0 in (
            self.source.ngens,
            self.target.ngens,
            other.source.ngens,
        ):
            # empty matrices drop their dimensions; rebuild the zero map
            return AbHom.zero(other.source, self.target)
        prod = _intmat.mat_mul(self.matrix, other.matrix)
        return AbHom(other.source, self.target, prod)

    def columns(self) -> List[GroupElement]:
        # the matrix holds reduced target coordinates
        return [
            _reduced(self.target, tuple([row[j] for row in self.matrix]))
            for j in range(self.source.ngens)
        ]

    def solver(self) -> Callable[[GroupElement], Optional[GroupElement]]:
        """A function taking y to some x with self(x) == y, or None, for
        many right-hand sides from one SNF."""
        coeffs = member_solver(self.target, self.columns())

        def solve(y: GroupElement) -> Optional[GroupElement]:
            if y.group != self.target:
                raise ValueError("element not in the target group")
            sol = coeffs(y)
            return None if sol is None else self.source.element(sol)

        return solve

    def is_zero(self) -> bool:
        return all(not any(r) for r in self.matrix)

    def is_surjective(self) -> bool:
        """Whether the cokernel is trivial, read off the Smith form of the
        columns and the target's relations; no projection or lift is built."""
        b = self.target
        if not b.ngens:
            return True
        return _cokernel(_with_relations(b, self.matrix), ())[2].is_trivial

    def is_injective(self) -> bool:
        return all(k.is_zero for k in kernel_generators(self))

    def is_isomorphism(self) -> bool:
        """Surjective between isomorphic groups, by one Smith form.

        A finitely generated abelian group is Hopfian: a surjection A -> B
        composed with an isomorphism B -> A is a surjective endomorphism of
        A, hence injective, so a surjection between isomorphic groups is an
        isomorphism."""
        return (
            self.source.canonical_orders() == self.target.canonical_orders()
            and self.is_surjective()
        )

    def inverse(self) -> "AbHom":
        cols = []
        solve = self.solver()
        for t in self.target.gens():
            x = solve(t)
            if x is None:
                raise ValueError("not invertible")
            cols.append(x)
        inv = AbHom.from_columns(self.target, self.source, cols)
        for g in self.source.gens():
            if inv(self(g)) != g:
                raise ValueError("not invertible")
        return inv

    def __neg__(self) -> "AbHom":
        return AbHom(
            self.source, self.target, [[-x for x in r] for r in self.matrix]
        )

    def __repr__(self) -> str:
        return f"AbHom({self.source} -> {self.target}, {list(map(list, self.matrix))})"


def _with_relations(group: FinAbGroup, mat: Sequence[Sequence[int]]) -> Matrix:
    """mat (one row per generator of group) with the defining relations of
    group appended as columns."""
    rel = group.relation_columns()
    return [list(mat[i]) + [c[i] for c in rel] for i in range(group.ngens)]


def _cokernel(
    rel: Sequence[Sequence[int]], keep: Sequence[str]
) -> Tuple[_intmat.SNF, List[int], FinAbGroup]:
    """Z^n / (span of the columns of rel), rel having n >= 1 rows: the Smith
    form of rel with the transforms named in `keep`, the rows of its U that
    the group keeps (those of a diagonal entry 0 or >= 2) and the group."""
    s = _intmat.SNF([list(row) or [0] for row in rel], keep=keep)
    ds = [s.d[i][i] for i in range(s.rank)]
    kept = [i for i in range(s.rank) if ds[i] >= 2] + list(
        range(s.rank, len(rel))
    )
    return s, kept, FinAbGroup([ds[i] if i < s.rank else 0 for i in kept])


def free_quotient(
    ngens: int, relations: Sequence[Sequence[int]]
) -> Tuple[FinAbGroup, Tuple[GroupElement, ...], Tuple[Tuple[int, ...], ...]]:
    """Z^ngens / <relations>, the relations given as integer columns: the
    group, the image of each generator of Z^ngens, and an integer preimage
    of each generator of the group (a section of the projection).  The row
    of the projection onto a free factor starts with a positive entry."""
    if ngens == 0:
        return TRIVIAL, (), ()
    s, kept, group = _cokernel(
        [[col[i] for col in relations] for i in range(ngens)], ("u", "uinv")
    )
    proj, section = [], []
    for i, n in zip(kept, group.orders):
        row, col = s.u[i], [r[i] for r in s.uinv]
        if n == 0 and next((x for x in row if x), 0) < 0:
            row, col = [-x for x in row], [-x for x in col]
        proj.append([x % n if n else x for x in row])
        section.append(tuple(col))
    images = tuple(
        _reduced(group, tuple([row[a] for row in proj])) for a in range(ngens)
    )
    return group, images, tuple(section)


def quotient_with_lift(
    relations: Sequence[GroupElement], ambient: FinAbGroup
) -> Tuple[FinAbGroup, AbHom, Tuple[GroupElement, ...]]:
    """Quotient of ambient by the subgroup generated by the relations: the
    group, the projection (surjective, killing exactly the relation span)
    and a preimage in ambient of each quotient generator."""
    for r in relations:
        if r.group != ambient:
            raise ValueError("relation outside the ambient group")
    cols = [r.coords for r in relations] + ambient.relation_columns()
    group, images, section = free_quotient(ambient.ngens, cols)
    lifts = tuple(ambient.element(s) for s in section)
    return group, AbHom.from_columns(ambient, group, images), lifts


def kernel_generators(f: AbHom) -> List[GroupElement]:
    """Generators of Ker(f), read off one kernel-basis SNF."""
    a, b = f.source, f.target
    if b.ngens == 0 or f.is_zero():
        return a.gens()
    ker = _intmat.kernel_basis(_with_relations(b, f.matrix))
    return [a.element(v[: a.ngens]) for v in ker]


def kernel(f: AbHom) -> Tuple[FinAbGroup, AbHom]:
    """Kernel subgroup in canonical form with its inclusion into the source."""
    return subgroup(f.source, kernel_generators(f))


def is_kernel(f: AbHom, gens: Sequence[GroupElement]) -> bool:
    """Whether gens generate Ker(f) inside the source of f."""
    if not all(f(g).is_zero for g in gens):
        return False
    coords = member_solver(f.source, gens)
    return all(coords(k) is not None for k in kernel_generators(f))


def _span(
    ambient: FinAbGroup, gens: Sequence[GroupElement]
) -> Tuple[List[GroupElement], FinAbGroup, Tuple[Tuple[int, ...], ...]]:
    """The non-zero gens, the canonical form of the subgroup they generate,
    and a section: generator i of that group is sum_j section[i][j] * gens[j]."""
    gens = [g for g in gens if not g.is_zero]
    for g in gens:
        if g.group != ambient:
            raise ValueError("generator outside the ambient group")
    if not gens:
        return gens, TRIVIAL, ()
    s = len(gens)
    gmat = [[g.coords[i] for g in gens] for i in range(ambient.ngens)]
    lat = _intmat.kernel_basis(_with_relations(ambient, gmat))
    grp, _, section = free_quotient(s, [v[:s] for v in lat])
    return gens, grp, section


def generated_group(
    ambient: FinAbGroup, gens: Sequence[GroupElement]
) -> FinAbGroup:
    """Canonical form of the subgroup generated by gens, without the
    inclusion."""
    return _span(ambient, gens)[1]


def subgroup(
    ambient: FinAbGroup, gens: Sequence[GroupElement]
) -> Tuple[FinAbGroup, AbHom]:
    """Canonical form of the subgroup generated by gens, with inclusion."""
    gens, grp, section = _span(ambient, gens)
    if not gens:
        return TRIVIAL, AbHom(TRIVIAL, ambient, [[] for _ in ambient.orders])
    cols = [ambient.combination(c, gens) for c in section]
    return grp, AbHom.from_columns(grp, ambient, cols)


def member_solver(
    ambient: FinAbGroup, gens: Sequence[GroupElement]
) -> Callable[[GroupElement], Optional[List[int]]]:
    """x -> coefficients expressing x in terms of gens inside ambient, or
    None; one SNF, built at the first call, answers every x."""
    s = len(gens)
    if s == 0 or ambient.ngens == 0:
        return lambda x: [0] * s if x.is_zero else None
    gmat = [[g.coords[i] for g in gens] for i in range(ambient.ngens)]
    solver = None

    def member(x: GroupElement) -> Optional[List[int]]:
        nonlocal solver, gmat
        if solver is None:
            solver = _intmat.Solver(
                _intmat.SNF(_with_relations(ambient, gmat), keep=_intmat.Solver.KEEP)
            )
            gmat = None
        sol = solver.solve(x.coords)
        return None if sol is None else sol[:s]

    return member


def hom_pair(f1: AbHom, f2: AbHom) -> AbHom:
    """x -> (f1(x), f2(x)) into the direct sum of the targets."""
    rows = list(f1.matrix) + list(f2.matrix)
    return AbHom(f1.source, direct_sum(f1.target, f2.target), rows)


def hom_sum(f1: AbHom, f2: AbHom) -> AbHom:
    """(x, y) -> f1(x) + f2(y) out of the direct sum of the sources."""
    rows = [r1 + r2 for r1, r2 in zip(f1.matrix, f2.matrix)]
    return AbHom(direct_sum(f1.source, f2.source), f1.target, rows)


def subgroup_equal(
    ambient: FinAbGroup,
    gens_a: Sequence[GroupElement],
    gens_b: Sequence[GroupElement],
) -> bool:
    in_b, in_a = member_solver(ambient, gens_b), member_solver(ambient, gens_a)
    return all(in_b(g) is not None for g in gens_a) and all(
        in_a(g) is not None for g in gens_b
    )


def direct_sum(a: FinAbGroup, b: FinAbGroup) -> FinAbGroup:
    return FinAbGroup(a.orders + b.orders)


def tensor(g: FinAbGroup, h: FinAbGroup) -> FinAbGroup:
    """Canonical form of the (ordinary) tensor product."""
    grp, _ = tensor_with_generators(g, h)
    return FinAbGroup(grp.canonical_orders())


def tensor_with_generators(
    g: FinAbGroup, h: FinAbGroup
) -> Tuple[FinAbGroup, List[List[GroupElement]]]:
    """G (x) H plus the image of each generator pair g_i (x) h_j.

    The pair g_i (x) h_j spans a cyclic factor of order gcd(n_i, m_j); the
    group is the direct sum of the non-trivial factors in pair order, and
    genmap[i][j] is the generator of its factor (zero for a trivial one).
    """
    orders = [gcd(n, m) for n in g.orders for m in h.orders]
    grp = FinAbGroup([o for o in orders if o != 1])
    gens = iter(grp.gens())
    genmap = [
        [next(gens) if gcd(n, m) != 1 else grp.zero() for m in h.orders]
        for n in g.orders
    ]
    return grp, genmap


def tensor_map(f: AbHom, g: AbHom) -> AbHom:
    """f (x) g between the groups of tensor_with_generators: the generator
    of a_i (x) b_j goes to f(a_i) (x) g(b_j)."""
    src, src_gen = tensor_with_generators(f.source, g.source)
    dst, dst_gen = tensor_with_generators(f.target, g.target)
    pairs = [x for row in dst_gen for x in row]
    cols = [
        dst.combination([c1 * c2 for c1 in fi.coords for c2 in gj.coords], pairs)
        for fi, row in zip(f.columns(), src_gen)
        for gj, gen in zip(g.columns(), row)
        if not gen.is_zero
    ]
    return AbHom.from_columns(src, dst, cols)


# -- summand splitting -------------------------------------------------------


def _verify_direct_sum(g: GroupElement, comp: Sequence[GroupElement]) -> None:
    parts = FinAbGroup(
        tuple([g.order()]) + tuple(y.order() for y in comp)
    )
    iso = AbHom.from_columns(parts, g.group, [g, *comp])
    if not iso.is_isomorphism():
        raise AssertionError("claimed summand decomposition is not direct")


def least_preimage_of_one(f: AbHom) -> Optional[GroupElement]:
    """For f: G -> Z2, the lexicographically least element of least order
    among the torsion elements x with f(x) = 1; None if f vanishes on the
    torsion subgroup.

    Such an x is odd on some finite factor j where f is odd, so its order is
    at least the 2-part a_j of n_j; (n_j / a_j) * e_j has exactly that order.
    Among the factors of least a_j the last one leaves the most leading
    zeros, which makes its element the least.
    """
    group = f.source
    best: Optional[Tuple[int, int]] = None
    for j, n in enumerate(group.orders):
        if n and f.matrix[0][j]:
            a = n & -n
            if best is None or a <= best[1]:
                best = (j, a)
    if best is None:
        return None
    j, a = best
    coords = [0] * group.ngens
    coords[j] = group.orders[j] // a
    return group.element(coords)


def split_off_hom_summand(f: AbHom) -> Tuple[GroupElement, List[GroupElement]]:
    """Split G = <g> + <H>, G = f.source, with f(g) = 1, H inside Ker(f),
    and g = least_preimage_of_one(f) of minimal 2-power order.

    f must be a homomorphism to Z2 that is non-zero on the torsion subgroup.
    """
    if f.target.orders != (2,):
        raise ValueError("expected a homomorphism to Z2")
    g = least_preimage_of_one(f)
    if g is None:
        raise ValueError("homomorphism vanishes on the torsion subgroup")
    a = g.order()
    if a & (a - 1):
        raise AssertionError(f"minimal order {a} is not a power of 2")
    comp = _complement(g, lambda z: f(z).coords[0])
    if any(f(y).coords[0] for y in comp):
        raise AssertionError("complement generator adjustment failed")
    return g, comp


def _complement(
    g: GroupElement, parity: Callable[[GroupElement], Optional[int]]
) -> List[GroupElement]:
    """Generators of a complement to <g> in g.group, for g of prime-power
    order a.

    A lift z of a generator of g.group/<g> of finite order r has r*z = s*g and
    moves to z - t*g, t = _solve_two_congruences(r, s, a, parity(z)), which
    kills r*z; a lift of a free generator moves to z + g if parity(z) is 1.
    """
    a, group = g.order(), g.group
    quot, _, section = free_quotient(
        group.ngens, [g.coords] + group.relation_columns()
    )
    comp: List[GroupElement] = []
    for r, c in zip(quot.orders, section):
        z = group.element(c)
        if r:
            s = _dlog_in_cyclic(g, a, r * z)
            z = z - _solve_two_congruences(r, s, a, parity(z)) * g
            if not (r * z).is_zero:
                raise AssertionError("complement generator adjustment failed")
        elif parity(z):
            z = z + g
        comp.append(z)
    _verify_direct_sum(g, comp)
    return comp


def _dlog_in_cyclic(g: GroupElement, order: int, x: GroupElement) -> int:
    """The s in [0, order) with s*g == x, for g of prime-power order.

    On a finite factor where g has the full order, g_i = c * w with
    c = n_i/order and w a unit mod order, so s = (x_i / c) * w^-1 mod order.
    """
    for gi, xi, n in zip(g.coords, x.coords, g.group.orders):
        if n and n // gcd(n, gi) == order:
            c = n // order
            s = xi // c * pow(gi // c, -1, order) % order
            if s * g == x:
                return s
            break
    raise AssertionError("element not in the cyclic subgroup")


def _solve_two_congruences(r: int, s: int, a: int, parity: Optional[int]) -> int:
    """A t >= 0 with r*t = s (mod a): the least with t = parity (mod 2), or
    u*(s/d) mod a for parity None, where d = gcd(r, a) = u*r + w*a.

    The congruence has the solutions t0 + k*(a/d); the least with the right
    parity is t0 or t0 + a/d, if there is one.
    """
    d, u, _ = _intmat.xgcd(r, a)
    if s % d == 0:
        if parity is None:
            return u * (s // d) % a
        step = a // d
        t0 = u * (s // d) % step
        for t in (t0, t0 + step):
            if t % 2 == parity:
                return t
    raise AssertionError(
        f"no t with {r}*t = {s} (mod {a}) and t = {parity} (mod 2)"
    )


def split_off_free(f: AbHom) -> Tuple[GroupElement, List[GroupElement]]:
    """Split G = <g> + <H>, G = f.source, with f(g) = 1, H in Ker(f), for f
    vanishing on the torsion: g is the first free generator where f is odd,
    and H is spanned by the other free generators, each plus g where f is
    odd, then the torsion generators."""
    if f.target.orders != (2,):
        raise ValueError("expected a homomorphism to Z2")
    group = f.source
    gens = group.gens()
    vals = [f(x).coords[0] for x in gens]
    if any(v and n for v, n in zip(vals, group.orders)):
        raise ValueError("homomorphism is odd on a torsion factor")
    if not any(vals):
        raise ValueError("homomorphism is zero")
    g = gens[vals.index(1)]
    free = [(x, v) for x, v, n in zip(gens, vals, group.orders) if n == 0]
    comp = [x + g if v else x for x, v in free if x != g]
    comp += [x for x, n in zip(gens, group.orders) if n]
    _verify_direct_sum(g, comp)
    return g, comp


def split_off_cyclic(g: GroupElement) -> Tuple[GroupElement, List[GroupElement]]:
    """Write g = 2^a * h with a maximal in g.group; <h> is then a direct
    summand.

    g must have order 2, as p(1) of an anti-symmetric parameter does
    (2 p(1) = h(p(1)) p(1) = 0); any other element raises ValueError.
    Returns h and generators of a complement.  Each non-zero g_i is
    (n_i / 2) u_i with u_i odd, so a is the least v_2(n_i) - 1, v_2 of
    the gcd t of the coordinates: 2^a = t & -t, the 2-part of t."""
    if g.order() != 2:
        raise ValueError(f"element order {g.order()} is not 2")
    t = gcd(*g.coords)
    h = _divide_by(g, t & -t)
    return h, _complement(h, lambda z: None)


def _divide_by(g: GroupElement, n: int) -> Optional[GroupElement]:
    """The x in g.group with n*x == g whose every coordinate is least, or
    None.

    Multiplication by n acts factor by factor: on Z_m, n*x = g_i has a
    solution iff d = gcd(n, m) divides g_i, and the least one is
    (g_i/d) * (n/d)^-1 mod m/d; on Z it is g_i / n.
    """
    coords = []
    for gi, m in zip(g.coords, g.group.orders):
        d = gcd(n, m)
        if gi % d:
            return None
        coords.append(
            gi // d * pow(n // d, -1, m // d) % (m // d) if m else gi // n
        )
    return g.group.element(coords)
