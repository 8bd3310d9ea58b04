import random
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import gcd

import pytest

from qwitt import _intmat
from qwitt.abelian import (
    _GROUPS,
    _complement,
    _divide_by,
    _factorint,
    _solve_two_congruences,
    TRIVIAL,
    Z,
    Z2,
    AbHom,
    FinAbGroup,
    GroupElement,
    is_kernel,
    kernel,
    kernel_generators,
    least_preimage_of_one,
    member_solver,
    quotient_with_lift,
    split_off_cyclic,
    split_off_free,
    split_off_hom_summand,
    subgroup,
    subgroup_equal,
    tensor,
    tensor_map,
    tensor_with_generators,
)


def test_canonical_orders():
    assert FinAbGroup((2, 3)).canonical_orders() == (6,)
    assert FinAbGroup((0, 30, 4)).canonical_orders() == (2, 60, 0)
    assert FinAbGroup((12, 60)).canonical_orders() == (12, 60)
    assert FinAbGroup((4, 2)).canonical_orders() == (2, 4)
    assert FinAbGroup(()).canonical_orders() == ()
    assert FinAbGroup((2, 3)).canonical_orders() == FinAbGroup((6,)).canonical_orders()
    assert FinAbGroup((2, 4)).canonical_orders() != FinAbGroup((8,)).canonical_orders()
    # a large prime is not factored
    p = 1000000000000000003
    assert FinAbGroup((p, 0, 2 * p)).canonical_orders() == (p, 2 * p, 0)


def factoring_canonical_orders(group):
    """Reference: the invariant factors from the prime factorisation of
    every torsion order, the i-th largest power of each prime recombined
    into the i-th largest factor."""
    primes: dict = {}
    for n in group.torsion_orders:
        for p, e in _factorint(n).items():
            primes.setdefault(p, []).append(e)
    depth = max((len(es) for es in primes.values()), default=0)
    factors = []
    for i in range(depth):
        d = 1
        for p, es in sorted(primes.items()):
            chain = sorted(es, reverse=True)
            if i < len(chain):
                d *= p ** chain[i]
        factors.append(d)
    factors.sort()
    return tuple(factors) + (0,) * group.free_rank


def test_canonical_orders_match_factoring_reference():
    rng = random.Random(31)
    for _ in range(3000):
        orders = [rng.choice([0, rng.randint(2, 400)]) for _ in range(rng.randint(0, 6))]
        group = FinAbGroup(orders)
        assert group.canonical_orders() == factoring_canonical_orders(group), orders


def test_order_one_factor_rejected():
    with pytest.raises(ValueError):
        FinAbGroup((1, 2))


def test_one_object_per_group():
    g = FinAbGroup([2, 0])
    assert FinAbGroup((2, 0)) is g and FinAbGroup(iter([2, 0])) is g
    assert _GROUPS[(2, 0)] is g
    assert _GROUPS[(0,)] is Z and _GROUPS[(2,)] is Z2 and _GROUPS[()] is TRIVIAL
    assert FinAbGroup([0]) is Z and FinAbGroup(()) is TRIVIAL
    # building a group again adds nothing to the table
    h = FinAbGroup((4, 6, 0))
    size = len(_GROUPS)
    for orders in ([2, 0], (0,), [4, 6, 0], (4, 6, 0), iter([4, 6, 0])):
        FinAbGroup(orders)
    assert len(_GROUPS) == size
    # equality, hash and repr stay those of the orders
    assert h == FinAbGroup([4, 6, 0]) and h != FinAbGroup((6, 4, 0))
    assert hash(h) == hash(((4, 6, 0),)) and repr(h) == "Z4 + Z6 + Z"
    assert h.gen(0).group is h and h.zero().group is FinAbGroup([4, 6, 0])


def test_invalid_orders_raise_on_every_call_and_are_not_kept():
    size = len(_GROUPS)
    for orders in ([1], [-2], (3, 1), (0, -5)):
        for _ in range(2):
            with pytest.raises(ValueError, match="invalid cyclic orders"):
                FinAbGroup(orders)
        assert tuple(orders) not in _GROUPS
    assert len(_GROUPS) == size


def test_non_integer_input_is_refused():
    class Two:
        def __index__(self):
            return 2

    # any integer type is read through operator.index
    assert FinAbGroup([Two()]) == Z2 and Z.element((Two(),)).coords == (2,)
    for orders in ([2.7], [2.0], ["2"], [0, Fraction(4, 2)], [None]):
        with pytest.raises(ValueError, match="is not an integer"):
            FinAbGroup(orders)
    with pytest.raises(ValueError, match="0.5 is not an integer"):
        AbHom(Z, Z, [[0.5]])
    with pytest.raises(ValueError, match="1.0 is not an integer"):
        AbHom(Z, Z2, [[1.0]])
    g = FinAbGroup((0, 4))
    with pytest.raises(ValueError, match="1.5 is not an integer"):
        Z.element((1.5,))
    with pytest.raises(ValueError, match="'3' is not an integer"):
        GroupElement(g, (0, "3"))
    with pytest.raises(ValueError, match="2.0 is not an integer"):
        g.reduce_coords([1, 2.0])


def test_element_reduction_idempotent():
    g = FinAbGroup((0, 4, 6))
    x = g.element((-3, 7, -1))
    assert x.coords == (-3, 3, 5)
    assert g.element(x.coords).coords == x.coords
    assert (2 * x).coords == (-6, 2, 4)
    assert (x - x).is_zero


def test_coordinates_are_counted_and_reduced():
    g = FinAbGroup((3, 0, 8))
    for bad in ((1, 2), (1, 2, 3, 4), ()):
        with pytest.raises(ValueError, match="expected 3 coordinates"):
            g.reduce_coords(bad)
        with pytest.raises(ValueError, match="expected 3 coordinates"):
            g.element(bad)
    # torsion coordinates go to [0, n), free ones stay as they are
    assert g.reduce_coords([-1, -7, 17]) == (2, -7, 1)
    assert g.reduce_coords((6, 10**20, -8)) == (0, 10**20, 0)
    x = g.element([-4, 5, -9])
    assert x.coords == (2, 5, 7) and type(x.coords) is tuple
    assert x == g.element(x.coords)
    assert TRIVIAL.element(()).coords == ()
    h = FinAbGroup((3, 0, 4))
    with pytest.raises(ValueError, match="different groups"):
        g.combination([1, 1], [g.gen(0), h.gen(0)])

def test_group_arithmetic_matches_the_public_constructor():
    """Every element the group's own arithmetic returns equals, with the
    same hash, GroupElement(group, raw coordinates) of the unreduced
    result, on groups mixing free and torsion factors, with negative and
    2**70-sized coefficients."""
    rng = random.Random(30)
    big = 2**70

    def coeff():
        return rng.choice(
            [rng.randint(-6, 6), rng.randint(-big, big), -big, big, big + 1]
        )

    def same(x, group, raw):
        ref = GroupElement(group, raw)
        assert x == ref and hash(x) == hash(ref), (x, ref)
        assert x.group == group and type(x.coords) is tuple

    def hom_matrix(src, dst):
        # a generator of order n goes to a multiple of m / gcd(n, m) on Z_m
        # and to 0 on Z: every such matrix is well defined
        return [
            [0 if n and not m else coeff() * (m // gcd(n, m) if n else 1)
             for n in src.orders]
            for m in dst.orders
        ]

    for _ in range(300):
        g, h = (
            FinAbGroup([rng.choice([0, 0, 2, 3, 4, 12, 2**61 - 1])
                        for _ in range(rng.randint(0, 4))])
            for _ in range(2)
        )
        n = g.ngens
        same(g.zero(), g, [0] * n)
        for i in range(n):
            same(g.gen(i), g, [int(j == i) for j in range(n)])
        raws = [[coeff() for _ in range(n)] for _ in range(3)]
        x, y, z = (GroupElement(g, r) for r in raws)
        cs = [coeff() for _ in range(3)]
        same(g.combination(cs, [x, y, z]), g, [
            sum(c * r[j] for c, r in zip(cs, raws)) for j in range(n)
        ])
        same(x + y, g, [a + b for a, b in zip(raws[0], raws[1])])
        same(x - y, g, [a - b for a, b in zip(raws[0], raws[1])])
        same(-x, g, [-a for a in raws[0]])
        k = coeff()
        same(k * x, g, [k * a for a in raws[0]])
        mat = hom_matrix(g, h)
        f = AbHom(g, h, mat)
        same(f(x), h, [sum(a * b for a, b in zip(row, raws[0])) for row in mat])
        cols = f.columns()
        assert len(cols) == n
        for j, col in enumerate(cols):
            same(col, h, [row[j] for row in mat])
    # the public constructors still count the coordinates
    g = FinAbGroup((0, 4))
    for bad in ((), (1,), (1, 2, 3)):
        with pytest.raises(ValueError, match="expected 2 coordinates"):
            GroupElement(g, bad)
        with pytest.raises(ValueError, match="expected 2 coordinates"):
            g.element(bad)


def test_hom_refuses_a_matrix_of_the_wrong_shape():
    g, h = FinAbGroup((0, 4)), FinAbGroup((2, 0, 0))
    for mat in ([[1, 0], [0, 1]], [[1, 0]] * 4, [[1], [0], [0]], [[1, 0], [0], [0, 0]]):
        with pytest.raises(ValueError, match="shape"):
            AbHom(g, h, mat)
    with pytest.raises(ValueError, match="element not in the source"):
        AbHom.identity(g)(h.zero())
    with pytest.raises(ValueError, match="different groups"):
        g.zero() + FinAbGroup((0, 2)).zero()


def test_element_order():
    g = FinAbGroup((4, 6))
    assert g.element((2, 0)).order() == 2
    assert g.element((1, 1)).order() == 12
    assert g.element((0, 0)).order() == 1
    assert FinAbGroup((0,)).element((5,)).order() == 0


def test_combination_matches_a_loop_of_additions():
    from qwitt.sampling import random_group

    rng = random.Random(13)
    for _ in range(200):
        orders = list(random_group(rng, max_torsion=32).orders) + [0, 12]
        rng.shuffle(orders)
        g = FinAbGroup(orders)
        k = rng.randint(0, 5)
        xs = [random_element(rng, g) for _ in range(k)]
        cs = [rng.randint(-30, 30) for _ in range(k)]
        acc = g.zero()
        for c, x in zip(cs, xs):
            acc = acc + c * x
        assert g.combination(cs, xs) == acc
    g, h = FinAbGroup((0, 4)), FinAbGroup((0, 2))
    with pytest.raises(ValueError, match="different groups"):
        g.combination([1, 1], [g.gen(0), h.gen(0)])
    with pytest.raises(ValueError, match="coefficients"):
        g.combination([1, 2], [g.gen(1)])


def test_hom_well_defined():
    with pytest.raises(ValueError):
        AbHom(FinAbGroup((2,)), Z, [[1]])
    AbHom(FinAbGroup((2,)), FinAbGroup((4,)), [[2]])
    with pytest.raises(ValueError):
        AbHom(FinAbGroup((2,)), FinAbGroup((4,)), [[1]])
    # a target with a free and a finite row: each row is checked by its order
    mixed = FinAbGroup((0, 4))
    AbHom(FinAbGroup((2, 0)), mixed, [[0, 5], [2, 1]])
    with pytest.raises(ValueError):
        AbHom(FinAbGroup((2,)), mixed, [[1], [2]])
    with pytest.raises(ValueError):
        AbHom(FinAbGroup((2,)), mixed, [[0], [1]])


def test_hom_compose_associative():
    rng = random.Random(7)
    groups = [FinAbGroup((2,)), FinAbGroup((4, 2)), FinAbGroup((0, 2)), Z]

    def random_hom(a, b):
        cols = []
        for n in a.orders:
            while True:
                x = b.element(
                    [rng.randint(-3, 3) for _ in range(b.ngens)]
                )
                if n == 0 or (n * x).is_zero:
                    cols.append(x)
                    break
        return AbHom.from_columns(a, b, cols)

    for _ in range(25):
        a, b, c, d = (rng.choice(groups) for _ in range(4))
        f = random_hom(a, b)
        g = random_hom(b, c)
        h = random_hom(c, d)
        lhs = h.compose(g).compose(f)
        rhs = h.compose(g.compose(f))
        assert lhs.matrix == rhs.matrix


def test_cokernel_examples():
    # Z + Z / (2, -1) = Z with projection (a, b) -> a + 2b
    g, proj, _ = quotient_with_lift(
        [FinAbGroup((0, 0)).element((2, -1))], FinAbGroup((0, 0))
    )
    assert g.orders == (0,)
    assert proj.matrix == ((1, 2),)

    # Z + Z3 / (2, 1) = Z6
    amb = FinAbGroup((0, 3))
    g, proj, _ = quotient_with_lift([amb.element((2, 1))], amb)
    assert g.canonical_orders() == (6,)
    assert proj.is_surjective()
    assert proj(amb.element((2, 1))).is_zero

    # Z with no relations
    g, proj, _ = quotient_with_lift([], Z)
    assert g.orders == (0,)
    assert proj.matrix == ((1,),)


def test_kernel_examples():
    # reduction Z -> Z2 has kernel 2Z
    k, incl = kernel(AbHom(Z, Z2, [[1]]))
    assert k.orders == (0,)
    assert incl.matrix in (((2,),), ((-2,),))

    # zero map Z4 -> Z2
    k, incl = kernel(AbHom.zero(FinAbGroup((4,)), Z2))
    assert k.canonical_orders() == (4,)

    # (x, y) -> x mod 2 on Z4 + Z2
    src = FinAbGroup((4, 2))
    k, incl = kernel(AbHom(src, Z2, [[1, 0]]))
    assert k.canonical_orders() == (2, 2)
    f = AbHom(src, Z2, [[1, 0]])
    for g in k.gens():
        assert f(incl(g)).is_zero


def brute_kernel_elements(f):
    return {x.coords for x in f.source.elements() if f(x).is_zero}


def brute_subgroup_elements(ambient, gens):
    seen = {ambient.zero().coords}
    frontier = [ambient.zero()]
    while frontier:
        x = frontier.pop()
        for g in gens:
            for y in (x + g, x - g):
                if y.coords not in seen:
                    seen.add(y.coords)
                    frontier.append(y)
    return seen


def test_kernel_cokernel_vs_enumeration():
    rng = random.Random(11)
    small = [
        FinAbGroup(o)
        for o in [(2,), (4,), (8,), (2, 2), (4, 2), (3,), (6, 2), (4, 4)]
    ]
    for _ in range(40):
        a = rng.choice(small)
        b = rng.choice(small)
        cols = []
        for n in a.orders:
            while True:
                x = b.element([rng.randrange(12) for _ in range(b.ngens)])
                if (n * x).is_zero:
                    cols.append(x)
                    break
        f = AbHom.from_columns(a, b, cols)
        k, incl = kernel(f)
        expect = brute_kernel_elements(f)
        got = brute_subgroup_elements(a, incl.columns())
        assert got == expect
        assert (k.order() or 0) == len(expect)
        assert brute_subgroup_elements(a, kernel_generators(f)) == expect
        assert f.is_injective() == (len(expect) == 1)
        assert is_kernel(f, incl.columns())
        # cokernel order check
        q, proj, _ = quotient_with_lift(f.columns(), b)
        img = brute_subgroup_elements(b, f.columns())
        assert q.order() * len(img) == b.order()
        assert proj.is_surjective()


def test_tensor(monkeypatch):
    from qwitt import _intmat

    assert tensor(FinAbGroup((4,)), FinAbGroup((6,))).orders == (2,)
    assert tensor(Z, FinAbGroup((5, 0))).canonical_orders() == (5, 0)
    assert tensor(FinAbGroup((2,)), FinAbGroup((3,))).is_trivial
    assert tensor(FinAbGroup((0, 4)), FinAbGroup((6,))).orders == (2, 6)
    built = []
    snf = _intmat.SNF

    def counted(mat, keep):
        built.append(mat)
        return snf(mat, keep)

    monkeypatch.setattr(_intmat, "SNF", counted)
    grp, genmap = tensor_with_generators(FinAbGroup((4, 0)), FinAbGroup((6,)))
    assert not built  # the factors gcd(n_i, m_j) are read off, not reduced
    monkeypatch.undo()
    assert grp.orders == (2, 6)  # Z4 (x) Z6, then Z (x) Z6, in pair order
    assert genmap == [[grp.gen(0)], [grp.gen(1)]]
    assert grp.canonical_orders() == (2, 6)
    # generator images generate
    flat = [genmap[i][j] for i in range(2) for j in range(1)]
    assert subgroup(grp, flat)[0].canonical_orders() == grp.canonical_orders()


def _seeded_hom(rng, a, b):
    """A homomorphism a -> b: row m, column n is a random multiple of the
    least entry that n kills modulo m (any entry when n = 0)."""

    def step(n, m):
        if n == 0:
            return 1
        return m // gcd(n, m) if m else 0

    return AbHom(
        a, b, [[rng.randint(-3, 3) * step(n, m) for n in a.orders] for m in b.orders]
    )


def test_tensor_map_respects_identities_and_composition():
    # Z --3--> Z on Z (x) Z4 = Z4, and Z4 ->> Z2 on Z4 (x) Z6 = Z2
    triple = AbHom(Z, Z, [[3]])
    assert tensor_map(triple, AbHom.identity(FinAbGroup((4,)))).matrix == ((3,),)
    halve = AbHom(FinAbGroup((4,)), Z2, [[1]])
    assert tensor_map(halve, AbHom.identity(FinAbGroup((6,)))).matrix == ((1,),)
    groups = [TRIVIAL, Z, Z2, FinAbGroup((4,)), FinAbGroup((2, 6)), FinAbGroup((0, 3))]
    for a in groups:
        for b in groups:
            ab, _ = tensor_with_generators(a, b)
            assert tensor_map(AbHom.identity(a), AbHom.identity(b)) == AbHom.identity(ab)
    rng = random.Random(23)
    for _ in range(80):
        a1, a2, a3, b1, b2, b3 = (rng.choice(groups) for _ in range(6))
        f1, f2 = _seeded_hom(rng, a1, a2), _seeded_hom(rng, a2, a3)
        g1, g2 = _seeded_hom(rng, b1, b2), _seeded_hom(rng, b2, b3)
        assert tensor_map(f2.compose(f1), g2.compose(g1)) == tensor_map(f2, g2).compose(
            tensor_map(f1, g1)
        )


def test_subgroup_membership():
    amb = FinAbGroup((0, 4))
    gens = [amb.element((2, 1))]
    grp, incl = subgroup(amb, gens)
    assert grp.canonical_orders() == (0,)
    assert member_solver(amb, gens)(amb.element((4, 2))) is not None
    assert member_solver(amb, gens)(amb.element((1, 0))) is None
    assert subgroup_equal(
        amb, gens, [amb.element((2, 1)), amb.element((4, 2))]
    )


def test_member_solver_gives_one_coefficient_per_generator():
    zero = TRIVIAL.zero()
    assert member_solver(TRIVIAL, [zero, zero])(zero) == [0, 0]
    assert member_solver(TRIVIAL, [])(zero) == []
    # through AbHom.solver, a map into the trivial group
    z4 = FinAbGroup((4,))
    assert AbHom.zero(z4, TRIVIAL).solve(zero) == z4.zero()
    assert AbHom.zero(TRIVIAL, z4).solve(z4.element((1,))) is None


def test_one_snf_per_matrix(monkeypatch):
    from qwitt import _intmat

    built = []
    snf = _intmat.SNF

    def counted(mat, keep):
        built.append(mat)
        return snf(mat, keep)

    monkeypatch.setattr(_intmat, "SNF", counted)
    g = FinAbGroup((4, 2, 0))
    theta = AbHom(g, g, [[1, 2, 1], [1, 1, 0], [0, 0, 1]])
    inv = theta.inverse()
    assert len(built) == 1  # one SNF answers the three generators of g
    assert theta.compose(inv) == inv.compose(theta) == AbHom.identity(g)
    assert inv != theta
    built.clear()
    AbHom.identity(g).inverse()
    assert len(built) == 1
    built.clear()
    f = AbHom(FinAbGroup((4, 4)), Z2, [[1, 1]])
    assert is_kernel(f, [f.source.element((1, 3)), f.source.element((2, 0))])
    assert len(built) == 2  # the kernel basis, then one for every membership


def test_is_kernel():
    z4 = FinAbGroup((4,))
    f = AbHom(z4, Z2, [[1]])
    assert is_kernel(f, [z4.element((2,))])
    assert is_kernel(f, [z4.element((2,)), z4.element((0,))])
    assert not is_kernel(f, [z4.element((1,))])
    assert not is_kernel(f, [])
    assert is_kernel(AbHom.identity(z4), [])


def test_split_off_hom_summand_examples():
    g4_2 = FinAbGroup((4, 2))
    f = AbHom(g4_2, Z2, [[1, 0]])
    g, comp = split_off_hom_summand(f)
    assert g.coords == (1, 0)
    assert [c.coords for c in comp] == [(0, 1)]

    z2 = FinAbGroup((2,))
    g, comp = split_off_hom_summand(AbHom(z2, Z2, [[1]]))
    assert g.coords == (1,)
    assert comp == []

    g2_4 = FinAbGroup((2, 4))
    f = AbHom(g2_4, Z2, [[1, 1]])
    g, comp = split_off_hom_summand(f)
    assert g.order() == 2 and f(g).coords[0] == 1
    assert g.coords == (1, 0)
    sub, _ = subgroup(g2_4, comp)
    assert sub.order() == 4
    for c in comp:
        assert f(c).is_zero


def test_split_off_hom_summand_rejects_zero_on_torsion():
    g = FinAbGroup((0, 3))
    f = AbHom(g, Z2, [[1, 0]])
    with pytest.raises(ValueError):
        split_off_hom_summand(f)


def test_split_off_free_examples():
    zz = FinAbGroup((0, 0))
    f = AbHom(zz, Z2, [[1, 1]])
    g, comp = split_off_free(f)
    assert g.coords == (1, 0)
    assert [c.coords for c in comp] == [(1, 1)]

    g, comp = split_off_free(AbHom(Z, Z2, [[1]]))
    assert g.coords == (1,)
    assert comp == []

    z3 = FinAbGroup((0, 0, 0))
    f = AbHom(z3, Z2, [[0, 1, 0]])
    g, comp = split_off_free(f)
    assert g.coords == (0, 1, 0)
    assert [c.coords for c in comp] == [(1, 0, 0), (0, 0, 1)]


def test_split_off_free_keeps_the_torsion_in_the_complement():
    # the other free generators, adjusted by g where f is odd, then torsion
    g3 = FinAbGroup((0, 4, 0))
    g, comp = split_off_free(AbHom(g3, Z2, [[1, 0, 1]]))
    assert g.coords == (1, 0, 0)
    assert [c.coords for c in comp] == [(1, 0, 1), (0, 1, 0)]
    g2 = FinAbGroup((2, 0, 0))
    g, comp = split_off_free(AbHom(g2, Z2, [[0, 0, 1]]))
    assert g.coords == (0, 0, 1)
    assert [c.coords for c in comp] == [(0, 1, 0), (1, 0, 0)]


def test_split_off_free_rejects_odd_on_torsion():
    g = FinAbGroup((0, 4))
    with pytest.raises(ValueError, match="torsion"):
        split_off_free(AbHom(g, Z2, [[1, 1]]))
    with pytest.raises(ValueError, match="zero"):
        split_off_free(AbHom(g, Z2, [[0, 0]]))


def test_split_off_cyclic_examples():
    z8 = FinAbGroup((8,))
    h, comp = split_off_cyclic(z8.element((4,)))
    assert h.coords == (1,)
    assert comp == []

    g = FinAbGroup((2, 4))
    h, comp = split_off_cyclic(g.element((1, 0)))
    assert h.coords == (1, 0)
    assert [c.coords for c in comp] == [(0, 1)]

    h, comp = split_off_cyclic(g.element((0, 2)))
    assert h.coords == (0, 1)
    assert [c.coords for c in comp] == [(1, 0)]


def test_split_off_cyclic_rejects_non_prime():
    g = FinAbGroup((8,))
    with pytest.raises(ValueError):
        split_off_cyclic(g.element((2,)))  # order 4
    with pytest.raises(ValueError):
        split_off_cyclic(FinAbGroup((0,)).element((1,)))


def all_canonical_groups_of_order_at_most(n):
    groups = {(): 1}
    out = [FinAbGroup(())]
    seen = {()}

    def rec(prefix, last, remaining):
        for d in range(max(2, last), remaining + 1):
            if last > 1 and d % last:
                continue
            if d > remaining:
                break
            orders = prefix + (d,)
            prod = 1
            for o in orders:
                prod *= o
            if prod > n:
                continue
            if orders not in seen:
                seen.add(orders)
                out.append(FinAbGroup(orders))
            rec(orders, d, n // prod)

    rec((), 1, n)
    return out


def test_kernel_cokernel_enumeration_sweep():
    # every group of order <= 64, two pseudo-random homs each
    rng = random.Random(63)
    groups = all_canonical_groups_of_order_at_most(64)
    assert len(groups) > 30
    targets = [FinAbGroup((2,)), FinAbGroup((4,)), FinAbGroup((6,)), FinAbGroup((8, 2))]
    for g in groups:
        for _ in range(2):
            b = rng.choice(targets)
            cols = []
            for nsrc in g.orders:
                while True:
                    x = b.element([rng.randrange(16) for _ in range(b.ngens)])
                    if (nsrc * x).is_zero:
                        cols.append(x)
                        break
            f = AbHom.from_columns(g, b, cols)
            k, incl = kernel(f)
            expect = brute_kernel_elements(f)
            assert (k.order() or 0) == len(expect)
            assert brute_subgroup_elements(g, incl.columns()) == expect
            assert brute_subgroup_elements(g, kernel_generators(f)) == expect
            assert f.is_injective() == (len(expect) == 1)
            assert is_kernel(f, incl.columns())
            q, proj, _ = quotient_with_lift(f.columns(), b)
            img = brute_subgroup_elements(b, f.columns())
            assert q.order() * len(img) == b.order()


def random_hom_between(rng, a, b):
    """A random homomorphism a -> b: each column is a random element of b
    killed by its generator's order (zero on b's free factors when that
    order is finite)."""
    cols = []
    for n in a.orders:
        while True:
            x = b.element([
                0 if n and m == 0 else rng.randint(-3, 8) for m in b.orders
            ])
            if (n * x).is_zero:
                cols.append(x)
                break
    return AbHom.from_columns(a, b, cols)


def test_is_isomorphism_is_surjective_and_injective():
    # is_isomorphism reads one Smith form (surjective, between isomorphic
    # groups); on every map it must agree with both tests together
    from collections import Counter

    from qwitt.sampling import random_automorphism

    z4 = FinAbGroup((4,))
    homs = [
        AbHom(z4, Z2, [[1]]),  # onto, not injective
        AbHom(Z, Z2, [[1]]),  # onto, not injective
        AbHom(FinAbGroup((0, 2)), Z, [[1, 0]]),  # onto, not injective
        AbHom(Z2, z4, [[2]]),  # injective, not onto
        AbHom(Z, Z, [[2]]),  # injective, not onto, between equal groups
        AbHom(FinAbGroup((2, 3)), FinAbGroup((6,)), [[3, 2]]),
        AbHom(FinAbGroup((0, 2)), FinAbGroup((0, 2)), [[1, 0], [1, 1]]),
        AbHom.zero(TRIVIAL, TRIVIAL),
    ]
    rng = random.Random(64)
    mixed = [Z, FinAbGroup((0, 2)), FinAbGroup((0, 0)), FinAbGroup((4, 0, 2))]
    for a in all_canonical_groups_of_order_at_most(64) + mixed:
        quotient = FinAbGroup(a.canonical_orders()[1:])
        for b in (a, FinAbGroup(a.canonical_orders()), quotient, Z2):
            homs.append(random_hom_between(rng, a, b))
        homs.append(random_automorphism(rng, a))
    kinds = Counter()
    for f in homs:
        onto, into = f.is_surjective(), f.is_injective()
        assert f.is_isomorphism() == (onto and into), f
        kinds[onto, into] += 1
    assert min(kinds[k] for k in product((True, False), repeat=2)) >= 5, kinds


def test_split_random_direct_sums():
    rng = random.Random(13)
    pool = [
        (2,), (4,), (8,), (2, 2), (2, 4), (4, 4), (2, 8), (2, 4, 8),
        (6,), (12, 2), (0, 2), (0, 4, 2),
    ]
    for _ in range(60):
        g = FinAbGroup(rng.choice(pool))
        # random hom to Z2 that is nonzero on torsion
        while True:
            row = [rng.randint(0, 1) for _ in range(g.ngens)]
            f_ok = any(
                r and n % 2 == 0 for r, n in zip(row, g.orders) if n
            )
            if f_ok:
                try:
                    f = AbHom(g, Z2, [row])
                except ValueError:
                    continue
                break
        gg, comp = split_off_hom_summand(f)
        assert f(gg).coords[0] == 1
        for c in comp:
            assert f(c).is_zero


# -- brute-force references for summand splitting ----------------------------


@lru_cache(maxsize=None)
def brute_torsion_elements(group):
    """Every torsion element of the group, enumerated once per group."""
    idx = [i for i, n in enumerate(group.orders) if n]
    out = []
    for x in FinAbGroup([group.orders[i] for i in idx]).elements():
        full = [0] * group.ngens
        for i, c in zip(idx, x.coords):
            full[i] = c
        out.append(group.element(full))
    return tuple(out)


def brute_least_preimage_of_one(f):
    cands = [x for x in brute_torsion_elements(f.source) if f(x).coords[0]]
    return min(cands, key=lambda x: (x.order(), x.coords), default=None)


def brute_dlog(g, order, x):
    return next(s for s in range(order) if s * g == x)


def brute_two_congruences(r, s, a, parity):
    # parity None drops the second congruence
    return next(
        (
            t
            for t in range(2 * a)
            if (r * t - s) % a == 0 and parity in (None, t % 2)
        ),
        None,
    )


def brute_divide_by(group, g, n):
    # n*x = g forces x to be torsion when g is
    sols = [y for y in brute_torsion_elements(group) if n * y == g]
    return min(sols, key=lambda y: y.coords, default=None)


def brute_split_off_hom_summand(group, f):
    g = brute_least_preimage_of_one(f)
    a = g.order()
    quot, _, lifts = quotient_with_lift([g], group)
    comp = []
    for r, z in zip(quot.orders, lifts):
        if r == 0:
            comp.append(z if f(z).coords[0] == 0 else z + g)
        else:
            s = brute_dlog(g, a, r * z)
            comp.append(z - brute_two_congruences(r, s, a, f(z).coords[0]) * g)
    return g, comp


def brute_split_off_cyclic(group, g):
    p, a, h = g.order(), 0, g
    while (cand := brute_divide_by(group, g, p ** (a + 1))) is not None:
        a, h = a + 1, cand
    order_h = p ** (a + 1)
    quot, _, lifts = quotient_with_lift([h], group)
    comp = []
    for r, z in zip(quot.orders, lifts):
        if r:
            m = brute_dlog(h, order_h, r * z)
            gg, t0, _ = _intmat.xgcd(r, order_h)
            z = z - (t0 * (m // gg)) % order_h * h
        comp.append(z)
    return h, comp


SPLIT_POOL = [
    (2,), (4,), (8,), (2, 2), (2, 4), (4, 2), (4, 4), (8, 2), (2, 4, 8),
    (6,), (12, 2), (3, 9), (0, 2), (0, 4, 2), (4, 0, 6), (0, 0, 8),
    (16, 8), (2, 12, 4), (9, 27), (5, 25), (18, 6, 0),
]


def random_element(rng, group):
    return group.element(
        [rng.randrange(n) if n else rng.randint(-3, 3) for n in group.orders]
    )


def test_split_lemmas_match_brute_force_references():
    rng = random.Random(2024)
    for _ in range(300):
        g = FinAbGroup(rng.choice(SPLIT_POOL))
        row = [rng.randint(0, 1) if n % 2 == 0 else 0 for n in g.orders]
        f = AbHom(g, Z2, [row])
        ref = brute_least_preimage_of_one(f)
        assert least_preimage_of_one(f) == ref
        if ref is not None:
            assert split_off_hom_summand(f) == brute_split_off_hom_summand(g, f)

        x = random_element(rng, g)
        m = x.order()
        if m > 1:
            p = min(d for d in range(2, m + 1) if m % d == 0)
            y = (m // p) * x
            assert split_off_cyclic(y) == brute_split_off_cyclic(g, y)
        tors = g.element([c if n else 0 for c, n in zip(x.coords, g.orders)])
        for n in (2, 3, 4, 6, 8, 9):
            for t in (tors, n * tors):
                assert _divide_by(t, n) == brute_divide_by(g, t, n)


def test_solve_two_congruences_matches_range_2a():
    rng = random.Random(5)
    for _ in range(20000):
        a = rng.choice([1, 2, 4, 8, 16, 32, 64, 3, 6, 12, 40])
        r, s = rng.randrange(1, 2 * a + 1), rng.randrange(a)
        parity = rng.choice([0, 1, None])
        ref = brute_two_congruences(r, s, a, parity)
        if ref is None:
            with pytest.raises(AssertionError):
                _solve_two_congruences(r, s, a, parity)
        elif parity is None:
            # the cyclic lemma's rule u*(s/d) mod a: some solution in [0, a)
            t = _solve_two_congruences(r, s, a, parity)
            assert 0 <= t < a and (r * t - s) % a == 0
        else:
            assert _solve_two_congruences(r, s, a, parity) == ref


def test_split_off_at_high_level():
    # a 2^70 factor is never enumerated
    g = FinAbGroup((0, 2**70, 4))
    f = AbHom(g, Z2, [[0, 1, 0]])
    h, comp = split_off_hom_summand(f)
    assert h.coords == (0, 1, 0) and h.order() == 2**70
    x = g.element((0, 2**69, 0))
    h, comp = split_off_cyclic(x)
    assert h.coords == (0, 1, 0)
    assert _divide_by(x, 2**69) == h


def split_off_cyclic_by_powers(g):
    """Reference for `split_off_cyclic`: g divided by p, p^2, ... for as
    long as it divides, one `_divide_by` per power."""
    p = g.order()
    h, q = g, p
    while (cand := _divide_by(g, q)) is not None:
        h, q = cand, q * p
    return h, _complement(h, lambda z: None)


def test_split_off_cyclic_matches_division_by_each_power():
    """One division by p^a, a read off the gcd of the coordinates, against
    the loop over the powers of p: on elements of order 2 of each standard
    parameter's carrier (a 2-group, Z or Z + Z: p(1), each (n_i / 2) e_i
    and their sum), and on p(1) of seeded random anti-symmetric
    parameters."""
    from qwitt.formparam import _FAMILIES, _FIXED_KINDS, standard
    from qwitt.sampling import random_form_parameter

    params = [standard(kind) for kind in _FIXED_KINDS]
    params += [standard(kind, k) for kind, least in _FAMILIES.items() for k in range(least, least + 12)]
    checked = 0
    for q in params:
        g = q.carrier
        halves = [g.element([n // 2 if j == i else 0 for j in range(g.ngens)]) for i, n in enumerate(g.orders) if n]
        for x in [q.p_one] + halves + [sum(halves, g.zero())]:
            if x.order() == 2:
                assert split_off_cyclic(x) == split_off_cyclic_by_powers(x), (q, x)
                checked += 1
    rng = random.Random(4041)
    for _ in range(200):
        q = random_form_parameter(rng, symmetric=False, max_torsion=64)
        if not q.p_one.is_zero:
            assert split_off_cyclic(q.p_one) == split_off_cyclic_by_powers(q.p_one), q
            checked += 1
    assert checked > 150, checked


def test_split_off_cyclic_at_a_high_two_adic_exponent():
    # ZL_20000: p(1) = 2^19999 in Z/2^20000 is 2^19999 times a generator;
    # the loop over the powers of 2 took 12.3 s of CPU for this splitting
    # (2-core x86 VM, Python 3.11)
    import time

    from qwitt.formparam import maximal_splitting, standard

    q = standard("ZL_k", 20000)
    start = time.process_time()
    ms = maximal_splitting(q)
    assert time.process_time() - start < 1
    assert (ms.standard_kind, ms.k) == ("ZL_k", 20000)
