import random
import re
from itertools import product
from math import inf

import pytest

from qwitt.abelian import TRIVIAL, Z, AbHom, FinAbGroup, subgroup, subgroup_equal
from qwitt.formparam import (
    _recognise_standard,
    CosliceHom,
    FormParameter,
    FPMorphism,
    SliceHom,
    aut_generators,
    classify,
    eql,
    es,
    height_of,
    linearisation,
    maximal_splitting,
    morphism_from_slice,
    quasi_wu,
    S_of,
    split_sum,
    standard,
    standard_morphism,
    standard_name,
)
from qwitt.sampling import random_automorphism, random_group


ALL_STANDARD = (
    [standard(n) for n in ("Q+", "Q^+", "Q-", "Q^-", "ZP")]
    + [standard("ZP_k", k) for k in (1, 2, 3)]
    + [standard("ZL_k", k) for k in (2, 3)]
)


def test_standard_parameters():
    qp = standard("Q+")
    assert qp.carrier == Z and qp.h.matrix == ((2,),)
    assert qp.p_one.coords == (1,)
    assert qp.symmetry == 1

    zl3 = standard("ZL_3")
    assert zl3.carrier.orders == (8,)
    assert zl3.h.is_zero()
    assert zl3.p_one.coords == (4,)
    assert zl3.symmetry == -1

    qm = standard("Q^-")
    assert qm.carrier.is_trivial and qm.symmetry == -1

    zpk = standard("ZP_k", 2)
    assert zpk.carrier.orders == (0, 4)
    assert zpk.p_one.coords == (2, 3)


def test_one_object_per_standard_parameter():
    # the name with and without its default level, and a composite name
    # against its family and level, give the one interned parameter
    assert standard("Q+") is standard("Q+", None)
    assert standard("ZP_2") is standard("ZP_k", 2)
    assert standard("ZL_3") is standard("ZL_k", 3)
    g = FinAbGroup((0,))
    assert FormParameter(g, AbHom(g, Z, [[2]]), g.element((1,))) is standard("Q+")
    assert split_sum(standard("Q-"), TRIVIAL) is standard("Q-")


def test_invalid_parameters_rejected():
    with pytest.raises(ValueError):
        # h(p(1)) = 1 is not allowed
        FormParameter(Z, AbHom(Z, Z, [[1]]), Z.element((1,)))
    with pytest.raises(ValueError):
        # anti-symmetric with h != 0
        g = FinAbGroup((0,))
        FormParameter(g, AbHom(g, Z, [[1]]), g.zero())
    with pytest.raises(ValueError):
        standard("ZL_k", 1)
    with pytest.raises(ValueError):
        standard("ZP_k", 0)


def test_levels_are_checked_by_every_reader():
    # standard and height_of read one table, with one set of level checks
    cases = [
        ("ZL_k", 1, "ZL_k requires k >= 2"),
        ("ZL_k", None, "ZL_k requires k >= 2"),
        ("ZP_k", None, "ZP_k requires k >= 1"),
        ("ZP_k", 0, "ZP_k requires k >= 1"),
        ("x", 3, "unknown standard parameter 'x'"),
        ("x", None, "unknown standard parameter 'x'"),
        ("ZP", 3, "ZP takes no level"),
        ("Q+", 5, "Q\\+ takes no level"),
    ]
    for kind, k, message in cases:
        with pytest.raises(ValueError, match=message):
            height_of(kind, k)
        with pytest.raises(ValueError, match=message):
            standard(kind, k)


# (kind, level): carrier orders, h row, p(1), symmetry, height
STANDARD_DATA = {
    ("Q+", None): ((0,), (2,), (1,), 1, 0),
    ("Q^+", None): ((0,), (1,), (2,), 1, 1),
    ("Q-", None): ((2,), (0,), (1,), -1, 1),
    ("Q^-", None): ((), (), (), -1, 0),
    ("ZP", None): ((0, 0), (1, 0), (2, -1), 1, inf),
    ("ZP_k", 1): ((0, 2), (1, 0), (2, 1), 1, 2),
    ("ZP_k", 2): ((0, 4), (1, 0), (2, 3), 1, 3),
    ("ZP_k", 3): ((0, 8), (1, 0), (2, 7), 1, 4),
    ("ZP_k", 4): ((0, 16), (1, 0), (2, 15), 1, 5),
    ("ZL_k", 2): ((4,), (0,), (2,), -1, 2),
    ("ZL_k", 3): ((8,), (0,), (4,), -1, 3),
    ("ZL_k", 4): ((16,), (0,), (8,), -1, 4),
}

# (kind, level): the matrices of aut_generators, in order
AUT_MATRICES = {
    ("ZP", None): [((1, 0), (-1, -1))],
    ("ZP_k", 1): [((1, 0), (1, 1))],
    ("ZP_k", 2): [((1, 0), (3, 3)), ((1, 0), (1, 3))],
    ("ZP_k", 3): [((1, 0), (7, 7)), ((1, 0), (1, 3))],
    ("ZP_k", 4): [((1, 0), (15, 15)), ((1, 0), (1, 3))],
    ("ZP_k", 70): [((1, 0), (2**70 - 1, 2**70 - 1)), ((1, 0), (1, 3))],
    ("ZL_k", 2): [((3,),)],
    ("ZL_k", 3): [((7,),), ((3,),)],
    ("ZL_k", 4): [((15,),), ((3,),)],
}

# (source, target): carrier matrix of standard_morphism(source, target)
STANDARD_MORPHISMS = {
    ("Q+", "Q+"): ((1,),),
    ("Q+", "Q^+"): ((2,),),
    ("Q+", "ZP"): ((2,), (-1,)),
    ("Q+", "ZP_1"): ((2,), (1,)),
    ("Q+", "ZP_2"): ((2,), (3,)),
    ("Q+", "ZP_3"): ((2,), (7,)),
    ("Q-", "Q-"): ((1,),),
    ("Q-", "Q^-"): (),
    ("Q-", "ZL_2"): ((2,),),
    ("Q-", "ZL_3"): ((4,),),
    ("Q-", "ZL_4"): ((8,),),
    ("Q^-", "Q^-"): (),
    ("ZP", "Q^+"): ((1, 0),),
    ("ZP", "ZP"): ((1, 0), (0, 1)),
    ("ZP", "ZP_1"): ((1, 0), (0, 1)),
    ("ZP", "ZP_2"): ((1, 0), (0, 1)),
    ("ZP", "ZP_3"): ((1, 0), (0, 1)),
    ("ZP_1", "Q^+"): ((1, 0),),
    ("ZP_1", "ZP_1"): ((1, 0), (0, 1)),
    ("ZP_2", "Q^+"): ((1, 0),),
    ("ZP_2", "ZP_1"): ((1, 0), (0, 1)),
    ("ZP_2", "ZP_2"): ((1, 0), (0, 1)),
    ("ZP_3", "Q^+"): ((1, 0),),
    ("ZP_3", "ZP_1"): ((1, 0), (0, 1)),
    ("ZP_3", "ZP_2"): ((1, 0), (0, 1)),
    ("ZP_3", "ZP_3"): ((1, 0), (0, 1)),
    ("ZL_2", "Q^-"): (),
    ("ZL_2", "ZL_2"): ((1,),),
    ("ZL_2", "ZL_3"): ((2,),),
    ("ZL_2", "ZL_4"): ((4,),),
    ("ZL_3", "Q^-"): (),
    ("ZL_3", "ZL_3"): ((1,),),
    ("ZL_3", "ZL_4"): ((2,),),
    ("ZL_4", "Q^-"): (),
    ("ZL_4", "ZL_4"): ((1,),),
    ("Q^+", "Q^+"): ((1,),),
}

# (source, target) with no standard morphism: the symmetric and the
# antisymmetric parameters are not joined by any morphism
NO_STANDARD_MORPHISM = [
    *(("Q-", dst) for dst in ("Q+", "Q^+", "ZP", "ZP_1", "ZP_2", "ZP_3")),
    *((src, "Q^-") for src in ("Q^+", "ZP", "ZP_1", "ZP_2", "ZP_3")),
    ("Q+", "Q-"),
]

# (source, target, n): carrier matrix [[1, 0], [n, 2n + 1]], reduced
ZP_FAMILY_MORPHISMS = {
    ("ZP", "ZP", -1): ((1, 0), (-1, -1)),
    ("ZP", "ZP", 2): ((1, 0), (2, 5)),
    ("ZP", "ZP_1", -1): ((1, 0), (1, 1)),
    ("ZP", "ZP_1", 2): ((1, 0), (0, 1)),
    ("ZP", "ZP_2", -1): ((1, 0), (3, 3)),
    ("ZP", "ZP_2", 2): ((1, 0), (2, 1)),
    ("ZP_3", "ZP_2", -1): ((1, 0), (3, 3)),
    ("ZP_3", "ZP_3", 2): ((1, 0), (2, 5)),
}


def test_standard_kinds_reference():
    for (kind, k), (orders, hrow, p1, sym, ht) in STANDARD_DATA.items():
        q = standard(kind, k)
        name = standard_name(kind, k)
        assert standard(name) == q
        assert q.carrier.orders == orders
        assert q.h.matrix == (hrow,)
        assert q.p_one == q.carrier.element(p1)
        assert q.symmetry == sym
        assert height_of(kind, k) == ht
        assert [a.map.matrix for a in aut_generators(q)] == AUT_MATRICES.get((kind, k), [])
    assert standard("ZP_k", 70).carrier.orders == (0, 2**70)
    assert [a.map.matrix for a in aut_generators(standard("ZP_k", 70))] == AUT_MATRICES[("ZP_k", 70)]
    assert [standard_name("ZP_k", 2), standard_name("ZL_k", 3), standard_name("Q^+", None)] == [
        "ZP_2",
        "ZL_3",
        "Q^+",
    ]


def test_standard_morphisms_reference():
    for (src, dst), matrix in STANDARD_MORPHISMS.items():
        m = standard_morphism(src, dst)
        assert (m.source, m.target, m.map.matrix) == (standard(src), standard(dst), matrix)
    for (src, dst, n), matrix in ZP_FAMILY_MORPHISMS.items():
        assert standard_morphism(src, dst, n).map.matrix == matrix
    for src, dst in NO_STANDARD_MORPHISM:
        with pytest.raises(ValueError, match=f"no standard morphism {re.escape(src)} -> {re.escape(dst)}"):
            standard_morphism(src, dst)
    with pytest.raises(ValueError, match="no morphisms ZL_k -> ZL_l with l < k"):
        standard_morphism("ZL_3", "ZL_2")


def test_standard_morphisms_join_the_named_parameters():
    names = ["Q+", "Q^+", "Q-", "Q^-", "ZP", "ZP_1", "ZP_2", "ZP_3", "ZL_2", "ZL_3", "ZL_4"]
    for src, dst, n in product(names, names, (-1, 0, 2)):
        try:
            m = standard_morphism(src, dst, n)
        except ValueError:
            continue
        assert (m.source, m.target) == (standard(src), standard(dst)), (src, dst, n)


def test_recognise_standard_reads_the_splitting():
    for kind, k in STANDARD_DATA:
        assert _recognise_standard(standard(kind, k)) == (kind, k)
    zp2 = standard("ZP_2")
    theta = random_automorphism(random.Random(1), zp2.carrier)
    scrambled = FormParameter(zp2.carrier, zp2.h.compose(theta.inverse()), theta(zp2.p_one))
    assert scrambled != zp2
    for q in (split_sum(zp2, FinAbGroup((3,))), scrambled):
        with pytest.raises(ValueError, match="not a standard indecomposable parameter"):
            _recognise_standard(q)


def test_split_sum():
    p = split_sum(standard("Q-"), FinAbGroup((4,)))
    assert p.carrier.orders == (2, 4)
    assert p.h.is_zero()
    assert p.p_one.coords == (1, 0)

    assert split_sum(standard("Q^+"), TRIVIAL) == standard("Q^+")

    p = split_sum(standard("ZP_k", 1), FinAbGroup((3,)))
    assert p.carrier.orders == (0, 2, 3)


def test_linearisation():
    sq, proj, _ = linearisation(standard("ZP"))
    assert sq.orders == (0,)
    assert proj.matrix == ((1, 2),)

    sq, _, _ = linearisation(standard("Q+"))
    assert sq.is_trivial

    for k in (1, 2, 3):
        sq, _, _ = linearisation(standard("ZP_k", k))
        assert sq.canonical_orders() == (2 ** (k + 1),)

    assert linearisation(standard("Q^+"))[0].orders == (2,)
    assert linearisation(standard("Q-"))[0].is_trivial
    assert linearisation(standard("ZL_k", 3))[0].canonical_orders() == (4,)

    # the section: lifts[i] projects onto the i-th generator of SQ
    from qwitt.sampling import random_form_parameter

    rng = random.Random(16)
    for q in ALL_STANDARD + [random_form_parameter(rng) for _ in range(50)]:
        sq, proj, lifts = linearisation(q)
        assert isinstance(lifts, tuple) and len(lifts) == sq.ngens
        assert all(proj(x) == sq.gen(i) for i, x in enumerate(lifts))


def test_quasi_wu_of_standards():
    v = quasi_wu(standard("ZP_k", 2))
    assert isinstance(v, SliceHom)
    assert v.domain.canonical_orders() == (8,)
    assert v(v.domain.gen(0)) == 1

    v = quasi_wu(standard("ZL_k", 2))
    assert isinstance(v, CosliceHom)
    assert v.codomain.orders == (4,)
    assert v.v_one.coords == (2,)

    v = quasi_wu(standard("Q^-"))
    assert isinstance(v, CosliceHom) and v.is_zero

    v = quasi_wu(standard("Q+"))
    assert isinstance(v, SliceHom) and v.domain.is_trivial

    v = quasi_wu(standard("ZP"))
    assert v.domain.orders == (0,) and v(v.domain.gen(0)) == 1


def test_wu_pullback_square():
    # (h, pi): Q_e -> {(z, y) : z = v(y) mod 2} is an isomorphism
    for q in ALL_STANDARD:
        if not q.is_symmetric:
            continue
        sq, proj, _ = linearisation(q)
        v = quasi_wu(q)
        amb = FinAbGroup((0,) + sq.orders)
        pairs = [
            amb.element((q.h_of(g),) + proj(g).coords)
            for g in q.carrier.gens()
        ]
        fib_gens = [amb.element((2,) + (0,) * sq.ngens)]
        for i, gen in enumerate(sq.gens()):
            coords = [v(gen)] + [0] * sq.ngens
            coords[1 + i] = 1
            fib_gens.append(amb.element(coords))
        assert subgroup_equal(amb, pairs, fib_gens)


def test_maximal_splitting_examples():
    g = FinAbGroup((0, 3))
    p = FormParameter(g, AbHom(g, Z, [[1, 0]]), g.element((2, 1)))
    ms = maximal_splitting(p)
    assert ms.standard_kind == "Q^+"
    assert ms.complement.canonical_orders() == (3,)
    assert ms.iso.is_isomorphism()

    g8 = FinAbGroup((8,))
    p = FormParameter(g8, AbHom.zero(g8, Z), g8.element((4,)))
    ms = maximal_splitting(p)
    assert ms.standard_kind == "ZL_k" and ms.k == 3
    assert ms.complement.is_trivial

    p = split_sum(standard("ZP_k", 1), FinAbGroup((3,)))
    ms = maximal_splitting(p)
    assert (ms.standard_kind, ms.k) == ("ZP_k", 1)
    assert ms.complement.canonical_orders() == (3,)


def test_classify_examples():
    assert classify(standard("ZP_k", 2)) == classify(standard("ZP_2"))
    c = classify(standard("ZP_2"))
    assert (c.symmetry, c.height, c.complement) == (1, 3, ())

    c = classify(split_sum(standard("Q-"), FinAbGroup((5,))))
    assert (c.symmetry, c.height, c.complement) == (-1, 1, (5,))

    c = classify(standard("Q^-"))
    assert (c.symmetry, c.height, c.complement) == (-1, 0, ())

    assert classify(standard("ZP")).height == inf
    # high levels are split by coordinate arithmetic, not by enumeration
    c = classify(standard("ZP_k", 40))
    assert (c.symmetry, c.height, c.complement) == (1, 41, ())


def test_classification_complete_on_standards():
    # distinct standards are pairwise non-isomorphic
    cls = [classify(q) for q in ALL_STANDARD]
    assert len(set(cls)) == len(cls)


def all_canonical_groups(n):
    out = [()]

    def rec(prefix, last):
        for d in range(max(2, last), n + 1):
            if last > 1 and d % last:
                continue
            prod = d
            for o in prefix:
                prod *= o
            if prod > n:
                continue
            out.append(prefix + (d,))
            rec(prefix + (d,), d)

    rec((), 1)
    return [FinAbGroup(o) for o in out]


def all_antisymmetric_parameters(lo, hi):
    """Every anti-symmetric parameter with carrier order in [lo, hi]:
    any finite group with any p(1) of order dividing 2 (h must vanish)."""
    ps = []
    for g in all_canonical_groups(hi):
        if (g.order() or 1) < lo:
            continue
        seen = set()
        for x in g.elements():
            if (2 * x).is_zero and x.coords not in seen:
                seen.add(x.coords)
                ps.append(FormParameter(g, AbHom.zero(g, Z), x))
    return ps


def walk_span_size(group, gens):
    """Order of the subgroup of a finite group that gens span, by a walk over
    coordinate tuples added mod the cyclic orders: the reference for
    span_size."""
    orders = group.orders
    steps = [g.coords for g in gens]
    zero = (0,) * len(orders)
    seen = {zero}
    frontier = [zero]
    while frontier:
        x = frontier.pop()
        for s in steps:
            y = tuple((a + b) % n for a, b, n in zip(x, s, orders))
            if y not in seen:
                seen.add(y)
                frontier.append(y)
    return len(seen)


def _add(x, y, orders):
    return tuple((a + b) % n for a, b, n in zip(x, y, orders))


def coset_count(span, x, orders):
    """The least m >= 1 with m x in span: the span of span and x is the
    union of the m cosets span + k x, 0 <= k < m."""
    m, kx = 1, x
    while kx not in span:
        m, kx = m + 1, _add(kx, x, orders)
    return m


def extend_span(span, x, orders):
    """The span of a subgroup `span` (a set of coordinate tuples) and x."""
    cosets = [span]
    for _ in range(1, coset_count(span, x, orders)):
        cosets.append({_add(s, x, orders) for s in cosets[-1]})
    return set().union(*cosets)


def span_size(group, gens):
    """Order of the subgroup of a finite group that gens span, extended one
    generator at a time by cosets."""
    span = {(0,) * group.ngens}
    for g in gens:
        span = extend_span(span, g.coords, group.orders)
    return len(span)


def test_span_size_matches_the_walk():
    # every carrier of order <= 16, every one or two generators: the span
    # and the coset count that brute_force_isomorphic prunes by
    for g in all_canonical_groups(16):
        elems = list(g.elements())
        zero = {(0,) * g.ngens}
        assert span_size(g, []) == walk_span_size(g, []) == 1
        for x in elems:
            span = extend_span(zero, x.coords, g.orders)
            assert len(span) == coset_count(zero, x.coords, g.orders)
            assert len(span) == span_size(g, [x]) == walk_span_size(g, [x]) == x.order()
            for y in elems:
                size = walk_span_size(g, [x, y])
                assert len(span) * coset_count(span, y.coords, g.orders) == size, (g, x, y)
                assert len(extend_span(span, y.coords, g.orders)) == size
                assert span_size(g, [x, y]) == size
        assert span_size(g, elems) == walk_span_size(g, g.gens()) == g.order()


def brute_force_isomorphic(p1, p2):
    """Exhaustive search for a carrier isomorphism carrying p(1) to p(1).

    Depth-first over generator images, pruned by element orders, by
    partial span sizes, and by the p(1) constraint as soon as its support
    is assigned.  The pruning discards only assignments that cannot extend
    to an isomorphism, so a False answer is a proof of non-isomorphism.
    """
    c1, c2 = p1.carrier, p2.carrier
    if c1.order() != c2.order() or p1.p_one.order() != p2.p_one.order():
        return False
    n = c1.ngens
    if n == 0:
        return True
    order_idx = sorted(range(n), key=lambda j: (p1.p_one.coords[j] == 0, j))
    support_end = sum(1 for j in range(n) if p1.p_one.coords[j])
    if support_end == 0 and not p2.p_one.is_zero:
        return False
    elems = list(c2.elements())
    partial_sizes = [
        span_size(c1, [c1.gen(order_idx[t]) for t in range(d + 1)])
        for d in range(n)
    ]
    images = [None] * n
    # spans[d] is the span of images[:d]; the span of images[:d + 1] has
    # coset_count(spans[d], x) times as many elements
    spans = [{(0,) * c2.ngens}] + [None] * n

    def rec(d):
        if d == n:
            cols = [images[order_idx.index(j)] for j in range(n)]
            hom = AbHom.from_columns(c1, c2, cols)
            return hom(p1.p_one) == p2.p_one and hom.is_isomorphism()
        nj = c1.orders[order_idx[d]]
        for x in elems:
            if x.order() == 0 or nj % x.order():
                continue
            images[d] = x
            size = len(spans[d]) * coset_count(spans[d], x.coords, c2.orders)
            if size != partial_sizes[d]:
                continue
            if d + 1 == support_end:
                acc = c2.zero()
                for t in range(d + 1):
                    acc = acc + p1.p_one.coords[order_idx[t]] * images[t]
                if acc != p2.p_one:
                    continue
            spans[d + 1] = extend_span(spans[d], x.coords, c2.orders)
            if rec(d + 1):
                return True
        images[d] = None
        return False

    return rec(0)


def test_classify_vs_brute_force_sweep():
    # all finite-carrier parameters of order <= 16, every same-order pair
    params = all_antisymmetric_parameters(1, 16)
    pairs = 0
    for i, p1 in enumerate(params):
        for p2 in params[i:]:
            if p1.carrier.order() != p2.carrier.order():
                continue
            pairs += 1
            assert (classify(p1) == classify(p2)) == brute_force_isomorphic(p1, p2)
    assert pairs > 500


def test_classify_vs_brute_force_sampled_to_32():
    rng = random.Random(5)
    big = all_antisymmetric_parameters(17, 32)
    sampled = 0
    while sampled < 10:
        p1, p2 = rng.choice(big), rng.choice(big)
        if p1.carrier.order() != p2.carrier.order():
            continue
        sampled += 1
        assert (classify(p1) == classify(p2)) == brute_force_isomorphic(p1, p2)


def test_morphism_validation_and_example():
    # the non-splittable example: ZP -> Q^+ + Z3
    src = standard("ZP")
    dst = split_sum(standard("Q^+"), FinAbGroup((3,)))
    alpha = FPMorphism(
        src, dst, AbHom(src.carrier, dst.carrier, [[1, 0], [1, 2]])
    )
    s = S_of(alpha)
    assert s.source.orders == (0,)

    with pytest.raises(ValueError):
        FPMorphism(
            src, dst, AbHom(src.carrier, dst.carrier, [[1, 1], [1, 2]])
        )

    # ZL_2 -> ZL_3 + Z2, [a] -> ([2a], [a])
    src = standard("ZL_2")
    dst = split_sum(standard("ZL_3"), FinAbGroup((2,)))
    FPMorphism(src, dst, AbHom(src.carrier, dst.carrier, [[2], [1]]))


def test_morphism_from_slice():
    # odd multiplications on S(ZP) lift to the matrices [[1, 0], [n, 2n+1]]
    zp = standard("ZP")
    szp, _, _ = linearisation(zp)
    for n in (-2, -1, 0, 1, 2):
        f = AbHom(szp, szp, [[2 * n + 1]])
        alpha = morphism_from_slice(zp, zp, f)
        assert alpha.map.matrix == ((1, 0), (n, 2 * n + 1))
        assert S_of(alpha).matrix == f.matrix

    # identity on v_{Q^+}
    qp = standard("Q^+")
    sq, _, _ = linearisation(qp)
    alpha = morphism_from_slice(qp, qp, AbHom.identity(sq))
    assert alpha.map.matrix == ((1,),)

    # the slice map of the standard surjection ZP_2 -> ZP_1 lifts back to it
    zp2, zp1 = standard("ZP_2"), standard("ZP_1")
    std = standard_morphism("ZP_2", "ZP_1", 0)
    f = S_of(std)
    alpha = morphism_from_slice(zp2, zp1, f)
    assert alpha.map.matrix == std.map.matrix
    # and any slice morphism lifts uniquely: S o lift = id on slice maps
    s2, _, _ = linearisation(zp2)
    s1, _, _ = linearisation(zp1)
    for c in (1, 3, 5, 7):
        g = AbHom(s2, s1, [[c]])
        try:
            lifted = morphism_from_slice(zp2, zp1, g)
        except ValueError:
            continue
        assert S_of(lifted).matrix == g.matrix


def pullback_lift(p, q, f):
    """The carrier map of the lift of f, generator by generator: the
    element over f(pi(x)) read off Q's lifts, moved by p(1) * d / 2 to the
    value h(x), d being the difference of the h values."""
    _, proj_p, _ = linearisation(p)
    _, _, lifts = linearisation(q)
    cols = []
    for gen in p.carrier.gens():
        u = q.carrier.combination(f(proj_p(gen)).coords, lifts)
        d = p.h_of(gen) - q.h_of(u)
        assert d % 2 == 0
        cols.append(u + q.p(d // 2))
    return AbHom.from_columns(p.carrier, q.carrier, cols)


def random_slice_maps(rng, p, q):
    """A random f: SP -> SQ with v_Q o f = v_P, and a copy of f with one
    column of the wrong quasi-Wu value, each None when a column finds no
    element in 50 draws."""
    sp, sq = linearisation(p)[0], linearisation(q)[0]
    vp, vq = quasi_wu(p), quasi_wu(q)
    good, bad = [], []
    for gen, n in zip(sp.gens(), sp.orders):
        draws = [
            sq.element([0 if n and m == 0 else rng.randint(-4, 4) for m in sq.orders])
            for _ in range(50)
        ]
        fits = [y for y in draws if (n * y).is_zero]
        good.append(next((y for y in fits if vq(y) == vp(gen)), None))
        bad.append(next((y for y in fits if vq(y) != vp(gen)), None))
    if None in good:
        return None, None
    f = AbHom.from_columns(sp, sq, good)
    j = next((j for j, y in enumerate(bad) if y is not None), None)
    if j is None:
        return f, None
    return f, AbHom.from_columns(sp, sq, good[:j] + [bad[j]] + good[j + 1:])


def test_morphism_from_slice_matches_the_pullback_rule():
    # the lift is one integer product corrected by p(1); on scrambled
    # symmetric parameters it is the per-generator pullback, S of it is f,
    # and a map that breaks v_Q o f = v_P is refused
    from qwitt.sampling import random_form_parameter

    rng = random.Random(53)
    params = [
        random_form_parameter(rng, symmetric=True, max_torsion=8, max_free=2)
        for _ in range(30)
    ]
    lifted = refused = 0
    for p in params:
        ms = maximal_splitting(p)
        pairs = [
            (p, ms.split_parameter, S_of(ms.iso)),
            (ms.split_parameter, p, S_of(ms.inverse)),
        ]
        for q in (p, ms.split_parameter, rng.choice(params)):
            pairs.append((p, q) + random_slice_maps(rng, p, q)[:1])
            _, bad = random_slice_maps(rng, p, q)
            if bad is not None:
                with pytest.raises(ValueError, match="quasi-Wu"):
                    morphism_from_slice(p, q, bad)
                refused += 1
        for src, dst, f in pairs:
            if f is None:
                continue
            alpha = morphism_from_slice(src, dst, f)
            assert alpha.map == pullback_lift(src, dst, f)
            assert S_of(alpha) == f
            lifted += 1
    assert lifted >= 120 and refused >= 40, (lifted, refused)


def test_S_of_functorial_on_quasi_wu():
    rng = random.Random(23)
    zp = standard("ZP")
    for n in (-2, 0, 3):
        alpha = standard_morphism("ZP", "ZP_2", n)
        sa = S_of(alpha)
        v_src = quasi_wu(alpha.source)
        v_dst = quasi_wu(alpha.target)
        for g in v_src.domain.gens():
            assert v_dst(sa(g)) == v_src(g)

    beta = standard_morphism("Q-", "ZL_3")
    assert beta(quasi_wu(beta.source).v_one) == quasi_wu(beta.target).v_one


def test_quasi_wu_functorial_on_random_morphisms():
    from qwitt.sampling import random_morphism

    rng = random.Random(29)
    for _ in range(20):
        alpha = random_morphism(rng)
        if alpha.source.is_symmetric:
            sa = S_of(alpha)
            v1, v2 = quasi_wu(alpha.source), quasi_wu(alpha.target)
            for g in v1.domain.gens():
                assert v2(sa(g)) == v1(g)
        else:
            v1, v2 = quasi_wu(alpha.source), quasi_wu(alpha.target)
            assert alpha(v1.v_one) == v2.v_one


def test_wu_pullback_square_random_parameters():
    from qwitt.abelian import subgroup_equal as sub_eq
    from qwitt.sampling import random_form_parameter

    rng = random.Random(37)
    for _ in range(15):
        q = random_form_parameter(rng, symmetric=True, max_torsion=8, max_free=1)
        sq, proj, _ = linearisation(q)
        v = quasi_wu(q)
        amb = FinAbGroup((0,) + sq.orders)
        pairs = [
            amb.element((q.h_of(g),) + proj(g).coords)
            for g in q.carrier.gens()
        ]
        fib = [amb.element((2,) + (0,) * sq.ngens)]
        for i, gen in enumerate(sq.gens()):
            coords = [v(gen)] + [0] * sq.ngens
            coords[1 + i] = 1
            fib.append(amb.element(coords))
        assert sub_eq(amb, pairs, fib)


def test_es():
    zp = standard("ZP")
    m = es(zp)
    assert m.map.matrix == ((1, 0), (1, 2))

    qplus = standard("Q+")
    m = es(qplus)
    assert m.map.matrix == ((2,),)

    m = es(standard("Q^+"))
    assert m.map.matrix == ((1,), (1,))
    with pytest.raises(ValueError):
        es(standard("Q-"))


def test_eql():
    m = eql(standard("Q-"))
    assert m.map.matrix == ((1, 1),)

    m = eql(standard("ZL_2"))
    assert m.map.matrix == ((2, 1),)

    m = eql(standard("Q^-"))
    assert m.map.source.orders == (2,)
    assert m.map.target.is_trivial
    with pytest.raises(ValueError):
        eql(standard("Q+"))


def test_es_eql_natural():
    # (Id + S(alpha)) o es_P = es_P' o alpha, and dually for eql
    for name1, name2, n in [("ZP", "ZP_2", 1), ("ZP_3", "ZP_2", -1)]:
        alpha = standard_morphism(name1, name2, n)
        lhs_map = None
        e1, e2 = es(alpha.source), es(alpha.target)
        sa = S_of(alpha)
        for g in alpha.source.carrier.gens():
            left = e2(alpha(g))
            img = e1(g)
            # apply Id + S(alpha) on (Z, SP) coordinates
            z = img.coords[0]
            rest = img.group.element(img.coords)
            sp_part = sa(sa.source.element(img.coords[1:]))
            right = e2.target.carrier.element((z,) + sp_part.coords)
            assert left == right

    for name1, name2 in [("Q-", "ZL_2"), ("ZL_2", "ZL_3")]:
        alpha = standard_morphism(name1, name2)
        q1, q2 = eql(alpha.source), eql(alpha.target)
        for g in q1.source.carrier.gens():
            c = g.coords
            lifted = alpha(q1(g))
            pe2 = q2.source.carrier.element(
                (c[0],) + alpha(alpha.source.carrier.element(c[1:])).coords
            )
            assert q2(pe2) == lifted


def test_aut_generators():
    auts = aut_generators(standard("ZP"))
    assert len(auts) == 1
    assert auts[0].map.matrix == ((1, 0), (-1, -1))

    auts = aut_generators(standard("ZP_2"))
    assert [a.map.matrix for a in auts] == [
        ((1, 0), (3, 3)),
        ((1, 0), (1, 3)),
    ]

    # the level is read off the carrier, with no cap
    n = 2**70
    auts = aut_generators(standard("ZP_k", 70))
    assert [a.map.matrix for a in auts] == [
        ((1, 0), (n - 1, n - 1)),
        ((1, 0), (1, 3)),
    ]

    assert aut_generators(standard("Q+")) == []
    assert len(aut_generators(standard("ZL_2"))) == 1
    assert len(aut_generators(standard("ZL_3"))) == 2
    with pytest.raises(ValueError):
        aut_generators(split_sum(standard("Q+"), FinAbGroup((2,))))


def test_aut_generators_are_automorphisms():
    for q in ALL_STANDARD:
        for a in aut_generators(q):
            assert a.is_isomorphism()
            assert a.source == a.target == q


def test_maximal_splitting_roundtrip_random():
    rng = random.Random(31)
    pool = [
        split_sum(q, FinAbGroup(o))
        for q in ALL_STANDARD
        for o in [(), (2,), (3,), (4, 2), (0,)]
    ]
    for p in pool:
        ms = maximal_splitting(p)
        assert ms.iso.is_isomorphism()
        # the stored inverse is built from the splitting's basis; it composes
        # with iso to the identity both ways, so it is the inverse
        back = ms.inverse
        assert back.compose(ms.iso) == FPMorphism.identity(p)
        assert ms.iso.compose(back) == FPMorphism.identity(ms.split_parameter)
        assert back == ms.iso.inverse()
        assert classify(p) == classify(ms.split_parameter)


def test_maximal_splitting_inverts_its_case_map(monkeypatch):
    # the splitting inverts the map its case returns, which checks both
    # compositions, and builds no identity map to compare with
    from qwitt import formparam
    from qwitt.sampling import random_form_parameter

    rng = random.Random(47)
    params = [random_form_parameter(rng, max_torsion=16) for _ in range(20)]
    built = []

    def identity(cls, group):
        built.append(group)
        return AbHom(group, group, [[int(i == j) for j in range(group.ngens)]
                                    for i in range(group.ngens)])

    monkeypatch.setattr(AbHom, "identity", classmethod(identity))
    formparam.maximal_splitting.cache_clear()
    for p in params:
        formparam.maximal_splitting(p)
    assert {p.is_symmetric for p in params} == {True, False}
    assert built == []
    # a case map that is a morphism but not an isomorphism is refused as a
    # fault of the library, not of its input: Q^- + Z onto itself by 3
    p = split_sum(standard("Q^-"), Z)
    thrice = FPMorphism(p, p, AbHom(Z, Z, [[3]]))
    monkeypatch.setattr(
        formparam, "_split_antisymmetric", lambda q: ("Q^-", None, Z, thrice)
    )
    formparam.maximal_splitting.cache_clear()
    with pytest.raises(AssertionError, match="non-isomorphism"):
        formparam.maximal_splitting(p)
    formparam.maximal_splitting.cache_clear()


def _scrambled(rng, name):
    """standard(name) + a random group, conjugated by a random automorphism."""
    p = split_sum(standard(name), random_group(rng))
    theta = random_automorphism(rng, p.carrier)
    return FormParameter(p.carrier, p.h.compose(theta.inverse()), theta(p.p_one))


def test_splitting_of_height_zero_matches_the_direct_maps():
    # Q+ + G and Q^- + G split along the maps that need no summand lemma:
    # x -> (h(x)/2, pi(x)) onto Q+ + SP, and the inverse of the inclusion of
    # the carrier in its canonical form onto Q^- + G
    rng = random.Random(18)
    groups = [(), (2,), (4,), (3,), (0,), (2, 4), (0, 6)]
    for name in ("Q+", "Q^-"):
        pool = [split_sum(standard(name), FinAbGroup(o)) for o in groups]
        pool += [_scrambled(rng, name) for _ in range(25)]
        for p in pool:
            ms = maximal_splitting(p)
            assert ms.standard_kind == name
            if name == "Q+":
                sp, proj, _ = linearisation(p)
                assert ms.complement == sp
                rows = [[x // 2 for x in p.h.matrix[0]], *proj.matrix]
            else:
                comp, incl = subgroup(p.carrier, p.carrier.gens())
                assert ms.complement == comp
                rows = incl.inverse().matrix
            assert ms.iso.map == AbHom(p.carrier, ms.iso.target.carrier, rows), p
