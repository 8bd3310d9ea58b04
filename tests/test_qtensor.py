import random
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qwitt.abelian import TRIVIAL, Z, AbHom, FinAbGroup, subgroup
from qwitt.formparam import (
    FormParameter,
    FPMorphism,
    linearisation,
    standard,
    standard_morphism,
)
from qwitt.qtensor import check_sequences, induced_map, present
from qwitt.sampling import random_form_parameter, random_group

STANDARD = (
    [standard(n) for n in ("Q+", "Q^+", "Q-", "Q^-", "ZP")]
    + [standard("ZP_k", k) for k in (1, 2, 3)]
    + [standard("ZL_k", k) for k in (2, 3)]
)


def table1_orders(q, n):
    """Expected canonical orders of Z_n (x) Q (n = 0 for Z)."""
    kind = _kind_of(q)
    k = _k_of(q)
    if n == 0:
        vals = {
            "Q+": (0,),
            "ZP": (0, 0),
            "ZP_k": None if k is None else (0, 2**k),
            "Q^+": (0,),
            "Q-": (2,),
            "ZL_k": None if k is None else (2**k,),
            "Q^-": (),
        }[kind]
        return FinAbGroup([v for v in vals if v != 1]).canonical_orders()
    d2 = gcd(n, 2)
    if kind == "Q+":
        vals = (n,)
    elif kind == "ZP":
        vals = (d2 * n, n // d2)
    elif kind == "ZP_k":
        vals = (d2 * n, gcd(n // d2, 2**k))
    elif kind == "Q^+":
        vals = (d2 * n,)
    elif kind == "Q-":
        vals = (d2,)
    elif kind == "ZL_k":
        vals = (gcd(2**k, n),)
    else:
        vals = ()
    return FinAbGroup([v for v in vals if v != 1]).canonical_orders()


def _kind_of(q):
    from qwitt.formparam import _recognise_standard

    return _recognise_standard(q)[0]


def _k_of(q):
    from qwitt.formparam import _recognise_standard

    return _recognise_standard(q)[1]


def cyclic(n):
    if n == 0:
        return Z
    return TRIVIAL if n == 1 else FinAbGroup((n,))


def test_table1_spec_examples():
    assert present(FinAbGroup((4,)), standard("Q^+")).group.orders == (8,)
    assert present(FinAbGroup((3,)), standard("ZP")).group.canonical_orders() == (3, 3)
    # Z2 + Z3 over Q-: Lambda1(Z6) = Z2
    assert present(
        FinAbGroup((2, 3)), standard("Q-")
    ).group.canonical_orders() == (2,)


def test_table1_all_cyclic():
    for q in STANDARD:
        for n in [0] + list(range(1, 13)):
            got = present(cyclic(n), q).group.canonical_orders()
            assert got == table1_orders(q, n), (q, n, got)


def brute_force_tensor(g, q):
    """Presentation on all element-level symbols and relation instances."""
    qe = q.carrier
    gels = list(g.elements())
    qels = list(qe.elements())
    gi = {x.coords: i for i, x in enumerate(gels)}
    qi = {x.coords: i for i, x in enumerate(qels)}
    ns = len(gels) * len(qels)

    def s_idx(x, qv):
        return gi[x.coords] * len(qels) + qi[qv.coords]

    def b_idx(x, y):
        return ns + gi[x.coords] * len(gels) + gi[y.coords]

    total = ns + len(gels) ** 2
    free = FinAbGroup((0,) * total)
    rels = []

    def rel(entries):
        c = [0] * total
        for idx, v in entries:
            c[idx] += v
        rels.append(free.element(c))

    for x in gels:
        for qa in qels:
            for qb in qels:
                rel([(s_idx(x, qa + qb), 1), (s_idx(x, qa), -1), (s_idx(x, qb), -1)])
    for x in gels:
        for y in gels:
            for qa in qels:
                rel(
                    [
                        (s_idx(x + y, qa), 1),
                        (s_idx(x, qa), -1),
                        (s_idx(y, qa), -1),
                        (b_idx(x, y), -q.h_of(qa)),
                    ]
                )
            for y2 in gels:
                rel([(b_idx(x + y2, y), 1), (b_idx(x, y), -1), (b_idx(y2, y), -1)])
                rel([(b_idx(y, x + y2), 1), (b_idx(y, x), -1), (b_idx(y, y2), -1)])
    for x in gels:
        rel([(b_idx(x, x), 1), (s_idx(x, q.p_one), -1)])
    from qwitt.abelian import quotient_with_lift

    grp, _, _ = quotient_with_lift(rels, free)
    return grp.canonical_orders()


@pytest.mark.parametrize(
    "orders,qname,k",
    [
        ((4,), "Q-", None),
        ((3,), "Q-", None),
        ((2,), "ZL_k", 2),
        ((4,), "ZL_k", 2),
        ((2,), "ZL_k", 3),
        ((2, 3), "Q-", None),
        ((2, 2), "Q-", None),
        ((2, 4), "Q^-", None),
        ((6,), "Q^-", None),
    ],
)
def test_presentation_vs_brute_force(orders, qname, k):
    # element-level presentation oracle (finite carriers only)
    g = FinAbGroup(orders)
    q = standard(qname, k)
    assert (
        present(g, q).group.canonical_orders() == brute_force_tensor(g, q)
    )


def test_present_builds_no_validated_element(monkeypatch):
    # the relations are integer columns; the group's own elements (the value
    # of each symbol) come from abelian without a second reduction
    from qwitt.abelian import GroupElement

    rng = random.Random(19)
    cases = [
        (random_group(rng, max_torsion=16), random_form_parameter(rng, max_torsion=16))
        for _ in range(12)
    ]
    built = []
    init = GroupElement.__init__

    def counted(self, group, coords):
        built.append(group)
        init(self, group, coords)

    monkeypatch.setattr(GroupElement, "__init__", counted)
    present.cache_clear()
    pres = [present(g, q) for g, q in cases]
    assert built == []
    assert any(not p.group.is_trivial for p in pres)
    assert {q.is_symmetric for _, q in cases} == {True, False}


def test_direct_sum_decomposition():
    # (G1 + G2) (x) Q = G1(x)Q + G2(x)Q + G1(x)G2 with explicit bookkeeping
    from qwitt.abelian import tensor

    rng = random.Random(5)
    for _ in range(12):
        o1 = rng.choice([(2,), (3,), (4,), (0,), (6,)])
        o2 = rng.choice([(2,), (5,), (8,), (0,)])
        q = rng.choice(STANDARD)
        g1, g2 = FinAbGroup(o1), FinAbGroup(o2)
        whole = present(FinAbGroup(o1 + o2), q).group
        parts = (
            present(g1, q).group.canonical_orders()
            + present(g2, q).group.canonical_orders()
            + tensor(g1, g2).canonical_orders()
        )
        expect = FinAbGroup(
            tuple(o for o in parts if o != 1)
        ).canonical_orders()
        assert whole.canonical_orders() == expect
        # the cross bracket really generates the extra summand
        pres = present(FinAbGroup(o1 + o2), q)
        cross = pres.basis_map[pres.index("b", 0, 1)]
        sub, _ = subgroup(pres.group, [cross])
        assert sub.canonical_orders() == tensor(g1, g2).canonical_orders()


def test_reduce_symbol_examples():
    # over Q^+ with G = Z: 2 (x) 1 = 4 (1 (x) 1)
    g = Z
    q = standard("Q^+")
    pres = present(g, q)
    one = pres.simple(g.element((1,)), q.carrier.element((1,)))
    two = pres.simple(g.element((2,)), q.carrier.element((1,)))
    assert two == 4 * one

    # zero symbol
    assert pres.simple(g.zero(), q.carrier.element((1,))).is_zero

    # anti-symmetry of brackets over anti-symmetric parameters
    q = standard("ZL_k", 2)
    g = FinAbGroup((4, 4))
    pres = present(g, q)
    x, y = g.gen(0), g.gen(1)
    fwd = pres.bracket(x, y, 3)
    bwd = pres.bracket(y, x, 3)
    assert (fwd + bwd).is_zero

    # a symbol over other groups is refused
    with pytest.raises(ValueError, match="does not match"):
        pres.simple(Z.element((1,)), q.carrier.element((1,)))
    with pytest.raises(ValueError, match="does not match"):
        pres.bracket(x, Z.element((1,)), 1)


def test_reduce_symbol_respects_relations():
    rng = random.Random(9)
    pool = [FinAbGroup(o) for o in [(2,), (4,), (3,), (0,), (2, 4), (0, 2)]]
    for _ in range(40):
        g = rng.choice(pool)
        q = rng.choice(STANDARD)
        pres = present(g, q)

        def rnd_g():
            return g.element([rng.randint(-4, 4) for _ in range(g.ngens)])

        def rnd_q():
            return q.carrier.element(
                [rng.randint(-4, 4) for _ in range(q.carrier.ngens)]
            )

        x, y = rnd_g(), rnd_g()
        qa, qb = rnd_q(), rnd_q()
        a = rng.randint(-3, 3)
        # (x + y) (x) qa = x (x) qa + y (x) qa + [x, y] (x) h(qa)
        lhs = pres.simple(x + y, qa)
        rhs = (
            pres.simple(x, qa)
            + pres.simple(y, qa)
            + pres.bracket(x, y, q.h_of(qa))
        )
        assert lhs == rhs
        # [x, x] (x) a = x (x) p(a)
        assert (
            pres.bracket(x, x, a)
            == pres.simple(x, q.p(a))
        )
        # linearity in q
        assert (
            pres.simple(x, qa + qb)
            == pres.simple(x, qa) + pres.simple(x, qb)
        )
        # bracket bilinearity
        assert (
            pres.bracket(x + y, x, a)
            == pres.bracket(x, x, a) + pres.bracket(y, x, a)
        )


def test_added_symbols_sum_to_the_separate_values():
    rng = random.Random(23)
    pool = [FinAbGroup(o) for o in [(2,), (4,), (3,), (0,), (2, 4), (0, 2)]]
    for _ in range(60):
        g = rng.choice(pool)
        q = rng.choice(STANDARD)
        pres = present(g, q)
        c = [0] * len(pres.symbols)
        total = pres.group.zero()
        for _ in range(rng.randint(0, 5)):
            x = g.element([rng.randint(-5, 5) for _ in range(g.ngens)])
            if rng.random() < 0.5:
                y = g.element([rng.randint(-5, 5) for _ in range(g.ngens)])
                a = rng.randint(-4, 4)
                # [x, y] (x) a = sum_{i,k} [g_i, g_k] (x) a x_i y_k
                pres.add_brackets(c, [[a * xi * yk for yk in y.coords] for xi in x.coords])
                total = total + pres.bracket(x, y, a)
            else:
                qv = q.carrier.element(
                    [rng.randint(-5, 5) for _ in range(q.carrier.ngens)]
                )
                pres.add_simples(c, [x.coords], [qv.coords])
                total = total + pres.simple(x, qv)
        assert pres.group.combination(c, pres.basis_map) == total
    # a symbol over other groups is refused
    pres = present(FinAbGroup((4,)), standard("Q^+"))
    with pytest.raises(ValueError, match="does not match"):
        pres.simple(Z.element((1,)), pres.q.carrier.element((1,)))
    with pytest.raises(ValueError, match="does not match"):
        pres.bracket(pres.g.gen(0), Z.element((1,)), 1)

def test_induced_map_examples():
    g = Z
    # (id, Q- -> ZL_2) on G = Z: Z2 -> Z4 must send the generator to twice a generator
    alpha = standard_morphism("Q-", "ZL_2")
    f = induced_map(AbHom.identity(g), alpha)
    assert f.source.canonical_orders() == (2,)
    assert f.target.canonical_orders() == (4,)
    img = f(f.source.gen(0))
    assert img.order() == 2  # the image is the order-2 element of Z4

    # (x3 on Z, id on Q^+): Gamma(Z) -> Gamma(Z) is x9
    q = standard("Q^+")
    f = induced_map(
        AbHom(Z, Z, [[3]]), FPMorphism.identity(q)
    )
    assert f.matrix == ((9,),)

    # identity
    f = induced_map(AbHom.identity(FinAbGroup((4,))), FPMorphism.identity(q))
    assert f.matrix == AbHom.identity(f.source).matrix


def test_presentation_hom_of_symbol_images():
    g, h = FinAbGroup((4, 0)), FinAbGroup((2, 0))
    f = AbHom(g, h, [[1, 1], [0, 3]])
    alpha = standard_morphism("ZP_3", "ZP_2", 1)
    pres, pres2 = present(g, alpha.source), present(h, alpha.target)
    images = []
    for kind, i, j in pres.symbols:
        if kind == "s":
            images.append(pres2.simple(f(g.gen(i)), alpha(alpha.source.carrier.gen(j))))
        else:
            images.append(pres2.bracket(f(g.gen(i)), f(g.gen(j)), 1))
    hom = pres.hom(images, pres2.group)
    assert hom == induced_map(f, alpha)
    assert all(hom(x) == y for x, y in zip(pres.basis_map, images))
    ident = pres.hom(list(pres.basis_map), pres.group)
    assert ident == AbHom.identity(pres.group)


def test_induced_map_functorial():
    rng = random.Random(33)
    g = FinAbGroup((4,))
    h = FinAbGroup((2,))
    f1 = AbHom(g, h, [[1]])
    f2 = AbHom(h, h, [[1]])
    a1 = standard_morphism("ZP_3", "ZP_2", 1)
    a2 = standard_morphism("ZP_2", "ZP_1", -1)
    lhs = induced_map(f2.compose(f1), a2.compose(a1))
    rhs = induced_map(f2, a2).compose(induced_map(f1, a1))
    assert lhs.matrix == rhs.matrix


def test_check_sequences():
    for orders in [(), (4,), (2, 3), (0,), (0, 2)]:
        g = FinAbGroup(orders)
        for q in STANDARD:
            rep = check_sequences(g, q)
            assert rep["ok"], (orders, q, rep)


def test_check_sequences_large_kernel():
    # the kernel check of the middle row once took minutes in SNF
    carrier = FinAbGroup((0, 2, 5, 0))
    q = FormParameter(
        carrier, AbHom(carrier, Z, [[1, 0, 0, 0]]), carrier.element((2, 1, 0, 0))
    )
    rep = check_sequences(FinAbGroup((4, 0)), q)
    assert rep["ok"], rep


def test_seed_90_pair_returns():
    # the pair random.Random(90) draws as in the random sweep below; an
    # earlier SNF loop never returned on its presentation
    from qwitt.abelian import tensor

    carrier = FinAbGroup((0, 8, 8, 0))
    q = FormParameter(
        carrier, AbHom(carrier, Z, [[3, 0, 0, 2]]), carrier.element((-2, 7, 2, 4))
    )
    rep = check_sequences(FinAbGroup((2, 4, 0)), q)
    assert rep["ok"], rep
    g1, g2 = FinAbGroup((2,)), FinAbGroup((4, 0))
    parts = (
        present(g1, q).group.canonical_orders()
        + present(g2, q).group.canonical_orders()
        + tensor(g1, g2).canonical_orders()
    )
    expect = FinAbGroup(tuple(o for o in parts if o != 1)).canonical_orders()
    assert present(FinAbGroup((2, 4, 0)), q).group.canonical_orders() == expect


def test_check_sequences_random_sweep():
    rng = random.Random(0)
    for _ in range(100):
        g = random_group(rng, max_torsion=8, max_free=1)
        q = random_form_parameter(rng, max_torsion=16, max_free=2)
        rep = check_sequences(g, q)
        assert rep["ok"], (g, q, rep)


def all_canonical_orders(n):
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
    return out


def test_pushout_square_cocartesian_up_to_16():
    # the anti-symmetric comparison square for every group of order <= 16
    for orders in all_canonical_orders(16):
        g = FinAbGroup(orders)
        for q in (standard("Q-"), standard("ZL_2")):
            rep = check_sequences(g, q)
            assert rep["ok"] and rep["square_pushout"], (orders, q, rep)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_defining_relations_hypothesis(data):
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    g = FinAbGroup(rng.choice([(2,), (4,), (3,), (0,), (2, 4), (0, 2)]))
    q = rng.choice(STANDARD)
    pres = present(g, q)
    x = g.element(data.draw(st.lists(st.integers(-4, 4), min_size=g.ngens, max_size=g.ngens)))
    y = g.element(data.draw(st.lists(st.integers(-4, 4), min_size=g.ngens, max_size=g.ngens)))
    qa = q.carrier.element(
        data.draw(st.lists(st.integers(-4, 4), min_size=q.carrier.ngens, max_size=q.carrier.ngens))
    )
    a = data.draw(st.integers(-3, 3))
    # bracket symmetry under the parameter's sign
    fwd = pres.bracket(x, y, a)
    bwd = pres.bracket(y, x, a)
    assert (bwd - q.symmetry * fwd).is_zero
    # scalar rule: (a x) (x) q = a (x (x) q) + C(a, 2) [x, x] (x) h(q)
    lhs = pres.simple(a * x, qa)
    rhs = (
        a * pres.simple(x, qa)
        + pres.bracket(x, x, a * (a - 1) // 2 * q.h_of(qa))
    )
    assert (lhs - rhs).is_zero


def test_check_sequences_order_bookkeeping():
    # |S2| * |Z4 (x) S(ZP_2)| == |Z4 (x) ZP_2|
    g = FinAbGroup((4,))
    q = standard("ZP_2")
    s2 = present(g, standard("Q+")).group.order()
    whole = present(g, q).group.order()
    sq, _, _ = linearisation(q)
    from qwitt.abelian import tensor

    lin = tensor(g, sq).order()
    assert s2 * lin == whole
