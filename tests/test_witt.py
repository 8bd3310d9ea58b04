import hashlib
import random

import pytest

import qwitt.qform as qf
from qwitt import qtensor, witt
from qwitt._intmat import identity, mat_mul, smith_normal_form
from qwitt.abelian import (
    Z2,
    AbHom,
    FinAbGroup,
    member_solver,
    subgroup,
    tensor_with_generators,
)
from qwitt.formparam import (
    FPMorphism,
    aut_generators,
    maximal_splitting,
    quasi_wu,
    split_sum,
    standard,
    standard_morphism,
)
from qwitt.qtensor import present
from qwitt.sampling import (
    random_form_parameter,
    random_group,
    random_morphism,
    random_nonsingular_form,
    random_tensor_element,
    random_unimodular,
    random_zp_form,
)

QM = standard("Q-")
ZP = standard("ZP")


def arf1(param=QM, one=(1,)):
    c = param.carrier
    return qf.QForm(param, [[0, 1], [-1, 0]], [c.element(one), c.element(one)])


def test_signature():
    f = qf.QForm(standard("Q^+"), [[1, 0], [0, -1]],
                 [standard("Q^+").carrier.element((s,)) for s in (1, -1)])
    assert witt.signature(f) == 0
    assert witt.signature(qf.hyperbolic(standard("Q^+"), 3)) == 0
    with pytest.raises(ValueError):
        witt.signature(arf1())


def test_rho_examples():
    # the two generators of the Witt group of the infinite member
    sig_star = qf.QForm(ZP, [[1]], [ZP.carrier.element((1, 0))])
    rho_star = qf.QForm(
        ZP, [[0, 1], [1, 0]],
        [ZP.carrier.element((0, 1)), ZP.carrier.element((0, -1))],
    )
    assert witt.signature_defect(sig_star) == 0
    assert witt.signature(sig_star) == 1
    assert witt.signature_defect(rho_star) == 1
    assert witt.signature(rho_star) == 0

    # the non-metabolic lift of the metabolic level-k form: omega^2 = 2^(k+2)
    for k in (1, 2, 3):
        phi_lift = qf.QForm(
            ZP, [[1, 1], [1, 0]],
            [ZP.carrier.element((1, 2 ** (k - 1))), ZP.carrier.element((0, 2**k))],
        )
        sig, osq, _ = witt._omega_data(phi_lift)
        assert osq == 2 ** (k + 2)
        assert witt.signature_defect(phi_lift) == -(2 ** (k - 1))
    with pytest.raises(ValueError):
        witt.signature_defect(arf1())


def test_rho_lift_independence():
    rng = random.Random(4)
    for _ in range(40):
        k = rng.choice([None, 1, 2, 3, 4])
        f = random_zp_form(rng, k, max_rank=5)
        shift = [rng.randint(-3, 3) for _ in range(f.rank)]
        assert witt.signature_defect(f) == witt.signature_defect(f, shift=shift)
        sig, osq, _ = witt._omega_data(f)
        assert (sig - osq) % 8 == 0


def test_signature_defect_refuses_a_shift_of_the_wrong_length():
    zp3 = standard("ZP_3")
    f = qf.QForm(zp3, [[1, 0], [0, -1]],
                 [zp3.carrier.element((1, 0)), zp3.carrier.element((-1, 0))])
    assert witt.signature_defect(f, shift=[1, 2]) == witt.signature_defect(f)
    for shift in ([1, 2, 3, 4], [1]):
        with pytest.raises(ValueError, match=f"{len(shift)} entries.*rank 2"):
            witt.signature_defect(f, shift=shift)


def test_invariants_refuse_a_singular_form():
    # unimodular_inverse is the nonsingularity check of both
    qp, z2 = standard("Q^+"), FinAbGroup((2,))
    pres, split = present(z2, qp), split_sum(qp, z2)
    for lam, mu in (([[0]], (0, 0)), ([[2]], (2, 0))):
        f = qf.QForm(split, lam, [split.carrier.element(mu)])
        with pytest.raises(ValueError, match="not unimodular"):
            witt.tensor_invariant(f, pres)
        g = qf.QForm(ZP, lam, [ZP.carrier.element(mu)])
        with pytest.raises(ValueError, match="not unimodular"):
            witt.signature_defect(g)


def test_tensor_invariant_refuses_a_form_over_another_split_parameter():
    # Q^+ + Z2 has the carrier orders of Q+ + Z2, but not its h row or p(1)
    pres = present(FinAbGroup((2,)), standard("Q+"))
    other = split_sum(standard("Q^+"), FinAbGroup((2,)))
    f = qf.QForm(other, [[1]], [other.carrier.element((1, 0))])
    with pytest.raises(ValueError, match="expected split parameter"):
        witt.tensor_invariant(f, pres)
    # a form over the presentation's own split parameter passes
    own = split_sum(standard("Q+"), FinAbGroup((2,)))
    g = qf.hyperbolic(own, 1)
    assert witt.tensor_invariant(g, pres).is_zero


def test_arf():
    assert witt.arf(qf.hyperbolic(QM, 1)) == 0
    assert witt.arf(arf1()) == 1
    assert witt.arf(qf.direct_sum(arf1(), arf1())) == 0

    def democratic(f):
        from itertools import product

        vals = [qf.mu_eval(f, v).coords[0] for v in product((0, 1), repeat=f.rank)]
        return 1 if sum(vals) > len(vals) // 2 else 0

    rng = random.Random(8)
    ranks = set()
    for _ in range(40):
        f = random_nonsingular_form(rng, QM, max_rank=8)
        if f.rank == 0:
            continue
        f = qf.pullback(f, random_unimodular(rng, f.rank, ops=20))
        ranks.add(f.rank)
        assert witt.arf(f) == democratic(f)
    assert max(ranks) == 8


def test_witt_class_scrambled_arf_block():
    # the symplectic basis once kept a rank-independent subset of the
    # projections, which spans an index-3 sublattice here, and raised
    # "form is singular on the remaining block" on this nonsingular form
    p = split_sum(QM, FinAbGroup((3,)))
    lam = [[0, -3, 2, 0], [3, 0, -2, -1], [-2, 2, 0, 1], [0, 1, -1, 0]]
    f = qf.QForm(p, lam, [p.carrier.element(c) for c in ((1, 0), (0, 0), (1, 0), (1, 0))])
    cls = witt.witt_class(f)
    assert cls.is_zero
    assert witt.gw_class(f).witt == cls
    # a zero Witt class leaves no certified "no"
    assert qf.metabolic_search(f, bound=3, node_budget=2000).status != "no"


def test_witt_class_invariant_under_base_change():
    rng = random.Random(605)
    for p in (QM, split_sum(QM, FinAbGroup((3,)))):
        for _ in range(30):
            f = random_nonsingular_form(rng, p, max_rank=6)
            a = witt.witt_class(f)
            for _ in range(3):
                u = random_unimodular(rng, f.rank, ops=12)
                assert witt.witt_class(qf.pullback(f, u)) == a


def test_witt_group_descriptions():
    d = witt.witt_group(standard("ZP_3"))
    assert d.names == ("sigma*", "rho_3*")
    assert d.orders == (0, 4)
    d = witt.witt_group(split_sum(standard("Q^+"), FinAbGroup((4,))))
    assert d.canonical_orders() == (8, 0)
    d = witt.witt_group(split_sum(standard("ZL_2"), FinAbGroup((2,))))
    assert d.canonical_orders() == (2,)
    zp70 = standard("ZP_k", 70)
    d = witt.witt_group(zp70)
    assert d.names == ("sigma*", "rho_70*")
    assert d.orders == (0, 2**69)
    sig_star = qf.QForm(zp70, [[1]], [zp70.carrier.element((1, 0))])
    assert witt.witt_class(sig_star).coords == (1, 0)


def test_representatives_are_dual_to_the_invariants():
    # the class of the i-th named representative is the i-th unit vector
    standards = [standard(n) for n in ("Q+", "Q^+", "Q-", "Q^-", "ZP")]
    standards += [standard("ZP_k", k) for k in range(1, 6)]
    standards += [standard("ZL_k", k) for k in range(2, 5)]
    pool = standards + [
        split_sum(q, FinAbGroup(o))
        for q in standards
        for o in [(2,), (4,), (3,), (0,), (2, 4)]
    ]
    rng = random.Random(216)
    pool += [random_form_parameter(rng) for _ in range(50)]
    for p in pool:
        desc = witt.witt_group(p)
        n = len(desc.orders)
        for i, rep in enumerate(desc.representatives):
            unit = witt.WittClass(desc, tuple(int(j == i) for j in range(n)))
            assert witt.witt_class(rep) == unit, (p, desc.names[i])


def test_witt_class_zero_iff_metabolic_sum():
    rng = random.Random(12)
    params = [standard(n) for n in ("Q+", "Q^+", "ZP_2", "Q-", "ZL_2")] + [
        split_sum(standard("Q-"), FinAbGroup((4,))),
        split_sum(standard("Q^+"), FinAbGroup((3,))),
    ]
    for p in params:
        h = qf.hyperbolic(p, 1)
        fm = qf.full_metabolic(p)
        assert witt.witt_class(h).is_zero
        assert witt.witt_class(fm).is_zero
        for _ in range(6):
            f = random_nonsingular_form(rng, p, max_rank=4)
            a = witt.witt_class(f)
            assert witt.witt_class(qf.direct_sum(f, h)) == a
            assert witt.witt_class(qf.direct_sum(f, fm)) == a
            assert witt.witt_class(qf.direct_sum(f, qf.negate(f))).is_zero
            b = random_unimodular(rng, f.rank, ops=4)
            assert witt.witt_class(qf.pullback(f, b)) == a


def _representative_sum(desc, coords):
    """The sum of desc's representatives with coefficients coords, a
    coefficient of finite order n taken as its residue of least absolute
    value (a negative one adds negated representatives)."""
    out = qf.QForm(desc.parameter, [], [])
    for c, n, rep in zip(coords, desc.orders, desc.representatives):
        if n and 2 * c > n:
            c -= n
        for _ in range(abs(c)):
            out = qf.direct_sum(out, rep if c > 0 else qf.negate(rep))
    return out


def test_witt_classes_are_certified_by_the_search():
    # with c = witt_class(f), -f + r(c) has class 0, and the bounded search
    # finds most such forms metabolic (a stably metabolic form need not be);
    # -f + r(c + e_i) has class e_i, and no search may find it metabolic.  A
    # wrong invariant moves c: forms of the first kind stop being metabolic,
    # or forms of the second kind start
    rng = random.Random(5)
    found = total = 0
    for i in range(40):
        p = random_form_parameter(rng, symmetric=bool(i % 2), max_torsion=4, max_free=0)
        while not maximal_splitting(p).complement.ngens:
            p = random_form_parameter(rng, symmetric=bool(i % 2), max_torsion=4, max_free=0)
        desc = witt.witt_group(p)
        for _ in range(2):
            f = random_nonsingular_form(rng, p, max_rank=2)
            c = witt.witt_class(f).coords
            for j in [None, *range(len(c))]:
                e = witt.WittClass(desc, tuple(x + (k == j) for k, x in enumerate(c)))
                g = qf.direct_sum(qf.negate(f), _representative_sum(desc, e.coords))
                out = qf.metabolic_search(g, 2, 2000, use_obstructions=False)
                if j is None:
                    found, total = found + out.found, total + 1
                else:
                    assert not out.found, (p, c, desc.names[j])
    assert found >= 0.95 * total, (found, total)


def test_f_invariant_basis_independent():
    rng = random.Random(14)
    for _ in range(25):
        p = random_form_parameter(rng, max_torsion=8, max_free=1)
        ms = witt.witt_group(p).splitting
        pres = witt.witt_group(p).tensor_pres
        f = random_nonsingular_form(rng, p, max_rank=4)
        if f.rank == 0:
            continue
        g = qf.pushforward(f, ms.iso)
        t1 = witt.tensor_invariant(g, pres)
        b = random_unimodular(rng, f.rank, ops=5)
        t2 = witt.tensor_invariant(qf.pullback(g, b), pres)
        assert t1.coords == t2.coords


def symbolwise_tensor_invariant(f, q0, pres):
    """The reduced-part invariant summed symbol by symbol from the public
    values of `simple` and `bracket`, with M^-1 read off a Smith normal
    form (D = I for a unimodular M, so M^-1 = V U)."""
    n, nq = f.rank, q0.carrier.ngens
    u, d, v = smith_normal_form(f.lambda_matrix)
    assert d == identity(n)
    minv = mat_mul(v, u)
    mug = [pres.g.element(m.coords[nq:]) for m in f.mu_basis]
    total = pres.group.zero()
    for i in range(n):
        for j in range(i + 1, n):
            total = total + pres.bracket(mug[i], mug[j], minv[j][i])
    for j in range(n):
        y = [minv[r][j] for r in range(n)]
        total = total + pres.simple(
            mug[j], q0.carrier.element(qf.mu_eval(f, y).coords[:nq])
        )
    return total


def test_tensor_invariant_is_the_sum_of_its_symbols():
    rng = random.Random(24)
    ranks = set()
    for _ in range(60):
        p = random_form_parameter(rng, max_torsion=8, max_free=1)
        desc = witt.witt_group(p)
        ms = desc.splitting
        f = qf.pushforward(random_nonsingular_form(rng, p, max_rank=4), ms.iso)
        for g in (f, qf.QForm(f.parameter, [], [])):
            ranks.add(g.rank)
            assert witt.tensor_invariant(
                g, desc.tensor_pres
            ) == symbolwise_tensor_invariant(g, ms.standard, desc.tensor_pres)
    assert ranks == {0, 1, 2, 3, 4}

def test_tensor_invariant_matches_its_symbols_to_rank_8():
    """The matrix form of the tensor invariant, through tensor_invariant and
    through witt_class, against the symbol-by-symbol sum: ranks 1 to 8 over
    scrambled parameters of both symmetries whose complement G has 0 to 3
    generators."""
    rng = random.Random(31)
    seen = set()
    for _ in range(160):
        symmetric = rng.random() < 0.5
        p = random_form_parameter(rng, symmetric=symmetric, max_torsion=16, max_free=1)
        desc = witt.witt_group(p)
        ms = desc.splitting
        if ms.complement.ngens > 3:
            continue
        f = random_nonsingular_form(rng, p, max_rank=8)
        g = qf.pushforward(f, ms.iso)
        expect = symbolwise_tensor_invariant(g, ms.standard, desc.tensor_pres)
        assert witt.tensor_invariant(g, desc.tensor_pres) == expect
        assert witt.witt_class(f).coords[desc.n_indec:] == expect.coords
        seen.add((symmetric, f.rank, ms.complement.ngens))
    assert {r for s, r, _ in seen if s} == set(range(1, 9))
    assert {r for s, r, _ in seen if not s} == {2, 4, 6, 8}
    for symmetric in (True, False):
        assert {n for s, _, n in seen if s == symmetric} == {0, 1, 2, 3}


def test_witt_class_refuses_a_singular_form_over_a_trivial_tensor_group():
    # G (x) Q0 = 0 here, so no tensor term reads the inverse: the
    # refusal comes from the inverse itself
    for p, mu in ((standard("Q+"), (1,)), (ZP, (2, 0))):
        assert witt.witt_group(p).tensor_pres.group.is_trivial
        f = qf.QForm(p, [[2]], [p.carrier.element(mu)])
        with pytest.raises(ValueError, match="nonsingular forms"):
            witt.witt_class(f)


def test_witt_class_takes_one_inverse_and_at_most_one_signature(monkeypatch):
    """On warm caches one witt_class, gw_class or (over a symmetric
    parameter) es_witt call inverts the form's matrix once, which is also
    its nonsingularity check, takes no determinant and at most one inertia,
    and builds no QForm: the invariants read the matrix and mu rows."""
    from qwitt import _intmat

    rng = random.Random(7)
    params = [standard(n) for n in ("Q+", "Q^+", "ZP", "ZP_2", "Q-", "Q^-", "ZL_2")]
    params += [random_form_parameter(rng, symmetric=s) for s in (True, False) * 4]
    forms = [random_nonsingular_form(rng, p, max_rank=6) for p in params]
    forms.append(witt.witt_group(standard("Q+")).representatives[0])

    def calls(f):
        return (witt.witt_class, witt.gw_class) + ((witt.es_witt,) if f.parameter.is_symmetric else ())

    for f in forms:
        for call in calls(f):
            call(f)
    counts = {}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    for module, names in (
        (_intmat, ("unimodular_inverse", "determinant")),
        (qf, ("inertia", "signature_of_matrix", "is_nonsingular")),
        (witt, ("unimodular_inverse", "determinant", "inertia", "signature_of_matrix", "is_nonsingular")),
    ):
        for name in names:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    monkeypatch.setattr(qf.QForm, "__init__", counted("QForm", qf.QForm.__init__))
    for f in forms:
        for call in calls(f):
            counts.clear()
            call(f)
            assert counts.get("unimodular_inverse") == 1, (f, counts)
            assert "determinant" not in counts and "is_nonsingular" not in counts
            assert counts.get("inertia", 0) <= 1 and counts.get("signature_of_matrix", 0) <= 1
            assert "QForm" not in counts, (call, f, counts)


def test_witt_group_builds_its_group_once():
    # the group is built once, with the description; repr, == and hash of
    # descriptions and classes read only their fields
    from dataclasses import replace

    f = arf1(split_sum(QM, FinAbGroup((4,))), (0, 1))
    cls = witt.witt_class(f)
    desc = cls.description
    assert desc.group is desc.group and desc.group == FinAbGroup(desc.orders)
    fresh = replace(desc)
    assert fresh == desc and hash(fresh) == hash(desc) and repr(fresh) == repr(desc)
    again = witt.WittClass(fresh, cls.coords)
    assert again == cls and hash(again) == hash(cls) and repr(again) == repr(cls)


def test_f_gamma_roundtrip_random():
    rng = random.Random(15)
    for _ in range(40):
        q0 = standard(rng.choice(["Q+", "Q^+", "ZP", "ZP_2", "Q-", "ZL_2", "Q^-"]))
        comp = FinAbGroup(rng.choice([(2,), (4,), (3,), (0,), (2, 2)]))
        pres = present(comp, q0)
        t = random_tensor_element(rng, pres)
        back = witt.tensor_invariant(witt.form_from_tensor(pres, t), pres)
        assert back.coords == t.coords


def test_witt_class_of_section_44_generators():
    # second summand generator of W0(Q- + Z_l)
    for l in (2, 4, 6, 12):
        p = split_sum(QM, FinAbGroup((l,)))
        f = arf1(p, (0, 1))
        cls = witt.witt_class(f)
        d = cls.description
        assert cls.coords[0] == 0  # Arf part
        tgrp = FinAbGroup(d.orders[d.n_indec:])
        from qwitt.abelian import subgroup

        sub, _ = subgroup(tgrp, [tgrp.element(cls.coords[d.n_indec:])])
        assert sub.canonical_orders() == tgrp.canonical_orders() == (2,)


def test_stably_metabolic_not_metabolic():
    pushed = qf.pushforward(arf1(), standard_morphism("Q-", "ZL_2"))
    assert witt.witt_class(pushed).is_zero
    out = qf.metabolic_search(pushed, bound=5)
    assert out.status == "no" and "Arf" in out.reason
    raw = qf.metabolic_search(pushed, bound=5, use_obstructions=False)
    assert raw.status == "unknown"


def test_induced_map_spec_matrices():
    m = witt.induced_witt_map(standard_morphism("Q+", "ZP"))
    assert m.matrix == ((8,), (1,))
    for n in range(-2, 3):
        m = witt.induced_witt_map(standard_morphism("ZP_4", "ZP_3", n))
        expect = ((1, 0), ((-n * (n + 1) // 2) % 4, ((2 * n + 1) ** 2) % 4))
        assert m.matrix == expect
    beta = aut_generators(ZP)[0]
    assert witt.induced_witt_map(beta).matrix == ((1, 0), (0, 1))
    _, gamma_3 = aut_generators(standard("ZP_3"))
    assert witt.induced_witt_map(gamma_3).matrix == ((1, 0), (3, 1))  # mod 4


def test_induced_map_routes_agree():
    """The natural route agrees with the definition on morphisms of both
    symmetries, on cold caches and again on the per-parameter data the
    first call left behind."""
    for obj in vars(witt).values():
        if hasattr(obj, "cache_clear"):
            obj.cache_clear()
    rng = random.Random(16)
    symmetries = set()
    for _ in range(40):
        alpha = random_morphism(rng)
        symmetries.add(alpha.source.is_symmetric)
        expect = witt.induced_witt_map_via_forms(alpha).matrix
        for _ in range(2):
            assert witt.induced_witt_map(alpha).matrix == expect
    assert symmetries == {True, False}


def test_induced_map_functorial():
    a1 = standard_morphism("ZP", "ZP_3", 1)
    a2 = standard_morphism("ZP_3", "ZP_2", -1)
    lhs = witt.induced_witt_map(a2.compose(a1))
    rhs = witt.induced_witt_map(a2).compose(witt.induced_witt_map(a1))
    assert lhs.matrix == rhs.matrix


def _assert_split_block_formula(aq, al):
    """For a split morphism, the Witt map decomposes: indecomposable
    classes push through the first block alone, and reduced classes push
    through the induced tensor map.  Checked at the level of classes,
    which is independent of the coordinate choices of witt_group."""
    from qwitt.abelian import AbHom
    from qwitt.qtensor import induced_map

    g1, g2 = al.source, al.target
    p1 = split_sum(aq.source, g1)
    p2 = split_sum(aq.target, g2)
    rows = []
    n1, n2 = aq.source.carrier.ngens, aq.target.carrier.ngens
    for i in range(n2):
        rows.append(list(aq.map.matrix[i]) + [0] * g1.ngens)
    for i in range(g2.ngens):
        rows.append([0] * n1 + list(al.matrix[i]))
    alpha = FPMorphism(p1, p2, AbHom(p1.carrier, p2.carrier, rows))

    def embed(form, q_param, g_grp, split_param):
        mus = [
            split_param.carrier.element(tuple(m.coords) + (0,) * g_grp.ngens)
            for m in form.mu_basis
        ]
        return qf.QForm(split_param, form.lambda_matrix, mus)

    # indecomposable block: embed a generator form of W(Q1), push both ways
    src_desc = witt.witt_group(aq.source)
    for rep in src_desc.representatives:
        lhs = witt.witt_class(qf.pushforward(embed(rep, aq.source, g1, p1), alpha))
        rhs = witt.witt_class(
            embed(qf.pushforward(rep, aq), aq.target, g2, p2)
        )
        assert lhs.coords == rhs.coords
    # tensor block: gamma classes push through the induced tensor map
    pres1 = present(g1, aq.source)
    pres2 = present(g2, aq.target)
    tmap = induced_map(al, aq)
    for t in range(pres1.group.ngens):
        gen = pres1.group.gen(t)
        f1 = witt.form_from_tensor(pres1, gen)
        lhs = witt.witt_class(qf.pushforward(f1, alpha))
        mapped = tmap(gen)
        f2 = witt.form_from_tensor(pres2, mapped)
        rhs = witt.witt_class(f2)
        assert lhs.coords == rhs.coords


def test_split_morphism_formula():
    from qwitt.abelian import AbHom

    _assert_split_block_formula(
        standard_morphism("ZP_3", "ZP_2", 1),
        AbHom(FinAbGroup((4,)), FinAbGroup((2,)), [[1]]),
    )
    rng = random.Random(41)
    arrows = [
        ("Q+", "ZP", 0), ("ZP", "ZP_2", 1), ("ZP_2", "ZP_1", 0),
        ("ZP_1", "Q^+", 0), ("Q-", "ZL_2", 0), ("ZL_2", "ZL_3", 0),
    ]
    group_homs = [
        (FinAbGroup((2,)), FinAbGroup((4,)), [[2]]),
        (FinAbGroup((6,)), FinAbGroup((3,)), [[1]]),
        (FinAbGroup((4,)), FinAbGroup(()), [[] for _ in range(0)]),
        (FinAbGroup((0,)), FinAbGroup((8,)), [[3]]),
    ]
    for _ in range(8):
        a, b, n = rng.choice(arrows)
        gs, gt, mat = rng.choice(group_homs)
        _assert_split_block_formula(
            standard_morphism(a, b, n), AbHom(gs, gt, mat)
        )


def test_sigma_subgroup_examples():
    s = witt.sigma_subgroup(quasi_wu(standard("Q^+")))
    assert s.group.canonical_orders() == (0,)
    amb = s.ambient
    contains = member_solver(amb, s.generators)
    # (1, x0 (x) 1) generates; (1, 0) is outside; (8, 0) is inside
    x0 = s.pres.g.element((1,))
    sym = s.pres.simple(x0, s.pres.q.carrier.element((1,)))
    assert contains(amb.element((1,) + sym.coords)) is not None
    assert contains(amb.element((1, 0))) is None
    assert contains(amb.element((8, 0))) is not None

    s = witt.sigma_subgroup(quasi_wu(standard("Q+")))
    assert s.group.canonical_orders() == (0,)

    for k in (2, 3):
        s = witt.sigma_subgroup(quasi_wu(standard("ZP_k", k)))
        assert s.group.canonical_orders() == (2 ** (k - 1), 0)


def test_sigma_subgroup_takes_no_zero_kernel_generator():
    """Sigma(v) takes the non-zero generators of Ker(v) only: a basis
    vector of the kernel of [v | relations] can reduce to 0 in A, and its
    translate and brackets would be zero generators.  Over every map v to
    Z2 from a few groups, psi has one translate per non-zero generator and
    one bracket per pair, and the subgroup equals the one that the whole
    `kernel_generators` list gives."""
    from itertools import product

    from qwitt.abelian import kernel_generators, subgroup_equal
    from qwitt.formparam import SliceHom

    dropped = 0
    for orders in ((2,), (4,), (0,), (2, 2), (2, 4), (4, 4), (0, 2), (8, 2), (3, 4), (2, 6), (2, 2, 2), (0, 4, 2)):
        a = FinAbGroup(orders)
        for images in product((0, 1), repeat=len(orders)):
            if not any(images) or any(n % 2 and i for n, i in zip(orders, images)):
                continue  # the zero map, or one that is not well defined
            v = SliceHom(AbHom(a, Z2, [list(images)]))
            s = witt.sigma_subgroup(v)
            full = kernel_generators(v.v)
            kgens = [k for k in full if not k.is_zero]
            dropped += len(full) - len(kgens)
            n = len(kgens)
            assert len(s.psi) == n + n * (n + 1) // 2
            pres, one = s.pres, s.pres.q.carrier.element((1,))
            x0 = a.gen(images.index(1))
            psi = [pres.simple(x0 + k, one) - s.base for k in full]
            psi += [pres.bracket(k1, k2, 1) for i, k1 in enumerate(full) for k2 in full[i:]]
            pairs = [(8, pres.group.zero()), (1, s.base)] + [(0, w) for w in psi]
            want = [s.ambient.element((m,) + t.coords) for m, t in pairs]
            assert subgroup_equal(s.ambient, s.generators, want), (orders, images)
    assert dropped > 0

def test_lambda_quotient_examples():
    lq = witt.lambda_quotient(quasi_wu(QM))
    assert subgroup(lq.ambient, lq.k_generators)[0].canonical_orders() == (2,)
    assert lq.group.canonical_orders() == (2,)

    lq = witt.lambda_quotient(quasi_wu(standard("ZL_2")))
    assert lq.group.is_trivial

    # trivial coslice: Lambda(0 -> A) is the exterior square of A
    p = split_sum(standard("Q^-"), FinAbGroup((2, 4)))
    lq = witt.lambda_quotient(quasi_wu(p))
    lam = present(FinAbGroup((2, 4)), standard("Q^-")).group
    assert lq.group.canonical_orders() == lam.canonical_orders()


def test_es_witt_matches_zp_matrix():
    # over the infinite member: (sigma, F) of the generators gives
    # the embedding matrix [[1, 0], [1, -8]]
    d = witt.witt_group(ZP)
    e = witt.es_witt_hom(ZP)
    cols = [e(d.group.gen(j)).coords for j in range(2)]
    assert cols[0][0] == 1 and cols[1][0] == 0
    gam = present(*(lambda sp: (sp, standard("Q^+")))(
        __import__("qwitt.formparam", fromlist=["linearisation"]).linearisation(ZP)[0]
    ))
    # second coordinates: 1 and -8 up to the sign of the chosen generator
    assert abs(cols[0][1]) == 1
    assert cols[1][1] == -8 * cols[0][1]


def test_eql_witt():
    p = standard("ZL_2")
    pres = present(p.carrier, QM)
    zero_t = pres.group.zero()
    assert witt.eql_witt(p, 0, zero_t).is_zero
    # the kernel generator (1, v'(1) wedge v'(1)) dies
    v1 = p.p_one
    t = pres.bracket(v1, v1, 1)
    assert witt.eql_witt(p, 1, t).is_zero
    # over the rank-one anti-symmetric parameter, (1, 0) is the Arf class
    pm = QM
    pres_m = present(pm.carrier, QM)
    zt = pres_m.group.zero()
    assert witt.eql_witt(pm, 1, zt).coords == (1,)
    # an element outside Lambda1 of the carrier is refused
    with pytest.raises(ValueError):
        witt.eql_witt(p, 0, FinAbGroup((5,)).zero())


def test_diagram_reports():
    for v in [quasi_wu(standard(n)) for n in ("Q+", "Q^+", "ZP", "ZP_2")]:
        assert witt.sigma_diagram(v)["ok"]
    for vp in [quasi_wu(standard(n)) for n in ("Q-", "ZL_2", "ZL_3", "Q^-")]:
        assert witt.lambda_diagram(vp)["ok"]
    r = witt.sigma_diagram(quasi_wu(split_sum(standard("Q^+"), FinAbGroup((2,)))))
    assert r["c_orders"] == (4,)
    r = witt.sigma_diagram(quasi_wu(standard("Q+")))
    assert r["c_orders"] == (8,)


def test_diagram_checks_read_the_tensor_map(monkeypatch):
    """With f (x) g replaced by the zero map where witt and qtensor bind
    it, each of these reports fails a check that passes with the real map."""

    def reports():
        return [
            witt.sigma_diagram(quasi_wu(standard("Q^+"))),
            witt.lambda_diagram(quasi_wu(QM)),
            qtensor.check_sequences(Z2, standard("Q^+")),
            qtensor.check_sequences(Z2, QM),
        ]

    def zero_map(f, g):
        return AbHom.zero(
            tensor_with_generators(f.source, g.source)[0],
            tensor_with_generators(f.target, g.target)[0],
        )

    assert all(r["ok"] for r in reports())
    monkeypatch.setattr(witt, "tensor_map", zero_map)
    monkeypatch.setattr(qtensor, "tensor_map", zero_map)
    assert not any(r["ok"] for r in reports())


def test_diagram_reports_are_pinned():
    """Every report of a seeded sweep of the three verifiers passes, and
    their keys and values are pinned by one digest.  Each value is a
    boolean, a canonical order tuple, a presented group's orders or a slice
    kind, none of which depends on the route a Smith form takes."""
    names = ["Q+", "ZP", "Q^+", "Q-", "Q^-", "ZP_1", "ZP_2", "ZP_3", "ZP_4", "ZL_2", "ZL_3", "ZL_4"]
    groups = [(2,), (4,), (6,), (0,), (2, 2), (3,), (8,), (0, 2)]
    params = [standard(n) for n in names]
    params += [split_sum(standard(n), FinAbGroup(o)) for n in names for o in groups]
    rng = random.Random(5)
    params += [random_form_parameter(rng, max_torsion=8, max_free=1) for _ in range(250)]
    reports = [
        (witt.sigma_diagram if p.is_symmetric else witt.lambda_diagram)(quasi_wu(p))
        for p in params
    ]
    rng = random.Random(7)
    for _ in range(120):
        g = random_group(rng, 8, 1)
        reports.append(qtensor.check_sequences(g, random_form_parameter(rng, max_torsion=16, max_free=2)))
    assert len(reports) == 478 and all(r["ok"] for r in reports)
    text = "\n".join(repr(sorted(r.items())) for r in reports)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "9bafc4cdf70117a95aefa47a3722b5465d7df6815532af571ae93b1e7d7858f8"
    )


def test_gw():
    d = witt.gw_group(standard("Q^-"))
    assert d["canonical_orders"] == (0,)
    g = witt.gw_class(qf.hyperbolic(standard("Q^+"), 1))
    assert g.rank == 2 and g.witt.is_zero
    one = qf.QForm(standard("Q^+"), [[1]], [standard("Q^+").carrier.element((1,))])
    g = witt.gw_class(one)
    assert g.rank == 1 and g.witt.coords[0] == 1
    rng = random.Random(19)
    for symmetric in (True, False):
        for _ in range(20):
            p = random_form_parameter(rng, symmetric=symmetric, max_torsion=8, max_free=1)
            f = random_nonsingular_form(rng, p, max_rank=4)
            witt.gw_class(f)  # parity constraints hold by construction


def test_gw_parity_reads_the_signature_off_the_witt_class():
    """WittClass.signature, which GWClass checks the rank's parity
    against, is the signature of the form's matrix."""
    rng = random.Random(43)
    cases = []
    for _ in range(6):
        cases.append(random_nonsingular_form(rng, standard("Q+"), max_rank=10))
        cases.append(random_nonsingular_form(rng, standard("Q^+"), max_rank=4))
        for k in (None, 1, 2, 3):
            cases.append(random_zp_form(rng, k, max_rank=4))
    e8 = witt.witt_group(standard("Q+")).representatives[0]
    cases += [e8, qf.negate(e8)]
    signatures = set()
    for f in cases:
        cls = witt.witt_class(f)
        assert cls.signature == qf.signature_of_matrix(f.lambda_matrix)
        assert witt.gw_class(f).rank == f.rank
        signatures.add(cls.signature)
        with pytest.raises(ValueError, match="parities"):
            witt.GWClass(f.rank + 1, cls)
    assert {8, -8, 1, -1} <= signatures
    with pytest.raises(ValueError, match="symmetric"):
        witt.witt_class(arf1()).signature


def test_structure_snfs_go_through_the_installed_class(monkeypatch):
    """witt_group and present build every SNF through `_intmat.SNF` as it
    is at call time, and every entry-growing Smith step through its
    `_add_row` / `_add_col`: the benchmark's multiplier limit installs a
    subclass there and wraps exactly these two.  The pinned counts are those
    of a Smith form that scans for divisibility after every pivot, so they
    also show that skipping the scan at a unit pivot changes no step."""
    from qwitt import _intmat, formparam

    base = _intmat.SNF
    counts = {"built": 0, "guarded": 0, "rows": 0, "cols": 0}
    base_init = base.__init__

    def counted_init(self, mat, keep):
        counts["built"] += 1
        base_init(self, mat, keep)

    class Counting(base):
        __slots__ = ()

        def __init__(self, mat, keep):
            counts["guarded"] += 1
            super().__init__(mat, keep)

        def _add_row(self, a, src, dst, c):
            counts["rows"] += 1
            base._add_row(self, a, src, dst, c)

        def _add_col(self, a, src, dst, c):
            counts["cols"] += 1
            base._add_col(self, a, src, dst, c)

    for module in (formparam, qtensor, witt):
        for obj in vars(module).values():
            if hasattr(obj, "cache_clear"):
                obj.cache_clear()
    monkeypatch.setattr(base, "__init__", counted_init)
    monkeypatch.setattr(_intmat, "SNF", Counting)
    rng = random.Random(41)
    groups = [FinAbGroup(o) for o in ((2,), (4, 0), (3, 8), (0, 0), (2, 2, 4), (6,))]
    for g in groups:
        p = random_form_parameter(rng, max_torsion=16, max_free=2)
        witt.witt_group(p)
        present(g, p)
    assert counts["guarded"] == counts["built"]
    assert counts == {"built": 50, "guarded": 50, "rows": 78, "cols": 213}
