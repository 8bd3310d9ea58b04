"""The acceptance suite: eleven exactly-checked criteria.

Each criterion function returns (ok, detail).  `run_all` executes every
criterion with a seeded generator and reports one line per criterion; the
CLI verb `verify-suite` and tests/test_acceptance.py both drive it.

Each check is stated once.  Criteria 2 and 9 take their parameters from one
list of (kind, level) pairs, `_standard_kinds`, and build each parameter
from its pair.  Table 1 is one formula per kind (`_table1_orders`), which
also holds at n = 0, where Z_0 is Z.  Criterion 4 is one table of (label,
morphism, expected matrix).  Criterion 6 computes each structure diagram
once and reads the corner orders off its reports.  The suite takes no
private name from another module, except `witt._omega_data` in criterion
11: no public function returns the sigma and omega-hat^2 that the mod-8
congruence compares.
"""

from __future__ import annotations

import random
import time
from math import gcd
from typing import Callable, Dict, List, Optional, Tuple

from . import qform as qf
from . import witt
from .abelian import FinAbGroup, is_kernel, subgroup, subgroup_equal, tensor
from .formparam import aut_generators, quasi_wu, split_sum, standard, standard_morphism
from .qtensor import present
from .sampling import (
    random_form_parameter,
    random_nonsingular_form,
    random_tensor_element,
    random_zp_form,
)

DEFAULT_SEED = 20240801


def _cyclic(n: int) -> FinAbGroup:
    if n == 0:
        return FinAbGroup((0,))
    return FinAbGroup(()) if n == 1 else FinAbGroup((n,))


def _standard_kinds(kmax: int = 6) -> List[Tuple[str, Optional[int]]]:
    """(kind, level) of the standard indecomposables with levels up to kmax."""
    out = [(kind, None) for kind in ("Q+", "ZP", "Q^+", "Q-", "Q^-")]
    out += [("ZP_k", k) for k in range(1, kmax + 1)]
    return out + [("ZL_k", k) for k in range(2, kmax + 1)]


def criterion_1_indecomposable_witt_groups(rng) -> Tuple[bool, str]:
    """W0 of every indecomposable parameter, exact canonical forms."""
    cases = [("Q+", (0,)), ("ZP", (0, 0)), ("Q^+", (0,)), ("Q-", (2,)), ("Q^-", ())]
    cases += [(f"ZP_{k}", (0,) if k == 1 else (2 ** (k - 1), 0)) for k in range(1, 7)]
    cases += [(f"ZL_{k}", ()) for k in range(2, 7)]
    bad = []
    for name, expect in cases:
        got = witt.witt_group(standard(name)).canonical_orders()
        if got != expect:
            bad.append(f"{name}: {got} != {expect}")
    return not bad, "; ".join(bad) or f"{len(cases)} groups exact"


def _table1_orders(kind: str, k: Optional[int], n: int) -> Tuple[int, ...]:
    """Z_n (x) Q by Table 1, Z_0 being Z: as gcd(0, m) = m, each formula
    holds at n = 0 too."""
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


def criterion_2_table1(rng) -> Tuple[bool, str]:
    """Z_n (x) Q against the closed forms (n <= 16), and the two-variable
    direct-sum decomposition for cyclic pairs of order <= 12."""
    bad = []
    count = 0
    for kind, k in _standard_kinds():
        q = standard(kind, k)
        for n in range(0, 17):
            got = present(_cyclic(n), q).group.canonical_orders()
            expect = _table1_orders(kind, k, n)
            count += 1
            if got != expect:
                bad.append(f"{kind}[{k}] n={n}: {got} != {expect}")
    for kind, k in _standard_kinds(kmax=3):
        q = standard(kind, k)
        for n1 in range(1, 13):
            for n2 in range(n1, 13):
                g1, g2 = _cyclic(n1), _cyclic(n2)
                whole = present(
                    FinAbGroup(g1.orders + g2.orders), q
                ).group.canonical_orders()
                parts = (
                    present(g1, q).group.canonical_orders()
                    + present(g2, q).group.canonical_orders()
                    + tensor(g1, g2).canonical_orders()
                )
                expect = FinAbGroup(parts).canonical_orders()
                count += 1
                if whole != expect:
                    bad.append(f"({n1},{n2})x{q}: {whole} != {expect}")
    return not bad, "; ".join(bad[:4]) or f"{count} tensor values exact"


def criterion_3_split_examples(rng) -> Tuple[bool, str]:
    """W0(Q +- Z_l) for the four classical parameters, with the documented
    generator forms hitting generators of the torsion summand."""
    bad = []
    for l in range(1, 13):
        g = _cyclic(l)
        dbar = 2 if l % 2 == 0 else 1
        delta = dbar * l
        # (family, expected orders of W0, lambda and mu rows of the generator
        # form of the torsion summand); the form is checked where W0 has
        # that summand, that is where two orders are expected
        table = [
            ("Q+", (0,) if l == 1 else (l, 0), [[0, 1], [1, 0]], [(0, 1), (0, 1)]),
            ("Q^+", (0,) if delta == 1 else (delta, 0), [[1, 0], [0, -1]], [(1, 0), (-1, 1)]),
            ("Q-", (2,) if dbar == 1 else (2, 2), [[0, 1], [-1, 0]], [(0, 1), (0, 1)]),
            ("Q^-", (), None, None),
        ]
        for name, expect, lam, mus in table:
            p = split_sum(standard(name), g)
            d = witt.witt_group(p)
            if d.canonical_orders() != expect:
                bad.append(f"W0({name}+Z_{l}) = {d.canonical_orders()}, expected {expect}")
                continue
            if len(expect) < 2:
                continue
            cls = witt.witt_class(qf.QForm(p, lam, [p.carrier.element(m) for m in mus]))
            if any(cls.coords[: d.n_indec]):
                bad.append(f"{name}+Z_{l}: generator form has nonzero indecomposable part")
                continue
            tgrp = FinAbGroup(d.orders[d.n_indec:])
            sub, _ = subgroup(tgrp, [tgrp.element(cls.coords[d.n_indec:])])
            if sub.canonical_orders() != tgrp.canonical_orders():
                bad.append(f"{name}+Z_{l}: listed form does not generate the torsion summand")
    return not bad, "; ".join(bad[:4]) or "l = 1..12 exact with generators"


def criterion_4_induced_maps(rng) -> Tuple[bool, str]:
    """The induced-map matrices of the Witt functor on the ZP family."""
    # (label, morphism, expected matrix of W0); the matrix of ZP_k -> ZP_l
    # with parameter n is taken mod 2^(l-1), and gamma_k acts as n = 1 does
    cases = [("Q+ -> ZP", standard_morphism("Q+", "ZP"), ((8,), (1,)))]
    arrows = [
        (f"ZP_{k}", f"ZP_{l}", 2 ** (l - 1)) for k, l in [(3, 2), (4, 2), (4, 3), (5, 3), (3, 3)]
    ]
    for src, dst, mod in arrows + [("ZP", "ZP", None)]:
        for n in range(-2, 3):
            row = (-n * (n + 1) // 2, (2 * n + 1) ** 2)
            expect = ((1, 0), tuple(x % mod for x in row) if mod else row)
            cases.append((f"{src} -> {dst}, n={n}", standard_morphism(src, dst, n), expect))
    cases.append(("beta", aut_generators(standard("ZP"))[0], ((1, 0), (0, 1))))
    for k in (2, 3, 4):
        beta_k, gamma_k = aut_generators(standard(f"ZP_{k}"))
        mod = 2 ** (k - 1)
        cases.append((f"beta_{k}", beta_k, ((1, 0), (0, 1))))
        cases.append((f"gamma_{k}", gamma_k, ((1, 0), (-1 % mod, 9 % mod))))
    bad = []
    for label, f, expect in cases:
        got = witt.induced_witt_map(f).matrix
        if got != expect:
            bad.append(f"{label}: {got} != {expect}")
    return not bad, "; ".join(bad[:4]) or f"{len(cases)} matrices exact"


def criterion_5_natural_description(rng) -> Tuple[bool, str]:
    """Sigma(v_P) / Lambda(v'_P) against witt_group on random parameters,
    plus the image and kernel identities as subgroup equalities."""
    bad = []
    for i in range(25):
        p = random_form_parameter(rng, max_torsion=16, max_free=2)
        d = witt.witt_group(p)
        if p.is_symmetric:
            sig = witt.sigma_subgroup(quasi_wu(p))
            if sig.group.canonical_orders() != d.canonical_orders():
                bad.append(f"#{i}: Sigma mismatch")
                continue
            e = witt.es_witt_hom(p)
            if not subgroup_equal(sig.ambient, e.columns(), list(sig.generators)):
                bad.append(f"#{i}: Im(es) != Sigma(v)")
            if not e.is_injective():
                bad.append(f"#{i}: es not injective")
        else:
            lq = witt.lambda_quotient(quasi_wu(p))
            if lq.group.canonical_orders() != d.canonical_orders():
                bad.append(f"#{i}: Lambda mismatch")
                continue
            nmap = witt.eql_witt_hom(p)
            if not nmap.is_surjective():
                bad.append(f"#{i}: eql not surjective")
            if not is_kernel(nmap, lq.k_generators):
                bad.append(f"#{i}: Ker(eql) != K(v')")
    return not bad, "; ".join(bad[:4]) or "25 random parameters exact"


def criterion_6_diagrams(rng) -> Tuple[bool, str]:
    """Exactness and commutativity of the two structure diagrams, plus the
    order of the corner group: Z4 exactly for a unit slice of order two."""
    slices = [quasi_wu(standard(n)) for n in ("Q+", "ZP", "Q^+")]
    slices += [quasi_wu(standard("ZP_k", k)) for k in (1, 2, 3)]
    coslices = [quasi_wu(standard(n)) for n in ("Q-", "Q^-")]
    coslices += [quasi_wu(standard("ZL_k", k)) for k in (2, 3)]
    for _ in range(10):
        p = random_form_parameter(rng, max_torsion=8, max_free=1)
        (slices if p.is_symmetric else coslices).append(quasi_wu(p))
    sigma = [witt.sigma_diagram(v) for v in slices]
    lam = [witt.lambda_diagram(vp) for vp in coslices]
    bad = [f"sigma diagram failed: {rep}" for rep in sigma if not rep["ok"]]
    bad += [f"lambda diagram failed: {rep}" for rep in lam if not rep["ok"]]
    # the corner groups, read off the reports above where the loop has one:
    # sigma[0] is Q+ (v = 0) and sigma[4] is ZP_2 (v = 1_3)
    unit_g = witt.sigma_diagram(quasi_wu(split_sum(standard("Q^+"), FinAbGroup((6,)))))
    corners = [
        (unit_g, (4,), "C(1_1 + G) != Z4"),
        (sigma[0], (8,), "C(0) != Z8"),
        (sigma[4], (8,), "C(1_3) != Z8"),
    ]
    bad += [text for rep, orders, text in corners if rep["c_orders"] != orders]
    return not bad, "; ".join(bad[:3]) or f"{len(slices)}+{len(coslices)} diagrams verified"


def criterion_7_f_gamma_roundtrip(rng) -> Tuple[bool, str]:
    """F after gamma is the identity on 200 random tensor elements."""
    bad = 0
    splits = []
    for _ in range(10):
        q0 = standard(rng.choice(
            ["Q+", "Q^+", "ZP", "ZP_2", "Q-", "ZL_2", "Q^-", "ZP_1", "ZL_3", "Q-"]
        ))
        comp = FinAbGroup(rng.choice([(2,), (3,), (4,), (2, 2), (0,), (6,), (0, 2)]))
        splits.append((q0, comp))
    total = 0
    for q0, comp in splits:
        pres = present(comp, q0)
        for _ in range(20):
            t = random_tensor_element(rng, pres)
            form = witt.form_from_tensor(pres, t)
            back = witt.tensor_invariant(form, pres)
            total += 1
            if back.coords != t.coords:
                bad += 1
    return bad == 0, f"{total} round trips, {bad} failures"


def criterion_8_stably_metabolic_witness(rng) -> Tuple[bool, str]:
    """The Arf-1 form pushed into the level-2 anti-symmetric parameter is
    Witt-trivial but carries a certified metabolicity obstruction."""
    qm = standard("Q-")
    arf1 = qf.QForm(
        qm, [[0, 1], [-1, 0]], [qm.carrier.element((1,)), qm.carrier.element((1,))]
    )
    pushed = qf.pushforward(arf1, standard_morphism("Q-", "ZL_2"))
    issues = []
    if not witt.witt_class(pushed).is_zero:
        issues.append("pushed form is not Witt-trivial")
    # the search tries bounds 1..5 in turn and ends "within the bound" only
    # after the whole box at 5 held no lagrangian
    raw = qf.metabolic_search(pushed, bound=5, use_obstructions=False)
    if raw.reason != "no lagrangian with coordinates within the bound":
        issues.append(f"raw search through bound 5: {raw.status} ({raw.reason})")
    verdict = qf.metabolic_search(pushed, bound=5)
    if verdict.status != "no" or "Arf" not in verdict.reason:
        issues.append(f"obstruction verdict: {verdict.status} ({verdict.reason})")
    return not issues, "; ".join(issues) or "witness exact (no lagrangian through bound 5, Arf-certified)"


def criterion_9_gw(rng) -> Tuple[bool, str]:
    """GW0(Q) = 2Z + W0(Q) and the parity of (rank, class) images."""
    bad = []
    for kind, k in _standard_kinds(kmax=3):
        q = standard(kind, k)
        d = witt.gw_group(q)
        expect = FinAbGroup((0,) + witt.witt_group(q).orders).canonical_orders()
        if d["canonical_orders"] != expect:
            bad.append(f"gw_group({q}) wrong")
    count = 0
    for symmetric in (True, False):
        done = 0
        while done < 100:
            p = random_form_parameter(rng, symmetric=symmetric, max_torsion=8, max_free=1)
            f = random_nonsingular_form(rng, p, max_rank=4)
            if f.rank == 0:
                continue
            done += 1
            count += 1
            g = witt.gw_class(f)  # validates the parity constraint
            if symmetric:
                if (f.rank - witt.signature(f)) % 2:
                    bad.append("parity violated")
            elif f.rank % 2:
                bad.append("odd rank anti-symmetric form")
    return not bad, "; ".join(bad[:3]) or f"{count} forms respect the parity constraint"


def _battery(p) -> List[qf.QForm]:
    qs = [p.carrier.zero(), p.p_one] + p.carrier.gens()
    seen = set()
    out = []
    eps = p.symmetry
    for qv in qs:
        if qv.coords in seen:
            continue
        seen.add(qv.coords)
        out.append(
            qf.QForm(
                p,
                [[0, 1], [eps, p.h_of(qv)]],
                [p.carrier.zero(), qv],
            )
        )
    return out


def absorbing_oracle(
    f: qf.QForm, bound: int = 3, node_budget: int = 1_500_000
) -> Optional[bool]:
    """Brute-force absorption test: every rank-2 metabolic battery form
    must embed into at most three orthogonal copies of f, with all
    embedding coefficients bounded.

    A verified witness from the direct (x, -x, 0) construction, which uses
    three copies, counts when its entries respect the bound;
    otherwise the bounded column searches decide.  Three-valued: True when
    every battery form embeds; False when one does not, every search for
    it having ended in a certified "no" or a complete box search; None when
    neither holds because a search ran out of its node budget.
    """
    limited = False
    for eta in _battery(f.parameter):
        outs = [qf.embedding_search(eta, f, bound, node_budget)]
        if not outs[0].found:
            emb = qf.try_rank2_embedding(f, eta, bound, node_budget)
            if emb is not None and all(
                abs(x) <= bound for row in emb.matrix for x in row
            ):
                continue
        target = f
        while not outs[-1].found and len(outs) < 3:
            target = qf.direct_sum(target, f)
            outs.append(qf.embedding_search(eta, target, bound, node_budget))
        if outs[-1].found:
            continue
        if any(o.reason == qf.BUDGET_EXHAUSTED for o in outs):
            limited = True
        else:
            return False
    return None if limited else True


def criterion_10_absorbing(rng) -> Tuple[bool, str]:
    """is_absorbing against the bounded brute-force embedding oracle, and
    verified constructive embeddings for the absorbing forms.  A form the
    oracle leaves budget-limited is counted apart and fails the criterion:
    it never counts as agreement."""
    params = [
        standard("Q^+"),
        standard("Q-"),
        split_sum(standard("Q^+"), FinAbGroup((2,))),
        split_sum(standard("Q-"), FinAbGroup((3,))),
        standard("ZL_2"),
    ]
    bad = []
    forms = 0
    limited = 0
    embeddings = 0
    i = 0
    while forms < 30:
        p = params[i % len(params)]
        i += 1
        f = random_nonsingular_form(rng, p, max_rank=4, scramble=False)
        if f.rank == 0:
            continue
        forms += 1
        predicted = qf.is_absorbing(f)
        oracle = absorbing_oracle(f)
        if oracle is None:
            limited += 1
        elif predicted != oracle:
            bad.append(
                f"disagreement on rank-{f.rank} form over {p.carrier}: "
                f"predicate={predicted}, oracle={oracle}"
            )
        if predicted:
            for eta in _battery(p):
                emb = qf.absorb_embed(f, eta)  # validates the pullback
                pulled = qf.pullback(emb.target, emb.matrix)
                if not qf.isometry_verify(eta, pulled, [[1, 0], [0, 1]]):
                    bad.append("absorb_embed pullback failed isometry_verify")
                embeddings += 1
    if limited:
        bad.append(f"{limited} of {forms} forms left budget-limited by the oracle")
    return (
        not bad,
        "; ".join(bad[:3])
        or f"{forms} forms agree with the oracle (0 budget-limited), "
        f"{embeddings} embeddings verified",
    )


def criterion_11_rho(rng) -> Tuple[bool, str]:
    """Lift-independence of rho and sigma = omega-hat^2 mod 8."""
    bad = []
    for i in range(100):
        k = rng.choice([None, 1, 2, 3, 4, 5, 6])
        f = random_zp_form(rng, k, max_rank=6)
        sig, osq, _ = witt._omega_data(f)
        if (sig - osq) % 8:
            bad.append(f"#{i}: sigma != omega^2 mod 8")
            continue
        shift = [rng.randint(-3, 3) for _ in range(f.rank)]
        if witt.signature_defect(f) != witt.signature_defect(f, shift=shift):
            bad.append(f"#{i}: rho depends on the lift")
    return not bad, "; ".join(bad[:3]) or "100 forms, congruence and lift-independence exact"


CRITERIA: List[Tuple[str, Callable]] = [
    ("1 indecomposable Witt groups", criterion_1_indecomposable_witt_groups),
    ("2 quadratic tensor table", criterion_2_table1),
    ("3 split-parameter examples", criterion_3_split_examples),
    ("4 induced-map matrices", criterion_4_induced_maps),
    ("5 natural description", criterion_5_natural_description),
    ("6 structure diagrams", criterion_6_diagrams),
    ("7 F/gamma round trip", criterion_7_f_gamma_roundtrip),
    ("8 stably-metabolic witness", criterion_8_stably_metabolic_witness),
    ("9 Grothendieck-Witt", criterion_9_gw),
    ("10 absorbing forms", criterion_10_absorbing),
    ("11 rho well-definedness", criterion_11_rho),
]


def run_all(seed: int = DEFAULT_SEED, verbose: bool = True) -> Dict[str, dict]:
    results: Dict[str, dict] = {}
    for name, fn in CRITERIA:
        rng = random.Random(seed)
        t0 = time.perf_counter()
        try:
            ok, detail = fn(rng)
        except Exception as exc:  # a crash is a failure with the exception named
            ok, detail = False, f"exception: {exc!r}"
        dt = time.perf_counter() - t0
        results[name] = {"ok": ok, "detail": detail, "seconds": round(dt, 2)}
        if verbose:
            status = "PASS" if ok else "FAIL"
            print(f"[{status}] {name:<32} {dt:7.2f}s  {detail}")
    return results
