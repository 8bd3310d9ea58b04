"""Seeded random generators for groups, parameters, morphisms and forms.

Used by the property tests and the acceptance driver; everything is driven
by an explicit random.Random so runs are reproducible from a seed.
"""

from __future__ import annotations

import random
from math import gcd
from typing import List, Optional

from . import _intmat, witt
from .abelian import AbHom, FinAbGroup
from .formparam import (
    FormParameter,
    FPMorphism,
    aut_generators,
    split_sum,
    standard,
    standard_morphism,
)
from .qform import QForm, direct_sum, full_metabolic, hyperbolic, negate, pullback

STANDARD_POOL = (
    ["Q+", "Q^+", "Q-", "Q^-", "ZP"]
    + [f"ZP_{k}" for k in (1, 2, 3)]
    + [f"ZL_{k}" for k in (2, 3)]
)


def random_group(
    rng: random.Random, max_torsion: int = 16, max_free: int = 2
) -> FinAbGroup:
    orders: List[int] = []
    budget = max_torsion
    while budget >= 2 and rng.random() < 0.7:
        n = rng.choice([2, 2, 3, 4, 4, 5, 8])
        if n > budget:
            break
        orders.append(n)
        budget //= n
    orders += [0] * rng.randint(0, max_free)
    rng.shuffle(orders)
    return FinAbGroup(orders)


def random_automorphism(rng: random.Random, group: FinAbGroup) -> AbHom:
    n = group.ngens
    if n == 0:
        return AbHom.identity(group)
    mat = _intmat.identity(n)
    for _ in range(3 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        ni, nj = group.orders[i], group.orders[j]
        if ni == 0 and nj != 0:
            continue  # a free generator cannot feed a torsion one
        c = rng.randint(-2, 2)
        if ni and nj:
            c *= ni // gcd(ni, nj)
        if c == 0:
            continue
        # column op: gen_j image += c * gen_i
        for r in range(n):
            mat[r][j] += c * mat[r][i]
    # unit scalings on torsion factors
    for i, ni in enumerate(group.orders):
        if ni > 2 and rng.random() < 0.3:
            u = rng.choice([u for u in range(1, ni) if gcd(u, ni) == 1])
            for r in range(n):
                mat[r][i] *= u
    hom = AbHom(group, group, mat)
    if not hom.is_isomorphism():
        return AbHom.identity(group)
    return hom


def random_form_parameter(
    rng: random.Random,
    symmetric: Optional[bool] = None,
    max_torsion: int = 16,
    max_free: int = 2,
) -> FormParameter:
    """A scrambled split parameter: standard + group, conjugated by a
    random carrier automorphism."""
    while True:
        name = rng.choice(STANDARD_POOL)
        q = standard(name)
        if symmetric is not None and q.is_symmetric != symmetric:
            continue
        break
    g = random_group(rng, max_torsion=max_torsion, max_free=max_free)
    p = split_sum(q, g)
    theta = random_automorphism(rng, p.carrier)
    theta_inv = theta.inverse()
    h = p.h.compose(theta_inv)
    return FormParameter(p.carrier, h, theta(p.p_one))


def random_morphism(rng: random.Random) -> FPMorphism:
    """A valid morphism between (possibly scrambled) parameters."""
    kind = rng.randrange(3)
    if kind == 0:
        pairs = [
            ("Q+", "ZP", 0),
            ("ZP", "ZP_3", rng.randint(-2, 2)),
            ("ZP_3", "ZP_2", rng.randint(-2, 2)),
            ("ZP_2", "ZP_1", rng.randint(-1, 1)),
            ("ZP_1", "Q^+", 0),
            ("Q-", "ZL_2", 0),
            ("ZL_2", "ZL_3", 0),
            ("ZL_3", "Q^-", 0),
        ]
        a, b, n = rng.choice(pairs)
        alpha = standard_morphism(a, b, n)
    elif kind == 1:
        p = random_form_parameter(rng, max_torsion=8, max_free=1)
        alpha = FPMorphism.identity(p)
    else:
        q = standard(rng.choice(STANDARD_POOL))
        auts = aut_generators(q)
        alpha = rng.choice(auts) if auts else FPMorphism.identity(q)
    # scramble both ends by automorphisms of the carriers
    src, dst = alpha.source, alpha.target
    ts = random_automorphism(rng, src.carrier)
    td = random_automorphism(rng, dst.carrier)
    new_src = FormParameter(
        src.carrier, src.h.compose(ts.inverse()), ts(src.p_one)
    )
    new_dst = FormParameter(
        dst.carrier, dst.h.compose(td.inverse()), td(dst.p_one)
    )
    carrier = td.compose(alpha.map).compose(ts.inverse())
    return FPMorphism(new_src, new_dst, carrier)


def random_unimodular(rng: random.Random, n: int, ops: int = 6) -> List[List[int]]:
    mat = _intmat.identity(n)
    for _ in range(ops):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        c = rng.randint(-1, 1)
        for r in range(n):
            mat[r][j] += c * mat[r][i]
    if n and rng.random() < 0.5:
        i = rng.randrange(n)
        for r in range(n):
            mat[r][i] = -mat[r][i]
    return mat


def _block_pool(p: FormParameter) -> List[QForm]:
    pool = [hyperbolic(p, 1)]
    fm = full_metabolic(p)
    if fm.rank <= 4:
        pool.append(fm)
    desc = witt.witt_group(p)
    for rep in desc.representatives:
        if 0 < rep.rank <= 2:
            pool.append(rep)
            pool.append(negate(rep))
    return pool


def random_nonsingular_form(
    rng: random.Random,
    p: FormParameter,
    max_rank: int = 4,
    scramble: bool = True,
) -> QForm:
    """A random nonsingular form: block sum from a library, then a small
    unimodular change of basis."""
    pool = _block_pool(p)
    pool = [b for b in pool if b.rank <= max_rank]
    if not pool:
        return hyperbolic(p, 0)
    out = QForm(p, [], [])
    guard = 0
    while out.rank == 0 or (rng.random() < 0.5 and guard < 8):
        guard += 1
        fits = [b for b in pool if out.rank + b.rank <= max_rank]
        if not fits:
            break
        out = direct_sum(out, rng.choice(fits))
    if scramble and out.rank:
        b = random_unimodular(rng, out.rank, ops=4)
        out = pullback(out, b)
    return out


def random_zp_form(
    rng: random.Random, k: Optional[int], max_rank: int = 6
) -> QForm:
    """A random nonsingular form over ZP (k None) or ZP_k.

    The bilinear part is a unimodular congruate of diag(+-1); the second
    mu coordinate is free, so any such matrix refines.
    """
    q = standard("ZP") if k is None else standard("ZP_k", k)
    n = rng.randint(1, max_rank)
    d = [rng.choice([1, -1]) for _ in range(n)]
    b = random_unimodular(rng, n, ops=6)
    mat = [
        [
            sum(b[t][i] * d[t] * b[t][j] for t in range(n))
            for j in range(n)
        ]
        for i in range(n)
    ]
    mus = []
    mod = 0 if k is None else 2**k
    for i in range(n):
        t = rng.randint(-4, 4) if mod == 0 else rng.randrange(mod)
        mus.append(q.carrier.element((mat[i][i], t)))
    return QForm(q, mat, mus)


def random_tensor_element(rng: random.Random, pres):
    coords = []
    for o in pres.group.orders:
        coords.append(rng.randrange(o) if o else rng.randint(-3, 3))
    return pres.group.element(coords)
