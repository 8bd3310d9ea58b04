"""Seeded input generation for the qwitt benchmark.

Writes one JSON document per (workload, seed): a list of requests whose
payloads follow the `qwitt` CLI schema.  Scrambled parameters are written in
the raw ``{"carrier", "h", "pOne"}`` form and forms as ``{"lambda", "mu"}``,
so the timed process rebuilds every object from JSON with
``qwitt.cli.parse_parameter`` / ``parse_form`` and never sees the objects the
generator built.  Generation runs in its own process because it calls
``witt_group`` (through ``random_nonsingular_form``) and would otherwise
leave the timed process with warm ``lru_cache``s.

    python3 perfbench/gen.py --workload decide --seed 1 --out inputs.json
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import random
import sys
from pathlib import Path

# Fixed per-query search settings of the decide workload.  At this budget a
# 30 s run gets through well over a thousand queries, so its percentiles are
# steady, and about half of the queries still exhaust the budget and go on
# with budget-1 kernel calls.
DECIDE_BOUND = 3
DECIDE_BUDGET = 2_000

# Search verbs of the cli workload use a small box so that process start and
# import, not the search, dominate.
CLI_BOUND = 2

# Requests generated when gen.py runs on its own (run.py passes --count,
# sized from --seconds); one per verb for the CLI probe of a traced run.
COUNTS = {"decide": 3000, "structure": 12000, "cli": 11}

# An SNF row or column operation whose multiplier is longer than this many
# bits marks runaway coefficient growth in generation.  In witt_group of 4350
# parameters (seeds 1, 2 and 605) one multiplier had 1003 bits and all others
# fewer than 30; the one blow-up among them (seed 605) passed 360000 bits
# within 3 s, while its SNF inputs had no entry longer than 32 bits.
GEN_MAX_SNF_BITS = 4096

# The parameters of acceptance criterion 10, as CLI payloads.
CRITERION10_PARAMS = [
    "Q^+",
    "Q-",
    {"name": "Q^+", "sum": [2]},
    {"name": "Q-", "sum": [3]},
    "ZL_2",
]

CLI_VERBS = [
    "classify",
    "split",
    "witt-class",
    "witt-group",
    "gw-group",
    "tensor",
    "induced-map",
    "metabolic",
    "isometric",
    "absorbing",
    "embed",
]


def param_payload(p) -> dict:
    return {
        "carrier": {"orders": list(p.carrier.orders)},
        "h": list(p.h.matrix[0]),
        "pOne": list(p.p_one.coords),
    }


def form_payload(f) -> dict:
    return {
        "lambda": [list(r) for r in f.lambda_matrix],
        "mu": [list(m.coords) for m in f.mu_basis],
    }


def _nonzero_form(rng, p, max_rank=4):
    from qwitt.sampling import random_nonsingular_form

    while True:
        f = random_nonsingular_form(rng, p, max_rank=max_rank)
        if f.rank:
            return f


class CoefficientBlowup(BaseException):
    """An SNF multiplier over the bit limit; a BaseException so that no
    `except Exception` in the library swallows it."""


@contextlib.contextmanager
def snf_bit_limit(bits: int):
    """Make every SNF of the library raise CoefficientBlowup at a row or
    column operation whose multiplier is longer than `bits` bits.  All SNFs
    go through `_intmat.SNF`, and every operation that can grow its entries
    through its `_add_row` / `_add_col`."""
    from qwitt import _intmat

    snf = _intmat.SNF

    def check(c):
        if abs(c).bit_length() > bits:
            raise CoefficientBlowup()

    class Guarded(snf):
        __slots__ = ()

        def _add_row(self, a, src, dst, c):
            check(c)
            snf._add_row(self, a, src, dst, c)

        def _add_col(self, a, src, dst, c):
            check(c)
            snf._add_col(self, a, src, dst, c)

    _intmat.SNF = Guarded
    try:
        yield
    finally:
        _intmat.SNF = snf


def _structure_forms(rng, p):
    """Two random nonsingular forms over a scrambled parameter.

    The library's sampler needs witt_group(p) for its block pool.  When that
    meets the SNF coefficient blow-up, the two forms are scrambled
    hyperbolic forms instead, so generation stays bounded; the timed run
    still meets the blow-up, through witt_class.  The choice depends only on
    the SNF's arithmetic, never on timing, so a seed always gives the same
    file."""
    from qwitt.qform import hyperbolic, pullback
    from qwitt.sampling import random_unimodular
    from qwitt.witt import witt_group

    try:
        with snf_bit_limit(GEN_MAX_SNF_BITS):
            witt_group(p)
    except CoefficientBlowup:
        blocks = [hyperbolic(p, 1), hyperbolic(p, 2)]
        return [pullback(b, random_unimodular(rng, b.rank, ops=4)) for b in blocks]
    return [_nonzero_form(rng, p), _nonzero_form(rng, p)]


def _absorbing_form(rng, p):
    from qwitt.qform import is_absorbing

    while True:
        f = _nonzero_form(rng, p)
        if is_absorbing(f):
            return f


def _cells(p):
    """Block pool of `p` and every block composition of rank <= 4."""
    from qwitt.sampling import _block_pool

    pool = [b for b in _block_pool(p) if b.rank <= 4]
    cells = []
    for r in range(1, 5):
        for c in itertools.combinations_with_replacement(range(len(pool)), r):
            if sum(pool[i].rank for i in c) <= 4:
                cells.append(c)
    return pool, cells


def gen_decide(seed: int, count: int) -> list:
    """Bounded search queries on random nonsingular forms of rank <= 4.

    A form is a sum of blocks from the library's block pool, scrambled by a
    seeded random unimodular change of basis (as `random_nonsingular_form`
    builds them).  Query cost depends mostly on the block composition and
    the battery form, so these are stratified: every run walks all
    (parameter, composition, battery form) cells in one fixed order, and the
    seed draws the scrambles and the isometric partner.  Any two seeds then
    put the same mix of cells into runs of equal length.
    """
    from qwitt.acceptance import _battery
    from qwitt.cli import parse_parameter
    from qwitt.qform import QForm, direct_sum, is_absorbing, pullback
    from qwitt.sampling import random_unimodular

    rng = random.Random(seed)
    schedule = []
    for pl in CRITERION10_PARAMS:
        p = parse_parameter(pl)
        pool, cells = _cells(p)
        schedule += [(pl, p, [pool[i] for i in c], eta) for c in cells for eta in _battery(p)]
    random.Random("decide-cells").shuffle(schedule)
    common = {"bound": DECIDE_BOUND, "budget": DECIDE_BUDGET}
    out: list = []
    for i in itertools.count():
        if len(out) >= count:
            break
        pl, p, blocks, eta = schedule[i % len(schedule)]
        f0 = QForm(p, [], [])
        for b in blocks:
            f0 = direct_sum(f0, b)
        f = pullback(f0, random_unimodular(rng, f0.rank, ops=4))
        g = pullback(f, random_unimodular(rng, f.rank, ops=4))
        fp, ep = form_payload(f), form_payload(eta)
        out.append({"op": "metabolic", "payload": {"param": pl, "form": fp}, **common})
        out.append({
            "op": "isometric",
            "payload": {"param": pl, "form1": fp, "form2": form_payload(g)},
            **common,
        })
        out.append({"op": "embed-search", "payload": {"param": pl, "form": fp, "eta": ep}, **common})
        out.append({
            "op": "embed-search",
            "payload": {"param": pl, "form": form_payload(direct_sum(f, f)), "eta": ep},
            **common,
        })
        if is_absorbing(f):
            out.append({"op": "embed", "payload": {"param": pl, "form": fp, "eta": ep}, **common})
    return out[:count]


def gen_structure(seed: int, count: int) -> list:
    """Non-search requests on scrambled random parameters.

    Parameters come from their own stream, ``random.Random(seed)``, exactly
    as ``random_form_parameter`` draws them one after another; groups, forms
    and morphisms come from a second stream.
    """
    from qwitt.abelian import FinAbGroup
    from qwitt.qform import direct_sum, negate, pullback
    from qwitt.sampling import (
        random_form_parameter,
        random_morphism,
        random_unimodular,
    )

    prng = random.Random(seed)
    rng = random.Random(f"{seed}/structure")
    out: list = []
    group = 0
    while len(out) < count:
        p = random_form_parameter(prng, max_torsion=16, max_free=2)
        pl = param_payload(p)
        # a pair of cyclic groups of order <= 12 (0 is Z), as in the
        # two-summand decomposition of acceptance criterion 2
        g1, g2 = (FinAbGroup(() if n == 1 else (n,)) for n in (rng.randrange(13), rng.randrange(13)))
        f, g = _structure_forms(rng, p)
        u = random_unimodular(rng, f.rank, ops=4)
        alpha = random_morphism(rng)

        def req(op, payload, role=None, **extra):
            r = {"op": op, "payload": payload, "group": group}
            if role:
                r["role"] = role
            r.update(extra)
            out.append(r)

        req("classify", {"param": pl})
        req("split", {"param": pl})
        req("witt-group", {"param": pl})
        req("gw-group", {"param": pl})
        req("tensor", {"G": list(g1.orders) + list(g2.orders), "Q": pl}, split=len(g1.orders))
        req("natural", {"param": pl})
        forms = {
            "f": f,
            "g": g,
            "f+g": direct_sum(f, g),
            "f-f": direct_sum(f, negate(f)),
            "uf": pullback(f, u),
        }
        for role, form in forms.items():
            req("witt-class", {"param": pl, "form": form_payload(form)}, role)
        for role in ("f", "g", "f+g"):
            req("gw-class", {"param": pl, "form": form_payload(forms[role])}, role)
        req("induced-map", {
            "source": param_payload(alpha.source),
            "target": param_payload(alpha.target),
            "matrix": [list(r) for r in alpha.map.matrix],
        })
        group += 1
    return out


def gen_cli(seed: int, count: int) -> list:
    """One request per verb in turn, with small inputs."""
    from qwitt.acceptance import _battery
    from qwitt.cli import parse_parameter
    from qwitt.qform import pullback
    from qwitt.sampling import random_morphism, random_unimodular

    rng = random.Random(seed)
    named = ["Q+", "Q^+", "Q-", "Q^-", "ZP", "ZP_1", "ZP_2", "ZL_2", "ZL_3"]
    out: list = []
    while len(out) < count:
        for verb in CLI_VERBS:
            if verb in ("metabolic", "isometric", "absorbing", "embed"):
                pl = rng.choice(CRITERION10_PARAMS)
            else:
                pl = rng.choice(named)
                if rng.random() < 0.5:
                    pl = {"name": pl, "sum": [rng.choice([2, 3, 4])]}
            p = parse_parameter(pl)
            if verb in ("classify", "split", "witt-group", "gw-group"):
                payload = {"param": pl}
            elif verb == "tensor":
                payload = {"G": [rng.choice([2, 3, 4, 6, 8, 0])], "Q": pl}
            elif verb == "induced-map":
                alpha = random_morphism(rng)
                payload = {
                    "source": param_payload(alpha.source),
                    "target": param_payload(alpha.target),
                    "matrix": [list(r) for r in alpha.map.matrix],
                }
            elif verb == "isometric":
                f = _nonzero_form(rng, p, max_rank=2)
                g = pullback(f, random_unimodular(rng, f.rank, ops=4))
                payload = {"param": pl, "form1": form_payload(f), "form2": form_payload(g)}
            elif verb == "embed":
                f = _absorbing_form(rng, p)
                eta = rng.choice(_battery(p))
                payload = {"param": pl, "form": form_payload(f), "eta": form_payload(eta)}
            else:  # witt-class, metabolic, absorbing
                f = _nonzero_form(rng, p, max_rank=2 if verb == "metabolic" else 4)
                payload = {"param": pl, "form": form_payload(f)}
            req = {"op": verb, "payload": payload}
            if verb in ("metabolic", "isometric", "embed"):
                req["bound"] = CLI_BOUND
            out.append(req)
    return out[:count]


GENERATORS = {"decide": gen_decide, "structure": gen_structure, "cli": gen_cli}


def generate(workload: str, seed: int, count: int = 0) -> list:
    return GENERATORS[workload](seed, count or COUNTS[workload])


def dumps(requests: list) -> str:
    return json.dumps(requests, sort_keys=True, separators=(",", ":"))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(GENERATORS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--count", type=int, default=0)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    Path(args.out).write_text(dumps(generate(args.workload, args.seed, args.count)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
