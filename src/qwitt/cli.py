"""Command-line front end: JSON in, JSON (or plain table) out.

Subcommands: classify, split, witt-class, witt-group, gw-group, tensor,
induced-map, metabolic, isometric, absorbing, embed, embed-search,
verify-suite.

Exit codes: 0 success; 2 validation failure (the violated axiom is named);
3 malformed payload; 4 internal invariant breach.
"""

from __future__ import annotations

import argparse
import json
import sys
from math import inf
from typing import Optional

from . import qform, witt
from .abelian import AbHom, FinAbGroup
from .formparam import (
    FormParameter,
    FPMorphism,
    LevelError,
    classify,
    maximal_splitting,
    parse_name,
    split_sum,
    standard,
    standard_name,
)
from .qtensor import present


class SchemaError(Exception):
    pass


def _require(payload, key: str):
    if not isinstance(payload, dict):
        raise SchemaError(f"expected an object with key {key!r}")
    if key not in payload:
        raise SchemaError(f"missing key {key!r}")
    return payload[key]


def _is_int_list(data) -> bool:
    # a JSON boolean is a Python int, but not an integer of the payload
    return isinstance(data, list) and all(type(x) is int for x in data)


def _ints(data, what: str, length: Optional[int] = None) -> list:
    if not _is_int_list(data):
        raise SchemaError(f"{what} must be a list of integers")
    if length is not None and len(data) != length:
        raise SchemaError(f"{what} must have {length} entries, got {len(data)}")
    return data


def _int_rows(
    data, what: str, nrows: Optional[int] = None, ncols: Optional[int] = None
) -> list:
    if not isinstance(data, list):
        raise SchemaError(f"{what} must be a list of integer rows")
    if nrows is not None and len(data) != nrows:
        raise SchemaError(f"{what} must have {nrows} rows, got {len(data)}")
    return [_ints(row, f"each row of {what}", ncols) for row in data]


def _orders(data) -> list:
    if isinstance(data, dict):
        data = _require(data, "orders")
    if not _is_int_list(data):
        raise SchemaError("a group is a list of non-negative cyclic orders")
    return data


def parse_group(data) -> FinAbGroup:
    # a G or sum list carries no coordinates: drop its order-1 factors
    return FinAbGroup([x for x in _orders(data) if x != 1])


def parse_parameter(data) -> FormParameter:
    if isinstance(data, str):
        data = {"name": data}
    if not isinstance(data, dict):
        raise SchemaError("parameter must be a name or an object")
    if "name" in data:
        if not isinstance(data["name"], str):
            raise SchemaError("a parameter name must be a string")
        try:
            p = standard(*parse_name(data["name"]))
        except LevelError as exc:  # the carrier would hold 2^k
            raise SchemaError(str(exc)) from None
        if data.get("sum"):
            p = split_sum(p, parse_group(data["sum"]))
        return p
    orders = _orders(_require(data, "carrier"))
    if 1 in orders:
        raise SchemaError(f"'carrier' factor {orders.index(1)} has order 1")
    carrier = FinAbGroup(orders)
    hrow = _ints(_require(data, "h"), "'h'", carrier.ngens)
    pone = _ints(_require(data, "pOne"), "'pOne'", carrier.ngens)
    h = AbHom(carrier, FinAbGroup((0,)), [hrow])
    return FormParameter(carrier, h, carrier.element(pone))


def parse_form(param: FormParameter, data) -> qform.QForm:
    if not isinstance(data, dict):
        raise SchemaError("form must be an object with 'lambda' and 'mu'")
    lam = _int_rows(_require(data, "lambda"), "'lambda'")
    if any(len(row) != len(lam) for row in lam):
        raise SchemaError("'lambda' must be a square matrix")
    mu = _int_rows(_require(data, "mu"), "'mu'", len(lam), param.carrier.ngens)
    mus = [param.carrier.element(c) for c in mu]
    return qform.QForm(param, lam, mus)


def _param_of(payload) -> FormParameter:
    """The parameter under "param", or else the payload itself."""
    if isinstance(payload, dict) and "param" in payload:
        return parse_parameter(payload["param"])
    return parse_parameter(payload)


def cmd_classify(payload, args) -> dict:
    c = classify(_param_of(payload))
    height = "inf" if c.height == inf else c.height
    return {
        "symmetry": c.symmetry,
        "height": height,
        "complement": list(c.complement),
    }


def cmd_split(payload, args) -> dict:
    ms = maximal_splitting(_param_of(payload))
    return {
        "standard": standard_name(ms.standard_kind, ms.k),
        "complement": list(ms.complement.canonical_orders()),
        "iso": [list(r) for r in ms.iso.map.matrix],
    }


def cmd_witt_class(payload, args) -> dict:
    p = _param_of(payload)
    f = parse_form(p, _require(payload, "form"))
    cls = witt.witt_class(f)
    return {
        "coords": list(cls.coords),
        "generators": list(cls.description.names),
        "orders": list(cls.description.orders),
        "zero": cls.is_zero,
    }


def cmd_witt_group(payload, args) -> dict:
    d = witt.witt_group(_param_of(payload))
    return {
        "group": list(d.canonical_orders()),
        "generators": list(d.names),
        "orders": list(d.orders),
    }


def cmd_gw_group(payload, args) -> dict:
    d = witt.gw_group(_param_of(payload))
    return {
        "group": list(d["canonical_orders"]),
        "generators": list(d["names"]),
        "constraint": d["image_constraint"],
    }


def cmd_tensor(payload, args) -> dict:
    g = parse_group(_require(payload, "G"))
    q = parse_parameter(_require(payload, "Q"))
    pres = present(g, q)
    return {"group": list(pres.group.canonical_orders())}


def cmd_induced_map(payload, args) -> dict:
    src = parse_parameter(_require(payload, "source"))
    dst = parse_parameter(_require(payload, "target"))
    shape = dst.carrier.ngens, src.carrier.ngens
    mat = _int_rows(_require(payload, "matrix"), "'matrix'", *shape)
    alpha = FPMorphism(src, dst, AbHom(src.carrier, dst.carrier, mat))
    m = witt.induced_witt_map(alpha)
    return {
        "matrix": [list(r) for r in m.matrix],
        "source_group": list(witt.witt_group(src).canonical_orders()),
        "target_group": list(witt.witt_group(dst).canonical_orders()),
    }


def _search_result(out: qform.SearchOutcome, key: str) -> dict:
    """The verdict of a bounded search, with its witness under key."""
    res = {"status": out.status, "reason": out.reason, "bound": out.bound}
    if out.found:
        res[key] = [list(v) for v in out.witness]
    return res


def cmd_metabolic(payload, args) -> dict:
    p = _param_of(payload)
    f = parse_form(p, _require(payload, "form"))
    out = qform.metabolic_search(f, bound=args.bound)
    return _search_result(out, "lagrangian")


def cmd_isometric(payload, args) -> dict:
    p = _param_of(payload)
    f = parse_form(p, _require(payload, "form1"))
    g = parse_form(p, _require(payload, "form2"))
    out = qform.isometry_search(f, g, bound=args.bound)
    return _search_result(out, "matrix")


def cmd_absorbing(payload, args) -> dict:
    p = _param_of(payload)
    f = parse_form(p, _require(payload, "form"))
    return {
        "absorbing": qform.is_absorbing(f),
        "indefinite": qform.is_indefinite(f),
        "full": qform.is_full(f),
    }


def cmd_embed(payload, args) -> dict:
    p = _param_of(payload)
    f = parse_form(p, _require(payload, "form"))
    eta = parse_form(p, _require(payload, "eta"))
    try:
        emb = qform.absorb_embed(f, eta, bound=args.bound)
    except qform.IsotropicVectorNotFound as exc:
        return {"status": "unknown", "reason": str(exc), "bound": args.bound}
    return {
        "matrix": [list(r) for r in emb.matrix],
        "copies": 3,
        "primitive": emb.is_primitive,
    }


def cmd_embed_search(payload, args) -> dict:
    p = _param_of(payload)
    f = parse_form(p, _require(payload, "form"))
    eta = parse_form(p, _require(payload, "eta"))
    out = qform.embedding_search(eta, f, bound=args.bound)
    return _search_result(out, "matrix")


def cmd_verify_suite(payload, args) -> dict:
    # imported here: the acceptance suite (and its samplers) is the one
    # verb that needs them, and the other verbs should not pay for them
    from . import acceptance

    seed = acceptance.DEFAULT_SEED if args.seed is None else args.seed
    results = acceptance.run_all(seed=seed, verbose=args.format == "pretty")
    return {
        "passed": sum(1 for r in results.values() if r["ok"]),
        "total": len(results),
        "criteria": results,
    }


COMMANDS = {
    "classify": cmd_classify,
    "split": cmd_split,
    "witt-class": cmd_witt_class,
    "witt-group": cmd_witt_group,
    "gw-group": cmd_gw_group,
    "tensor": cmd_tensor,
    "induced-map": cmd_induced_map,
    "metabolic": cmd_metabolic,
    "isometric": cmd_isometric,
    "absorbing": cmd_absorbing,
    "embed": cmd_embed,
    "embed-search": cmd_embed_search,
    "verify-suite": cmd_verify_suite,
}


def _render_pretty(result: dict, indent: str = "") -> str:
    lines = []
    for key in sorted(result):
        val = result[key]
        if isinstance(val, dict):
            lines.append(f"{indent}{key}:")
            lines.append(_render_pretty(val, indent + "  "))
        else:
            lines.append(f"{indent}{key}: {val}")
    return "\n".join(lines)


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="qwitt",
        description="Exact computations with quadratic form parameters, "
        "their forms, and Witt groups.",
    )
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument(
        "payload",
        nargs="?",
        default="{}",
        help="JSON payload (defaults to an empty object)",
    )
    parser.add_argument(
        "--bound", type=int, default=3,
        help="search coefficient bound B: the searches try bounds 1..B in turn",
    )
    parser.add_argument(
        "--format", choices=["json", "pretty"], default="json"
    )
    parser.add_argument(
        "--seed", type=int, default=None,
        help="seed for randomized verification runs",
    )
    args = parser.parse_args(argv)
    if args.bound < 0:
        print("error: --bound must be non-negative", file=sys.stderr)
        return 3

    try:
        payload = json.loads(args.payload)
    except ValueError as exc:  # not JSON, or an integer past Python's digit limit
        print(f"error: payload cannot be read: {exc}", file=sys.stderr)
        return 3
    try:
        result = COMMANDS[args.command](payload, args)
    except SchemaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (AssertionError, RuntimeError) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 4

    # an exact answer is printed in full, past Python's 4300-digit default
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        if args.format == "json":
            print(json.dumps(result, sort_keys=True, separators=(",", ":")))
        elif args.command == "verify-suite":
            print(f"passed {result['passed']} / {result['total']} criteria")
        else:
            print(_render_pretty(result))
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)
    if args.command == "verify-suite" and result["passed"] != result["total"]:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
