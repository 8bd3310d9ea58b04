import contextlib
import io
import json
import random
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qwitt.cli import COMMANDS, main
from qwitt.qform import hyperbolic
from qwitt.sampling import random_morphism, random_nonsingular_form


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


def readme_examples():
    """(argv, output) of each `qwitt ...` line of the README's sh blocks
    that a `#   ...` line, its output, follows."""
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    found = []
    for block in re.findall(r"^```sh\n(.*?)^```", text, re.M | re.S):
        lines = block.splitlines()
        for line, shown in zip(lines, lines[1:]):
            if line.startswith("qwitt ") and shown.startswith("#   "):
                found.append((shlex.split(line)[1:], shown[4:] + "\n"))
    return found


def test_readme_examples_print_what_the_readme_shows(capsys):
    examples = readme_examples()
    assert len(examples) == 9
    for argv, shown in examples:
        code, out, err = run_cli(capsys, *argv)
        assert (code, out, err) == (0, shown, ""), argv


def test_classify(capsys):
    got = run_json(capsys, "classify", '{"name":"ZP_2"}')
    assert got == {"symmetry": 1, "height": 3, "complement": []}
    got = run_json(capsys, "classify", '{"name":"ZP"}')
    assert got["height"] == "inf"
    got = run_json(capsys, "classify", '{"name":"Q-","sum":[5]}')
    assert got == {"symmetry": -1, "height": 1, "complement": [5]}
    code, out, _ = run_cli(capsys, "classify", '{"name":"ZP_22"}')
    assert (code, out) == (0, '{"complement":[],"height":23,"symmetry":1}\n')
    # a large prime summand: its order is never factored
    got = run_json(capsys, "classify", '{"name":"Q-","sum":[1000000000000000003]}')
    assert got == {"symmetry": -1, "height": 1, "complement": [1000000000000000003]}


def test_witt_group(capsys):
    got = run_json(capsys, "witt-group", '{"name":"ZL_2","sum":[2]}')
    assert got["group"] == [2]
    got = run_json(capsys, "witt-group", '{"name":"ZP_3"}')
    assert got["group"] == [4, 0]
    assert got["generators"] == ["sigma*", "rho_3*"]
    got = run_json(capsys, "witt-group", '{"name":"ZP_30"}')
    assert got["group"] == [2**29, 0]


def test_tensor(capsys):
    got = run_json(capsys, "tensor", '{"G":[4],"Q":"Q^+"}')
    assert got == {"group": [8]}
    got = run_json(capsys, "tensor", '{"G":[2,3],"Q":"Q-"}')
    assert got == {"group": [2]}
    # a presentation an earlier SNF loop never finished
    q = '{"carrier":{"orders":[0,8,8,0]},"h":[3,0,0,2],"pOne":[-2,7,2,4]}'
    got = run_json(capsys, "tensor", '{"G":[2,4,0],"Q":%s}' % q)
    assert got == {"group": [2, 2, 2, 2, 2, 4, 4, 4, 4, 8, 8, 8, 0, 0]}


def test_gw_group(capsys):
    got = run_json(capsys, "gw-group", '{"name":"Q^-"}')
    assert got["group"] == [0]
    got = run_json(capsys, "gw-group", '{"name":"Q-"}')
    assert got["group"] == [2, 0]


def test_split(capsys):
    payload = '{"carrier":{"orders":[0,3]},"h":[1,0],"pOne":[2,1]}'
    got = run_json(capsys, "split", payload)
    assert got["standard"] == "Q^+"
    assert got["complement"] == [3]


def test_witt_class_and_metabolic(capsys):
    payload = '{"param":"Q-","form":{"lambda":[[0,1],[-1,0]],"mu":[[1],[1]]}}'
    got = run_json(capsys, "witt-class", payload)
    assert got == {
        "coords": [1],
        "generators": ["c*"],
        "orders": [2],
        "zero": False,
    }
    payload = '{"param":"ZL_2","form":{"lambda":[[0,1],[-1,0]],"mu":[[2],[2]]}}'
    got = run_json(capsys, "metabolic", payload, "--bound", "5")
    assert got["status"] == "no"
    payload = '{"param":"Q+","form":{"lambda":[[0,1],[1,0]],"mu":[[0],[0]]}}'
    got = run_json(capsys, "metabolic", payload)
    assert got["status"] == "found"
    assert got["lagrangian"] == [[0, 1]] or got["lagrangian"] == [[1, 0]]


def test_isometric_and_absorbing(capsys):
    payload = json.dumps(
        {
            "param": "Q^+",
            "form1": {"lambda": [[0, 1], [1, 0]], "mu": [[0], [0]]},
            "form2": {"lambda": [[0, 1], [1, 0]], "mu": [[0], [0]]},
        }
    )
    got = run_json(capsys, "isometric", payload)
    assert got["status"] == "found"

    payload = json.dumps(
        {
            "param": "Q^+",
            "form": {"lambda": [[1, 0], [0, -1]], "mu": [[1], [-1]]},
        }
    )
    got = run_json(capsys, "absorbing", payload)
    assert got == {"absorbing": True, "indefinite": True, "full": True}


def test_embed(capsys):
    payload = json.dumps(
        {
            "param": "Q-",
            "form": {"lambda": [[0, 1], [-1, 0]], "mu": [[0], [0]]},
            "eta": {"lambda": [[0, 1], [-1, 0]], "mu": [[0], [1]]},
        }
    )
    got = run_json(capsys, "embed", payload)
    assert len(got["matrix"]) == 6 and got["copies"] == 3


def test_embed_bounded_miss_is_unknown(capsys):
    unknown = {
        "status": "unknown",
        "reason": "no primitive isotropic vector found within the bound and the node budget",
    }
    payload = json.dumps(
        {
            "param": "Q-",
            "form": {"lambda": [[0, 1], [-1, 0]], "mu": [[0], [0]]},
            "eta": {"lambda": [[0, 1], [-1, 0]], "mu": [[0], [1]]},
        }
    )
    assert run_json(capsys, "embed", payload, "--bound", "0") == {**unknown, "bound": 0}
    # lambda = (x + 6y)(x + 8y): the least primitive isotropic vector is (6, -1)
    payload = json.dumps(
        {
            "param": "Q^+",
            "form": {"lambda": [[1, 7], [7, 48]], "mu": [[1], [48]]},
            "eta": {"lambda": [[0, 1], [1, 0]], "mu": [[0], [0]]},
        }
    )
    assert run_json(capsys, "embed", payload, "--bound", "1") == {**unknown, "bound": 1}
    code, out, _ = run_cli(capsys, "embed", payload, "--bound", "6")
    assert (code, out) == (
        0, '{"copies":3,"matrix":[[6,-7],[-1,1],[-6,6],[1,-1],[0,1],[0,0]],"primitive":true}\n'
    )


def test_embed_search(capsys):
    payload = {
        "param": {"name": "Q-", "sum": [3]},
        "form": {"lambda": [[0, 1], [-1, 0]], "mu": [[0, 0], [0, 0]]},
        "eta": {"lambda": [[0, 1], [-1, 0]], "mu": [[0, 0], [0, 1]]},
    }
    got = run_json(capsys, "embed-search", json.dumps(payload))
    assert got == {
        "status": "no",
        "reason": "column 1: mu(x) = (0, 1) has no integer solution",
        "bound": 3,
    }
    payload["eta"]["mu"] = [[0, 0], [0, 0]]
    got = run_json(capsys, "embed-search", json.dumps(payload), "--bound", "1")
    assert got["status"] == "found" and len(got["matrix"]) == 2
    # a rank-2 eta into a rank-1 form: certified, not a bounded miss
    payload = '{"param":"Q^+","form":{"lambda":[[1]],"mu":[[1]]},"eta":{"lambda":[[0,1],[1,0]],"mu":[[0],[0]]}}'
    code, out, _ = run_cli(capsys, "embed-search", payload, "--bound", "2")
    assert (code, out) == (
        0, '{"bound":2,"reason":"source rank exceeds target rank","status":"no"}\n'
    )
    # a hyperbolic plane into a definite form: certified by inertia
    payload = '{"param":"Q^+","form":{"lambda":[[1,0],[0,1]],"mu":[[1],[1]]},"eta":{"lambda":[[0,1],[1,0]],"mu":[[0],[0]]}}'
    code, out, _ = run_cli(capsys, "embed-search", payload)
    assert (code, out) == (
        0, '{"bound":3,"reason":"target inertia (2, 0) lacks the source\'s (1, 1)","status":"no"}\n'
    )
    # the rank-0 form into a rank-2 form: a 2 x 0 matrix, one empty row per
    # basis vector of the target
    payload = '{"param":"Q^+","form":{"lambda":[[0,1],[1,0]],"mu":[[0],[0]]},"eta":{"lambda":[],"mu":[]}}'
    code, out, _ = run_cli(capsys, "embed-search", payload, "--bound", "2")
    assert (code, out) == (0, '{"bound":2,"matrix":[[],[]],"reason":"","status":"found"}\n')


def test_induced_map(capsys):
    payload = json.dumps(
        {
            "source": "Q+",
            "target": "ZP",
            "matrix": [[2], [-1]],
        }
    )
    got = run_json(capsys, "induced-map", payload)
    assert got["matrix"] == [[8], [1]]


def test_exit_codes(capsys):
    code, _, err = run_cli(capsys, "classify", "not json")
    assert code == 3
    code, _, err = run_cli(capsys, "tensor", '{"G":[4]}')
    assert code == 3
    code, _, err = run_cli(capsys, "classify", '{"carrier":{"orders":[0]},"h":[1],"pOne":[1]}')
    assert code == 2
    assert "h(p(1))" in err  # the violated axiom is named


def test_integer_past_the_digit_limit_in_the_payload(capsys):
    # json.loads refuses an integer of more than 4300 digits with a plain
    # ValueError: a malformed payload, not a traceback
    payload = '{"param": {"carrier": [1%s], "h": [0], "pOne": [0]}}' % ("0" * 5000)
    code, out, err = run_cli(capsys, "classify", payload)
    assert (code, out) == (3, "")
    assert err.startswith("error: payload cannot be read: ") and "4300" in err


@pytest.mark.parametrize("fmt", ["json", "pretty"])
def test_answer_integer_past_the_digit_limit_is_printed_in_full(capsys, fmt):
    # W(ZP_15000) = Z/2^14999 + Z: 4516 digits, past Python's default limit
    # of 4300 for int-to-str conversion, which is lifted only while printing
    limit = sys.get_int_max_str_digits()
    code, out, err = run_cli(capsys, "witt-group", '"ZP_15000"', "--format", fmt)
    assert (code, err) == (0, "")
    assert sys.get_int_max_str_digits() == limit
    sys.set_int_max_str_digits(0)
    try:
        order = str(2**14999)
    finally:
        sys.set_int_max_str_digits(limit)
    assert len(order) == 4516
    assert (f'"group":[{order},0]' if fmt == "json" else f"group: [{order}, 0]") in out


def test_order_one_factors(capsys):
    # a raw carrier gives h and pOne one coordinate per factor, so an
    # order-1 factor is refused rather than dropped with its coordinates
    for payload in (
        '{"carrier":[1,0],"h":[0,2],"pOne":[0,1]}',
        '{"carrier":[1,0],"h":[2],"pOne":[1]}',
    ):
        code, out, err = run_cli(capsys, "classify", payload)
        assert (code, out) == (3, "")
        assert err == "error: 'carrier' factor 0 has order 1\n"
    # G and sum lists carry no coordinates: their 1s are dropped
    assert run_json(capsys, "tensor", '{"G":[1,2],"Q":"Q+"}') == {"group": [2]}
    got = run_json(capsys, "classify", '{"name":"Q-","sum":[1,5]}')
    assert got["complement"] == [5]


def test_huge_bound(capsys):
    # the search tries bounds 1, 2, ... in turn and stops at the first
    # witness, so a bound of 10^12 allocates nothing of its size
    payload = '{"param":{"name":"Q^+"},"form":{"lambda":[[0,1],[1,0]],"mu":[[0],[0]]}}'
    got = run_json(capsys, "metabolic", payload, "--bound", str(10**12))
    assert (got["status"], got["bound"]) == ("found", 10**12)


@pytest.mark.parametrize("verb", ["metabolic", "classify"])
def test_negative_bound_is_refused_before_the_payload(capsys, verb):
    code, out, err = run_cli(capsys, verb, "not json", "--bound", "-1")
    assert (code, out, err) == (3, "", "error: --bound must be non-negative\n")


@pytest.mark.parametrize(
    "argv",
    [
        ("witt-class", '{"param":"Q-","form":{"lambda":5,"mu":[]}}'),
        ("witt-class", '{"param":"Q-","form":{"lambda":5,"mu":5}}'),
        ("witt-class", '{"param":"Q-","form":{"lambda":[[0,1],[-1,0]],"mu":5}}'),
        ("induced-map", '{"source":"Q+","target":"ZP","matrix":5}'),
        ("classify", '{"param":{"carrier":{"orders":[2]},"h":5,"pOne":[1]}}'),
        ("classify", '{"param":{"carrier":{"orders":[2]},"h":[0],"pOne":5}}'),
        ("split", '{"name":5}'),
        ("classify", "5"),
        ("witt-class", "null"),
        ("tensor", "5"),
        # a JSON boolean is not an integer
        ("classify", '{"name":"Q+","sum":[false]}'),
        ("tensor", '{"G":[true,4],"Q":"Q+"}'),
        ("witt-class", '{"param":"Q-","form":{"lambda":[[true]],"mu":[[1]]}}'),
        # shapes: a mu row, lambda, h, pOne and a carrier matrix of the wrong size
        ("witt-class", '{"param":"Q-","form":{"lambda":[[0,1],[-1,0]],"mu":[[1,0],[1]]}}'),
        ("witt-class", '{"param":"Q-","form":{"lambda":[[0,1]],"mu":[[1]]}}'),
        ("witt-class", '{"param":"Q-","form":{"lambda":[[0,1],[-1,0]],"mu":[[1]]}}'),
        ("classify", '{"param":{"carrier":[0],"h":[2,0],"pOne":[1]}}'),
        ("classify", '{"param":{"carrier":[0],"h":[2],"pOne":[]}}'),
        ("induced-map", '{"source":"Q+","target":"ZP","matrix":[[2,0],[-1]]}'),
        ("induced-map", '{"source":"Q+","target":"ZP","matrix":[[2]]}'),
    ],
)
def test_malformed_payload_is_a_schema_error(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 3
    assert out == ""
    assert err.startswith("error: ")


@pytest.mark.parametrize("key", ["parameter", "Q"])
def test_a_parameter_goes_under_param(capsys, key):
    # a verb reads its parameter under "param", or else the payload is the
    # parameter; "Q" is a key of `tensor` alone
    code, out, err = run_cli(capsys, "classify", json.dumps({key: "Q+"}))
    assert (code, out, err) == (3, "", "error: missing key 'carrier'\n")


@pytest.mark.parametrize("name", ["foo", "ZP_x", "ZP_ 2", "ZL_-3", "ZP_"])
def test_unknown_parameter_name(capsys, name):
    # a level is ASCII digits only
    code, out, err = run_cli(capsys, "classify", json.dumps({"name": name}))
    assert (code, out, err) == (2, "", f"error: unknown parameter name {name!r}\n")


def test_a_level_above_the_maximum_exits_3(capsys, monkeypatch):
    """`classify '"ZP_99999999999"'` names a carrier holding 2^99999999999;
    the CLI refuses the level as a malformed payload, naming the limit,
    before any 2**k: the level it reads is one whose power is refused."""
    import time

    from qwitt import cli

    class Level(int):
        def __rpow__(self, base, mod=None):
            raise AssertionError(f"{base}**{int(self)} was built")

    code, out, err = run_cli(capsys, "classify", '"ZP_100000"')
    assert (code, out, err) == (0, '{"complement":[],"height":100001,"symmetry":1}\n', "")
    parse_name = cli.parse_name
    monkeypatch.setattr(
        cli, "parse_name", lambda text: (lambda kind, k: (kind, Level(k)))(*parse_name(text))
    )
    start = time.process_time()
    for name in ("ZP_99999999999", "ZL_100001"):
        code, out, err = run_cli(capsys, "classify", json.dumps(name))
        assert (code, out) == (3, "")
        assert err == f"error: level {name[3:]} is above the maximum level 100000\n"
    assert time.process_time() - start < 1


def test_a_level_of_more_than_4300_digits_exits_3(capsys):
    # the level is refused by its digit count before it is read, since
    # Python reads no integer of more than 4300 digits; leading zeros do
    # not count
    level = "9" * 5000
    code, out, err = run_cli(capsys, "classify", json.dumps("ZP_" + level))
    assert (code, out, err) == (3, "", f"error: level {level} is above the maximum level 100000\n")
    code, out, err = run_cli(capsys, "classify", json.dumps("ZL_" + "0" * 5000 + "2"))
    assert (code, err) == (0, "")
    assert out == run_cli(capsys, "classify", '"ZL_2"')[1]


def test_output_deterministic(capsys):
    a = run_cli(capsys, "witt-group", '{"name":"ZP_2"}')
    b = run_cli(capsys, "witt-group", '{"name":"ZP_2"}')
    assert a == b


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "qwitt.cli", "classify", '{"name":"Q+"}'],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout) == {
        "complement": [],
        "height": 0,
        "symmetry": 1,
    }


def test_only_verify_suite_imports_acceptance(monkeypatch, capsys):
    probe = "import sys, qwitt.cli; print('qwitt.acceptance' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert proc.stdout.strip() == "False", proc.stderr

    from qwitt import acceptance

    seeds = []
    monkeypatch.setattr(acceptance, "run_all", lambda seed, verbose: seeds.append(seed) or {})
    run_json(capsys, "verify-suite")
    run_json(capsys, "verify-suite", "--seed", "7")
    assert seeds == [acceptance.DEFAULT_SEED, 7]


# -- fuzz: every verb but verify-suite on small, often malformed payloads ----

_VERBS = sorted(set(COMMANDS) - {"verify-suite"})
_small = st.integers(-2, 3)


def _param_json(p):
    return {
        "carrier": {"orders": list(p.carrier.orders)},
        "h": list(p.h.matrix[0]),
        "pOne": list(p.p_one.coords),
    }


def _form_json(f):
    return {
        "lambda": [list(r) for r in f.lambda_matrix],
        "mu": [list(m.coords) for m in f.mu_basis],
    }


@st.composite
def _cli_payload(draw, verb):
    """Mostly a well-formed payload built from sampled valid objects, with
    its parts swapped for names, random integers or junk now and then."""
    rng = random.Random(draw(st.integers(0, 2**20)))
    alpha = random_morphism(rng)
    p = alpha.source
    # a random form, then the hyperbolic plane that embed wants as eta
    valid_forms = [
        _form_json(random_nonsingular_form(rng, p, max_rank=2)),
        _form_json(hyperbolic(p, 1)),
    ]
    n = p.carrier.ngens

    def rows(k, m):
        return st.lists(st.lists(_small, min_size=m, max_size=m), min_size=k, max_size=k)

    names = st.sampled_from(["Q+", "Q-", "Q^+", "ZP", "ZP_2", "ZL_2", "ZQ"])
    raw_param = st.fixed_dictionaries(
        {
            "carrier": st.lists(st.sampled_from([0, 1, 2, 4]), max_size=2),
            "h": st.lists(_small, max_size=2),
            "pOne": st.lists(_small, max_size=2),
        }
    )
    junk = st.sampled_from([None, 5, [1, 2], "Q+"])

    def pick(valid, *others):
        # the valid part seven times in eight
        return valid if draw(st.sampled_from(range(8))) else draw(st.one_of(*others))

    def form(i):
        raw = st.integers(1, 2).flatmap(
            lambda k: st.fixed_dictionaries({"lambda": rows(k, k), "mu": rows(k, n)})
        )
        return pick(valid_forms[i], raw, junk)

    param = pick(_param_json(p), names, raw_param, junk)
    if verb == "tensor":
        payload = {"G": draw(st.lists(st.integers(0, 4), max_size=2)), "Q": param}
    elif verb == "induced-map":
        payload = {
            "source": pick(_param_json(p), names),
            "target": pick(_param_json(alpha.target), names),
            "matrix": pick([list(r) for r in alpha.map.matrix], rows(2, 2)),
        }
    else:
        payload = {"param": param}
        keys = {
            "witt-class": ["form"], "metabolic": ["form"], "absorbing": ["form"],
            "isometric": ["form1", "form2"], "embed": ["form", "eta"],
            "embed-search": ["form", "eta"],
        }.get(verb, [])
        for i, key in enumerate(keys):
            payload[key] = form(i)
    return pick(payload, junk)


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(st.data())
def test_cli_fuzz_exits_cleanly(data):
    verb = data.draw(st.sampled_from(_VERBS))
    payload = data.draw(_cli_payload(verb))
    argv = [verb, json.dumps(payload), "--bound", str(data.draw(st.integers(0, 2)))]
    if data.draw(st.booleans()):
        argv += ["--format", "pretty"]
    # capsys is function-scoped, which hypothesis refuses: capture by hand
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2, 3), (argv, err.getvalue())
    if code:
        assert out.getvalue() == "" and err.getvalue().startswith("error: ")
