"""Tests of the benchmark's own machinery (not of qwitt).

    PYTHONPATH=src python3 -m pytest perfbench/tests -q
"""

import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
import worker  # noqa: E402

from qwitt import cli  # noqa: E402
from qwitt import qform as qf  # noqa: E402
from qwitt.sampling import random_form_parameter, random_nonsingular_form  # noqa: E402


@pytest.mark.parametrize("workload,count", [("decide", 40), ("structure", 60), ("cli", 22)])
def test_same_seed_gives_identical_payload_bytes(tmp_path, workload, count):
    outs = []
    for hashseed in ("1", "2"):
        out = tmp_path / f"{hashseed}.json"
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED=hashseed)
        subprocess.run([sys.executable, str(HERE / "gen.py"), "--workload", workload,
                        "--seed", "5", "--count", str(count), "--out", str(out)],
                       env=env, check=True, timeout=120)
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
    assert gen.dumps(gen.generate(workload, 6, count)) != outs[0].decode()


def test_payloads_rebuild_equal_objects():
    rng = random.Random(3)
    for _ in range(20):
        p = random_form_parameter(rng, max_torsion=16, max_free=2)
        assert cli.parse_parameter(gen.param_payload(p)) == p
        f = random_nonsingular_form(rng, p, max_rank=4)
        assert cli.parse_form(p, gen.form_payload(f)) == f


def test_generated_requests_parse():
    for workload in ("decide", "structure"):
        for req in gen.generate(workload, 4, 40):
            worker.parse(req)


def _decide_found(op):
    reqs = [r for r in gen.generate("decide", 1, 300) if r["op"] == op]
    for req in reqs:
        objs = worker.parse(req)
        out = worker.run_op(req, objs)
        if out.found:
            return req, objs, out
    pytest.skip(f"no {op} witness in the first requests")


@pytest.mark.parametrize("op", ["metabolic", "isometric", "embed-search"])
def test_tampered_witness_counts_as_failure(op):
    req, objs, out = _decide_found(op)
    assert worker.check_op(req, objs, out) is None
    doubled = tuple(tuple(2 * x for x in r) for r in out.witness)
    tampered = qf.SearchOutcome("found", doubled, bound=out.bound, nodes=out.nodes)
    assert worker.check_op(req, objs, tampered) is not None
    failures, decided = worker.evaluate("decide", [req], [objs],
                                        [(0, 0.001, 0.001, 0.0, "ok", out),
                                         (0, 0.001, 0.001, 0.0, "ok", tampered)])
    assert [f["kind"] for f in failures] == ["wrong"]
    assert failures[0]["n"] == 1 and failures[0]["payload"] == req["payload"]
    assert decided == 1


def test_no_on_isometric_pair_is_wrong():
    req = next(r for r in gen.generate("decide", 1, 10) if r["op"] == "isometric")
    objs = worker.parse(req)
    assert worker.check_op(req, objs, qf.SearchOutcome("no", reason="different ranks"))


def test_deadline_is_not_swallowed_by_except_exception():
    def stubborn():
        end = time.perf_counter() + 5
        while time.perf_counter() < end:
            try:
                sum(range(1000))
            except Exception:
                pass
        return "finished"

    t0 = time.perf_counter()
    with pytest.raises(worker.DeadlineExceeded):
        worker.with_deadline(0.2, stubborn)
    assert time.perf_counter() - t0 < 2


def test_structure_group_checks_catch_a_wrong_class():
    reqs = gen.generate("structure", 2, 15)
    objs = [worker.parse(r) for r in reqs]
    results = {i: worker.run_op(r, o) for i, (r, o) in enumerate(zip(reqs, objs))}
    assert worker.check_groups(reqs, results) == {}
    fg = next(i for i, r in enumerate(reqs) if r["op"] == "witt-class" and r["role"] == "f+g")
    f = next(i for i, r in enumerate(reqs) if r["op"] == "witt-class" and r["role"] == "f")
    g = next(i for i, r in enumerate(reqs) if r["op"] == "witt-class" and r["role"] == "g")
    if results[g].is_zero:
        pytest.skip("W(g) = 0, so W(f) would be a right answer for f + g")
    results[fg] = results[f]
    assert fg in worker.check_groups(reqs, results)


def test_loop_runs_each_request_once_and_probes_the_speed():
    records, probes, window = worker.timed_loop(3, lambda i: ("ok", i))
    assert [r[0] for r in records] == [0, 1, 2]
    assert [r[5] for r in records] == [0, 1, 2]
    assert len(probes) >= 2 and window >= 0


def test_speed_scales_follow_the_nearby_probes():
    ref = worker.PROBE_REF_S
    probe_times = [0.0, 1.0, 2.0, 10.0, 11.0, 12.0]
    probe_s = [ref, ref, ref, 2 * ref, 2 * ref, 2 * ref]
    fast, slow = worker.speed_scales([0.5, 11.5], probe_times, probe_s)
    assert fast == 1.0 and slow == 0.5


def test_snf_blowup_is_a_counted_failure(monkeypatch):
    def blowup(req, objs):
        raise gen.CoefficientBlowup()

    monkeypatch.setattr(worker, "run_op", blowup)
    req = {"op": "witt-class", "payload": {}}
    records, _, _ = worker.run_inprocess([req], [None], None)
    failures, decided = worker.evaluate("structure", [req], [None], records)
    assert [f["kind"] for f in failures] == ["blowup"] and decided == 0


def test_snf_bit_limit_raises_on_long_multipliers_and_restores():
    from qwitt import _intmat

    snf = _intmat.SNF
    with gen.snf_bit_limit(8):
        assert _intmat.smith_normal_form([[1, 255]])[1] == [[1, 0]]
        with pytest.raises(gen.CoefficientBlowup):
            _intmat.smith_normal_form([[1, 1 << 8]])
    assert _intmat.SNF is snf
