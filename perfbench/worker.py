"""One timed, closed-loop pass over a generated input file.

One client sends the next request only when the previous one has returned;
the library is called in this process.  Every request of the file runs
once, in order, so a seed fixes the work of a run and the per-parameter
caches stay cold.  Every operation runs under a deadline and under the SNF
multiplier limit, is timed, and has its answer checked after the timed loop
(checks are never timed).  Between operations, about every
`PROBE_EVERY_S`, the loop times `probe`, a fixed pure-Python loop that does
not touch the library: it gives the speed of the CPU at that moment.  The
result is written as JSON for `run.py`.

Once its inputs are parsed the worker prints ``ready <cpu seconds> <probe
seconds>``: its own user + system time since the process started
(interpreter start, imports, reading and parsing the inputs), and the
median of `SETUP_PROBES` speed probes timed right after.

    python3 perfbench/worker.py --workload decide --inputs in.json \
        --result out.json [--trace PREFIX]
    python3 perfbench/worker.py --workload decide --inputs in.json --setup-only
"""

from __future__ import annotations

import argparse
import bisect
import json
import os
import resource
import signal
import statistics
import sys
import time
from pathlib import Path

from gen import GEN_MAX_SNF_BITS, CoefficientBlowup, snf_bit_limit

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# The per-operation deadline, on a 2-core x86 machine, well above the slowest
# healthy operation: about 0.2 s on `decide` and 0.25 s on `structure`.  An
# SNF coefficient blow-up does not wait for the deadline: the SNF multiplier
# limit (`gen.GEN_MAX_SNF_BITS`, the generator's limit) stopped each of the
# 36 blow-ups of structure seeds 1 and 2 within 12 ms, where without it they
# ran for 2.5 s to over 15 s.  The limit is arithmetic, so whether an
# operation fails does not depend on the speed of the machine.
DEADLINE_S = 5.0

# A check recomputes parts of an answer (for example the presentations of
# the two summands of G), which can meet the same blow-ups as the operation.
# A check that does not finish leaves its operation unverified, and an
# unverified operation counts as failed.
CHECK_DEADLINE_S = 10.0

# The speed probe takes about PROBE_REF_S on the reference machine (a 2-core
# x86 VM, Python 3.11).  The loop times one probe about every PROBE_EVERY_S;
# a set-up worker times SETUP_PROBES once it is ready (probes timed at the
# very start of a process followed its set-up less well).
PROBE_ITERS = 5000
PROBE_REF_S = 0.0027
PROBE_EVERY_S = 0.1
SETUP_PROBES = 9

# Each operation is scaled by the median of the probes timed around it, up
# to PROBE_SPAN before and after it.
PROBE_SPAN = 3


def _mix(a: int, b: int) -> int:
    return (a * 31 + b) % 65521


def probe() -> float:
    """Seconds taken by a fixed pure-Python loop that does not touch the
    library: integer arithmetic and list indexing, then small tuples,
    generator expressions, calls and dict stores, like the library's own
    inner loops.  Two parts of about equal time: on this machine their sum
    followed the speed of both workloads more closely than either part."""
    t0 = time.perf_counter()
    acc = 0
    row = list(range(32))
    for i in range(PROBE_ITERS):
        j = i & 31
        row[j] = (row[(i * 7) & 31] * 3 + i) % 1000003
        acc += row[j]
    vecs = [tuple(range(k, k + 4)) for k in range(16)]
    seen = {}
    for i in range(PROBE_ITERS // 12):
        v = vecs[i & 15]
        w = tuple(x * 2 - i for x in v)
        acc = _mix(sum(x * y for x, y in zip(v, w)), acc)
        seen[w[0] & 63] = acc
    return time.perf_counter() - t0


def speed_scales(op_times, probe_times, probe_s) -> list:
    """For each operation (by the time it ended), PROBE_REF_S over the median
    of the probes timed around it: the factor that turns its time into time
    at the reference speed."""
    out = []
    for t in op_times:
        i = bisect.bisect(probe_times, t)
        near = probe_s[max(0, i - PROBE_SPAN):i + PROBE_SPAN]
        out.append(PROBE_REF_S / statistics.median(near))
    return out


class DeadlineExceeded(BaseException):
    """Raised from SIGALRM; a BaseException so `except Exception` cannot
    swallow it inside the library."""


def _on_alarm(signum, frame):
    raise DeadlineExceeded()


def with_deadline(seconds: float, fn, *args):
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        return fn(*args)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


# -- parsing (set-up) and running (timed) of in-process operations ----------


def parse(req: dict):
    """The objects an in-process request needs, rebuilt from its payload."""
    from qwitt import cli
    from qwitt.abelian import AbHom
    from qwitt.formparam import FPMorphism

    op, pl = req["op"], req["payload"]
    if op == "induced-map":
        src = cli.parse_parameter(pl["source"])
        dst = cli.parse_parameter(pl["target"])
        return (FPMorphism(src, dst, AbHom(src.carrier, dst.carrier, pl["matrix"])),)
    if op == "tensor":
        return cli.parse_group(pl["G"]), cli.parse_parameter(pl["Q"])
    p = cli.parse_parameter(pl["param"])
    if op == "isometric":
        return p, cli.parse_form(p, pl["form1"]), cli.parse_form(p, pl["form2"])
    if op in ("embed", "embed-search"):
        return p, cli.parse_form(p, pl["form"]), cli.parse_form(p, pl["eta"])
    if "form" in pl:
        return p, cli.parse_form(p, pl["form"])
    return (p,)


def run_op(req: dict, objs):
    """Call the library.  Names are looked up on the modules at call time so
    that a tracer's wrappers are the ones called."""
    import qwitt

    qf, witt, fp = qwitt.qform, qwitt.witt, qwitt.formparam
    op = req["op"]
    if op == "metabolic":
        return qf.metabolic_search(objs[1], req["bound"], req["budget"])
    if op == "isometric":
        return qf.isometry_search(objs[1], objs[2], req["bound"], req["budget"])
    if op == "embed-search":
        return qf.embedding_search(objs[2], objs[1], req["bound"], req["budget"])
    if op == "embed":
        return qf.absorb_embed(objs[1], objs[2], req["bound"], req["budget"])
    if op == "classify":
        return fp.classify(objs[0])
    if op == "split":
        return fp.maximal_splitting(objs[0])
    if op == "witt-group":
        return witt.witt_group(objs[0])
    if op == "gw-group":
        return witt.gw_group(objs[0])
    if op == "tensor":
        return qwitt.qtensor.present(objs[0], objs[1])
    if op == "natural":
        v = fp.quasi_wu(objs[0])
        return witt.sigma_subgroup(v) if objs[0].is_symmetric else witt.lambda_quotient(v)
    if op == "witt-class":
        return witt.witt_class(objs[1])
    if op == "gw-class":
        return witt.gw_class(objs[1])
    if op == "induced-map":
        return witt.induced_witt_map(objs[0])
    raise ValueError(f"unknown operation {op!r}")


def verdict(req: dict, result) -> str:
    """found / no / unknown for searches, ok for every other answer."""
    if req["op"] in ("metabolic", "isometric", "embed-search"):
        return result.status
    if req["op"] == "embed":
        return "found"
    return "ok"


# -- answer checks ------------------------------------------------------------


def check_op(req: dict, objs, result):
    """None when the answer is right, else what is wrong with it.  Uses only
    the library's own verifiers and independent identities, no goldens."""
    from qwitt import qform as qf
    from qwitt import witt
    from qwitt.abelian import FinAbGroup, tensor
    from qwitt.formparam import maximal_splitting
    from qwitt.qtensor import present

    op = req["op"]
    if op in ("metabolic", "isometric", "embed-search"):
        if result.status not in ("found", "no", "unknown"):
            return f"bad status {result.status!r}"
        if result.status in ("no", "unknown") and not result.reason:
            return f"'{result.status}' without a reason"
        if op == "isometric" and result.status == "no":
            return "'no' on a pair isometric by construction"
        if result.status != "found":
            return None
        f = objs[1]
        if op == "metabolic":
            return None if qf.lagrangian_verify(f, result.witness) else "witness is not a lagrangian"
        if op == "isometric":
            return None if qf.isometry_verify(f, objs[2], result.witness) else "witness is not an isometry"
        try:
            qf.Embedding(objs[2], f, result.witness)  # pullback equality and rank
        except ValueError as exc:
            return f"witness is not an embedding: {exc}"
        return None
    if op == "embed":
        f, eta = objs[1], objs[2]
        if result.source != eta or result.target != qf.direct_sum(qf.direct_sum(f, f), f):
            return "embedding has the wrong source or target"
        pulled = qf.pullback(result.target, [list(r) for r in result.matrix])
        return None if qf.isometry_verify(eta, pulled, [[1, 0], [0, 1]]) else "pullback is not eta"
    if op in ("classify", "split"):
        p = objs[0]
        ms = maximal_splitting(p)
        if op == "classify":
            if result.symmetry != p.symmetry or result.complement != ms.complement.canonical_orders():
                return "classification disagrees with the maximal splitting"
        elif ms.iso.source != p or not ms.iso.is_isomorphism():
            return "splitting map is not an isomorphism from the parameter"
        whole = FinAbGroup(ms.standard.carrier.orders + ms.complement.orders)
        if whole.canonical_orders() != p.carrier.canonical_orders():
            return "carrier is not standard + complement"
        return None
    if op == "witt-group":
        ok = result.parameter == objs[0] and len(result.names) == len(result.orders) == len(
            result.representatives) and all(r.parameter == objs[0] for r in result.representatives)
        return None if ok else "malformed Witt group description"
    if op == "gw-group":
        expect = FinAbGroup((0,) + witt.witt_group(objs[0]).orders).canonical_orders()
        return None if result["canonical_orders"] == expect else "GW0 != 2Z + W0"
    if op == "tensor":
        g, p = objs
        k = req["split"]
        g1, g2 = FinAbGroup(g.orders[:k]), FinAbGroup(g.orders[k:])
        parts = (present(g1, p).group.canonical_orders()
                 + present(g2, p).group.canonical_orders()
                 + tensor(g1, g2).canonical_orders())
        if result.group.canonical_orders() != FinAbGroup(parts).canonical_orders():
            return "two-summand decomposition fails"
        return None
    if op == "natural":
        if result.group.canonical_orders() != witt.witt_group(objs[0]).canonical_orders():
            return "Sigma/Lambda group differs from the Witt group"
        return None
    if op == "witt-class":
        return None if result.parameter == objs[0] else "class over the wrong parameter"
    if op == "gw-class":
        return None if result.rank == objs[1].rank else "GW rank differs from the form rank"
    if op == "induced-map":
        alt = witt.induced_witt_map_via_forms(objs[0])
        return None if alt.matrix == result.matrix else "differs from the map on representatives"
    return f"no check for {op!r}"


def check_groups(reqs, results) -> dict:
    """Relations between the answers of one structure parameter:
    W(f + g) = W(f) + W(g), W(f - f) = 0, W(U*f) = W(f), GW(h).witt = W(h).
    Returns {index: error} for the operation whose answer breaks one."""
    by_group: dict = {}
    for i, res in results.items():
        r = reqs[i]
        if "role" in r:
            by_group.setdefault(r["group"], {})[(r["op"], r["role"])] = (i, res)
    errors = {}
    for answers in by_group.values():
        wc = {role: res for (op, role), (i, res) in answers.items() if op == "witt-class"}
        idx = {key: i for key, (i, _) in answers.items()}
        if {"f", "g", "f+g"} <= wc.keys() and (wc["f"] + wc["g"]).coords != wc["f+g"].coords:
            errors[idx[("witt-class", "f+g")]] = "W(f + g) != W(f) + W(g)"
        if "f-f" in wc and not wc["f-f"].is_zero:
            errors[idx[("witt-class", "f-f")]] = "W(f - f) != 0"
        if {"f", "uf"} <= wc.keys() and wc["f"].coords != wc["uf"].coords:
            errors[idx[("witt-class", "uf")]] = "W(U*f) != W(f)"
        for (op, role), (i, res) in answers.items():
            if op == "gw-class" and role in wc and res.witt.coords != wc[role].coords:
                errors[i] = "GW class disagrees with the Witt class"
    return errors


# -- the timed loop -------------------------------------------------------------


def cpu_s(who) -> float:
    ru = resource.getrusage(who)
    return ru.ru_utime + ru.ru_stime


def timed_loop(n_reqs: int, call):
    """Closed loop over every request index in order, with a speed probe
    about every PROBE_EVERY_S.  call(index) -> (kind, payload) where kind
    is 'ok' or a failure kind.  Returns the records (index, seconds, CPU
    seconds, end time, kind, payload), the probes (end time, seconds) and
    the wall time of the loop, probes left out."""
    records = []
    probes = [(time.perf_counter(), probe())]
    next_probe = probes[0][0] + PROBE_EVERY_S
    probe_total = 0.0
    start = time.perf_counter()
    for idx in range(n_reqs):
        c0 = time.process_time()
        t0 = time.perf_counter()
        kind, out = call(idx)
        t1 = time.perf_counter()
        records.append((idx, t1 - t0, time.process_time() - c0, t1, kind, out))
        if t1 >= next_probe:
            p = probe()
            probes.append((time.perf_counter(), p))
            probe_total += p
            next_probe = probes[-1][0] + PROBE_EVERY_S
    probes.append((time.perf_counter(), probe()))
    return records, probes, time.perf_counter() - start - probe_total


def run_inprocess(reqs, objs, tracer):
    deadline = DEADLINE_S

    def call(idx):
        if tracer is not None:
            tracer.op = idx
        try:
            return "ok", with_deadline(deadline, run_op, reqs[idx], objs[idx])
        except DeadlineExceeded:
            return "deadline", f"no answer within {deadline} s"
        except CoefficientBlowup:
            return "blowup", f"SNF multiplier over {GEN_MAX_SNF_BITS} bits"
        except Exception as exc:  # the benchmark boundary: count, keep going
            return "error", f"{type(exc).__name__}: {exc}"

    return timed_loop(len(reqs), call)


# -- main -----------------------------------------------------------------------


def evaluate(workload, reqs, objs, records) -> tuple:
    """Check every record.  Returns (failures, decided count)."""
    failures = []
    decided = 0
    last = {}
    for n, (idx, lat, _, _, kind, out) in enumerate(records):
        req = reqs[idx]
        err = None
        if kind != "ok":
            err = out
        else:
            try:
                err = with_deadline(CHECK_DEADLINE_S, check_op, req, objs[idx], out)
            except DeadlineExceeded:
                kind = "unverified"
                err = f"check did not finish within {CHECK_DEADLINE_S} s"
            except CoefficientBlowup:
                kind = "unverified"
                err = f"check met an SNF multiplier over {GEN_MAX_SNF_BITS} bits"
            except Exception as exc:
                err = f"check raised {type(exc).__name__}: {exc}"
            last[idx] = out
        if err is None:
            decided += verdict(req, out) in ("found", "no", "ok")
        else:
            failures.append({"n": n, "index": idx, "op": req["op"],
                             "kind": "wrong" if kind == "ok" else kind,
                             "detail": err, "seconds": round(lat, 4), "payload": req["payload"]})
    if workload == "structure":
        seen = {f["index"] for f in failures}
        for idx, err in check_groups(reqs, last).items():
            if idx not in seen:
                n = next(k for k, r in enumerate(records) if r[0] == idx)
                failures.append({"n": n, "index": idx, "op": reqs[idx]["op"], "kind": "wrong",
                                 "detail": err, "seconds": round(records[n][1], 4),
                                 "payload": reqs[idx]["payload"]})
                decided -= sum(1 for r in records if r[0] == idx)
    return failures, decided


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=["decide", "structure"])
    ap.add_argument("--inputs", required=True)
    ap.add_argument("--trace", default="")
    ap.add_argument("--result", default="")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    import qwitt.cli  # noqa: F401  (the parsers, and every library module)

    reqs = json.loads(Path(args.inputs).read_text())
    objs = [parse(r) for r in reqs]
    ready = cpu_s(resource.RUSAGE_SELF)
    print("ready", ready, statistics.median(probe() for _ in range(SETUP_PROBES)), flush=True)
    if args.setup_only:
        return 0

    with snf_bit_limit(GEN_MAX_SNF_BITS):
        tracer = None
        if args.trace:
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
        records, probes, window = run_inprocess(reqs, objs, tracer)
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

        summary = None
        if tracer is not None:
            tracer.uninstall()
            summary = tracer.summary()
            tracer.dump(args.trace + "-spans.json")

        failures, decided = evaluate(args.workload, reqs, objs, records)
    probe_s = [p[1] for p in probes]
    out = {
        "window_s": window,
        "rss_kb": rss_kb,
        "attempted": len(records),
        "latencies": [r[1] for r in records],
        "cpu": [r[2] for r in records],
        "scales": speed_scales([r[3] for r in records], [p[0] for p in probes], probe_s),
        "probes": probes,
        "probe_median_s": statistics.median(probe_s),
        "failures": failures,
        "decided": decided,
        "trace": summary,
    }
    Path(args.result).write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
