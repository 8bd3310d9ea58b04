#!/usr/bin/env python3
"""The qwitt benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload decide|structure --seed N \
        --seconds S --trace 0|1

Steps, each in its own process so that every timed process starts cold:
generate the inputs from the seed (gen.py), as many operations as the
reference machine does in ``--seconds``; run the timed closed loop
(worker.py), which checks every answer afterwards; time the set-up of
several fresh workers, before and after the loop.  Times are reported at
the reference speed (see worker.probe).  With ``--trace 1`` the loop runs
with the span tracer installed, the first half of the same operations is
then run again untraced to give the tracer's overhead, and the kernel cases
and CLI start-up are probed.

Stdout: one JSON line of details (environment, sample counts, every failed
operation with its payload), then the result line
``{"correct", "attempted", "failed", "metrics"}``.  Work files go to
``.perfbench-work/`` in the repository root.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from worker import PROBE_REF_S, child_env

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench-work"
PY = sys.executable

# Set-up is the median, over this many fresh workers that stop once set up,
# of each worker's own CPU time from its start to its first operation being
# ready: interpreter start, imports, and parsing the first SETUP_REQUESTS
# requests (a fixed amount, however many requests a run gets through; the
# generator has already compiled the byte code).
SETUP_PROBES = 7
SETUP_REQUESTS = 2000
# Operations per second of the reference machine: a run of S seconds does
# OPS_PER_S * S operations, so a seed fixes all the work of a run.
OPS_PER_S = {"decide": 100, "structure": 400}
PROBE_REPEATS = 3
CHILD_TIMEOUT_S = 170


def run(argv, **kw) -> subprocess.CompletedProcess:
    cp = subprocess.run(argv, env=child_env(), cwd=ROOT, capture_output=True, text=True,
                        timeout=CHILD_TIMEOUT_S, **kw)
    if cp.returncode != 0:
        sys.stderr.write(cp.stderr)
        raise SystemExit(f"perfbench: {' '.join(argv[:3])} failed with exit code {cp.returncode}")
    return cp


def start_worker(workload: str, inputs: Path, *extra) -> tuple:
    """Run a worker to its end; returns the CPU seconds it reported for its
    set-up and the median of its speed probes."""
    argv = [PY, str(HERE / "worker.py"), "--workload", workload, "--inputs", str(inputs), *extra]
    word, *vals = run(argv).stdout.split()
    if word != "ready":
        raise SystemExit(f"perfbench: worker {' '.join(extra)} did not report ready")
    return float(vals[0]), float(vals[1])


def worker(workload, inputs, result, trace="") -> dict:
    """The result dict of one worker run."""
    extra = ["--result", str(result)]
    if trace:
        extra += ["--trace", trace]
    start_worker(workload, inputs, *extra)
    return json.loads(result.read_text())


def percentile(sorted_vals, q: float) -> float:
    """Nearest-rank percentile."""
    return sorted_vals[max(0, math.ceil(q * len(sorted_vals)) - 1)]


def scaled_latencies(res: dict) -> list:
    """Each operation's time at the reference speed: its time times its
    speed scale (see worker.speed_scales)."""
    return [t * k for t, k in zip(res["latencies"], res["scales"])]


def end_to_end(res: dict, setup_s: float) -> dict:
    """Every time at the reference speed.  A failed operation counts as
    slower than any other in the latency percentiles."""
    n = res["attempted"]
    failed = {f["n"] for f in res["failures"]}
    scaled = scaled_latencies(res)
    lat = sorted(math.inf if i in failed else t for i, t in enumerate(scaled))
    cpu = sum(c * k for c, k in zip(res["cpu"], res["scales"]))
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (n / sum(scaled), "1/s"),
        "latency_p50_ms": (1e3 * percentile(lat, 0.5), "ms"),
        "latency_p90_ms": (1e3 * percentile(lat, 0.9), "ms"),
        "cpu_ms_per_op": (1e3 * cpu / n, "ms"),
        "ok_ratio": ((n - len(res["failures"])) / n, "ratio"),
        "decided_ratio": (res["decided"] / n, "ratio"),
        "peak_rss_mb": (res["rss_kb"] / 1024, "MB"),
    }


# -- traced-run probes --------------------------------------------------------


def import_times_ms() -> tuple:
    """Cumulative import time of qwitt.cli and of qwitt.acceptance, from
    ``-X importtime`` in fresh interpreters (medians)."""
    cli, acc = [], []
    for _ in range(PROBE_REPEATS):
        err = run([PY, "-X", "importtime", "-c", "import qwitt.cli"]).stderr
        cum = {m.group(2).strip(): int(m.group(1))
               for m in re.finditer(r"import time:\s+\d+ \|\s+(\d+) \|\s+(.*)", err)}
        cli.append(cum["qwitt.cli"] / 1e3)
        acc.append(cum.get("qwitt.acceptance", 0) / 1e3)
    return statistics.median(cli), statistics.median(acc)


def interpreter_ms() -> float:
    times = []
    for _ in range(PROBE_REPEATS):
        t0 = time.perf_counter()
        run([PY, "-c", "pass"])
        times.append(1e3 * (time.perf_counter() - t0))
    return statistics.median(times)


def verb_probe_s(seed: int, work: Path) -> list:
    """In-process time of cli.main, once for each verb, each in a fresh
    interpreter (clichild.py); a verb that exits non-zero stops the run."""
    inputs = work / "verbs.json"
    run([PY, str(HERE / "gen.py"), "--workload", "cli", "--seed", str(seed), "--out", str(inputs)])
    times = []
    for req in json.loads(inputs.read_text()):
        args = [req["op"], json.dumps(req["payload"], sort_keys=True)]
        if "bound" in req:
            args += ["--bound", str(req["bound"])]
        times.append(float(run([PY, str(HERE / "clichild.py"), *args]).stdout.splitlines()[-1]))
    return times


def kernel_rates() -> dict:
    """Kernel cases in a fresh process (see kernels.py)."""
    return json.loads(run([PY, str(HERE / "kernels.py")]).stdout)


def per_layer(seed, work, res, untraced) -> tuple:
    from tracer import layer_metrics

    m = layer_metrics(res["trace"], res["attempted"])
    cli_ms, acc_ms = import_times_ms()
    verbs = verb_probe_s(seed, work)
    rates = kernel_rates()
    m.update({
        "cli.interpreter_ms": (interpreter_ms(), "ms"),
        "cli.import_ms": (cli_ms, "ms"),
        "cli.import_acceptance_ms": (acc_ms, "ms"),
        "cli.verb_ms": (1e3 * statistics.median(verbs), "ms"),
        "trace.overhead_ratio": (sum(scaled_latencies(res)[:untraced["attempted"]])
                                 / sum(scaled_latencies(untraced)), "ratio"),
    })
    for case, rate in rates["python"].items():
        m[f"search.kernel.python.{case}_nodes_per_s"] = (rate, "nodes/s")
    return m, rates


# -- environment ----------------------------------------------------------------


def environment() -> dict:
    code = ("import json, importlib.util, qwitt.search as s; print(json.dumps({"
            "'backend': s.BACKEND, 'backends': sorted(s.available_backends()),"
            "'cython': importlib.util.find_spec('Cython') is not None}))")
    info = json.loads(run([PY, "-c", code]).stdout)
    commit = None
    if shutil.which("git"):
        cp = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                            text=True, env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)))
        commit = cp.stdout.strip() if cp.returncode == 0 else None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "qwitt").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        **info,
        "git_commit": commit,
        "source_sha256": digest.hexdigest()[:16],
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="qwitt benchmark (see perfbench/README.md)")
    ap.add_argument("--workload", required=True, choices=["decide", "structure"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "qwitt" / "__init__.py").is_file():
        print("perfbench: no qwitt sources under src/qwitt; run from a checkout of the repository",
              file=sys.stderr)
        return 2

    work = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    inputs = work / "inputs.json"
    count = max(1, round(OPS_PER_S[args.workload] * args.seconds))
    run([PY, str(HERE / "gen.py"), "--workload", args.workload, "--seed", str(args.seed),
         "--count", str(count), "--out", str(inputs)])
    reqs = json.loads(inputs.read_text())
    setup_inputs = work / "setup-inputs.json"
    setup_inputs.write_text(json.dumps(reqs[:SETUP_REQUESTS]))

    def setup_probes(n):
        """(set-up CPU seconds, speed probe seconds) of n fresh workers."""
        return [start_worker(args.workload, setup_inputs, "--setup-only") for _ in range(n)]

    # set-up workers on both sides of the timed window, so that set-up is
    # not sampled at a single moment of the machine's load
    probes = [] if args.trace else setup_probes(SETUP_PROBES // 2)
    trace = str(work / "trace") if args.trace else ""
    res = worker(args.workload, inputs, work / "result.json", trace=trace)
    details = {
        "workload": args.workload,
        "seed": args.seed,
        "environment": environment(),
        "requests_generated": len(reqs),
        "operations": res["attempted"],
        "latency_samples": len(res["latencies"]),
        "window_s": res["window_s"],
        "speed_probes": len(res["probes"]),
        "probe_median_s": res["probe_median_s"],
        "failures": res["failures"],
    }
    if args.trace:
        half = work / "untraced-inputs.json"
        half.write_text(json.dumps(reqs[:len(reqs) // 2]))
        untraced = worker(args.workload, half, work / "untraced.json")
        metrics, rates = per_layer(args.seed, work, res, untraced)
        details["kernel_nodes_per_s"] = rates
        details["untraced_window_s"] = untraced["window_s"]
    else:
        probes += setup_probes(SETUP_PROBES - len(probes))
        metrics = end_to_end(res, statistics.median(cpu * PROBE_REF_S / speed
                                                    for cpu, speed in probes))
        details["unscaled"] = {
            "setup_s": statistics.median(cpu for cpu, _ in probes),
            "ops_per_s": res["attempted"] / res["window_s"],
            "latency_p50_ms": 1e3 * statistics.median(res["latencies"]),
        }
    wrong = [f for f in res["failures"] if f["kind"] == "wrong"]
    print(json.dumps(details, sort_keys=True))
    print(json.dumps({
        "correct": not wrong,
        "attempted": res["attempted"],
        "failed": len(res["failures"]),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
