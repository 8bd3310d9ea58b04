"""Span tracer for the qwitt benchmark, installed from outside the library.

`Tracer.install` wraps the public entry points of each layer.  A wrapper is
put at every binding site in the loaded ``qwitt.*`` modules whose value *is*
the original function, so ``from .x import f`` bindings are covered as well
as ``module.f`` lookups.  Every call records a span (span id, name, start,
end, parent span id, operation id) into flat arrays kept in memory; `dump`
writes them out when the run ends.  Self time is a span's duration minus the
durations of its direct children.

`summary` returns totals (counts, seconds, counters), which `layer_metrics`
turns into the per-layer metrics.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from array import array
from collections import defaultdict

# (span name, module, attribute).  The layer is the part before the dot.
TARGETS = [
    ("search.search_vectors", "qwitt.search", "search_vectors"),
    ("qform.metabolic_search", "qwitt.qform", "metabolic_search"),
    ("qform.isometry_search", "qwitt.qform", "isometry_search"),
    ("qform.embedding_search", "qwitt.qform", "embedding_search"),
    ("qform.absorb_embed", "qwitt.qform", "absorb_embed"),
    ("abelian.snf", "qwitt._intmat", "SNF"),
    ("abelian.kernel", "qwitt.abelian", "kernel"),
    ("abelian.subgroup", "qwitt.abelian", "subgroup"),
    ("formparam.classify", "qwitt.formparam", "classify"),
    ("formparam.maximal_splitting", "qwitt.formparam", "maximal_splitting"),
    ("qtensor.present", "qwitt.qtensor", "present"),
    ("witt.witt_group", "qwitt.witt", "witt_group"),
    ("witt.witt_class", "qwitt.witt", "witt_class"),
    ("witt.sigma_subgroup", "qwitt.witt", "sigma_subgroup"),
    ("witt.lambda_quotient", "qwitt.witt", "lambda_quotient"),
    ("witt.induced_witt_map", "qwitt.witt", "induced_witt_map"),
]

# lru_cached entry points whose public cache_info() gives a hit ratio.
CACHED = {"formparam.maximal_splitting", "qtensor.present", "witt.witt_group"}

BUDGET_REASON = "node budget exhausted"


def _max_bits(mat) -> int:
    return max((abs(x) for row in mat for x in row), default=0).bit_length()


class Tracer:
    def __init__(self):
        self.names = [t[0] for t in TARGETS]
        self.sid = array("q")
        self.name = array("q")
        self.t0 = array("d")
        self.t1 = array("d")
        self.parent = array("q")
        self.op_of = array("q")
        self.op = -1
        self.counters = defaultdict(int)
        self._stack = []
        self._next = 0
        self._patches = []
        self._cache0 = {}
        self._originals = {}

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        """Wrap every target at each of its bindings in loaded qwitt modules."""
        mods = [m for n, m in list(sys.modules.items()) if n.startswith("qwitt") and m]
        for idx, (name, modname, attr) in enumerate(TARGETS):
            orig = getattr(sys.modules[modname], attr)
            self._originals[name] = orig
            wrapper = self._wrap(idx, name, orig)
            for mod in mods:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        self._patches.append((mod, key, orig))
                        setattr(mod, key, wrapper)
            if name in CACHED:
                info = orig.cache_info()
                self._cache0[name] = (info.hits, info.misses)

    def uninstall(self) -> None:
        for mod, key, orig in reversed(self._patches):
            setattr(mod, key, orig)
        self._patches.clear()

    def _wrap(self, idx: int, name: str, orig):
        pre = post = None
        if name == "search.search_vectors":
            post = self._post_search
        elif name.startswith("qform."):
            sig = inspect.signature(orig)
            post = lambda a, k, res: self._post_query(sig, a, k, res)  # noqa: E731
        elif name == "abelian.snf":
            pre = self._pre_snf
        stack = self._stack
        perf = time.perf_counter

        def wrapper(*a, **k):
            if pre is not None:
                pre(a, k)
            sid = self._next
            self._next = sid + 1
            parent = stack[-1] if stack else -1
            stack.append(sid)
            t0 = perf()
            try:
                res = orig(*a, **k)
            finally:
                t1 = perf()
                stack.pop()
                self.sid.append(sid)
                self.name.append(idx)
                self.t0.append(t0)
                self.t1.append(t1)
                self.parent.append(parent)
                self.op_of.append(self.op)
            if post is not None:
                post(a, k, res)
            return res

        wrapper.__wrapped__ = orig
        wrapper.__name__ = getattr(orig, "__name__", name)
        return wrapper

    # -- counters -----------------------------------------------------------

    def _post_search(self, a, k, res) -> None:
        c = self.counters
        results, nodes, _ = res
        max_nodes = a[4] if len(a) > 4 else k["max_nodes"]
        c["search.nodes"] += nodes
        c["search.vectors"] += len(results)
        c["search.hits"] += bool(results)
        c["search.budget1_calls"] += max_nodes == 1

    def _post_query(self, sig, a, k, res) -> None:
        c = self.counters
        status = getattr(res, "status", "found")  # absorb_embed returns an Embedding
        reason = getattr(res, "reason", "")
        if status == "unknown":
            status = "unknown_budget" if reason == BUDGET_REASON else "unknown_box"
        c["qform." + status] += 1
        if reason == BUDGET_REASON:
            bound = sig.bind(*a, **k)
            bound.apply_defaults()
            c["qform.exhausted_nodes"] += res.nodes
            c["qform.exhausted_budget"] += bound.arguments["node_budget"]

    def _pre_snf(self, a, k) -> None:
        bits = _max_bits(a[0] if a else k["mat"])
        if bits > self.counters["abelian.snf_max_bits"]:
            self.counters["abelian.snf_max_bits"] = bits

    # -- results ------------------------------------------------------------

    def summary(self) -> dict:
        """Totals over the recorded spans and counters."""
        n = len(self.sid)
        index = {self.sid[i]: i for i in range(n)}
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0 and p in index:
                child[index[p]] += self.t1[i] - self.t0[i]
        count = defaultdict(int)
        dur = defaultdict(float)
        self_s = defaultdict(float)
        for i in range(n):
            nm = self.names[self.name[i]]
            d = self.t1[i] - self.t0[i]
            count[nm] += 1
            dur[nm] += d
            self_s[nm] += d - child[i]
        cache = {}
        for name, (h0, m0) in self._cache0.items():
            info = self._originals[name].cache_info()
            cache[name] = [info.hits - h0, info.misses - m0]
        return {
            "count": dict(count),
            "dur": dict(dur),
            "self": dict(self_s),
            "counters": dict(self.counters),
            "cache": cache,
        }

    def dump(self, path) -> None:
        """Write the spans as JSON columns (ids, names, times, parents, ops)."""
        with open(path, "w") as fh:
            json.dump(
                {
                    "names": self.names,
                    "sid": self.sid.tolist(),
                    "name": self.name.tolist(),
                    "t0": self.t0.tolist(),
                    "t1": self.t1.tolist(),
                    "parent": self.parent.tolist(),
                    "op": self.op_of.tolist(),
                },
                fh,
            )


def _ratio(a, b) -> float:
    return a / b if b else 0.0


def layer_metrics(s: dict, ops: int) -> dict:
    """Per-layer metrics (value, unit) from the summary of `ops`
    operations.  Work counts and seconds are per operation, so that runs
    that got through different numbers of operations compare; outcome
    counts of the qform search routines are shares of their queries."""
    count, dur, self_s = s["count"], s["dur"], s["self"]
    c = defaultdict(int, s["counters"])

    def layer(prefix, table):
        return sum(v for k, v in table.items() if k.startswith(prefix + "."))

    def hit(name):
        h, m = s["cache"].get(name, [0, 0])
        return _ratio(h, h + m)

    def per_op(value, unit):
        return value / ops, unit + "/op"

    calls = count.get("search.search_vectors", 0)
    search_s = self_s.get("search.search_vectors", 0.0)
    queries = layer("qform", count)
    return {
        "search.calls": per_op(calls, "count"),
        "search.nodes": per_op(c["search.nodes"], "count"),
        "search.self_s": per_op(search_s, "s"),
        "search.nodes_per_s": (_ratio(c["search.nodes"], search_s), "nodes/s"),
        "search.vectors": per_op(c["search.vectors"], "count"),
        "search.budget1_calls": per_op(c["search.budget1_calls"], "count"),
        "search.hit_ratio": (_ratio(c["search.hits"], calls), "ratio"),
        "qform.queries": per_op(queries, "count"),
        "qform.self_s": per_op(layer("qform", self_s), "s"),
        "qform.glue_ratio": (_ratio(layer("qform", self_s), layer("qform", dur)), "ratio"),
        "qform.budget_overshoot": (
            _ratio(c["qform.exhausted_nodes"], c["qform.exhausted_budget"]), "ratio"),
        "qform.found": (_ratio(c["qform.found"], queries), "ratio"),
        "qform.no": (_ratio(c["qform.no"], queries), "ratio"),
        "qform.unknown_box": (_ratio(c["qform.unknown_box"], queries), "ratio"),
        "qform.unknown_budget": (_ratio(c["qform.unknown_budget"], queries), "ratio"),
        "abelian.snf_calls": per_op(count.get("abelian.snf", 0), "count"),
        "abelian.snf_s": per_op(dur.get("abelian.snf", 0.0), "s"),
        "abelian.snf_max_bits": (c["abelian.snf_max_bits"], "bits"),
        "abelian.subgroup_s": per_op(dur.get("abelian.subgroup", 0.0), "s"),
        "abelian.kernel_s": per_op(dur.get("abelian.kernel", 0.0), "s"),
        "formparam.classify_s": per_op(dur.get("formparam.classify", 0.0), "s"),
        "formparam.split_hit_ratio": (hit("formparam.maximal_splitting"), "ratio"),
        "qtensor.present_calls": per_op(count.get("qtensor.present", 0), "count"),
        "qtensor.present_s": per_op(dur.get("qtensor.present", 0.0), "s"),
        "qtensor.present_hit_ratio": (hit("qtensor.present"), "ratio"),
        "witt.witt_group_s": per_op(dur.get("witt.witt_group", 0.0), "s"),
        "witt.witt_group_hit_ratio": (hit("witt.witt_group"), "ratio"),
        "witt.witt_class_calls": per_op(count.get("witt.witt_class", 0), "count"),
        "witt.witt_class_s": per_op(dur.get("witt.witt_class", 0.0), "s"),
        "witt.natural_s": per_op(
            dur.get("witt.sigma_subgroup", 0.0) + dur.get("witt.lambda_quotient", 0.0), "s"),
        "witt.induced_map_s": per_op(dur.get("witt.induced_witt_map", 0.0), "s"),
    }
