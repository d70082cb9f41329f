"""In-process tracing of the package, from the benchmark's own code.

``install`` wraps the package functions each per-layer metric needs and
rebinds them everywhere they are looked up: the defining module, every
module that imported them by name, and the ``VERIFIERS`` table.  Nothing
under ``src/`` is edited.  Spans (name, start, end, parent) are kept in
memory; ``layer_metrics`` turns them into self times and counts.

Two pitfalls handled here: ``import neumaier.classify`` yields the
function ``classify`` (the package ``__init__`` rebinds the name), so
modules are taken from ``sys.modules``; and ``classify.py`` imports
``spectrum``, ``regular_cliques`` and the rest by name, so a wrapper on
the defining module alone would never be called.
"""

from __future__ import annotations

import json
import statistics
import sys
import types
from collections import Counter, defaultdict
from time import perf_counter

from oracle import THEOREMS

#: (module, function, span name); the span name is also the layer key
SPANS = (
    ("neumaier._kernels", "sweep_masks", "_kernels.sweep_masks"),
    ("neumaier._kernels", "charpoly_adj", "_kernels.charpoly_adj"),
    ("neumaier._kernels", "jacobi_eigenvalues", "_kernels.jacobi_eigenvalues"),
    ("neumaier.intpoly", "squarefree_degree", "intpoly.squarefree"),
    ("neumaier.intpoly", "squarefree_decomposition", "intpoly.squarefree"),
    ("neumaier.regularity", "edge_regular_params", "regularity.params"),
    ("neumaier.regularity", "srg_params", "regularity.params"),
    ("neumaier.regularity", "avg_params", "regularity.params"),
    ("neumaier.regularity", "is_complete_multipartite", "regularity.params"),
    ("neumaier.cliques", "extension_hypothesis_holds", "cliques.extension_hypothesis"),
    ("neumaier.cliques", "max_clique_order", "cliques.max_clique_order"),
    ("neumaier.classify", "sweep_labeled", "classify.sweep_labeled"),
    ("neumaier.classify", "classify", "classify.classify"),
    ("neumaier.graphs", "decode_graph6", "graphs.decode_graph6"),
    ("neumaier.graphs", "diameter", "graphs.diameter"),
    ("neumaier.report", "class_report_json", "report.class_report_json"),
)
#: the compiled and pure-Python kernels call their own helpers; their
#: inner loops stay inside the one ``_kernels.sweep_masks`` span
UNPATCHED = ("neumaier._kernels._slow", "neumaier._kernels._fast")


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.stack: list[int] = []
        self.counts: Counter = Counter()

    def span(self, name, fn):
        def traced(*args, **kwargs):
            sid = len(self.spans)
            self.spans.append([name, 0.0, 0.0, self.stack[-1] if self.stack else -1])
            self.stack.append(sid)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                self.stack.pop()
                self.spans[sid][1:3] = t0, t1

        return traced

    def counted(self, key, fn):
        def traced(*args, **kwargs):
            self.counts[key] += 1
            return fn(*args, **kwargs)

        return traced

    def counted_items(self, key, fn):
        """Generator wrapper: counts passes started and items yielded, and
        the items yielded straight into a ``regular_cliques`` span."""

        def traced(*args, **kwargs):
            self.counts[key + ".passes"] += 1
            inside = bool(self.stack) and self.spans[self.stack[-1]][0] == "cliques.regular_cliques"
            for item in fn(*args, **kwargs):
                self.counts[key + ".items"] += 1
                if inside:
                    self.counts["cliques.examined_by_regular_cliques"] += 1
                yield item

        return traced

    def regular_cliques(self, fn):
        inner = self.span("cliques.regular_cliques", fn)

        def traced(g):
            found = inner(g)
            self.counts["cliques.regular_found"] += len(found)
            return found

        return traced

    def spectrum(self, fn):
        inner = self.span("spectra.spectrum", fn)

        def traced(*args, **kwargs):
            before = self.counts["spectra.cluster_count_calls"]
            out = inner(*args, **kwargs)
            if self.counts["spectra.cluster_count_calls"] - before > 1:
                self.counts["spectra.tol_refinements"] += 1
            return out

        return traced

    def write(self, path) -> None:
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="ascii") as fh:
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start - t0,
                                     "end": end - t0, "parent": parent}) + "\n")


def _rebind(orig, new, undo) -> None:
    """Replace ``orig`` by ``new`` in every loaded package module."""
    for name, mod in list(sys.modules.items()):
        if not (name == "neumaier" or name.startswith("neumaier.")) or name in UNPATCHED:
            continue
        for attr, value in list(vars(mod).items()):
            if value is orig:
                undo.append((mod, attr, value))
                setattr(mod, attr, new)


def install(tracer: Tracer):
    """Wrap the package; returns a function that restores it."""
    undo: list = []
    mods = sys.modules
    for mod, fn, span in SPANS:
        orig = getattr(mods[mod], fn)
        _rebind(orig, tracer.span(span, orig), undo)
    kern = mods["neumaier._kernels"]
    _rebind(kern.cluster_count, tracer.counted("spectra.cluster_count_calls", kern.cluster_count), undo)
    ip = mods["neumaier.intpoly"]
    _rebind(ip.gcd_int, tracer.counted("intpoly.gcd_calls", ip.gcd_int), undo)
    sp = mods["neumaier.spectra"]
    _rebind(sp.spectrum, tracer.spectrum(sp.spectrum), undo)
    cq = mods["neumaier.cliques"]
    _rebind(cq.regular_cliques, tracer.regular_cliques(cq.regular_cliques), undo)
    _rebind(cq.maximal_cliques, tracer.counted_items("cliques.maximal_cliques", cq.maximal_cliques), undo)
    _rebind(cq.cliques_of_order, tracer.counted_items("cliques.cliques_of_order", cq.cliques_of_order), undo)
    table = mods["neumaier.classify"].VERIFIERS
    for tid in THEOREMS:
        orig = table[tid]
        new = tracer.span(f"classify.verify.{tid}", orig)
        _rebind(orig, new, undo)
        undo.append((table, tid, orig))
        table[tid] = new
    cli = mods["neumaier.cli"]
    undo.append((cli, "json", cli.json))
    cli.json = types.SimpleNamespace(dumps=tracer.span("report.json_dumps", json.dumps))

    def restore() -> None:
        for target, key, value in reversed(undo):
            if isinstance(target, dict):
                target[key] = value
            else:
                setattr(target, key, value)

    return restore


def _percentile(values, q):
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def layer_metrics(tracer: Tracer, rounds: int) -> dict[str, float]:
    """Per-layer self times (s) and counts, per traced round."""
    spans = tracer.spans
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    self_s: dict[str, float] = defaultdict(float)
    for i, (name, start, end, _) in enumerate(spans):
        self_s[name] += end - start - child[i]

    def under_sweep(i):
        while i >= 0:
            if spans[i][0] == "classify.sweep_labeled":
                return True
            i = spans[i][3]
        return False

    graph_ms = classify_ms(tracer)
    sweep_regular = sum(s[2] - s[1] for s in spans
                        if s[0] == "classify.classify" and under_sweep(s[3]))
    c = tracer.counts
    totals = {
        "kernels.sweep_masks_s": self_s["_kernels.sweep_masks"],
        "kernels.charpoly_adj_s": self_s["_kernels.charpoly_adj"],
        "kernels.jacobi_eigenvalues_s": self_s["_kernels.jacobi_eigenvalues"],
        "intpoly.squarefree_s": self_s["intpoly.squarefree"],
        "intpoly.gcd_calls": c["intpoly.gcd_calls"],
        "spectra.spectrum_s": self_s["spectra.spectrum"],
        "spectra.tol_refinements": c["spectra.tol_refinements"],
        "regularity.params_s": self_s["regularity.params"],
        "cliques.regular_cliques_s": self_s["cliques.regular_cliques"],
        "cliques.maximal_cliques_enumerated": c["cliques.maximal_cliques.items"],
        "cliques.extension_hypothesis_s": self_s["cliques.extension_hypothesis"],
        "cliques.cliques_of_order_enumerated": c["cliques.cliques_of_order.items"],
        "cliques.max_clique_order_s": self_s["cliques.max_clique_order"],
        **{f"classify.verify.{t}_s": self_s[f"classify.verify.{t}"] for t in THEOREMS},
        "classify.sweep_regular_s": sweep_regular,
        "graphs.decode_graph6_s": self_s["graphs.decode_graph6"],
        "graphs.diameter_s": self_s["graphs.diameter"],
        "report.class_report_json_s": self_s["report.class_report_json"] + self_s["report.json_dumps"],
    }
    out = {k: v / rounds for k, v in totals.items()}
    examined = c["cliques.examined_by_regular_cliques"]
    out["cliques.maximal_clique_passes"] = c["cliques.maximal_cliques.passes"] / max(len(graph_ms), 1)
    out["cliques.regular_clique_yield"] = c["cliques.regular_found"] / examined if examined else 0.0
    out["classify.graph_ms_p50"] = _percentile(graph_ms, 50)
    out["classify.graph_ms_p90"] = _percentile(graph_ms, 90)
    return out


def classify_ms(tracer: Tracer) -> list[float]:
    """Inclusive classify time of every traced call, in call order."""
    return [(s[2] - s[1]) * 1e3 for s in tracer.spans if s[0] == "classify.classify"]
