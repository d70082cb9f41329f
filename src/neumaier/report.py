"""Report serialization: the JSON records the CLI renders as JSON, CSV
or human-readable output.

Conventions: exact rationals are emitted as "p/q" strings ("p" when the
denominator is 1), arbitrary-precision charpoly coefficients as decimal
strings, reals as JSON numbers, vertex sets as sorted lists.
"""

from __future__ import annotations

import math
from typing import Any

from .classify import (
    Analysis,
    FourEvRefutation,
    SweepAggregate,
    TheoremOutcome,
)
from .cliques import CliqueReport
from .graphs import bits
from .spectra import Spectrum

CSV_HEADER = (
    "graph6,taxonomy,v,k,lambda,s,e,distinct_count,theta_min,theta_max2"
)


def record_csv(rec: dict[str, Any]) -> str:
    """The ``CSV_HEADER`` row of a ``class_report_json`` record."""
    p = rec["params"]
    sp = rec["spectrum"]
    eigs = sp["eigs"]
    tmin = f"{eigs[-1][0]:.10g}" if eigs else ""
    tmax2 = f"{eigs[1][0]:.10g}" if sp["distinct"] >= 2 else ""
    fields = [
        rec["graph6"] or "",
        rec["taxonomy"],
        str(rec["n"]),
        str(p.get("k", "")),
        str(p.get("lambda", "")),
        str(p.get("s", "")),
        str(p.get("e", "")),
        str(sp["distinct"]),
        tmin,
        tmax2,
    ]
    return ",".join(fields)


def record_human(rec: dict[str, Any]) -> str:
    """A ``class_report_json`` record as text."""
    lines = [f"graph {rec['graph6']}  (n={rec['n']})"]
    lines.append(f"  taxonomy: {rec['taxonomy']}")
    p = rec["params"]
    if "k" in p:
        lines.append(f"  (v,k,lambda) = ({rec['n']},{p['k']},{p['lambda']})")
    if "mu" in p:
        lines.append(f"  mu = {p['mu']}")
    if "s" in p:
        lines.append(f"  s = {p['s']}, e = {p['e']}")
    spec = ", ".join(f"{v:.6g}^{m}" for v, m in rec["spectrum"]["eigs"])
    lines.append(f"  spectrum: {{{spec}}}  distinct={rec['spectrum']['distinct']}")
    for tid, o in rec["theorems"].items():
        tag = o["status"] + (" (vacuous)" if o.get("vacuous") else "")
        lines.append(f"  [{tid:>9}] {tag}")
    return "\n".join(lines)


def spectrum_json(s: Spectrum) -> dict[str, Any]:
    return {
        "eigs": [[value, mult] for value, mult in s.eigs],
        "distinct": s.distinct_count,
        "charpoly": [str(c) for c in s.charpoly.coeffs],
    }


def clique_json(report: CliqueReport) -> dict[str, Any]:
    return {
        "members": sorted(bits(report.members)),
        "order": report.order,
        "is_maximal": report.is_maximal,
        "is_regular": report.is_regular,
        "nexus": report.nexus,
    }


def params_json(rep: Analysis) -> dict[str, Any]:
    out: dict[str, Any] = {"v": rep.graph.n}
    if rep.erg is not None:
        out["k"] = rep.erg.k
        out["lambda"] = rep.erg.lam
    if rep.srg is not None:
        out["mu"] = rep.srg.mu
    if rep.s is not None:
        out["s"] = rep.s
        out["e"] = rep.e
    if rep.avg is not None:
        a = rep.avg
        out.update(
            {
                "kbar": str(a.kbar),
                "lambdabar": str(a.lambdabar),
                "mubar": str(a.mubar),
                "sbar": a.sbar,
                "ebar": a.ebar,
                "theta_m": a.theta_m,
                "theta_M": a.theta_M,
            }
        )
    return out


def outcome_json(o: TheoremOutcome) -> dict[str, Any]:
    out: dict[str, Any] = {"status": o.status}
    if o.vacuous:
        out["vacuous"] = True
    if o.equality is not None:
        out["equality"] = o.equality
    if o.witness is not None:
        out["witness"] = o.witness
    if o.detail:
        out["detail"] = o.detail
    return out


def class_report_json(rep: Analysis) -> dict[str, Any]:
    return {
        "graph6": rep.graph6,
        "n": rep.graph.n,
        "taxonomy": rep.taxonomy.value,
        "params": params_json(rep),
        "spectrum": spectrum_json(rep.spectrum),
        "diameter": None if math.isinf(rep.diameter) else rep.diameter,
        "regular_cliques": [clique_json(c) for c in rep.regular_cliques],
        "theorems": {tid: outcome_json(o) for tid, o in rep.theorems.items()},
    }


def aggregate_json(agg: SweepAggregate, ok: bool) -> dict[str, Any]:
    """The aggregate as a JSON object; ``ok`` is the sweep's verdict,
    the one its exit code reports."""
    doc = {
        "total": agg.total,
        "taxonomy": dict(sorted(agg.taxonomy_counts.items())),
        "distinct_histogram": {
            str(k): v for k, v in sorted(agg.distinct_histogram.items())
        },
        "theorems": {
            tid: dict(st) for tid, st in sorted(agg.theorem_stats.items())
        },
        "violations": {
            tid: sorted(ws) for tid, ws in sorted(agg.violations.items())
        },
        "neumaier_four_eigenvalue_count": agg.neumaier_four_count,
        "strictly_neumaier": [
            {"graph6": g6, "distinct": d} for g6, d in sorted(agg.strictly_neumaier)
        ],
        "cluster_mismatches": agg.cluster_mismatches,
        "ok": ok,
    }
    # a clean sweep's document keeps its shape
    if agg.cluster_mismatches:
        doc["cluster_mismatch_witnesses"] = sorted(agg.cluster_mismatch_witnesses)
    return doc


def aggregate_csv(agg: SweepAggregate) -> str:
    lines = ["theorem,holds,vacuous,skipped,violated"]
    for tid, st in sorted(agg.theorem_stats.items()):
        lines.append(
            f"{tid},{st['holds']},{st['vacuous']},{st['skipped']},{st['violated']}"
        )
    return "\n".join(lines)


def aggregate_human(agg: SweepAggregate, ok: bool) -> str:
    """The aggregate as text, ending in the verdict ``ok``."""
    lines = [f"graphs analyzed: {agg.total}"]
    lines.append("taxonomy buckets:")
    for name, count in sorted(agg.taxonomy_counts.items()):
        lines.append(f"  {name:<28} {count}")
    if agg.distinct_histogram:
        hist = ", ".join(
            f"{k}:{v}" for k, v in sorted(agg.distinct_histogram.items())
        )
        lines.append(f"distinct eigenvalue histogram: {hist}")
    lines.append("theorem matrix:")
    lines.append(f"  {'theorem':<12} {'holds':>9} {'vacuous':>9} {'skipped':>9} {'violated':>9}")
    for tid, st in sorted(agg.theorem_stats.items()):
        lines.append(
            f"  {tid:<12} {st['holds']:>9} {st['vacuous']:>9} "
            f"{st['skipped']:>9} {st['violated']:>9}"
        )
    lines.append(
        f"Neumaier graphs with four distinct eigenvalues: {agg.neumaier_four_count}"
    )
    if agg.strictly_neumaier:
        lines.append("strictly Neumaier graphs:")
        for g6, d in sorted(agg.strictly_neumaier):
            lines.append(f"  {g6} (distinct={d})")
    if agg.cluster_mismatches:
        lines.append(f"cluster/exact mismatches: {agg.cluster_mismatches}")
        lines.append(
            f"cluster mismatch witnesses: {' '.join(sorted(agg.cluster_mismatch_witnesses))}"
        )
    for tid, ws in sorted(agg.violations.items()):
        lines.append(f"witnesses[{tid}]: {' '.join(sorted(ws))}")
    lines.append("verdict: " + ("all assertions hold" if ok else "FAILED"))
    return "\n".join(lines)


def refutation_json(r: FourEvRefutation) -> dict[str, Any]:
    return {
        "inputs": {"k": r.k, "theta": r.theta, "theta2": r.theta2, "e": r.e},
        "derived": {"s": r.s, "v": r.v, "lambda": r.lam, "theta1": r.theta1},
        "residuals": {
            "vertex_count": r.vertex_count_residual,
            "triangle_count": r.triangle_count_residual,
        },
        "integral": {"theta": r.integral_theta, "e": r.integral_e},
        "contradiction": r.contradiction,
        "reason": r.reason,
    }


def refutation_human(r: FourEvRefutation) -> str:
    return "\n".join(
        [
            "four-distinct-eigenvalue refutation trail",
            f"  inputs: k={r.k:g}, theta={r.theta:g}, theta2={r.theta2:g}, e={r.e:g}"
            f"  (theta integral: {r.integral_theta}, e integral: {r.integral_e})",
            f"  s = theta + e = {r.s:g}",
            f"  v = (theta+e+1)(k-theta)/e = {r.v:g}"
            f"  [vertex-count residual {r.vertex_count_residual:.3g}]",
            f"  lambda = theta+e-1+(k-theta-e)(e-1)/(theta+e) = {r.lam:g}"
            f"  [triangle-count residual {r.triangle_count_residual:.3g}]",
            f"  theta1 = -k/(e+theta) = {r.theta1:g}",
            f"  contradiction: {r.contradiction} -- {r.reason}",
        ]
    )
